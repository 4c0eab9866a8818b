"""Vector/matrix kernels: filter, element-wise union and intersection,
and the (min,+) vector-matrix product.

Union semantics carry a deliberate pass-through rule: where exactly one
input holds an entry, that entry is emitted without consulting the
operator. Comparison operators therefore leak stale entries into their
output wherever only one side is defined; callers combining vectors with a
comparison must gate the output with a mask over the domain they actually
care about (see ewise_add_vector). Comparison results are normalized to
1.0, and entries that evaluate to 0.0 are dropped, so the output can be
consumed structurally as a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseMatrix,
    SparseVector,
    _ones,
    _positions,
)
from .fused import _push

__all__ = [
    "BinaryOp",
    "MIN",
    "TIMES",
    "LESS",
    "OR",
    "greater_than",
    "positive_at_most",
    "in_half_open",
    "filter_vector",
    "filter_matrix",
    "ewise_add_vector",
    "ewise_mult_vector",
    "vxm_min_plus",
]


def greater_than(limit: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: v > limit


def positive_at_most(limit: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: (v > 0) & (v <= limit)


def in_half_open(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: (v >= lo) & (v < hi)


@dataclass(frozen=True)
class BinaryOp:
    """Elementwise combine. `boolean` ops yield structural 1.0/0.0 results;
    the 0.0 entries are dropped when a kernel finalizes its output."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str
    boolean: bool = False

    def __call__(self, a, b):
        return self.fn(a, b)


MIN = BinaryOp(np.minimum, "min")
TIMES = BinaryOp(np.multiply, "*")
LESS = BinaryOp(lambda a, b: np.less(a, b).astype(VALUE_DTYPE), "a < b", boolean=True)
OR = BinaryOp(lambda a, b: np.logical_or(a, b).astype(VALUE_DTYPE), "or", boolean=True)


def _require_length(actual: int, expected: int, what: str) -> None:
    if actual != expected:
        raise ValueError(f"{what}: length {actual} does not match {expected}")


def _common(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in `a` and in `b` of the indices both sorted, duplicate-free
    arrays hold, in increasing index order. The smaller array is probed into
    the larger one, so the cost is O(min log max) rather than O(max)."""
    if a.size <= b.size:
        pb, found = _positions(b, a)
        return found.nonzero()[0], pb[found]
    pa, found = _positions(a, b)
    return pa[found], found.nonzero()[0]


def _result(length: int, idx: np.ndarray, out: np.ndarray) -> SparseVector:
    # adopt an op's output only when it is a fresh float64 array; any other
    # dtype, a view or a strided array takes the converting constructor
    if out.dtype == VALUE_DTYPE and out.flags.c_contiguous and out.flags.owndata:
        return SparseVector._adopt(length, idx, out)
    return SparseVector(length, idx, out)


def filter_vector(vec: SparseVector, pred: Callable[[np.ndarray], np.ndarray]) -> SparseVector:
    """Structural mask over the entries whose value satisfies the predicate;
    no false entry is ever stored."""
    idx = vec.indices[pred(vec.values)]
    return SparseVector._adopt(vec.length, idx, _ones(idx.size))


def filter_matrix(matrix: SparseMatrix, pred: Callable[[np.ndarray], np.ndarray]) -> SparseMatrix:
    """Keep exactly the entries whose weight satisfies the predicate,
    preserving coordinates and values."""
    # a row's new start counts the kept positions before its old one: no nnz-long prefix sum
    kept = pred(matrix.val).nonzero()[0]
    return SparseMatrix(
        matrix.n, kept.searchsorted(matrix.indptr), matrix.col[kept], matrix.val[kept]
    )


def _finalize_boolean(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # normalize to structural 1.0 / drop 0.0 so downstream Hadamard selects
    # cannot pick up arbitrary scalars from a comparison's output
    idx = idx[val != 0.0]
    return idx, _ones(idx.size)


def _restrict(vec: SparseVector, mask: SparseVector) -> SparseVector:
    if vec.indices is mask.indices:
        return vec
    keep = _common(vec.indices, mask.indices)[0]
    return SparseVector._adopt(vec.length, vec.indices[keep], vec.values[keep])


def ewise_add_vector(
    u: SparseVector,
    v: SparseVector,
    op: BinaryOp,
    mask: SparseVector | None = None,
) -> SparseVector:
    """Union combine: op runs only where both inputs hold an entry.

    Where exactly one input is defined its value passes through unchanged,
    whatever op is. With a comparison op this pass-through is hazardous:
    indices present only in the *other* vector surface in the result as if
    they had compared true. Gate with mask=<the domain you care about>
    (typically the left operand) to suppress them. Boolean ops normalize
    surviving entries to 1.0 and drop entries evaluating to 0.0.

    A mask restricts where the union is computed, not only what it keeps:
    both operands are cut down to the mask's indices before the merge, so a
    masked call costs about |mask| log n plus the merge of what is left.
    The output is the same as merging everything and then gating by the
    mask, since (u | v) & m == (u & m) | (v & m) with the same values.
    A mask that is an operand (mask=u) restricts that operand for free.
    When every index of v lies in u, u's indices are the union: the result
    shares them, and op updates a copy of u's values at v's positions.
    """
    _require_length(v.length, u.length, "ewise_add operand")
    if mask is not None:
        _require_length(mask.length, u.length, "mask")
        u, v = _restrict(u, mask), _restrict(v, mask)
    # linear merge of two sorted, duplicate-free index sets: v's own entries
    # land at their insertion slot plus the count of own entries before
    # them, u's entries fill the remaining slots in order, and op combines
    # the shared entries in their u slots
    pos = u.indices.searchsorted(v.indices)
    if u.nnz:
        both = u.indices[np.minimum(pos, u.nnz - 1)] == v.indices
    else:
        both = np.zeros(v.nnz, dtype=bool)
    own = ~both
    pos_own = pos[own]
    if not pos_own.size:
        idx, out = u.indices, u.values.copy()
        out[pos] = op(out[pos], v.values)
    else:
        slots = pos_own + np.arange(pos_own.size)
        from_u = np.empty(u.nnz + pos_own.size, dtype=bool)
        from_u.fill(True)
        from_u[slots] = False
        idx = np.empty(from_u.size, dtype=INDEX_DTYPE)
        idx[from_u] = u.indices
        idx[slots] = v.indices[own]
        out = np.empty(from_u.size, dtype=VALUE_DTYPE)
        out[from_u] = u.values
        out[slots] = v.values[own]
        shared = pos[both]
        out[shared + pos_own.searchsorted(shared, "right")] = op(u.values[shared], v.values[both])
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return SparseVector._adopt(u.length, idx, out)


def ewise_mult_vector(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    """Intersection combine (Hadamard for op=*): output only where both
    inputs hold an entry, with op(u value, v value).

    The smaller operand is probed into the larger one, so selecting a few
    entries out of a long vector costs the few, not the long one."""
    _require_length(v.length, u.length, "ewise_mult operand")
    if u.nnz == 0 or v.nnz == 0:
        return SparseVector._adopt(u.length, np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
    pu, pv = _common(u.indices, v.indices)
    idx = u.indices[pu]
    out = op(u.values[pu], v.values[pv])
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return _result(u.length, idx, out)


def vxm_min_plus(v: SparseVector, matrix: SparseMatrix) -> SparseVector:
    """(min,+) vector-matrix product: out[j] = min over stored i of
    v[i] + matrix[i][j].

    Pushes along the rows of `matrix` with the fused backend's own push, so
    the work is v's out-edges rather than every edge. Outputs whose
    reduction stays at the identity (+inf) are absent.

    For finite values of v this is bit-equal to gathering over the
    transpose: every candidate is the same single float sum
    v[i] + matrix[i][j], and the minimum of a multiset of floats does not
    depend on the order it is taken in (a sum with a weight > 0 is never
    -0.0, so no signed-zero tie can tell two orders apart).
    """
    _require_length(v.length, matrix.n, "vxm operand")
    if v.nnz == 0 or matrix.nnz == 0:
        return SparseVector._adopt(matrix.n, np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
    dense = np.full(matrix.n, math.inf, dtype=VALUE_DTYPE)
    out_idx = _push(v.values, v.indices, matrix, dense)
    return SparseVector._adopt(matrix.n, out_idx, dense[out_idx])
