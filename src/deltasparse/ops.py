"""Vector/matrix kernels: apply, filter, element-wise union and
intersection, and the (min,+) vector-matrix product.

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
    VALUE_DTYPE,
    SparseMatrix,
    SparseVector,
    _positions,
    mask_from_indices,
    matrix_transpose_view,
)
from .fused import _push

__all__ = [
    "UnaryPredicate",
    "BinaryOp",
    "MIN",
    "TIMES",
    "LESS",
    "OR",
    "greater_than",
    "positive_at_most",
    "in_half_open",
    "apply_vector",
    "filter_vector",
    "filter_matrix",
    "ewise_add_vector",
    "ewise_mult_vector",
    "vxm_min_plus",
]


@dataclass(frozen=True)
class UnaryPredicate:
    """Total scalar test, vectorized over value arrays."""

    fn: Callable[[np.ndarray], np.ndarray]
    description: str

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.fn(values)


def greater_than(limit: float) -> UnaryPredicate:
    return UnaryPredicate(lambda v: v > limit, f"x > {limit:g}")


def positive_at_most(limit: float) -> UnaryPredicate:
    return UnaryPredicate(lambda v: (v > 0) & (v <= limit), f"0 < x <= {limit:g}")


def in_half_open(lo: float, hi: float) -> UnaryPredicate:
    return UnaryPredicate(lambda v: (v >= lo) & (v < hi), f"{lo:g} <= x < {hi:g}")


@dataclass(frozen=True)
class BinaryOp:
    """Elementwise combine. `boolean` ops yield structural 1.0/0.0 results;
    the 0.0 entries are dropped when a kernel finalizes its output."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str
    commutative: bool
    boolean: bool = False

    def __call__(self, a, b):
        return self.fn(a, b)


MIN = BinaryOp(np.minimum, "min", commutative=True)
TIMES = BinaryOp(np.multiply, "*", commutative=True)
LESS = BinaryOp(
    lambda a, b: np.less(a, b).astype(VALUE_DTYPE), "a < b", commutative=False, boolean=True
)
OR = BinaryOp(
    lambda a, b: np.logical_or(a, b).astype(VALUE_DTYPE), "or", commutative=True, boolean=True
)


def _require_length(actual: int, expected: int, what: str) -> None:
    if actual != expected:
        raise ValueError(f"{what}: length {actual} does not match {expected}")


def _gate(indices: np.ndarray, mask: SparseVector) -> np.ndarray:
    _, found = _positions(mask.indices, indices)
    return found


def apply_vector(
    vec: SparseVector,
    op: UnaryPredicate | Callable[[np.ndarray], np.ndarray],
    mask: SparseVector | None = None,
) -> SparseVector:
    """Transform stored values elementwise; the mask gates which entries are
    written. Predicates produce a value-carrying 1.0/0.0 intermediate: false
    results stay stored. Use filter_vector to keep only the true ones.
    """
    idx, val = vec.indices, vec.values
    if mask is not None:
        _require_length(mask.length, vec.length, "mask")
        keep = _gate(idx, mask)
        idx, val = idx[keep], val[keep]
    out = op(val)
    if out.dtype != VALUE_DTYPE:
        out = out.astype(VALUE_DTYPE)
    return SparseVector(vec.length, idx, out)


def filter_vector(vec: SparseVector, pred: UnaryPredicate) -> SparseVector:
    """Structural mask over the entries whose value satisfies the predicate.

    Collapses the apply-then-keep-true idiom into one pass; no false entry
    is ever stored.
    """
    keep = pred(vec.values)
    return mask_from_indices(vec.length, vec.indices[keep])


def filter_matrix(matrix: SparseMatrix, pred: UnaryPredicate) -> SparseMatrix:
    """Keep exactly the entries whose weight satisfies the predicate,
    preserving coordinates and values."""
    keep = pred(matrix.val)
    indptr = np.concatenate([[0], np.cumsum(keep)])[matrix.indptr]
    # np.compress gathers several times faster than boolean indexing here
    return SparseMatrix(
        matrix.n, indptr, np.compress(keep, matrix.col), np.compress(keep, matrix.val)
    )


def _finalize_boolean(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # normalize to structural 1.0 / drop 0.0 so downstream Hadamard selects
    # cannot pick up arbitrary scalars from a comparison's output
    keep = val != 0.0
    idx = idx[keep]
    return idx, np.ones(idx.size, dtype=VALUE_DTYPE)


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
    """
    _require_length(v.length, u.length, "ewise_add operand")
    if mask is not None:
        _require_length(mask.length, u.length, "mask")
    # linear merge of two sorted, duplicate-free index sets: op combines the
    # shared entries in u's slots, then v's own entries go in at their places
    pos = np.searchsorted(u.indices, v.indices)
    if u.nnz:
        both = u.indices[np.minimum(pos, u.nnz - 1)] == v.indices
    else:
        both = np.zeros(v.nnz, dtype=bool)
    out = u.values.copy()
    out[pos[both]] = op(u.values[pos[both]], v.values[both])
    idx = np.insert(u.indices, pos[~both], v.indices[~both])
    out = np.insert(out, pos[~both], v.values[~both])
    if mask is not None:
        keep = _gate(idx, mask)
        idx, out = idx[keep], out[keep]
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return SparseVector(u.length, idx, out)


def ewise_mult_vector(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    """Intersection combine (Hadamard for op=*): output only where both
    inputs hold an entry."""
    _require_length(v.length, u.length, "ewise_mult operand")
    if u.nnz == 0 or v.nnz == 0:
        return SparseVector(u.length)
    pv, in_v = _positions(v.indices, u.indices)
    idx = u.indices[in_v]
    out = op(u.values[in_v], v.values[pv[in_v]])
    if out.dtype != VALUE_DTYPE:
        out = out.astype(VALUE_DTYPE)
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return SparseVector(u.length, idx, out)


def vxm_min_plus(
    v: SparseVector,
    transposed: SparseMatrix,
    mask: SparseVector | None = None,
) -> SparseVector:
    """(min,+) vector-matrix product, taking the matrix as its transposed
    view.

    The caller passes the transposed view T of the logical multiplicand M
    (row j of T lists M's entries that write output j), and out[j] = min
    over stored i of v[i] + M[i][j]. The product pushes: it reaches M itself
    through the view's cached back-reference and relaxes only the out-edges
    of v's stored entries, with the fused backend's own push, so the work is
    v's out-edges rather than every edge of T. Outputs whose reduction stays
    at the identity (+inf) are absent, and a mask, when given, gates which
    outputs are kept.

    For finite values of v this is bit-equal to gathering over T: every
    candidate is the same single float sum v[i] + M[i][j], and the minimum
    of a multiset of floats does not depend on the order it is taken in (a
    sum with a weight > 0 is never -0.0, so no signed-zero tie can tell two
    orders apart).
    """
    _require_length(v.length, transposed.ncols, "vxm operand")
    if mask is not None:
        _require_length(mask.length, transposed.nrows, "mask")
    if v.nnz == 0 or transposed.nnz == 0:
        return SparseVector(transposed.nrows)
    dense = np.full(transposed.nrows, math.inf, dtype=VALUE_DTYPE)
    out_idx = _push(v.values, v.indices, matrix_transpose_view(transposed), dense)
    if mask is not None:
        out_idx = out_idx[_gate(out_idx, mask)]
    return SparseVector(transposed.nrows, out_idx, dense[out_idx])
