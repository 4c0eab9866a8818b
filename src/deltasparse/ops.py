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

MIN's unions that take the dense accumulator scatter both operands into
one +inf workspace, the way vxm_min_plus reduces into its +inf scratch, and
read the result back as the slots that moved off +inf.
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
)
from .fused import _push

__all__ = [
    "BinaryOp",
    "MIN",
    "TIMES",
    "LESS",
    "OR",
    "in_half_open",
    "filter_vector",
    "ewise_add_vector",
    "ewise_mult_vector",
    "vxm_min_plus",
]


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

# the implicit entry of a distance vector: MIN's identity, the fill of the
# union's and the (min,+) product's workspaces
_INF = math.inf


def _require_length(actual: int, expected: int, what: str) -> None:
    if actual != expected:
        raise ValueError(f"{what}: length {actual} does not match {expected}")


# Unions over at most this many indices take the dense accumulator whatever
# the operand sizes. Replaying the unions an unfused solve of a road-pattern
# grid sends to the linear merge through both paths, the accumulator took
# 0.52x the merge's time at n = 576, 0.87x at 3,600 and 0.90x at 4,096, but
# 1.01x at 4,900, 1.07x at 6,400 and 1.25x at 8,100. With MIN's +inf
# workspace, warm solves of that 4,096-vertex grid still ran 1.03x slower
# with MIN kept out of the band (README, Performance notes).
_SMALL_UNION = 4096


def _dense_pays(probes: int, searched: int, n: int) -> bool:
    """Whether a few passes over an n-long workspace cost less than probing
    `probes` sorted indices into `searched` ones by binary search, at about
    log2(searched) steps a probe. The size rule of the intersection, and of
    the union over more than _SMALL_UNION indices."""
    return probes * searched.bit_length() > n


def _common(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in `a` and in `b` of the indices both sorted, duplicate-free
    arrays over 0..n-1 hold, in increasing index order. The smaller array is
    probed into the larger one, at O(min log max); when that costs more than
    O(n), the smaller one's positions are written into an n-long workspace
    and the larger one reads them back."""
    swap = a.size > b.size
    if swap:
        a, b = b, a
    if _dense_pays(a.size, b.size, n):
        mark = np.zeros(n, dtype=bool)
        mark[a] = True
        slot = np.empty(n, dtype=INDEX_DTYPE)
        slot[a] = np.arange(a.size)
        pb = mark[b].nonzero()[0]
        pa = slot[b[pb]]
    else:
        # b is empty only when a is too; a probe past b's end is clipped
        # onto b's last index, which is smaller: unequal
        pos = b.searchsorted(a)
        pa = (b.take(pos, mode="clip") == a).nonzero()[0]
        pb = pos[pa]
    return (pb, pa) if swap else (pa, pb)


def _result(length: int, idx: np.ndarray, out: np.ndarray) -> SparseVector:
    # adopt an op's output only when it is a fresh float64 array, one that
    # is no view; any other dtype, a view or a strided array takes the
    # converting constructor
    if out.dtype == VALUE_DTYPE and out.base is None and out.flags.c_contiguous:
        return SparseVector._adopt(length, idx, out)
    return SparseVector(length, idx, out)


def filter_vector(vec: SparseVector, pred: Callable[[np.ndarray], np.ndarray]) -> SparseVector:
    """Structural mask over the entries whose value satisfies the predicate;
    no false entry is ever stored."""
    idx = vec.indices[pred(vec.values)]
    return SparseVector._adopt(vec.length, idx, _ones(idx.size))


def _finalize_boolean(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # normalize to structural 1.0 / drop 0.0 so downstream Hadamard selects
    # cannot pick up arbitrary scalars from a comparison's output
    idx = idx[val != 0.0]
    return idx, _ones(idx.size)


def _merge(u: SparseVector, v: SparseVector, op: BinaryOp) -> tuple[np.ndarray, np.ndarray]:
    # linear merge of two sorted, duplicate-free index sets: v's own entries
    # land at their insertion slot plus the count of own entries before
    # them, u's entries fill the remaining slots in order, and op combines
    # the shared entries in their u slots
    pos = u.indices.searchsorted(v.indices)
    if u.indices.size:
        both = u.indices.take(pos, mode="clip") == v.indices
    else:
        both = np.zeros(v.indices.size, dtype=bool)
    own = ~both
    pos_own = pos[own]
    if not pos_own.size:
        out = u.values.copy()
        out[pos] = op.fn(out[pos], v.values)
        return u.indices, out
    slots = pos_own + np.arange(pos_own.size)
    from_u = np.empty(u.indices.size + pos_own.size, dtype=bool)
    from_u.fill(True)
    from_u[slots] = False
    idx = np.empty(from_u.size, dtype=INDEX_DTYPE)
    idx[from_u] = u.indices
    idx[slots] = v.indices[own]
    out = np.empty(from_u.size, dtype=VALUE_DTYPE)
    out[from_u] = u.values
    out[slots] = v.values[own]
    shared = pos[both]
    out[shared + pos_own.searchsorted(shared, "right")] = op.fn(u.values[shared], v.values[both])
    return idx, out


def _min_workspace(u: SparseVector, v: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    # MIN's accumulator: a +inf workspace takes u's values, and minimum.at
    # combines each of v's entries with its slot as minimum(u value, v
    # value), or with +inf, which leaves v's value as it is, -0.0 included.
    # The union is the slots off +inf, in index order
    acc = np.full(u.length, _INF, dtype=VALUE_DTYPE)
    acc[u.indices] = u.values
    np.minimum.at(acc, v.indices, v.values)
    idx = (acc != _INF).nonzero()[0]
    return idx, acc[idx]


def _accumulate(u: SparseVector, v: SparseVector, op: BinaryOp) -> tuple[np.ndarray, np.ndarray]:
    # dense accumulator over the index space; MIN takes its +inf workspace
    if op is MIN:
        return _min_workspace(u, v)
    # any other op: scatter v's values, then u's over them, op combines the
    # shared entries in place, and the union's indices come back in order
    # from one scan of the marks
    mark = np.zeros(u.length, dtype=bool)
    mark[u.indices] = True
    both = mark[v.indices]
    acc = np.empty(u.length, dtype=VALUE_DTYPE)
    acc[v.indices] = v.values
    acc[u.indices] = u.values
    shared = v.indices[both]
    acc[shared] = op.fn(acc[shared], v.values[both])
    mark[v.indices] = True
    idx = mark.nonzero()[0]
    return idx, acc[idx]


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
    they had compared true. Gate with mask=u, the left operand and the one
    mask this kernel takes (any other raises ValueError): u's indices are
    then the result's, and op updates a copy of u's values at the indices
    both hold, found as ewise_mult_vector finds them. Boolean ops normalize
    surviving entries to 1.0 and drop entries evaluating to 0.0.

    The merge takes one of two paths, with equal results. A dense
    accumulator over all n indices takes both operands in O(n + |u| + |v|)
    when n is at most _SMALL_UNION (4,096), where those passes cost less
    than the merge's per-call work, or when |v| log2 |u| exceeds n. Else a
    linear merge places v's entries by one binary search each into u; when
    every index of v lies in u, it shares u's indices in the result and
    updates a copy of u's values at v's positions.

    For MIN the accumulator is one +inf workspace: u's values are scattered
    into it, np.minimum.at combines v's into it, and the union is every
    slot that differs from +inf. That reads the union's indices off its
    values, which is exact because no vector stores +inf, the implicit
    entry of a distance vector: vector_build and vxm_min_plus drop it, and
    the SparseVector constructor's values must not hold it. Any other op,
    a BinaryOp built on np.minimum included, takes the marks path.
    """
    if v.length != u.length:
        _require_length(v.length, u.length, "ewise_add operand")
    if mask is u:
        pu, pv = _common(u.indices, v.indices, u.length)
        idx, out = u.indices, u.values.copy()
        out[pu] = op.fn(u.values[pu], v.values[pv])
    elif mask is not None:
        raise ValueError("ewise_add_vector takes only mask=None or mask=u, its left operand")
    elif u.length <= _SMALL_UNION or _dense_pays(v.indices.size, u.indices.size, u.length):
        idx, out = _accumulate(u, v, op)
    else:
        idx, out = _merge(u, v, op)
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return SparseVector._adopt(u.length, idx, out)


def ewise_mult_vector(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    """Intersection combine (Hadamard for op=*): output only where both
    inputs hold an entry, with op(u value, v value).

    By the merge kernels' size rule, the smaller operand is probed into the
    larger one by binary search while |smaller| log2 |larger| is at most n,
    so selecting a few entries out of a long vector costs the few, not the
    long one. Past that, an n-long workspace maps the smaller operand's
    positions in O(n + |u| + |v|)."""
    if v.length != u.length:
        _require_length(v.length, u.length, "ewise_mult operand")
    if not (u.indices.size and v.indices.size):
        return SparseVector._adopt(u.length, np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
    pu, pv = _common(u.indices, v.indices, u.length)
    idx = u.indices[pu]
    out = op.fn(u.values[pu], v.values[pv])
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return _result(u.length, idx, out)


def vxm_min_plus(v: SparseVector, matrix: SparseMatrix) -> SparseVector:
    """(min,+) vector-matrix product: out[j] = min over stored i of
    v[i] + matrix[i][j].

    Pushes along the rows of `matrix` with the fused backend's own push, so
    the work is v's out-edges rather than every edge, into a fresh n-long
    +inf workspace with no pre-filter. The output is the workspace's finite
    entries, read by one scan: sorted and distinct by construction, so
    nothing is sorted (Gustavson's dense accumulator, ACM TOMS 1978).
    Outputs whose reduction stays at the identity (+inf), a sum that
    overflows included, are absent.

    For finite values of v this is bit-equal to gathering over the
    transpose: every candidate is the same single float sum
    v[i] + matrix[i][j], and the minimum of a multiset of floats does not
    depend on the order it is taken in (a sum with a weight > 0 is never
    -0.0, so no signed-zero tie can tell two orders apart).
    """
    if v.length != matrix.n:
        _require_length(v.length, matrix.n, "vxm operand")
    if not (v.indices.size and matrix.col.size):
        return SparseVector._adopt(matrix.n, np.empty(0, INDEX_DTYPE), np.empty(0, VALUE_DTYPE))
    dense = np.full(matrix.n, _INF, dtype=VALUE_DTYPE)
    _push(v.values, v.indices, matrix, dense, None)
    out_idx = (dense < _INF).nonzero()[0]
    return SparseVector._adopt(matrix.n, out_idx, dense[out_idx])
