"""Loop-merged kernel variants.

Each fused kernel computes, in one traversal, what a short chain of the
plain kernels computes with materialized intermediates. Outputs are always
entry- and bit-identical to the unfused chain: per output index both paths
reduce the same operands in the same canonical order (ascending source
index), so results do not depend on the backend or on how a call is cut
into ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix, SparseVector, mask_from_indices
from .ops import _positions

__all__ = [
    "BackendChoice",
    "bucket_bounds",
    "fused_masked_relax",
    "fused_bucket_update",
]

# Touched entries per range. A large call runs as ceil(work / RANGE_ENTRIES)
# contiguous index ranges one after another, which keeps each range's
# sort/gather/reduce working set in cache. On a 10^7-edge graph a sweep of
# 16 Ki..1 Mi ran fastest at 32-64 Ki (see README, Performance notes).
RANGE_ENTRIES = 64 << 10


@dataclass(frozen=True)
class BackendChoice:
    """Which kernel family runs."""

    kind: str = "unfused"

    def __post_init__(self) -> None:
        if self.kind not in ("unfused", "fused"):
            raise ValueError(f"backend kind must be 'unfused' or 'fused', got {self.kind!r}")


def bucket_bounds(index: int, delta: float) -> tuple[float, float]:
    """Half-open value window of bucket `index`. Every consumer of the
    window goes through here so float endpoints agree everywhere."""
    return index * delta, (index + 1) * delta


def _partition_ranges(length: int, chunks: int) -> list[tuple[int, int]]:
    """Contiguous, evenly sized ranges covering [0, length). Degenerates to
    at most `length` nonempty ranges when asked for more chunks than items."""
    chunks = max(1, min(chunks, max(length, 1)))
    bounds = np.linspace(0, length, chunks + 1).astype(int)
    return [(int(bounds[k]), int(bounds[k + 1])) for k in range(chunks)]


def _run_ranges(
    range_kernel: Callable[[int, int], tuple[np.ndarray, ...]], length: int, work: int
) -> tuple[np.ndarray, ...]:
    """Run `range_kernel(lo, hi)` over [0, length) cut into one range per
    RANGE_ENTRIES of `work` (entries the call touches), in index order, and
    concatenate its output arrays position by position. Range outputs cover
    disjoint, ascending index spans, so the result equals one whole-range
    call exactly."""
    ranges = _partition_ranges(length, -(-work // RANGE_ENTRIES))
    parts = [range_kernel(lo, hi) for lo, hi in ranges]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _relax_range(
    gated: np.ndarray,
    transposed: SparseMatrix,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    # one pass over the edge segment writing outputs [lo, hi): a straight
    # gather out of the gated operand, then a per-row min over the rows
    # that hold any edges (consecutive non-empty starts delimit segments
    # exactly, so reduceat sees no empty-segment corner cases)
    e0, e1 = int(transposed.indptr[lo]), int(transposed.indptr[hi])
    if e0 == e1:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=VALUE_DTYPE)
    cand = np.take(gated, transposed.col[e0:e1]) + transposed.val[e0:e1]
    lengths = np.diff(transposed.indptr[lo : hi + 1])
    nonempty = np.flatnonzero(lengths > 0).astype(INDEX_DTYPE)
    starts = transposed.indptr[lo:hi][nonempty] - e0
    mins = np.minimum.reduceat(cand, starts)
    keep = np.isfinite(mins)
    return (lo + nonempty[keep]).astype(INDEX_DTYPE), mins[keep]


def fused_masked_relax(
    t: SparseVector,
    selector: SparseVector,
    transposed: SparseMatrix,
) -> SparseVector:
    """Relax along the matrix from the entries of t selected by a mask.

    Equals vxm_min_plus(ewise_mult_vector(t, selector, TIMES), transposed)
    for a structural selector (stored values 1.0), without materializing the
    intermediate: the selection is folded into one gated dense operand built
    per call, so the edge traversal is a single gather per entry. Candidates
    are identical to the composed form, hence so are the results, bit for
    bit.
    """
    if selector.length != t.length:
        raise ValueError(f"selector length {selector.length} does not match {t.length}")
    if transposed.ncols != t.length:
        raise ValueError(f"matrix dimension {transposed.ncols} does not match {t.length}")
    if t.nnz == 0 or selector.nnz == 0 or transposed.nnz == 0:
        return SparseVector(transposed.nrows)
    gated = np.full(t.length, math.inf, dtype=VALUE_DTYPE)
    pos, found = _positions(t.indices, selector.indices)
    gated[selector.indices[found]] = t.values[pos[found]]
    idx, val = _run_ranges(
        lambda lo, hi: _relax_range(gated, transposed, lo, hi),
        transposed.nrows,
        transposed.nnz,
    )
    return SparseVector(transposed.nrows, idx, val)


def _bucket_update_range(
    t: SparseVector,
    requests: SparseVector,
    lo: int,
    hi: int,
    lo_val: float,
    hi_val: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t0, t1 = np.searchsorted(t.indices, [lo, hi])
    r0, r1 = np.searchsorted(requests.indices, [lo, hi])
    t_idx, t_val = t.indices[t0:t1], t.values[t0:t1]
    r_idx, r_val = requests.indices[r0:r1], requests.values[r0:r1]

    union = np.union1d(t_idx, r_idx)
    pt, in_t = _positions(t_idx, union)
    pr, in_r = _positions(r_idx, union)
    tv = t_val[pt] if t_idx.size else np.zeros(union.size, dtype=VALUE_DTYPE)
    rv = r_val[pr] if r_idx.size else np.zeros(union.size, dtype=VALUE_DTYPE)
    merged = np.where(in_t & in_r, np.minimum(tv, rv), np.where(in_t, tv, rv))

    # bucket membership among the requests: inside the value window and
    # strictly improving; where t holds nothing the request's own value
    # decides by truthiness, mirroring the unfused comparison pass-through
    pos, have_t = _positions(t_idx, r_idx)
    old = t_val[pos] if t_idx.size else np.zeros(r_idx.size, dtype=VALUE_DTYPE)
    improve_val = np.where(have_t, np.less(r_val, old).astype(VALUE_DTYPE), r_val)
    bucket_idx = r_idx[(r_val >= lo_val) & (r_val < hi_val) & (improve_val != 0.0)]
    return union, merged, bucket_idx


def fused_bucket_update(
    t: SparseVector,
    requests: SparseVector,
    settled: SparseVector,
    bucket_index: int,
    delta: float,
) -> tuple[SparseVector, SparseVector, SparseVector]:
    """One traversal producing (new tentative, new bucket, settled).

    Replaces the unfused chain of range filter, masked improving comparison,
    mask intersection, and min merge. The settled set rides along untouched:
    its union with the outgoing bucket happens before this call in both
    backends, so the triple leaves here exactly as the unfused sequence
    leaves it.
    """
    if requests.length != t.length or settled.length != t.length:
        raise ValueError("operand lengths disagree")
    lo_val, hi_val = bucket_bounds(bucket_index, delta)
    merged_idx, merged_val, bucket_idx = _run_ranges(
        lambda lo, hi: _bucket_update_range(t, requests, lo, hi, lo_val, hi_val),
        t.length,
        t.nnz + requests.nnz,
    )
    new_t = SparseVector(t.length, merged_idx, merged_val)
    new_bucket = mask_from_indices(t.length, bucket_idx)
    return new_t, new_bucket, settled
