"""Push relaxation over dense state: the fused backend's kernels.

The fused solver keeps its state dense: tentative distances are one float64
array with +inf for an absent entry, the bucket is an index array and the
settled set a bool array. A relaxation *pushes* from the frontier: it
gathers the frontier's rows of the row-major light or heavy matrix, forms
t[i] + w per out-edge, sorts the candidates by target, takes each target's
minimum with np.minimum.reduceat, and lowers t[j] to min(t[j], request).
The work is the frontier's out-edges, not every edge of the matrix, and no
transposed view is ever built. ops.vxm_min_plus runs the same _push.

Bit identity with the unfused chain: every candidate is the same single
float sum t[i] + w that the composed (min,+) product forms, and the minimum
of the same multiset does not depend on the order it is taken in, so each
target receives the same request. Weights are > 0, so every request is
> 0, and "request < dense t" (+inf where t holds nothing) selects exactly
the requests that the unfused comparison with its pass-through rule calls
improving.

A push runs as ceil(frontier_out_edges / RANGE_ENTRIES) contiguous frontier
slices, one after another, through one slice body (_relax). Every slice
forms its candidates from the frontier values read on entry, so the cut
never changes a result. A push that fits in one slice, the common case,
runs the body once with no cutting at all; a cut push merges the slices'
sorted lowered targets with one sort and an adjacent-duplicate pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix, SparseVector, _positions
from .core import mask_from_indices, matrix_transpose_view

__all__ = [
    "BackendChoice",
    "bucket_bounds",
    "fused_masked_relax",
    "fused_bucket_update",
]

# Frontier out-edges per push slice. Slices bound the push's temporaries
# (about 43 bytes per out-edge of a slice) rather than buy speed: on a
# 3*10^6-edge graph one slice ran as fast as any cut (README, Performance
# notes).
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
    if chunks == 1:
        return [(0, length)]
    bounds = np.linspace(0, length, chunks + 1).astype(int)
    return [(int(bounds[k]), int(bounds[k + 1])) for k in range(chunks)]


def _push(
    values: np.ndarray, frontier: np.ndarray, matrix: SparseMatrix, dense: np.ndarray
) -> np.ndarray:
    """Lower dense[j] to the minimum of values[k] + w over the out-edges
    (frontier[k], j, w) of the row-major `matrix`; return the lowered
    targets, sorted and distinct.

    `values` must not alias `dense`: candidates come from the values as
    given, however many slices lower `dense` before them.
    """
    starts = matrix.indptr[frontier]
    counts = matrix.indptr[frontier + 1] - starts
    ends = np.cumsum(counts)
    offsets = ends - counts
    # edge e of the frontier's out-edges is matrix entry base[k] + e, where
    # k is the frontier vertex it belongs to
    base = starts - offsets
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if total <= RANGE_ENTRIES:
        return _relax(values, base, counts, 0, total, matrix, dense)
    # slice k takes the frontier vertices whose out-edges end in edge range k
    edge_cuts = [0] + [hi for _, hi in _partition_ranges(total, -(-total // RANGE_ENTRIES))]
    cuts = np.searchsorted(ends, edge_cuts, side="right")
    lowered = [
        _relax(values[a:b], base[a:b], counts[a:b], offsets[a], ends[b - 1], matrix, dense)
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())
        if a < b
    ]
    # each slice's targets are sorted and distinct, but a later slice may
    # lower a target again: one sort, then drop adjacent repeats
    merged = np.sort(np.concatenate(lowered))
    return merged[np.diff(merged, prepend=-1) > 0]


def _relax(
    values: np.ndarray,
    base: np.ndarray,
    counts: np.ndarray,
    lo: int,
    hi: int,
    matrix: SparseMatrix,
    dense: np.ndarray,
) -> np.ndarray:
    """One push slice: the frontier vertices with these values, entry bases
    and out-degrees own the frontier out-edges [lo, hi). Lowers `dense` and
    returns the lowered targets, sorted and distinct."""
    eid = np.repeat(base, counts) + np.arange(lo, hi)
    target = matrix.col[eid]
    order = np.argsort(target)
    target = target[order]
    cand = (np.repeat(values, counts) + matrix.val[eid])[order]
    heads = np.flatnonzero(np.concatenate(([True], target[1:] != target[:-1])))
    target, request = target[heads], np.minimum.reduceat(cand, heads)
    better = request < dense[target]
    dense[target[better]] = request[better]
    return target[better]


def fused_masked_relax(
    t: SparseVector,
    selector: SparseVector,
    transposed: SparseMatrix,
) -> SparseVector:
    """Relax along the matrix from the entries of t selected by a mask.

    Equals vxm_min_plus(ewise_mult_vector(t, selector, TIMES), transposed)
    for a structural selector (stored values 1.0), bit for bit. The push
    reads the row-major matrix through the view's cached back-reference,
    so passing a view built by matrix_transpose_view costs nothing.
    """
    if selector.length != t.length:
        raise ValueError(f"selector length {selector.length} does not match {t.length}")
    if transposed.ncols != t.length:
        raise ValueError(f"matrix dimension {transposed.ncols} does not match {t.length}")
    if t.nnz == 0 or selector.nnz == 0 or transposed.nnz == 0:
        return SparseVector(transposed.nrows)
    pos, found = _positions(t.indices, selector.indices)
    dense = np.full(t.length, math.inf, dtype=VALUE_DTYPE)
    lowered = _push(
        t.values[pos[found]], selector.indices[found], matrix_transpose_view(transposed), dense
    )
    return SparseVector(transposed.nrows, lowered, dense[lowered])


def fused_bucket_update(
    t: SparseVector,
    requests: SparseVector,
    settled: SparseVector,
    bucket_index: int,
    delta: float,
) -> tuple[SparseVector, SparseVector, SparseVector]:
    """One pass producing (new tentative, new bucket, settled).

    Replaces the unfused chain of range filter, masked improving comparison,
    mask intersection, and min merge. Where t holds nothing, the unfused
    comparison passes the request through and its truthiness decides, so a
    0.0 request is not improving there. The settled set rides along
    untouched: its union with the outgoing bucket happens before this call,
    so the triple leaves here exactly as the unfused sequence leaves it.
    """
    if requests.length != t.length or settled.length != t.length:
        raise ValueError("operand lengths disagree")
    lo_val, hi_val = bucket_bounds(bucket_index, delta)
    dense = np.full(t.length, math.inf, dtype=VALUE_DTYPE)
    dense[t.indices] = t.values
    idx, req = requests.indices, requests.values
    old = dense[idx]
    improving = np.where(old == math.inf, req != 0.0, req < old)
    new_bucket = mask_from_indices(t.length, idx[(req >= lo_val) & (req < hi_val) & improving])
    dense[idx] = np.minimum(old, req)
    kept = np.flatnonzero(dense != math.inf)
    return SparseVector(t.length, kept, dense[kept]), new_bucket, settled
