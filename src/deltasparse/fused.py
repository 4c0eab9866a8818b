"""The fused backend's kernels over dense state.

The fused solver (sssp._solve_fused) keeps tentative distances in one
float64 array, +inf where absent; the bucket is an index array and the
settled set a bool array. It has two kernels: _push, the one
gather-and-reduce relax, and the inline bucket test
`lowered[t[lowered] < hi]`, the one combined tentative/bucket update. A
push gathers the frontier's rows of the row-major light or heavy matrix,
forms t[i] + w per out-edge, sorts the candidates by target, takes each
target's minimum with np.minimum.reduceat, lowers t[j] to min(t[j],
request) and returns the lowered targets; those below the window's end are
the next bucket. The work is the frontier's out-edges, not every edge of
the matrix, and no transposed view is ever built. ops.vxm_min_plus runs the
same _push.

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

from dataclasses import dataclass

import numpy as np

from .core import INDEX_DTYPE, SparseMatrix

__all__ = ["BackendChoice", "bucket_bounds"]

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
    # slice k takes the frontier vertices whose out-edges end in the k-th of
    # ceil(total / RANGE_ENTRIES) evenly sized edge ranges
    edge_cuts = np.linspace(0, total, -(-total // RANGE_ENTRIES) + 1).astype(int)
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
