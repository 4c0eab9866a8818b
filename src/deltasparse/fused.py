"""The fused backend's kernels over dense state.

The fused steps (sssp._Fused, driven by sssp._walk) keep tentative
distances in one float64 array, +inf where absent; the settled set is a
bool array that starts as the mask of the bucket's window, taken from the
walk's scan for the next window; each bucket is an index array. One kernel,
_push, the gather-and-reduce relax, has a bound that is also the bucket test:
the next bucket is `_distinct(_push(t[bucket], bucket, light, t, hi))`.
A push gathers the frontier's rows of the row-major light part, heavy part
or whole input (see sssp._partition), forms t[i] + w per out-edge, reads
t[j] once per out-edge, lowers t by a scatter-min over every candidate
(np.minimum.at) and returns, unordered, the targets whose candidate was
below both the value it read and its bound (see _push); its work is the
frontier's out-edges, not every edge. The light step and the heavy
re-entry read the targets, and sort them once. ops.vxm_min_plus, and the
heavy step wherever sssp._lands_beyond holds, read none: they push with
below=None, which reads nothing of t back and returns nothing; the product
reads its output off a fresh +inf scratch.

Frontiers on high-diameter graphs hold a handful of vertices, so a push
costs its numpy calls more than its edges. A push therefore works in place
on the arrays it has just gathered, never on the caller's values or
frontier, and calls ndarray methods (repeat, sort) rather than their np.*
wrappers, each of which adds a Python-level dispatch.

Bit identity with the unfused chain: every candidate is the same single
float sum t[i] + w that the composed (min,+) product forms, and a
scatter-min leaves each target at the minimum of its candidates whatever
order it visits them in, so each target receives the same request. Weights
are > 0, so every candidate is > 0 and neither NaN nor -0.0 can occur, and
a target has a candidate below the value t[j] read before the scatter
(+inf where t holds nothing) exactly when its minimum request is below it:
the test against that value keeps exactly the targets that the unfused
comparison with its pass-through rule calls improving. A candidate that
fails it leaves t[j] as it was, so scattering it too changes nothing.

A push runs as ceil(frontier_out_edges / RANGE_ENTRIES) contiguous frontier
slices, one after another, through one slice body (_relax), and a cut
push concatenates their targets. Every slice forms its candidates from the
frontier values read on entry, so the cut never changes the lowered state
or the set of targets. Past the cut a push keeps only the out-degrees;
each slice numbers its out-edges by a cumsum of its own and keeps nothing
past its end but the targets it returns. A push that fits in one slice,
the common case, runs the body once with no cutting at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INDEX_DTYPE, SparseMatrix

__all__ = ["BackendChoice"]

# Frontier out-edges per push slice. Slices bound the push's temporaries
# rather than buy speed. The largest push of the acceptance criterion-7
# solve (10^5 vertices, 1.05*10^6 edges, delta 3: a heavy push along the
# input from 45,951 vertices, 482,783 out-edges) peaks at 12.7 MB under
# tracemalloc as one slice, about 26 bytes per out-edge, and at 0.77 MB in
# 16 Ki slices (1.9 MB in 64 Ki); fused solves of that graph took at most
# 4% longer at 16 Ki than at 64 Ki (README, Performance notes).
RANGE_ENTRIES = 16 << 10

# what an unbounded push, or one with no out-edges, returns: not a view of a
# slice's targets, which would keep that whole array alive until the push ends
_NO_TARGETS = np.empty(0, dtype=INDEX_DTYPE)
_NO_TARGETS.setflags(write=False)


@dataclass(frozen=True)
class BackendChoice:
    """Which kernel family runs."""

    kind: str = "unfused"

    def __post_init__(self) -> None:
        if self.kind not in ("unfused", "fused"):
            raise ValueError(f"backend kind must be 'unfused' or 'fused', got {self.kind!r}")


def _push(
    values: np.ndarray,
    frontier: np.ndarray,
    matrix: SparseMatrix,
    dense: np.ndarray,
    below: float | None,
) -> np.ndarray:
    """Lower dense[j] to the minimum of values[k] + w over the out-edges
    (frontier[k], j, w) of the row-major `matrix` by a scatter-min, one
    slice of at most RANGE_ENTRIES out-edges at a time; return the target
    of each candidate that was below `below` and below dense[j] as its
    slice read it before its scatter, unordered and with repeats. With
    below=None, and where the frontier has no out-edges, the push returns
    the shared empty _NO_TARGETS.

    The targets returned are the lowered ones that end below `below`:
    `dense` only falls, so a target ends below the bound exactly when one of
    its improving candidates is, whichever slice that candidate is in.

    `values` must not alias `dense`: candidates come from the values as
    given, however many slices lower `dense` before them. Neither `values`
    nor `frontier` is written; the in-place steps act on gathered copies.
    """
    # in place on the arrays this push gathers: counts are the out-degrees,
    # and out-edge e of the frontier's out-edges is matrix entry base[k] + e,
    # where k is the frontier vertex it belongs to: k's row end less ends[k]
    row_ends = matrix.indptr[1:]
    counts = row_ends[frontier]
    counts -= matrix.indptr[frontier]
    # np.add.accumulate, not ndarray.cumsum: the method makes numpy build a
    # fresh "accumulate" name string a call, which CPython's type attribute
    # cache may keep alive after the push
    ends = np.add.accumulate(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return _NO_TARGETS
    if total <= RANGE_ENTRIES:
        return _relax(values, row_ends[frontier] - ends, counts, 0, total, matrix, dense, below)
    # slice k takes the frontier vertices whose out-edges end in the k-th of
    # ceil(total / RANGE_ENTRIES) evenly sized edge ranges, and numbers its
    # out-edges from lo, the count before it, by a cumsum of its own
    edge_cuts = np.linspace(0, total, -(-total // RANGE_ENTRIES) + 1).astype(int)
    cuts = ends.searchsorted(edge_cuts, side="right").tolist()
    del ends
    lowered, lo = [], 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a < b:
            ends = np.add.accumulate(counts[a:b])
            ends += lo
            base = row_ends[frontier[a:b]]
            base -= ends
            hi = int(ends[-1])
            del ends
            lowered.append(_relax(values[a:b], base, counts[a:b], lo, hi, matrix, dense, below))
            lo = hi
    return np.concatenate(lowered)


def _relax(
    values: np.ndarray,
    base: np.ndarray,
    counts: np.ndarray,
    lo: int,
    hi: int,
    matrix: SparseMatrix,
    dense: np.ndarray,
    below: float | None,
) -> np.ndarray:
    """One push slice: the frontier vertices with these values, entry bases
    and out-degrees own the frontier out-edges [lo, hi). Lowers `dense` by a
    scatter-min over every out-edge's candidate and returns the targets
    whose candidate was below both `below` and the value of `dense` read
    before the scatter; with below=None it reads nothing back and returns
    the shared empty _NO_TARGETS. Writes only `dense` and arrays it creates."""
    # weights before targets: at most three edge-long arrays alive at once
    eid = base.repeat(counts)
    eid += np.arange(lo, hi)
    cand = values.repeat(counts)
    cand += matrix.val[eid]
    target = matrix.col[eid]
    del eid
    # scatter first; gather the kept targets once the candidates are gone
    old = None if below is None else dense[target]
    np.minimum.at(dense, target, cand)
    if old is None:
        return _NO_TARGETS
    np.minimum(old, below, out=old)
    better = cand < old
    del old, cand
    return target[better]


def _distinct(target: np.ndarray) -> np.ndarray:
    """The push targets `target`, sorted and distinct; sorts two or more in place."""
    if target.size < 2:
        return target
    target.sort()
    keep = np.empty(target.size, dtype=bool)
    keep[:1] = True
    np.not_equal(target[1:], target[:-1], out=keep[1:])
    return target[keep]
