"""Bucketed single-source shortest paths built from the sparse kernels.

The solver partitions edges once into light (weight <= delta) and heavy
(weight > delta) matrices, then settles vertices bucket by bucket: within
bucket i it repeatedly relaxes light edges from the current bucket until no
tentative distance falls back into the bucket's value window, then relaxes
heavy edges once from everything the bucket processed. Where delta is below
the float spacing of the distances, a heavy sum can round back into the
window; the targets it lowered there become the bucket again, and the light
loop and one more heavy step run from them (see _lands_beyond). Unreachable
vertices simply stay absent from the distance vector.

One loop, _walk, runs the buckets for both backends; each backend supplies
its steps. The unfused ones (_Unfused) compose the public kernels verbatim
over sparse vectors, the fused ones (_Fused) keep dense state and push along
the frontier's out-edges (see fused.py), the heavy step along whole rows
where at least half the edges are heavy (see _partition). Their outputs are
bit-identical by construction and tested as such.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseMatrix,
    SparseVector,
    vector_build,
)
from .fused import BackendChoice, _distinct, _push
from .ops import (
    LESS,
    MIN,
    OR,
    TIMES,
    ewise_add_vector,
    ewise_mult_vector,
    filter_vector,
    in_half_open,
    vxm_min_plus,
)

__all__ = [
    "DeltaTooSmall",
    "DistanceOverflow",
    "SsspState",
    "SsspResult",
    "bucket_bounds",
    "split_edges",
    "compute_bucket",
    "relax_light_phase",
    "relax_heavy",
    "delta_stepping",
    "dijkstra_oracle",
]


@dataclass(frozen=True)
class SsspState:
    """Everything one bucket iteration reads and writes."""

    tentative: SparseVector
    requests: SparseVector
    bucket: SparseVector
    settled: SparseVector
    light: SparseMatrix
    heavy: SparseMatrix
    bucket_index: int
    delta: float


@dataclass(frozen=True)
class SsspResult:
    """One solve's distances and counts.

    distances: the reachable vertices and their shortest distances.
    outer_iterations: the paper's outer loop count, windows i = 0, 1, ...
    up to the one holding the largest distance, empty windows included.
    occupied_buckets: the windows that held a tentative distance when the
    walk reached them, the ones it visits; each takes at least one heavy
    step, more only where a heavy sum rounds back into its window.
    inner_phases: light relaxation passes, summed over those buckets.
    elapsed: seconds from the edge split to the final distances.
    """

    distances: SparseVector
    outer_iterations: int
    occupied_buckets: int
    inner_phases: int
    elapsed: float


def _split(matrix: SparseMatrix, delta: float, share: bool) -> tuple[SparseMatrix, SparseMatrix]:
    """The light part (weight <= delta) and the heavy part from one predicate
    pass: weights are > 0 by invariant, so `val <= delta` picks the light
    entries and its complement the heavy ones, whose row starts are the
    input's less the light part's. With `share`, the input itself stands for
    the heavy part where heavy edges are at least half of it (_partition)."""
    is_light = matrix.val <= delta
    kept = is_light.nonzero()[0]
    rest = None if share and 2 * kept.size <= matrix.nnz else (~is_light).nonzero()[0]
    del is_light  # not held through the gathers
    starts = kept.searchsorted(matrix.indptr)
    light = SparseMatrix(matrix.n, starts, matrix.col[kept], matrix.val[kept])
    if rest is None:
        return light, matrix
    return light, SparseMatrix(matrix.n, matrix.indptr - starts, matrix.col[rest], matrix.val[rest])


def _partition(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """split_edges' light part, and the matrix the fused heavy step pushes
    along: the input itself, not copied, where heavy edges are at least half
    of it. Its light candidates never improve: when a bucket's light phases
    end, each settled u has pushed every light edge (u, j, w) with its
    current t[u], so t[j] <= t[u] + w fails the push's strict < test."""
    return _split(matrix, delta, True)


def split_edges(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """Partition edges into (light, heavy) by weight against delta.

    Every input entry lands in exactly one output with its value untouched
    and each row's entries in their input order, from one pass over the
    weights.
    """
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")
    return _split(matrix, delta, False)


def bucket_bounds(index: int, delta: float) -> tuple[float, float]:
    """Half-open value window [index*delta, (index+1)*delta) of bucket
    `index`. Every window end the solve reads comes from here, so float
    endpoints agree everywhere."""
    return index * delta, (index + 1) * delta


def compute_bucket(t: SparseVector, index: int, delta: float) -> SparseVector:
    """Structural mask over the stored distances inside bucket `index`'s
    half-open value window."""
    if index < 0:
        raise ValueError(f"bucket index must be >= 0, got {index}")
    return filter_vector(t, in_half_open(*bucket_bounds(index, delta)))


def relax_light_phase(state: SsspState) -> SsspState:
    """One light relaxation pass, composed from the public kernels.

    Relaxes light edges from the current bucket, folds the bucket into the
    settled set, then rebuilds the bucket from the requests that landed back
    inside the window *and* strictly improve. The improving comparison runs
    under the requests' domain as output mask; without that gate, distances
    present only in t would pass through the union combine looking true.
    """
    frontier = ewise_mult_vector(state.tentative, state.bucket, TIMES)
    requests = vxm_min_plus(frontier, state.light)
    settled = ewise_add_vector(state.settled, state.bucket, OR)
    bucket = _improving_in_window(requests, state.tentative, state.bucket_index, state.delta)
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(
        state, tentative=tentative, requests=requests, bucket=bucket, settled=settled
    )


def _improving_in_window(
    requests: SparseVector, t: SparseVector, index: int, delta: float
) -> SparseVector:
    """The requests that landed inside bucket `index`'s window and strictly
    improve on `t`: the bucket a light or heavy step leaves."""
    in_window = compute_bucket(requests, index, delta)
    improving = ewise_add_vector(requests, t, LESS, mask=requests)
    return ewise_mult_vector(in_window, improving, TIMES)


def relax_heavy(state: SsspState) -> SsspState:
    """Single heavy relaxation from the whole settled set of this bucket.

    Heavy results land beyond the current window in exact arithmetic; where
    a float sum rounds back into it, the walk runs the bucket again from the
    targets it lowered there (see _lands_beyond). The settled set is left
    as is.
    """
    frontier = ewise_mult_vector(state.tentative, state.settled, TIMES)
    requests = vxm_min_plus(frontier, state.heavy)
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(state, tentative=tentative, requests=requests)


def _lands_beyond(index: int, delta: float) -> bool:
    """Whether no heavy candidate from window `index` can land below its end:
    heavy weights are at least nextafter(delta, inf), window values at least
    lo, and float addition is monotone. Fails only where the window's float
    ends lie closer than that, as where delta is below the distances' spacing."""
    lo, hi = bucket_bounds(index, delta)
    return lo + math.nextafter(delta, math.inf) >= hi


class DeltaTooSmall(ValueError):
    """No float bucket window [i*delta, (i+1)*delta) holds a distance: the
    window index it would need lies beyond the float range."""


class DistanceOverflow(ValueError):
    """A reachable vertex whose every path from the source sums past the
    float range to inf, so the solve would omit it; `vertex` is its id."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"the distance to vertex {vertex} exceeds the float range")
        self.vertex = vertex


def _check_reach(matrix: SparseMatrix, distances: SparseVector) -> None:
    """Raise DistanceOverflow for a stored edge (u, v) with u reached and v
    not, the smallest such v. Where the largest distance plus the largest
    weight is finite, no candidate t[u] + w overflowed and none can exist."""
    if not matrix.nnz or math.isfinite(float(distances.values.max()) + float(matrix.val.max())):
        return
    reached = np.zeros(matrix.n, dtype=bool)
    reached[distances.indices] = True
    lost = matrix.col[reached[matrix.row_ids()] & ~reached[matrix.col]]
    if lost.size:
        raise DistanceOverflow(int(lost.min()))


def _window_of(value: float, delta: float) -> int:
    """Index of the bucket whose float window [i*delta, (i+1)*delta) holds
    value: the largest i with i*delta <= value, as i*delta never decreases
    with i. The floor of the float quotient is that index unless it exceeds
    2**53, where a run of neighbouring indices rounds to one float and the
    quotient can be off by many windows. Then a bisection over the integers
    [0, min(2*floor + 2, max float)) finds it: (2*floor + 2)*delta exceeds
    value, and so does max float * delta, by the guard. Raises DeltaTooSmall
    when value >= max float * delta, where i would pass the float range."""
    if value >= sys.float_info.max * delta:
        raise DeltaTooSmall(
            f"delta {delta!r} is too small to place distance {value!r} in a "
            "bucket window [i*delta, (i+1)*delta) with i in the float range"
        )
    low = int(value // delta)
    lo, hi = bucket_bounds(low, delta)
    if lo <= value < hi:
        return low
    low, high = 0, min(2 * low + 2, int(sys.float_info.max))
    while high - low > 1:
        middle = (low + high) // 2
        if middle * delta <= value:
            low = middle
        else:
            high = middle
    return low


def _next_index(index: int, delta: float, values: np.ndarray) -> tuple[int | None, np.ndarray]:
    """First bucket after `index` whose window holds a finite value, or None,
    with the mask of the values in that window. One boolean scan settles the
    common case, a value in window index + 1; past an empty window,
    _window_of places the smallest value beyond and a second scan masks its
    window."""
    lo, hi = bucket_bounds(index + 1, delta)
    window = values >= lo
    window &= values < hi
    if np.count_nonzero(window):
        return index + 1, window
    smallest = float(values.min(initial=math.inf, where=values >= lo))
    if smallest == math.inf:
        return None, window
    index = _window_of(smallest, delta)
    lo, hi = bucket_bounds(index, delta)
    np.greater_equal(values, lo, out=window)
    window &= values < hi
    return index, window


class _Unfused:
    """The unfused steps: the paper's composition over sparse vectors,
    stepped by relax_light_phase and relax_heavy over one SsspState, which
    holds the only copy of the tentative distances."""

    def __init__(self, matrix: SparseMatrix, source: int, delta: float) -> None:
        self.light, heavy = split_edges(matrix, delta)
        t = vector_build(matrix.n, [(source, 0.0)])
        self.empty = SparseVector(matrix.n)  # frozen, so every bucket's state can share it
        self.state = SsspState(t, self.empty, self.empty, self.empty, self.light, heavy, 0, delta)

    def values(self) -> np.ndarray:
        return self.state.tentative.values

    def start(self, index: int, window: np.ndarray) -> int:
        return self._enter(compute_bucket(self.state.tentative, index, self.state.delta), index)

    def _enter(self, bucket: SparseVector, index: int) -> int:
        self.state = replace(
            self.state, requests=self.empty, bucket=bucket, settled=self.empty, bucket_index=index
        )
        return bucket.nnz

    def light_step(self) -> int:
        self.state = relax_light_phase(self.state)
        return self.state.bucket.nnz

    def heavy_step(self, reenter: bool) -> int:
        # `reenter`, the walk's once-per-bucket gate: off, the bucket ends
        before = self.state
        self.state = after = relax_heavy(before)
        if not reenter:
            return 0
        index = after.bucket_index
        bucket = _improving_in_window(after.requests, before.tentative, index, after.delta)
        return self._enter(bucket, index)

    def result(self) -> SparseVector:
        return self.state.tentative


class _Fused:
    """The fused steps, the unfused ones step for step over dense state (see
    fused.py): a light push from the window [lo, hi) lowers t to values
    >= lo, so the targets it lowered below hi, made distinct, are the next
    bucket. A heavy step's targets below hi start the bucket again where
    the walk lets a heavy sum re-enter it; elsewhere its push returns none."""

    def __init__(self, matrix: SparseMatrix, source: int, delta: float) -> None:
        self.light, self.heavy = _partition(matrix, delta)
        self.t = np.full(matrix.n, math.inf, dtype=VALUE_DTYPE)
        self.t[source] = 0.0
        self.delta = delta

    def values(self) -> np.ndarray:
        return self.t

    def start(self, index: int, window: np.ndarray) -> int:
        self.hi = bucket_bounds(index, self.delta)[1]
        self.settled = window
        self.bucket = window.nonzero()[0]
        return self.bucket.size

    def light_step(self) -> int:
        t, bucket = self.t, self.bucket
        self.bucket = bucket = _distinct(_push(t[bucket], bucket, self.light, t, self.hi))
        self.settled[bucket] = True
        return bucket.size

    def heavy_step(self, reenter: bool) -> int:
        # `reenter`, the walk's once-per-bucket gate: off, the push returns none
        t, frontier = self.t, self.settled.nonzero()[0]
        below = self.hi if reenter else None
        self.bucket = bucket = _distinct(_push(t[frontier], frontier, self.heavy, t, below))
        if bucket.size:
            self.settled = np.zeros(t.size, dtype=bool)
            self.settled[bucket] = True
        return bucket.size

    def result(self) -> SparseVector:
        # the split and the settled set are freed before the result is built
        del self.light, self.heavy, self.settled
        t = self.t
        reached = np.flatnonzero(t < math.inf)
        return SparseVector(t.size, reached, t[reached])


def _walk(solve: _Unfused | _Fused, delta: float) -> tuple[SparseVector, int, int, int]:
    """The bucket walk both backends share: from the source's window on,
    each bucket whose window holds a tentative distance takes light steps
    until it empties, then one heavy step, which starts it again from the
    targets a heavy sum lowered back into its window; the walk gates that
    re-entry once per bucket, as _lands_beyond's answer is fixed for it.
    `solve` holds the state: start takes the bucket's index and the mask of
    its window from the walk's scan of values(), and each step returns the
    size of the bucket it leaves. Returns the distances, the buckets
    visited, the last one's index and the light phases."""
    # light passes past n per-bucket bounds cycle: float addition is monotone,
    # so no walk with a cycle beats a simple path, and n passes bound a bucket
    n = solve.light.n
    ratio = delta / float(solve.light.val.min(initial=math.inf))
    ceiling = n * (int(math.ceil(min(ratio, n))) + 2)
    index, window = _next_index(-1, delta, solve.values())
    buckets = last = phases = 0
    while index is not None:
        size = solve.start(index, window)
        reenter = not _lands_beyond(index, delta)
        while size:
            while size:
                size = solve.light_step()
                phases += 1
                if phases > ceiling:
                    raise RuntimeError(
                        f"light phase count exceeded ceiling {ceiling}; "
                        "relaxation is not converging"
                    )
            size = solve.heavy_step(reenter)
        buckets, last = buckets + 1, index
        index, window = _next_index(index, delta, solve.values())
    del window  # not held while the result is built
    return solve.result(), buckets, last, phases


def delta_stepping(
    matrix: SparseMatrix,
    source: int,
    delta: float,
    *,
    backend: BackendChoice = BackendChoice(),
) -> SsspResult:
    """Solve single-source shortest paths over strictly positive weights.

    Visits, in increasing index order, only the buckets whose window holds
    a tentative distance; an empty one would relax nothing. The result
    counts both: `outer_iterations` every window up to the last bucket,
    `occupied_buckets` just the buckets visited (see SsspResult).
    Elapsed time covers everything from the edge split onward. Raises
    ValueError for a source out of range, a delta that is not positive and
    finite, and two ValueErrors: DeltaTooSmall for a delta too small to
    place a distance in a float window, DistanceOverflow for a reachable
    vertex whose distance exceeds the float range.
    """
    if not 0 <= source < matrix.n:
        raise ValueError(f"source {source} out of range for {matrix.n} vertices")
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")

    # each backend's steps split the edges themselves, so that they can free the parts
    steps = _Fused if backend.kind == "fused" else _Unfused
    start = time.perf_counter()
    # a sum past the float range is inf and lowers nothing (see _check_reach)
    with np.errstate(over="ignore"):
        t, buckets, last, phases = _walk(steps(matrix, source, delta), delta)
    elapsed = time.perf_counter() - start
    _check_reach(matrix, t)
    return SsspResult(t, last + 1, buckets, phases, elapsed)


def dijkstra_oracle(matrix: SparseMatrix, source: int) -> SparseVector:
    """Reference shortest-path solver used to verify the bucketed one.

    Textbook binary-heap implementation working directly on the adjacency
    rows; shares no kernel code with the solver under test. Returns the
    same sparse shape: reachable vertices only. Raises DistanceOverflow as
    delta_stepping does.
    """
    if not 0 <= source < matrix.n:
        raise ValueError(f"source {source} out of range for {matrix.n} vertices")
    dist = np.full(matrix.n, math.inf, dtype=VALUE_DTYPE)
    dist[source] = 0.0
    done = np.zeros(matrix.n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        cols, weights = matrix.row(u)
        for v, w in zip(cols.tolist(), weights.tolist()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    reach = np.flatnonzero(np.isfinite(dist)).astype(INDEX_DTYPE)
    distances = SparseVector(matrix.n, reach, dist[reach])
    _check_reach(matrix, distances)
    return distances
