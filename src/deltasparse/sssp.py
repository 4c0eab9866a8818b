"""Bucketed single-source shortest paths built from the sparse kernels.

The solver partitions edges once into light (weight <= delta) and heavy
(weight > delta) matrices, then settles vertices bucket by bucket: within
bucket i it repeatedly relaxes light edges from the current bucket until no
tentative distance falls back into the bucket's value window, then relaxes
heavy edges once from everything the bucket processed. Unreachable vertices
simply stay absent from the distance vector.

Two interchangeable backends drive the loop: the unfused one composes the
public kernels verbatim over sparse vectors, the fused one keeps dense state
and pushes along the frontier's out-edges (see fused.py), its heavy step
along whole rows where at least half the edges are heavy (see _partition).
Their outputs are bit-identical by construction and tested as such.
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
from .fused import BackendChoice, _push, bucket_bounds
from .ops import (
    LESS,
    MIN,
    OR,
    TIMES,
    ewise_add_vector,
    ewise_mult_vector,
    filter_vector,
    filter_matrix,
    greater_than,
    in_half_open,
    positive_at_most,
    vxm_min_plus,
)

__all__ = [
    "DeltaTooSmall",
    "DistanceOverflow",
    "SsspState",
    "SsspResult",
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
    walk reached them, the ones it visits; each takes one heavy step.
    inner_phases: light relaxation passes, summed over those buckets.
    elapsed: seconds from the edge split to the final distances.
    """

    distances: SparseVector
    outer_iterations: int
    occupied_buckets: int
    inner_phases: int
    elapsed: float


def _partition(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """split_edges' light part, and the matrix the fused heavy step pushes
    along: the input itself, not copied, where heavy edges are at least half
    of it. Its light candidates never improve: when a bucket's light phases
    end, each settled u has pushed every light edge (u, j, w) with its
    current t[u], so t[j] <= t[u] + w fails the push's strict < test."""
    light = filter_matrix(matrix, positive_at_most(delta))
    if 2 * light.nnz <= matrix.nnz:
        return light, matrix
    return light, filter_matrix(matrix, greater_than(delta))


def split_edges(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """Partition edges into (light, heavy) by weight against delta.

    Every input entry lands in exactly one output with its value untouched.
    """
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")
    light = filter_matrix(matrix, positive_at_most(delta))
    return light, filter_matrix(matrix, greater_than(delta))


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
    lo, hi = bucket_bounds(state.bucket_index, state.delta)
    frontier = ewise_mult_vector(state.tentative, state.bucket, TIMES)
    requests = vxm_min_plus(frontier, state.light)
    settled = ewise_add_vector(state.settled, state.bucket, OR)
    in_window = filter_vector(requests, in_half_open(lo, hi))
    improving = ewise_add_vector(requests, state.tentative, LESS, mask=requests)
    bucket = ewise_mult_vector(in_window, improving, TIMES)
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(
        state, tentative=tentative, requests=requests, bucket=bucket, settled=settled
    )


def relax_heavy(state: SsspState) -> SsspState:
    """Single heavy relaxation from the whole settled set of this bucket.

    Heavy results land beyond the current window by construction, so one
    pass suffices; the settled set is left as is.
    """
    frontier = ewise_mult_vector(state.tentative, state.settled, TIMES)
    requests = vxm_min_plus(frontier, state.heavy)
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(state, tentative=tentative, requests=requests)


def _count_phase(phases: int, ceiling: int) -> int:
    phases += 1
    if phases > ceiling:
        raise RuntimeError(
            f"light phase count exceeded ceiling {ceiling}; relaxation is not converging"
        )
    return phases


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


def _window_start(index: int, delta: float) -> float:
    try:
        return index * delta
    except OverflowError:  # the index itself has no float
        return math.inf


def _window_of(value: float, delta: float) -> int:
    """Index of the bucket whose float window [i*delta, (i+1)*delta) holds
    value: the largest i with i*delta <= value, as i*delta never decreases
    with i. The float quotient can be off by many windows where it exceeds
    2**53, since a run of neighbouring indices then rounds to one float, so
    the search gallops from the quotient and bisects: its steps grow with
    the log of that run's length, not with the length. Raises DeltaTooSmall
    when value >= max float * delta, where i would pass the float range."""
    if value >= sys.float_info.max * delta:
        raise DeltaTooSmall(
            f"delta {delta!r} is too small to place distance {value!r} in a "
            "bucket window [i*delta, (i+1)*delta) with i in the float range"
        )
    quotient = value // delta
    low = int(min(quotient, sys.float_info.max))
    if _window_start(low, delta) <= value:
        step, high = 1, low + 1
        while _window_start(high, delta) <= value:
            low, step = high, step * 2
            high = low + step
    else:
        step, high = 1, low
        low = high - 1
        while _window_start(low, delta) > value:
            high, step = low, step * 2
            low = max(high - step, 0)
    while high - low > 1:
        middle = (low + high) // 2
        if _window_start(middle, delta) <= value:
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
    hi = bucket_bounds(index, delta)[1]
    window = (values >= hi) & (values < _window_start(index + 2, delta))
    if np.count_nonzero(window):
        return index + 1, window
    beyond = np.compress((values >= hi) & (values < math.inf), values)
    if not beyond.size:
        return None, window
    index = _window_of(float(beyond.min()), delta)
    lo, hi = bucket_bounds(index, delta)
    return index, (values >= lo) & (values < hi)


def _solve_unfused(
    light: SparseMatrix, heavy: SparseMatrix, source: int, delta: float, ceiling: int
) -> tuple[SparseVector, int, int, int]:
    n = light.n
    t = vector_build(n, [(source, 0.0)])
    index: int | None = 0
    buckets = last = phases = 0
    while index is not None:
        state = SsspState(
            tentative=t,
            requests=SparseVector(n),
            bucket=compute_bucket(t, index, delta),
            settled=SparseVector(n),
            light=light,
            heavy=heavy,
            bucket_index=index,
            delta=delta,
        )
        while state.bucket.nnz:
            state = relax_light_phase(state)
            phases = _count_phase(phases, ceiling)
        t = relax_heavy(state).tentative
        buckets, last = buckets + 1, index
        index = _next_index(index, delta, t.values)[0]
    return t, buckets, last, phases


def _solve_fused(
    light: SparseMatrix, heavy: SparseMatrix, source: int, delta: float, ceiling: int
) -> tuple[SparseVector, int, int, int]:
    # the unfused loop step for step over dense state (see fused.py): t is
    # +inf where unreached; a light push from the window [lo, hi) lowers t
    # to values >= lo over positive weights and returns the lowered targets,
    # so those below hi form the next bucket. The walk's own scan for the
    # next window gives its mask, which is the first bucket and grows into
    # the settled set; the walk from bucket -1 finds the source's window.
    n = light.n
    t = np.full(n, math.inf, dtype=VALUE_DTYPE)
    t[source] = 0.0
    index, settled = _next_index(-1, delta, t)
    buckets = last = phases = 0
    while index is not None:
        hi = bucket_bounds(index, delta)[1]
        bucket = settled.nonzero()[0]
        while bucket.size:
            lowered = _push(t[bucket], bucket, light, t)
            bucket = lowered[t[lowered] < hi]
            settled[bucket] = True
            phases = _count_phase(phases, ceiling)
        frontier = settled.nonzero()[0]
        _push(t[frontier], frontier, heavy, t)
        buckets, last = buckets + 1, index
        index, settled = _next_index(index, delta, t)
    reached = np.flatnonzero(t < math.inf)
    return SparseVector(n, reached, t[reached]), buckets, last, phases


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

    fused = backend.kind == "fused"
    start = time.perf_counter()
    # the unfused split is the two filter_matrix calls; the fused one may skip the heavy one
    light, heavy = _partition(matrix, delta) if fused else split_edges(matrix, delta)

    # total light passes are bounded by the vertex count times the per-bucket
    # pass bound, beyond which something cycles; float addition is monotone,
    # so no walk with a cycle beats a simple path, and n passes bound a bucket
    ratio = delta / float(light.val.min()) if light.nnz else 0.0
    per_bucket = int(math.ceil(min(ratio, matrix.n))) + 2
    solve = _solve_fused if fused else _solve_unfused
    # a sum past the float range is inf and lowers nothing (see _check_reach)
    with np.errstate(over="ignore"):
        t, buckets, last, phases = solve(light, heavy, source, delta, matrix.n * per_bucket)
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
