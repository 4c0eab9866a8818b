"""Bucketed single-source shortest paths built from the sparse kernels.

The solver partitions edges once into light (weight <= delta) and heavy
(weight > delta) matrices, then settles vertices bucket by bucket: within
bucket i it repeatedly relaxes light edges from the current bucket until no
tentative distance falls back into the bucket's value window, then relaxes
heavy edges once from everything the bucket processed. Unreachable vertices
simply stay absent from the distance vector.

Two interchangeable backends drive the loop: the unfused one composes the
public kernels verbatim over sparse vectors, the fused one keeps dense state
and pushes along the frontier's out-edges (see fused.py). Their outputs are
bit-identical by construction and tested as such.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseMatrix,
    SparseVector,
    matrix_transpose_view,
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
    source: int


@dataclass(frozen=True)
class SsspResult:
    distances: SparseVector
    outer_iterations: int
    inner_phases: int
    elapsed: float


def _partition(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """The fused path's split in one pass: stored weights are finite and
    > 0, so heavy (weight > delta) is exactly the complement of light, and
    both results equal split_edges' filter_matrix pair."""
    light = matrix.val <= delta
    light_ptr = np.concatenate([[0], np.cumsum(light)])[matrix.indptr]
    heavy = ~light
    # np.compress gathers several times faster than boolean indexing here
    return (
        SparseMatrix(
            matrix.n, light_ptr, np.compress(light, matrix.col), np.compress(light, matrix.val)
        ),
        SparseMatrix(
            matrix.n,
            matrix.indptr - light_ptr,
            np.compress(heavy, matrix.col),
            np.compress(heavy, matrix.val),
        ),
    )


def split_edges(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """Partition edges into (light, heavy) by weight against delta.

    Every input entry lands in exactly one output with its value untouched.
    Both results come back linked to their transposed views, since the
    unfused solver multiplies through the views every iteration. Filtering
    keeps coordinates, so each view is the same filter applied to the
    matrix's own transpose, which is built once and cached on the matrix.
    """
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")
    transposed = matrix_transpose_view(matrix)
    parts = []
    for pred in (positive_at_most(delta), greater_than(delta)):
        part, view = filter_matrix(matrix, pred), filter_matrix(transposed, pred)
        part._transposed, view._transposed = view, part
        parts.append(part)
    return parts[0], parts[1]


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
    requests = vxm_min_plus(frontier, matrix_transpose_view(state.light))
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
    requests = vxm_min_plus(frontier, matrix_transpose_view(state.heavy))
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(state, tentative=tentative, requests=requests)


def _count_phase(phases: int, ceiling: int) -> int:
    phases += 1
    if phases > ceiling:
        raise RuntimeError(
            f"light phase count exceeded ceiling {ceiling}; relaxation is not converging"
        )
    return phases


def _next_index(index: int, delta: float, skip: bool, values: np.ndarray) -> int | None:
    """Bucket after `index`: the next one in one-step mode; when skipping,
    the one whose window holds the smallest finite value beyond this
    window, or None if there is none."""
    if not skip:
        return index + 1
    beyond = values[(values >= bucket_bounds(index, delta)[1]) & (values < math.inf)]
    if not beyond.size:
        return None
    value = float(beyond.min())
    index = int(value // delta)
    while index * delta > value:
        index -= 1
    while (index + 1) * delta <= value:
        index += 1
    return index


def _solve_unfused(
    light: SparseMatrix, heavy: SparseMatrix, source: int, delta: float, skip: bool, ceiling: int
) -> tuple[SparseVector, int, int]:
    n = light.n
    t = vector_build(n, [(source, 0.0)])
    index: int | None = 0
    outer = phases = 0
    while t.nnz and float(t.values.max()) >= index * delta:
        state = SsspState(
            tentative=t,
            requests=SparseVector(n),
            bucket=compute_bucket(t, index, delta),
            settled=SparseVector(n),
            light=light,
            heavy=heavy,
            bucket_index=index,
            delta=delta,
            source=source,
        )
        while state.bucket.nnz:
            state = relax_light_phase(state)
            phases = _count_phase(phases, ceiling)
        t = relax_heavy(state).tentative
        outer += 1
        index = _next_index(index, delta, skip, t.values)
        if index is None:
            break
    return t, outer, phases


def _solve_fused(
    light: SparseMatrix, heavy: SparseMatrix, source: int, delta: float, skip: bool, ceiling: int
) -> tuple[SparseVector, int, int]:
    # the unfused loop step for step over dense state (see fused.py): t is
    # +inf where unreached; a light push from the window [lo, hi) lowers t
    # to values >= lo over positive weights and returns the lowered targets,
    # so those below hi form the next bucket
    n = light.n
    t = np.full(n, math.inf, dtype=VALUE_DTYPE)
    t[source] = 0.0
    index: int | None = 0
    outer = phases = 0
    while np.any((t >= index * delta) & (t < math.inf)):
        lo, hi = bucket_bounds(index, delta)
        bucket = np.flatnonzero((t >= lo) & (t < hi))
        settled = np.zeros(n, dtype=bool)
        while bucket.size:
            settled[bucket] = True
            lowered = _push(t[bucket], bucket, light, t)
            bucket = lowered[t[lowered] < hi]
            phases = _count_phase(phases, ceiling)
        frontier = np.flatnonzero(settled)
        _push(t[frontier], frontier, heavy, t)
        outer += 1
        index = _next_index(index, delta, skip, t)
        if index is None:
            break
    reached = np.flatnonzero(t < math.inf)
    return SparseVector(n, reached, t[reached]), outer, phases


def delta_stepping(
    matrix: SparseMatrix,
    source: int,
    delta: float,
    *,
    backend: BackendChoice | None = None,
    skip_empty_buckets: bool = False,
) -> SsspResult:
    """Solve single-source shortest paths over strictly positive weights.

    Iterates buckets in increasing index order, advancing by exactly one
    per outer iteration; `skip_empty_buckets` jumps over index gaps instead
    (identical distances, fewer iterations). Terminates when no stored
    tentative distance is at or beyond the current window start. Elapsed
    time covers everything from the edge split onward.
    """
    if backend is None:
        backend = BackendChoice()
    if not 0 <= source < matrix.n:
        raise ValueError(f"source {source} out of range for {matrix.n} vertices")
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")

    fused = backend.kind == "fused"
    start = time.perf_counter()
    # the fused backend pushes along rows, so it needs no transposed views
    light, heavy = _partition(matrix, delta) if fused else split_edges(matrix, delta)

    # total light passes across the run are bounded by the vertex count
    # times the per-bucket pass bound; beyond that something cycles
    if light.nnz:
        per_bucket = int(math.ceil(delta / float(light.val.min()))) + 2
    else:
        per_bucket = 2
    solve = _solve_fused if fused else _solve_unfused
    t, outer, phases = solve(
        light, heavy, source, delta, skip_empty_buckets, matrix.n * per_bucket
    )
    elapsed = time.perf_counter() - start
    return SsspResult(distances=t, outer_iterations=outer, inner_phases=phases, elapsed=elapsed)


def dijkstra_oracle(matrix: SparseMatrix, source: int) -> SparseVector:
    """Reference shortest-path solver used to verify the bucketed one.

    Textbook binary-heap implementation working directly on the adjacency
    rows; shares no kernel code with the solver under test. Returns the
    same sparse shape: reachable vertices only.
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
    return SparseVector(matrix.n, reach, dist[reach])
