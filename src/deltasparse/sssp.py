"""Bucketed single-source shortest paths built from the sparse kernels.

The solver partitions edges once into light (weight <= delta) and heavy
(weight > delta) matrices, then settles vertices bucket by bucket: within
bucket i it repeatedly relaxes light edges from the current bucket until no
tentative distance falls back into the bucket's value window, then relaxes
heavy edges once from everything the bucket processed. Unreachable vertices
simply stay absent from the distance vector.

Two interchangeable backends drive the inner loop: the unfused one composes
the public kernels verbatim, the fused one runs the loop-merged variants.
Their outputs are bit-identical by construction and tested as such.
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
from .fused import (
    BackendChoice,
    bucket_bounds,
    fused_bucket_update,
    fused_masked_relax,
)
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


def split_edges(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """Partition edges into (light, heavy) by weight against delta.

    Every input entry lands in exactly one output with its value untouched.
    Both results come back with their transposed views already built, since
    the solver multiplies through the views every iteration.
    """
    if not (delta > 0) or not math.isfinite(delta):
        raise ValueError(f"delta must be a positive finite number, got {delta}")
    light = filter_matrix(matrix, positive_at_most(delta))
    heavy = filter_matrix(matrix, greater_than(delta))
    matrix_transpose_view(light)
    matrix_transpose_view(heavy)
    return light, heavy


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


def _relax_light_phase_fused(state: SsspState) -> SsspState:
    requests = fused_masked_relax(
        state.tentative, state.bucket, matrix_transpose_view(state.light)
    )
    settled = ewise_add_vector(state.settled, state.bucket, OR)
    tentative, bucket, settled = fused_bucket_update(
        state.tentative, requests, settled, state.bucket_index, state.delta
    )
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


def _relax_heavy_fused(state: SsspState) -> SsspState:
    requests = fused_masked_relax(
        state.tentative, state.settled, matrix_transpose_view(state.heavy)
    )
    tentative = ewise_add_vector(state.tentative, requests, MIN)
    return replace(state, tentative=tentative, requests=requests)


def _bucket_index_of(value: float, delta: float) -> int:
    index = int(value // delta)
    while index * delta > value:
        index -= 1
    while (index + 1) * delta <= value:
        index += 1
    return index


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
    light, heavy = split_edges(matrix, delta)

    # total light passes across the run are bounded by the vertex count
    # times the per-bucket pass bound; beyond that something cycles
    if light.nnz:
        per_bucket = int(math.ceil(delta / float(light.val.min()))) + 2
    else:
        per_bucket = 2
    phase_ceiling = matrix.n * per_bucket

    t = vector_build(matrix.n, [(source, 0.0)])
    index = 0
    outer = 0
    phases = 0
    while t.nnz and float(t.values.max()) >= index * delta:
        state = SsspState(
            tentative=t,
            requests=SparseVector(matrix.n),
            bucket=compute_bucket(t, index, delta),
            settled=SparseVector(matrix.n),
            light=light,
            heavy=heavy,
            bucket_index=index,
            delta=delta,
            source=source,
        )
        while state.bucket.nnz:
            state = (
                _relax_light_phase_fused(state) if fused else relax_light_phase(state)
            )
            phases += 1
            if phases > phase_ceiling:
                raise RuntimeError(
                    f"light phase count exceeded ceiling {phase_ceiling}; "
                    "relaxation is not converging"
                )
        state = _relax_heavy_fused(state) if fused else relax_heavy(state)
        t = state.tentative
        outer += 1
        if skip_empty_buckets:
            beyond = t.values[t.values >= bucket_bounds(index, delta)[1]]
            if beyond.size == 0:
                break
            index = _bucket_index_of(float(beyond.min()), delta)
        else:
            index += 1
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
