"""Both backends against a second, independent oracle at scale:
scipy.sparse.csgraph.dijkstra (compiled, so 10^5-vertex graphs check in a
blink). scipy is a test-only dependency; the module skips without it."""

from __future__ import annotations

import numpy as np
import pytest

csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")

import deltasparse.fused as fused_mod  # noqa: E402
from deltasparse import BackendChoice, delta_stepping, matrix_build, random_graph  # noqa: E402
from deltasparse.cli import REL_TOLERANCE  # noqa: E402

from conftest import grid_arcs  # noqa: E402

pytestmark = pytest.mark.slow


def scipy_distances(matrix, source):
    graph = sparse.csr_matrix((matrix.val, matrix.col, matrix.indptr), shape=(matrix.n, matrix.n))
    dist = csgraph.dijkstra(graph, directed=True, indices=source)
    reach = np.flatnonzero(np.isfinite(dist))
    return reach, dist[reach]


def solve_both(matrix, source, delta):
    for kind in ("unfused", "fused"):
        yield delta_stepping(matrix, source, delta, backend=BackendChoice(kind)).distances


def test_random_graph_int_weights_match_exactly():
    matrix = random_graph(100_000, 1_000_000, np.random.default_rng(5), weights="int")
    reach, want = scipy_distances(matrix, 0)
    assert reach.size > 99_000
    for got in solve_both(matrix, 0, 3.0):
        assert np.array_equal(got.indices, reach)
        assert np.array_equal(got.values, want)


def test_grid_float_weights_within_tolerance():
    side = 200
    rng = np.random.default_rng(6)
    tails, heads = grid_arcs(side)
    weights = 10.0 * (1.0 - rng.random(tails.size))
    matrix = matrix_build(side * side, np.column_stack([tails, heads, weights]))
    reach, want = scipy_distances(matrix, 0)
    assert reach.size == side * side
    for got in solve_both(matrix, 0, 5.0):
        assert np.array_equal(got.indices, reach)
        assert np.all(np.abs(got.values - want) <= REL_TOLERANCE * (1.0 + want))


def test_high_diameter_grid_int_weights_match_exactly():
    # about a thousand outer iterations of tiny frontiers: the road-network
    # shape that the random graphs above do not reach
    side = 500
    rng = np.random.default_rng(9)
    tails, heads = grid_arcs(side)
    weights = rng.integers(1, 1001, tails.size // 2).astype(float)
    weights = np.concatenate([weights, weights])
    matrix = matrix_build(side * side, np.column_stack([tails, heads, weights]))
    reach, want = scipy_distances(matrix, 0)
    assert reach.size == side * side
    runs = [
        delta_stepping(matrix, 0, 200.0, backend=BackendChoice(kind))
        for kind in ("unfused", "fused")
    ]
    for run in runs:
        assert np.array_equal(run.distances.indices, reach)
        assert np.array_equal(run.distances.values, want)
    unfused, fused = runs
    assert (fused.outer_iterations, fused.inner_phases) == (
        unfused.outer_iterations,
        unfused.inner_phases,
    )
    assert unfused.outer_iterations > 1000


def rmat_graph(scale, edge_factor, rng):
    """R-MAT (Chakrabarti, Zhan, Faloutsos, SDM 2004): each edge picks one
    adjacency quadrant per level, so degrees are skewed and a few hubs own
    many edges. Float weights in (0, 10]."""
    n, m = 1 << scale, edge_factor << scale
    tails = np.zeros(m, dtype=np.int64)
    heads = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        quadrant = rng.choice(4, size=m, p=(0.57, 0.19, 0.19, 0.05))
        tails |= (quadrant >> 1) << level
        heads |= (quadrant & 1) << level
    weights = 10.0 * (1.0 - rng.random(m))
    return matrix_build(n, np.column_stack([tails, heads, weights]))


def test_rmat_hub_sources_float_weights_within_tolerance(monkeypatch):
    matrix = rmat_graph(15, 16, np.random.default_rng(8))
    starts = []
    relax = fused_mod._relax

    def spy(values, base, counts, lo, hi, matrix, dense):
        starts.append(lo)
        return relax(values, base, counts, lo, hi, matrix, dense)

    monkeypatch.setattr(fused_mod, "_relax", spy)
    hubs = np.argsort(-np.diff(matrix.indptr), kind="stable")[:4]
    for source in hubs.tolist():
        reach, want = scipy_distances(matrix, source)
        assert reach.size > matrix.n // 2
        unfused, fused = solve_both(matrix, source, 1.0)
        assert fused == unfused
        assert np.array_equal(unfused.indices, reach)
        assert np.all(np.abs(unfused.values - want) <= REL_TOLERANCE * (1.0 + want))
    # hub frontiers exceed one push slice: a slice past the first ran, so
    # the slice merge did too
    assert max(starts) > 0
