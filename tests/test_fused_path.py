"""The fused solver over dense state: its split equals split_edges or keeps
the input whole for the heavy step, the solve agrees with the unfused one on
distances and counts, and bucket windows stay exact where index * delta is
computed at large magnitudes."""

from __future__ import annotations

import numpy as np
import pytest

import deltasparse.sssp
from deltasparse import (
    BackendChoice,
    delta_stepping,
    dijkstra_oracle,
    matrix_build,
    random_graph,
    split_edges,
)

from conftest import check_matrix

FUSED = BackendChoice("fused")


def counts(result):
    return result.outer_iterations, result.occupied_buckets, result.inner_phases


def test_one_pass_partition_equals_split_edges():
    # the heavy step reads whole rows of the input exactly when heavy edges
    # are at least half of the stored ones; the last two cases sit one edge
    # on either side of that rule (2 of 4 heavy, then 1 of 3)
    rng = np.random.default_rng(3)
    cases = [
        random_graph(int(rng.integers(1, 40)), int(rng.integers(0, 160)), rng, "float")
        for _ in range(40)
    ]
    cases += [
        matrix_build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0), (3, 0, 5.0)]),
        matrix_build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0)]),
    ]
    sides = set()
    for case, matrix in enumerate(cases):
        delta = 3.0 if case >= 40 else float(rng.choice([0.5, 1.0, 3.0, 7.5, 100.0]))
        light, heavy = deltasparse.sssp._partition(matrix, delta)
        want_light, want_heavy = split_edges(matrix, delta)
        whole_rows = 2 * want_heavy.nnz >= matrix.nnz
        assert light == want_light, case
        assert heavy is matrix if whole_rows else heavy == want_heavy, case
        sides.add((case >= 40, whole_rows))
        check_matrix(light)
        check_matrix(heavy)
    assert sides == {(False, False), (False, True), (True, False), (True, True)}


def test_fused_solve_builds_no_transpose():
    rng = np.random.default_rng(211)
    for case in range(30):
        # integer weights tie often, which shows a push that re-queues a tie
        n = int(rng.integers(2, 80))
        kind = "int" if case % 2 else "float"
        a = random_graph(n, int(rng.integers(1, 5 * n)), rng, weights=kind)
        source = int(rng.integers(0, n))
        delta = float(rng.choice([0.5, 1.0, 3.0, 11.0]))
        base = delta_stepping(a, source, delta)
        got = delta_stepping(a, source, delta, backend=FUSED)
        assert got.distances == base.distances
        assert counts(got) == counts(base)


# ------------------------------------------------- window arithmetic at scale

DELTA = 0.1  # not representable in binary: every window end is rounded


def chain_graph(rng, scale, length):
    """A path 0 -> 1 -> ... with weights around `scale` and light steps
    (<= DELTA) mixed in, plus forward shortcuts, so distances climb to about
    length * scale and several candidates compete for most vertices."""
    n = length + 1
    step = scale * (0.5 + rng.random(length))
    light = rng.random(length) < 0.3
    step[light] = DELTA * (1.0 - rng.random(int(light.sum())))
    tails = rng.integers(0, length, 2 * length)
    heads = np.minimum(tails + rng.integers(1, 6, tails.size), length)
    shortcut = scale * (0.5 + 5.0 * rng.random(tails.size))
    rows = np.concatenate([np.arange(length), tails])
    cols = np.concatenate([np.arange(1, n), heads])
    return matrix_build(n, np.column_stack([rows, cols, np.concatenate([step, shortcut])]))


def check_backends_and_oracle(a):
    base = delta_stepping(a, 0, DELTA)
    fused = delta_stepping(a, 0, DELTA, backend=FUSED)
    assert fused.distances == base.distances
    assert counts(fused) == counts(base)
    assert base.distances == dijkstra_oracle(a, 0)
    return base


@pytest.mark.parametrize("scale", [1e13, 1e14, 1e15])
def test_window_arithmetic_at_large_magnitudes_skipping(scale):
    # distance / delta reaches 1e15..1e17, where index * delta is rounded,
    # neighbouring windows can collapse, and light steps vanish under the ulp
    rng = np.random.default_rng(int(np.log10(scale)))
    reach = 0.0
    for _ in range(8):
        a = chain_graph(rng, scale, int(rng.integers(10, 40)))
        result = check_backends_and_oracle(a)
        reach = max(reach, result.distances.values.max() / DELTA)
        # the skip-mode count is bounded by the graph, not by the reach
        assert result.occupied_buckets <= a.n
    assert reach >= 1e15


@pytest.mark.parametrize("scale", [1e13, 1e14, 1e15])
def test_window_arithmetic_at_large_magnitudes_one_step(scale):
    # the same reach for the one-step count, which takes in every window up
    # to the largest distance, though the walk visits only those holding a vertex
    rng = np.random.default_rng(int(np.log10(scale)))
    reach = 0.0
    for _ in range(8):
        a = chain_graph(rng, scale, int(rng.integers(10, 40)))
        result = check_backends_and_oracle(a)
        top = float(result.distances.values.max())
        reach = max(reach, top / DELTA)
        assert result.outer_iterations == deltasparse.sssp._window_of(top, DELTA) + 1
    assert reach >= 1e15


@pytest.mark.parametrize("scale", [0.07, 1.0, 30.0])
def test_window_arithmetic_one_step_mode(scale):
    # the same at everyday magnitudes, where the largest distance spans 1 to
    # a few thousand windows
    rng = np.random.default_rng(int(scale * 100) + 7)
    for _ in range(6):
        a = chain_graph(rng, scale, int(rng.integers(3, 25)))
        check_backends_and_oracle(a)
