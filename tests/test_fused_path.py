"""The fused solver over dense state: its one-pass split equals split_edges,
the solve builds no transposed view, and bucket windows stay exact where
index * delta is computed at large magnitudes."""

from __future__ import annotations

import numpy as np
import pytest

import deltasparse.core
import deltasparse.sssp
from deltasparse import (
    BackendChoice,
    delta_stepping,
    dijkstra_oracle,
    matrix_build,
    random_graph,
    split_edges,
)

FUSED = BackendChoice("fused")


def test_one_pass_partition_equals_split_edges():
    rng = np.random.default_rng(3)
    for case in range(40):
        matrix = random_graph(int(rng.integers(1, 40)), int(rng.integers(0, 160)), rng, "float")
        delta = float(rng.choice([0.5, 1.0, 3.0, 7.5, 100.0]))
        light, heavy = deltasparse.sssp._partition(matrix, delta)
        want_light, want_heavy = split_edges(matrix, delta)
        assert light == want_light and heavy == want_heavy, case
        light.check_invariants()
        heavy.check_invariants()


def test_fused_solve_builds_no_transpose(monkeypatch):
    rng = np.random.default_rng(211)
    cases = []
    for case in range(30):
        # integer weights tie often, which shows a push that re-queues a tie
        n = int(rng.integers(2, 80))
        kind = "int" if case % 2 else "float"
        a = random_graph(n, int(rng.integers(1, 5 * n)), rng, weights=kind)
        source = int(rng.integers(0, n))
        delta = float(rng.choice([0.5, 1.0, 3.0, 11.0]))
        want = [delta_stepping(a, source, delta, skip_empty_buckets=s) for s in (False, True)]
        # a fresh copy, so no view cached by the unfused solves is around
        cases.append((matrix_build(n, np.column_stack(a.triples())), source, delta, want))

    def refuse(matrix):
        raise AssertionError("the fused path built a transposed view")

    for module in (deltasparse.sssp, deltasparse.core):
        monkeypatch.setattr(module, "matrix_transpose_view", refuse)
    for a, source, delta, want in cases:
        for skip, base in zip((False, True), want):
            got = delta_stepping(a, source, delta, backend=FUSED, skip_empty_buckets=skip)
            assert got.distances == base.distances
            assert (got.outer_iterations, got.inner_phases) == (
                base.outer_iterations,
                base.inner_phases,
            )
        assert a._transposed is None


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


def check_backends_and_oracle(a, skip):
    base = delta_stepping(a, 0, DELTA, skip_empty_buckets=skip)
    fused = delta_stepping(a, 0, DELTA, backend=FUSED, skip_empty_buckets=skip)
    assert fused.distances == base.distances
    assert fused.outer_iterations == base.outer_iterations
    assert fused.inner_phases == base.inner_phases
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
        result = check_backends_and_oracle(a, skip=True)
        reach = max(reach, result.distances.values.max() / DELTA)
        # gap skipping bounds the outer loop by the graph, not by the reach
        assert result.outer_iterations <= a.n
    assert reach >= 1e15


@pytest.mark.parametrize("scale", [1e13, 1e14, 1e15])
def test_window_arithmetic_at_large_magnitudes_one_step(scale):
    # the same reach in one-step mode, which counts every window up to the
    # largest distance but visits only those holding a vertex
    rng = np.random.default_rng(int(np.log10(scale)))
    reach = 0.0
    for _ in range(8):
        a = chain_graph(rng, scale, int(rng.integers(10, 40)))
        result = check_backends_and_oracle(a, skip=False)
        top = float(result.distances.values.max())
        reach = max(reach, top / DELTA)
        assert result.outer_iterations == deltasparse.sssp._window_of(top, DELTA) + 1
    assert reach >= 1e15


@pytest.mark.parametrize("scale", [0.07, 1.0, 30.0])
def test_window_arithmetic_one_step_mode(scale):
    # the one-step mode walks every window, so its reach stays near 10^3 buckets
    rng = np.random.default_rng(int(scale * 100) + 7)
    for _ in range(6):
        a = chain_graph(rng, scale, int(rng.integers(3, 25)))
        check_backends_and_oracle(a, skip=False)
