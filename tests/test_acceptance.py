"""Acceptance suite. Each test covers one release criterion, prints one
PASS/FAIL line through record_acceptance, and then asserts it.

Criterion map:
  1 oracle agreement on a 700-graph corpus across four bucket widths
  2 union-combine pass-through examples, hazard and mask fix included
  3 light/heavy edge partition is exact
  4 fused backend bit-equals unfused step by step: same light/heavy steps,
    same distances after each, same bucket after each light step, same counts
  5 range decomposition: 1-, 3-, 17-entry and real-size ranges agree bit for bit
  6 unit-weight graphs at width 1 behave like breadth-first search
  7 fused is not slower than unfused
  8 loaders reproduce exact triple sets and report exact error lines
  9 termination on disconnected graphs and heavy-gap stars within the bound
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import deltasparse.fused as fused_mod
import deltasparse.sssp as sssp
from deltasparse import (
    BackendChoice,
    LESS,
    MIN,
    delta_stepping,
    dijkstra_oracle,
    ewise_add_vector,
    filter_matrix,
    greater_than,
    load_edge_list,
    load_matrix_market,
    matrix_build,
    positive_at_most,
    random_connected_unit_graph,
    random_graph,
    vector_build,
)
from deltasparse.core import INDEX_DTYPE
from deltasparse.io import GraphLoadError

from conftest import record_acceptance

CORPUS_SEED = 20260816
DELTAS = (0.5, 1.0, 3.0, 11.0)
INT_GRAPHS = 500
FLOAT_GRAPHS = 200
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    graphs = []
    for case in range(INT_GRAPHS + FLOAT_GRAPHS):
        kind = "int" if case < INT_GRAPHS else "float"
        n = int(rng.integers(1, 201))
        m = int(rng.integers(0, 2001))
        matrix = random_graph(n, m, rng, weights=kind)
        source = int(rng.integers(0, n))
        graphs.append((matrix, source, kind))
    return graphs


def within_float_tolerance(got, want):
    if not np.array_equal(got.indices, want.indices):
        return False
    if want.nnz == 0:
        return True
    return bool(np.all(np.abs(got.values - want.values) <= REL_TOL * (1.0 + want.values)))


def test_criterion_1_oracle_agreement(corpus):
    start = time.perf_counter()
    failures = []
    for case, (matrix, source, kind) in enumerate(corpus):
        want = dijkstra_oracle(matrix, source)
        for delta in DELTAS:
            got = delta_stepping(matrix, source, delta).distances
            if kind == "int":
                ok = np.array_equal(got.indices, want.indices) and np.array_equal(
                    got.values, want.values
                )
            else:
                ok = within_float_tolerance(got, want)
            if not ok:
                failures.append((case, delta))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record_acceptance(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"{INT_GRAPHS} int + {FLOAT_GRAPHS} float graphs x {len(DELTAS)} deltas "
        f"match the oracle ({len(failures)} mismatches, {elapsed:.1f}s)"
    )
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_criterion_2_union_passthrough_examples():
    u = vector_build(2, [(0, 3.0)])
    v = vector_build(2, [(0, 1.0), (1, 4.0)])
    ok = ewise_add_vector(u, v, MIN).to_dict() == {0: 1.0, 1: 4.0}

    requests = vector_build(3, [(1, 2.0)])
    t = vector_build(3, [(1, 5.0), (2, 1.0)])
    hazard = ewise_add_vector(requests, t, LESS)
    ok = ok and hazard.to_dict() == {1: 1.0, 2: 1.0}
    fixed = ewise_add_vector(requests, t, LESS, mask=requests)
    ok = ok and fixed.to_dict() == {1: 1.0}

    record_acceptance(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        "union combine passes single entries through; the comparison hazard "
        "appears unmasked and disappears under the requests mask"
    )
    assert ok


def test_criterion_3_partition_invariant():
    rng = np.random.default_rng(CORPUS_SEED + 3)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        a = random_graph(n, int(rng.integers(0, 6 * n)), rng, weights="float")
        delta = float(10.0 * rng.random() + 0.05)
        low = filter_matrix(a, positive_at_most(delta))
        high = filter_matrix(a, greater_than(delta))
        exact = (
            low.entry_set() | high.entry_set() == a.entry_set()
            and low.nnz + high.nnz == a.nnz
        )
        failures += 0 if exact else 1
    record_acceptance(
        f"criterion 3: {'PASS' if failures == 0 else 'FAIL'} "
        f"light/heavy split partitions 100 random matrices exactly "
        f"({failures} failures)"
    )
    assert failures == 0


def step_recorder(monkeypatch):
    """Log every relaxation step both backends take, as (kind, frontier,
    finite tentative indices, their values), all as raw bytes. The fused
    solve's pushes are told apart by the light matrix its split returned."""
    log = []
    partition, push = sssp._partition, sssp._push
    light_phase, heavy = sssp.relax_light_phase, sssp.relax_heavy
    split = []

    def record(kind, frontier, indices, values):
        frontier, indices = frontier.astype(INDEX_DTYPE), indices.astype(INDEX_DTYPE)
        log.append((kind, frontier.tobytes(), indices.tobytes(), values.tobytes()))

    def fused_partition(matrix, delta):
        split[:] = partition(matrix, delta)
        return tuple(split)

    def fused_push(values, frontier, matrix, dense):
        lowered = push(values, frontier, matrix, dense)
        reached = np.flatnonzero(dense < math.inf)
        record("light" if matrix is split[0] else "heavy", frontier, reached, dense[reached])
        return lowered

    def unfused_light(state):
        out = light_phase(state)
        record("light", state.bucket.indices, out.tentative.indices, out.tentative.values)
        return out

    def unfused_heavy(state):
        out = heavy(state)
        record("heavy", state.settled.indices, out.tentative.indices, out.tentative.values)
        return out

    monkeypatch.setattr(sssp, "_partition", fused_partition)
    monkeypatch.setattr(sssp, "_push", fused_push)
    monkeypatch.setattr(sssp, "relax_light_phase", unfused_light)
    monkeypatch.setattr(sssp, "relax_heavy", unfused_heavy)
    return log


def test_criterion_4_fusion_transparency(corpus, monkeypatch):
    # Equal step logs mean the same light/heavy sequence and bit-equal
    # tentative distances after every step. A light step's next bucket is
    # the frontier of the step after it, or empty when that step is heavy,
    # so they also mean bit-equal buckets after every light step. Each
    # occupied bucket takes one heavy step, and the outer loop counts every
    # window up to the one holding the largest distance.
    log = step_recorder(monkeypatch)
    mismatches = []
    steps = 0
    for case, (matrix, source, _) in enumerate(corpus):
        for delta in DELTAS:
            runs = []
            for kind in ("unfused", "fused"):
                log.clear()
                result = delta_stepping(matrix, source, delta, backend=BackendChoice(kind))
                heavy_steps = sum(step[0] == "heavy" for step in log)
                top = float(result.distances.values.max())
                counts = (result.outer_iterations, result.occupied_buckets, result.inner_phases)
                runs.append((result.distances, list(log), counts))
                if result.occupied_buckets != heavy_steps:
                    mismatches.append((case, delta, kind, "occupied_buckets"))
                if result.outer_iterations != sssp._window_of(top, delta) + 1:
                    mismatches.append((case, delta, kind, "outer_iterations"))
            (want, want_steps, want_counts), (got, got_steps, got_counts) = runs
            steps += len(want_steps)
            if got != want or got_steps != want_steps or got_counts != want_counts:
                mismatches.append((case, delta))

    ok = not mismatches and steps > 0
    record_acceptance(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"fused backend bit-equals unfused step by step on all {len(corpus)}x{len(DELTAS)} "
        f"runs: {steps} paired light/heavy steps, equal distances after every step, "
        f"equal buckets after every light step and equal outer, bucket and phase counts "
        f"({len(mismatches)} mismatches)"
    )
    assert ok, mismatches[:5]


def test_criterion_5_parallel_determinism(corpus, monkeypatch):
    # a 1-entry range size cuts every fused call into one range per index,
    # so agreement here is not the one-range path agreeing with itself
    delta = 1.0
    sizes = (1, 3, 17, fused_mod.RANGE_ENTRIES)
    mismatches = []
    for case, (matrix, source, _) in enumerate(corpus):
        results = []
        for entries in sizes:
            monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
            results.append(
                delta_stepping(matrix, source, delta, backend=BackendChoice("fused")).distances
            )
        if any(r != results[0] for r in results[1:]):
            mismatches.append(case)
    ok = not mismatches
    record_acceptance(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"range sizes {'/'.join(map(str, sizes))} agree bit for bit on all "
        f"{len(corpus)} graphs ({len(mismatches)} mismatches)"
    )
    assert ok, mismatches[:5]


def test_criterion_6_unit_weight_bucket_counts():
    rng = np.random.default_rng(CORPUS_SEED + 6)
    failures = []
    for case in range(50):
        n = int(rng.integers(2, 121))
        a = random_connected_unit_graph(n, int(rng.integers(0, 2 * n)), rng)
        result = delta_stepping(a, 0, 1.0)
        want = dijkstra_oracle(a, 0)
        longest = int(want.values.max())
        ok = (
            result.distances == want
            and result.distances.nnz == n
            and result.outer_iterations == longest + 1
            and result.inner_phases == result.outer_iterations
        )
        if not ok:
            failures.append(case)
    record_acceptance(
        f"criterion 6: {'PASS' if not failures else 'FAIL'} "
        f"50 connected unit graphs at width 1: one bucket per distance level, "
        f"one light phase per bucket ({len(failures)} failures)"
    )
    assert not failures, failures


@pytest.mark.slow
def test_criterion_7_performance_direction():
    rng = np.random.default_rng(7)
    n, m = 100_000, 1_050_000
    matrix = random_graph(n, m, rng, weights="int")
    assert matrix.nnz >= 1_000_000
    source, delta = 0, 3.0

    def median_time(backend, repeats):
        times = []
        result = None
        for _ in range(repeats):
            result = delta_stepping(matrix, source, delta, backend=backend)
            times.append(result.elapsed)
        times.sort()
        return times[len(times) // 2], result.distances

    unfused_t, unfused_d = median_time(BackendChoice("unfused"), 3)
    fused_t, fused_d = median_time(BackendChoice("fused"), 3)

    same = fused_d == unfused_d
    ok = same and fused_t <= unfused_t
    record_acceptance(
        f"criterion 7: {'PASS' if ok else 'FAIL'} n={n} m={matrix.nnz}: "
        f"fused/unfused {fused_t / unfused_t:.2f} "
        f"(fused {fused_t:.3f}s vs unfused {unfused_t:.3f}s); "
        f"informational speedup: fusion x{unfused_t / fused_t:.2f}"
    )
    assert same
    assert fused_t <= unfused_t


def test_criterion_8_loader_round_trip(tmp_path):
    checks = []

    def fixture(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    mtx = fixture(
        "good.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment\n"
        "3 3 3\n"
        "1 2 2.5\n"
        "2 3 1.0\n"
        "1 3 0.25\n",
    )
    matrix, labels = load_matrix_market(mtx)
    checks.append(matrix.entry_set() == {(0, 1, 2.5), (1, 2, 1.0), (0, 2, 0.25)})
    checks.append(labels.externals == [1, 2, 3])

    sym = fixture(
        "sym.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n"
    )
    matrix, _ = load_matrix_market(sym)
    checks.append(matrix.entry_set() == {(0, 1, 1.0), (1, 0, 1.0)})

    loops = fixture(
        "loops.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 9.0\n1 2 5.0\n1 2 2.0\n",
    )
    matrix, _ = load_matrix_market(loops)
    checks.append(matrix.entry_set() == {(0, 1, 2.0)})

    edges = fixture("g.edges", "# c\n% c\n0 1 3.0\n1 0 1.0\n2 2\n0 1 2.0\n")
    matrix, labels = load_edge_list(edges, directed=False)
    checks.append(
        matrix.entry_set() == {(0, 1, 1.0), (1, 0, 1.0)} and labels.externals == [0, 1, 2]
    )

    expected_errors = [
        ("bad1.mtx", "mtx", "nope\n1 1 0\n", 1),
        ("bad2.mtx", "mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -3\n", 3),
        ("bad3.mtx", "mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n", 3),
        ("bad4.mtx", "mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n", 3),
        ("bad5.edges", "edges", "0 1\n0 1 2 3\n", 2),
        ("bad6.edges", "edges", "0 1\nx y\n", 2),
    ]
    for name, kind, text, want_line in expected_errors:
        path = fixture(name, text)
        loader = load_matrix_market if kind == "mtx" else load_edge_list
        try:
            loader(path)
            checks.append(False)
        except GraphLoadError as exc:
            checks.append(exc.lineno == want_line and str(exc).startswith(f"{path}:{want_line}:"))

    ok = all(checks)
    record_acceptance(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"loader fixtures reproduce exact triple sets and error line numbers "
        f"({checks.count(False)} of {len(checks)} checks failed)"
    )
    assert ok, checks


def test_criterion_9_termination_guard():
    checks = []

    disconnected = matrix_build(6, [(0, 1, 2.0), (1, 2, 2.0), (4, 5, 1.0)])
    for delta in DELTAS:
        result = delta_stepping(disconnected, 0, delta)
        longest = 4.0
        checks.append(result.distances.to_dict() == {0: 0.0, 1: 2.0, 2: 4.0})
        checks.append(result.outer_iterations <= math.ceil(longest / delta) + 1)

    star = matrix_build(
        7, [(0, k, 1.0) for k in range(1, 6)] + [(0, 6, 100.0)]
    )
    for delta in DELTAS:
        result = delta_stepping(star, 0, delta)
        checks.append(result.distances.get(6) == 100.0)
        checks.append(result.outer_iterations <= math.ceil(100.0 / delta) + 1)
        # the windows between the spokes and the far vertex are all empty,
        # so only those holding 0, 1 or 100 are visited
        checks.append(result.occupied_buckets == len({d // delta for d in (0.0, 1.0, 100.0)}))

    ok = all(checks)
    record_acceptance(
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"disconnected and heavy-gap star runs stop within ceil(maxdist/delta)+1 "
        f"outer iterations ({checks.count(False)} of {len(checks)} checks failed)"
    )
    assert ok, checks
