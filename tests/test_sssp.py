"""Solver tests: edge splitting, bucket construction, the light/heavy
relaxation steps with a frozen hand trace, loop invariants driven phase by
phase, and full runs checked against an independent heap-based oracle that
is itself cross-checked against Bellman-Ford."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

import deltasparse.fused as fused_mod
import deltasparse.sssp as sssp_mod
from deltasparse import (
    BackendChoice,
    LESS,
    SparseVector,
    TIMES,
    bucket_bounds,
    compute_bucket,
    delta_stepping,
    dijkstra_oracle,
    ewise_add_vector,
    ewise_mult_vector,
    filter_vector,
    in_half_open,
    mask_from_indices,
    matrix_build,
    random_connected_unit_graph,
    random_graph,
    relax_heavy,
    relax_light_phase,
    split_edges,
    vector_build,
)
from deltasparse.sssp import DeltaTooSmall, DistanceOverflow, SsspState, _window_of

DELTAS = (0.5, 1.0, 3.0, 11.0)


def fresh_state(matrix, source, delta, index=0, tentative=None):
    light, heavy = split_edges(matrix, delta)
    t = tentative if tentative is not None else vector_build(matrix.n, [(source, 0.0)])
    return SsspState(
        tentative=t,
        requests=SparseVector(matrix.n),
        bucket=compute_bucket(t, index, delta),
        settled=SparseVector(matrix.n),
        light=light,
        heavy=heavy,
        bucket_index=index,
        delta=delta,
    )


# ---------------------------------------------------------------- splitting


def test_split_edges_by_weight():
    a = matrix_build(3, [(0, 1, 0.5), (1, 2, 2.0)])
    light, heavy = split_edges(a, 1.0)
    assert light.entry_set() == {(0, 1, 0.5)}
    assert heavy.entry_set() == {(1, 2, 2.0)}


def test_split_edges_boundary_weight_is_light():
    a = matrix_build(2, [(0, 1, 1.0)])
    light, heavy = split_edges(a, 1.0)
    assert light.entry_set() == {(0, 1, 1.0)}
    assert heavy.nnz == 0


def test_split_edges_unit_graph_all_light():
    a = matrix_build(3, [(0, 1, 1.0), (1, 2, 1.0)])
    light, heavy = split_edges(a, 1.0)
    assert light == a
    assert heavy.nnz == 0


def test_split_edges_partition_invariant():
    rng = np.random.default_rng(73)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        a = random_graph(n, int(rng.integers(0, 4 * n)), rng, weights="float")
        delta = float(rng.choice(DELTAS))
        light, heavy = split_edges(a, delta)
        assert light.entry_set() | heavy.entry_set() == a.entry_set()
        assert light.nnz + heavy.nnz == a.nnz
        if light.nnz:
            assert light.val.max() <= delta
        if heavy.nnz:
            assert heavy.val.min() > delta


def test_split_edges_rejects_bad_delta():
    a = matrix_build(2, [(0, 1, 1.0)])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            split_edges(a, bad)


# ---------------------------------------------------------------- buckets


def test_compute_bucket_source_window():
    t = vector_build(3, [(0, 0.0)])
    assert list(compute_bucket(t, 0, 1.0).indices) == [0]


def test_compute_bucket_later_window():
    t = vector_build(4, [(0, 0.0), (1, 2.5)])
    assert list(compute_bucket(t, 2, 1.0).indices) == [1]


def test_compute_bucket_empty():
    assert compute_bucket(SparseVector(4), 0, 1.0).nnz == 0
    t = vector_build(4, [(0, 0.0)])
    assert compute_bucket(t, 5, 1.0).nnz == 0


def test_compute_bucket_rejects_negative_index():
    with pytest.raises(ValueError):
        compute_bucket(SparseVector(3), -1, 1.0)


# ---------------------------------------------------------------- light phase


def test_light_phase_unit_path_step():
    a = matrix_build(3, [(0, 1, 1.0), (1, 2, 1.0)])
    state = relax_light_phase(fresh_state(a, 0, 1.0))
    assert state.tentative.to_dict() == {0: 0.0, 1: 1.0}
    assert state.requests.to_dict() == {1: 1.0}
    assert list(state.settled.indices) == [0]
    # the new distance 1.0 falls outside [0, 1), so the bucket drains
    assert state.bucket.nnz == 0


def test_light_phase_reintroduction_trace():
    # shortcut 0->2 found first, then improved through 1 back into the window
    a = matrix_build(3, [(0, 1, 0.4), (1, 2, 0.4), (0, 2, 0.9)])
    state = fresh_state(a, 0, 1.0)

    state = relax_light_phase(state)
    assert state.requests.to_dict() == {1: 0.4, 2: 0.9}
    assert list(state.settled.indices) == [0]
    assert list(state.bucket.indices) == [1, 2]
    assert state.tentative.to_dict() == {0: 0.0, 1: 0.4, 2: 0.9}

    state = relax_light_phase(state)
    assert state.requests.to_dict() == {2: 0.4 + 0.4}
    assert list(state.settled.indices) == [0, 1, 2]
    assert list(state.bucket.indices) == [2]
    assert state.tentative.to_dict() == {0: 0.0, 1: 0.4, 2: 0.4 + 0.4}

    state = relax_light_phase(state)
    assert state.requests.nnz == 0
    assert state.bucket.nnz == 0
    assert state.tentative.to_dict() == {0: 0.0, 1: 0.4, 2: 0.4 + 0.4}


def test_light_phase_isolated_vertex_is_noop():
    a = matrix_build(3, [(1, 2, 1.0)])
    state = relax_light_phase(fresh_state(a, 0, 1.0))
    assert state.tentative.to_dict() == {0: 0.0}
    assert state.bucket.nnz == 0
    assert list(state.settled.indices) == [0]


# ---------------------------------------------------------------- heavy step


def test_relax_heavy_no_heavy_edges():
    a = matrix_build(3, [(0, 1, 0.5)])
    state = fresh_state(a, 0, 1.0)
    state = relax_light_phase(state)
    after = relax_heavy(state)
    assert after.tentative == state.tentative


def test_relax_heavy_single_edge():
    a = matrix_build(4, [(0, 3, 5.0)])
    state = fresh_state(a, 0, 1.0)
    state = relax_light_phase(state)
    after = relax_heavy(state)
    assert after.tentative.to_dict() == {0: 0.0, 3: 5.0}


def test_relax_heavy_takes_minimum_over_settled():
    a = matrix_build(4, [(0, 1, 0.4), (0, 3, 5.0), (1, 3, 4.2)])
    state = fresh_state(a, 0, 1.0)
    while state.bucket.nnz:
        state = relax_light_phase(state)
    after = relax_heavy(state)
    # 0.4 + 4.2 beats 0.0 + 5.0; compare against the float expression, not
    # a decimal literal that may not round to the same bits
    assert after.tentative.get(3) == 0.4 + 4.2


# ---------------------------------------------------------------- invariants


def heavy_leftovers(state, t_before):
    """Heavy requests that land back in the window and improve; the loop
    relies on this being empty after one heavy pass."""
    lo, hi = bucket_bounds(state.bucket_index, state.delta)
    in_window = filter_vector(state.requests, in_half_open(lo, hi))
    improving = ewise_add_vector(state.requests, t_before, LESS, mask=state.requests)
    return ewise_mult_vector(in_window, improving, TIMES)


def test_phase_by_phase_invariants():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        a = random_graph(n, int(rng.integers(1, 4 * n)), rng, weights="float")
        delta = float(rng.choice(DELTAS))
        source = int(rng.integers(0, n))
        light, heavy = split_edges(a, delta)
        if light.nnz:
            ceiling = n * (int(math.ceil(delta / float(light.val.min()))) + 2)
        else:
            ceiling = n * 2

        t = vector_build(n, [(source, 0.0)])
        index = 0
        phases = 0
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
            )
            lo, hi = bucket_bounds(index, delta)
            while state.bucket.nnz:
                old = state.tentative
                state = relax_light_phase(state)
                phases += 1
                assert phases <= ceiling
                new = state.tentative
                # distances only ever shrink and the domain only ever grows
                assert set(old.indices.tolist()) <= set(new.indices.tolist())
                for i in old.indices.tolist():
                    assert new.get(i) <= old.get(i)
                for i, v in state.bucket.items():
                    assert lo <= state.tentative.get(i) < hi
                if state.requests.nnz:
                    assert state.requests.values.min() > 0.0
            t_before = state.tentative
            state = relax_heavy(state)
            assert heavy_leftovers(state, t_before).nnz == 0
            t = state.tentative
            index += 1


# ---------------------------------------------------------------- full runs


def test_delta_stepping_single_vertex():
    a = matrix_build(1, [])
    result = delta_stepping(a, 0, 1.0)
    assert result.distances.to_dict() == {0: 0.0}
    assert result.outer_iterations == 1


def test_delta_stepping_unit_path_counts():
    a = matrix_build(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    result = delta_stepping(a, 0, 1.0)
    assert result.distances.to_dict() == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert result.outer_iterations == 4
    assert result.inner_phases == 4


def test_delta_stepping_matches_oracle():
    rng = np.random.default_rng(89)
    for case in range(60):
        n = int(rng.integers(1, 80))
        kind = "int" if case % 2 == 0 else "float"
        a = random_graph(n, int(rng.integers(0, 5 * n)), rng, weights=kind)
        source = int(rng.integers(0, n))
        want = dijkstra_oracle(a, source)
        for delta in DELTAS:
            got = delta_stepping(a, source, delta).distances
            assert list(got.indices) == list(want.indices)
            if kind == "int":
                assert np.array_equal(got.values, want.values)
            else:
                dev = np.abs(got.values - want.values)
                assert np.all(dev <= 1e-9 * (1.0 + want.values))


def test_delta_stepping_backends_bit_identical(monkeypatch):
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        a = random_graph(n, int(rng.integers(1, 4 * n)), rng, weights="float")
        source = int(rng.integers(0, n))
        delta = float(rng.choice(DELTAS))
        base = delta_stepping(a, source, delta)
        # the real range size, then ranges small enough that calls split
        for entries in (fused_mod.RANGE_ENTRIES, 3):
            monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
            other = delta_stepping(a, source, delta, backend=BackendChoice(kind="fused"))
            assert other.distances == base.distances
            assert other.outer_iterations == base.outer_iterations
            assert other.inner_phases == base.inner_phases


# peak bytes an edge: the fused heavy step reads whole rows of the input
# where heavy edges are at least half of it, so int and float weights copy
# only their light part; unit weights at delta 3 are all light and take
# the copy side of that rule
SOLVE_PEAK_BOUNDS = {
    ("unfused", "unit"): 56,
    ("unfused", "int"): 56,
    ("unfused", "float"): 56,
    ("fused", "unit"): 56,
    ("fused", "int"): 27,
    ("fused", "float"): 27,
}


@pytest.mark.parametrize("backend, kind", list(SOLVE_PEAK_BOUNDS))
def test_solve_memory_per_edge(backend, kind):
    # The unfused split keeps the light and heavy parts (16 bytes an edge)
    # and a push slice of up to RANGE_ENTRIES out-edges costs about 24 bytes
    # an edge at this size: traced peaks read 48.5, 38.2 and 40.4 bytes an
    # edge for unit, int and float weights. A transposed copy of the input
    # costs 16 bytes an edge more, and filtered views of it 16 more (74 to
    # 85 with both); a copy cached on the input stays allocated after the
    # solve. The fused solve reads 42.3, 21.5 and 24.3; copying the heavy
    # part as well reads 30.6 and 32.7 for int and float weights.
    a = random_graph(20_000, 120_000, np.random.default_rng(5), weights=kind)
    gc.collect()
    tracemalloc.start()
    try:
        result = delta_stepping(a, 0, 3.0, backend=BackendChoice(backend))
        peak = tracemalloc.get_traced_memory()[1]
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= SOLVE_PEAK_BOUNDS[backend, kind] * a.nnz, peak / a.nnz
    assert kept <= 1 * a.nnz, kept / a.nnz


def test_delta_stepping_rejects_bad_arguments():
    a = matrix_build(3, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        delta_stepping(a, 3, 1.0)
    with pytest.raises(ValueError):
        delta_stepping(a, -1, 1.0)
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            delta_stepping(a, 0, bad)


def test_delta_stepping_disconnected_omits_unreachable():
    a = matrix_build(5, [(0, 1, 1.0), (3, 4, 1.0)])
    for delta in DELTAS:
        result = delta_stepping(a, 0, delta)
        assert result.distances.to_dict() == {0: 0.0, 1: 1.0}


def test_delta_stepping_star_with_long_spoke_terminates():
    triples = [(0, k, 1.0) for k in range(1, 6)] + [(0, 6, 100.0)]
    a = matrix_build(7, triples)
    for delta in DELTAS:
        result = delta_stepping(a, 0, delta)
        assert result.distances.get(6) == 100.0
        assert result.outer_iterations <= math.ceil(100.0 / delta) + 1


def test_skip_empty_buckets_same_distances_fewer_iterations():
    # the skip-mode count, occupied_buckets, comes from the same walk as the
    # one-step count and never exceeds it; both backends agree on the answer
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        a = random_graph(n, int(rng.integers(1, 4 * n)), rng, weights="float")
        source = int(rng.integers(0, n))
        delta = float(rng.choice(DELTAS))
        plain = delta_stepping(a, source, delta)
        fused = delta_stepping(a, source, delta, backend=BackendChoice("fused"))
        assert fused.distances == plain.distances == dijkstra_oracle(a, source)
        assert fused.occupied_buckets == plain.occupied_buckets
        assert plain.occupied_buckets <= plain.outer_iterations


def stepped_window(value, delta):
    # the window search by single steps from the float quotient
    index = int(value // delta)
    while index * delta > value:
        index -= 1
    while (index + 1) * delta <= value:
        index += 1
    return index


def test_window_of_matches_single_steps():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        # quotients up to about 1e21, where one float spans 2**17 indices
        delta = float(10.0 ** rng.uniform(-18, 2))
        value = float(10.0 ** rng.uniform(-2, 3))
        if value >= delta:
            assert _window_of(value, delta) == stepped_window(value, delta)
    for _ in range(500):
        # values exactly on, just below and just above a window start
        delta = float(10.0 ** rng.uniform(-6, 2))
        start = int(rng.integers(1, 10**12)) * delta
        for value in (start, math.nextafter(start, 0.0), math.nextafter(start, math.inf)):
            assert _window_of(value, delta) == stepped_window(value, delta)


@pytest.mark.parametrize("delta", [1e-20, 1e-100, 1e-300, 1e-305])
@pytest.mark.parametrize("value", [1e-5, 0.7, 1.0, 123.456])
def test_window_of_holds_value_at_huge_quotients(delta, value):
    index = _window_of(value, delta)
    lo, hi = bucket_bounds(index, delta)
    assert lo <= value < hi < math.inf
    assert _window_of(math.nextafter(hi, 0.0), delta) == index
    assert _window_of(hi, delta) > index


@pytest.mark.parametrize("delta", [5e-324, 1e-320, 3e-310])
def test_window_of_rejects_index_past_float_range(delta):
    with pytest.raises(DeltaTooSmall, match="too small to place distance 1.0"):
        _window_of(1.0, delta)


def test_distances_invariant_across_deltas():
    rng = np.random.default_rng(103)
    for _ in range(15):
        n = int(rng.integers(2, 50))
        a = random_graph(n, int(rng.integers(1, 4 * n)), rng, weights="int")
        source = int(rng.integers(0, n))
        results = [delta_stepping(a, source, d).distances for d in DELTAS]
        for other in results[1:]:
            assert other == results[0]


def test_connected_unit_graph_bucket_counts():
    rng = np.random.default_rng(107)
    for _ in range(10):
        n = int(rng.integers(2, 60))
        a = random_connected_unit_graph(n, int(rng.integers(0, n)), rng)
        result = delta_stepping(a, 0, 1.0)
        want = dijkstra_oracle(a, 0)
        assert result.distances == want
        assert result.distances.nnz == n
        longest = int(want.values.max())
        assert result.outer_iterations == longest + 1
        # unit weights with unit windows settle each bucket in one pass
        assert result.inner_phases == result.outer_iterations


# ---------------------------------------------------------- one bucket walk


def heavy_step_recorder(monkeypatch):
    """Record the frontier size of every heavy step in either backend: the
    unfused relax_heavy calls and the fused pushes through the heavy part."""
    sizes = []
    partition, push, heavy = sssp_mod._partition, sssp_mod._push, sssp_mod.relax_heavy
    split = []

    def fused_partition(matrix, delta):
        split[:] = partition(matrix, delta)
        return tuple(split)

    def fused_push(values, frontier, matrix, dense):
        if matrix is split[1]:
            sizes.append(frontier.size)
        return push(values, frontier, matrix, dense)

    def unfused_heavy(state):
        sizes.append(state.settled.nnz)
        return heavy(state)

    monkeypatch.setattr(sssp_mod, "_partition", fused_partition)
    monkeypatch.setattr(sssp_mod, "_push", fused_push)
    monkeypatch.setattr(sssp_mod, "relax_heavy", unfused_heavy)
    return sizes


@pytest.mark.parametrize("kind", ["unfused", "fused"])
def test_one_step_visits_only_occupied_windows(monkeypatch, kind):
    # 20,001 windows up to distance 2e4, of which three hold a vertex
    a = matrix_build(3, [(0, 1, 1e4), (1, 2, 1e4)])
    sizes = heavy_step_recorder(monkeypatch)
    result = delta_stepping(a, 0, 1.0, backend=BackendChoice(kind))
    assert result.distances.to_dict() == {0: 0.0, 1: 1e4, 2: 2e4}
    counts = (result.outer_iterations, result.occupied_buckets, result.inner_phases)
    assert counts == (20_001, 3, 3)
    assert sizes == [1, 1, 1]


def test_one_step_work_equals_skip_mode_buckets(monkeypatch):
    sizes = heavy_step_recorder(monkeypatch)
    rng = np.random.default_rng(109)
    for case in range(40):
        n = int(rng.integers(1, 60))
        kind = "int" if case % 2 == 0 else "float"
        a = random_graph(n, int(rng.integers(0, 4 * n + 1)), rng, weights=kind)
        source = int(rng.integers(0, n))
        for delta in DELTAS + (0.1,):
            for backend in ("unfused", "fused"):
                sizes.clear()
                result = delta_stepping(a, source, delta, backend=BackendChoice(backend))
                reached = result.distances
                # one heavy step per occupied window, none for an empty one
                assert len(sizes) == result.occupied_buckets <= reached.nnz
                assert result.occupied_buckets <= result.outer_iterations
                assert min(sizes) > 0
                last = _window_of(float(reached.values.max()), delta)
                assert result.outer_iterations == last + 1


@pytest.mark.parametrize("kind", ["unfused", "fused"])
@pytest.mark.parametrize("delta", [1e300, 1e308])
def test_huge_delta_over_tiny_light_weights(kind, delta):
    # delta / lightest weight is inf, yet the phase ceiling stays finite
    rng = np.random.default_rng(113)
    tiny = random_graph(30, 120, rng, weights="float")
    graphs = [
        matrix_build(3, [(0, 1, 1e-10), (1, 2, 1e-10)]),
        matrix_build(30, [(i, j, w * 1e-300) for i, j, w in zip(*tiny.triples())]),
    ]
    for a in graphs:
        result = delta_stepping(a, 0, delta, backend=BackendChoice(kind))
        assert result.distances == dijkstra_oracle(a, 0)


@pytest.mark.parametrize("kind", ["unfused", "fused"])
def test_phase_ceiling_stops_a_bucket_that_never_empties(monkeypatch, kind):
    # light passes that neither lower t nor drain the bucket would cycle
    # forever; the solve must stop at n * (ceil(delta / lightest) + 2)
    monkeypatch.setattr(sssp_mod, "relax_light_phase", lambda state: state)
    monkeypatch.setattr(sssp_mod, "_push", lambda values, frontier, matrix, dense: frontier)
    a = matrix_build(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(RuntimeError, match="light phase count exceeded ceiling 9;"):
        delta_stepping(a, 0, 1.0, backend=BackendChoice(kind))


@pytest.mark.parametrize("kind", ["unfused", "fused"])
def test_last_window_runs_to_inf(kind):
    # window 17 at delta 1e307 ends past the float range, so it runs to inf;
    # it holds 1.75e308, and neither count needs an index beyond the floats
    assert bucket_bounds(_window_of(1.75e308, 1e307), 1e307) == (1.7e308, math.inf)
    a = matrix_build(2, [(0, 1, 1.75e308)])
    result = delta_stepping(a, 0, 1e307, backend=BackendChoice(kind))
    assert result.distances == dijkstra_oracle(a, 0)
    assert (result.outer_iterations, result.occupied_buckets, result.inner_phases) == (18, 2, 2)


def bfs_reach(matrix, source):
    seen, todo = {source}, [source]
    while todo:
        for v in matrix.row(todo.pop())[0].tolist():
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return sorted(seen)


@pytest.mark.parametrize("kind", ["unfused", "fused"])
def test_huge_weights_raise_or_reach_every_vertex(kind):
    # weights near the float maximum make some path sums inf; the solver and
    # the oracle must then raise, never drop a vertex that a BFS reaches
    rng = np.random.default_rng(41)
    outcomes = []
    for _ in range(80):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 3 * n + 1))
        w = np.where(
            rng.random(m) < 0.3, rng.uniform(1e307, 1.7e308, m), rng.uniform(0.5, 10.0, m)
        )
        a = matrix_build(n, np.column_stack([rng.integers(0, n, (2, m)).T, w]))
        source, delta = int(rng.integers(0, n)), float(rng.choice([1.0, 1e306]))
        for solve in (
            lambda: delta_stepping(a, source, delta, backend=BackendChoice(kind)).distances,
            lambda: dijkstra_oracle(a, source),
        ):
            try:
                reached = solve().indices.tolist()
            except DistanceOverflow as exc:
                assert exc.vertex in bfs_reach(a, source)
                outcomes.append(False)
            else:
                assert reached == bfs_reach(a, source)
                outcomes.append(True)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("kind", ["unfused", "fused"])
def test_subnormal_weights_solve_equal_to_the_oracle(kind):
    rng = np.random.default_rng(43)
    r, c, w = random_graph(40, 160, rng, weights="float").triples()
    w = np.where(rng.random(w.size) < 0.5, 5e-324, w)
    a = matrix_build(40, np.column_stack([r, c, w]))
    for delta in (1e-300, 1.0, 3.0):
        result = delta_stepping(a, 0, delta, backend=BackendChoice(kind))
        assert result.distances == dijkstra_oracle(a, 0)


# ---------------------------------------------------------------- oracle


def bellman_ford(matrix, source):
    dist = {source: 0.0}
    rows, cols, weights = matrix.triples()
    edges = list(zip(rows.tolist(), cols.tolist(), weights.tolist()))
    for _ in range(max(matrix.n - 1, 1)):
        changed = False
        for u, v, w in edges:
            if u in dist and dist[u] + w < dist.get(v, math.inf):
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def test_oracle_single_vertex():
    a = matrix_build(1, [])
    assert dijkstra_oracle(a, 0).to_dict() == {0: 0.0}


def test_oracle_triangle_prefers_two_hop():
    a = matrix_build(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])
    assert dijkstra_oracle(a, 0).to_dict() == {0: 0.0, 1: 1.0, 2: 2.0}


def test_oracle_omits_unreachable():
    a = matrix_build(4, [(0, 1, 2.0), (2, 3, 1.0)])
    assert dijkstra_oracle(a, 0).to_dict() == {0: 0.0, 1: 2.0}


def test_oracle_rejects_bad_source():
    a = matrix_build(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        dijkstra_oracle(a, 2)
    with pytest.raises(ValueError):
        dijkstra_oracle(a, -1)


def test_oracle_agrees_with_bellman_ford():
    rng = np.random.default_rng(109)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        a = random_graph(n, int(rng.integers(0, 4 * n)), rng, weights="float")
        source = int(rng.integers(0, n))
        got = dijkstra_oracle(a, source).to_dict()
        assert got == bellman_ford(a, source)
