"""The fused push relax (fused._push) must lower a dense state exactly as the
pull (min,+) product over the transpose says, return exactly the targets it
lowered, and give the same result however a push is cut into slices."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

import deltasparse.fused as fused_mod
from deltasparse import (
    BackendChoice,
    SparseVector,
    bucket_bounds,
    matrix_build,
)
from deltasparse.ops import vxm_min_plus

from kernel_reference import pull_vxm_min_plus


def random_matrix(rng, n, m):
    tri = np.column_stack(
        [rng.integers(0, n, m), rng.integers(0, n, m), 10.0 * (1.0 - rng.random(m))]
    )
    return matrix_build(n, tri)


def random_push(rng, n, m):
    """A matrix, a frontier with its values, and a dense state that is +inf
    in about half its entries; integer values so that requests tie often."""
    matrix = random_matrix(rng, n, m)
    frontier = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    values = rng.integers(0, 20, frontier.size).astype(float)
    dense = rng.integers(0, 30, n).astype(float)
    dense[rng.random(n) < 0.5] = math.inf
    return matrix, frontier, values, dense


def push(matrix, frontier, values, dense):
    # the push returns its targets in edge order with repeats; its readers
    # order them by _distinct, and the byte comparisons here compare that
    dense = dense.copy()
    lowered = fused_mod._distinct(fused_mod._push(values.copy(), frontier, matrix, dense, math.inf))
    return lowered, dense


# ---------------------------------------------------------------- plumbing


def test_bucket_bounds_values():
    assert bucket_bounds(0, 1.0) == (0.0, 1.0)
    assert bucket_bounds(3, 0.5) == (1.5, 2.0)
    assert bucket_bounds(2, 11.0) == (22.0, 33.0)


def test_backend_choice_validation():
    assert BackendChoice().kind == "unfused"
    assert BackendChoice("fused").kind == "fused"
    with pytest.raises(ValueError):
        BackendChoice(kind="turbo")


# ---------------------------------------------------------------- push relax


def test_fused_relax_hand_case():
    # 1 is lowered from 5.0 to 2.0; 3's best request 6.0 ties its value,
    # which is not an improvement
    a = matrix_build(4, [(0, 1, 2.0), (0, 3, 7.0), (2, 3, 1.0)])
    lowered, dense = push(a, np.array([0, 2]), np.array([0.0, 5.0]), np.array([0, 5, 5, 6.0]))
    assert lowered.tolist() == [1]
    assert dense.tolist() == [0.0, 2.0, 5.0, 6.0]


def test_fused_relax_empty_selector_is_empty():
    # an empty frontier, and a frontier without out-edges, lower nothing
    a = matrix_build(3, [(0, 1, 2.0)])
    for frontier in ([], [1, 2]):
        dense = np.array([0.0, math.inf, 4.0])
        lowered, got = push(a, np.array(frontier, dtype=np.int64), np.zeros(len(frontier)), dense)
        assert lowered.size == 0
        assert got.tobytes() == dense.tobytes()


def test_fused_relax_matches_composed_chain():
    rng = np.random.default_rng(53)
    for _ in range(120):
        n = int(rng.integers(1, 50))
        matrix, frontier, values, dense = random_push(rng, n, int(rng.integers(0, 4 * n + 1)))
        lowered, got = push(matrix, frontier, values, dense)
        requests = pull_vxm_min_plus(SparseVector(n, frontier, values), matrix)
        better = requests.values < dense[requests.indices]
        want = dense.copy()
        want[requests.indices[better]] = requests.values[better]
        assert lowered.tobytes() == requests.indices[better].tobytes()
        assert got.tobytes() == want.tobytes()


def test_fused_relax_workers_agree(monkeypatch):
    # from one slice per out-edge up to a few slices; each cut must equal one slice
    rng = np.random.default_rng(59)
    case = random_push(rng, 80, 400)
    lowered, dense = push(*case)
    for entries in (1, 3, 17, 100):
        monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
        got_lowered, got_dense = push(*case)
        assert got_lowered.tobytes() == lowered.tobytes()
        assert got_dense.tobytes() == dense.tobytes()


def test_pooled_path_is_bit_identical(monkeypatch):
    # one slice per out-edge at toy sizes, compared with the one-slice push
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 60))
        case = random_push(rng, n, int(rng.integers(1, 4 * n)))
        cases.append((case, push(*case)))

    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", 1)
    for case, (lowered, dense) in cases:
        got_lowered, got_dense = push(*case)
        assert got_lowered.tobytes() == lowered.tobytes()
        assert got_dense.tobytes() == dense.tobytes()


def fan_in_push(rng):
    """Thirty to fifty frontier vertices send hundreds of out-edges into 20
    targets, so each target receives dozens of requests, many of them tied
    (integer values and weights); random_push gives about four. The dense
    state is finite at about half the targets, and some of those hold
    exactly their best request."""
    n = 300
    targets = rng.choice(n, size=20, replace=False)
    frontier = np.sort(rng.choice(n, size=int(rng.integers(30, 51)), replace=False))
    rows = np.repeat(frontier, targets.size)
    cols = np.tile(targets, frontier.size)
    keep = rng.random(rows.size) < 0.9
    rows, cols = rows[keep], cols[keep]
    # a tail of out-edges past the targets, so the fan-in shares its slices
    tails = rng.choice(frontier, size=200)
    rows = np.concatenate([rows, tails])
    cols = np.concatenate([cols, rng.integers(0, n, tails.size)])
    weights = rng.integers(1, 6, rows.size).astype(float)
    matrix = matrix_build(n, np.column_stack([rows, cols, weights]))
    values = rng.integers(0, 8, frontier.size).astype(float)
    requests = pull_vxm_min_plus(SparseVector(n, frontier, values), matrix)
    dense = np.full(n, math.inf)
    best = dict(zip(requests.indices.tolist(), requests.values.tolist()))
    for j in targets.tolist():
        if rng.random() < 0.5:
            dense[j] = best[j] + float(rng.choice([-1.0, 0.0, 0.0, 1.0]))
    return matrix, frontier, values, dense, requests


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 7])
def test_fused_relax_heavy_fan_in(monkeypatch, entries):
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng(61)
    ties = 0
    for _ in range(12):
        matrix, frontier, values, dense, requests = fan_in_push(rng)
        lowered, got = push(matrix, frontier, values, dense)
        better = requests.values < dense[requests.indices]
        want = dense.copy()
        want[requests.indices[better]] = requests.values[better]
        assert lowered.tobytes() == requests.indices[better].tobytes()
        assert got.tobytes() == want.tobytes()
        ties += int(np.sum(requests.values == dense[requests.indices]))
    # entries equal to their best request occur, and are not lowered
    assert ties > 0


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
def test_push_leaves_values_and_frontier_unchanged(monkeypatch, entries):
    # the push works in place only on arrays it gathered itself: the
    # caller's writable values and frontier keep their bytes
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng(67)
    pushes = 0
    for _ in range(40):
        n = int(rng.integers(1, 50))
        matrix, frontier, values, dense = random_push(rng, n, int(rng.integers(0, 4 * n + 1)))
        before = values.tobytes(), frontier.tobytes()
        lowered = fused_mod._push(values, frontier, matrix, dense, math.inf)
        assert (values.tobytes(), frontier.tobytes()) == before
        pushes += lowered.size > 0
    assert pushes > 0


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
def test_vxm_push_reads_its_read_only_operand(monkeypatch, entries):
    # vxm_min_plus hands _push the vector's read-only values and indices
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng(73)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        matrix, frontier, values, _ = random_push(rng, n, int(rng.integers(0, 4 * n + 1)))
        v = SparseVector(n, frontier, values)
        assert not v.values.flags.writeable
        before = v.indices.tobytes(), v.values.tobytes()
        got = vxm_min_plus(v, matrix)
        assert (v.indices.tobytes(), v.values.tobytes()) == before
        assert got == pull_vxm_min_plus(v, matrix)


def integer_push(rng, n, m):
    """random_push with integer weights 1..5 as well, so that candidates
    fall exactly on an integer bound."""
    matrix, frontier, values, dense = random_push(rng, n, m)
    weights = rng.integers(1, 6, matrix.nnz).astype(float)
    matrix = matrix_build(n, np.column_stack([matrix.row_ids(), matrix.col, weights]))
    return matrix, frontier, values, dense


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
def test_bounded_push_returns_the_lowered_targets_below_the_bound(monkeypatch, entries):
    # _distinct(_push(..., hi)) is the bucket test it replaced,
    # _distinct(lowered[t[lowered] < hi]) over all the push's lowered
    # targets, in one slice and cut into many; a target lowered to exactly
    # hi is not below it
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng(79)
    at_bound = kept = 0
    for _ in range(80):
        n = int(rng.integers(1, 50))
        matrix, frontier, values, dense = integer_push(rng, n, int(rng.integers(0, 4 * n + 1)))
        hi = float(rng.integers(1, 30))
        want_t = dense.copy()
        lowered = fused_mod._push(values, frontier, matrix, want_t, math.inf)
        want = fused_mod._distinct(lowered[want_t[lowered] < hi])
        got_t = dense.copy()
        got = fused_mod._distinct(fused_mod._push(values, frontier, matrix, got_t, hi))
        assert got.tobytes() == want.tobytes()
        assert got_t.tobytes() == want_t.tobytes()
        requests = pull_vxm_min_plus(SparseVector(n, frontier, values), matrix)
        improving = requests.values < dense[requests.indices]
        at_bound += int(np.sum(improving & (requests.values == hi)))
        kept += got.size
    assert at_bound > 0 and kept > 0


def traced_peak(call):
    """call()'s result and the traced peak bytes it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        got = call()
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, degree, reach", [(2000, 80, 2000), (100_000, 2, 1000)])
def test_cut_push_holds_one_slice_at_a_time(monkeypatch, n, degree, reach):
    # a (min,+) product cut into 4,096-entry slices: 160,000 out-edges from
    # 2,000 vertices, then 200,000 from 100,000 vertices into 1,000 columns.
    # The push holds the out-degrees and their running sum (16 bytes a
    # frontier vertex) while it finds the cut points, then the out-degrees
    # and one slice's temporaries (about 24 bytes an out-edge) with nothing
    # of an earlier slice; the product adds its +inf workspace and finite
    # mask (9 bytes a vertex) and its output (16 bytes a target). Traced
    # peaks read 138 KB and 2.40 MB, against 218 KB and 4.14 MB when the
    # push kept four whole-frontier arrays through every slice and a slice
    # held four edge-long arrays
    entries = 4096
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng(83)
    rows = np.repeat(np.arange(n), degree)
    tri = np.column_stack([rows, rng.integers(0, reach, rows.size), 1.0 + rng.random(rows.size)])
    matrix = matrix_build(n, tri)
    v = SparseVector(n, np.arange(n), rng.random(n))
    assert matrix.nnz >= 30 * entries
    got, peak = traced_peak(lambda: vxm_min_plus(v, matrix))
    assert got == pull_vxm_min_plus(v, matrix)
    assert peak <= 32 * entries + 16 * v.nnz + 9 * n + 16 * reach, peak


@pytest.mark.parametrize("below", [None, math.inf])
def test_push_slice_holds_three_edge_long_arrays(monkeypatch, below):
    # one slice of 99,900 out-edges from 100 vertices into 1,000 columns:
    # the slice gathers the weights into its candidates before it gathers
    # the targets, so its edge ids, candidates and targets are all it holds
    # per out-edge (24 bytes; 32 with the targets gathered first). Bounded by
    # +inf into an all-+inf state, every candidate passes the test: the
    # slice holds its candidates, targets and the values read before the
    # scatter, plus the test's bools, and gathers the targets it returns
    # only once the candidates and values are gone (25 bytes; 33 gathering
    # them first, 40 filtering the candidates before the scatter)
    n, rows = 1000, 100
    rng = np.random.default_rng(91)
    heads = np.repeat(np.arange(rows), n)
    tri = np.column_stack([heads, np.tile(np.arange(n), rows), 1.0 + rng.random(heads.size)])
    matrix = matrix_build(n, tri)
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", matrix.nnz)
    v = SparseVector(n, np.arange(rows), rng.random(rows))
    want = pull_vxm_min_plus(v, matrix)
    if below is None:
        got, peak = traced_peak(lambda: vxm_min_plus(v, matrix))
        assert got == want
    else:
        dense = np.full(n, math.inf)
        lowered, peak = traced_peak(lambda: fused_mod._push(v.values, v.indices, matrix, dense, below))
        assert lowered.size == matrix.nnz
        assert fused_mod._distinct(lowered).tobytes() == want.indices.tobytes()
        assert dense.tobytes() == want.values.tobytes()
    assert peak <= 28 * matrix.nnz, peak / matrix.nnz


@pytest.mark.parametrize(
    "given, want",
    [([], []), ([4], [4]), ([2, 7], [2, 7]), ([7, 2], [2, 7]), ([5, 5], [5]), ([3, 1, 3], [1, 3])],
)
def test_distinct_sorts_and_drops_repeats(given, want):
    # an empty or one-target push comes back as given, not sorted or copied;
    # a pair is sorted, and a repeated pair is one target
    target = np.array(given, dtype=np.int64)
    got = fused_mod._distinct(target)
    assert got.tolist() == want
    assert (got is target) == (len(given) < 2)
    assert fused_mod._distinct(fused_mod._NO_TARGETS) is fused_mod._NO_TARGETS
