"""Kernel semantics: filters, union and intersection combines with the
documented single-sided pass-through, and the (min,+) vector-matrix product
against a dense brute-force oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from deltasparse import (
    LESS,
    MIN,
    OR,
    TIMES,
    BinaryOp,
    SparseVector,
    delta_stepping,
    ewise_add_vector,
    ewise_mult_vector,
    filter_vector,
    in_half_open,
    matrix_build,
    split_edges,
    vector_build,
    vxm_min_plus,
)
from deltasparse.sssp import _partition

from conftest import check_vector, grid_arcs, random_sparse_vector
from kernel_reference import split_rows


# ---------------------------------------------------------------- predicates


def test_predicate_factories():
    vals = np.array([0.0, 0.5, 1.0, 2.0, 3.5])
    assert list(in_half_open(0.5, 2.0)(vals)) == [False, True, True, False, False]


# ---------------------------------------------------------------- filters


def test_filter_vector_window():
    t = vector_build(4, [(0, 0.0), (3, 1.5)])
    assert list(filter_vector(t, in_half_open(1.0, 2.0)).indices) == [3]


def test_filter_vector_on_empty_input():
    assert filter_vector(SparseVector(4), in_half_open(1.0, math.inf)).nnz == 0


def test_filter_vector_first_window():
    # hand enumeration: values 0.0 and 0.5 sit in [0, 1), 1.0 does not
    t = vector_build(3, [(0, 0.0), (1, 1.0), (2, 0.5)])
    got = filter_vector(t, in_half_open(0.0, 1.0))
    assert list(got.indices) == [0, 2]
    assert np.all(got.values == 1.0)


def test_filter_vector_domain_and_structure():
    rng = np.random.default_rng(23)
    for _ in range(40):
        v = random_sparse_vector(rng, int(rng.integers(1, 50)))
        limit = 10.0 * rng.random()
        mask = filter_vector(v, lambda x: x > limit)
        stored = set(v.indices.tolist())
        assert set(mask.indices.tolist()) <= stored
        assert np.all(mask.values == 1.0)
        value = dict(v.items())
        for i in mask.indices.tolist():
            assert value[i] > limit
        for i in stored - set(mask.indices.tolist()):
            assert not value[i] > limit


def same_bytes(got, want):
    return got.n == want.n and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((got.indptr, want.indptr), (got.col, want.col), (got.val, want.val))
    )


def test_split_equals_the_per_row_reference():
    # rows 1 and 5 (the last) are empty; delta 2.0 and 1.0 tie stored weights,
    # 0.25 leaves every edge heavy and 10.0 every edge light
    a = matrix_build(
        6, [(0, 1, 2.0), (0, 2, 1.0), (0, 3, 3.0), (2, 0, 2.0), (3, 0, 0.5), (3, 4, 2.0)]
    )
    rng = np.random.default_rng(31)
    cases = [(a, delta) for delta in (2.0, 1.0, 0.5, 0.25, 3.0, 10.0)]
    cases.append((matrix_build(4, np.empty((0, 3))), 1.0))
    for _ in range(30):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 4 * n + 1))
        w = rng.integers(1, 4, m).astype(float)
        b = matrix_build(n, np.column_stack([rng.integers(0, n, m), rng.integers(0, n, m), w]))
        cases.append((b, float(rng.integers(0, 5)) or 0.5))
    for matrix, delta in cases:
        want_light, want_heavy = split_rows(matrix, delta)
        light, heavy = split_edges(matrix, delta)
        assert same_bytes(light, want_light) and same_bytes(heavy, want_heavy), delta
        light, heavy = _partition(matrix, delta)
        assert same_bytes(light, want_light)
        # the fused split shares the input where heavy edges are at least half
        if 2 * want_light.nnz <= matrix.nnz:
            assert heavy is matrix
        else:
            assert same_bytes(heavy, want_heavy)


# ---------------------------------------------------------------- union combine


def test_ewise_add_min_passes_single_entries_through():
    u = vector_build(2, [(0, 3.0)])
    v = vector_build(2, [(0, 1.0), (1, 4.0)])
    assert dict(ewise_add_vector(u, v, MIN).items()) == {0: 1.0, 1: 4.0}


def test_ewise_add_comparison_leaks_stale_entry_unmasked():
    # index 2 exists only in the right operand; it surfaces as if the
    # comparison had held there, which is exactly the documented hazard
    requests = vector_build(3, [(1, 2.0)])
    t = vector_build(3, [(1, 5.0), (2, 1.0)])
    got = ewise_add_vector(requests, t, LESS)
    assert dict(got.items()) == {1: 1.0, 2: 1.0}


def test_ewise_add_comparison_mask_suppresses_stale_entry():
    requests = vector_build(3, [(1, 2.0)])
    t = vector_build(3, [(1, 5.0), (2, 1.0)])
    got = ewise_add_vector(requests, t, LESS, mask=requests)
    assert dict(got.items()) == {1: 1.0}


def test_ewise_add_union_law_and_passthrough():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 60))
        u = random_sparse_vector(rng, n)
        v = random_sparse_vector(rng, n)
        udom = set(u.indices.tolist())
        vdom = set(v.indices.tolist())
        ud, vd = dict(u.items()), dict(v.items())
        for op in (MIN, TIMES):
            w = dict(ewise_add_vector(u, v, op).items())
            assert set(w) == udom | vdom
            for i in udom - vdom:
                assert w[i] == ud[i]
            for i in vdom - udom:
                assert w[i] == vd[i]
            for i in udom & vdom:
                assert w[i] == float(op(ud[i], vd[i]))


def test_ewise_add_boolean_normalizes_and_drops_false():
    u = vector_build(5, [(0, 2.0), (1, 7.0)])
    v = vector_build(5, [(0, 9.0), (1, 3.0), (4, 0.7)])
    got = ewise_add_vector(u, v, LESS)
    # 2<9 true, 7<3 false and dropped, 0.7 passes through as truthy 1.0
    assert dict(got.items()) == {0: 1.0, 4: 1.0}


def test_ewise_add_boolean_drops_zero_valued_passthrough():
    u = SparseVector(4)
    v = vector_build(4, [(1, 0.0), (2, 5.0)])
    got = ewise_add_vector(u, v, OR)
    assert dict(got.items()) == {2: 1.0}


def test_ewise_add_empty_and_errors():
    assert ewise_add_vector(SparseVector(3), SparseVector(3), MIN).nnz == 0
    with pytest.raises(ValueError, match="^ewise_add operand: length 4 does not match 3$"):
        ewise_add_vector(SparseVector(3), SparseVector(4), MIN)
    with pytest.raises(ValueError):
        ewise_add_vector(SparseVector(3), SparseVector(3), MIN, mask=SparseVector(4))
    # the one mask taken is the left operand: the right one, a copy of u and
    # any other index set raise
    u = vector_build(4, [(0, 2.0), (2, 1.0)])
    v = vector_build(4, [(2, 3.0), (3, 4.0)])
    copy = SparseVector(4, u.indices.copy(), u.values.copy())
    for mask in (v, copy, SparseVector(4, np.arange(4), np.ones(4)), SparseVector(4)):
        with pytest.raises(ValueError, match="mask=u"):
            ewise_add_vector(u, v, MIN, mask=mask)


def test_ewise_add_mask_restricts_domain():
    # mask=u, the left operand, gates the union by u's indices
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        u = random_sparse_vector(rng, n)
        v = random_sparse_vector(rng, n)
        got = ewise_add_vector(u, v, MIN, mask=u)
        want = ewise_add_vector(u, v, MIN)
        assert got.indices.tolist() == u.indices.tolist()
        wanted = dict(want.items())
        for i, value in got.items():
            assert value == wanted[i]


# ---------------------------------------------------------------- intersection


def test_ewise_mult_selects_with_mask_values():
    u = vector_build(2, [(0, 2.0), (1, 3.0)])
    v = vector_build(2, [(1, 1.0)])
    assert dict(ewise_mult_vector(u, v, TIMES).items()) == {1: 3.0}


def test_ewise_mult_disjoint_is_empty():
    u = vector_build(4, [(0, 2.0)])
    v = vector_build(4, [(1, 1.0)])
    assert ewise_mult_vector(u, v, TIMES).nnz == 0


def test_ewise_mult_source_selection():
    t = vector_build(3, [(0, 0.0)])
    b0 = SparseVector(3, np.array([0]), np.ones(1))
    assert dict(ewise_mult_vector(t, b0, TIMES).items()) == {0: 0.0}


def test_ewise_mult_intersection_law():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 60))
        u = random_sparse_vector(rng, n)
        v = random_sparse_vector(rng, n)
        w = dict(ewise_mult_vector(u, v, TIMES).items())
        ud, vd = dict(u.items()), dict(v.items())
        assert set(w) == set(ud) & set(vd)
        for i in w:
            assert w[i] == ud[i] * vd[i]


def test_ewise_mult_comparison_is_not_commutative():
    u = vector_build(3, [(0, 1.0), (1, 5.0)])
    v = vector_build(3, [(0, 2.0), (1, 2.0)])
    assert dict(ewise_mult_vector(u, v, LESS).items()) == {0: 1.0}
    assert dict(ewise_mult_vector(v, u, LESS).items()) == {1: 1.0}


def test_ewise_mult_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="^ewise_mult operand: length 4 does not match 3$"):
        ewise_mult_vector(SparseVector(3), SparseVector(4), TIMES)


# ---------------------------------------------------------------- adoption


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: np.minimum(a, b).astype(np.int64),
        lambda a, b: a < b,
        lambda a, b: np.minimum(a, b)[::-1][::-1],
        lambda a, b: np.minimum(a, b).repeat(2)[::2],
    ],
    ids=["int64", "bool", "view", "strided"],
)
def test_user_op_output_is_adopted_only_when_fresh_float64(fn):
    # a kernel takes an op's output as is only when it is a fresh float64
    # array; any other output comes back as frozen, contiguous float64
    op = BinaryOp(fn, "user")
    u = vector_build(6, [(0, 1.0), (2, 4.0), (3, 1.0), (5, 3.0)])
    v = vector_build(6, [(2, 3.0), (3, 2.0), (4, 1.0)])
    shared = dict(zip([2, 3], np.asarray(fn(np.array([4.0, 1.0]), np.array([3.0, 2.0])), float)))
    for got, want in (
        (ewise_mult_vector(u, v, op), shared),
        (ewise_add_vector(u, v, op), {0: 1.0, 4: 1.0, 5: 3.0, **shared}),
    ):
        assert dict(got.items()) == want
        for arr in (got.indices, got.values):
            assert arr.flags.c_contiguous and not arr.flags.writeable
        assert got.values.dtype == np.float64
        check_vector(got)


def test_unfused_solve_builds_no_kernel_vector_through_the_constructor(monkeypatch):
    # the kernels adopt the arrays they allocate: only the solve's start
    # vector and the one empty vector all its buckets share take the
    # converting constructor, and the count repeats exactly
    side = 12
    tails, heads = grid_arcs(side)
    weights = np.random.default_rng(7).integers(1, 101, tails.size).astype(float)
    a = matrix_build(side * side, np.column_stack([tails, heads, weights]))
    calls = []
    init = SparseVector.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseVector, "__init__", spy)
    counts = []
    for _ in range(2):
        calls.clear()
        result = delta_stepping(a, 0, 20.0)
        assert len(calls[0]) == 3  # the start vector
        assert calls[1:] == [(side * side,)]
        counts.append(len(calls))
    assert result.occupied_buckets > 10 and result.inner_phases > result.occupied_buckets
    assert counts[0] == counts[1] == 2


# ---------------------------------------------------------------- vxm


def test_vxm_relaxes_from_source():
    a = matrix_build(4, [(0, 1, 2.0), (0, 3, 7.0)])
    v = vector_build(4, [(0, 0.0)])
    got = vxm_min_plus(v, a)
    assert dict(got.items()) == {1: 2.0, 3: 7.0}


def test_vxm_empty_vector_annihilates():
    # an empty vector, and a vector over an edgeless matrix, push no edges
    a = matrix_build(4, [(0, 1, 2.0)])
    for v, m in ((SparseVector(4), a), (vector_build(4, [(0, 0.0), (2, 1.0)]), matrix_build(4, []))):
        assert vxm_min_plus(v, m) == SparseVector(4)


def test_vxm_reduces_competing_edges():
    # min(0 + 5, 1 + 3) = 4
    a = matrix_build(3, [(0, 2, 5.0), (1, 2, 3.0)])
    v = vector_build(3, [(0, 0.0), (1, 1.0)])
    got = vxm_min_plus(v, a)
    assert dict(got.items()) == {2: 4.0}


def dense_vxm(v, mat):
    """Brute-force oracle: dense triple loop with the identity padded in."""
    dense = np.full(mat.n, math.inf)
    dense[v.indices] = v.values
    out = np.full(mat.n, math.inf)
    for i, j, weight in zip(mat.row_ids().tolist(), mat.col.tolist(), mat.val.tolist()):
        cand = dense[i] + weight
        if cand < out[j]:
            out[j] = cand
    keep = np.flatnonzero(np.isfinite(out))
    return {int(j): float(out[j]) for j in keep}


def test_vxm_matches_dense_oracle():
    rng = np.random.default_rng(43)
    for _ in range(150):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(0, 4 * n + 1))
        tri = np.column_stack(
            [rng.integers(0, n, m), rng.integers(0, n, m), 10.0 * (1.0 - rng.random(m))]
        )
        a = matrix_build(n, tri)
        v = random_sparse_vector(rng, n)
        got = vxm_min_plus(v, a)
        assert dict(got.items()) == dense_vxm(v, a)


def test_vxm_rejects_mismatched_lengths():
    a = matrix_build(3, [(0, 1, 2.0)])
    with pytest.raises(ValueError, match="^vxm operand: length 4 does not match 3$"):
        vxm_min_plus(SparseVector(4), a)
