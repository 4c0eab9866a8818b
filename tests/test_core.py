"""Container construction and invariants, the test reference transpose,
and the package surface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from deltasparse import (
    SparseMatrix,
    SparseVector,
    mask_from_indices,
    matrix_build,
    vector_build,
)

from conftest import random_sparse_vector
from kernel_reference import transpose


def entries(mat: SparseMatrix) -> set[tuple[int, int, float]]:
    return mat.entry_set()


# ---------------------------------------------------------------- vectors


def test_vector_build_single_entry():
    v = vector_build(4, [(2, 5.0)])
    assert v.length == 4
    assert v.to_dict() == {2: 5.0}


def test_vector_build_min_combines_duplicates():
    v = vector_build(4, [(1, 3.0), (1, 2.0)])
    assert v.to_dict() == {1: 2.0}


def test_vector_build_empty():
    v = vector_build(4, [])
    assert v.length == 4 and v.nnz == 0


def test_vector_build_sorts_and_collapses():
    v = vector_build(10, [(7, 1.0), (2, 9.0), (7, 4.0), (0, 3.0)])
    assert list(v.indices) == [0, 2, 7]
    assert v.to_dict() == {0: 3.0, 2: 9.0, 7: 1.0}


def test_vector_build_drops_implicit_identity():
    v = vector_build(5, [(0, math.inf), (3, 2.0)])
    assert v.to_dict() == {3: 2.0}


def test_vector_build_keeps_zero_for_distance_role():
    # 0.0 is a legal distance; only the declared identity is dropped
    v = vector_build(5, [(1, 0.0)])
    assert v.to_dict() == {1: 0.0}


def test_vector_build_rejects_bad_input():
    with pytest.raises(ValueError):
        vector_build(4, [(4, 1.0)])
    with pytest.raises(ValueError):
        vector_build(4, [(-1, 1.0)])
    with pytest.raises(ValueError):
        vector_build(4, [(1.5, 1.0)])
    with pytest.raises(ValueError):
        vector_build(4, [(1, -math.inf)])
    with pytest.raises(ValueError):
        vector_build(4, [(1, math.nan)])


def test_vector_accessors():
    v = vector_build(6, [(1, 2.0), (4, 0.5)])
    assert v.get(1) == 2.0
    assert v.get(2) == math.inf
    assert v.get(2, default=-1.0) == -1.0
    assert 4 in v and 3 not in v
    assert list(v.items()) == [(1, 2.0), (4, 0.5)]
    assert v.nnz == 2


def test_vector_equality_is_exact():
    a = vector_build(4, [(0, 1.0), (2, 3.0)])
    b = vector_build(4, [(0, 1.0), (2, 3.0)])
    assert a == b
    assert a != vector_build(4, [(0, 1.0)])
    assert a != vector_build(5, [(0, 1.0), (2, 3.0)])
    assert a != vector_build(4, [(0, 1.0), (2, 3.0 + 1e-12)])


def test_vector_requires_positive_length():
    with pytest.raises(ValueError):
        SparseVector(0)


def test_vector_invariant_checks_catch_violations():
    good = vector_build(8, [(1, 1.0), (5, 2.0)])
    good.check_invariants()
    unsorted = SparseVector(8, np.array([5, 1]), np.array([1.0, 2.0]))
    with pytest.raises(AssertionError):
        unsorted.check_invariants()
    stored_identity = SparseVector(8, np.array([1]), np.array([math.inf]))
    with pytest.raises(AssertionError):
        stored_identity.check_invariants()


def test_mask_from_indices_is_structural():
    m = mask_from_indices(9, [2, 4, 7])
    assert list(m.indices) == [2, 4, 7]
    assert np.all(m.values == 1.0)
    m.check_invariants(identity=0.0)


def test_random_vectors_never_store_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = random_sparse_vector(rng, int(rng.integers(1, 40)))
        v.check_invariants()


# ---------------------------------------------------------------- matrices


def test_matrix_build_two_entries():
    a = matrix_build(3, [(0, 1, 2.0), (1, 2, 4.0)])
    assert a.nnz == 2
    assert entries(a) == {(0, 1, 2.0), (1, 2, 4.0)}


def test_matrix_build_drops_self_loops_silently():
    a = matrix_build(3, [(0, 0, 1.0)])
    assert a.nnz == 0


def test_matrix_build_min_combines_duplicates():
    a = matrix_build(3, [(0, 1, 5.0), (0, 1, 3.0)])
    assert entries(a) == {(0, 1, 3.0)}


def test_matrix_build_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_build(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        matrix_build(3, [(-1, 0, 1.0)])
    for w in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            matrix_build(3, [(0, 1, w)])
    with pytest.raises(ValueError):
        matrix_build(3, [(0.5, 1, 1.0)])


def test_matrix_build_rejects_dimension_beyond_int64_keys():
    with pytest.raises(ValueError, match="too large"):
        matrix_build(3_037_000_500, np.empty((0, 3)))


def test_matrix_row_access():
    a = matrix_build(4, [(1, 0, 2.0), (1, 3, 5.0), (2, 1, 1.0)])
    cols, vals = a.row(1)
    assert list(cols) == [0, 3] and list(vals) == [2.0, 5.0]
    cols, vals = a.row(0)
    assert cols.size == 0
    r, c, v = a.triples()
    assert list(r) == [1, 1, 2] and list(c) == [0, 3, 1]
    assert list(v) == [2.0, 5.0, 1.0]


def test_matrix_invariants_on_random_builds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 120))
        tri = np.column_stack(
            [rng.integers(0, n, m), rng.integers(0, n, m), 1.0 + 9.0 * rng.random(m)]
        )
        a = matrix_build(n, tri)
        a.check_invariants()


def test_matrix_equality():
    a = matrix_build(3, [(0, 1, 2.0), (1, 2, 4.0)])
    b = matrix_build(3, [(1, 2, 4.0), (0, 1, 2.0)])
    assert a == b
    assert a != matrix_build(3, [(0, 1, 2.0)])


# ---------------------------------------------------------------- transpose


def test_transpose_of_empty_matrix_is_empty():
    a = matrix_build(3, [])
    assert transpose(a).nnz == 0


def test_transpose_matches_naive_coordinate_swap():
    # independent oracle: swap coordinates triple by triple, then sort
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(0, 80))
        tri = np.column_stack(
            [rng.integers(0, n, m), rng.integers(0, n, m), 1.0 + rng.random(m)]
        )
        a = matrix_build(n, tri)
        r, c, v = a.triples()
        swapped = sorted(zip(c.tolist(), r.tolist(), v.tolist()))
        view = transpose(a)
        vr, vc, vv = view.triples()
        got = sorted(zip(vr.tolist(), vc.tolist(), vv.tolist()))
        assert got == swapped
        view.check_invariants()


# ---------------------------------------------------------------- package surface


def test_exports_resolve_and_retired_names_are_gone():
    import deltasparse.cli

    missing = [name for name in deltasparse.__all__ if not hasattr(deltasparse, name)]
    assert not missing
    assert len(set(deltasparse.__all__)) == len(deltasparse.__all__)
    retired = (
        "parallel_execute",
        "partition_ranges",
        "Semiring",
        "MIN_PLUS",
        "PLUS_TIMES",
        "BOOL_OR_AND",
        "PLUS",
        "always_true",
        "fused_masked_relax",
        "fused_bucket_update",
        "matrix_transpose_view",
        "apply_vector",
        "EDGE_DTYPE",
        "UnaryPredicate",
    )
    for name in retired:
        assert not hasattr(deltasparse, name), name
        assert name not in deltasparse.__all__, name
    assert not hasattr(deltasparse.cli, "RunConfig")
    with pytest.raises(TypeError, match="skip_empty_buckets"):
        deltasparse.delta_stepping(matrix_build(1, []), 0, 1.0, skip_empty_buckets=True)


def test_package_all_is_the_module_lists():
    import deltasparse
    from deltasparse import core, fused, generate, io, ops, sssp

    lists = [module.__all__ for module in (core, fused, generate, io, ops, sssp)]
    assert set(deltasparse.__all__) == set().union(*lists) | {"__version__"}
    assert {"DeltaTooSmall", "DistanceOverflow"} <= set(deltasparse.__all__)
