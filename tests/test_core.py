"""Container construction and invariants, the test reference transpose,
and the package surface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from deltasparse import (
    SparseMatrix,
    SparseVector,
    matrix_build,
    vector_build,
)

from conftest import check_matrix, check_vector, entry_set, random_sparse_vector
from kernel_reference import transpose


# ---------------------------------------------------------------- vectors


def test_vector_build_single_entry():
    v = vector_build(4, [(2, 5.0)])
    assert v.length == 4
    assert dict(v.items()) == {2: 5.0}


def test_vector_build_min_combines_duplicates():
    v = vector_build(4, [(1, 3.0), (1, 2.0)])
    assert dict(v.items()) == {1: 2.0}


def test_vector_build_empty():
    v = vector_build(4, [])
    assert v.length == 4 and v.nnz == 0


def test_vector_build_sorts_and_collapses():
    v = vector_build(10, [(7, 1.0), (2, 9.0), (7, 4.0), (0, 3.0)])
    assert list(v.indices) == [0, 2, 7]
    assert dict(v.items()) == {0: 3.0, 2: 9.0, 7: 1.0}


def test_vector_build_drops_implicit_identity():
    v = vector_build(5, [(0, math.inf), (3, 2.0)])
    assert dict(v.items()) == {3: 2.0}


def test_vector_build_keeps_zero_for_distance_role():
    # 0.0 is a legal distance; only the declared identity is dropped
    v = vector_build(5, [(1, 0.0)])
    assert dict(v.items()) == {1: 0.0}


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
    assert list(v.items()) == [(1, 2.0), (4, 0.5)]
    assert v.nnz == 2


def test_vector_equality_is_exact():
    a = vector_build(4, [(0, 1.0), (2, 3.0)])
    b = vector_build(4, [(0, 1.0), (2, 3.0)])
    assert a == b
    assert a != vector_build(4, [(0, 1.0)])
    assert a != vector_build(5, [(0, 1.0), (2, 3.0)])
    assert a != vector_build(4, [(0, 1.0), (2, 3.0 + 1e-12)])

    # equal bits, not equal values: -0.0 differs from 0.0, a NaN equals itself
    def one_entry(value):
        return SparseVector(4, np.array([1]), np.array([value]))

    assert one_entry(-0.0) != one_entry(0.0)
    assert one_entry(math.nan) == one_entry(math.nan)


def test_vector_requires_positive_length():
    with pytest.raises(ValueError):
        SparseVector(0)


def test_vector_invariant_checks_catch_violations():
    good = vector_build(8, [(1, 1.0), (5, 2.0)])
    check_vector(good)
    unsorted = SparseVector(8, np.array([5, 1]), np.array([1.0, 2.0]))
    with pytest.raises(AssertionError):
        check_vector(unsorted)
    stored_identity = SparseVector(8, np.array([1]), np.array([math.inf]))
    with pytest.raises(AssertionError):
        check_vector(stored_identity)


def test_random_vectors_never_store_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = random_sparse_vector(rng, int(rng.integers(1, 40)))
        check_vector(v)


# ---------------------------------------------------------------- matrices


def test_matrix_build_two_entries():
    a = matrix_build(3, [(0, 1, 2.0), (1, 2, 4.0)])
    assert a.nnz == 2
    assert entry_set(a) == {(0, 1, 2.0), (1, 2, 4.0)}


def test_matrix_build_drops_self_loops_silently():
    a = matrix_build(3, [(0, 0, 1.0)])
    assert a.nnz == 0


def test_matrix_build_min_combines_duplicates():
    a = matrix_build(3, [(0, 1, 5.0), (0, 1, 3.0)])
    assert entry_set(a) == {(0, 1, 3.0)}


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
    assert list(a.row_ids()) == [1, 1, 2] and list(a.col) == [0, 3, 1]
    assert list(a.val) == [2.0, 5.0, 1.0]


def test_matrix_invariants_on_random_builds():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(0, 120))
        tri = np.column_stack(
            [rng.integers(0, n, m), rng.integers(0, n, m), 1.0 + 9.0 * rng.random(m)]
        )
        a = matrix_build(n, tri)
        check_matrix(a)


def test_matrix_equality():
    a = matrix_build(3, [(0, 1, 2.0), (1, 2, 4.0)])
    b = matrix_build(3, [(1, 2, 4.0), (0, 1, 2.0)])
    assert a == b
    assert a != matrix_build(3, [(0, 1, 2.0)])

    # the trusting constructor keeps -0.0 and NaN weights: bits are compared
    def one_edge(weight):
        return SparseMatrix(3, np.array([0, 1, 1, 1]), np.array([1]), np.array([weight]))

    assert one_edge(-0.0) != one_edge(0.0)
    assert one_edge(math.nan) == one_edge(math.nan)


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
        swapped = sorted(zip(a.col.tolist(), a.row_ids().tolist(), a.val.tolist()))
        view = transpose(a)
        got = sorted(zip(view.row_ids().tolist(), view.col.tolist(), view.val.tolist()))
        assert got == swapped
        check_matrix(view)


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
        "mask_from_indices",
        "random_connected_unit_graph",
        "REL_TOLERANCE",
        "RunConfig",
    )
    for name in retired:
        assert not hasattr(deltasparse, name), name
        assert not hasattr(deltasparse.cli, name), name
        assert name not in deltasparse.__all__, name
    for container in (SparseVector, SparseMatrix):
        assert not hasattr(container, "check_invariants"), container
    assert not hasattr(SparseMatrix, "triples")
    with pytest.raises(TypeError, match="skip_empty_buckets"):
        deltasparse.delta_stepping(matrix_build(1, []), 0, 1.0, skip_empty_buckets=True)


def test_package_all_is_the_module_lists():
    import deltasparse
    from deltasparse import core, fused, generate, io, ops, sssp

    lists = [module.__all__ for module in (core, fused, generate, io, ops, sssp)]
    assert set(deltasparse.__all__) == set().union(*lists) | {"__version__"}
    assert {"DeltaTooSmall", "DistanceOverflow"} <= set(deltasparse.__all__)
