"""Fused gather-relax and bucket-update kernels must match the composed
kernel chain bit for bit, however a call is cut into ranges."""

from __future__ import annotations

import numpy as np
import pytest

import deltasparse.fused as fused_mod
from deltasparse import (
    BackendChoice,
    LESS,
    MIN,
    SparseVector,
    TIMES,
    bucket_bounds,
    ewise_add_vector,
    ewise_mult_vector,
    filter_vector,
    fused_bucket_update,
    fused_masked_relax,
    in_half_open,
    mask_from_indices,
    matrix_build,
    matrix_transpose_view,
    vector_build,
)

from conftest import random_mask, random_sparse_vector
from kernel_reference import pull_vxm_min_plus


def random_matrix(rng, n, m):
    tri = np.column_stack(
        [rng.integers(0, n, m), rng.integers(0, n, m), 10.0 * (1.0 - rng.random(m))]
    )
    return matrix_build(n, tri)


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


def test_partition_ranges_cover_contiguously():
    rng = np.random.default_rng(47)
    for _ in range(50):
        length = int(rng.integers(0, 500))
        chunks = int(rng.integers(1, 25))
        ranges = fused_mod._partition_ranges(length, chunks)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == length
        for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo
        sizes = [hi - lo for lo, hi in ranges]
        if length > 0:
            assert max(sizes) - min(sizes) <= 1


def test_partition_ranges_degenerate_cases():
    assert fused_mod._partition_ranges(0, 8) == [(0, 0)]
    assert fused_mod._partition_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]
    assert fused_mod._partition_ranges(5, 0) == [(0, 5)]


# ---------------------------------------------------------------- fused relax


def composed_relax(t, selector, transposed):
    # the pull product, so the push relax is checked against another method
    frontier = ewise_mult_vector(t, selector, TIMES)
    return pull_vxm_min_plus(frontier, transposed)


def test_fused_relax_hand_case():
    a = matrix_build(4, [(0, 1, 2.0), (0, 3, 7.0), (2, 3, 1.0)])
    t = vector_build(4, [(0, 0.0), (2, 5.0)])
    selector = mask_from_indices(4, [0])
    got = fused_masked_relax(t, selector, matrix_transpose_view(a))
    assert got.to_dict() == {1: 2.0, 3: 7.0}


def test_fused_relax_empty_selector_is_empty():
    a = matrix_build(3, [(0, 1, 2.0)])
    t = vector_build(3, [(0, 0.0)])
    got = fused_masked_relax(t, SparseVector(3), matrix_transpose_view(a))
    assert got.nnz == 0


def test_fused_relax_matches_composed_chain():
    rng = np.random.default_rng(53)
    for _ in range(120):
        n = int(rng.integers(1, 50))
        a = random_matrix(rng, n, int(rng.integers(0, 4 * n + 1)))
        t = random_sparse_vector(rng, n)
        selector = random_mask(rng, n)
        view = matrix_transpose_view(a)
        got = fused_masked_relax(t, selector, view)
        assert got == composed_relax(t, selector, view)


def test_fused_relax_workers_agree(monkeypatch):
    # from one range per row down to a few ranges; each cut must equal one range
    rng = np.random.default_rng(59)
    a = random_matrix(rng, 80, 400)
    t = random_sparse_vector(rng, 80)
    selector = random_mask(rng, 80)
    view = matrix_transpose_view(a)
    base = fused_masked_relax(t, selector, view)
    for entries in (1, 3, 17, 100):
        monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
        assert fused_masked_relax(t, selector, view) == base


def test_fused_relax_rejects_mismatched_operands():
    a = matrix_build(3, [(0, 1, 2.0)])
    view = matrix_transpose_view(a)
    with pytest.raises(ValueError):
        fused_masked_relax(SparseVector(4), SparseVector(3), view)
    with pytest.raises(ValueError):
        fused_masked_relax(SparseVector(4), SparseVector(4), view)


# ---------------------------------------------------------------- fused update


def composed_bucket_update(t, requests, bucket_index, delta):
    lo, hi = bucket_bounds(bucket_index, delta)
    in_window = filter_vector(requests, in_half_open(lo, hi))
    improving = ewise_add_vector(requests, t, LESS, mask=requests)
    bucket = ewise_mult_vector(in_window, improving, TIMES)
    tentative = ewise_add_vector(t, requests, MIN)
    return tentative, bucket


def test_bucket_update_empty_requests_is_identity():
    t = vector_build(4, [(0, 0.0), (2, 3.0)])
    settled = mask_from_indices(4, [0])
    new_t, bucket, new_settled = fused_bucket_update(
        t, SparseVector(4), settled, 1, 1.0
    )
    assert new_t == t
    assert bucket.nnz == 0
    assert new_settled == settled


def test_bucket_update_reintroduction():
    # a better in-window value for an already-known vertex re-enters the bucket
    t = vector_build(3, [(0, 0.0), (2, 0.9)])
    requests = vector_build(3, [(2, 0.8)])
    settled = mask_from_indices(3, [0, 1])
    new_t, bucket, _ = fused_bucket_update(t, requests, settled, 0, 1.0)
    assert new_t.to_dict() == {0: 0.0, 2: 0.8}
    assert list(bucket.indices) == [2]


def test_bucket_update_matches_composed_chain():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 64))
        t = random_sparse_vector(rng, n)
        requests = random_sparse_vector(rng, n)
        settled = random_mask(rng, n)
        delta = float(rng.choice([0.5, 1.0, 3.0, 11.0]))
        index = int(rng.integers(0, 6))
        new_t, bucket, new_settled = fused_bucket_update(
            t, requests, settled, index, delta
        )
        want_t, want_bucket = composed_bucket_update(t, requests, index, delta)
        assert new_t == want_t
        assert bucket == want_bucket
        assert new_settled == settled


def test_bucket_update_workers_agree(monkeypatch):
    rng = np.random.default_rng(67)
    t = random_sparse_vector(rng, 200, max_entries=150)
    requests = random_sparse_vector(rng, 200, max_entries=150)
    settled = random_mask(rng, 200)
    base = fused_bucket_update(t, requests, settled, 1, 3.0)
    for entries in (1, 3, 17, 100):
        monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
        got = fused_bucket_update(t, requests, settled, 1, 3.0)
        assert got[0] == base[0] and got[1] == base[1] and got[2] is settled


def test_bucket_update_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        fused_bucket_update(SparseVector(3), SparseVector(4), SparseVector(3), 0, 1.0)


def test_pooled_path_is_bit_identical(monkeypatch):
    # one range per touched entry at toy sizes, compared with the one-range call
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 60))
        a = random_matrix(rng, n, int(rng.integers(1, 4 * n)))
        t = random_sparse_vector(rng, n)
        selector = random_mask(rng, n)
        view = matrix_transpose_view(a)
        cases.append((t, selector, view, fused_masked_relax(t, selector, view)))

    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", 1)
    for t, selector, view, want in cases:
        assert fused_masked_relax(t, selector, view) == want
