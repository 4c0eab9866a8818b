"""The fused push relax (fused._push) must lower a dense state exactly as the
pull (min,+) product over the transpose says, return exactly the targets it
lowered, and give the same result however a push is cut into slices."""

from __future__ import annotations

import math

import numpy as np
import pytest

import deltasparse.fused as fused_mod
from deltasparse import (
    BackendChoice,
    SparseVector,
    bucket_bounds,
    matrix_build,
    matrix_transpose_view,
)

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
    dense = dense.copy()
    lowered = fused_mod._push(values.copy(), frontier, matrix, dense)
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
        requests = pull_vxm_min_plus(
            SparseVector(n, frontier, values), matrix_transpose_view(matrix)
        )
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
