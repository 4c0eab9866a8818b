"""The push vxm_min_plus and the linear-merge ewise_add_vector must bit-equal
the pull and union1d bodies they replaced (tests/kernel_reference.py)."""

from __future__ import annotations

import numpy as np
import pytest

import deltasparse.fused as fused_mod
from deltasparse import (
    LESS,
    MIN,
    OR,
    TIMES,
    SparseMatrix,
    SparseVector,
    ewise_add_vector,
    matrix_build,
    matrix_transpose_view,
    vector_build,
    vxm_min_plus,
)

from conftest import random_mask
from kernel_reference import pull_vxm_min_plus, union1d_ewise_add_vector

OPS = (MIN, LESS, OR, TIMES)
SHAPES = ("random", "disjoint", "identical", "empty_u", "empty_v", "both_empty")


def random_values(rng, k):
    # small integers tie often and include 0.0, which boolean ops drop
    if rng.random() < 0.5:
        return rng.integers(0, 4, k).astype(float)
    return 10.0 * rng.random(k)


def vector_on(rng, n, idx):
    return vector_build(n, np.column_stack([idx, random_values(rng, len(idx))]))


def operands(rng, n, shape):
    """Two vectors of length n whose index sets relate as `shape` says."""
    perm = rng.permutation(n)
    k = int(rng.integers(0, n + 1))
    if shape == "random":
        other = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        return vector_on(rng, n, perm[:k]), vector_on(rng, n, other)
    if shape == "disjoint":
        cut = int(rng.integers(0, k + 1))
        return vector_on(rng, n, perm[:cut]), vector_on(rng, n, perm[cut:k])
    if shape == "identical":
        return vector_on(rng, n, perm[:k]), vector_on(rng, n, perm[:k])
    if shape == "empty_u":
        return SparseVector(n), vector_on(rng, n, perm[:k])
    if shape == "empty_v":
        return vector_on(rng, n, perm[:k]), SparseVector(n)
    return SparseVector(n), SparseVector(n)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("shape", SHAPES)
def test_ewise_add_equals_union1d_reference(op, shape):
    rng = np.random.default_rng([89, OPS.index(op), SHAPES.index(shape)])
    for case in range(30):
        n = int(rng.integers(1, 40))
        u, v = operands(rng, n, shape)
        mask = (None, random_mask(rng, n), u, v)[case % 4]
        got = ewise_add_vector(u, v, op, mask=mask)
        assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
        got.check_invariants()


def random_matrix(rng, n, m):
    # integer weights make candidates for one target tie
    w = rng.integers(1, 4, m).astype(float) if rng.random() < 0.5 else 1.0 - rng.random(m)
    return matrix_build(n, np.column_stack([rng.integers(0, n, m), rng.integers(0, n, m), w]))


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
@pytest.mark.parametrize("cached", [True, False], ids=["view", "hand_built"])
def test_vxm_min_plus_equals_pull_reference(monkeypatch, entries, cached):
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng([97, entries, cached])
    for case in range(50):
        n = int(rng.integers(1, 50))
        a = random_matrix(rng, n, int(rng.integers(0, 4 * n + 1)))
        view = matrix_transpose_view(a)
        if not cached:
            # the same transposed entries with no back-reference to a
            view = SparseMatrix(n, view.indptr, view.col, view.val)
        v = vector_on(rng, n, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        mask = random_mask(rng, n) if case % 2 else None
        want = pull_vxm_min_plus(v, view, mask=mask)
        assert vxm_min_plus(v, view, mask=mask) == want
        assert vxm_min_plus(v, view, mask=mask) == want  # again, through the cache
