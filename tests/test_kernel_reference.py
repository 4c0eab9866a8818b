"""The push vxm_min_plus, the linear-merge ewise_add_vector and the
smaller-side ewise_mult_vector must bit-equal the pull, union1d and
probe-all bodies they replaced (tests/kernel_reference.py)."""

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
    ewise_mult_vector,
    mask_from_indices,
    matrix_build,
    split_edges,
    vector_build,
    vxm_min_plus,
)

from deltasparse.core import INDEX_DTYPE, VALUE_DTYPE

from conftest import random_mask
from kernel_reference import (
    probe_all_ewise_mult_vector,
    pull_vxm_min_plus,
    union1d_ewise_add_vector,
)

OPS = (MIN, LESS, OR, TIMES)
# long_u / long_v: one operand holds every index, the other 1 to 5 of them,
# as when a bucket selects from the whole tentative vector
SHAPES = (
    "random", "disjoint", "identical", "empty_u", "empty_v", "both_empty", "long_u", "long_v"
)


def random_values(rng, k):
    # small integers tie often and include 0.0, which boolean ops drop
    if rng.random() < 0.5:
        return rng.integers(0, 4, k).astype(float)
    return 10.0 * rng.random(k)


def vector_on(rng, n, idx):
    return vector_build(n, np.column_stack([idx, random_values(rng, len(idx))]))


def few(rng, n):
    return np.sort(rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False))


def length_for(rng, shape):
    return int(rng.integers(1, 300 if shape.startswith("long") else 40))


def operands(rng, n, shape):
    """Two vectors of length n whose index sets relate as `shape` says."""
    perm = rng.permutation(n)
    k = int(rng.integers(0, n + 1))
    if shape == "long_u":
        return vector_on(rng, n, perm), vector_on(rng, n, few(rng, n))
    if shape == "long_v":
        return vector_on(rng, n, few(rng, n)), vector_on(rng, n, perm)
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
    for case in range(48):
        n = length_for(rng, shape)
        u, v = operands(rng, n, shape)
        tiny = mask_from_indices(n, few(rng, n))
        held = np.union1d(u.indices, v.indices)
        outside = mask_from_indices(n, np.setdiff1d(np.arange(n), held))
        mask = (None, random_mask(rng, n), u, v, tiny, outside)[case % 6]
        got = ewise_add_vector(u, v, op, mask=mask)
        assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
        got.check_invariants()


def subset_operands(rng, n, shape):
    """u on a random part of 0..n-1 and v on a strict subset of u's indices
    ("strict_subset"), or v a copy of u as a separate vector ("copy")."""
    held = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    u = vector_on(rng, n, held)
    if shape == "copy":
        return u, SparseVector(n, u.indices.copy(), u.values.copy())
    picked = rng.choice(held.size, size=int(rng.integers(0, held.size)), replace=False)
    return u, vector_on(rng, n, held[np.sort(picked)])


def bits(vec):
    return vec.indices.copy(), vec.values.view(np.uint64).copy()


def assert_sound(vec):
    """Frozen, contiguous arrays of the declared dtypes, and valid entries."""
    for arr, dtype in ((vec.indices, INDEX_DTYPE), (vec.values, VALUE_DTYPE)):
        assert arr.dtype == dtype and arr.flags.c_contiguous and not arr.flags.writeable
    vec.check_invariants()


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("shape", ("strict_subset", "copy"))
def test_ewise_add_subset_and_self_mask_equal_union1d_reference(op, shape):
    # v within u takes the subset merge, and mask=u or mask=v leaves that
    # operand as it is; neither may change a result or write an input
    rng = np.random.default_rng([103, OPS.index(op), shape == "copy"])
    dropped = 0
    for case in range(60):
        n = int(rng.integers(1, 40))
        u, v = subset_operands(rng, n, shape)
        mask = (None, u, v)[case % 3]
        before = bits(u), bits(v)
        got = ewise_add_vector(u, v, op, mask=mask)
        assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
        for vec, (idx, val) in zip((u, v), before):
            assert np.array_equal(vec.indices, idx)
            assert np.array_equal(vec.values.view(np.uint64), val)
        assert_sound(got)
        dropped += got.nnz < (u if mask is None else mask).nnz
    # small integer values make boolean ops yield 0.0, which must be dropped
    assert bool(dropped) == op.boolean


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("shape", SHAPES)
def test_ewise_mult_equals_probe_all_reference(op, shape):
    rng = np.random.default_rng([101, OPS.index(op), SHAPES.index(shape)])
    for _ in range(30):
        n = length_for(rng, shape)
        u, v = operands(rng, n, shape)
        got = ewise_mult_vector(u, v, op)
        assert got == probe_all_ewise_mult_vector(u, v, op)
        got.check_invariants()


def random_matrix(rng, n, m):
    # integer weights make candidates for one target tie
    w = rng.integers(1, 4, m).astype(float) if rng.random() < 0.5 else 1.0 - rng.random(m)
    return matrix_build(n, np.column_stack([rng.integers(0, n, m), rng.integers(0, n, m), w]))


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
@pytest.mark.parametrize("split", [True, False], ids=["view", "hand_built"])
def test_vxm_min_plus_equals_pull_reference(monkeypatch, entries, split):
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng([97, entries, split])
    for case in range(50):
        n = int(rng.integers(1, 50))
        a = random_matrix(rng, n, int(rng.integers(0, 4 * n + 1)))
        if split:
            # the light part the solver pushes along: a filtered copy of a's rows
            a = split_edges(a, float(rng.uniform(0.1, 4.0)))[0]
        else:
            # the same entries put together by hand from the row-compressed arrays
            a = SparseMatrix(n, a.indptr, a.col, a.val)
        v = vector_on(rng, n, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        mask = random_mask(rng, n) if case % 2 else None
        assert vxm_min_plus(v, a, mask=mask) == pull_vxm_min_plus(v, a, mask=mask)
