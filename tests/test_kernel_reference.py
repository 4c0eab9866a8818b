"""The push vxm_min_plus, the ewise_add_vector merges and the
smaller-side ewise_mult_vector must bit-equal the pull, union1d and
probe-all bodies they replaced (tests/kernel_reference.py), on both sides
of the size rule that picks between binary search and an n-long workspace,
and of the band of small index spaces whose MIN and OR unions always take
the workspace. MIN's workspace is +inf and OR's is false, their monoids'
identities; the unions of every other op merge."""

from __future__ import annotations

import numpy as np
import pytest

import deltasparse.fused as fused_mod
import deltasparse.ops as ops_mod
from deltasparse import (
    LESS,
    MIN,
    OR,
    TIMES,
    SparseMatrix,
    SparseVector,
    ewise_add_vector,
    ewise_mult_vector,
    matrix_build,
    split_edges,
    vector_build,
    vxm_min_plus,
)

from deltasparse.core import INDEX_DTYPE, VALUE_DTYPE

from conftest import check_vector
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
    # small integers tie often and include 0.0, which boolean ops drop; a
    # random sign on each value adds -0.0 and negative values
    if rng.random() < 0.5:
        values = rng.integers(0, 4, k).astype(float)
    else:
        values = 10.0 * rng.random(k)
    return np.where(rng.random(k) < 0.5, values, -values)


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
        mask = (None, u)[case % 2]
        got = ewise_add_vector(u, v, op, mask=mask)
        assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
        check_vector(got)


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
    check_vector(vec)


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("shape", ("strict_subset", "copy"))
def test_ewise_add_subset_and_self_mask_equal_union1d_reference(op, shape):
    # v within u takes the subset merge, and mask=u leaves u as it is;
    # neither may change a result or write an input
    rng = np.random.default_rng([103, OPS.index(op), shape == "copy"])
    dropped = 0
    for case in range(60):
        n = int(rng.integers(1, 40))
        u, v = subset_operands(rng, n, shape)
        mask = (None, u)[case % 2]
        before = bits(u), bits(v)
        got = ewise_add_vector(u, v, op, mask=mask)
        assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
        for vec, (idx, val) in zip((u, v), before):
            assert np.array_equal(vec.indices, idx)
            assert np.array_equal(vec.values.view(np.uint64), val)
        assert_sound(got)
        dropped += got.nnz < u.nnz
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
        check_vector(got)


def straddling_operands(rng, side, n=None):
    """u on at least half of 0..n-1 and v on k indices, k the largest size
    that stays with binary search ("below") or the smallest that takes the
    n-long workspace ("above") for a searched side of |u|. Since k <= |u|,
    the union's rule and the intersection's read the same sizes. v lies within
    u (adding no new index) or anywhere in 0..n-1. n is drawn from 8 to 400
    unless given."""
    n = int(rng.integers(8, 400)) if n is None else n
    held = int(rng.integers(n // 2, n + 1))
    first = n // held.bit_length() + 1
    assert ops_mod._dense_pays(first, held, n) and not ops_mod._dense_pays(first - 1, held, n)
    k = first if side == "above" else first - 1
    u_idx = np.sort(rng.choice(n, size=held, replace=False))
    pool = u_idx if rng.random() < 0.5 else np.arange(n)
    return n, vector_on(rng, n, u_idx), vector_on(rng, n, np.sort(rng.choice(pool, k, replace=False)))


# n=1 and empty operands: the size rule never picks the workspace for them,
# and they lie within the union's band
EDGE_INDICES = (
    (1, [], []), (1, [0], []), (1, [], [0]), (1, [0], [0]),
    (64, [], list(range(64))), (64, list(range(64)), []), (64, [], []),
)


def edge_operands(rng):
    for n, u_idx, v_idx in EDGE_INDICES:
        u, v = vector_on(rng, n, np.array(u_idx)), vector_on(rng, n, np.array(v_idx))
        assert not ops_mod._dense_pays(v.nnz, u.nnz, n)
        assert not ops_mod._dense_pays(min(u.nnz, v.nnz), max(u.nnz, v.nnz), n)
        assert n <= ops_mod._SMALL_UNION
        yield n, u, v


def union_cases(rng, side):
    """Operands for each side of the union's two rules: within the band
    ("band"), at both sides of the size rule and at the band's bound; above
    the band and below the size rule ("merge"); above both ("dense"). The
    unmasked MIN and OR unions take their workspace in the band and past
    the rule, and the merge between."""
    band = ops_mod._SMALL_UNION
    if side == "band":
        cases = [straddling_operands(rng, ("below", "above")[i % 2]) for i in range(36)]
        cases += [straddling_operands(rng, ("below", "above")[i], band) for i in range(2)]
        return cases + list(edge_operands(rng))
    sizes = [band + 1] + [int(rng.integers(band + 2, band + 400)) for _ in range(9)]
    return [straddling_operands(rng, {"merge": "below", "dense": "above"}[side], n) for n in sizes]


WORKSPACES = {MIN: "_min_workspace", OR: "_or_workspace"}


def spy_union_paths(monkeypatch):
    """Record, in call order, each of the union's paths that runs."""
    taken = []
    for name in ("_merge", *WORKSPACES.values()):
        real = getattr(ops_mod, name)
        monkeypatch.setattr(
            ops_mod, name, lambda *args, name=name, real=real: taken.append(name) or real(*args)
        )
    return taken


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("side", ("band", "merge", "dense"))
def test_ewise_add_each_side_of_the_band_and_size_rule_equals_union1d_reference(
    monkeypatch, op, side
):
    # MIN and OR take their monoid's workspace where the band or the size
    # rule picks it; LESS and TIMES merge on every side
    rng = np.random.default_rng([107, OPS.index(op), ("band", "merge", "dense").index(side)])
    cases = union_cases(rng, side)
    taken = spy_union_paths(monkeypatch)
    path = ["_merge" if side == "merge" else WORKSPACES.get(op, "_merge")]
    for n, u, v in cases:
        before = bits(u), bits(v)
        for mask in (None, u):
            taken.clear()
            got = ewise_add_vector(u, v, op, mask=mask)
            assert got == union1d_ewise_add_vector(u, v, op, mask=mask)
            assert_sound(got)
            assert taken == ([] if mask is u else path), (n, u.nnz, v.nnz)
        for vec, (idx, val) in zip((u, v), before):
            assert np.array_equal(vec.indices, idx)
            assert np.array_equal(vec.values.view(np.uint64), val)


MIN_KINDS = ("subset", "disjoint", "empty_u", "empty_v", "signed_zeros")


def min_workspace_operands(rng, n, kind):
    """u and v over 0..n-1 related as `kind` says, each either empty or on
    at least n // 3 indices; "signed_zeros" puts 0.0 against -0.0 at every
    shared index, and -0.0 on some indices only one side holds."""
    perm = rng.permutation(n)
    half = n // 2
    if kind == "subset":
        held = perm[: 3 * n // 4]
        return vector_on(rng, n, np.sort(held)), vector_on(rng, n, np.sort(held[: n // 3]))
    if kind == "disjoint":
        return vector_on(rng, n, np.sort(perm[:half])), vector_on(rng, n, np.sort(perm[half:]))
    if kind == "empty_u":
        return SparseVector(n), vector_on(rng, n, np.sort(perm[:half]))
    if kind == "empty_v":
        return vector_on(rng, n, np.sort(perm[:half])), SparseVector(n)
    u_idx, v_idx = np.sort(perm[: 2 * n // 3]), np.sort(perm[n // 3 :])
    zeros = [np.where(rng.random(idx.size) < 0.5, 0.0, -0.0) for idx in (u_idx, v_idx)]
    zeros[1][np.isin(v_idx, u_idx)] = np.copysign(0.0, -zeros[0][np.isin(u_idx, v_idx)])
    return tuple(SparseVector(n, idx, val) for idx, val in zip((u_idx, v_idx), zeros))


@pytest.mark.parametrize("kind", MIN_KINDS)
def test_min_union_workspace_equals_union1d_reference(monkeypatch, kind):
    # MIN combines v into u's scatter with minimum.at in the order the
    # reference calls np.minimum(u value, v value); a slot only v holds keeps
    # v's value, -0.0 included. Inside the band, and above it where the size
    # rule picks the workspace: an empty operand above the band merges
    rng = np.random.default_rng([113, MIN_KINDS.index(kind)])
    taken = spy_union_paths(monkeypatch)
    band = ops_mod._SMALL_UNION
    for n in (1, 64, band, 2 * band):
        u, v = min_workspace_operands(rng, n, kind)
        dense = n <= band or ops_mod._dense_pays(v.nnz, u.nnz, n)
        assert dense == (n <= band or kind not in ("empty_u", "empty_v"))
        taken.clear()
        got = ewise_add_vector(u, v, MIN)
        assert taken == (["_min_workspace"] if dense else ["_merge"]), (n, u.nnz, v.nnz)
        assert got == union1d_ewise_add_vector(u, v, MIN)
        assert_sound(got)
        assert got.nnz == np.union1d(u.indices, v.indices).size


OR_KINDS = ("subset", "disjoint", "empty_u", "empty_v", "zeros")


def or_workspace_operands(rng, n, kind):
    """As min_workspace_operands, save "zeros": u and v overlap by a third
    of 0..n-1, and each value is 0.0, -0.0, a negative or a positive one."""
    if kind != "zeros":
        return min_workspace_operands(rng, n, kind)
    perm = rng.permutation(n)
    u_idx, v_idx = np.sort(perm[: 2 * n // 3]), np.sort(perm[n // 3 :])
    draw = np.array([0.0, -0.0, -2.5, 1.0])
    return tuple(SparseVector(n, idx, rng.choice(draw, idx.size)) for idx in (u_idx, v_idx))


@pytest.mark.parametrize("kind", OR_KINDS)
def test_or_union_workspace_equals_union1d_reference(monkeypatch, kind):
    # OR marks a false workspace where u's or v's value is nonzero: just
    # where logical_or is true or a pass-through entry survives the
    # reference's finalize. Either zero, on a shared index or on one side's
    # own, leaves its slot unmarked unless the other side's value is nonzero
    rng = np.random.default_rng([127, OR_KINDS.index(kind)])
    taken = spy_union_paths(monkeypatch)
    band = ops_mod._SMALL_UNION
    for n in (1, 64, band, 2 * band):
        u, v = or_workspace_operands(rng, n, kind)
        dense = n <= band or ops_mod._dense_pays(v.nnz, u.nnz, n)
        assert dense == (n <= band or kind not in ("empty_u", "empty_v"))
        taken.clear()
        got = ewise_add_vector(u, v, OR)
        assert taken == (["_or_workspace"] if dense else ["_merge"]), (n, u.nnz, v.nnz)
        assert got == union1d_ewise_add_vector(u, v, OR)
        assert_sound(got)
        if kind == "zeros" and n > 1:
            # some union entries are zero on every side that holds them
            assert 0 < got.nnz < np.union1d(u.indices, v.indices).size


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.description)
@pytest.mark.parametrize("side", ("below", "above"))
def test_ewise_mult_either_side_of_the_size_rule_equals_probe_all_reference(op, side):
    # the intersection keeps its size rule within the union's band too;
    # where |u| > |v|, (u, v) takes _common's swapped branch
    rng = np.random.default_rng([109, OPS.index(op), side == "above"])
    cases = [straddling_operands(rng, side) for _ in range(40)]
    assert sum(u.nnz > v.nnz for _, u, v in cases) >= 35
    if side == "below":
        cases += list(edge_operands(rng))
    for n, u, v in cases:
        for a, b in ((u, v), (v, u)):
            got = ewise_mult_vector(a, b, op)
            assert got == probe_all_ewise_mult_vector(a, b, op)
            check_vector(got)


def random_matrix(rng, n, m):
    # integer weights make candidates for one target tie
    w = rng.integers(1, 4, m).astype(float) if rng.random() < 0.5 else 1.0 - rng.random(m)
    return matrix_build(n, np.column_stack([rng.integers(0, n, m), rng.integers(0, n, m), w]))


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 1, 3])
@pytest.mark.parametrize("split", [True, False], ids=["view", "hand_built"])
def test_vxm_min_plus_equals_pull_reference(monkeypatch, entries, split):
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    rng = np.random.default_rng([97, entries, split])
    for _ in range(50):
        n = int(rng.integers(1, 50))
        a = random_matrix(rng, n, int(rng.integers(0, 4 * n + 1)))
        if split:
            # the light part the solver pushes along: a filtered copy of a's rows
            a = split_edges(a, float(rng.uniform(0.1, 4.0)))[0]
        else:
            # the same entries put together by hand from the row-compressed arrays
            a = SparseMatrix(n, a.indptr, a.col, a.val)
        v = vector_on(rng, n, rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        assert vxm_min_plus(v, a) == pull_vxm_min_plus(v, a)


@pytest.mark.parametrize("entries", [fused_mod.RANGE_ENTRIES, 2])
def test_vxm_min_plus_edge_cases_equal_pull_reference(monkeypatch, entries):
    # 2 entries a slice cuts every push of more than two out-edges
    monkeypatch.setattr(fused_mod, "RANGE_ENTRIES", entries)
    big = 1e308
    # rows 2 and 5 have no out-edges; targets 2 and 3 are reached from
    # several rows; big + big overflows to inf
    a = matrix_build(
        6, [(0, 2, 1.0), (0, 3, 2.0), (1, 2, 3.0), (1, 3, 1.0), (3, 2, 0.5), (4, 5, big)]
    )
    cases = {
        "empty frontier": SparseVector(6),
        "zero out-degree rows": vector_build(6, [(2, 1.0), (5, 0.0)]),
        "repeated targets": vector_build(6, [(0, 0.0), (1, 0.5), (3, 4.0), (5, 1.0)]),
        "overflow only": vector_build(6, [(4, big)]),
        "overflow and finite": vector_build(6, [(0, 0.0), (1, 2.0), (4, big)]),
    }
    with np.errstate(over="ignore"):
        for name, v in cases.items():
            got = vxm_min_plus(v, a)
            assert got == pull_vxm_min_plus(v, a), name
            check_vector(got)
        assert vxm_min_plus(cases["overflow only"], a).nnz == 0
        assert dict(vxm_min_plus(cases["repeated targets"], a).items()) == {2: 1.0, 3: 1.5}
