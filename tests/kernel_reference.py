"""The earlier bodies of three public kernels, kept as test references,
and a plain reference for the light/heavy split.

pull_vxm_min_plus gathers over every edge of the matrix's transpose,
union1d_ewise_add_vector merges through np.union1d and two position
lookups, and probe_all_ewise_mult_vector probes every entry of u into v,
whatever their sizes. Each is a copy of the code the work-efficient
kernels replaced, as are _gate, the union's mask probe, and
_positions, the clipped binary search they probe with, which no kernel
shares; the tests require the kernels to bit-equal them. transpose builds the coordinate
swap the pull gathers over, afresh on every call. split_rows builds
the light and heavy parts one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from deltasparse import SparseMatrix, SparseVector
from deltasparse.core import INDEX_DTYPE, VALUE_DTYPE
from deltasparse.ops import BinaryOp, _finalize_boolean, _require_length


def _positions(sorted_idx: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query: insertion position in sorted_idx plus a membership flag.

    Positions are clipped so they are always safe to gather with; gathered
    values are only meaningful where the flag is set.
    """
    if sorted_idx.size == 0:
        return np.zeros(queries.size, dtype=INDEX_DTYPE), np.zeros(queries.size, dtype=bool)
    pos = sorted_idx.searchsorted(queries)
    safe = np.minimum(pos, sorted_idx.size - 1)
    # a query past the end meets the last, smaller index: unequal
    found = sorted_idx[safe] == queries
    return safe, found


def _gate(indices: np.ndarray, mask: SparseVector) -> np.ndarray:
    _, found = _positions(mask.indices, indices)
    return found


def union1d_ewise_add_vector(
    u: SparseVector,
    v: SparseVector,
    op: BinaryOp,
    mask: SparseVector | None = None,
) -> SparseVector:
    """Union combine: op runs only where both inputs hold an entry.

    Where exactly one input is defined its value passes through unchanged,
    whatever op is. With a comparison op this pass-through is hazardous:
    indices present only in the *other* vector surface in the result as if
    they had compared true. Gate with mask=<the domain you care about>
    (typically the left operand) to suppress them. Boolean ops normalize
    surviving entries to 1.0 and drop entries evaluating to 0.0.
    """
    _require_length(v.length, u.length, "ewise_add operand")
    if mask is not None:
        _require_length(mask.length, u.length, "mask")
    if u.nnz == 0 and v.nnz == 0:
        return SparseVector(u.length)
    union = np.union1d(u.indices, v.indices)
    if mask is not None:
        union = union[_gate(union, mask)]
    pu, in_u = _positions(u.indices, union)
    pv, in_v = _positions(v.indices, union)
    uval = u.values[pu] if u.nnz else np.zeros(union.size, dtype=VALUE_DTYPE)
    vval = v.values[pv] if v.nnz else np.zeros(union.size, dtype=VALUE_DTYPE)
    both = in_u & in_v
    out = np.where(both, op(uval, vval), np.where(in_u, uval, vval))
    if op.boolean:
        idx, out = _finalize_boolean(union, out)
        return SparseVector(u.length, idx, out)
    return SparseVector(u.length, union, out)


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    """The coordinate swap: (i, j, w) in matrix  <=>  (j, i, w) in the result."""
    rows = matrix.row_ids()
    order = np.lexsort((rows, matrix.col))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(matrix.col, minlength=matrix.n))])
    return SparseMatrix(matrix.n, indptr, rows[order], matrix.val[order])


def pull_vxm_min_plus(v: SparseVector, matrix: SparseMatrix) -> SparseVector:
    """(min,+) vector-matrix product, gathering over the matrix's transpose.

    Row j of the transpose T lists the matrix's entries that write output
    j, so the hot loop is a gather: out[j] = min over stored i of
    v[i] + matrix[i][j]. Outputs whose reduction stays at the identity
    (+inf) are absent.
    """
    _require_length(v.length, matrix.n, "vxm operand")
    if v.nnz == 0 or matrix.nnz == 0:
        return SparseVector(matrix.n)
    transposed = transpose(matrix)
    src = transposed.col
    pos, found = _positions(v.indices, src)
    cand = np.where(found, v.values[pos] + transposed.val, math.inf)
    # reduce only over non-empty rows: consecutive starts then delimit each
    # row's candidate segment exactly, with no empty-segment corner cases
    lengths = np.diff(transposed.indptr)
    nonempty = np.flatnonzero(lengths > 0).astype(INDEX_DTYPE)
    mins = np.minimum.reduceat(cand, transposed.indptr[nonempty])
    keep = np.isfinite(mins)
    return SparseVector(matrix.n, nonempty[keep], mins[keep])


def probe_all_ewise_mult_vector(u: SparseVector, v: SparseVector, op: BinaryOp) -> SparseVector:
    """Intersection combine (Hadamard for op=*): output only where both
    inputs hold an entry."""
    _require_length(v.length, u.length, "ewise_mult operand")
    if u.nnz == 0 or v.nnz == 0:
        return SparseVector(u.length)
    pv, in_v = _positions(v.indices, u.indices)
    idx = u.indices[in_v]
    out = op(u.values[in_v], v.values[pv[in_v]])
    if out.dtype != VALUE_DTYPE:
        out = out.astype(VALUE_DTYPE)
    if op.boolean:
        idx, out = _finalize_boolean(idx, out)
    return SparseVector(u.length, idx, out)


def split_rows(matrix: SparseMatrix, delta: float) -> tuple[SparseMatrix, SparseMatrix]:
    """The light part (weight <= delta) and the heavy part (weight > delta),
    each row's entries kept in order, built one row at a time."""
    parts = []
    for heavy in (False, True):
        indptr, col, val = [0], [], []
        for i in range(matrix.n):
            cols, weights = matrix.row(i)
            keep = (weights > delta) == heavy
            col += cols[keep].tolist()
            val += weights[keep].tolist()
            indptr.append(len(col))
        parts.append(
            SparseMatrix(
                matrix.n,
                np.array(indptr),
                np.array(col, dtype=INDEX_DTYPE),
                np.array(val, dtype=VALUE_DTYPE),
            )
        )
    return parts[0], parts[1]
