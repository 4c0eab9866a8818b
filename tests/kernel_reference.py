"""The earlier bodies of three public kernels, kept as test references.

pull_vxm_min_plus gathers over every edge of the transposed view,
union1d_ewise_add_vector merges through np.union1d and two position
lookups, and probe_all_ewise_mult_vector probes every entry of u into v,
whatever their sizes. Each is a verbatim copy of the code the
work-efficient kernels replaced, as is _gate, the mask probe they shared;
the tests require the kernels to bit-equal them.
"""

from __future__ import annotations

import math

import numpy as np

from deltasparse import SparseMatrix, SparseVector
from deltasparse.core import INDEX_DTYPE, VALUE_DTYPE, _positions
from deltasparse.ops import BinaryOp, _finalize_boolean, _require_length


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


def pull_vxm_min_plus(
    v: SparseVector,
    transposed: SparseMatrix,
    mask: SparseVector | None = None,
) -> SparseVector:
    """(min,+) vector-matrix product, reading the matrix through its
    transposed view.

    The caller passes the transposed view T of the logical multiplicand M
    (row j of T lists M's entries that write output j), so the hot loop is
    a gather: out[j] = min over stored i of v[i] + M[i][j]. Outputs whose
    reduction stays at the identity (+inf) are absent, and a mask, when
    given, gates which outputs are kept.
    """
    _require_length(v.length, transposed.ncols, "vxm operand")
    if mask is not None:
        _require_length(mask.length, transposed.nrows, "mask")
    if v.nnz == 0 or transposed.nnz == 0:
        return SparseVector(transposed.nrows)
    src = transposed.col
    pos, found = _positions(v.indices, src)
    cand = np.where(found, v.values[pos] + transposed.val, math.inf)
    # reduce only over non-empty rows: consecutive starts then delimit each
    # row's candidate segment exactly, with no empty-segment corner cases
    lengths = np.diff(transposed.indptr)
    nonempty = np.flatnonzero(lengths > 0).astype(INDEX_DTYPE)
    mins = np.minimum.reduceat(cand, transposed.indptr[nonempty])
    keep = np.isfinite(mins)
    out_idx = nonempty[keep]
    out_val = mins[keep]
    if mask is not None:
        sel = _gate(out_idx, mask)
        out_idx, out_val = out_idx[sel], out_val[sel]
    return SparseVector(transposed.nrows, out_idx, out_val)


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
