"""Sparse containers and builders shared by every kernel.

Entries are stored explicitly; an absent entry stands for the container
role's implicit identity (+inf for min-plus distance vectors, false for
masks), which is never materialized. Containers are immutable after
construction: kernels always build new ones.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64
# largest n for which every row*n + col key fits in int64
_MAX_KEYED_DIMENSION = 3_037_000_499

__all__ = [
    "SparseVector",
    "SparseMatrix",
    "vector_build",
    "matrix_build",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _ones(size: int) -> np.ndarray:
    ones = np.empty(size, dtype=VALUE_DTYPE)
    ones.fill(1.0)
    return ones


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    # bit-level comparison sidesteps float == pitfalls (-0.0, NaN)
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class SparseVector:
    """Length-n vector holding sorted, duplicate-free (index, value) entries.

    The public constructor converts its arrays to contiguous INDEX_DTYPE and
    VALUE_DTYPE and freezes them, trusting their order and their values; use
    :func:`vector_build` for the validating path (range checks, duplicate
    collapse, identity dropping). Kernels adopt the arrays they allocated
    through :meth:`_adopt`, which converts and checks nothing. No vector may
    store +inf, the implicit entry of a distance vector: MIN's unions read
    a +inf slot of their workspace as absent (ops.ewise_add_vector).
    """

    __slots__ = ("length", "indices", "values")

    def __init__(
        self,
        length: int,
        indices: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ) -> None:
        if length < 1:
            raise ValueError(f"vector length must be positive, got {length}")
        if indices is None:
            indices = np.empty(0, dtype=INDEX_DTYPE)
        if values is None:
            values = np.empty(0, dtype=VALUE_DTYPE)
        self.length = int(length)
        self.indices = _frozen(np.ascontiguousarray(indices, dtype=INDEX_DTYPE))
        self.values = _frozen(np.ascontiguousarray(values, dtype=VALUE_DTYPE))

    @staticmethod
    def _adopt(length: int, indices: np.ndarray, values: np.ndarray) -> SparseVector:
        """O(1): freeze and take contiguous INDEX_DTYPE / VALUE_DTYPE arrays
        that no one else may write."""
        indices.setflags(write=False)
        values.setflags(write=False)
        vec = object.__new__(SparseVector)
        vec.length, vec.indices, vec.values = length, indices, values
        return vec

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def items(self) -> Iterator[tuple[int, float]]:
        for i, v in zip(self.indices, self.values):
            yield int(i), float(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.length == other.length
            and np.array_equal(self.indices, other.indices)
            and _bits_equal(self.values, other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{i}: {v:g}" for i, v in list(self.items())[:8])
        more = "" if self.nnz <= 8 else f", ... ({self.nnz} entries)"
        return f"SparseVector(n={self.length}, {{{shown}{more}}})"


class SparseMatrix:
    """Square sparse matrix in row-compressed form.

    Row i holds the outgoing edges of vertex i as (column, weight) pairs,
    sorted by column. All stored weights are strictly positive and the
    diagonal is empty.
    """

    __slots__ = ("n", "indptr", "col", "val")

    def __init__(self, n: int, indptr: np.ndarray, col: np.ndarray, val: np.ndarray) -> None:
        if n < 1:
            raise ValueError(f"matrix dimension must be positive, got {n}")
        self.n = int(n)
        self.indptr = _frozen(np.ascontiguousarray(indptr, dtype=INDEX_DTYPE))
        self.col = _frozen(np.ascontiguousarray(col, dtype=INDEX_DTYPE))
        self.val = _frozen(np.ascontiguousarray(val, dtype=VALUE_DTYPE))

    @property
    def nnz(self) -> int:
        return int(self.col.size)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.col[lo:hi], self.val[lo:hi]

    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n, dtype=INDEX_DTYPE), np.diff(self.indptr))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.col, other.col)
            and _bits_equal(self.val, other.val)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SparseMatrix(n={self.n}, nnz={self.nnz})"


def _as_float_table(data: object, width: int) -> np.ndarray:
    if isinstance(data, np.ndarray):
        arr = np.asarray(data, dtype=VALUE_DTYPE)
    else:
        rows = list(data)  # type: ignore[arg-type]
        arr = np.asarray(rows, dtype=VALUE_DTYPE)
    if arr.size == 0:
        return arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"expected rows of {width} numbers, got shape {arr.shape}")
    return arr


def _integral(column: np.ndarray, what: str) -> np.ndarray:
    if column.size and not np.all(np.isfinite(column) & (column == np.floor(column))):
        raise ValueError(f"{what} must be integers")
    return column.astype(INDEX_DTYPE)


def vector_build(length: int, pairs: Iterable[tuple[int, float]] | np.ndarray) -> SparseVector:
    """Validating constructor: sorts entries, min-combines duplicate indices,
    and drops +inf entries, the implicit identity of a distance vector."""
    if length > 2**53:  # indices are read as float64, exact only up to 2**53
        raise ValueError(f"vector length {length} exceeds 2**53")
    arr = _as_float_table(pairs, 2)
    idx = _integral(arr[:, 0], "vector indices")
    val = arr[:, 1]
    if idx.size:
        if idx.min() < 0 or idx.max() >= length:
            bad = idx[(idx < 0) | (idx >= length)][0]
            raise ValueError(f"index {bad} out of range for length {length}")
    keep = val != math.inf
    idx, val = idx[keep], val[keep]
    if val.size and not np.all(np.isfinite(val)):
        raise ValueError("vector values must be finite (+inf excepted)")
    if idx.size:
        order = np.lexsort((val, idx))
        idx, val = idx[order], val[order]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = idx[1:] != idx[:-1]
        idx, val = idx[first], val[first]
    return SparseVector(length, idx, val)


def matrix_build(
    n: int,
    triples: Iterable[tuple[int, int, float]] | np.ndarray,
) -> SparseMatrix:
    """Validating constructor from (row, col, weight) triples.

    Weights must be strictly positive and finite. Duplicate coordinates are
    collapsed with min; self-loops are dropped silently. The loaders call
    `_csr`, the build after these checks, directly with their checked entries."""
    arr = _as_float_table(triples, 3)
    rows = _integral(arr[:, 0], "row indices")
    cols = _integral(arr[:, 1], "column indices")
    vals = arr[:, 2]
    if n > _MAX_KEYED_DIMENSION:
        raise ValueError(f"dimension {n} too large for row*n + col keys")
    if rows.size:
        if min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n:
            raise ValueError(f"vertex index out of range for dimension {n}")
        if not np.all(np.isfinite(vals) & (vals > 0)):
            bad = vals[~(np.isfinite(vals) & (vals > 0))][0]
            raise ValueError(f"edge weights must be strictly positive, got {bad}")
    return _csr(n, [rows, cols, vals])


def _csr(n: int, entries: list[np.ndarray], off_diag: np.ndarray | None = None) -> SparseMatrix:
    """The matrix of the entries [rows, cols, vals] that pass matrix_build's
    checks, minus self-loops, each duplicate at its least weight. `off_diag`
    is rows != cols, if the caller has it. It empties `entries` and writes
    into none: what no caller holds is freed once used."""
    if off_diag is None:
        off_diag = entries[0] != entries[1]
    entries[:2] = [entries[0] * n + entries[1]]  # the key replaces rows and cols
    if not off_diag.all():
        entries[:] = entries[0][off_diag], entries[1][off_diag]
    key, vals = _min_by_key(entries)
    indptr = key.searchsorted(np.arange(n + 1, dtype=INDEX_DTYPE) * n)
    return SparseMatrix(n, indptr, np.remainder(key, n, out=key), vals)


def _sorted_keys(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The non-negative keys sorted, and the permutation that sorts them. Keys
    that fit in one int64 beside their position are sorted packed with it, in
    place, not argsorted; `key` itself is not written to."""
    bits = key.size.bit_length()  # the low bits of a packed key hold its position
    if not key.size or key.max() >= 1 << (63 - bits):
        order = np.argsort(key)
        return key[order], order
    word = key << bits
    word |= np.arange(word.size)
    word.sort()
    order = word & ((1 << bits) - 1)
    word >>= bits
    return word, order


def _min_by_key(entries: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort [key, vals] by key and fold each later member of a run of equal
    keys into the run's first member with min. It empties `entries` and
    returns new arrays, writing into neither."""
    key, order = _sorted_keys(entries.pop(0))
    vals = entries.pop()[order]
    del order
    later = np.flatnonzero(key[1:] == key[:-1]) + 1
    if not later.size:
        return key, vals
    chain = np.flatnonzero(np.diff(later, prepend=-1) != 1)  # where each run starts in later
    heads = np.repeat(later[chain] - 1, np.diff(chain, append=later.size))
    np.minimum.at(vals, heads, vals[later])
    return np.delete(key, later), np.delete(vals, later)
