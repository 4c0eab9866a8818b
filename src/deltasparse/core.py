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
# one edge as matrix_build's integer entry point takes it
EDGE_DTYPE = np.dtype([("row", INDEX_DTYPE), ("col", INDEX_DTYPE), ("weight", VALUE_DTYPE)])
# largest n for which every row*n + col key fits in int64
_MAX_KEYED_DIMENSION = 3_037_000_499

__all__ = [
    "SparseVector",
    "SparseMatrix",
    "EDGE_DTYPE",
    "vector_build",
    "matrix_build",
    "mask_from_indices",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _ones(size: int) -> np.ndarray:
    ones = np.empty(size, dtype=VALUE_DTYPE)
    ones.fill(1.0)
    return ones


def _positions(sorted_idx: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query: insertion position in sorted_idx plus a membership flag.

    Positions are clipped so they are always safe to gather with; gathered
    values are only meaningful where the flag is set.
    """
    if sorted_idx.size == 0:
        return np.zeros(queries.size, dtype=INDEX_DTYPE), np.zeros(queries.size, dtype=bool)
    pos = sorted_idx.searchsorted(queries)
    safe = np.minimum(pos, sorted_idx.size - 1)
    found = (pos < sorted_idx.size) & (sorted_idx[safe] == queries)
    return safe, found


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    # bit-level comparison sidesteps float == pitfalls (-0.0, NaN)
    if a.size != b.size:
        return False
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class SparseVector:
    """Length-n vector holding sorted, duplicate-free (index, value) entries.

    The public constructor converts its arrays to contiguous INDEX_DTYPE and
    VALUE_DTYPE and freezes them, trusting their order; use
    :func:`vector_build` for the validating path (range checks, duplicate
    collapse, identity dropping). Kernels adopt the arrays they allocated
    through :meth:`_adopt`, which converts and checks nothing.
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

    def get(self, index: int, default: float = math.inf) -> float:
        pos = int(np.searchsorted(self.indices, index))
        if pos < self.indices.size and self.indices[pos] == index:
            return float(self.values[pos])
        return default

    def __contains__(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < self.indices.size and self.indices[pos] == index

    def items(self) -> Iterator[tuple[int, float]]:
        for i, v in zip(self.indices, self.values):
            yield int(i), float(v)

    def to_dict(self) -> dict[int, float]:
        return dict(self.items())

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

    def check_invariants(self, identity: float = math.inf) -> None:
        idx, val = self.indices, self.values
        assert idx.size == val.size
        if idx.size:
            assert idx[0] >= 0 and idx[-1] < self.length, "index out of range"
            assert np.all(np.diff(idx) > 0), "indices not strictly increasing"
        assert not np.any(val == identity), "stored implicit identity"
        assert not np.any(np.isnan(val)), "stored NaN"


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

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.row_ids(), self.col, self.val

    def entry_set(self) -> set[tuple[int, int, float]]:
        r, c, v = self.triples()
        return {(int(i), int(j), float(w)) for i, j, w in zip(r, c, v)}

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

    def check_invariants(self) -> None:
        assert self.indptr.size == self.n + 1
        assert self.indptr[0] == 0 and self.indptr[-1] == self.nnz
        assert np.all(np.diff(self.indptr) >= 0), "indptr not monotone"
        if self.nnz:
            assert self.col.min() >= 0 and self.col.max() < self.n
            assert np.all(self.val > 0), "non-positive stored weight"
            assert np.all(np.isfinite(self.val)), "non-finite stored weight"
            rows = self.row_ids()
            assert not np.any(rows == self.col), "stored diagonal entry"
            # columns sorted and unique within each row
            same_row = rows[1:] == rows[:-1]
            assert np.all(self.col[1:][same_row] > self.col[:-1][same_row])


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


def vector_build(
    length: int,
    pairs: Iterable[tuple[int, float]] | np.ndarray,
    identity: float = math.inf,
) -> SparseVector:
    """Validating constructor: sorts entries, min-combines duplicate indices,
    and drops entries equal to the role's implicit identity."""
    arr = _as_float_table(pairs, 2)
    idx = _integral(arr[:, 0], "vector indices")
    val = arr[:, 1]
    if idx.size:
        if idx.min() < 0 or idx.max() >= length:
            bad = idx[(idx < 0) | (idx >= length)][0]
            raise ValueError(f"index {bad} out of range for length {length}")
    keep = ~(val == identity)
    idx, val = idx[keep], val[keep]
    if val.size and not np.all(np.isfinite(val)):
        raise ValueError("vector values must be finite (identity excepted)")
    if idx.size:
        order = np.lexsort((val, idx))
        idx, val = idx[order], val[order]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = idx[1:] != idx[:-1]
        idx, val = idx[first], val[first]
    return SparseVector(length, idx, val)


def mask_from_indices(length: int, indices: np.ndarray | Iterable[int]) -> SparseVector:
    """Structural mask: sorted indices, all values the canonical true (1.0)."""
    idx = np.asarray(indices, dtype=INDEX_DTYPE)
    return SparseVector(length, idx, _ones(idx.size))


def matrix_build(
    n: int,
    triples: Iterable[tuple[int, int, float]] | np.ndarray,
) -> SparseMatrix:
    """Validating constructor from (row, col, weight) triples.

    `triples` is either rows of three numbers or an array of EDGE_DTYPE
    records; the records keep their integer coordinates and skip the float
    table. Weights must be strictly positive and finite. Duplicate
    coordinates are collapsed with min. Self-loop triples are dropped
    silently; loaders that care count them before calling in here.
    """
    if isinstance(triples, np.ndarray) and triples.dtype == EDGE_DTYPE:
        rows, cols, vals = triples["row"], triples["col"], triples["weight"]
    else:
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
    off_diag = rows != cols
    key = rows[off_diag]
    key *= n
    key += cols[off_diag]
    key, vals = _min_by_key(key, vals[off_diag])
    rows = key // n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(INDEX_DTYPE)
    return SparseMatrix(n, indptr, key - rows * n, vals)


def _min_by_key(key: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by key and keep the smallest value of each run of equal keys
    (the min of a run does not depend on the order the sort left it in)."""
    order = np.argsort(key)
    key, vals = key[order], vals[order]
    repeat = key[1:] == key[:-1]
    if not repeat.any():
        return key, vals
    starts = np.flatnonzero(np.concatenate([[True], ~repeat]))
    return key[starts], np.minimum.reduceat(vals, starts)

