"""Shared test helpers: random sparse operand and graph builders, the
container invariant checks, a matrix's entry set, and the acceptance report
hook that echoes one line per acceptance criterion into the terminal
summary."""

from __future__ import annotations

import math

import numpy as np

from deltasparse import SparseMatrix, SparseVector, matrix_build, vector_build

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_sparse_vector(
    rng: np.random.Generator,
    length: int,
    max_entries: int | None = None,
    low: float = 0.0,
    high: float = 10.0,
) -> SparseVector:
    cap = length if max_entries is None else min(max_entries, length)
    k = int(rng.integers(0, cap + 1))
    idx = rng.choice(length, size=k, replace=False)
    val = low + (high - low) * rng.random(k)
    return vector_build(length, np.column_stack([idx, val]))


def random_connected_unit_graph(
    n: int,
    extra_edges: int,
    rng: np.random.Generator,
) -> SparseMatrix:
    """Unit-weight digraph where every vertex is reachable from vertex 0:
    a random spanning tree oriented away from the root plus extra edges."""
    if n == 1:
        return matrix_build(1, np.empty((0, 3)))
    children = np.arange(1, n)
    parents = (rng.random(n - 1) * children).astype(np.int64)  # parent < child
    rows = [parents]
    cols = [children]
    if extra_edges:
        rows.append(rng.integers(0, n, size=extra_edges))
        cols.append(rng.integers(0, n, size=extra_edges))
    src = np.concatenate(rows)
    dst = np.concatenate(cols)
    return matrix_build(n, np.column_stack([src, dst, np.ones(src.size)]))


def grid_arcs(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Both arcs of every edge of an undirected side x side 4-neighbour grid,
    as (tails, heads)."""
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return np.concatenate([u, v]), np.concatenate([v, u])


def entry_set(matrix: SparseMatrix) -> set[tuple[int, int, float]]:
    """The matrix's stored entries as a set of (row, col, weight)."""
    entries = zip(matrix.row_ids(), matrix.col, matrix.val)
    return {(int(i), int(j), float(w)) for i, j, w in entries}


def check_vector(v: SparseVector, identity: float = math.inf) -> None:
    """Assert the vector's invariants: in-range, strictly increasing
    indices, and no stored implicit identity or NaN."""
    idx, val = v.indices, v.values
    assert idx.size == val.size
    if idx.size:
        assert idx[0] >= 0 and idx[-1] < v.length, "index out of range"
        assert np.all(np.diff(idx) > 0), "indices not strictly increasing"
    assert not np.any(val == identity), "stored implicit identity"
    assert not np.any(np.isnan(val)), "stored NaN"


def check_matrix(m: SparseMatrix) -> None:
    """Assert the matrix's invariants: a monotone indptr, in-range columns
    sorted and unique within each row, positive finite weights and an empty
    diagonal."""
    assert m.indptr.size == m.n + 1
    assert m.indptr[0] == 0 and m.indptr[-1] == m.nnz
    assert np.all(np.diff(m.indptr) >= 0), "indptr not monotone"
    if m.nnz:
        assert m.col.min() >= 0 and m.col.max() < m.n
        assert np.all(m.val > 0), "non-positive stored weight"
        assert np.all(np.isfinite(m.val)), "non-finite stored weight"
        rows = m.row_ids()
        assert not np.any(rows == m.col), "stored diagonal entry"
        # columns sorted and unique within each row
        same_row = rows[1:] == rows[:-1]
        assert np.all(m.col[1:][same_row] > m.col[:-1][same_row])
