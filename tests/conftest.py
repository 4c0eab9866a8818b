"""Shared test helpers: random sparse operand builders, a matrix's entry
set, and the acceptance report hook that echoes one line per acceptance
criterion into the terminal summary."""

from __future__ import annotations

import numpy as np

from deltasparse import SparseMatrix, SparseVector, vector_build

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


def grid_arcs(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Both arcs of every edge of an undirected side x side 4-neighbour grid,
    as (tails, heads)."""
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return np.concatenate([u, v]), np.concatenate([v, u])


def entry_set(matrix: SparseMatrix) -> set[tuple[int, int, float]]:
    """The matrix's stored entries as a set of (row, col, weight)."""
    rows, cols, vals = matrix.triples()
    return {(int(i), int(j), float(w)) for i, j, w in zip(rows, cols, vals)}
