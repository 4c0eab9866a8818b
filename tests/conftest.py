"""Shared test helpers: random sparse operand and graph builders, the
container invariant checks, a matrix's entry set, a step-by-step log of one
solve's bucket walk, and the acceptance report hook that echoes one line per
acceptance criterion into the terminal summary."""

from __future__ import annotations

import math

import numpy as np

import deltasparse.sssp as sssp
from deltasparse import SparseMatrix, SparseVector, matrix_build, vector_build
from deltasparse.core import INDEX_DTYPE

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


def _step_view(solve) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A step object's bucket, settled set, finite tentative indices and
    their values, the indices as INDEX_DTYPE."""
    if isinstance(solve, sssp._Unfused):
        state = solve.state
        parts = state.bucket.indices, state.settled.indices, state.tentative.indices
        return *parts, state.tentative.values
    reached = np.flatnonzero(solve.t < math.inf)
    parts = solve.bucket, solve.settled.nonzero()[0], reached
    return *(part.astype(INDEX_DTYPE) for part in parts), solve.t[reached]


def walk_log(kind: str, matrix: SparseMatrix, source: int, delta: float):
    """Run one solve's bucket walk (sssp._walk) on the "unfused" or "fused"
    step objects and log every step, as delta_stepping runs it. Only this
    instance's start, light_step and heavy_step are wrapped; no module
    attribute changes. After each step the log gets (step kind, the bucket
    it leaves, empty where the step returns 0, the finite tentative indices,
    their values), and before a heavy step ("frontier", its settled set),
    all as raw bytes. Returns the log, the distances and the counts
    (outer_iterations, occupied_buckets, inner_phases)."""
    solve = (sssp._Fused if kind == "fused" else sssp._Unfused)(matrix, source, delta)
    log = []

    def logged(name, step):
        def run(*args):
            if name == "heavy":
                log.append(("frontier", _step_view(solve)[1].tobytes()))
            size = step(*args)
            bucket, _, indices, values = _step_view(solve)
            left = bucket if size else bucket[:0]
            log.append((name, left.tobytes(), indices.tobytes(), values.tobytes()))
            return size

        return run

    solve.start = logged("start", solve.start)
    solve.light_step = logged("light", solve.light_step)
    solve.heavy_step = logged("heavy", solve.heavy_step)
    with np.errstate(over="ignore"):
        distances, buckets, last, phases = sssp._walk(solve, delta)
    return log, distances, (last + 1, buckets, phases)


def heavy_frontiers(log) -> list[np.ndarray]:
    """The frontier of every heavy step in a walk_log log."""
    return [np.frombuffer(step[1], INDEX_DTYPE) for step in log if step[0] == "frontier"]
