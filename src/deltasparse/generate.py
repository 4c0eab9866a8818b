"""A small random-graph builder for the self-test, tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .core import SparseMatrix, matrix_build

__all__ = ["random_graph"]


def random_graph(
    n: int,
    m: int,
    rng: np.random.Generator,
    weights: str = "int",
) -> SparseMatrix:
    """Directed multigraph sample with m drawn edges (duplicates collapse,
    self-loops are discarded, so the stored count can land below m).

    weights: "unit" (all 1), "int" (uniform 1..10), "float" (uniform in
    (0, 10]).
    """
    if m == 0 or n < 2:
        return matrix_build(n, np.empty((0, 3)))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    if weights == "unit":
        w = np.ones(m)
    elif weights == "int":
        w = rng.integers(1, 11, size=m).astype(np.float64)
    elif weights == "float":
        w = 10.0 * (1.0 - rng.random(size=m))  # half-open on the zero side
    else:
        raise ValueError(f"unknown weight kind {weights!r}")
    return matrix_build(n, np.column_stack([src, dst, w]))
