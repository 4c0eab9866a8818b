"""Graph ingestion: Matrix Market coordinate files and whitespace edge lists.

Both loaders return a (matrix, labels) pair. The LabelMap records the
bijection between the labels a file uses and the dense 0-based ids the
containers need, so results can be reported in the file's own vocabulary.
Self-loops are dropped with a counted warning, duplicate edges collapse to
their minimum weight, and both loaders accept "-" for standard input.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .core import SparseMatrix, matrix_build

__all__ = [
    "GraphFile",
    "LabelMap",
    "GraphLoadError",
    "ParseError",
    "ValidationError",
    "load_matrix_market",
    "load_edge_list",
    "load_graph",
]

log = logging.getLogger(__name__)


class GraphLoadError(Exception):
    """Base for anything that goes wrong while reading a graph file."""

    def __init__(self, path: str, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
        self.message = message


class ParseError(GraphLoadError):
    """The file's structure is wrong: header, token counts, coordinates."""


class ValidationError(GraphLoadError):
    """The file parsed but its content is unusable, e.g. weight <= 0."""


@dataclass(frozen=True)
class GraphFile:
    """One parsed CLI graph argument: where it is and how to read it."""

    path: str
    format: str  # "mtx" | "edges"
    directed: bool = True


class LabelMap:
    """Bijection between external vertex labels and dense internal ids."""

    __slots__ = ("_externals", "_to_internal")

    def __init__(self, externals: list[int]) -> None:
        self._externals = externals
        self._to_internal = {label: i for i, label in enumerate(externals)}
        if len(self._to_internal) != len(externals):
            raise ValueError("duplicate external label")

    def __len__(self) -> int:
        return len(self._externals)

    def __contains__(self, label: int) -> bool:
        return label in self._to_internal

    def to_internal(self, label: int) -> int:
        return self._to_internal[label]

    def to_external(self, internal: int) -> int:
        return self._externals[internal]

    @property
    def externals(self) -> list[int]:
        return list(self._externals)


def _lines(path: str) -> Iterator[tuple[int, str]]:
    stream: TextIO
    if path == "-":
        stream = sys.stdin
        for no, line in enumerate(stream, start=1):
            yield no, line
    else:
        with open(path, "r", encoding="utf-8") as stream:
            for no, line in enumerate(stream, start=1):
                yield no, line


def _parse_weight(
    token: str, path: str, lineno: int
) -> float:
    try:
        w = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"bad weight {token!r}") from None
    if not (w > 0 and math.isfinite(w)):
        raise ValidationError(path, lineno, f"edge weight must be strictly positive, got {token}")
    return w


def _warn_self_loops(path: str, count: int) -> None:
    if count:
        log.warning("%s: dropped %d self-loop entr%s", path, count, "y" if count == 1 else "ies")


def load_matrix_market(
    path: str, default_weight: float = 1.0
) -> tuple[SparseMatrix, LabelMap]:
    """Read a Matrix Market coordinate file as a square graph.

    Supports the real, integer, and pattern fields crossed with general and
    symmetric symmetry; pattern entries take `default_weight`. Coordinates
    are 1-based in the file and become 0-based internally; the label map
    exposes the file's own 1-based vertex numbers as the external labels.
    """
    it = _lines(path)
    try:
        lineno, first = next(it)
    except StopIteration:
        raise ParseError(path, 1, "empty file") from None
    tokens = first.lower().split()
    if len(tokens) != 5 or tokens[0] != "%%matrixmarket":
        raise ParseError(path, lineno, "expected '%%MatrixMarket matrix coordinate ...' header")
    _, obj, fmt, field, symmetry = tokens
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(path, lineno, f"unsupported layout {obj!r}/{fmt!r}")
    if field not in ("real", "integer", "pattern"):
        raise ParseError(path, lineno, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, lineno, f"unsupported symmetry {symmetry!r}")

    n = -1
    declared = 0
    seen = 0
    loops = 0
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    last_lineno = lineno
    for lineno, raw in it:
        last_lineno = lineno
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if n < 0:
            if len(parts) != 3:
                raise ParseError(path, lineno, "expected 'rows cols entries' size line")
            try:
                nr, nc, declared = (int(p) for p in parts)
            except ValueError:
                raise ParseError(path, lineno, "size line must hold three integers") from None
            if nr != nc:
                raise ParseError(path, lineno, f"graph matrix must be square, got {nr}x{nc}")
            if nr < 1:
                raise ParseError(path, lineno, "matrix dimension must be positive")
            n = nr
            continue
        if seen == declared:
            raise ParseError(path, lineno, f"more than the declared {declared} entries")
        want = 2 if field == "pattern" else 3
        if len(parts) != want:
            raise ParseError(path, lineno, f"expected {want} tokens, got {len(parts)}")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, "coordinates must be integers") from None
        if not (1 <= r <= n and 1 <= c <= n):
            raise ParseError(path, lineno, f"coordinate ({r}, {c}) outside 1..{n}")
        w = default_weight if field == "pattern" else _parse_weight(parts[2], path, lineno)
        seen += 1
        if r == c:
            loops += 1
            continue
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(w)
        if symmetry == "symmetric":
            rows.append(c - 1)
            cols.append(r - 1)
            vals.append(w)
    if n < 0:
        raise ParseError(path, last_lineno, "missing size line")
    if seen != declared:
        raise ParseError(path, last_lineno, f"file ended after {seen} of {declared} entries")
    _warn_self_loops(path, loops)
    triples = np.column_stack([rows, cols, vals]) if rows else np.empty((0, 3))
    matrix = matrix_build(n, triples)
    return matrix, LabelMap(list(range(1, n + 1)))


def load_edge_list(
    path: str, directed: bool = True, default_weight: float = 1.0
) -> tuple[SparseMatrix, LabelMap]:
    """Read a whitespace edge list: 'u v' or 'u v w' per line.

    Labels are arbitrary non-negative integers, remapped to dense ids in
    first-seen order (source before target). '#' and '%' start comment
    lines. Undirected input stores both directions of every edge.
    """
    externals: list[int] = []
    to_internal: dict[int, int] = {}

    def intern(label: int) -> int:
        got = to_internal.get(label)
        if got is None:
            got = len(externals)
            to_internal[label] = got
            externals.append(label)
        return got

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    loops = 0
    last_lineno = 0
    for lineno, raw in _lines(path):
        last_lineno = lineno
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(path, lineno, f"expected 'u v' or 'u v w', got {len(parts)} tokens")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, "vertex labels must be integers") from None
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "vertex labels must be non-negative")
        w = _parse_weight(parts[2], path, lineno) if len(parts) == 3 else default_weight
        ui, vi = intern(u), intern(v)
        if ui == vi:
            loops += 1
            continue
        rows.append(ui)
        cols.append(vi)
        vals.append(w)
        if not directed:
            rows.append(vi)
            cols.append(ui)
            vals.append(w)
    if not externals:
        raise ParseError(path, max(last_lineno, 1), "no vertices found")
    _warn_self_loops(path, loops)
    triples = np.column_stack([rows, cols, vals]) if rows else np.empty((0, 3))
    matrix = matrix_build(len(externals), triples)
    return matrix, LabelMap(externals)


def load_graph(spec: GraphFile) -> tuple[SparseMatrix, LabelMap]:
    """Dispatch on the declared format. For Matrix Market files the header's
    symmetry decides directedness; the flag only steers edge lists."""
    if spec.format == "mtx":
        return load_matrix_market(spec.path)
    if spec.format == "edges":
        return load_edge_list(spec.path, directed=spec.directed)
    raise ValueError(f"unknown graph format {spec.format!r}")
