"""Graph ingestion: Matrix Market coordinate files and whitespace edge lists.

Both loaders return a (matrix, labels) pair. The LabelMap records the
bijection between the labels a file uses and the dense 0-based ids the
containers need, so results can be reported in the file's own vocabulary.
Self-loops are dropped with a counted warning, duplicate edges collapse to
their minimum weight, and both loaders accept "-" for standard input.

Each loader reads its input once as bytes and first tries a bulk parse: the
data lines go to `np.loadtxt` in one call and the records are checked with
array operations. If numpy rejects a line or a check fails, the line walker
reads the same bytes. It either raises the exact `path:line:` error or
loads the rare valid file numpy cannot hold (labels beyond int64, `1_000`,
mixed 2- and 3-token lines, comment lines between data lines). Both paths
give bit-identical matrices and label maps.
"""

from __future__ import annotations

import io
import itertools
import logging
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .core import _MAX_KEYED_DIMENSION, EDGE_DTYPE, INDEX_DTYPE, VALUE_DTYPE, SparseMatrix
from .core import matrix_build

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


# loadtxt record layouts: 'u v' lines and 'u v w' lines
_PAIR = np.dtype([("u", INDEX_DTYPE), ("v", INDEX_DTYPE)])
_TRIPLE = np.dtype([("u", INDEX_DTYPE), ("v", INDEX_DTYPE), ("w", VALUE_DTYPE)])


def _read(path: str) -> tuple[bytes, str | None]:
    """The whole input as bytes, checked to be UTF-8, and the newline mode
    to read it with: universal newlines for a file, as `open` gives, and
    "\n" only for standard input, as `sys.stdin` gives on POSIX."""
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        data = sys.stdin.read().encode("utf-8") if buffer is None else buffer.read()
        newline = "\n"
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        newline = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        breaks = head.count(b"\n")
        if newline is None:  # universal newlines also end a line at a lone \r
            breaks += head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(path, breaks + 1, "not valid UTF-8") from None
    return data, newline


def _text(data: bytes, newline: str | None) -> TextIO:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def _loadtxt(lines: Iterable[str], dtype: np.dtype) -> np.ndarray | None:
    """Parse whitespace-separated data lines in C, or None if numpy rejects
    any of them: a token it cannot convert (including the ones int() and
    float() accept, like '1_000' or labels beyond int64), a ragged line, a
    comment line, or no data at all."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


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


def _valid_weights(w: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(w) & (w > 0)))


def _build(
    path: str, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, mirror: bool
) -> SparseMatrix:
    """Count and drop self-loops, add the reverse of every edge if `mirror`,
    and build through matrix_build's integer entry point."""
    keep = rows != cols
    kept = int(np.count_nonzero(keep))
    if kept < keep.size:
        loops = keep.size - kept
        log.warning("%s: dropped %d self-loop entr%s", path, loops, "y" if loops == 1 else "ies")
    edges = np.empty(2 * kept if mirror else kept, dtype=EDGE_DTYPE)
    head, tail = edges[:kept], edges[kept:]
    head["row"], head["col"], head["weight"] = rows[keep], cols[keep], vals[keep]
    if mirror:
        tail["row"], tail["col"], tail["weight"] = head["col"], head["row"], head["weight"]
    return matrix_build(n, edges)


def load_matrix_market(
    path: str, default_weight: float = 1.0
) -> tuple[SparseMatrix, LabelMap]:
    """Read a Matrix Market coordinate file as a square graph.

    Supports the real, integer, and pattern fields crossed with general and
    symmetric symmetry; pattern entries take `default_weight`. Coordinates
    are 1-based in the file and become 0-based internally; the label map
    exposes the file's own 1-based vertex numbers as the external labels.
    """
    data, newline = _read(path)
    lines = _text(data, newline)
    header = _mm_header(path, lines)
    entries = _bulk_mm(lines, header, default_weight)
    if entries is None:
        lines = _text(data, newline)
        entries = _walk_mm(path, lines, _mm_header(path, lines), default_weight)
    del data, lines  # free the text before the build
    n, _, _, symmetric, size_line = header
    try:
        return _build(path, n, *entries, mirror=symmetric), LabelMap(list(range(1, n + 1)))
    except MemoryError:
        raise ValidationError(
            path, size_line, f"matrix dimension {n} is too large to allocate"
        ) from None


def _mm_header(path: str, lines: TextIO) -> tuple[int, int, bool, bool, int]:
    """Read the banner and the size line. Returns (n, declared entries,
    pattern, symmetric, line number of the size line)."""
    first = next(lines, None)
    if first is None:
        raise ParseError(path, 1, "empty file")
    tokens = first.lower().split()
    if len(tokens) != 5 or tokens[0] != "%%matrixmarket":
        raise ParseError(path, 1, "expected '%%MatrixMarket matrix coordinate ...' header")
    _, obj, fmt, field, symmetry = tokens
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(path, 1, f"unsupported layout {obj!r}/{fmt!r}")
    if field not in ("real", "integer", "pattern"):
        raise ParseError(path, 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    lineno = 1
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
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
        if nr > _MAX_KEYED_DIMENSION:
            raise ParseError(path, lineno, f"matrix dimension {nr} exceeds {_MAX_KEYED_DIMENSION}")
        return nr, declared, field == "pattern", symmetry == "symmetric", lineno
    raise ParseError(path, lineno, "missing size line")


def _bulk_mm(
    lines: TextIO, header: tuple[int, int, bool, bool, int], default_weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The entries after the size line as 0-based arrays, or None if any
    check fails and the walker must decide."""
    n, declared, pattern, _, _ = header
    table = _loadtxt(lines, _PAIR if pattern else _TRIPLE)
    if table is None or table.size != declared:
        return None
    r, c = table["u"], table["v"]
    if not np.all((r >= 1) & (r <= n) & (c >= 1) & (c <= n)):
        return None
    if pattern:
        w = np.full(table.size, default_weight)
    else:
        w = table["w"].copy()  # a copy, so that the table is freed on return
        if not _valid_weights(w):
            return None
    return r - 1, c - 1, w


def _walk_mm(
    path: str,
    lines: TextIO,
    header: tuple[int, int, bool, bool, int],
    default_weight: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line-by-line entry reader: raises the first error with its line."""
    n, declared, pattern, _, lineno = header
    want = 2 if pattern else 3
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if len(rows) == declared:
            raise ParseError(path, lineno, f"more than the declared {declared} entries")
        parts = line.split()
        if len(parts) != want:
            raise ParseError(path, lineno, f"expected {want} tokens, got {len(parts)}")
        try:
            r, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, "coordinates must be integers") from None
        if not (1 <= r <= n and 1 <= c <= n):
            raise ParseError(path, lineno, f"coordinate ({r}, {c}) outside 1..{n}")
        w = default_weight if pattern else _parse_weight(parts[2], path, lineno)
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(w)
    if len(rows) != declared:
        raise ParseError(path, lineno, f"file ended after {len(rows)} of {declared} entries")
    return _arrays(rows, cols, vals)


def _arrays(
    rows: list[int], cols: list[int], vals: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array(rows, dtype=INDEX_DTYPE),
        np.array(cols, dtype=INDEX_DTYPE),
        np.array(vals, dtype=VALUE_DTYPE),
    )


def load_edge_list(
    path: str, directed: bool = True, default_weight: float = 1.0
) -> tuple[SparseMatrix, LabelMap]:
    """Read a whitespace edge list: 'u v' or 'u v w' per line.

    Labels are arbitrary non-negative integers, remapped to dense ids in
    first-seen order (source before target). '#' and '%' start comment
    lines. Undirected input stores both directions of every edge.
    """
    data, newline = _read(path)
    parsed = _bulk_edge_list(_text(data, newline), default_weight)
    if parsed is None:
        parsed = _walk_edge_list(path, _text(data, newline), default_weight)
    del data  # free the text before the build
    rows, cols, vals, externals = parsed
    matrix = _build(path, len(externals), rows, cols, vals, mirror=not directed)
    return matrix, LabelMap(externals)


def _bulk_edge_list(
    lines: TextIO, default_weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]] | None:
    """Edges as dense-id arrays plus the labels by id, or None if any check
    fails and the walker must decide. Comment and blank lines are skipped
    up to the first data line, whose token count fixes the width of all."""
    for first in lines:
        line = first.strip()
        if line and line[0] not in "#%":
            break
    else:
        return None
    width = len(line.split())
    if width not in (2, 3):
        return None
    table = _loadtxt(itertools.chain([first], lines), _TRIPLE if width == 3 else _PAIR)
    if table is None:
        return None
    u, v = table["u"], table["v"]
    if not (np.all(u >= 0) and np.all(v >= 0)):
        return None
    if width == 2:
        w = np.full(table.size, default_weight)
    else:
        w = table["w"].copy()  # a copy, so that the table is freed on return
        if not _valid_weights(w):
            return None
    ids, externals = _intern(u, v)
    return ids[0::2], ids[1::2], w, externals


def _intern(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Dense ids in first-seen order over u[0], v[0], u[1], v[1], ...:
    returns the ids of that interleaved sequence and the labels by id."""
    seq = np.empty(2 * u.size, dtype=INDEX_DTYPE)
    seq[0::2], seq[1::2] = u, v
    perm = np.argsort(seq)
    seq = seq[perm]
    starts = np.flatnonzero(np.concatenate([[True], seq[1:] != seq[:-1]]))
    labels = seq[starts]
    del seq  # free before the id pass; perm still holds every position
    # each distinct label's first position; the sort left each run in any order
    by_first = np.argsort(np.minimum.reduceat(perm, starts))
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    ids = np.empty_like(perm)
    ids[perm] = np.repeat(rank, np.diff(starts, append=perm.size))
    return ids, labels[by_first].tolist()


def _walk_edge_list(
    path: str, lines: TextIO, default_weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Line-by-line edge reader: raises the first error with its line."""
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
    last_lineno = 0
    for lineno, raw in enumerate(lines, start=1):
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
        rows.append(intern(u))
        cols.append(intern(v))
        vals.append(w)
    if not externals:
        raise ParseError(path, max(last_lineno, 1), "no vertices found")
    return (*_arrays(rows, cols, vals), externals)


def load_graph(spec: GraphFile) -> tuple[SparseMatrix, LabelMap]:
    """Dispatch on the declared format. For Matrix Market files the header's
    symmetry decides directedness; the flag only steers edge lists."""
    if spec.format == "mtx":
        return load_matrix_market(spec.path)
    if spec.format == "edges":
        return load_edge_list(spec.path, directed=spec.directed)
    raise ValueError(f"unknown graph format {spec.format!r}")
