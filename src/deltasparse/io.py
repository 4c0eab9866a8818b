"""Graph ingestion: Matrix Market coordinate files and whitespace edge lists.

Both loaders return a (matrix, labels) pair. The LabelMap records the
bijection between the labels a file uses and the dense 0-based ids the
containers need, so results can be reported in the file's own vocabulary.
A vertex's id is its label's rank, so ids increase with labels in both formats.
Self-loops are dropped with a counted warning, duplicate edges collapse to
their minimum weight, and both loaders accept "-" for standard input.

Both formats share one skeleton: the header is read as text, `_bulk`
parses all data lines with one `np.loadtxt` call, and array operations check
the labels and weights. 'u v w' lines have two record layouts. When the
first weight token is an integer literal, all three fields are read as int64
and the weights are converted to float64 once, to the bits a float parse
gives. If numpy rejects that layout (a later fractional weight, a weight
beyond int64), a second call parses the lines with float weights. When an
edge list's labels fill 0..n-1, each label is its own id and the parsed
labels are the ids. A regular file is parsed from its path, so numpy's C
reader reads it in chunks and the text is never held; standard input, pipes
and files named `.gz`, `.bz2`, `.xz` or `.lzma` are read once into memory
and parsed from there. If numpy rejects a line or a check fails, the format's
walker rereads the input into memory through `_read` and walks it with
`_data_lines`, `_labels` and `_weight`. It raises the exact `path:line:`
error, or loads the rare valid file numpy cannot hold (labels beyond int64,
`1_000`, mixed 2- and 3-token lines, comment lines between data lines) to
the matrix and labels a bulk parse gives.
"""

from __future__ import annotations

import io
import logging
import math
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .core import _MAX_KEYED_DIMENSION, INDEX_DTYPE, VALUE_DTYPE, SparseMatrix, _csr

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
    """Bijection between external vertex labels and dense internal ids.

    The labels are one increasing array (int64, or Python ints beyond
    int64) that to_internal compares a label against, with no label -> id dict."""

    __slots__ = ("_labels",)

    def __init__(self, externals: np.ndarray) -> None:
        self._labels = np.asarray(externals)

    def __len__(self) -> int:
        return len(self._labels)

    def to_internal(self, label: int) -> int:
        """The dense id of `label`; KeyError if the map lacks it."""
        labels = self._labels
        # absent outside int64, which numpy 1.x would compare as float64
        if labels.dtype == object or -(2**63) <= label < 2**63:
            hits = (labels == label).nonzero()[0]
            if hits.size:
                return int(hits[0])
        raise KeyError(label)

    def to_external(self, internal: int) -> int:
        return int(self._labels[internal])

    def to_external_array(self, internal: np.ndarray) -> np.ndarray:
        """The labels of the dense ids `internal`, as one array."""
        return self._labels[internal]

    @property
    def externals(self) -> list[int]:
        return self._labels.tolist()


# loadtxt record layouts: 'u v' lines, and 'u v w' lines with float or integer weights
_PAIR = np.dtype([("u", INDEX_DTYPE), ("v", INDEX_DTYPE)])
_TRIPLE = np.dtype([("u", INDEX_DTYPE), ("v", INDEX_DTYPE), ("w", VALUE_DTYPE)])
_INT_TRIPLE = np.dtype([("u", INDEX_DTYPE), ("v", INDEX_DTYPE), ("w", INDEX_DTYPE)])
_INTEGER = re.compile(r"[+-]?[0-9]+")  # a weight token the int64 layout reads
_Entries = list[np.ndarray]  # rows, cols, weights: each stage replaces or empties them
_Header = tuple[int, int, int, bool, int]  # n, declared entries, width, symmetric, size line


# names numpy's opener decompresses instead of reading as text
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _open(path: str) -> tuple[TextIO, str | None]:
    """The input as text, and the absolute path `np.loadtxt` parses its data
    lines from, or None to parse them from the text. A regular file whose
    name numpy's opener takes for plain text is parsed from its path; the
    text then holds the file for its header only. Anything else, a pipe too,
    is read once into memory by `_read`."""
    if path == "-":
        return _read(path), None
    fh = open(path, "rb")
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not path.lower().endswith(_COMPRESSED):
        return io.TextIOWrapper(fh, encoding="utf-8"), os.path.abspath(path)
    return _read(path, fh), None


def _read(path: str, fh: BinaryIO | None = None) -> TextIO:
    """The whole input in memory: read once as bytes from `fh` or `path` and,
    unless ASCII, decoded once to check it is UTF-8, as a rewindable text
    stream. Standard input, pipes, files with a compressed name and every
    walker's reread come this way. A file reads with universal newlines, as
    `open` gives, and standard input with "\n" only, as on POSIX."""
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        data = sys.stdin.read().encode("utf-8") if buffer is None else buffer.read()
        newline = "\n"
    else:
        with fh or open(path, "rb") as fh:
            data = fh.read()
        newline = None
    try:
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        breaks = head.count(b"\n")
        if newline is None:  # universal newlines also end a line at a lone \r
            breaks += head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(path, breaks + 1, "not valid UTF-8") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def _reread(path: str, lines: TextIO, source: str | None) -> TextIO:
    """The input from its start, in memory, for the walker."""
    if source is None:
        lines.seek(0)
        return lines
    lines.close()
    return _read(path)


def _data_lines(
    lines: Iterable[str], lineno: int, comments: str
) -> Iterator[tuple[int, list[str] | None]]:
    """(line number, tokens) of each line that is not blank and does not start
    with a `comments` character, numbered on from `lineno`; then (last line, None)."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        tokens = raw.split()
        if tokens and tokens[0][0] not in comments:
            yield lineno, tokens
    yield lineno, None


def _loadtxt(source: Iterable[str] | str, dtype: np.dtype, skiprows: int) -> np.ndarray | None:
    """Parse whitespace-separated data lines in C, from an iterable of lines
    or the lines of the file at path `source` after its first `skiprows`, or
    None if numpy rejects any of them: a token it cannot convert (including
    the ones int() and float() accept, like '1_000' or labels beyond int64),
    a ragged line, a comment line, invalid UTF-8, or no data at all."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                source, dtype=dtype, comments=None, ndmin=1, skiprows=skiprows, encoding="utf-8"
            )
    except (ValueError, Warning):
        return None


def _bulk(
    lines: TextIO, source: str | None, comments: str, width: int | None = None, skipped: int = 0
) -> _Entries | None:
    """The labels and weights of the data lines after the leading comment and
    blank lines, or None if there are none, numpy rejects a line or a read
    weight is not finite and > 0. `lines` has already yielded the first
    `skipped` lines; numpy parses the file at `source`, or `lines` if None,
    from the first data line. Each line holds `width` tokens; None means the
    first line's count, if 2 or 3. Weights are read as int64 when the first
    one is an integer literal, and numpy parses again with float weights if
    a later line rejects that. Labels and read weights view the table."""
    lineno, first = next(_data_lines(lines, skipped, comments))
    if first is None:
        return None
    width = width or len(first)
    if width == 2:
        layouts: tuple[np.dtype, ...] = (_PAIR,)
    elif width != 3:
        return None
    elif len(first) == 3 and _INTEGER.fullmatch(first[2]):
        layouts = (_INT_TRIPLE, _TRIPLE)
    else:
        layouts = (_TRIPLE,)
    for layout in layouts:
        if source is None:
            lines.seek(0)  # numpy skips the same lines of the text as of a file
        table = _loadtxt(source or lines, layout, lineno - 1)
        if table is not None:
            break
    else:
        return None
    w = np.ones(table.size) if layout is _PAIR else table["w"]
    if layout is _INT_TRIPLE:
        if w.min() <= 0:  # an integer is finite
            return None
    elif not np.all(np.isfinite(w) & (w > 0)):
        return None
    return [table["u"], table["v"], w]


def _labels(path: str, lineno: int, tokens: list[str], what: str) -> tuple[int, int]:
    try:
        return int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(path, lineno, f"{what} must be integers") from None


def _weight(path: str, lineno: int, tokens: list[str]) -> float:
    """The third token as a weight, or 1.0 on a 2-token line."""
    if len(tokens) == 2:
        return 1.0
    try:
        w = float(tokens[2])
    except ValueError:
        raise ParseError(path, lineno, f"bad weight {tokens[2]!r}") from None
    if w > 0 and math.isfinite(w):
        return w
    raise ValidationError(path, lineno, f"edge weight must be strictly positive, got {tokens[2]}")


def _arrays(pairs: list[int], vals: list[float]) -> _Entries:
    """Walker output as arrays: `pairs` holds row, col, row, col, ...; labels
    beyond int64 make them Python ints."""
    try:
        ends = np.array(pairs, dtype=INDEX_DTYPE)
    except OverflowError:
        ends = np.array(pairs, dtype=object)
    return [ends[0::2], ends[1::2], np.array(vals, dtype=VALUE_DTYPE)]


def _build(path: str, n: int, entries: _Entries, mirror: bool) -> SparseMatrix:
    """Add reverse edges if `mirror`, count the self-loops and hand the checked
    entries, with their off-diagonal mask, to the CSR build. Weights viewing
    the parsed table are copied out as float64, which rounds int64 weights
    as a float parse of their digits does."""
    entries[2] = np.ascontiguousarray(entries[2], dtype=VALUE_DTYPE)
    if mirror:  # each stored array is freed as soon as its mirror replaces it
        half = entries[0].size
        entries[:2] = [np.concatenate(entries[:2])]  # lets go of labels viewing the table
        entries.insert(1, np.concatenate([entries[0][half:], entries[0][:half]]))
        entries[2] = np.concatenate([entries[2], entries[2]])
    off_diag = entries[0] != entries[1]
    loops = (off_diag.size - int(np.count_nonzero(off_diag))) >> mirror  # mirrored, each is twice
    if loops:
        log.warning("%s: dropped %d self-loop entr%s", path, loops, "y" if loops == 1 else "ies")
    return _csr(n, entries, off_diag)


def load_matrix_market(path: str) -> tuple[SparseMatrix, LabelMap]:
    """Read a Matrix Market coordinate file as a square graph.

    Supports the real, integer, and pattern fields crossed with general and
    symmetric symmetry; pattern entries take weight 1.0. Coordinates
    are 1-based in the file and become 0-based internally; the label map
    exposes the file's own 1-based vertex numbers as the external labels.
    """
    lines, source = _open(path)
    try:
        header = _mm_header(path, lines)
        entries = _bulk_mm(lines, source, header)
    except (GraphLoadError, UnicodeDecodeError):  # the walker raises it from memory
        entries = None
    if entries is None:
        lines = _reread(path, lines, source)
        header = _mm_header(path, lines)
        entries = _walk_mm(path, lines, header)
    lines.close()  # free the text before the build
    del lines
    n, _, _, symmetric, size_line = header
    try:
        matrix = _build(path, n, entries, mirror=symmetric)
        return matrix, LabelMap(np.arange(1, n + 1, dtype=INDEX_DTYPE))
    except MemoryError:
        message = f"matrix dimension {n} is too large to allocate"
        raise ValidationError(path, size_line, message) from None


def _mm_header(path: str, lines: TextIO) -> _Header:
    """Read the banner and the size line."""
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
    lineno, parts = next(_data_lines(lines, 1, "%"))
    if parts is None:
        raise ParseError(path, lineno, "missing size line")
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
    if declared < 0:
        raise ParseError(path, lineno, "entry count must be non-negative")
    return nr, declared, 2 if field == "pattern" else 3, symmetry == "symmetric", lineno


def _bulk_mm(lines: TextIO, source: str | None, header: _Header) -> _Entries | None:
    """The entries after the size line, shifted to 0-based in place, or None."""
    n, declared, width, _, size_line = header
    parsed = _bulk(lines, source, "%", width, size_line)
    if parsed is None:
        return None
    r, c, _ = parsed
    if r.size != declared or not (r.min() >= 1 and r.max() <= n and c.min() >= 1 and c.max() <= n):
        return None
    r -= 1
    c -= 1
    return parsed


def _walk_mm(path: str, lines: TextIO, header: _Header) -> _Entries:
    """Line-by-line entry reader: raises the first error with its line."""
    n, declared, width, _, size_line = header
    pairs: list[int] = []
    vals: list[float] = []
    for lineno, parts in _data_lines(lines, size_line, "%"):
        if parts is None:
            break
        if len(vals) == declared:
            raise ParseError(path, lineno, f"more than the declared {declared} entries")
        if len(parts) != width:
            raise ParseError(path, lineno, f"expected {width} tokens, got {len(parts)}")
        r, c = _labels(path, lineno, parts, "coordinates")
        if not (1 <= r <= n and 1 <= c <= n):
            raise ParseError(path, lineno, f"coordinate ({r}, {c}) outside 1..{n}")
        pairs += r - 1, c - 1
        vals.append(_weight(path, lineno, parts))
    if len(vals) != declared:
        raise ParseError(path, lineno, f"file ended after {len(vals)} of {declared} entries")
    return _arrays(pairs, vals)


def load_edge_list(path: str, directed: bool = True) -> tuple[SparseMatrix, LabelMap]:
    """Read a whitespace edge list: 'u v' or 'u v w' per line; 'u v' has weight 1.0.

    Labels are arbitrary non-negative integers; each vertex's id is its
    label's rank among the distinct labels. '#' and '%' start comment
    lines. Undirected input stores both directions of every edge.
    """
    lines, source = _open(path)
    try:
        entries = _bulk(lines, source, "#%")  # the first data line sets the width
    except UnicodeDecodeError:  # in the header: the walker raises it from memory
        entries = None
    if entries is None or entries[0].min() < 0 or entries[1].min() < 0:
        lines = _reread(path, lines, source)
        entries = _walk_edge_list(path, lines)
    lines.close()  # free the text; ids other than the labels themselves free the parsed table
    del lines
    entries[0], entries[1], externals = _intern(entries[0], entries[1])
    return _build(path, len(externals), entries, mirror=not directed), LabelMap(externals)


def _intern(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each label's rank among the distinct labels of u and v: returns the
    ids of u, the ids of v and the increasing labels by id. Labels below 2m
    mark a presence table by label; when they fill 0..max, each label is its
    own id and u and v are returned as they are. Sparser labels, and the
    walker's Python ints beyond int64, are sorted."""
    size = int(max(u.max(), v.max())) + 1
    if size <= 2 * u.size:
        seen = np.zeros(size, dtype=bool)
        seen[u] = seen[v] = True
        labels = np.flatnonzero(seen)
        if labels.size == size:
            return u, v, labels
        rank = np.zeros(size, dtype=INDEX_DTYPE)
        rank[labels] = np.arange(labels.size)
        return rank[u], rank[v], labels
    labels, ids = np.unique(np.concatenate([u, v]), return_inverse=True)
    return ids[: u.size], ids[u.size :], labels


def _walk_edge_list(path: str, lines: TextIO) -> _Entries:
    """Line-by-line edge reader: raises the first error with its line."""
    pairs: list[int] = []
    vals: list[float] = []
    for lineno, parts in _data_lines(lines, 0, "#%"):
        if parts is None:
            break
        if len(parts) not in (2, 3):
            raise ParseError(path, lineno, f"expected 'u v' or 'u v w', got {len(parts)} tokens")
        u, v = _labels(path, lineno, parts, "vertex labels")
        if u < 0 or v < 0:
            raise ParseError(path, lineno, "vertex labels must be non-negative")
        vals.append(_weight(path, lineno, parts))
        pairs += u, v
    if not vals:
        raise ParseError(path, max(lineno, 1), "no vertices found")
    return _arrays(pairs, vals)


def load_graph(spec: GraphFile) -> tuple[SparseMatrix, LabelMap]:
    """Dispatch on the declared format. For Matrix Market files the header's
    symmetry decides directedness; the flag only steers edge lists."""
    if spec.format == "mtx":
        return load_matrix_market(spec.path)
    if spec.format == "edges":
        return load_edge_list(spec.path, directed=spec.directed)
    raise ValueError(f"unknown graph format {spec.format!r}")
