"""Loader tests: happy paths for both formats, every malformed-input error
with its exact line number, self-loop warnings, duplicate collapsing, label
mapping, and stdin support."""

from __future__ import annotations

import functools
import gzip
import io
import logging
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import deltasparse
import deltasparse.io as loaders
from deltasparse import (
    GraphFile,
    GraphLoadError,
    LabelMap,
    ParseError,
    ValidationError,
    load_edge_list,
    load_graph,
    load_matrix_market,
    matrix_build,
)
from deltasparse.core import _min_by_key

from conftest import check_matrix, entry_set


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- mtx happy


def test_mtx_general_real(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 3 3\n"
        "1 2 2.5\n"
        "2 3 1.0\n"
        "1 3 0.25\n",
    )
    matrix, labels = load_matrix_market(path)
    assert matrix.n == 3
    assert entry_set(matrix) == {(0, 1, 2.5), (1, 2, 1.0), (0, 2, 0.25)}
    assert labels.externals == [1, 2, 3]
    assert labels.to_internal(1) == 0
    assert labels.to_external(2) == 3
    check_matrix(matrix)


def test_mtx_symmetric_pattern(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(1, 0, 1.0), (0, 1, 1.0)}


def test_mtx_integer_field(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 3.0)}


def test_mtx_pattern_default_weight(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 1.0)}


def test_mtx_header_case_insensitive(tmp_path):
    path = write(
        tmp_path,
        "%%matrixmarket MATRIX Coordinate REAL General\n2 2 1\n1 2 1.5\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 1.5)}


def test_mtx_self_loop_dropped_with_warning(tmp_path, caplog):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n1 2 1.0\n",
    )
    with caplog.at_level(logging.WARNING, logger="deltasparse.io"):
        matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 1.0)}
    assert "dropped 1 self-loop" in caplog.text


def test_mtx_duplicates_take_minimum(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 5.0\n1 2 2.0\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 2.0)}


def test_mtx_blank_and_comment_lines_between_entries(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "\n% note\n3 3 2\n1 2 1.0\n\n2 3 4.0\n",
    )
    matrix, _ = load_matrix_market(path)
    assert entry_set(matrix) == {(0, 1, 1.0), (1, 2, 4.0)}


def test_mtx_comments_after_size_line_keep_the_bulk_parse(tmp_path, monkeypatch):
    banner = "%%MatrixMarket matrix coordinate real general\n3 3 3\n"
    body = "1 2 1.5\n2 3 4.0\n3 1 0.5\n"
    plain = write(tmp_path, banner + body, "plain.mtx")
    noted = write(tmp_path, banner + "% note\n\n%another\n" + body, "noted.mtx")
    want, _ = load_matrix_market(plain)

    def refuse(*args):
        raise AssertionError("a valid file fell back to the line walker")

    monkeypatch.setattr("deltasparse.io._walk_mm", refuse)
    got, labels = load_matrix_market(noted)
    assert got == want and labels.externals == [1, 2, 3]


# ---------------------------------------------------------------- mtx errors


def mtx_error(tmp_path, text, name="bad.mtx"):
    path = write(tmp_path, text, name)
    with pytest.raises(GraphLoadError) as info:
        load_matrix_market(path)
    return path, info.value


def test_mtx_bad_header(tmp_path):
    path, err = mtx_error(tmp_path, "not a header\n1 1 0\n")
    assert isinstance(err, ParseError)
    assert err.lineno == 1
    assert str(err) == f"{path}:1: {err.message}"
    assert "header" in err.message


def test_mtx_unsupported_layout(tmp_path):
    _, err = mtx_error(tmp_path, "%%MatrixMarket matrix array real general\n")
    assert "unsupported layout" in err.message
    _, err = mtx_error(tmp_path, "%%MatrixMarket vector coordinate real general\n")
    assert "unsupported layout" in err.message


def test_mtx_unsupported_field(tmp_path):
    _, err = mtx_error(tmp_path, "%%MatrixMarket matrix coordinate complex general\n")
    assert err.lineno == 1
    assert "unsupported field 'complex'" in err.message


def test_mtx_unsupported_symmetry(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real skew-symmetric\n"
    )
    assert "unsupported symmetry" in err.message


def test_mtx_bad_size_line(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n3 3\n"
    )
    assert err.lineno == 2
    assert "size line" in err.message


def test_mtx_size_line_not_integers(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n3 3 x\n"
    )
    assert err.lineno == 2
    assert "three integers" in err.message


def test_mtx_nonsquare(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n3 4 1\n1 2 1.0\n"
    )
    assert "square" in err.message and "3x4" in err.message


def test_mtx_zero_dimension(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n0 0 0\n"
    )
    assert "dimension must be positive" in err.message


def test_mtx_wrong_token_count(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n"
    )
    assert err.lineno == 3
    assert "expected 3 tokens, got 2" in err.message


def test_mtx_non_integer_coordinates(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\na 2 1.0\n"
    )
    assert err.lineno == 3
    assert "coordinates must be integers" in err.message


def test_mtx_coordinate_out_of_range(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n3 3 1\n5 1 1.0\n"
    )
    assert "coordinate (5, 1) outside 1..3" in err.message


@pytest.mark.parametrize("entry", ["0 2", "4 2", "2 0", "2 4"])
def test_mtx_coordinate_just_outside_each_bound(tmp_path, entry):
    # one past each end of 1..n, in either coordinate, after an entry in range
    text = f"%%MatrixMarket matrix coordinate real general\n3 3 2\n3 3 1.0\n{entry} 1.0\n"
    path, err = mtx_error(tmp_path, text)
    r, c = entry.split()
    assert str(err) == f"{path}:4: coordinate ({r}, {c}) outside 1..3"


def test_mtx_bad_weight_is_parse_error(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 abc\n"
    )
    assert isinstance(err, ParseError)
    assert err.lineno == 3
    assert "bad weight 'abc'" in err.message


def test_mtx_nonpositive_weight_is_validation_error(tmp_path):
    for token in ("0", "-1.5", "inf"):
        _, err = mtx_error(
            tmp_path,
            f"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 {token}\n",
        )
        assert isinstance(err, ValidationError)
        assert "strictly positive" in err.message


def test_mtx_excess_entries(tmp_path):
    _, err = mtx_error(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n2 1 1.0\n",
    )
    assert err.lineno == 4
    assert "more than the declared 1 entries" in err.message


def test_mtx_truncated_file(tmp_path):
    _, err = mtx_error(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n"
    )
    assert err.lineno == 3
    assert "file ended after 1 of 2 entries" in err.message


def test_mtx_empty_file(tmp_path):
    _, err = mtx_error(tmp_path, "")
    assert err.lineno == 1
    assert "empty file" in err.message


def test_mtx_missing_size_line(tmp_path):
    _, err = mtx_error(tmp_path, "%%MatrixMarket matrix coordinate real general\n")
    assert "missing size line" in err.message


def test_mtx_negative_entry_count(tmp_path):
    path, err = mtx_error(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
    assert isinstance(err, ParseError)
    assert str(err) == f"{path}:2: entry count must be non-negative"


MM = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "name, text, want",
    [
        # the last line counts, even when it is blank or a comment
        (
            "trail.mtx",
            MM + "2 2 2\n1 2 1.0\n\n% tail\n\n",
            "trail.mtx:6: file ended after 1 of 2 entries",
        ),
        ("nosize.mtx", MM + "% one\n\n% two\n", "nosize.mtx:4: missing size line"),
        ("comments.edges", "# a\n\n% b\n", "comments.edges:3: no vertices found"),
        (
            "excess.mtx",
            MM + "2 2 1\n1 2 1.0\n% inner\n2 1 1.0\n",
            "excess.mtx:5: more than the declared 1 entries",
        ),
        (
            "badtok.mtx",
            MM + "2 2 2\n1 2 1.0\n% inner\nx 1 1.0\n",
            "badtok.mtx:5: coordinates must be integers",
        ),
        (
            "badtok.edges",
            "0 1 1.0\n# inner\n1 y 1.0\n",
            "badtok.edges:3: vertex labels must be integers",
        ),
    ],
)
def test_error_line_numbers(tmp_path, monkeypatch, name, text, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    load = load_matrix_market if name.endswith(".mtx") else load_edge_list
    with pytest.raises(ParseError) as info:
        load(name)
    assert str(info.value) == want


# ---------------------------------------------------------------- edge lists


def test_edges_undirected_default_weight(tmp_path):
    path = write(tmp_path, "0 1\n1 2\n")
    matrix, labels = load_edge_list(path, directed=False)
    assert entry_set(matrix) == {
        (0, 1, 1.0),
        (1, 0, 1.0),
        (1, 2, 1.0),
        (2, 1, 1.0),
    }
    assert labels.externals == [0, 1, 2]
    check_matrix(matrix)


def test_edges_directed_with_remapping(tmp_path):
    # ASCII input skips the UTF-8 check's decode; a non-ASCII comment takes it
    for name, comment in (("ascii.txt", "# comment"), ("utf8.txt", "# caf\u00e9")):
        path = tmp_path / name
        path.write_bytes(f"{comment}\n5 9 2.5\n".encode("utf-8"))
        matrix, labels = load_edge_list(str(path), directed=True)
        assert matrix.n == 2
        assert entry_set(matrix) == {(0, 1, 2.5)}
        assert labels.externals == [5, 9]
        assert [labels.to_internal(x) for x in (5, 9)] == [0, 1]
        assert labels.to_external(0) == 5
        with pytest.raises(KeyError):
            labels.to_internal(7)


def test_edges_ids_are_label_ranks(tmp_path):
    # first seen as 4, 2, 0: the ids still follow the labels' order
    path = write(tmp_path, "4 2 1.0\n2 0 1.0\n")
    matrix, labels = load_edge_list(path)
    assert labels.externals == [0, 2, 4]
    assert entry_set(matrix) == {(2, 1, 1.0), (1, 0, 1.0)}


def test_edges_lone_self_loop_keeps_vertex(tmp_path, caplog):
    path = write(tmp_path, "3 3\n")
    with caplog.at_level(logging.WARNING, logger="deltasparse.io"):
        matrix, labels = load_edge_list(path)
    assert matrix.n == 1
    assert matrix.nnz == 0
    assert labels.externals == [3]
    assert "dropped 1 self-loop" in caplog.text


def test_edges_percent_comment(tmp_path):
    path = write(tmp_path, "% header-ish\n0 1 2.0\n")
    matrix, _ = load_edge_list(path)
    assert entry_set(matrix) == {(0, 1, 2.0)}


def test_edges_duplicates_take_minimum(tmp_path):
    path = write(tmp_path, "0 1 5\n0 1 2\n")
    matrix, _ = load_edge_list(path)
    assert entry_set(matrix) == {(0, 1, 2.0)}


def test_edges_wrong_token_count(tmp_path):
    path = write(tmp_path, "0 1 2.0\n0 1 2 3\n")
    with pytest.raises(ParseError) as info:
        load_edge_list(path)
    assert info.value.lineno == 2
    assert "expected 'u v' or 'u v w', got 4 tokens" in info.value.message


def test_edges_non_integer_labels(tmp_path):
    path = write(tmp_path, "a b\n")
    with pytest.raises(ParseError) as info:
        load_edge_list(path)
    assert "vertex labels must be integers" in info.value.message


def test_edges_negative_labels(tmp_path):
    path = write(tmp_path, "-1 2\n")
    with pytest.raises(ParseError) as info:
        load_edge_list(path)
    assert "non-negative" in info.value.message


def test_edges_bad_weights(tmp_path):
    with pytest.raises(ValidationError):
        load_edge_list(write(tmp_path, "0 1 0.0\n"))
    with pytest.raises(ParseError):
        load_edge_list(write(tmp_path, "0 1 nope\n"))


def test_edges_empty_input(tmp_path):
    with pytest.raises(ParseError) as info:
        load_edge_list(write(tmp_path, ""))
    assert info.value.lineno == 1
    assert "no vertices found" in info.value.message
    with pytest.raises(ParseError):
        load_edge_list(write(tmp_path, "# only comments\n"))


def test_edges_undirected_reverse_duplicates_min(tmp_path):
    path = write(tmp_path, "0 1 3\n1 0 1\n")
    matrix, _ = load_edge_list(path, directed=False)
    assert entry_set(matrix) == {(0, 1, 1.0), (1, 0, 1.0)}


def test_edges_from_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2.0\n1 2 3.0\n"))
    matrix, _ = load_edge_list("-")
    assert entry_set(matrix) == {(0, 1, 2.0), (1, 2, 3.0)}


def _ranks(u: list, v: list) -> tuple[list[int], list[int], list]:
    """The ids of u and v and the labels by id, from sorted(set(...))."""
    labels = sorted(set(u + v))
    rank = {label: i for i, label in enumerate(labels)}
    return [rank[x] for x in u], [rank[x] for x in v], labels


def _intern_cases():
    """(u, v) label lists: random ones whose largest label + 1 is at most
    2m, a fifth of their edges self-loops, then the edge cases."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(1, 40))
        top = int(rng.integers(1, 2 * m + 1))
        u = rng.integers(0, top, m)
        v = np.where(rng.random(m) < 0.2, u, rng.integers(0, top, m))
        yield u.tolist(), v.tolist()
    yield [0], [0]  # label 0 only
    yield [0, 0], [0, 0]
    yield [0], [1]  # one edge, max + 1 == 2m, labels 0..max
    yield [1], [1]  # labels 1..max: 0 missing
    yield [2, 0, 3], [0, 2, 1]  # labels 0..max
    yield [2, 0, 4], [0, 2, 1]  # 3 missing
    yield [3], [7]  # one edge, max + 1 > 2m
    yield [5, 0, 2], [1, 5, 3]  # max + 1 == 2m
    yield [6, 0, 2], [1, 6, 3]  # max + 1 == 2m + 1
    yield [4, 4, 1], [4, 2, 2]  # self-loops
    yield [10**12, 3, 7], [2**62, 10**12, 3]
    yield [2**63 - 1, 5, 2**62 + 1], [0, 2**63 - 1, 7]  # up to the int64 top
    yield [2**64 + 3, 7, 2**63], [9, 2**64 + 3, 7]  # beyond int64: Python ints


def test_intern_branches_match_a_rank_reference(tmp_path, monkeypatch):
    # The table branch runs when max label + 1 <= 2m, and returns u and v
    # themselves when the labels are exactly 0..max; shifting every label
    # past 2m keeps their order and drives the sort branch, which also takes
    # the object arrays of labels beyond int64.
    branches = set()
    for u, v in _intern_cases():
        m2 = 2 * len(u)
        shifted = ([x * (m2 + 1) + m2 for x in u], [x * (m2 + 1) + m2 for x in v])
        for su, sv in ((u, v), shifted) if max(u + v) < 2**40 else ((u, v),):
            top = max(su + sv)
            branch = "object" if top >= 2**63 else "sort" if top + 1 > m2 else "table"
            if branch == "table" and set(su + sv) == set(range(top + 1)):
                branch = "identity"
            dtype = object if branch == "object" else np.int64
            au, av = np.array(su, dtype), np.array(sv, dtype)
            ids_u, ids_v, labels = loaders._intern(au, av)
            assert ids_u.dtype == ids_v.dtype == np.int64 and labels.dtype == dtype
            assert (ids_u.tolist(), ids_v.tolist(), labels.tolist()) == _ranks(su, sv)
            assert (ids_u is au and ids_v is av) == (branch == "identity")
            branches.add(branch)
        body = "".join(f"{a} {b} {i + 1}\n" for i, (a, b) in enumerate(zip(u, v)))
        path = write(tmp_path, body)
        matrix, labels = load_edge_list(path)
        want_u, want_v, want_labels = _ranks(u, v)
        triples = [(a, b, i + 1.0) for i, (a, b) in enumerate(zip(want_u, want_v))]
        assert labels.externals == want_labels
        assert matrix == matrix_build(len(want_labels), np.array(triples).reshape(-1, 3))
        with monkeypatch.context() as patch:
            patch.setattr(loaders, "_loadtxt", lambda *args: None)
            walked, walked_labels = load_edge_list(path)
        assert walked == matrix and walked_labels.externals == want_labels
    assert branches == {"identity", "table", "sort", "object"}


def _runs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled triples in runs of 1-6 equal coordinates (self-loops too),
    with weights from four values so that runs hold tied minima."""
    rows, cols, vals = [], [], []
    for r, c in rng.integers(0, n, (int(rng.integers(1, 3 * n)), 2)).tolist():
        copies = int(rng.integers(1, 7))
        rows += [r] * copies
        cols += [c] * copies
        vals += rng.choice([0.5, 1.0, 2.0, 7.25], copies).tolist()
    perm = rng.permutation(len(rows))
    return np.array(rows)[perm], np.array(cols)[perm], np.array(vals)[perm]


def _min_entries(rows, cols, vals, mirror: bool = False) -> set[tuple[int, int, float]]:
    """Dict-min reference: the off-diagonal entries, mirrored if asked,
    each coordinate with its smallest weight."""
    best: dict[tuple[int, int], float] = {}
    for r, c, w in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        for key in ((r, c), (c, r)) if mirror else ((r, c),):
            if r != c:
                best[key] = min(w, best.get(key, w))
    return {(r, c, w) for (r, c), w in best.items()}


def test_duplicates_fold_to_their_minimum(tmp_path):
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        rows, cols, vals = _runs(rng, n)
        # keys past 2**62 cannot share an int64 with their position: argsort
        # branch. Neither branch nor matrix_build writes into its arguments.
        key, wide = rows * n + cols, rows * n + cols + 2**62
        table = np.column_stack([rows, cols, vals])
        inputs = [a.copy() for a in (key, wide, vals, table)]
        packed, unpacked = _min_by_key([key, vals]), _min_by_key([wide, vals])
        assert np.array_equal(packed[0] + 2**62, unpacked[0])
        assert np.array_equal(packed[1], unpacked[1])
        built = matrix_build(n, table)
        for before, after in zip(inputs, (key, wide, vals, table)):
            assert before.tobytes() == after.tobytes()
        check_matrix(built)
        assert entry_set(built) == _min_entries(rows, cols, vals)
        triples = list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
        for directed in (True, False):
            body = "".join(f"{r} {c} {w!r}\n" for r, c, w in triples)
            matrix, labels = load_edge_list(write(tmp_path, body), directed=directed)
            check_matrix(matrix)
            ext = labels.to_external
            external = {(ext(i), ext(j), w) for i, j, w in entry_set(matrix)}
            assert external == _min_entries(rows, cols, vals, mirror=not directed)
        for symmetry in ("general", "symmetric"):
            header = f"%%MatrixMarket matrix coordinate real {symmetry}\n{n} {n} {rows.size}\n"
            body = "".join(f"{r + 1} {c + 1} {w!r}\n" for r, c, w in triples)
            matrix, _ = load_matrix_market(write(tmp_path, header + body, "g.mtx"))
            check_matrix(matrix)
            mirror = symmetry == "symmetric"
            assert entry_set(matrix) == _min_entries(rows, cols, vals, mirror=mirror)


# ---------------------------------------------------------------- dispatch


def test_load_graph_dispatch(tmp_path):
    mtx = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.5\n",
        "a.mtx",
    )
    matrix, _ = load_graph(GraphFile(mtx, "mtx"))
    assert entry_set(matrix) == {(0, 1, 1.5)}

    edges = write(tmp_path, "0 1\n", "b.edges")
    matrix, _ = load_graph(GraphFile(edges, "edges", directed=False))
    assert entry_set(matrix) == {(0, 1, 1.0), (1, 0, 1.0)}

    with pytest.raises(ValueError):
        load_graph(GraphFile(edges, "csv"))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_edge_list(str(tmp_path / "nope.txt"))


def _load_seeing_parses(monkeypatch, load, path: str, **patches):
    """A load's CSR bytes and labels, or its error text, and for each numpy
    parse whether it read the file from its path and the kind of its weight
    field ('i', 'f', or None for 'u v' lines). `patches` replace names in
    the loader module for the load."""
    parses = []
    real = loaders._loadtxt

    def spy(source, dtype, skiprows):
        parses.append((isinstance(source, str), dtype["w"].kind if "w" in dtype.names else None))
        return real(source, dtype, skiprows)

    with monkeypatch.context() as patch:
        patch.setattr(loaders, "_loadtxt", spy)
        for name, value in patches.items():
            patch.setattr(loaders, name, value)
        try:
            matrix, labels = load(path)
        except GraphLoadError as exc:
            return str(exc), parses
    loaded = (matrix.indptr.tobytes(), matrix.col.tobytes(), matrix.val.tobytes())
    return (*loaded, labels.externals), parses


def both_routes(tmp_path, data: bytes, name: str) -> list[tuple[str, bool]]:
    """The same bytes as a regular file `name`, which numpy parses from its
    path, and under a `.txt.gz` name, which numpy's opener would decompress,
    so it is read into memory with a file's universal newlines: (path,
    whether numpy parses it from the path) for each."""
    routes = []
    for file, by_path in ((name, True), (name.rsplit(".", 1)[0] + ".txt.gz", False)):
        path = tmp_path / file
        path.write_bytes(data)
        routes.append((str(path), by_path))
    return routes


def test_file_loads_like_its_bytes_through_the_memory_route(tmp_path, monkeypatch):
    # The same bytes parsed from the path and read into memory: the leading
    # comment and blank lines, ended by every newline style, and a comment
    # line longer than any read buffer must be skipped alike. Integer and
    # float weights take one parse each.
    rng = np.random.default_rng(31)
    u, v = rng.integers(1, 3_000, (2, 26_000)).tolist()
    weights = {
        "f": [repr(x) for x in (10.0 * (1.0 - rng.random(len(u)))).tolist()],
        "i": [str(x) for x in rng.integers(1, 1_000, len(u)).tolist()],
    }
    banner = "%%MatrixMarket matrix coordinate real general\r\n% a\r"
    for kind, w in weights.items():
        body = "".join(f"{a} {b} {c}\n" for a, b, c in zip(u, v, w))
        for name, load, head in (
            ("g.edges", load_edge_list, "# a\r% b\r\n\n \t\n#c\n"),
            ("g.mtx", load_matrix_market, f"{banner}3000 3000 {len(u)}\n\n% b\r\n%c\r\r\n"),
        ):
            pad = "%" + "x" * 100_000 + "\n"
            loaded = []
            for path, by_path in both_routes(tmp_path, (head + pad + body).encode(), name):
                got, parses = _load_seeing_parses(monkeypatch, load, path)
                assert parses == [(by_path, kind)]
                loaded.append(got)
            assert loaded[0] == loaded[1]


_NO_TOKEN = re.compile(r"(?!)")  # in place of `_INTEGER`: every weight takes the float layout

# (weight tokens by line, weight kinds numpy parses with, line of the bad weight)
WEIGHT_LAYOUT_CASES = [
    (["9007199254740993", "9007199254740991", "9007199254740992", "9007199254740995"], "i", None),
    (["+7", "007", "3"], "i", None),
    (["5", "2.5", "1"], "if", None),  # integral first, fractional later: parsed again
    (["5", str(2**63), "3"], "if", None),  # beyond int64
    (["-0", "4"], "i", 1),
    (["7", "0", "2"], "i", 2),
    (["7", "2", "-3"], "i", 3),
    (["7", "2", "1.5", "-3"], "if", 4),
]


@pytest.mark.parametrize("tokens, kinds, bad", WEIGHT_LAYOUT_CASES)
def test_integer_and_float_weight_layouts_load_alike(tmp_path, monkeypatch, tokens, kinds, bad):
    # Each file loads three ways: as shipped (int64 weights when the first
    # weight is an integer literal), with every weight parsed as a float, and
    # by the line walker alone. All three give the same matrix and labels bit
    # for bit, or the same `path:line:` error, on both routes to numpy: from
    # the file's path and from memory.
    k = len(tokens)
    field = "integer" if kinds == "i" and bad is None else "real"
    for fmt, mirror in (("edges", False), ("edges", True), ("mtx", False), ("mtx", True)):
        if fmt == "edges":
            text = "# w\n" + "".join(f"{i} {i + 1} {w}\n" for i, w in enumerate(tokens))
            load = functools.partial(load_edge_list, directed=not mirror)
            head = 1
        else:
            symmetry = "symmetric" if mirror else "general"
            text = f"%%MatrixMarket matrix coordinate {field} {symmetry}\n{k + 1} {k + 1} {k}\n"
            text += "".join(f"{i + 1} {i + 2} {w}\n" for i, w in enumerate(tokens))
            load = load_matrix_market
            head = 2
        for path, by_path in both_routes(tmp_path, text.encode(), f"g.{fmt}"):
            shipped, parses = _load_seeing_parses(monkeypatch, load, path)
            assert parses == [(by_path, kind) for kind in kinds]
            floats, parses = _load_seeing_parses(monkeypatch, load, path, _INTEGER=_NO_TOKEN)
            assert parses == [(by_path, "f")]
            walked, _ = _load_seeing_parses(
                monkeypatch, load, path, _loadtxt=lambda *args: None
            )
            assert shipped == floats == walked
            if bad is None and not mirror:  # one edge per row, in file order
                assert shipped[2] == np.array([float(w) for w in tokens]).tobytes()
            elif bad is not None:
                line = head + bad
                message = f"edge weight must be strictly positive, got {tokens[bad - 1]}"
                assert shipped == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "text, kinds, want",
    [
        (MM + "2 2 2\n1 2\n2 1 3\n", "f", "3: expected 3 tokens, got 2"),
        (MM + "2 2 2\n1 2 3 4\n2 1 3\n", "f", "3: expected 3 tokens, got 4"),
        (MM + "2 2 2\n1 2 3\n2 1\n", "if", "4: expected 3 tokens, got 2"),
    ],
)
def test_malformed_first_line_reaches_the_walker(tmp_path, monkeypatch, text, kinds, want):
    # the first data line's weight token picks the layout; a line without
    # one, or with a token too many, fails numpy and the walker names it
    for path, by_path in both_routes(tmp_path, text.encode(), "g.mtx"):
        got, parses = _load_seeing_parses(monkeypatch, load_matrix_market, path)
        assert (got, parses) == (f"{path}:{want}", [(by_path, kind) for kind in kinds])


MM_ARRAY = b"%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "name, data, lineno",
    [
        ("header.edges", b"# caf\xc3\n0 1 2\n", 1),
        ("data.edges", b"# c\n0 1 2\n1 2 \xff\n", 3),
        ("late.edges", b"0 1 2\n" * 3000 + b"\xfe\n", 3001),  # past the first 8 KiB read
        ("header.mtx", MM.encode() + b"% \xe9\n2 2 1\n1 2 1.0\n", 2),
        ("banner.mtx", MM_ARRAY + b"% c\n" * 3000 + b"\xff\n", 3002),  # a header error first
    ],
)
def test_invalid_utf8_fails_alike_from_path_and_memory(tmp_path, name, data, lineno):
    load = load_matrix_market if name.endswith(".mtx") else load_edge_list
    for path, _ in both_routes(tmp_path, data, name):
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == f"{path}:{lineno}: not valid UTF-8"


def test_compressed_names_are_read_as_plain_text(tmp_path, monkeypatch):
    # numpy's path opener would decompress these names, so they are read into
    # memory as the bytes they hold, as `open` reads them
    text = "# c\n0 1 2.5\n1 2 3.0\n"
    want, parses = _load_seeing_parses(monkeypatch, load_edge_list, write(tmp_path, text))
    assert parses == [(True, "f")]
    for suffix in (".gz", ".bz2", ".xz", ".lzma", ".GZ"):
        path = write(tmp_path, text, "g.txt" + suffix)
        got, parses = _load_seeing_parses(monkeypatch, load_edge_list, path)
        assert (got, parses) == (want, [(False, "f")])
    packed = tmp_path / "packed.txt.gz"
    packed.write_bytes(gzip.compress(text.encode(), mtime=0))
    with pytest.raises(ParseError) as info:
        load_edge_list(str(packed))
    assert str(info.value) == f"{packed}:1: not valid UTF-8"
    # numpy's opener would also try `name.gz` when `name` is missing
    (tmp_path / "only.txt.gz").write_bytes(packed.read_bytes())
    with pytest.raises(FileNotFoundError):
        load_edge_list(str(tmp_path / "only.txt"))


def test_url_shaped_relative_name_is_a_local_file(tmp_path, monkeypatch):
    # numpy's path opener would take 'a://b/g.txt' for a URL to download
    (tmp_path / "a:" / "b").mkdir(parents=True)
    (tmp_path / "a:" / "b" / "g.txt").write_text("0 1 2.5\n")
    monkeypatch.chdir(tmp_path)
    loaded, parses = _load_seeing_parses(monkeypatch, load_edge_list, "a://b/g.txt")
    assert parses == [(True, "f")]
    assert loaded[3] == [0, 1]
    matrix, _ = load_edge_list("a://b/g.txt")
    assert entry_set(matrix) == {(0, 1, 2.5)}


def test_label_map_range_equals_list():
    # a range is held as the array of its labels, and answers as that array does
    for labels in (LabelMap(range(1, 4)), LabelMap(np.array([1, 2, 3]))):
        assert len(labels) == 3
        assert labels.externals == [1, 2, 3]
        assert [labels.to_internal(x) for x in (1, 2, 3)] == [0, 1, 2]
        assert [labels.to_external(i) for i in (0, 1, 2)] == [1, 2, 3]
        for missing in (0, 4):
            with pytest.raises(KeyError):
                labels.to_internal(missing)


def test_label_map_searches_its_label_array(tmp_path):
    # the bulk loader's int64 labels, and an object array with a label beyond
    # int64, are looked up by a search of the array; labels outside int64 are absent
    _, bulk = load_edge_list(write(tmp_path, "7 3\n3 9\n"))
    wide = LabelMap(np.array([7, 9, 2**64 + 3], dtype=object))
    for labels, want in ((bulk, [3, 7, 9]), (wide, [7, 9, 2**64 + 3])):
        assert [labels.to_internal(x) for x in want] == [0, 1, 2]
        assert labels.externals == want
        assert labels.to_external_array(np.array([2, 0, 1])).tolist() == [want[2], *want[:2]]
        for missing in (-1, 8, 2**63, 2**70):
            with pytest.raises(KeyError):
                labels.to_internal(missing)
    assert bulk.to_external_array(np.array([1])).dtype == np.int64
    assert LabelMap(range(1, 4)).to_external_array(np.array([2, 0])).tolist() == [3, 1]


def test_mtx_labels_are_implicit(tmp_path):
    # 2*10^6 declared vertices and 2 entries: the identity labels are one
    # int64 array, as long as the row pointers, not a list and a dict of n
    # Python ints (about 250 MiB traced)
    n = 2_000_000
    path = write(
        tmp_path,
        f"%%MatrixMarket matrix coordinate real general\n{n} {n} 2\n1 2 1.5\n{n} 1 2.0\n",
    )
    tracemalloc.start()
    try:
        matrix, labels = load_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert matrix.n == len(labels) == n
    assert entry_set(matrix) == {(0, 1, 1.5), (n - 1, 0, 2.0)}
    assert (labels.to_internal(1), labels.to_internal(n), labels.to_external(0)) == (0, n - 1, 1)
    last = labels.to_external_array(np.array([n - 1, 0]))
    assert last.dtype == np.int64 and last.tolist() == [n, 1]
    for missing in (0, n + 1):
        with pytest.raises(KeyError):
            labels.to_internal(missing)


def _peak_inputs(tmp_path) -> tuple[int, str, str, str]:
    """m, and an edge list, a general and a symmetric Matrix Market file of
    the same m random edges on 20,000 vertices."""
    rng = np.random.default_rng(11)
    m, n = 120_000, 20_000
    u, v, w = (rng.integers(lo, hi, m).tolist() for lo, hi in ((0, n), (0, n), (1, 100)))
    edges = write(tmp_path, "".join(f"{a} {b} {c}\n" for a, b, c in zip(u, v, w)), "peak.edges")
    body = "".join(f"{a + 1} {b + 1} {c}\n" for a, b, c in zip(u, v, w))
    mtx = [
        write(tmp_path, f"%%MatrixMarket matrix coordinate real {sym}\n{n} {n} {m}\n" + body, name)
        for sym, name in (("general", "peak.mtx"), ("symmetric", "peak-sym.mtx"))
    ]
    return m, edges, *mtx


def test_load_peak_memory_per_edge(tmp_path):
    # The build owns its inputs: each array is freed once it is used, so the
    # text, the parsed table (24 bytes an edge here), the labels' ids, the
    # key and the sort's arrays are never all alive together. Traced peaks
    # per input edge at 120,000 edges: 49.4 bytes for the directed edge
    # list, 69.4 undirected, 41.0 for the general Matrix Market file and
    # 68.0 for the symmetric one. A build that keeps its callers' arrays and
    # copies them to drop self-loops read 91.7, 156.4, 90.3 and 155.0.
    m, edges, mtx, symmetric = _peak_inputs(tmp_path)
    cases = (
        (lambda: load_edge_list(edges), 57, 1),
        (lambda: load_edge_list(edges, directed=False), 80, 2),
        (lambda: load_matrix_market(mtx), 47, 1),
        (lambda: load_matrix_market(symmetric), 78, 2),
    )
    for load, bound, copies in cases:
        tracemalloc.start()
        try:
            matrix, _ = load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.nnz > 0.99 * copies * m
        assert peak < bound * m, (bound, peak / m)


def test_file_parsed_from_its_path_is_never_held_as_text(tmp_path):
    # repr weights make a line (about 29 bytes) longer than its table row (24
    # bytes), as on the kron workload. Parsed from its path, the text is never
    # held: 41.6 bytes an edge traced at 120,000 edges, against 56.2 when the
    # same bytes, under a `.txt.gz` name, are read into memory first.
    rng = np.random.default_rng(13)
    m, n = 120_000, 20_000
    u, v = rng.integers(1, n + 1, (2, m)).tolist()
    w = (10.0 * (1.0 - rng.random(m))).tolist()
    body = "".join(f"{a} {b} {c!r}\n" for a, b, c in zip(u, v, w))
    data = f"%%MatrixMarket matrix coordinate real general\n{n} {n} {m}\n{body}".encode()
    assert len(data) > 28 * m
    for path, by_path in both_routes(tmp_path, data, "g.mtx"):
        tracemalloc.start()
        try:
            matrix, _ = load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.nnz > 0.99 * m
        assert (peak < 47 * m) == by_path, peak / m


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_load_resident_peak_per_edge(tmp_path):
    # The resident high-water mark of one load in a fresh process, which is
    # what the benchmark's setup_peak_mib reads. It covers what tracemalloc
    # does not see, such as freed memory the allocator keeps. At 120,000
    # edges it grows 51-55 bytes an edge; a build that keeps its callers'
    # arrays grew 108-111.
    m, edges, _, _ = _peak_inputs(tmp_path)
    script = (
        "import sys\n"
        "from deltasparse import load_edge_list\n"
        "def kib(field):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(ln.split()[1]) for ln in fh if ln.startswith(field + ':'))\n"
        "before = kib('VmRSS')\n"
        "load_edge_list(sys.argv[1])\n"
        "print(kib('VmHWM') - before)\n"
    )
    src = os.path.dirname(os.path.dirname(deltasparse.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script, edges], capture_output=True, text=True, env=env, check=True
    )
    grown = int(done.stdout) * 1024
    assert grown < 75 * m, grown / m


def test_label_map_round_trip():
    labels = LabelMap(np.array([10, 20, 30]))
    assert len(labels) == 3
    for internal, external in enumerate([10, 20, 30]):
        assert labels.to_internal(external) == internal
        assert labels.to_external(internal) == external
    copy = labels.externals
    copy.append(99)
    assert len(labels) == 3
