"""Loader equivalence: the bulk parse and the line walker agree on random files.

Every generated file is loaded twice: once as the loaders ship (bulk parse
first) and once with the bulk parse switched off, so that only the line
walker reads it. Both must give the same matrix bit for bit and the same
label map, or raise the same error at the same line. Mutated copies (cut
short, an extra token on a line, a 4-token size line) must fail the same
way and exit 1 from the CLI with just the `path:line:` message. Every
regular file is parsed from its path, so the `_in_memory` twins rerun the
tests with each file under a `.txt.gz` name, which the loaders read into
memory with a file's universal newlines.
"""

from __future__ import annotations

import io
import os

import numpy as np
import pytest

import deltasparse.io as loaders
from deltasparse import GraphLoadError, load_edge_list, load_matrix_market
from deltasparse.cli import main

from conftest import entry_set

SEPARATORS = (" ", "\t", "  ", " \t ")
BIG_LABELS = (2**63, 2**63 + 7, 2**64 + 5)


def _weight(rng: np.random.Generator, integer: bool) -> str:
    if integer:
        return str(int(rng.integers(1, 10)))
    x = float(10.0 * (1.0 - rng.random()))
    forms = (repr(x), f"{x:.3e}", f"{x:.2f}", ".5", "5.", "1E1", "+2.25")
    return forms[int(rng.integers(0, len(forms)))]


def _label(rng: np.random.Generator, value: int) -> str:
    r = rng.random()
    if r < 0.05:
        return f"+{value}"
    if r < 0.08:
        return f"0{value}"
    if value == 1000 and r < 0.5:
        return "1_000"
    return str(value)


def _join(rng: np.random.Generator, tokens: list[str]) -> str:
    sep = SEPARATORS[int(rng.integers(0, len(SEPARATORS)))]
    line = sep.join(tokens)
    if rng.random() < 0.15:
        line = " " + line
    if rng.random() < 0.15:
        line = line + "\t "
    return line


def _filler(rng: np.random.Generator, comment: str, comments: bool) -> list[str]:
    """Blank or whitespace-only lines, and comment lines if allowed."""
    r = rng.random()
    if r < 0.06:
        return [""]
    if r < 0.09:
        return [" \t"]
    if comments and r < 0.13:
        return [f"{' ' * int(rng.integers(0, 3))}{comment} note {int(rng.integers(0, 99))}"]
    return []


def edge_list_case(rng: np.random.Generator) -> dict:
    """A random edge list. `plain` files hold nothing numpy cannot parse,
    so the bulk path must load them without the walker."""
    width = ("2", "3", "mixed")[int(rng.choice(3, p=[0.3, 0.55, 0.15]))]
    big = rng.random() < 0.15
    underscore = rng.random() < 0.1
    inner_comments = rng.random() < 0.15
    pool = list(range(12)) + (list(BIG_LABELS) if big else []) + ([1000] if underscore else [])
    lines: list[str] = []
    for _ in range(int(rng.integers(0, 3))):
        lines.append(f"{' ' * int(rng.integers(0, 2))}{'#%'[int(rng.integers(0, 2))]} header")
    data: list[int] = []
    widths = set()
    for _ in range(int(rng.integers(0, 25))):
        lines += _filler(rng, "#%"[int(rng.integers(0, 2))], inner_comments)
        u = int(pool[int(rng.integers(0, len(pool)))])
        v = u if rng.random() < 0.1 else int(pool[int(rng.integers(0, len(pool)))])
        tokens = [_label(rng, u), _label(rng, v)]
        if width == "3" or (width == "mixed" and rng.random() < 0.5):
            tokens.append(_weight(rng, rng.random() < 0.5))
        widths.add(len(tokens))
        data.append(len(lines))
        lines.append(_join(rng, tokens))
    lines += _filler(rng, "#", inner_comments)
    return {
        "lines": lines,
        "data": data,
        "size": None,
        "plain": bool(data) and len(widths) == 1 and not (big or underscore or inner_comments),
        "format": "edges",
        "directed": bool(rng.random() < 0.5),
    }


def matrix_market_case(rng: np.random.Generator) -> dict:
    field = ("real", "integer", "pattern")[int(rng.integers(0, 3))]
    symmetry = ("general", "symmetric")[int(rng.integers(0, 2))]
    banner = f"%%MatrixMarket matrix coordinate {field} {symmetry}"
    if rng.random() < 0.2:
        banner = banner.upper()
    inner_comments = rng.random() < 0.15
    n = int(rng.integers(1, 12))
    k = int(rng.integers(0, 20))
    lines = [banner]
    for _ in range(int(rng.integers(0, 3))):
        lines.append(("% comment", "")[int(rng.integers(0, 2))])
    size = len(lines)
    lines.append(_join(rng, [str(n), str(n), str(k)]))
    data: list[int] = []
    for _ in range(k):
        lines += _filler(rng, "%", inner_comments)
        r = int(rng.integers(1, n + 1))
        c = r if rng.random() < 0.1 else int(rng.integers(1, n + 1))
        tokens = [str(r), str(c)]
        if field != "pattern":
            tokens.append(_weight(rng, field == "integer"))
        data.append(len(lines))
        lines.append(_join(rng, tokens))
    return {
        "lines": lines,
        "data": data,
        "size": size,
        "plain": k > 0 and not inner_comments,
        "format": "mtx",
        "directed": True,
    }


def render(case: dict, rng: np.random.Generator) -> bytes:
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    text = newline.join(case["lines"])
    if case["lines"] and rng.random() < 0.8:
        text += newline
    return text.encode("utf-8")


BAD_TOKENS = ("-3", "0", "99", "nan", "inf", "-1.5", "1e400", "abc", "1.0", "0x1")


def mutants(case: dict, rng: np.random.Generator) -> list[tuple[str, dict]]:
    """Broken copies of a case: cut short, an extra token, an inline comment,
    one token swapped for a bad value, a 4-token size line."""
    out = []
    whole = "\n".join(case["lines"])
    cut = dict(case, lines=whole[: int(rng.integers(0, len(whole) + 1))].split("\n"))
    out.append(("truncated", cut))
    if case["data"]:
        for kind in ("extra token", "inline comment", "bad token"):
            at = case["data"][int(rng.integers(0, len(case["data"])))]
            lines = list(case["lines"])
            if kind == "extra token":
                lines[at] += " 7"
            elif kind == "inline comment":
                lines[at] += f" {'#%'[int(rng.integers(0, 2))]} note"
            else:
                tokens = lines[at].split()
                tokens[int(rng.integers(0, len(tokens)))] = str(rng.choice(BAD_TOKENS))
                lines[at] = " ".join(tokens)
            out.append((kind, dict(case, lines=lines)))
    if case["size"] is not None:
        lines = list(case["lines"])
        lines[case["size"]] = lines[case["size"]] + " 1"
        out.append(("4-token size line", dict(case, lines=lines)))
    return out


def load(case: dict, path: str):
    if case["format"] == "mtx":
        return load_matrix_market(path)
    return load_edge_list(path, directed=case["directed"])


def outcome(case: dict, path: str):
    """(matrix, externals) on success, (error type, message) on failure."""
    try:
        matrix, labels = load(case, path)
    except GraphLoadError as exc:
        return type(exc), str(exc)
    return matrix, labels.externals


def bulk_and_walker(monkeypatch, case: dict, path: str):
    """Both outcomes, and whether the default load fell back to the walker."""
    calls = []
    with monkeypatch.context() as patch:
        for name in ("_walk_edge_list", "_walk_mm"):
            real = getattr(loaders, name)

            def spy(*args, real=real):
                calls.append(1)
                return real(*args)

            patch.setattr(loaders, name, spy)
        bulk = outcome(case, path)
    walked = bool(calls)
    with monkeypatch.context() as patch:
        patch.setattr(loaders, "_loadtxt", lambda *args: None)
        walker = outcome(case, path)
    return bulk, walker, walked


# a name numpy's opener would decompress: the loaders read such a file into memory
IN_MEMORY = ".txt.gz"


def spy_sources(monkeypatch) -> list[str | None]:
    """Records what numpy parses: the absolute path it is handed, or None
    for text in memory."""
    sources = []
    real = loaders._loadtxt

    def spy(source, *args):
        if isinstance(source, str):
            assert os.path.isabs(source), source
        sources.append(source if isinstance(source, str) else None)
        return real(source, *args)

    monkeypatch.setattr(loaders, "_loadtxt", spy)
    return sources


def assert_same(bulk, walker, data: bytes) -> None:
    assert bulk[0] == walker[0], data
    assert bulk[1] == walker[1], data


@pytest.mark.parametrize("make", [edge_list_case, matrix_market_case])
def test_bulk_parse_equals_line_walker(tmp_path, monkeypatch, make, suffix=""):
    sources = spy_sources(monkeypatch)
    rng = np.random.default_rng(20_261_018)
    plain_seen = 0
    for i in range(400):
        case = make(rng)
        data = render(case, rng)
        path = tmp_path / f"g{i}{suffix}"
        path.write_bytes(data)
        bulk, walker, walked = bulk_and_walker(monkeypatch, case, str(path))
        assert_same(bulk, walker, data)
        if case["plain"]:
            plain_seen += 1
            assert not walked, data
            assert not isinstance(bulk[0], type), data
    assert plain_seen > 150
    assert len(sources) > 150 and all((src is None) == bool(suffix) for src in sources)


@pytest.mark.parametrize("make", [edge_list_case, matrix_market_case])
def test_mutated_files_fail_like_the_walker(tmp_path, monkeypatch, capsys, make, suffix=""):
    sources = spy_sources(monkeypatch)
    rng = np.random.default_rng(4_242)
    errors = 0
    for i in range(300):
        case = make(rng)
        for kind, mutant in mutants(case, rng):
            data = render(mutant, rng)
            path = tmp_path / f"m{i}{suffix}"
            path.write_bytes(data)
            bulk, walker, _ = bulk_and_walker(monkeypatch, mutant, str(path))
            assert_same(bulk, walker, data)
            if not isinstance(walker[0], type):
                continue  # the mutation still left a valid file
            errors += 1
            code = main(["run", "--graph", str(path), "--format", mutant["format"], "--source", "1"])
            err = capsys.readouterr().err
            assert code == 1, (kind, data)
            assert err == f"deltasparse: {walker[1]}\n", (kind, data)
    assert errors > 600
    assert len(sources) > 600 and all((src is None) == bool(suffix) for src in sources)


def test_stdin_matches_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(77)
    for i in range(40):
        case = edge_list_case(rng) if i % 2 else matrix_market_case(rng)
        data = render(case, rng)
        path = tmp_path / f"s{i}"
        path.write_bytes(data)
        from_file = outcome(case, str(path))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        from_stdin = outcome(case, "-")
        if isinstance(from_file[0], type):
            assert from_stdin == (from_file[0], from_file[1].replace(str(path), "-", 1))
        else:
            assert_same(from_stdin, from_file, data)


def test_lone_carriage_return_ends_a_line_in_files_only(tmp_path, monkeypatch, suffix=""):
    data = b"0 1 2\r3 4 5\n"
    path = tmp_path / f"cr.edges{suffix}"
    path.write_bytes(data)
    sources = spy_sources(monkeypatch)
    matrix, labels = load_edge_list(str(path))
    assert sources == [None if suffix else str(path)]
    assert labels.externals == [0, 1, 3, 4]
    assert entry_set(matrix) == {(0, 1, 2.0), (2, 3, 5.0)}
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    with pytest.raises(GraphLoadError, match=r"^-:1: expected 'u v' or 'u v w', got 6 tokens$"):
        load_edge_list("-")


def test_bulk_equals_walker_at_scale(tmp_path, monkeypatch, suffix=""):
    sources = spy_sources(monkeypatch)
    rng = np.random.default_rng(5)
    m = 20_000
    u = rng.integers(0, 3_000, m).tolist()
    v = rng.integers(0, 3_000, m).tolist()
    w = (10.0 * (1.0 - rng.random(m))).tolist()
    edges = tmp_path / f"big.edges{suffix}"
    edges.write_text("# header\n" + "".join(f"{a} {b} {c!r}\n" for a, b, c in zip(u, v, w)))
    mtx = tmp_path / f"big.mtx{suffix}"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n% c\n3000 3000 20000\n"
        + "".join(f"{a + 1} {b + 1} {c!r}\n" for a, b, c in zip(u, v, w))
    )
    for case, path in (
        ({"format": "edges", "directed": False}, edges),
        ({"format": "mtx", "directed": True}, mtx),
    ):
        bulk, walker, walked = bulk_and_walker(monkeypatch, case, str(path))
        assert not walked
        assert_same(bulk, walker, case)
        assert bulk[0].nnz > 30_000
    assert sources == ([None] * 2 if suffix else [str(edges), str(mtx)])


# The twins below rerun the tests above with every file read into memory, as
# standard input and pipes are.


@pytest.mark.parametrize("make", [edge_list_case, matrix_market_case])
def test_bulk_parse_equals_line_walker_in_memory(tmp_path, monkeypatch, make):
    test_bulk_parse_equals_line_walker(tmp_path, monkeypatch, make, IN_MEMORY)


@pytest.mark.parametrize("make", [edge_list_case, matrix_market_case])
def test_mutated_files_fail_like_the_walker_in_memory(tmp_path, monkeypatch, capsys, make):
    test_mutated_files_fail_like_the_walker(tmp_path, monkeypatch, capsys, make, IN_MEMORY)


def test_lone_carriage_return_ends_a_line_in_files_only_in_memory(tmp_path, monkeypatch):
    test_lone_carriage_return_ends_a_line_in_files_only(tmp_path, monkeypatch, IN_MEMORY)


def test_bulk_equals_walker_at_scale_in_memory(tmp_path, monkeypatch):
    test_bulk_equals_walker_at_scale(tmp_path, monkeypatch, IN_MEMORY)
