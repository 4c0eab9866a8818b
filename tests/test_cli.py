"""Command-line behavior driven in process through main(argv): exit codes,
distance output, verification, fault injection, and the selftest command."""

from __future__ import annotations

import io
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import deltasparse.cli
import deltasparse.io
from deltasparse import (
    SparseVector,
    delta_stepping,
    load_edge_list,
    load_matrix_market,
    vector_build,
)
from deltasparse.cli import main
from deltasparse.sssp import _window_of

from conftest import grid_arcs

EDGE_FILE = "0 1 1.0\n1 2 1.5\n0 3 4.0\n"
MTX_FILE = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 2.0\n2 3 1.0\n"


@pytest.fixture
def edge_path(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text(EDGE_FILE)
    return str(p)


@pytest.fixture
def mtx_path(tmp_path):
    p = tmp_path / "g.mtx"
    p.write_text(MTX_FILE)
    return str(p)


def run_cli(*argv):
    return main(list(argv))


def parse_distances(stdout):
    out = {}
    for line in stdout.splitlines():
        label, value = line.split("\t")
        out[int(label)] = float(value)
    return out


# ---------------------------------------------------------------- run


def test_run_directed_edges(edge_path, capsys):
    code = run_cli(
        "run", "--graph", edge_path, "--format", "edges", "--directed", "--source", "0"
    )
    captured = capsys.readouterr()
    assert code == 0
    assert parse_distances(captured.out) == {0: 0.0, 1: 1.0, 2: 2.5, 3: 4.0}
    labels = [int(line.split("\t")[0]) for line in captured.out.splitlines()]
    assert labels == sorted(labels)
    summary = captured.err.strip().splitlines()[-1].split()
    assert summary[:4] == ["n=4", "m=3", "delta=1", "backend=unfused"]
    assert [field.split("=")[0] for field in summary[4:]] == [
        "outer_iterations", "inner_phases", "median_time_s", "occupied_buckets"
    ]


@pytest.mark.parametrize("backend", ["unfused", "fused"])
def test_run_heavy_sum_rounding_into_its_own_window(tmp_path, capsys, backend):
    # at delta 1e-6, 1e11 + 1.5e-6 rounds to 1e11: vertex 2 lands in vertex
    # 1's window after its light phases, starts that bucket again, and its
    # heavy step reaches vertex 3
    path = tmp_path / "g.edges"
    path.write_text("0 1 1e11\n1 2 1.5e-6\n2 3 1\n")
    code = run_cli(
        "run", "--graph", str(path), "--format", "edges", "--directed", "--source", "0",
        "--delta", "1e-6", "--backend", backend,
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "0\t0.0\n1\t100000000000.0\n2\t100000000000.0\n3\t100000000001.0\n"
    )


def test_module_form_runs_the_console_entry_point(edge_path, capsys):
    argv = ["run", "--graph", edge_path, "--format", "edges", "--source", "0"]
    assert run_cli(*argv) == 0
    want = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "deltasparse.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0
    assert done.stdout == want != ""


@pytest.mark.parametrize("vertices", [3, 10_000, None])
def test_closed_stdout_ends_the_command_without_a_traceback(tmp_path, vertices):
    # the pipe's read end is closed before the child starts, so the first
    # write fails: a small output's at its flush, one over 64 KiB at once;
    # the child's stdout is block-buffered, as a console script's is
    argv = ["selftest", "--cases", "1"]
    if vertices is not None:
        path = tmp_path / "path.edges"
        path.write_text("".join(f"{i} {i + 1} 1\n" for i in range(vertices - 1)))
        argv = ["run", "--graph", str(path), "--format", "edges", "--source", "0"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "deltasparse.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr == "deltasparse: error: cannot write standard output: Broken pipe\n"


def test_run_default_is_undirected(edge_path, capsys):
    code = run_cli("run", "--graph", edge_path, "--format", "edges", "--source", "2")
    captured = capsys.readouterr()
    assert code == 0
    # vertex 2 reaches everything only because edges are stored both ways
    assert parse_distances(captured.out) == {0: 2.5, 1: 1.5, 2: 0.0, 3: 6.5}


def test_run_values_round_trip_exactly(edge_path, capsys):
    # repr output must parse back to the same float64 bits the solver produced
    run_cli(
        "run", "--graph", edge_path, "--format", "edges", "--directed", "--source", "0"
    )
    captured = capsys.readouterr()
    matrix, labels = load_edge_list(edge_path, directed=True)
    want = delta_stepping(matrix, labels.to_internal(0), 1.0).distances
    got = parse_distances(captured.out)
    assert got == {labels.to_external(i): v for i, v in want.items()}


def test_run_mtx_uses_one_based_labels(mtx_path, capsys):
    code = run_cli("run", "--graph", mtx_path, "--format", "mtx", "--source", "1")
    captured = capsys.readouterr()
    assert code == 0
    assert parse_distances(captured.out) == {1: 0.0, 2: 2.0, 3: 3.0}


def test_run_verify_ok(edge_path, capsys):
    code = run_cli(
        "run",
        "--graph",
        edge_path,
        "--format",
        "edges",
        "--source",
        "0",
        "--verify",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "verification OK: max deviation 0\n" in captured.err


def test_run_verify_catches_injected_fault(edge_path, capsys):
    code = run_cli(
        "run",
        "--graph",
        edge_path,
        "--format",
        "edges",
        "--source",
        "0",
        "--verify",
        "--inject-fault",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "verification FAILED" in captured.err


def test_run_verify_catches_injected_fault_past_2_53(tmp_path, capsys):
    # 2**53 + 1.0 rounds back to 2**53: the fault must still change the value
    p = tmp_path / "far.edges"
    p.write_text("0 1 9007199254740992\n")
    code = run_cli(
        "run", "--graph", str(p), "--format", "edges", "--directed", "--source", "0",
        "--delta", "1e15", "--verify", "--inject-fault",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "verification FAILED" in captured.err
    assert captured.out == "0\t0.0\n1\t9007199254740994.0\n"


def one_ulp_up(vec):
    values = vec.values.copy()
    values[-1] = np.nextafter(values[-1], math.inf)
    return SparseVector(vec.length, vec.indices, values)


def test_verify_fails_a_distance_one_ulp_off(edge_path, monkeypatch, capsys):
    # verification is exact: no tolerance absorbs the last bit of a distance
    want = vector_build(4, [(0, 0.0), (1, 1.0), (3, 4.0)])
    assert deltasparse.cli._deviations(want, want) == (True, 0.0)
    assert deltasparse.cli._deviations(one_ulp_up(want), want) == (False, math.ulp(4.0))
    oracle = deltasparse.cli.dijkstra_oracle
    monkeypatch.setattr(deltasparse.cli, "dijkstra_oracle", lambda *a: one_ulp_up(oracle(*a)))
    code = run_cli("run", "--graph", edge_path, "--format", "edges", "--source", "0", "--verify")
    captured = capsys.readouterr()
    assert code == 2
    assert f"verification FAILED: max deviation {math.ulp(4.0):g}\n" in captured.err


def test_run_missing_file(tmp_path, capsys):
    code = run_cli(
        "run", "--graph", str(tmp_path / "absent"), "--format", "edges", "--source", "0"
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("deltasparse:")


def test_run_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.mtx"
    p.write_text("garbage\n")
    code = run_cli("run", "--graph", str(p), "--format", "mtx", "--source", "1")
    captured = capsys.readouterr()
    assert code == 1
    assert "bad.mtx:1:" in captured.err


@pytest.mark.parametrize("dimension", [3_037_000_500, 10_000_000_000])
def test_run_mtx_dimension_beyond_keys_is_a_parse_error(tmp_path, capsys, dimension):
    # rejected at the size line, before anything of size n is allocated
    p = tmp_path / "huge.mtx"
    p.write_text(
        f"%%MatrixMarket matrix coordinate real general\n{dimension} {dimension} 1\n1 2 1.0\n"
    )
    code = run_cli("run", "--graph", str(p), "--format", "mtx", "--source", "1")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"deltasparse: {p}:2: matrix dimension {dimension} exceeds 3037000499\n"
    )


def test_run_mtx_dimension_too_large_to_allocate(tmp_path, monkeypatch, capsys):
    # the build stands in for a size that passes the key limit but not the
    # allocator, so the test allocates nothing of that size
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(deltasparse.io, "_csr", out_of_memory)
    p = tmp_path / "big.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n% note\n5 5 1\n1 2 1.0\n")
    code = run_cli("run", "--graph", str(p), "--format", "mtx", "--source", "1")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"deltasparse: {p}:3: matrix dimension 5 is too large to allocate\n"


@pytest.mark.parametrize(
    "fmt, data, lineno",
    [
        ("edges", b"0 1 2.0\n1 2 \xff\xfe\n", 2),
        ("edges", b"# caf\xc3\xa9\r\n0 1\r\n\r1 2\xc3\n", 4),
        ("mtx", b"%%MatrixMarket matrix coordinate real general\n% \xff\n2 2 1\n1 2 1.0\n", 2),
    ],
)
def test_run_invalid_utf8_is_a_parse_error(tmp_path, capsys, fmt, data, lineno):
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    code = run_cli("run", "--graph", str(p), "--format", fmt, "--source", "1")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"deltasparse: {p}:{lineno}: not valid UTF-8\n"


def test_run_invalid_utf8_on_stdin(monkeypatch, capsys):
    # standard input ends lines at \n only, so the lone \r does not count
    raw = io.BytesIO(b"0 1\r\n1 2\r3 4\n\x80\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code = run_cli("run", "--graph", "-", "--format", "edges", "--source", "0")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "deltasparse: -:3: not valid UTF-8\n"


def test_run_output_pins_labels_beyond_int64(tmp_path, capsys):
    p = tmp_path / "big.edges"
    p.write_text(
        "18446744073709551621 9223372036854775808 0.1\n"
        "9223372036854775808 7 0.2\n"
        "7 3 2.5\n"
        "3 18446744073709551621 1\n"
    )
    for backend in ("unfused", "fused"):
        code = run_cli(
            "run", "--graph", str(p), "--format", "edges", "--directed",
            "--source", "18446744073709551621", "--backend", backend,
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == (
            "3\t2.8\n"
            "7\t0.30000000000000004\n"
            "9223372036854775808\t0.1\n"
            "18446744073709551621\t0.0\n"
        )


def test_run_output_orders_labels_by_value_not_first_seen(tmp_path, capsys):
    # labels first seen as 30, 10, 20, 5 still print in increasing order
    p = tmp_path / "order.edges"
    p.write_text("30 10 1\n10 20 2\n20 5 3\n")
    for backend in ("unfused", "fused"):
        code = run_cli(
            "run", "--graph", str(p), "--format", "edges", "--directed",
            "--source", "30", "--backend", backend,
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "5\t6.0\n10\t1.0\n20\t3.0\n30\t0.0\n"


def test_run_output_orders_labels_in_uint64_range(tmp_path, capsys):
    # labels past int64 but within uint64, next to small ones, must print
    # as exact integers in numeric order
    p = tmp_path / "wide.edges"
    p.write_text("9223372036854775809 7 0.5\n7 9223372036854775808 0.25\n")
    code = run_cli(
        "run", "--graph", str(p), "--format", "edges", "--directed",
        "--source", "9223372036854775809", "--backend", "fused",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "7\t0.5\n9223372036854775808\t0.75\n9223372036854775809\t0.0\n"
    )


def repr_lines(labels, values):
    """The output lines as the repr formatting writes them."""
    lines = zip(np.asarray(labels).tolist(), np.asarray(values).tolist())
    return "".join(f"{label}\t{value!r}\n" for label, value in lines)


def assert_formats_as_repr(labels, values):
    got = deltasparse.cli._format_distances(labels, np.asarray(values, dtype=np.float64))
    assert got.encode("ascii") == repr_lines(labels, values).encode("ascii")


def digit_boundaries(top):
    """0, 9, 10, 99, 100, ..., 10**k - 1 and 10**k up to `top`."""
    edges = {0, top}
    for k in range(1, 19):
        edges |= {10**k - 1, 10**k}
    return sorted(e for e in edges if e <= top)


def test_format_is_repr_at_digit_count_boundaries():
    labels = np.array(digit_boundaries(2**63 - 1), dtype=np.int64)
    values = [float(v) for v in digit_boundaries(10**15)] + [9999999999999998.0]
    for value in values:
        assert_formats_as_repr(labels, np.full(labels.size, value))
    for label in labels:
        assert_formats_as_repr(np.full(len(values), label), values)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1e16],
        [3.0, 1e16 + 2, 1e17, 1.7976931348623157e308],
        [0.0, 2.0, 2.5, 10.0],
        [0.0, 7.0, 0.30000000000000004],
    ],
)
def test_format_falls_back_to_repr(values):
    assert_formats_as_repr(np.arange(len(values), dtype=np.int64), values)


def test_format_prints_1e16_in_exponent_form():
    values = np.array([9999999999999998.0, 1e16])
    got = deltasparse.cli._format_distances(np.array([0, 1]), values)
    assert got == "0\t9999999999999998.0\n1\t1e+16\n"


def test_format_is_repr_on_labels_beyond_int64_and_empty_input():
    labels = np.array([7, 2**63, 2**64 + 3], dtype=object)
    assert_formats_as_repr(labels, [3.0, 10.0, 0.0])
    assert_formats_as_repr(np.array([-5, 0, 12], dtype=np.int64), [1.0, 0.0, 10.0])
    assert deltasparse.cli._format_distances(np.array([], np.int64), np.array([])) == ""


def test_format_is_repr_on_matrix_market_range_labels():
    indices = np.array([0, 8, 9, 98, 99, 999, 1234], dtype=np.int64)
    labels = deltasparse.io.LabelMap(range(1, 1236)).to_external_array(indices)
    assert labels.dtype == np.int64
    assert_formats_as_repr(labels, [0.0, 9.0, 10.0, 99.0, 100.0, 1e6, 123456789.0])


def test_format_is_repr_on_random_draws():
    rng = np.random.default_rng(20190520)
    for draw in range(200):
        n = int(rng.integers(1, 60))
        labels = np.sort(rng.integers(0, 10 ** rng.integers(1, 19, size=n), dtype=np.int64))
        values = np.floor(rng.random(n) * 10.0 ** rng.integers(0, 17, size=n))
        if draw % 4 == 3:  # a fraction on one vertex sends the whole output to repr
            values[int(rng.integers(0, n))] += 0.25
        assert_formats_as_repr(labels, values)


@pytest.mark.parametrize("backend", ["unfused", "fused"])
def test_run_prints_integral_grid_distances_as_repr(tmp_path, capsys, backend):
    tails, heads = grid_arcs(40)
    weights = np.random.default_rng(3).integers(1, 1000, tails.size)
    p = tmp_path / "grid.edges"
    p.write_text("".join(f"{u} {v} {w}\n" for u, v, w in zip(tails, heads, weights)))
    code = run_cli(
        "run", "--graph", str(p), "--format", "edges", "--directed", "--source", "0",
        "--delta", "50", "--backend", backend,
    )
    captured = capsys.readouterr()
    assert code == 0
    matrix, labels = load_edge_list(str(p), directed=True)
    want = delta_stepping(matrix, labels.to_internal(0), 50.0).distances
    assert want.nnz == 1600 and want.values.max() >= 1000
    reached = labels.to_external_array(want.indices)
    assert captured.out == repr_lines(reached, want.values)


def test_run_unknown_source_label(edge_path, capsys):
    code = run_cli("run", "--graph", edge_path, "--format", "edges", "--source", "17")
    captured = capsys.readouterr()
    assert code == 3
    assert "source label 17 not in graph" in captured.err


def test_usage_errors_exit_3(edge_path, capsys):
    base = ["run", "--graph", edge_path, "--format", "edges", "--source", "0"]
    assert run_cli("run", "--graph", edge_path, "--format", "edges") == 3
    assert run_cli(*base, "--backend", "warp") == 3
    assert run_cli(*base, "--nonsense") == 3
    assert run_cli(*base, "--delta", "0") == 3
    assert run_cli(*base, "--delta", "-1") == 3
    assert run_cli(*base, "--delta", "nan") == 3
    assert run_cli(*base, "--delta", "inf") == 3
    assert run_cli(*base, "--repeat", "0") == 3
    assert run_cli(*base, "--skip-empty-buckets") == 3
    captured = capsys.readouterr()
    assert "deltasparse: error:" in captured.err
    assert "--delta must be a positive finite number" in captured.err


def test_run_output_file(edge_path, tmp_path, capsys):
    out = tmp_path / "dist.tsv"
    code = run_cli(
        "run",
        "--graph",
        edge_path,
        "--format",
        "edges",
        "--directed",
        "--source",
        "0",
        "--output",
        str(out),
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert parse_distances(out.read_text()) == {0: 0.0, 1: 1.0, 2: 2.5, 3: 4.0}


def test_run_output_into_missing_directory_is_a_usage_error(edge_path, tmp_path, capsys):
    out = tmp_path / "missing" / "d.tsv"
    code = run_cli(
        "run", "--graph", edge_path, "--format", "edges", "--source", "0", "--output", str(out)
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"deltasparse: error: cannot write --output {out}: No such file or directory\n"
    )
    assert not out.parent.exists()


def test_run_backends_print_identical_distances(edge_path, capsys):
    base = [
        "run", "--graph", edge_path, "--format", "edges", "--directed",
        "--source", "0", "--delta", "0.5",
    ]
    run_cli(*base)
    unfused_out = capsys.readouterr().out
    run_cli(*base, "--backend", "fused")
    fused_out = capsys.readouterr().out
    assert fused_out == unfused_out


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_path_tiny_delta(tmp_path, delta, backend):
    path = tmp_path / "path.edges"
    path.write_text("0 1 1\n1 2 1\n")
    with time_limit(5):
        return run_cli(
            "run", "--graph", str(path), "--format", "edges", "--source", "0",
            "--delta", delta, "--backend", backend,
        )


@pytest.mark.parametrize("backend", ["unfused", "fused"])
@pytest.mark.parametrize("delta", ["1e-17", "1e-20", "1e-300"])
def test_run_tiny_delta_skipping_solves(tmp_path, capsys, delta, backend):
    # distance 1 at these deltas lies near bucket 1e17, 1e20 or 1e300, where
    # runs of neighbouring bucket indices round to one float; a window still
    # holds each distance, so the run must find it quickly and solve.
    # outer_iterations counts every window up to distance 2, about 2/delta
    # of them; the solve visits only the three that hold a vertex
    code = run_path_tiny_delta(tmp_path, delta, backend)
    captured = capsys.readouterr()
    assert code == 0
    assert parse_distances(captured.out) == {0: 0.0, 1: 1.0, 2: 2.0}
    outer = _window_of(2.0, float(delta)) + 1
    assert f"outer_iterations={outer} inner_phases=3" in captured.err
    summary = captured.err.strip().splitlines()[-1].split()
    assert summary[-1] == "occupied_buckets=3"


@pytest.mark.parametrize("backend", ["unfused", "fused"])
@pytest.mark.parametrize("delta", ["5e-324", "3e-310"])
def test_run_tiny_delta_skipping_is_a_usage_error(tmp_path, capsys, delta, backend):
    # distance 1 would need a bucket index beyond the float range, so no
    # window holds it, and the run must say so rather than hang or raise
    code = run_path_tiny_delta(tmp_path, delta, backend)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("deltasparse: error: delta ") and f"delta {float(delta)!r}" in err
    assert "distance 1.0" in err


@pytest.mark.parametrize("backend", ["unfused", "fused"])
def test_run_huge_delta_over_tiny_light_weights(tmp_path, capsys, backend):
    # delta / lightest weight overflows to inf, which the phase ceiling must survive
    path = tmp_path / "tiny.edges"
    path.write_text("0 1 1e-10\n1 2 1e-10\n")
    code = run_cli(
        "run", "--graph", str(path), "--format", "edges", "--directed", "--source", "0",
        "--delta", "1e300", "--backend", backend,
    )
    captured = capsys.readouterr()
    assert code == 0
    assert parse_distances(captured.out) == {0: 0.0, 1: 1e-10, 2: 2e-10}


@pytest.mark.parametrize("backend", ["unfused", "fused"])
@pytest.mark.parametrize(
    "text, source, delta, lost",
    [
        ("0 1 1e308\n1 2 1e308\n", "0", "1", 2),
        ("0 1 1e-320\n1 2 1e308\n2 3 1e308\n", "0", "1e300", 3),
        ("40 50 1e308\n50 60 1e308\n", "40", "1", 60),  # ids 0..2, named by label
    ],
    ids=["two-huge", "tiny-then-huge", "labelled"],
)
def test_run_distance_past_float_range_is_a_usage_error(
    tmp_path, capsys, backend, text, source, delta, lost
):
    # the last vertex's one path sums to inf; the run must not drop it and
    # report verification OK, and no numpy overflow warning may leak
    path = tmp_path / "huge.edges"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "run", "--graph", str(path), "--format", "edges", "--directed",
            "--source", source, "--delta", delta, "--backend", backend, "--verify",
        )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        f"deltasparse: error: the distance to vertex {lost} exceeds the float range\n"
    )


def test_run_repeat_reports_median(edge_path, capsys):
    code = run_cli(
        "run",
        "--graph",
        edge_path,
        "--format",
        "edges",
        "--source",
        "0",
        "--repeat",
        "3",
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "median_time_s=" in captured.err


def test_run_graph_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2.0\n"))
    code = run_cli(
        "run", "--graph", "-", "--format", "edges", "--directed", "--source", "0"
    )
    captured = capsys.readouterr()
    assert code == 0
    assert parse_distances(captured.out) == {0: 0.0, 1: 2.0}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_graph_through_a_named_pipe_loads_like_the_file(tmp_path, monkeypatch):
    # A pipe is read once into memory while a regular file is parsed from its
    # path: handed the pipe's path, numpy would reopen it and wait for a
    # writer that never comes.
    by_path = []
    real = deltasparse.io._loadtxt

    def spy(source, *args):
        by_path.append(isinstance(source, str))
        return real(source, *args)

    monkeypatch.setattr(deltasparse.io, "_loadtxt", spy)
    mtx = "%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 2\n1 2 2.5\n3 2 1.0\n"
    for name, load, text in (
        ("g.edges", load_edge_list, "# c\n\n7 3 2.5\n3 9 1.0\n"),
        ("g.mtx", load_matrix_market, mtx),
    ):
        regular = tmp_path / name
        regular.write_text(text)
        pipe = tmp_path / f"{name}.fifo"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        with time_limit(10):
            matrix, labels = load(str(pipe))
        writer.join(10)
        want, want_labels = load(str(regular))
        assert by_path == [False, True]
        by_path.clear()
        assert matrix == want and matrix.val.tobytes() == want.val.tobytes()
        assert labels.externals == want_labels.externals


# ---------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    code = run_cli("selftest", "--cases", "6", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 0
    assert "selftest: cases=6 seed=1" in captured.out
    assert "all 6 cases passed" in captured.out


def test_selftest_zero_cases_warns(capsys):
    code = run_cli("selftest", "--cases", "0")
    captured = capsys.readouterr()
    assert code == 0
    assert "passing vacuously" in captured.out


def test_selftest_negative_cases(capsys):
    assert run_cli("selftest", "--cases", "-1") == 3
    assert "--cases must be >= 0" in capsys.readouterr().err
    assert run_cli("selftest", "--seed", "-1") == 3
    captured = capsys.readouterr()
    assert captured.err == "deltasparse: error: --seed must be >= 0\n"
    assert captured.out == ""


def test_selftest_detects_injected_fault(monkeypatch, capsys):
    # an unfused distance one ulp off the reference must fail the first case
    def perturbed(*args, **kwargs):
        result = delta_stepping(*args, **kwargs)
        if kwargs.get("backend") is None:
            return replace(result, distances=deltasparse.cli._perturb(result.distances))
        return result

    monkeypatch.setattr(deltasparse.cli, "delta_stepping", perturbed)
    code = run_cli("selftest", "--cases", "3", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 2
    assert "selftest case 0 FAILED" in captured.out
    assert "seed=1" in captured.out


def test_selftest_reports_unequal_counts(monkeypatch, capsys):
    # equal distances with one extra fused phase must still fail the case
    def bumped(*args, **kwargs):
        result = delta_stepping(*args, **kwargs)
        if kwargs.get("backend") is not None and kwargs["backend"].kind == "fused":
            return replace(result, inner_phases=result.inner_phases + 1)
        return result

    monkeypatch.setattr(deltasparse.cli, "delta_stepping", bumped)
    code = run_cli("selftest", "--cases", "3", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 2
    assert "selftest case 0 FAILED (fused/unfused mismatch)" in captured.out


def test_selftest_checks_skip_mode_counts(monkeypatch, capsys):
    # every case compares the occupied bucket counts too: one extra fused
    # bucket with equal distances and other counts must fail the first case
    def bumped(*args, **kwargs):
        result = delta_stepping(*args, **kwargs)
        if kwargs.get("backend") is not None and kwargs["backend"].kind == "fused":
            return replace(result, occupied_buckets=result.occupied_buckets + 1)
        return result

    monkeypatch.setattr(deltasparse.cli, "delta_stepping", bumped)
    code = run_cli("selftest", "--cases", "3", "--seed", "1")
    captured = capsys.readouterr()
    assert code == 2
    assert "selftest case 0 FAILED (fused/unfused mismatch)" in captured.out
