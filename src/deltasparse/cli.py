"""Benchmark and verification command line.

Two subcommands: `run` loads a graph, solves shortest paths with the chosen
backend, optionally checks the result against the reference solver, and
prints one "label<TAB>distance" line per reachable vertex, then a summary
line with both of SsspResult's bucket counts to stderr; `selftest` runs an
embedded randomized oracle suite.

Exit codes: 0 success, 1 load or parse failure, 2 verification mismatch,
3 bad flags (including a source label the graph does not have, a delta so
small that a distance needs a bucket index past the float range, or an
--output path that cannot be written) or a reachable vertex whose distance
exceeds the float range.
"""

from __future__ import annotations

import argparse
import logging
import math
import statistics
import sys

import numpy as np

from .core import SparseVector
from .fused import BackendChoice
from .generate import random_graph
from .io import GraphFile, GraphLoadError, load_graph
from .sssp import DeltaTooSmall, DistanceOverflow, delta_stepping, dijkstra_oracle

__all__ = ["run", "selftest", "main", "console_main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 2 for
    # verification mismatches, so surface usage problems as exceptions
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deltasparse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve shortest paths on a graph file")
    run_p.add_argument("--graph", required=True, help="path to the graph, or - for stdin")
    run_p.add_argument("--format", required=True, choices=("mtx", "edges"))
    run_p.add_argument(
        "--directed",
        action="store_true",
        help="treat edge-list lines as one-directional (mtx symmetry comes from its header)",
    )
    run_p.add_argument("--source", required=True, type=int, help="source vertex label")
    run_p.add_argument("--delta", type=float, default=1.0, help="bucket width (default 1.0)")
    run_p.add_argument("--backend", choices=("unfused", "fused"), default="unfused")
    run_p.add_argument("--verify", action="store_true", help="check against the reference solver")
    run_p.add_argument("--repeat", type=int, default=1, help="timed repetitions, median reported")
    run_p.add_argument("--output", default=None, help="write distances here instead of stdout")
    run_p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    st_p = sub.add_parser("selftest", help="run the embedded randomized oracle suite")
    st_p.add_argument("--cases", type=int, default=50)
    st_p.add_argument("--seed", type=int, default=0)
    st_p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return parser


def _deviations(got: SparseVector, want: SparseVector) -> tuple[bool, float]:
    """Compare reachable sets and values exactly. Returns (equal, max
    absolute deviation); a reachable-set mismatch is reported as inf."""
    if not np.array_equal(got.indices, want.indices):
        return False, float("inf")
    if want.nnz == 0:
        return True, 0.0
    dev = float(np.abs(got.values - want.values).max())
    return dev == 0.0, dev


def _perturb(distances: SparseVector) -> SparseVector:
    if distances.nnz == 0:
        return distances
    values = distances.values.copy()
    values[-1] = np.nextafter(values[-1], np.inf)  # adding 1.0 is lost from 2**53 up
    return SparseVector(distances.length, distances.indices.copy(), values)


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _format_distances(labels: np.ndarray, values: np.ndarray) -> str:
    """One "label<TAB>distance" line per entry, byte for byte as
    f"{label}\\t{value!r}\\n" writes it.

    The distances are a solve's, so none is negative. Non-negative int64
    labels with integral distances below 1e16, where repr turns to "1e+16",
    are written by one numpy pass: each number's digits right-aligned in a
    uint8 matrix whose leading pad columns a keep mask drops. Any other
    input takes the repr line."""
    if not (
        values.size
        and labels.dtype == np.int64
        and labels.min() >= 0
        and (values == np.floor(values)).all()
        and values.max() < 1e16
    ):
        lines = zip(labels.tolist(), values.tolist())
        return "".join([f"{label}\t{value!r}\n" for label, value in lines])
    fields = (labels, values.astype(np.int64))
    counts = [np.searchsorted(_POWERS_OF_TEN, f, side="right") + 1 for f in fields]
    widths = [int(count.max()) for count in counts]
    # a row: the label's field, a tab, the value's field, ".0\n"
    text = np.empty((values.size, widths[0] + widths[1] + 4), np.uint8)
    keep = np.ones(text.shape, bool)
    start = 0
    for field, count, width in zip(fields, counts, widths):
        for col in range(start + width - 1, start - 1, -1):
            rest = field // 10
            text[:, col] = field - 10 * rest
            field = rest
        pad = (width - count)[:, None]
        np.greater_equal(np.arange(width), pad, out=keep[:, start : start + width])
        start += width + 1
    text += ord("0")
    text[:, widths[0]] = ord("\t")
    text[:, -3:] = np.frombuffer(b".0\n", np.uint8)
    return text[keep].tobytes().decode("ascii")


def run(args: argparse.Namespace) -> int:
    """The `run` subcommand on flags that `main` has parsed and range-checked."""
    try:
        matrix, labels = load_graph(GraphFile(args.graph, args.format, args.directed))
    except (GraphLoadError, OSError) as exc:
        print(f"deltasparse: {exc}", file=sys.stderr)
        return 1
    try:
        internal_source = labels.to_internal(args.source)
    except KeyError:
        print(f"deltasparse: source label {args.source} not in graph", file=sys.stderr)
        return 3

    result = None
    times = []
    for _ in range(args.repeat):
        try:
            result = delta_stepping(
                matrix,
                internal_source,
                args.delta,
                backend=BackendChoice(args.backend),
            )
        except DeltaTooSmall as exc:
            print(f"deltasparse: error: {exc}", file=sys.stderr)
            return 3
        except DistanceOverflow as exc:  # named by the vertex's file label
            label = labels.to_external(exc.vertex)
            print(f"deltasparse: error: {DistanceOverflow(label)}", file=sys.stderr)
            return 3
        times.append(result.elapsed)
    assert result is not None
    distances = _perturb(result.distances) if args.inject_fault else result.distances

    code = 0
    if args.verify:
        oracle = dijkstra_oracle(matrix, internal_source)
        ok, deviation = _deviations(distances, oracle)
        status = "OK" if ok else "FAILED"
        print(f"verification {status}: max deviation {deviation:g}", file=sys.stderr)
        if not ok:
            code = 2

    # ids increase with labels, so the increasing indices list labels in order
    reached = labels.to_external_array(distances.indices)
    text = _format_distances(reached, distances.values)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(
                f"deltasparse: error: cannot write --output {args.output}: {reason}",
                file=sys.stderr,
            )
            return 3

    print(
        f"n={matrix.n} m={matrix.nnz} delta={args.delta:g} backend={args.backend} "
        f"outer_iterations={result.outer_iterations} inner_phases={result.inner_phases} "
        f"median_time_s={statistics.median(times):.6f} "
        f"occupied_buckets={result.occupied_buckets}",
        file=sys.stderr,
    )
    return code


def selftest(cases: int = 50, seed: int = 0, inject_fault: bool = False) -> int:
    """Randomized acceptance check runnable from any install."""
    print(f"selftest: cases={cases} seed={seed}")
    if cases == 0:
        print("selftest: WARNING: 0 cases requested, passing vacuously")
        return 0
    rng = np.random.default_rng(seed)
    deltas = (0.5, 1.0, 3.0, 11.0)
    for case in range(cases):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(0, 4 * n + 1))
        kind = "int" if case % 2 == 0 else "float"
        matrix = random_graph(n, m, rng, weights=kind)
        source = int(rng.integers(0, n))
        delta = float(deltas[int(rng.integers(0, len(deltas)))])

        expected = dijkstra_oracle(matrix, source)
        unfused = delta_stepping(matrix, source, delta)
        fused = delta_stepping(matrix, source, delta, backend=BackendChoice("fused"))
        got = unfused.distances
        if inject_fault and case == 0:
            got = _perturb(got)

        ok, deviation = _deviations(got, expected)
        counts = [
            (r.outer_iterations, r.occupied_buckets, r.inner_phases) for r in (unfused, fused)
        ]
        if not ok or fused.distances != got or counts[0] != counts[1]:
            reason = "fused/unfused mismatch" if ok else f"max deviation {deviation:g}"
            print(
                f"selftest case {case} FAILED ({reason}): seed={seed} n={n} m={m} "
                f"source={source} delta={delta:g} weights={kind}"
            )
            return 2
    print(f"selftest: all {cases} cases passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"deltasparse: error: {exc}", file=sys.stderr)
        return 3

    if args.command == "selftest":
        if args.cases < 0:
            print("deltasparse: error: --cases must be >= 0", file=sys.stderr)
            return 3
        if args.seed < 0:
            print("deltasparse: error: --seed must be >= 0", file=sys.stderr)
            return 3
        return selftest(cases=args.cases, seed=args.seed, inject_fault=args.inject_fault)

    if not 0 < args.delta < math.inf:
        print("deltasparse: error: --delta must be a positive finite number", file=sys.stderr)
        return 3
    if args.repeat < 1:
        print("deltasparse: error: --repeat must be >= 1", file=sys.stderr)
        return 3
    return run(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
