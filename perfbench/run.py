"""Benchmark of the deltasparse shortest-path solver on three seeded workloads.

Run from the repository root; the program is imported from ./src:

    python3 perfbench/run.py --workload urand --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): urand, road, kron. With --trace 0 the run
prints the end-to-end metrics; with --trace 1 it prints the per-layer
metrics of a separate traced pass (see layers.py) and writes its spans to
.perfbench/. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. End-to-end times are medians in
reference seconds, corrected for the machine's speed drift by a fixed probe
(see PROBE_REFERENCE_S); the raw medians are printed on the "#" lines.

Every load, solve and `run` is one checked operation. It fails if it
raises, if its distances differ from the reference solver (exactly for
integer weights, within the CLI's relative tolerance for float weights), if
the two backends disagree bit for bit, or if the `run` output file does not
match. Each failure is printed to standard error; the exit code is 0 only
when none failed.

Load model: one process, closed loop, one solve at a time, one worker.
"""

from __future__ import annotations

import os

# one thread for every math library, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = ".perfbench"
# Machines that share cores with other tenants drift in speed by +-20% over
# tens of seconds; on a 2-vCPU Xeon, medians of one repeated solve over
# 20-s windows spread by 17% (IQR/median). A fixed probe interleaved with
# the measured work follows that drift (solve/probe over the same windows:
# 8%), so the timed metrics are reported in reference seconds: raw median x
# PROBE_REFERENCE_S / the run's median probe time. Raw medians and the
# factor are printed on the "#" lines.
PROBE_REFERENCE_S = 0.1
TIMED = ("setup_s", "solve_fused_s", "solve_unfused_s", "run_s")
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_fused_s": "s",
    "solve_unfused_s": "s",
    "run_s": "s",
    "setup_peak_mib": "MiB",
    "solve_peak_mib": "MiB",
}


def import_program(root: Path):
    src = root / "src"
    if not (src / "deltasparse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'deltasparse'}; run from the repository root")
    sys.path.insert(0, str(src))
    import deltasparse
    import deltasparse.cli

    return deltasparse


def run_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "workers": 1,
        "loadavg_before": list(os.getloadavg()),
    }


class Bench:
    """One workload's loaded graph, its oracle distances, and the checks
    every operation goes through."""

    def __init__(self, ds, workload: workloads.Workload, workdir: Path) -> None:
        self.ds = ds
        self.wl = workload
        self.workdir = workdir
        self.spec = ds.io.GraphFile(workload.path, workload.format, workload.directed)
        self.tolerance = getattr(ds.cli, "REL_TOLERANCE", 1e-9)
        self.matrix = None
        self.labels = None
        self.oracle: dict[int, object] = {}
        self.reference: dict[int, object] = {}  # first solve's distances per source
        self.attempted = 0
        self.failed = 0

    def record(self, op: str, problems: list[str], source=None, backend=None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(
                f"FAIL workload={self.wl.name} op={op} source={source} backend={backend}: "
                + "; ".join(problems),
                file=sys.stderr,
            )

    def _timed(self, op: str, fn, source=None, backend=None):
        """Time fn(); an exception is a failed operation, never an abort."""
        gc.collect()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the gate counts it and the run goes on
            self.record(op, [f"raised {type(exc).__name__}: {exc}"], source, backend)
            return None, None
        return result, time.perf_counter() - start

    def load(self) -> float | None:
        loaded, seconds = self._timed("load", lambda: self.ds.cli.load_graph(self.spec))
        if loaded is None:
            return None
        problems = []
        if self.matrix is None:
            self.matrix, self.labels = loaded
            self.oracle = {
                s: self.ds.sssp.dijkstra_oracle(self.matrix, self.labels.to_internal(s))
                for s in self.wl.sources
            }
        elif not (loaded[0] == self.matrix and loaded[1].externals == self.labels.externals):
            problems.append("reloading the same file gave a different graph")
        self.record("load", problems)
        return seconds

    def _against_oracle(self, source: int, indices: np.ndarray, values: np.ndarray) -> list[str]:
        want = self.oracle[source]
        if not np.array_equal(indices, want.indices):
            return ["reachable set differs from the oracle"]
        if self.wl.exact:
            bad = values != want.values
        else:
            bad = np.abs(values - want.values) > self.tolerance * (1.0 + want.values)
        if bad.any():
            return [f"{int(bad.sum())} distances differ from the oracle"]
        return []

    def solve(self, source: int, kind: str) -> float | None:
        """One warm solve through the CLI module's binding of delta_stepping
        (the binding the traced pass wraps); returns its wall time."""
        internal = self.labels.to_internal(source)
        backend = self.ds.fused.BackendChoice(kind)
        result, seconds = self._timed(
            "solve",
            lambda: self.ds.cli.delta_stepping(self.matrix, internal, self.wl.delta, backend=backend),
            source,
            kind,
        )
        if result is None:
            return None
        got = result.distances
        problems = self._against_oracle(source, got.indices, got.values)
        ref = self.reference.setdefault(source, got)
        if not got == ref:
            problems.append("fused and unfused distances differ bit for bit")
        self.record("solve", problems, source, kind)
        return seconds

    def run_cli(self, inject_fault: bool = False, around=nullcontext) -> tuple[float | None, int]:
        """One cold `run` (file to distances file) on the first source, with
        `around()` entered for exactly the CLI call; returns its wall time
        and the output size in bytes."""
        source = self.wl.sources[0]
        out = self.workdir / "distances.tsv"
        out.unlink(missing_ok=True)
        argv = self.wl.cli_args(source) + ["--backend", "fused", "--output", str(out)]
        if inject_fault:
            argv.append("--inject-fault")

        def call():
            with around():
                return self.ds.cli.main(argv)

        code, seconds = self._timed("run", call, source, "fused")
        if code is None:
            return None, 0
        problems = [] if code == 0 else [f"exit code {code}"]
        if out.is_file():
            problems += self._check_output(source, out.read_text(encoding="utf-8").split())
        else:
            problems.append("no output file")
        self.record("run", problems, source, "fused")
        return seconds, out.stat().st_size if out.is_file() else 0

    def _check_output(self, source: int, tokens: list[str]) -> list[str]:
        externals = np.array(self.labels.externals, dtype=np.int64)
        ref = self.reference.get(source)
        if ref is None:
            return ["no solve to compare the output with"]
        try:
            got_labels = np.array(tokens[0::2], dtype=np.int64)
            got_values = np.array(list(map(float, tokens[1::2])), dtype=np.float64)
        except ValueError as exc:
            return [f"unparsable output: {exc}"]
        order = np.argsort(externals[ref.indices], kind="stable")
        if not np.array_equal(got_labels, externals[ref.indices][order]):
            return ["output labels differ from the solved reachable set"]
        problems = self._against_oracle(source, ref.indices, got_values[np.argsort(order)])
        if not np.array_equal(got_values, ref.values[order]):
            problems.append("output values differ from the solved distances")
        return problems


class SpeedProbe:
    """Fixed work owned by the benchmark, mixing what the program spends its
    time on: text parsing, interpreter dispatch, and numpy gathers, sorts and
    segmented reductions. Its wall time tracks the machine's current speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10**5, (4000, 2)).tolist()
        weights = rng.random(4000).tolist()
        self.text = "\n".join(f"{u} {v} {w!r}" for (u, v), w in zip(labels, weights))
        self.values = rng.random(200_000)
        self.gather = rng.integers(0, self.values.size, self.values.size)
        self.keys = np.sort(rng.integers(0, self.values.size, 50_000))
        self.starts = np.arange(0, self.values.size, 200)
        self.samples: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        # parse the way the edge-list loader does
        [(int(u), int(v), float(w)) for u, v, w in map(str.split, self.text.splitlines())]
        for _ in range(3):
            ordered = np.sort(self.values[self.gather])
            np.searchsorted(self.keys, self.gather)
            np.minimum.reduceat(ordered, self.starts)
        v = np.arange(64.0)
        for _ in range(2000):
            v = np.minimum(v, v + 1.0)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def measure(
    bench: Bench, probe: SpeedProbe, seconds: float, inject_fault: bool
) -> dict[str, list[float]]:
    """Cycle until `seconds` have passed and every source has had its turn.

    Each cycle takes one load, one solve per backend on the next source
    (swapping which backend goes first) and one cold `run`, with a speed
    probe before the load and after the run. The machine's speed drifts over
    tens of seconds, so every metric samples the whole window rather than a
    slice of it.
    """
    samples: dict[str, list[float]] = {name: [] for name in TIMED}
    sources = bench.wl.sources
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < len(sources) or time.perf_counter() < deadline:
        probe.measure()
        taken = {"setup_s": bench.load()}
        order = layers.BACKENDS if cycle % 2 == 0 else layers.BACKENDS[::-1]
        for kind in order:
            taken[f"solve_{kind}_s"] = bench.solve(sources[cycle % len(sources)], kind)
        taken["run_s"] = bench.run_cli(inject_fault)[0]
        probe.measure()
        for name, value in taken.items():
            if value is not None:
                samples[name].append(value)
        cycle += 1
    return samples


def _status_kib(field: str) -> int:
    # per-process figures; getrusage's maxrss would carry the parent's peak
    # across fork and exec
    with open("/proc/self/status", encoding="utf-8") as fh:
        line = next(ln for ln in fh if ln.startswith(field + ":"))
    return int(line.split()[1])


def probe_load(ds, path: str, fmt: str, directed: bool) -> None:
    """Child-process mode: peak resident growth of one fresh load."""
    before = _status_kib("VmRSS")
    ds.cli.load_graph(ds.io.GraphFile(path, fmt, directed))
    print(json.dumps({"peak_mib": (_status_kib("VmHWM") - before) / 1024.0}))


def setup_peak_mib(bench: Bench, root: Path) -> float:
    """Load memory measured in a fresh process: tracemalloc slows the
    per-line loaders 5-14x, more than a run can afford."""
    wl = bench.wl
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-load", wl.path, wl.format]
    argv += ["--directed"] if wl.directed else []
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=150)
    problems = [] if done.returncode == 0 else [f"load probe exited {done.returncode}"]
    peak = 0.0
    try:
        peak = float(json.loads(done.stdout.strip().splitlines()[-1])["peak_mib"])
    except (ValueError, KeyError, IndexError):
        problems.append(f"load probe printed no result: {done.stderr.strip()[-200:]}")
    bench.record("load", problems)
    return peak


def solve_peak_mib(bench: Bench) -> float:
    """tracemalloc peak over one warm fused solve."""
    gc.collect()
    tracemalloc.start()
    try:
        bench.solve(bench.wl.sources[0], "fused")
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def end_to_end(bench: Bench, root: Path, seconds: float, inject_fault: bool) -> dict[str, float]:
    if bench.load() is None:
        return {}
    print(f"# fingerprint {json.dumps(workloads.fingerprint(bench.wl, bench.matrix))}")
    bench.solve(bench.wl.sources[0], "fused")  # warm-up, discarded
    values = {"solve_peak_mib": solve_peak_mib(bench)}
    probe = SpeedProbe()
    samples = measure(bench, probe, seconds, inject_fault)
    factor = probe.factor()
    print(f"# probe samples={len(probe.samples)} median={median(probe.samples):.4f}s factor={factor:.4f}")
    for name, times in samples.items():
        print(f"# {name} raw median={median(times):.4f}s samples={len(times)}: " + " ".join(f"{t:.4f}" for t in times))
        values[name] = median(times) * factor
    values["setup_peak_mib"] = setup_peak_mib(bench, root)
    return values


def traced(bench: Bench, root: Path, seed: int, record: dict, inject_fault: bool) -> dict[str, float]:
    if bench.load() is None:
        return {}
    fingerprint = workloads.fingerprint(bench.wl, bench.matrix)
    print(f"# fingerprint {json.dumps(fingerprint)}")
    bench.solve(bench.wl.sources[0], "fused")  # warm-up, discarded
    tracer = Tracer()
    tracer.install(layers.targets(bench.ds))
    try:
        traced_fused = []
        for source in bench.wl.sources:
            traced_fused.append(bench.solve(source, "fused"))
            bench.solve(source, "unfused")
        _, output_bytes = bench.run_cli(inject_fault, lambda: tracer.span(layers.RUN))
    finally:
        tracer.uninstall()
    tracer.assert_restored()
    if tracer.missing:
        print(f"# not traced (absent): {', '.join(tracer.missing)}")
    plain = [bench.solve(s, "fused") for s in bench.wl.sources]
    if None in traced_fused or None in plain:
        overhead = 0.0
    else:
        overhead = median(traced_fused) / median(plain)
    metrics = layers.per_layer(tracer, output_bytes, overhead)
    out = root / OUT_DIR / f"trace-{bench.wl.name}-seed{seed}.json"
    dump = {"record": record, "fingerprint": fingerprint, "metrics": metrics, "spans": tracer.to_json()}
    out.write_text(json.dumps(dump) + "\n")
    print(f"# spans: {len(tracer.spans)} written to {out.relative_to(root)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test knobs: small inputs, and a wrong distance the gate must catch
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--probe-load", nargs=2, metavar=("PATH", "FORMAT"))
    parser.add_argument("--directed", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    ds = import_program(root)
    if args.probe_load:
        probe_load(ds, *args.probe_load, args.directed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    record = run_record()
    (root / OUT_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=root / OUT_DIR))
    try:
        wl = workloads.make(args.workload, args.seed, args.scale, workdir)
        bench = Bench(ds, wl, workdir)
        if args.trace:
            values = traced(bench, root, args.seed, record, args.inject_fault)
            units = layers.metric_units()
        else:
            values = end_to_end(bench, root, args.seconds, args.inject_fault)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    print(f"# record {json.dumps(record)}")
    correct = bench.failed == 0 and bool(values)
    print(
        f"# {wl.name} seed={args.seed}: attempted={bench.attempted} failed={bench.failed} "
        f"fail_ratio={bench.failed / max(bench.attempted, 1):g}"
    )
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(bench.attempted, 1),
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
