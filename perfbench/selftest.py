"""Self-test of the benchmark on tiny inputs; finishes in seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, in both modes, exits 0 with no failed
operation and prints exactly the metrics BENCHMARK.json names, with their
units; that exact counts and input fingerprints repeat on a second run of
the same seed; that a `run` whose output carries a wrong distance (the CLI's
--inject-fault) is counted as failed; and that without the program's source
the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 5


def bench(workload: str, trace: int, *extra: str, cwd: Path | None = None):
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    fingerprint = next((ln for ln in lines if ln.startswith("# fingerprint")), None)
    return done.returncode, result, fingerprint, done.stderr


def check_metrics(label: str, result: dict, want: dict[str, str]) -> list[str]:
    got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    problems = [] if got == want else [f"{label}: metric names or units differ from BENCHMARK.json"]
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, fingerprint, stderr = bench(workload, trace)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, stderr tail: {stderr.strip()[-300:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: fail_ratio {result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_metrics(label, result, want)
            if trace:
                _, again, fingerprint2, _ = bench(workload, trace)
                exact = {n for n, unit in want.items() if unit in ("count", "bytes")}
                if again is None or fingerprint2 != fingerprint or any(
                    again["metrics"][n]["value"] != result["metrics"][n]["value"] for n in exact
                ):
                    problems.append(f"{label}: counts or fingerprint differ on the same seed")

    code, result, _, _ = bench("road", 0, "--inject-fault")
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append("an injected wrong distance was not counted as a failure")

    scratch = Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _, _ = bench("road", 0, cwd=bare)
        if code == 0 or result is not None:
            problems.append("without the program's source the benchmark still printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
