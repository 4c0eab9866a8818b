"""Mutation check: each entry breaks one piece of the package in a temporary
copy of src/, and the tests it names must then fail.

    python tests/mutants.py

An entry is (file under src/deltasparse/, exact old text, new text, pytest
selector). The old text must occur exactly once in its file. The selector,
one or more node ids or paths separated by spaces, runs with -x against the
copy. The script exits 1 if an old text does not match exactly once, if the
unmutated copy fails a selector, or if a mutant survives its selector.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the push keeps only candidates that strictly improve
    (
        "fused.py",
        "better = (cand < dense[target])",
        "better = (cand <= dense[target])",
        "tests/test_fused.py",
    ),
    ("fused.py", "np.minimum.at(dense", "np.maximum.at(dense", "tests/test_fused.py"),
    ("fused.py", "keep[:1] = True", "keep[:1] = False", "tests/test_fused.py"),
    # the fused bucket's settled set
    ("sssp.py", "            settled[bucket] = True\n", "", "tests/test_fused_path.py"),
    # a comparison's union output normalized to 1.0, zeros dropped
    (
        "ops.py",
        "    if op.boolean:\n        idx, out = _finalize_boolean(idx, out)\n"
        "    return SparseVector._adopt(",
        "    return SparseVector._adopt(",
        "tests/test_ops.py",
    ),
    # the next window starts at the current window's end
    ("sssp.py", "window = (values >= hi)", "window = (values > hi)", "tests/test_fused_path.py"),
    # the run summary's two bucket counts
    (
        "cli.py",
        'f"occupied_buckets={result.occupied_buckets}"',
        'f"occupied_buckets={result.outer_iterations}"',
        "tests/test_cli.py::test_run_tiny_delta_skipping_solves",
    ),
    # the package publishes each module's __all__
    (
        "sssp.py",
        '    "DeltaTooSmall",\n',
        "",
        "tests/test_core.py::test_package_all_is_the_module_lists",
    ),
    # the overflow guard
    (
        "sssp.py",
        "raise DistanceOverflow(int(lost.min()))",
        "pass",
        "tests/test_cli.py::test_run_distance_past_float_range_is_a_usage_error",
    ),
    (
        "sssp.py",
        "or math.isfinite(",
        "or not math.isfinite(",
        "tests/test_sssp.py::test_huge_weights_raise_or_reach_every_vertex",
    ),
]


def passes(src: Path, selector: str) -> bool:
    """Whether the selector's tests pass against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    return subprocess.run(argv + selector.split(), cwd=ROOT, env=env, **quiet).returncode == 0


def main() -> int:
    package = ROOT / "src" / "deltasparse"
    failures = []
    for name, old, new, _ in MUTANTS:
        count = (package / name).read_text(encoding="utf-8").count(old)
        if count != 1:
            failures.append(f"{name}: old text occurs {count} times: {old!r}")
    if failures:
        print("\n".join(failures))
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        copy = src / "deltasparse"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        for selector in dict.fromkeys(selector for *_, selector in MUTANTS):
            if not passes(src, selector):
                failures.append(f"unmutated tree fails {selector}")
        if failures:
            print("\n".join(failures))
            return 1
        for name, old, new, selector in MUTANTS:
            text = (package / name).read_text(encoding="utf-8")
            start = time.perf_counter()
            (copy / name).write_text(text.replace(old, new), encoding="utf-8")
            try:
                killed = not passes(src, selector)
            finally:
                (copy / name).write_text(text, encoding="utf-8")
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict} in {time.perf_counter() - start:.1f} s: {name} {old!r} -> {new!r}")
            if not killed:
                failures.append(f"mutant survived {selector}: {name} {old!r} -> {new!r}")
    print("\n".join(failures) or f"all {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
