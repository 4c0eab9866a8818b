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
    # a bounded push returns the targets whose candidate strictly improves
    # and lies strictly below its bound
    ("fused.py", "better = cand < old", "better = cand <= old", "tests/test_fused.py"),
    ("fused.py", "np.minimum.at(dense", "np.maximum.at(dense", "tests/test_fused.py"),
    # the test reads the value before the slice's scatter, not after it
    (
        "fused.py",
        "    old = None if below is None else dense[target]\n    np.minimum.at(dense, target, cand)\n",
        "    np.minimum.at(dense, target, cand)\n    old = None if below is None else dense[target]\n",
        "tests/test_fused.py",
    ),
    # the value read is lowered to the bound in place, and strictly
    ("fused.py", "    np.minimum(old, below, out=old)\n", "", "tests/test_fused.py"),
    (
        "fused.py",
        "np.minimum(old, below, out=old)",
        "np.minimum(old, np.nextafter(below, np.inf), out=old)",
        "tests/test_fused.py",
    ),
    # the targets are gathered only once the candidates and values are freed
    (
        "fused.py",
        "    del old, cand\n    return target[better]\n",
        "    kept = target[better]\n    del old, cand\n    return kept\n",
        "tests/test_fused.py::test_push_slice_holds_three_edge_long_arrays",
    ),
    # an unbounded push keeps no view of a slice's targets alive
    (
        "fused.py",
        "    if old is None:\n        return _NO_TARGETS\n",
        "    if old is None:\n        return target[:0]\n",
        "tests/test_fused.py::test_cut_push_holds_one_slice_at_a_time",
    ),
    # a cut push keeps only the out-degrees past the cut: each slice gathers
    # its own entry bases, numbered by a cumsum over its own vertices
    (
        "fused.py",
        "base = row_ends[frontier[a:b]]",
        "base = row_ends[frontier][a:b]",
        "tests/test_fused.py::test_cut_push_holds_one_slice_at_a_time",
    ),
    (
        "fused.py",
        "base -= ends\n",
        "base -= ends - counts[a:b]\n",
        "tests/test_fused.py",
    ),
    # a slice gathers its weights before its targets: three edge-long arrays
    (
        "fused.py",
        "    cand = values.repeat(counts)\n    cand += matrix.val[eid]\n    target = matrix.col[eid]\n",
        "    target = matrix.col[eid]\n    cand = values.repeat(counts)\n    cand += matrix.val[eid]\n",
        "tests/test_fused.py::test_push_slice_holds_three_edge_long_arrays",
    ),
    # the light step's reader orders its targets: _distinct and the next bucket
    ("fused.py", "keep[:1] = True", "keep[:1] = False", "tests/test_fused.py"),
    ("fused.py", "    target.sort()\n", "", "tests/test_fused.py"),
    # only fewer than two targets are already sorted and distinct
    (
        "fused.py",
        "if target.size < 2:",
        "if target.size < 3:",
        "tests/test_fused.py::test_distinct_sorts_and_drops_repeats",
    ),
    (
        "sssp.py",
        "bucket = _distinct(_push(t[bucket], bucket, self.light, t, self.hi))\n",
        "bucket = _push(t[bucket], bucket, self.light, t, self.hi)\n",
        "tests/test_acceptance.py::test_criterion_4_fusion_transparency",
    ),
    # the (min,+) product reads its output off the workspace's finite entries
    (
        "ops.py",
        "(dense < _INF).nonzero()",
        "(dense <= _INF).nonzero()",
        "tests/test_kernel_reference.py::test_vxm_min_plus_edge_cases_equal_pull_reference",
    ),
    # the heavy part's row starts are the input's less the light part's
    (
        "sssp.py",
        "matrix.indptr - starts",
        "matrix.indptr",
        "tests/test_ops.py::test_split_equals_the_per_row_reference",
    ),
    # the shared split frees its weight mask before the light gathers
    (
        "sssp.py",
        "    del is_light",
        "    pass",
        "tests/test_sssp.py::test_shared_split_drops_its_weight_mask_before_the_light_gathers",
    ),
    # the fused steps free the split before they build the result
    (
        "sssp.py",
        "        del self.light, self.heavy, self.settled\n",
        "",
        "tests/test_sssp.py::test_fused_solve_frees_its_split_before_the_result",
    ),
    # the fused light step marks its bucket settled
    (
        "sssp.py",
        "\n        self.settled[bucket] = True\n",
        "\n",
        "tests/test_fused_path.py",
    ),
    # a heavy sum that rounds back into its window starts the bucket again,
    # on either backend, wherever the walk's once-per-bucket gate lets one
    # through
    (
        "sssp.py",
        "reenter = not _lands_beyond(index, delta)",
        "reenter = False",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    (
        "sssp.py",
        "below = self.hi if reenter else None",
        "below = None",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    # the fused re-entry bucket is sorted and distinct, as the unfused one is
    (
        "sssp.py",
        "        self.bucket = bucket = _distinct(_push(t[frontier], frontier, self.heavy, t, below))\n",
        "        self.bucket = bucket = _push(t[frontier], frontier, self.heavy, t, below)\n",
        "tests/test_sssp.py::test_heavy_reentry_bucket_is_sorted_and_distinct",
    ),
    # the re-entry bucket is the heavy step's targets below the window's end
    (
        "sssp.py",
        "below = self.hi if reenter",
        "below = math.inf if reenter",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    (
        "sssp.py",
        "return self._enter(bucket, index)",
        "return after.bucket.nnz",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    # the unfused steps keep one state: a heavy step stores its relax's
    # distances, each bucket starts from the state's tentative distances
    # and with an empty settled set
    (
        "sssp.py",
        "self.state = after = relax_heavy(before)",
        "after = relax_heavy(before)",
        "tests/test_acceptance.py::test_criterion_4_fusion_transparency",
    ),
    (
        "sssp.py",
        "compute_bucket(self.state.tentative, index, self.state.delta)",
        "compute_bucket(self.state.requests, index, self.state.delta)",
        "tests/test_acceptance.py::test_criterion_4_fusion_transparency",
    ),
    (
        "sssp.py",
        "settled=self.empty",
        "settled=self.state.settled",
        "tests/test_sssp.py::test_one_step_visits_only_occupied_windows",
    ),
    # a step's bucket is its requests inside the window that strictly improve
    (
        "sssp.py",
        "in_window = compute_bucket(requests, index, delta)",
        "in_window = compute_bucket(requests, index + 1, delta)",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    # the walk runs a bucket again for as long as its heavy step re-enters it
    (
        "sssp.py",
        "        while size:\n            while size:\n",
        "        if size:\n            while size:\n",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    # every light step counts as a phase, not every heavy step
    (
        "sssp.py",
        "                phases += 1\n                if phases > ceiling:\n"
        "                    raise RuntimeError(\n"
        '                        f"light phase count exceeded ceiling {ceiling}; "\n'
        '                        "relaxation is not converging"\n'
        "                    )\n            size = solve.heavy_step(reenter)\n",
        "                if phases > ceiling:\n"
        "                    raise RuntimeError(\n"
        '                        f"light phase count exceeded ceiling {ceiling}; "\n'
        '                        "relaxation is not converging"\n'
        "                    )\n            phases += 1\n            size = solve.heavy_step(reenter)\n",
        "tests/test_sssp.py::test_every_light_step_is_a_phase",
    ),
    (
        "sssp.py",
        "math.nextafter(delta, math.inf) >= hi",
        "math.nextafter(delta, math.inf) < hi",
        "tests/test_acceptance.py::test_criterion_4_heavy_sums_rounding_into_their_window",
    ),
    # a comparison's union output normalized to 1.0, zeros dropped
    (
        "ops.py",
        "    if op.boolean:\n        idx, out = _finalize_boolean(idx, out)\n"
        "    return SparseVector._adopt(u.length, idx, out)\n",
        "    return SparseVector._adopt(u.length, idx, out)\n",
        "tests/test_ops.py",
    ),
    # the intersection adopts an op's output as contiguous float64
    (
        "ops.py",
        "np.ascontiguousarray(out, dtype=VALUE_DTYPE)",
        "np.ascontiguousarray(out)",
        "tests/test_ops.py::test_user_op_output_is_adopted_only_when_fresh_float64",
    ),
    (
        "ops.py",
        "np.ascontiguousarray(out, dtype=VALUE_DTYPE)",
        "out",
        "tests/test_ops.py::test_user_op_output_is_adopted_only_when_fresh_float64",
    ),
    # the union takes no mask but its left operand
    (
        "ops.py",
        "    elif mask is not None:\n",
        "    elif False:\n",
        "tests/test_ops.py::test_ewise_add_empty_and_errors",
    ),
    # the merge combines u's value with v's, in that order (LESS is not
    # commutative)
    (
        "ops.py",
        "op.fn(u.values[shared], v.values[both])",
        "op.fn(v.values[both], u.values[shared])",
        "tests/test_kernel_reference.py",
    ),
    # MIN's workspace starts at +inf, takes u's values, combines v's into
    # them with minimum.at, u's value first, and reads back the slots off +inf
    (
        "ops.py",
        "_INF = math.inf",
        "_INF = 0.0",
        "tests/test_kernel_reference.py::test_min_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "np.minimum.at(acc, v.indices, v.values)",
        "np.maximum.at(acc, v.indices, v.values)",
        "tests/test_kernel_reference.py::test_min_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "    acc[u.indices] = u.values\n    np.minimum.at(",
        "    np.minimum.at(",
        "tests/test_kernel_reference.py::test_min_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "acc[u.indices] = u.values\n    np.minimum.at(acc, v.indices, v.values)",
        "acc[v.indices] = v.values\n    np.minimum.at(acc, u.indices, u.values)",
        "tests/test_kernel_reference.py::test_min_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "(acc != _INF).nonzero()",
        "(acc <= _INF).nonzero()",
        "tests/test_kernel_reference.py::test_min_union_workspace_equals_union1d_reference",
    ),
    # OR's workspace marks u's nonzero values and then adds v's, whatever
    # their sign, and OR unions take it
    (
        "ops.py",
        "mark[v.indices] |= v.values != 0.0",
        "mark[v.indices] = v.values != 0.0",
        "tests/test_kernel_reference.py::test_or_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "mark[u.indices] = u.values != 0.0",
        "mark[u.indices] = u.values > 0.0",
        "tests/test_kernel_reference.py::test_or_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "mark[v.indices] |= v.values != 0.0",
        "mark[v.indices] |= v.values > 0.0",
        "tests/test_kernel_reference.py::test_or_union_workspace_equals_union1d_reference",
    ),
    (
        "ops.py",
        "(op is MIN or op is OR) and (",
        "(op is MIN) and (",
        "tests/test_kernel_reference.py::test_or_union_workspace_equals_union1d_reference",
    ),
    # MIN and OR unions over a small index space take their workspace at
    # any sizes
    (
        "ops.py",
        "        u.length <= _SMALL_UNION or _dense_pays(",
        "        _dense_pays(",
        "tests/test_kernel_reference.py",
    ),
    # the union masked by its left operand pairs each side's own positions
    (
        "ops.py",
        "out[pu] = op.fn(u.values[pu], v.values[pv])",
        "out[pv] = op.fn(u.values[pv], v.values[pu])",
        "tests/test_kernel_reference.py",
    ),
    # the workspace intersection returns a's positions first
    (
        "ops.py",
        "        pa = slot[b[pb]]\n",
        "        pa, pb = pb, slot[b[pb]]\n",
        "tests/test_kernel_reference.py",
    ),
    # the intersection swaps its positions back when it probed b into a
    (
        "ops.py",
        "return (pb, pa) if swap else (pa, pb)",
        "return (pa, pb) if swap else (pa, pb)",
        "tests/test_kernel_reference.py",
    ),
    # a probe counts as found only where it meets an equal index
    (
        "ops.py",
        'pa = (b.take(pos, mode="clip") == a).nonzero()[0]',
        'pa = (b.take(pos, mode="clip") >= a).nonzero()[0]',
        "tests/test_kernel_reference.py",
    ),
    # the next window starts at the current window's end
    ("sssp.py", "window = values >= lo\n", "window = values > lo\n", "tests/test_fused_path.py"),
    # the run summary's two bucket counts
    (
        "cli.py",
        'f"occupied_buckets={result.occupied_buckets}"',
        'f"occupied_buckets={result.outer_iterations}"',
        "tests/test_cli.py::test_run_tiny_delta_skipping_solves",
    ),
    # the numpy distance writer: below 1e16 only, digit counts that step up
    # at each power of ten, and integral values only; the rest is repr's
    (
        "cli.py",
        "values.max() < 1e16",
        "values.max() <= 1e16",
        "tests/test_cli.py::test_format_falls_back_to_repr",
    ),
    (
        "cli.py",
        'side="right"',
        'side="left"',
        "tests/test_cli.py::test_format_is_repr_at_digit_count_boundaries",
    ),
    (
        "cli.py",
        "        and (values == np.floor(values)).all()\n",
        "",
        "tests/test_cli.py::test_format_falls_back_to_repr",
    ),
    # the injected fault changes a distance however large it is
    (
        "cli.py",
        "np.nextafter(values[-1], np.inf)",
        "values[-1] + 1.0",
        "tests/test_cli.py::test_run_verify_catches_injected_fault_past_2_53",
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
    # the window search: the floor of the quotient where its half-open
    # window holds the value, else a bisection that keeps the largest window
    # start at or below the value, over a bracket whose end lies past it and
    # is clamped to the float range
    (
        "sssp.py",
        "lo <= value < hi",
        "lo <= value <= hi",
        "tests/test_sssp.py::test_window_of_matches_single_steps",
    ),
    (
        "sssp.py",
        "if middle * delta <= value:",
        "if middle * delta < value:",
        "tests/test_sssp.py::test_window_of_matches_single_steps",
    ),
    (
        "sssp.py",
        "min(2 * low + 2,",
        "min(low + 1,",
        "tests/test_sssp.py::test_window_of_matches_single_steps",
    ),
    (
        "sssp.py",
        "min(2 * low + 2, int(sys.float_info.max))",
        "2 * low + 2",
        "tests/test_sssp.py::test_huge_weights_raise_or_reach_every_vertex",
    ),
    # verification is exact: a tolerance lets a distance one ulp off pass
    (
        "cli.py",
        "    return dev == 0.0, dev\n",
        "    return bool(np.allclose(got.values, want.values)), dev\n",
        "tests/test_cli.py::test_verify_fails_a_distance_one_ulp_off",
    ),
    # a library function that nothing outside tests calls
    (
        "generate.py",
        "\n\ndef random_graph(",
        "\n\ndef _orphan():\n    pass\n\n\ndef random_graph(",
        "tests/test_library_is_used.py",
    ),
    # selftest compares the backends' bucket and phase counts
    (
        "cli.py",
        "counts[0] != counts[1]",
        "counts[0] != counts[0]",
        "tests/test_cli.py::test_selftest_reports_unequal_counts",
    ),
    # the loaders' label checks send bad labels to the walker's errors
    (
        "io.py",
        "entries[0].min() < 0 or ",
        "",
        "tests/test_io.py::test_edges_negative_labels",
    ),
    (
        "io.py",
        "r.max() <= n and",
        "r.max() <= n + 1 and",
        "tests/test_io.py::test_mtx_coordinate_just_outside_each_bound",
    ),
    # labels that fill 0..max are their own ids, and only those
    (
        "io.py",
        "if labels.size == size:",
        "if labels.size <= size:",
        "tests/test_io.py::test_intern_branches_match_a_rank_reference",
    ),
    # int64 weights: a zero fails the check, and a later fractional one is
    # parsed again as a float, not walked
    (
        "io.py",
        "if w.min() <= 0:",
        "if w.min() < 0:",
        "tests/test_io.py::test_integer_and_float_weight_layouts_load_alike",
    ),
    (
        "io.py",
        "layouts = (_INT_TRIPLE, _TRIPLE)",
        "layouts = (_INT_TRIPLE,)",
        "tests/test_io.py::test_integer_and_float_weight_layouts_load_alike",
    ),
    # only a regular file is parsed from its path: numpy would reopen a pipe
    # and wait for a writer that never comes
    (
        "io.py",
        "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not",
        "if not",
        "tests/test_cli.py::test_graph_through_a_named_pipe_loads_like_the_file",
    ),
    # names numpy's opener would decompress are read as the bytes they hold
    (
        "io.py",
        " and not path.lower().endswith(_COMPRESSED):",
        ":",
        "tests/test_io.py::test_compressed_names_are_read_as_plain_text",
    ),
    # numpy is handed an absolute path, never one it could take for a URL
    (
        "io.py",
        "os.path.abspath(path)",
        "path",
        "tests/test_io.py::test_url_shaped_relative_name_is_a_local_file",
    ),
    # a first line with no weight token is not read past its end
    (
        "io.py",
        "len(first) == 3 and _INTEGER",
        "_INTEGER",
        "tests/test_io.py::test_malformed_first_line_reaches_the_walker",
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
