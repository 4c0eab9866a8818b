"""Which program functions the traced pass wraps, what each call counts,
and how the spans become the per-layer metrics.

Layer map: the end-to-end metric each layer metric should move, and the
workload where it dominates / where it idles.

| layer metric                                  | moves             | dominates / idle |
|-----------------------------------------------|-------------------|------------------|
| io.parse_s, io.bytes, io.edges_read           | setup_s, run_s    | urand, kron / road |
| core.matrix_build_s                           | setup_s           | urand, kron / road |
| core.transpose_{s,builds,calls}.*             | solve_*_s         | urand, kron / road |
| sssp.split_s.*                                | solve_*_s         | urand, kron / road |
| sssp.loop_self_s.*, sssp.compute_bucket_s.*,  | solve_*_s         | road / urand |
|   sssp.outer_iterations.*, sssp.inner_phases.*|                   |                  |
| sssp.light_phase_self_s, heavy_relax_self_s   | solve_unfused_s   | road / none |
| ops.vxm_min_plus*                             | solve_unfused_s   | urand / road |
| ops.ewise_add_vector*.*                       | solve_*_s         | road / kron |
| ops.ewise_mult_vector_s, filter_vector_s.*,   | solve_*_s         | all, minor |
|   filter_matrix_s.*                           |                   |                  |
| fused.masked_relax*                           | solve_fused_s     | road / urand |
| fused.bucket_update*                          | solve_fused_s, solve_peak_mib | road / kron |
| fused.calls_over_grain                        | none: a guard, 0 on all three | - |
| cli.run_self_s, cli.output_bytes              | run_s             | urand / road |
| trace.overhead_ratio                          | traced / untraced fused solve | - |

A `.fused` or `.unfused` suffix marks a function both backends call; the
metric then sums only that backend's solves. Times ending in `_self_s` are
self times (duration minus child spans); other times are whole durations.
Solve metrics sum over the benchmark's own traced solves (one per source and
backend); io, matrix_build and cli metrics come from the traced `run`.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer

BACKENDS = ("fused", "unfused")
SOLVE = "sssp.delta_stepping"
RUN = "cli.run"
LOAD = "io.load_graph"
# work size above which the fused kernels would hand ranges to threads
DEFAULT_GRAIN = 4 << 20


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def targets(ds) -> list[Target]:
    """The wrap list, given the imported program package `ds`."""
    cli, io, sssp, core = ds.cli, ds.io, ds.sssp, ds.core
    grain = getattr(ds.fused, "PARALLEL_GRAIN", DEFAULT_GRAIN)

    def out_degree_sum(transposed, vertices: np.ndarray) -> int:
        # the transposed view back-references its row-major matrix
        indptr = core.matrix_transpose_view(transposed).indptr
        return int((indptr[vertices + 1] - indptr[vertices]).sum())

    def load(args, kwargs, result, before):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "spec").path)}

    def build(args, kwargs, result, before):
        return {"edges_read": len(_arg(args, kwargs, 1, "triples"))}

    def transpose_before(args, kwargs):
        return getattr(_arg(args, kwargs, 0, "matrix"), "_transposed", None) is None

    def transpose(args, kwargs, result, before):
        return {"builds": int(before)}

    def solve(args, kwargs, result, before):
        backend = kwargs.get("backend")
        return {
            "backend": backend.kind if backend is not None else "unfused",
            "outer_iterations": result.outer_iterations,
            "inner_phases": result.inner_phases,
        }

    def vxm(args, kwargs, result, before):
        return {"edges_scanned": _arg(args, kwargs, 1, "transposed").nnz}

    def ewise_add(args, kwargs, result, before):
        return {"entries": _arg(args, kwargs, 0, "u").nnz + _arg(args, kwargs, 1, "v").nnz}

    def masked_relax(args, kwargs, result, before):
        t = _arg(args, kwargs, 0, "t")
        selector = _arg(args, kwargs, 1, "selector")
        transposed = _arg(args, kwargs, 2, "transposed")
        chosen = np.intersect1d(t.indices, selector.indices, assume_unique=True)
        return {
            "edges_scanned": transposed.nnz,
            "frontier_out_edges": out_degree_sum(transposed, chosen),
            "requests_nnz": result.nnz,
            "over_grain": int(transposed.nnz >= grain),
        }

    def bucket_update(args, kwargs, result, before):
        entries = _arg(args, kwargs, 0, "t").nnz + _arg(args, kwargs, 1, "requests").nnz
        return {
            "entries": entries,
            "reinserted": result[1].nnz,
            "over_grain": int(entries >= grain),
        }

    return [
        Target(cli, "load_graph", LOAD, load),
        Target(cli, "delta_stepping", SOLVE, solve, starts_solve=True),
        Target(io, "matrix_build", "core.matrix_build", build),
        Target(sssp, "split_edges", "sssp.split_edges"),
        Target(sssp, "compute_bucket", "sssp.compute_bucket"),
        Target(sssp, "relax_light_phase", "sssp.relax_light_phase"),
        Target(sssp, "relax_heavy", "sssp.relax_heavy"),
        Target(sssp, "fused_masked_relax", "fused.masked_relax", masked_relax),
        Target(sssp, "fused_bucket_update", "fused.bucket_update", bucket_update),
        Target(sssp, "vxm_min_plus", "ops.vxm_min_plus", vxm),
        Target(sssp, "ewise_add_vector", "ops.ewise_add_vector", ewise_add),
        Target(sssp, "ewise_mult_vector", "ops.ewise_mult_vector"),
        Target(sssp, "filter_vector", "ops.filter_vector"),
        Target(sssp, "filter_matrix", "ops.filter_matrix"),
        Target(sssp, "matrix_transpose_view", "core.transpose", transpose, transpose_before),
    ]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "io.parse_s": "s",
        "io.bytes": "bytes",
        "io.edges_read": "count",
        "core.matrix_build_s": "s",
    }
    for b in BACKENDS:
        units.update(
            {
                f"core.transpose_s.{b}": "s",
                f"core.transpose_builds.{b}": "count",
                f"core.transpose_calls.{b}": "count",
                f"sssp.split_s.{b}": "s",
                f"sssp.loop_self_s.{b}": "s",
                f"sssp.compute_bucket_s.{b}": "s",
                f"sssp.outer_iterations.{b}": "count",
                f"sssp.inner_phases.{b}": "count",
                f"ops.ewise_add_vector_s.{b}": "s",
                f"ops.ewise_add_vector.calls.{b}": "count",
                f"ops.ewise_add_vector.entries.{b}": "count",
                f"ops.filter_vector_s.{b}": "s",
                f"ops.filter_matrix_s.{b}": "s",
            }
        )
    units.update(
        {
            "sssp.light_phase_self_s": "s",
            "sssp.heavy_relax_self_s": "s",
            "ops.vxm_min_plus_s": "s",
            "ops.vxm_min_plus.calls": "count",
            "ops.vxm_min_plus.edges_scanned": "count",
            "ops.ewise_mult_vector_s": "s",
            "fused.masked_relax_s": "s",
            "fused.masked_relax.calls": "count",
            "fused.masked_relax.edges_scanned": "count",
            "fused.masked_relax.frontier_out_edges": "count",
            "fused.masked_relax.useful_ratio": "ratio",
            "fused.masked_relax.requests_nnz": "count",
            "fused.bucket_update_s": "s",
            "fused.bucket_update.calls": "count",
            "fused.bucket_update.entries": "count",
            "fused.bucket_update.reinserted": "count",
            "fused.calls_over_grain": "count",
            "cli.run_self_s": "s",
            "cli.output_bytes": "bytes",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def per_layer(tracer: Tracer, output_bytes: int, overhead_ratio: float) -> dict[str, float]:
    """Fold the spans of one traced pass into the per-layer metric values."""
    spans = tracer.spans
    kids = tracer.children()
    # the benchmark's own solves are the root solve spans; the solve inside
    # the traced `run` belongs to cli.run_self_s's children instead
    backend_of = {
        i: s.counts.get("backend") for i, s in enumerate(spans) if s.name == SOLVE and s.parent is None
    }

    def of(name: str, backend: str | None = None) -> list[int]:
        return [
            i
            for i, s in enumerate(spans)
            if s.name == name
            and s.solve in backend_of
            and (backend is None or backend_of[s.solve] == backend)
        ]

    def total(indices: list[int]) -> float:
        return sum(spans[i].seconds for i in indices)

    def self_total(indices: list[int]) -> float:
        return sum(tracer.self_seconds(kids, i) for i in indices)

    def count(indices: list[int], key: str) -> int:
        return sum(spans[i].counts.get(key, 0) for i in indices)

    runs = [i for i, s in enumerate(spans) if s.name == RUN]
    loads = [c for r in runs for c in kids[r] if spans[c].name == LOAD]
    builds = [c for load in loads for c in kids[load] if spans[c].name == "core.matrix_build"]
    values: dict[str, float] = {
        "io.parse_s": self_total(loads),
        "io.bytes": count(loads, "bytes"),
        "io.edges_read": count(builds, "edges_read"),
        "core.matrix_build_s": total(builds),
    }
    for b in BACKENDS:
        transposes = of("core.transpose", b)
        adds = of("ops.ewise_add_vector", b)
        solves = of(SOLVE, b)
        values.update(
            {
                f"core.transpose_s.{b}": total(transposes),
                f"core.transpose_builds.{b}": count(transposes, "builds"),
                f"core.transpose_calls.{b}": len(transposes),
                f"sssp.split_s.{b}": self_total(of("sssp.split_edges", b)),
                f"sssp.loop_self_s.{b}": self_total(solves),
                f"sssp.compute_bucket_s.{b}": total(of("sssp.compute_bucket", b)),
                f"sssp.outer_iterations.{b}": count(solves, "outer_iterations"),
                f"sssp.inner_phases.{b}": count(solves, "inner_phases"),
                f"ops.ewise_add_vector_s.{b}": total(adds),
                f"ops.ewise_add_vector.calls.{b}": len(adds),
                f"ops.ewise_add_vector.entries.{b}": count(adds, "entries"),
                f"ops.filter_vector_s.{b}": total(of("ops.filter_vector", b)),
                f"ops.filter_matrix_s.{b}": total(of("ops.filter_matrix", b)),
            }
        )
    vxm = of("ops.vxm_min_plus")
    relax = of("fused.masked_relax")
    update = of("fused.bucket_update")
    scanned = count(relax, "edges_scanned")
    useful = count(relax, "frontier_out_edges")
    values.update(
        {
            "sssp.light_phase_self_s": self_total(of("sssp.relax_light_phase")),
            "sssp.heavy_relax_self_s": self_total(of("sssp.relax_heavy")),
            "ops.vxm_min_plus_s": total(vxm),
            "ops.vxm_min_plus.calls": len(vxm),
            "ops.vxm_min_plus.edges_scanned": count(vxm, "edges_scanned"),
            "ops.ewise_mult_vector_s": total(of("ops.ewise_mult_vector")),
            "fused.masked_relax_s": total(relax),
            "fused.masked_relax.calls": len(relax),
            "fused.masked_relax.edges_scanned": scanned,
            "fused.masked_relax.frontier_out_edges": useful,
            "fused.masked_relax.useful_ratio": useful / scanned if scanned else 0.0,
            "fused.masked_relax.requests_nnz": count(relax, "requests_nnz"),
            "fused.bucket_update_s": total(update),
            "fused.bucket_update.calls": len(update),
            "fused.bucket_update.entries": count(update, "entries"),
            "fused.bucket_update.reinserted": count(update, "reinserted"),
            "fused.calls_over_grain": count(relax, "over_grain") + count(update, "over_grain"),
            "cli.run_self_s": self_total(runs),
            "cli.output_bytes": output_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return values
