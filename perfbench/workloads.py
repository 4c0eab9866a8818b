"""Seeded input generators for the three benchmark workloads.

The generators live here, not in ``deltasparse.generate``, so that no change
to the program can move the inputs. Each one writes its graph in the file
format its workload exercises and returns where the file is and how to run
it. The same (name, seed, scale) always writes the same bytes.

- ``urand``: uniform random digraph, integer weights, directed edge list
  (low diameter; every light phase touches most of the tentative vector).
- ``road``: 4-neighbour grid, integer weights, *undirected* edge list, so
  the loader takes its mirror path (high diameter, tiny frontiers).
- ``kron``: R-MAT graph with skewed degrees, float weights, Matrix Market
  ``real general`` (the other loader, and the float-tolerance check).

Shapes follow the GAP Benchmark Suite (Beamer, Asanovic, Patterson, arXiv
1508.03619); the skewed graph uses the R-MAT recursive quadrant generator
(Chakrabarti, Zhan, Faloutsos, SDM 2004).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("urand", "road", "kron")

# (full, tiny) sizes; tiny is what the self-test runs
# Sizes keep one full cycle of load, two solves and a cold run to a few
# seconds, so a run can spread every metric's samples over its whole window.
_URAND = {"full": (50_000, 525_000), "tiny": (300, 3_000)}
_ROAD_SIDE = {"full": 64, "tiny": 10}
_KRON = {"full": (15, 16), "tiny": (8, 8)}  # (scale, edge factor)
_RMAT_ABC = (0.57, 0.19, 0.19)
KRON_SOURCES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    path: str
    format: str  # "edges" or "mtx", as the CLI's --format takes it
    directed: bool
    sources: tuple[int, ...]  # external labels, as the file names them
    delta: float
    exact: bool  # integer weights: distances must match the oracle bit for bit

    def cli_args(self, source: int) -> list[str]:
        args = ["run", "--graph", self.path, "--format", self.format]
        if self.directed and self.format == "edges":
            args.append("--directed")
        return args + ["--source", str(source), "--delta", repr(self.delta)]


def _write(path: Path, header: list[str], u, v, w) -> None:
    # repr keeps float weights exact through the file
    body = [f"{a} {b} {c!r}" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())]
    path.write_text("\n".join(header + body) + "\n", encoding="utf-8")


def _urand(rng: np.random.Generator, scale: str, path: Path) -> Workload:
    n, m = _URAND[scale]
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    w = rng.integers(1, 11, size=m)
    _write(path, [], u, v, w)
    return Workload("urand", str(path), "edges", True, (int(u[0]),), 3.0, True)


def _road(rng: np.random.Generator, scale: str, path: Path) -> Workload:
    side = _ROAD_SIDE[scale]
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    w = rng.integers(1, 1001, size=u.size)
    _write(path, [], u, v, w)
    return Workload("road", str(path), "edges", False, (0,), 200.0, True)


def _kron(rng: np.random.Generator, scale: str, path: Path) -> Workload:
    levels, edge_factor = _KRON[scale]
    n = 1 << levels
    m = edge_factor * n
    a, b, c = _RMAT_ABC
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for level in range(levels):
        r = rng.random(m)
        row_bit = r >= a + b
        col_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        u |= row_bit.astype(np.int64) << level
        v |= col_bit.astype(np.int64) << level
    # relabel so vertex ids carry no degree information, as GAP does
    perm = rng.permutation(n)
    u, v = perm[u], perm[v]
    w = 10.0 * (1.0 - rng.random(m))  # in (0, 10]
    header = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {m}"]
    _write(path, header, u + 1, v + 1, w)
    # the highest out-degree vertices: every seed then solves from hubs, so
    # seeds vary the graph rather than the kind of source
    degree = np.bincount(u[u != v], minlength=n)
    sources = np.argsort(-degree, kind="stable")[:KRON_SOURCES]
    return Workload(
        "kron", str(path), "mtx", True, tuple(int(s) + 1 for s in sources), 1.0, False
    )


_MAKERS = {"urand": _urand, "road": _road, "kron": _kron}


def make(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    """Write workload `name` for `seed` into `workdir` and describe it."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    suffix = ".mtx" if name == "kron" else ".txt"
    return _MAKERS[name](rng, scale, workdir / f"{name}-{seed}{suffix}")


def fingerprint(workload: Workload, matrix) -> dict:
    """Identity of the inputs a run used: equal fingerprints, equal inputs."""
    digest = hashlib.sha256(Path(workload.path).read_bytes()).hexdigest()
    return {
        "n": matrix.n,
        "stored_m": matrix.nnz,
        "weight_sum": math.fsum(matrix.val.tolist()),
        "sources": list(workload.sources),
        "delta": workload.delta,
        "file_sha256": digest[:16],
    }
