"""Seeded input corpora for the three benchmark workloads.

Every instance is built from the workload seed alone, so one seed always
gives the same files and the same solve seeds.  Three instance kinds are
used: uniform points (the package's own ``random_metric_instance``),
clustered points (ceil'd Euclidean, so still metric) and real-valued
Euclidean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ttp2 import random_metric_instance, tight_instance, write_instance
from ttp2.instance import Instance
from ttp2.matching import Matching

KINDS = ("uniform", "clustered", "real")

# restarts: n spread over 10..40 so that n = 0 (mod 4) with the base (28)
# and packed (24, 32, 40) templates and n = 2 (mod 4) all occur.  Three
# small, three n=24 and four large solves keep op_ms_p50 inside the n=24
# group and the p85 tail inside the band of the second-slowest solve.
RESTARTS_SIZES = {
    "uniform": (10, 24, 32),
    "clustered": (18, 24, 28, 40),
    "real": (14, 24, 30),
}
RESTARTS_ROUNDS = 50

# large-derand: both residues near 80 and 120, uniform and clustered.  Three
# solves near 80 against two near 120 put op_ms_p50 inside one size group.
LARGE_SIZES = (("uniform", 80), ("clustered", 80), ("uniform", 82), ("clustered", 120), ("uniform", 122))
# Real-valued probe for the known derandomize TypeError on float instances.
PROBE_SIZE = 12

SWEEP_NS = range(8, 123)


@dataclass(frozen=True)
class SolveOp:
    """One `ttp2 solve` call: the instance file and its CLI arguments."""

    name: str
    path: Path
    argv: tuple[str, ...]


@dataclass(frozen=True)
class SweepOp:
    """One check-sweep binding: template (n, packing) and ordering seed."""

    name: str
    n: int
    packing: int | None  # None for the n = 2 (mod 4) template
    ordering_seed: int


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), *tags])


def clustered_instance(n: int, seed: int) -> Instance:
    """Points around a few centres; distances are ceil'd Euclidean (metric)."""
    rng = _rng(seed, 1, n)
    k = max(2, n // 8)
    centres = rng.uniform(0.0, 1000.0, size=(k, 2))
    pts = centres[rng.integers(0, k, size=n)] + rng.normal(0.0, 40.0, size=(n, 2))
    return Instance(n=n, dist=_euclid(pts, ceil=True))


def real_instance(n: int, seed: int) -> Instance:
    """Uniform points with real-valued (non-integral) Euclidean distances."""
    pts = _rng(seed, 2, n).uniform(0.0, 1000.0, size=(n, 2))
    return Instance(n=n, dist=_euclid(pts, ceil=False), integral=False)


def _euclid(pts: np.ndarray, ceil: bool) -> np.ndarray:
    n = len(pts)
    dist = np.zeros((n, n), dtype=np.int64 if ceil else np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
            dist[i, j] = dist[j, i] = math.ceil(d) if ceil else d
    return dist


def make_instance(kind: str, n: int, seed: int) -> Instance:
    if kind == "uniform":
        return random_metric_instance(n, seed=int(_rng(seed, 0, n).integers(2**31)))
    if kind == "clustered":
        return clustered_instance(n, seed)
    if kind == "real":
        return real_instance(n, seed)
    raise ValueError(f"unknown instance kind {kind!r}")


def solve_seed(seed: int, index: int) -> int:
    """The `solve --seed` of the index-th op, derived from the workload seed."""
    return int(_rng(seed, 3, index).integers(2**31))


def _write(directory: Path, kind: str, n: int, seed: int) -> Path:
    path = directory / f"{kind}{n}.txt"
    path.write_text(write_instance(make_instance(kind, n, seed)))
    return path


def restarts_ops(directory: Path, seed: int) -> list[SolveOp]:
    ops = []
    for kind in KINDS:
        for n in RESTARTS_SIZES[kind]:
            path = _write(directory, kind, n, seed)
            s = solve_seed(seed, len(ops))
            argv = ("solve", str(path), "--rounds", str(RESTARTS_ROUNDS), "--seed", str(s))
            ops.append(SolveOp(path.stem, path, argv))
    return ops


def large_derand_ops(directory: Path, seed: int) -> list[SolveOp]:
    ops = []
    for kind, n in LARGE_SIZES:
        path = _write(directory, kind, n, seed)
        s = solve_seed(seed, len(ops))
        argv = ("solve", str(path), "--rounds", "1", "--seed", str(s), "--derandomize")
        ops.append(SolveOp(path.stem, path, argv))
    return ops


def derand_probe_op(directory: Path, seed: int) -> SolveOp:
    path = _write(directory, "real", PROBE_SIZE, seed)
    argv = ("solve", str(path), "--rounds", "1", "--seed", str(solve_seed(seed, 99)), "--derandomize")
    return SolveOp(path.stem, path, argv)


def even_packings(n: int) -> list[int]:
    """Every valid packing p for n = 0 (mod 4): p = 1 or 8p <= n, 4p | n."""
    return [1] + [p for p in range(2, n // 8 + 1) if n % (4 * p) == 0]


def sweep_ops(seed: int) -> list[SweepOp]:
    ops = []
    for n in SWEEP_NS:
        if n % 4 == 0:
            specs = even_packings(n)
        elif n % 4 == 2 and n >= 10:
            specs = [None]
        else:
            continue
        for p in specs:
            name = f"even{n}p{p}" if p else f"odd{n}"
            ops.append(SweepOp(name, n, p, int(_rng(seed, 4, len(ops)).integers(2**31))))
    return ops


def designated_matching(n: int) -> Matching:
    """The zero-weight matching {(0,1),(2,3),...} of tight_instance(n)."""
    pairs = tuple((k, k + 1) for k in range(0, n, 2))
    d_g = n * (n - 1) // 2 - n // 2
    return Matching(pairs=pairs, weight=0, d_g=d_g, d_h=d_g)


def tight_instances() -> dict[int, Instance]:
    return {n: tight_instance(n) for n in SWEEP_NS if n % 2 == 0 and n >= 8}
