"""Per-cell loop versions of the schedule layer and the instance generators,
kept as references.

The package computes these on the venue matrix with NumPy; the loops below
are the plain definitions they must agree with, violation order, per-team
types and first error message included (see test_loop_reference.py).
"""

from __future__ import annotations

import math

import numpy as np

from ttp2.errors import ValidationError
from ttp2.instance import Instance
from ttp2.schedule import DistanceReport, FeasibilityReport, Schedule


def _opponent(s: Schedule, team: int, day: int) -> int:
    return abs(int(s.table[team, day])) - 1


def _is_away(s: Schedule, team: int, day: int) -> bool:
    return int(s.table[team, day]) > 0


def validate_schedule(s: Schedule, k: int = 2) -> FeasibilityReport:
    n = s.n
    t = s.table
    violations: list[tuple[str, int, int]] = []

    for i in range(n):
        for d in range(s.days):
            e = int(t[i, d])
            if e == 0 or abs(e) > n or abs(e) == i + 1:
                violations.append(("fixed-game-time", i, d))
                continue
            j = abs(e) - 1
            mirror = int(t[j, d])
            if e > 0 and mirror != -(i + 1):
                violations.append(("fixed-game-time", i, d))
            if e < 0 and mirror != (i + 1):
                violations.append(("fixed-game-time", i, d))

    for i in range(n):
        row = t[i]
        for j in range(n):
            if j == i:
                continue
            aways = int(np.count_nonzero(row == j + 1))
            if aways != 1:
                violations.append(("fixed-game-value", i, j))

    for i in range(n):
        for d in range(s.days - 1):
            if abs(int(t[i, d])) == abs(int(t[i, d + 1])):
                violations.append(("no-repeat", i, d + 1))

    for i in range(n):
        run_sign = 0
        run_len = 0
        for d in range(s.days):
            sign = 1 if int(t[i, d]) > 0 else -1
            if sign == run_sign:
                run_len += 1
            else:
                run_sign = sign
                run_len = 1
            if run_len == k + 1:
                violations.append(("bounded-by-k", i, d))

    return FeasibilityReport(tuple(violations))


def venue_sequence(s: Schedule, team: int) -> list[int]:
    seq = [team]
    for d in range(s.days):
        seq.append(_opponent(s, team, d) if _is_away(s, team, d) else team)
    seq.append(team)
    return seq


def total_distance(s: Schedule, inst) -> DistanceReport:
    d = inst.dist.tolist()
    per_team = []
    for i in range(s.n):
        seq = venue_sequence(s, i)
        dist = 0
        for a, b in zip(seq, seq[1:]):
            if a != b:
                dist += d[a][b]
        per_team.append(dist)
    return DistanceReport(tuple(per_team))


def extract_coefficients(template: Schedule) -> np.ndarray:
    n = template.n
    c = np.zeros((n, n), dtype=np.int64)
    for team in range(n):
        venue = team
        for d in range(template.days):
            nxt = _opponent(template, team, d) if _is_away(template, team, d) else team
            if nxt != venue:
                c[venue, nxt] += 1
                c[nxt, venue] += 1
            venue = nxt
        if venue != team:
            c[venue, team] += 1
            c[team, venue] += 1
    return c


def bind_template(template: Schedule, bind: list[int]) -> Schedule:
    n = template.n
    table = np.zeros_like(template.table)
    for label in range(n):
        team = bind[label]
        for d in range(template.days):
            e = int(template.table[label, d])
            opp = bind[abs(e) - 1]
            table[team, d] = (opp + 1) if e > 0 else -(opp + 1)
    return Schedule(table)


def validate_distances(n: int, dist: np.ndarray) -> None:
    """The checks of `Instance` construction, in their original order."""
    if n < 4 or n % 2 != 0:
        raise ValidationError(f"team count must be even and >= 4, got {n}")
    if dist.shape != (n, n):
        raise ValidationError(f"distance matrix shape {dist.shape} does not match n={n}")
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distance matrix contains non-finite entries")
    for i in range(n):
        if dist[i, i] != 0:
            raise ValidationError(f"diagonal entry ({i},{i}) is {dist[i, i]}, expected 0")
        for j in range(i + 1, n):
            if dist[i, j] < 0:
                raise ValidationError(f"negative distance at ({i},{j}): {dist[i, j]}")
            if dist[i, j] != dist[j, i]:
                raise ValidationError(
                    f"asymmetry at ({i},{j}): {dist[i, j]} != {dist[j, i]}"
                )


def tight_instance(n: int) -> Instance:
    dist = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for k in range(0, n, 2):
        dist[k, k + 1] = dist[k + 1, k] = 0
    return Instance(n=n, dist=dist)


def random_metric_instance(n: int, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1000.0, size=(n, 2))
    dist = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.ceil(math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]))
            dist[i, j] = dist[j, i] = d
    return Instance(n=n, dist=dist)
