"""Output checks that do not use ttp2.schedule.

A schedule table is n x (2n-2) signed 1-based opponents: +j means away at
team j, -j means home against team j.  Everything here is recomputed with
NumPy from the table and the distance matrix alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def read_csv_table(text: str) -> np.ndarray:
    rows = [line for line in text.splitlines() if line.strip()]
    return np.array([[int(cell) for cell in line.split(",")] for line in rows], dtype=np.int64)


def schedule_problems(table: np.ndarray) -> list[str]:
    """Names of the TTP-2 properties the table breaks (empty when feasible)."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    if n < 2 or t.shape != (n, 2 * n - 2):
        return [f"shape {t.shape} is not n x (2n-2)"]
    problems = []
    team = np.arange(1, n + 1)[:, None]
    opp = np.abs(t)
    if np.any((opp < 1) | (opp > n) | (opp == team)):
        return ["fixed-game-time: opponent out of range"]
    days = np.arange(t.shape[1])[None, :]
    mirror = t[opp - 1, days]
    if np.any(mirror != -np.sign(t) * team):
        problems.append("fixed-game-time: opponent's cell does not mirror")
    away_counts = np.zeros((n, n + 1), dtype=np.int64)
    rows = np.broadcast_to(np.arange(n)[:, None], t.shape)
    np.add.at(away_counts, (rows[t > 0], t[t > 0]), 1)
    expected = np.ones((n, n + 1), dtype=np.int64)
    expected[:, 0] = 0
    expected[np.arange(n), np.arange(1, n + 1)] = 0
    if not np.array_equal(away_counts, expected):
        problems.append("fixed-game-value: some ordered pair is not played away exactly once")
    if np.any(opp[:, 1:] == opp[:, :-1]):
        problems.append("no-repeat: same opponent on consecutive days")
    s = np.sign(t)
    if np.any((s[:, 2:] == s[:, 1:-1]) & (s[:, 1:-1] == s[:, :-2])):
        problems.append("bounded-by-2: three consecutive home or away games")
    return problems


def venue_walk_total(table: np.ndarray, dist: np.ndarray):
    """Total travel from walking every team's venues, home to home."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    home = np.arange(n)[:, None]
    venue = np.where(t > 0, t - 1, home)
    walk = np.hstack([home, venue, home])
    legs = np.asarray(dist)[walk[:, :-1], walk[:, 1:]]
    return legs.sum().item()


def linear_form_total(coeffs: np.ndarray, dist: np.ndarray, bind) -> object:
    """Half the coefficient-weighted distances under a label -> team binding."""
    b = np.asarray(bind)
    return (np.asarray(coeffs) * np.asarray(dist)[np.ix_(b, b)]).sum().item() / 2


def ratio_bound(n: int) -> Fraction:
    """The paper's guarantee on total / LB for n = 0 and n = 2 (mod 4)."""
    k = 3 if n % 4 == 0 else 5
    return 1 + Fraction(k, n) - Fraction(10, n * (n - 2))


def _packs(n: int, p: int) -> bool:
    return n % 4 == 0 and n >= 8 if p == 1 else n % (4 * p) == 0 and n >= 8 * p


@lru_cache(maxsize=None)
def left_games(n: int, p: int) -> int:
    """L_p(n): left super-games of the n = 0 (mod 4) template packed by p.

    The 4p-team sub-problems use their own best packing, as build_even_template does.
    """
    if p == 1:
        return n // 2 - 4
    sub = min(left_games(4 * p, i) for i in range(1, p) if _packs(4 * p, i))
    return n // 2 - 3 * p + (n // (4 * p)) * sub


def tight_extra(n: int, packing: int | None) -> int:
    """Exact extra cost over LB = n(n-2) on tight_instance(n)."""
    if packing is None:
        return 5 * n - 20
    if packing == 1:
        return 3 * n - 16
    return 4 * left_games(n, packing) + n


def totals_match(a, b, integral: bool) -> bool:
    if integral:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_solve(report: dict, table: np.ndarray, dist: np.ndarray, integral: bool, derandomized: bool) -> list[str]:
    """Problems with one `solve` result: its JSON report and schedule table."""
    n = int(report["n"])
    if table.shape[0] != n or np.asarray(dist).shape != (n, n):
        return [f"schedule has {table.shape[0]} teams, report says {n}"]
    problems = schedule_problems(table)
    if problems:
        return problems
    walked = venue_walk_total(table, dist)
    total, lb = report["total"], report["lb"]
    if not totals_match(walked, total, integral):
        problems.append(f"venue walk gives {walked}, report says {total}")
    if total < lb and not totals_match(total, lb, integral):
        problems.append(f"total {total} is below LB {lb}")
    if derandomized and integral and Fraction(total) > ratio_bound(n) * lb:
        problems.append(f"total {total} exceeds the ratio bound {float(ratio_bound(n))} x LB {lb}")
    return problems
