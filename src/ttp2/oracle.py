"""Ground-truth generators and the exhaustive solver for tiny team counts.

The generators build each matrix as a whole array; the exhaustive solver,
for n <= BRUTE_FORCE_LIMIT only, searches day by day over days held as bit
masks of their games.  The days are cached per team count; the
day-to-day travel table is built with one gather per team.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError
from .instance import Instance
from .schedule import Schedule, games_to_schedule, total_distance

BRUTE_FORCE_LIMIT = 6


def tight_instance(n: int) -> Instance:
    """Zero distance on the designated matching {(0,1),(2,3),...}, one elsewhere.

    The independent lower bound of this instance is n*(n-2).
    """
    if n < 4 or n % 2:
        raise DomainError(f"n must be even >= 4, got {n}")
    dist = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    ar = np.arange(n)
    dist[ar, ar ^ 1] = 0
    return Instance(n=n, dist=dist)


def random_metric_instance(n: int, seed: int) -> Instance:
    """Integer distances from random points in the plane.

    Euclidean distances are rounded up; the ceiling preserves the triangle
    inequality exactly, so the result is always metric.  The coordinate
    differences of every ordered pair are taken at once; each length is
    CPython's `math.hypot`, not `np.hypot`, which calls the platform's libm,
    so every machine builds the same matrix.  A pair's differences in
    either order differ only in sign, so the matrix is symmetric.
    """
    if n < 4 or n % 2:
        raise DomainError(f"n must be even >= 4, got {n}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1000.0, size=(n, 2))
    dx, dy = (pts[:, None] - pts).transpose(2, 0, 1)
    lengths = np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), float, n * n)
    return Instance(n=n, dist=np.ceil(lengths).astype(np.int64).reshape(n, n))


@functools.lru_cache(maxsize=None)
def _days(teams: int) -> tuple[tuple, ...]:
    """Every day on which each of `teams` teams plays one game, then H.

    A day is (hosts, ordered, pairs, away, home): hosts[i] is team i's
    venue; `ordered` has bit a*teams+h for each game of visitor a at host
    h, `pairs` that bit and h*teams+a, and `away` and `home` bit i for each
    away or home team.  H, the last entry, has every team at home and all
    four masks 0; it opens and closes every walk.  Cached per team count,
    as the days depend on nothing else.
    """
    days = []
    slates = {tuple(sorted(zip(p[::2], p[1::2]))) for p in itertools.permutations(range(teams))}
    for games in sorted(slates):
        hosts = list(range(teams))
        for a, h in games:
            hosts[a] = h
        ordered = sum(1 << a * teams + h for a, h in games)
        pairs = ordered | sum(1 << h * teams + a for a, h in games)
        days.append((tuple(hosts), ordered, pairs, sum(1 << a for a, _ in games), sum(1 << h for _, h in games)))
    return (*days, (tuple(range(teams)), 0, 0, 0, 0))


def _trip_covers(d: list[list]) -> tuple[list, list]:
    """Per-team bounds of the exact search, by one DP over venue subsets.

    cover[i][m] is the least travel for team i, at home, to play at every
    venue in `m` (bit v for team v, never bit i) in road trips of one or two
    stops and end at home.  room[i][v][m] is the same for team i standing
    at venue v on a trip with room for one more stop: it goes home, or on
    to one w in m and then home, before covering the rest.  With v the
    lowest venue in m, cover[i][m] = d[i][v] + room[i][v][m - v]; and
    room[i][i] is cover[i], since home to w and back is a trip that cover
    already takes.  Only the trips that bounded-by-2 forces are used, so
    both bound what any schedule has left to travel, with or without the
    triangle inequality.
    """
    n = len(d)
    cover = [[0] * (1 << n) for _ in range(n)]
    room = [[[0] * (1 << n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for m in range(1 << n):
            if m >> i & 1:
                continue
            if m:
                v = (m & -m).bit_length() - 1
                cover[i][m] = d[i][v] + room[i][v][m & (m - 1)]
            for v in range(n):
                best = d[v][i] + cover[i][m]
                rest = m
                while rest:
                    w = (rest & -rest).bit_length() - 1
                    best = min(best, d[v][w] + d[w][i] + cover[i][m & ~(1 << w)])
                    rest &= rest - 1
                room[i][v][m] = best
    return cover, room


def brute_force_optimal(inst: Instance) -> tuple[Schedule, object]:
    """Exact optimum for n in {4, 6} by branch and bound over whole days.

    The walk starts at H and appends days from `_days`, cheapest travel
    first.  A day may follow the last one only if it shares no pair with
    it (no-repeat), plays no game already played, and sends no team on a
    third straight away or home game (bounded-by-2); all three are bit
    tests.  A branch is cut when its travel so far plus each team's
    `_trip_covers` bound on the rest reaches the best total found: a team
    at home needs cover, one away after two away days must go home first,
    and any other away team has room for one more stop.  That sum at the
    root holds without the triangle inequality, so the search stops once
    its best schedule attains it.  The total returned is the
    `total_distance` walk's, not the search's own sum, which can differ
    from it in the last bits on real-valued distances.
    """
    n = inst.n
    if n > BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force is guarded to n <= {BRUTE_FORCE_LIMIT}")
    d = inst.dist.tolist()
    cover, room = _trip_covers(d)
    days = _days(n)
    hosts, ordered, pairs, away, home = zip(*days)
    H = np.array(hosts)
    P = np.array(pairs, dtype=np.int64)  # n**2 <= 36 bits
    succ = (P[:, None] & P) == 0  # no-repeat: day k shares no pair with day p
    succ[:, -1] = False  # H never follows
    # trans[p, k], the travel from day p to day k, summed team by team over
    # `sum_dist`: exact Python ints where int64 sums could overflow.
    trans = sum(inst.sum_dist[H[:, None, i], H[None, :, i]] for i in range(n))
    order = np.argsort(trans, axis=1, kind="stable")  # cheapest first, ties by day
    follow = [row[ok[row]].tolist() for row, ok in zip(order, succ)]
    trans = trans.tolist()
    every = sum(1 << a * n + h for a, h in itertools.permutations(range(n), 2))
    full = (1 << n) - 1
    root = sum(cover[i][full ^ 1 << i] for i in range(n))
    best, best_walk, walk = math.inf, None, []

    def search(p: int, played: int, two_away: int, two_home: int, cost) -> None:
        nonlocal best, best_walk
        for k in follow[p]:
            if ordered[k] & played or away[k] & two_away or home[k] & two_home:
                continue
            cost_k = cost + trans[p][k]
            left = every ^ (played | ordered[k])
            stuck = away[k] & away[p]  # teams whose next venue is home
            bound = cost_k
            for i, v in enumerate(hosts[k]):
                m = left >> n * i & full
                bound += d[v][i] + cover[i][m] if stuck >> i & 1 else room[i][v][m]
            if bound >= best:
                continue
            walk.append(k)
            if left:
                search(k, played | ordered[k], stuck, home[k] & home[p], cost_k)
            else:
                best, best_walk = bound, [[(a, h) for a, h in enumerate(hosts[j]) if a != h] for j in walk]
            walk.pop()
            if best <= root:
                return

    search(len(days) - 1, 0, 0, 0, 0)
    sched = games_to_schedule(n, best_walk)
    return sched, total_distance(sched, inst).total
