"""Ground-truth generators and the exhaustive solver for tiny team counts.

The generators build each matrix as a whole array; the exhaustive solver
backtracks game by game over Python lists, for n <= BRUTE_FORCE_LIMIT only.
"""

from __future__ import annotations

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


def _trip_cover_tables(inst: Instance):
    """Per-team DP: cheapest cover of an away-venue subset by 1/2-stop trips.

    cover[i][mask] is the minimum travel for team i to play the away set
    `mask` (bit v for team v; bit i is never set) in road trips of length
    one or two, starting and ending at home.  Only the trip structure forced
    by bounded-by-2 is used, so the value is a valid lower bound regardless
    of scheduling interactions or the triangle inequality.  Distances are
    read from one `dist.tolist()` table, the Python scalars of `dist`.
    """
    n = inst.n
    d = inst.dist.tolist()
    cover = []
    for i in range(n):
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            if mask >> i & 1:
                continue
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            best = 2 * d[i][v] + table[rest]
            sub = rest
            while sub:
                w = (sub & -sub).bit_length() - 1
                cand = d[i][v] + d[v][w] + d[w][i] + table[rest & ~(1 << w)]
                if cand < best:
                    best = cand
                sub &= sub - 1
            table[mask] = best
        cover.append(table)
    return cover


def brute_force_optimal(inst: Instance) -> tuple[Schedule, object]:
    """Exact optimum for n in {4, 6} by game-by-game backtracking.

    Days are filled one game at a time (lowest free team first, cheapest
    option first).  Branches are cut on no-repeat / bounded-by-2 prefixes
    and on partial cost plus the sum of per-team independent
    remaining-itinerary optima.  That sum at the root, the
    per-team trip-cover bound, holds without the triangle inequality, so
    the search stops once its best schedule attains it.  The total returned
    is the `total_distance` walk's, not the search's own sum, which can
    differ from it in the last bits on real-valued distances.
    """
    n = inst.n
    if n > BRUTE_FORCE_LIMIT:
        raise DomainError(f"brute force is guarded to n <= {BRUTE_FORCE_LIMIT}")
    days = 2 * n - 2
    d = inst.dist.tolist()
    cover = _trip_cover_tables(inst)

    best_cost = None
    best_days = None

    venue = list(range(n))
    run = [(0, 0)] * n  # (+1 away / -1 home, consecutive count)
    last_opp = [-1] * n
    away_mask = [((1 << n) - 1) ^ (1 << i) for i in range(n)]  # bit v: still to play at v
    schedule_days: list[list[tuple[int, int]]] = [[] for _ in range(days)]

    def team_bound(i: int) -> int:
        mask = away_mask[i]
        v = venue[i]
        if v == i:
            return cover[i][mask]
        # Currently away at v: either head home now, or take one more stop
        # if the current trip has room.
        best = d[v][i] + cover[i][mask]
        if run[i][1] < 2:
            sub = mask
            while sub:
                w = (sub & -sub).bit_length() - 1
                if w != last_opp[i]:
                    cand = d[v][w] + d[w][i] + cover[i][mask & ~(1 << w)]
                    if cand < best:
                        best = cand
                sub &= sub - 1
        return best

    bound_parts = [team_bound(i) for i in range(n)]
    root_bound = sum(bound_parts)

    def play(away: int, home: int):
        venue[away] = home
        venue[home] = home
        s_a, l_a = run[away]
        run[away] = (1, l_a + 1 if s_a == 1 else 1)
        s_h, l_h = run[home]
        run[home] = (-1, l_h + 1 if s_h == -1 else 1)
        last_opp[away] = home
        last_opp[home] = away
        away_mask[away] &= ~(1 << home)
        bound_parts[away] = team_bound(away)
        bound_parts[home] = team_bound(home)

    def may_play(away: int, home: int) -> bool:
        if not away_mask[away] >> home & 1:
            return False
        if last_opp[away] == home:
            return False
        s_a, l_a = run[away]
        if s_a == 1 and l_a >= 2:
            return False
        s_h, l_h = run[home]
        if s_h == -1 and l_h >= 2:
            return False
        return True

    def search(day: int, free: list[int], cost: int):
        nonlocal best_cost, best_days
        if best_cost is not None and (best_cost <= root_bound or cost + sum(bound_parts) >= best_cost):
            return
        if not free:
            nxt = day + 1
            if nxt == days:
                total = cost + sum(d[venue[i]][i] for i in range(n) if venue[i] != i)
                if best_cost is None or total < best_cost:
                    best_cost = total
                    best_days = [list(g) for g in schedule_days]
                return
            search(nxt, list(range(n)), cost)
            return

        t = free[0]
        options = []
        for u in free[1:]:
            if may_play(t, u):
                options.append((d[venue[t]][u] + d[venue[u]][u], t, u))
            if may_play(u, t):
                options.append((d[venue[u]][t] + d[venue[t]][t], u, t))
        options.sort(key=lambda o: o[0])

        for step, away, home in options:
            saved = (
                venue[away], run[away], last_opp[away], bound_parts[away],
                venue[home], run[home], last_opp[home], bound_parts[home],
            )
            play(away, home)
            schedule_days[day].append((away, home))
            rest = [x for x in free if x != away and x != home]
            search(day, rest, cost + step)
            schedule_days[day].pop()
            away_mask[away] |= 1 << home
            (venue[away], run[away], last_opp[away], bound_parts[away],
             venue[home], run[home], last_opp[home], bound_parts[home]) = saved

    search(0, list(range(n)), 0)
    if best_days is None:
        raise AssertionError("no feasible schedule found")
    sched = games_to_schedule(n, best_days)
    return sched, total_distance(sched, inst).total
