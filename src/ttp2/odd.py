"""Schedule template construction for n = 2 (mod 4).

With an odd super-team count m there are two special super-teams: one
(second to last, "L") meets a different opponent in a four-day block every
slot, and one ("R") joins two cycle-adjacent super-teams in a twelve-game
right super-game each slot, keeping its first team on an AHHA rhythm and
its second on HAAH throughout.  The remaining games (intra-pair, the
leftover half of each adjacent pair's games, and L vs R) fill a final
six-day block.

Whites 1..m-2 sit on an odd cycle.  Every white meets L once; the slot of
that meeting drives a home/away block status exactly as in the even
construction.  Within right super-games each white team has either both of
its games against one R team ("r1/r2 pair") or all four or none, which is
what makes the leftover games land where the final block needs them.  The
layout of the four days in a right super-game comes in three shapes: one
side's road trips stay optimal ("clean") while the other pays two direct
cross travels, or - in the single slot whose adjacent pair closes the odd
cycle - both sides pay.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .even import _dark_home_base, _merge, _super_games
from .schedule import Schedule, games_to_schedule

Game = tuple[int, int]


class _OddLayout:
    """Index bookkeeping for the odd construction on m = n/2 super-teams."""

    def __init__(self, n: int):
        if n % 4 != 2 or n < 10:
            raise DomainError(f"odd-n/2 construction needs n = 2 (mod 4), n >= 10, got {n}")
        self.n = n
        self.m = n // 2
        self.M = self.m - 2  # number of whites on the cycle

    # -- super-teams -> 0-based team indices -------------------------------
    def team1(self, label: int) -> int:
        return 2 * label - 2

    def team2(self, label: int) -> int:
        return 2 * label - 1

    def super_teams(self, label: int) -> tuple[int, int]:
        return (self.team1(label), self.team2(label))

    @property
    def ul(self) -> tuple[int, int]:
        return self.super_teams(self.m - 1)

    @property
    def ur(self) -> tuple[int, int]:
        return self.super_teams(self.m)

    # -- cycle / slot maps ---------------------------------------------------
    def sigma(self, x: int) -> int:
        """Slot in which white x meets L (slot 1 is a normal super-game)."""
        return self.M if x == 1 else self.m - 1 - x

    def white_at_sigma(self, q: int) -> int:
        return 1 if q == self.M else self.m - 1 - q

    def right_pair(self, q: int) -> tuple[int, int]:
        """Cycle-adjacent white pair in the right super-game of slot q."""
        lo0 = ((self.m - 3) // 2 - q) % self.M
        return (lo0 + 1, (lo0 + 1) % self.M + 1)

    def next_white(self, x: int) -> int:
        return x % self.M + 1

    def white_home(self, x: int, q: int) -> bool:
        s = self.sigma(x)
        if s == 1:
            return False  # meets L in slot 1: away block throughout
        init = s % 2 == 1
        return init if q <= s else not init

    def clean(self, x: int) -> bool:
        return x % 2 == 0

    # -- per-team role bits ----------------------------------------------------
    def a1_side_team(self, x: int, side: str) -> int:
        """Team of dirty white x whose first-leg games point to `side`.

        The same bit fixes both the final-block day classes and which R team
        the white team pairs with in the right super-game on that side.
        Label 1 is mirrored so the closing edge of the odd cycle works out.
        """
        if x == 1:
            return self.team2(x) if side == "L" else self.team1(x)
        return self.team1(x) if side == "L" else self.team2(x)

    def ww_role_team(self, c: int, side: str) -> int:
        """Team of clean white c that plays its adjacency games inside the
        right super-game on `side` (the other team defers them to the end)."""
        return self.team2(c) if side == "L" else self.team1(c)

    def defer_team(self, c: int, side: str) -> int:
        return self.team1(c) if side == "L" else self.team2(c)


# ---------------------------------------------------------------------------
# Right super-game day content.
# ---------------------------------------------------------------------------

def _right_single_dirty(lay: _OddLayout, lo: int, hi: int, q: int) -> list[list[Game]]:
    c, d = (lo, hi) if lay.clean(lo) else (hi, lo)
    c_side = "R" if c == lo else "L"  # which adjacency side this game is for c
    d_side = "R" if d == lo else "L"
    ww = lay.ww_role_team(c, c_side)
    rq = lay.defer_team(c, c_side)
    r1p = lay.a1_side_team(d, d_side)
    r2p = lay.team1(d) if r1p == lay.team2(d) else lay.team2(d)
    r1, r2 = lay.ur

    if lay.white_home(c, q):
        # Clean side at home: its deferring team plays all four R games.
        h_b, h_a = ww, rq
        a_p, a_s = r1p, r2p
        return [
            [(a_p, h_b), (r1, h_a), (a_s, r2)],
            [(a_s, h_b), (r2, h_a), (a_p, r1)],
            [(h_b, a_p), (h_a, r1), (r2, a_s)],
            [(h_b, a_s), (h_a, r2), (r1, a_p)],
        ]
    # Clean side away.
    a1, a2 = ww, rq
    h2, h1 = r1p, r2p
    return [
        [(a1, h1), (r1, h2), (a2, r2)],
        [(a1, h2), (r2, h1), (a2, r1)],
        [(h1, a1), (r2, a2), (h2, r1)],
        [(h2, a1), (r1, a2), (h1, r2)],
    ]


def _right_special(lay: _OddLayout, q: int) -> list[list[Game]]:
    """The right super-game on the cycle-closing pair: both sides pay."""
    big, one = lay.M, 1
    if lay.white_home(big, q):
        hm, aw = big, one
    else:
        hm, aw = one, big
    aw_side = "R" if aw == lay.M else "L"
    hm_side = "L" if hm == 1 else "R"
    a1 = lay.a1_side_team(aw, aw_side)
    a2 = lay.team1(aw) if a1 == lay.team2(aw) else lay.team2(aw)
    h_q = lay.a1_side_team(hm, hm_side)
    h_p = lay.team1(hm) if h_q == lay.team2(hm) else lay.team2(hm)
    r1, r2 = lay.ur
    return [
        [(a1, h_p), (r1, h_q), (a2, r2)],
        [(a2, h_q), (r2, h_p), (a1, r1)],
        [(h_p, a1), (h_q, r1), (r2, a2)],
        [(h_q, a2), (h_p, r2), (r1, a1)],
    ]


# ---------------------------------------------------------------------------
# Final six days.
# ---------------------------------------------------------------------------

def _final_block(lay: _OddLayout) -> list[list[Game]]:
    """Days [A1, self, A2, rev A1, rev A2, rev self] for the whites; L and R
    play self first (their A games are the L-R games)."""
    M = lay.M

    def other(x: int, team: int) -> int:
        return lay.team1(x) if team == lay.team2(x) else lay.team2(x)

    a1_games: list[Game] = []
    a2_games: list[Game] = []
    for x in range(1, M + 1):
        y = lay.next_white(x)
        if x == M:  # cycle-closing edge, both ends dirty
            a1_games.append((lay.team2(M), lay.team2(1)))
            a2_games.append((lay.team1(1), lay.team1(M)))
        elif lay.clean(x):  # clean left of dirty
            first = lay.a1_side_team(y, "L")
            a1_games.append((first, lay.defer_team(x, "R")))
            a2_games.append((other(y, first), lay.defer_team(x, "R")))
        else:  # dirty left of clean
            first = lay.a1_side_team(x, "R")
            a1_games.append((first, lay.defer_team(y, "L")))
            a2_games.append((lay.defer_team(y, "L"), other(x, first)))

    self_games: list[Game] = []
    for x in range(1, M + 1):
        if lay.clean(x) or x == 1:
            self_games.append((lay.team2(x), lay.team1(x)))
        else:
            self_games.append((lay.team1(x), lay.team2(x)))

    l1, l2 = lay.ul
    r1, r2 = lay.ur
    rev = lambda games: [(h, a) for a, h in games]
    return [
        a1_games + [(l1, l2), (r2, r1)],
        self_games + [(r1, l1), (l2, r2)],
        a2_games + [(l1, r2), (l2, r1)],
        rev(a1_games) + [(l1, r1), (r2, l2)],
        rev(a2_games) + [(r2, l1), (r1, l2)],
        rev(self_games) + [(l2, l1), (r1, r2)],
    ]


# ---------------------------------------------------------------------------
# Assembly.
# ---------------------------------------------------------------------------

def build_odd_template(n: int) -> Schedule:
    """Template schedule over labels 0..n-1 for n = 2 (mod 4), n >= 10."""
    lay = _OddLayout(n)
    m, M = lay.m, lay.M
    supers = np.arange(n).reshape(m, 2)
    slots = []

    for q in range(1, m - 1):
        lo, hi = lay.right_pair(q)
        right = _right_special(lay, q) if lo == M else _right_single_dirty(lay, lo, hi, q)

        # L's super-game of the slot.
        w = lay.white_at_sigma(q)
        if q == 1:
            left = _super_games("normal", supers, [(w, m - 1)])
        elif q == m - 2:
            left = _super_games("penultimate", supers, [(m - 1, 1)])
        elif _dark_home_base(q):
            left = _super_games("left", supers, [(w, m - 1)])
        else:
            left = _super_games("left", supers, [(m - 1, w)])

        # Normal super-games among the remaining whites, paired so their
        # 0-based labels sum to the slot's class (the right pair is one of
        # its pairs, the left partner its fixed point).
        used = {lo, hi, w}
        rest = [x for x in range(1, M + 1) if x not in used]
        target = (2 * (lo - 1) + 1) % M
        paired = set()
        matches = []
        for x in rest:
            if x in paired:
                continue
            y0 = (target - (x - 1)) % M
            y = y0 + 1
            if y == x or y not in rest:
                raise AssertionError("normal pairing failed")
            paired.update((x, y))
            matches.append((y, x) if lay.white_home(x, q) else (x, y))
        slots.append(_merge([right, left, _super_games("normal", supers, matches)]))

    slots.append(_final_block(lay))
    return games_to_schedule(n, np.concatenate(slots))
