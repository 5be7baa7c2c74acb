"""Schedule template construction for n = 2 (mod 4).

With an odd super-team count m there are two special super-teams: one
(second to last, "L") meets a different opponent in a four-day block every
slot, and one ("R", the last) joins two cycle-adjacent super-teams in a
twelve-game right super-game each slot, keeping its first team on an AHHA
rhythm and its second on HAAH throughout.  The remaining games
(intra-pair, the leftover half of each adjacent pair's games, and L vs R)
fill a final six-day block.

Whites 1..m-2 sit on an odd cycle.  Every white meets L once; the slot of
that meeting drives the same home/away block status as in the even
construction (`_block_home`).  Within right super-games each white team
has either both of its games against one R team or all four or none,
which is what makes the leftover games land where the final block needs
them.  The right super-games are six-role kinds of the shared pattern
table over (clean white, dirty white, R): one side's road trips stay
optimal ("clean", the even white) while the other pays two direct cross
travels, with the clean white at home or away; or, in the single slot
whose pair closes the odd cycle, both sides pay.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .even import _block_home, _dark_home_base, _games, _super_games
from .schedule import Schedule, games_to_schedule


def _white_home(x: int, q: int, m: int) -> bool:
    """Block status of white x in slot q; x meets L in slot m-1-x, white 1 in M."""
    return _block_home(m - 2 if x == 1 else m - 1 - x, q)


def _right_game(supers: np.ndarray, q: int, lo: int) -> np.ndarray:
    """The right super-game of slot q on the cycle-adjacent pair (lo, lo mod M + 1)."""
    m = len(supers)
    M = m - 2
    if lo == M:  # closing pair: white 1 hosts M, as M meets L in slot 1
        roles = [supers[M - 1, ::-1], supers[0], supers[m - 1]]
        return _games("right-closing", np.concatenate(roles)[None])
    c, d = (lo, lo + 1) if lo % 2 == 0 else (lo + 1, lo)
    clean = supers[c - 1] if c == lo else supers[c - 1, ::-1]
    dirty = supers[d - 1] if d > lo or d == 1 else supers[d - 1, ::-1]
    kind = "right-home" if _white_home(c, q, m) else "right-away"
    return _games(kind, np.concatenate([clean, dirty, supers[m - 1]])[None])


def _final_block(supers: np.ndarray) -> list[list[tuple[int, int]]]:
    """Days [A1, self, A2, rev A1, rev A2, rev self] for the whites; L and R
    play self first (their A games are the L-R games)."""
    teams = supers.tolist()
    m = len(teams)
    M = m - 2
    a1_games, a2_games, self_games = [], [], []
    for x in range(1, M + 1):
        (x1, x2), (y1, y2) = teams[x - 1], teams[x % M]
        if x == M:  # cycle-closing edge, both ends dirty
            a1_games.append((x2, y2))
            a2_games.append((y1, x1))
        elif x % 2 == 0:  # clean left of dirty
            a1_games.append((y1, x2))
            a2_games.append((y2, x2))
        else:  # dirty left of clean; white 1 is mirrored
            first, other = (x1, x2) if x == 1 else (x2, x1)
            a1_games.append((first, y1))
            a2_games.append((y1, other))
        self_games.append((x2, x1) if x % 2 == 0 or x == 1 else (x1, x2))

    (l1, l2), (r1, r2) = teams[m - 2], teams[m - 1]
    rev = lambda games: [(h, a) for a, h in games]
    return [
        a1_games + [(l1, l2), (r2, r1)],
        self_games + [(r1, l1), (l2, r2)],
        a2_games + [(l1, r2), (l2, r1)],
        rev(a1_games) + [(l1, r1), (r2, l2)],
        rev(a2_games) + [(r2, l1), (r1, l2)],
        rev(self_games) + [(l2, l1), (r1, r2)],
    ]


def build_odd_template(n: int) -> Schedule:
    """Template schedule over labels 0..n-1 for n = 2 (mod 4), n >= 10."""
    if n % 4 != 2 or n < 10:
        raise DomainError(f"odd-n/2 construction needs n = 2 (mod 4), n >= 10, got {n}")
    m = n // 2
    M = m - 2  # number of whites on the cycle
    supers = np.arange(n).reshape(m, 2)
    slots = []

    for q in range(1, m - 1):
        lo = ((m - 3) // 2 - q) % M + 1

        # L's super-game of the slot, against the white w meeting it in q.
        w = 1 if q == M else m - 1 - q
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
        rest = [x for x in range(1, M + 1) if x not in (lo, lo % M + 1, w)]
        matches = []
        for x in rest:
            y = (2 * lo - x) % M + 1
            if y == x or y not in rest:
                raise AssertionError("normal pairing failed")
            if x < y:
                matches.append((y, x) if _white_home(x, q, m) else (x, y))
        slots.append(np.concatenate(
            [_right_game(supers, q, lo), left, _super_games("normal", supers, matches)], axis=1
        ))

    slots.append(_final_block(supers))
    return games_to_schedule(n, np.concatenate(slots))
