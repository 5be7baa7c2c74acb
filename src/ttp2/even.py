"""Schedule template construction for n = 0 (mod 4).

Super-teams meet in m-1 time slots arranged by the circle method with the
last super-team fixed.  The first slot holds normal super-games, slots
2..m-3 carry one left super-game each, slot m-2 is all penultimate and the
final six-day slot is all last super-games.  Packing p super-teams into
group-teams turns the last group round into recursive sub-problems on 4p
teams, which lowers the number of costly left super-games; compute_L finds
the best packing.

Every super-game kind of both builders is one table of day patterns over
team roles: the four kinds here over (a1, a2, h1, h2) of an away and a
home super-team, and odd.py's three right super-game shapes over six
roles.  All slots of a circle but the closing ones are a single gather
from that table over every (slot, round, meeting, super-team) into a
(days, games, 2) array of (visitor, host) games; the fixed super-team's or
group's left super-games are then written over its normal ones.  The
penultimate and last base slots are one gather each, and the last group
slot gathers the 4p-team sub-template, built once, from each meeting's
teams.  The slots stack into the (2n-2, n/2, 2) array that
games_to_schedule scatters into the table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .schedule import Schedule, games_to_schedule

# ---------------------------------------------------------------------------
# Left-super-game counting  L_p(n)  and the packing choice.
# ---------------------------------------------------------------------------

def _valid_packing(n: int, p: int) -> bool:
    if p < 1:
        return False
    if p == 1:
        return n >= 8 and n % 4 == 0
    return n >= 8 * p and n % (4 * p) == 0


@lru_cache(maxsize=None)
def _L(n: int, p: int) -> int:
    if not _valid_packing(n, p):
        raise DomainError(f"packing p={p} invalid for n={n}")
    if p == 1:
        return n // 2 - 4
    sub = min(_L(4 * p, i) for i in range(1, p) if _valid_packing(4 * p, i))
    return n // 2 - 3 * p + (n // (4 * p)) * sub


def compute_L(n: int):
    """Minimum left-super-game count, its packing, and the full L_p table.

    Returns (L(n), best_p, {p: L_p(n)}).  Ties go to the smallest p.
    """
    if n % 4 != 0 or n < 8:
        raise DomainError(f"n must be a multiple of 4 and >= 8, got {n}")
    table = {}
    for p in range(1, n // 8 + 1):
        if _valid_packing(n, p):
            table[p] = _L(n, p)
    best_p = min(table, key=lambda p: (table[p], p))
    return table[best_p], best_p, table


def packing_chain(n: int, packing="auto") -> list[int]:
    """Validated packing chain for n = 0 (mod 4), n >= 8.

    `packing` is "auto" for the packing that realizes L(n), or an integer
    p.  Below p each level takes the best packing of its 4p-team
    sub-problem, ties to the smallest; the chain ends at the base
    construction, 1.
    """
    if packing == "auto":
        packing = compute_L(n)[1]
    if not isinstance(packing, int) or not _valid_packing(n, packing):
        raise DomainError(f"packing {packing} invalid for n={n}")
    chain = [packing]
    while chain[-1] > 1:
        chain.append(compute_L(4 * chain[-1])[1])
    return chain


# ---------------------------------------------------------------------------
# Super-game day patterns.  Each day lists its (visitor, host) games as role
# indices.  In the four-role kinds an away super-team (a1, a2) meets a home
# super-team (h1, h2): roles 0..3 are (a1, a2, h1, h2).  The six-role right
# super-games of odd.py put a clean white (c1, c2) and a dirty white
# (d1, d2) with R (r1, r2): roles 0..5 are (c1, c2, d1, d2, r1, r2).
# ---------------------------------------------------------------------------

_RIGHT_HOME = [
    [(2, 0), (4, 1), (3, 5)], [(3, 0), (5, 1), (2, 4)],
    [(0, 2), (1, 4), (5, 3)], [(0, 3), (1, 5), (4, 2)],
]

_PATTERNS = {
    kind: np.array(days)
    for kind, days in {
        "normal": [[(0, 2), (1, 3)], [(0, 3), (1, 2)], [(2, 0), (3, 1)], [(2, 1), (3, 0)]],
        # Away teams play AHHA as two single-game trips; home teams play HAAH.
        "left": [[(0, 2), (1, 3)], [(2, 1), (3, 0)], [(2, 0), (3, 1)], [(0, 3), (1, 2)]],
        "penultimate": [[(0, 2), (1, 3)], [(0, 3), (2, 1)], [(2, 0), (3, 1)], [(3, 0), (1, 2)]],
        # Six days covering the cross games and both intra-pair games.
        "last": [
            [(2, 3), (0, 1)], [(0, 2), (1, 3)], [(1, 2), (3, 0)],
            [(2, 0), (3, 1)], [(2, 1), (0, 3)], [(3, 2), (1, 0)],
        ],
        # The clean white is at home on the first two days; c2 plays all
        # four R games and each dirty team one R team twice.  right-away is
        # the same days in reverse.
        "right-home": _RIGHT_HOME,
        "right-away": _RIGHT_HOME[::-1],
        # The pair that closes the odd cycle: both whites pay.
        "right-closing": [
            [(0, 2), (4, 3), (1, 5)], [(1, 3), (5, 2), (0, 4)],
            [(2, 0), (3, 4), (5, 1)], [(3, 1), (2, 5), (4, 0)],
        ],
    }.items()
}


def _games(kind: str, roles: np.ndarray) -> np.ndarray:
    """Days of k `kind` super-games as a (days, games, 2) array of
    (visitor, host) games, from the (k, roles) array of their teams.  Axes
    before k are rounds, played one after another."""
    pattern = _PATTERNS[kind]
    days = roles[..., pattern].swapaxes(-4, -3)
    return days.reshape(math.prod(days.shape[:-3]), math.prod(days.shape[-3:-1]), 2)


def _super_games(kind: str, supers: np.ndarray, matches) -> np.ndarray:
    """`_games` of four-role `kind` for k (away, home) 1-based labels into
    the (m, 2) array of super-teams `supers`."""
    away, home = np.array(matches, dtype=np.intp).reshape(-1, 2).T - 1
    return _games(kind, np.hstack([supers[away], supers[home]]))


# ---------------------------------------------------------------------------
# Base construction (packing 1).
# ---------------------------------------------------------------------------

def _circle_pairs(m: int, q: int) -> tuple[list[tuple[int, int]], int]:
    """White pairings and the white meeting u_m in slot q (1-based labels)."""
    mod = m - 1
    partner = (1 - q) % mod or mod
    pairs = []
    for i in range(1, mod + 1):
        if i == partner:
            continue
        j = (2 - 2 * q - i) % mod or mod
        if i < j:
            pairs.append((i, j))
    return pairs, partner


def _block_home(s: int, q: int) -> bool:
    """Home/away status in slot q of a white that meets the fixed
    super-team in slot s (before the last slot): a white meeting it in
    slot 1 is away throughout, any other starts home iff s is odd and
    flips after slot s.  In a circle of g super-teams (or groups) white j
    meets it in slot g - j."""
    return s != 1 and (s % 2 == 1) == (q <= s)


def _dark_home_base(q: int) -> bool:
    return q == 1 or q % 2 == 0


def slot1_away_positions(m: int, chain: list[int]) -> list[int]:
    """Positions (1-based) whose super-teams start with away games."""
    p = chain[0]
    g = m // p
    away_groups = [2] + [j for j in range(4, g - 1, 2)] + [g - 1]
    out = []
    for grp in away_groups:
        out.extend(range((grp - 1) * p + 1, grp * p + 1))
    return sorted(out)


def _meeting_slots(supers: np.ndarray, p: int, last: int) -> np.ndarray:
    """Slots 1..last of the circle of g groups of p consecutive super-teams,
    each p rounds of four days.  In round l super-team i of a meeting's
    away group visits super-team i + l (mod p) of its home group.  Every
    super-game is normal but the one ending the fixed group's meeting, a
    left super-game after slot 1.  With p = 1 the groups are the
    super-teams themselves, slots of the base construction."""
    g = len(supers) // p
    meetings = []
    for q in range(1, last + 1):
        pairs, partner = _circle_pairs(g, q)
        dark = (partner, g) if _dark_home_base(q) else (g, partner)
        meetings.append([dark] + [(j, i) if _block_home(g - i, q) else (i, j) for i, j in pairs])
    first = (np.array(meetings, dtype=np.intp) - 1) * p
    i = np.arange(p)
    # The (away, home) super-teams of each (slot, round, meeting, i), then
    # their (a1, a2, h1, h2) teams.
    sides = np.empty((last, p, g // 2, p, 2), dtype=np.intp)
    sides[..., 0] = first[:, None, :, :1] + i
    sides[..., 1] = first[:, None, :, 1:] + (i + i[:, None, None]) % p
    roles = supers[sides].reshape(last, p, -1, 4)
    days = _games("normal", roles).reshape(last, 4 * p, -1, 2)
    left = days[1:, -4:, : 2 * p]
    left[...] = _games("left", roles[1:, -1, :p]).reshape(left.shape)
    return days.reshape(last * 4 * p, -1, 2)


def _base_even_days(supers: np.ndarray) -> np.ndarray:
    m = len(supers)
    # Slot 1 holds normal super-games; slots 2..m-3 differ only in the
    # fixed super-team's left super-game, home on even slots.
    slots = [_meeting_slots(supers, 1, m - 3)]
    pairs, partner = _circle_pairs(m, m - 2)
    matches = [(j, i) if _block_home(m - i, m - 2) else (i, j) for i, j in pairs + [(partner, m)]]
    slots.append(_super_games("penultimate", supers, matches))
    # The six-day slot m - 1.  Home side: u_1 or the even-indexed white;
    # u_m is always away.
    pairs, partner = _circle_pairs(m, m - 1)
    matches = [(j, i) if i == 1 or i % 2 == 0 else (i, j) for i, j in pairs]
    slots.append(_super_games("last", supers, matches + [(m, partner)]))
    return np.concatenate(slots)


# ---------------------------------------------------------------------------
# Packed construction (divide and conquer).
# ---------------------------------------------------------------------------

def _packed_even_days(supers: np.ndarray, p: int, subchain: list[int]) -> np.ndarray:
    m = len(supers)
    g = m // p
    groups = supers.reshape(g, p, 2)
    slots = [_meeting_slots(supers, p, g - 2)]

    # Last group-slot: the sub-problem on 4p teams, one per meeting, built
    # once on labels 0..4p-1 and gathered from each meeting's teams.  Groups
    # ending the previous slot on a home game start away.
    pairs, partner = _circle_pairs(g, g - 1)
    meetings = np.array([(i, j) if i % 2 == 1 else (j, i) for i, j in pairs] + [(g, partner)]) - 1
    away_pos = np.zeros(2 * p, dtype=bool)
    away_pos[np.array(slot1_away_positions(2 * p, subchain)) - 1] = True
    sub_supers = np.empty_like(supers, shape=(len(meetings), 2 * p, 2))
    sub_supers[:, away_pos] = groups[meetings[:, 0]]
    sub_supers[:, ~away_pos] = groups[meetings[:, 1]]
    sub_days = _build_even_days(np.arange(4 * p).reshape(-1, 2), subchain)
    last = sub_supers.reshape(len(meetings), -1)[:, sub_days].swapaxes(0, 1)
    slots.append(last.reshape(len(sub_days), -1, 2))
    return np.concatenate(slots)


def _build_even_days(supers: np.ndarray, chain: list[int]) -> np.ndarray:
    if chain[0] == 1:
        return _base_even_days(supers)
    return _packed_even_days(supers, chain[0], chain[1:])


def build_even_template(n: int, packing=1) -> Schedule:
    """Template schedule over labels 0..n-1 for n = 0 (mod 4), n >= 8.

    `packing` is "auto" or an integer p, as `packing_chain` takes it; the
    default 1 is the base construction.  Label pairs (0,1), (2,3), ... are
    the super-teams.
    """
    if n % 4 != 0 or n < 8:
        raise DomainError(f"even-n/2 construction needs n = 0 (mod 4), n >= 8, got {n}")
    chain = packing_chain(n, packing)
    return games_to_schedule(n, _build_even_days(np.arange(n).reshape(-1, 2), chain))
