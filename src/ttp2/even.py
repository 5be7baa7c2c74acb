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
home super-team, odd.py's three right super-game shapes over six roles,
and its L-R final days over four.  Every block of both builders, the
final ones included, is a gather from a role table.  All slots of a
circle but the closing ones are a single gather from that table over
every (slot, round, meeting, super-team) into a (days, games, 2) array of
(visitor, host) games; the fixed super-team's or group's left super-games
are then written over its normal ones.  The penultimate and last base
slots are one gather each, and the last group slot gathers the 4p-team
sub-template, built once, from each meeting's teams; the sub-template's
first day sets which group starts away.  The slots stack into the
(2n-2, n/2, 2) array that games_to_schedule scatters into the table.

Both builders share one circle: `_circle` pairs the whites of any slots
at once, and `_meetings` orients every meeting by one block-status rule.
odd.py's slots are this circle on its whites and L, with R joining the
circle's last pair.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .schedule import Schedule, games_to_schedule

# ---------------------------------------------------------------------------
# Left-super-game counting  L_p(n)  and the packing choice.
# ---------------------------------------------------------------------------

def _valid_packing(n: int, p: int) -> bool:
    return p >= 1 and n >= 8 * p and n % (4 * p) == 0


@lru_cache(maxsize=None)
def _L(n: int, p: int) -> int:
    """L_p(n) for a packing p that `_valid_packing(n, p)` accepts."""
    if p == 1:
        return n // 2 - 4
    return n // 2 - 3 * p + (n // (4 * p)) * compute_L(4 * p)[0]


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
    p, read with `operator.index` (a NumPy integer or a bool is one).  Below p each level takes the best packing of its 4p-team
    sub-problem, ties to the smallest; the chain ends at the base
    construction, 1.
    """
    if packing == "auto":
        packing = compute_L(n)[1]
    try:
        packing = operator.index(packing)
    except TypeError:
        raise DomainError(f"packing must be an integer or 'auto', got {type(packing).__name__}") from None
    if not _valid_packing(n, packing):
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
        # L (l1, l2) meets R (r1, r2) in odd.py's final block.
        "final-lr": [
            [(0, 1), (3, 2)], [(2, 0), (1, 3)], [(0, 3), (1, 2)],
            [(0, 2), (3, 1)], [(3, 0), (2, 1)], [(1, 0), (2, 3)],
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


# ---------------------------------------------------------------------------
# The circle of both builders, and the base construction (packing 1).
# ---------------------------------------------------------------------------

def _circle(mod: int, q):
    """Slot q, an int or an array of slots, of the circle method on whites
    1..mod (mod odd) around a fixed super-team: the white f that meets it
    and the (lo, hi) pairs (f - k, f + k) mod `mod`, k = 1..(mod-1)/2, that
    meet each other.  Over slots 1..mod every two whites meet once."""
    f = -np.asarray(q) % mod + 1
    k = np.arange(1, (mod + 1) // 2)
    pairs = (f[..., None, None] + np.stack([-k, k], axis=-1) - 1) % mod + 1
    return f, np.sort(pairs, axis=-1)


def _block_home(s, q):
    """Home/away status in slot q of a white that meets the fixed
    super-team in slot s: a white meeting it in slot 1 is away throughout,
    any other starts home iff s is odd and flips after slot s.  In a
    circle of g super-teams (or groups) white j meets it in slot g - j."""
    return (s != 1) & ((s % 2 == 1) == (q <= s))


def _dark_home_base(q):
    return (q == 1) | (q % 2 == 0)


def _meetings(g: int, q) -> np.ndarray:
    """The (away, home) 1-based groups of every meeting in slot q, an int or
    an array of slots, of the circle of g groups, the fixed group g's
    meeting first.  The fixed group hosts on `_dark_home_base` slots, and
    the lower white of a pair hosts while its `_block_home` is home."""
    f, pairs = _circle(g - 1, q)
    q = np.asarray(q)[..., None]
    meetings = np.concatenate([np.stack([f, np.full_like(f, g)], -1)[..., None, :], pairs], axis=-2)
    swap = np.concatenate([~_dark_home_base(q), _block_home(g - pairs[..., 0], q)], axis=-1)
    return np.where(swap[..., None], meetings[..., ::-1], meetings)


def _meeting_slots(supers: np.ndarray, p: int, last: int) -> np.ndarray:
    """Slots 1..last of the circle of g groups of p consecutive super-teams,
    each p rounds of four days.  In round l super-team i of a meeting's
    away group visits super-team i + l (mod p) of its home group.  Every
    super-game is normal but the one ending the fixed group's meeting, a
    left super-game after slot 1.  With p = 1 the groups are the
    super-teams themselves, slots of the base construction; on the whites
    and L of odd.py they are its slots 1..M before its two edits."""
    g = len(supers) // p
    first = (_meetings(g, np.arange(1, last + 1)) - 1) * p
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
    # fixed super-team's left super-game, home on even slots.  Slot m - 2
    # is all penultimate super-games and the six-day slot m - 1 all last
    # ones, on the same meetings.
    return np.concatenate([
        _meeting_slots(supers, 1, m - 3),
        _games("penultimate", supers[_meetings(m, m - 2) - 1].reshape(-1, 4)),
        _games("last", supers[_meetings(m, m - 1) - 1].reshape(-1, 4)),
    ])


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
    # ending the previous slot on a home game start away, so the away group
    # takes the super-teams that visit on the sub-problem's first day.
    sub_days = _build_even_days(np.arange(4 * p).reshape(-1, 2), subchain)
    away_pos = np.zeros(2 * p, bool)
    away_pos[sub_days[0, :, 0] // 2] = True
    meetings = _meetings(g, g - 1) - 1
    sub_supers = np.empty_like(supers, shape=(len(meetings), 2 * p, 2))
    sub_supers[:, away_pos] = groups[meetings[:, 0]]
    sub_supers[:, ~away_pos] = groups[meetings[:, 1]]
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
