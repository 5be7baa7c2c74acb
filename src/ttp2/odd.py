"""Schedule template construction for n = 2 (mod 4).

With an odd super-team count m there are two special super-teams: one
(second to last, "L") meets a different opponent in a four-day block every
slot, and one ("R", the last) joins two cycle-adjacent super-teams in a
twelve-game right super-game each slot, keeping its first team on an AHHA
rhythm and its second on HAAH throughout.  The remaining games
(intra-pair, the leftover half of each adjacent pair's games, and L vs R)
fill a final six-day block.

Slots 1..m-2 are the even construction's circle (`even._meeting_slots`)
on the whites 1..m-2 around L, so every white meets L once and the slot of
that meeting drives the same home/away block status (`_block_home`).  Two
edits follow: L's last meeting is a penultimate super-game, and R joins
the circle's last pair, two cycle-adjacent whites, in a right super-game
that replaces their normal one.  Within right super-games each white team
has either both of its games against one R team or all four or none,
which is what makes the leftover games land where the final block needs
them.  The right super-games are six-role kinds of the shared pattern
table over (clean white, dirty white, R): one side's road trips stay
optimal ("clean", the even white) while the other pays two direct cross
travels, with the clean white at home or away; or, in the single slot
whose pair closes the odd cycle, both sides pay.  Each slot's pair is a
different adjacent pair, so the final block is gathered from the right
super-games' pair roles too, and L meets R in the "final-lr" kind.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .even import _PATTERNS, _block_home, _circle, _games, _meeting_slots
from .schedule import Schedule, games_to_schedule


# The final block's days [A1, self, A2, rev A1, rev A2, rev self] of a pair
# over its right super-game's (c1, c2, d1, d2): its two leftover cross games
# and its left white's intra-pair game, each in both orders.  Rows: clean
# white on the left (lo even), dirty (lo odd), and the closing pair (1, M).
_FINAL = np.array([
    [(2, 1), (1, 0), (3, 1), (1, 2), (1, 3), (0, 1)],
    [(2, 1), (3, 2), (1, 3), (1, 2), (3, 1), (2, 3)],
    [(0, 3), (1, 0), (2, 1), (3, 0), (1, 2), (0, 1)],
])


def build_odd_template(n: int) -> Schedule:
    """Template schedule over labels 0..n-1 for n = 2 (mod 4), n >= 10."""
    if n % 4 != 2 or n < 10:
        raise DomainError(f"odd-n/2 construction needs n = 2 (mod 4), n >= 10, got {n}")
    m = n // 2
    M = m - 2  # number of whites on the cycle
    supers = np.arange(n).reshape(m, 2)
    q = np.arange(1, M + 1)

    # Slots 1..M are the even circle on the whites and L, with L's meeting
    # in slot M (it visits white 1) penultimate instead of left.
    days = _meeting_slots(supers[:-1], 1, M).reshape(M, 4, -1, 2)
    days[-1, :, :2] = _games("penultimate", supers[[m - 2, 0]].reshape(1, 4))

    # R joins the circle's last pair (lo, lo + 1), or (1, M) where it closes
    # the cycle, in a right super-game that replaces the pair's normal one.
    # White c takes the clean roles: the pair's even white, or M in the
    # closing pair.  An odd lo mirrors both whites, but never white 1.
    lo, hi = _circle(M, q)[1][:, -1].T
    odd = lo % 2 == 1
    c = np.where(odd, hi, lo)
    clean, dirty = supers[c - 1], supers[lo + hi - c - 1]
    clean[odd] = clean[odd, ::-1]
    mirror = odd & (lo != 1)
    dirty[mirror] = dirty[mirror, ::-1]
    roles = np.hstack([clean, dirty, np.tile(supers[-1], (M, 1))])
    kinds = np.stack([_PATTERNS[k] for k in ("right-away", "right-home", "right-closing")])
    closing = hi - lo > 1
    kind = np.where(closing, 2, _block_home(m - 1 - c, q))
    right = roles[q[:, None, None, None] - 1, kinds[kind]]

    # The final block: each slot's pair settles its leftover games.
    final = roles[q[:, None, None] - 1, _FINAL[np.where(closing, 2, odd)]]
    final = np.concatenate([final.swapaxes(0, 1), _games("final-lr", supers[-2:].reshape(1, 4))], axis=1)

    slots = np.concatenate([days[..., :-2, :], right], axis=2).reshape(-1, m, 2)
    return games_to_schedule(n, np.concatenate([slots, final]))
