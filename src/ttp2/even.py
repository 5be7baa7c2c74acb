"""Schedule template construction for n = 0 (mod 4).

Super-teams meet in m-1 time slots arranged by the circle method with the
last super-team fixed.  The first slot holds normal super-games, slots
2..m-3 carry one left super-game each, slot m-2 is all penultimate and the
final six-day slot is all last super-games.  Packing p super-teams into
group-teams turns the last group round into recursive sub-problems on 4p
teams, which lowers the number of costly left super-games; compute_L finds
the best packing.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError
from .schedule import Schedule, games_to_schedule

Game = tuple[int, int]  # (visitor, host), 0-based teams
Super = tuple[int, int]


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

    `packing` is "auto" for the packing that realizes L(n), an integer p,
    or a full chain.  Below an integer p each level takes the best packing
    of its 4p-team sub-problem, ties to the smallest.
    """
    if packing == "auto":
        packing = compute_L(n)[1]
    if isinstance(packing, int):
        if not _valid_packing(n, packing):
            raise DomainError(f"packing {packing} invalid for n={n}")
        chain = [packing]
        while chain[-1] > 1:
            chain.append(compute_L(4 * chain[-1])[1])
        return chain
    chain = list(packing)
    size = n
    for depth, p in enumerate(chain):
        if not _valid_packing(size, p):
            raise DomainError(f"packing {chain} invalid at depth {depth} for n={size}")
        if p == 1:
            if depth != len(chain) - 1:
                raise DomainError("chain continues past base construction")
            return chain
        size = 4 * p
    raise DomainError(f"packing chain {chain} does not end in the base construction")


# ---------------------------------------------------------------------------
# Super-game day patterns.  Roles within a super-team are (first, second);
# visitors are listed first in each game.
# ---------------------------------------------------------------------------

def normal_super_game(away: Super, home: Super) -> list[list[Game]]:
    a1, a2 = away
    h1, h2 = home
    return [
        [(a1, h1), (a2, h2)],
        [(a1, h2), (a2, h1)],
        [(h1, a1), (h2, a2)],
        [(h1, a2), (h2, a1)],
    ]


def left_super_game(away: Super, home: Super) -> list[list[Game]]:
    # Away teams play AHHA as two single-game trips; home teams play HAAH.
    a1, a2 = away
    h1, h2 = home
    return [
        [(a1, h1), (a2, h2)],
        [(h1, a2), (h2, a1)],
        [(h1, a1), (h2, a2)],
        [(a1, h2), (a2, h1)],
    ]


def penultimate_super_game(away: Super, home: Super) -> list[list[Game]]:
    a1, a2 = away
    h1, h2 = home
    return [
        [(a1, h1), (a2, h2)],
        [(a1, h2), (h1, a2)],
        [(h1, a1), (h2, a2)],
        [(h2, a1), (a2, h1)],
    ]


def last_super_game(away: Super, home: Super) -> list[list[Game]]:
    # Six days covering the cross games and both intra-pair games.
    a1, a2 = away
    h1, h2 = home
    return [
        [(h1, h2), (a1, a2)],
        [(a1, h1), (a2, h2)],
        [(a2, h1), (h2, a1)],
        [(h1, a1), (h2, a2)],
        [(h1, a2), (a1, h2)],
        [(h2, h1), (a2, a1)],
    ]


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


def _group_home(j: int, q: int, g: int) -> bool:
    """Home/away status of white j in slot q of a circle of g super-teams
    (or groups), for the slots before the last one."""
    if j == 1:
        return True
    if j == g - 1:
        return False
    init = j % 2 == 1
    return init if q <= g - j else not init


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


def _base_even_days(supers: list[Super]) -> list[list[Game]]:
    m = len(supers)
    days: list[list[Game]] = []

    def team(label: int) -> Super:
        return supers[label - 1]

    for q in range(1, m):
        pairs, partner = _circle_pairs(m, q)
        if q <= m - 3:
            slot_days = [[] for _ in range(4)]
            # The super-game of the fixed super-team: normal in slot 1,
            # a left super-game afterwards, home on even slots.
            if _dark_home_base(q):
                away, home = partner, m
            else:
                away, home = m, partner
            sg = normal_super_game if q == 1 else left_super_game
            block = sg(team(away), team(home))
            for d in range(4):
                slot_days[d].extend(block[d])
            # White super-games are always normal here.
            for i, j in pairs:
                if _group_home(i, q, m):
                    away, home = j, i
                else:
                    away, home = i, j
                block = normal_super_game(team(away), team(home))
                for d in range(4):
                    slot_days[d].extend(block[d])
            days.extend(slot_days)
        elif q == m - 2:
            slot_days = [[] for _ in range(4)]
            all_pairs = pairs + [(partner, m)]
            for i, j in all_pairs:
                i_home = _group_home(i, q, m) if i < m else _dark_home_base(q)
                if i_home:
                    away, home = j, i
                else:
                    away, home = i, j
                block = penultimate_super_game(team(away), team(home))
                for d in range(4):
                    slot_days[d].extend(block[d])
            days.extend(slot_days)
        else:  # q == m - 1, the six-day slot
            slot_days = [[] for _ in range(6)]
            all_pairs = pairs + [(partner, m)]
            for i, j in all_pairs:
                # Home side: u_1 or the even-indexed white; u_m is always away.
                if j == m:
                    away, home = m, i
                elif i == 1:
                    away, home = j, 1
                elif i % 2 == 0:
                    away, home = j, i
                else:
                    away, home = i, j
                block = last_super_game(team(away), team(home))
                for d in range(6):
                    slot_days[d].extend(block[d])
            days.extend(slot_days)
    return days


# ---------------------------------------------------------------------------
# Packed construction (divide and conquer).
# ---------------------------------------------------------------------------

def _packed_even_days(supers: list[Super], p: int, subchain: list[int]) -> list[list[Game]]:
    m = len(supers)
    g = m // p
    groups = [supers[(grp - 1) * p : grp * p] for grp in range(1, g + 1)]
    days: list[list[Game]] = []

    for q in range(1, g - 1):
        pairs, partner = _circle_pairs(g, q)
        slot_days = [[] for _ in range(4 * p)]

        def expand(away_grp: int, home_grp: int, left: bool):
            a_supers = groups[away_grp - 1]
            h_supers = groups[home_grp - 1]
            for l in range(1, p + 1):
                sg = left_super_game if (left and l == p) else normal_super_game
                for i2 in range(1, p + 1):
                    j2 = (i2 + l - 2) % p + 1
                    block = sg(a_supers[i2 - 1], h_supers[j2 - 1])
                    for d in range(4):
                        slot_days[(l - 1) * 4 + d].extend(block[d])

        if _dark_home_base(q):
            expand(partner, g, left=q > 1)
        else:
            expand(g, partner, left=q > 1)
        for i, j in pairs:
            if _group_home(i, q, g):
                expand(j, i, left=False)
            else:
                expand(i, j, left=False)
        days.extend(slot_days)

    # Last group-slot: recursive sub-problems on 4p teams each.
    pairs, partner = _circle_pairs(g, g - 1)
    sub_blocks = []
    for i, j in pairs + [(partner, g)]:
        # Groups ending the previous slot on a home game start away.
        if j == g:
            away_grp, home_grp = g, i
        elif i % 2 == 1:
            away_grp, home_grp = i, j
        else:
            away_grp, home_grp = j, i
        sub_supers: list[Super] = [None] * (2 * p)  # type: ignore[list-item]
        away_pos = slot1_away_positions(2 * p, subchain)
        home_pos = [k for k in range(1, 2 * p + 1) if k not in away_pos]
        for pos, sup in zip(away_pos, groups[away_grp - 1]):
            sub_supers[pos - 1] = sup
        for pos, sup in zip(home_pos, groups[home_grp - 1]):
            sub_supers[pos - 1] = sup
        sub_blocks.append(_build_even_days(sub_supers, subchain))

    sub_len = 8 * p - 2
    for d in range(sub_len):
        day: list[Game] = []
        for block in sub_blocks:
            day.extend(block[d])
        days.append(day)
    return days


def _build_even_days(supers: list[Super], chain: list[int]) -> list[list[Game]]:
    if chain[0] == 1:
        return _base_even_days(supers)
    return _packed_even_days(supers, chain[0], chain[1:])


def build_even_template(n: int, packing=1) -> Schedule:
    """Template schedule over labels 0..n-1 for n = 0 (mod 4), n >= 8.

    `packing` is any spelling `packing_chain` accepts; the default 1 is the
    base construction.  Label pairs (0,1), (2,3), ... are the super-teams.
    """
    if n % 4 != 0 or n < 8:
        raise DomainError(f"even-n/2 construction needs n = 0 (mod 4), n >= 8, got {n}")
    chain = packing_chain(n, packing)
    supers = [(2 * k, 2 * k + 1) for k in range(n // 2)]
    days = _build_even_days(supers, chain)
    return games_to_schedule(n, days)
