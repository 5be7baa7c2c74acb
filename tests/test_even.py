import numpy as np
import pytest

from conftest import GOLDEN_N8
from ttp2.errors import DomainError
from ttp2.even import (
    _L,
    _PATTERNS,
    _circle,
    _valid_packing,
    build_even_template,
    compute_L,
    packing_chain,
)
from ttp2.instance import Instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.schedule import itinerary_of, total_distance, validate_schedule

L_TABLE = {
    8: (0, 0),
    12: (2, 2),
    16: (4, 2),
    20: (6, 6),
    24: (8, 6),
    28: (10, 10),
    32: (12, 8),
    36: (14, 14),
    40: (16, 14),
}


def valid_packings(n):
    out = [1]
    p = 2
    while 8 * p <= n:
        if n % (4 * p) == 0:
            out.append(p)
        p += 1
    return out


def test_golden_table_exact():
    s = build_even_template(8)
    assert np.array_equal(s.table, GOLDEN_N8)


def test_compute_L_reproduces_reference_counts():
    for n, (before, after) in L_TABLE.items():
        best, p, table = compute_L(n)
        assert table[1] == before
        assert best == after
        assert table[p] == best
        # Smallest packing wins ties.
        assert all(table[q] > best or q >= p for q in table)


def test_compute_L_rejects_bad_n():
    with pytest.raises(DomainError):
        compute_L(10)
    with pytest.raises(DomainError):
        compute_L(4)


def test_packing_chain_rejects_invalid():
    with pytest.raises(DomainError):
        packing_chain(20, 2)  # 20 % 8 != 0
    with pytest.raises(DomainError):
        packing_chain(40, 0)
    with pytest.raises(DomainError):
        packing_chain(16, 10**9)  # at once, not after a descent linear in p


def test_packing_is_read_as_an_integer_index():
    """Any integer that `operator.index` reads is a packing, and the chain
    holds Python ints; a float or a string is rejected by its type."""
    assert np.array_equal(build_even_template(16, np.int64(2)).table, build_even_template(16, 2).table)
    assert packing_chain(16, True) == [1] and type(packing_chain(16, True)[0]) is int
    for packing in (2.0, "2"):
        with pytest.raises(DomainError, match=type(packing).__name__):
            packing_chain(16, packing)


def _reference_descent(p):
    """The chain below packing p as both callers built it with their own loop."""
    chain = [p]
    while p > 1:
        sub_n = 4 * p
        candidates = {i: _L(sub_n, i) for i in range(1, p) if _valid_packing(sub_n, i)}
        p = min(candidates, key=lambda i: (candidates[i], i))
        chain.append(p)
    return chain


def test_packing_chains_unchanged_up_to_200():
    for n in range(8, 201, 4):
        assert packing_chain(n) == _reference_descent(compute_L(n)[1])
        for p in valid_packings(n):
            assert packing_chain(n, p) == _reference_descent(p)


def test_pattern_table_kinds_are_well_formed():
    for kind, pattern in _PATTERNS.items():
        roles = pattern.max() + 1
        for day in pattern:  # every role plays exactly once a day
            assert sorted(day.ravel().tolist()) == list(range(roles)), kind
        games = [tuple(g) for g in pattern.reshape(-1, 2).tolist()]
        assert len(set(games)) == len(games), kind  # no (visitor, host) repeats
        opponent = np.empty((len(pattern), roles), dtype=int)
        for d, day in enumerate(pattern):
            opponent[d, day[:, 0]] = day[:, 1]
            opponent[d, day[:, 1]] = day[:, 0]
        assert not (opponent[1:] == opponent[:-1]).any(), kind  # no repeat next day


def test_circle_pairs_every_white_once_per_slot_and_every_pair_once():
    for mod in range(3, 100, 2):
        met, fixed, slots = set(), [], []
        for q in range(1, mod + 1):
            f, pairs = _circle(mod, q)
            slots.append(pairs)
            f, pairs = int(f), [tuple(pair) for pair in pairs.tolist()]
            assert f == (-q) % mod + 1
            whites = [x for pair in pairs for x in pair]
            assert sorted(whites + [f]) == list(range(1, mod + 1)), (mod, q)
            for lo, hi in pairs:
                assert lo < hi and (lo + hi - 2 * f) % mod == 0, (mod, q)
            # Pair k is (f - k, f + k): the last one is two adjacent whites.
            ks = range(1, len(pairs) + 1)
            by_k = [tuple(sorted([(f - k - 1) % mod + 1, (f + k - 1) % mod + 1])) for k in ks]
            assert pairs == by_k, (mod, q)
            # The reference rule, one white at a time: white i meets j with
            # i + j = 2 - 2q (mod mod), labels 1..mod.
            partners = {i: (2 - 2 * q - i) % mod or mod for i in range(1, mod + 1) if i != f}
            assert sorted(pairs) == sorted((i, j) for i, j in partners.items() if i < j), (mod, q)
            met.update(pairs)
            fixed.append(f)
        assert len(met) == mod * (mod - 1) // 2, mod  # every pair meets once
        assert sorted(fixed) == list(range(1, mod + 1)), mod
        # An array of slots gives the same slots at once.
        f_all, pairs_all = _circle(mod, np.arange(1, mod + 1))
        assert f_all.tolist() == fixed and np.array_equal(pairs_all, np.stack(slots)), mod


def test_feasibility_sweep_all_packings():
    for n in range(8, 44, 4):
        for p in valid_packings(n):
            s = build_even_template(n, p)
            rep = validate_schedule(s, k=2)
            assert rep.feasible, (n, p, rep.violations[:4])


def test_tight_extra_cost_base_is_3n_minus_16():
    for n in range(8, 44, 4):
        ti = tight_instance(n)
        total = total_distance(build_even_template(n, 1), ti).total
        assert total == n * (n - 2) + 3 * n - 16


def test_tight_extra_cost_best_packing_is_4L_plus_n():
    for n in range(8, 44, 4):
        ti = tight_instance(n)
        best, _, _ = compute_L(n)
        total = total_distance(build_even_template(n, "auto"), ti).total
        assert total == n * (n - 2) + 4 * best + n


def test_tight_extra_cost_every_packing_is_4L_plus_n():
    # On the tight instance the extra cost decomposes as 4 * L_p(n) + n.
    for n in range(8, 44, 4):
        ti = tight_instance(n)
        for p, lefts in compute_L(n)[2].items():
            total = total_distance(build_even_template(n, p), ti).total
            assert total - n * (n - 2) == 4 * lefts + n


def test_trips_stay_inside_super_games():
    # Teams go home between super-games: no trip crosses a 4-day block
    # boundary (the last slot has six days).
    for n in (8, 12, 16):
        s = build_even_template(n)
        m = n // 2
        boundaries = {4 * q for q in range(1, m - 2)}
        for team in range(n):
            day = 0
            for d in range(s.days):
                if s.table[team, d] <= 0:
                    continue
                if d in boundaries and d > 0 and s.table[team, d - 1] > 0:
                    pytest.fail(f"trip of team {team} straddles day {d} in n={n}")


def test_per_team_travel_bounds_on_metric_instances():
    # Every team travels between D_i + D_M and 2 D_i on a metric instance.
    for seed in range(3):
        inst = random_metric_instance(12, seed)
        matching = min_weight_perfect_matching(inst)
        lb = independent_lower_bound(inst, matching)
        s = build_even_template(12)
        rep = total_distance(s, inst)
        row = [sum(r) for r in inst.dist.tolist()]
        for i in range(12):
            assert rep.per_team[i] >= row[i] + matching.weight  # optimal itinerary
            assert rep.per_team[i] <= 2 * row[i]
        assert rep.total <= 2 * lb.total  # any feasible schedule 2-approximates


def test_domain_errors():
    with pytest.raises(DomainError):
        build_even_template(10)
    with pytest.raises(DomainError):
        build_even_template(4)
