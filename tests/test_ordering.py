import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2.even import build_even_template
from ttp2.instance import Instance, travel_bound
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.odd import build_odd_template
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2 import ordering
from ttp2.ordering import (
    TeamOrdering,
    _derandomize_in_float64,
    _exact_move_delta,
    _flip_deltas,
    _search_state,
    _slack,
    _swap_deltas,
    _sweep,
    bind_template,
    binding_vector,
    coefficient_total,
    derandomize,
    extract_coefficients,
    polish,
    random_ordering,
    run_rounds,
    swap_super_teams_pass,
    swap_within_pass,
)
from ttp2.schedule import total_distance, validate_schedule
from test_matching_reference import _clustered
import search_reference


def test_random_ordering_deterministic():
    assert random_ordering(6, 42) == random_ordering(6, 42)
    assert random_ordering(6, 42) != random_ordering(6, 43)
    # A negative seed draws its own ordering, not that of its absolute value.
    assert len({random_ordering(20, seed) for seed in range(-50, 51)}) == 101


def test_random_ordering_uniform_first_slot():
    m = 5
    counts = [0] * m
    draws = 10_000
    for seed in range(draws):
        counts[random_ordering(m, seed).sigma[0]] += 1
    expect = draws / m
    # 5 sigma on a binomial(draws, 1/m)
    tol = 5 * math.sqrt(draws * (1 / m) * (1 - 1 / m))
    assert all(abs(c - expect) <= tol for c in counts)


def test_m2_orderings_cover_all_eight():
    seen = set()
    for seed in range(200):
        o = random_ordering(2, seed)
        seen.add((o.sigma, o.pi))
    assert len(seen) == 8


def test_coefficient_form_matches_total_distance():
    for n, template in ((8, build_even_template(8)), (10, build_odd_template(10))):
        coeffs = extract_coefficients(template)
        matching_inst = random_metric_instance(n, 1)
        matching = min_weight_perfect_matching(matching_inst)
        for seed in range(20):
            o = random_ordering(n // 2, seed)
            s = bind_template(template, matching, o)
            direct = total_distance(s, matching_inst).total
            via_form = coefficient_total(coeffs, matching_inst, binding_vector(matching, o))
            assert direct == via_form


def test_coefficient_form_on_tight_and_zero():
    template = build_even_template(8)
    coeffs = extract_coefficients(template)
    z = Instance(n=8, dist=np.zeros((8, 8), dtype=np.int64))
    matching = min_weight_perfect_matching(z)
    o = random_ordering(4, 0)
    assert coefficient_total(coeffs, z, binding_vector(matching, o)) == 0
    ti = tight_instance(8)
    matching = min_weight_perfect_matching(ti)
    assert coefficient_total(coeffs, ti, binding_vector(matching, o)) == 56


def test_derandomize_monotone_chain_and_bound():
    for n, template in ((12, build_even_template(12)), (10, build_odd_template(10))):
        coeffs = extract_coefficients(template)
        for seed in range(5):
            inst = random_metric_instance(n, seed)
            matching = min_weight_perfect_matching(inst)
            lb = independent_lower_bound(inst, matching).total
            ordering, chain = derandomize(coeffs, inst, matching)
            assert len(chain) == 2 * (n // 2) + 1
            assert all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1))
            s = bind_template(template, matching, ordering)
            total = total_distance(s, inst).total
            assert total == chain[-1]  # all choices fixed: expectation is exact
            if n % 4 == 0:
                ratio = Fraction(1) + Fraction(3, n) - Fraction(10, n * (n - 2))
            else:
                ratio = Fraction(1) + Fraction(5, n) - Fraction(10, n * (n - 2))
            assert Fraction(total) <= ratio * lb


def test_derandomize_constant_on_tight():
    # Full symmetry: every ordering is equivalent, the chain stays flat.
    n = 8
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    ti = tight_instance(n)
    matching = min_weight_perfect_matching(ti)
    _, chain = derandomize(coeffs, ti, matching)
    assert all(v == chain[0] for v in chain)
    assert chain[0] == 56


def test_swap_passes_monotone_and_verified():
    n = 12
    inst = random_metric_instance(n, 3)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    b = binding_vector(matching, random_ordering(n // 2, 0))
    w0 = coefficient_total(coeffs, inst, b)
    b1, _ = _checked(swap_super_teams_pass, b, coeffs, inst)
    w1 = coefficient_total(coeffs, inst, b1)
    b2, _ = _checked(swap_within_pass, b1, coeffs, inst)
    w2 = coefficient_total(coeffs, inst, b2)
    assert w0 >= w1 >= w2


def test_swap_passes_noop_on_tight():
    n = 8
    ti = tight_instance(n)
    matching = min_weight_perfect_matching(ti)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    b = binding_vector(matching, random_ordering(n // 2, 1))
    b1, improved1 = _pass(swap_super_teams_pass, b, coeffs, ti)
    b2, improved2 = _pass(swap_within_pass, b, coeffs, ti)
    assert not improved1 and not improved2
    assert b1.tolist() == b and b2.tolist() == b


def test_super_swap_improves_two_cluster_instance():
    # Two far-apart clusters; pair one team from each so super-teams span
    # clusters, then place spanning supers adversarially.
    n = 8
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same = (i < 4) == (j < 4)
            d[i, j] = 10 if same else 1000
    inst = Instance(n=n, dist=d)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    base = None
    improved_somewhere = False
    for seed in range(6):
        b = binding_vector(matching, random_ordering(n // 2, seed))
        w0 = coefficient_total(coeffs, inst, b)
        b1, improved = _pass(swap_super_teams_pass, b, coeffs, inst)
        w1 = coefficient_total(coeffs, inst, b1)
        assert w1 <= w0
        improved_somewhere |= improved
    assert improved_somewhere


def test_within_swap_improves_hand_instance():
    # Asymmetric usage of the two labels in a slot makes one orientation
    # strictly better for at least one random start.
    n = 8
    inst = random_metric_instance(n, 8)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    improved_somewhere = False
    for seed in range(8):
        b = binding_vector(matching, random_ordering(n // 2, seed))
        _, improved = _pass(swap_within_pass, b, coeffs, inst)
        improved_somewhere |= improved
    assert improved_somewhere


def test_run_rounds_deterministic_and_bounded():
    n = 10
    inst = random_metric_instance(n, 2)
    matching = min_weight_perfect_matching(inst)
    template = build_odd_template(n)
    r1 = run_rounds(inst, template, matching, x=1, base_seed=5)
    r2 = run_rounds(inst, template, matching, x=1, base_seed=5)
    assert r1[0] == r2[0]
    assert r1[2].total == r2[2].total
    assert validate_schedule(r1[1]).feasible

    coeffs = extract_coefficients(template)
    start = coefficient_total(
        coeffs, inst, binding_vector(matching, random_ordering(n // 2, 5))
    )
    assert r1[2].total <= start  # never worse than the round's initial order


def test_run_rounds_more_rounds_never_worse():
    n = 12
    inst = random_metric_instance(n, 6)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    t1 = run_rounds(inst, template, matching, x=1, base_seed=0)[2].total
    t5 = run_rounds(inst, template, matching, x=5, base_seed=0)[2].total
    assert t5 <= t1


@functools.lru_cache(maxsize=None)
def _template_and_coeffs(n):
    template = build_odd_template(n) if n % 4 else build_even_template(n)
    return template, extract_coefficients(template)


def _variant(inst, kind):
    """The integer instance itself, a real-valued copy or one scaled by 1e12."""
    if kind == "real":
        return Instance(n=inst.n, dist=inst.dist / 3.0, integral=False)
    if kind == "big":
        return Instance(n=inst.n, dist=inst.dist * 10**12)
    return inst


def _exact_schedule_total(schedule, inst):
    """Sum of Fraction(d) over every travel of the bound schedule."""
    total = Fraction(0)
    for team in range(schedule.n):
        seq = schedule.venues[team].tolist()
        total += sum(Fraction(inst.dist[a, b].item()) for a, b in zip(seq, seq[1:]) if a != b)
    return total


def _exact_form_total(coeffs, inst, bind):
    """The linear form of a binding summed over Fraction(d)."""
    d = inst.dist[np.ix_(bind, bind)].ravel().tolist()
    return sum(k * Fraction(x) for k, x in zip(coeffs.c.ravel().tolist(), d)) / 2


def _pass(rule, bind, coeffs, inst):
    """A pass run on the search buffer `_search_state` builds from bind;
    returns (the buffer's bind as an integer vector, improved)."""
    buf, improved = rule(_search_state(bind, inst), coeffs, inst)
    return buf[-len(bind) :].astype(np.intp), improved


def _checked(run, bind, coeffs, inst):
    """`polish` or a pass run on bind, a pass through `_pass`, checked at
    every evaluation against the same function of `search_reference`: the
    same rule and vector, P equal to dist[bind][:, bind], every kernel
    delta within slack of the exact delta, and every `_exact_move_delta`
    equal to the full recomputation.
    Returns run's result, equal to the reference's."""
    expected = []
    want = getattr(search_reference, run.__name__)(bind, coeffs, inst, lambda *e: expected.append(e))
    seen = []
    n = len(bind)
    with pytest.MonkeyPatch.context() as mp:
        for rule, name in (("swap", "_swap_deltas"), ("flip", "_flip_deltas")):

            def spy(blocks, buf, _rule=rule, _kernel=getattr(ordering, name)):
                evaluate = _kernel(blocks, buf)

                def evaluation():
                    deltas = evaluate()
                    seen.append((_rule, buf[: n * n].reshape(n, n).copy(), deltas))  # P as evaluated; buf moves on
                    return deltas

                return evaluation

            mp.setattr(ordering, name, spy)
        got = run(bind, coeffs, inst) if run is polish else _pass(run, bind, coeffs, inst)
    assert len(seen) == len(expected)
    slack, scale = _slack(inst), inst.exact_weights[1]
    for (rule, P, deltas), (want_rule, b, exact) in zip(seen, expected):
        assert rule == want_rule
        assert np.array_equal(P, inst.float_dist[np.ix_(b, b)]), "P is not dist[bind][:, bind]"
        moves = search_reference.pass_moves(len(b) // 2, rule)
        for value, (src, dst), doubled in zip(deltas.tolist(), moves, exact):
            assert 2 * _exact_move_delta(coeffs, inst, np.array(b), np.array(src), np.array(dst)) == doubled
            assert abs(Fraction(value) - Fraction(doubled, 2 * scale)) <= slack
    if isinstance(got, tuple):
        assert (got[0].tolist(), got[1]) == want
    else:
        assert got.tolist() == want
    return got


def test_coefficient_total_exact_above_two_to_the_53():
    # Distances scaled by 1e12 + 1 put the total near 1e18, far above 2**53,
    # where halving in floating point loses the last digits.
    n = 40
    inst = Instance(n=n, dist=random_metric_instance(n, 1).dist * (10**12 + 1))
    matching = min_weight_perfect_matching(inst)
    template, coeffs = _template_and_coeffs(n)
    for seed in range(20):
        o = random_ordering(n // 2, seed)
        direct = total_distance(bind_template(template, matching, o), inst).total
        assert direct > 2**53
        assert coefficient_total(coeffs, inst, binding_vector(matching, o)) == direct


def test_derandomize_large_distances_chain_monotone():
    n = 40
    inst = _variant(random_metric_instance(n, 1), "big")
    matching = min_weight_perfect_matching(inst)
    template, coeffs = _template_and_coeffs(n)
    ordering, chain = derandomize(coeffs, inst, matching)
    assert all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1))
    assert chain[-1] == total_distance(bind_template(template, matching, ordering), inst).total


@pytest.mark.parametrize("kind", ["int", "real"])
@pytest.mark.parametrize("n", [8, 10])
def test_derandomize_chain_equals_brute_force_means(n, kind):
    """Entry k of the chain is the exact mean total over every ordering that
    agrees with the derandomized one on its first k fixing steps."""
    m = n // 2
    inst = _variant(random_metric_instance(n, 20 + n), kind)
    matching = min_weight_perfect_matching(inst)
    template, coeffs = _template_and_coeffs(n)
    ordering, chain = derandomize(coeffs, inst, matching)

    travels = [(a, b, int(coeffs.c[a, b])) for a in range(n) for b in range(a + 1, n) if coeffs.c[a, b]]
    dist = [[Fraction(x) for x in row] for row in inst.dist.tolist()]
    totals = {}
    for sigma in itertools.permutations(range(m)):
        for pi in itertools.product((0, 1), repeat=m):
            bind = binding_vector(matching, TeamOrdering(sigma=sigma, pi=pi))
            totals[sigma, pi] = sum(k * dist[bind[a]][bind[b]] for a, b, k in travels)
            if kind == "int":
                assert coefficient_total(coeffs, inst, bind) == totals[sigma, pi]
    assert len(totals) == math.factorial(m) * 2**m

    def agrees(key, step):
        sigma, pi = key
        if step <= m:
            return sigma[:step] == ordering.sigma[:step]
        return sigma == ordering.sigma and pi[: step - m] == ordering.pi[: step - m]

    for step, value in enumerate(chain):
        picked = [t for key, t in totals.items() if agrees(key, step)]
        assert value == Fraction(sum(picked), len(picked)), step


@settings(max_examples=50, deadline=None, database=None)
@given(
    n=st.sampled_from([8, 10, 12, 14, 40, 42]),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["int", "real", "big"]),
)
def test_derandomize_chain_properties(n, seed, kind):
    inst = _variant(random_metric_instance(n, seed), kind)
    matching = min_weight_perfect_matching(inst)
    template, coeffs = _template_and_coeffs(n)
    ordering, chain = derandomize(coeffs, inst, matching)
    assert len(chain) == n + 1
    assert all(chain[i + 1] <= chain[i] for i in range(n))
    schedule = bind_template(template, matching, ordering)
    assert chain[-1] == _exact_schedule_total(schedule, inst)


def test_coefficient_total_exact_past_int64():
    # At 1e14 the doubled total passes 2**63: int64 sums wrapped around here.
    n = 40
    inst = Instance(n=n, dist=random_metric_instance(n, 1).dist * 10**14)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    o = random_ordering(n // 2, 0)
    direct = total_distance(bind_template(template, matching, o), inst).total
    assert direct == 94356400000000000000
    assert coefficient_total(coeffs, inst, binding_vector(matching, o)) == direct


def test_polish_verified_on_distances_past_int64():
    # The passes polish alternates, each checked at every evaluation.
    n = 40
    inst = Instance(n=n, dist=random_metric_instance(n, 1).dist * 10**15)
    matching = min_weight_perfect_matching(inst)
    template = build_even_template(n)
    coeffs = extract_coefficients(template)
    start = b = binding_vector(matching, random_ordering(n // 2, 0))
    totals = [coefficient_total(coeffs, inst, b)]
    improved = True
    while improved:
        b, x = _checked(swap_super_teams_pass, b, coeffs, inst)
        b, y = _checked(swap_within_pass, b, coeffs, inst)
        totals.append(coefficient_total(coeffs, inst, b))
        improved = x or y
    assert b.tolist() == polish(start, coeffs, inst).tolist()
    assert all(later < earlier for earlier, later in zip(totals[:-2], totals[1:-1]))
    assert totals[-1] == totals[-2] < totals[0]


@pytest.mark.parametrize("seed", range(20))
def test_swap_passes_verified_on_real_valued(seed):
    n = 12
    inst = _variant(random_metric_instance(n, seed), "real")
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    b0 = binding_vector(matching, random_ordering(n // 2, seed))
    b1, _ = _checked(swap_super_teams_pass, b0, coeffs, inst)
    b2, _ = _checked(swap_within_pass, b1, coeffs, inst)
    exact = [_exact_form_total(coeffs, inst, b) for b in (b0, b1, b2)]
    assert exact[0] >= exact[1] >= exact[2]


@settings(max_examples=50, deadline=None, database=None)
@given(
    n=st.sampled_from([8, 10, 12, 14, 40, 42]),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["int", "real", "big"]),
)
def test_neighbourhood_deltas_equal_recomputation(n, seed, kind):
    inst = _variant(random_metric_instance(n, seed), kind)
    _, coeffs = _template_and_coeffs(n)
    bind = np.random.default_rng(seed).permutation(n)
    slack = _slack(inst)
    W, scale = inst.exact_weights
    c = coeffs.c.astype(object)

    def doubled_total(b):
        return (c * W[np.ix_(b, b)]).sum()

    before = doubled_total(bind)
    pairs = [(i, j) for i in range(n // 2) for j in range(i + 1, n // 2)]
    moves = [((2 * i, 2 * i + 1, 2 * j, 2 * j + 1), (2 * j, 2 * j + 1, 2 * i, 2 * i + 1)) for i, j in pairs]
    moves += [((2 * i, 2 * i + 1), (2 * i + 1, 2 * i)) for i in range(n // 2)]
    buf = _search_state(bind, inst)
    deltas = np.concatenate([_swap_deltas(coeffs.blocks, buf)(), _flip_deltas(coeffs.blocks, buf)()])
    assert len(deltas) == len(moves)
    for value, (src, dst) in zip(deltas, moves):
        after = bind.copy()
        after[list(src)] = bind[list(dst)]
        truth = Fraction(doubled_total(after) - before, 2 * scale)
        delta = _exact_move_delta(coeffs, inst, bind, np.array(src), np.array(dst))
        assert Fraction(delta, scale) == truth
        assert abs(Fraction(value.item()) - truth) <= slack


# Arithmetic tiers, each with whether the instance is `float_exact`: three
# bands of the bound travel_bound(n, max(d)) on integers (the middle one
# once ran the kernels on int64), then real-valued kinds.
TIERS = {
    "below-2**53": True,
    "below-2**63": False,
    "above-2**63": False,
    "real": False,
    "all-0.5": True,
    "same-point": False,
    "near-tie": False,
}
BANDS = {
    "below-2**53": (0.999999 * 2**53, 2**53),
    "below-2**63": (2**53, 2**63),
    "above-2**63": (2**63, 2**64),
}


def _tier_instance(n, seed, tier):
    """random_metric_instance(n, seed), scaled so that the bound
    travel_bound(n, max(d)) lands in the band `tier`, or made real-valued:
    its square roots, every distance 0.5, Euclidean distances of n/2 random
    points with two teams on each (exact ties), or random distances 1 or 2
    plus offsets below 1e-12 (ties broken far inside the rounding slack)."""
    rng = np.random.default_rng(seed)
    if tier == "all-0.5":
        return Instance(n=n, dist=(1 - np.eye(n)) / 2)
    if tier == "same-point":
        pts = np.repeat(rng.uniform(0, 1000, size=(n // 2, 2)), 2, axis=0)
        gap = pts[:, None] - pts[None]
        return Instance(n=n, dist=np.hypot(gap[..., 0], gap[..., 1]))
    if tier == "near-tie":
        d = np.triu(rng.integers(1, 3, size=(n, n)) + rng.random((n, n)) * 1e-12, 1)
        return Instance(n=n, dist=d + d.T)
    inst = random_metric_instance(n, seed)
    if tier == "real":
        return Instance(n=n, dist=np.sqrt(inst.dist), integral=False)
    unit = travel_bound(n, int(inst.dist.max()))
    scale = {
        "below-2**53": (2**53 - 1) // unit,
        "below-2**63": 2**58 // unit,
        "above-2**63": 2**63 // unit + 1,
    }
    return Instance(n=n, dist=inst.dist * scale[tier])


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [12, 14])
def test_swap_passes_verified_on_every_tier(n, tier):
    inst = _tier_instance(n, 5, tier)
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    assert inst.float_exact == (_slack(inst) == 0) == TIERS[tier]
    if tier in BANDS:
        lo, hi = BANDS[tier]
        assert lo < travel_bound(n, int(inst.dist.max())) < hi
    moved = 0
    for seed in range(3):
        b = binding_vector(matching, random_ordering(n // 2, seed))
        polished = _checked(polish, b, coeffs, inst)
        assert _exact_form_total(coeffs, inst, polished) <= _exact_form_total(coeffs, inst, b)
        moved += polished.tolist() != b
    assert (moved > 0) == (tier != "all-0.5")  # all 0.5: every delta is 0


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [12, 48])
def test_passes_return_their_buffer_and_polish_reads_its_bind(n, tier, monkeypatch):
    """The binding lives only in the search buffer: both passes return
    (buf, improved) with the very buffer they were given, whose bind tail
    is a permutation of the teams after every pass, and `polish` returns
    the integer vector equal to the tail of the buffer its passes ran on.
    n = 12 applies moves with the cells of whole sweeps, n = 48 by
    permuting rows, columns and labels."""
    inst = _tier_instance(n, 11, tier)
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    moved = False
    for seed in range(2):
        start = binding_vector(matching, random_ordering(n // 2, seed))
        buf = _search_state(start, inst)
        for rule in (swap_super_teams_pass, swap_within_pass, swap_super_teams_pass):
            out, improved = rule(buf, coeffs, inst)
            assert out is buf and sorted(buf[-n:].tolist()) == list(range(n))
            moved |= improved
    assert moved == (tier != "all-0.5")  # all 0.5: every delta is 0

    buffers = []
    for name in ("swap_super_teams_pass", "swap_within_pass"):

        def spy(buf, *args, _rule=getattr(ordering, name)):
            buffers.append(buf)
            return _rule(buf, *args)

        monkeypatch.setattr(ordering, name, spy)
    for seed in range(2):
        buffers.clear()
        polished = polish(binding_vector(matching, random_ordering(n // 2, seed)), coeffs, inst)
        assert polished.dtype == np.intp and all(b is buffers[0] for b in buffers)
        assert polished.tolist() == buffers[-1][-n:].tolist()


def test_run_rounds_returns_the_winning_vector_as_python_ints():
    for n in (10, 48):
        inst = random_metric_instance(n, 2)
        template, _ = _template_and_coeffs(n)
        bind = run_rounds(inst, template, min_weight_perfect_matching(inst), x=2)[0]
        assert type(bind) is list and all(type(team) is int for team in bind)
        assert sorted(bind) == list(range(n))


@pytest.mark.parametrize("n, seed", [(12, 3), (24, 0), (24, 1), (24, 2)])
def test_polish_takes_the_exact_moves_on_near_ties(n, seed):
    """Distances 1 or 2 plus offsets below 1e-12 give moves whose exact delta
    is negative by less than the rounding slack, so their float64 delta may
    be 0 or above; `polish` must take them as the exact search does."""
    inst = _tier_instance(n, seed, "near-tie")
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    for r in range(3):
        _checked(polish, binding_vector(matching, random_ordering(n // 2, r)), coeffs, inst)


def _inexact_instance(n, seed, kind):
    """An instance that is not `float_exact` and rounds: real-valued, integer above
    2**63, real-valued just under `Instance`'s float64 overflow limit, or
    around 1e-300 with about half the pairs subnormal."""
    if kind in ("real", "above-2**63"):
        return _tier_instance(n, seed, kind)
    d = np.sqrt(random_metric_instance(n, seed).dist)
    if kind == "huge":
        d = d / d.max() * (sys.float_info.max / (8 * n * (2 * n - 1)) * (1 - 2**-40))
    else:
        sub = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
        d = d * 1e-300
        d[sub | sub.T] *= 1e-22
    return Instance(n=n, dist=d)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n=st.sampled_from([8, 10, 12, 14, 40, 42]),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["real", "above-2**63", "huge", "tiny"]),
)
def test_kernel_deltas_within_rounding_slack(n, seed, kind):
    inst = _inexact_instance(n, seed, kind)
    _, coeffs = _template_and_coeffs(n)
    slack = _slack(inst)
    assert not inst.float_exact and 0 < slack < math.inf
    if kind == "tiny":
        assert 0 < inst.dist[inst.dist > 0].min() < sys.float_info.min  # subnormal entries
    bind = np.random.default_rng(seed).permutation(n)
    buf = _search_state(bind, inst)
    scale = inst.exact_weights[1]
    swaps, flips = _sweep(n // 2, False)[:2], _sweep(n // 2, True)[:2]
    for kernel, (src, dst) in ((_swap_deltas, swaps), (_flip_deltas, flips)):
        deltas = kernel(coeffs.blocks, buf)()
        assert len(deltas) == len(src)
        for value, s, t in zip(deltas.tolist(), src, dst):
            exact = Fraction(_exact_move_delta(coeffs, inst, bind, s, t), scale)
            assert abs(Fraction(value) - exact) <= slack


def test_slack_filter_skips_exact_deltas_and_keeps_the_search(monkeypatch):
    calls = []
    spied = ordering._exact_move_delta
    monkeypatch.setattr(ordering, "_exact_move_delta", lambda *args: calls.append(1) or spied(*args))
    n = 30
    _, coeffs = _template_and_coeffs(n)

    def polished():
        vectors = []
        for seed in range(3):
            inst = Instance(n=n, dist=np.sqrt(random_metric_instance(n, seed).dist))
            matching = min_weight_perfect_matching(inst)
            for r in range(3):
                vectors.append(polish(binding_vector(matching, random_ordering(n // 2, r)), coeffs, inst).tolist())
        return vectors

    filtered = polished()
    filtered_calls = len(calls)
    # With an infinite slack every proposal takes the exact path.
    monkeypatch.setattr(ordering, "_rounding_slack", lambda *args: math.inf)
    calls.clear()
    assert polished() == filtered
    proposals = len(calls)
    assert proposals > 100 and filtered_calls * 20 < proposals


def test_rejected_proposals_leave_the_search_unchanged(monkeypatch):
    """Kernel deltas lowered by half the slack turn every neutral move of an
    instance with distances 1/3 and 2/3 into a proposal that its exact delta
    rejects; the loop must go on to the next candidate and take the moves it
    took before."""
    n = 14
    d = np.triu(np.random.default_rng(n).integers(1, 3, size=(n, n)), 1)
    inst = Instance(n=n, dist=(d + d.T) / 3)  # not float_exact
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    starts = [binding_vector(matching, random_ordering(n // 2, seed)) for seed in range(10)]
    polished = [polish(b, coeffs, inst).tolist() for b in starts]
    nudge = _slack(inst) / 2
    calls = []
    spied = ordering._exact_move_delta
    monkeypatch.setattr(ordering, "_exact_move_delta", lambda *args: calls.append(1) or spied(*args))
    for name in ("_swap_deltas", "_flip_deltas"):

        def nudged(blocks, buf, _k=getattr(ordering, name)):
            evaluate = _k(blocks, buf)
            return lambda: evaluate() - nudge

        monkeypatch.setattr(ordering, name, nudged)
    assert [polish(b, coeffs, inst).tolist() for b in starts] == polished
    assert len(calls) > 20  # each one a rejected proposal: every true delta is 0 or 1/3 away


def _polish_by_rounds(bind, coeffs, inst):
    """The reference stop rule: alternate whole swap-then-flip rounds until
    a round in which neither pass improves.  Each pass starts from a buffer
    gathered afresh, so `polish`'s carried buffer is compared with it."""
    while True:
        bind, a = _pass(swap_super_teams_pass, bind, coeffs, inst)
        bind, b = _pass(swap_within_pass, bind, coeffs, inst)
        if not (a or b):
            return bind


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [12, 14, 24])
def test_polish_stop_rule_keeps_the_vectors_of_the_round_loop(n, tier):
    inst = _tier_instance(n, 7, tier)
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    for seed in range(8):
        b = binding_vector(matching, random_ordering(n // 2, seed))
        assert polish(b, coeffs, inst).tolist() == _polish_by_rounds(b, coeffs, inst).tolist()


def test_polish_runs_no_pass_after_an_idle_one(monkeypatch):
    log = []
    for name in ("swap_super_teams_pass", "swap_within_pass"):

        def spy(*args, _rule=getattr(ordering, name), _name=name):
            bind, improved = _rule(*args)
            log.append((_name, improved))
            return bind, improved

        monkeypatch.setattr(ordering, name, spy)
    n = 24
    inst = random_metric_instance(n, 3)
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    for seed in range(10):
        log.clear()
        polish(binding_vector(matching, random_ordering(n // 2, seed)), coeffs, inst)
        rules = ["swap_super_teams_pass", "swap_within_pass"] * len(log)
        assert [name for name, _ in log] == rules[: len(log)]
        # Only the first pass may be idle without ending the search.
        assert [k for k, (_, improved) in enumerate(log) if k and not improved] == [len(log) - 1]


@pytest.mark.parametrize("rule", ["swap", "flip"])
def test_pass_accepts_the_last_move_of_a_sweep(rule, monkeypatch):
    """A vector whose only improving move is the sweep's last: the pass
    accepts it, goes on from move 0, finds nothing and ends."""
    n = 10
    inst = random_metric_instance(n, 1)
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    best = polish(binding_vector(matching, random_ordering(n // 2, 0)), coeffs, inst)
    # The last swap trades slots m-2 and m-1, the last flip the two teams of slot m-1.
    if rule == "swap":
        kernel, run, src, dst = _swap_deltas, swap_super_teams_pass, [6, 7, 8, 9], [8, 9, 6, 7]
    else:
        kernel, run, src, dst = _flip_deltas, swap_within_pass, [8, 9], [9, 8]
    start = best.copy()
    start[src] = best[dst]  # one step from `best`, by the last move
    deltas = kernel(coeffs.blocks, _search_state(start, inst))()
    assert np.flatnonzero(deltas < 0).tolist() == [len(deltas) - 1]

    evaluations = []
    def counted(blocks, buf):
        evaluate = kernel(blocks, buf)
        return lambda: evaluations.append(1) or evaluate()

    monkeypatch.setattr(ordering, kernel.__name__, counted)
    bind, improved = _checked(run, start.tolist(), coeffs, inst)
    assert improved and bind.tolist() == best.tolist()
    assert len(evaluations) == 2  # before and after the one accepted move


def _sigma_step_reference(CS, CP, SD, PD, assigned, free):
    """The numerators and denominator of one sigma step, re-summed from the
    full aggregates in Python ints."""
    s = len(assigned)
    kp = len(free) - 1
    f1 = max(kp, 1)
    f2 = max(kp - 1, 1)
    idx = np.array(assigned, dtype=np.intp)
    fre = np.array(free, dtype=np.intp)
    sd_af = SD[np.ix_(idx, fre)]
    row_f = SD[:, fre].sum(axis=1)
    pd_f = PD[fre]
    a_const = 4 * (CP[:s] * PD[idx]).sum() + (CS[:s, :s] * SD[np.ix_(idx, idx)]).sum() // 2
    exact = a_const + CS[:s, s] @ sd_af + 4 * CP[s] * pd_f
    csff = CS[:s, s + 1 :].sum(axis=1)
    c_vec = csff @ row_f[idx] - csff @ sd_af
    d_vec = CS[s, s + 1 :].sum() * row_f[fre]
    pair_free = 4 * CP[s + 1 :].sum() * (pd_f.sum() - pd_f)
    avg1 = c_vec + d_vec + pair_free
    cs_ff_rest = CS[s + 1 :, s + 1 :].sum() // 2
    ff_vec = cs_ff_rest * (SD[np.ix_(fre, fre)].sum() - 2 * row_f[fre])
    return exact * (f1 * f2) + avg1 * f2 + ff_vec, 4 * f1 * f2


def _derandomize_reference(coeffs, inst, matching):
    """`derandomize` on object arrays of Python ints throughout, each sigma
    step summed again in full; returns (ordering, chain)."""
    m = inst.n // 2
    W, scale = inst.exact_weights
    c = coeffs.c.astype(object)
    X = np.array([a for a, _ in matching.pairs])
    Y = np.array([b for _, b in matching.pairs])
    CS = c.reshape(m, 2, m, 2).sum(axis=(1, 3))
    np.fill_diagonal(CS, 0)
    CP = c[0::2, 1::2].diagonal()
    SD = W[np.ix_(X, X)] + W[np.ix_(X, Y)] + W[np.ix_(Y, X)] + W[np.ix_(Y, Y)]
    np.fill_diagonal(SD, 0)
    PD = W[X, Y]
    assigned, free, chain = [], list(range(m)), []
    for s in range(m):
        nums, den = _sigma_step_reference(CS, CP, SD, PD, assigned, free)
        if s == 0:
            chain.append(Fraction(nums.sum(), m * den))
        pick = int(np.argmin(nums))
        chain.append(Fraction(nums[pick], den))
        assigned.append(free.pop(pick))
    L1 = np.repeat(X[assigned], 2)
    L2 = np.repeat(Y[assigned], 2)
    bits = []
    expect = chain[-1]
    for s in range(m):
        ends = [L1[2 * s], L2[2 * s]]
        M = c[2 * s : 2 * s + 2] @ (W[ends][:, L1] + W[ends][:, L2]).T
        s0 = M[0, 0] + M[1, 1]
        s1 = M[0, 1] + M[1, 0]
        b = int(s1 < s0)
        bits.append(b)
        expect -= Fraction(abs(s0 - s1), 4)
        chain.append(expect)
        L1[2 * s] = L2[2 * s] = ends[b]
        L1[2 * s + 1] = L2[2 * s + 1] = ends[1 - b]
    return TeamOrdering(sigma=tuple(assigned), pi=tuple(bits)), [v / scale for v in chain]


def _in_float64(inst):
    """Whether `derandomize` takes its float64 path on the instance."""
    return _derandomize_in_float64(inst.n, Fraction(inst.d_max) * inst.exact_weights[1])


def _at_derandomize_bound(n, seed, past):
    """random_metric_instance(n, seed) scaled to the largest weights the
    float64 path of `derandomize` admits, or with past=True one step beyond."""
    inst = random_metric_instance(n, seed)
    m = n // 2
    scale = (2**54 - 1) // (m * (m + 1) * travel_bound(n, inst.d_max)) + past
    return Instance(n=n, dist=inst.dist * scale)


@pytest.mark.parametrize(
    "kind,n",
    [("uniform", 80), ("clustered", 80), ("uniform", 122), ("clustered", 122),
     ("real", 40), ("real", 80), ("half", 80), ("big", 40),
     ("at-bound", 40), ("at-bound", 122), ("past-bound", 40), ("past-bound", 122)],
)
def test_derandomize_matches_python_int_reference(kind, n):
    if kind == "clustered":
        inst = _clustered(n, 3)
    elif kind == "half":  # real-valued with scale 2: the float64 path
        inst = Instance(n=n, dist=random_metric_instance(n, 3).dist / 2.0, integral=False)
    elif kind in ("at-bound", "past-bound"):
        inst = _at_derandomize_bound(n, 4, past=kind == "past-bound")
        assert inst.float_exact
    else:
        inst = _variant(random_metric_instance(n, 3), kind if kind != "uniform" else "int")
    assert _in_float64(inst) == (kind in ("uniform", "clustered", "half", "at-bound"))
    matching = min_weight_perfect_matching(inst)
    _, coeffs = _template_and_coeffs(n)
    assert derandomize(coeffs, inst, matching) == _derandomize_reference(coeffs, inst, matching)


@pytest.mark.parametrize("n", [4, 6, 40, 122, 240])
def test_derandomize_float64_bound_threshold(n):
    """The largest weight the float64 path admits, and the next one up."""
    m = n // 2
    unit = m * (m + 1) * travel_bound(n, 1)
    w_max = (2**54 - 1) // unit
    assert _derandomize_in_float64(n, w_max)
    assert not _derandomize_in_float64(n, w_max + 1)
    assert unit * w_max < 2**54 <= unit * (w_max + 1)


def test_run_rounds_rejects_zero_rounds():
    inst = random_metric_instance(10, 2)
    with pytest.raises(ValueError, match="round count must be >= 1"):
        run_rounds(inst, build_odd_template(10), min_weight_perfect_matching(inst), x=0)


@pytest.mark.parametrize("seed", [0, 3, -2])
def test_random_ordering_reads_numpy_integer_seeds_as_ints(seed):
    assert random_ordering(7, np.int64(seed)) == random_ordering(7, seed)


@pytest.mark.parametrize("seed", [3.0, 3.5])
def test_random_ordering_rejects_float_seeds(seed):
    with pytest.raises(TypeError):
        random_ordering(7, seed)
