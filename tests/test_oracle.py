import itertools
import json
import time

import numpy as np
import pytest

from ttp2.cli import main
from ttp2.errors import DomainError
from ttp2.instance import Instance, check_metric, write_instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.oracle import brute_force_optimal, random_metric_instance, tight_instance
from ttp2.schedule import total_distance, validate_schedule


def test_tight_instance_shape_and_lb():
    for n in (4, 8, 10):
        ti = tight_instance(n)
        m = min_weight_perfect_matching(ti)
        assert m.weight == 0
        assert independent_lower_bound(ti, m).total == n * (n - 2)
        assert check_metric(ti).triangle_violations == 0


def test_random_metric_deterministic_and_metric():
    a = random_metric_instance(12, 9)
    b = random_metric_instance(12, 9)
    assert np.array_equal(a.dist, b.dist)
    assert a.integral
    # Ceiling rounding keeps the triangle inequality exactly.
    assert check_metric(a).triangle_violations == 0


def test_random_metric_generation_speed():
    start = time.perf_counter()
    random_metric_instance(40, 0)
    assert time.perf_counter() - start < 0.25


def exhaustive_optimal_n4(inst):
    """Test-only exhaustive enumeration, written independently of the oracle.

    A 4-team double round-robin uses each of the three perfect matchings on
    exactly two days, and the second appearance must reverse both venues.
    That leaves 6!/8 matching orders x 4^3 first-appearance orientations,
    all checked with plain filters and no bounding.
    """
    matchings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def ok(seq):
        for t in range(4):
            signs = []
            opps = []
            for day in seq:
                for a, h in day:
                    if t == a:
                        signs.append("A")
                        opps.append(h)
                    elif t == h:
                        signs.append("H")
                        opps.append(a)
            joined = "".join(signs)
            if "AAA" in joined or "HHH" in joined:
                return False
            if any(x == y for x, y in zip(opps, opps[1:])):
                return False
        return True

    d = inst.dist.tolist()

    def cost(seq):
        total = 0
        for t in range(4):
            venue = t
            for day in seq:
                for a, h in day:
                    if t in (a, h):
                        total += d[venue][h]
                        venue = h
            total += d[venue][t]
        return total

    best = None
    for order in set(itertools.permutations([0, 0, 1, 1, 2, 2])):
        for bits in itertools.product((0, 1), repeat=6):  # one bit per pair
            seen = [False, False, False]
            seq = []
            for mi in order:
                day = []
                for k, (a, b) in enumerate(matchings[mi]):
                    flip = seen[mi] ^ bits[2 * mi + k]
                    day.append((a, b) if flip else (b, a))
                seen[mi] = True
                seq.append(tuple(day))
            if ok(seq):
                c = cost(seq)
                if best is None or c < best:
                    best = c
    return best


# Symmetric integer matrices that break the triangle inequality.
NON_METRIC_N4 = [
    [[0, 50, 3, 1], [50, 0, 2, 90], [3, 2, 0, 40], [1, 90, 40, 0]],
    [[0, 0, 7, 7], [0, 0, 0, 30], [7, 0, 0, 0], [7, 30, 0, 0]],
    [[0, 100, 1, 100], [100, 0, 100, 1], [1, 100, 0, 1], [100, 1, 1, 0]],
]
ENUMERATED_N4 = {
    **{f"u4-{s}": lambda s=s: random_metric_instance(4, s) for s in (*range(1, 9), 13)},
    "tight4": lambda: tight_instance(4),  # optimum 10
    "zero4": lambda: Instance(n=4, dist=np.zeros((4, 4), dtype=np.int64)),
    **{f"non-metric-{k}": lambda k=k: Instance(n=4, dist=np.array(NON_METRIC_N4[k])) for k in range(3)},
}


@pytest.mark.parametrize("case", ENUMERATED_N4)
def test_bruteforce_matches_independent_enumeration_n4(case):
    inst = ENUMERATED_N4[case]()
    _, cost = brute_force_optimal(inst)
    assert cost == exhaustive_optimal_n4(inst)


# Non-metric instances whose optimum lies below the independent lower bound,
# which assumes the triangle inequality: (matrix, optimum, LB).  At n = 4,
# d(0, 2) = 12 > d(0, 1) + d(1, 2) = 2; the n = 6 optimum is that of the
# same search with no early stop at all.
NON_METRIC = {
    "n4": ([[0, 1, 12, 87], [1, 0, 1, 65], [12, 1, 0, 79], [87, 65, 79, 0]], 791, 798),
    "n6": (
        [
            [0, 74, 13, 64, 44, 54],
            [74, 0, 24, 60, 12, 184],
            [13, 24, 0, 0, 15, 12],
            [64, 60, 0, 0, 0, 44],
            [44, 12, 15, 0, 0, 192],
            [54, 184, 12, 44, 192, 0],
        ],
        1968,
        1980,
    ),
}


def test_bruteforce_exact_below_the_lower_bound_on_non_metric_input():
    dist, optimum, lb = NON_METRIC["n4"]
    inst = Instance(n=4, dist=np.array(dist))
    assert check_metric(inst).triangle_violations > 0
    assert independent_lower_bound(inst, min_weight_perfect_matching(inst)).total == lb
    s, cost = brute_force_optimal(inst)
    assert validate_schedule(s).feasible
    assert total_distance(s, inst).total == cost
    assert cost == exhaustive_optimal_n4(inst) == optimum


@pytest.mark.parametrize("case", sorted(NON_METRIC))
@pytest.mark.parametrize("command", ["solve"])
def test_cli_reports_the_optimum_below_the_lower_bound(tmp_path, capsys, command, case):
    dist, optimum, lb = NON_METRIC[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(write_instance(Instance(n=len(dist), dist=np.array(dist))))
    assert main([command, str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["total"], report["lb"]) == (optimum, lb)
    assert report["gap_percent"] < 0


def test_bruteforce_tight4_beats_lower_bound():
    ti = tight_instance(4)
    m = min_weight_perfect_matching(ti)
    lb = independent_lower_bound(ti, m).total
    s, cost = brute_force_optimal(ti)
    assert validate_schedule(s).feasible
    assert lb == 8
    assert cost > lb  # the bound is unattainable even at n=4
    assert cost <= 2 * lb


def test_bruteforce_zero_matrix_n6():
    z = Instance(n=6, dist=np.zeros((6, 6), dtype=np.int64))
    s, cost = brute_force_optimal(z)
    assert cost == 0
    assert validate_schedule(s).feasible


# n = 6 optima as the earlier game-by-game search found them.
# The last instance's total is past 2**63: it must come back as an exact int.
PINNED_N6 = {
    "tight6": (lambda: tight_instance(6), 31),
    "u6-3": (lambda: random_metric_instance(6, 3), 20807),
    "u6-4": (lambda: random_metric_instance(6, 4), 12742),
    "u6-5": (lambda: random_metric_instance(6, 5), 27643),
    "u6-3-scaled": (
        lambda: Instance(n=6, dist=random_metric_instance(6, 3).dist * (2**62 // 4000)),
        23988837746354644722,
    ),
}


@pytest.mark.parametrize("case", PINNED_N6)
def test_bruteforce_keeps_the_pinned_n6_optima(case):
    build, optimum = PINNED_N6[case]
    s, cost = brute_force_optimal(build())
    assert type(cost) is int and cost == optimum
    assert validate_schedule(s).feasible


def test_bruteforce_random_n6_in_bounds():
    inst = random_metric_instance(6, 21)
    m = min_weight_perfect_matching(inst)
    lb = independent_lower_bound(inst, m).total
    s, cost = brute_force_optimal(inst)
    assert validate_schedule(s).feasible
    assert lb <= cost <= 2 * lb
    assert total_distance(s, inst).total == cost


def test_bruteforce_guard():
    with pytest.raises(DomainError):
        brute_force_optimal(tight_instance(8))


@pytest.mark.parametrize("build", [lambda: tight_instance(5), lambda: random_metric_instance(2, 0)], ids=["tight-5", "random-2"])
def test_generators_reject_team_counts_below_four_or_odd(build):
    with pytest.raises(DomainError, match="n must be even >= 4"):
        build()
