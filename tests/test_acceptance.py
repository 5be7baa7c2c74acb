"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_N8, enumerate_perfect_matchings
from ttp2.even import build_even_template, compute_L
from ttp2.instance import Instance, parse_instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.odd import build_odd_template
from ttp2.oracle import brute_force_optimal, random_metric_instance, tight_instance
from ttp2.ordering import (
    bind_template,
    binding_vector,
    coefficient_total,
    derandomize,
    extract_coefficients,
    random_ordering,
)
from ttp2.pipeline import solve
from ttp2.schedule import total_distance, validate_schedule
from test_matching_reference import _clustered

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "benchmarks"
BASELINES = Path(__file__).resolve().parent.parent / "data" / "baselines.csv"

EVEN_NS = list(range(8, 44, 4))
ODD_NS = list(range(10, 42, 4))


def _line(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def even_packings(n):
    out = [1]
    p = 2
    while 8 * p <= n:
        if n % (4 * p) == 0:
            out.append(p)
        p += 1
    return out


def sweep_templates():
    """(n, description, template) for every construction in the sweep."""
    for n in EVEN_NS:
        for p in even_packings(n):
            yield n, f"even n={n} p={p}", build_even_template(n, p)
    for n in ODD_NS:
        yield n, f"odd n={n}", build_odd_template(n)


def test_criterion_01_golden_schedule():
    s = build_even_template(8, 1)
    exact = np.array_equal(s.table, GOLDEN_N8)
    best = min(
        _timed(lambda: build_even_template(8, 1)) for _ in range(5)
    )
    _line(1, exact and best < 1e-3, f"8-team table exact={exact}, build {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_feasibility_sweep():
    t0 = time.perf_counter()
    bad = []
    count = 0
    for n, desc, template in sweep_templates():
        rep = validate_schedule(template, k=2)
        count += 1
        if not rep.feasible:
            bad.append(desc)
    elapsed = time.perf_counter() - t0
    _line(2, not bad and elapsed < 5.0, f"{count} constructions feasible in {elapsed:.2f}s {bad}")


def test_criterion_03_left_count_table():
    expect = {
        8: (0, 0), 12: (2, 2), 16: (4, 2), 20: (6, 6), 24: (8, 6),
        28: (10, 10), 32: (12, 8), 36: (14, 14), 40: (16, 14),
    }
    ok = True
    for n, (before, after) in expect.items():
        best, _, table = compute_L(n)
        ok &= table[1] == before and best == after
    _line(3, ok, "compute_L matches the published before/after counts")


def test_criterion_04_tight_extra_costs():
    ok = True
    details = []
    for n in EVEN_NS:
        ti = tight_instance(n)
        base = total_distance(build_even_template(n, 1), ti).total - n * (n - 2)
        packed = total_distance(build_even_template(n, "auto"), ti).total - n * (n - 2)
        L, _, _ = compute_L(n)
        if base != 3 * n - 16 or packed != 4 * L + n:
            ok = False
            details.append((n, base, packed))
    for n in ODD_NS:
        ti = tight_instance(n)
        extra = total_distance(build_odd_template(n), ti).total - n * (n - 2)
        if extra != 5 * n - 20:
            ok = False
            details.append((n, extra))
    _line(4, ok, f"tight extras exact (3n-16 / 4L+n / 5n-20) {details}")


def _ratio(n):
    if n % 4 == 0:
        return Fraction(1) + Fraction(3, n) - Fraction(10, n * (n - 2))
    return Fraction(1) + Fraction(5, n) - Fraction(10, n * (n - 2))


def test_criterion_05_and_06_derandomized_ratio_and_monotonicity():
    t0 = time.perf_counter()
    violations = []
    chain_breaks = 0
    for n in (8, 10, 12, 16, 20):
        template = build_odd_template(n) if n % 4 else build_even_template(n)
        coeffs = extract_coefficients(template)
        bound = _ratio(n)
        for seed in range(100):
            inst = random_metric_instance(n, 10_000 * n + seed)
            matching = min_weight_perfect_matching(inst)
            lb = independent_lower_bound(inst, matching).total
            ordering, chain = derandomize(coeffs, inst, matching)
            if any(chain[i + 1] > chain[i] for i in range(len(chain) - 1)):
                chain_breaks += 1
            total = total_distance(bind_template(template, matching, ordering), inst).total
            if Fraction(total) > bound * lb:
                violations.append((n, seed))
    elapsed = time.perf_counter() - t0
    _line(5, not violations and elapsed < 30.0, f"500 derandomized ratios hold in {elapsed:.1f}s {violations[:3]}")
    _line(6, chain_breaks == 0, f"conditional expectation non-increasing on all chains ({chain_breaks} breaks)")


def test_criterion_07_matching_exactness():
    rng = np.random.default_rng(777)
    bad = 0
    for trial in range(200):
        n = int(rng.choice([4, 6, 8, 10]))
        d = rng.integers(0, 1000, size=(n, n))
        d = np.asarray(d + d.T, dtype=np.int64)
        np.fill_diagonal(d, 0)
        inst = Instance(n=n, dist=d)
        got = min_weight_perfect_matching(inst).weight
        table = inst.dist.tolist()
        want = min(
            sum(table[a][b] for a, b in match)
            for match in enumerate_perfect_matchings(range(n))
        )
        bad += got != want
    _line(7, bad == 0, f"200 random matchings equal exhaustive enumeration ({bad} misses)")


def test_criterion_08_bruteforce_sanity():
    ti = tight_instance(4)
    matching = min_weight_perfect_matching(ti)
    lb = independent_lower_bound(ti, matching).total
    s, cost = brute_force_optimal(ti)
    ok = lb == 8 and cost > lb and validate_schedule(s).feasible

    # The optimum never exceeds any other feasible schedule's total.
    from test_oracle import exhaustive_optimal_n4

    inst = random_metric_instance(4, 99)
    _, opt = brute_force_optimal(inst)
    ok &= opt == exhaustive_optimal_n4(inst)
    _line(8, ok, f"tight n=4 optimum {cost} > LB 8; optimum matches full enumeration")


def _load_baselines():
    rows = {}
    for line in BASELINES.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("instance"):
            continue
        name, lb, prev, r50 = line.split(",")
        rows[name] = (int(lb), int(prev), int(r50))
    return rows


def _criterion_09_solve(inst):
    """Criterion 09's path: the library pipeline over 50 rounds from seed 0;
    returns (LB, total)."""
    sol = solve(inst, rounds=50)
    return sol.lb, sol.total


def test_criterion_09_benchmark_regression():
    if not DATA_DIR.is_dir() or not any(DATA_DIR.iterdir()):
        pytest.skip("benchmark data not fetched (see scripts/fetch_benchmarks.py)")
    baselines = _load_baselines()
    t0 = time.perf_counter()
    misses = []
    for path in sorted(DATA_DIR.iterdir()):
        name = path.stem
        if name not in baselines:
            continue
        lb, total = _criterion_09_solve(parse_instance(path.read_text()))
        lb_row, prev, r50 = baselines[name]
        if lb != lb_row or total > prev or total > 1.01 * r50:
            misses.append((name, lb, total))
    elapsed = time.perf_counter() - t0
    _line(9, not misses and elapsed < 60.0, f"benchmarks beat prior totals in {elapsed:.1f}s {misses}")


# (LB, total) of criterion 09's path on random_metric_instance(n, n) and
# _clustered(n, n), n = 10, 12, ..., 40, pinned before the swap search took
# every move whose exact delta is negative (both kinds are float_exact).
OFFLINE_09 = {
    "uniform": [
        (63010, 73502), (93586, 99327), (98892, 111901), (147616, 154569),
        (185436, 200908), (215850, 225844), (267376, 291747), (319236, 330531),
        (366998, 390995), (498674, 516837), (493882, 524376), (590282, 602814),
        (684172, 722403), (698286, 719823), (752552, 788099), (855418, 875767),
    ],
    "clustered": [
        (56804, 69993), (57620, 62042), (59472, 68506), (151868, 157769),
        (117962, 126794), (207716, 217027), (246774, 264888), (244670, 254173),
        (301530, 320762), (438880, 455200), (436954, 463556), (482454, 495343),
        (507842, 540859), (562562, 581478), (544786, 572184), (728622, 745818),
    ],
}


@pytest.mark.parametrize("kind", OFFLINE_09)
def test_criterion_09_path_offline(kind):
    """Criterion 09's loop on generated instances, for when the benchmark
    files are not at hand."""
    make = {"uniform": random_metric_instance, "clustered": _clustered}[kind]
    got = [_criterion_09_solve(make(n, n)) for n in range(10, 42, 2)]
    assert got == OFFLINE_09[kind]


def test_criterion_10_linear_form_fidelity():
    bad = 0
    checked = 0
    for n, desc, template in sweep_templates():
        coeffs = extract_coefficients(template)
        inst = random_metric_instance(n, n)
        matching = min_weight_perfect_matching(inst)
        for seed in range(20):
            ordering = random_ordering(n // 2, seed)
            s = bind_template(template, matching, ordering)
            direct = total_distance(s, inst).total
            form = coefficient_total(coeffs, inst, binding_vector(matching, ordering))
            checked += 1
            bad += direct != form
    _line(10, bad == 0, f"coefficient form equals direct distance on {checked} bindings")
