"""run_rounds pinned to the orderings and totals of the pair-by-pair search.

Five rounds from seed 0 on random_metric_instance(n, n) cover the odd
template (n = 18), the base template (28) and packed templates (24, 40).
The values were produced by the search before it evaluated whole
neighbourhoods at once, so this file imports only the public API.
`run_rounds` returns the winning binding vector; each pinned (sigma, pi)
is compared as the vector `binding_vector` makes of it.

The wider cases were produced before the kernel gained its exact float64
tier: a real-valued n = 24 (float proposals, each confirmed exactly) and
n = 80 and 122 with the derandomized start (integer weights large enough
for the kernel to run on BLAS).
"""

import numpy as np
import pytest

from ttp2.even import build_even_template
from ttp2.instance import Instance
from ttp2.matching import min_weight_perfect_matching
from ttp2.odd import build_odd_template
from ttp2.oracle import random_metric_instance
from ttp2.ordering import TeamOrdering, binding_vector, extract_coefficients, run_rounds

RUN_ROUNDS_SNAPSHOT = [
    (18, (8, 0, 6, 1, 5, 2, 4, 7, 3), (1, 0, 0, 0, 0, 1, 0, 1, 0), 201978),
    (24, (6, 10, 9, 5, 7, 4, 1, 2, 3, 11, 8, 0), (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1), 330887),
    (28, (1, 2, 8, 7, 12, 13, 3, 0, 5, 11, 10, 6, 9, 4), (1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0), 517080),
    (
        40,
        (7, 17, 6, 11, 2, 0, 13, 10, 16, 15, 8, 5, 12, 3, 4, 19, 1, 14, 9, 18),
        (0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1),
        876161,
    ),
]


@pytest.mark.parametrize("n, sigma, pi, total", RUN_ROUNDS_SNAPSHOT)
def test_run_rounds_snapshot(n, sigma, pi, total):
    inst = random_metric_instance(n, n)
    matching = min_weight_perfect_matching(inst)
    template = build_odd_template(n) if n % 4 else build_even_template(n, "auto")
    bind, _, report = run_rounds(inst, template, matching, x=5, base_seed=0)
    assert bind == binding_vector(matching, TeamOrdering(sigma=sigma, pi=pi))
    assert report.total == total


RUN_ROUNDS_WIDE_SNAPSHOT = [
    (
        24,
        "sqrt",
        5,
        False,
        (9, 11, 4, 1, 2, 6, 10, 7, 3, 5, 0, 8),
        (0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1),
        15768.647870227898,
    ),
    (
        80,
        "int",
        2,
        True,
        (37, 19, 11, 5, 32, 0, 30, 20, 22, 1, 15, 6, 24, 34, 10, 26, 27, 13, 14, 3,
         39, 7, 17, 23, 8, 18, 9, 36, 28, 2, 29, 38, 35, 25, 12, 4, 16, 31, 33, 21),
        (1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1,
         0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1),
        3637486,
    ),
    (
        122,
        "int",
        2,
        True,
        (12, 13, 5, 30, 49, 36, 29, 10, 34, 28, 32, 15, 3, 6, 40, 22, 19, 43, 55, 59, 9,
         41, 21, 58, 8, 18, 51, 53, 37, 20, 4, 48, 52, 25, 47, 35, 39, 57, 42, 14, 50,
         2, 7, 26, 24, 33, 31, 44, 16, 17, 1, 46, 23, 0, 54, 38, 60, 45, 11, 56, 27),
        (1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1,
         1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0,
         1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0),
        7953224,
    ),
]


@pytest.mark.parametrize("n, kind, x, derandomized, sigma, pi, total", RUN_ROUNDS_WIDE_SNAPSHOT)
def test_run_rounds_wide_snapshot(n, kind, x, derandomized, sigma, pi, total):
    inst = random_metric_instance(n, n)
    if kind == "sqrt":  # real-valued and not a multiple of an integer instance
        inst = Instance(n=n, dist=np.sqrt(inst.dist), integral=False)
    matching = min_weight_perfect_matching(inst)
    template = build_odd_template(n) if n % 4 else build_even_template(n, "auto")
    bind, _, report = run_rounds(
        inst, template, matching, x=x, base_seed=0, include_derandomized=derandomized
    )
    assert bind == binding_vector(matching, TeamOrdering(sigma=sigma, pi=pi))
    assert report.total == total


# Three rounds from seed 0 on random_metric_instance(n, n) in each band of the
# kernel bound 4 * sum(c) * max(d) that once had its own arithmetic: below
# 2**53, from 2**53 to 2**63, above 2**63, and real-valued (sqrt).  The
# integer instances are scaled against 8n(2n-1) * max(d), the bound for any
# template.  The values were produced while the middle band ran on int64.
RUN_ROUNDS_TIER_SNAPSHOT = [
    (14, "below-2**53", (0, 1, 6, 2, 5, 4, 3), (0, 0, 0, 0, 0, 1, 1), 334123154532000),
    (14, "2**53-2**63", (0, 1, 6, 2, 5, 4, 3), (0, 0, 0, 0, 0, 1, 1), 10691940945923200),
    (14, "above-2**63", (0, 1, 6, 2, 5, 4, 3), (0, 0, 0, 0, 0, 1, 1), 684284220542007200),
    (14, "real", (0, 1, 6, 2, 5, 4, 3), (0, 0, 0, 0, 0, 1, 1), 5477.360636154191),
    (
        24,
        "below-2**53",
        (6, 10, 9, 5, 7, 4, 1, 2, 3, 11, 8, 0),
        (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1),
        294097025481621,
    ),
    (
        24,
        "2**53-2**63",
        (6, 10, 9, 5, 7, 4, 1, 2, 3, 11, 8, 0),
        (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1),
        9411104816073646,
    ),
    (
        24,
        "above-2**63",
        (6, 10, 9, 5, 7, 4, 1, 2, 3, 11, 8, 0),
        (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1),
        602310708232683988,
    ),
    (
        24,
        "real",
        (9, 11, 4, 1, 2, 6, 10, 7, 3, 5, 0, 8),
        (0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1),
        15768.647870227898,
    ),
]

_BANDS = {"below-2**53": (0, 2**53), "2**53-2**63": (2**53, 2**63), "above-2**63": (2**63, 2**64)}


@pytest.mark.parametrize("n, tier, sigma, pi, total", RUN_ROUNDS_TIER_SNAPSHOT)
def test_run_rounds_tier_snapshot(n, tier, sigma, pi, total):
    inst = random_metric_instance(n, n)
    template = build_odd_template(n) if n % 4 else build_even_template(n, "auto")
    if tier == "real":
        inst = Instance(n=n, dist=np.sqrt(inst.dist), integral=False)
    else:
        unit = 4 * 2 * n * (2 * n - 1) * int(inst.dist.max())
        scale = {"below-2**53": (2**53 - 1) // unit, "2**53-2**63": 2**58 // unit, "above-2**63": 2**64 // unit}
        inst = Instance(n=n, dist=inst.dist * scale[tier])
        lo, hi = _BANDS[tier]
        assert lo < 4 * int(extract_coefficients(template).c.sum()) * int(inst.dist.max()) < hi
    matching = min_weight_perfect_matching(inst)
    bind, _, report = run_rounds(inst, template, matching, x=3, base_seed=0)
    assert bind == binding_vector(matching, TeamOrdering(sigma=sigma, pi=pi))
    assert report.total == total
