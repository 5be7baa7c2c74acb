"""run_rounds pinned to the orderings and totals of the pair-by-pair search.

Five rounds from seed 0 on random_metric_instance(n, n) cover the odd
template (n = 18), the base template (28) and packed templates (24, 40).
The values were produced by the search before it evaluated whole
neighbourhoods at once, so this file imports only the public API.

The wider cases were produced before the kernel gained its exact float64
tier: a real-valued n = 24 (float proposals, each confirmed exactly) and
n = 80 and 122 with the derandomized start (integer weights large enough
for the kernel to run on BLAS).
"""

import numpy as np
import pytest

from ttp2.even import build_even_template, packing_chain
from ttp2.instance import Instance
from ttp2.matching import min_weight_perfect_matching
from ttp2.odd import build_odd_template
from ttp2.oracle import random_metric_instance
from ttp2.ordering import TeamOrdering, run_rounds

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
    template = build_odd_template(n) if n % 4 else build_even_template(n, packing_chain(n))
    ordering, _, report = run_rounds(inst, template, matching, x=5, base_seed=0)
    assert ordering == TeamOrdering(sigma=sigma, pi=pi)
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
    template = build_odd_template(n) if n % 4 else build_even_template(n, packing_chain(n))
    ordering, _, report = run_rounds(
        inst, template, matching, x=x, base_seed=0, include_derandomized=derandomized
    )
    assert ordering == TeamOrdering(sigma=sigma, pi=pi)
    assert report.total == total
