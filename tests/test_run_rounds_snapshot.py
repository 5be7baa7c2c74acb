"""run_rounds pinned to the orderings and totals of the pair-by-pair search.

Five rounds from seed 0 on random_metric_instance(n, n) cover the odd
template (n = 18), the base template (28) and packed templates (24, 40).
The values were produced by the search before it evaluated whole
neighbourhoods at once, so this file imports only the public API.
"""

import pytest

from ttp2.even import build_even_template, packing_chain
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
