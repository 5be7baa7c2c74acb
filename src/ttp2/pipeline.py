"""The paper's solve pipeline as one library call.

Matching and lower bound, then the n/2-even or n/2-odd template polished
over random restarts; n <= 6 is solved exactly by brute force instead.
Either way the schedule it returns is validated once, here, and
`Solution.feasible` carries the result; the CLI's solve and bench exit 1
when it is false.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .even import build_even_template, packing_chain
from .instance import Instance
from .matching import independent_lower_bound, min_weight_perfect_matching
from .odd import build_odd_template
from .oracle import BRUTE_FORCE_LIMIT, brute_force_optimal
from .ordering import run_rounds
from .schedule import Schedule, validate_schedule


@dataclass(frozen=True)
class Solution:
    """A solved instance: the schedule, its total and the LB.

    `construction` is "brute", "even" (the base template), "even-dc"
    (a packed template) or "odd"; `packing` is the even template's packing
    chain, empty for the others.  `feasible` is `validate_schedule`'s
    verdict on the schedule.
    """

    schedule: Schedule
    total: object
    lb: object
    construction: str
    packing: tuple[int, ...]
    feasible: bool


def build_template(n: int) -> tuple[Schedule, tuple[int, ...]]:
    """n's template and its packing chain: the odd template and () for
    n = 2 (mod 4), else the even template of the packing that realizes L(n)."""
    if n % 4 == 2:
        return build_odd_template(n), ()
    chain = tuple(packing_chain(n))
    return build_even_template(n, chain[0]), chain


def solve(inst: Instance, rounds: int = 1, seed: int = 0, derandomize: bool = False) -> Solution:
    """Solve `inst`: `rounds` restarts from seeds seed, seed+1, ..., plus the
    derandomized start if `derandomize`; the best polished schedule wins.

    For n <= 6 the schedule is the brute-force optimum and the restart
    arguments are unused, but on every path both must be integers: a float
    or string raises TypeError, and a NumPy integer acts as the equal int.
    """
    rounds, seed = operator.index(rounds), operator.index(seed)
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    matching = min_weight_perfect_matching(inst)
    lb = independent_lower_bound(inst, matching).total
    if inst.n <= BRUTE_FORCE_LIMIT:
        schedule, total = brute_force_optimal(inst)
        construction, chain = "brute", ()
    else:
        template, chain = build_template(inst.n)
        _, schedule, dist = run_rounds(inst, template, matching, rounds, base_seed=seed, include_derandomized=derandomize)
        total = dist.total
        construction = "odd" if not chain else "even" if chain == (1,) else "even-dc"
    return Solution(schedule, total, lb, construction, chain, validate_schedule(schedule).feasible)
