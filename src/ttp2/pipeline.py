"""The paper's solve pipeline as one library call.

Matching and lower bound, then the n/2-even or n/2-odd template polished
over random restarts; n <= 6 is solved exactly by brute force instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .even import build_even_template, packing_chain
from .instance import Instance
from .matching import independent_lower_bound, min_weight_perfect_matching
from .odd import build_odd_template
from .oracle import BRUTE_FORCE_LIMIT, brute_force_optimal
from .ordering import run_rounds
from .schedule import Schedule


@dataclass(frozen=True)
class Solution:
    """A solved instance: the schedule, its total and the LB.

    `construction` is "brute", "even" (the base template), "even-dc"
    (a packed template) or "odd"; `packing` is the even template's packing
    chain, empty for the others.
    """

    schedule: Schedule
    total: object
    lb: object
    construction: str
    packing: tuple[int, ...]


def _chain(n: int, packing) -> tuple[int, ...]:
    """n's packing chain: `packing_chain`'s for n = 0 (mod 4), n >= 8, else empty.

    A packing other than "auto" is a DomainError where no even template applies.
    """
    if n % 4 == 0 and n > BRUTE_FORCE_LIMIT:
        return tuple(packing_chain(n, packing))
    if packing != "auto":
        raise DomainError(f"packing {packing} applies only for n = 0 (mod 4), n >= 8; got n={n}")
    return ()


def build_template(n: int, packing="auto") -> tuple[Schedule, tuple[int, ...]]:
    """n's template and its packing chain: the even template for n = 0 (mod 4),
    the odd one for n = 2 (mod 4); `packing` as `packing_chain` takes it."""
    chain = _chain(n, packing)
    return (build_even_template(n, chain[0]) if chain else build_odd_template(n)), chain


def solve(inst: Instance, rounds: int = 1, seed: int = 0, derandomize: bool = False, packing="auto") -> Solution:
    """Solve `inst`: `rounds` restarts from seeds seed, seed+1, ..., plus the
    derandomized start if `derandomize`; the best polished schedule wins.

    The packing is checked before any work.  For n <= 6 the schedule is the
    brute-force optimum and the restart arguments are unused.
    """
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    if inst.n <= BRUTE_FORCE_LIMIT:
        template, chain = None, _chain(inst.n, packing)
    else:
        template, chain = build_template(inst.n, packing)
    matching = min_weight_perfect_matching(inst)
    lb = independent_lower_bound(inst, matching).total
    if template is None:
        schedule, total = brute_force_optimal(inst)
        return Solution(schedule, total, lb, "brute", chain)
    _, schedule, dist = run_rounds(inst, template, matching, rounds, base_seed=seed, include_derandomized=derandomize)
    construction = "odd" if not chain else "even" if chain == (1,) else "even-dc"
    return Solution(schedule, dist.total, lb, construction, chain)
