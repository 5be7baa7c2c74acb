"""Double round-robin schedules for TTP-2 with provable distance guarantees.

The package builds feasible schedules in which every team plays at most two
consecutive home or away games, starting from a minimum-weight perfect
matching that pairs teams into "super-teams".  It provides

* instance loading / generation (:mod:`ttp2.instance`, :mod:`ttp2.oracle`),
* the independent lower bound (:mod:`ttp2.matching`),
* schedule validation and distance accounting (:mod:`ttp2.schedule`),
* template constructions for n = 0 (mod 4) and n = 2 (mod 4)
  (:mod:`ttp2.even`, :mod:`ttp2.odd`),
* randomized orderings, derandomization by conditional expectations and
  swap-based local search (:mod:`ttp2.ordering`),
* the whole solve pipeline as one call, :func:`solve` returning a
  :class:`Solution`, and :func:`build_template`, the template for n
  (:mod:`ttp2.pipeline`),
* a small CLI over that pipeline (:mod:`ttp2.cli`).
"""

from .instance import Instance, MetricReport, parse_instance, check_metric, write_instance
from .matching import Matching, LowerBound, min_weight_perfect_matching, independent_lower_bound
from .schedule import (
    Schedule,
    FeasibilityReport,
    DistanceReport,
    validate_schedule,
    total_distance,
    itinerary_of,
    render_schedule,
    parse_schedule_csv,
)
from .even import compute_L, packing_chain, build_even_template
from .odd import build_odd_template
from .ordering import (
    TeamOrdering,
    TravelCoefficients,
    random_ordering,
    extract_coefficients,
    bind_template,
    derandomize,
    swap_super_teams_pass,
    swap_within_pass,
    run_rounds,
)
from .oracle import tight_instance, random_metric_instance, brute_force_optimal
from .pipeline import Solution, build_template, solve
from .errors import FormatError, ValidationError, DomainError

__all__ = [
    "Instance",
    "MetricReport",
    "parse_instance",
    "check_metric",
    "write_instance",
    "Matching",
    "LowerBound",
    "min_weight_perfect_matching",
    "independent_lower_bound",
    "Schedule",
    "FeasibilityReport",
    "DistanceReport",
    "validate_schedule",
    "total_distance",
    "itinerary_of",
    "render_schedule",
    "parse_schedule_csv",
    "compute_L",
    "packing_chain",
    "build_even_template",
    "build_odd_template",
    "TeamOrdering",
    "TravelCoefficients",
    "random_ordering",
    "extract_coefficients",
    "bind_template",
    "derandomize",
    "swap_super_teams_pass",
    "swap_within_pass",
    "run_rounds",
    "tight_instance",
    "random_metric_instance",
    "brute_force_optimal",
    "Solution",
    "build_template",
    "solve",
    "FormatError",
    "ValidationError",
    "DomainError",
]

__version__ = "0.1.0"
