"""Exact optima for four and six teams.

Below eight teams the constructions do not apply and exhaustive search is
cheap enough, so the solver falls back to branch and bound over whole
days, each held as bit masks of its games.  The search stops once it
attains the sum of the per-team trip-cover bounds, which holds without the
triangle inequality.  Even at n=4 no schedule reaches the independent
lower bound: the optimum of the tight instance is strictly above it.
"""

from ttp2 import (
    brute_force_optimal,
    independent_lower_bound,
    min_weight_perfect_matching,
    random_metric_instance,
    tight_instance,
    total_distance,
    validate_schedule,
)
from ttp2.schedule import itinerary_of, render_schedule

ti = tight_instance(4)
matching = min_weight_perfect_matching(ti)
lb = independent_lower_bound(ti, matching).total
schedule, cost = brute_force_optimal(ti)
print(f"tight n=4: optimum {cost} vs lower bound {lb} (the bound is never attainable)")
print(render_schedule(schedule))

inst = random_metric_instance(6, seed=2)
matching = min_weight_perfect_matching(inst)
lb = independent_lower_bound(inst, matching).total
schedule, cost = brute_force_optimal(inst)
print(f"random n=6: optimum {cost}, lower bound {lb}, feasible {validate_schedule(schedule).feasible}")
for team in range(6):
    trips = itinerary_of(schedule, team)
    print(f"  team {team + 1} road trips: {[[v + 1 for v in trip] for trip in trips]}")
assert total_distance(schedule, inst).total == cost
