"""Derandomization by conditional expectations.

The total distance of a bound schedule is a linear form over label-pair
travel counts, so E[distance] under a random ordering has a closed form
and conditioning on a partial assignment keeps it exact.  Fixing the
cheapest choice at every step therefore lands at or below the original
expectation, which carries the randomized guarantee over to a
deterministic schedule.
"""

from fractions import Fraction

from ttp2 import (
    bind_template,
    build_even_template,
    derandomize,
    extract_coefficients,
    independent_lower_bound,
    min_weight_perfect_matching,
    random_metric_instance,
    total_distance,
    validate_schedule,
)

n = 12
inst = random_metric_instance(n, seed=3)
matching = min_weight_perfect_matching(inst)
lb = independent_lower_bound(inst, matching).total

template = build_even_template(n)
coeffs = extract_coefficients(template)

ordering, chain = derandomize(coeffs, inst, matching)
print("conditional expectation after each fixing step:")
for step, value in enumerate(chain):
    stage = "start" if step == 0 else ("slot" if step <= n // 2 else "orientation")
    print(f"  step {step:2d} ({stage:11s}): {float(value):12.2f}")

schedule = bind_template(template, matching, ordering)
total = total_distance(schedule, inst).total
ratio = Fraction(1) + Fraction(3, n) - Fraction(10, n * (n - 2))
print("\nfeasible:", validate_schedule(schedule).feasible)
print(f"derandomized total {total} <= E[start] {float(chain[0]):.2f}")
print(f"guarantee: total/LB = {total / lb:.4f} <= {float(ratio):.4f}")
