"""Random restarts plus the two swapping rules.

A round draws a random super-team order and team orientations, then
alternates two first-improvement sweeps until neither helps: swapping the
positions of two super-teams, and swapping the two teams inside one
super-team.  Both keep the matching pairing intact.  Deltas come from the
travel-count linear form: after every accepted move, the moves the scan
goes on to read are evaluated at once in float64 by a fixed linear map of
the bound distances: every flip, or the swaps in row windows of the sweep
from the cursor on (here, with 21 swaps, always the whole sweep).  A
move is taken iff its exact delta is negative.  This instance has small
integer distances, so it is `float_exact` and every float64 delta is
exact.  On other instances a
move is taken when its float64 delta lies below minus a proven rounding
bound, or, within that bound of zero, when its exact delta in Python
integers is negative.
"""

from ttp2 import (
    build_odd_template,
    independent_lower_bound,
    min_weight_perfect_matching,
    random_metric_instance,
    run_rounds,
    validate_schedule,
)
from ttp2.ordering import binding_vector, coefficient_total, extract_coefficients, random_ordering

n = 14
inst = random_metric_instance(n, seed=11)
matching = min_weight_perfect_matching(inst)
lb = independent_lower_bound(inst, matching).total
template = build_odd_template(n)
coeffs = extract_coefficients(template)

print(f"lower bound {lb}")
start = coefficient_total(coeffs, inst, binding_vector(matching, random_ordering(n // 2, 0)))
print(f"seed-0 construction before swaps: {start}")

for rounds in (1, 10, 50):
    _, schedule, report = run_rounds(inst, template, matching, x=rounds, base_seed=0)
    gap = 100 * (report.total - lb) / lb
    print(
        f"{rounds:3d} round(s): total {report.total}  gap {gap:.2f}%  "
        f"feasible {validate_schedule(schedule).feasible}"
    )
