"""Instances, the super-team matching and the independent lower bound.

Every quality statement in this package is relative to the independent
lower bound: each team would ideally tour the league in two-stop road
trips aligned with a minimum-weight perfect matching of the home venues.
"""

from ttp2 import (
    check_metric,
    independent_lower_bound,
    min_weight_perfect_matching,
    parse_instance,
    random_metric_instance,
    tight_instance,
    write_instance,
)

# A 10-team instance from random planar points (always metric: distances
# are rounded up, which preserves the triangle inequality).
inst = random_metric_instance(10, seed=7)
print("instance:")
print(write_instance(inst))

report = check_metric(inst)
print("triangle violations:", report.triangle_violations)

# The matching pairs teams into super-teams; its weight D_M and the row
# sums D_i give the per-team bounds LB_i = D_i + D_M.
matching = min_weight_perfect_matching(inst)
print("\nsuper-team pairs:", matching.pairs)
print("D_M =", matching.weight, " D_G =", matching.d_g, " D_H =", matching.d_h)

bound = independent_lower_bound(inst, matching)
print("per-team bounds:", bound.per_team)
print("LB = 2*D_G + n*D_M =", bound.total)

# The tight family pins the bound exactly: matched pairs at distance zero,
# everything else at one, so LB = n*(n-2).
ti = tight_instance(8)
tm = min_weight_perfect_matching(ti)
print("\ntight n=8 lower bound:", independent_lower_bound(ti, tm).total, "= 8*6")

# Text round trip.
assert parse_instance(write_instance(inst)).n == inst.n
