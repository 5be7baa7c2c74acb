"""Building schedule templates and checking the feasibility properties.

Two constructions cover the two residues of n mod 4.  Both schedule
super-games between matched team pairs and expand them into days; the even
one can additionally pack super-teams into group-teams and recurse, which
trims the number of costly "left" super-games.
"""

from ttp2 import (
    build_even_template,
    build_odd_template,
    compute_L,
    packing_chain,
    tight_instance,
    total_distance,
    validate_schedule,
)

# The 8-team template, printed the way the tables in the docs read:
# +j means "away at team j", -j means "home against team j".
s = build_even_template(8)
for row in s.table:
    print(" ".join(f"{v:+3d}" for v in row))

rep = validate_schedule(s, k=2)
print("\nfeasible:", rep.feasible, "violations:", len(rep.violations))

# Tight-instance arithmetic: the base construction pays exactly 3n-16 over
# the lower bound, the packed one 4*L(n) + n.
for n in (8, 16, 24, 32, 40):
    ti = tight_instance(n)
    lb = n * (n - 2)
    base_extra = total_distance(build_even_template(n, 1), ti).total - lb
    best_l, _, _ = compute_L(n)
    chain = packing_chain(n)
    packed_extra = total_distance(build_even_template(n, "auto"), ti).total - lb
    print(
        f"n={n:2d}: base extra {base_extra:3d} (=3n-16) | "
        f"packing {chain} -> L={best_l} left super-games, "
        f"extra {packed_extra:3d} (=4L+n)"
    )

# Odd n/2: one construction, extra cost exactly 5n-20 on the tight family.
for n in (10, 14, 18):
    ti = tight_instance(n)
    s = build_odd_template(n)
    extra = total_distance(s, ti).total - n * (n - 2)
    print(f"n={n}: odd construction feasible={validate_schedule(s).feasible} extra={extra} (=5n-20)")
