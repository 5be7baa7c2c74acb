"""The networkx matching and the loop sums, kept as references.

`ttp2.matching` finds the same lexicographically smallest optimum with its
own blossom solver (an exact solve, then a tie-break on the tight pairs) and
computes its sums on arrays.  The functions below are the plain definitions
it must agree with: one networkx blossom run on integer weights that combine
the distance with a positional penalty, and the loop sums over a
`dist.tolist()` table behind D_G and the lower bound (see test_matching_reference.py).
"""

from __future__ import annotations

import networkx as nx

from ttp2.instance import Instance
from ttp2.matching import LowerBound, Matching


def min_weight_perfect_matching(inst: Instance) -> Matching:
    """Exact minimum-weight perfect matching on the complete team graph.

    Runs the blossom algorithm once on integer weights that combine the
    distance (dominant) with a positional penalty, so the returned matching
    is the lexicographically smallest pair list among all optima.
    """
    n = inst.n
    w, _ = inst.exact_weights

    # Penalty pen(i,j) = (j+1) * B^(n-1-i) for i < j prefers, among equal-weight
    # matchings, small partners for small teams.  B = n^2 dominates the sum of
    # all lower-order penalties; K dominates every possible penalty total.
    base = n * n
    pen = {}
    for i in range(n):
        for j in range(i + 1, n):
            pen[(i, j)] = (j + 1) * base ** (n - 1 - i)
    big_k = base ** (n + 1)

    combined = {}
    for i in range(n):
        for j in range(i + 1, n):
            combined[(i, j)] = w[i, j] * big_k + pen[(i, j)]

    top = max(combined.values()) + 1
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for (i, j), cw in combined.items():
        graph.add_edge(i, j, weight=top - cw)

    mate = nx.max_weight_matching(graph, maxcardinality=True)
    pairs = tuple(sorted(tuple(sorted(e)) for e in mate))
    if 2 * len(pairs) != n:
        raise AssertionError("matching is not perfect")

    d = inst.dist.tolist()
    weight = sum(d[i][j] for i, j in pairs)
    d_g = sum(d[i][j] for i in range(n) for j in range(i + 1, n))
    return Matching(pairs=pairs, weight=weight, d_g=d_g, d_h=d_g - weight)


def independent_lower_bound(inst: Instance, m: Matching) -> LowerBound:
    """Per-team bound D_i + D_M; the total telescopes to 2*D_G + n*D_M."""
    n = inst.n
    d = inst.dist.tolist()
    row_sums = [sum(d[i][j] for j in range(n)) for i in range(n)]
    per_team = tuple(r + m.weight for r in row_sums)
    return LowerBound(per_team)
