"""Minimum-weight perfect matching, super-team aggregates and the lower bound.

The matching must be the true optimum: the schedule quality guarantees are
relative to it.  Ties between optimal matchings are broken toward the
lexicographically smallest pair list so that downstream results are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .instance import Instance


@dataclass(frozen=True)
class Matching:
    """The n/2 super-team pairs plus the aggregate weights D_M, D_G, D_H."""

    pairs: tuple[tuple[int, int], ...]
    weight: object  # int for integral instances, float otherwise
    d_g: object
    d_h: object


@dataclass(frozen=True)
class LowerBound:
    """Per-team optimal-itinerary bounds and their sum 2*D_G + n*D_M."""

    per_team: tuple
    total: object


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

    weight = sum(inst.d(i, j) for i, j in pairs)
    d_g = sum(inst.d(i, j) for i in range(n) for j in range(i + 1, n))
    return Matching(pairs=pairs, weight=weight, d_g=d_g, d_h=d_g - weight)


def independent_lower_bound(inst: Instance, m: Matching) -> LowerBound:
    """Per-team bound D_i + D_M; the total telescopes to 2*D_G + n*D_M."""
    n = inst.n
    row_sums = [sum(inst.d(i, j) for j in range(n)) for i in range(n)]
    per_team = tuple(r + m.weight for r in row_sums)
    return LowerBound(per_team=per_team, total=sum(per_team))
