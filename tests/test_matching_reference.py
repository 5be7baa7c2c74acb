"""The blossom matching and the array sums against their reference versions."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matching_reference as ref
from ttp2.instance import Instance
from ttp2.matching import (
    _blossom,
    _certified_slack,
    independent_lower_bound,
    min_weight_perfect_matching,
)
from ttp2.oracle import random_metric_instance, tight_instance

KINDS = ("uniform", "clustered", "small", "zero", "ones", "tight", "grid", "third", "e12", "e15")


def _points_instance(pts, integral):
    diff = pts[:, None] - pts[None]
    d = np.hypot(diff[..., 0], diff[..., 1])
    if integral:
        return Instance(n=len(pts), dist=np.ceil(d).astype(np.int64))
    return Instance(n=len(pts), dist=d, integral=False)


def _instance(kind, n, seed):
    """Uniform or clustered metric, tie-heavy, real-valued or scaled instances."""
    if kind == "clustered":  # odd-sized clusters: k-nearest graphs with odd components
        return _clustered(n, seed)
    rng = np.random.default_rng(seed)
    if kind == "small":  # distances in {0..k} for k <= 4: many optima tie
        d = np.triu(rng.integers(0, int(rng.integers(1, 5)) + 1, size=(n, n)), 1)
        return Instance(n=n, dist=d + d.T)
    if kind == "zero":
        return Instance(n=n, dist=np.zeros((n, n), dtype=np.int64))
    if kind == "ones":
        return Instance(n=n, dist=1 - np.eye(n, dtype=np.int64))
    if kind == "tight":
        return tight_instance(n)
    if kind == "grid":  # real Euclidean distances on a 4x4 half-unit grid
        return _points_instance(rng.integers(0, 4, size=(n, 2)) / 2, integral=False)
    inst = random_metric_instance(n, seed)
    if kind == "third":
        return Instance(n=n, dist=inst.dist / 3.0, integral=False)
    if kind in ("e12", "e15"):
        return Instance(n=n, dist=inst.dist * 10 ** int(kind[1:]))
    return inst


def _clustered(n, seed):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 1000, size=(5, 2))
    return _points_instance(centres[rng.integers(0, 5, size=n)] + rng.normal(0, 40, size=(n, 2)), integral=True)


def _assert_matches_reference(inst):
    m, expected = min_weight_perfect_matching(inst), ref.min_weight_perfect_matching(inst)
    assert m == expected
    for field in ("weight", "d_g", "d_h"):
        assert type(getattr(m, field)) is type(getattr(expected, field))
    lb, expected_lb = independent_lower_bound(inst, m), ref.independent_lower_bound(inst, m)
    assert lb == expected_lb
    assert [type(x) for x in lb.per_team] == [type(x) for x in expected_lb.per_team]
    assert type(lb.total) is type(expected_lb.total)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 21).map(lambda h: 2 * h),
    seed=st.integers(0, 2**16),
)
def test_matching_and_sums_equal_reference(kind, n, seed):
    _assert_matches_reference(_instance(kind, n, seed))


@pytest.mark.parametrize("kind,n", [("clustered", 80), ("uniform", 120)])
def test_large_matching_equals_reference(kind, n):
    _assert_matches_reference(_clustered(n, 7) if kind == "clustered" else random_metric_instance(n, 7))


def _planted_graph(seed):
    """A random graph holding a planted perfect matching, with small integer weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) * 2
    perm = rng.permutation(n).tolist()
    pairs = {tuple(sorted(perm[i : i + 2])) for i in range(0, n, 2)}
    density = rng.uniform(0.2, 0.9)
    pairs |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    return n, [(i, j, int(rng.integers(1, 10))) for i, j in sorted(pairs)]


def test_blossom_on_sparse_graphs_equals_networkx():
    # Sparse graphs like the tight sets; seeds 12, 764 and 860 relabel a
    # sub-blossom reached from outside while expanding a T-blossom.
    for seed in [*range(200), 764, 860]:
        n, edges = _planted_graph(seed)
        mate, *_ = _blossom(n, edges)
        graph = nx.Graph()
        graph.add_weighted_edges_from(edges)
        expected = nx.max_weight_matching(graph, maxcardinality=True)
        weight = {(i, j): x for i, j, x in edges}
        assert sum(weight[i, j] for i, j in enumerate(mate) if i < j) == sum(
            weight[min(e), max(e)] for e in expected
        )


WEIGHTS = {
    "odd": lambda rng: 2 * int(rng.integers(0, 50)) + 1,
    "tied": lambda rng: int(rng.integers(1, 4)),
    "wide": lambda rng: 2**64 * int(rng.integers(1, 4)) + int(rng.integers(0, 8)),
}


def _random_graph(rng, weight):
    """A graph on 2 to 16 vertices of density 0.05 to 1, edges weighted by ``weight(rng)``."""
    n = int(rng.integers(2, 17))
    density = rng.uniform(0.05, 1.0)
    return n, [(i, j, weight(rng)) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def _agrees_with_networkx(n, edges, mate, dual, blossoms):
    """Whether the matching is perfect, after checking it against networkx.

    The cardinality must equal networkx's maximum.  A perfect matching must
    also equal its weight and pass `_certified_slack` on the edges.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(edges)
    expected = nx.max_weight_matching(graph, maxcardinality=True)
    pairs = [(i, j) for i, j in enumerate(mate) if i < j]
    assert len(pairs) == len(expected)
    if 2 * len(pairs) < n:
        return False
    gain, solved = np.zeros((n, n), dtype=object), np.zeros((n, n), dtype=bool)
    i, j, x = zip(*edges)
    gain[i, j] = gain[j, i] = x
    solved[i, j] = solved[j, i] = True
    assert sum(gain[e] for e in pairs) == sum(gain[e] for e in expected)
    _certified_slack(gain, solved, mate, dual, blossoms)
    return True


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_blossom_equals_networkx_on_random_graphs(kind):
    # Odd weights, ties and weights above 2**64 on sparse and dense graphs.
    # Where no perfect matching exists the cardinality still must be the
    # maximum, as the blossom promises, although the library only solves
    # graphs that hold a perfect matching.
    rng = np.random.default_rng(sorted(WEIGHTS).index(kind))
    graphs = [_random_graph(rng, WEIGHTS[kind]) for _ in range(150)]
    perfect = sum(_agrees_with_networkx(n, edges, *_blossom(n, edges)) for n, edges in graphs)
    assert 20 <= perfect <= 130


def test_certificate_rejects_corrupted_duals():
    inst = random_metric_instance(6, 0)
    w, _ = inst.exact_weights
    top = int(w.max()) + 1
    edges = [(i, j, top - w[i, j]) for i in range(6) for j in range(i + 1, 6)]
    mate, dual, blossoms = _blossom(6, edges)
    assert blossoms  # this instance needs a blossom of positive dual
    gain, solved = top - w, ~np.eye(6, dtype=bool)
    # full=False is the tie-break's certificate, on the pairs it reads only.
    for full in (True, False):
        slack = _certified_slack(gain, solved, mate, dual, blossoms, full=full)
        if full:
            assert not (slack[solved] < 0).any()
        else:
            assert slack is None
        for v, step in ((0, 2), (0, -2), (5, 1)):
            bad = list(dual)
            bad[v] += step
            with pytest.raises(AssertionError, match="slack"):
                _certified_slack(gain, solved, mate, bad, blossoms, full=full)
        (z, leaves), *rest = blossoms
        with pytest.raises(AssertionError, match="slack"):
            _certified_slack(gain, solved, mate, dual, [(z + 1, leaves), *rest], full=full)
        one_per_pair = [v for v in range(6) if v < mate[v]]
        with pytest.raises(AssertionError, match="not full"):
            _certified_slack(gain, solved, mate, dual, [*blossoms, (1, one_per_pair)], full=full)
        with pytest.raises(AssertionError, match="not perfect"):
            _certified_slack(gain, solved, [-1] * 6, dual, blossoms, full=full)
