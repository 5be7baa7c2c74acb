from fractions import Fraction

import numpy as np
import pytest

import matching_reference as ref
from conftest import enumerate_perfect_matchings
from ttp2 import matching
from ttp2.instance import Instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.oracle import random_metric_instance, tight_instance


def brute_min_weight(inst):
    d = inst.dist.tolist()
    best = None
    for match in enumerate_perfect_matchings(range(inst.n)):
        w = sum(d[a][b] for a, b in match)
        if best is None or w < best:
            best = w
    return best


def test_forced_optimum_n4():
    d = np.full((4, 4), 10, dtype=np.int64)
    np.fill_diagonal(d, 0)
    d[0, 1] = d[1, 0] = 1
    d[2, 3] = d[3, 2] = 1
    m = min_weight_perfect_matching(Instance(n=4, dist=d))
    assert m.pairs == ((0, 1), (2, 3))
    assert m.weight == 2


def test_zero_matrix_lexicographic_tiebreak():
    inst = Instance(n=8, dist=np.zeros((8, 8), dtype=np.int64))
    m = min_weight_perfect_matching(inst)
    assert m.weight == 0
    assert m.pairs == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.choice([4, 6, 8, 10]))
        d = rng.integers(0, 500, size=(n, n))
        d = np.asarray(d + d.T, dtype=np.int64)
        np.fill_diagonal(d, 0)
        inst = Instance(n=n, dist=d)
        m = min_weight_perfect_matching(inst)
        assert m.weight == brute_min_weight(inst)
        assert m.d_h == m.d_g - m.weight


def test_lexicographic_among_optima():
    # Distances only depend on pair parity, so many matchings tie.
    d = np.ones((6, 6), dtype=np.int64)
    np.fill_diagonal(d, 0)
    inst = Instance(n=6, dist=d)
    m = min_weight_perfect_matching(inst)
    assert m.pairs == ((0, 1), (2, 3), (4, 5))


def test_lower_bound_formulas():
    for n in (4, 8, 10):
        ti = tight_instance(n)
        m = min_weight_perfect_matching(ti)
        assert m.weight == 0
        lb = independent_lower_bound(ti, m)
        assert lb.total == n * (n - 2)
        assert lb.total == sum(lb.per_team)


def test_lower_bound_identity_2dg_n_dm():
    inst = random_metric_instance(10, 3)
    m = min_weight_perfect_matching(inst)
    lb = independent_lower_bound(inst, m)
    assert lb.total == 2 * m.d_g + inst.n * m.weight


def test_lower_bound_relabeling_invariant():
    inst = random_metric_instance(8, 9)
    perm = np.random.default_rng(1).permutation(8)
    relabeled = Instance(n=8, dist=inst.dist[np.ix_(perm, perm)])
    lb1 = independent_lower_bound(inst, min_weight_perfect_matching(inst)).total
    lb2 = independent_lower_bound(relabeled, min_weight_perfect_matching(relabeled)).total
    assert lb1 == lb2


def test_float_instance_matching_exact():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100, size=(6, 2))
    d = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            if i != j:
                d[i, j] = float(np.hypot(*(pts[i] - pts[j])))
    inst = Instance(n=6, dist=d, integral=False)
    m = min_weight_perfect_matching(inst)
    assert abs(m.weight - brute_min_weight(inst)) < 1e-9


def test_exact_weights_scale_real_valued_distances():
    d = np.array([[0, 0.1, 2.5, 3], [0.1, 0, 1.75, 0.3], [2.5, 1.75, 0, 1], [3, 0.3, 1, 0]])
    inst = Instance(n=4, dist=d, integral=False)
    w, scale = inst.exact_weights
    assert inst.exact_weights[0] is w  # built once per instance
    for i in range(4):
        for j in range(4):
            assert type(w[i, j]) is int
            assert Fraction(w[i, j], scale) == Fraction(d[i, j])
    assert tight_instance(4).exact_weights[1] == 1


def _candidate_solves(monkeypatch, inst):
    """The matching, and whether each solve on the candidate graph left a vertex single.

    The candidate solves are the `_blossom_on` calls before the tie-break,
    all on the one weight matrix of the complete graph.
    """
    solves = []
    blossom_on = matching._blossom_on

    def spy(gain, solved, *rest):
        mate, dual, blossoms = blossom_on(gain, solved, *rest)
        solves.append((gain, -1 in mate))
        return mate, dual, blossoms

    monkeypatch.setattr(matching, "_blossom_on", spy)
    m = min_weight_perfect_matching(inst)
    return m, [single for gain, single in solves if gain is solves[0][0]]


def test_odd_clusters_get_perfect_candidate_solves(monkeypatch):
    # Two far-apart clusters of 11: each team's 8 nearest teams lie in its own
    # cluster, so the k-nearest graph has two odd components.  The fixed pairs
    # (2i, 2i+1) join them, and no candidate solve leaves a team single.
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0, 10, size=(11, 2)), rng.normal(0, 10, size=(11, 2)) + 1000])
    diff = pts[:, None] - pts[None]
    inst = Instance(n=22, dist=np.ceil(np.hypot(diff[..., 0], diff[..., 1])).astype(np.int64))
    m, singles = _candidate_solves(monkeypatch, inst)
    assert m == ref.min_weight_perfect_matching(inst)
    assert not any(singles)


def test_pricing_adds_pairs_of_negative_slack(monkeypatch):
    inst = random_metric_instance(16, 1)
    m, singles = _candidate_solves(monkeypatch, inst)
    assert m == ref.min_weight_perfect_matching(inst)
    # Every perfect candidate solve but the last priced a pair below zero.
    assert singles.count(False) >= 2


def test_certificate_rejects_blossoms_that_do_not_nest():
    # Two full blossoms that share the matched pair (0, 1) and cross.
    mate, dual = [1, 0, 3, 2, 5, 4], [0, 0, 1, 1, 1, 1]
    w, solved = np.ones((6, 6), dtype=object), np.zeros((6, 6), dtype=bool)
    solved[range(6), mate] = True
    matching._certified_slack(w, solved, mate, dual, [(1, [0, 1, 2])])
    with pytest.raises(AssertionError, match="nest"):
        matching._certified_slack(w, solved, mate, dual, [(1, [0, 1, 2]), (1, [0, 1, 4])])


def test_certificate_keeps_slacks_beyond_int64_exact():
    # int64 weights whose slacks reach 2**63 take the exact-integer path.
    mate, dual = [1, 0, 3, 2], [2**62] * 4
    w, solved = np.zeros((4, 4), dtype=np.int64), ~np.eye(4, dtype=bool)
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 2**62
    slack = matching._certified_slack(w, solved, mate, dual, [])
    assert slack[0, 1] == 0 and slack[0, 2] == 2**63


def test_tie_break_certificate_checks_the_tight_pairs(monkeypatch):
    # The tie-break solve is certified on its tight and matched pairs only,
    # and a corrupted dual still fails that certificate.
    real = matching._certified_slack
    calls = []

    def spy(w, solved, mate, dual, blossoms, full=True):
        calls.append(full)
        if not full:
            dual = [dual[0] + 2, *dual[1:]]
        return real(w, solved, mate, dual, blossoms, full=full)

    monkeypatch.setattr(matching, "_certified_slack", spy)
    with pytest.raises(AssertionError, match="slack"):
        min_weight_perfect_matching(random_metric_instance(16, 1))
    assert calls[-1] is False and all(calls[:-1])


def _clustered(n, seed):
    """Ceil'd Euclidean distances of n points around five centres."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0, 1000, size=(5, 2))
    pts = centres[rng.integers(0, 5, size=n)] + rng.normal(0, 40, size=(n, 2))
    diff = pts[:, None] - pts[None]
    return np.ceil(np.hypot(diff[..., 0], diff[..., 1])).astype(np.int64)


@pytest.mark.parametrize("n,seed,step", [(40, 1, 1), (60, 0, 250), (60, 3, 250)])
def test_clustered_candidate_solves_are_perfect(monkeypatch, n, seed, step):
    # Clustered distances, and the same in steps of 250 (a few tied values).
    # The k-nearest graph has odd clusters; the fixed pairs make every
    # candidate solve perfect.
    inst = Instance(n=n, dist=_clustered(n, seed) // step)
    m, singles = _candidate_solves(monkeypatch, inst)
    assert not any(singles)
    assert m == ref.min_weight_perfect_matching(inst)
