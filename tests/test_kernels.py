"""The swap and flip kernels as fixed linear maps of P, and the scan that
feeds them: exact deltas where float64 is exact, and no move checked twice
on one vector."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from ttp2 import ordering
from ttp2.oracle import brute_force_optimal, random_metric_instance
from ttp2.ordering import (
    _exact_move_delta,
    _flip_deltas,
    _pass_moves,
    _swap_deltas,
    extract_coefficients,
    polish,
)
from test_ordering import TIERS, _checked, _template_and_coeffs, _tier_instance


@functools.lru_cache(maxsize=None)
def _coeffs(n):
    """The template's coefficients; below n = 8, where no template is built,
    those of an optimal schedule."""
    if n > 6:
        return _template_and_coeffs(n)[1]
    return extract_coefficients(brute_force_optimal(random_metric_instance(n, 5))[0])


@pytest.mark.parametrize("tier", [tier for tier, exact in TIERS.items() if exact])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 40, 42])
def test_kernel_deltas_are_exact_on_float_exact_tiers(n, tier):
    """Every swap and flip delta equals the exact one, not merely within
    slack; n = 4 has one swap and two flips."""
    inst = _tier_instance(n, 9, tier)
    assert inst.float_exact
    coeffs = _coeffs(n)
    scale = inst.exact_weights[1]
    swaps, flips = _pass_moves(n // 2)
    for seed in range(3):
        bind = np.random.default_rng(seed).permutation(n)
        P = inst.float_dist[np.ix_(bind, bind)]
        for kernel, (src, dst) in ((_swap_deltas, swaps), (_flip_deltas, flips)):
            deltas = kernel(coeffs.blocks, P)
            exact = [Fraction(_exact_move_delta(coeffs, inst, bind, s, t), scale) for s, t in zip(src, dst)]
            assert [Fraction(value) for value in deltas.tolist()] == exact


def test_no_move_is_exact_checked_twice_on_one_vector(monkeypatch):
    """A scan that wraps to move 0 stops before the move it began at: the
    moves from there on were rejected on the same vector.  Twin slots hold
    teams of the same two points, so swapping them is an exact tie that
    every scan passing it must check; the search stays the exact one."""
    checked = []
    spied = ordering._exact_move_delta

    def spy(coeffs, inst, bind, src, dst):
        checked.append((bind.tobytes(), src.tobytes(), dst.tobytes()))
        return spied(coeffs, inst, bind, src, dst)

    monkeypatch.setattr(ordering, "_exact_move_delta", spy)
    n = 40
    inst = _tier_instance(n, 5, "same-point")  # teams 2k and 2k+1 share a point
    _, coeffs = _template_and_coeffs(n)
    total = 0
    for seed in range(2):
        rng = np.random.default_rng(seed)
        slots = [(2 * p + r, 2 * q + r) for p, q in rng.permutation(n // 2).reshape(-1, 2) for r in (0, 1)]
        bind = np.array(slots)[rng.permutation(n // 2)].ravel().tolist()
        checked.clear()
        _checked(polish, bind, coeffs, inst)
        assert len(set(checked)) == len(checked)
        total += len(checked)
    assert total > 80
