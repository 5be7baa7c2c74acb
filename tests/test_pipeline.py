"""ttp2.pipeline: the construction each n gets, and its exact tight totals."""

import pytest

import ttp2.pipeline
from ttp2.errors import DomainError
from ttp2.oracle import tight_instance
from ttp2.pipeline import build_template, solve
from ttp2.schedule import validate_schedule


@pytest.mark.parametrize(
    "n, packing, construction, chain, extra",
    [
        (4, "auto", "brute", (), 2),  # the optimum, 10 against LB 8
        (8, "auto", "even", (1,), 3 * 8 - 16),
        (10, "auto", "odd", (), 5 * 10 - 20),
        (16, "auto", "even-dc", (2, 1), 4 * 2 + 16),  # L(16) = 2: total 248
        (16, 1, "even", (1,), 3 * 16 - 16),
    ],
)
def test_solve_tight_totals(n, packing, construction, chain, extra):
    sol = solve(tight_instance(n), packing=packing)
    assert (sol.construction, sol.packing) == (construction, chain)
    assert sol.lb == n * (n - 2)
    assert sol.total == sol.lb + extra
    assert validate_schedule(sol.schedule).feasible


@pytest.mark.parametrize("n", [6, 10])
def test_packing_rejected_before_the_matching(monkeypatch, n):
    calls = []
    monkeypatch.setattr(ttp2.pipeline, "min_weight_perfect_matching", lambda inst: calls.append(inst))
    with pytest.raises(DomainError, match=f"packing 1 applies only for n = 0 \\(mod 4\\), n >= 8; got n={n}"):
        solve(tight_instance(n), packing=1)
    assert calls == []


@pytest.mark.parametrize("n", [4, 8])
def test_zero_rounds_rejected_on_every_path(n):
    with pytest.raises(ValueError, match="round count"):
        solve(tight_instance(n), rounds=0)


@pytest.mark.parametrize("n, packing, chain", [(16, "auto", (2, 1)), (16, 1, (1,)), (18, "auto", ())])
def test_build_template_chain(n, packing, chain):
    template, got = build_template(n, packing)
    assert (template.n, got) == (n, chain)
