"""ttp2.pipeline: the construction each n gets, its exact tight totals and the stage order."""

import json

import numpy as np
import pytest

import ttp2.pipeline
from ttp2.cli import main
from ttp2.instance import write_instance
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.pipeline import build_template, solve
from ttp2.schedule import FeasibilityReport, validate_schedule


@pytest.mark.parametrize(
    "n, construction, chain, extra",
    [
        (4, "brute", (), 2),  # the optimum, 10 against LB 8
        (8, "even", (1,), 3 * 8 - 16),
        (10, "odd", (), 5 * 10 - 20),
        (16, "even-dc", (2, 1), 4 * 2 + 16),  # L(16) = 2: total 248
    ],
)
def test_solve_tight_totals(n, construction, chain, extra):
    sol = solve(tight_instance(n))
    assert (sol.construction, sol.packing) == (construction, chain)
    assert sol.lb == n * (n - 2)
    assert sol.total == sol.lb + extra
    assert validate_schedule(sol.schedule).feasible
    assert sol.feasible


BRUTE = ["min_weight_perfect_matching", "independent_lower_bound", "brute_force_optimal", "validate_schedule"]
TEMPLATE = ["min_weight_perfect_matching", "independent_lower_bound", "build_template", "run_rounds", "validate_schedule"]


@pytest.mark.parametrize(
    "n, order", [(4, BRUTE), (6, BRUTE), (8, TEMPLATE), (10, TEMPLATE)], ids=["n4", "n6", "n8", "n10"]
)
def test_solve_runs_the_stages_in_order(monkeypatch, n, order):
    calls = []

    def spy(name, stage):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)

        return wrapper

    for name in {*BRUTE, *TEMPLATE}:
        monkeypatch.setattr(ttp2.pipeline, name, spy(name, getattr(ttp2.pipeline, name)))
    solve(tight_instance(n))
    assert calls == order


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("n", [4, 8])
def test_infeasible_solution_exits_1_with_the_usual_report(monkeypatch, tmp_path, capsys, command, n):
    path = tmp_path / f"tight{n}.txt"
    path.write_text(write_instance(tight_instance(n)))
    argv = [command, str(path if command == "solve" else tmp_path), "--rounds", "1"]

    def reports(code):
        assert main(argv) == code
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for report in out:
            report.pop("elapsed_ms", None)
        return out

    feasible = reports(0)
    monkeypatch.setattr(ttp2.pipeline, "validate_schedule", lambda s: FeasibilityReport((("no-repeat", 0, 1),)))
    assert reports(1) == feasible


@pytest.mark.parametrize("n", [4, 8])
def test_zero_rounds_rejected_on_every_path(n):
    with pytest.raises(ValueError, match="round count"):
        solve(tight_instance(n), rounds=0)


@pytest.mark.parametrize("n, chain", [(8, (1,)), (16, (2, 1)), (18, ())])
def test_build_template_chain(n, chain):
    template, got = build_template(n)
    assert (template.n, got) == (n, chain)


def test_numpy_integer_seed_solves_as_the_int():
    inst = random_metric_instance(12, 4)
    a, b = solve(inst, 2, np.int64(3)), solve(inst, 2, 3)
    assert a.total == b.total
    assert np.array_equal(a.schedule.table, b.schedule.table)
    with pytest.raises(TypeError):
        solve(inst, 2, 3.0)


@pytest.mark.parametrize("kwargs", [{"rounds": 2.0}, {"seed": 2.5}], ids=["rounds", "seed"])
@pytest.mark.parametrize("n", [6, 8])
def test_float_rounds_or_seed_raise_on_every_path(n, kwargs):
    with pytest.raises(TypeError):
        solve(random_metric_instance(n, 5), **kwargs)


@pytest.mark.parametrize("n", [6, 8])
def test_numpy_integer_round_count_solves_as_the_int(n):
    inst = random_metric_instance(n, 5)
    assert solve(inst, rounds=np.int64(2)).total == solve(inst, rounds=2).total
