"""Tests of the benchmark's own checker and span recorder."""

import io
import time
from contextlib import redirect_stdout

import numpy as np

import checker
from spans import SpanRecorder, public_functions
from ttp2 import (
    bind_template,
    build_even_template,
    build_odd_template,
    compute_L,
    min_weight_perfect_matching,
    random_metric_instance,
    random_ordering,
    total_distance,
    write_instance,
)


def test_checker_rejects_golden_table_with_two_cells_swapped():
    # build_even_template(8, 1) is the published 8-team table (acceptance criterion 01).
    golden = build_even_template(8, 1).table.copy()
    assert checker.schedule_problems(golden) == []
    broken = golden.copy()
    broken[0, 0], broken[0, 1] = golden[0, 1], golden[0, 0]
    assert checker.schedule_problems(broken)


def test_venue_walk_total_equals_total_distance_on_bound_templates():
    for n in (8, 10, 16, 18):
        inst = random_metric_instance(n, seed=n)
        matching = min_weight_perfect_matching(inst)
        template = build_odd_template(n) if n % 4 else build_even_template(n)
        for seed in range(3):
            bound = bind_template(template, matching, random_ordering(n // 2, seed))
            assert checker.schedule_problems(bound.table) == []
            assert checker.venue_walk_total(bound.table, inst.dist) == total_distance(bound, inst).total


def test_left_games_matches_compute_L():
    for n in range(8, 124, 4):
        _, _, table = compute_L(n)
        assert {p: checker.left_games(n, p) for p in table} == table


def test_span_self_times_and_remainder_add_up_to_wall_time(tmp_path):
    import ttp2.cli

    path = tmp_path / "u10.txt"
    path.write_text(write_instance(random_metric_instance(10, seed=3)))
    recorder = SpanRecorder()
    recorder.install()
    try:
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = ttp2.cli.main(["solve", str(path), "--rounds", "3"])
        wall = time.perf_counter() - t0
    finally:
        recorder.uninstall()
    assert code == 0
    summary = recorder.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["ordering.polish"]["calls"] == 3
    assert summary["matching.min_weight_perfect_matching"]["calls"] == 1
    self_s = sum(row["self_ms"] for row in summary.values()) / 1000.0
    remainder = wall - recorder.top_level_s()
    assert remainder >= 0
    assert np.isclose(self_s + remainder, wall, rtol=1e-9, atol=1e-9)
    assert all(t >= 0 for t in recorder.self_times())


def test_uninstall_restores_every_binding():
    import ttp2.cli
    import ttp2.ordering

    before = public_functions()
    recorder = SpanRecorder()
    recorder.install()
    assert ttp2.cli.run_rounds is not before["ordering.run_rounds"]
    recorder.uninstall()
    assert ttp2.cli.run_rounds is before["ordering.run_rounds"]
    assert ttp2.ordering.polish is before["ordering.polish"]
    assert not any(name.split(".")[1].startswith("_") for name in before)
