import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ttp2 import cli
from ttp2.cli import main
from ttp2.instance import Instance, write_instance
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.schedule import parse_schedule_csv, render_schedule, total_distance, validate_schedule


def write_inst(tmp_path, name, inst):
    path = tmp_path / name
    path.write_text(write_instance(inst))
    return path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out if line]


def test_solve_tight8(tmp_path, capsys):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    code, payload = run(capsys, ["solve", str(path), "--rounds", "1"])
    assert code == 0
    report = payload[0]
    assert report["total"] == 56
    assert report["lb"] == 48
    assert report["gap_percent"] == pytest.approx(16.67, abs=0.01)
    csv_path = tmp_path / "tight8.schedule.csv"
    assert csv_path.exists()
    sched = parse_schedule_csv(csv_path.read_text())
    assert validate_schedule(sched).feasible


def test_solve_reroutes_small_n(tmp_path, capsys):
    import numpy as np

    from ttp2.instance import Instance

    z = Instance(n=6, dist=np.zeros((6, 6), dtype=np.int64))
    path = write_inst(tmp_path, "zero6.txt", z)
    code, payload = run(capsys, ["solve", str(path)])
    assert code == 0
    assert payload[0]["construction"] == "brute"
    assert payload[0]["total"] == 0


def test_solve_odd_instance(tmp_path, capsys):
    path = write_inst(tmp_path, "tight10.txt", tight_instance(10))
    code, payload = run(capsys, ["solve", str(path), "--seed", "3"])
    assert code == 0
    assert payload[0]["construction"] == "odd"
    assert payload[0]["lb"] == 80
    assert payload[0]["total"] >= 80


def test_solve_reproducible_reports(tmp_path, capsys):
    path = write_inst(tmp_path, "rm12.txt", random_metric_instance(12, 4))
    code1, p1 = run(capsys, ["solve", str(path), "--rounds", "3", "--seed", "9"])
    code2, p2 = run(capsys, ["solve", str(path), "--rounds", "3", "--seed", "9"])
    r1, r2 = p1[0], p2[0]
    for key in ("total", "lb", "gap_percent", "construction", "packing", "seed"):
        assert r1[key] == r2[key]


def test_solve_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3")
    assert main(["solve", str(bad)]) == 2


def test_solve_rejects_integer_beyond_64_bits(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("4\n0 9223372036854775808 1 1\n9223372036854775808 0 1 1\n1 1 0 1\n1 1 1 0\n")
    assert main(["solve", str(path)]) == 2
    assert "'9223372036854775808'" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_solve_reads_written_float_instances_as_floats(tmp_path, capsys, scale):
    dist = random_metric_instance(12, 3).dist
    path = write_inst(tmp_path, "float12.txt", Instance(n=12, dist=dist * scale))
    code, payload = run(capsys, ["solve", str(path), "--rounds", "2"])
    assert code == 0
    lb = payload[0]["lb"]
    assert type(lb) is float and math.isfinite(payload[0]["total"])
    exact = write_inst(tmp_path, "int12.txt", Instance(n=12, dist=dist))
    assert lb == pytest.approx(run(capsys, ["lb", str(exact)])[1][0]["lb"] * scale, rel=1e-12)


def test_solve_rejects_distances_whose_totals_overflow(tmp_path, capsys):
    dist = random_metric_instance(12, 3).dist * 1e305
    path = tmp_path / "e305.txt"
    path.write_text("12\n" + "\n".join(" ".join(f"{x:e}" for x in row) for row in dist.tolist()) + "\n")
    assert main(["solve", str(path), "--rounds", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflow" in captured.err


def test_validate_roundtrip(tmp_path, capsys):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    run(capsys, ["solve", str(path)])
    csv_path = tmp_path / "tight8.schedule.csv"
    code, payload = run(capsys, ["validate", str(csv_path), str(path)])
    assert code == 0
    assert payload[0]["feasible"] is True
    assert payload[0]["total"] == 56


def _real_instance(n, seed):
    """Real-valued Euclidean distances between uniform points in the plane."""
    pts = np.random.default_rng(seed).uniform(0.0, 1000.0, size=(n, 2))
    return Instance(n=n, dist=np.linalg.norm(pts[:, None] - pts[None], axis=-1))


@pytest.mark.parametrize("n, seed", [(4, 1), (6, 5)])
def test_small_real_valued_instance_reports_one_total(tmp_path, capsys, n, seed):
    # The exhaustive search's own running sum differs from the venue walk in
    # the last bits on these instances; every command reports the walk.
    inst = _real_instance(n, seed)
    path = write_inst(tmp_path, "real.txt", inst)
    csv_path = tmp_path / "real.schedule.csv"
    _, (solved,) = run(capsys, ["solve", str(path)])
    _, (checked,) = run(capsys, ["validate", str(csv_path), str(path)])
    walk = total_distance(parse_schedule_csv(csv_path.read_text()), inst).total
    assert solved["total"] == checked["total"] == walk


@pytest.mark.parametrize("n", [4, 8])
def test_validate_reports_a_zero_gap_when_the_lb_is_zero(tmp_path, capsys, n):
    path = write_inst(tmp_path, "zero.txt", Instance(n=n, dist=np.zeros((n, n), dtype=np.int64)))
    _, (solved,) = run(capsys, ["solve", str(path)])
    code, (checked,) = run(capsys, ["validate", str(tmp_path / "zero.schedule.csv"), str(path)])
    assert code == 0
    assert (checked["lb"], checked["total"]) == (0, 0)
    assert checked["gap_percent"] == solved["gap_percent"] == 0.0


def test_validate_prints_no_negative_zero_for_walks_of_negative_zero_legs(tmp_path, capsys):
    """Every distance is -0.0: each walk, like each LB row, is a sum from 0
    and reads 0.0."""
    path = write_inst(tmp_path, "negzero.txt", Instance(n=8, dist=np.full((8, 8), -0.0)))
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", str(tmp_path / "negzero.schedule.csv"), str(path)]) == 0
    out = capsys.readouterr().out
    assert "-0.0" not in out
    assert json.loads(out)["per_team"] == [0.0] * 8


def test_validate_catches_corruption(tmp_path, capsys):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    run(capsys, ["solve", str(path)])
    csv_path = tmp_path / "tight8.schedule.csv"
    rows = csv_path.read_text().splitlines()
    cells = rows[0].split(",")
    cells[0], cells[1] = cells[1], cells[0]
    rows[0] = ",".join(cells)
    csv_path.write_text("\n".join(rows) + "\n")
    code, payload = run(capsys, ["validate", str(csv_path), str(path)])
    assert code == 1
    assert payload[0]["feasible"] is False
    assert payload[0]["violations"]


def test_validate_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("+1,nope\n")
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    assert main(["validate", str(bad), str(path)]) == 2


def test_validate_rejects_team_count_mismatch(tmp_path, capsys, golden_n8):
    csv_path = tmp_path / "golden8.schedule.csv"
    csv_path.write_text(render_schedule(golden_n8))
    path = write_inst(tmp_path, "tight4.txt", tight_instance(4))
    assert main(["validate", str(csv_path), str(path)]) == 2
    assert "error: schedule has 8 teams, instance has 4" in capsys.readouterr().err


def test_validate_rejects_cell_naming_no_team(tmp_path, capsys):
    csv_path = tmp_path / "bad4.schedule.csv"
    csv_path.write_text("+2,-3,-4,+3,+4,-2\n-1,+4,+3,-4,-3,+1\n+9,+1,-2,-1,+2,-4\n-3,-2,+1,+2,-1,+3\n")
    path = write_inst(tmp_path, "tight4.txt", tight_instance(4))
    assert main(["validate", str(csv_path), str(path)]) == 2
    assert f"error: {csv_path}: cell +9 names no team of 4" in capsys.readouterr().err


def test_validate_names_the_malformed_cell(tmp_path, capsys):
    csv_path = tmp_path / "bad4.schedule.csv"
    csv_path.write_text("+2,-3,-4,+3,+4,-2\n-1,+4,+3,-4,-3,+1\n+4,+1,x2,-1,+2,-4\n-3,-2,+1,+2,-1,+3\n")
    path = write_inst(tmp_path, "tight4.txt", tight_instance(4))
    assert main(["validate", str(csv_path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {csv_path}: bad cell 'x2' (line 3, column 3)" in captured.err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_validate_rejects_k_below_one(tmp_path, capsys, golden_n8, k):
    csv_path = tmp_path / "golden8.schedule.csv"
    csv_path.write_text(render_schedule(golden_n8))
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(csv_path), str(path), "--k", k])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_lb_command(tmp_path, capsys):
    path = write_inst(tmp_path, "tight10.txt", tight_instance(10))
    code, payload = run(capsys, ["lb", str(path)])
    assert code == 0
    assert payload[0]["lb"] == 80
    assert payload[0]["d_m"] == 0


def test_bench_empty_dir(tmp_path, capsys):
    code, payload = run(capsys, ["bench", str(tmp_path)])
    assert code == 0
    assert payload[-1]["instances"] == 0


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_rejects_non_directory(tmp_path, capsys, kind):
    target = tmp_path / "no_such_dir"
    if kind == "file":
        target = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    assert main(["bench", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_bench_with_baseline(tmp_path, capsys):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    write_inst(tmp_path, "tight10.txt", tight_instance(10))
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("instance,previous\ntight8,60\ntight10,120\n")
    code, payload = run(
        capsys,
        ["bench", str(tmp_path), "--rounds", "2", "--baseline", str(baseline)],
    )
    assert code == 0
    summary = payload[-1]
    assert summary["instances"] == 2
    assert summary["mean_improvement_percent"] is not None
    by_name = {r["instance"]: r for r in payload[:-1]}
    assert by_name["tight8"]["previous"] == 60
    assert by_name["tight8"]["total"] <= 60


def test_bench_baseline_reads_the_previous_column(tmp_path, capsys):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    baseline = tmp_path / "baselines.csv"
    baseline.write_text("instance,lb,previous,rounds50\ntight8,48,60,58\n")
    code, payload = run(capsys, ["bench", str(tmp_path), "--rounds", "1", "--baseline", str(baseline)])
    assert code == 0
    assert payload[0]["total"] == 56
    assert payload[0]["previous"] == 60
    assert payload[0]["improvement_ratio"] == pytest.approx(6.67)


def test_bench_baseline_matches_the_header_in_any_case(tmp_path, capsys):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    baseline = tmp_path / "baselines.csv"
    baseline.write_text("Instance,LB,Previous\ntight8,48,60\n")
    code, payload = run(capsys, ["bench", str(tmp_path), "--rounds", "1", "--baseline", str(baseline)])
    assert code == 0
    assert payload[0]["previous"] == 60  # not the LB column


def test_bench_baseline_accepts_real_totals(tmp_path, capsys):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    baseline = tmp_path / "baselines.csv"
    baseline.write_text("instance,previous\ntight8,60.5\n")
    code, payload = run(capsys, ["bench", str(tmp_path), "--rounds", "1", "--baseline", str(baseline)])
    assert code == 0
    assert payload[0]["previous"] == 60.5
    assert payload[0]["improvement_ratio"] == pytest.approx(7.44)


@pytest.mark.parametrize(
    "line",
    ["tight8", "tight8,nan", "tight8,0", "tight8,-60", "tight8,\u0664\u0664\u0664\u0664\u0664", "tight8,9_999"],
    ids=["no-comma", "nan", "zero", "negative", "arabic-indic-digits", "underscore"],
)
def test_bench_baseline_rejects_malformed_line(tmp_path, capsys, line):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    baseline = tmp_path / "baselines.csv"
    baseline.write_text(f"instance,previous\n{line}\n")
    assert main(["bench", str(tmp_path), "--baseline", str(baseline)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: baseline line {line!r}" in captured.err


def test_bench_rejects_unparsable_file_before_solving(tmp_path, capsys):
    write_inst(tmp_path, "a_tight8.txt", tight_instance(8))
    (tmp_path / "b_bad.txt").write_text("1 2 3")
    assert main(["bench", str(tmp_path), "--rounds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "b_bad.txt" in captured.err


@pytest.mark.parametrize("flags", [["--rounds", "0"]], ids=["rounds-0"])
def test_solve_rejects_bad_flags(tmp_path, capsys, flags):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), *flags])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tight8.schedule.csv").exists()


def test_solve_with_derandomize_flag(tmp_path, capsys):
    path = write_inst(tmp_path, "rm12.txt", random_metric_instance(12, 4))
    code, payload = run(capsys, ["solve", str(path), "--derandomize"])
    assert code == 0
    # The derandomized candidate joins the pool; still reproducible and valid.
    code2, payload2 = run(capsys, ["solve", str(path), "--derandomize"])
    assert payload[0]["total"] == payload2[0]["total"]


def test_solve_real_valued_with_derandomize(tmp_path, capsys):
    base = random_metric_instance(12, 4)
    inst = Instance(n=12, dist=base.dist / 3.0, integral=False)
    path = write_inst(tmp_path, "real12.txt", inst)
    code, payload = run(capsys, ["solve", str(path), "--derandomize"])
    assert code == 0
    sched = parse_schedule_csv((tmp_path / "real12.schedule.csv").read_text())
    assert validate_schedule(sched).feasible
    assert payload[0]["total"] == pytest.approx(total_distance(sched, inst).total)


@pytest.mark.parametrize("text", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-digit"])
@pytest.mark.parametrize(
    "command, flag",
    [("solve", "--rounds"), ("solve", "--seed"), ("validate", "--k"), ("bench", "--rounds"), ("bench", "--seed")],
)
def test_integer_options_are_ascii_without_underscores(tmp_path, capsys, golden_n8, command, flag, text):
    # int() reads both forms; instance numbers and baseline totals reject them.
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    csv_path = tmp_path / "golden8.schedule.csv"
    csv_path.write_text(render_schedule(golden_n8))
    operands = {"solve": [path], "validate": [csv_path, path], "bench": [tmp_path]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, operands), flag, text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_solve_takes_a_negative_seed(tmp_path, capsys):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    code, payload = run(capsys, ["solve", str(path), "--rounds", "2", "--seed", "-3"])
    assert code == 0
    assert payload[0]["seed"] == -3


@pytest.mark.parametrize("command", ["solve", "lb", "validate"])
def test_pretty_prints_one_aligned_line_per_report_key(tmp_path, capsys, command):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()
    argv = {
        "solve": ["solve", str(path)],
        "lb": ["lb", str(path)],
        "validate": ["validate", str(tmp_path / "tight8.schedule.csv"), str(path)],
    }[command]
    code, (report,) = run(capsys, argv)
    assert code == main(argv + ["--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(map(len, report))
    assert [line[:width + 2] for line in lines] == [f"{key:<{width}}  " for key in report]
    for line, (key, value) in zip(lines, report.items()):
        if key != "elapsed_ms":
            assert line == f"{key:<{width}}  {value}"


def test_bench_baseline_skips_blank_and_comment_lines(tmp_path, capsys):
    write_inst(tmp_path, "tight8.txt", tight_instance(8))
    baseline = tmp_path / "baselines.csv"
    # Read as data, each of these lines would be malformed and exit 2.
    baseline.write_text("# totals of an earlier run\n\ninstance,previous\n  \n#tight8,x\ntight8,60\n")
    code, payload = run(capsys, ["bench", str(tmp_path), "--rounds", "1", "--baseline", str(baseline)])
    assert code == 0
    assert payload[0]["previous"] == 60


def _printed(text):
    """The lines a command printed, less its elapsed_ms entry, which differs from run to run."""
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
            report.pop("elapsed_ms", None)
            lines.append(report)
        elif not line.startswith("elapsed_ms "):
            lines.append(line)
    return lines


def test_the_cached_parser_prints_what_a_fresh_one_prints(tmp_path, capsys):
    """One parser serves every `main` call of a process: each call of a
    sequence prints what it prints on a parser built afresh, so no option
    of one call carries over to the next."""
    path = write_inst(tmp_path, "rm10.txt", random_metric_instance(10, 2))
    csv_path = tmp_path / "rm10.schedule.csv"
    assert main(["solve", str(path)]) == 0  # the schedule that validate reads
    capsys.readouterr()
    sequences = [
        [["solve", str(path), "--pretty"], ["solve", str(path)]],
        [["validate", str(csv_path), str(path), "--k", "3"], ["validate", str(csv_path), str(path)]],
    ]
    printed = []
    for sequence in sequences:
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append((main(argv), _printed(capsys.readouterr().out)))
        parser = cli._parser()
        cached = [(main(argv), _printed(capsys.readouterr().out)) for argv in sequence]
        assert cli._parser() is parser
        assert cached == fresh
        printed.append(fresh)
    (pretty, plain), _ = printed
    assert isinstance(pretty[1][0], str) and isinstance(plain[1][0], dict)  # --pretty, then JSON


def test_a_handler_replaced_after_a_call_is_the_one_that_runs(tmp_path, capsys, monkeypatch):
    """A wrapper set on `cli.cmd_solve` after the parser is built runs on
    the next call, as the benchmark's span recorder needs."""
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    assert main(["solve", str(path)]) == 0
    calls = []
    spied = cli.cmd_solve
    monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(args.instance) or spied(args))
    code, payload = run(capsys, ["solve", str(path)])
    assert code == 0 and payload[0]["total"] == 56
    assert calls == [str(path)]


def test_a_bad_round_count_exits_2_with_the_usage_on_every_call(tmp_path, capsys):
    """The cached parser rejects --rounds 0 each time as a fresh one does:
    SystemExit 2 and argparse's usage error, with good calls in between."""
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    argv = ["solve", str(path), "--rounds", "0"]
    errors = []
    cli._parser.cache_clear()  # the first call builds the parser
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
        assert main(["solve", str(path)]) == 0
        capsys.readouterr()
    assert errors[0].startswith("usage: ttp2 solve ")
    assert "ttp2 solve: error: argument --rounds: expected an integer >= 1, got '0'" in errors[0]
    assert errors == [errors[0]] * 3


def test_readme_cli_synopsis_names_every_option():
    """Each subcommand's line of README's CLI synopsis names every option
    its parser takes, other than -h/--help."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    synopsis = {line.split()[1]: line for line in readme.splitlines() if line.startswith("ttp2 ")}
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert synopsis.keys() == sub.choices.keys()
    missing = {}
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        missing[command] = sorted(options - set(re.findall(r"--[\w-]+", synopsis[command])))
    assert missing == dict.fromkeys(sub.choices, [])
