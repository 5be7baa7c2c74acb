import json
import math

import numpy as np
import pytest

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
    _, (oracle,) = run(capsys, ["oracle", str(path)])
    _, (solved,) = run(capsys, ["solve", str(path)])
    _, (checked,) = run(capsys, ["validate", str(csv_path), str(path)])
    walk = total_distance(parse_schedule_csv(csv_path.read_text()), inst).total
    assert oracle["total"] == solved["total"] == checked["total"] == walk


@pytest.mark.parametrize("n", [4, 8])
def test_validate_reports_a_zero_gap_when_the_lb_is_zero(tmp_path, capsys, n):
    path = write_inst(tmp_path, "zero.txt", Instance(n=n, dist=np.zeros((n, n), dtype=np.int64)))
    _, (solved,) = run(capsys, ["solve", str(path)])
    code, (checked,) = run(capsys, ["validate", str(tmp_path / "zero.schedule.csv"), str(path)])
    assert code == 0
    assert (checked["lb"], checked["total"]) == (0, 0)
    assert checked["gap_percent"] == solved["gap_percent"] == 0.0


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


def test_oracle_command(tmp_path, capsys):
    path = write_inst(tmp_path, "tight4.txt", tight_instance(4))
    code, payload = run(capsys, ["oracle", str(path)])
    assert code == 0
    assert payload[0]["total"] == 10
    assert payload[0]["construction"] == "brute"


def test_oracle_guard(tmp_path, capsys):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    assert main(["oracle", str(path)]) == 2


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
    "line", ["tight8", "tight8,nan", "tight8,0", "tight8,-60"], ids=["no-comma", "nan", "zero", "negative"]
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


@pytest.mark.parametrize("flags", [["--packing", "abc"], ["--rounds", "0"]], ids=["packing-abc", "rounds-0"])
def test_solve_rejects_bad_flags(tmp_path, capsys, flags):
    path = write_inst(tmp_path, "tight8.txt", tight_instance(8))
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), *flags])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "tight8.schedule.csv").exists()


@pytest.mark.parametrize(
    "n, packing",
    [(16, "0"), (16, "1000000000"), (6, "1"), (10, "1")],
    ids=["n16-p0", "n16-p1e9", "n6-brute", "n10-odd"],
)
def test_solve_rejects_packing_below_one(tmp_path, capsys, n, packing):
    # 1e9 must be rejected at once, not after a descent linear in p; n = 6
    # and n = 10 build no even template, so any explicit packing is an error.
    path = write_inst(tmp_path, f"tight{n}.txt", tight_instance(n))
    assert main(["solve", str(path), "--packing", packing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: packing" in captured.err
    assert not (tmp_path / f"tight{n}.schedule.csv").exists()


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


def test_solve_explicit_packing(tmp_path, capsys):
    path = write_inst(tmp_path, "tight16.txt", tight_instance(16))
    code, payload = run(capsys, ["solve", str(path), "--packing", "2"])
    assert code == 0
    assert payload[0]["construction"] == "even-dc"
    assert payload[0]["packing"] == [2, 1]
    assert payload[0]["total"] == 16 * 14 + 4 * 2 + 16
