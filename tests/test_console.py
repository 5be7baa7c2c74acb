"""The command line end to end, on the inputs of the console smoke: pinned
digests of generated instance files, the exit status of every command, the
exact n = 6 solve and its note on stderr, equal solve and validate totals
on integer and real-valued instances, bench on the named families, and
exit 2 for input errors.  Where stderr or the exit status of the process
is checked, the command runs as `python -m ttp2.cli` in a child process;
elsewhere `ttp2.cli.main` runs in-process."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ttp2.cli import main
from ttp2.instance import Instance, write_instance
from ttp2.oracle import random_metric_instance
from test_families import circ_instance, con_instance

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the instance files random_metric_instance(n, 1) writes: a change
# to the matrices it builds, or to their text, shows here.
DIGESTS = {
    8: "ee51b1f0e9656ee38b6f68f37f1fd6e1b61ac09362d9a67107d08fdb7ac903bd",
    50: "23bed7010994415848bebe8c4f6730d4cb08d455db87c6f94b6a8a830ce225ad",
}


def _write(path: Path, inst: Instance) -> Path:
    path.write_bytes(write_instance(inst).encode())
    return path


def _cli(*argv) -> subprocess.CompletedProcess:
    """`python -m ttp2.cli argv` with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ttp2.cli", *map(str, argv)], env=env, capture_output=True, text=True, timeout=120
    )


def _total(capsys, *argv):
    """The total `main(argv)` reports; the command must exit 0."""
    assert main([str(a) for a in argv]) == 0
    return json.loads(capsys.readouterr().out)["total"]


def test_generated_instance_files_match_their_pinned_digests(tmp_path):
    for n, digest in DIGESTS.items():
        path = _write(tmp_path / f"u{n}.txt", random_metric_instance(n, 1))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, n


def test_every_smoke_command_exits_zero(tmp_path, capsys):
    """Solves with a negative seed, with two rounds and with the derandomized
    start on n = 50 (more slot swaps than FIRST_WINDOW, so row windows),
    validate at the default and at k = 3, and lb."""
    u8 = _write(tmp_path / "u8.txt", random_metric_instance(8, 1))
    u50 = _write(tmp_path / "u50.txt", random_metric_instance(50, 1))
    csv = tmp_path / "u8.schedule.csv"
    for argv in (
        ["solve", u8, "--rounds", "3", "--seed", "-2"],
        ["solve", u8, "--rounds", "2"],
        ["validate", csv, u8],
        ["validate", csv, u8, "--k", "3"],
        ["lb", u8],
        ["solve", u50, "--rounds", "2", "--derandomize"],
    ):
        assert main([str(a) for a in argv]) == 0, argv
    capsys.readouterr()


def test_input_errors_exit_two(tmp_path, capsys):
    """An 8-team schedule against a 50-team instance, and a schedule CSV
    whose lines end in form feeds (only LF, CRLF and CR end a line)."""
    u8 = _write(tmp_path / "u8.txt", random_metric_instance(8, 1))
    u50 = _write(tmp_path / "u50.txt", random_metric_instance(50, 1))
    assert main(["solve", str(u8), "--rounds", "2"]) == 0
    capsys.readouterr()
    csv = tmp_path / "u8.schedule.csv"
    form_feeds = tmp_path / "u8.ff.csv"
    form_feeds.write_bytes(csv.read_bytes().replace(b"\n", b"\f"))
    for schedule, inst in ((csv, u50), (form_feeds, u8)):
        proc = _cli("validate", schedule, inst)
        assert proc.returncode == 2, (schedule.name, inst.name, proc.stderr)
        assert proc.stderr.startswith("error: ")


def test_n6_solve_says_it_is_exact_and_validate_agrees(tmp_path, capsys):
    """n = 6 is solved by the exact brute-force search, which says so on
    stderr; solve and validate both report its optimum, 24935."""
    u6 = _write(tmp_path / "u6.txt", random_metric_instance(6, 1))
    proc = _cli("solve", u6)
    assert proc.returncode == 0, proc.stderr
    assert "note: n=6 is solved exactly by brute force" in proc.stderr
    total = json.loads(proc.stdout)["total"]
    assert type(total) is int and total == 24935
    assert _total(capsys, "validate", tmp_path / "u6.schedule.csv", u6) == 24935


def test_real_valued_solve_and_validate_report_the_same_total(tmp_path, capsys):
    """r14: Euclidean distances of 14 random points, not rounded."""
    pts = np.random.default_rng(14).uniform(0.0, 1000.0, size=(14, 2)).tolist()
    dist = np.array([[math.dist(p, q) for q in pts] for p in pts])
    r14 = _write(tmp_path / "r14.txt", Instance(14, dist))
    solved = _total(capsys, "solve", r14, "--rounds", "2", "--derandomize")
    assert isinstance(solved, float)
    assert _total(capsys, "validate", tmp_path / "r14.schedule.csv", r14) == solved


def test_bench_solves_the_named_families(tmp_path, capsys):
    """CON (every distance 1) and CIRC (teams on a circle of unit arcs)."""
    for n in (8, 12):
        _write(tmp_path / f"CON{n}.txt", con_instance(n))
    for n in (10, 16):
        _write(tmp_path / f"CIRC{n}.txt", circ_instance(n))
    assert main(["bench", str(tmp_path), "--rounds", "2"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line.get("instance") for line in lines[:-1]] == ["CIRC10", "CIRC16", "CON12", "CON8"]
    assert lines[-1]["instances"] == 4
