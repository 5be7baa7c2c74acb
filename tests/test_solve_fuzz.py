"""`ttp2 solve` on generated instance text: a clean rejection or a checked schedule.

Every input either exits 2 with one ``error:`` line or exits 0 with a
schedule that the benchmark's independent checker (`perfbench/checker.py`)
accepts: feasible, its venue walk equal to the reported total, the total at
least the LB on metric inputs (a non-metric optimum can lie below it), and,
with ``--derandomize`` on metric integer inputs with n >= 8, at most
ratio(n) * LB.  n = 4 is solved by brute force, where ratio(4) = 1/2 says
nothing; n = 6 is left to tests/test_oracle.py, since its brute force takes
about a second per instance.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2.cli import main
from ttp2.instance import check_metric, parse_instance

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402

# Each fault makes the text invalid, so it must exit 2.
FAULTS = {
    "negative": lambda t: _put(t, 0, 1, "-1", "-1"),
    "asymmetric": lambda t: _put(t, 0, 1, "7", "8"),
    "diagonal": lambda t: _put(t, 1, 1, "3", "3"),
    "nan": lambda t: _put(t, 0, 1, "nan", "nan"),
    "inf": lambda t: _put(t, 0, 1, "inf", "inf"),
    "wide": lambda t: _put(t, 0, 1, str(2**70), str(2**70)),
    "underscore": lambda t: _put(t, 0, 1, "1_0", "1_0"),
    "odd": lambda t: [row[:-1] for row in t[:-1]],
}


def _put(tokens, i, j, a, b):
    tokens = [list(row) for row in tokens]
    tokens[i][j], tokens[j][i] = a, b
    return tokens


@st.composite
def instance_texts(draw):
    """(text, fault): integer, exponent or real tokens of a metric,
    non-metric or all-zero matrix, from 1e-300 to near the float64 limit."""
    n = draw(st.sampled_from((4, 8, 10, 12, 14, 16)))
    kind = draw(st.sampled_from(("metric", "nonmetric", "zero", "real")))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pts = rng.uniform(0, 1000, size=(n, 2))
    diff = pts[:, None] - pts[None]
    euclid = np.hypot(diff[..., 0], diff[..., 1])
    if kind == "real":
        tokens = [[repr(x) for x in row] for row in euclid.tolist()]
    else:
        if kind == "metric":
            d = np.ceil(euclid).astype(np.int64)
        elif kind == "nonmetric":
            d = np.triu(rng.integers(0, 1000, size=(n, n)), 1)
            d += d.T
        else:
            d = np.zeros((n, n), dtype=np.int64)
        if draw(st.booleans()):  # integer tokens; the larger scales pass float64 exactness
            # The checker walks the venues in int64, so totals must stay below 2**63.
            scale = draw(st.sampled_from((1, 10**6, 2**40, 10**12)))
            tokens = [[str(x * scale) for x in row] for row in d.tolist()]
        else:  # exponent tokens are real-valued, integer or not
            e = draw(st.sampled_from((-300, -150, -3, 0, 3, 150, 300, 305)))
            tokens = [[f"{x}e{e}" for x in row] for row in d.tolist()]
    fault = draw(st.sampled_from(list(FAULTS))) if draw(st.integers(0, 3)) == 0 else None
    if fault is not None:
        tokens = FAULTS[fault](tokens)
    lines = [" ".join(row) for row in tokens]
    if draw(st.booleans()):  # the leading-count form, else a bare k x k block
        lines.insert(0, str(len(tokens)))
    return "\n".join(lines) + "\n", fault


@settings(max_examples=200, deadline=None)
@given(case=instance_texts(), derandomize=st.booleans(), rounds=st.integers(1, 2), seed=st.integers(0, 99))
def test_solve_rejects_cleanly_or_returns_a_checked_schedule(case, derandomize, rounds, seed):
    text, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_text(text)
        argv = ["solve", str(path), "--rounds", str(rounds), "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--derandomize"] if derandomize else argv)
        if code == 2:
            assert out.getvalue() == ""
            assert [line[:7] for line in err.getvalue().splitlines()] == ["error: "]
            return
        assert fault is None and code == 0, (fault, code, err.getvalue())
        report = json.loads(out.getvalue())
        table = checker.read_csv_table(Path(report["schedule_csv"]).read_text())

    inst = parse_instance(text)
    if check_metric(inst).triangle_violations == 0:
        ratio = derandomize and inst.n >= 8
        assert checker.check_solve(report, table, inst.dist, inst.integral, ratio) == []
    else:
        assert checker.schedule_problems(table) == []
        walked = checker.venue_walk_total(table, inst.dist)
        assert checker.totals_match(walked, report["total"], inst.integral)
