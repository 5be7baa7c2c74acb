"""Command-line surface: solve, validate, lb and bench.

Argument parsing, formatting and I/O; solve and bench run `pipeline.solve`,
which validates the schedule it returns, and exit 1 when its `feasible` is
false.  validate checks a schedule file.

Machine-readable JSON goes to stdout; --pretty switches to human tables.
Exit codes: 0 ok, 1 infeasible/quality failure, 2 input error.

The argument parser is built once per process, on the first call of
`main`, as building it costs more than parsing; each call then looks its
command's handler up in this module by name, so a handler replaced after
that first call (a tracing wrapper, say) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .errors import DomainError, FormatError, ValidationError
from .instance import parse_instance
from .matching import independent_lower_bound, min_weight_perfect_matching
from .ordering import run_rounds  # noqa: F401  unused; perfbench/test_perfbench.py reads it as its patching canary
from .pipeline import solve
from .schedule import parse_schedule_csv, render_schedule, total_distance, validate_schedule


def _emit(obj, pretty: bool):
    if pretty:
        width = max(len(k) for k in obj)
        for k, v in obj.items():
            print(f"{k:<{width}}  {v}")
    else:
        print(json.dumps(obj))


def _read(parse, path):
    """`parse` of a file's text: an instance or a schedule CSV; parse errors name the file."""
    try:
        return parse(Path(path).read_text())
    except (FormatError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _gap_percent(total, lb) -> float:
    """Percent above the LB, to 2 places; 0.0 for an LB of 0, where every distance is 0."""
    return round(100.0 * (total - lb) / lb, 2) if lb else 0.0


def _solve_instance(inst, name, rounds, seed, derandomize_flag):
    """`pipeline.solve` timed, as the JSON report of solve and bench; returns (report, solution)."""
    start = time.perf_counter()
    sol = solve(inst, rounds, seed, derandomize_flag)
    elapsed = 1000 * (time.perf_counter() - start)
    report = {
        "instance": name,
        "n": inst.n,
        "lb": sol.lb,
        "total": sol.total,
        "gap_percent": _gap_percent(sol.total, sol.lb),
        "rounds": rounds,
        "seed": seed,
        "elapsed_ms": round(elapsed, 1),
        "construction": sol.construction,
        "packing": list(sol.packing),
    }
    return report, sol


def cmd_solve(args) -> int:
    path = Path(args.instance)
    inst = _read(parse_instance, path)
    report, sol = _solve_instance(inst, path.stem, args.rounds, args.seed, args.derandomize)
    if report["construction"] == "brute":
        print(f"note: n={inst.n} is solved exactly by brute force", file=sys.stderr)
    out = path.with_suffix(".schedule.csv")
    out.write_text(render_schedule(sol.schedule))
    report["schedule_csv"] = str(out)
    _emit(report, args.pretty)
    return 0 if sol.feasible else 1


def cmd_validate(args) -> int:
    schedule = _read(parse_schedule_csv, args.schedule)
    inst = _read(parse_instance, args.instance)
    dist = total_distance(schedule, inst)  # first: it rejects a team-count mismatch
    feas = validate_schedule(schedule, k=args.k)
    matching = min_weight_perfect_matching(inst)
    lb = independent_lower_bound(inst, matching).total
    _emit(
        {
            "feasible": feas.feasible,
            "violations": [list(v) for v in feas.violations],
            "total": dist.total,
            "per_team": list(dist.per_team),
            "lb": lb,
            "gap_percent": _gap_percent(dist.total, lb),
        },
        args.pretty,
    )
    return 0 if feas.feasible else 1


def cmd_lb(args) -> int:
    inst = _read(parse_instance, args.instance)
    matching = min_weight_perfect_matching(inst)
    bound = independent_lower_bound(inst, matching)
    _emit(
        {
            "n": inst.n,
            "matching": [list(p) for p in matching.pairs],
            "d_m": matching.weight,
            "lb": bound.total,
            "per_team": list(bound.per_team),
        },
        args.pretty,
    )
    return 0


def _load_baseline(path):
    """Instance name -> previous total, from a baseline CSV.

    The totals are the column headed ``previous`` when the header names one,
    else the second column.  Raises FormatError on a malformed line.
    """
    baseline = {}
    if path is None:
        return baseline
    column = 1
    for line in Path(path).read_text().splitlines():
        cells = [c.strip() for c in line.split(",")]
        if not cells[0] or cells[0].startswith("#"):
            continue
        headers = [c.lower() for c in cells]
        if headers[0] == "instance":
            if "previous" in headers:
                column = headers.index("previous")
            continue
        try:
            baseline[cells[0]] = _total(cells[column])
        except (IndexError, ValueError):
            raise FormatError(f"baseline line {line.strip()!r} has no total in column {column + 1}") from None
    return baseline


def _ascii(text: str) -> str:
    """`text` if ASCII without '_', as `parse_instance` reads numbers (int()
    and float() read both); raises ValueError otherwise."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _total(text: str):
    """A positive integer or finite real total; raises ValueError otherwise."""
    text = _ascii(text)
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if not 0 < value < math.inf:  # also false for NaN
        raise ValueError(text)
    return value


def cmd_bench(args) -> int:
    # iterdir, unlike glob, raises when the path is missing or not a directory.
    files = sorted(p for p in Path(args.directory).iterdir() if p.is_file() and p.suffix != ".csv")
    # Read every input before solving any, so that a bad one stops the run early.
    baseline = _load_baseline(args.baseline)
    instances = [(path.stem, _read(parse_instance, path)) for path in files]

    results = []
    any_infeasible = False
    for name, inst in instances:
        report, sol = _solve_instance(inst, name, args.rounds, args.seed, False)
        results.append(report)
        any_infeasible |= not sol.feasible

    ratios = []
    for report in results:
        prev = baseline.get(report["instance"])
        if prev is not None:
            report["previous"] = prev
            report["improvement_ratio"] = round(100.0 * (prev - report["total"]) / prev, 2)
            ratios.append(report["improvement_ratio"])
        _emit(report, args.pretty)
    summary = {
        "instances": len(results),
        "mean_improvement_percent": round(sum(ratios) / len(ratios), 2) if ratios else None,
    }
    _emit(summary, args.pretty)
    return 1 if any_infeasible else 0


def _integer(text: str) -> int:
    try:
        return int(_ascii(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(prog="ttp2", description="TTP-2 schedule construction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="construct a schedule for an instance file")
    p.add_argument("instance")
    p.add_argument("--rounds", type=_positive_int, default=1)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--derandomize", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("validate", help="check a schedule CSV against an instance")
    p.add_argument("schedule")
    p.add_argument("instance")
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("lb", help="independent lower bound of an instance")
    p.add_argument("instance")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("bench", help="solve every instance file in a directory")
    p.add_argument("directory")
    p.add_argument("--rounds", type=_positive_int, default=50)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--baseline", default=None, help="CSV of instance totals in a column headed 'previous'")
    p.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up now, not when the parser was built, so a wrapper set on
        # cmd_solve and the like between calls is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, FormatError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
