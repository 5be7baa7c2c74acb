"""Benchmark of the ttp2 solver, measured from outside the package.

    python3 perfbench/run.py --workload restarts --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process on one thread drives the package's public entry
points over a corpus generated from ``--seed``, repeating whole passes over
the corpus while another pass still fits in ``--seconds`` (the first pass
always runs), and checks every output with ``checker``, which does not use
ttp2.schedule.

Times are wall-clock times scaled to a reference machine speed: a fixed
calibration loop runs between operations, and an operation's wall time is
multiplied by CAL_REF_S over the mean loop time around it (see
Tally.scaled_s).  Raw wall times are recorded beside the scaled ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times one
untraced pass, then wraps every public function of the package's modules
(see ``spans``) and prints per-layer metrics per traced pass.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The
full record (environment, per-instance totals, every op's times, every
wrapped function) goes to ``perfbench/out/``.  ``ttp2 bench`` and its
thread pool are not driven: the load is one thread on purpose.
"""

from __future__ import annotations

import os

# Cap native thread pools before anything imports NumPy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import functools
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("restarts", "large-derand", "check-sweep")
SETUP_REPEATS = 5
# The calibration loop's length and the time it is scaled to.  The host's
# speed drifts by tens of percent over tens of seconds; the loop's time
# tracks that drift, so operation times divided by it stay steady.
CAL_LOOPS = 3_000
CAL_REF_S = 0.005
# Fixed percentile of the pooled per-op times reported as op_ms_tail.  It is
# fixed so that a faster program (more passes, more samples) reports the same
# statistic, and each sits inside a group of similar solves rather than on
# the edge between two sizes.  Only check-sweep has enough ops to leave ten
# samples beyond its percentile; the others report how many lie beyond.
TAIL_PCT = {"restarts": 85.0, "large-derand": 90.0, "check-sweep": 90.0}

# Per-layer functions reported in the --trace 1 result line; the record in
# perfbench/out/ has every wrapped function.
TRACED = (
    "ordering.polish",
    "ordering.swap_super_teams_pass",
    "ordering.swap_within_pass",
    "ordering.random_ordering",
    "ordering.coefficient_total",
    "ordering.binding_vector",
    "ordering.run_rounds",
    "ordering.derandomize",
    "ordering.extract_coefficients",
    "ordering.bind_template",
    "matching.min_weight_perfect_matching",
    "matching.independent_lower_bound",
    "schedule.validate_schedule",
    "schedule.total_distance",
    "schedule.venue_sequence",
    "schedule.render_schedule",
    "schedule.parse_schedule_csv",
    "even.build_even_template",
    "even.packing_chain",
    "even.normalize_packing",
    "odd.build_odd_template",
    "instance.parse_instance",
    "cli.main",
    "cli.cmd_solve",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def calibrate(samples: int = 1) -> float:
    """Mean seconds of a fixed calibration loop, after one discarded warm-up.

    The loop mixes what the solver does (object churn, a sort, NumPy fancy
    indexing, dictionary lookups in a 64k table, big-integer arithmetic), so
    it slows down with the host the way the solver does; a plain integer
    loop does not.  The collector is paused so that the program's heap size
    cannot change the loop's time.
    """
    mid, idx, table = _calibration_data()
    big = 3 ** 2000
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(samples + 1):
            t0 = time.perf_counter()
            rows, sums, acc = [], {}, 0
            for i in range(CAL_LOOPS):
                row = (i, i * i % 97, str(i))
                rows.append(row)
                sums[row[1]] = sums.get(row[1], 0) + i
            rows.sort(key=lambda r: r[1])
            for k in range(1, 61):
                acc += int(mid[(idx * k) % (1 << 17)].sum())
            for i in range(0, 1 << 16, 5):
                acc += table[i * 7]
            x = big
            for i in range(300):
                x = (x * 7 + i) % (big - 1)
            times.append(time.perf_counter() - t0)
            del rows, sums
    finally:
        if was_enabled:
            gc.enable()
    return sum(times[1:]) / samples


@functools.cache
def _calibration_data():
    import numpy as np

    return np.arange(1 << 17), (np.arange(4096) * 7919) % (1 << 17), {i * 7: i for i in range(1 << 16)}


def import_package():
    """Import ttp2 from this checkout's src/, never from elsewhere."""
    if not (SRC / "ttp2" / "__init__.py").is_file():
        raise SystemExit(f"error: no ttp2 package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ttp2

    if Path(ttp2.__file__).resolve().parent != (SRC / "ttp2").resolve():
        raise SystemExit(f"error: ttp2 imported from {ttp2.__file__}, not {SRC}")
    return ttp2


def setup(workload: str, seed: int, directory: Path):
    """Import the package and build (and write) the workload's inputs."""
    import_package()
    import corpus

    directory.mkdir(parents=True, exist_ok=True)
    if workload == "restarts":
        return corpus.restarts_ops(directory, seed)
    if workload == "large-derand":
        return corpus.large_derand_ops(directory, seed) + [corpus.derand_probe_op(directory, seed)]
    return corpus.sweep_ops(seed), corpus.tight_instances()


def timed_setup(workload: str, seed: int, directory: Path):
    """One set-up, with its wall seconds and its calibration-scaled seconds.

    The calibration runs after the set-up: it imports NumPy, which belongs
    to the set-up's own cost.
    """
    t0 = time.perf_counter()
    inputs = setup(workload, seed, directory)
    wall = time.perf_counter() - t0
    return inputs, wall, wall * CAL_REF_S / calibrate(2)


def timed_setups(args, directory: Path):
    """Set up in-process once, then SETUP_REPEATS - 1 times in fresh children."""
    inputs, wall, scaled = timed_setup(args.workload, args.seed, directory)
    walls, times = [wall], [scaled]
    for k in range(SETUP_REPEATS - 1):
        probe_dir = directory.parent / f"{directory.name}.probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        wall, scaled = (float(x) for x in done.stdout.split())
        walls.append(wall)
        times.append(scaled)
    return inputs, times, walls


# ---------------------------------------------------------------------------
# Operations and their checks.
# ---------------------------------------------------------------------------

def _read_dist(path: Path):
    """The checker's own copy of an instance's distance matrix."""
    import numpy as np

    tokens = path.read_text().split()
    n = int(tokens[0])
    dist = np.array([float(t) for t in tokens[1:]]).reshape(n, n)
    integral = all("." not in t and "e" not in t for t in tokens[1:])
    return (dist.astype(np.int64) if integral else dist), integral


def solve(op):
    """In-process `ttp2.cli.main(argv)`; returns (exit status, stdout)."""
    import ttp2.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ttp2.cli.main(list(op.argv))
    return code, out.getvalue()


def check_solved(op, result, dist, integral):
    import checker

    code, stdout = result
    if code != 0:
        return None, [f"exit status {code}"]
    report = json.loads(stdout.strip().splitlines()[-1])
    table = checker.read_csv_table(Path(report["schedule_csv"]).read_text())
    problems = checker.check_solve(report, table, dist, integral, "--derandomize" in op.argv)
    return (report["total"], report["lb"]), problems


class SolveRunner:
    """restarts / large-derand: one `solve` per instance file."""

    def __init__(self, ops):
        self.ops = ops
        self.instances = {op.name: _read_dist(op.path) for op in ops}

    def run(self, op):
        return solve(op)

    def check(self, op, result):
        return check_solved(op, result, *self.instances[op.name])


class SweepRunner:
    """check-sweep: template -> coefficients -> bind -> validate -> CSV -> distance."""

    def __init__(self, ops, tight):
        import corpus

        self.ops = ops
        self.tight = tight
        self.matchings = {n: corpus.designated_matching(n) for n in tight}

    def run(self, op):
        from ttp2 import even, odd, ordering, schedule

        n = op.n
        if op.packing is None:
            template = odd.build_odd_template(n)
        else:
            template = even.build_even_template(n, op.packing)
        coeffs = ordering.extract_coefficients(template)
        order = ordering.random_ordering(n // 2, op.ordering_seed)
        bound = ordering.bind_template(template, self.matchings[n], order)
        feasible = schedule.validate_schedule(bound).feasible
        parsed = schedule.parse_schedule_csv(schedule.render_schedule(bound))
        total = schedule.total_distance(parsed, self.tight[n]).total
        return feasible, bound.table, parsed.table, total, coeffs.c, order

    def check(self, op, result):
        import numpy as np

        import checker

        feasible, bound, parsed, total, coeffs, order = result
        n = op.n
        lb = n * (n - 2)
        problems = list(checker.schedule_problems(parsed))
        if not feasible:
            problems.append("validate_schedule reports infeasible")
        if not np.array_equal(bound, parsed):
            problems.append("CSV round trip changed the table")
        dist = self.tight[n].dist
        bind = [0] * n
        for slot, (edge, bit) in enumerate(zip(order.sigma, order.pi)):
            a, b = 2 * edge, 2 * edge + 1
            bind[2 * slot], bind[2 * slot + 1] = (a, b) if bit == 0 else (b, a)
        walked = checker.venue_walk_total(parsed, dist)
        form = checker.linear_form_total(coeffs, dist, bind)
        if not walked == total == form:
            problems.append(f"totals disagree: walk {walked}, total_distance {total}, linear form {form}")
        want = checker.tight_extra(n, op.packing)
        if total - lb != want:
            problems.append(f"extra cost {total - lb}, expected {want}")
        return (total, lb), problems


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

class Tally:
    """Per-op outcomes across passes: times, calibration samples, totals, failures."""

    def __init__(self):
        self.ops: list[tuple[int, str, float, float, bool]] = []  # pass, name, start, end, failed
        self.cal: list[tuple[float, float, int]] = []  # time, mean loop seconds, loop count
        self.pass_wall_s: list[float] = []
        self.peak_rss_mb: list[float] = []  # after each pass
        self.totals: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: list[str] = []

    def calibrate(self, samples: int = 1) -> None:
        self.cal.append((time.perf_counter(), calibrate(samples), samples))

    def record(self, op, t0, t1, outcome, problems):
        self.attempted += 1
        first = self.totals.get(op.name)
        if outcome is not None and first is not None and first != outcome:
            problems = problems + [f"total changed between passes: {first} -> {outcome}"]
        if problems:
            self.failed += 1
            self.incorrect += outcome is not None
            self.problems.extend(f"{op.name}: {p}" for p in problems[:3])
        else:
            self.totals.setdefault(op.name, outcome)
        self.ops.append((len(self.pass_wall_s), op.name, t0, t1, bool(problems)))

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect
        self.problems += other.problems

    def scaled_s(self) -> list[float]:
        """Each op's wall seconds scaled by the calibration loops around it.

        The loops averaged are those within one op duration before its start
        or after its end, so a long op is scaled by the machine's speed over
        about as long as it ran; the loops right before and after always count.
        """
        times = [t for t, _, _ in self.cal]
        out = []
        for _, _, t0, t1, _ in self.ops:
            dt = t1 - t0
            lo = max(0, min(bisect.bisect_left(times, t0) - 1, bisect.bisect_left(times, t0 - dt)))
            hi = max(bisect.bisect_left(times, t1) + 1, bisect.bisect_right(times, t1 + dt))
            window = self.cal[lo:hi]
            mean = sum(c * k for _, c, k in window) / sum(k for _, _, k in window)
            out.append(dt * CAL_REF_S / mean)
        return out

    def pass_s(self) -> list[float]:
        sums = [0.0] * len(self.pass_wall_s)
        for (p, *_), s in zip(self.ops, self.scaled_s()):
            sums[p] += s
        return sums

    def op_ms(self) -> list[float]:
        """Scaled op times; a failed op misses every time limit."""
        return [math.inf if bad else 1000 * s for (*_, bad), s in zip(self.ops, self.scaled_s())]


def one_pass(runner, tally: Tally, recorder=None) -> None:
    wall = 0.0
    tally.calibrate()
    for i, op in enumerate(runner.ops):
        if recorder is not None:
            recorder.op_id = i
        error = None
        t0 = time.perf_counter()
        try:
            result = runner.run(op)
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        wall += t1 - t0
        # Longer ops get more calibration loops (about 1% of their time).
        tally.calibrate(1 + min(9, int((t1 - t0) / 0.5)))
        if error is not None:
            outcome, problems = None, [error]
        else:
            try:
                outcome, problems = runner.check(op, result)
            except Exception as exc:
                outcome, problems = None, [f"output unreadable: {type(exc).__name__}: {exc}"]
        tally.record(op, t0, t1, outcome, problems)
    tally.pass_wall_s.append(wall)
    tally.peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def measure(runner, seconds: float, tally: Tally, recorder=None, per_pass=None) -> None:
    """Whole passes while another is expected to end within `seconds` (at least one)."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        first_span = len(recorder) if recorder is not None else 0
        one_pass(runner, tally, recorder)
        if per_pass is not None:
            per_pass(first_span)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(workload: str, tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    pct = TAIL_PCT[workload]
    op_ms = tally.op_ms()
    tail = percentile(op_ms, pct)
    gaps = [100.0 * (total - lb) / lb for total, lb in tally.totals.values()]
    metrics = {
        "pass_s": (statistics.median(tally.pass_s()), "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail, "ms"),
        "gap_pct": (statistics.fmean(gaps) if gaps else math.nan, "%"),
        "setup_s": (statistics.median(setup_times), "s"),
        # After the first pass, so that the pass count (which follows the
        # program's speed) does not change it; later passes are recorded.
        "peak_rss_mb": (tally.peak_rss_mb[0], "MB"),
    }
    extra = {
        "op_ms_tail_percentile": pct,
        "op_samples": len(op_ms),
        "op_samples_beyond_tail": sum(1 for v in op_ms if v > tail),
    }
    return metrics, extra


class LayerStats:
    """Per-pass per-function summaries of a traced run."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.passes: list[dict] = []
        self._seen: dict[str, tuple[int, int]] = {}

    def __call__(self, first_span: int) -> None:
        summary = self.recorder.summary(first_span)
        for name, (calls, improved) in self.recorder.improved.items():
            c0, i0 = self._seen.get(name, (0, 0))
            summary.setdefault(name, {})["improved_frac"] = (improved - i0) / (calls - c0) if calls > c0 else 0.0
            self._seen[name] = (calls, improved)
        self.passes.append(summary)

    def scale(self, factors: list[float]) -> None:
        """Put each pass's self times on the scaled clock of its pass."""
        for summary, factor in zip(self.passes, factors):
            for row in summary.values():
                if "self_ms" in row:
                    row["self_ms"] *= factor

    def median(self, name: str, field: str) -> float:
        return statistics.median(p.get(name, {}).get(field, 0) for p in self.passes)

    def all_functions(self) -> dict:
        names = sorted({name for p in self.passes for name in p})
        fields = ("self_ms", "calls", "errors", "improved_frac")
        return {
            name: {f: self.median(name, f) for f in fields if any(f in p.get(name, {}) for p in self.passes)}
            for name in names
        }


def per_layer(stats: LayerStats, untraced: Tally, traced: Tally) -> dict:
    from spans import IMPROVE_COUNTED

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_ms"] = (stats.median(name, "self_ms"), "ms")
        metrics[f"{name}.calls"] = (stats.median(name, "calls"), "count")
        metrics[f"{name}.errors"] = (stats.median(name, "errors"), "count")
    for name in IMPROVE_COUNTED:
        metrics[f"{name}.improved_frac"] = (stats.median(name, "improved_frac"), "ratio")
    untraced_s = untraced.pass_s()[0]
    traced_s = statistics.median(traced.pass_s())
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, tally: Tally) -> dict:
    import networkx
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_commit": git_commit(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "calibration": {"loops": CAL_LOOPS, "ref_s": CAL_REF_S},
        "totals": {name: {"total": t, "lb": lb} for name, (t, lb) in tally.totals.items()},
    }


def probe_derandomize_float(op) -> dict:
    """Run the real-valued `solve --derandomize` probe once, outside timing.

    derandomize raises TypeError on non-integral instances (a known defect);
    the probe reports it every run and checks the output once it is fixed.
    """
    try:
        result = solve(op)
    except TypeError as exc:
        return {"op": op.name, "status": "known-defect", "error": f"TypeError: {exc}"}
    except Exception as exc:
        return {"op": op.name, "status": "broken", "error": f"{type(exc).__name__}: {exc}"}
    _, problems = check_solved(op, result, *_read_dist(op.path))
    return {"op": op.name, "status": "broken" if problems else "fixed", "problems": problems}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, wall, scaled = timed_setup(args.workload, args.seed, Path(args.setup_probe))
        print(wall, scaled)
        return 0

    OUT.mkdir(exist_ok=True)
    directory = OUT / f"corpus-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, setup_times, setup_walls = timed_setups(args, directory)
        return measure_and_report(args, inputs, setup_times, setup_walls)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure_and_report(args, inputs, setup_times, setup_walls) -> int:
    probe = None
    if args.workload == "check-sweep":
        runner = SweepRunner(*inputs)
    else:
        ops = list(inputs)
        if args.workload == "large-derand":
            probe = probe_derandomize_float(ops.pop())
        runner = SolveRunner(ops)

    tally = Tally()
    record: dict = {"probe": probe}
    if args.trace == 0:
        measure(runner, args.seconds, tally)
        metrics, extra = end_to_end(args.workload, tally, setup_times)
        record.update(extra)
    else:
        from spans import SpanRecorder

        untraced = Tally()
        one_pass(runner, untraced)
        recorder = SpanRecorder()
        stats = LayerStats(recorder)
        recorder.install()
        try:
            measure(runner, args.seconds - untraced.pass_wall_s[0], tally, recorder, stats)
        finally:
            recorder.uninstall()
        stats.scale([s / w for s, w in zip(tally.pass_s(), tally.pass_wall_s)])
        metrics = per_layer(stats, untraced, tally)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        recorder.write(spans_path)
        record["functions"] = stats.all_functions()
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        tally.merge(untraced)

    correct = tally.incorrect == 0 and (probe is None or probe["status"] != "broken")
    failed_frac = tally.failed / tally.attempted
    env = environment(args, tally)
    record.update({
        "environment": env,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": failed_frac,
        "passes": len(tally.pass_wall_s),
        "pass_s_samples": tally.pass_s(),
        "pass_wall_s_samples": tally.pass_wall_s,
        "ops": [
            {"pass": p, "op": name, "start_s": t0, "wall_ms": 1000 * (t1 - t0), "scaled_ms": 1000 * s, "failed": bad}
            for (p, name, t0, t1, bad), s in zip(tally.ops, tally.scaled_s())
        ],
        "calibration": [{"t_s": t, "loop_ms": 1000 * c, "loops": k} for t, c, k in tally.cal],
        "peak_rss_mb_after_each_pass": tally.peak_rss_mb,
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_walls,
        "problems": tally.problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed {args.seed}: {tally.attempted} ops in {len(tally.pass_wall_s)} passes, "
          f"{tally.failed} failed (failed_frac {failed_frac:g})")
    print(f"# raw wall: pass_s median {statistics.median(tally.pass_wall_s):.4f} s, "
          f"setup_s median {statistics.median(setup_walls):.4f} s")
    if args.trace == 0:
        print(f"# op_ms_tail is p{record['op_ms_tail_percentile']:g} of {record['op_samples']} op times "
              f"({record['op_samples_beyond_tail']} beyond it)")
    if probe is not None:
        print(f"# probe solve --derandomize on {probe['op']}: {probe['status']} {probe.get('error', '')}".rstrip())
    for p in tally.problems[:10]:
        print(f"# problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"# environment {json.dumps(env, default=str)}")
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
