"""Schedule data model, feasibility validation and distance accounting.

A schedule is an n x (2n-2) table of signed opponents: entry +j in row i
means team i plays at the home of team j, entry -j means team i hosts
team j.  Opponent numbers in the table are 1-based; all function arguments
and itineraries use 0-based team indices.  This module is the one that
reads or writes that encoding: other modules build a schedule with
`games_to_schedule` or `_relabel` (a template renamed by a binding
vector) and read it through `table` as a whole, `venues` and
`itinerary_of`.

Its one array form is the venue matrix: row i is team i's walk, its home,
the host of each day and its home again (n x 2n, 0-based).  Validation,
distances and the travel coefficients are whole-array operations on the
table and this matrix.  Validation makes a fixed number of passes for any
run bound k: it finds each run's start and flags day k + 1 of every run
longer than k.  Rendering gathers one fixed-width byte slot per cell, the
label's text padded with NULs and a comma, and drops the NULs.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .instance import Instance, _int64_copy


@dataclass(frozen=True, eq=False)
class Schedule:
    """An n x (2n-2) table; n and the day count are read from its shape.
    Equality and hash go by identity."""

    table: np.ndarray  # shape (n, 2n-2), signed 1-based opponents

    def __post_init__(self):
        t = _int64_copy(self.table, FormatError, "table")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        if t.ndim != 2 or t.shape[1] != 2 * len(t) - 2:
            raise FormatError(f"table shape {t.shape} is not n x (2n-2)")

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def days(self) -> int:
        return 2 * self.n - 2

    @functools.cached_property
    def venues(self) -> np.ndarray:
        """Venue matrix: home, the host of each day, home; read-only.

        A day's venue is the opponent on away days (cell > 0) and the team
        itself otherwise, a cell of 0 included.
        """
        t = self.table
        home = np.arange(self.n)[:, None]
        v = np.hstack([home, np.where(t > 0, t - 1, home), home])
        v.setflags(write=False)
        return v


@dataclass(frozen=True)
class FeasibilityReport:
    """Every violation found; the schedule is feasible when there is none."""

    violations: tuple[tuple[str, int, int], ...]  # (property, team, day), 0-based

    @property
    def feasible(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DistanceReport:
    """Each team's walk length; the total is their sum.  No LB gap (see cli)."""

    per_team: tuple

    @property
    def total(self):
        return sum(self.per_team)


def games_to_schedule(n: int, days) -> Schedule:
    """Assemble a table from (visitor, host) 0-based games, n/2 on each day.

    `days` is a (2n-2, n/2, 2) array or the same as nested lists.  Only the
    array's shape is checked here; `validate_schedule` checks the games, and
    reports a self game or a team playing twice on a day as fixed-game-time.
    """
    try:
        games = np.array(days, dtype=np.int64)
    except ValueError as exc:
        raise FormatError("days do not all hold the same number of games") from exc
    if games.shape != (2 * n - 2, n // 2, 2):
        raise FormatError(f"expected {2 * n - 2} days of {n // 2} games, got shape {games.shape}")
    away, home = games[..., 0], games[..., 1]
    table = np.zeros((n, 2 * n - 2), dtype=np.int64)
    day = np.arange(2 * n - 2)[:, None]
    table[away, day] = home + 1
    table[home, day] = -(away + 1)
    return Schedule(table)


def _relabel(template: Schedule, bind) -> Schedule:
    """Rename template label l to real team bind[l]."""
    bind = np.asarray(bind)
    t = template.table
    opp = bind[np.abs(t) - 1] + 1
    table = np.zeros_like(t)
    table[bind] = np.where(t > 0, opp, -opp)
    return Schedule(table)


def validate_schedule(s: Schedule, k: int = 2) -> FeasibilityReport:
    """Check the feasibility properties; collect every violation.

    Violations come property by property, each in row-major order.
    Direct-traveling is a convention of the distance model and is not a
    table property, so it is not checked here.  `k` is read with
    `operator.index`; raises TypeError for a float k and ValueError for
    k < 1.

    Each property takes a few whole-table passes.  Bounded-by-k works on
    run starts: a run that starts at flat cell p and holds more than k days
    (the next start lies beyond p + k) reaches k + 1 at p + k.  Day 0 of
    every row starts a run, so no run crosses a row end and the cost does
    not grow with k.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"run bound k must be >= 1, got {k}")
    n, t, days = s.n, s.table, s.days
    k = min(k, days)  # no run is longer than a row; keeps k within int64
    teams = np.arange(1, n + 1)[:, None]  # 1-based, as in the table
    away = t > 0
    # x - 1 read unsigned is below n exactly for x in 1..n.  So a cell of 0
    # names no team, and neither does -2**63, whose np.abs stays negative.
    opp = np.abs(t) - 1
    no_team = opp.view(np.uint64) >= n

    # Shape / mirror consistency ("fixed-game-time"): a real opponent whose
    # cell on the same day names this team with the opposite sign.  A self
    # game fails the mirror test, as its mirror is the cell itself.
    mirror = t.ravel().take(opp.clip(0, n - 1) * days + np.arange(days))
    bad_time = no_team | (mirror != np.where(away, -teams, teams))

    # Each ordered pair appears exactly once as an away game ("fixed-game-value"):
    # the away cells in 1..n, row-major, as flat (team, host) indices.
    played = (t - 1).view(np.uint64) < n
    pairs = t[played] - 1
    pairs += np.repeat(np.arange(0, n * n, n), np.count_nonzero(played, axis=1))
    bad_value = np.bincount(pairs, minlength=n * n).reshape(n, n) != 1
    np.fill_diagonal(bad_value, False)

    # No two consecutive days against the same opponent ("no-repeat").
    repeat = np.zeros_like(away)
    np.equal(opp[:, 1:], opp[:, :-1], out=repeat[:, 1:])

    # At most k consecutive home or away games ("bounded-by-k"): flag the day
    # a run reaches k + 1.  A cell of 0 counts as home.
    starts = np.ones_like(away)
    np.not_equal(away[:, 1:], away[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    long_run = np.zeros_like(away)
    long_run.ravel()[first[np.diff(first, append=t.size) > k] + k] = True

    checks = (
        ("fixed-game-time", bad_time),
        ("fixed-game-value", bad_value),
        ("no-repeat", repeat),
        ("bounded-by-k", long_run),
    )
    violations = tuple(
        (name, i, j)
        for name, mask in checks
        if mask.any()
        for i, j in np.argwhere(mask).tolist()
    )
    return FeasibilityReport(violations)


def total_distance(s: Schedule, inst: Instance) -> DistanceReport:
    """Sum of direct travels along every team's venue sequence.

    Each team's legs are added in walking order by `Instance.row_sums`,
    the one rule for every reported distance sum, so integer totals are
    exact, real-valued totals are those of a walk, and a walk of -0.0 legs
    reads 0.0 as its LB row does.  Every command reports this total.
    Raises ValidationError when the team counts differ.
    """
    if s.n != inst.n:
        raise ValidationError(f"schedule has {s.n} teams, instance has {inst.n}")
    v = s.venues
    # A 2-D gather, not a flat take: an away venue past the last team must
    # raise IndexError, where a flat index would read another row's cell.
    return DistanceReport(tuple(inst.row_sums((v[:, :-1], v[:, 1:]))))


def itinerary_of(s: Schedule, team: int) -> list[list[int]]:
    """Road trips of a team: maximal away blocks as visited-opponent lists.

    `team` is read with `operator.index`: a float raises TypeError, and a
    bool or a NumPy integer reads as the equal int.  Raises IndexError for
    a team outside 0..n-1; a negative index would otherwise read another
    team's row."""
    team = operator.index(team)
    if not 0 <= team < s.n:
        raise IndexError(f"team {team} is not in 0..{s.n - 1}")
    trips: list[list[int]] = []
    current: list[int] = []
    for e in s.table[team].tolist():
        if e > 0:
            current.append(e - 1)
        elif current:
            trips.append(current)
            current = []
    if current:
        trips.append(current)
    return trips


def render_schedule(s: Schedule) -> str:
    """CSV with one row per team and cells +j / -j (1-based opponents).

    Every cell takes a slot of the same width: the text of its label in
    -n..n, 0 included, padded with NULs and then a comma.  The slots of a
    row end in a newline instead, and the NULs are dropped.  A cell outside
    -n..n takes a marker slot, replaced afterwards by the cell's own text.
    """
    n, t = s.n, s.table
    if not s.days:
        return "\n" * n
    # The 2n + 1 label slots, then a marker slot: cells below -n clip to
    # slot -1 and cells above n to slot 2n + 1.  No label holds the marker.
    width = len(str(-n)) + 1
    labels = [_cell_text(v) for v in range(-n, n + 1)] + ["\x01"]
    slots = b"".join(label.encode().ljust(width - 1, b"\0") + b"," for label in labels)
    cells = np.frombuffer(slots, dtype=f"V{width}").take(np.clip(t, -n - 1, n + 1) + n)
    cells = cells.view(np.uint8)
    cells[:, -1] = ord("\n")
    text = cells.tobytes().translate(None, b"\0").decode()
    if "\x01" not in text:
        return text
    own = [_cell_text(v) for v in t[(t < -n) | (t > n)].tolist()] + [""]
    return "".join(part + cell for part, cell in zip(text.split("\x01"), own))


def _cell_text(v: int) -> str:
    return f"+{v}" if v > 0 else str(v)


# A cell: an optional sign and ASCII digits, with whitespace around them;
# the integers np.loadtxt reads.
_CELL = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_schedule_csv(text: str) -> Schedule:
    """Schedule from the CSV that render_schedule writes.

    Lines end at LF, CRLF or CR.  Blank lines are skipped; every other line
    is a team's row of 2n-2 comma-separated cells, each naming a team in
    -n..n (0 is read, and left to validate_schedule).  Raises FormatError
    naming the first bad cell or row.
    """
    rows = [line for line in _lines(text) if line.strip()]
    if not rows:
        raise FormatError("empty schedule CSV")
    n = len(rows)
    try:
        t = np.loadtxt(rows, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        t = None
    if t is None or t.shape[1] != 2 * n - 2 or ((t > n) | (t < -n)).any():
        raise FormatError(_csv_error(text, n))
    return Schedule(t)


def _lines(text: str) -> list[str]:
    r"""The lines of a CSV, split at LF, CRLF and CR only.  str.splitlines
    would also split at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029,
    which are whitespace inside a cell.  A regex split, or replacing the
    CRs in text that has none, takes longer than the split itself on a
    rendered n = 120 table."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _csv_error(text: str, n: int) -> str:
    """The first fault of a CSV of n rows that parse_schedule_csv rejects."""
    for line, row in enumerate(_lines(text), 1):
        if not row.strip():
            continue
        cells = row.split(",")
        for column, cell in enumerate(cells, 1):
            if not _CELL.fullmatch(cell):
                return f"bad cell {cell.strip()!r} (line {line}, column {column})"
            if abs(int(cell)) > n:
                return f"cell {int(cell):+d} names no team of {n} (line {line}, column {column})"
        if len(cells) != 2 * n - 2:
            return f"line {line} has {len(cells)} cells; {n} teams need {2 * n - 2}"
    return "malformed schedule CSV"
