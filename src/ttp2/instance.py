"""Instance model and plain-text (de)serialization of distance matrices.

An instance is a symmetric n x n matrix of non-negative distances between
team home venues, with a zero diagonal and an even number of teams.  The
text format is whitespace-separated numbers, either a leading team count
followed by the n*n entries row-major, or a bare k*k block.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import FormatError, ValidationError


@dataclass(frozen=True, eq=False)
class Instance:
    """A TTP instance: team count and the distance matrix.

    `n` is read with `operator.index` and kept as a Python int; a float or
    a string raises ValidationError.
    `dist` is kept as an int64 copy of integer distances or a float64 copy
    of real ones; any other dtype, or an unsigned value past int64, raises
    ValidationError.  `integral` follows the dtype of `dist`: True for
    integer distances.
    Passing a value that contradicts the dtype raises ValidationError.
    `d_max` is the largest distance, a Python int or float, kept from
    validation.  There is no per-cell accessor: loops read one
    `dist.tolist()` table, whose entries are the same Python scalars.
    Equality and hash go by identity.
    """

    n: int
    dist: np.ndarray
    integral: bool | None = None
    d_max: object = field(init=False, repr=False)

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise ValidationError(f"team count must be an integer, got {type(self.n).__name__}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dist", _frozen(self.dist))
        object.__setattr__(self, "d_max", _validate(self.n, self.dist))
        integral = self.dist.dtype.kind in "iu"
        if self.integral not in (None, integral):
            raise ValidationError(
                f"integral={self.integral} contradicts distances of dtype {self.dist.dtype}"
            )
        object.__setattr__(self, "integral", integral)

    @functools.cached_property
    def float_exact(self) -> bool:
        """Whether float64 computes every total and swap delta exactly.

        The one exactness rule: travel_bound(n, scale * max(d)) < 2**53, with
        `scale` from `exact_weights` (1 for integers, a power of two for
        floats).  Every partial sum of a total or of either kernel, for any
        template, is then an integer multiple of 1 / scale below 2**53 / scale
        in magnitude, which float64 holds exactly, in whatever order it is
        added.
        """
        scale = 1 if self.integral else self.exact_weights[1]
        return travel_bound(self.n, Fraction(self.d_max) * scale) < 2**53

    @functools.cached_property
    def float_dist(self) -> np.ndarray:
        """`dist` in float64, read-only; integer distances are converted once."""
        if self.dist.dtype == np.float64:
            return self.dist
        d = self.dist.astype(np.float64)
        d.setflags(write=False)
        return d

    @functools.cached_property
    def sum_dist(self) -> np.ndarray:
        """The distances that `row_sums` and the triangle scan read: `dist`,
        or the exact Python-int weights of an integer instance that is not
        `float_exact`.

        int64 sums of `dist` are exact when `float_exact` holds, whose bound
        keeps every total far inside int64; real-valued totals sum in float64.
        """
        return self.exact_weights[0] if self.integral and not self.float_exact else self.dist

    def row_sums(self, index) -> list:
        """Row sums of ``sum_dist[index]`` (a 2-D selection).

        The one rule for every reported distance sum (walks, LB rows, D_G
        and D_M): each row is added left to right, from 0, as ``sum()`` adds
        it up to Python 3.11.  On int64 and object rows the sums are exact
        integers.
        """
        # A float cumsum starts at its first term, not at 0; that differs
        # from sum() only when every term is -0.0, and adding 0 maps that
        # -0.0 to 0.0 and leaves every other value as it is.
        return (np.cumsum(self.sum_dist[index], axis=1)[:, -1] + 0).tolist()

    @functools.cached_property
    def exact_weights(self) -> tuple[np.ndarray, int]:
        """Distances as exact Python ints, with the scale that produced them.

        Returns (w, scale) with w == scale * dist exactly, as a read-only
        object array built on first use.  Integer instances have scale 1;
        floats are binary fractions, so scaling by the least common multiple
        of their denominators makes them integers.
        """
        if self.integral:
            w, scale = self.dist.astype(object), 1
        else:
            ratios = [x.as_integer_ratio() for x in self.dist.ravel().tolist()]
            scale = math.lcm(*(q for _, q in ratios))
            w = np.array([p * (scale // q) for p, q in ratios], dtype=object).reshape(self.dist.shape)
        w.setflags(write=False)
        return w, scale


def _frozen(dist: np.ndarray) -> np.ndarray:
    """A read-only copy of dist: int64 for integer dtypes, float64 for
    real ones; ValidationError for any other dtype."""
    a = np.asarray(dist)
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"distances of dtype {a.dtype}: expected integers or reals")
    a = a.astype(np.float64) if a.dtype.kind == "f" else _int64_copy(a, ValidationError, "distances")
    a.setflags(write=False)
    return a


def _int64_copy(values, error: type[Exception], what: str) -> np.ndarray:
    """values as a new int64 array in C order, whatever the layout of
    values (`validate_schedule` writes through ravel views); error, naming
    the dtype, unless they are of an integer dtype, and unless every
    unsigned value fits in int64."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        raise error(f"{what} of dtype {a.dtype}: expected integers")
    if a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int64).max:
        raise error(f"{what} of dtype {a.dtype}: {a.max()} does not fit in int64")
    return a.astype(np.int64, order="C")


def _validate(n: int, dist: np.ndarray):
    """Raise ValidationError unless dist is a valid n-team matrix; returns max(dist)."""
    if n < 4 or n % 2 != 0:
        raise ValidationError(f"team count must be even and >= 4, got {n}")
    if dist.shape != (n, n):
        raise ValidationError(f"distance matrix shape {dist.shape} does not match n={n}")
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distance matrix contains non-finite entries")
    # Report the cell a row-major scan of the upper triangle meets first.
    bad = np.triu((dist < 0) | (dist != dist.T), 1)
    np.fill_diagonal(bad, np.diagonal(dist) != 0)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        if i == j:
            raise ValidationError(f"diagonal entry ({i},{i}) is {dist[i, i]}, expected 0")
        if dist[i, j] < 0:
            raise ValidationError(f"negative distance at ({i},{j}): {dist[i, j]}")
        raise ValidationError(f"asymmetry at ({i},{j}): {dist[i, j]} != {dist[j, i]}")
    d_max = dist.max().item()
    if travel_bound(n, d_max) >= sys.float_info.max:
        raise ValidationError(
            f"distances up to {d_max} overflow float64 totals: 8n(2n-1)*max(d) must stay below {sys.float_info.max}"
        )
    return d_max


def travel_bound(n: int, d_max):
    """8n(2n-1) * max(d): a bound on the magnitude of every total and swap delta.

    A binding's total is sum(c * P) / 2 for the travel coefficients c and
    the bound distances P, and a swap delta is the difference of two such
    sums, so neither exceeds 4 * sum(c) * max(d); nor does any partial sum
    of the swap and flip kernels, in the matrix product or the sum of
    gathered leaves, as each is a signed sum of leaf terms whose magnitudes
    add up to at most that (see `ordering._rounding_slack`).  Any n-team template's coefficients add up to at
    most 2n(2n-1): each of the n walks has at most 2n-1 legs, each counted
    from both ends.  ``Instance`` keeps the bound below the float64
    maximum, and `Instance.float_exact` is decided by it.
    """
    return 8 * n * (2 * n - 1) * d_max


@dataclass(frozen=True)
class MetricReport:
    """Result of a triangle-inequality scan (report only)."""

    triangle_violations: int
    max_violation: float


def parse_instance(text: str) -> Instance:
    """Parse a whitespace-separated distance matrix.

    Accepts either ``n`` followed by n*n entries, or exactly k*k entries for
    some integer k.  When the first token is a positive integer and the rest
    is exactly first**2 entries, the leading-count form wins (1 + k*k tokens
    are a perfect square only for k = 0), and `Instance` checks the count.
    """
    tokens = text.split()
    if not tokens:
        raise FormatError("empty input")
    if not text.isascii() or "_" in text:
        # int() and float() also read "1_0" and non-ASCII digits; the format
        # does not.  Non-ASCII whitespace only separates tokens.
        bad = next((tok for tok in tokens if not tok.isascii() or "_" in tok), None)
        if bad is not None:
            raise FormatError(f"non-numeric token {bad!r}: numbers are ASCII, without '_'")
    values = []
    integral = True
    int64 = np.iinfo(np.int64)
    lo, hi = int64.min, int64.max  # locals: the loop below runs once per token
    for tok in tokens:
        try:
            value = int(tok)
        except ValueError:
            try:
                value = float(tok)
            except ValueError:
                raise FormatError(f"non-numeric token {tok!r}") from None
            integral = False
        else:
            if not lo <= value <= hi:
                raise FormatError(f"integer token {tok!r} does not fit in 64 bits")
        values.append(value)

    first = values[0]
    rest = len(values) - 1
    if isinstance(first, int) and first > 0 and rest == first * first:
        n = first
        body = values[1:]
    else:
        k = round(len(values) ** 0.5)
        if k * k == len(values):
            n = k
            body = values
        else:
            raise FormatError(
                f"token count {len(values)} is neither 1+n^2 nor a perfect square"
            )

    dtype = np.int64 if integral else np.float64
    dist = np.array(body, dtype=dtype).reshape(n, n)
    return Instance(n=n, dist=dist, integral=integral)


def write_instance(inst: Instance) -> str:
    """Canonical text form: the team count, then one row per line."""
    lines = [str(inst.n)] + [" ".join(map(str, row)) for row in inst.dist.tolist()]
    return "\n".join(lines) + "\n"


def check_metric(inst: Instance) -> MetricReport:
    """Exhaustive O(n^3) scan for triangle violations; never raises.

    Symmetry and the zero diagonal need no scan: `Instance` rejects any
    other matrix.  The scan reads `Instance.sum_dist`, so `float_exact` is
    the one rule choosing int64 or exact Python ints here as for every
    total: where it holds, every excess, within 2 * d_max of zero, lies far
    inside int64.  Real-valued instances scan in float64.
    """
    d = inst.sum_dist
    n = inst.n
    violations = 0
    worst = 0
    stopover = ~np.eye(n, dtype=bool)
    for i in range(n):
        # excess[j, h] = dist[i][j] - (dist[i][h] + dist[h][j]) for the
        # stopovers h other than i and j, from every origin i.
        excess = d[i][:, None] - (d[i][None, :] + d.T)
        bad = (excess > 0) & stopover
        bad[i, :] = bad[:, i] = False
        violations += int(np.count_nonzero(bad))
        if bad.any():
            worst = max(worst, excess[bad].max(keepdims=True).item())
    return MetricReport(triangle_violations=violations, max_violation=worst)
