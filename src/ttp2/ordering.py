"""Binding template labels to real teams.

A template schedule talks about labels 0..n-1 where labels (2i-2, 2i-1)
form the i-th super-team slot.  A TeamOrdering assigns matching edge
sigma_i to slot i and orients it with bit pi_i.  Because the total distance
of any binding is a fixed linear form over label-pair travel counts, the
conditional expectation under random orderings can be evaluated exactly,
which drives both the derandomization and cheap swap deltas.  The module
reads a template only through its venue matrix, and leaves its cells to
`schedule`: a binding vector renames them with `schedule._relabel`.

`derandomize` fixes the ordering in two phases by the method of conditional
probabilities.  The sigma phase fills slots 0..m-1 in turn, giving each the
free edge with the least expectation over the remaining edges and all
orientations.  The pi phase then sets the bits in slot order, each to the
orientation whose expectation over the open bits is lower; only the terms
touching that slot differ, so a bit costs O(n).  Both phases run on exact
integer weights (floats scaled by a common denominator): in float64 when a
proven bound keeps every value below 2**53, in Python ints otherwise.  So
the chain of expectations is exact and never rises, whatever the magnitude
or type of the distances.  The sigma phase keeps its free-set sums current
as each edge leaves, rather than summing them again every step.

The swap local search runs on the binding vector (label -> team) alone:
each start's ordering becomes its vector once, `polish` takes and returns
a vector, and `run_rounds` returns the winning vector.
After every accepted move the search evaluates the moves it goes on to
scan, many at once, in float64, from P = dist[bind][:, bind] (the c (x) P
delta form of quadratic-assignment local search): all m in-slot flips
with one batched matrix product, or the slot swaps with matrix products
of P and c on BLAS plus one sum of ten gathered leaves per swap.  The swaps
are evaluated in row windows of the sweep from the cursor on, each at
least FIRST_WINDOW moves and twice the one before, until a window holds
an accepted move; a window that reaches the sweep's end is the whole
sweep, so sweeps of up to FIRST_WINDOW moves (n <= 46) are always
evaluated whole.  Each kernel is a fixed linear map of P whose tables are
built once per TravelCoefficients; `_sweep` lists each pass's moves, and
its windows or cells, once per size.  A pass binds each kernel it runs to
the search buffer once, views and NumPy callables alike, and then only
evaluates it: at n <= 40 an evaluation takes a few microseconds, so what
is fixed per call is paid once per pass.
`polish` builds one float64 search buffer [P | At | bind]: P, the At the
swap kernels write, and the vector, the search's only copy of it.  Both
passes take the buffer and keep it current in place: an accepted move
rewrites P's touched rows and columns and bind's touched labels in O(n),
so P is gathered once per `polish`, and `polish` reads the vector out of
the buffer once, when the search ends.  Where the sweep is evaluated
whole (n <= 46), both passes apply a move with one gather and one put
between flat cells of the buffer, P's and bind's alike; above that, where
those lists would grow as m^2 n, with a gather and an assignment for the
rows, again for the columns, and again for the labels.  Both passes
share one first-improvement loop that visits moves in the order of a
pair-by-pair sweep, so the trajectory is that of the sweep.  `polish`
alternates the passes and stops at the first pass, after the first, that
finds no move: each pass ends at a local optimum of its own rule, so the
vector is then a local optimum of both.

One acceptance rule defines the search: a move is taken iff its exact
delta is negative.  The float64 delta lies within `slack` of the exact
one, so the loop visits the moves whose float delta is below +slack in
sweep order: one below -slack is taken at once, and one within slack of
zero only if its exact delta, taken in Python ints on the touched rows, is
negative.  `slack` is 0 on `Instance.float_exact` instances, where float64
is exact, and `_rounding_slack` otherwise.  So the trajectory is that of
an exact search on every machine, whatever order BLAS adds in.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instance import Instance, travel_bound
from .matching import Matching
from .schedule import Schedule, _relabel, total_distance

@dataclass(frozen=True)
class TeamOrdering:
    """sigma: slot -> matching-edge index; pi: orientation bit per slot."""

    sigma: tuple[int, ...]
    pi: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class TravelCoefficients:
    """c[a][b] = number of direct travels between the homes of labels a, b.

    `c` is the one field: the team count is len(c), and the kernel
    constants in `blocks` are derived from c on first use.  Equality and
    hash go by identity.
    """

    c: np.ndarray

    @functools.cached_property
    def blocks(self) -> _KernelBlocks:
        """The float64 constants of the swap and flip kernels."""
        c = self.c.astype(np.float64)
        n, m = len(c), len(c) // 2
        cw = c[0::2, 1::2].diagonal()
        i, j = np.triu_indices(m, 1)
        x, y, a = 2 * i, 2 * j, n * n  # At follows P in the search buffer
        K = cw[i] + cw[j] - c[x, y + 1] - c[y, x + 1]
        one = np.ones_like(K)
        flip = np.concatenate([c[1::2] - c[0::2], c[0::2] - c[1::2]], axis=1)
        flip[np.arange(m), 2 * np.arange(m) + 1] += 2 * cw
        cols = np.concatenate([c[:, 0::2], c[:, 1::2]])
        return _KernelBlocks(
            cols=cols,
            cols_t=np.ascontiguousarray(cols.T)[:, :, None],
            idx=np.stack([
                a + i * m + j, a + j * m + i, a + i * m + i, a + j * m + j,  # At[i,j], At[j,i], At[i,i], At[j,j]
                x * n + y, (x + 1) * n + y + 1, x * n + x + 1, y * n + y + 1, x * n + y + 1, y * n + x + 1,
            ]),
            coef=np.stack([one, one, -one, -one, 2 * c[x, y], 2 * c[x + 1, y + 1], K, K, -K, -K]),
            flip=flip[:, :, None],
        )


def random_ordering(m: int, seed: int) -> TeamOrdering:
    """Uniform permutation and orientation bits from a seeded generator.

    The seed is read with `operator.index`: a NumPy integer draws the
    ordering of the equal int, and a float raises TypeError.  CPython seeds
    with |seed|, so a negative seed is seeded from its text instead (hashed
    with SHA-512, the same in every process): it draws its own ordering, not
    that of -seed.
    """
    seed = operator.index(seed)
    rng = random.Random(seed if seed >= 0 else str(seed))
    sigma = list(range(m))
    rng.shuffle(sigma)
    pi = tuple(rng.randrange(2) for _ in range(m))
    return TeamOrdering(sigma=tuple(sigma), pi=pi)


def extract_coefficients(template: Schedule) -> TravelCoefficients:
    """Count every team's travels between consecutive venues of its walk."""
    n = template.n
    v = template.venues
    c = np.bincount((v[:, :-1] * n + v[:, 1:]).ravel(), minlength=n * n).reshape(n, n)
    c = c + c.T
    np.fill_diagonal(c, 0)  # staying at a venue is no travel
    return TravelCoefficients(c=c)


def binding_vector(matching: Matching, ordering: TeamOrdering) -> list[int]:
    """bind[label] = real team; slot i gets edge sigma_i oriented by pi_i."""
    bind = [0] * (2 * len(ordering.sigma))
    for i, (edge_idx, bit) in enumerate(zip(ordering.sigma, ordering.pi)):
        a, b = matching.pairs[edge_idx]
        first, second = (a, b) if bit == 0 else (b, a)
        bind[2 * i] = first
        bind[2 * i + 1] = second
    return bind


def bind_template(template: Schedule, matching: Matching, ordering: TeamOrdering) -> Schedule:
    """Rename template labels to real teams according to the ordering."""
    return _relabel(template, binding_vector(matching, ordering))


def coefficient_total(coeffs: TravelCoefficients, inst: Instance, bind: list[int]) -> object:
    """Total distance of a binding straight from the linear form.

    Summed over `Instance.sum_dist`: exact on integer instances, in float64
    on real-valued ones.
    """
    perm = np.array(bind)
    tot = (coeffs.c * inst.sum_dist.take(perm, 0).take(perm, 1)).sum()  # every travel is counted from both ends
    return int(tot) // 2 if inst.integral else float(tot) / 2


# ---------------------------------------------------------------------------
# Derandomization by conditional expectations (exact integer arithmetic).
# ---------------------------------------------------------------------------

def _derandomize_in_float64(n: int, w_max) -> bool:
    """Whether `derandomize` is exact in float64 on n teams with weights up to w_max.

    True when m(m + 1) T < 2**54, with m = n/2 and T = travel_bound(n, w_max):
    every value `derandomize` forms in arrays is then an integer below 2**53
    in magnitude.  float64 holds each one, and an operation whose exact
    result float64 holds returns it (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 2), so the sums may run in any order and
    every comparison and chain entry is that of Python ints.

    Let C = sum(c) <= 2n(2n-1), so 4 C w_max <= T.  The CP[i] and the
    CS[i, j], i < j, add up to C / 2; SD <= 4 w_max and PD <= w_max.  Write
    a numerator of step s, with k = m - s free edges, as a signed sum of
    coefficient * weight terms.  Each CP[i] or CS[i, j] meets weights of
    absolute sum at most 4 w_max m(m + 1): 4 w_max times f1 f2 <= m^2 in
    the plain part; k + 1 terms of 4 w_max times f2, f2 (k + 1) <= m^2, in
    the part averaged over one free edge; (k - 1)(k + 2) terms of 4 w_max,
    ff_sum less 2 row_f[e], in the part averaged over pairs.  So every
    partial result, in any order, lies within 2 m(m + 1) C w_max <=
    m(m + 1) T / 2, and the running aggregates far below.  The pi phase's
    sums stay within 2 C w_max <= T / 2.  Step 0's sum of m numerators, up
    to about m^3 T / 2, is taken in Python ints.
    """
    m = n // 2
    return m * (m + 1) * travel_bound(n, w_max) < 2**54


def derandomize(coeffs: TravelCoefficients, inst: Instance, matching: Matching):
    """Fix sigma then pi greedily so the conditional expectation never rises.

    Returns (ordering, chain of expectations); chain values are exact
    Fractions of E[W] in the instance's units after each of the 2m fixing
    steps (entry 0 is the unconditioned expectation).  The steps run on the
    exact integer weights: in float64 when `_derandomize_in_float64` holds,
    in Python ints (object arrays) otherwise.
    """
    m = inst.n // 2
    W, scale = inst.exact_weights
    if _derandomize_in_float64(inst.n, Fraction(inst.d_max) * scale):
        W = inst.float_dist if scale == 1 else W.astype(np.float64)
        c = coeffs.c.astype(np.float64)
    else:
        c = coeffs.c.astype(object)
    X = np.array([a for a, _ in matching.pairs])
    Y = np.array([b for _, b in matching.pairs])

    # Slot aggregates: CS[i, j] sums c over the 2x2 label block of slots i
    # and j, CP[i] is the coefficient between slot i's own two labels.
    CS = c.reshape(m, 2, m, 2).sum(axis=(1, 3))
    np.fill_diagonal(CS, 0)
    CP = c[0::2, 1::2].diagonal()
    # Edge aggregates: SD[e, f] sums the four cross distances of edges e
    # and f, PD[e] is the distance inside edge e.
    SD = W[np.ix_(X, X)] + W[np.ix_(X, Y)] + W[np.ix_(Y, X)] + W[np.ix_(Y, Y)]
    np.fill_diagonal(SD, 0)
    PD = W[X, Y]
    # Sums over the slots after slot s: after[i, s] of CS[i, j] and
    # cp_after[s] of CP[j] for j > s, ff_pairs[s] of CS[i, j] for s < i < j.
    after = CS.sum(axis=1)[:, None] - CS.cumsum(axis=1)
    cp_after = CP.sum() - CP.cumsum()
    ff_pairs = after.diagonal().sum() - after.diagonal().cumsum()

    # Step s fixes slot s.  As each edge leaves the free set, row_f[e] (SD[e, f]
    # over free f), ff_sum (SD over free pairs), pd_free (PD over free edges)
    # and a_const (the terms inside the prefix) are updated.
    row_f = SD.sum(axis=1)
    ff_sum, pd_free, a_const = row_f.sum(), PD.sum(), 0
    assigned: list[int] = []
    free = list(range(m))
    chain: list[Fraction] = []
    for s in range(m):
        # Numerators of E[W | prefix + candidate] for every free edge over the
        # shared denominator 4 k'(k'-1), k' = m - s - 1 (degenerate factors
        # clamped to one), so integer comparison picks the argmin exactly.
        f1, f2 = max(m - s - 1, 1), max(m - s - 2, 1)
        idx, fre = np.array(assigned, dtype=np.intp), np.array(free, dtype=np.intp)
        sd_af, pd_f, csff = SD[np.ix_(idx, fre)], PD[fre], after[:s, s]
        exact = a_const + CS[:s, s] @ sd_af + 4 * CP[s] * pd_f
        # Averaged over the other free edges (k') and over their ordered pairs (k'(k'-1)).
        avg1 = csff @ row_f[idx] - csff @ sd_af + after[s, s] * row_f[fre] + 4 * cp_after[s] * (pd_free - pd_f)
        ff_vec = ff_pairs[s] * (ff_sum - 2 * row_f[fre])
        nums, den = exact * (f1 * f2) + avg1 * f2 + ff_vec, 4 * f1 * f2
        if s == 0:
            chain.append(Fraction(sum(map(int, nums.tolist())), m * den))  # slot 0's edge is uniform
        pick = int(np.argmin(nums))
        chain.append(Fraction(int(nums[pick]), den))
        e = free.pop(pick)
        a_const += 4 * CP[s] * PD[e] + CS[:s, s] @ SD[idx, e]
        assigned.append(e)
        pd_free -= PD[e]
        ff_sum -= 2 * row_f[e]
        row_f -= SD[:, e]

    # Each label has two candidate teams: both endpoints of its slot's edge
    # while the slot's bit is open, its own team twice once the bit is set,
    # so the expected distance from team t to label l is
    # (W[t, L1[l]] + W[t, L2[l]]) / 2.
    L1 = np.repeat(X[assigned], 2)
    L2 = np.repeat(Y[assigned], 2)
    bits: list[int] = []
    expect = chain[-1]
    for s in range(m):
        ends = [L1[2 * s], L2[2 * s]]  # slot s's edge (x, y)
        # M[r, k] = sum over labels l of c[2s+r, l] * (W[ends[k], L1[l]] +
        # W[ends[k], L2[l]]).  Slot s's own labels add c * W[x, y] to both
        # candidates alike, so they cancel in the comparison.
        M = c[2 * s : 2 * s + 2] @ (W[ends][:, L1] + W[ends][:, L2]).T
        s0 = M[0, 0] + M[1, 1]  # bit 0: label 2s gets x, label 2s+1 gets y
        s1 = M[0, 1] + M[1, 0]
        # E[W | bit b] is a shared part plus S_b / 2 and the open bit's
        # expectation is their mean, so the smaller lies |S_0 - S_1| / 4 below.
        b = int(s1 < s0)
        bits.append(b)
        expect -= Fraction(int(abs(s0 - s1)), 4)
        chain.append(expect)
        L1[2 * s] = L2[2 * s] = ends[b]
        L1[2 * s + 1] = L2[2 * s + 1] = ends[1 - b]

    return TeamOrdering(sigma=tuple(assigned), pi=tuple(bits)), [v / scale for v in chain]


# ---------------------------------------------------------------------------
# Swap local search.
# ---------------------------------------------------------------------------

# The fewest swaps a scan evaluates at once (see `_sweep`).  Every
# sweep of up to this many moves, n <= 46, is evaluated whole; at least 190
# keeps n = 40 whole, and smaller windows there cost more than they save.
FIRST_WINDOW = 256


@functools.lru_cache(maxsize=32)  # both passes of 16 sizes
def _sweep(m: int, flips: bool):
    """The tables of one pass over m slots: (src, dst, windows, cells).

    Move q gives labels src[q][r] the teams of labels dst[q][r], one row
    per move in sweep order: the slot swaps, src = (2i, 2i+1, 2j, 2j+1) for
    i < j, or the in-slot flips, src = (2i, 2i+1).  One test sets the rest:
    whether the swap sweep, m(m-1)/2 moves, fits in FIRST_WINDOW (n <= 46).

    If it does, the swaps are evaluated whole, `windows` is None, and both
    passes apply a move with `cells` = (to, fr), the cells of the search
    buffer [P | At | bind] (see `_search_state`) that each move rewrites
    and the cells their new values come from.  Move q maps labels by a
    permutation pi that fixes every other label, so P becomes P[pi][:, pi]
    and bind becomes bind[pi]: only the moved rows s*n + b and the moved
    columns a*n + s of P change, to the cells pi(s)*n + pi(b) and
    pi(a)*n + pi(s), and the moved labels s of bind, at n^2 + m^2 + s, to
    n^2 + m^2 + pi(s).  A cell in both a moved row and a moved column is
    listed twice with the same source, so `buf[to[q]] = buf.take(fr[q])`
    applies the whole move.  `to` and `fr` are tuples of one intp array
    per move, which `take` reads without a cast, so finding a move's
    cells is a tuple lookup, not a new view of a table row.

    Otherwise `cells` is None, as those tables would grow as m^2 n, and the
    swaps have `windows` = (row_start, ends); flips never have windows.
    Row i holds the swaps (i, j), j > i, moves row_start[i]..row_start[i+1]-1.
    A scan from row a evaluates the rows a..ends[a][0]-1, then on to
    ends[a][1], and so on: the first window holds at least FIRST_WINDOW
    moves and each later one at least twice as many as the one before.  The
    last end is m, a window that reaches the sweep's end.

    Every array is read-only, as calls share them.
    """
    if flips:
        src = np.arange(2 * m).reshape(m, 2)
        dst = src[:, [1, 0]]
    else:
        i, j = np.triu_indices(m, 1)
        src = np.stack([2 * i, 2 * i + 1, 2 * j, 2 * j + 1], axis=1)
        dst = src[:, [2, 3, 0, 1]]
    windows = cells = None
    if m * (m - 1) // 2 <= FIRST_WINDOW:  # the swap sweep is evaluated whole
        k, n, ar = len(src), 2 * m, np.arange(2 * m)
        b0 = n * n + m * m  # bind's first cell: it follows P and At
        pi = np.broadcast_to(ar, (k, n)).copy()
        np.put_along_axis(pi, src, dst, axis=1)
        cells = (
            np.concatenate([
                (src[:, :, None] * n + ar).reshape(k, -1),  # the moved rows s*n + b
                (ar[:, None] * n + src[:, None, :]).reshape(k, -1),  # the moved columns a*n + s
                b0 + src,  # the moved labels of bind
            ], axis=1),
            np.concatenate([
                (dst[:, :, None] * n + pi[:, None, :]).reshape(k, -1),
                (pi[:, :, None] * n + dst[:, None, :]).reshape(k, -1),
                b0 + dst,
            ], axis=1),
        )
    elif not flips:
        row_start = tuple(i * (m - 1) - i * (i - 1) // 2 for i in range(m + 1))
        ends = []
        for a in range(m):
            row, b, size = [], a, FIRST_WINDOW
            while b < m:
                b = bisect.bisect_left(row_start, row_start[b] + size)
                b = m if b >= m - 1 else b  # row m-1 holds no move
                row.append(b)
                size *= 2
            ends.append(tuple(row))
        windows = row_start, tuple(ends)
    for a in (src, dst, *(cells or ())):
        a.setflags(write=False)
    if cells is not None:
        cells = tuple(tuple(a) for a in cells)  # one read-only row per move
    return src, dst, windows, cells


@dataclass(frozen=True, eq=False)
class _KernelBlocks:
    """The c-derived constants of the swap and flip kernels: each kernel is
    a fixed linear map of P, built once per template and bound to a search
    buffer once per pass (see `_swap_deltas`).

    `cols` stacks c[:, 0::2] on c[:, 1::2]; `cols_t` holds its columns, one
    (2n, 1) matrix per slot.  `idx` and `coef`, of shape
    (10, m(m-1)/2), hold for every slot pair (i, j), i < j, in sweep order
    the ten leaves of its swap delta, as flat indices into the search
    buffer [P | At | bind] (see `_search_state`) and the coefficients they
    are scaled by: At[i,j] + At[j,i] - At[i,i] - At[j,j], then
    2 c[2i,2j] P[2i,2j] + 2 c[2i+1,2j+1] P[2i+1,2j+1], then
    K_ij (P[2i,2i+1] + P[2j,2j+1] - P[2i,2j+1] - P[2j,2i+1]) with
    K_ij = cw_i + cw_j - c[2i,2j+1] - c[2j,2i+1], cw_i = c[2i,2i+1] (each
    slot's own pair).  `flip` holds one (2n, 1) column per slot: row i of
    [-rows | rows], rows = c[0::2] - c[1::2], with 2 cw_i added at entry
    2i+1.
    """

    cols: np.ndarray
    cols_t: np.ndarray
    idx: np.ndarray
    coef: np.ndarray
    flip: np.ndarray


def _slack(inst: Instance) -> float:
    """The bound on |float64 kernel delta - exact delta| the search uses."""
    return 0.0 if inst.float_exact else _rounding_slack(inst.n, inst.d_max)


@functools.lru_cache(maxsize=64)
def _rounding_slack(n: int, d_max) -> float:
    """A float no smaller than |float64 kernel delta - exact delta| for every
    swap and flip of an n-team binding.

    Write a delta as a signed sum of leaf terms a * d: a coefficient a
    (an entry of c or of a kernel block, an integer float64 holds exactly)
    times one distance d.  In the swap of slots i and j the leaves read the
    c rows of the four labels 2i, 2i+1, 2j, 2j+1, whose sums R4 add up to at
    most sum(c): the four `At` entries give 2 R4 max(d) in magnitude, and
    the six P leaves, whose coefficients are the pairs inside those labels,
    at most 2 R4 max(d).  A flip's leaves add up to at most 3 R2 max(d), R2
    the row sums of its own two labels.  Both stay within
    4 sum(c) max(d) <= travel_bound(n, max(d)), whatever the template.

    Each leaf reaches the result through at most 2n + 10 roundings, each a
    factor 1 + e with |e| <= u = 2**-53 (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 2-3).  An `At` leaf takes `astype(float64)`,
    which rounds integer distances above 2**53; its product; at most 2n - 1
    additions in the length-2n dot product of `At`, in whatever order BLAS
    adds; and 9 additions in the sum of the ten gathered rows (its
    coefficient is +-1, exact).  A P leaf takes the cast, its product with
    `coef` and those 9 additions, 11 in all; a flip leaf the cast, its
    product and at most 2n - 1 additions in its row's dot product, 2n + 1.
    A window of the swap sweep (`_window_deltas`) forms each `At` entry it
    reads as the same length-2n dot product, in a product of row and column
    blocks or as a row of At's diagonal, in whatever order, and sums the
    same ten leaves per swap, so the count holds for it too.
    A product of k such factors is 1 + t with |t| <= gamma_k =
    k u / (1 - k u) (Higham, Lemma 3.1), so the error is at most
    gamma_k * travel_bound.  k = 2n + 16 leaves six to spare.

    That model breaks only where a product underflows: its error is then
    absolute, at most 2**-1075, and at most doubled by the later factors;
    sums never underflow inexactly.  A swap delta has at most 8n + 6
    products that can round and a flip delta 2n, so (8n + 16) * 2**-1074
    covers them.  The sum is rounded up to a float.  Cached, as the search
    asks for it once per pass.
    """
    k = 2 * n + 16
    bound = Fraction(k, 2**53 - k) * travel_bound(n, Fraction(d_max)) + Fraction(8 * n + 16, 2**1074)
    slack = float(bound)
    return slack if slack >= bound else math.nextafter(slack, math.inf)


def _swap_deltas(k: _KernelBlocks, buf):
    """The evaluator of every slot swap (i, j), i < j, bound to the search
    buffer buf [P | At | bind] (see `_search_state`): `evaluate()` returns
    their distance changes in sweep order, from buf's P as it then is.

    P = dist[bind][:, bind] and G = c @ P: moving label a to the team of
    label b changes its row of the linear form by G[a, b] - G[a, a].  A
    swap moves the four labels 2i+r <-> 2j+r (r = 0, 1); their full rows
    also count the pairs inside those four labels, which are replaced by
    half the change of the 4x4 block.  Row j of P.reshape(m, 2n) is rows
    2j and 2j+1 of P side by side, so by symmetry At[j, i] = G[2i, 2j] +
    G[2i+1, 2j+1].  One matrix product writes all of At into buf; each
    delta is then the sum of ten leaves of P and At, gathered from buf by
    `idx` and scaled by `coef` in place.  The views of P and At and the
    NumPy callables are bound here, once per pass, as an evaluation at
    n <= 40 costs only a few microseconds.
    """
    n2, m = k.cols.size, len(k.cols_t)
    P2, At = buf[:n2].reshape(m, -1), buf[n2 : n2 + m * m].reshape(m, m)
    dot, take, reduce, cols, idx, coef = np.dot, buf.take, np.add.reduce, k.cols, k.idx, k.coef

    def evaluate():
        dot(P2, cols, At)
        leaves = take(idx)
        leaves *= coef
        return reduce(leaves, 0)

    return evaluate


def _flip_deltas(k: _KernelBlocks, buf):
    """The evaluator of flipping the two teams inside each slot, bound to
    the search buffer `buf`: `evaluate()` returns their distance changes,
    read from buf's P as it then is.

    For x = 2i, y = 2i+1 this is G[x,y] + G[y,x] - G[x,x] - G[y,y] +
    2 c[x,y] P[x,y]: the dot product of rows x and y of P, side by side,
    with slot i's column of `flip`, all m in one batched matrix product.
    """
    m = len(k.flip)
    P3, matmul, flip = buf[: k.cols.size].reshape(m, 1, -1), np.matmul, k.flip

    def evaluate():
        return matmul(P3, flip).reshape(m)

    return evaluate


def _exact_move_delta(coeffs: TravelCoefficients, inst: Instance, bind, src, dst) -> int:
    """Exact distance change when labels src[r] take the teams of labels dst[r].

    Only the touched label rows of the instance's exact weights are read;
    the change is in units of 1 / scale (see `Instance.exact_weights`).
    """
    W = inst.exact_weights[0]
    new = bind.copy()
    new[src] = bind[dst]
    diff = coeffs.c[src].astype(object) * (W[bind[dst]][:, new] - W[bind[src]][:, bind])
    # Pairs with both labels touched are counted from both ends.
    return diff.sum() - diff[:, src].sum() // 2


def _window_deltas(k: _KernelBlocks, buf):
    """The evaluator of row windows of the swap sweep, bound to the search
    buffer buf [P | At | bind]: `evaluate(rows, moves)` returns the
    `_swap_deltas` of the swaps in rows [r0, r1) of the sweep, moves
    [lo, hi).

    The window's leaves read At[i, j] and At[j, i] for its rows i and
    every j > i, and At[j, j] for every j: rows r0..r1-1 of At from column
    r0 on, columns r0..r1-1 below row r1, and the diagonal below row r1.
    Only those are written; the rest of At is stale.
    """
    m = k.cols.shape[1]
    P2 = buf[: 4 * m * m].reshape(m, -1)
    At = buf[4 * m * m : 5 * m * m].reshape(m, m)
    flat, take, reduce = At.reshape(-1), buf.take, np.add.reduce
    cols, cols_t, idx, coef = k.cols, k.cols_t, k.idx, k.coef

    def evaluate(rows, moves):
        (r0, r1), (lo, hi) = rows, moves
        At[r0:r1, r0:] = P2[r0:r1] @ cols[:, r0:]
        At[r1:, r0:r1] = P2[r1:] @ cols[:, r0:r1]
        flat[r1 * (m + 1) :: m + 1] = (P2[r1:, None] @ cols_t[r1:]).ravel()
        leaves = take(idx[:, lo:hi])
        leaves *= coef[:, lo:hi]
        return reduce(leaves, 0)

    return evaluate


def _first_improvement(buf, coeffs, inst, kernel, sweep):
    """The first-improvement loop of both passes; returns (buf, improved).

    `sweep` is the pass's (src, dst, windows, cells) of `_sweep`: move q
    gives labels src[q][r] the teams of labels dst[q][r], moves in sweep
    order.  The pass binds `kernel` to the search buffer `buf` =
    [P | At | bind] (see `_search_state`) once, and `_window_deltas` too
    where the sweep has windows; each evaluation then reads the buffer as
    it stands.  The loop keeps P and the buffer's bind current in place,
    in O(n) per accepted move q: with `cells` = (to, fr), as one gather of
    buf at fr[q] put at to[q]; without, by permuting P's touched rows,
    then its touched columns, then bind's touched labels.  The loop takes
    the first accepted move at or after the one after the last accepted
    move, applies it and evaluates again; after the last move of the sweep
    it goes on from move 0.  A scan visits each move once, so one that
    wraps stops before the move it began at, and a scan that finds no move
    ends the pass.

    With `windows` a scan evaluates only as far as it reads: the rows of
    its windows from the cursor's row on, one window at a time until one
    holds an accepted move.  A window that reaches the sweep's end is the
    whole sweep, `kernel`'s evaluation, and the same deltas serve the wrap
    to the cursor.  The moves scanned and their order are those of a
    whole-sweep scan.

    A move is accepted iff its exact delta is negative.  The moves whose
    kernel delta lies below +slack are visited in sweep order; one below
    -slack is accepted at once, one in [-slack, slack) if its exact delta
    is negative.  With slack 0 that is the moves with a negative delta.  So
    the exact total falls with every move and the search cannot cycle.
    """
    src, dst, windows, cells = sweep
    n, last, blocks = len(coeffs.c), len(src), coeffs.blocks
    P, tail = buf[: n * n].reshape(n, n), buf[-n:]
    to, fr = cells or (None, None)
    slack = _slack(inst)
    evaluate = kernel(blocks, buf)
    window = None if windows is None else _window_deltas(blocks, buf)

    def first_accepted(deltas, spans, lo=0):
        """The first move to accept in the spans [q, stop) of `deltas`, in
        turn, as a move index: deltas[q] is move lo + q's.  None if none."""
        candidate = (deltas < slack).tobytes()  # one byte per move, 1 for a candidate
        for q, stop in spans:
            while (q := candidate.find(1, q, stop)) >= 0:
                if deltas[q] < -slack or _exact_move_delta(
                    coeffs, inst, tail.astype(np.intp), src[lo + q], dst[lo + q]
                ) < 0:
                    return lo + q
                q += 1
        return None

    def next_move(start):
        """The first move to accept from `start` on, wrapping; None if none."""
        if windows is None:
            return first_accepted(evaluate(), ((start, last), (0, start)))
        row_start, ends = windows
        a = bisect.bisect_right(row_start, start) - 1
        for b in ends[a]:
            lo = row_start[a]
            if b == len(ends):  # the sweep's end
                return first_accepted(evaluate(), ((max(start, lo), last), (0, start)))
            deltas = window((a, b), (lo, row_start[b]))
            if (q := first_accepted(deltas, ((max(start - lo, 0), len(deltas)),), lo)) is not None:
                return q
            a = b

    start, improved = 0, False
    while (q := next_move(start)) is not None:
        if to is None:
            s, t = src[q], dst[q]
            P[s] = P.take(t, 0)
            P[:, s] = P.take(t, 1)
            tail[s] = tail.take(t)
        else:
            buf[to[q]] = buf.take(fr[q])
        start, improved = (q + 1) % last, True
    return buf, improved


def _search_state(bind, inst: Instance):
    """The search buffer of one `polish`, [P | At | bind] in float64:
    P = dist[bind][:, bind], then room for the swap kernels' At (see
    `_KernelBlocks`), then the vector bind, which float64 holds exactly.
    It is the search's only copy of the binding: the passes keep its P and
    bind current move by move, and `polish` reads bind out when it ends.
    A list is read as an array once, for both gathers and the tail."""
    bind, n = np.asarray(bind), len(bind)
    buf = np.empty(n * n + (n // 2) ** 2 + n)
    inst.float_dist.take(bind, 0).take(bind, 1, out=buf[: n * n].reshape(n, n))
    buf[-n:] = bind
    return buf


def swap_super_teams_pass(buf, coeffs: TravelCoefficients, inst: Instance):
    """One full first-improvement sweep over all slot pairs, repeated while
    a sweep improves, on the search buffer of `_search_state`, which it
    updates in place; returns (buf, improved)."""
    return _first_improvement(buf, coeffs, inst, _swap_deltas, _sweep(len(coeffs.c) // 2, False))


def swap_within_pass(buf, coeffs: TravelCoefficients, inst: Instance):
    """First-improvement sweep flipping team order inside each super-team,
    on the search buffer of `_search_state`, which it updates in place;
    returns (buf, improved)."""
    return _first_improvement(buf, coeffs, inst, _flip_deltas, _sweep(len(coeffs.c) // 2, True))


def polish(bind, coeffs: TravelCoefficients, inst: Instance) -> np.ndarray:
    """Alternate the two swapping rules, starting with slot swaps; stops at
    the first pass, after the first, that finds no move.

    Both passes run on one search buffer, built once here; the caller's
    vector is left as it was.  A pass ends at a local optimum of its own
    rule and an idle pass leaves the buffer as it was, so the binding is
    then a local optimum of both.  It is read out of the buffer once, after
    that idle pass, as an integer vector.
    """
    buf = _search_state(bind, inst)
    buf, _ = swap_super_teams_pass(buf, coeffs, inst)
    for rule in itertools.cycle((swap_within_pass, swap_super_teams_pass)):
        buf, improved = rule(buf, coeffs, inst)
        if not improved:
            return buf[-len(bind) :].astype(np.intp)


def run_rounds(
    inst: Instance,
    template: Schedule,
    matching: Matching,
    x: int,
    base_seed: int = 0,
    include_derandomized: bool = False,
):
    """x random restarts, each polished by the two swap rules; best wins.

    Each start's ordering becomes its binding vector once and the search
    runs on vectors.  Returns (bind, schedule, DistanceReport) for the
    winning vector bind (label -> team, as `binding_vector` gives it).
    """
    if x < 1:
        raise ValueError("round count must be >= 1")
    m = inst.n // 2
    coeffs = extract_coefficients(template)
    starts = [random_ordering(m, base_seed + r) for r in range(x)]
    if include_derandomized:
        starts.append(derandomize(coeffs, inst, matching)[0])

    best = None
    best_total = None
    for ordering in starts:
        bind = polish(binding_vector(matching, ordering), coeffs, inst)
        total = coefficient_total(coeffs, inst, bind)
        if best_total is None or total < best_total:
            best_total = total
            best = bind
    schedule = _relabel(template, best)
    return best.tolist(), schedule, total_distance(schedule, inst)
