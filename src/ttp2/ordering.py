"""Binding template labels to real teams.

A template schedule talks about labels 0..n-1 where labels (2i-2, 2i-1)
form the i-th super-team slot.  A TeamOrdering assigns matching edge
sigma_i to slot i and orients it with bit pi_i.  Because the total distance
of any binding is a fixed linear form over label-pair travel counts, the
conditional expectation under random orderings can be evaluated exactly,
which drives both the derandomization and cheap swap deltas.

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
each start's ordering becomes its vector once, the passes and `polish`
take and return vectors, and `run_rounds` returns the winning vector.
After every accepted move the search evaluates the whole neighbourhood of
a pass in one array pass: all m(m-1)/2 slot swaps, or all m in-slot
flips, from P = dist[bind][:, bind] and G = c @ P (as in
quadratic-assignment local search), in float64 on BLAS.
The kernels' c-derived blocks are built once per TravelCoefficients.
Each pass gathers P once and keeps it current in place: an accepted move
permutes its touched rows and columns in O(n).  Both passes share one
first-improvement loop that visits moves in the order of a pair-by-pair
sweep, so the trajectory is that of the sweep.  `polish` alternates the
passes and stops at the first pass, after the first, that finds no move:
each pass ends at a local optimum of its own rule, so the vector is then a
local optimum of both.

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

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .instance import Instance, travel_bound
from .matching import Matching
from .schedule import Schedule, total_distance

@dataclass(frozen=True)
class TeamOrdering:
    """sigma: slot -> matching-edge index; pi: orientation bit per slot."""

    sigma: tuple[int, ...]
    pi: tuple[int, ...]


@dataclass(frozen=True)
class TravelCoefficients:
    """c[a][b] = number of direct travels between the homes of labels a, b."""

    n: int
    c: np.ndarray

    @functools.cached_property
    def blocks(self) -> _KernelBlocks:
        """The float64 constants of the swap and flip kernels."""
        c = self.c.astype(np.float64)
        m = self.n // 2
        c01 = c[0::2, 1::2]
        cw = c01.diagonal()
        i, j = np.triu_indices(m, 1)
        return _KernelBlocks(
            cols=np.concatenate([c[:, 0::2], c[:, 1::2]]),
            same=(c[0::2, 0::2], c[1::2, 1::2]),
            cross=cw[:, None] + cw - c01 - c01.T,
            rows=c[0::2] - c[1::2],
            own=2 * cw,
            upper=i * m + j,
        )


def random_ordering(m: int, seed: int) -> TeamOrdering:
    """Uniform permutation and orientation bits from a seeded generator."""
    rng = random.Random(seed)
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
    return TravelCoefficients(n=n, c=c)


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


def _relabel(template: Schedule, bind) -> Schedule:
    """Rename template label l to real team bind[l]."""
    bind = np.asarray(bind)
    t = template.table
    opp = bind[np.abs(t) - 1] + 1
    table = np.zeros_like(t)
    table[bind] = np.where(t > 0, opp, -opp)
    return Schedule(n=template.n, table=table)


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

@functools.lru_cache(maxsize=16)
def _pass_moves(m: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The labels each move of a pass moves, one row per move in sweep order.

    Returns (src, dst) of the slot swaps, src = (2i, 2i+1, 2j, 2j+1) for
    i < j, and of the in-slot flips, src = (2i, 2i+1); move q gives labels
    src[q][r] the teams of labels dst[q][r].  Read-only, as calls share them.
    """
    i, j = np.triu_indices(m, 1)
    x = 2 * np.arange(m)
    swaps = np.stack([2 * i, 2 * i + 1, 2 * j, 2 * j + 1], axis=1)
    flips = np.stack([x, x + 1], axis=1)
    moves = (swaps, swaps[:, [2, 3, 0, 1]]), (flips, flips[:, [1, 0]])
    for a in itertools.chain(*moves):
        a.setflags(write=False)
    return moves


@dataclass(frozen=True)
class _KernelBlocks:
    """The c-derived constants of the swap and flip kernels.

    `cols` stacks c[:, 0::2] on c[:, 1::2]; `same` holds c[0::2, 0::2]
    and c[1::2, 1::2]; `cross` is K = cw_i + cw_j - c01 - c01^T, where
    c01 = c[0::2, 1::2] and cw is its diagonal (each slot's own pair);
    `rows` is c[0::2] - c[1::2] and `own` is 2 cw.  `upper` holds the flat
    indices of the slot pairs (i, j), i < j, in sweep order.
    """

    cols: np.ndarray
    same: tuple[np.ndarray, np.ndarray]
    cross: np.ndarray
    rows: np.ndarray
    own: np.ndarray
    upper: np.ndarray


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
    the `cross` and `same` terms, whose coefficients are the pairs inside
    those labels, at most 2 R4 max(d).  A flip's leaves add up to at most
    3 R2 max(d), R2 the row sums of its own two labels.  Both stay within
    4 sum(c) max(d) <= travel_bound(n, max(d)), whatever the template.

    Each swap leaf reaches the result through at most 2n + 6 roundings,
    each a factor 1 + e with |e| <= u = 2**-53 (Higham, "Accuracy and
    Stability of Numerical Algorithms", ch. 2-3): `astype(float64)`, which
    rounds integer distances above 2**53; its product; at most 2n - 1
    additions in the length-2n dot product of `At`, in whatever order BLAS
    adds; the diagonal subtraction; the three `+=`; and H + H^T.  A flip
    leaf takes at most n + 3.  A product of k such factors is 1 + t with
    |t| <= gamma_k = k u / (1 - k u) (Higham, Lemma 3.1), so the error is
    at most gamma_k * travel_bound.  k = 2n + 16 leaves ten to spare.

    That model breaks only where a product underflows: its error is then
    absolute, at most 2**-1075, and at most doubled by the later factors;
    sums never underflow inexactly.  A delta has at most 8n + 6 products,
    so (8n + 16) * 2**-1074 covers them.  The sum is rounded up to a float.
    Cached, as the search asks for it once per pass.
    """
    k = 2 * n + 16
    bound = Fraction(k, 2**53 - k) * travel_bound(n, Fraction(d_max)) + Fraction(8 * n + 16, 2**1074)
    slack = float(bound)
    return slack if slack >= bound else math.nextafter(slack, math.inf)


def _swap_deltas(k: _KernelBlocks, P):
    """Distance change of every slot swap (i, j), i < j, in sweep order.

    P = dist[bind][:, bind] and G = c @ P: moving label a to the team of
    label b changes its row of the linear form by G[a, b] - G[a, a].  A
    swap moves the four labels 2i+r <-> 2j+r (r = 0, 1); their full rows
    also count the pairs inside those four labels, which are replaced by
    half the change of the 4x4 block.  All m x m terms come from the
    parity blocks of c and P, both symmetric with zero diagonals.
    """
    m = len(P) // 2
    # Row j of P.reshape(m, 2n) is rows 2j and 2j+1 of P side by side, so
    # by symmetry At[j, i] = G[2i, 2j] + G[2i+1, 2j+1].
    At = P.reshape(m, -1) @ k.cols
    p01 = P[0::2, 1::2]
    # The m x m delta matrix is H + H^T: with K symmetric, each term of H
    # and its transpose make up one symmetric term of the delta.
    H = At - At.diagonal()[:, None]
    H += k.cross * (p01.diagonal()[:, None] - p01)
    H += k.same[0] * P[0::2, 0::2]
    H += k.same[1] * P[1::2, 1::2]
    return (H + H.T).take(k.upper)


def _flip_deltas(k: _KernelBlocks, P):
    """Distance change of flipping the two teams inside each slot.

    For x = 2i, y = 2i+1 this is G[x,y] + G[y,x] - G[x,x] - G[y,y] +
    2 c[x,y] P[x,y], with the G terms summed row by row in O(n^2).
    """
    rows = (k.rows * (P[1::2] - P[0::2])).sum(axis=1)
    return rows + k.own * P[0::2, 1::2].diagonal()


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


def _first_improvement(bind, coeffs, inst, kernel, moves):
    """The first-improvement loop of both passes; returns (bind, improved).

    Move q gives labels src[q][r] the teams of labels dst[q][r], moves in
    sweep order.  `kernel` evaluates every move on the current
    P = dist[bind][:, bind] at once.  P is gathered once per pass and kept
    current in place: an accepted move permutes its touched rows, then its
    touched columns, in O(n).  The loop takes the first accepted move at or
    after the one after the last accepted move, applies it and evaluates
    again; after the last move of the sweep it goes on from move 0.  A scan
    that finds no move ends the pass if it began at move 0, and starts over
    from move 0 if not.

    A move is accepted iff its exact delta is negative.  The moves whose
    kernel delta lies below +slack are visited in sweep order; one below
    -slack is accepted at once, one in [-slack, slack) if its exact delta
    is negative.  With slack 0 that is the moves with a negative delta.  So
    the exact total falls with every move and the search cannot cycle.  The
    caller's vector is left as it was.
    """
    bind = np.array(bind)
    src, dst = moves
    P = inst.float_dist.take(bind, 0).take(bind, 1)
    slack = _slack(inst)

    def first_accepted(deltas, start):
        """The first move at or after `start` to accept; len(deltas) if none."""
        candidate = deltas < slack
        q = start
        while q < len(deltas):
            q += int(candidate[q:].argmax())  # the next candidate, or q if none is left
            if not candidate[q]:
                break
            if deltas[q] < -slack or _exact_move_delta(coeffs, inst, bind, src[q], dst[q]) < 0:
                return q
            q += 1
        return len(deltas)

    deltas = kernel(coeffs.blocks, P)
    start, improved = 0, False
    while True:
        q = first_accepted(deltas, start)
        if q == len(deltas):
            if start == 0:
                return bind, improved
            start = 0
            continue
        s, t = src[q], dst[q]
        bind[s] = bind.take(t)
        P[s] = P.take(t, 0)
        P[:, s] = P.take(t, 1)
        deltas = kernel(coeffs.blocks, P)
        start, improved = (q + 1) % len(deltas), True


def swap_super_teams_pass(bind, coeffs: TravelCoefficients, inst: Instance):
    """One full first-improvement sweep over all slot pairs, repeated while
    a sweep improves; returns (bind, improved)."""
    moves = _pass_moves(len(bind) // 2)[0]
    return _first_improvement(bind, coeffs, inst, _swap_deltas, moves)


def swap_within_pass(bind, coeffs: TravelCoefficients, inst: Instance):
    """First-improvement sweep flipping team order inside each super-team;
    returns (bind, improved)."""
    moves = _pass_moves(len(bind) // 2)[1]
    return _first_improvement(bind, coeffs, inst, _flip_deltas, moves)


def polish(bind, coeffs: TravelCoefficients, inst: Instance) -> np.ndarray:
    """Alternate the two swapping rules, starting with slot swaps; stops at
    the first pass, after the first, that finds no move.

    A pass ends at a local optimum of its own rule and an idle pass leaves
    the vector as it was, so the vector is then a local optimum of both.
    """
    bind, _ = swap_super_teams_pass(bind, coeffs, inst)
    for rule in itertools.cycle((swap_within_pass, swap_super_teams_pass)):
        bind, improved = rule(bind, coeffs, inst)
        if not improved:
            return bind


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
