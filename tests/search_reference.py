"""The swap search in exact integer arithmetic, kept as the reference
`ttp2.ordering` must equal.

No kernel and no float: a move's delta is the change of the doubled linear
form sum(c * W[bind][:, bind]), recomputed in full in Python ints over
`Instance.exact_weights`, so it is in units of 1 / (2 scale).  A move is
taken iff that delta is negative.  The moves, their sweep order, the cursor,
the wrap and the stop rules are those of the package: each pass takes the
first negative move at or after the one after the last taken, goes on from
move 0 after the last, and ends when a scan from move 0 finds none; `polish`
alternates the passes, starting with slot swaps, until a pass after the
first finds no move (see test_ordering.py).

Each function takes `observe(rule, bind, deltas)`, called at every
evaluation with "swap" or "flip", the vector as a list and the doubled
deltas of every move in sweep order.
"""

from __future__ import annotations

import itertools

import numpy as np


def pass_moves(m: int, rule: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(src, dst) of every move of a pass in sweep order: labels src[r] take
    the teams of labels dst[r].  Slot swaps (i, j) run i < j row by row."""
    if rule == "swap":
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        return [((2 * i, 2 * i + 1, 2 * j, 2 * j + 1), (2 * j, 2 * j + 1, 2 * i, 2 * i + 1)) for i, j in pairs]
    return [((2 * i, 2 * i + 1), (2 * i + 1, 2 * i)) for i in range(m)]


def moved(bind: list[int], src, dst) -> list[int]:
    """The vector after labels src[r] take the teams of labels dst[r]."""
    new = list(bind)
    for s, t in zip(src, dst):
        new[s] = bind[t]
    return new


def doubled_total(c, W, bind) -> int:
    """sum(c * W[bind][:, bind]): every travel counted from both ends."""
    return (c * W[np.ix_(bind, bind)]).sum()


def _pass(rule, bind, coeffs, inst, observe):
    c, W = coeffs.c.astype(object), inst.exact_weights[0]
    moves = pass_moves(len(bind) // 2, rule)
    bind = [int(t) for t in bind]

    def evaluate():
        before = doubled_total(c, W, bind)
        deltas = [doubled_total(c, W, moved(bind, s, t)) - before for s, t in moves]
        observe(rule, list(bind), deltas)
        return deltas

    deltas = evaluate()
    start, improved = 0, False
    while True:
        q = next((q for q in range(start, len(moves)) if deltas[q] < 0), None)
        if q is None:
            if start == 0:
                return bind, improved
            start = 0
            continue
        bind = moved(bind, *moves[q])
        deltas = evaluate()
        start, improved = (q + 1) % len(moves), True


def _ignore(rule, bind, deltas):
    pass


def swap_super_teams_pass(bind, coeffs, inst, observe=_ignore):
    """The slot-swap pass; returns (bind, improved)."""
    return _pass("swap", bind, coeffs, inst, observe)


def swap_within_pass(bind, coeffs, inst, observe=_ignore):
    """The in-slot flip pass; returns (bind, improved)."""
    return _pass("flip", bind, coeffs, inst, observe)


def polish(bind, coeffs, inst, observe=_ignore):
    """A slot-swap pass, then flips and swaps in turn until a pass finds no move."""
    bind, _ = swap_super_teams_pass(bind, coeffs, inst, observe)
    for rule in itertools.cycle((swap_within_pass, swap_super_teams_pass)):
        bind, improved = rule(bind, coeffs, inst, observe)
        if not improved:
            return bind
