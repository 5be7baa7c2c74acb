"""Minimum-weight perfect matching, super-team aggregates and the lower bound.

The matching must be the true optimum: the schedule quality guarantees are
relative to it.  Ties between optimal matchings are broken toward the
lexicographically smallest pair list so that downstream results are
reproducible run to run.

Both come from an exact primal-dual blossom algorithm that certifies its
optimum with its duals, run twice.  The first solve finds an optimum of the
plain exact weights on a sparse candidate graph and prices the complete
graph with its duals (Derigs & Metz 1991, "Solving (large scale) matching
problems combinatorially"; Applegate & Cook 1993, "Solving large-scale
matching problems").  The candidates start as every team's
`NEAREST_TEAMS` nearest teams.  While the blossom leaves a team single (a
k-nearest graph of odd-sized clusters has no perfect matching), that
team's k doubles.  Once the matching is perfect, the full slack of every
pair of the complete graph is computed from the duals; the pairs of
negative slack join the candidates and the graph is solved again.  When
none is left, the duals certify the matching optimal on the complete graph.
No blossom solve starts from the empty matching.  Each starts greedily from
even vertex duals, each vertex's at its heaviest edge: in turn every single
vertex lowers its dual as far as it stays feasible and matches along an
edge that becomes tight.  A solve after a double-k or pricing round starts
from the last one's mate and duals instead, raised where a new pair is
short; the pairs still tight stay matched.

By complementary slackness every optimal matching uses only the tight pairs,
those of zero slack under that optimal dual.  The second solve runs on the
tight pairs alone, with the weights w * B^n + (j+1) * B^(n-1-i) for i < j
and B = n + 1: the distance dominates, and among equal distances the
positional term prefers small partners for small teams.  At the first team s
where two matchings differ, the terms of all later teams add up to at most
B^(n-1-s) - 1, so the order is exactly lexicographic; the long integers
touch only the few tight pairs.  Whichever optimal dual the first solve
ends with, the result is the same lexicographically smallest optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance

# Each team's first candidate partners: its nearest teams, ties by index.
NEAREST_TEAMS = 8


@dataclass(frozen=True)
class Matching:
    """The n/2 super-team pairs plus the aggregate weights D_M, D_G, D_H."""

    pairs: tuple[tuple[int, int], ...]
    weight: object  # int for integral instances, float otherwise
    d_g: object
    d_h: object


@dataclass(frozen=True)
class LowerBound:
    """Per-team optimal-itinerary bounds and their sum 2*D_G + n*D_M."""

    per_team: tuple
    total: object


def min_weight_perfect_matching(inst: Instance) -> Matching:
    """Exact minimum-weight perfect matching on the complete team graph.

    Among all optima it returns the lexicographically smallest pair list.
    """
    n = inst.n
    w, _ = inst.exact_weights
    slack = _priced_slack(inst)

    # Every optimum lies on the tight pairs; break the ties among them there.
    b = n + 1
    tight = np.triu(slack == 0, 1)
    ti, tj = (t.tolist() for t in np.nonzero(tight))
    cost = [w[i, j] * b**n + (j + 1) * b ** (n - 1 - i) for i, j in zip(ti, tj)]
    top = max(cost) + 1
    gain = np.zeros((n, n), dtype=object)
    gain[ti, tj] = gain[tj, ti] = [top - c for c in cost]
    tight |= tight.T
    mate, dual, blossoms = _blossom_on(gain, tight)
    _certified_slack(gain, tight, mate, dual, blossoms, full=False)
    pairs = tuple((i, j) for i, j in enumerate(mate) if i < j)

    pi, pj = zip(*pairs)
    weight = sum(inst.dist[pi, pj].tolist())  # in pair order, as Python scalars
    iu, ju = np.triu_indices(n, 1)
    (d_g,) = _row_sums(inst, (iu[None], ju[None]))
    return Matching(pairs=pairs, weight=weight, d_g=d_g, d_h=d_g - weight)


def _priced_slack(inst: Instance) -> np.ndarray:
    """Full slack of every pair under a certified optimal dual of the plain weights.

    The blossom runs on the candidate graph only, with the complete graph's
    weights top - w for top = max(w) + 1 over every pair; each vertex starts
    with its `NEAREST_TEAMS` nearest teams (see the module docstring).
    """
    n = inst.n
    w = inst.exact_weights[0]
    if inst.float_exact:  # int64 holds the scaled weights exactly
        w = (inst.dist if inst.integral else w).astype(np.int64)
    gain = w.max() + 1 - w
    # nearest[i]: the other teams by distance from i, ties by index.
    order = np.argsort(inst.dist, axis=1, kind="stable")
    nearest = order[order != np.arange(n)[:, None]].reshape(n, n - 1)
    k = np.full(n, min(NEAREST_TEAMS, n - 1))
    solved = np.zeros((n, n), dtype=bool)
    start = None
    while True:
        solved[np.arange(n)[:, None], nearest] |= np.arange(n - 1) < k[:, None]
        solved |= solved.T
        mate, dual, blossoms = _blossom_on(gain, solved, start)
        start = _warm_start(mate, dual, blossoms)
        single = np.array(mate) == -1
        if single.any():
            k[single] = np.minimum(2 * k[single], n - 1)
            continue
        slack = _certified_slack(gain, solved, mate, dual, blossoms)
        priced = slack < 0
        np.fill_diagonal(priced, False)
        if not priced.any():
            return slack
        solved |= priced


def _warm_start(mate, dual, blossoms):
    """The start of the next solve on more pairs: the same mate, and each
    blossom's dual added to its leaves' duals.

    That dual needs no blossom and is still feasible on the solved pairs:
    a pair inside a blossom gains its dual twice, as in the full slack, and
    a pair leaving it once.  The matched pairs leaving a blossom of positive
    dual are no longer tight, so the next solve unmatches them.
    """
    dual = list(dual)
    for z, leaves in blossoms:
        for v in leaves:
            dual[v] += z
    return mate, dual


def independent_lower_bound(inst: Instance, m: Matching) -> LowerBound:
    """Per-team bound D_i + D_M; the total telescopes to 2*D_G + n*D_M."""
    per_team = tuple(r + m.weight for r in _row_sums(inst, np.s_[:]))
    return LowerBound(per_team=per_team, total=sum(per_team))


def _row_sums(inst: Instance, index) -> list:
    """Row sums of the distances ``dist[index]`` (a 2-D selection), as ``sum()`` gives them.

    Integer instances give exact Python ints, summed over
    `Instance.sum_dist` (n max(d) < travel_bound(n, max(d)) bounds a row
    sum).  Real-valued ones accumulate from 0.0 left to right in float64,
    the additions ``sum()`` makes in the order it makes them, so the values
    are bit-identical to the loop.
    """
    if inst.integral:
        return inst.sum_dist[index].sum(axis=1).tolist()
    rows = inst.dist[index]
    return np.cumsum(np.hstack([np.zeros((len(rows), 1)), rows]), axis=1)[:, -1].tolist()


def _blossom_on(gain: np.ndarray, solved: np.ndarray, start=None):
    """`_blossom` on the pairs of the symmetric mask ``solved``, weighted by ``gain``."""
    i, j = (t.tolist() for t in np.nonzero(np.triu(solved, 1)))
    return _blossom(len(gain), list(zip(i, j, gain[i, j].tolist())), start)


def _blossom(n: int, edges: list[tuple[int, int, int]], start=None):
    """Maximum-cardinality matching, of maximum weight if it is perfect, with its dual.

    A port of Van Rantwijk's primal-dual blossom algorithm (the one networkx
    runs; Galil 1986, "Efficient algorithms for finding maximum matching in
    graphs") to integer vertex ids 0..n-1, an edge list of (i, j, weight)
    with exact integer weights, and per-vertex lists of edge endpoints.
    Unlike the original it does not start from the empty matching with one
    dual for every vertex (see the start below), so the single vertices'
    duals differ.  That keeps the cardinality maximum and a perfect
    matching's dual a certificate, but a matching that is not perfect need
    not have the largest weight of its cardinality.

    ``start`` is None (cold) or (mate, dual) in the form returned here,
    without blossoms (warm): for example an earlier solve on fewer edges,
    with each blossom dual added to its leaves (`_warm_start`).  Any
    matching and integer duals will do; the start repairs them.

    Returns (mate, dual, blossoms): the partner of each vertex (-1 if
    single), the doubled vertex duals, and each blossom of positive dual as
    (dual, leaf vertices); `_certified_slack` checks them.  Vertices are
    ids 0..n-1 and non-trivial blossoms ids n..2n-1.  Edge k has endpoints
    2k (its i) and 2k+1 (its j); ``endpoint[p ^ 1]`` is the other end of
    endpoint p.
    """
    m = len(edges)
    endpoint = [v for i, j, _ in edges for v in (i, j)]
    twice_w = [2 * x for _, _, x in edges]
    # neighbend[v] lists the far endpoint of every edge at v.
    neighbend = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    # mate[v]: far endpoint of v's matched edge, or -1.
    mate = [-1] * n
    # label[b] of a top-level blossom: 0 free, 1 S, 2 T (4 marks a breadcrumb).
    # A vertex inside a T-blossom has label 2 iff it is reachable from an
    # S-vertex outside the blossom.
    label = [0] * (2 * n)
    # labelend[b]: far endpoint of the edge that labelled b, or -1.
    labelend = [-1] * (2 * n)
    inblossom = list(range(n))
    blossomparent = [-1] * (2 * n)
    blossomchilds = [None] * (2 * n)
    blossombase = list(range(n)) + [-1] * n
    # blossomendps[b][i]: endpoint in childs[i] of the edge to childs[i + 1].
    blossomendps = [None] * (2 * n)
    # bestedge[v] of a free vertex: least-slack edge from an S-vertex;
    # bestedge[b] of a top-level S-blossom: least-slack edge to another one.
    bestedge = [-1] * (2 * n)
    blossombestedges = [None] * (2 * n)
    unusedblossoms = list(range(n, 2 * n))
    # dualvar[v] = 2 u(v) for vertices, z(b) for blossoms.  The start, cold
    # or warm: each vertex dual at v's heaviest edge (feasible on every
    # edge) or at the one ``start`` gives, raised where an edge is short.
    # The pairs of ``start`` that are still tight stay matched.
    if start is None:
        partner = [-1] * n
        dualvar = [max((edges[p >> 1][2] for p in ps), default=0) for ps in neighbend]
    else:
        partner, dualvar = start[0], list(start[1])
    for k in range(m):
        short = twice_w[k] - dualvar[endpoint[2 * k]] - dualvar[endpoint[2 * k + 1]]
        if short > 0:
            dualvar[endpoint[2 * k]] += short
    for k in range(m):
        i, j = endpoint[2 * k], endpoint[2 * k + 1]
        if partner[i] == j and dualvar[i] + dualvar[j] == twice_w[k]:
            mate[i], mate[j] = 2 * k + 1, 2 * k
    # The invariant: every single vertex's dual starts even.  The single
    # vertices are the roots of every stage and move together, so they keep
    # one parity; each tree vertex is tight-linked to a root and shares it,
    # so the S-S slacks stay even and delta 3 halves them exactly.  Greedily,
    # each single vertex in turn lowers its dual to the least even feasible
    # value and takes its first single neighbour whose edge that makes tight.
    for v in range(n):
        if mate[v] == -1:
            dualvar[v] += dualvar[v] & 1
    for v in range(n):
        if mate[v] == -1 and neighbend[v]:
            low = max(twice_w[p >> 1] - dualvar[endpoint[p]] for p in neighbend[v])
            dualvar[v] = low + (low & 1)
            for p in neighbend[v]:
                w = endpoint[p]
                if mate[w] == -1 and dualvar[v] + dualvar[w] == twice_w[p >> 1]:
                    mate[v], mate[w] = p, p ^ 1
                    break
    dualvar += [0] * n
    allowedge = [False] * m
    queue = []

    def slack(k):
        return dualvar[endpoint[2 * k]] + dualvar[endpoint[2 * k + 1]] - twice_w[k]

    def leaves(b):
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(blossomchilds[t])
        return out

    def assign_label(w, t, p):
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(leaves(b))
        else:
            # b became T: its base's mate becomes S.
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v, w):
        """Base of the blossom closed by edge (v, w), or -1 on an augmenting path."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, k):
        v, w = endpoint[2 * k], endpoint[2 * k + 1]
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # A T-vertex becomes S inside the new S-blossom.
                queue.append(v)
            inblossom[v] = b
        # Least-slack edge from b to each neighbouring S-blossom.
        bestedgeto = {}
        for bv in path:
            if blossombestedges[bv] is None:
                nblist = [p >> 1 for v in leaves(bv) for p in neighbend[v]]
            else:
                nblist = blossombestedges[bv]
            for k in nblist:
                j = endpoint[2 * k + 1]
                if inblossom[j] == b:
                    j = endpoint[2 * k]
                bj = inblossom[j]
                if bj != b and label[bj] == 1 and (bj not in bestedgeto or slack(k) < slack(bestedgeto[bj])):
                    bestedgeto[bj] = k
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = list(bestedgeto.values())
        bestedge[b] = min(blossombestedges[b], key=slack, default=-1)

    def expand_blossom(b, endstage):
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in leaves(s):
                    inblossom[v] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms from the one through which b got its
            # label round to the base, on the even-length side.
            childs, endps = blossomchilds[b], blossomendps[b]
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep, endptrick = 1, 0
            else:
                jstep, endptrick = -1, 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[endps[j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[endps[j - endptrick] >> 1] = True
                j += jstep
                p = endps[j - endptrick] ^ endptrick
                allowedge[p >> 1] = True
                j += jstep
            # The base sub-blossom becomes T without labelling its mate.
            bv = childs[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                j += jstep
                if label[bv] == 1:
                    continue
                # If a leaf of bv is reached from outside, bv becomes T.
                v = next((v for v in leaves(bv) if label[v]), -1)
                if v >= 0:
                    label[v] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(v, 2, labelend[v])
        label[b] = 0
        labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = blossombestedges[b] = None
        blossombase[b] = -1
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b, v):
        # Flip the alternating path from v to the base of b, which becomes v.
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        childs, endps = blossomchilds[b], blossomendps[b]
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep, endptrick = 1, 0
        else:
            jstep, endptrick = -1, 1
        while j != 0:
            j += jstep
            t = childs[j]
            p = endps[j - endptrick] ^ endptrick
            if t >= n:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = childs[j]
            if t >= n:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = childs[i:] + childs[:i]
        blossomendps[b] = endps[i:] + endps[:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k):
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                bt = inblossom[endpoint[labelend[bs]]]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # Each stage grows the matching by one edge, or proves it maximal.
    for _ in range(n):
        label[:] = [0] * (2 * n)
        bestedge[:] = [-1] * (2 * n)
        blossombestedges[n:] = [None] * n
        allowedge[:] = [False] * m
        queue[:] = []
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            # Label along tight edges until an augmenting path shows up.
            while queue and not augmented:
                v = queue.pop()
                dv = dualvar[v]
                for p in neighbend[v]:
                    k = p >> 1
                    w = endpoint[p]
                    bw = inblossom[w]
                    if inblossom[v] == bw:
                        continue
                    if not allowedge[k]:
                        kslack = dv + dualvar[w] - twice_w[k]
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[bw] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w is inside a T-blossom and first reached now.
                            label[w] = 2
                            labelend[w] = p ^ 1
                    else:
                        # Keep the least-slack edge to another S-blossom (on
                        # v's blossom) or to a free vertex (on w).  Inlined
                        # slack(): this is the hottest comparison.
                        if label[bw] == 1:
                            b = inblossom[v]
                        elif label[w] == 0:
                            b = w
                        else:
                            continue
                        e = bestedge[b]
                        if e == -1 or kslack < dualvar[endpoint[2 * e]] + dualvar[endpoint[2 * e + 1]] - twice_w[e]:
                            bestedge[b] = k
            if augmented:
                break

            # No augmenting path on tight edges: move the duals by the
            # largest step that keeps them feasible (all values doubled).
            deltatype = -1
            delta = deltaedge = deltablossom = None
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 2, bestedge[v]
            for b in range(2 * n):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    d = slack(bestedge[b]) // 2
                    if deltatype == -1 or d < delta:
                        delta, deltatype, deltaedge = d, 3, bestedge[b]
            for b in range(n, 2 * n):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta, deltatype, deltablossom = dualvar[b], 4, b
            if deltatype == -1:
                # Maximum cardinality reached; a last step keeps it verifiable.
                deltatype = 1
                delta = max(0, min(dualvar[:n]))

            for v in range(n):
                if label[inblossom[v]] == 1:
                    dualvar[v] -= delta
                elif label[inblossom[v]] == 2:
                    dualvar[v] += delta
            for b in range(n, 2 * n):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                allowedge[deltaedge] = True
                i = endpoint[2 * deltaedge]
                if label[inblossom[i]] == 0:
                    i = endpoint[2 * deltaedge + 1]
                queue.append(i)

        if not augmented:
            break
        # End of stage: expand the S-blossoms whose dual reached zero.
        for b in range(n, 2 * n):
            if blossomparent[b] == -1 and blossombase[b] >= 0 and label[b] == 1 and dualvar[b] == 0:
                expand_blossom(b, True)

    mate = [endpoint[p] if p >= 0 else -1 for p in mate]
    dual = dualvar[:n]
    blossoms = [(dualvar[b], leaves(b)) for b in range(n, 2 * n) if blossombase[b] >= 0 and dualvar[b] > 0]
    return mate, dual, blossoms


def _certified_slack(w, solved, mate, dual, blossoms, full=True) -> np.ndarray | None:
    """Full slack of every vertex pair, after checking the optimality certificate.

    The full slack of (i, j) is dual_i + dual_j - 2 w_ij + 2 * (sum of the
    duals of the blossoms holding both), for the n x n weights w.  The
    matching is a maximum-weight perfect matching of the graph of the pairs
    in the symmetric mask ``solved`` if it is perfect, every pair of that
    graph has full slack >= 0, every matched pair has full slack 0, and every
    blossom of positive dual is full (all but one of its vertices matched
    inside it).  Raises AssertionError when any of these fails, or when the
    blossoms do not nest (the blossom algorithm's always do).  The slack of
    the pairs outside ``solved`` prices them: when w holds every pair and
    none has negative slack, the certificate holds on the complete graph.
    With full=False only the pairs the certificate reads, those of
    ``solved`` and the matched ones, get a slack, and None is returned.
    The slacks are int64 when w is and 2 (max|dual| + max held blossom dual
    + max|w|) < 2**63 bounds them; otherwise they are Python ints.
    """
    n = len(w)
    if -1 in mate:
        raise AssertionError("matching is not perfect")
    partner = np.array(mate)
    # The blossoms nest.  Taken largest first, each lies inside the innermost
    # one so far around its leaves; held[t] sums the duals of blossom t and
    # of those around it, and inner[i, j] is the innermost holding i and j.
    held = [0]
    inner = np.zeros((n, n), dtype=np.intp)
    for z, leaves in sorted(blossoms, key=lambda b: -len(b[1])):
        inside = np.zeros(n, dtype=bool)
        inside[leaves] = True
        if np.count_nonzero(inside[partner[leaves]]) != len(leaves) - 1:
            raise AssertionError("a blossom of positive dual is not full")
        block = np.ix_(leaves, leaves)
        outer = inner[leaves[0], leaves[0]]
        if (inner[block] != outer).any():
            raise AssertionError("the blossoms do not nest")
        held.append(held[outer] + z)
        inner[block] = len(held) - 1
    exact64 = w.dtype == np.int64 and (
        2 * (max(map(abs, dual)) + max(held) + max(int(w.max()), -int(w.min()))) < 2**63
    )
    dtype = np.int64 if exact64 else object
    u, held, w = np.array(dual, dtype=dtype), np.array(held, dtype=dtype), w.astype(dtype, copy=False)

    def slack_at(i, j):
        return u[i] + u[j] - 2 * w[i, j] + 2 * held[inner[i, j]]

    rows = np.arange(n)
    if full:
        slack = slack_at(rows[:, None], rows)
        on_solved, on_matched = slack[solved], slack[rows, partner]
    else:
        slack = None
        on_solved, on_matched = slack_at(*np.nonzero(solved)), slack_at(rows, partner)
    if (on_solved < 0).any():
        raise AssertionError("an edge has negative slack")
    if not (on_matched == 0).all():
        raise AssertionError("a matched edge has positive slack")
    return slack
