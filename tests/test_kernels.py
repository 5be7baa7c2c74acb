"""The swap and flip kernels as fixed linear maps of P, and the scan that
feeds them: exact deltas where float64 is exact, no move checked twice on
one vector, row windows of the swap sweep that give the deltas and the
search of whole sweeps, one search buffer per `polish`, evaluators bound
once that follow the buffer as moves change it, and the cell tables that
apply a move to P."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from ttp2 import ordering
from ttp2.oracle import brute_force_optimal, random_metric_instance
from ttp2.ordering import (
    FIRST_WINDOW,
    _exact_move_delta,
    _flip_deltas,
    _search_state,
    _slack,
    _swap_deltas,
    _sweep,
    _window_deltas,
    extract_coefficients,
    polish,
)
from test_ordering import TIERS, _checked, _template_and_coeffs, _tier_instance


@functools.lru_cache(maxsize=None)
def _coeffs(n):
    """The template's coefficients; below n = 8, where no template is built,
    those of an optimal schedule."""
    if n > 6:
        return _template_and_coeffs(n)[1]
    return extract_coefficients(brute_force_optimal(random_metric_instance(n, 5))[0])


@pytest.mark.parametrize("tier", [tier for tier, exact in TIERS.items() if exact])
@pytest.mark.parametrize("n", [4, 6, 8, 10, 40, 42])
def test_kernel_deltas_are_exact_on_float_exact_tiers(n, tier):
    """Every swap and flip delta equals the exact one, not merely within
    slack; n = 4 has one swap and two flips."""
    inst = _tier_instance(n, 9, tier)
    assert inst.float_exact
    coeffs = _coeffs(n)
    scale = inst.exact_weights[1]
    swaps, flips = _sweep(n // 2, False)[:2], _sweep(n // 2, True)[:2]
    for seed in range(3):
        bind = np.random.default_rng(seed).permutation(n)
        buf = _search_state(bind, inst)
        for kernel, (src, dst) in ((_swap_deltas, swaps), (_flip_deltas, flips)):
            deltas = kernel(coeffs.blocks, buf)()
            exact = [Fraction(_exact_move_delta(coeffs, inst, bind, s, t), scale) for s, t in zip(src, dst)]
            assert [Fraction(value) for value in deltas.tolist()] == exact


@pytest.mark.parametrize("flips", [False, True], ids=["swaps", "flips"])
def test_move_cells_apply_each_move_to_p(flips):
    """For every move of a pass at m = 2..23 (every sweep evaluated whole),
    one take from the `fr` cells into the `to` cells of a flat
    [P | At | bind] buffer gives P[pi][:, pi] and bind[pi], pi the move's
    label permutation, and leaves At as it was."""
    rng = np.random.default_rng(7)
    for m in range(2, 24):
        n = 2 * m
        src, dst, _, cells = _sweep(m, flips)
        to, fr = (np.stack(rows) for rows in cells)  # one row per move
        width = (2 * n + 1) * src.shape[1]  # the moved rows and columns of P, then the moved labels
        assert to.dtype == fr.dtype == np.intp and to.shape == fr.shape == (len(src), width)
        for q in range(len(src)):
            P = rng.random((n, n))
            P += P.T
            At, bind = rng.random(m * m), rng.permutation(n)
            pi = np.arange(n)
            pi[src[q]] = dst[q]
            buf = np.concatenate([P.ravel(), At, bind])
            buf[to[q]] = buf.take(fr[q])
            assert np.array_equal(buf[: n * n].reshape(n, n), P[pi][:, pi])
            assert np.array_equal(buf[n * n : n * n + m * m], At)
            assert np.array_equal(buf[n * n + m * m :], bind[pi])


def test_no_move_is_exact_checked_twice_on_one_vector(monkeypatch):
    """A scan that wraps to move 0 stops before the move it began at: the
    moves from there on were rejected on the same vector.  Twin slots hold
    teams of the same two points, so swapping them is an exact tie that
    every scan passing it must check; the search stays the exact one."""
    checked = []
    spied = ordering._exact_move_delta

    def spy(coeffs, inst, bind, src, dst):
        checked.append((bind.tobytes(), src.tobytes(), dst.tobytes()))
        return spied(coeffs, inst, bind, src, dst)

    monkeypatch.setattr(ordering, "_exact_move_delta", spy)
    n = 40
    inst = _tier_instance(n, 5, "same-point")  # teams 2k and 2k+1 share a point
    _, coeffs = _template_and_coeffs(n)
    total = 0
    for seed in range(2):
        rng = np.random.default_rng(seed)
        slots = [(2 * p + r, 2 * q + r) for p, q in rng.permutation(n // 2).reshape(-1, 2) for r in (0, 1)]
        bind = np.array(slots)[rng.permutation(n // 2)].ravel().tolist()
        checked.clear()
        _checked(polish, bind, coeffs, inst)
        assert len(set(checked)) == len(checked)
        total += len(checked)
    assert total > 80


def _windows(m):
    """Row windows of an m-slot sweep: each window of the scans from rows 0,
    m/3 and m/2 up to the end, and a few more that start at row 0, mid-sweep
    or on the last row with moves."""
    row_start, ends = _sweep(m, False)[2]
    windows = {(0, 1), (1, 3), (m // 2, m // 2 + 2), (m - 2, m), (0, m)}
    for a in (0, m // 3, m // 2):
        for b in ends[a]:
            windows.add((a, b))
            a = b
    return row_start, sorted(windows)


@pytest.mark.parametrize("m", [20, 23, 24, 25, 40, 61, 120])
def test_swap_windows_grow_from_every_row_to_the_sweeps_end(m):
    """A sweep of at most FIRST_WINDOW moves has no windows (m <= 23), and
    exactly there both passes have move cells; flips never have windows,
    and every table of both passes is read-only.  Otherwise the scan from
    each row runs through windows of at least FIRST_WINDOW,
    2 FIRST_WINDOW, ... moves, and the first that leaves no move after it
    ends at m, the whole sweep."""
    last = m * (m - 1) // 2
    whole = last <= FIRST_WINDOW
    swaps, flips = _sweep(m, False), _sweep(m, True)
    for src, dst, _, cells in (swaps, flips):
        assert (cells is None) == (not whole)
        rows = [a for table in cells or () for a in table]  # one array per move
        assert not any(a.flags.writeable for a in (src, dst, *rows))
    assert flips[2] is None
    windows = swaps[2]
    assert (windows is None) == whole
    if windows is None:
        return
    row_start, ends = windows
    assert row_start[0] == 0 and row_start[-2:] == (last, last)
    assert all(row_start[i + 1] - row_start[i] == m - 1 - i for i in range(m))
    for a, row in enumerate(ends):
        assert row[-1] == m
        size = FIRST_WINDOW
        for b in row[:-1]:
            assert size <= row_start[b] - row_start[a] and row_start[b] < last
            a, size = b, 2 * size


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [48, 80, 122])
def test_window_deltas_equal_the_sweep(n, tier):
    """Every window's deltas are those of `_swap_deltas` on its moves: bit
    for bit where float64 is exact, within slack of the exact delta
    elsewhere.  At is filled with NaN before each window, so a leaf read from
    an entry the window did not write shows.  The whole sweep, `_swap_deltas`
    itself on a NaN-filled At (window None), is checked the same way."""
    inst = _tier_instance(n, 3, tier)
    coeffs, m = _coeffs(n), n // 2
    row_start, windows = _windows(m)
    assert any(b < m for _, b in windows) and any(a > 0 for a, _ in windows)
    src, dst = _sweep(m, False)[:2]
    bind = np.random.default_rng(n).permutation(n)
    buf = _search_state(bind, inst)
    whole = _swap_deltas(coeffs.blocks, buf)()
    slack, scale = _slack(inst), inst.exact_weights[1]
    exact = {}
    for window in windows + [None]:
        buf[n * n :] = np.nan
        if window is None:
            lo, hi = 0, len(whole)
            deltas = _swap_deltas(coeffs.blocks, buf)()
        else:
            a, b = window
            lo, hi = row_start[a], row_start[min(b, m)]
            deltas = _window_deltas(coeffs.blocks, buf)((a, b), (lo, hi))
        assert len(deltas) == hi - lo and not np.isnan(deltas).any()
        if TIERS[tier]:
            assert np.array_equal(deltas, whole[lo:hi])
            continue
        for q, value in zip(range(lo, hi), deltas.tolist()):
            if q not in exact:
                exact[q] = Fraction(_exact_move_delta(coeffs, inst, bind, src[q], dst[q]), scale)
            assert abs(Fraction(value) - exact[q]) <= slack


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [48, 50, 80, 122])
def test_windowed_search_takes_the_moves_of_whole_sweeps(n, tier, monkeypatch):
    """`polish` with windows returns the vectors it returns when every scan
    evaluates the whole sweep (a first window of m(m-1)/2 moves), after as
    many exact checks (none where float64 is exact; elsewhere, one per
    visited move whose delta lies within slack of zero).  First windows of
    16 moves also put the cursor inside many short windows that start in
    row 0, which must not wrap before the sweep's end."""
    inst = _tier_instance(n, 5, tier)
    coeffs = _coeffs(n)
    starts = [np.random.default_rng(seed).permutation(n).tolist() for seed in range(3)]
    counts = dict.fromkeys(("_exact_move_delta", "_window_deltas"), 0)

    def counted(name):
        spied = getattr(ordering, name)

        def spy(*args):
            counts[name] += 1
            return spied(*args)

        if name != "_window_deltas":
            return spy

        def bound(blocks, buf):  # counts the windows evaluated, not the bindings
            evaluate = spied(blocks, buf)

            def evaluation(*args):
                counts[name] += 1
                return evaluate(*args)

            return evaluation

        return bound

    for name in counts:
        monkeypatch.setattr(ordering, name, counted(name))

    # The uncached windows follow the patched FIRST_WINDOW; the cache of
    # `_sweep` never sees a patched value.
    monkeypatch.setattr(ordering, "_sweep", ordering._sweep.__wrapped__)

    def run(first):
        monkeypatch.setattr(ordering, "FIRST_WINDOW", first)
        counts.update(dict.fromkeys(counts, 0))
        return [polish(b, coeffs, inst).tolist() for b in starts], dict(counts)

    whole, whole_counts = run(n // 2 * (n // 2 - 1) // 2)
    assert whole_counts["_window_deltas"] == 0
    for first in (FIRST_WINDOW, 16):
        vectors, counts_of_windows = run(first)
        assert vectors == whole
        assert counts_of_windows["_window_deltas"] > 0
        assert counts_of_windows["_exact_move_delta"] == whole_counts["_exact_move_delta"]


@pytest.mark.parametrize("n", [12, 80])
def test_one_polish_reads_one_search_buffer(n, monkeypatch):
    """Every swap, window and flip evaluation of one `polish` reads the same
    search buffer: P is gathered once per `polish`, not once per pass.
    n = 12 evaluates whole sweeps, n = 80 row windows."""
    buffers, kernels = [], set()
    for name in ("_swap_deltas", "_window_deltas", "_flip_deltas"):

        def spy(blocks, buf, _kernel=getattr(ordering, name), _name=name):
            evaluate = _kernel(blocks, buf)

            def evaluation(*args):
                buffers.append(buf)  # kept alive, so no two buffers share an id
                kernels.add(_name)
                return evaluate(*args)

            return evaluation

        monkeypatch.setattr(ordering, name, spy)
    inst = random_metric_instance(n, 1)
    polish(np.random.default_rng(n).permutation(n).tolist(), _coeffs(n), inst)
    assert "_flip_deltas" in kernels and ("_window_deltas" in kernels) == (n == 80)
    assert len({id(buf) for buf in buffers}) == 1


@pytest.mark.parametrize("tier", ["below-2**53", "real"])
@pytest.mark.parametrize("n", [12, 80])
def test_bound_evaluator_tracks_the_buffer(n, tier):
    """Evaluators bound once read the search buffer as it stands.  After
    each of k accepted moves, applied as a pass applies them (through
    `_sweep`'s cells at n = 12, by permuting P's rows and columns and the
    labels at n = 80), the swap, flip and window evaluators bound to the
    moved buffer give bit for bit the deltas of evaluators bound afresh to
    the search buffer gathered afresh from the moved vector."""
    inst = _tier_instance(n, 11, tier)
    blocks, m = _coeffs(n).blocks, n // 2
    bind = np.random.default_rng(n).permutation(n)
    buf = _search_state(bind, inst)
    row_start = [i * (m - 1) - i * (i - 1) // 2 for i in range(m + 1)]
    windows = [((a, b), (row_start[a], row_start[b])) for a, b in ((0, 1), (1, m // 2), (m // 2, m), (0, m))]

    def bound(buf):
        return [kernel(blocks, buf) for kernel in (_swap_deltas, _flip_deltas, _window_deltas)]

    def deltas(swap, flip, window):
        return [swap(), flip(), *(window(*w) for w in windows)]

    evaluators = bound(buf)
    P, tail = buf[: n * n].reshape(n, n), buf[-n:]
    for _ in range(6):
        # The first move with a negative delta: a swap if one improves, else a flip.
        (src, dst, _, cells), values = next(
            (_sweep(m, flips), values)
            for flips, values in ((False, evaluators[0]()), (True, evaluators[1]()))
            if (values < 0).any()
        )
        q = int(np.argmax(values < 0))
        if cells is None:
            s, t = src[q], dst[q]
            P[s] = P.take(t, 0)
            P[:, s] = P.take(t, 1)
            tail[s] = tail.take(t)
        else:
            to, fr = cells
            buf[to[q]] = buf.take(fr[q])
        bind[src[q]] = bind[dst[q]]
        fresh = _search_state(bind, inst)
        assert np.array_equal(buf[: n * n], fresh[: n * n]) and np.array_equal(tail, fresh[-n:])
        for got, want in zip(deltas(*evaluators), deltas(*bound(fresh)), strict=True):
            assert np.array_equal(got, want)
