"""The array forms of the schedule layer against their per-cell loop versions."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from ttp2.errors import ValidationError
from ttp2.instance import Instance
from ttp2.matching import Matching
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.ordering import (
    binding_vector,
    bind_template,
    extract_coefficients,
    random_ordering,
)
from ttp2.pipeline import build_template
from ttp2.schedule import Schedule, _cell_text, render_schedule, total_distance, validate_schedule

SIZES = [8, 10, 12, 14, 40, 42]


@functools.lru_cache(maxsize=None)
def _template(n):
    return build_template(n)[0]


def _variant(inst, kind):
    """The integer instance, a real-valued copy, or one scaled past int64 sums."""
    if kind == "real":
        return Instance(n=inst.n, dist=inst.dist / 3.0, integral=False)
    if kind == "big":
        return Instance(n=inst.n, dist=inst.dist * 10**15)
    return inst


def _bound(n, seed):
    """A template bound by a random matching and ordering; also the bind vector."""
    rng = np.random.default_rng(seed)
    teams = rng.permutation(n).tolist()
    pairs = tuple(sorted(tuple(sorted(teams[i : i + 2])) for i in range(0, n, 2)))
    matching = Matching(pairs=pairs, weight=0, d_g=0, d_h=0)
    ordering = random_ordering(n // 2, seed)
    return bind_template(_template(n), matching, ordering), binding_vector(matching, ordering)


def _corrupt(table, edits, rng):
    """Random cell edits: 0, +-(n+1), the team itself, or the sign swapped."""
    n = table.shape[0]
    t = np.array(table)
    for _ in range(edits):
        i, d = int(rng.integers(n)), int(rng.integers(t.shape[1]))
        kind = rng.integers(4)
        if kind == 0:
            t[i, d] = 0
        elif kind == 1:
            t[i, d] = rng.choice([-1, 1]) * (n + 1)
        elif kind == 2:
            t[i, d] = rng.choice([-1, 1]) * (i + 1)
        else:
            t[i, d] = -t[i, d]
    return Schedule(t)


@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 10**6),
    edits=st.integers(0, 5),
    k=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["int", "real", "big"]),
)
def test_schedule_layer_matches_loops(n, seed, edits, k, kind):
    bound, bind = _bound(n, seed)
    assert np.array_equal(bound.table, ref.bind_template(_template(n), bind).table)

    s = _corrupt(bound.table, edits, np.random.default_rng(seed))
    assert validate_schedule(s, k=k).violations == ref.validate_schedule(s, k=k).violations

    inst = _variant(random_metric_instance(n, seed), kind)
    if s.table.max() > n:  # an away venue past the last team: both walks fail
        with pytest.raises(IndexError):
            total_distance(s, inst)
        with pytest.raises(IndexError):
            ref.total_distance(s, inst)
        return
    got, want = total_distance(s, inst), ref.total_distance(s, inst)
    assert got == want
    assert [type(x) for x in got.per_team] == [type(x) for x in want.per_team]
    assert type(got.total) is type(want.total)
    for table in (_template(n), bound, s):
        assert np.array_equal(extract_coefficients(table).c, ref.extract_coefficients(table))


# Cells near int64's edges; np.abs(-2**63) overflows to -2**63.
_EXTREMES = [2**63 - 1, -(2**63), 2**62]


@st.composite
def _any_tables(draw):
    """Tables of n = 1..12 with cells in +-(2n+1), up to three int64 extremes among them."""
    n = draw(st.integers(1, 12))
    size = n * (2 * n - 2)
    cells = draw(st.lists(st.integers(-2 * n - 1, 2 * n + 1), min_size=size, max_size=size))
    if size:
        for at in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            cells[at] = draw(st.sampled_from(_EXTREMES))
    return Schedule(np.array(cells, dtype=np.int64).reshape(n, 2 * n - 2))


@st.composite
def _tables_and_bounds(draw):
    """A table of _any_tables and a run bound k: small, around its day count, or past int64."""
    s = draw(_any_tables())
    k = draw(st.sampled_from([1, 2, 3, 5, s.days - 1, s.days, s.days + 3, 2**64]))
    return s, max(k, 1)


@settings(max_examples=300, deadline=None, database=None)
@given(case=_tables_and_bounds())
def test_validate_matches_loop_on_any_table(case):
    s, k = case
    assert validate_schedule(s, k=k).violations == ref.validate_schedule(s, k=k).violations


@settings(max_examples=150, deadline=None, database=None)
@given(s=_any_tables())
def test_render_joins_each_cell_text(s):
    want = "".join(",".join(_cell_text(int(v)) for v in row) + "\n" for row in s.table)
    assert render_schedule(s) == want


def _error(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, database=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 10**6),
    edits=st.integers(0, 4),
    real=st.booleans(),
)
def test_instance_validation_matches_loop(n, seed, edits, real):
    rng = np.random.default_rng(seed)
    dist = random_metric_instance(n, seed).dist.copy()
    if real:
        dist = dist / 3.0
    for _ in range(edits):
        i, j = (int(x) for x in rng.integers(n, size=2))
        kind = rng.integers(3)
        if kind == 0:  # a non-zero diagonal entry
            dist[i, i] = rng.integers(1, 5)
        elif kind == 1:  # a negative distance, mirrored or not
            dist[i, j] = -dist[i, j] - 1
            if rng.integers(2):
                dist[j, i] = dist[i, j]
        else:  # asymmetry
            dist[i, j] += 1
    assert _error(Instance, n, dist) == _error(ref.validate_distances, n, dist)


def test_random_metric_instance_matches_loop():
    # The sizes of the tests and of the benchmark corpora, and more.
    for n in range(4, 131, 2):
        for seed in range(40):
            got, want = random_metric_instance(n, seed).dist, ref.random_metric_instance(n, seed).dist
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, seed)


def test_tight_instance_matches_loop():
    for n in range(4, 199, 2):
        assert np.array_equal(tight_instance(n).dist, ref.tight_instance(n).dist), n
