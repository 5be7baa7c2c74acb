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
from ttp2.oracle import random_metric_instance
from ttp2.ordering import (
    binding_vector,
    bind_template,
    extract_coefficients,
    random_ordering,
)
from ttp2.pipeline import build_template
from ttp2.schedule import Schedule, total_distance, validate_schedule

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
    return Schedule(n=n, table=t)


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
