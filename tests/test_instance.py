import functools
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttp2.errors import FormatError, ValidationError
from ttp2.instance import Instance, check_metric, parse_instance, travel_bound, write_instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.pipeline import solve
from ttp2.schedule import Schedule, total_distance


def test_parse_leading_count_zero_matrix():
    text = "4 " + " ".join(["0"] * 16)
    inst = parse_instance(text)
    assert inst.n == 4
    assert inst.integral
    assert inst.dist.sum() == 0


def test_integral_follows_the_dtype():
    d = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
    assert Instance(n=4, dist=d).integral
    assert Instance(n=4, dist=d, integral=True).integral
    assert not Instance(n=4, dist=d.astype(np.float64)).integral
    assert not Instance(n=4, dist=d / 2, integral=False).integral
    assert not parse_instance("4 " + " ".join(str(float(v)) for v in d.ravel())).integral


@pytest.mark.parametrize("dtype, integral", [(np.int64, False), (np.float64, True)])
def test_integral_contradicting_the_dtype_is_rejected(dtype, integral):
    d = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], dtype=dtype)
    with pytest.raises(ValidationError, match="integral"):
        Instance(n=4, dist=d, integral=integral)


def test_parse_bare_square_block():
    ti = tight_instance(4)
    body = " ".join(str(x) for row in ti.dist.tolist() for x in row)
    inst = parse_instance(body)
    assert inst.n == 4
    assert np.array_equal(inst.dist, ti.dist)


def test_parse_prefers_leading_count_on_ambiguity():
    # A leading even token followed by exactly first^2 entries is format (a);
    # n=4 here, not a bare 17-token block (17 is not a square anyway).
    inst = parse_instance("4 " + " ".join(["0"] * 16))
    assert inst.n == 4


def test_parse_odd_leading_count_is_an_odd_team_count():
    with pytest.raises(ValidationError, match="team count must be even and >= 4, got 5"):
        parse_instance("5 " + " ".join(["0"] * 25))


def test_parse_bad_token_count():
    with pytest.raises(FormatError):
        parse_instance(" ".join(["0"] * 10))


def test_parse_rejects_asymmetry_naming_cell():
    vals = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [9, 5, 6, 0]]
    text = "4 " + " ".join(str(v) for row in vals for v in row)
    with pytest.raises(ValidationError, match=r"\(0,3\)|\(3,0\)"):
        parse_instance(text)


def test_parse_rejects_negative_and_odd_n():
    with pytest.raises(ValidationError):
        parse_instance("4 0 -1 1 1 -1 0 1 1 1 1 0 1 1 1 1 0")
    with pytest.raises(ValidationError):
        parse_instance(" ".join(["0"] * 9))  # 3x3 block


def test_roundtrip_identity():
    for inst in (tight_instance(4), random_metric_instance(12, 5), tight_instance(10)):
        again = parse_instance(write_instance(inst))
        assert again.n == inst.n
        assert np.array_equal(again.dist, inst.dist)


def test_roundtrip_is_byte_stable():
    inst = random_metric_instance(8, 0)
    text = write_instance(inst)
    assert write_instance(parse_instance(text)) == text


def _kind_instance(kind, n, seed):
    """An instance of one of the kinds the text format must carry exactly."""
    rng = np.random.default_rng(seed)
    if kind == "real":
        pts = rng.uniform(0, 1000, size=(n, 2))
        diff = pts[:, None] - pts[None]
        return Instance(n=n, dist=np.hypot(diff[..., 0], diff[..., 1]))
    if kind == "near_2_63":
        d = np.triu(2**63 - 1 - rng.integers(0, 1000, size=(n, n)), 1)
        return Instance(n=n, dist=d + d.T)
    d = random_metric_instance(n, seed).dist
    return Instance(n=n, dist={"int64": d, "integer_float": d.astype(float), "e300": d * 1e300}[kind])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["int64", "real", "integer_float", "e300", "near_2_63"]),
    n=st.integers(2, 10).map(lambda h: 2 * h),
    seed=st.integers(0, 2**16),
)
def test_write_then_parse_gives_the_same_values_and_dtype(kind, n, seed):
    inst = _kind_instance(kind, n, seed)
    again = parse_instance(write_instance(inst))
    assert again.dist.dtype == inst.dist.dtype
    assert again.integral == inst.integral
    assert np.array_equal(again.dist, inst.dist)


@pytest.mark.parametrize(
    "token", ["9223372036854775808", "-9223372036854775809", "1" + "0" * 300], ids=["2^63", "-2^63-1", "10^300"]
)
def test_parse_rejects_integers_beyond_64_bits(token):
    rows = [["0", token, "1", "1"], [token, "0", "1", "1"], ["1", "1", "0", "1"], ["1", "1", "1", "0"]]
    with pytest.raises(FormatError, match=token):
        parse_instance("4\n" + "\n".join(" ".join(r) for r in rows))
    assert parse_instance("4 0 9223372036854775807 1 1 9223372036854775807 0 1 1 1 1 0 1 1 1 1 0").integral


@pytest.mark.parametrize(
    "token", ["1_0", "1_0.5", "1e1_0", "\u0661", "\u0661.5", "\uff11"], ids=["1_0", "1_0.5", "1e1_0", "arabic-indic-1", "arabic-indic-1.5", "fullwidth-1"]
)
def test_parse_rejects_underscores_and_non_ascii_digits(token):
    # int() and float() read every one of these; the format takes ASCII only.
    text = f"4\n0 {token} 1 1\n{token} 0 1 1\n1 1 0 1\n1 1 1 0\n"
    with pytest.raises(FormatError, match=repr(token)):
        parse_instance(text)
    assert parse_instance(text.replace(token, "10")).dist.tolist()[0][1] == 10


def test_parse_keeps_non_ascii_whitespace_as_a_separator():
    inst = parse_instance("4\u00a00 1 2 3\u30001 0 4 5 2 4 0 6 3 5 6 0")
    assert inst.n == 4 and inst.dist.tolist()[2][3] == 6


def test_float_exact_below_two_to_the_53_only():
    n = 6
    unit = travel_bound(n, 1)
    d = 1 - np.eye(n, dtype=np.int64)
    below, above = (2**53 - 1) // unit, 2**53 // unit + 1
    assert Instance(n=n, dist=d * below).float_exact
    assert not Instance(n=n, dist=d * above).float_exact
    # Binary fractions are decided on their weights scaled to integers.
    below -= 1 - below % 2  # odd, so that the scale is 2**10
    above += 1 - above % 2
    for k, exact in ((below, True), (above, False)):
        inst = Instance(n=n, dist=d * (k / 2**10))
        assert inst.exact_weights[1] == 2**10 and inst.float_exact == exact
    assert Instance(n=n, dist=d.astype(float)).float_exact  # integers in float64
    assert not Instance(n=n, dist=np.sqrt(random_metric_instance(n, 1).dist)).float_exact


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
def test_d_max_and_float_dist_are_kept_on_the_instance(dtype):
    inst = Instance(n=8, dist=random_metric_instance(8, 2).dist.astype(dtype))
    assert inst.d_max == inst.dist.max() and type(inst.d_max) is type(inst.dist.max().item())
    f = inst.float_dist
    assert f.dtype == np.float64 and not f.flags.writeable and np.array_equal(f, inst.dist)
    assert inst.float_dist is f  # converted once
    assert (f is inst.dist) == (dtype is np.float64)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float32, np.float16])
def test_distances_are_kept_as_int64_or_float64(dtype):
    """Totals, bounds and kernels run in the library's two dtypes, so a
    float32 matrix is not summed in float32."""
    d = random_metric_instance(8, 1).dist.astype(dtype)
    inst = Instance(n=8, dist=d)
    assert inst.dist.dtype == (np.float64 if d.dtype.kind == "f" else np.int64)
    assert np.array_equal(inst.dist, d) and inst.integral == (d.dtype.kind != "f")


@pytest.mark.parametrize("dtype", [object, np.complex128, np.bool_])
def test_distances_of_other_dtypes_are_rejected(dtype):
    d = random_metric_instance(8, 1).dist.astype(dtype)
    with pytest.raises(ValidationError, match=f"distances of dtype {np.dtype(dtype)}"):
        Instance(n=8, dist=d)


def test_unsigned_distances_past_int64_are_rejected():
    d = np.zeros((4, 4), dtype=np.uint64)
    d[0, 1] = d[1, 0] = 2**63  # parse_instance rejects such a token too
    with pytest.raises(ValidationError, match="does not fit in int64"):
        Instance(n=4, dist=d)


def test_distances_whose_totals_overflow_float64_are_rejected():
    d = random_metric_instance(12, 3).dist.astype(float)
    limit = sys.float_info.max / (8 * 12 * 23)  # 8n(2n-1) max(d) must stay below it
    Instance(n=12, dist=d * (0.999 * limit / d.max()))
    with pytest.raises(ValidationError, match="overflow"):
        Instance(n=12, dist=d * (1.001 * limit / d.max()))
    with pytest.raises(ValidationError, match="overflow"):
        Instance(n=12, dist=d * 1e305)


def test_check_metric_zero_matrix():
    rep = check_metric(parse_instance("4 " + " ".join(["0"] * 16)))
    assert rep == type(rep)(0, 0)


def test_check_metric_tight_instances_hold():
    for n in (4, 8, 14):
        rep = check_metric(tight_instance(n))
        assert rep.triangle_violations == 0


def test_check_metric_reports_violation():
    d = np.array(
        [[0, 10, 1, 1], [10, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], dtype=np.int64
    )
    rep = check_metric(Instance(n=4, dist=d))
    assert rep.triangle_violations == 4
    assert rep.max_violation == 8


def test_check_metric_exact_past_int64_sums():
    # 2**53 * max(d) is below 2**63, but the sum of two such distances is not.
    inst = random_metric_instance(8, 1)
    scaled = Instance(n=8, dist=inst.dist * 2**53)
    assert 2 * scaled.d_max >= 2**63
    assert check_metric(inst) == check_metric(scaled) == type(check_metric(inst))(0, 0)


def test_check_metric_big_non_metric_matches_python_ints():
    rng = np.random.default_rng(7)
    d = np.triu(rng.integers(0, 2**63 - 1, size=(8, 8), dtype=np.int64), 1)
    inst = Instance(n=8, dist=d + d.T)
    w = inst.dist.tolist()
    excess = [
        w[i][j] - (w[i][h] + w[h][j])
        for i in range(8)
        for j in range(8)
        for h in range(8)
        if len({i, j, h}) == 3
    ]
    bad = [e for e in excess if e > 0]
    rep = check_metric(inst)
    assert bad and rep.triangle_violations == len(bad)
    assert rep.max_violation == max(bad) and type(rep.max_violation) is int


def test_check_metric_is_pure():
    inst = random_metric_instance(6, 2)
    assert check_metric(inst) == check_metric(inst)


def test_relabeling_keeps_validity():
    inst = random_metric_instance(8, 11)
    perm = np.random.default_rng(0).permutation(8)
    relabeled = Instance(n=8, dist=inst.dist[np.ix_(perm, perm)])
    assert check_metric(relabeled).triangle_violations == 0


@pytest.mark.parametrize("n", [8.0, np.float64(8), "8"], ids=["float", "float64", "str"])
def test_team_count_that_is_not_an_integer_is_rejected(n):
    with pytest.raises(ValidationError, match=type(n).__name__):
        Instance(n=n, dist=random_metric_instance(8, 1).dist)


def test_numpy_integer_team_count_is_kept_as_an_int():
    dist = random_metric_instance(8, 1).dist
    inst = Instance(n=np.int64(8), dist=dist)
    assert type(inst.n) is int
    assert solve(inst).total == solve(Instance(n=8, dist=dist)).total


@pytest.mark.parametrize("text", ["", " \n"])
def test_parse_rejects_empty_input(text):
    with pytest.raises(FormatError, match="^empty input$"):
        parse_instance(text)


def test_parse_names_a_non_numeric_token():
    with pytest.raises(FormatError, match=r"non-numeric token 'x'"):
        parse_instance("4 0 1 1 1 1 0 1 1 1 1 0 x 1 1 1 0")


def test_distance_matrix_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValidationError, match=r"distance matrix shape \(5, 5\) does not match n=4"):
        Instance(n=4, dist=np.zeros((5, 5), int))


def _left_sum(xs):
    """xs added left to right from 0: what sum() computes up to Python 3.11
    (from 3.12 on, sum() compensates float additions)."""
    return functools.reduce(operator.add, xs, 0)


@st.composite
def _instances_and_tables(draw):
    """An integer, a 2**62-scale integer or a real-valued instance, whose
    real zeros, the diagonal's included, take either sign, and an n x (2n-2)
    table of cells in -n..n (every such table has a venue walk).  Euclidean
    distances between integer points make float sums depend on their order."""
    kind = draw(st.sampled_from(["int", "2**62", "real", "euclid"]))
    n = draw(st.sampled_from([4, 6, 8, 10, 12, 16]))
    iu = np.triu_indices(n, 1)
    pairs = len(iu[0])
    zero = st.sampled_from([0.0, -0.0])
    if kind in ("int", "2**62"):
        top = 1000 if kind == "int" else 2**62
        upper = draw(st.lists(st.integers(0, top), min_size=pairs, max_size=pairs))
        diagonal, dtype = [0] * n, np.int64
    else:
        if kind == "real":
            upper = draw(st.lists(st.one_of(zero, st.floats(0.0, 1e6)), min_size=pairs, max_size=pairs))
        else:
            point = st.tuples(st.integers(0, 1000), st.integers(0, 1000))
            pts = np.array(draw(st.lists(point, min_size=n, max_size=n)))
            upper = np.linalg.norm(pts[:, None] - pts[None], axis=-1)[iu].tolist()
            for i, z in draw(st.lists(st.tuples(st.integers(0, pairs - 1), zero), max_size=2)):
                upper[i] = z
        diagonal, dtype = draw(st.lists(zero, min_size=n, max_size=n)), np.float64
    d = np.zeros((n, n), dtype)
    d[iu] = d.T[iu] = upper
    np.fill_diagonal(d, diagonal)
    cells = draw(st.lists(st.integers(-n, n), min_size=n * (2 * n - 2), max_size=n * (2 * n - 2)))
    return Instance(n, d), np.array(cells, dtype=np.int64).reshape(n, 2 * n - 2)


# Ten points whose D_M and D_G change when their terms are added in reverse.
_ORDER_SENSITIVE = np.array(
    [[473, 512], [755, 951], [34, 144], [823, 949], [249, 312]]
    + [[869, 423], [273, 828], [257, 409], [644, 550], [85, 27]]
)


@settings(max_examples=80, deadline=None)
@given(_instances_and_tables())
@example((Instance(8, np.full((8, 8), -0.0)), np.zeros((8, 14), dtype=np.int64)))
@example(
    (
        Instance(10, np.linalg.norm(_ORDER_SENSITIVE[:, None] - _ORDER_SENSITIVE[None], axis=-1)),
        np.tile(np.arange(18) % 10 + 1, (10, 1)),
    )
)
def test_every_reported_distance_sum_is_a_sum_from_zero(case):
    """Walks, LB rows, D_G and D_M each equal the left-to-right sum from 0
    of the same Python scalars in the same order, by repr, so that the type
    and the sign of a zero count too."""
    inst, table = case
    n, d = inst.n, inst.dist.tolist()
    m = min_weight_perfect_matching(inst)
    d_m = _left_sum(d[i][j] for i, j in m.pairs)
    assert repr(m.weight) == repr(d_m)
    assert repr(m.d_g) == repr(_left_sum(d[i][j] for i in range(n) for j in range(i + 1, n)))
    lb = independent_lower_bound(inst, m)
    assert repr(lb.per_team) == repr(tuple(_left_sum(row) + d_m for row in d))
    walks = []
    for team, row in enumerate(table.tolist()):
        venues = [team] + [c - 1 if c > 0 else team for c in row] + [team]
        walks.append(_left_sum(d[a][b] for a, b in zip(venues, venues[1:])))
    assert repr(total_distance(Schedule(table), inst).per_team) == repr(tuple(walks))
