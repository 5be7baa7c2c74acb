import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2.errors import FormatError, ValidationError
from ttp2.instance import Instance, check_metric, parse_instance, travel_bound, write_instance
from ttp2.oracle import random_metric_instance, tight_instance


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


def test_check_metric_is_pure():
    inst = random_metric_instance(6, 2)
    assert check_metric(inst) == check_metric(inst)


def test_relabeling_keeps_validity():
    inst = random_metric_instance(8, 11)
    perm = np.random.default_rng(0).permutation(8)
    relabeled = Instance(n=8, dist=inst.dist[np.ix_(perm, perm)])
    assert check_metric(relabeled).triangle_violations == 0
