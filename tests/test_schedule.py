import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttp2.errors import FormatError, ValidationError
from ttp2.even import build_even_template
from ttp2.instance import Instance
from ttp2.matching import independent_lower_bound, min_weight_perfect_matching
from ttp2.oracle import random_metric_instance, tight_instance
from ttp2.schedule import (
    games_to_schedule,
    itinerary_of,
    parse_schedule_csv,
    render_schedule,
    Schedule,
    total_distance,
    validate_schedule,
)
from ttp2.ordering import extract_coefficients


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_even_template(8),
        lambda: random_metric_instance(8, 1),
        lambda: extract_coefficients(build_even_template(8)),
    ],
    ids=["Schedule", "Instance", "TravelCoefficients"],
)
def test_model_objects_compare_and_hash_by_identity(make):
    """Equal values in two objects are two objects: == and hash() go by
    identity and never reach the array fields."""
    x, y = make(), make()
    assert x == x and x != y
    assert len({x, y}) == 2


def test_golden_table_is_feasible(golden_n8):
    rep = validate_schedule(golden_n8)
    assert rep.feasible
    assert rep.violations == ()


def test_bounded_by_k_violation_detected(golden_n8):
    # Flip team 1's day-3 game (and the mirror cell) to force 3 straight aways.
    t = np.array(golden_n8.table)
    t[0, 2] = -3
    t[2, 2] = 1
    rep = validate_schedule(Schedule(t))
    assert not rep.feasible
    assert any(v[0] == "bounded-by-k" and v[1] == 2 for v in rep.violations)


@pytest.mark.parametrize("layout", ["fortran", "transposed-view"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_validate_reads_a_table_of_any_layout(golden_n8, layout, k):
    """A Fortran-ordered table, or a days x teams array passed as its
    transpose, gives the violations of the same table in C order."""
    t = np.array(golden_n8.table)
    t[0, 2:4] = -3, -4  # team 1 away five days running
    t[2, 2] = t[3, 3] = 1
    other = np.asfortranarray(t) if layout == "fortran" else np.ascontiguousarray(t.T).T
    expected = validate_schedule(Schedule(t), k=k).violations
    assert any(v[0] == "bounded-by-k" for v in expected)
    assert validate_schedule(Schedule(other), k=k).violations == expected


def test_validate_rejects_k_below_one(golden_n8):
    for k in (0, -1):
        with pytest.raises(ValueError):
            validate_schedule(golden_n8, k=k)


def test_no_repeat_violation_detected(golden_n8):
    # Swapping the first two days for all teams leaves day 2 hosting the
    # same opponents day 3 visits: a repeat between the new days 2 and 3.
    t = np.array(golden_n8.table)
    t[:, [0, 1]] = t[:, [1, 0]]
    rep = validate_schedule(Schedule(t))
    assert not rep.feasible
    assert any(v[0] == "no-repeat" and v[2] == 2 for v in rep.violations)


def test_fixed_game_value_violation_detected(golden_n8):
    t = np.array(golden_n8.table)
    # Make team 1 play away at team 3 twice (days 3 and 4), mirrors adjusted.
    t[0, 3] = 3
    t[2, 3] = -1
    t[3, 3] = 4  # keep shape errors out of the way for teams 4 (now broken)
    rep = validate_schedule(Schedule(t))
    assert not rep.feasible
    assert any(v[0] == "fixed-game-value" for v in rep.violations)


def test_total_distance_zero_matrix(golden_n8):
    z = Instance(n=8, dist=np.zeros((8, 8), dtype=np.int64))
    assert total_distance(golden_n8, z).total == 0


def test_total_distance_golden_on_tight(golden_n8):
    ti = tight_instance(8)
    rep = total_distance(golden_n8, ti)
    assert rep.total == 56  # lower bound 48 plus extra 3n-16 = 8
    assert rep.total == sum(rep.per_team)


@pytest.mark.parametrize("teams, inst_teams", [(8, 10), (10, 8)])
def test_total_distance_rejects_a_team_count_mismatch(teams, inst_teams):
    from ttp2.even import build_even_template
    from ttp2.odd import build_odd_template

    s = build_even_template(8) if teams == 8 else build_odd_template(10)
    with pytest.raises(ValidationError, match=f"schedule has {teams} teams, instance has {inst_teams}"):
        total_distance(s, random_metric_instance(inst_teams, 1))


HAND_N4 = np.array(
    [
        [2, -3, -4, 3, 4, -2],
        [-1, 4, 3, -4, -3, 1],
        [4, 1, -2, -1, 2, -4],
        [-3, -2, 1, 2, -1, 3],
    ],
    dtype=np.int64,
)


def test_total_distance_hand_trace():
    d = np.array(
        [[0, 1, 2, 4], [1, 0, 3, 6], [2, 3, 0, 5], [4, 6, 5, 0]], dtype=np.int64
    )
    inst = Instance(n=4, dist=d)
    s = Schedule(HAND_N4)
    assert validate_schedule(s).feasible
    rep = total_distance(s, inst)
    # Team 1 venues: home,t2,home,home,t3,t4,home -> 1+1+2+5+4 = 13
    assert rep.per_team[0] == 1 + 1 + 2 + 5 + 4
    # Team 2 venues: home,home,t4,t3,home,home,t1,home -> 6+5+3+1+1 = 16
    assert rep.per_team[1] == 6 + 5 + 3 + 1 + 1
    # Team 3 venues: home,t4,t1,home,home,t2,home,home -> 5+4+2+3+3 = 17
    assert rep.per_team[2] == 5 + 4 + 2 + 3 + 3
    # Team 4 venues: home,home,home,t1,t2,home,t3,home -> 4+1+6+5+5 = 21
    assert rep.per_team[3] == 4 + 1 + 6 + 5 + 5
    assert rep.total == sum(rep.per_team) == 67


@pytest.mark.parametrize("scale", [1, 2**50, 2**60], ids=["float-exact", "past-2**53", "walk-past-2**63"])
def test_total_distance_exact_in_python_ints_past_float_exact(scale):
    # At 2**60 one team's walk passes 2**63, where int64 legs would wrap.
    d = np.array([[0, 1, 2, 4], [1, 0, 3, 6], [2, 3, 0, 5], [4, 6, 5, 0]], dtype=np.int64) * scale
    inst = Instance(n=4, dist=d)
    rep = total_distance(Schedule(HAND_N4), inst)
    assert inst.float_exact == (scale == 1)
    assert rep.per_team == (13 * scale, 16 * scale, 17 * scale, 21 * scale)
    assert all(type(t) is int for t in rep.per_team) and rep.total == 67 * scale


def test_walks_of_negative_zero_legs_read_positive_zero_as_the_lb_rows(golden_n8):
    """Every leg is -0.0: sum() from 0 gives 0.0 for each walk, as for
    each LB row; a cumsum that starts at the first leg would keep -0.0."""
    inst = Instance(8, np.full((8, 8), -0.0))
    walks = total_distance(golden_n8, inst).per_team
    bounds = independent_lower_bound(inst, min_weight_perfect_matching(inst)).per_team
    for figure in walks + bounds:
        assert figure == 0.0 and math.copysign(1.0, figure) == 1.0


def test_itinerary_trips(golden_n8):
    trips = itinerary_of(golden_n8, 0)
    assert trips[0] == [2, 3]  # first trip of team 1 visits t3 then t4
    flat = [t for trip in trips for t in trip]
    assert sorted(flat) == [1, 2, 3, 4, 5, 6, 7]  # each opponent visited once
    assert all(1 <= len(trip) <= 2 for trip in trips)


def test_itinerary_single_trips_and_pairs():
    s = Schedule(HAND_N4)
    assert itinerary_of(s, 0) == [[1], [2, 3]]
    assert itinerary_of(s, 3) == [[0, 1], [2]]


@pytest.mark.parametrize("team", [-1, 8, np.int8(-1)], ids=["-1", "8", "np.int8(-1)"])
def test_itinerary_rejects_a_team_outside_0_to_n_minus_1(golden_n8, team):
    # NumPy would read row n - 1 for team -1.
    with pytest.raises(IndexError, match=f"team {team} is not in 0..7"):
        itinerary_of(golden_n8, team)


@pytest.mark.parametrize(
    "team, outcome",
    [(2.0, TypeError), (np.float64(2), TypeError), (True, 1), (np.int64(3), 3)],
    ids=["float", "np.float64", "True", "np.int64"],
)
def test_itinerary_reads_the_team_with_operator_index(golden_n8, team, outcome):
    """A float team raises TypeError naming its type; a bool or a NumPy
    integer reads as the equal int."""
    if outcome is TypeError:
        with pytest.raises(TypeError, match="float(64)?' object cannot be interpreted as an integer"):
            itinerary_of(golden_n8, team)
    else:
        assert itinerary_of(golden_n8, team) == itinerary_of(golden_n8, outcome)


def test_render_roundtrip(golden_n8):
    text = render_schedule(golden_n8)
    again = parse_schedule_csv(text)
    assert np.array_equal(again.table, golden_n8.table)
    assert render_schedule(again) == text


def test_render_roundtrip_brute_force_and_construction():
    from ttp2.even import build_even_template
    from ttp2.oracle import brute_force_optimal

    z = Instance(n=4, dist=np.zeros((4, 4), dtype=np.int64))
    s4, _ = brute_force_optimal(z)
    assert np.array_equal(parse_schedule_csv(render_schedule(s4)).table, s4.table)

    s20 = build_even_template(20)
    assert np.array_equal(parse_schedule_csv(render_schedule(s20)).table, s20.table)


def test_parse_schedule_rejects_garbage():
    with pytest.raises(FormatError):
        parse_schedule_csv("+1,bogus\n")


_ROWS_N4 = [",".join(f"+{e}" if e > 0 else str(e) for e in row) for row in HAND_N4.tolist()]


def _n4_csv(third_row=None, sep="\n"):
    rows = list(_ROWS_N4)
    if third_row is not None:
        rows[2] = third_row
    return sep.join(rows) + sep


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(_n4_csv(), id="plain"),
        pytest.param(_n4_csv().rstrip("\n"), id="no-final-newline"),
        pytest.param(_n4_csv(sep="\r\n"), id="crlf"),
        pytest.param(_n4_csv(sep="\r"), id="cr"),
        pytest.param(_n4_csv().replace("\n", "\n\n  \t\n", 1), id="blank-lines-between-rows"),
        pytest.param("\n" + _n4_csv() + "\n \n", id="blank-lines-around"),
        pytest.param(_n4_csv().replace(",", " , ").replace("\n", " \n"), id="spaces-around-cells"),
        pytest.param(_n4_csv().replace(",", "\t,"), id="tabs-around-cells"),
        pytest.param(_n4_csv().replace("+", ""), id="unsigned-positive-cells"),
        # Whitespace around a cell, though str.splitlines breaks lines there.
        pytest.param(_n4_csv().replace(",", ",\v"), id="vt-before-cells"),
        pytest.param(_n4_csv().replace(",", "\f,"), id="ff-after-cells"),
        pytest.param(_n4_csv().replace(",", ",\x1c\x85\u2028 "), id="unicode-space-before-cells"),
    ],
)
def test_parse_schedule_accepts(text):
    assert np.array_equal(parse_schedule_csv(text).table, HAND_N4)


def test_parse_schedule_keeps_a_zero_cell_for_validation():
    s = parse_schedule_csv(_n4_csv("0,+1,-2,-1,+2,-4"))
    assert s.table[2, 0] == 0
    assert not validate_schedule(s).feasible


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "empty schedule CSV", id="empty"),
        pytest.param(" \n\n\t\r\n", "empty schedule CSV", id="blank-only"),
        pytest.param(_n4_csv("+4,+1,-2,-1,+2,-4,+3"), "line 3", id="long-row"),
        pytest.param(_n4_csv("+4,+1,-2,-1,+2"), "line 3", id="short-row"),
        pytest.param(_n4_csv().replace("-2\n", "-2,\n", 1), "line 1", id="trailing-comma"),
        pytest.param("+1,-1\n-1,+1\n+1,-1\n", "3 teams", id="wrong-column-count"),
        pytest.param(_n4_csv("+5,+1,-2,-1,+2,-4"), "cell +5 names no team of 4", id="cell-n-plus-1"),
        pytest.param(_n4_csv("-5,+1,-2,-1,+2,-4"), "cell -5 names no team of 4", id="cell-minus-n-minus-1"),
        pytest.param(
            _n4_csv("+1234567890123456789012345,+1,-2,-1,+2,-4"),
            "cell +1234567890123456789012345 names no team of 4",
            id="25-digit-token",
        ),
        pytest.param(
            _n4_csv("-9223372036854775809,+1,-2,-1,+2,-4"),
            "cell -9223372036854775809 names no team of 4",
            id="below-int64",
        ),
        pytest.param(_n4_csv("#,+1,-2,-1,+2,-4"), "'#'", id="hash-cell"),
        pytest.param(_n4_csv("+4 # home,+1,-2,-1,+2,-4"), "'+4 # home'", id="hash-comment"),
        pytest.param(_n4_csv("1_000,+1,-2,-1,+2,-4"), "1_000", id="underscore-1_000"),
        # int() reads these two as 4; the CSV grammar takes ASCII digits only.
        pytest.param(_n4_csv("+0_4,+1,-2,-1,+2,-4"), "'+0_4'", id="underscore-in-range"),
        pytest.param(_n4_csv("+\u0664,+1,-2,-1,+2,-4"), "line 3, column 1", id="arabic-indic-digit"),
        pytest.param(_n4_csv("4.0,+1,-2,-1,+2,-4"), "'4.0'", id="float-cell"),
        pytest.param(_n4_csv(",+1,-2,-1,+2,-4"), "line 3, column 1", id="empty-cell"),
        pytest.param(_n4_csv("++4,+1,-2,-1,+2,-4"), "'++4'", id="double-sign"),
        pytest.param(_n4_csv().replace(",", ";"), "line 1", id="semicolons"),
        # Only LF, CRLF and CR end a line: with any other separator the text
        # is one row of a one-team schedule.
        *(
            pytest.param(_n4_csv(sep=sep), "line 1", id=f"sep-{ord(sep):#x}")
            for sep in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
        ),
    ],
)
def test_parse_schedule_rejects(text, message):
    with pytest.raises(FormatError) as exc:
        parse_schedule_csv(text)
    assert message in str(exc.value)


def test_parse_schedule_names_the_line_of_a_bad_cell():
    # Blank lines count: the bad cell is on the fourth line of the text.
    with pytest.raises(FormatError, match=r"cell \+5 names no team of 4 \(line 4, column 2\)"):
        parse_schedule_csv(_n4_csv().replace("\n", "\n\n", 1).replace("+4,+1,-2", "+4,+5,-2"))


def test_render_formats_zero_and_cells_beyond_n():
    table = [[0, 5, -7, 0], [2**62, -(2**63), 1, 2**62], [-1, 0, 2, -1]]
    assert render_schedule(Schedule(table)) == (
        "0,+5,-7,0\n+4611686018427387904,-9223372036854775808,+1,+4611686018427387904\n-1,0,+2,-1\n"
    )
    assert render_schedule(Schedule(np.zeros((1, 0), dtype=np.int64))) == "\n"


def test_validate_flags_a_cell_of_int64_min():
    # np.abs(-2**63) is -2**63: the cell must still read as naming no team.
    table = np.array(HAND_N4)
    table[0, 2] = -(2**63)
    assert validate_schedule(Schedule(table)).violations == (
        ("fixed-game-time", 0, 2),
        ("fixed-game-time", 3, 2),
    )


@pytest.mark.parametrize(
    "table, message",
    [
        (np.where(HAND_N4 == -2, -2.5, HAND_N4), "dtype float64"),  # once truncated to -2
        (np.where(HAND_N4 == 4, 2.0**70, HAND_N4), "dtype float64"),  # once -2**63, with a warning
        (HAND_N4 > 0, "dtype bool"),  # once 0/1
        (np.full((4, 6), 2**63, dtype=np.uint64), "dtype uint64: 9223372036854775808 does not fit in int64"),
    ],
    ids=["-2.5", "2**70", "bool", "uint64-2**63"],
)
def test_schedule_rejects_a_table_that_int64_does_not_hold(table, message):
    with pytest.raises(FormatError, match=message):
        Schedule(table)


@pytest.mark.parametrize("shape", [(6,), (4, 6, 1), (4, 5), (0, 0)])
def test_schedule_rejects_a_table_not_n_by_2n_minus_2(shape):
    with pytest.raises(FormatError, match=rf"table shape \({shape[0]},.* is not n x \(2n-2\)"):
        Schedule(np.zeros(shape, dtype=np.int64))


def test_schedule_reads_n_and_days_from_the_table(golden_n8):
    assert (golden_n8.n, golden_n8.days) == (8, 14)
    one = Schedule(np.zeros((1, 0), dtype=np.int64))
    assert (one.n, one.days) == (1, 0)


# sha256 of the rendered CSV of every digest template, in the order of
# tests/test_template_digest.py.
RENDERED_TEMPLATES_SHA256 = "ae2874404c30d1a2d552896142094996f2a4d6ee7e0f6800c0260236223851fb"


def test_rendered_templates_unchanged_up_to_122():
    from ttp2.even import build_even_template, compute_L
    from ttp2.odd import build_odd_template

    digest = hashlib.sha256()
    count = 0
    for n in range(8, 123, 2):
        if n % 4 == 0:
            templates = [build_even_template(n, p) for p in compute_L(n)[2]]
        else:
            templates = [build_odd_template(n)] if n >= 10 else []
        for template in templates:
            text = render_schedule(template)
            assert np.array_equal(parse_schedule_csv(text).table, template.table)
            digest.update(text.encode())
            count += 1
    assert count == 110
    assert digest.hexdigest() == RENDERED_TEMPLATES_SHA256


@st.composite
def _in_range_tables(draw):
    n = draw(st.integers(2, 12))
    cells = draw(st.lists(st.integers(-n, n), min_size=n * (2 * n - 2), max_size=n * (2 * n - 2)))
    return Schedule(np.array(cells, dtype=np.int64).reshape(n, 2 * n - 2))


@settings(max_examples=80, deadline=None)
@given(s=_in_range_tables())
def test_parse_of_render_gives_the_table(s):
    again = parse_schedule_csv(render_schedule(s))
    assert again.n == s.n
    assert np.array_equal(again.table, s.table)


def test_validator_relabeling_invariant(golden_n8):
    perm = np.random.default_rng(3).permutation(8)
    table = np.zeros_like(golden_n8.table)
    for team in range(8):
        for d in range(14):
            e = int(golden_n8.table[team, d])
            opp = perm[abs(e) - 1] + 1
            table[perm[team], d] = opp if e > 0 else -opp
    s = Schedule(table)
    assert validate_schedule(s).feasible

    ti = tight_instance(8)
    inv = np.argsort(perm)  # relabeled.dist[perm[a], perm[b]] == ti.dist[a, b]
    relabeled = Instance(n=8, dist=ti.dist[np.ix_(inv, inv)])
    assert total_distance(s, relabeled).total == total_distance(golden_n8, ti).total


# A valid n=4 double round robin: three days, then the same with venues swapped.
_DAYS_N4 = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
_DAYS_N4 += [[(h, a) for a, h in day] for day in _DAYS_N4]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda days: days[:-1], id="wrong-day-count"),
        pytest.param(lambda days: [[(0, 1)]] + days[1:], id="missing-team"),
    ],
)
def test_games_to_schedule_rejects_bad_days(edit):
    with pytest.raises(FormatError):
        games_to_schedule(4, edit(_DAYS_N4))


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda days: [[(0, 0), (2, 3)]] + days[1:], id="self-game"),
        pytest.param(lambda days: [[(0, 1), (0, 3)]] + days[1:], id="team-twice"),
    ],
)
def test_validate_reports_bad_days_of_games_to_schedule(edit):
    """The scatter checks only the shape of its games; validate_schedule
    reports a day that pairs a team with itself or schedules one twice."""
    report = validate_schedule(games_to_schedule(4, edit(_DAYS_N4)))
    assert not report.feasible
    bad_time = [(team, day) for name, team, day in report.violations if name == "fixed-game-time"]
    assert bad_time and {day for _, day in bad_time} == {0}


def test_run_bound_is_read_as_an_integer_index(golden_n8):
    for k in (1, 2):  # k = 1 flags every two-game run of the golden schedule
        assert validate_schedule(golden_n8, np.int64(k)) == validate_schedule(golden_n8, k)
    assert validate_schedule(golden_n8, 1).violations
    with pytest.raises(TypeError):
        validate_schedule(golden_n8, 2.0)
