import numpy as np
import pytest

from ttp2.errors import FormatError
from ttp2.instance import Instance
from ttp2.oracle import tight_instance
from ttp2.schedule import (
    games_to_schedule,
    itinerary_of,
    parse_schedule_csv,
    render_schedule,
    Schedule,
    total_distance,
    validate_schedule,
)


def test_golden_table_is_feasible(golden_n8):
    rep = validate_schedule(golden_n8)
    assert rep.feasible
    assert rep.violations == ()


def test_bounded_by_k_violation_detected(golden_n8):
    # Flip team 1's day-3 game (and the mirror cell) to force 3 straight aways.
    t = np.array(golden_n8.table)
    t[0, 2] = -3
    t[2, 2] = 1
    rep = validate_schedule(Schedule(n=8, table=t))
    assert not rep.feasible
    assert any(v[0] == "bounded-by-k" and v[1] == 2 for v in rep.violations)


def test_validate_rejects_k_below_one(golden_n8):
    for k in (0, -1):
        with pytest.raises(ValueError):
            validate_schedule(golden_n8, k=k)


def test_no_repeat_violation_detected(golden_n8):
    # Swapping the first two days for all teams leaves day 2 hosting the
    # same opponents day 3 visits: a repeat between the new days 2 and 3.
    t = np.array(golden_n8.table)
    t[:, [0, 1]] = t[:, [1, 0]]
    rep = validate_schedule(Schedule(n=8, table=t))
    assert not rep.feasible
    assert any(v[0] == "no-repeat" and v[2] == 2 for v in rep.violations)


def test_fixed_game_value_violation_detected(golden_n8):
    t = np.array(golden_n8.table)
    # Make team 1 play away at team 3 twice (days 3 and 4), mirrors adjusted.
    t[0, 3] = 3
    t[2, 3] = -1
    t[3, 3] = 4  # keep shape errors out of the way for teams 4 (now broken)
    rep = validate_schedule(Schedule(n=8, table=t))
    assert not rep.feasible
    assert any(v[0] == "fixed-game-value" for v in rep.violations)


def test_total_distance_zero_matrix(golden_n8):
    z = Instance(n=8, dist=np.zeros((8, 8), dtype=np.int64))
    assert total_distance(golden_n8, z).total == 0


def test_total_distance_golden_on_tight(golden_n8):
    ti = tight_instance(8)
    rep = total_distance(golden_n8, ti, lb=48)
    assert rep.total == 56  # lower bound 48 plus extra 3n-16 = 8
    assert rep.total == sum(rep.per_team)
    assert rep.lb_gap_percent == pytest.approx(100 * 8 / 48)


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
    s = Schedule(n=4, table=HAND_N4)
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


def test_itinerary_trips(golden_n8):
    trips = itinerary_of(golden_n8, 0)
    assert trips[0] == [2, 3]  # first trip of team 1 visits t3 then t4
    flat = [t for trip in trips for t in trip]
    assert sorted(flat) == [1, 2, 3, 4, 5, 6, 7]  # each opponent visited once
    assert all(1 <= len(trip) <= 2 for trip in trips)


def test_itinerary_single_trips_and_pairs():
    s = Schedule(n=4, table=HAND_N4)
    assert itinerary_of(s, 0) == [[1], [2, 3]]
    assert itinerary_of(s, 3) == [[0, 1], [2]]


def test_render_roundtrip(golden_n8):
    text = render_schedule(golden_n8)
    again = parse_schedule_csv(text)
    assert np.array_equal(again.table, golden_n8.table)
    assert render_schedule(again) == text


def test_render_roundtrip_brute_force_and_construction():
    from ttp2.even import build_even_template
    from ttp2.oracle import brute_force_optimal

    z = Instance(n=4, dist=np.zeros((4, 4), dtype=np.int64))
    s4, _ = brute_force_optimal(z, lower_bound=0)
    assert np.array_equal(parse_schedule_csv(render_schedule(s4)).table, s4.table)

    s20 = build_even_template(20)
    assert np.array_equal(parse_schedule_csv(render_schedule(s20)).table, s20.table)


def test_parse_schedule_rejects_garbage():
    with pytest.raises(FormatError):
        parse_schedule_csv("+1,bogus\n")


def test_validator_relabeling_invariant(golden_n8):
    perm = np.random.default_rng(3).permutation(8)
    table = np.zeros_like(golden_n8.table)
    for team in range(8):
        for d in range(14):
            e = int(golden_n8.table[team, d])
            opp = perm[abs(e) - 1] + 1
            table[perm[team], d] = opp if e > 0 else -opp
    s = Schedule(n=8, table=table)
    assert validate_schedule(s).feasible

    ti = tight_instance(8)
    inv = np.argsort(perm)  # relabeled.d(perm[a], perm[b]) == ti.d(a, b)
    relabeled = Instance(n=8, dist=ti.dist[np.ix_(inv, inv)])
    assert total_distance(s, relabeled).total == total_distance(golden_n8, ti).total


# A valid n=4 double round robin: three days, then the same with venues swapped.
_DAYS_N4 = [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]
_DAYS_N4 += [[(h, a) for a, h in day] for day in _DAYS_N4]


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda days: days[:-1], id="wrong-day-count"),
        pytest.param(lambda days: [[(0, 0), (2, 3)]] + days[1:], id="self-game"),
        pytest.param(lambda days: [[(0, 1), (0, 3)]] + days[1:], id="team-twice"),
        pytest.param(lambda days: [[(0, 1)]] + days[1:], id="missing-team"),
    ],
)
def test_games_to_schedule_rejects_bad_days(edit):
    with pytest.raises(FormatError):
        games_to_schedule(4, edit(_DAYS_N4))
