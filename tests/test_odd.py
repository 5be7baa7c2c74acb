import pytest

from ttp2.errors import DomainError
from ttp2.matching import min_weight_perfect_matching
from ttp2.odd import build_odd_template
from ttp2.oracle import tight_instance
from ttp2.schedule import total_distance, validate_schedule


def test_feasibility_sweep_both_mod8_variants():
    for n in range(10, 42, 4):  # alternates n = 2 and n = 6 (mod 8)
        rep = validate_schedule(build_odd_template(n), k=2)
        assert rep.feasible, (n, rep.violations[:4])


def test_tight_extra_cost_is_5n_minus_20():
    for n in range(10, 42, 4):
        ti = tight_instance(n)
        total = total_distance(build_odd_template(n), ti).total
        assert total == n * (n - 2) + 5 * n - 20


N_2_MOD_4 = range(10, 123, 4)


def test_r_team_rhythms():
    for n in N_2_MOD_4:
        s = build_odd_template(n)
        m = n // 2
        r1, r2 = 2 * m - 2, 2 * m - 1
        for q in range(m - 2):
            p1 = "".join("A" if s.table[r1, 4 * q + d] > 0 else "H" for d in range(4))
            p2 = "".join("A" if s.table[r2, 4 * q + d] > 0 else "H" for d in range(4))
            assert p1 == "AHHA" and p2 == "HAAH", (n, q, p1, p2)


def test_whites_play_r_teams_zero_two_or_four_times_per_slot():
    # Per right super-game: no games against R, both games against one R
    # team (one home, one away), or all four.
    for n in N_2_MOD_4:
        s = build_odd_template(n)
        m = n // 2
        r_teams = {2 * m - 2, 2 * m - 1}
        for q in range(m - 2):
            for team in range(2 * m - 4):  # white teams
                games = {
                    (abs(s.table[team, d]) - 1, s.table[team, d] > 0)
                    for d in range(4 * q, 4 * q + 4)
                    if abs(s.table[team, d]) - 1 in r_teams
                }
                if len(games) == 2:
                    assert len({o for o, _ in games}) == 1, (n, q, team, games)
                    assert {a for _, a in games} == {True, False}, (n, q, team, games)
                else:
                    assert len(games) in (0, 4), (n, q, team, games)


def test_final_block_pairs_partners_twice():
    for n in (10, 14):
        s = build_odd_template(n)
        for t in range(n):
            partner = t + 1 if t % 2 == 0 else t - 1
            opps = [abs(s.table[t, d]) - 1 for d in range(2 * n - 8, 2 * n - 2)]
            assert opps.count(partner) == 2
            signs = [s.table[t, d] > 0 for d in range(2 * n - 8, 2 * n - 2)]
            games = [(o, a) for o, a in zip(opps, signs) if o == partner]
            assert {a for _, a in games} == {True, False}  # one home, one away


def test_no_triple_runs_across_final_junction():
    # Joint check over the penultimate slot and the final six days.
    for n in range(10, 63, 4):
        s = build_odd_template(n)
        start = max(0, 2 * n - 14)
        for t in range(n):
            signs = "".join(
                "A" if s.table[t, d] > 0 else "H" for d in range(start, 2 * n - 2)
            )
            assert "AAA" not in signs and "HHH" not in signs, (n, t, signs)


def _extra_profile(s, inst, matching):
    """Per-super-team extra cost over the optimal itineraries of a template.

    Super-team i is labels (2i, 2i+1), L is super-team m-2 and R is m-1.
    The white-side singles of the left super-games that L hosts are
    attributed to L, as in the ratio analysis.
    """
    n, m, d = s.n, s.n // 2, inst.dist
    walked = total_distance(s, inst).per_team
    extra = [walked[t] - (int(d[t].sum()) + matching.weight) for t in range(n)]
    deltas = [extra[2 * i] + extra[2 * i + 1] for i in range(m)]
    la, lb = 2 * m - 4, 2 * m - 3
    for label in range(2, m - 2):  # white `label` meets L in slot m - 1 - label
        if (m - 1 - label) % 2:
            continue  # odd slots: L is the visitor and pays these legs itself
        shift = sum(int(d[t, la] + d[t, lb] - d[la, lb]) for t in (2 * label - 2, 2 * label - 1))
        deltas[label - 1] -= shift
        deltas[m - 2] += shift
    return deltas


def test_delta_breakdown_tight_profile():
    for n in (10, 14, 18, 26):
        m = n // 2
        ti = tight_instance(n)
        matching = min_weight_perfect_matching(ti)
        deltas = _extra_profile(build_odd_template(n), ti, matching)
        assert sum(deltas) == 5 * n - 20
        assert deltas[0] == 7
        assert all(deltas[i - 1] == 0 for i in range(2, m - 2, 2))
        assert all(deltas[i - 1] == 8 for i in range(3, m - 1, 2))
        assert deltas[m - 2] == 4 * m - 14  # all left-super-game cost lands here
        assert deltas[m - 1] == 2 * m - 1


def test_whites_trips_stay_inside_normal_and_left_slots():
    # Teams outside the R super-team return home between four-day blocks
    # except in right super-games (where the final block absorbs leftovers).
    for n in range(10, 63, 4):
        s = build_odd_template(n)
        m = n // 2
        for team in range(2 * m - 2):  # whites and both L teams
            for q in range(1, m - 2):
                d = 4 * q
                if s.table[team, d - 1] > 0 and s.table[team, d] > 0:
                    pytest.fail(f"n={n}: team {team} trip straddles slot boundary {q}")


def test_domain_errors():
    for n in (8, 12, 6):
        with pytest.raises(DomainError):
            build_odd_template(n)
