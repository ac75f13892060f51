import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn.games import (
    TIE_REL_TOL,
    GameDefinition,
    argmax_ties,
    best_response_set,
    check_simplex,
    draw_index,
    logit_map,
    random_separable_game,
    replace_action,
    verify_potential,
)
from potlearn.rng import make_rng


def coordination_2x2(lo=0.0, hi=1.0):
    table = np.array([[hi, lo], [lo, hi]])
    return GameDefinition.identical_interest(table)


class TestVerifyPotential:
    def test_identical_interest_game_is_its_own_potential(self):
        rng = make_rng(1)
        table = rng.uniform(size=(3, 2, 4))
        game = GameDefinition.identical_interest(table)
        phi = {a: float(table[a]) for a in game.joint_actions()}
        cert = verify_potential(game, phi, tol=1e-9)
        assert cert.ok
        assert cert.max_violation == 0.0
        assert cert.witness is None

    def test_unit_deviation_against_flat_candidate(self):
        game = GameDefinition.from_tables(
            [np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((2, 2))]
        )
        phi = {a: 0.0 for a in game.joint_actions()}
        cert = verify_potential(game, phi, tol=1e-9)
        assert cert.max_violation == pytest.approx(1.0, abs=0)
        assert not cert.ok
        player, a_from, a_to, profile = cert.witness
        assert player == 0
        assert {a_from, a_to} == {0, 1}
        assert profile in set(game.joint_actions())

    def test_domain_mismatch_rejected(self):
        game = coordination_2x2()
        phi = {a: 0.0 for a in game.joint_actions()}
        del phi[(0, 0)]
        with pytest.raises(ValueError):
            verify_potential(game, phi)

    def test_separable_game_potential_is_sum_of_own_values(self):
        rng = make_rng(3)
        game, phi = random_separable_game(rng, [3, 2, 3])
        cert = verify_potential(game, phi, tol=1e-9)
        assert cert.ok
        assert cert.max_violation <= 1e-12


class TestBestResponse:
    def test_single_action_player(self):
        game = GameDefinition.from_tables([np.array([[3.0, 5.0]]), np.array([[1.0, 2.0]])])
        assert best_response_set(game, 0, (0, 1)) == (0,)

    def test_ties_all_included(self):
        game = GameDefinition.from_tables([np.array([1.0, 3.0, 3.0])])
        assert best_response_set(game, 0, (0,)) == (1, 2)

    def test_pure_nash_when_no_deviations_exist(self):
        game = GameDefinition.from_tables([np.array([[7.0]]), np.array([[7.0]])])
        assert best_response_set(game, 0, (0, 0)) == (0,)
        assert best_response_set(game, 1, (0, 0)) == (0,)

    def test_coordination_diagonal(self):
        game = coordination_2x2()
        assert best_response_set(game, 0, (0, 0)) == (0,)
        assert best_response_set(game, 1, (0, 0)) == (0,)
        assert best_response_set(game, 1, (0, 1)) == (0,)

    def test_potential_maximizer_is_nash(self):
        table = make_rng(4).uniform(size=(3, 3, 2))
        game = GameDefinition.identical_interest(table)
        best = tuple(int(a) for a in np.unravel_index(table.argmax(), table.shape))
        for i in range(game.n_players):
            assert best[i] in best_response_set(game, i, best)


def listed_argmax_ties(values, rel_tol=TIE_REL_TOL):
    """The list-comprehension argmax_ties that the vectorised one replaced."""
    vals = list(values)
    top = max(vals)
    cut = top - rel_tol * max(1.0, abs(top))
    return tuple(i for i, v in enumerate(vals) if v >= cut)


@st_.composite
def near_tie_rows(draw):
    size = draw(st_.integers(1, 400))
    seed = draw(st_.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    row = rng.normal(scale=draw(st_.sampled_from((1e-3, 1.0, 1e6))), size=size)
    if draw(st_.booleans()):
        row = -np.abs(row)  # all non-positive, the top near zero
    top = float(row.max())
    slack = TIE_REL_TOL * max(1.0, abs(top))
    # entries exactly at, just inside and just outside the tie cut
    for _ in range(draw(st_.integers(0, 6))):
        k = int(rng.integers(size))
        side = draw(st_.sampled_from((0, 1, -1)))
        row[k] = np.nextafter(top - slack, side * np.inf) if side else top - slack
    return row


class TestArgmaxTies:
    @given(near_tie_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_comprehension(self, row):
        expected = listed_argmax_ties(row)
        got = argmax_ties(row)
        assert got == expected
        assert all(type(i) is int for i in got)

    def test_plain_lists_and_exact_ties(self):
        assert argmax_ties([1.0, 3.0, 3.0]) == (1, 2)
        assert argmax_ties([0.0, -1e-13, -2e-12]) == listed_argmax_ties([0.0, -1e-13, -2e-12])


class TestLogitMap:
    def test_equal_scores_give_uniform(self):
        out = logit_map([2.0, 2.0, 2.0], temperature=0.7)
        assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_two_scores_unit_temperature(self):
        out = logit_map([1.0, 0.0], temperature=1.0)
        expected = math.e / (1.0 + math.e)
        assert out[0] == pytest.approx(expected, abs=1e-15)
        assert out[1] == pytest.approx(1.0 - expected, abs=1e-15)

    def test_cold_limit_concentrates_on_argmax(self):
        out = logit_map([1.0, 0.0], temperature=1e-6)
        assert out[0] >= 1.0 - 1e-9

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            logit_map([1.0, 0.0], temperature=0.0)
        with pytest.raises(ValueError):
            logit_map([1.0, 0.0], temperature=-1.0)

    def test_huge_scores_stay_finite(self):
        out = logit_map([1e300, -1e300, 0.0], temperature=1.0)
        check_simplex(out, tol=1e-12)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    @given(
        st_.lists(st_.floats(-50, 50), min_size=1, max_size=6),
        st_.floats(1e-3, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_a_valid_simplex(self, scores, tau):
        out = logit_map(scores, temperature=tau)
        check_simplex(out, tol=1e-12)

    @given(
        st_.lists(st_.floats(-30, 30), min_size=2, max_size=5),
        st_.floats(-100, 100),
        st_.floats(0.05, 5.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_invariance(self, scores, shift, tau):
        base = logit_map(scores, temperature=tau)
        shifted = logit_map([s + shift for s in scores], temperature=tau)
        assert np.abs(base - shifted).max() <= 1e-12


class TestDrawIndex:
    """The inverse-CDF draw against `Generator.choice(p=...)`."""

    @pytest.mark.parametrize("size", [1, 2, 9, 16, 17, 1600])
    def test_same_index_and_generator_state_as_choice(self, size):
        source = make_rng(size)
        for trial in range(300):
            weights = source.random(size) ** source.integers(1, 8)
            # zero out some entries, never all of them
            weights[source.random(size) < 0.3] = 0.0
            if not weights.any():
                weights[source.integers(size)] = 1.0
            p = weights / weights.sum()
            ours, theirs = make_rng(trial, size), make_rng(trial, size)
            assert draw_index(p, ours) == theirs.choice(size, p=p)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("size", [3, 40])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.25])
    def test_rejects_non_finite_or_negative_weights_like_choice(self, bad, size):
        p = np.full(size, 1.25 / (size - 1))
        p[size // 2] = bad
        with pytest.raises(ValueError):
            make_rng(0).choice(size, p=p)
        with pytest.raises(ValueError):
            draw_index(p, make_rng(0))

    @pytest.mark.parametrize("size", [4, 40])
    def test_rejects_all_zero_weights(self, size):
        with pytest.raises(ValueError):
            draw_index(np.zeros(size), make_rng(0))


class TestGameDefinition:
    def test_rejects_empty_action_set(self):
        with pytest.raises(ValueError):
            GameDefinition(action_counts=(0, 1), utility_fn=lambda i, a: 0.0)

    def test_rejects_non_finite_payoffs(self):
        with pytest.raises(ValueError):
            GameDefinition.from_tables([np.array([np.inf, 0.0])])

    def test_replace_action(self):
        assert replace_action((1, 2, 3), 1, 9) == (1, 9, 3)

    def test_utility_row_fallback_is_the_per_action_loop(self):
        rng = make_rng(10)
        game = GameDefinition.from_tables([rng.uniform(size=(3, 4, 2)) for _ in range(3)])
        for a in game.joint_actions():
            for i in range(game.n_players):
                loop = [game.utility(i, replace_action(a, i, b)) for b in range(game.n_actions(i))]
                assert (game.utility_row(i, a) == np.array(loop)).all()

    def test_joint_size(self):
        game, _ = random_separable_game(make_rng(9), [2, 3, 4])
        assert game.joint_size == 24
        assert len(list(game.joint_actions())) == 24
