import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn.games import (
    TIE_REL_TOL,
    GameDefinition,
    ImprovementLimitError,
    argmax_ties,
    best_response_set,
    check_simplex,
    construct_potential,
    expected_utility,
    improvement_path,
    is_pure_nash,
    logit_map,
    random_potential_game,
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


class TestConstructPotential:
    def test_identical_interest_recovers_shared_payoff(self):
        rng = make_rng(2)
        table = rng.uniform(size=(3, 3))
        game = GameDefinition.identical_interest(table)
        phi = construct_potential(game)
        assert phi is not None
        anchor = float(table[0, 0])
        for a in game.joint_actions():
            assert phi[a] == pytest.approx(float(table[a]) - anchor, abs=1e-12)

    def test_matching_pennies_has_no_potential(self):
        game = GameDefinition.from_tables(
            [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
        )
        assert construct_potential(game) is None
        # the two deviation orders from (0,0) to (1,1) integrate to different sums
        path_a = game.utility(0, (1, 0)) - game.utility(0, (0, 0)) + game.utility(
            1, (1, 1)
        ) - game.utility(1, (1, 0))
        path_b = game.utility(1, (0, 1)) - game.utility(1, (0, 0)) + game.utility(
            0, (1, 1)
        ) - game.utility(0, (0, 1))
        assert abs(path_a - path_b) > 1.0

    def test_separable_game_potential_is_sum_of_own_values(self):
        rng = make_rng(3)
        game, phi_expected = random_separable_game(rng, [3, 2, 3])
        phi = construct_potential(game)
        assert phi is not None
        cert = verify_potential(game, phi, tol=1e-9)
        assert cert.ok
        ref = phi_expected[(0, 0, 0)]
        for a in game.joint_actions():
            assert phi[a] == pytest.approx(phi_expected[a] - ref, abs=1e-9)


class TestBestResponse:
    def test_single_action_player(self):
        game = GameDefinition.from_tables([np.array([[3.0, 5.0]]), np.array([[1.0, 2.0]])])
        assert best_response_set(game, 0, (0, 1)) == (0,)

    def test_ties_all_included(self):
        game = GameDefinition.from_tables([np.array([1.0, 3.0, 3.0])])
        assert best_response_set(game, 0, (0,)) == (1, 2)

    def test_pure_nash_when_no_deviations_exist(self):
        game = GameDefinition.from_tables([np.array([[7.0]]), np.array([[7.0]])])
        assert is_pure_nash(game, (0, 0))

    def test_coordination_diagonal(self):
        game = coordination_2x2()
        assert is_pure_nash(game, (0, 0))
        assert not is_pure_nash(game, (0, 1))

    def test_potential_maximizer_is_nash(self):
        rng = make_rng(4)
        game, phi = random_potential_game(rng, [3, 3, 2])
        best = max(phi, key=phi.get)
        assert is_pure_nash(game, best)


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


class TestExpectedUtility:
    def test_point_masses_reduce_to_pure_payoff(self):
        rng = make_rng(5)
        game, _ = random_potential_game(rng, [2, 3])
        strategies = [np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
        assert expected_utility(game, 0, strategies) == pytest.approx(
            game.utility(0, (1, 2)), abs=1e-12
        )

    def test_uniform_over_2x2_is_mean(self):
        game = GameDefinition.from_tables(
            [np.array([[0.0, 1.0], [2.0, 3.0]]), np.zeros((2, 2))]
        )
        uniform = [np.full(2, 0.5), np.full(2, 0.5)]
        assert expected_utility(game, 0, uniform) == pytest.approx(1.5, abs=1e-12)

    def test_matches_monte_carlo_within_three_sigma(self):
        rng = make_rng(6)
        tables = [rng.uniform(size=(3, 3)) for _ in range(2)]
        game = GameDefinition.from_tables(tables)
        x0 = rng.dirichlet(np.ones(3))
        x1 = rng.dirichlet(np.ones(3))
        exact = expected_utility(game, 0, [x0, x1])
        n = 1_000_000
        draws0 = rng.choice(3, size=n, p=x0)
        draws1 = rng.choice(3, size=n, p=x1)
        samples = tables[0][draws0, draws1]
        mc = samples.mean()
        sigma = samples.std(ddof=1) / math.sqrt(n)
        assert abs(exact - mc) <= 3 * sigma

    def test_multilinear_in_each_player(self):
        # fixing the opponent, the map is affine in the player's weights
        rng = make_rng(7)
        game, _ = random_potential_game(rng, [3, 2])
        other = rng.dirichlet(np.ones(2))
        xa = rng.dirichlet(np.ones(3))
        xb = rng.dirichlet(np.ones(3))
        lam = 0.3
        blend = lam * xa + (1 - lam) * xb
        lhs = expected_utility(game, 0, [blend, other])
        rhs = lam * expected_utility(game, 0, [xa, other]) + (1 - lam) * expected_utility(
            game, 0, [xb, other]
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


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


class TestImprovementPath:
    def test_nash_start_is_terminal(self):
        game = coordination_2x2()
        assert improvement_path(game, (1, 1)) == [(1, 1)]

    def test_coordination_off_diagonal_reaches_diagonal(self):
        game = coordination_2x2()
        path = improvement_path(game, (0, 1))
        assert len(path) <= 3
        assert path[-1] in {(0, 0), (1, 1)}
        assert is_pure_nash(game, path[-1])

    def test_random_potential_games_terminate_with_monotone_potential(self):
        rng = make_rng(8)
        game, phi = random_potential_game(rng, [3, 3, 3])
        starts = [
            tuple(int(rng.integers(3)) for _ in range(3)) for _ in range(20)
        ]
        for start in starts:
            path = improvement_path(game, start, max_steps=5000)
            assert is_pure_nash(game, path[-1])
            values = [phi[a] for a in path]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_cycling_game_exhausts_budget(self):
        game = GameDefinition.from_tables(
            [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
        )
        with pytest.raises(ImprovementLimitError):
            improvement_path(game, (0, 0), max_steps=50)


class TestGameDefinition:
    def test_rejects_empty_action_set(self):
        with pytest.raises(ValueError):
            GameDefinition(action_sets=((), ("a",)), utility_fn=lambda i, a: 0.0)

    def test_rejects_non_finite_payoffs(self):
        with pytest.raises(ValueError):
            GameDefinition.from_tables([np.array([np.inf, 0.0])])

    def test_replace_action(self):
        assert replace_action((1, 2, 3), 1, 9) == (1, 9, 3)

    def test_utility_row_fallback_is_the_per_action_loop(self):
        game, _ = random_potential_game(make_rng(10), [3, 4, 2])
        for a in game.joint_actions():
            for i in range(game.n_players):
                loop = [game.utility(i, replace_action(a, i, b)) for b in range(game.n_actions(i))]
                assert (game.utility_row(i, a) == np.array(loop)).all()

    def test_joint_size(self):
        game, _ = random_separable_game(make_rng(9), [2, 3, 4])
        assert game.joint_size == 24
        assert len(list(game.joint_actions())) == 24
