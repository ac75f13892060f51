import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn.dynamics import ConstrainedActionMap
from potlearn.games import GameDefinition, check_simplex
from potlearn.qlearning import (
    QState,
    SOQLParams,
    adaptive_step,
    best_response_indices,
    boltzmann_strategy,
    commitment_zone_active,
    constrained_draw,
    greedy_update,
    payoff_trace_after,
    perturb_strategy,
    q_update,
    q_value_after,
    ql_episode_step,
    soql_episode_step,
    soql_update,
    strategy_after,
)
from potlearn.rng import make_rng
from potlearn.worthfield import GaussianComponent, WorthField


def single_player_state(n_actions=2):
    return QState.initial([n_actions])


class TestParams:
    def test_step_ordering_enforced(self):
        with pytest.raises(ValueError):
            SOQLParams(aggregation_step=0.5, selection_step=0.5)
        with pytest.raises(ValueError):
            SOQLParams(aggregation_step=1.0, selection_step=0.5)
        SOQLParams(aggregation_step=0.97, selection_step=0.5)


class TestFirstOrderUpdate:
    def test_full_step_replaces_value(self):
        state = single_player_state()
        q_update(state, 0, played=1, payoff=3.5, step=1.0)
        assert state.q_values[0][1] == 3.5
        assert state.q_values[0][0] == 0.0

    def test_fixed_point_when_payoff_matches(self):
        state = single_player_state()
        state.q_values[0][:] = [0.0, 2.0]
        q_update(state, 0, played=1, payoff=2.0, step=0.4)
        assert state.q_values[0][1] == 2.0

    def test_two_half_steps(self):
        state = single_player_state()
        q_update(state, 0, 0, 1.0, 0.5)
        q_update(state, 0, 0, 1.0, 0.5)
        assert state.q_values[0][0] == pytest.approx(0.75, abs=0)

    def test_step_domain(self):
        state = single_player_state()
        with pytest.raises(ValueError):
            q_update(state, 0, 0, 1.0, 0.0)


class TestBoltzmann:
    def test_equal_row_is_uniform(self):
        state = single_player_state(4)
        assert np.allclose(boltzmann_strategy(state, 0, 1.0), 0.25, atol=1e-15)

    def test_unit_temperature_values(self):
        state = single_player_state()
        state.q_values[0][:] = [1.0, 0.0]
        out = boltzmann_strategy(state, 0, 1.0)
        assert out[0] == pytest.approx(math.e / (1 + math.e), abs=1e-12)

    def test_cold_limit_concentrates(self):
        state = single_player_state()
        state.q_values[0][:] = [1.0, 0.0]
        out = boltzmann_strategy(state, 0, 1e-9)
        assert out[0] >= 1.0 - 1e-12


class TestSecondOrderUpdate:
    def test_joint_fixed_point(self):
        state = single_player_state()
        state.payoff_trace[0][:] = [0.0, 4.0]
        state.q_values[0][:] = [0.0, 4.0]
        soql_update(state, 0, played=1, payoff=4.0, step=0.5)
        assert state.payoff_trace[0][1] == 4.0
        assert state.q_values[0][1] == 4.0

    def test_q_lags_the_trace_by_one_update(self):
        state = single_player_state()
        soql_update(state, 0, 0, 1.0, 0.5)
        assert state.payoff_trace[0][0] == 0.5
        assert state.q_values[0][0] == 0.0
        soql_update(state, 0, 0, 1.0, 0.5)
        assert state.payoff_trace[0][0] == 0.75
        assert state.q_values[0][0] == 0.25

    def test_unplayed_rows_untouched(self):
        state = single_player_state(3)
        state.payoff_trace[0][:] = [1.0, 2.0, 3.0]
        state.q_values[0][:] = [4.0, 5.0, 6.0]
        soql_update(state, 0, played=1, payoff=9.0, step=0.5)
        assert state.payoff_trace[0][0] == 1.0 and state.payoff_trace[0][2] == 3.0
        assert state.q_values[0][0] == 4.0 and state.q_values[0][2] == 6.0


class TestClosedForms:
    def test_trace_zero_repeats_is_identity(self):
        assert payoff_trace_after(0.7, 2.0, 0.3, 0) == 0.7

    def test_trace_three_half_steps(self):
        assert payoff_trace_after(0.0, 1.0, 0.5, 3) == pytest.approx(0.875, abs=0)

    def test_trace_long_run_reaches_payoff(self):
        assert payoff_trace_after(0.3, 1.0, 0.5, 200) == pytest.approx(1.0, abs=1e-12)

    def test_q_single_repeat_is_the_next_value(self):
        assert q_value_after(0.1, 0.25, 1.0, 0.5, 1) == 0.25

    def test_q_two_repeats_example(self):
        assert q_value_after(0.0, 0.25, 1.0, 0.5, 2) == pytest.approx(0.5, abs=1e-15)

    def test_q_long_run_reaches_payoff(self):
        assert q_value_after(0.0, 0.25, 1.0, 0.5, 400) == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms_match_literal_recursion(self):
        rng = make_rng(40)
        for mu in (0.1, 0.5, 0.9):
            for _ in range(10):
                p0, q0 = rng.uniform(size=2)
                payoff = rng.uniform(1.0, 2.0)
                state = single_player_state(1)
                state.payoff_trace[0][0] = p0
                state.q_values[0][0] = q0
                soql_update(state, 0, 0, payoff, mu)
                q1 = float(state.q_values[0][0])
                for m in range(1, 31):
                    if m > 1:
                        soql_update(state, 0, 0, payoff, mu)
                    rec_p = float(state.payoff_trace[0][0])
                    rec_q = float(state.q_values[0][0])
                    cf_p = payoff_trace_after(p0, payoff, mu, m)
                    cf_q = q_value_after(q0, q1, payoff, mu, m)
                    assert abs(cf_p - rec_p) <= 1e-10 * max(1.0, abs(rec_p))
                    assert abs(cf_q - rec_q) <= 1e-10 * max(1.0, abs(rec_q))

    def test_strategy_closed_form_matches_repeated_mixing(self):
        rng = make_rng(41)
        for theta in (0.1, 0.5):
            x0 = rng.dirichlet(np.ones(4))
            state = QState.initial([4])
            state.strategies[0][:] = x0
            state.q_values[0][:] = [0.0, 3.0, 1.0, 2.0]  # unique maximizer at 1
            for m in range(1, 51):
                greedy_update(state, 0, theta)
                expected = strategy_after(x0, 1, theta, m)
                assert np.abs(state.strategies[0] - expected).max() <= 1e-12


class TestGreedyUpdate:
    def test_unit_vector_at_target_is_fixed(self):
        state = single_player_state()
        state.strategies[0][:] = [1.0, 0.0]
        state.q_values[0][:] = [2.0, 1.0]
        greedy_update(state, 0, 0.5)
        assert state.strategies[0] == pytest.approx([1.0, 0.0], abs=0)

    def test_uniform_half_step(self):
        state = single_player_state()
        state.q_values[0][:] = [2.0, 1.0]
        greedy_update(state, 0, 0.5)
        assert state.strategies[0] == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_commitment_contracts_by_exact_factor(self):
        rng = make_rng(42)
        state = QState.initial([5])
        state.strategies[0][:] = rng.dirichlet(np.ones(5))
        state.q_values[0][:] = [0, 0, 7, 0, 0]
        target = np.eye(5)[2]
        theta = 0.3
        for _ in range(20):
            before = np.abs(state.strategies[0] - target).max()
            greedy_update(state, 0, theta)
            after = np.abs(state.strategies[0] - target).max()
            assert after == pytest.approx((1 - theta) * before, rel=1e-12)

    def test_tied_maximizers_draw_uniformly(self):
        state = single_player_state(3)
        state.q_values[0][:] = [1.0, 1.0, 0.0]
        rng = make_rng(43)
        targets = set()
        for _ in range(200):
            s = QState.initial([3])
            s.q_values[0][:] = [1.0, 1.0, 0.0]
            greedy_update(s, 0, 0.5, rng)
            targets.add(int(np.argmax(s.strategies[0])))
        assert targets == {0, 1}

    @given(st_.lists(st_.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_simplex_preserved(self, raw):
        x = np.asarray(raw)
        x = x / x.sum()
        state = QState.initial([len(raw)])
        state.strategies[0][:] = x
        state.q_values[0][:] = np.arange(len(raw), dtype=float)
        greedy_update(state, 0, 0.5)
        check_simplex(state.strategies[0], tol=1e-9)


class TestPerturbation:
    def test_below_threshold_untouched(self):
        params = SOQLParams(commitment_threshold=0.9)
        x = np.array([0.6, 0.4])
        out = perturb_strategy(x, params, zone_active=True)
        assert out is x or np.array_equal(out, x)

    def test_vertex_blend_values(self):
        params = SOQLParams(perturbation_size=0.01, commitment_threshold=0.5)
        out = perturb_strategy(np.array([1.0, 0.0]), params, zone_active=True)
        assert out == pytest.approx([0.995, 0.005], abs=1e-15)

    def test_uniform_strategy_is_blend_fixed_point(self):
        params = SOQLParams(commitment_threshold=0.2, perturbation_size=0.3)
        x = np.full(4, 0.25)
        out = perturb_strategy(x, params, zone_active=True)
        assert out == pytest.approx(x, abs=1e-15)

    def test_inactive_zone_is_identity(self):
        params = SOQLParams()
        x = np.array([1.0, 0.0])
        out = perturb_strategy(x, params, zone_active=False)
        assert np.array_equal(out, x)

    @given(st_.lists(st_.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda v: sum(v) > 0))
    @settings(max_examples=100, deadline=None)
    def test_simplex_preserved(self, raw):
        x = np.asarray(raw)
        x = x / x.sum()
        params = SOQLParams()
        out = perturb_strategy(x, params, zone_active=True)
        check_simplex(out, tol=1e-9)

    def test_adaptive_step_values(self):
        assert adaptive_step(np.array([0.0, 1.0]), 1) == 0.0
        assert adaptive_step(np.array([1.0, 0.0]), 1) == 1.0
        assert adaptive_step(np.array([0.75, 0.25]), 1) == 0.75

    def test_exploration_log_series_converges(self):
        # the infinite product of (1 - (1-theta)^c) stays positive: its log
        # series is Cauchy, factors increase toward one, partial products
        # decrease toward a positive limit
        for theta in (0.1, 0.5):
            factors = [1 - (1 - theta) ** c for c in range(1, 2001)]
            assert all(b >= a for a, b in zip(factors, factors[1:]))
            logs = np.log(factors)
            tail = abs(np.sum(logs[1000:]))
            assert tail < 1e-10
            products = np.cumprod(factors)
            assert all(b <= a for a, b in zip(products, products[1:]))
            assert products[-1] > 0


class TestConstrainedDraw:
    def test_masked_mass_renormalized(self):
        rng = make_rng(44)
        x = np.array([0.5, 0.25, 0.25, 0.0])
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[constrained_draw(x, [0, 1], rng)] += 1
        assert counts[2] == counts[3] == 0
        assert counts[0] / 10_000 == pytest.approx(2 / 3, abs=0.02)

    def test_zero_mass_falls_back_to_uniform(self):
        rng = make_rng(45)
        x = np.array([0.0, 0.0, 1.0])
        seen = {constrained_draw(x, [0, 1], rng) for _ in range(100)}
        assert seen == {0, 1}


class TestEpisodes:
    def test_identical_interest_game_commits_quickly(self):
        table = np.array([[1.0, 0.0], [0.0, 0.6]])
        game = GameDefinition.identical_interest(table)
        cmap = ConstrainedActionMap.complete(game)
        params = SOQLParams(aggregation_step=0.97, selection_step=0.5)
        state = QState.initial([2, 2])
        rng = make_rng(46)
        for _ in range(500):
            soql_episode_step(game, state, params, cmap, rng)
        assert all(x.max() >= 0.99 for x in state.strategies)
        committed = tuple(int(np.argmax(x)) for x in state.strategies)
        assert committed in {(0, 0), (1, 1)}

    def test_states_remain_simplices(self):
        game = GameDefinition.identical_interest(np.array([[1.0, 0.2], [0.0, 0.8]]))
        cmap = ConstrainedActionMap.complete(game)
        params = SOQLParams()
        state = QState.initial([2, 2])
        rng = make_rng(47)
        for _ in range(200):
            soql_episode_step(game, state, params, cmap, rng)
            for x in state.strategies:
                check_simplex(x, tol=1e-9)

    def test_first_order_episode_runs_and_masks(self):
        game = GameDefinition.identical_interest(np.array([[1.0, 0.0], [0.0, 0.6]]))
        cmap = ConstrainedActionMap.complete(game)
        params = SOQLParams(temperature=0.2)
        state = QState.initial([2, 2])
        rng = make_rng(48)
        for _ in range(300):
            _, realized = ql_episode_step(game, state, params, cmap, rng)
        assert state.n == 300
        # only realized payoffs enter the table: values stay within payoff range
        for q in state.q_values:
            assert q.min() >= 0.0 and q.max() <= 1.0

    def test_best_response_indices_groups_ties(self):
        assert best_response_indices(np.array([1.0, 1.0, 0.5])) == (0, 1)

    def test_zone_detection(self):
        params = SOQLParams(commitment_threshold=0.9)
        state = QState.initial([2, 2])
        assert not commitment_zone_active(state, params)
        state.strategies[0][:] = [0.95, 0.05]
        state.strategies[1][:] = [0.92, 0.08]
        assert commitment_zone_active(state, params)


class TestCoveragePayoffConvention:
    """On the coverage game every robot is scored against the pre-step world."""

    START = [(4, 4), (6, 4), (5, 6)]
    # Robots 0 and 1 both move onto (5, 4); robot 2 stays within overlap and
    # flag range of it, so scoring against the moved world, or with flags the
    # robots lay while being scored in index order, would change the payoffs.
    TARGET = [(5, 4), (5, 4), (5, 6)]

    @staticmethod
    def world(order):
        field = WorthField([GaussianComponent(1.0, [4.2, 5.7], 9.0 * np.eye(2))], 10)
        world = cov.CoverageWorld.create(field, 3, make_rng(0), cover_radius=1.5)
        world.positions = [TestCoveragePayoffConvention.START[k] for k in order]
        for i in range(3):
            cov.lay_flag(world, i)
        return world

    @staticmethod
    def one_step(world, order):
        targets = [TestCoveragePayoffConvention.TARGET[k] for k in order]
        here = [cov.cell_index(world, p) for p in world.positions]
        there = [cov.cell_index(world, p) for p in targets]
        # Each robot may only move to its target, so the draws are fixed.
        cmap = ConstrainedActionMap.from_lists(
            [[(there[i],) if a == here[i] else (a,) for a in range(100)] for i in range(3)]
        )
        params = SOQLParams(temperature=0.2)
        state = QState.initial([100] * 3, here)
        snapshot = [cov.utility(world, i, targets[i], world.positions[i]) for i in range(3)]
        _, realized = ql_episode_step(cov.as_game(world), state, params, cmap, make_rng(1))
        assert realized == tuple(there)
        payoffs = [state.q_values[i][there[i]] / params.aggregation_step for i in range(3)]
        for i in range(3):
            assert state.q_values[i][there[i]] == params.aggregation_step * snapshot[i]
        return payoffs

    def test_q_update_uses_the_pre_step_snapshot(self):
        order = [0, 1, 2]
        self.one_step(self.world(order), order)

    def test_relabelling_the_robots_permutes_the_payoffs(self):
        base = self.one_step(self.world([0, 1, 2]), [0, 1, 2])
        order = [1, 0, 2]
        relabelled = self.one_step(self.world(order), order)
        assert relabelled == pytest.approx([base[k] for k in order], rel=1e-12)
