import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn.dynamics import (
    ConstrainedActionMap,
    LoglinearState,
    RevisionPolicy,
    binary_logit_weights,
    blll_step,
    lll_step,
    psblll_step,
    revision_probability,
    validate_constraints,
)
from potlearn.games import GameDefinition, logit_map, random_separable_game
from potlearn.rng import make_rng
from potlearn.stability import PerturbedChain, stationary_distribution


class TestConstraints:
    def test_complete_map_connected_and_symmetric(self):
        game, _ = random_separable_game(make_rng(0), [3, 4])
        report = validate_constraints(ConstrainedActionMap.complete(game))
        assert report.ok

    def test_one_way_edge_breaks_symmetry(self):
        cmap = ConstrainedActionMap.from_lists([[(0, 1), (1,)]])
        report = validate_constraints(cmap)
        assert not report.symmetric
        assert (0, 0, 1) in report.asymmetric_pairs

    def test_disconnected_component_reported(self):
        cmap = ConstrainedActionMap.from_lists([[(0,), (1,)]])
        report = validate_constraints(cmap)
        assert not report.connected
        assert report.disconnected_players == (0,)

    def test_empty_constrained_set_rejected(self):
        cmap = ConstrainedActionMap.from_lists([[(), (0, 1)]])
        with pytest.raises(ValueError):
            cmap.allowed(0, 0)


class TestRevisionPolicy:
    def test_full_gradient_pins_climb_probability(self):
        policy = RevisionPolicy()
        for f in (0.0, 0.3, 0.7, 1.0):
            assert revision_probability(policy, f, 1.0) == policy.climb_wake

    def test_zero_signal_anchor_is_explore_probability_clamped(self):
        policy = RevisionPolicy(explore_wake=1.0, prob_clamp=1e-6)
        # raw value is exactly explore_wake = 1, clamped into the open interval
        assert revision_probability(policy, 0.0, 0.0) == 1.0 - 1e-6

    def test_exponential_drop_at_zero_gradient(self):
        policy = RevisionPolicy(explore_wake=1.0, drop_rate=4.0)
        assert revision_probability(policy, 1.0, 0.0) == pytest.approx(
            math.exp(-4.0), abs=1e-12
        )

    def test_non_increasing_in_signal_at_zero_gradient(self):
        policy = RevisionPolicy()
        grid = np.linspace(0, 1, 33)
        values = [revision_probability(policy, f, 0.0) for f in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @given(st_.floats(0, 1), st_.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_output_strictly_inside_unit_interval(self, f, g):
        policy = RevisionPolicy()
        p = revision_probability(policy, f, g)
        assert policy.prob_clamp <= p <= 1 - policy.prob_clamp

    def test_domain_validation(self):
        policy = RevisionPolicy()
        with pytest.raises(ValueError):
            revision_probability(policy, -0.1, 0.5)
        with pytest.raises(ValueError):
            revision_probability(policy, 0.5, 1.1)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_drop_rate_must_be_positive(self, rate):
        with pytest.raises(ValueError, match="drop_rate"):
            RevisionPolicy(drop_rate=rate)


class TestBinaryLogit:
    def test_weights_sum_to_one_exactly(self):
        for u1, u2, tau in [(0.0, 1.0, 0.1), (3.0, -2.0, 1.0), (5.0, 5.0, 0.5)]:
            keep, switch = binary_logit_weights(u1, u2, tau)
            assert keep + switch == 1.0

    def test_equal_payoffs_split_evenly(self):
        keep, switch = binary_logit_weights(2.0, 2.0, 0.3)
        assert keep == 0.5 and switch == 0.5

    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_switch_probability_is_sigmoid_of_gain(self, delta, tau):
        _, switch = binary_logit_weights(0.0, delta, tau)
        expected = 1.0 / (1.0 + math.exp(-delta / tau))
        assert switch == pytest.approx(expected, rel=1e-14)

    def test_extreme_gaps_do_not_overflow(self):
        keep, switch = binary_logit_weights(0.0, 1e6, 1e-3)
        assert keep == 0.0 and switch == 1.0
        keep, switch = binary_logit_weights(1e6, 0.0, 1e-3)
        assert keep == 1.0 and switch == 0.0


def lll_kernel(game, tau):
    """Exact one-step kernel of the single-updater full-logit dynamic."""
    states = list(game.joint_actions())
    index = {a: k for k, a in enumerate(states)}
    n = len(states)
    kernel = np.zeros((n, n))
    n_players = game.n_players
    for a in states:
        for i in range(n_players):
            scores = [
                game.utility(i, a[:i] + (b,) + a[i + 1 :])
                for b in range(game.n_actions(i))
            ]
            probs = logit_map(scores, tau)
            for b, p in enumerate(probs):
                target = a[:i] + (b,) + a[i + 1 :]
                kernel[index[a], index[target]] += p / n_players
    return states, kernel


class TestLLLStep:
    def test_infinite_temperature_limit_is_uniform(self):
        probs = logit_map([0.0, 1.0, 2.0], temperature=1e9)
        assert np.abs(probs - 1 / 3).max() <= 1e-9

    def test_single_player_two_action_selection_frequency(self):
        game = GameDefinition.from_tables([np.array([0.0, 1.0])])
        n = 40_000
        hits = 0
        state = LoglinearState((0,), 1.0, make_rng(10))
        for _ in range(n):
            state.action = (0,)
            lll_step(game, state)
            hits += state.action == (1,)
        p = math.e / (1 + math.e)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 4 * sigma

    def test_long_run_concentrates_on_potential_maximizer(self):
        # visits compared against the stationary distribution of the exact chain
        table = np.array([[1.0, 0.0], [0.0, 0.5]])
        game = GameDefinition.identical_interest(table)
        tau = 0.1
        states, kernel = lll_kernel(game, tau)
        chain = PerturbedChain(
            states=tuple(states),
            index={a: k for k, a in enumerate(states)},
            kernel=kernel,
            noise=math.exp(-1 / tau),
        )
        pi = stationary_distribution(chain)
        top = states[int(np.argmax(pi))]
        assert top == (0, 0)
        visits = {a: 0 for a in states}
        state = LoglinearState((1, 0), tau, make_rng(11))
        steps = 100_000
        for _ in range(steps):
            lll_step(game, state)
            visits[state.action] += 1
        assert visits[(0, 0)] / steps >= 0.9
        assert visits[(0, 0)] / steps == pytest.approx(pi[chain.index[(0, 0)]], abs=0.02)


class TestBLLLStep:
    def test_self_trial_leaves_state_unchanged(self):
        game = GameDefinition.from_tables([np.array([1.0, 2.0])])
        cmap = ConstrainedActionMap.from_lists([[(0,), (1,)]])  # only self-loops
        state = LoglinearState((0,), 0.5, make_rng(12))
        blll_step(game, state, cmap)
        assert state.action == (0,)
        assert state.n == 1

    def test_equal_payoffs_switch_half_the_time(self):
        game = GameDefinition.from_tables([np.array([1.0, 1.0])])
        cmap = ConstrainedActionMap.from_lists([[(1,), (0,)]])  # always propose other
        n = 20_000
        switches = 0
        state = LoglinearState((0,), 0.7, make_rng(13))
        for _ in range(n):
            state.action = (0,)
            blll_step(game, state, cmap)
            switches += state.action == (1,)
        sigma = math.sqrt(0.25 / n)
        assert abs(switches / n - 0.5) <= 4 * sigma

    def test_cold_long_run_modal_state_is_potential_maximizer(self):
        rng = make_rng(14)
        game, phi = random_separable_game(rng, [3, 3], min_gap=0.5)
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((0, 0), 0.05, make_rng(15))
        visits: dict = {}
        for _ in range(100_000):
            blll_step(game, state, cmap)
            visits[state.action] = visits.get(state.action, 0) + 1
        modal = max(visits, key=visits.get)
        assert modal == max(phi, key=phi.get)


class TestPSBLLLStep:
    def test_empty_wake_set_repeats_profile(self):
        game, _ = random_separable_game(make_rng(16), [2, 2])
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((1, 0), 0.5, make_rng(17))
        psblll_step(game, state, cmap, wake=0.0)
        assert state.action == (1, 0)
        assert state.n == 1
        assert state.awake == () and state.adopted == ()

    def test_sleepers_keep_their_actions(self):
        game, _ = random_separable_game(make_rng(18), [3, 3, 3])
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((2, 1, 0), 0.5, make_rng(19))
        for _ in range(200):
            before = state.action
            psblll_step(game, state, cmap, wake=None, forced_awake=[1])
            assert state.action[0] == before[0]
            assert state.action[2] == before[2]

    def test_switch_probability_reduces_to_sigmoid(self):
        # single awake player: adopt probability is sigmoid(payoff gain / tau)
        for delta, tau in [(-1.0, 0.1), (0.0, 0.1), (1.0, 0.1), (1.0, 1.0)]:
            game = GameDefinition.from_tables([np.array([0.0, delta])])
            cmap = ConstrainedActionMap.from_lists([[(1,), (0,)]])
            n = 20_000
            switches = 0
            state = LoglinearState((0,), tau, make_rng(20))
            for _ in range(n):
                state.action = (0,)
                psblll_step(game, state, cmap, wake=None, forced_awake=[0])
                switches += state.action == (1,)
            expected = 1.0 / (1.0 + math.exp(-delta / tau))
            sigma = math.sqrt(max(expected * (1 - expected), 1e-4) / n)
            assert abs(switches / n - expected) <= 4 * sigma

    def test_trial_profile_evaluated_with_all_awake_trials(self):
        # player 0's payoff depends on player 1's action; with both awake and
        # deterministic trials, acceptance odds must use the joint trial profile
        table0 = np.array([[0.0, 100.0], [0.0, 100.0]])  # u0 high iff p1 plays 1
        table1 = np.array([[0.0, 0.0], [100.0, 100.0]])  # u1 high iff p0 plays 1
        game = GameDefinition.from_tables([table0, table1])
        cmap = ConstrainedActionMap.from_lists(
            [[(1,), (0,)], [(1,), (0,)]]
        )  # each trial flips the action
        state = LoglinearState((0, 0), 0.1, make_rng(21))
        psblll_step(game, state, cmap, wake=None, forced_awake=[0, 1])
        # at the all-trials profile (1,1) both players gain 100: adopt w.p. ~1
        assert state.action == (1, 1)

    def test_forced_single_wake_matches_blll_kernel_empirically(self):
        table = np.array([[1.0, 0.0], [0.0, 0.6]])
        game = GameDefinition.identical_interest(table)
        cmap = ConstrainedActionMap.complete(game)
        tau = 0.5
        start = (0, 1)
        n = 30_000
        counts_b: dict = {}
        state_b = LoglinearState(start, tau, make_rng(22, 1))
        for _ in range(n):
            state_b.action = start
            blll_step(game, state_b, cmap)
            counts_b[state_b.action] = counts_b.get(state_b.action, 0) + 1
        counts_p: dict = {}
        state_p = LoglinearState(start, tau, make_rng(22, 2))
        for _ in range(n):
            state_p.action = start
            i = int(state_p.rng.integers(2))
            psblll_step(game, state_p, cmap, wake=None, forced_awake=[i])
            counts_p[state_p.action] = counts_p.get(state_p.action, 0) + 1
        keys = set(counts_b) | set(counts_p)
        tv = 0.5 * sum(
            abs(counts_b.get(k, 0) / n - counts_p.get(k, 0) / n) for k in keys
        )
        assert tv <= 0.02

    def test_wake_probability_validation(self):
        game, _ = random_separable_game(make_rng(23), [2, 2])
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((0, 0), 0.5, make_rng(24))
        with pytest.raises(ValueError):
            psblll_step(game, state, cmap, wake=1.5)


class TestStepRecords:
    """`awake` and `adopted` of the last step, which runners act on."""

    @pytest.mark.parametrize("learner", ["blll", "psblll"])
    def test_taken_own_action_trial_counts_as_adopted(self, learner):
        game = GameDefinition.from_tables([np.array([1.0, 2.0])])
        cmap = ConstrainedActionMap.from_lists([[(0,), (1,)]])  # only self-loops
        state = LoglinearState((0,), 0.5, make_rng(27))
        outcomes = set()
        for _ in range(200):
            if learner == "blll":
                blll_step(game, state, cmap)
            else:
                psblll_step(game, state, cmap, wake=1.0)
            assert state.action == (0,)
            assert state.awake == (0,)
            outcomes.add(state.adopted)
        assert outcomes == {(0,), ()}

    def test_binary_adoption_is_taking_the_trial(self):
        game, _ = random_separable_game(make_rng(28), [2, 2, 2])
        cmap = ConstrainedActionMap.from_lists([[(1,), (0,)]] * 3)  # always the other
        state = LoglinearState((0, 0, 0), 0.5, make_rng(29))
        for step in range(300):
            before = state.action
            if step % 2:
                blll_step(game, state, cmap)
            else:
                psblll_step(game, state, cmap, wake=0.5)
            moved = tuple(i for i in range(3) if state.action[i] != before[i])
            assert state.adopted == moved
            assert set(state.adopted) <= set(state.awake)
            assert list(state.awake) == sorted(set(state.awake))

    def test_lll_adopts_only_on_a_move(self):
        game = GameDefinition.from_tables([np.zeros((3, 2))] * 2)
        state = LoglinearState((0, 0), 1.0, make_rng(30))
        outcomes = set()
        for _ in range(200):
            before = state.action
            lll_step(game, state)
            (i,) = state.awake
            assert state.adopted == ((i,) if state.action[i] != before[i] else ())
            outcomes.add(bool(state.adopted))
        assert outcomes == {True, False}


class TestLoglinearState:
    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            LoglinearState((0,), 0.0, make_rng(25))

    def test_noise_level_matches_temperature(self):
        state = LoglinearState((0,), 0.5, make_rng(26))
        assert state.noise_level == pytest.approx(math.exp(-2.0), rel=1e-15)
