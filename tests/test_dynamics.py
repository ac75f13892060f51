import functools
import math

import networkx as nx
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
from potlearn.games import GameDefinition, logit_map, random_separable_game, replace_action
from potlearn.rng import make_rng
from potlearn.stability import PerturbedChain, build_chain, stationary_distribution


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

    def test_matches_networkx_on_random_maps(self):
        rng = make_rng(90)
        seen = {"ok": 0, "disconnected": 0, "asymmetric": 0}
        for _ in range(300):
            per_player = []
            for _ in range(int(rng.integers(1, 4))):
                m = int(rng.integers(1, 9))
                edges = rng.random((m, m)) < rng.uniform(0.1, 0.6)
                if rng.random() < 0.5:
                    edges |= edges.T
                per_player.append([tuple(np.flatnonzero(row).tolist()) for row in edges])
            disconnected, asymmetric = [], []
            for i, player_map in enumerate(per_player):
                graph = nx.DiGraph()
                graph.add_nodes_from(range(len(player_map)))
                graph.add_edges_from((a, b) for a, dests in enumerate(player_map) for b in dests)
                if not nx.is_strongly_connected(graph):
                    disconnected.append(i)
                asymmetric += [
                    (i, a, b)
                    for a, dests in enumerate(player_map)
                    for b in dests
                    if not graph.has_edge(b, a)
                ]
            report = validate_constraints(ConstrainedActionMap.from_lists(per_player))
            assert report.disconnected_players == tuple(disconnected)
            assert report.asymmetric_pairs == tuple(asymmetric)
            assert report.connected == (not disconnected)
            assert report.symmetric == (not asymmetric)
            seen["ok"] += report.ok
            seen["disconnected"] += bool(disconnected)
            seen["asymmetric"] += bool(asymmetric)
        assert min(seen.values()) >= 30, seen

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
        policy = RevisionPolicy(explore_wake=1.0)
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
        assert 1e-6 <= p <= 1 - 1e-6

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
        assert visits[(0, 0)] / steps == pytest.approx(pi[states.index((0, 0))], abs=0.02)


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

    def test_each_awake_player_weighs_its_own_trial(self):
        # both players awake, each trial flips the action; each player loses
        # 100 at its own trial with the other at the source and would gain
        # 100 at the joint trial profile (1, 1), which it does not weigh
        table0 = np.array([[0.0, 0.0], [-100.0, 100.0]])
        table1 = np.array([[0.0, -100.0], [0.0, 100.0]])
        game = GameDefinition.from_tables([table0, table1])
        cmap = ConstrainedActionMap.from_lists([[(1,), (0,)], [(1,), (0,)]])
        state = LoglinearState((0, 0), 0.1, make_rng(21))
        psblll_step(game, state, cmap, wake=None, forced_awake=[0, 1])
        assert state.action == (0, 0)
        # the chain the oracle solves weighs the same trials
        kernel = build_chain(game, 1.0, cmap, math.exp(-1.0 / 0.1)).kernel
        assert kernel[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_wake_probability_validation(self):
        game, _ = random_separable_game(make_rng(23), [2, 2])
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((0, 0), 0.5, make_rng(24))
        with pytest.raises(ValueError):
            psblll_step(game, state, cmap, wake=1.5)

    @pytest.mark.parametrize(
        "wake", [[0.5], [0.5, 0.5, 0.5], True], ids=["one-entry", "three-entries", "bool"]
    )
    def test_rejects_a_wake_that_is_not_one_probability_per_player(self, wake):
        game, _ = random_separable_game(make_rng(23), [2, 3])
        state = LoglinearState((0, 0), 0.5, make_rng(24))
        with pytest.raises(ValueError, match="^wake must be"):
            psblll_step(game, state, ConstrainedActionMap.complete(game), wake)

    def test_a_numpy_scalar_wake_is_a_probability(self):
        game, _ = random_separable_game(make_rng(23), [2, 3])
        cmap = ConstrainedActionMap.complete(game)
        paths = []
        for wake in (np.float32(0.5), 0.5):
            state = LoglinearState((0, 0), 0.5, make_rng(24))
            paths.append([psblll_step(game, state, cmap, wake).action for _ in range(50)])
        assert paths[0] == paths[1]


def tables_game(seed, shape):
    """Game with one table of uniform payoffs per player, not separable."""
    rng = make_rng(seed)
    return GameDefinition.from_tables([rng.uniform(size=shape) for _ in shape])


class TestSamplersFollowTheKernel:
    """The sampled steps against the kernel `build_chain` builds at the same
    temperature and wake, on games where the psblll convention matters.
    Each bound is fixed here, not calibrated on the runs."""

    @pytest.mark.parametrize(
        "step, wakes, draws",
        [
            (functools.partial(psblll_step, wake=0.5), [0.5], 20_000),
            # one uniformly drawn player awake: the mean of the one-awake
            # kernels; fewer draws keep the class within 5 s
            (blll_step, [[1, 0], [0, 1]], 10_000),
        ],
        ids=["psblll", "blll"],
    )
    def test_one_step_frequencies_match_the_kernel_row(self, step, wakes, draws):
        game = tables_game(4001, (3, 3))
        cmap = ConstrainedActionMap.complete(game)
        tau = 0.05
        kernel = np.mean(
            [build_chain(game, w, cmap, math.exp(-1.0 / tau)).kernel for w in wakes], axis=0
        )
        states = list(game.joint_actions())
        index = {a: k for k, a in enumerate(states)}
        state = LoglinearState(states[0], tau, make_rng(4001, 1))
        for source, row in zip(states, kernel):
            counts = np.zeros(len(states))
            for _ in range(draws):
                state.action = source
                step(game, state, cmap)
                counts[index[state.action]] += 1
            tv = 0.5 * np.abs(counts / draws - row).sum()
            assert tv <= 0.02, f"from {source}: total variation {tv:.4f}"

    def test_long_run_occupancy_matches_the_stationary_vector(self):
        # 20 batches of 5,000 steps; the bound is half the sum over states of
        # three batch-means standard errors of the state's visit frequency
        game = tables_game(4100, (4, 4, 4, 4))
        cmap = ConstrainedActionMap.complete(game)
        tau = 0.2
        pi = stationary_distribution(build_chain(game, 0.5, cmap, math.exp(-1.0 / tau)))
        states = list(game.joint_actions())
        index = {a: k for k, a in enumerate(states)}
        state = LoglinearState(states[0], tau, make_rng(4100, 1))
        batches, length = 20, 5000
        visits = np.zeros((batches, len(states)))
        for batch in visits:
            for _ in range(length):
                psblll_step(game, state, cmap, 0.5)
                batch[index[state.action]] += 1
        freq = visits / length
        se = freq.std(axis=0, ddof=1) / math.sqrt(batches)
        tv = 0.5 * np.abs(freq.mean(axis=0) - pi).sum()
        assert tv <= 0.5 * (3 * se).sum()


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

    @pytest.mark.parametrize("learner", ["lll", "blll", "psblll"])
    def test_payoffs_are_each_players_new_action_against_the_source(self, learner):
        # not separable, so a payoff read at the new joint action would differ
        game = tables_game(31, (3, 3, 3))
        cmap = ConstrainedActionMap.complete(game)
        state = LoglinearState((0, 1, 2), 0.3, make_rng(32))
        steps = {
            "lll": lambda: lll_step(game, state),
            "blll": lambda: blll_step(game, state, cmap),
            "psblll": lambda: psblll_step(game, state, cmap, wake=0.5),
        }
        for _ in range(200):
            source = state.action
            steps[learner]()
            expected = tuple(
                game.utility(j, replace_action(source, j, state.action[j])) for j in range(3)
            )
            assert state.payoffs == expected


class TestLoglinearState:
    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            LoglinearState((0,), 0.0, make_rng(25))
