import collections
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn import harness, stability
from potlearn.dynamics import (
    ConstrainedActionMap,
    binary_logit_weights,
    wake_probabilities,
)
from potlearn.games import GameDefinition, random_separable_game, replace_action
from potlearn.rng import make_rng
from potlearn.stability import (
    InfeasibleTransitionError,
    PerturbedChain,
    SeparabilityError,
    StationaryConvergenceError,
    UnreachableRootError,
    build_chain,
    min_resistance_tree,
    resistance,
    stationary_distribution,
    stochastic_potential,
    stochastically_stable_states,
    temperature_from_noise,
    verify_resistance_identity,
)


def own_value_game(*value_rows):
    """Separable game: player i's payoff is value_rows[i][own action]."""
    shape = tuple(len(v) for v in value_rows)
    tables = []
    for i, v in enumerate(value_rows):
        axes = [1] * len(shape)
        axes[i] = shape[i]
        tables.append(np.broadcast_to(np.asarray(v, float).reshape(axes), shape).copy())
    return GameDefinition.from_tables(tables)


class TestResistance:
    def test_single_deviator_losing_move(self):
        game = own_value_game([5.0, 2.0])
        r = resistance(game, (0,), (1,))
        assert r.resistance == 3.0
        assert r.deviators == (0,)

    def test_single_deviator_improving_move_is_free(self):
        game = own_value_game([2.0, 5.0])
        assert resistance(game, (0,), (1,)).resistance == 0.0

    def test_two_deviators_sum_per_player_terms(self):
        game = own_value_game([1.0, 4.0], [3.0, 2.0])
        r = resistance(game, (0, 0), (1, 1))
        assert r.deviators == (0, 1)
        assert r.resistance == 1.0  # 0 for the improver, 1 for the loser

    def test_infeasible_transition_rejected(self):
        game = own_value_game([0.0, 1.0, 2.0])
        cmap = ConstrainedActionMap.from_lists([[(0, 1), (0, 1, 2), (1, 2)]])
        with pytest.raises(InfeasibleTransitionError):
            resistance(game, (0,), (2,), cmap)

    def test_never_negative_on_random_games(self):
        rng = make_rng(38)
        for _ in range(10):
            game, _ = random_separable_game(rng, [int(rng.integers(2, 4))] * 3)
            states = list(game.joint_actions())
            for _ in range(50):
                a = states[int(rng.integers(len(states)))]
                b = states[int(rng.integers(len(states)))]
                assert resistance(game, a, b).resistance >= 0.0


class TestTransitionProbability:
    def test_scaled_probability_converges_to_wake_draw_prefactor(self):
        # convergence rate is eps ** (payoff gap), so pin the gaps at 0.5
        rng = make_rng(30)
        game, _ = random_separable_game(rng, [2, 2], min_gap=0.5)
        cmap = ConstrainedActionMap.complete(game)
        wake = 0.4
        kernels = {eps: build_chain(game, wake, cmap, eps).kernel for eps in (1e-2, 1e-4, 1e-6)}
        for (j, source), (k, target) in itertools.permutations(enumerate(game.joint_actions()), 2):
            # a deviator wakes and draws its target; a non-deviator that
            # would gain by switching must not wake and draw its other action
            limit = 1.0
            for i in range(2):
                if source[i] != target[i]:
                    limit *= wake / 2.0
                else:
                    other = replace_action(source, i, 1 - source[i])
                    if game.utility(i, other) > game.utility(i, source):
                        limit *= 1.0 - wake / 2.0
            r = resistance(game, source, target).resistance
            values = [kernel[j, k] / eps**r for eps, kernel in kernels.items()]
            errors = [abs(v - limit) / limit for v in values]
            assert errors[-1] <= 0.01
            assert errors[0] >= errors[1] >= errors[2] - 1e-12

    def test_resistance_is_the_kernel_exponent_on_a_non_separable_game(self):
        # ln P = ln C - R ln(1 / eps), so the slope of ln P against ln eps is R;
        # at scale 0.5 some switch weights fall below 1e-16, where 1 - keep rounds to 0
        for scale in (0.1, 0.5):
            rng = np.random.default_rng(3)
            game = GameDefinition.from_tables(
                [scale * rng.permutation(9).reshape(3, 3).astype(float) for _ in range(2)]
            )
            cmap = ConstrainedActionMap.complete(game)
            hi, lo = (build_chain(game, 0.5, cmap, eps).kernel for eps in (1e-6, 1e-8))
            states = list(game.joint_actions())
            for (j, source), (k, target) in itertools.permutations(enumerate(states), 2):
                ratio = math.log(hi[j, k]) - math.log(lo[j, k])
                slope = ratio / (math.log(1e-6) - math.log(1e-8))
                r = resistance(game, source, target).resistance
                msg = f"scale {scale}, {source} -> {target}: slope {slope:.3f}, R {r:.3f}"
                assert abs(slope - r) <= 0.1, msg

    def test_noise_temperature_round_trip(self):
        tau = temperature_from_noise(0.1)
        assert math.exp(-1.0 / tau) == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(ValueError):
            temperature_from_noise(1.0)


class TestBuildChain:
    def test_single_state_game_is_identity(self):
        game = own_value_game([3.0])
        chain = build_chain(game, 0.5, ConstrainedActionMap.complete(game), eps=0.3)
        assert chain.kernel.shape == (1, 1)
        assert chain.kernel[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_hand_enumerated_two_action_kernel(self):
        # wake 1/2, draw the other action 1/2, accept 1/2
        game = own_value_game([1.0, 1.0])
        chain = build_chain(game, 0.5, ConstrainedActionMap.complete(game), eps=0.3)
        assert chain.kernel[0, 1] == pytest.approx(1 / 8, abs=1e-15)
        assert chain.kernel[1, 0] == pytest.approx(1 / 8, abs=1e-15)

    def test_rows_sum_to_one_and_entries_non_negative(self):
        rng = make_rng(31)
        game, _ = random_separable_game(rng, [3, 3, 3])
        cmap = ConstrainedActionMap.complete(game)
        chain = build_chain(game, [0.2, 0.5, 0.8], cmap, eps=0.05)
        assert np.abs(chain.kernel.sum(axis=1) - 1.0).max() <= 1e-10
        assert (np.asarray(chain.kernel) >= 0).all()

    def test_state_cap_enforced(self, monkeypatch):
        rng = make_rng(32)
        game, _ = random_separable_game(rng, [4, 4])
        monkeypatch.setattr(stability, "_CHAIN_MAX_STATES", 10)
        with pytest.raises(ValueError):
            build_chain(game, 0.5, ConstrainedActionMap.complete(game), 0.1)


class TestStationaryDistribution:
    def test_two_state_analytic_solution(self):
        chain = PerturbedChain(
            states=((0,), (1,)),
            kernel=np.array([[0.9, 0.1], [0.2, 0.8]]),
            noise=0.1,
        )
        pi = stationary_distribution(chain)
        assert pi == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_doubly_stochastic_kernel_is_uniform(self):
        # convex mix of permutation matrices is doubly stochastic
        p1 = np.eye(3)[[1, 2, 0]]
        p2 = np.eye(3)[[2, 0, 1]]
        kernel = 0.3 * p1 + 0.3 * p2 + 0.4 * np.eye(3)
        chain = PerturbedChain(
            states=((0,), (1,), (2,)),
            kernel=kernel,
            noise=0.5,
        )
        pi = stationary_distribution(chain)
        assert pi == pytest.approx([1 / 3] * 3, rel=1e-12)

    def test_symmetric_binary_game_splits_evenly(self):
        game = own_value_game([1.0, 1.0])
        chain = build_chain(game, 0.5, ConstrainedActionMap.complete(game), eps=0.2)
        pi = stationary_distribution(chain)
        assert pi == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_reducible_chain_raises(self):
        chain = PerturbedChain(
            states=((0,), (1,)),
            kernel=np.eye(2),
            noise=0.1,
        )
        with pytest.raises(StationaryConvergenceError):
            stationary_distribution(chain)

    def perturb_solver(self, monkeypatch):
        """Make every GTH solve return its vector moved by 1e-6 toward state 0."""
        solve = stability._gth_stationary

        def perturbed(kernel):
            pi = solve(kernel)
            pi[0] += 1e-6
            return pi / pi.sum()

        monkeypatch.setattr(stability, "_gth_stationary", perturbed)

    @pytest.mark.parametrize("factored", [True, False])
    def test_residual_gate_names_the_bound_it_applies(self, monkeypatch, factored):
        # 125 states: the bound is 1e-12 * 125 = 1.25e-10, above its 1e-10 floor
        rng = make_rng(44)
        game, _ = random_separable_game(rng, [5, 5, 5])
        cmap = random_cycle_map(rng, [5, 5, 5])
        wake = 0.5 if factored else (lambda i, action: 0.3 + 0.4 * (action[(i + 1) % 3] % 2))
        chain = build_chain(game, wake, cmap, 1e-2)
        assert (chain.factors is not None) == factored
        stationary_distribution(chain)
        self.perturb_solver(monkeypatch)
        with pytest.raises(StationaryConvergenceError, match=r"> bound 1\.250e-10$"):
            stationary_distribution(chain)

    def test_nan_solve_fails_the_residual_gate(self, monkeypatch):
        game = own_value_game([0.0, 1.0])
        chain = build_chain(game, 0.5, ConstrainedActionMap.complete(game), eps=0.1)
        monkeypatch.setattr(stability, "_gth_stationary", lambda kernel: np.full(len(kernel), np.nan))
        with pytest.raises(StationaryConvergenceError, match=r"^GTH residual nan > bound"):
            stationary_distribution(chain)

    def test_back_substitution_rescales_an_overflowing_product(self):
        # each state is 1e300 times as likely as the one before, so the
        # unnormalised mass of state 2 (1e600) overflows unless pi is rescaled
        kernel = np.array([[0.0, 1.0, 0.0], [1e-300, 0.0, 1 - 1e-300], [0.0, 1e-300, 1 - 1e-300]])
        with np.errstate(over="raise", invalid="raise"):
            pi = stability._gth_stationary(kernel)
        assert pi.tolist() == [0.0, 1e-300, 1.0]
        assert stability._residual(kernel, pi) <= 1e-10

    def test_residual_gate_failure_names_the_noise_level(self, monkeypatch):
        game = own_value_game([0.0, 1.0], [0.3, 0.1, 0.2])
        self.perturb_solver(monkeypatch)
        message = r"^noise level 0\.1: GTH residual .* > bound 1\.000e-10$"
        with pytest.raises(StationaryConvergenceError, match=message):
            stochastically_stable_states(game, 0.5, ConstrainedActionMap.complete(game))


class TestStochasticallyStableStates:
    def test_strictly_better_action_is_the_stable_state(self):
        game = own_value_game([0.0, 1.0])
        report = stochastically_stable_states(
            game, 0.5, ConstrainedActionMap.complete(game)
        )
        assert report.stable == ((1,),)
        assert report.masses[-1, report.states.index((1,))] >= 0.99

    def test_unique_potential_maximizer_dominates(self):
        rng = make_rng(33)
        game, phi = random_separable_game(rng, [3, 2], min_gap=0.75)
        report = stochastically_stable_states(
            game, 0.5, ConstrainedActionMap.complete(game)
        )
        best = max(phi, key=phi.get)
        k = report.states.index(best)
        assert best in report.stable
        assert report.masses[-1, k] >= 0.9
        assert report.masses[0, k] < report.masses[1, k] < report.masses[2, k]

    def test_tied_maximizers_share_mass(self):
        game = own_value_game([1.0, 1.0], [0.0, 0.7])
        report = stochastically_stable_states(
            game, 0.5, ConstrainedActionMap.complete(game)
        )
        tied = {(0, 1), (1, 1)}
        assert set(report.stable) == tied
        masses = [report.masses[-1, report.states.index(s)] for s in tied]
        ratio = masses[0] / masses[1]
        assert 0.5 <= ratio <= 2.0

    def test_rejects_non_decreasing_schedule(self):
        game = own_value_game([0.0, 1.0])
        with pytest.raises(ValueError):
            stochastically_stable_states(
                game, 0.5, ConstrainedActionMap.complete(game), (1e-3, 1e-2)
            )

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("noise_levels", {"noise_levels": ()}),
            ("mass_threshold", {"mass_threshold": math.nan}),
            ("mass_threshold", {"mass_threshold": math.inf}),
            ("mass_threshold", {"mass_threshold": -math.inf}),
            ("mass_threshold", {"mass_threshold": -1.0}),
            ("mass_threshold", {"mass_threshold": 0.0}),
            ("mass_threshold", {"mass_threshold": 1.5}),
        ],
    )
    def test_oracle_rejects_bad_argument_by_name(self, name, kwargs):
        game, cmap = separable_2x2()
        with pytest.raises(ValueError, match=name):
            harness.oracle_report(game, cmap, **kwargs)


class TestResistanceIdentity:
    def test_separable_game_has_zero_violations(self):
        rng = make_rng(34)
        game, phi = random_separable_game(rng, [3, 3])
        report = verify_resistance_identity(game, ConstrainedActionMap.complete(game))
        assert report.ok
        assert report.max_residual <= 1e-12
        assert report.pairs_checked == 9 * 9

    def test_self_transitions_are_trivially_balanced(self):
        game = own_value_game([1.0, 2.0])
        report = verify_resistance_identity(game, ConstrainedActionMap.complete(game))
        assert report.ok  # includes the (a, a) pairs

    def test_non_separable_game_names_the_player(self):
        table0 = np.array([[0.0, 1.0], [0.0, 1.0]])  # depends on player 1's action
        game = GameDefinition.from_tables([table0, np.zeros((2, 2))])
        with pytest.raises(SeparabilityError) as err:
            verify_resistance_identity(game, ConstrainedActionMap.complete(game))
        assert err.value.player == 0
        assert err.value.profile_a[0] == err.value.profile_b[0]

    def test_multi_deviator_difference_telescopes_over_sub_edges(self):
        # forward-minus-backward resistance of a two-deviator edge equals the
        # sum over the single-deviator sub-edges of its expansion
        rng = make_rng(35)
        game, _ = random_separable_game(rng, [3, 3])
        cmap = ConstrainedActionMap.complete(game)
        a, b = (0, 0), (2, 1)
        direct = (
            resistance(game, a, b, cmap).resistance
            - resistance(game, b, a, cmap).resistance
        )
        mid = (2, 0)  # player 0 deviates first, then player 1
        telescoped = (
            resistance(game, a, mid, cmap).resistance
            - resistance(game, mid, a, cmap).resistance
            + resistance(game, mid, b, cmap).resistance
            - resistance(game, b, mid, cmap).resistance
        )
        assert direct == pytest.approx(telescoped, abs=1e-12)


def brute_force_min_in_tree(states, edges, root):
    """Minimum-total-resistance spanning in-tree by exhaustive enumeration."""
    others = [s for s in states if s != root]
    out_edges = {
        s: [(t, w) for (src, t, w) in edges if src == s and t != s] for s in others
    }
    best = None
    for combo in itertools.product(*(out_edges[s] for s in others)):
        parent = {s: combo[k][0] for k, s in enumerate(others)}
        total = sum(w for _, w in combo)
        ok = True
        for s in others:
            seen = {s}
            cur = s
            while cur != root:
                cur = parent.get(cur)
                if cur is None or cur in seen:
                    ok = False
                    break
                seen.add(cur)
            if not ok:
                break
        if ok and (best is None or total < best):
            best = total
    return best


class TestMinResistanceTree:
    def test_two_state_space_uses_the_reverse_edge(self):
        game = own_value_game([2.0, 5.0])
        cmap = ConstrainedActionMap.complete(game)
        tree = min_resistance_tree(game, cmap, root=(1,))
        assert tree.edges == (((0,), (1,), 0.0),)
        assert tree.total_resistance == resistance(game, (0,), (1,)).resistance

    def test_improving_chain_has_zero_stochastic_potential(self):
        game = own_value_game([0.0, 1.0, 2.0])
        cmap = ConstrainedActionMap.from_lists([[(0, 1), (0, 1, 2), (1, 2)]])
        tree = min_resistance_tree(game, cmap, root=(2,))
        assert tree.total_resistance == 0.0
        assert set(tree.edges) == {((0,), (1,), 0.0), ((1,), (2,), 0.0)}

    def test_matches_exhaustive_enumeration_on_2x2(self):
        rng = make_rng(36)
        game, phi = random_separable_game(rng, [2, 2], min_gap=0.5)
        cmap = ConstrainedActionMap.complete(game)
        states = list(game.joint_actions())
        edges = []
        for a, b in itertools.permutations(states, 2):
            edges.append((a, b, resistance(game, a, b, cmap).resistance))
        potentials = {}
        for root in states:
            tree = min_resistance_tree(game, cmap, root)
            brute = brute_force_min_in_tree(states, edges, root)
            assert tree.total_resistance == pytest.approx(brute, abs=1e-12)
            potentials[root] = tree.total_resistance
        # the minimizer of the stochastic potential maximizes the potential
        assert min(potentials, key=potentials.get) == max(phi, key=phi.get)

    def test_state_cap(self):
        rng = make_rng(37)
        game, _ = random_separable_game(rng, [4, 4])
        with pytest.raises(ValueError):
            min_resistance_tree(game, ConstrainedActionMap.complete(game), (0, 0))

    def test_unreachable_root(self):
        game = own_value_game([0.0, 1.0])
        cmap = ConstrainedActionMap.from_lists([[(0,), (1,)]])  # self-loops only
        with pytest.raises(UnreachableRootError):
            min_resistance_tree(game, cmap, root=(1,))

    def test_stochastic_potential_helper(self):
        game = own_value_game([2.0, 5.0])
        cmap = ConstrainedActionMap.complete(game)
        assert stochastic_potential(game, cmap, (1,)) == 0.0
        assert stochastic_potential(game, cmap, (0,)) == 3.0


# ---- references: the per-path chain builder and sequential GTH ------------


def reference_build_chain(game, wake, constraints, eps):
    """Dense kernel by walking every wake set, trial draw and accept pattern."""
    tau = temperature_from_noise(eps)
    states = tuple(game.joint_actions())
    n = len(states)
    index = {a: k for k, a in enumerate(states)}
    utils = {a: game.utilities(a) for a in states}
    n_players = game.n_players
    kernel = np.zeros((n, n))
    for si, source in enumerate(states):
        rp = wake_probabilities(wake, n_players, source)
        allowed = [constraints.allowed(i, source[i]) for i in range(n_players)]
        u_source = utils[source]
        row: dict[int, float] = {}
        for mask in range(1 << n_players):
            awake = [i for i in range(n_players) if mask >> i & 1]
            p_wake = 1.0
            for i in range(n_players):
                p_wake *= rp[i] if i in awake else 1.0 - rp[i]
            if p_wake == 0.0:
                continue
            if not awake:
                row[si] = row.get(si, 0.0) + p_wake
                continue
            p_draw = p_wake
            for i in awake:
                p_draw /= len(allowed[i])
            for trial_vec in itertools.product(*(allowed[i] for i in awake)):
                # each awake player weighs its own trial, the others at the source;
                # a switch is the reversed pair's keep, exact where 1 - keep rounds to 0
                weighed = [
                    (u_source[i], utils[replace_action(source, i, t)][i])
                    for i, t in zip(awake, trial_vec)
                ]
                keeps = [binary_logit_weights(u, v, tau)[0] for u, v in weighed]
                switches = [binary_logit_weights(v, u, tau)[0] for u, v in weighed]
                for accept in range(1 << len(awake)):
                    p = p_draw
                    out = list(source)
                    for bit, i in enumerate(awake):
                        if accept >> bit & 1:
                            p *= switches[bit]
                            out[i] = trial_vec[bit]
                        else:
                            p *= keeps[bit]
                    ti = index[tuple(out)]
                    row[ti] = row.get(ti, 0.0) + p
        total = 0.0
        for ti, p in row.items():
            kernel[si, ti] += p
            total += p
        kernel[si, si] += 1.0 - total
    return kernel


def reference_gth(kernel):
    """Sequential GTH: one rank-1 update of the leading block per state."""
    p = np.array(kernel, dtype=float)
    n = p.shape[0]
    for k in range(n - 1, 0, -1):
        s = p[k, :k].sum()
        if s <= 0.0:
            raise StationaryConvergenceError("reducible")
        p[:k, k] /= s
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


BLOCK = stability._GTH_BLOCK


def wide_range_kernel(n, lower, upper):
    """Row-stochastic kernel with nonzeros at most `lower` below and `upper`
    above the diagonal, both widths reached; entries span 40 orders of
    magnitude, a fifth of them zero, and the off-diagonals keep it irreducible."""
    rng = np.random.default_rng([n, lower, upper])
    kernel = rng.random((n, n)) * 10.0 ** -rng.integers(0, 40, size=(n, n))
    kernel[rng.random((n, n)) < 0.2] = 0.0
    kernel = np.triu(np.tril(kernel, upper), -lower)
    kernel[np.arange(1, n), np.arange(n - 1)] += 1e-3
    kernel[np.arange(n - 1), np.arange(1, n)] += 1e-3
    kernel[lower, 0] += 1e-20
    kernel[0, upper] += 1e-20
    return kernel / kernel.sum(axis=1, keepdims=True)


def assert_kernels_match(kernel, ref):
    # below the smallest normal double the product of the players' rows and
    # the reference's per-path product may differ by one subnormal step
    tiny = np.finfo(float).tiny
    off = ~np.eye(len(ref), dtype=bool)
    normal = off & (np.abs(ref) >= tiny)
    np.testing.assert_allclose(kernel[normal], ref[normal], rtol=1e-12, atol=0)
    np.testing.assert_allclose(kernel[off & ~normal], ref[off & ~normal], rtol=0, atol=tiny)
    np.testing.assert_allclose(np.diag(kernel), np.diag(ref), rtol=0, atol=1e-14)


@st_.composite
def chain_cases(draw):
    """A small game, a constraint map, a wake model and a noise level."""
    sizes = draw(st_.lists(st_.integers(1, 4), min_size=1, max_size=3))
    shape = tuple(sizes)
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    game = GameDefinition.from_tables([rng.random(shape) for _ in sizes])
    if draw(st_.booleans()):
        cmap = ConstrainedActionMap.complete(game)
    else:
        cmap = ConstrainedActionMap.from_lists(
            [
                [
                    tuple(int(b) for b in rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
                    for _ in range(m)
                ]
                for m in sizes
            ]
        )
    kind = draw(st_.sampled_from(["scalar", "list", "callable"]))
    probs = st_.sampled_from([0.0, 1.0]) | st_.floats(0.0, 1.0)
    if kind == "scalar":
        wake = draw(probs)
    elif kind == "list":
        wake = [draw(probs) for _ in sizes]
    else:
        table = rng.random((len(sizes), max(sizes)))
        table[table < 0.15] = 0.0
        table[table > 0.85] = 1.0

        def wake(i, action):
            return float(table[i, action[i]])

    eps = draw(st_.sampled_from([0.3, 1e-2, 1e-4]))
    return game, cmap, wake, eps


class TestChainDifferential:
    """The table-driven builder and blocked GTH against the references."""

    @given(chain_cases())
    @settings(max_examples=120, deadline=None)
    def test_kernel_and_stationary_vector_match_the_references(self, case):
        game, cmap, wake, eps = case
        chain = build_chain(game, wake, cmap, eps)
        ref = reference_build_chain(game, wake, cmap, eps)
        assert_kernels_match(chain.kernel, ref)
        assert chain.states == tuple(game.joint_actions())
        # a subnormal entry's rounding error is far above 1e-12 of it, so with
        # one blocked GTH is checked on the builder's own kernel
        subnormal = ((ref > 0) & (ref < np.finfo(float).tiny)).any()
        solve_on = chain.kernel if subnormal else ref
        try:
            ref_pi = reference_gth(solve_on)
        except StationaryConvergenceError:
            with pytest.raises(StationaryConvergenceError):
                stability._gth_stationary(chain.kernel)
            return
        np.testing.assert_allclose(
            stability._gth_stationary(chain.kernel), ref_pi, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("chunk", [1, 50, 1 << 17])
    def test_sparse_path_and_chunking_match_the_reference(self, monkeypatch, chunk):
        # random tables lack the own-action property, so the enumerating
        # builder's chunks run; the separable game is factored
        rng = make_rng(40)
        separable, _ = random_separable_game(rng, [4, 3, 3])
        tables = GameDefinition.from_tables([rng.random((4, 3, 3)) for _ in range(3)])
        cmap = ConstrainedActionMap.from_lists(
            [
                [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)],
                [(0, 1), (1, 2), (2, 0)],
                [(1, 2), (0, 2), (0, 1)],
            ]
        )
        wake = [0.2, 0.5, 0.9]
        monkeypatch.setattr(stability, "_CHUNK_ENTRIES", chunk)
        for game, limit in ((separable, stability.DENSE_SOLVE_LIMIT), (tables, 36)):
            monkeypatch.setattr(stability, "DENSE_SOLVE_LIMIT", limit)
            chain = build_chain(game, wake, cmap, 1e-2)
            assert (chain.factors is not None) == (game is separable)
            assert_kernels_match(chain.kernel, reference_build_chain(game, wake, cmap, 1e-2))

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_gth_block_edges_match_sequential_gth(self, offset):
        b = stability._GTH_BLOCK
        n = 2 * b + 1 if offset is None else b + offset
        rng = np.random.default_rng(n)
        # entries over 40 orders of magnitude, a fifth of them zero
        kernel = rng.random((n, n)) * 10.0 ** -rng.integers(0, 40, size=(n, n))
        kernel[rng.random((n, n)) < 0.2] = 0.0
        kernel[np.arange(n), (np.arange(n) + 1) % n] += 1e-3  # irreducible cycle
        kernel /= kernel.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            stability._gth_stationary(kernel), reference_gth(kernel), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("n", [2 * BLOCK - 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize(
        "lower,upper",
        [
            (1, 1),
            (BLOCK - 1, BLOCK - 1),
            (BLOCK, BLOCK),
            (BLOCK + 1, BLOCK + 1),
            (None, None),
            (3, BLOCK + 2),
            (BLOCK + 2, 3),
        ],
    )
    def test_banded_gth_matches_sequential_gth(self, n, lower, upper):
        # None is the full width n - 1; the last two bands are asymmetric
        lower = n - 1 if lower is None else lower
        upper = n - 1 if upper is None else upper
        kernel = wide_range_kernel(n, lower, upper)
        assert stability._bandwidth(kernel) == max(lower, upper)
        np.testing.assert_allclose(
            stability._gth_stationary(kernel), reference_gth(kernel), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("corner", [(-1, 0), (0, -1)])
    def test_single_corner_entry_widens_the_band(self, corner):
        n = 2 * BLOCK + 1
        kernel = wide_range_kernel(n, 1, 1)
        kernel[corner] = 1e-30
        kernel /= kernel.sum(axis=1, keepdims=True)
        assert stability._bandwidth(kernel) == n - 1
        np.testing.assert_allclose(
            stability._gth_stationary(kernel), reference_gth(kernel), rtol=1e-12, atol=0
        )

    def test_moore_coverage_chain_solves_in_its_band(self, tmp_path):
        path = tmp_path / "game.yaml"
        path.write_text("builtin: coverage\ngrid_size: 5\nrobots: 2\n")
        game, cmap = harness.load_game_spec(path)
        chain = build_chain(game, 0.5, cmap, 1e-2)
        rows, cols = np.nonzero(chain.kernel)
        band = int(np.abs(rows - cols).max())
        assert chain.n_states == 625
        assert stability._bandwidth(chain.kernel) == band < chain.n_states - 1
        np.testing.assert_allclose(
            stationary_distribution(chain), reference_gth(chain.kernel), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("split", [3, BLOCK // 2, BLOCK - 3, BLOCK + BLOCK // 2, 2 * BLOCK - 3])
    def test_reducible_banded_chain_raises_in_any_block(self, split):
        # two closed classes meeting at `split`, each banded to |i - j| <= 3:
        # splits fall a block deep (near its bottom, middle and top) and in
        # the middle and near the top of the first block eliminated
        n = 2 * BLOCK + 1
        kernel = np.zeros((n, n))
        for lo, hi in ((0, split), (split, n)):
            kernel[lo:hi, lo:hi] = 1.0
        kernel = np.triu(np.tril(kernel, 3), -3)
        kernel /= kernel.sum(axis=1, keepdims=True)
        assert stability._bandwidth(kernel) == 3
        with pytest.raises(StationaryConvergenceError):
            stability._gth_stationary(kernel)

    @pytest.mark.parametrize("split", [1, 5, None])
    def test_reducible_chain_raises_in_any_block(self, split):
        # two closed classes meeting at `split`; None puts it a block deep
        n = 2 * stability._GTH_BLOCK + 1
        split = n - stability._GTH_BLOCK - 3 if split is None else split
        kernel = np.zeros((n, n))
        for lo, hi in ((0, split), (split, n)):
            kernel[lo:hi, lo:hi] = 1.0 / (hi - lo)
        chain = PerturbedChain(
            states=tuple((k,) for k in range(n)),
            kernel=kernel,
            noise=0.1,
        )
        with pytest.raises(StationaryConvergenceError):
            stationary_distribution(chain)


def moore_map(sides):
    """Each player's actions are the cells of a side x side grid in row-major
    order, allowed to move to the Moore neighbourhood or stay."""
    return ConstrainedActionMap.from_lists(
        [
            [
                tuple(
                    b
                    for b in range(s * s)
                    if abs(b // s - a // s) <= 1 and abs(b % s - a % s) <= 1
                )
                for a in range(s * s)
            ]
            for s in sides
        ]
    )


def random_cycle_map(rng, sizes):
    """Random allowed sets, each holding the next action round a cycle, so
    every player's own-move chain is irreducible under any wake in (0, 1)."""
    return ConstrainedActionMap.from_lists(
        [
            [
                tuple(
                    sorted(
                        {(a + 1) % m}
                        | {int(b) for b in rng.choice(m, int(rng.integers(1, m + 1)), replace=False)}
                    )
                )
                for a in range(m)
            ]
            for m in sizes
        ]
    )


def wake_model(kind, n_players, rng):
    """A wake model of the given kind whose probabilities depend on the
    waking player's own action only."""
    table = rng.uniform(0.1, 0.9, size=(n_players, 9))
    if kind == "scalar":
        return float(table[0, 0])
    if kind == "list":
        return table[:, 0].tolist()
    return lambda i, action: float(table[i, action[i]])


def assert_solves_like_the_reference(chain, ref):
    assert_kernels_match(chain.kernel, ref)
    np.testing.assert_allclose(
        stationary_distribution(chain), reference_gth(ref), rtol=1e-12, atol=0
    )


class TestFactoredChain:
    """Own-action games build per-player kernels; others enumerate the chain."""

    @pytest.mark.parametrize("above_limit", [False, True])
    @pytest.mark.parametrize("wake_kind", ["scalar", "list", "callable"])
    @pytest.mark.parametrize("map_kind", ["random", "moore"])
    def test_own_action_games_are_factored(self, monkeypatch, above_limit, wake_kind, map_kind):
        rng = make_rng(14)
        if map_kind == "moore":
            sides = [2, 3]
            cmap = moore_map(sides)
            sizes = [s * s for s in sides]
        else:
            sizes = [4, 3, 3]
            cmap = random_cycle_map(rng, sizes)
        game, _ = random_separable_game(rng, sizes)
        wake = wake_model(wake_kind, len(sizes), rng)
        ref = reference_build_chain(game, wake, cmap, 1e-2)
        if above_limit:  # the largest factor fits, the joint kernel does not
            monkeypatch.setattr(stability, "DENSE_SOLVE_LIMIT", max(sizes))
        chain = build_chain(game, wake, cmap, 1e-2)
        assert [q.shape for q in chain.factors] == [(m, m) for m in sizes]
        if above_limit:
            limit = f"above DENSE_SOLVE_LIMIT = {max(sizes)}$"
            with pytest.raises(ValueError, match=f"joint kernel would have 36 states, {limit}"):
                chain.kernel
            np.testing.assert_allclose(
                stationary_distribution(chain), reference_gth(ref), rtol=1e-12, atol=0
            )
        else:
            assert_solves_like_the_reference(chain, ref)

    def test_payoff_reading_another_player_takes_the_general_path(self):
        rng = make_rng(15)
        sizes = [4, 3, 3]
        game, _ = random_separable_game(rng, sizes)
        tables = [
            np.array([game.utility(i, a) for a in game.joint_actions()]).reshape(sizes)
            for i in range(3)
        ]
        tables[1][2, 1, 0] += 0.25  # player 1's payoff now depends on the others
        game = GameDefinition.from_tables(tables)
        cmap = random_cycle_map(rng, sizes)
        chain = build_chain(game, [0.3, 0.6, 0.8], cmap, 1e-2)
        assert chain.factors is None
        assert_solves_like_the_reference(
            chain, reference_build_chain(game, [0.3, 0.6, 0.8], cmap, 1e-2)
        )

    def test_wake_reading_another_player_takes_the_general_path(self):
        rng = make_rng(16)
        sizes = [4, 3, 3]
        game, _ = random_separable_game(rng, sizes)
        cmap = random_cycle_map(rng, sizes)

        def wake(i, action):
            return 0.3 + 0.4 * (action[(i + 1) % 3] % 2)

        chain = build_chain(game, wake, cmap, 1e-2)
        assert chain.factors is None
        assert_solves_like_the_reference(chain, reference_build_chain(game, wake, cmap, 1e-2))

    def test_a_player_that_never_wakes_makes_the_chain_reducible(self):
        rng = make_rng(17)
        sizes = [4, 3, 3]
        game, _ = random_separable_game(rng, sizes)
        chain = build_chain(game, [0.5, 0.0, 0.5], random_cycle_map(rng, sizes), 1e-2)
        assert chain.factors is not None
        with pytest.raises(StationaryConvergenceError):
            stationary_distribution(chain)


def off_stochastic_factors(rng, sizes, offsets):
    """Random factors whose rows each sum to 1 + offsets[i] in factor i."""
    factors = []
    for m, off in zip(sizes, offsets):
        q = rng.random((m, m))
        factors.append(q / q.sum(axis=1, keepdims=True) * (1.0 + off))
    return tuple(factors)


FACTOR_SIZES = [[16, 16], [4, 3, 3]]


class TestFactoredResidual:
    """The residual read off the factors against the joint kernel's."""

    @pytest.mark.parametrize("sizes", FACTOR_SIZES, ids=str)
    @pytest.mark.parametrize("off", [0.0, 1e-13])
    def test_matches_the_joint_kernel_residual(self, sizes, off):
        # a Dirichlet draw, not a product vector, keeps the residual of order one
        rng = make_rng(46)
        factors = off_stochastic_factors(rng, sizes, rng.choice([-off, off], len(sizes)))
        pi = rng.dirichlet(np.ones(math.prod(sizes)))
        want = stability._residual(stability._kron_kernel(factors), pi)
        assert want > 0.1
        got = stability._factored_residual(factors, pi)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sizes", FACTOR_SIZES, ids=str)
    def test_self_loop_absorbs_rows_off_from_one(self, sizes):
        # rows of factor i sum to 1 + d_i, so the Kronecker product moves the
        # product of the factors' stationary vectors by prod(1 + d_i) - 1;
        # the self-loop that makes the joint rows sum to one moves it back
        rng = make_rng(47)
        offsets = [2e-13, 1e-13, -1e-13][: len(sizes)]
        factors = off_stochastic_factors(rng, sizes, offsets)
        pi = functools.reduce(np.kron, [stability._gth_stationary(q) for q in factors])
        pi /= pi.sum()
        assert abs(math.prod(1.0 + d for d in offsets) - 1.0) > 1e-13
        assert stability._residual(stability._kron_kernel(factors), pi) < 2e-15
        assert stability._factored_residual(factors, pi) < 2e-15


class TestNoJointKernel:
    """Building and solving a factored chain never makes its joint kernel;
    reading `chain.kernel` afterwards makes the one the reference walks."""

    @pytest.mark.parametrize("call", ["stable-set", "oracle-report"])
    def test_solve_builds_no_joint_kernel(self, monkeypatch, tmp_path, call):
        if call == "stable-set":
            rng = make_rng(45)
            sizes = [4, 3, 3]
            game, _ = random_separable_game(rng, sizes)
            cmap = random_cycle_map(rng, sizes)

            def run():
                stochastically_stable_states(game, 0.5, cmap, (1e-1, 1e-2))
        else:
            game, cmap = builtin_coverage_game(tmp_path, 4, 2)

            def run():
                harness.oracle_report(game, cmap)

        def forbidden(factors):
            raise AssertionError("the joint kernel of a factored chain was built")

        chains = []
        build = stability.build_chain

        def capture(*args, **kwargs):
            chains.append(build(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(stability, "_kron_kernel", forbidden)
        monkeypatch.setattr(stability, "build_chain", capture)
        run()
        monkeypatch.undo()
        chain = chains[-1]
        assert chain.factors is not None
        assert_kernels_match(chain.kernel, reference_build_chain(game, 0.5, cmap, chain.noise))
        assert chain.kernel is chain.kernel


# ---- references: the all-pairs resistance enumerations --------------------


def reference_resistance_list(game, cmap):
    rows = []
    for a in game.joint_actions():
        for b in game.joint_actions():
            if a == b:
                continue
            try:
                r = resistance(game, a, b, cmap)
            except InfeasibleTransitionError:
                continue
            rows.append((a, b, r.deviators, r.resistance))
    return rows


def reference_identity(game, cmap, tol=1e-12):
    values = []
    for i in range(game.n_players):
        own = np.zeros(game.n_actions(i))
        base_profile = {}
        for a in game.joint_actions():
            u = game.utility(i, a)
            if a[i] not in base_profile:
                base_profile[a[i]] = a
                own[a[i]] = u
            elif u != own[a[i]]:
                raise SeparabilityError(i, base_profile[a[i]], a)
        values.append(own)
    states = list(game.joint_actions())

    def potential(a):
        return float(sum(values[i][a[i]] for i in range(game.n_players)))

    violations = []
    worst = 0.0
    checked = 0
    for a, b in itertools.product(states, states):
        try:
            forward = resistance(game, a, b, cmap).resistance
        except InfeasibleTransitionError:
            continue
        backward = resistance(game, b, a, cmap).resistance
        residual = abs((forward - backward) - (potential(a) - potential(b)))
        checked += 1
        worst = max(worst, residual)
        if residual > tol:
            violations.append((a, b, residual))
    return stability.ResistanceIdentityReport(checked, worst, tuple(violations), tol)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def separable_2x2():
    return harness.load_game_spec(CONFIGS / "game_separable_2x2.yaml")


def random_non_separable():
    rng = np.random.default_rng(41)
    game = GameDefinition.from_tables([rng.random((3, 4, 2)) for _ in range(3)])
    cmap = ConstrainedActionMap.from_lists(
        [[(0, 1), (0, 1, 2), (1, 2)], [(1,), (0, 2), (1, 3), (2, 3)], [(0, 1), (0, 1)]]
    )
    return game, cmap


def coverage_4x4_two_robots(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "game.yaml"
    path.write_text("builtin: coverage\ngrid_size: 4\nrobots: 2\n")
    return harness.load_game_spec(path)


@pytest.fixture(params=["separable_2x2", "random_non_separable", "coverage_4x4"])
def resistance_game(request, tmp_path_factory):
    if request.param == "separable_2x2":
        return separable_2x2()
    if request.param == "random_non_separable":
        return random_non_separable()
    return coverage_4x4_two_robots(tmp_path_factory)


class TestResistanceExactness:
    """The feasible-target enumerations equal the all-pairs ones with ==."""

    def test_resistance_list_equals_all_pairs(self, resistance_game):
        game, cmap = resistance_game
        assert stability.transition_resistances(game, cmap) == reference_resistance_list(
            game, cmap
        )

    def test_identity_report_equals_all_pairs(self, resistance_game):
        game, cmap = resistance_game
        try:
            ref = reference_identity(game, cmap)
        except SeparabilityError as exc:
            with pytest.raises(SeparabilityError) as err:
                verify_resistance_identity(game, cmap)
            assert (err.value.player, err.value.profile_a, err.value.profile_b) == (
                exc.player,
                exc.profile_a,
                exc.profile_b,
            )
            return
        assert verify_resistance_identity(game, cmap) == ref

    def test_oracle_report_uses_the_feasible_enumeration(self):
        game, cmap = separable_2x2()
        report = harness.oracle_report(game, cmap, noise_levels=(0.1,))
        assert report.resistances == reference_resistance_list(game, cmap)

    def test_oracle_report_walks_the_pairs_once(self, resistance_game, monkeypatch):
        game, cmap = resistance_game
        resistances = stability.transition_resistances(game, cmap)
        try:
            identity = verify_resistance_identity(game, cmap)
        except SeparabilityError:
            identity = None
        both = stability.resistances_and_identity(game, cmap)
        assert both[:2] == (resistances, identity) and (both[2] is None) == (identity is not None)
        walks = []
        pairs = stability._feasible_pairs

        def counting(*args):
            walks.append(args)
            return pairs(*args)

        monkeypatch.setattr(stability, "_feasible_pairs", counting)
        report = harness.oracle_report(game, cmap, noise_levels=(0.1,))
        assert len(walks) == 1
        assert report.resistances == resistances
        assert report.identity_report == identity


def flagged_coverage_game(grid, robots):
    """Built-in coverage game with a flag under each robot, so foreign flags count."""
    world = cov.CoverageWorld.create(harness.oracle_scale_field(7, grid), robots, make_rng(0, 99))
    for i in range(robots):
        cov.lay_flag(world, i)
    return cov.as_game(world)


class TestPayoffTable:
    """`_space` fills player i's payoff column with n / m_i `utility_row` calls."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: flagged_coverage_game(4, 2),
            lambda: flagged_coverage_game(3, 3),
            lambda: random_non_separable()[0],
        ],
        ids=["coverage-4x4-2", "coverage-3x3-3", "table-3x4x2"],
    )
    def test_rows_equal_the_utilities_loop(self, make, monkeypatch):
        game = make()
        expected = np.array([game.utilities(a) for a in game.joint_actions()])
        calls = []
        row = GameDefinition.utility_row

        def counting(self, player, action):
            calls.append(player)
            return row(self, player, action)

        monkeypatch.setattr(GameDefinition, "utility_row", counting)
        assert np.array_equal(stability._space(game).payoffs, expected)
        n = game.joint_size
        assert collections.Counter(calls) == {
            i: n // game.n_actions(i) for i in range(game.n_players)
        }


def builtin_coverage_game(tmp_path, grid, robots):
    path = tmp_path / "coverage.yaml"
    path.write_text(f"builtin: coverage\ngrid_size: {grid}\nrobots: {robots}\n")
    return harness.load_game_spec(path)


class TestPayoffTableOncePerReport:
    """One `oracle_report` tabulates the payoffs once: the coverage game
    computes one all-cell row per robot and answers the rest from its memo."""

    @pytest.mark.parametrize("grid,robots", [(4, 2), (3, 3)])
    def test_one_row_per_robot(self, tmp_path, monkeypatch, grid, robots):
        game, cmap = builtin_coverage_game(tmp_path, grid, robots)
        calls = []
        row = cov.utility_row

        def counting(world, robot, values=None):
            calls.append(robot)
            return row(world, robot, values)

        monkeypatch.setattr(cov, "utility_row", counting)
        harness.oracle_report(game, cmap)
        assert collections.Counter(calls) == {i: 1 for i in range(robots)}


class TestWakeTable:
    """Scalar and list wakes are resolved once per player and broadcast."""

    @pytest.mark.parametrize("kind", ["scalar", "list", "callable", "cross-player"])
    def test_equals_the_per_state_loop(self, kind):
        rng = make_rng(18)
        game, _ = random_separable_game(rng, [4, 3, 2])
        if kind == "cross-player":
            wake = lambda i, action: 0.2 + 0.1 * action[(i + 1) % 3]  # noqa: E731
        else:
            wake = wake_model(kind, 3, rng)
        space = stability._space(game)
        loop = np.array([wake_probabilities(wake, 3, a) for a in space.states])
        table = stability._wake_table(wake, space)
        assert table.shape == loop.shape
        assert (table == loop).all()

    @pytest.fixture
    def coverage_4x4(self, tmp_path):
        return builtin_coverage_game(tmp_path, 4, 2)

    @pytest.mark.parametrize(
        "wake", [[0.5], [0.5, 0.5, 0.5], True], ids=["one-entry", "three-entries", "bool"]
    )
    def test_rejects_a_wake_that_is_not_one_probability_per_player(self, coverage_4x4, wake):
        game, cmap = coverage_4x4
        with pytest.raises(ValueError, match="^wake must be"):
            stochastically_stable_states(game, wake, cmap, (1e-2,))

    def test_a_numpy_scalar_wake_is_a_probability(self, coverage_4x4):
        game, cmap = coverage_4x4
        report = stochastically_stable_states(game, np.float32(0.5), cmap, (1e-2,))
        assert (report.masses == stochastically_stable_states(game, 0.5, cmap, (1e-2,)).masses).all()


class TestStateCap:
    """The caps are checked on the joint size and on each dense matrix's
    size, before any enumeration or kernel allocation."""

    def huge_game(self):
        return GameDefinition(action_counts=(10,) * 12, utility_fn=lambda i, a: 0.0)

    def test_build_chain_raises_at_once(self):
        game = self.huge_game()
        cmap = ConstrainedActionMap.complete(game)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1000000000000 states"):
            build_chain(game, 0.5, cmap, 0.1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "kind,limit,message",
        [
            ("tables", 35, "the enumerated kernel would have 36 states"),
            ("separable", 3, "a player's own-move kernel would have 4 states"),
        ],
    )
    def test_dense_matrix_above_the_limit_raises_before_any_kernel(
        self, monkeypatch, kind, limit, message
    ):
        rng = make_rng(45)
        if kind == "tables":
            game = GameDefinition.from_tables([rng.random((4, 3, 3)) for _ in range(3)])
        else:
            game, _ = random_separable_game(rng, [4, 3, 3])
        cmap = ConstrainedActionMap.complete(game)
        build_chain(game, 0.5, cmap, 0.1)

        def no_rows(*args):
            raise AssertionError("kernel rows built above the dense limit")

        monkeypatch.setattr(stability, "_marginal_rows", no_rows)
        monkeypatch.setattr(stability, "DENSE_SOLVE_LIMIT", limit)
        with pytest.raises(ValueError, match=f"^{message}, above DENSE_SOLVE_LIMIT = {limit}$"):
            build_chain(game, 0.5, cmap, 0.1)

    def test_min_resistance_tree_raises_at_once(self):
        game = self.huge_game()
        cmap = ConstrainedActionMap.complete(game)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1000000000000 states"):
            min_resistance_tree(game, cmap, (0,) * 12)
        assert time.perf_counter() - start < 1.0


class TestOracleTelemetry:
    def test_stable_set_report_times_and_residuals(self):
        game = own_value_game([0.0, 1.0], [0.3, 0.1, 0.2])
        report = stochastically_stable_states(game, 0.5, ConstrainedActionMap.complete(game))
        for values in (report.build_seconds, report.solve_seconds, report.residuals):
            assert len(values) == len(report.noise_levels)
            assert all(v >= 0 for v in values)
        assert max(report.residuals) <= 1e-12 * len(report.states)

    def test_oracle_text_prints_the_solver_lines(self):
        game, cmap = separable_2x2()
        report = harness.oracle_report(game, cmap, noise_levels=(0.1, 0.01))
        text = report.to_text()
        assert "states: 4" in text
        lines = [line for line in text.splitlines() if line.startswith("eps=")]
        assert len(lines) == 2
        assert lines[1].split()[-1] == f"{report.residuals[1]:.3e}"

    @pytest.mark.parametrize("n,slabs", [(40, 1), (700, 3)])
    def test_slab_residual_matches_the_one_product(self, n, slabs):
        # the last of several slabs is ragged; a random probability vector
        # keeps the residual of order one rather than round-off
        slab = stability._GTH_SLAB // n
        assert math.ceil(n / slab) == slabs and (slabs == 1 or n % slab)
        rng = make_rng(n)
        kernel = rng.random((n, n))
        kernel /= kernel.sum(axis=1, keepdims=True)
        pi = rng.dirichlet(np.ones(n))
        want = np.abs(pi @ kernel - pi).sum()
        assert want > 0.1
        assert stability._residual(kernel, pi) == pytest.approx(want, rel=1e-12, abs=0)


class TestChainCapture:
    """The benchmark captures chains by rebinding `stability.build_chain`."""

    def counting(self, monkeypatch):
        calls = []
        build = stability.build_chain

        def capture(*args, **kwargs):
            calls.append(args[3] if len(args) > 3 else kwargs["eps"])
            return build(*args, **kwargs)

        monkeypatch.setattr(stability, "build_chain", capture)
        return calls

    def test_stable_set_builds_one_chain_per_noise_level(self, monkeypatch):
        calls = self.counting(monkeypatch)
        game = own_value_game([0.0, 1.0])
        stochastically_stable_states(
            game, 0.5, ConstrainedActionMap.complete(game), (0.2, 0.1, 0.05)
        )
        assert calls == [0.2, 0.1, 0.05]

    def test_oracle_report_builds_one_chain_per_noise_level(self, monkeypatch):
        calls = self.counting(monkeypatch)
        game, cmap = separable_2x2()
        harness.oracle_report(game, cmap, noise_levels=(0.1, 0.01))
        assert calls == [0.1, 0.01]


IMPORT_PROBE = """
import json, sys
import potlearn, potlearn.cli
loaded = sorted(m for m in ("networkx", "scipy.sparse") if m in sys.modules)
from potlearn.dynamics import ConstrainedActionMap
from potlearn.games import GameDefinition
from potlearn.stability import min_resistance_tree
game = GameDefinition.from_tables([[2.0, 5.0]])
tree = min_resistance_tree(game, ConstrainedActionMap.complete(game), (1,))
print(json.dumps([loaded, tree.total_resistance]))
"""


def test_import_loads_neither_networkx_nor_scipy_sparse():
    """Only `min_resistance_tree` needs networkx, and no chain needs
    scipy.sparse; importing the package loads neither."""
    src = str(Path(stability.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0.0]
