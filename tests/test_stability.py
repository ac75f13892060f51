import collections
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn import harness, stability
from potlearn.dynamics import (
    ConstrainedActionMap,
    binary_logit_weights,
    resolve_wake_probability,
)
from potlearn.games import GameDefinition, random_separable_game
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
    scaled_transition_probability,
    stationary_distribution,
    stochastic_potential,
    stochastically_stable_states,
    temperature_from_noise,
    transition_probability,
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
    def test_all_asleep_is_product_of_stay_probabilities(self):
        game = own_value_game([1.0, 2.0], [0.5, 0.7])
        cmap = ConstrainedActionMap.complete(game)
        p = transition_probability(game, (0, 1), (0, 1), [0.3, 0.6], cmap, eps=0.1)
        assert p == pytest.approx(0.7 * 0.4, rel=1e-12)

    def test_single_deviator_equal_payoffs(self):
        game = own_value_game([1.0, 1.0], [0.0, 0.0])
        cmap = ConstrainedActionMap.complete(game)
        p = transition_probability(game, (0, 0), (1, 0), 0.5, cmap, eps=0.1)
        assert p == pytest.approx(0.5 * 0.5 * 0.5 * 0.5, rel=1e-12)  # wake/draw/accept/sleep

    def test_scaled_probability_converges_to_wake_draw_prefactor(self):
        # convergence rate is eps ** (payoff gap), so pin the gaps at 0.5
        rng = make_rng(30)
        game, _ = random_separable_game(rng, [2, 2], min_gap=0.5)
        cmap = ConstrainedActionMap.complete(game)
        wake = 0.4
        for source, target in itertools.permutations(list(game.joint_actions()), 2):
            deviators = [i for i in range(2) if source[i] != target[i]]
            limit = 1.0
            for i in range(2):
                limit *= wake / 2.0 if i in deviators else 1.0 - wake
            values = [
                scaled_transition_probability(game, source, target, wake, cmap, eps)
                for eps in (1e-2, 1e-4, 1e-6)
            ]
            errors = [abs(v - limit) / limit for v in values]
            assert errors[-1] <= 0.01
            assert errors[0] >= errors[1] >= errors[2] - 1e-12

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
        assert np.abs(chain.row_sums() - 1.0).max() <= 1e-10
        assert (np.asarray(chain.kernel) >= 0).all()

    def test_state_cap_enforced(self):
        rng = make_rng(32)
        game, _ = random_separable_game(rng, [4, 4])
        with pytest.raises(ValueError):
            build_chain(game, 0.5, ConstrainedActionMap.complete(game), 0.1, max_states=10)


class TestStationaryDistribution:
    def test_two_state_analytic_solution(self):
        chain = PerturbedChain(
            states=((0,), (1,)),
            index={(0,): 0, (1,): 1},
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
            index={(0,): 0, (1,): 1, (2,): 2},
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
            index={(0,): 0, (1,): 1},
            kernel=np.eye(2),
            noise=0.1,
        )
        with pytest.raises(StationaryConvergenceError):
            stationary_distribution(chain)


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
        rp = [resolve_wake_probability(wake, i, source) for i in range(n_players)]
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
                profile = list(source)
                for i, t in zip(awake, trial_vec):
                    profile[i] = t
                u_trial = utils[tuple(profile)]
                keeps = [
                    binary_logit_weights(u_source[i], u_trial[i], tau)[0] for i in awake
                ]
                for accept in range(1 << len(awake)):
                    p = p_draw
                    out = list(source)
                    for bit, i in enumerate(awake):
                        if accept >> bit & 1:
                            p *= 1.0 - keeps[bit]
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


def assert_kernels_match(kernel, ref):
    dense = kernel.toarray() if sp.issparse(kernel) else np.asarray(kernel)
    off = ~np.eye(len(ref), dtype=bool)
    np.testing.assert_allclose(dense[off], ref[off], rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.diag(dense), np.diag(ref), rtol=0, atol=1e-14)


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
        try:
            ref_pi = reference_gth(ref)
        except StationaryConvergenceError:
            with pytest.raises(StationaryConvergenceError):
                stability._gth_stationary(chain.kernel)
            return
        np.testing.assert_allclose(
            stability._gth_stationary(chain.kernel), ref_pi, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("chunk", [1, 50, 1 << 17])
    def test_sparse_path_and_chunking_match_the_reference(self, monkeypatch, chunk):
        rng = make_rng(40)
        game, _ = random_separable_game(rng, [4, 3, 3])
        cmap = ConstrainedActionMap.from_lists(
            [
                [(0, 1), (0, 1, 2), (1, 2, 3), (2, 3)],
                [(0, 1), (1, 2), (2, 0)],
                [(1, 2), (0, 2), (0, 1)],
            ]
        )
        wake = [0.2, 0.5, 0.9]
        monkeypatch.setattr(stability, "_CHUNK_ENTRIES", chunk)
        ref = reference_build_chain(game, wake, cmap, 1e-2)
        assert_kernels_match(build_chain(game, wake, cmap, 1e-2).kernel, ref)
        monkeypatch.setattr(stability, "DENSE_SOLVE_LIMIT", 5)
        chain = build_chain(game, wake, cmap, 1e-2)
        assert sp.isspmatrix_csr(chain.kernel)
        assert_kernels_match(chain.kernel, ref)

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
            index={(k,): k for k in range(n)},
            kernel=kernel,
            noise=0.1,
        )
        with pytest.raises(StationaryConvergenceError):
            stationary_distribution(chain)


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


class TestStateCap:
    """The cap is checked on the joint size, before any enumeration."""

    def huge_game(self):
        return GameDefinition(
            action_sets=tuple(tuple(str(j) for j in range(10)) for _ in range(12)),
            utility_fn=lambda i, a: 0.0,
        )

    def test_build_chain_raises_at_once(self):
        game = self.huge_game()
        cmap = ConstrainedActionMap.complete(game)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1000000000000 states"):
            build_chain(game, 0.5, cmap, 0.1)
        assert time.perf_counter() - start < 1.0

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
