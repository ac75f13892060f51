import bisect
import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn import qlearning
from potlearn.dynamics import ConstrainedActionMap
from potlearn.games import (
    TIE_REL_TOL,
    GameDefinition,
    check_simplex,
    draw_index,
    logit_map,
    tie_cut,
)
from potlearn.qlearning import (
    QState,
    SOQLParams,
    adaptive_step,
    best_response_indices,
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

    def test_returns_the_target_it_stepped_toward(self):
        rng = make_rng(44)
        for _ in range(50):
            s = QState.initial([3])
            s.q_values[0][:] = [1.0, 1.0, 0.0]
            before = s.strategies[0].copy()
            target = greedy_update(s, 0, 0.3, rng)
            assert target in (0, 1)
            assert (s.strategies[0] == before * (1.0 - 0.3) + 0.3 * np.eye(3)[target]).all()

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
        out = perturb_strategy(x, params)
        assert out is x or np.array_equal(out, x)

    def test_vertex_blend_values(self):
        params = SOQLParams(perturbation_size=0.01, commitment_threshold=0.5)
        out = perturb_strategy(np.array([1.0, 0.0]), params)
        assert out == pytest.approx([0.995, 0.005], abs=1e-15)

    def test_uniform_strategy_is_blend_fixed_point(self):
        params = SOQLParams(commitment_threshold=0.2, perturbation_size=0.3)
        x = np.full(4, 0.25)
        out = perturb_strategy(x, params)
        assert out == pytest.approx(x, abs=1e-15)

    @given(st_.lists(st_.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda v: sum(v) > 0))
    @settings(max_examples=100, deadline=None)
    def test_simplex_preserved(self, raw):
        x = np.asarray(raw)
        x = x / x.sum()
        params = SOQLParams()
        out = perturb_strategy(x, params)
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


def same_float(a, b):
    """== that also tells 0.0 from -0.0 and counts two NaNs as equal."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf, math.nan]


class TestNumpySum:
    """`_numpy_sum` equals `np.sum` bit for bit on up to 128 floats."""

    @pytest.mark.parametrize("n", [*range(1, 18), 31, 64, 127, 128])
    def test_equals_np_sum(self, n):
        source = make_rng(n)
        rows = [
            np.full(n, -0.0),
            np.full(n, 1e308),
            np.full(n, 5e-324),
            np.arange(n, dtype=float) - n / 2,
        ]
        for _ in range(400):
            kind = source.integers(4)
            if kind == 0:
                row = source.random(n)
            elif kind == 1:
                row = source.normal(size=n) * 10.0 ** source.integers(-300, 300, size=n)
            elif kind == 2:
                row = source.choice(SPECIAL, size=n)
            else:
                special = source.choice(SPECIAL, size=n)
                row = np.where(source.random(n) < 0.5, special, source.random(n))
            rows.append(row)
        with np.errstate(all="ignore"):
            for row in rows:
                assert same_float(qlearning._numpy_sum(row.tolist()), float(np.sum(row))), row


def ref_renormalized_draw(weights, rng):
    """The allowed-cell draw as written before: numpy sum and division, then
    `draw_index`, whose short-row path is written out."""
    total = weights.sum()
    if total <= 0.0:
        return int(rng.integers(len(weights)))
    p = weights / total
    if len(p) > 16:
        return draw_index(p, rng)
    cdf = list(itertools.accumulate(p.tolist()))
    if not (0.0 < cdf[-1] < math.inf and p.min() >= 0.0):
        raise ValueError("probabilities must be finite, non-negative and not all zero")
    return bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())


def outcome(draw, weights, rng):
    """The index a draw returns, or the text of the ValueError it raises."""
    try:
        with np.errstate(all="ignore"):
            return draw(weights, rng)
    except ValueError as exc:
        return str(exc)


class TestRenormalizedDraw:
    """`_renormalized_draw` divides and draws in Python floats and gives the
    index and generator state of the numpy path, short rows and long."""

    @pytest.mark.parametrize(
        "n,trials", [(n, 2000) for n in range(1, 17)] + [(40, 300), (128, 300), (129, 300)]
    )
    def test_equals_the_numpy_path(self, n, trials):
        source = make_rng(100 + n)
        ours, theirs = make_rng(n), make_rng(n)
        for trial in range(trials):
            kind = trial % 5
            if kind == 0:
                w = source.random(n)
            elif kind == 1:  # Boltzmann weights: some overflow, many underflow
                with np.errstate(over="ignore"):
                    w = np.exp(source.normal(scale=300.0, size=n) - 400.0)
            elif kind == 2:
                w = source.dirichlet(np.full(n, 0.2)) * 10.0 ** float(source.integers(-320, 300))
            elif kind == 3:
                w = np.where(source.random(n) < 0.5, 0.0, source.random(n))
            else:
                w = np.zeros(n)
            assert outcome(qlearning._renormalized_draw, w, ours) == outcome(
                ref_renormalized_draw, w, theirs
            )
            if trial % 50 == 49:  # the streams continue, so a skew would persist
                assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)

    def test_zero_mass_falls_back_to_a_uniform_draw(self):
        for w in (np.zeros(5), np.array([0.0, -0.0, 0.0])):
            ours, theirs = make_rng(1), make_rng(1)
            assert qlearning._renormalized_draw(w, ours) == ref_renormalized_draw(w, theirs)
            assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)

    @pytest.mark.parametrize("bad", [math.nan, -0.25, math.inf])
    @pytest.mark.parametrize("n", [2, 9, 16, 40])
    def test_bad_rows_raise_the_same_error(self, bad, n):
        w = np.full(n, 0.5)
        w[n // 2] = bad
        expected = outcome(ref_renormalized_draw, w, make_rng(0))
        assert isinstance(expected, str)
        assert outcome(qlearning._renormalized_draw, w, make_rng(0)) == expected


def ref_boltzmann_draw(q_row, allowed, temperature, rng):
    """The first-order draw as written before: a logit over the whole Q row,
    restricted to the allowed set and drawn with `Generator.choice`."""
    idx = np.asarray(allowed)
    weights = logit_map(q_row, temperature)[idx]
    total = weights.sum()
    if total <= 0.0:
        return int(idx[rng.integers(len(idx))])
    return int(idx[rng.choice(len(idx), p=weights / total)])


class TestAllowedSetBoltzmannDraw:
    def test_draws_match_the_whole_row_logit(self):
        field = WorthField([GaussianComponent(1.0, [3.0, 3.0], 4.0 * np.eye(2))], 6)
        world = cov.CoverageWorld.create(field, 3, make_rng(0))
        game, moves = cov.as_game(world), cov.moves_constraint_map(world)
        source = make_rng(1)
        for trial in range(300):
            params = SOQLParams(temperature=float(source.choice([1e-3, 0.1, 10.0])))
            state = QState.initial([36] * 3, [int(a) for a in source.integers(36, size=3)])
            for q in state.q_values:
                q[:] = source.normal(scale=float(source.choice([1e-4, 1.0, 100.0])), size=36)
            rows = [q.copy() for q in state.q_values]
            rng, ref_rng = make_rng(trial), make_rng(trial)
            allowed = [moves.allowed(i, state.actions[i]) for i in range(3)]
            expected = tuple(
                ref_boltzmann_draw(rows[i], allowed[i], params.temperature, ref_rng)
                for i in range(3)
            )
            _, realized = ql_episode_step(game, state, params, moves, rng)
            assert realized == expected
            assert rng.random() == ref_rng.random()


def ref_soql_episode_step(game, state, params, constraints, rng):
    """The second-order round as written before: every draw reads a perturbed
    copy of the whole strategy and the token test reads the best-response set."""
    zone = commitment_zone_active(state, params)
    token_available = True
    draws, draw_strategies = [], []
    for i in range(game.n_players):
        if zone and token_available:
            x_draw = perturb_strategy(state.strategies[i], params)
        else:
            x_draw = state.strategies[i]
        a = constrained_draw(x_draw, constraints.allowed(i, state.actions[i]), rng)
        if zone and a not in best_response_indices(state.q_values[i]):
            token_available = False
        draws.append(a)
        draw_strategies.append(x_draw)
    realized = tuple(draws)
    state.payoffs = game.utilities(realized)
    for i in range(game.n_players):
        step = adaptive_step(draw_strategies[i], realized[i]) if zone else params.aggregation_step
        if step > 0.0:
            soql_update(state, i, realized[i], state.payoffs[i], step)
        greedy_update(state, i, params.selection_step, rng)
    state.n += 1
    state.actions = list(realized)
    return state, realized


class TestAllowedCellSecondOrderRound:
    """`soql_episode_step` reads only the allowed cells of each strategy; its
    rounds equal the whole-strategy reference in every bit."""

    def random_state(self, source, moves, n_players, n_actions, zone):
        actions = [int(a) for a in source.integers(n_actions, size=n_players)]
        state = QState.initial([n_actions] * n_players, actions)
        for i in range(n_players):
            q = source.normal(scale=float(source.choice([1e-3, 1.0, 1e3])), size=n_actions)
            top = float(q.max())
            # entries at, just inside and just outside argmax_ties' tolerance;
            # the committed cell, one of the allowed ones, is among them
            target = int(source.choice(moves.allowed(i, actions[i])))
            near = [target, *source.choice(n_actions, size=n_actions // 2, replace=False)]
            for j, rel in zip(near, source.choice([0.0, 0.5, 1.0, 1.001, 2.0], size=len(near))):
                q[j] = top - rel * TIE_REL_TOL * max(1.0, abs(top))
            state.q_values[i][:] = q
            state.payoff_trace[i][:] = source.normal(size=n_actions)
            if zone or source.random() < 0.5:
                weight = float(source.choice([1.0 - 1e-5, 1.0 - 1e-7, 1.0]))
                x = source.dirichlet(np.ones(n_actions)) * (1.0 - weight)
                x[target] += weight
            else:
                x = source.dirichlet(np.full(n_actions, 0.3))
            state.strategies[i][:] = x
        return state

    def test_rounds_equal_the_whole_strategy_reference(self):
        field = WorthField([GaussianComponent(1.0, [3.0, 3.0], 4.0 * np.eye(2))], 6)
        world = cov.CoverageWorld.create(field, 3, make_rng(0))
        game, moves = cov.as_game(world), cov.moves_constraint_map(world)
        source = make_rng(2)
        params = SOQLParams(perturbation_size=0.3)
        seen = {"zone": 0, "token_spent": 0, "no_zone": 0}
        for trial in range(400):
            zone = trial % 4 != 0
            state = self.random_state(source, moves, 3, 36, zone)
            ref = copy.deepcopy(state)
            in_zone = commitment_zone_active(state, params)
            rng, ref_rng = make_rng(trial), make_rng(trial)
            for _ in range(3):
                _, realized = soql_episode_step(game, state, params, moves, rng)
                _, expected = ref_soql_episode_step(game, ref, params, moves, ref_rng)
                assert realized == expected
                assert state.payoffs == ref.payoffs
                assert state.actions == ref.actions and state.n == ref.n
                for name in ("payoff_trace", "q_values", "strategies"):
                    for a, b in zip(getattr(state, name), getattr(ref, name)):
                        assert a.tolist() == b.tolist()
                assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
            seen["zone" if in_zone else "no_zone"] += 1
            if in_zone and any(
                a not in best_response_indices(q) for a, q in zip(expected, ref.q_values)
            ):
                seen["token_spent"] += 1
        assert min(seen.values()) > 20, seen

    def test_maxima_equal_the_strategy_maxima_after_every_round(self):
        field = WorthField([GaussianComponent(1.0, [3.0, 3.0], 4.0 * np.eye(2))], 6)
        world = cov.CoverageWorld.create(field, 3, make_rng(0))
        game, moves = cov.as_game(world), cov.moves_constraint_map(world)
        source = make_rng(4)
        seen = {"zone": 0, "no_zone": 0, "token_spent": 0, "tied_target": 0, "written": 0}
        for trial in range(200):
            if trial % 10 == 0:
                state = QState.initial([36] * 3, [int(a) for a in source.integers(36, size=3)])
            else:
                state = self.random_state(source, moves, 3, 36, zone=trial % 4 != 0)
            # at 0.5 the scaled maximum top * (1 - s) is exact, at the others it rounds
            step = [0.5, 0.3, 0.1, 0.77, 0.123][trial % 5]
            params = SOQLParams(selection_step=step, perturbation_size=0.3)
            rng = make_rng(trial)
            for r in range(4):
                if r == 2 and trial % 3 == 0:
                    i = int(source.integers(3))
                    state.strategies[i][:] = source.dirichlet(np.ones(36))
                    seen["written"] += 1
                zone = commitment_zone_active(state, params)
                ties = [len(best_response_indices(q)) > 1 for q in state.q_values]
                q_before = [q.copy() for q in state.q_values]
                _, realized = soql_episode_step(game, state, params, moves, rng)
                assert state.maxima == [float(x.max()) for x in state.strategies]
                seen["zone" if zone else "no_zone"] += 1
                seen["tied_target"] += any(ties)
                seen["token_spent"] += zone and any(
                    a not in best_response_indices(q) for a, q in zip(realized, q_before)
                )
        assert min(seen.values()) > 20, seen

    def test_first_order_rounds_leave_the_initial_maxima(self):
        field = WorthField([GaussianComponent(1.0, [3.0, 3.0], 4.0 * np.eye(2))], 6)
        world = cov.CoverageWorld.create(field, 3, make_rng(0))
        game, moves = cov.as_game(world), cov.moves_constraint_map(world)
        state = QState.initial([36] * 3, [0, 7, 35])
        assert state.maxima == [float(x.max()) for x in state.strategies] == [1 / 36] * 3
        rng = make_rng(5)
        for _ in range(50):
            ql_episode_step(game, state, SOQLParams(), moves, rng)
            assert state.maxima == [float(x.max()) for x in state.strategies] == [1 / 36] * 3

    def test_the_token_test_is_membership_of_the_tie_set(self):
        source = make_rng(3)
        for _ in range(500):
            q = source.normal(scale=float(source.choice([1e-3, 1.0, 1e3])), size=9)
            top = float(q.max())
            q[source.integers(9)] = top - float(source.choice([0.5, 1.0, 1.5])) * TIE_REL_TOL * max(1.0, abs(top))
            ties = best_response_indices(q)
            for a in range(9):
                assert (q[a] >= tie_cut(q.max())) == (a in ties)


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
        cov.commit_positions(world, [TestCoveragePayoffConvention.START[k] for k in order])
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
