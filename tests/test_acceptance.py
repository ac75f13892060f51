"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to stream
them) and then asserts.  Tolerances and pass bars are fixed here, not
calibrated at runtime; every run is seeded and bit-reproducible.
"""
import itertools

import numpy as np

from potlearn import coverage as cov
from potlearn.dynamics import (
    ConstrainedActionMap,
    LoglinearState,
    blll_step,
    psblll_step,
)
from potlearn.games import GameDefinition, random_separable_game
from potlearn.harness import ExperimentConfig, run_experiment
from potlearn.mixtures import (
    ObservationLog,
    aic_model_search,
    em_iterate,
    initial_estimate,
)
from potlearn.qlearning import (
    QState,
    greedy_update,
    payoff_trace_after,
    q_value_after,
    soql_update,
    strategy_after,
)
from potlearn.rng import make_rng
from potlearn.stability import (
    build_chain,
    resistance,
    stochastically_stable_states,
    verify_resistance_identity,
)
from potlearn.worthfield import WorthField, GaussianComponent


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def random_symmetric_constraints(rng, n_actions):
    """Connected, symmetric per-player reachability maps with self-loops."""
    per_player = []
    for k in n_actions:
        neighbors = {a: {a} for a in range(k)}
        for a in range(k):  # ring keeps the graph connected
            neighbors[a].add((a + 1) % k)
            neighbors[(a + 1) % k].add(a)
        for a in range(k):
            for b in range(a + 2, k):
                if rng.random() < 0.4:
                    neighbors[a].add(b)
                    neighbors[b].add(a)
        per_player.append([tuple(sorted(neighbors[a])) for a in range(k)])
    return ConstrainedActionMap.from_lists(per_player)


FIG5_COMPONENTS = (
    {"weight": 0.4, "mean": [8.0, 8.0], "cov": [[2.0, 0.0], [0.0, 2.0]]},
    {"weight": 0.35, "mean": [30.0, 12.0], "cov": [[1.8, 0.0], [0.0, 1.8]]},
    {"weight": 0.25, "mean": [15.0, 32.0], "cov": [[2.2, 0.0], [0.0, 2.2]]},
)

FIG7_COMPONENTS = (
    {"weight": 0.4, "mean": [4.0, 4.0], "cov": [[1.5, 0.0], [0.0, 1.5]]},
    {"weight": 0.35, "mean": [15.0, 6.0], "cov": [[1.3, 0.0], [0.0, 1.3]]},
    {"weight": 0.25, "mean": [8.0, 16.0], "cov": [[1.6, 0.0], [0.0, 1.6]]},
)


def fig5_config(algorithm):
    return ExperimentConfig(
        algorithm=algorithm,
        grid_size=40,
        robots=5,
        iterations=4000,
        temperature=0.01,
        move_cost=3e-5,
        cover_radius=1.5,
        explore_wake=1.0,
        climb_wake=0.5,
        settle_wake=0.1,
        scenario_components=FIG5_COMPONENTS,
        steady_window=500,
        steady_tol=1e-6,
    )


def fig7_config(algorithm):
    return ExperimentConfig(
        algorithm=algorithm,
        grid_size=20,
        robots=5,
        iterations=8000,
        aggregation_step=0.97,
        selection_step=0.5,
        perturbation_size=0.01,
        commitment_threshold=0.9999,
        scenario_components=FIG7_COMPONENTS,
        steady_window=500,
        steady_tol=1e-6,
    )


def test_criterion_1_resistance_identity_on_separable_games():
    worst = 0.0
    pairs = 0
    for s in range(50):
        rng = make_rng(500 + s)
        n_players = int(rng.integers(2, 4))
        shape = [int(rng.integers(2, 5)) for _ in range(n_players)]
        game, _ = random_separable_game(rng, shape)
        cmap = random_symmetric_constraints(rng, shape)
        result = verify_resistance_identity(game, cmap, tol=1e-12)
        worst = max(worst, result.max_residual)
        pairs += result.pairs_checked
        if result.violations:
            break
    ok = worst <= 1e-12
    report(
        1,
        "forward-minus-backward resistance equals the potential drop",
        ok,
        f"50 games, {pairs} transitions, max residual {worst:.2e}",
    )


def test_criterion_2_stable_states_are_potential_maximizers():
    worst_mass = 1.0
    all_monotone = True
    for s in range(20):
        rng = make_rng(600 + s)
        shape = [int(rng.integers(2, 4)), int(rng.integers(2, 4))]
        game, phi = random_separable_game(rng, shape, min_gap=0.75)
        result = stochastically_stable_states(
            game, 0.5, ConstrainedActionMap.complete(game), (1e-1, 1e-2, 1e-3)
        )
        best = max(phi, key=phi.get)
        column = result.masses[:, result.states.index(best)]
        worst_mass = min(worst_mass, column[-1])
        all_monotone &= bool(column[0] < column[1] < column[2])
    ok = worst_mass >= 0.9 and all_monotone
    report(
        2,
        "stationary mass concentrates on the unique potential maximizer",
        ok,
        f"20 games, min final mass {worst_mass:.4f}, monotone={all_monotone}",
    )


def test_criterion_3_noise_scaling_of_transition_probabilities():
    game, _ = random_separable_game(make_rng(700), [2, 2], min_gap=0.5)
    cmap = ConstrainedActionMap.complete(game)
    kernels = {eps: build_chain(game, 0.5, cmap, eps).kernel for eps in (1e-6, 1e-8)}
    worst = 0.0
    for (j, a), (k, b) in itertools.permutations(enumerate(game.joint_actions()), 2):
        r = resistance(game, a, b).resistance
        fine, finest = (kernel[j, k] / eps**r for eps, kernel in kernels.items())
        worst = max(worst, abs(fine - finest) / finest)
    ok = worst <= 0.05
    report(
        3,
        "kernel entry over noise**resistance is stable across small noise",
        ok,
        f"max relative drift {worst:.2e} between 1e-6 and 1e-8",
    )


def test_criterion_4_closed_form_iterates_match_recursions():
    rng = make_rng(800)
    worst_pq = 0.0
    for mu in (0.1, 0.5, 0.9, 0.97):
        for _ in range(100):
            p0, q0 = rng.uniform(size=2)
            payoff = rng.uniform(1.0, 2.0)
            state = QState.initial([1])
            state.payoff_trace[0][0] = p0
            state.q_values[0][0] = q0
            q1 = None
            for m in range(1, 101):
                soql_update(state, 0, 0, payoff, mu)
                if m == 1:
                    q1 = float(state.q_values[0][0])
                rec_p = float(state.payoff_trace[0][0])
                rec_q = float(state.q_values[0][0])
                err_p = abs(payoff_trace_after(p0, payoff, mu, m) - rec_p) / max(
                    1.0, abs(rec_p)
                )
                err_q = abs(q_value_after(q0, q1, payoff, mu, m) - rec_q) / max(
                    1.0, abs(rec_q)
                )
                worst_pq = max(worst_pq, err_p, err_q)
    worst_x = 0.0
    for theta in (0.1, 0.5):
        for _ in range(100):
            x0 = rng.dirichlet(np.ones(4))
            state = QState.initial([4])
            state.strategies[0][:] = x0
            state.q_values[0][:] = [0.0, 1.0, 0.5, 0.25]
            for m in range(1, 101):
                greedy_update(state, 0, theta)
                delta = np.abs(
                    state.strategies[0] - strategy_after(x0, 1, theta, m)
                ).max()
                worst_x = max(worst_x, delta)
    ok = worst_pq <= 1e-10 and worst_x <= 1e-12
    report(
        4,
        "closed-form score and strategy iterates match literal recursions",
        ok,
        f"score error {worst_pq:.2e}, strategy error {worst_x:.2e}",
    )


def test_criterion_5_coverage_game_has_an_exact_potential():
    field = WorthField(
        [GaussianComponent(1.0, [2.0, 2.0], 1.8 * np.eye(2))], 4
    )
    world = cov.CoverageWorld.create(field, 2, make_rng(900))
    for robot, cell in ((0, (1, 1)), (0, (0, 3)), (1, (3, 2))):
        cov.lay_flag(world, robot, cell)
    rng = make_rng(901)
    base = list(world.positions)
    worst = 0.0
    for _ in range(200):
        i = int(rng.integers(2))
        moves = cov.constrained_moves(world, base[i])
        new = moves[int(rng.integers(len(moves)))]
        joint = list(base)
        joint[i] = new
        d_phi = cov.potential(world, joint, base) - cov.potential(world, base, base)
        d_u = cov.utility(world, i, new, base[i]) - cov.utility(world, i, base[i], base[i])
        worst = max(worst, abs(d_phi - d_u))
    ok = worst <= 1e-9
    report(
        5,
        "unilateral deviations change the potential by the deviator's payoff",
        ok,
        f"200 deviations, max residual {worst:.2e}",
    )


def test_criterion_6_em_recovers_separated_mixtures():
    hits = 0
    for s in range(20):
        rng = make_rng(1000 + s)
        sigma = 2.0
        while True:
            means = rng.uniform(6.0, 34.0, size=(2, 2))
            if np.linalg.norm(means[0] - means[1]) >= 6 * sigma:
                break
        log = ObservationLog()
        for m in means:
            pts = np.clip(np.floor(rng.normal(m, sigma, size=(1000, 2))) + 0.5, 0.5, 39.5)
            for p in pts:
                log.append(p)
        est = em_iterate(log, initial_estimate(log, 2), iters=200)
        cost = min(
            np.abs(est.means - means).max(),
            np.abs(est.means[::-1] - means).max(),
        )
        hits += cost <= 0.5
    ok = hits >= 18
    report(6, "two-component mixtures recovered within half a cell", ok, f"{hits}/20 seeds")


def test_criterion_7_component_count_model_selection():
    hits = 0
    results = []
    for s in range(20):
        true_m = (s % 5) + 1
        rng = make_rng(s)
        while True:
            means = rng.uniform(6.0, 34.0, size=(true_m, 2))
            spread = all(
                np.linalg.norm(means[i] - means[j]) >= 10
                for i in range(true_m)
                for j in range(i + 1, true_m)
            )
            if spread:
                break
        log = ObservationLog()
        n_per = 2000 // true_m
        for m in means:
            pts = np.clip(np.floor(rng.normal(m, 1.8, size=(n_per, 2))) + 0.5, 0.5, 39.5)
            for p in pts:
                log.append(p)
        est = aic_model_search(log, make_rng(1000 + s), rounds=14)
        results.append((true_m, est.n_components))
        hits += est.n_components == true_m
    ok = hits >= 16
    report(7, "split/merge search finds the true component count", ok, f"{hits}/20: {results}")


def test_criterion_8_partial_synchronous_learner_beats_single_updater():
    finals_p, finals_b, r90_p, r90_b = [], [], [], []

    def reach90(record):
        bar = 0.9 * record.final_covered()
        for n, c in zip(record.n, record.covered):
            if c >= bar:
                return n
        return record.n[-1]

    for seed in range(10):
        rec_p = run_experiment(fig5_config("psblll"), seed)
        rec_b = run_experiment(fig5_config("blll"), seed)
        finals_p.append(rec_p.final_covered())
        finals_b.append(rec_b.final_covered())
        r90_p.append(reach90(rec_p))
        r90_b.append(reach90(rec_b))
    mean_p, mean_b = float(np.mean(finals_p)), float(np.mean(finals_b))
    speed_p, speed_b = float(np.mean(r90_p)), float(np.mean(r90_b))
    ok = mean_p >= mean_b and speed_p < speed_b
    report(
        8,
        "partial-synchronous learner covers more worth and reaches its plateau sooner",
        ok,
        f"final {mean_p:.4f} vs {mean_b:.4f}; to-90% {speed_p:.0f} vs {speed_b:.0f} iterations",
    )


def test_criterion_9_second_order_learner_beats_first_order():
    wins = 0
    detail = []
    for seed in range(5):
        rec_s = run_experiment(fig7_config("soql"), seed)
        rec_q = run_experiment(fig7_config("ql"), seed)
        wins += rec_s.final_covered() >= rec_q.final_covered()
        detail.append((round(rec_s.final_covered(), 3), round(rec_q.final_covered(), 3)))
    ok = wins >= 4
    report(9, "second-order learner ends at least as covered as first-order", ok, f"{wins}/5: {detail}")


def test_criterion_10_runs_are_bit_reproducible():
    outputs = []
    for _ in range(2):
        cfg = fig5_config("psblll")
        cfg.iterations = 600
        a = run_experiment(cfg, 0).to_csv()
        cfg_q = fig7_config("soql")
        cfg_q.iterations = 600
        b = run_experiment(cfg_q, 0).to_csv()
        cfg_e = ExperimentConfig(
            algorithm="psblll",
            environment="estimated-field",
            grid_size=12,
            robots=2,
            iterations=120,
            scenario_seed=5,
            model_check_period=40,
        )
        c = run_experiment(cfg_e, 0).to_csv()
        outputs.append((a, b, c))
    ok = outputs[0] == outputs[1]
    report(10, "identical seeds produce bit-identical CSV records", ok)


def test_criterion_11_forced_single_wake_matches_single_updater_kernel():
    table = np.array([[1.0, 0.0], [0.0, 0.6]])
    game = GameDefinition.identical_interest(table)
    cmap = ConstrainedActionMap.complete(game)
    tau = 0.5
    start = (0, 1)
    n = 100_000
    counts_b: dict = {}
    state_b = LoglinearState(start, tau, make_rng(1200, 1))
    for _ in range(n):
        state_b.action = start
        blll_step(game, state_b, cmap)
        counts_b[state_b.action] = counts_b.get(state_b.action, 0) + 1
    counts_p: dict = {}
    state_p = LoglinearState(start, tau, make_rng(1200, 2))
    for _ in range(n):
        state_p.action = start
        i = int(state_p.rng.integers(2))
        psblll_step(game, state_p, cmap, wake=None, forced_awake=[i])
        counts_p[state_p.action] = counts_p.get(state_p.action, 0) + 1
    keys = set(counts_b) | set(counts_p)
    tv = 0.5 * sum(abs(counts_b.get(k, 0) / n - counts_p.get(k, 0) / n) for k in keys)
    ok = tv <= 0.02
    report(
        11,
        "forced single-wake kernel matches the single-updater kernel",
        ok,
        f"total variation {tv:.4f} over {n} draws",
    )
