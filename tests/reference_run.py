"""The log-linear runner written out plainly, to check its shortcuts end to end.

`reference_run` repeats `harness._run_loglinear` step for step, in the same
draw order and with the same step kernels, but keeps nothing between calls:

- the game has no memo: each payoff is `ref_utility` and each payoff row
  `ref_all_cell_utilities` of `test_coverage`, read afresh on every call;
- each robot's sensing and wake probability are recomputed every step;
- the worthwhile threshold is `np.percentile` over the sensed worths in the
  order they were sensed;
- every estimate raster is built afresh, after every fit and model check;
- each model check plays `mixtures.count_proposal` with a fresh `AICState`,
  as `unmemoised_model_search` in `test_mixtures` does;
- the covered worth is `ref_total`, the estimated-mode potential
  `ref_potential`, and the steady-state test rescans the whole window.

Its `RunRecord` must equal `run_experiment`'s byte for byte.
"""
from __future__ import annotations

import numpy as np

from potlearn import coverage as cov
from potlearn import mixtures as mix
from potlearn.dynamics import LoglinearState, blll_step, lll_step, psblll_step
from potlearn.games import GameDefinition
from potlearn.harness import (
    SENSE_FLOOR,
    ExperimentConfig,
    RunRecord,
    _estimate_snapshot,
    steady_state,
)
from potlearn.rng import make_rng

from test_coverage import ref_all_cell_utilities, ref_potential, ref_total, ref_utility


def reference_game(world: cov.CoverageWorld, rasters: list) -> GameDefinition:
    """`coverage.as_game` without its row and payoff memos."""
    L = world.grid_size

    def payoff(i, joint):
        return ref_utility(world, i, divmod(joint[i], L), world.positions[i], rasters[i], False)

    def row(i, joint):
        return ref_all_cell_utilities(world, i, rasters[i]).ravel()

    return GameDefinition((L * L,) * world.n_robots, utility_fn=payoff, row_fn=row)


def reference_run(config: ExperimentConfig, seed: int) -> RunRecord:
    """One seeded run of a log-linear learner, as `run_experiment` makes it."""
    estimated = config.environment == "estimated-field"
    rng = make_rng(seed, 0)
    field_model = config.scenario()
    world = cov.CoverageWorld.create(
        field_model,
        config.robots,
        rng,
        cover_radius=config.cover_radius,
        move_cost=config.move_cost,
    )
    n_robots, L = config.robots, config.grid_size
    columns = ["awake"] + (["potential_est"] if estimated else [])
    columns += [f"flags{i}" for i in range(n_robots)]
    record = RunRecord(
        algorithm=config.algorithm,
        environment=config.environment,
        seed=seed,
        grid_size=L,
        n=[],
        covered=[],
        potential=[],
        positions=[],
        diagnostics={key: [] for key in columns},
        field_total_mass=field_model.total_mass(),
    )
    tol = config.steady_tol * field_model.total_mass()
    policy = config.revision_policy()
    estimates = [None] * n_robots
    rasters = [None] * n_robots
    logs = [mix.ObservationLog() for _ in range(n_robots)]
    history = [[] for _ in range(n_robots)]  # sensed worths, in the order sensed
    adoptions = [0] * n_robots

    def observe(i):
        x, y = world.positions[i]
        f = float(world.worth_values()[x, y])
        multiplicity = 1
        if history[i]:
            threshold = float(np.percentile(np.array(history[i]), config.worth_percentile))
            if threshold > 0:
                multiplicity = mix.worth_weighted_multiplicity(f, threshold, config.repeat_factor)
        logs[i].append((x + 0.5, y + 0.5), multiplicity)

    def set_estimate(i, estimate):
        estimates[i] = estimate
        rasters[i] = estimate.density(field_model.centroids()).reshape(L, L)

    for i in range(n_robots):
        cov.lay_flag(world, i)
        if estimated:
            observe(i)
            start = mix.initial_estimate(logs[i], 1)
            set_estimate(i, mix.em_iterate(logs[i], start, config.em_iters))
    max_f = [0.0] * n_robots
    max_g = [0.0] * n_robots
    game = reference_game(world, rasters)
    moves = cov.moves_constraint_map(world)
    state = LoglinearState(
        tuple(cov.cell_index(world, p) for p in world.positions), config.temperature, rng
    )

    for n in range(1, config.iterations + 1):
        if estimated and config.model_check_period and n % config.model_check_period == 0:
            for i in range(n_robots):
                fresh = mix.AICState(tau=config.temperature)
                try:
                    estimate = mix.count_proposal(
                        estimates[i], logs[i], fresh, rng, config.em_iters
                    )
                except (ValueError, np.linalg.LinAlgError) as exc:
                    record.failed_proposals[type(exc).__name__] += 1
                    estimate = estimates[i]
                set_estimate(i, estimate)
                record.estimates.append(_estimate_snapshot(n, i, estimates[i]))

        wake = []
        if estimated or config.algorithm == "psblll":
            for i in range(n_robots):
                f, g = cov.sense(world, i)
                if estimated:
                    history[i].append(f)
                max_f[i] = max(max_f[i], f)
                max_g[i] = max(max_g[i], g)
                signal = min(f / max(max_f[i], SENSE_FLOOR), 1.0)
                gradient = min(g / max(max_g[i], SENSE_FLOOR), 1.0)
                wake.append(policy.probability(signal, gradient))
        if config.algorithm == "psblll":
            psblll_step(game, state, moves, wake)
        elif config.algorithm == "blll":
            blll_step(game, state, moves)
        else:
            lll_step(game, state)

        new_positions = [cov.index_cell(world, a) for a in state.action]
        step_potential = float(sum(state.payoffs))
        diagnostics = {"awake": float(len(state.awake))}
        if estimated:
            phi = ref_potential(world, new_positions, world.positions, None, False)
            diagnostics["potential_est"] = step_potential
        else:
            phi = step_potential
        cov.commit_positions(world, new_positions)
        for i in range(n_robots):
            cov.lay_flag(world, i)
            if estimated and i in state.adopted:
                observe(i)
                adoptions[i] += 1
                if adoptions[i] % config.em_period == 0:
                    set_estimate(i, mix.em_iterate(logs[i], estimates[i], config.em_iters))

        record.n.append(n)
        record.covered.append(ref_total(world))
        record.potential.append(phi)
        record.positions.append(tuple(tuple(p) for p in world.positions))
        for key, value in diagnostics.items():
            record.diagnostics[key].append(value)
        for i, flags in enumerate(world.flags):
            record.diagnostics[f"flags{i}"].append(float(len(flags)))
        if steady_state(record.covered, config.steady_window, tol):
            break
    record.final_flags = tuple(tuple(sorted(f)) for f in world.flags)
    return record
