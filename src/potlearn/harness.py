"""Experiment orchestration: configs, seeded runs, sweeps, and oracle reports.

A run is fully determined by (config, seed): all randomness flows from one
counter-based stream, robots act in index order within fixed per-iteration
phases, and every CSV is written by one helper with shortest round-trip
float formatting, so repeated invocations produce bit-identical output.

The runners are world bookkeeping around the learner step kernels of
`dynamics` and `qlearning`, played on `coverage.as_game` of the run's world:
they sense, set wake probabilities, run component-count rounds, observe,
refit estimates and record, and commit the kernel's joint action and lay
flags through one path, `_Run.commit`.  Payoffs are therefore scored against
the world as it stood before the step, and sum to the recorded potential (to
`potential_est` in estimated-field mode, where they are read off the robots'
estimate rasters and `potential` scores the joint on a true-field view).

A sweep's (config, seed) cells share nothing, so `sweep` runs them in forked
worker processes, one per CPU of the affinity mask, and collects the records
in cell order; they equal the records of in-process runs bit for bit.
"""
from __future__ import annotations

import bisect
import csv
import io
import math
import numbers
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import coverage as cov
from . import mixtures as mix
from . import stability
from .dynamics import (
    ConstrainedActionMap,
    LoglinearState,
    RevisionPolicy,
    blll_step,
    lll_step,
    psblll_step,
    validate_constraints,
)
from .games import GameDefinition
from .qlearning import QState, SOQLParams, ql_episode_step, soql_episode_step
from .rng import make_rng
from .svgplot import Series, line_plot
from .worthfield import GaussianComponent, WorthField, generate_scenario

ALGORITHMS = ("lll", "blll", "psblll", "ql", "soql")
LOGLINEAR = ALGORITHMS[:3]
ENVIRONMENTS = ("known-field", "estimated-field")

# Normalizer floor so that a robot that has sensed nothing reads F = G = 0
# and keeps exploring.
SENSE_FLOOR = 1e-9


class ConfigError(ValueError):
    """A config file contains an unknown key or an invalid value."""


def _range(default, low: float, high: float = math.inf, strict: bool = False):
    """A numeric config field whose values must lie in [low, high], or in
    (low, high] when `strict`."""
    text = f" {'>' if strict else '>='} {low:g}" + (f" and <= {high:g}" if high < math.inf else "")
    return field(default=default, metadata={"range": (low, high, strict), "text": text})


def _check_ranges(spec) -> None:
    """Reject a numeric field of the dataclass `spec` outside its `_range`,
    naming the field; float fields are stored as floats."""
    # Field types are annotation strings here (postponed evaluation).
    for f in fields(spec):
        key, value = f.name, getattr(spec, f.name)
        if f.type not in ("int", "float"):
            continue
        low, high, strict = f.metadata.get("range", (-math.inf, math.inf, False))
        try:
            number = math.nan if isinstance(value, bool) else float(value)
        except (TypeError, ValueError):
            number = math.nan
        in_range = (low < number if strict else low <= number) and number <= high
        if not (math.isfinite(number) and in_range) or (
            f.type == "int" and not isinstance(value, numbers.Integral)
        ):
            what = "an integer" if f.type == "int" else "a finite number"
            what += f.metadata.get("text", "")
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        if f.type != "int":
            setattr(spec, key, number)


@dataclass
class ExperimentConfig:
    """Flat experiment description; every knob the runners consume."""

    algorithm: str = "psblll"
    environment: str = "known-field"
    grid_size: int = _range(40, 1)
    robots: int = _range(5, 1)
    iterations: int = _range(20_000, 0)
    steady_window: int = _range(200, 2)
    steady_tol: float = _range(1e-4, 0.0)
    seeds: tuple[int, ...] = (0,)
    scenario_seed: int = _range(7, 0)
    scenario_components: tuple[dict, ...] | None = None
    # shared dynamics
    temperature: float = _range(0.1, 0.0, strict=True)
    cover_radius: float = _range(1.5, 0.0, strict=True)
    move_cost: float = _range(3e-5, 0.0, strict=True)
    # revision policy
    explore_wake: float = 1.0
    climb_wake: float = 0.5
    settle_wake: float = _range(0.1, 0.0, 1.0)
    drop_rate: float = 4.0
    # q-learning
    aggregation_step: float = 0.97
    selection_step: float = 0.5
    perturbation_size: float = 0.01
    commitment_threshold: float = 0.9999
    # estimation
    repeat_factor: int = _range(3, 0)
    worth_percentile: float = _range(60.0, 0.0, 100.0)
    model_check_period: int = _range(50, 0)
    em_iters: int = _range(10, 1)
    em_period: int = _range(1, 1)

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.environment not in ENVIRONMENTS:
            raise ConfigError(f"unknown environment {self.environment!r}")
        if self.environment == "estimated-field" and self.algorithm not in LOGLINEAR:
            raise ConfigError("estimated-field mode applies to log-linear learners")
        _check_ranges(self)
        seeds = self.seeds if isinstance(self.seeds, (list, tuple)) else [None]
        if any(type(s) is bool or not isinstance(s, numbers.Integral) or s < 0 for s in seeds):
            raise ConfigError(f"seeds must be non-negative integers, got {self.seeds!r}")
        self.seeds = tuple(int(s) for s in self.seeds)
        try:
            self.revision_policy()
            self.soql_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.scenario_components is not None:
            try:
                self.scenario()
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"scenario.components: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        data = dict(raw)
        params = data.pop("params", None)
        scenario = data.pop("scenario", None)
        for key, section in (("params", params), ("scenario", scenario)):
            if section is not None and not isinstance(section, dict):
                raise ConfigError(f"{key} must hold a mapping, got {section!r}")
        params = params or {}
        for key in list(data) + list(params):
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        merged = {**data, **params}
        if scenario is not None:
            extra = set(scenario) - {"seed", "components"}
            if extra:
                raise ConfigError(f"unknown scenario key {extra.pop()!r}")
            if "seed" in scenario:
                merged["scenario_seed"] = scenario["seed"]
            if "components" in scenario:
                components = scenario["components"]
                if not isinstance(components, list):
                    raise ConfigError(f"scenario.components must be a list, got {components!r}")
                merged["scenario_components"] = tuple(components)
        return cls(**merged)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        raw = yaml.safe_load(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a mapping")
        return cls.from_dict(raw)

    def scenario(self) -> WorthField:
        if self.scenario_components is not None:
            return WorthField.from_dict(
                {
                    "grid_size": self.grid_size,
                    "components": list(self.scenario_components),
                }
            )
        return generate_scenario(self.scenario_seed, self.grid_size)

    def revision_policy(self) -> RevisionPolicy:
        return RevisionPolicy(**{f.name: getattr(self, f.name) for f in fields(RevisionPolicy)})

    def soql_params(self) -> SOQLParams:
        return SOQLParams(**{f.name: getattr(self, f.name) for f in fields(SOQLParams)})


def _float_repr(v: float) -> str:
    return repr(float(v))


def _csv(header: Sequence[str], rows) -> str:
    """CSV text of `header` and `rows`, each line ended by a newline and every
    float written by `_float_repr`; a field holding a comma is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_float_repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


@dataclass
class RunRecord:
    """Per-iteration trajectory of one seeded run."""

    algorithm: str
    environment: str
    seed: int
    grid_size: int
    n: list[int]
    covered: list[float]
    potential: list[float]
    positions: list[tuple[tuple[int, int], ...]]
    diagnostics: dict[str, list[float]]
    field_total_mass: float
    wall_time: float = 0.0
    final_flags: tuple[tuple[tuple[int, int], ...], ...] = ()
    estimates: list[dict] = field(default_factory=list)
    failed_proposals: Counter[str] = field(default_factory=Counter)  # by type; not in the CSV

    @property
    def iterations(self) -> int:
        return len(self.n)

    def final_covered(self) -> float:
        return self.covered[-1] if self.covered else 0.0

    def final_positions(self) -> tuple[tuple[int, int], ...]:
        return self.positions[-1] if self.positions else ()

    def columns(self) -> list[str]:
        robots = len(self.positions[0]) if self.positions else 0
        cells = [f"{axis}{i}" for i in range(robots) for axis in "xy"]
        return ["n", "covered", "potential", *sorted(self.diagnostics), *cells]

    def to_csv(self) -> str:
        diagnostics = [self.diagnostics[d] for d in sorted(self.diagnostics)]
        series = zip(self.n, self.covered, self.potential, *diagnostics, self.positions)
        rows = ([*values, *(v for cell in cells for v in cell)] for *values, cells in series)
        return _csv(self.columns(), rows)

    def estimates_csv(self) -> str:
        """Mixture-estimate snapshots taken at each model-check boundary."""
        header = "n,robot,components,component,weight,mean_x,mean_y,cov_xx,cov_xy,cov_yy"
        rows = (
            [snap["n"], snap["robot"], snap["components"], j, snap["weights"][j]]
            + [*snap["means"][j], *snap["covs"][j]]
            for snap in self.estimates
            for j in range(snap["components"])
        )
        return _csv(header.split(","), rows)


def steady_state(covered: Sequence[float], window: int, tol: float) -> bool:
    """True when the trailing max-min spread of the series is within `tol`."""
    if window < 2:
        raise ValueError("window must be at least 2")
    if len(covered) < window:
        return False
    tail = covered[-window:]
    return max(tail) - min(tail) <= tol


class SteadyStateDetector:
    """`steady_state` over a growing series, one value at a time.

    Monotone deques hold the candidates for the trailing window's maximum and
    minimum, so each push costs amortised O(1) instead of a window rescan;
    `push` returns what `steady_state` would return on the series so far.
    """

    def __init__(self, window: int, tol: float):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.window = window
        self.tol = tol
        self._count = 0
        self._high: deque[tuple[int, float]] = deque()  # values decreasing
        self._low: deque[tuple[int, float]] = deque()  # values increasing

    def push(self, value: float) -> bool:
        k = self._count
        self._count += 1
        while self._high and self._high[-1][1] <= value:
            self._high.pop()
        self._high.append((k, value))
        while self._low and self._low[-1][1] >= value:
            self._low.pop()
        self._low.append((k, value))
        first = k + 1 - self.window
        if first < 0:
            return False
        while self._high[0][0] < first:
            self._high.popleft()
        while self._low[0][0] < first:
            self._low.popleft()
        return self._high[0][1] - self._low[0][1] <= self.tol


def _normalized(value: float, peak: float) -> float:
    return min(value / max(peak, SENSE_FLOOR), 1.0)


def _estimate_raster(estimate: mix.GmmEstimate, field_model: WorthField) -> np.ndarray:
    """Read-only (L, L) raster of the estimate, so coverage may keep its disc sums."""
    L = field_model.grid_size
    flat = estimate.density(field_model.centroids())
    flat.setflags(write=False)
    return flat.reshape(L, L)


# Bound here as well so the benchmark's tracer can wrap the all-cell row by this name.
_all_cell_utilities = cov.utility_row


def run_experiment(config: ExperimentConfig, seed: int) -> RunRecord:
    """Execute one seeded run of the configured algorithm."""
    if config.algorithm in LOGLINEAR:
        return _run_loglinear(config, seed)
    return _run_qlearning(config, seed)


class _Run:
    """What both runners share: the run's stream, its world and moves map, the
    committed joint action, the record being filled, the steady-state test and
    the start time.  `commit` is the one place the robots move and lay flags."""

    def __init__(self, config: ExperimentConfig, seed: int, diagnostics: Sequence[str]):
        self.start = time.perf_counter()
        self.rng = make_rng(seed, 0)
        field_model = config.scenario()
        self.world = cov.CoverageWorld.create(
            field_model,
            config.robots,
            self.rng,
            cover_radius=config.cover_radius,
            move_cost=config.move_cost,
        )
        self.moves = cov.moves_constraint_map(self.world)
        # The covered total reads only the positions, so it is read again only
        # when `commit` replaces the positions tuple.
        self.covered = cov.total_covered_worth(self.world)
        self.actions = tuple(cov.cell_index(self.world, p) for p in self.world.positions)
        self.commit(self.actions)  # lays the first flags
        columns = list(diagnostics) + [f"flags{i}" for i in range(config.robots)]
        self.record = RunRecord(
            algorithm=config.algorithm,
            environment=config.environment,
            seed=seed,
            grid_size=config.grid_size,
            n=[],
            covered=[],
            potential=[],
            positions=[],
            diagnostics={key: [] for key in columns},
            field_total_mass=field_model.total_mass(),
        )
        self.steady = SteadyStateDetector(
            config.steady_window, config.steady_tol * field_model.total_mass()
        )

    def commit(self, actions: tuple[int, ...]) -> None:
        """Move each robot to the cell of its action and lay its flag there.  A
        robot whose action is unchanged keeps its cell tuple, and the world
        its positions tuple when no robot moves."""
        world, before = self.world, self.world.positions
        steps = zip(before, actions, self.actions)
        cov.commit_positions(world, [p if a == b else cov.index_cell(world, a) for p, a, b in steps])
        self.actions = actions
        for i in range(world.n_robots):
            cov.lay_flag(world, i)
        if world.positions is not before:
            self.covered = cov.total_covered_worth(world)

    def log(self, n: int, phi: float, diagnostics: dict[str, float]) -> bool:
        """Record iteration n of the committed world; True once it is steady."""
        rec, world = self.record, self.world
        rec.n.append(n)
        rec.covered.append(self.covered)
        rec.potential.append(phi)
        rec.positions.append(world.positions)
        for key, value in diagnostics.items():
            rec.diagnostics[key].append(value)
        for i, flags in enumerate(world.flags):
            rec.diagnostics[f"flags{i}"].append(float(len(flags)))
        return self.steady.push(rec.covered[-1])

    def finish(self) -> RunRecord:
        self.record.final_flags = tuple(tuple(sorted(f)) for f in self.world.flags)
        self.record.wall_time = time.perf_counter() - self.start
        return self.record


def _run_loglinear(config: ExperimentConfig, seed: int) -> RunRecord:
    estimated = config.environment == "estimated-field"
    psblll = config.algorithm == "psblll"
    run = _Run(config, seed, ["awake"] + (["potential_est"] if estimated else []))
    rng, world = run.rng, run.world
    policy = config.revision_policy()
    n_robots = config.robots
    estimates: list[mix.GmmEstimate | None] = [None] * n_robots
    rasters: list[np.ndarray | None] = [None] * n_robots
    aic_states = [mix.AICState(tau=config.temperature) for _ in range(n_robots)]
    failures = run.record.failed_proposals
    # What each robot has observed: the cells it adopted, weighted by their
    # worth against the worths it has sensed, one per iteration and kept in
    # ascending order.  Estimated mode only.
    logs = [mix.ObservationLog() for _ in range(n_robots)]
    sensed_sorted: list[list[float]] = [[] for _ in range(n_robots)]

    def observe(i: int) -> None:
        x, y = world.positions[i]
        multiplicity = mix.sensed_multiplicity(
            float(world.worth_values()[x, y]),
            sensed_sorted[i],
            config.worth_percentile,
            config.repeat_factor,
        )
        logs[i].append((x + 0.5, y + 0.5), multiplicity)

    def adopt(i: int, estimate: mix.GmmEstimate) -> None:
        """The one place a robot's estimate and raster change.  A kept
        estimate keeps its raster, and coverage its disc sums."""
        if estimate is not estimates[i]:
            estimates[i] = estimate
            rasters[i] = _estimate_raster(estimate, world.field_model)

    if estimated:
        for i in range(n_robots):
            observe(i)
            adopt(i, mix.em_iterate(logs[i], mix.initial_estimate(logs[i], 1), config.em_iters))
    max_f = [0.0] * n_robots
    max_g = [0.0] * n_robots
    # Each robot's last sensing: (its cell tuple, the worth sensed there, its
    # wake probability).  A robot that stays keeps its cell tuple, and its
    # running maxima move only when it senses a new cell, so the kept entry
    # is the one sensing again would give.
    sensing: list[tuple] = [((), 0.0, None)] * n_robots
    # Robots decide on their own rasters; `adopt` replaces `rasters` entries,
    # and the game reads them at call time.
    game = cov.as_game(world, rasters)
    # The same world on the true field, for the estimated-mode potential.
    truth = cov.as_game(world)
    state = LoglinearState(run.actions, config.temperature, rng)

    for n in range(1, config.iterations + 1):
        if estimated and config.model_check_period and n % config.model_check_period == 0:
            for i in range(n_robots):
                adopt(i, _aic_round(estimates[i], logs[i], aic_states[i], rng, config, failures))
                run.record.estimates.append(_estimate_snapshot(n, i, estimates[i]))

        if estimated or psblll:
            for i, cell in enumerate(world.positions):
                if sensing[i][0] is not cell:
                    f, g = cov.sense(world, i)
                    max_f[i] = max(max_f[i], f)
                    max_g[i] = max(max_g[i], g)
                    p = None
                    if psblll:
                        p = policy.probability(_normalized(f, max_f[i]), _normalized(g, max_g[i]))
                    sensing[i] = (cell, f, p)
                if estimated:
                    bisect.insort(sensed_sorted[i], sensing[i][1])
        if psblll:
            psblll_step(game, state, run.moves, [p for _, _, p in sensing])
        elif config.algorithm == "blll":
            blll_step(game, state, run.moves)
        else:
            lll_step(game, state)

        # The step's payoffs are scored on the robots' own rasters, which are
        # the true field's only in known-field mode.
        step_potential = float(sum(state.payoffs))
        diagnostics = {"awake": float(len(state.awake))}
        if estimated:
            phi = sum(truth.utilities(state.action))
            diagnostics["potential_est"] = step_potential
        else:
            phi = step_potential
        run.commit(state.action)
        for i in range(n_robots):
            if estimated and i in state.adopted:
                observe(i)
                # the log's appends after the first are one per adoption
                if (logs[i].revision - 1) % config.em_period == 0:
                    adopt(i, mix.em_iterate(logs[i], estimates[i], config.em_iters))

        if run.log(n, phi, diagnostics):
            break
    return run.finish()


def _estimate_snapshot(n: int, robot: int, estimate: mix.GmmEstimate) -> dict:
    return {
        "n": n,
        "robot": robot,
        "components": estimate.n_components,
        "weights": estimate.weights.tolist(),
        "means": estimate.means.tolist(),
        "covs": estimate.covs[:, [0, 0, 1], [0, 1, 1]].tolist(),  # xx, xy, yy
    }


def _aic_round(
    estimate: mix.GmmEstimate,
    log: mix.ObservationLog,
    state: mix.AICState,
    rng: np.random.Generator,
    config: ExperimentConfig,
    failures: Counter[str],
) -> mix.GmmEstimate:
    """One `mix.count_proposal` round; a failed one keeps the estimate and counts in `failures`."""
    try:
        return mix.count_proposal(estimate, log, state, rng, config.em_iters)
    except (ValueError, np.linalg.LinAlgError) as exc:
        failures[type(exc).__name__] += 1
        return estimate


def _run_qlearning(config: ExperimentConfig, seed: int) -> RunRecord:
    n_robots = config.robots
    columns = [f"commit{i}" for i in range(n_robots)]
    run = _Run(config, seed, columns)
    params = config.soql_params()
    episode_step = soql_episode_step if config.algorithm == "soql" else ql_episode_step
    game = cov.as_game(run.world)
    state = QState.initial([config.grid_size**2] * n_robots, run.actions)

    for n in range(1, config.iterations + 1):
        _, realized = episode_step(game, state, params, run.moves, run.rng)
        # Scored against the pre-step snapshot, the payoffs sum to the step potential.
        phi = float(sum(state.payoffs))
        run.commit(realized)
        if run.log(n, phi, dict(zip(columns, state.maxima))):
            break
    return run.finish()


@dataclass
class SweepCell:
    config_index: int
    seed: int
    record: RunRecord | None
    error: str | None = None


@dataclass
class SweepReport:
    """Per-config mean and min/max band of covered worth across seeds."""

    labels: list[str]
    cells: list[SweepCell]
    bands: list[dict]  # {"n": [...], "mean": [...], "lo": [...], "hi": [...]}

    def failures(self) -> list[SweepCell]:
        return [c for c in self.cells if c.error is not None]


def _sweep_cell(cell: tuple[int, ExperimentConfig, int]) -> SweepCell:
    """One isolated sweep cell: its record, or the failure that ended it."""
    config_index, config, seed = cell
    try:
        return SweepCell(config_index, seed, run_experiment(config, seed))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return SweepCell(config_index, seed, None, f"{type(exc).__name__}: {exc}")


def _pooled_cells(todo: list[tuple[int, ExperimentConfig, int]], workers: int) -> list[SweepCell]:
    """`_sweep_cell` of each cell in forked worker processes, in cell order.

    A worker that dies breaks the pool: the cells already finished keep
    their records and every other cell fails with the pool's error.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Fork, not spawn: workers start without re-importing the program and
    # inherit the caller's state, patched functions included.  A fork pool
    # starts every worker before it starts its own threads.
    context = multiprocessing.get_context("fork")
    cells = []
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(_sweep_cell, cell) for cell in todo]
        for (config_index, _, seed), future in zip(todo, futures):
            try:
                cells.append(future.result())
            except BrokenProcessPool as exc:
                cells.append(SweepCell(config_index, seed, None, f"{type(exc).__name__}: {exc}"))
    return cells


def sweep(configs: Sequence[ExperimentConfig], labels: Sequence[str] | None = None) -> SweepReport:
    """Run every config on each of its own `seeds` and aggregate bands.

    Cells are independent and fully seeded, so they run in forked worker
    processes, one per CPU in the affinity mask (`taskset` limits them),
    and each record equals the one `run_experiment` returns in-process.  A
    one-cell sweep, or a host with one CPU, runs its cells in this process.
    Cell failures, a dying worker included, are recorded and do not stop the
    sweep.  Trajectories shorter than the longest in their config (early
    steady state) are padded by holding their final value.
    """
    names = list(labels) if labels else [c.algorithm for c in configs]
    todo = [(ci, config, seed) for ci, config in enumerate(configs) for seed in config.seeds]
    # `sched_getaffinity` exists only on hosts that fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(todo), cpus)
    cells = _pooled_cells(todo, workers) if workers > 1 else list(map(_sweep_cell, todo))
    bands: list[dict] = []
    for ci in range(len(configs)):
        records = [c.record for c in cells if c.config_index == ci and c.record is not None]
        if not records:
            bands.append({"n": [], "mean": [], "lo": [], "hi": []})
            continue
        horizon = max(r.iterations for r in records)
        padded = np.vstack(
            [
                np.pad(r.covered, (0, horizon - r.iterations), mode="edge")
                for r in records
            ]
        )
        bands.append(
            {
                "n": list(range(1, horizon + 1)),
                "mean": padded.mean(axis=0).tolist(),
                "lo": padded.min(axis=0).tolist(),
                "hi": padded.max(axis=0).tolist(),
            }
        )
    return SweepReport(labels=names, cells=cells, bands=bands)


def sweep_csv(report: SweepReport) -> str:
    rows = (
        [ci, report.labels[ci], n, mean, lo, hi]
        for ci, band in enumerate(report.bands)
        for n, mean, lo, hi in zip(band["n"], band["mean"], band["lo"], band["hi"])
    )
    return _csv(["config", "label", "n", "mean", "lo", "hi"], rows)


def sweep_cells_csv(report: SweepReport) -> str:
    """One row per cell in cell order: its run length and wall time, or the
    full text of its failure."""
    rows = (
        [c.config_index, report.labels[c.config_index], c.seed]
        + ([c.record.iterations, c.record.wall_time] if c.record else ["", ""])
        + [c.error or ""]
        for c in report.cells
    )
    return _csv(["config", "label", "seed", "iterations", "wall_s", "error"], rows)


def sweep_svg(report: SweepReport, title: str = "covered worth") -> str:
    series = [
        Series(
            label=report.labels[ci],
            x=band["n"],
            y=band["mean"],
            band=(band["lo"], band["hi"]),
        )
        for ci, band in enumerate(report.bands)
        if band["n"]
    ]
    return line_plot(series, title=title, xlabel="iteration", ylabel="covered worth")


@dataclass(kw_only=True)
class OracleReport(stability.StableSetReport):
    """Stable-set report of a small game plus its resistances and identity check."""

    resistances: list[tuple]          # (source, target, deviators, resistance)
    identity_report: stability.ResistanceIdentityReport | None
    separability_note: str | None

    @property
    def stationary(self) -> np.ndarray:
        """The stationary masses, (n_levels, n_states)."""
        return self.masses

    def to_text(self) -> str:
        lines = ["stability oracle report", "======================="]
        lines.append(f"states: {len(self.states)}")
        lines.append("noise      build s    solve s    residual")
        for e, b, s, r in zip(
            self.noise_levels, self.build_seconds, self.solve_seconds, self.residuals
        ):
            lines.append(f"eps={e:<6g} {b:<10.4f} {s:<10.4f} {r:.3e}")
        lines.append(
            "stochastically stable: "
            + (", ".join(str(s) for s in self.stable) if self.stable else "(none found)")
        )
        lines.append("")
        lines.append("stationary mass by noise level:")
        header = "state      " + "  ".join(f"eps={e:g}" for e in self.noise_levels)
        lines.append(header)
        for k, s in enumerate(self.states):
            masses = "  ".join(f"{self.masses[j, k]:.6f}" for j in range(len(self.noise_levels)))
            lines.append(f"{str(s):10s} {masses}")
        lines.append("")
        if self.identity_report is not None:
            rep = self.identity_report
            lines.append(
                f"resistance identity: {rep.pairs_checked} pairs checked, "
                f"max residual {rep.max_residual:.3e}, violations {len(rep.violations)}"
            )
        elif self.separability_note:
            lines.append(self.separability_note)
        lines.append(
            "note: guarantees for non-separable payoffs rest on homogeneity and "
            "monotone-potential hypotheses that this report does not test."
        )
        return "\n".join(lines) + "\n"

    # States and deviator sets are tuples, whose text holds a comma, so
    # `_csv` quotes them.
    def resistances_csv(self) -> str:
        rows = ([str(s), str(t), str(d), float(r)] for s, t, d, r in self.resistances)
        return _csv(["source", "target", "deviators", "resistance"], rows)

    def stationary_csv(self) -> str:
        header = ["state"] + [f"eps_{e:g}" for e in self.noise_levels]
        rows = ([str(s), *self.masses[:, k].tolist()] for k, s in enumerate(self.states))
        return _csv(header, rows)


def oracle_report(
    game: GameDefinition,
    constraints: ConstrainedActionMap | None = None,
    wake: float = 0.5,
    noise_levels: Sequence[float] = (1e-1, 1e-2, 1e-3),
    mass_threshold: float = 0.05,
) -> OracleReport:
    """Full stability analysis of a small game: resistances, stationary masses,
    stable set, and the separable-case resistance identity check.  Every
    part reads one payoff table, made once."""
    if constraints is None:
        constraints = ConstrainedActionMap.complete(game)
    report = validate_constraints(constraints)
    if not report.ok:
        if report.disconnected_players:
            where = f"player {report.disconnected_players[0]}'s map is not strongly connected"
        else:
            i, a, b = report.asymmetric_pairs[0]
            where = f"player {i} may move {a} -> {b} but not {b} -> {a}"
        raise ValueError(f"constraint map must be connected and symmetric for the oracle: {where}")
    space = stability._space(game)
    stable = stability.stochastically_stable_states(
        game, wake, constraints, noise_levels, mass_threshold, space=space
    )
    resistances = stability.transition_resistances(game, constraints, space=space)
    identity: stability.ResistanceIdentityReport | None = None
    note: str | None = None
    try:
        identity = stability.verify_resistance_identity(game, constraints, space=space)
    except stability.SeparabilityError as exc:
        note = f"resistance identity skipped: {exc}"
    return OracleReport(
        **vars(stable), resistances=resistances, identity_report=identity, separability_note=note
    )


def load_game_spec(path: str | Path) -> tuple[GameDefinition, ConstrainedActionMap]:
    """Load a game description for the oracle from a YAML file.

    Either an explicit matrix game (`actions` counts or label lists plus one
    row-major `utilities` list per player) or a built-in (`builtin: coverage`
    with grid/robot parameters).  Unknown keys and bad values are rejected by name.
    """
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("game spec must hold a mapping")
    builtin = "builtin" in raw
    known = {"players", "actions", "utilities"}
    if builtin:
        known = {f.name for f in fields(_CoverageSpec)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown game spec key {key!r}")
    if builtin:
        return _builtin_game(_CoverageSpec(**raw))
    if "actions" not in raw or "utilities" not in raw:
        raise ConfigError("game spec needs 'actions' and 'utilities'")
    actions = raw["actions"]
    if not isinstance(actions, list) or not actions or not all(
        type(a) is int and a > 0 or isinstance(a, list) and a for a in actions
    ):
        raise ConfigError(f"actions must list action counts > 0 or labels, got {actions!r}")
    shape = tuple(a if type(a) is int else len(a) for a in actions)
    utilities = raw["utilities"]
    if not isinstance(utilities, list) or len(utilities) != len(shape):
        raise ConfigError("utilities must hold one table per player")
    tables = []
    for row in utilities:
        try:
            flat = np.asarray(row, dtype=float)
        except (TypeError, ValueError):
            flat = np.array(math.nan)
        if not np.isfinite(flat).all():
            raise ConfigError(f"utilities must hold finite numbers, got {row!r}")
        if flat.size != math.prod(shape):
            raise ConfigError(
                f"utility table length {flat.size} does not match joint space {math.prod(shape)}"
            )
        tables.append(flat.reshape(shape))
    players = raw.get("players", len(shape))
    count = players if type(players) is int else len(players) if isinstance(players, list) else None
    if count != len(shape):
        raise ConfigError(f"players must count or name the {len(shape)} players, got {players!r}")
    game = GameDefinition.from_tables(tables)
    return game, ConstrainedActionMap.complete(game)


@dataclass
class _CoverageSpec:
    """The keys of a `builtin: coverage` game spec and their defaults."""

    builtin: str
    grid_size: int = _range(4, 1)
    robots: int = _range(2, 1)
    scenario_seed: int = _range(7, 0)
    placement_seed: int = _range(0, 0)
    cover_radius: float = _range(1.5, 0.0, strict=True)
    move_cost: float = _range(3e-5, 0.0, strict=True)

    def __post_init__(self) -> None:
        if self.builtin != "coverage":
            raise ConfigError(f"unknown builtin game {self.builtin!r}")
        _check_ranges(self)


def _builtin_game(spec: _CoverageSpec) -> tuple[GameDefinition, ConstrainedActionMap]:
    world = cov.CoverageWorld.create(
        oracle_scale_field(spec.scenario_seed, spec.grid_size),
        spec.robots,
        make_rng(spec.placement_seed, 99),
        cover_radius=spec.cover_radius,
        move_cost=spec.move_cost,
    )
    return cov.as_game(world), cov.moves_constraint_map(world)


def oracle_scale_field(seed: int, grid: int) -> WorthField:
    """Small random worth field for oracle-sized grids (no minimum size)."""
    rng = make_rng(seed, 0xC0FFEE)
    m = int(rng.integers(1, 4))
    means = rng.uniform(0.15 * grid, 0.85 * grid, size=(m, 2))
    weights = rng.dirichlet(np.ones(m))
    sigma = rng.uniform(grid / 8.0, grid / 4.0, size=(m, 2))
    comps = [
        GaussianComponent(float(weights[j]), means[j], np.diag(sigma[j] ** 2))
        for j in range(m)
    ]
    return WorthField(comps, grid)
