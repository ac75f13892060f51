import concurrent.futures
import multiprocessing
import os
import re
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st_

from potlearn import coverage as cov
from potlearn import harness
from potlearn import mixtures as mix
from potlearn.dynamics import ConstrainedActionMap
from potlearn.harness import (
    ConfigError,
    ExperimentConfig,
    SteadyStateDetector,
    load_game_spec,
    oracle_report,
    run_experiment,
    steady_state,
    sweep,
    sweep_csv,
    sweep_svg,
)
from potlearn.rng import make_rng
from potlearn.worthfield import generate_scenario

NARROW_COMPONENTS = (
    {"weight": 0.4, "mean": [8.0, 8.0], "cov": [[1.7, 0.0], [0.0, 1.7]]},
    {"weight": 0.35, "mean": [30.0, 12.0], "cov": [[1.7, 0.0], [0.0, 1.7]]},
    {"weight": 0.25, "mean": [15.0, 32.0], "cov": [[1.7, 0.0], [0.0, 1.7]]},
)


def small_config(**overrides):
    base = dict(
        algorithm="psblll",
        grid_size=12,
        robots=2,
        iterations=150,
        scenario_seed=5,
        steady_window=50,
        steady_tol=1e-6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSteadyState:
    def test_constant_series_is_steady(self):
        assert steady_state([1.0] * 300, window=200, tol=1e-4)

    def test_rising_series_is_not(self):
        series = [k * 1e-3 for k in range(300)]
        assert not steady_state(series, window=200, tol=1e-4)

    def test_detector_fires_after_the_plateau(self):
        series = [k / 500 for k in range(500)] + [1.0] * 1000
        fired_at = None
        for n in range(2, len(series) + 1):
            if steady_state(series[:n], window=200, tol=1e-4):
                fired_at = n
                break
        assert fired_at is not None
        assert 500 < fired_at <= 500 + 200

    def test_window_domain(self):
        with pytest.raises(ValueError):
            steady_state([1.0, 1.0], window=1, tol=1e-4)
        with pytest.raises(ValueError):
            SteadyStateDetector(window=1, tol=1e-4)


# Dyadic levels and tolerances, so that a spike of exactly `tol` above a
# plateau has a max-min spread of exactly `tol`.
TOLS = (0.0, 2.0**-10, 0.25, 1.0)


@st_.composite
def plateau_series(draw):
    tol = draw(st_.sampled_from(TOLS))
    series = []
    for _ in range(draw(st_.integers(1, 8))):
        level = draw(st_.integers(-64, 64)) * 2.0**-6
        length = draw(st_.integers(1, 40))
        kind = draw(st_.sampled_from(("flat", "spike", "noise")))
        for _ in range(length):
            if kind == "spike" and draw(st_.booleans()):
                series.append(level + draw(st_.sampled_from((tol, -tol, 2 * tol))))
            elif kind == "noise":
                series.append(level + draw(st_.floats(-2.0, 2.0, allow_nan=False)))
            else:
                series.append(level)
    return series, tol


class TestIncrementalSteadyState:
    @given(plateau_series(), st_.integers(2, 30))
    @settings(max_examples=300, deadline=None)
    def test_stops_on_the_same_iteration_as_the_rescan(self, case, window):
        series, tol = case
        detector = SteadyStateDetector(window, tol)
        for n in range(1, len(series) + 1):
            assert detector.push(series[n - 1]) == steady_state(series[:n], window, tol)

    def test_spike_of_exactly_tol_is_still_steady(self):
        detector = SteadyStateDetector(window=3, tol=0.25)
        assert [detector.push(v) for v in (1.0, 1.25, 1.0, 1.5, 1.25, 1.25)] == [
            False, False, True, False, False, True
        ]


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        raw = {
            "algorithm": "blll",
            "grid_size": 16,
            "robots": 3,
            "iterations": 50,
            "seeds": [1, 2],
            "scenario": {"seed": 9},
            "params": {"temperature": 0.05, "move_cost": 1e-4},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        config = ExperimentConfig.from_yaml(path)
        assert config.algorithm == "blll"
        assert config.temperature == 0.05
        assert config.move_cost == 1e-4
        assert config.seeds == (1, 2)
        assert config.scenario_seed == 9

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="banana"):
            ExperimentConfig.from_dict({"algorithm": "blll", "banana": 1})

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ConfigError, match="zeta"):
            ExperimentConfig.from_dict({"params": {"zeta": 0.5}})

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            ExperimentConfig.from_dict({"scenario": {"shape": "blob"}})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="sarsa")

    def test_estimated_mode_limited_to_loglinear(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="soql", environment="estimated-field")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("temperature", 0.0),
            ("temperature", -0.1),
            ("temperature", float("nan")),
            ("temperature", "warm"),
            ("cover_radius", 0.0),
            ("cover_radius", float("inf")),
            ("move_cost", float("inf")),
            ("move_cost", -3e-5),
            ("em_period", 0),
            ("em_iters", 0),
            ("em_iters", 2.5),
            ("model_check_period", -1),
            ("aic_tau", 0),
            ("aic_tau", -1.0),
            ("aic_tau", float("nan")),
            ("cov_floor", 0.0),
            ("cov_floor", float("inf")),
            ("robots", 2.5),
            ("robots", True),
            ("iterations", 2.5),
            ("steady_tol", -1),
            ("steady_tol", float("nan")),
            ("grid_size", 9.5),
            ("steady_window", 2.5),
            ("worth_percentile", 150),
            ("repeat_factor", -3),
            ("drop_rate", float("nan")),
            ("explore_wake", 1.5),
            ("selection_step", 0.99),
            ("seeds", ["a"]),
            ("seeds", 3),
            ("scenario_seed", "7"),
            ("grid_size", None),
        ],
    )
    def test_invalid_value_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({"params": {key: value}})

    def test_zero_model_check_period_is_accepted(self):
        assert ExperimentConfig(model_check_period=0).model_check_period == 0

    def test_numeric_text_is_read_as_a_number(self):
        # YAML 1.1 reads an exponent without a dot, like 3e-5, as a string
        config = ExperimentConfig.from_dict({"params": {"move_cost": "3e-5"}})
        assert config.move_cost == 3e-5

    def test_inline_scenario_components(self):
        config = small_config(
            grid_size=40, scenario_components=NARROW_COMPONENTS
        )
        field = config.scenario()
        assert field.n_components == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"weight": 1.0, "mean": [float("nan"), 5.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            {"weight": 1.0, "mean": [5.0, 5.0], "cov": [[float("nan"), 0.0], [0.0, 1.0]]},
            {"weight": 1.0, "mean": [5.0, float("inf")], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            {"weight": float("nan"), "mean": [5.0, 5.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            {"weight": 1.0, "mean": [5.0, 5.0], "cov": [[1.0, 1.0], [1.0, 1.0]]},
            {"weight": 1.0, "mean": [5.0, 5.0]},
        ],
    )
    def test_bad_scenario_component_rejected_at_load(self, bad):
        with pytest.raises(ConfigError, match="scenario.components"):
            ExperimentConfig.from_dict({"grid_size": 10, "scenario": {"components": [bad]}})

    def test_readme_config_table_names_every_param(self):
        """README names each config field: run controls in its prose, the rest in
        its key table; the scenario fields come from the `scenario` section."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        controls = re.search(r"top-level run controls\s*\(([^)]*)\)", text).group(1)
        header = "| key | meaning | allowed | default |"
        rows = text[text.index(header) :].split("\n\n", 1)[0].splitlines()[2:]
        table = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        params = {f.name for f in fields(ExperimentConfig)} - set(re.findall(r"`(\w+)`", controls))
        assert table == params - {"scenario_seed", "scenario_components"}


class TestRunners:
    @pytest.mark.parametrize("algorithm", ["lll", "blll", "psblll", "ql", "soql"])
    def test_all_algorithms_produce_records(self, algorithm):
        record = run_experiment(small_config(algorithm=algorithm), seed=3)
        assert 0 < record.iterations <= 150
        assert len(record.covered) == record.iterations
        assert len(record.positions) == record.iterations
        assert all(len(p) == 2 for p in record.positions)

    def test_deterministic_records_bitwise(self):
        config = small_config()
        a = run_experiment(config, seed=11).to_csv()
        b = run_experiment(config, seed=11).to_csv()
        assert a == b

    def test_seeds_differ(self):
        config = small_config()
        a = run_experiment(config, seed=1).to_csv()
        b = run_experiment(config, seed=2).to_csv()
        assert a != b

    def test_covered_column_recomputes_from_positions(self):
        config = small_config(robots=3)
        record = run_experiment(config, seed=4)
        field = config.scenario()
        world = cov.CoverageWorld.create(field, 3, np.random.default_rng(0))
        for row, positions in enumerate(record.positions):
            cov.commit_positions(world, positions)
            assert abs(record.covered[row] - cov.total_covered_worth(world)) <= 1e-12

    def test_estimated_mode_logs_both_potentials(self):
        config = small_config(
            environment="estimated-field", iterations=80, model_check_period=25
        )
        record = run_experiment(config, seed=5)
        assert "potential_est" in record.diagnostics
        assert len(record.diagnostics["potential_est"]) == record.iterations

    def test_estimate_raster_runs_only_for_changed_estimates(self, monkeypatch):
        rastered = []
        real_raster = harness._estimate_raster

        def raster(estimate, field_model):
            rastered.append(estimate)
            return real_raster(estimate, field_model)

        rounds = []
        real_round = harness._aic_round

        def aic_round(estimate, *args):
            result = real_round(estimate, *args)
            if len(rounds) % 2:  # every other round hands back an equal new object
                result = result.copy()
            rounds.append((estimate, result))
            return result

        monkeypatch.setattr(harness, "_estimate_raster", raster)
        monkeypatch.setattr(harness, "_aic_round", aic_round)
        config = small_config(
            environment="estimated-field", iterations=200, model_check_period=25
        )
        run_experiment(config, seed=5)
        changed = [new for old, new in rounds if new is not old]
        assert changed and len(changed) < len(rounds)
        # every estimate in use was rasterised once when it appeared: a kept
        # one is not rasterised again, a changed one is
        assert len({id(e) for e in rastered}) == len(rastered)
        assert all(any(new is e for e in rastered) for new in changed)

    @pytest.mark.parametrize("environment", ["known-field", "estimated-field"])
    def test_zero_model_check_period_runs_without_proposals(self, environment):
        config = small_config(environment=environment, iterations=30, model_check_period=0)
        record = run_experiment(config, seed=5)
        assert record.iterations == 30
        assert record.estimates == []

    def test_failed_proposal_keeps_the_estimate(self, monkeypatch):
        def failing_split(*args, **kwargs):
            raise ValueError("split failed")

        log = mix.ObservationLog()
        log.extend([(1.5, 2.5), (3.5, 2.5), (2.5, 4.5)], multiplicity=2)
        estimate = mix.em_iterate(log, mix.initial_estimate(log, 1), 5)
        monkeypatch.setattr(mix, "split_component", failing_split)
        config = small_config(environment="estimated-field")
        kept = harness._aic_round(estimate, log, mix.AICState(), make_rng(0), config, Counter())
        assert kept is estimate

    def test_failed_proposals_are_counted_by_exception_type(self, monkeypatch):
        def failing_proposal(*args, **kwargs):
            raise np.linalg.LinAlgError("singular covariance")

        log = mix.ObservationLog()
        log.extend([(1.5, 2.5), (3.5, 2.5), (2.5, 4.5)], multiplicity=2)
        estimate = mix.em_iterate(log, mix.initial_estimate(log, 1), 5)
        monkeypatch.setattr(mix, "count_proposal", failing_proposal)
        config = small_config(
            environment="estimated-field", iterations=60, model_check_period=25
        )
        failures = Counter(ValueError=2)
        kept = harness._aic_round(estimate, log, mix.AICState(), make_rng(0), config, failures)
        assert kept is estimate
        assert failures == {"ValueError": 2, "LinAlgError": 1}
        record = run_experiment(config, seed=5)
        assert record.iterations == 60
        # every boundary keeps the single starting component of each robot
        assert {snap["components"] for snap in record.estimates} == {1}
        assert record.failed_proposals == {"LinAlgError": 2 * config.robots}
        assert "LinAlgError" not in record.to_csv() + record.estimates_csv()

    def test_estimated_mode_snapshots_mixture_estimates(self):
        config = small_config(
            environment="estimated-field", iterations=80, model_check_period=25
        )
        record = run_experiment(config, seed=5)
        boundaries = {snap["n"] for snap in record.estimates}
        assert boundaries == {25, 50, 75}
        assert {snap["robot"] for snap in record.estimates} == {0, 1}
        csv = record.estimates_csv()
        header, *rows = csv.strip().splitlines()
        assert header.startswith("n,robot,components,component,weight")
        assert len(rows) == sum(snap["components"] for snap in record.estimates)

    def test_flag_traces_logged_and_exported(self):
        record = run_experiment(small_config(), seed=8)
        assert "flags0" in record.diagnostics
        counts = record.diagnostics["flags0"]
        assert all(b >= a for a, b in zip(counts, counts[1:]))  # traces only grow
        assert len(record.final_flags) == 2
        assert counts[-1] == len(record.final_flags[0])

    def test_world_rendering_is_valid_svg(self):
        import xml.etree.ElementTree as ET

        config = small_config()
        record = run_experiment(config, seed=9)
        svg = cov.render_svg(config.scenario(), record.final_positions(), record.final_flags)
        ET.fromstring(svg)
        assert "circle" in svg

    def test_qlearning_logs_commitment(self):
        record = run_experiment(small_config(algorithm="soql"), seed=6)
        assert "commit0" in record.diagnostics and "commit1" in record.diagnostics
        assert all(0 < v <= 1 for v in record.diagnostics["commit0"])

    def test_zero_iterations_gives_empty_record(self):
        record = run_experiment(small_config(iterations=0), seed=1)
        assert record.iterations == 0
        assert record.covered == []


def failing_config(**overrides):
    """Set past the load-time check, so every run of it raises: its weights sum to 0.5."""
    config = small_config(**overrides)
    config.scenario_components = ({"weight": 0.5, "mean": [1, 1], "cov": [[1, 0], [0, 1]]},)
    return config


class TestSweep:
    def test_single_cell_band_equals_trajectory(self):
        config = small_config(seeds=(7,))
        report = sweep([config])
        band = report.bands[0]
        record = report.cells[0].record
        assert band["mean"] == record.covered
        assert band["lo"] == record.covered
        assert band["hi"] == record.covered

    def test_repeated_seed_gives_zero_width_band(self):
        config = small_config(seeds=(7, 7))
        report = sweep([config])
        band = report.bands[0]
        assert band["lo"] == band["hi"]

    def test_band_contains_every_member_pointwise(self):
        config = small_config(seeds=(1, 2, 3))
        report = sweep([config])
        band = report.bands[0]
        horizon = len(band["n"])
        for cell in report.cells:
            padded = np.pad(
                cell.record.covered,
                (0, horizon - cell.record.iterations),
                mode="edge",
            )
            assert (padded >= np.asarray(band["lo"]) - 1e-15).all()
            assert (padded <= np.asarray(band["hi"]) + 1e-15).all()

    def test_failures_reported_and_sweep_continues(self):
        good = small_config(seeds=(1,))
        report = sweep([failing_config(), good], seeds=None)
        assert report.failures()
        assert any(c.record is not None for c in report.cells)

    def test_csv_and_svg_emission(self):
        report = sweep([small_config(seeds=(1, 2))])
        text = sweep_csv(report)
        assert text.startswith("config,label,n,mean,lo,hi")
        svg = sweep_svg(report)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        import xml.etree.ElementTree as ET

        ET.fromstring(svg)


def cell_by_cell(configs):
    """(config index, seed, run CSV, error) of each cell, each run in this process."""
    out = []
    for ci, config in enumerate(configs):
        for seed in config.seeds:
            try:
                out.append((ci, seed, run_experiment(config, seed).to_csv(), None))
            except Exception as exc:  # noqa: BLE001 - the sweep's cell isolation
                out.append((ci, seed, None, f"{type(exc).__name__}: {exc}"))
    return out


def cell_rows(report):
    return [
        (c.config_index, c.seed, c.record.to_csv() if c.record else None, c.error)
        for c in report.cells
    ]


def cpus(monkeypatch, count):
    """Pretend the affinity mask holds `count` CPUs, which sets the sweep's worker count."""
    mask = set(range(count))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: mask, raising=False)


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)


@fork_only
class TestParallelSweep:
    CONFIGS = (
        small_config(seeds=(1, 2, 3)),
        small_config(environment="estimated-field", model_check_period=20, seeds=(4, 5, 6)),
        failing_config(seeds=(1, 2)),
    )

    def test_parallel_sweep_equals_cell_by_cell_runs(self, monkeypatch):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cpus(monkeypatch, 2)
        report = sweep(self.CONFIGS)
        assert multiprocessing.active_children() == []
        assert pools == [(2,)]
        assert cell_rows(report) == cell_by_cell(self.CONFIGS)
        cpus(monkeypatch, 1)
        in_process = sweep(self.CONFIGS)
        assert pools == [(2,)]
        assert report.bands == in_process.bands
        assert cell_rows(report) == cell_rows(in_process)
        assert report.bands[2] == {"n": [], "mean": [], "lo": [], "hi": []}

    def test_a_one_cell_sweep_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell sweep started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cpus(monkeypatch, 2)
        report = sweep([small_config(seeds=(7,))])
        assert report.cells[0].error is None
        cpus(monkeypatch, 1)
        assert not sweep([small_config(seeds=(1, 2))]).failures()

    def test_a_dying_worker_fails_its_unfinished_cells(self, monkeypatch, tmp_path):
        real = harness.run_experiment

        def run_or_die(config, seed):
            if seed == 3:
                # die once both other cells are done and their records sent
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not all(
                    (tmp_path / f"done{s}").exists() for s in (1, 2)
                ):
                    time.sleep(0.01)
                time.sleep(0.5)
                os._exit(3)
            record = real(config, seed)
            (tmp_path / f"done{seed}").touch()
            return record

        monkeypatch.setattr(harness, "run_experiment", run_or_die)
        cpus(monkeypatch, 2)
        config = small_config(seeds=(1, 2, 3))
        report = sweep([config])
        assert multiprocessing.active_children() == []
        assert [c.seed for c in report.cells] == [1, 2, 3]
        for cell in report.cells[:2]:
            assert cell.error is None
            assert cell.record.to_csv() == real(config, cell.seed).to_csv()
        assert report.cells[2].record is None
        assert report.cells[2].error.startswith("BrokenProcessPool: ")
        assert len(report.bands[0]["n"]) == max(c.record.iterations for c in report.cells[:2])


class TestOracle:
    def test_strict_optimum_is_stable(self):
        game, cmap = load_game_spec_dict({"actions": [2], "utilities": [[0.0, 1.0]]})
        report = oracle_report(game, cmap, wake=0.5)
        assert report.stable == ((1,),)
        assert "stochastically stable" in report.to_text()

    def test_separable_2x2_stable_set_is_potential_argmax(self):
        game, cmap = load_game_spec_dict(
            {
                "actions": [2, 2],
                "utilities": [[0.0, 0.0, 1.0, 1.0], [0.0, 0.8, 0.0, 0.8]],
            }
        )
        report = oracle_report(game, cmap, wake=0.5)
        assert report.stable == ((1, 1),)
        assert report.identity_report is not None
        assert report.identity_report.ok

    def test_non_separable_notes_the_skip(self):
        game, cmap = load_game_spec_dict(
            {
                "actions": [2, 2],
                "utilities": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]],
            }
        )
        report = oracle_report(game, cmap, wake=0.5)
        assert report.identity_report is None
        assert "skipped" in report.separability_note
        assert report.stable  # coordination equilibria survive

    def test_csv_outputs_parse(self):
        game, cmap = load_game_spec_dict({"actions": [2], "utilities": [[0.0, 1.0]]})
        report = oracle_report(game, cmap)
        lines = report.resistances_csv().strip().splitlines()
        assert lines[0] == "source,target,deviators,resistance"
        assert len(lines) == 3  # both ordered pairs
        stat = report.stationary_csv().strip().splitlines()
        assert len(stat) == 3  # header + two states

    @pytest.mark.parametrize(
        "reachable",
        [
            [[(1,), (0,), (3,), (2,)]],  # two closed classes
            [[(1,), (2,), (3,), (0,)]],  # one cycle: 0 -> 1 without 1 -> 0
        ],
    )
    def test_rejects_a_disconnected_or_asymmetric_map(self, reachable):
        game, _ = load_game_spec_dict({"actions": [4], "utilities": [[0.0, 1.0, 2.0, 3.0]]})
        with pytest.raises(ValueError, match="connected and symmetric"):
            oracle_report(game, ConstrainedActionMap.from_lists(reachable))

    @pytest.mark.parametrize(
        "reachable, detail",
        [
            ([[(0, 1), (0, 1)], [(1,), (0,), (3,), (2,)]], "player 1's map is not strongly connected"),
            ([[(0, 1), (0, 1)], [(1,), (2,), (0,)]], "player 1 may move 0 -> 1 but not 1 -> 0"),
        ],
        ids=["disconnected", "asymmetric"],
    )
    def test_refusal_names_the_first_offending_player(self, reachable, detail):
        k = len(reachable[1])
        game, _ = load_game_spec_dict({"actions": [2, k], "utilities": [[0.0] * 2 * k] * 2})
        with pytest.raises(ValueError, match=f"connected and symmetric for the oracle: {detail}$"):
            oracle_report(game, ConstrainedActionMap.from_lists(reachable))

    def test_no_map_means_the_complete_map(self):
        game, cmap = load_game_spec_dict({"actions": [3], "utilities": [[0.0, 2.0, 1.0]]})
        assert cmap.reachable == ConstrainedActionMap.complete(game).reachable
        implied = oracle_report(game, None, noise_levels=(0.1, 0.01))
        given_map = oracle_report(game, cmap, noise_levels=(0.1, 0.01))
        assert implied.stable == given_map.stable == ((1,),)
        assert np.array_equal(implied.masses, given_map.masses)
        assert implied.resistances == given_map.resistances


def load_game_spec_dict(raw):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.yaml"
        path.write_text(yaml.safe_dump(raw))
        return load_game_spec(path)


class TestGameSpecs:
    def test_label_based_actions(self):
        game, _ = load_game_spec_dict(
            {
                "players": ["row", "column"],
                "actions": [["l", "r"], ["u", "d"]],
                "utilities": [[0, 1, 2, 3], [3, 2, 1, 0]],
            }
        )
        assert [game.n_actions(i) for i in range(game.n_players)] == [2, 2]
        assert game.utility(0, (1, 0)) == 2.0

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"actions": [2], "utilities": [[0, 1]], "extra": 1}))
        with pytest.raises(ConfigError, match="extra"):
            load_game_spec(path)

    def test_wrong_table_length_rejected(self):
        with pytest.raises(ConfigError, match="length"):
            load_game_spec_dict({"actions": [2, 2], "utilities": [[0, 1, 2], [0, 1, 2, 3]]})

    def test_builtin_coverage_game(self):
        game, cmap = load_game_spec_dict(
            {"builtin": "coverage", "grid_size": 3, "robots": 2}
        )
        assert game.n_players == 2
        assert game.n_actions(0) == 9
        report = oracle_report(game, cmap, wake=0.5, noise_levels=(0.1, 0.01))
        assert report.stable


class TestAllCellUtilities:
    def test_vectorized_map_matches_scalar_utility_everywhere(self):
        from potlearn.harness import _all_cell_utilities

        # The benchmark traces the all-cell row under the harness name.
        assert _all_cell_utilities is cov.utility_row
        field = generate_scenario(5, 10)
        world = cov.CoverageWorld.create(field, 3, np.random.default_rng(2))
        cov.commit_positions(world, [(2, 3), (3, 4), (8, 8)])  # overlapping pair + loner
        for robot, cell in ((1, (2, 2)), (1, (4, 4)), (1, (9, 9)), (2, (0, 0))):
            cov.lay_flag(world, robot, cell)
        table = _all_cell_utilities(world, 0, None)
        for ix in range(10):
            for iy in range(10):
                direct = cov.utility(
                    world, 0, (ix, iy), world.positions[0], enforce_reachable=False
                )
                assert table[ix, iy] == pytest.approx(direct, abs=1e-12)


class TestRegressionBaselines:
    def test_psblll_covers_most_of_the_field_on_narrow_targets(self):
        # seeded sweep baseline: 10 restarts on a three-target field reach at
        # least 60% of the total mass in at least 8 cases within 1e4 steps
        passes = 0
        for seed in range(10):
            config = ExperimentConfig(
                algorithm="psblll",
                grid_size=40,
                robots=5,
                iterations=10_000,
                temperature=0.005,
                scenario_components=NARROW_COMPONENTS,
                steady_window=500,
                steady_tol=1e-6,
            )
            record = run_experiment(config, seed)
            assert record.iterations <= 10_000
            passes += record.final_covered() >= 0.6 * record.field_total_mass
        assert passes >= 8

    def test_soql_coverage_trend_improves_after_burn_in(self):
        # 10-window moving average of covered worth trends upward: the value
        # at the end of a seeded run is at least its level after burn-in
        config = ExperimentConfig(
            algorithm="soql",
            grid_size=16,
            robots=3,
            iterations=1500,
            scenario_components=(
                {"weight": 0.5, "mean": [4.0, 4.0], "cov": [[1.4, 0.0], [0.0, 1.4]]},
                {"weight": 0.5, "mean": [12.0, 11.0], "cov": [[1.5, 0.0], [0.0, 1.5]]},
            ),
            steady_window=400,
            steady_tol=1e-6,
        )
        record = run_experiment(config, seed=2)
        series = np.asarray(record.covered)
        window = 10
        moving = np.convolve(series, np.ones(window) / window, mode="valid")
        burn = len(moving) // 5
        assert moving[-1] >= moving[burn] - 1e-12
        assert moving[-1] >= np.median(moving[:burn])

    def test_zero_worth_field_keeps_coverage_at_zero(self):
        # degenerate environment: a far-away narrow target leaves the visited
        # region worthless; movement costs only ever reduce the potential
        config = ExperimentConfig(
            algorithm="psblll",
            grid_size=30,
            robots=2,
            iterations=100,
            scenario_components=(
                {"weight": 1.0, "mean": [28.0, 28.0], "cov": [[0.4, 0.0], [0.0, 0.4]]},
            ),
        )
        record = run_experiment(config, seed=12)
        world_field = config.scenario()
        # robots placed by seed 12 start far from the corner target
        assert record.covered[0] <= 1e-6
        assert max(record.covered) <= 1e-4
        assert all(p <= 1e-4 for p in record.potential)
