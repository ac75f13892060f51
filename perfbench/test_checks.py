"""Tests of the benchmark's own checks and inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from run import END_TO_END, per_layer_units  # noqa: E402

from potlearn import harness  # noqa: E402
from potlearn.stability import build_chain, stationary_distribution  # noqa: E402


def _blll_run():
    config = harness.ExperimentConfig.from_yaml(HERE / "configs" / "fig5.yaml")
    config.algorithm = "blll"
    config.iterations = 300
    record = harness.run_experiment(config, 0)
    field = config.scenario()
    raster = checks.reference_raster(
        [(c.weight, c.mean, c.cov) for c in field.components], config.grid_size
    )
    kwargs = dict(
        algorithm="blll",
        grid=config.grid_size,
        cap=config.iterations,
        window=config.steady_window,
        tol_abs=config.steady_tol * float(raster.sum()),
        raster=raster,
        cover_radius=config.cover_radius,
    )
    return record.to_csv(), kwargs


def _shift(csv_text: str, row: int, column: str, delta: int) -> str:
    """The CSV with one integer cell moved by `delta`."""
    lines = csv_text.split("\n")
    k = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[k] = str(int(cells[k]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_clean_blll_run_passes():
    csv_text, kwargs = _blll_run()
    assert checks.check_run(csv_text, **kwargs) == []


def test_two_cell_jump_is_a_failure():
    csv_text, kwargs = _blll_run()
    lines = csv_text.split("\n")
    x0 = int(lines[150].split(",")[lines[0].split(",").index("x0")])
    bad = _shift(csv_text, 150, "x0", 2 if x0 < 30 else -2)
    fails = checks.check_run(bad, **kwargs)
    assert any("more than one Moore step" in f for f in fails)


def test_covered_mismatch_is_a_failure():
    csv_text, kwargs = _blll_run()
    lines = csv_text.split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    lines[1] = ",".join(cells)
    assert any("covered" in f for f in checks.check_run("\n".join(lines), **kwargs))


def test_early_stop_without_steady_state_is_a_failure():
    csv_text, kwargs = _blll_run()
    kwargs["cap"] = 400  # the 300-row run now reads as stopping early
    assert any("steady state" in f for f in checks.check_run(csv_text, **kwargs))


def test_stationary_vector_off_by_1e6_is_a_failure(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("builtin: coverage\ngrid_size: 3\nrobots: 2\n")
    game, constraints = harness.load_game_spec(spec)
    chain = build_chain(game, 0.5, constraints, 1e-2)
    pi = stationary_distribution(chain)
    assert checks.check_stationary(chain.kernel, pi, "clean") == []
    off = pi.copy()
    off[0] += 1e-6
    off[1] -= 1e-6
    assert checks.check_stationary(chain.kernel, off, "off") != []


def test_mixture_with_bad_covariance_is_a_failure():
    points = np.array([[1.5, 2.5], [3.5, 2.5], [2.5, 4.5]])
    good = checks.check_mixture(
        np.array([1.0]), np.array([[2.5, 3.0]]), np.eye(2)[None], points
    )
    assert good == []
    bad = checks.check_mixture(
        np.array([1.0]), np.array([[2.5, 3.0]]), np.diag([1.0, -1.0])[None], points
    )
    assert bad


def test_feasible_pair_count_matches_moore_neighbourhoods():
    # 4x4 grid: per-axis neighbourhood sizes 2, 3, 3, 2 sum to 10.
    assert checks.moore_pair_counts(4, 2) == (10_000, 10_000 - 256)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload, tmp_path):
    def files(seed, name):
        out = tmp_path / name
        make_inputs(workload, seed, out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert files(0, "a") == files(0, "b")
    assert files(0, "a") != files(1, "c")


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
