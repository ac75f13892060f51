import csv
import io
import math
import xml.etree.ElementTree as ET

import pytest
import yaml

from potlearn.cli import main


def write_config(tmp_path, **overrides):
    raw = {
        "algorithm": "psblll",
        "grid_size": 10,
        "robots": 2,
        "iterations": 60,
        "seeds": [1, 2],
        "scenario": {"seed": 4},
    }
    raw.update(overrides)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    csv = (out / "run_psblll_3.csv").read_text()
    assert csv.splitlines()[0].startswith("n,covered,potential")
    ET.fromstring((out / "run_psblll_3.svg").read_text())
    assert "final covered worth" in capsys.readouterr().out


def test_run_iteration_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--iterations", "5", "--out-dir", str(out)]) == 0
    lines = (out / "run_psblll_1.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 rows


def test_negative_iteration_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--iterations", "-5", "--out-dir", str(out)]) == 2
    assert "iterations" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_fractional_robot_count_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, robots=2.5)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "robots" in capsys.readouterr().err


def test_run_reports_failed_proposals(tmp_path, capsys, monkeypatch):
    import numpy as np

    from potlearn import mixtures

    def failing_split(*args, **kwargs):
        raise np.linalg.LinAlgError("singular covariance")

    cfg = write_config(
        tmp_path, environment="estimated-field", params={"model_check_period": 20}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert "proposals failed" not in capsys.readouterr().out
    header = (out / "run_psblll_1.csv").read_text().splitlines()[0]
    monkeypatch.setattr(mixtures, "split_component", failing_split)
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # two robots, three proposal rounds, every one a split of one component
    assert "component-count proposals failed: LinAlgError 6" in lines
    csv = (out / "run_psblll_1.csv").read_text()
    assert csv.splitlines()[0] == header
    assert "LinAlgError" not in csv


def test_run_determinism_bitwise(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--seed", "9", "--out-dir", str(out_a)])
    main(["run", "--config", str(cfg), "--seed", "9", "--out-dir", str(out_b)])
    assert (out_a / "run_psblll_9.csv").read_bytes() == (out_b / "run_psblll_9.csv").read_bytes()


def test_sweep_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "sweep.csv").read_text().startswith("config,label,n,mean,lo,hi")
    ET.fromstring((out / "sweep.svg").read_text())


def test_sweep_writes_each_cells_wall_time_and_failure(tmp_path, monkeypatch):
    from potlearn import harness

    real = harness.run_experiment

    def run_or_raise(config, seed):
        if seed == 2:
            raise ValueError('bad "cell", seed 2\nsecond line')
        return real(config, seed)

    cfg = write_config(tmp_path, seeds=[1, 2, 3])
    out = tmp_path / "out"
    monkeypatch.setattr(harness, "run_experiment", run_or_raise)
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
    rows = list(csv.reader(io.StringIO((out / "sweep_cells.csv").read_text(), newline="")))
    assert rows[0] == ["config", "label", "seed", "iterations", "wall_s", "error"]
    assert [r[:3] for r in rows[1:]] == [["0", "psblll", s] for s in ("1", "2", "3")]
    assert rows[2][3:] == ["", "", 'ValueError: bad "cell", seed 2\nsecond line']
    for row in (rows[1], rows[3]):
        assert row[3] == "60" and float(row[4]) > 0 and row[5] == ""
    report = harness.sweep([harness.ExperimentConfig.from_yaml(cfg)])
    assert (out / "sweep.csv").read_text() == harness.sweep_csv(report)
    assert (out / "sweep.svg").read_text() == harness.sweep_svg(report)


def test_sweep_reports_failed_proposals(tmp_path, capsys, monkeypatch):
    import numpy as np

    from potlearn import mixtures

    def failing_split(*args, **kwargs):
        raise np.linalg.LinAlgError("singular covariance")

    cfg = write_config(
        tmp_path, environment="estimated-field", params={"model_check_period": 20}
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert "proposals failed" not in capsys.readouterr().out
    monkeypatch.setattr(mixtures, "split_component", failing_split)
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # two seeds, two robots, three proposal rounds, every one a split of one component
    assert lines[:2] == [
        "sweep: 2/2 cells succeeded",
        "component-count proposals failed: LinAlgError 12",
    ]


def test_oracle_subcommand(tmp_path, capsys):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"actions": [2], "utilities": [[0.0, 1.0]]}))
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out)]) == 0
    text = (out / "oracle.txt").read_text()
    assert "stochastically stable: (1,)" in text
    assert (out / "resistances.csv").exists()
    assert (out / "stationary.csv").exists()


def test_oracle_rejects_malformed_spec(tmp_path, capsys):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"actions": [2], "utilities": [[0, 1]], "bogus": 3}))
    assert main(["oracle", "--game", str(game)]) == 2
    assert "bogus" in capsys.readouterr().err


GAME_SPECS = {
    "builtin": {"builtin": "coverage", "grid_size": 3, "robots": 2},
    "table": {"actions": [2, 2], "utilities": [[0, 0, 1, 1], [0, 1, 0, 1]]},
}


@pytest.mark.parametrize(
    "kind,key,value",
    [
        ("builtin", "grid_size", 2.5),
        ("builtin", "grid_size", 3.9),
        ("builtin", "robots", 2.5),
        ("builtin", "robots", True),
        ("builtin", "move_cost", math.inf),
        ("builtin", "move_cost", "abc"),
        ("builtin", "cover_radius", math.nan),
        ("builtin", "placement_seed", -1),
        ("table", "actions", [2, 2.5]),
        ("table", "actions", 3),
        ("table", "actions", [2, True]),
        ("table", "players", 2.5),
        ("table", "players", 3),
        ("table", "utilities", [[0, 0, 1, "x"], [0, 1, 0, 1]]),
        ("table", "utilities", [[0, 0, 1, math.nan], [0, 1, 0, 1]]),
        ("table", "players", ["only one"]),
        ("table", "players", True),
    ],
)
def test_oracle_bad_spec_value_exits_2_naming_its_key(tmp_path, capsys, kind, key, value):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({**GAME_SPECS[kind], key: value}))
    assert main(["oracle", "--game", str(game), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        ([1, 2], "must hold a mapping"),
        ({"actions": [2]}, "needs 'actions' and 'utilities'"),
        ({"utilities": [[0, 1]]}, "needs 'actions' and 'utilities'"),
        ({"actions": [2, 2], "utilities": [[0, 0, 1, 1]]}, "one table per player"),
        ({"builtin": "chess"}, "unknown builtin game 'chess'"),
    ],
)
def test_oracle_malformed_spec_exits_2(tmp_path, capsys, spec, message):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump(spec))
    assert main(["oracle", "--game", str(game), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oracle_above_the_dense_limit_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    from potlearn import stability

    # one robot on a 4x4 grid: one own-move kernel of 16 states
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump({"builtin": "coverage", "grid_size": 4, "robots": 1}))
    monkeypatch.setattr(stability, "DENSE_SOLVE_LIMIT", 15)
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out)]) == 2
    assert "16 states, above DENSE_SOLVE_LIMIT = 15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args,name",
    [
        (["--mass-threshold", "nan"], "mass_threshold"),
        (["--mass-threshold", "inf"], "mass_threshold"),
        (["--noise", ""], "noise_levels"),
        (["--mass-threshold", "-1"], "mass_threshold"),
        (["--mass-threshold", "0"], "mass_threshold"),
        (["--mass-threshold", "1.5"], "mass_threshold"),
    ],
)
def test_oracle_bad_argument_exits_2_naming_it(tmp_path, capsys, args, name):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump(GAME_SPECS["builtin"]))
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out), *args]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


UNSOLVABLE_GAMES = {
    # own-action payoffs: the chain is factored per player
    "separable": {"actions": [2, 2], "utilities": [[0, 0, 2, 2], [0, 1.6, 0, 1.6]]},
    # player 0's payoff for "move" depends on player 1: the whole chain is enumerated
    "cross": {"actions": [2, 2], "utilities": [[0, 0, 2, 4], [0, 1.6, 0, 1.6]]},
}


@pytest.mark.parametrize("kind", sorted(UNSOLVABLE_GAMES))
@pytest.mark.parametrize(
    "args,level",
    [
        # no player ever moves
        (["--wake", "0"], "noise level 0.1:"),
        # every downhill switch weight, exp(-1.6 * 690.8) or less, is below the
        # smallest subnormal, so the best profile is absorbing
        (["--noise", "1e-300"], "noise level 1e-300:"),
    ],
)
def test_oracle_unsolvable_chain_exits_2_naming_the_noise_level(
    tmp_path, capsys, kind, args, level
):
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump(UNSOLVABLE_GAMES[kind]))
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {level}")
    assert "reducible" in err
    assert not out.exists()


@pytest.mark.parametrize("best", [0, 1])
def test_oracle_masses_far_below_the_rounding_of_one_are_kept(tmp_path, capsys, best):
    # each player's switch away from its best action weighs exp(-10 / tau) = eps^10
    table = [0, 0, 10, 10] if best else [10, 10, 0, 0]
    spec = {"actions": [2, 2], "utilities": [table, [table[0], table[2]] * 2]}
    game = tmp_path / "game.yaml"
    game.write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    header, *rows = csv.reader(io.StringIO((out / "stationary.csv").read_text()))
    assert header == ["state", "eps_0.1", "eps_0.01", "eps_0.001"]
    mass = {row[0]: [float(v) for v in row[1:]] for row in rows}
    off = 1 - best
    for k, eps in ((1, 1e-2), (2, 1e-3)):
        assert mass[f"({best}, {off})"][k] == pytest.approx(eps**10, rel=1e-6, abs=0)
        assert mass[f"({off}, {best})"][k] == pytest.approx(eps**10, rel=1e-6, abs=0)
        assert mass[f"({off}, {off})"][k] == pytest.approx(eps**20, rel=1e-6, abs=0)


def test_oracle_solve_whose_unnormalised_masses_overflow_is_rescaled(tmp_path, capsys):
    # switch weights near 1e-240 are exact; GTH's unnormalised masses would
    # overflow without the rescale in its back substitution
    game = tmp_path / "game.yaml"
    spec = {"actions": [2, 2], "utilities": [[0, 0, 1, 2], [0, 0.8, 0, 0.8]]}
    game.write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    assert main(["oracle", "--game", str(game), "--out-dir", str(out), "--noise", "1e-300"]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO((out / "stationary.csv").read_text())))
    mass = {state: float(value) for state, value in rows[1:]}
    assert mass["(1, 1)"] == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "key,value", [("em_period", 0), ("temperature", 0.0), ("aic_tau", 0), ("cov_floor", 0.0)]
)
def test_invalid_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, params={key: value})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_nan_scenario_component_exits_2_naming_the_key(tmp_path, capsys):
    component = {"weight": 1.0, "mean": [math.nan, 5.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
    cfg = write_config(tmp_path, scenario={"components": [component]})
    assert ".nan" in cfg.read_text()
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "scenario.components" in capsys.readouterr().err
    assert not out.exists()


def test_non_mapping_scenario_exits_2_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario=[4])
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "scenario must hold a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "scenario"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    out = tmp_path / "out"
    args = ["--config", str(write_config(tmp_path))] if command == "run" else []
    assert main([command, *args, "--seed", "-1", "--out-dir", str(out)]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("components", ["1,5,7", "x", "3", "1,"])
def test_malformed_component_range_exits_2_naming_the_flag(tmp_path, capsys, components):
    out = tmp_path / "out"
    args = ["scenario", "--seed", "5", "--components", components, "--out-dir", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"--components must be two integers lo,hi, got {components!r}" in err
    assert not out.exists()


def test_scenario_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["scenario", "--seed", "5", "--grid-size", "16", "--components", "2,2", "--out-dir", str(out)]
    ) == 0
    dumped = yaml.safe_load((out / "scenario.yaml").read_text())
    assert dumped["grid_size"] == 16
    assert len(dumped["components"]) == 2
    raster_lines = (out / "raster.csv").read_text().strip().splitlines()
    assert len(raster_lines) == 16
    assert len(raster_lines[0].split(",")) == 16
