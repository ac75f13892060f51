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


@pytest.mark.parametrize(
    "key,value", [("em_period", 0), ("temperature", 0.0), ("aic_tau", 0), ("cov_floor", 0.0)]
)
def test_invalid_config_value_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, params={key: value})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "error" in capsys.readouterr().err


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
