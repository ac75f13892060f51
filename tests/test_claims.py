"""`scripts/claims.py`: a tiny report, its columns against the records of the
sweeps it ran, and a failed cell."""
import csv
import importlib.util
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from potlearn import harness

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claims.py"
spec = importlib.util.spec_from_file_location("claims", SCRIPT)
claims = importlib.util.module_from_spec(spec)
spec.loader.exec_module(claims)

TINY = ["--seeds", "2", "--iterations", "40"]


def read_rows(out):
    with open(out / "claims.csv", newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The exit code and output directory of one tiny report, and the report
    of each sweep it ran."""
    out = tmp_path_factory.mktemp("claims")
    reports, sweep = [], harness.sweep

    def recording(*args, **kwargs):
        reports.append(sweep(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "sweep", recording)
        code = claims.main([*TINY, "--out-dir", str(out)])
    return code, out, reports


def test_a_tiny_report_writes_every_row_and_band(tiny):
    code, out, reports = tiny
    assert code == 0
    assert [(r["study"], r["learner"]) for r in read_rows(out)] == [
        ("loglinear", "psblll"),
        ("loglinear", "blll"),
        ("qlearning", "soql"),
        ("qlearning", "ql"),
        ("field", "estimated-field"),
        ("field", "known-field"),
    ]
    assert len(reports) == 3
    for study, report in zip(claims.STUDIES, reports):
        assert (out / f"{study}_band.csv").read_text() == harness.sweep_csv(report)
        ET.fromstring((out / f"{study}_band.svg").read_text())


def test_columns_are_computed_from_the_sweeps_records(tiny):
    _, out, reports = tiny
    rows = iter(read_rows(out))
    for report in reports:
        learners = [{c.seed: c.record for c in report.cells if c.config_index == k} for k in (0, 1)]
        for k, runs in enumerate(learners):
            row, other = next(rows), learners[1 - k]
            records = [runs[s] for s in (0, 1)]
            finals = [r.covered[-1] / r.field_total_mass for r in records]
            first90 = [r.n[np.argmax(np.array(r.covered) >= 0.9 * r.covered[-1])] for r in records]
            wins = sum(runs[s].covered[-1] >= other[s].covered[-1] for s in (0, 1))
            expected = {
                "seeds": "2/2",
                "final_mean": sum(finals) / 2,
                "final_min": min(finals),
                "final_max": max(finals),
                "best_mean": sum(max(r.covered) / r.field_total_mass for r in records) / 2,
                "to90_mean": sum(first90) / 2,
                "length_mean": sum(r.iterations for r in records) / 2,
                # no 40-iteration run can hold a 300- or 500-iteration steady window
                "steady": sum(r.iterations < 40 for r in records),
                "at_least_other": f"{wins}/2",
            }
            for key, value in expected.items():
                if isinstance(value, float):
                    assert float(row[key]) == pytest.approx(value, rel=1e-12), key
                else:
                    assert row[key] == str(value), key
            # 40 iterations end before the first model check, so every model keeps one component
            estimated = records[0].environment == "estimated-field"
            assert not estimated or all(r.estimates == [] for r in records)
            assert row["components_max"] == ("1" if estimated else "")


def test_a_failed_cell_is_left_out_of_its_row_and_named(tmp_path, monkeypatch, capsys):
    run = harness.run_experiment

    def failing(config, seed):
        if config.algorithm == "ql" and seed == 1:
            raise RuntimeError("injected failure")
        return run(config, seed)

    monkeypatch.setattr(harness, "run_experiment", failing)
    assert claims.main([*TINY, "--out-dir", str(tmp_path)]) == 1
    rows = {(r["study"], r["learner"]): r for r in read_rows(tmp_path)}
    assert rows["qlearning", "ql"]["seeds"] == "1/2"
    assert rows["qlearning", "ql"]["at_least_other"].endswith("/1")
    assert rows["qlearning", "soql"]["at_least_other"].endswith("/1")
    assert all(r["seeds"] == "2/2" for key, r in rows.items() if key != ("qlearning", "ql"))
    err = capsys.readouterr().err
    assert "qlearning ql seed 1 failed: RuntimeError: injected failure" in err


@pytest.mark.parametrize("flag", ["--seeds", "--iterations"])
def test_counts_below_one_are_rejected(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        claims.main([flag, "0", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
