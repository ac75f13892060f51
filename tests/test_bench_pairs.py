"""The output parsing of `scripts/bench_pairs.py`, on lines in the format
`perfbench/run.py` prints."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RUN = """\
environment: {"nproc": 2}
workload estimated-field: 2 repetition(s), 8 set-up samples
  named values, scaled to the nominal host speed (raw values below):
  setup_s            0.337477 s
  psblll_iter_us     178.586 us/iter
  blll_iter_us       n/a (not run on this workload)
  model_search_s     0.214915 s
  peak_rss_mb        51.8848 MB
  fail_ratio         0/24 = 0 failed/attempted
  end-to-end unit_cost_us: 6195.23 us
  host slowdown 1.233 (median reference-kernel time / 0.08 s)
  repetition 0 raw: model_search_s 0.277695, psblll_iter_us 279.989
  cells (informational; positions digest of the x/y columns):
    psblll seed 0: 944 iterations, positions sha256 99888d5e
    psblll seed 1: 349 iterations, positions sha256 1ffa492f
{"correct": true}
""".splitlines()


def test_named_values_skip_missing_and_ratio_lines():
    assert bench_pairs.named_values(RUN) == {
        "setup_s": (0.337477, "s"),
        "psblll_iter_us": (178.586, "us/iter"),
        "model_search_s": (0.214915, "s"),
        "peak_rss_mb": (51.8848, "MB"),
    }


def test_cell_digests_read_iterations_and_digest():
    assert bench_pairs.cell_digests(RUN) == {
        "psblll seed 0": "944 iterations, 99888d5e",
        "psblll seed 1": "349 iterations, 1ffa492f",
    }


@pytest.mark.parametrize(
    "edit,differing",
    [
        (None, []),
        (("sha256 1ffa492f", "sha256 1ffa4930"), ["psblll seed 1"]),
        (("349 iterations", "350 iterations"), ["psblll seed 1"]),
        (("    psblll seed 0: 944 iterations, positions sha256 99888d5e", ""), ["psblll seed 0"]),
    ],
    ids=["same", "digest", "iterations", "missing"],
)
def test_compare_cells(edit, differing):
    change = RUN if edit is None else [line.replace(*edit) for line in RUN]
    assert bench_pairs.compare_cells(RUN, change) == {"cells": 2, "differing": differing}


def test_summarise_named_keeps_values_every_run_printed():
    one = bench_pairs.named_values(RUN)
    other = {**one, "model_search_s": (0.2, "s")}
    del other["setup_s"]
    named = bench_pairs.summarise_named({"parent": [one, one], "change": [one, other]})
    assert set(named) == {"psblll_iter_us", "model_search_s", "peak_rss_mb"}
    assert named["model_search_s"]["unit"] == "s"
    assert named["model_search_s"]["parent"]["median"] == 0.214915
    assert named["model_search_s"]["change"]["values"] == [0.214915, 0.2]


def test_summarise_splits_each_side_by_position_in_the_pair():
    gated = [{"name": "unit_cost_us", "unit": "us", "better": "lower"}]

    def run(value):
        return {"metrics": {"unit_cost_us": {"value": value}}}

    runs = {"parent": [run(v) for v in (110, 100, 114, 98)], "change": [run(v) for v in (90, 96, 89, 97)]}
    placed = {
        side: [{"pair": k, "position": ("first", "second")[(k + first) % 2]} for k in range(4)]
        for side, first in (("parent", 0), ("change", 1))
    }
    metric = bench_pairs.summarise(gated, runs, placed)["unit_cost_us"]
    assert metric["by_position"] == {
        "parent": {"first": 112, "second": 99},
        "change": {"first": 96.5, "second": 89.5},
    }
    assert metric["change_wins"] == 4
    single = bench_pairs.summarise(gated, {s: r[:1] for s, r in runs.items()}, {s: p[:1] for s, p in placed.items()})
    assert single["unit_cost_us"]["by_position"] == {"parent": {"first": 110}, "change": {"second": 90}}


def test_summarise_named_gives_the_relative_change_and_the_change_wins():
    def run(iter_us):
        lines = [line.replace("178.586", iter_us) for line in RUN]
        return bench_pairs.named_values(lines)

    parent = [run(v) for v in ("200", "180", "190")]
    change = [run(v) for v in ("150", "185", "160")]
    named = bench_pairs.summarise_named({"parent": parent, "change": change})
    iter_us = named["psblll_iter_us"]
    assert iter_us["unit"] == "us/iter"
    assert iter_us["parent"]["median"] == 190.0 and iter_us["change"]["median"] == 160.0
    assert iter_us["relative_change"] == 160.0 / 190.0 - 1.0
    assert iter_us["change_wins"] == 2
    assert named["setup_s"]["relative_change"] == 0.0 and named["setup_s"]["change_wins"] == 0
