#!/usr/bin/env python3
"""Model-based coverage demo: learners decide on an estimated worth field.

Robots log observations as they move, fit mixtures online (with periodic
split/merge component-count proposals), and evaluate candidate moves on
their own estimates while bookkeeping tracks the true field.  The run is
`configs/psblll_estimated.yaml`; each flag given overrides its config value.
Emits the run CSV, the per-boundary estimate snapshots, and the final world
rendering.
"""
import argparse
import dataclasses
from pathlib import Path

from potlearn import coverage
from potlearn.harness import ExperimentConfig, run_experiment

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "psblll_estimated.yaml"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid-size", type=int, default=None)
    parser.add_argument("--robots", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--scenario-seed", type=int, default=None)
    parser.add_argument("--out-dir", default="out/estimated")
    args = parser.parse_args()

    config = ExperimentConfig.from_yaml(CONFIG)
    overrides = {
        key: getattr(args, key)
        for key in ("grid_size", "robots", "iterations", "scenario_seed")
        if getattr(args, key) is not None
    }
    config = dataclasses.replace(config, **overrides)
    seed = config.seeds[0] if args.seed is None else args.seed
    record = run_experiment(config, seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record.write_csv(out / "run.csv")
    (out / "estimates.csv").write_text(record.estimates_csv())
    (out / "world.svg").write_text(
        coverage.render_svg(config.scenario(), record.final_positions(), record.final_flags)
    )
    final_counts = {}
    for snap in record.estimates:
        final_counts[snap["robot"]] = snap["components"]
    print(
        f"{record.iterations} iterations, covered {record.final_covered():.4f} of "
        f"{record.field_total_mass:.4f}; per-robot component counts {final_counts}"
    )
    print(f"wrote {out / 'run.csv'}, {out / 'estimates.csv'}, {out / 'world.svg'}")


if __name__ == "__main__":
    main()
