#!/usr/bin/env python3
"""The paper's three comparisons, each two learners on paired seeds.

loglinear is psblll against blll (fig5), qlearning soql against ql (fig7), and
field psblll on learned worth models against the known field
(configs/psblll_estimated.yaml).  Each study is one `harness.sweep`, written to
<study>_band.csv and .svg; claims.csv, also printed, has one row per study and
learner.  Coverage is covered worth over field mass; to90_mean is the first
iteration at 90% of the final value; steady counts runs stopped by steady state;
at_least_other counts paired seeds where this learner ends at or above the other;
components_max is the largest final component count of any robot (estimated
field).  A failed cell is left out of its row and named on stderr; exit code 1.
"""
import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from potlearn import harness

ROOT = Path(__file__).resolve().parents[1]
# study: config file, seeds, and each learner's label and overrides.  The fig5
# and fig7 settings are read from the benchmark's files, so they exist once.
STUDIES = {
    "loglinear": ("perfbench/configs/fig5.yaml", range(10),
                  (("psblll", {"algorithm": "psblll"}), ("blll", {"algorithm": "blll"}))),
    "qlearning": ("perfbench/configs/fig7.yaml", range(5),
                  (("soql", {"algorithm": "soql"}), ("ql", {"algorithm": "ql"}))),
    "field": ("configs/psblll_estimated.yaml", range(8),
              (("estimated-field", {}), ("known-field", {"environment": "known-field"}))),
}
COLUMNS = ("study", "learner", "seeds", "final_mean", "final_min", "final_max", "best_mean",
           "to90_mean", "length_mean", "steady", "at_least_other", "components_max")


def study_configs(study, seeds, iterations):
    """The study's two configs on `seeds`, capped at `iterations` if given."""
    path, _, learners = STUDIES[study]
    base = harness.ExperimentConfig.from_yaml(ROOT / path)
    cap = {} if iterations is None else {"iterations": iterations}
    return [dataclasses.replace(base, seeds=tuple(seeds), **over, **cap) for _, over in learners]


def reach90(record):
    bar = 0.9 * record.final_covered()
    return next(n for n, c in zip(record.n, record.covered) if c >= bar)


def study_rows(study, report, configs):
    runs = [{c.seed: c.record for c in report.cells if c.config_index == k and c.record}
            for k in range(len(configs))]
    rows = []
    for k, (config, mine) in enumerate(zip(configs, runs)):
        rows.append({"study": study, "learner": report.labels[k],
                     "seeds": f"{len(mine)}/{len(config.seeds)}"})
        if not mine:
            continue
        records, other = list(mine.values()), runs[1 - k]
        finals = [r.final_covered() / r.field_total_mass for r in records]
        paired = [s for s in mine if s in other]
        wins = sum(mine[s].final_covered() >= other[s].final_covered() for s in paired)
        rows[-1].update(
            final_mean=float(np.mean(finals)), final_min=min(finals), final_max=max(finals),
            best_mean=float(np.mean([max(r.covered) / r.field_total_mass for r in records])),
            to90_mean=float(np.mean([reach90(r) for r in records])),
            length_mean=float(np.mean([r.iterations for r in records])),
            steady=sum(harness.steady_state(r.covered, config.steady_window, config.steady_tol
                                            * r.field_total_mass) for r in records),
            at_least_other=f"{wins}/{len(paired)}",
        )
        if config.environment == "estimated-field":  # each model check snapshots every robot
            counts = [s["components"] for r in records for s in r.estimates[-config.robots:]]
            rows[-1]["components_max"] = max(counts, default=1)
    return rows


def show(value, key):
    if isinstance(value, float):
        return f"{value:.0f}" if key in ("to90_mean", "length_mean") else f"{value:.4f}"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, help="run the first N seeds of each study")
    parser.add_argument("--iterations", type=int, help="iteration cap of every run")
    parser.add_argument("--out-dir", type=Path, default=Path("out/claims"))
    args = parser.parse_args(argv)
    if any(n is not None and n < 1 for n in (args.seeds, args.iterations)):
        parser.error("--seeds and --iterations take positive integers")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    table, failed = [], []
    for study, (_, seeds, learners) in STUDIES.items():
        configs = study_configs(study, list(seeds)[: args.seeds], args.iterations)
        report = harness.sweep(configs, labels=[label for label, _ in learners])
        (args.out_dir / f"{study}_band.csv").write_text(harness.sweep_csv(report))
        (args.out_dir / f"{study}_band.svg").write_text(harness.sweep_svg(report, title=study))
        failed += [f"{study} {report.labels[c.config_index]} seed {c.seed} failed: {c.error}"
                   for c in report.failures()]
        table += study_rows(study, report, configs)
    with open(args.out_dir / "claims.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
    lines = [COLUMNS] + [[show(row.get(key, ""), key) for key in COLUMNS] for row in table]
    widths = [max(len(line[j]) for line in lines) for j in range(len(COLUMNS))]
    for line in lines:
        print("  ".join(s.rjust(w) for s, w in zip(line, widths)).rstrip())
    print(f"wrote {args.out_dir / 'claims.csv'} and each study's band CSV and SVG")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
