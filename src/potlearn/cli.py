"""Command-line front end: run, sweep, oracle, scenario."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path

import yaml

from . import harness, stability
from .coverage import render_svg
from .svgplot import Series, line_plot
from .worthfield import generate_scenario


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",")) if text.strip() else ()


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_failed_proposals(failed: Counter[str]) -> None:
    """One line of component-count proposals that raised, by exception type."""
    if failed:
        counts = ", ".join(f"{k} {v}" for k, v in sorted(failed.items()))
        print(f"component-count proposals failed: {counts}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = harness.ExperimentConfig.from_yaml(args.config)
    if args.iterations is not None:
        config = dataclasses.replace(config, iterations=args.iterations)
    seed = _check_seed(args.seed) if args.seed is not None else config.seeds[0]
    record = harness.run_experiment(config, seed)
    out = _out_dir(args.out_dir)
    stem = f"run_{config.algorithm}_{seed}"
    record.write_csv(out / f"{stem}.csv")
    svg = line_plot(
        [Series(label=config.algorithm, x=record.n, y=record.covered)],
        title=f"{config.algorithm} seed {seed}",
        xlabel="iteration",
        ylabel="covered worth",
    )
    (out / f"{stem}.svg").write_text(svg)
    written = [out / f"{stem}.csv", out / f"{stem}.svg"]
    if record.positions:
        world_svg = render_svg(
            config.scenario(), record.final_positions(), record.final_flags
        )
        (out / f"{stem}_world.svg").write_text(world_svg)
        written.append(out / f"{stem}_world.svg")
    if record.estimates:
        (out / f"{stem}_estimates.csv").write_text(record.estimates_csv())
        written.append(out / f"{stem}_estimates.csv")
    print(
        f"{config.algorithm} seed {seed}: {record.iterations} iterations, "
        f"final covered worth {record.final_covered():.6f} "
        f"(field mass {record.field_total_mass:.6f}), wall {record.wall_time:.2f}s"
    )
    _print_failed_proposals(record.failed_proposals)
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = [harness.ExperimentConfig.from_yaml(path) for path in args.config]
    report = harness.sweep(configs)
    out = _out_dir(args.out_dir)
    (out / "sweep.csv").write_text(harness.sweep_csv(report))
    (out / "sweep.svg").write_text(harness.sweep_svg(report))
    ok = [c for c in report.cells if c.error is None]
    print(f"sweep: {len(ok)}/{len(report.cells)} cells succeeded")
    _print_failed_proposals(sum((c.record.failed_proposals for c in ok), Counter()))
    for cell in report.failures():
        print(
            f"  config {cell.config_index} seed {cell.seed} failed: {cell.error}",
            file=sys.stderr,
        )
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.svg'}")
    return 0 if not report.failures() else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    game, constraints = harness.load_game_spec(args.game)
    report = harness.oracle_report(
        game,
        constraints,
        wake=args.wake,
        noise_levels=_parse_floats(args.noise),
        mass_threshold=args.mass_threshold,
    )
    out = _out_dir(args.out_dir)
    (out / "oracle.txt").write_text(report.to_text())
    (out / "resistances.csv").write_text(report.resistances_csv())
    (out / "stationary.csv").write_text(report.stationary_csv())
    print(report.to_text())
    print(f"wrote {out / 'oracle.txt'}, {out / 'resistances.csv'}, {out / 'stationary.csv'}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    try:
        lo, hi = (int(v) for v in args.components.split(","))
    except ValueError:
        msg = f"--components must be two integers lo,hi, got {args.components!r}"
        raise ValueError(msg) from None
    field_model = generate_scenario(_check_seed(args.seed), args.grid_size, (lo, hi))
    out = _out_dir(args.out_dir)
    (out / "scenario.yaml").write_text(yaml.safe_dump(field_model.to_dict()))
    raster = field_model.raster()
    lines = [",".join(repr(float(v)) for v in row) for row in raster]
    (out / "raster.csv").write_text("\n".join(lines) + "\n")
    print(
        f"scenario seed {args.seed}: {field_model.n_components} components on a "
        f"{args.grid_size}x{args.grid_size} grid, total mass {field_model.total_mass():.6f}"
    )
    print(f"wrote {out / 'scenario.yaml'} and {out / 'raster.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potlearn",
        description="Multi-agent learning experiments on potential games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single seeded experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--iterations", type=int, default=None, help="override the iteration cap")
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run configs over their seed lists")
    p_sweep.add_argument(
        "--config",
        required=True,
        action="append",
        help="config file; repeat the flag to sweep several configs side by side",
    )
    p_sweep.add_argument("--out-dir", default="out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="stability analysis of a small game")
    p_oracle.add_argument("--game", required=True, help="YAML game spec")
    p_oracle.add_argument("--noise", default="0.1,0.01,0.001", help="decreasing noise levels")
    p_oracle.add_argument("--wake", type=float, default=0.5, help="per-player wake probability")
    p_oracle.add_argument("--mass-threshold", type=float, default=0.05)
    p_oracle.add_argument("--out-dir", default="out")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_scn = sub.add_parser("scenario", help="generate and dump a worth field")
    p_scn.add_argument("--seed", type=int, required=True)
    p_scn.add_argument("--grid-size", type=int, default=40)
    p_scn.add_argument("--components", default="1,5", help="inclusive component count range")
    p_scn.add_argument("--out-dir", default="out")
    p_scn.set_defaults(func=_cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        harness.ConfigError,
        FileNotFoundError,
        ValueError,
        stability.StationaryConvergenceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
