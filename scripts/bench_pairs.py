#!/usr/bin/env python3
"""Alternating parent/change pairs of the committed benchmark, summarised as JSON.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --out BENCH_<n>.json [--seed S] [--logs DIR]

Each pair runs `python3 perfbench/run.py --workload W --seed S`, unmodified,
once in each checkout; the first run of a pair alternates between the two
sides so that host drift falls on both.  Only the last line of each run's
output (the JSON object of end-to-end metrics), the `environment:` line, the
`host slowdown` line, the named-value lines and the `positions sha256` cell
lines are read.  For each gated metric of the change's BENCHMARK.json the
summary holds the median and quartiles per side, the relative change of the
medians and the number of pairs in which the change was better; `named`
holds the same for each named value every run printed, lower counting as
better.  `positions` compares the cell lines (sweep, seed, iteration count
and positions digest) of the two runs of every pair: a pair matches when
both printed the same cells, and each mismatch is printed as it happens.
`runs` lists, per side and in pair order, whether each run went first or
second in its pair and its host-slowdown reading, so order effects and
drift of the slowdown divisor can be read from the file; each gated
metric's `by_position` holds, per side, the median of its first-position
and of its second-position runs.  The entry replaces
any entry of the same workload and seed already in `--out`, so one file can
hold several workloads.  `--logs` keeps every run's full output.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ENV_PREFIX = "environment: "
SLOWDOWN_PREFIX = "host slowdown "
# `  psblll_iter_us     277.1 us/iter`; n/a and failed/attempted lines do not match
NAMED_LINE = re.compile(r"^  ([a-z0-9_]+) +([-+.0-9e]+) (\S+)$")
# `    psblll seed 3: 400 iterations, positions sha256 <hex>`
CELL_LINE = re.compile(r"^ +(\S+ seed \d+): (\d+ iterations), positions sha256 ([0-9a-f]+)$")


def named_values(lines: list[str]) -> dict[str, tuple[float, str]]:
    """The named values a run printed, as (value, unit) by name."""
    return {m[1]: (float(m[2]), m[3]) for m in map(NAMED_LINE.match, lines) if m}


def cell_digests(lines: list[str]) -> dict[str, str]:
    """Iteration count and positions digest of every cell a run printed, by cell."""
    return {m[1]: f"{m[2]}, {m[3]}" for m in map(CELL_LINE.match, lines) if m}


def run_once(checkout: Path, workload: str, seed: int) -> tuple[str, float | None, dict, str]:
    """One benchmark run in `checkout`: its environment line, host-slowdown
    reading (None if the run printed none), last JSON line and full output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((line[len(ENV_PREFIX):] for line in lines if line.startswith(ENV_PREFIX)), "")
    slowdown = next(
        (
            float(line.strip()[len(SLOWDOWN_PREFIX):].split()[0])
            for line in lines
            if line.strip().startswith(SLOWDOWN_PREFIX)
        ),
        None,
    )
    return env, slowdown, json.loads(lines[-1]), proc.stdout


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the sorted values as numpy does."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def by_position(values: list[float], placed: list[dict]) -> dict:
    """Median of the runs that went first in their pair and of those that went second."""
    return {
        position: statistics.median(v for v, p in zip(values, placed) if p["position"] == position)
        for position in ("first", "second")
        if any(p["position"] == position for p in placed)
    }


def summarise(gated: list[dict], runs: dict[str, list[dict]], placed: dict[str, list[dict]]) -> dict:
    metrics = {}
    for metric in gated:
        name = metric["name"]
        side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(side["parent"], side["change"]))
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "relative_change": change["median"] / parent["median"] - 1.0,
            "change_wins": wins,
            "by_position": {s: by_position(side[s], placed[s]) for s in runs},
        }
    return metrics


def summarise_named(named: dict[str, list[dict[str, tuple[float, str]]]]) -> dict:
    """Median and quartiles per side of each named value every run printed,
    the relative change of the medians and the number of pairs in which the
    change read lower (every named value is a time or a size)."""
    common = set.intersection(*(set(v) for runs in named.values() for v in runs))
    out = {}
    for name in sorted(common):
        side = {s: [v[name][0] for v in named[s]] for s in named}
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        out[name] = {
            "unit": named["change"][0][name][1],
            "parent": parent,
            "change": change,
            "relative_change": change["median"] / parent["median"] - 1.0,
            "change_wins": sum(c < p for p, c in zip(side["parent"], side["change"])),
        }
    return out


def compare_cells(parent: list[str], change: list[str]) -> dict:
    """The number of cells the two runs of a pair printed, and the cells whose
    iteration count or positions digest differ between them (or that one
    run lacks)."""
    p, c = cell_digests(parent), cell_digests(change)
    cells = sorted(p.keys() | c.keys())
    return {"cells": len(cells), "differing": [x for x in cells if p.get(x) != c.get(x)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--logs", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    gated = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    placed: dict[str, list[dict]] = {"parent": [], "change": []}
    named: dict[str, list[dict]] = {"parent": [], "change": []}
    lines: dict[str, list[str]] = {}
    positions = []
    environments = set()
    if args.logs:
        args.logs.mkdir(parents=True, exist_ok=True)
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for position, side in zip(("first", "second"), order):
            env, slowdown, result, output = run_once(sides[side], args.workload, args.seed)
            environments.add(env)
            runs[side].append(result)
            lines[side] = output.splitlines()
            named[side].append(named_values(lines[side]))
            placed[side].append({"pair": k, "position": position, "host_slowdown": slowdown})
            if args.logs:
                (args.logs / f"{args.workload}-seed{args.seed}-{side}-{k}.txt").write_text(output)
            value = result["metrics"]["unit_cost_us"]["value"]
            print(f"pair {k} {side}: unit_cost_us {value:.6g}", flush=True)
        positions.append({"pair": k, **compare_cells(lines["parent"], lines["change"])})
        if positions[-1]["differing"]:
            differing = ", ".join(positions[-1]["differing"])
            print(f"pair {k}: positions sha256 differ: {differing}", flush=True)

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "alternating, parent first in even pairs",
        "environment": sorted(environments),
        "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
        "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
        "metrics": summarise(gated, runs, placed),
        "named": summarise_named(named),
        "positions": {
            "pairs_matching": sum(not p["differing"] for p in positions),
            "pairs_differing": [p["pair"] for p in positions if p["differing"]],
            "per_pair": positions,
        },
        "runs": placed,
    }
    existing = json.loads(args.out.read_text()) if args.out.exists() else []
    kept = [e for e in existing if (e["workload"], e["seed"]) != (args.workload, args.seed)]
    args.out.write_text(json.dumps(kept + [entry], indent=1) + "\n")
    for name, m in entry["metrics"].items():
        print(
            f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
            f"({m['relative_change']:+.1%}), change better in {m['change_wins']}/{args.pairs}"
        )
        for side, medians in m["by_position"].items():
            print(f"  {side} by position: " + ", ".join(f"{k} {v:.6g}" for k, v in medians.items()))
    for name, m in entry["named"].items():
        print(
            f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} {m['unit']} "
            f"({m['relative_change']:+.1%}), change lower in {m['change_wins']}/{args.pairs}"
        )
    matching, differing = (entry["positions"][k] for k in ("pairs_matching", "pairs_differing"))
    print(
        f"positions sha256: {matching}/{args.pairs} pairs match"
        + (f"; pairs {differing} differ" if differing else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
