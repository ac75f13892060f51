"""One repetition of a benchmark workload, in a fresh interpreter.

Usage (normally started by run.py):

    python3 perfbench/worker.py --inputs DIR --spawn-time T [--rep K] [--setup-only] [--trace FILE]

Imports the program from the checkout's `src/`, builds the configs, logs and
game specs listed in DIR/manifest.json (set-up), then times each operation
of the workload and checks its output.  Set-up time runs from T, the
parent's wall clock just before it started this interpreter, to the first
timed call; with --setup-only the worker stops there.  A sweep that lists
`seeds_per_rep` runs that many of its seeds, chosen by the repetition index K.  With --trace the
layers are wrapped (see tracer.py) before set-up and the aggregates and
spans are written to FILE.  The result is printed as one JSON line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reference_seconds() -> float:
    """Wall time of a fixed kernel, to gauge the host's current speed.

    The kernel mixes what the program spends its time on: Python loops over
    small tuples, sets and lists, short numpy calls, and rank-1 updates of a
    matrix too large for the core's caches, like the GTH elimination.  It
    uses no code of the program, so a change to the program cannot move it.
    It takes about 0.08 s on a quiet 2-core x86 host; shared hosts run
    everything up to twice as slow for minutes at a time, and the parent
    divides timings by this reading to cancel that.  The memory-bound part
    gets the larger share because it tracked those spells best.
    """
    import math

    import numpy as np

    start = time.perf_counter()
    grid = [[(x * 31 + y * 17) % 101 / 101 for y in range(40)] for x in range(40)]
    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    total = 0.0
    for k in range(15_000):
        x, y = (k * 7) % 38 + 1, (k * 13) % 38 + 1
        total += sum(grid[x + dx][y + dy] for dx, dy in offsets)
        if (x + 1, y) not in {(x, y), (y, x)}:
            total += math.dist((x, y), (y, x))
    a = np.arange(400.0)
    for k in range(1_500):
        total += float(np.exp(-a / (k + 1)).sum())
    m = np.full((700, 700), 1e-3)
    for k in range(699, 670, -1):
        m[:k, :k] += np.outer(m[:k, k], m[k, :k])
    total += float(m[0, 0])
    if not math.isfinite(total):
        raise RuntimeError("reference kernel diverged")
    return time.perf_counter() - start


def _positions_digest(csv_text: str) -> str:
    """SHA-256 of the x/y columns of a run CSV, header included."""
    lines = csv_text.strip("\n").split("\n")
    header = lines[0].split(",")
    keep = [k for k, name in enumerate(header) if name[:1] in "xy" and name[1:].isdigit()]
    text = "\n".join(",".join(line.split(",")[k] for k in keep) for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def _record_counts(record) -> tuple[int, int, int]:
    """(iterations, wakes, adoptions) of a run record.

    Wakes come from the `awake` column of log-linear runs; every Q-learner
    robot draws each iteration.  An adoption is a robot whose cell changed
    from one row to the next.
    """
    iterations = record.iterations
    if "awake" in record.diagnostics:
        wakes = int(sum(record.diagnostics["awake"]))
    else:
        wakes = iterations * len(record.positions[0]) if record.positions else 0
    adoptions = sum(
        a != b
        for prev, cur in zip(record.positions, record.positions[1:])
        for a, b in zip(prev, cur)
    )
    return iterations, wakes, adoptions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--rep", type=int, default=0, help="repetition index")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import potlearn
    from potlearn import harness, mixtures, stability

    if not Path(potlearn.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported potlearn from {potlearn.__file__}, not from the checkout")
    import checks

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.op = "setup"
        tracer.install()

    # ---- set-up: everything the timed calls read -------------------------
    inputs = Path(args.inputs)
    manifest = json.loads((inputs / "manifest.json").read_text())
    sweeps = []
    for s in manifest.get("sweeps", []):
        config = harness.ExperimentConfig.from_yaml(inputs / s["config"])
        if "seeds_per_rep" in s:
            k = s["seeds_per_rep"]
            first = args.rep * k % len(config.seeds)
            config.seeds = (config.seeds + config.seeds)[first : first + k]
        sweeps.append((s["name"], config))
    searches = []
    for s in manifest.get("searches", []):
        points = np.load(inputs / s["points"])
        log = mixtures.ObservationLog()
        for p in points:
            log.append(p)
        searches.append((s, points, log, np.random.default_rng(s["rng_seed"])))
    games = [
        (o, *harness.load_game_spec(inputs / o["spec"])) for o in manifest.get("oracle", [])
    ]
    setup_s = time.time() - args.spawn_time
    reference = [reference_seconds()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "reference_s": reference}))
        return 0

    # Chains built inside the oracle calls, kept for the residual check.
    chains: list = []
    if games:
        build = stability.build_chain

        def capture(*a, **k):
            chain = build(*a, **k)
            chains.append(chain)
            return chain

        stability.build_chain = capture

    clock = time.perf_counter
    ops: list[dict] = []
    cells: list[dict] = []
    failures: list[str] = []
    attempted = 0
    totals = {"iterations": 0, "wakes": 0, "adoptions": 0}

    def op(name: str, kind: str, seconds: float, **extra) -> None:
        ops.append({"name": name, "kind": kind, "wall_s": seconds, **extra})
        reference.append(reference_seconds())

    for name, config in sweeps:
        if tracer:
            tracer.op = name
        t = clock()
        report = harness.sweep([config])
        seconds = clock() - t
        if tracer:
            tracer.op = "checks"
        iterations = 0
        field = config.scenario()
        raster = checks.reference_raster(
            [(c.weight, c.mean, c.cov) for c in field.components], config.grid_size
        )
        for cell in report.cells:
            attempted += 1
            label = f"{name} seed {cell.seed}"
            if cell.error is not None or cell.record is None:
                failures.append(f"{label}: {cell.error}")
                continue
            record = cell.record
            csv_text = record.to_csv()
            fails = checks.check_run(
                csv_text,
                algorithm=config.algorithm,
                grid=config.grid_size,
                cap=config.iterations,
                window=config.steady_window,
                tol_abs=config.steady_tol * float(raster.sum()),
                raster=raster,
                cover_radius=config.cover_radius,
            )
            failures += [f"{label}: {f}" for f in fails]
            counts = _record_counts(record)
            iterations += counts[0]
            for key, value in zip(totals, counts):
                totals[key] += value
            cells.append(
                {
                    "sweep": name,
                    "seed": cell.seed,
                    "iterations": record.iterations,
                    "positions_sha256": _positions_digest(csv_text),
                }
            )
        op(name, "sweep", seconds, iterations=iterations)

    for spec, points, log, rng in searches:
        if tracer:
            tracer.op = "model_search"
        attempted += 1
        t = clock()
        try:
            est = mixtures.aic_model_search(log, rng, rounds=spec["rounds"])
        except Exception as exc:  # noqa: BLE001 - a raising fit is a counted failure
            failures.append(f"{spec['name']}: {type(exc).__name__}: {exc}")
            op(spec["name"], "search", clock() - t)
            continue
        seconds = clock() - t
        fails = checks.check_mixture(est.weights, est.means, est.covs, points)
        failures += [f"{spec['name']}: {f}" for f in fails]
        op(spec["name"], "search", seconds, true_m=spec["true_m"],
           found_m=int(est.n_components), unique_cells=int(log.n_unique))

    for spec, game, constraints in games:
        name = spec["name"]
        if tracer:
            tracer.op = name
        attempted += 1
        chains.clear()
        t = clock()
        try:
            if spec["call"] == "oracle_report":
                result = harness.oracle_report(game, constraints, wake=spec["wake"])
            else:
                result = stability.stochastically_stable_states(
                    game, spec["wake"], constraints, tuple(spec["noise"])
                )
        except Exception as exc:  # noqa: BLE001 - a raising oracle call is a counted failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            op(name, "oracle", clock() - t)
            continue
        seconds = clock() - t
        if spec["call"] == "oracle_report":
            fails = checks.check_oracle_report(result, chains, spec["grid"], spec["robots"])
        elif len(chains) != 1:
            fails = [f"{len(chains)} chains built for one noise level"]
        else:
            fails = checks.check_stationary(chains[0].kernel, result.masses[0], name)
        failures += [f"{name}: {f}" for f in fails]
        op(name, "oracle", seconds, n_states=len(result.states))
        chains.clear()

    result = {
        "setup_s": setup_s,
        "reference_s": reference,
        "ops": ops,
        "cells": cells,
        "records": totals,
        "attempted": attempted,
        "failed": len({f.split(":")[0] for f in failures}),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        Path(args.trace).write_text(
            json.dumps(
                {
                    "functions": tracer.functions(),
                    "per_op": {
                        o: tracer.functions(o) for o in sorted({k[0] for k in tracer.agg})
                    },
                    "callers": [[*k, *v] for k, v in tracer.agg.items()],
                    "counts": dict(tracer.counts),
                    "spans": tracer.spans,
                }
            )
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
