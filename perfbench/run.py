"""potlearn benchmark: learner cost per iteration, model search and oracle time.

    python3 perfbench/run.py --workload known-field [--seed 0] [--seconds 32] [--trace 0]
    python3 perfbench/run.py --workload all

Workloads (inputs are generated from --seed, see inputs.py):

* known-field: `harness.sweep` of psblll, blll and lll on the acceptance
  fig5 setting and of ql and soql on fig7, on seeds 2n and 2n+1 for
  --seed n; each repetition sweeps one of the two, alternating.
* estimated-field: psblll on the estimated-field config over seeds 0-7,
  then `mixtures.aic_model_search` on four criterion-7-style logs whose
  entry order --seed shuffles.
* oracle: `harness.oracle_report` on a 256-state coverage game and
  `stability.stochastically_stable_states` at noise 1e-2 on 729- and
  1296-state coverage games, with field and placement seeds from --seed.

Each repetition runs in a fresh interpreter (worker.py), one at a time;
repetitions repeat until --seconds is used up (at least one).  Set-up time
is also taken from a few interpreters that stop at the first timed call.
Every operation's output is checked (checks.py); a failed check or a raised
error counts as a failed operation.

Shared hosts slow everything down by up to 2x for minutes at a time.  Each
interpreter therefore also times a fixed reference kernel that uses no
program code (worker.reference_seconds), after set-up and after every
operation, and every timing is divided by the run's slowdown: the median
kernel time over the nominal REFERENCE_S.  The raw timings and the slowdown
are printed too.

With --trace 0 the last output line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json:

* unit_cost_us: geometric mean, in microseconds, of the median scaled cost
  of each of the workload's timed operations: per learner iteration for each sweep
  (wall time over the iterations actually run, so runs that stop early by
  steady state count correctly), the whole model search, and each oracle
  call.  Each operation weighs the same.
* setup_s: median scaled set-up time, interpreter start to the first timed call.
* peak_rss_mb: median peak resident set of a repetition's interpreter.

The named metrics behind unit_cost_us (psblll_iter_us, ..., stable_set_1296_s)
and fail_ratio are printed above that line.  With --trace 1 one untraced and
one traced repetition run; the last line holds the per-layer metrics of the
traced one (see tracer.py), and the lines above give the per-call means,
the tracing overhead, which layer dominates each operation, and a comparison
with the ROADMAP baseline table.  All files go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
# Nominal time of worker.reference_seconds on a quiet host.
REFERENCE_S = 0.08
# A run must end within 180 s; leave room for printing.
DEADLINE_S = 170.0

# Named end-to-end values printed per workload: (name, unit).
NAMED = (
    ("setup_s", "s"),
    ("psblll_iter_us", "us/iter"),
    ("blll_iter_us", "us/iter"),
    ("lll_iter_us", "us/iter"),
    ("ql_iter_us", "us/iter"),
    ("soql_iter_us", "us/iter"),
    ("model_search_s", "s"),
    ("oracle_report_s", "s"),
    ("stable_set_729_s", "s"),
    ("stable_set_1296_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "failed/attempted"),
)
ORACLE_NAMES = {
    "report_256": "oracle_report_s",
    "stable_729": "stable_set_729_s",
    "stable_1296": "stable_set_1296_s",
}
END_TO_END = (("unit_cost_us", "us"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

TIMED_LAYERS = (
    "coverage.utility",
    "coverage.total_covered_worth",
    "coverage.constrained_moves",
    "harness.utility_row",
    "dynamics.binary_logit_weights",
    "dynamics.revision_probability",
    "games.logit_map",
    "qlearning.constrained_draw",
    "qlearning.soql_update",
    "qlearning.q_update",
    "qlearning.greedy_update",
    "qlearning.perturb_strategy",
    "qlearning.commitment_zone_active",
    "mixtures.em_iterate",
    "mixtures.split_component",
    "mixtures.merge_components",
    "worthfield.local_gradient",
    "stability.build_chain",
    "stability.resistance",
)
SELF_ONLY = (
    "coverage.potential",
    "coverage.sense",
    "harness.run_experiment",
    "harness.steady_state",
    "harness.oracle_report",
    "mixtures.split_scores",
    "mixtures.density",
    "stability.stationary_distribution",
    "stability.verify_resistance_identity",
)
CALLS_ONLY = ("games.utilities", "mixtures.responsibilities", "worthfield.raster")
COUNTS = (
    ("harness.iterations", "count"),
    ("harness.wakes", "count"),
    ("harness.adoptions", "count"),
    ("harness.adopt_ratio", "ratio"),
    ("mixtures.proposals", "count"),
    ("mixtures.proposals_accepted", "count"),
    ("mixtures.accept_ratio", "ratio"),
    ("mixtures.proposals_failed", "count"),
    ("mixtures.components_max", "count"),
    ("worthfield.raster.computed", "count"),
    ("stability.kernel_nnz", "count"),
    ("stability.n_states", "count"),
    ("stability.gth.computed_flop", "flop"),
    ("stability.gth.computed_bytes", "B"),
    ("stability.resistance.infeasible", "count"),
    ("stability.resistance.feasible_ratio", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in output order."""
    units: dict[str, str] = {}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    units.update(COUNTS)
    return units


# ROADMAP baseline rows: (label, traced function, operation or None, seconds).
BASELINE = (
    ("coverage.utility, one call", "coverage.utility", None, 32.5e-6),
    ("total_covered_worth, one call", "coverage.total_covered_worth", None, 32.6e-6),
    ("_all_cell_utilities (all-cell row), one call", "harness.utility_row", None, 325e-6),
    ("em_iterate, 10 sweeps, 105 unique cells", "mixtures.em_iterate", None, 3.1e-3),
    ("split_component, default seed", "mixtures.split_component", None, 20e-3),
    ("build_chain, 729 states", "stability.build_chain", "stable_729", 2.5),
    ("dense GTH solve, 1296 states", "stability.stationary_distribution", "stable_1296", 4.6),
)
# (workload, operation) -> (what should have the largest self time, compared
# by layer module or by function).
DOMINANT = {
    ("known-field", "psblll"): ("coverage", "layer"),
    ("known-field", "blll"): ("coverage", "layer"),
    ("oracle", "stable_729"): ("stability.build_chain", "function"),
    ("oracle", "stable_1296"): ("stability.stationary_distribution", "function"),
    ("oracle", "report_256"): ("stability.resistance", "function"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_worker(inputs: Path, deadline: float, *extra: str) -> dict:
    remaining = deadline - time.time()
    if remaining <= 1.0:
        raise BenchError("out of time before starting a repetition")
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs)]
    cmd += ["--spawn-time", repr(time.time()), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a repetition did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def op_values(rep: dict) -> dict[str, float]:
    """The named value of each timed operation of one repetition."""
    values = {}
    search = [o["wall_s"] for o in rep["ops"] if o["kind"] == "search"]
    if search:
        values["model_search_s"] = math.fsum(search)
    for o in rep["ops"]:
        if o["kind"] == "sweep":
            values[f"{o['name']}_iter_us"] = o["wall_s"] / max(o["iterations"], 1) * 1e6
        elif o["kind"] == "oracle":
            values[ORACLE_NAMES[o["name"]]] = o["wall_s"]
    return values


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def measure(workload: str, inputs: Path, seconds: float, deadline: float) -> dict:
    probes = [run_worker(inputs, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = time.time()
    while True:
        reps.append(run_worker(inputs, deadline, "--rep", str(len(reps))))
        elapsed = time.time() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    # Host slowdown over the run: the median reference-kernel reading of all
    # its interpreters over the nominal.  Slow spells last minutes, longer
    # than a run, and the median of many readings is steadier than any one.
    slowdown = statistics.median(
        t for r in probes + reps for t in r["reference_s"]
    ) / REFERENCE_S
    raw_setups = [r["setup_s"] for r in probes + reps]
    setups = [t / slowdown for t in raw_setups]
    raw = [op_values(r) for r in reps]
    ops = {k: statistics.median(v[k] for v in raw) / slowdown for k in raw[0]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    named = {
        **ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "fail_ratio": failed / attempted,
    }
    return {
        "workload": workload,
        "repetitions": len(reps),
        "setup_samples": setups,
        "raw_setup_s": raw_setups,
        "slowdown": slowdown,
        "raw_op_values": raw,
        "named": named,
        "metrics": {
            # seconds to microseconds, so every operation is in one unit
            "unit_cost_us": geomean(v * 1e6 if k.endswith("_s") else v for k, v in ops.items()),
            "setup_s": named["setup_s"],
            "peak_rss_mb": named["peak_rss_mb"],
        },
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in reps for f in r["failures"]],
        "cells": list({(c["sweep"], c["seed"]): c for r in reps for c in r["cells"]}.values()),
        "reproducible": len({json.dumps(c, sort_keys=True) for r in reps for c in r["cells"]})
        == len({(c["sweep"], c["seed"]) for r in reps for c in r["cells"]}),
    }


def print_measure(res: dict) -> None:
    print(
        f"workload {res['workload']}: {res['repetitions']} repetition(s), "
        f"{len(res['setup_samples'])} set-up samples"
    )
    named = res["named"]
    print("  named values, scaled to the nominal host speed (raw values below):")
    for name, unit in NAMED:
        if name == "fail_ratio":
            print(f"  {name:18s} {res['failed']}/{res['attempted']} = {named[name]:.6g} {unit}")
        elif name in named:
            print(f"  {name:18s} {named[name]:.6g} {unit}")
        else:
            print(f"  {name:18s} n/a (not run on this workload)")
    for name, unit in END_TO_END:
        print(f"  end-to-end {name}: {res['metrics'][name]:.6g} {unit}")
    print(f"  host slowdown {res['slowdown']:.4g} (median reference-kernel time / {REFERENCE_S} s)")
    for k, values in enumerate(res["raw_op_values"]):
        print(f"  repetition {k} raw: " + ", ".join(f"{n} {v:.6g}" for n, v in values.items()))
    print("  raw set-up samples (s): " + ", ".join(f"{v:.4g}" for v in res["raw_setup_s"]))
    if res["cells"]:
        print("  cells (informational; positions digest of the x/y columns):")
    for cell in res["cells"]:
        print(
            f"    {cell['sweep']} seed {cell['seed']}: {cell['iterations']} iterations, "
            f"positions sha256 {cell['positions_sha256']}"
        )
    if not res["reproducible"]:
        print("  note: repetitions of the same inputs wrote different cells")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")


def layer_metrics(trace: dict, records: dict) -> dict[str, float]:
    fn = trace["functions"]
    counts = trace["counts"]

    def get(name: str, k: int) -> float:
        return fn.get(name, [0, 0.0, 0.0])[k]

    out: dict[str, float] = {}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = get(name, 0)
        out[f"{name}.self_s"] = get(name, 2)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = get(name, 2)
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = get(name, 0)
    out["harness.iterations"] = records["iterations"]
    out["harness.wakes"] = records["wakes"]
    out["harness.adoptions"] = records["adoptions"]
    out["harness.adopt_ratio"] = records["adoptions"] / records["wakes"] if records["wakes"] else 0.0
    failed = counts.get("mixtures.proposals_failed", 0)
    proposals = counts.get("mixtures.proposals", 0) + failed
    accepted = counts.get("mixtures.proposals_accepted", 0)
    out["mixtures.proposals"] = proposals
    out["mixtures.proposals_accepted"] = accepted
    out["mixtures.accept_ratio"] = accepted / proposals if proposals else 0.0
    out["mixtures.proposals_failed"] = failed
    out["mixtures.components_max"] = counts.get("mixtures.components_max", 0)
    for name in (
        "worthfield.raster.computed",
        "stability.kernel_nnz",
        "stability.n_states",
        "stability.gth.computed_flop",
        "stability.gth.computed_bytes",
        "stability.resistance.infeasible",
    ):
        out[name] = counts.get(name, 0)
    calls = get("stability.resistance", 0)
    out["stability.resistance.feasible_ratio"] = (
        (calls - out["stability.resistance.infeasible"]) / calls if calls else 0.0
    )
    return {name: out[name] for name in per_layer_units()}


def print_trace(workload: str, trace: dict, overhead: float) -> None:
    print(f"workload {workload}: traced repetition")
    print(
        f"  tracing_overhead {overhead:.4f} (traced / untraced wall time of the timed calls,"
        " one repetition each)"
    )
    print(f"  {'layer':42s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'mean_us':>10s}")
    for name, (calls, total, self_s) in sorted(trace["functions"].items()):
        if calls:
            print(
                f"  {name:42s} {calls:9d} {total:10.4f} {self_s:10.4f} "
                f"{total / calls * 1e6:10.2f}"
            )
    for op, funcs in trace["per_op"].items():
        if (workload, op) not in DOMINANT:
            continue
        expected, by = DOMINANT[workload, op]
        shares: dict[str, float] = {}
        for name, (_calls, _total, self_s) in funcs.items():
            key = name.split(".")[0] if by == "layer" else name
            shares[key] = shares.get(key, 0.0) + self_s
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        verdict = "holds" if ranked and ranked[0][0] == expected else "DOES NOT HOLD"
        top = ", ".join(f"{k} {v:.3f}s" for k, v in ranked[:3])
        print(f"  dominant self time in {op}: expected {expected}: {verdict} ({top})")
    print("  ROADMAP baseline vs traced per-call mean (inclusive):")
    for label, name, op, base in BASELINE:
        funcs = trace["per_op"].get(op, {}) if op else trace["functions"]
        calls, total, _ = funcs.get(name, [0, 0.0, 0.0])
        if not calls:
            print(f"    {label}: baseline {base:.4g} s; not run on this workload")
            continue
        mean = total / calls
        ratio = mean / base
        flag = "  FINDING: differs by more than 2x" if not 0.5 <= ratio <= 2.0 else ""
        print(
            f"    {label}: baseline {base:.4g} s, traced {mean:.4g} s "
            f"over {calls} calls, ratio {ratio:.3g}{flag}"
        )


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    inputs = OUT / f"{workload}-seed{seed}"
    make_inputs(workload, seed, inputs)
    if not trace:
        res = measure(workload, inputs, seconds, deadline)
        print_measure(res)
        res["environment"] = environment()
        (inputs / "result.json").write_text(json.dumps(res, indent=1))
        metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in END_TO_END}
        return {"correct": res["failed"] == 0, "attempted": res["attempted"],
                "failed": res["failed"], "metrics": metrics}
    plain = run_worker(inputs, deadline)
    trace_file = inputs / "trace.json"
    traced = run_worker(inputs, deadline, "--trace", str(trace_file))
    spans = json.loads(trace_file.read_text())
    walls = [math.fsum(o["wall_s"] for o in rep["ops"]) for rep in (traced, plain)]
    print_trace(workload, spans, walls[0] / walls[1])
    for failure in plain["failures"] + traced["failures"]:
        print(f"  FAILED {failure}")
    units = per_layer_units()
    values = layer_metrics(spans, traced["records"])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="potlearn benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.time() + DEADLINE_S
    if not (ROOT / "src" / "potlearn" / "__init__.py").is_file():
        print(f"error: no potlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if args.workload == "all":
            deadline = time.time() + DEADLINE_S
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
