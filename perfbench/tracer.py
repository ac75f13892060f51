"""In-memory tracing of the program's layers, installed from outside.

`Tracer.install` replaces each listed function at every attribute of a
`potlearn` module it is bound to (for example `binary_logit_weights` in
`dynamics`, `harness`, `stability` and `mixtures`), and each listed method on
its class.  A wrapper records calls, inclusive and self seconds, keyed by the
current operation and the calling layer; self time is the call's duration
minus the time of the wrapped calls it made.  Hot functions are only
aggregated; the others also keep one span per call (id, parent span,
operation, start, end).  Layer counters that are not timings (raster cache
misses, infeasible resistances, chain sizes, split/merge proposals) are
recorded by the same wrappers.  Nothing under `src/` changes.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (metric name, module, attribute); "Class.method" attributes wrap methods.
HOT = (
    ("coverage.utility", "coverage", "utility"),
    ("coverage.potential", "coverage", "potential"),
    ("coverage.total_covered_worth", "coverage", "total_covered_worth"),
    ("coverage.constrained_moves", "coverage", "constrained_moves"),
    ("coverage.sense", "coverage", "sense"),
    ("harness.utility_row", "harness", "_all_cell_utilities"),
    ("harness.steady_state", "harness", "steady_state"),
    ("dynamics.binary_logit_weights", "dynamics", "binary_logit_weights"),
    ("dynamics.revision_probability", "dynamics", "revision_probability"),
    ("games.logit_map", "games", "logit_map"),
    ("games.utilities", "games", "GameDefinition.utilities"),
    ("qlearning.constrained_draw", "qlearning", "constrained_draw"),
    ("qlearning.soql_update", "qlearning", "soql_update"),
    ("qlearning.q_update", "qlearning", "q_update"),
    ("qlearning.greedy_update", "qlearning", "greedy_update"),
    ("qlearning.perturb_strategy", "qlearning", "perturb_strategy"),
    ("qlearning.commitment_zone_active", "qlearning", "commitment_zone_active"),
    ("mixtures.em_iterate", "mixtures", "em_iterate"),
    ("mixtures.responsibilities", "mixtures", "responsibilities"),
    ("mixtures.split_scores", "mixtures", "split_scores"),
    ("mixtures.density", "mixtures", "GmmEstimate.density"),
    ("mixtures.propose_component_count", "mixtures", "propose_component_count"),
    ("worthfield.raster", "worthfield", "WorthField.raster"),
    ("worthfield.local_gradient", "worthfield", "WorthField.local_gradient"),
    ("stability.resistance", "stability", "resistance"),
)
SPANS = (
    ("harness.sweep", "harness", "sweep"),
    ("harness.run_experiment", "harness", "run_experiment"),
    ("harness.aic_round", "harness", "_aic_round"),
    ("harness.oracle_report", "harness", "oracle_report"),
    ("mixtures.aic_model_search", "mixtures", "aic_model_search"),
    ("mixtures.split_component", "mixtures", "split_component"),
    ("mixtures.merge_components", "mixtures", "merge_components"),
    ("stability.stochastically_stable_states", "stability", "stochastically_stable_states"),
    ("stability.build_chain", "stability", "build_chain"),
    ("stability.stationary_distribution", "stability", "stationary_distribution"),
    ("stability.verify_resistance_identity", "stability", "verify_resistance_identity"),
)


def gth_computed(n: int) -> tuple[int, int]:
    """Floating-point operations and bytes of dense GTH on n states, from n.

    Elimination step k sums k entries, scales k, and adds a k x k outer
    product (2k^2 flop); the back substitution takes a length-k dot product
    per state.  Bytes count one read of the pivot row and column and, for
    the outer-product update, a write and read of the temporary plus a read
    and write of the block (32 k^2 bytes), ignoring caches.
    """
    flop = sum(2 * k * k + 4 * k for k in range(1, n)) + 2 * n
    moved = sum(32 * k * k + 40 * k for k in range(1, n)) + 16 * n
    return flop, moved


class Tracer:
    def __init__(self) -> None:
        self.op = ""
        # frame: [name, start, child seconds, span id]
        self._stack: list[list] = [["<root>", 0.0, 0.0, None]]
        # (op, caller, name) -> [calls, total seconds, self seconds]
        self.agg: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._next_span = 0

    def _wrap(self, name, fn, span, before=None, after=None, error=None):
        stack, agg, spans, clock = self._stack, self.agg, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            parent = stack[-1]
            span_id = parent[3]
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error:
                    error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent[2] += dur
                row = agg[(self.op, parent[0], name)]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[2]
                if span:
                    spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "parent": parent[3],
                            "op": self.op,
                            "start": frame[1],
                            "end": end,
                            "self_s": dur - frame[2],
                        }
                    )
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    def _hooks(self, name: str, module) -> dict:
        counts = self.counts
        if name == "worthfield.raster":
            def before(args, kwargs):
                if args[0]._raster is None:
                    counts["worthfield.raster.computed"] += 1
            return {"before": before}
        if name == "stability.resistance":
            infeasible = module.InfeasibleTransitionError

            def error(exc):
                if isinstance(exc, infeasible):
                    counts["stability.resistance.infeasible"] += 1
            return {"error": error}
        if name == "stability.build_chain":
            def after(args, kwargs, chain, token):
                counts["stability.n_states"] += chain.n_states
                kernel = chain.kernel
                counts["stability.kernel_nnz"] += (
                    kernel.nnz if hasattr(kernel, "nnz") else int(np.count_nonzero(kernel))
                )
            return {"after": after}
        if name == "stability.stationary_distribution":
            limit = module.DENSE_SOLVE_LIMIT

            def after(args, kwargs, pi, token):
                n = args[0].n_states
                if n <= limit:
                    flop, moved = gth_computed(n)
                    counts["stability.gth.computed_flop"] += flop
                    counts["stability.gth.computed_bytes"] += moved
            return {"after": after}
        if name == "mixtures.propose_component_count":
            def after(args, kwargs, chosen, token):
                current, candidate = args[1], args[2]
                counts["mixtures.proposals"] += 1
                if chosen == candidate.n_components != current.n_components:
                    counts["mixtures.proposals_accepted"] += 1
            return {"after": after}
        if name == "harness.aic_round":
            # _aic_round swallows ValueError/LinAlgError from the proposal and
            # returns the old estimate without scoring a candidate.
            def before(args, kwargs):
                return counts["mixtures.proposals"]

            def after(args, kwargs, result, before_count):
                if counts["mixtures.proposals"] == before_count:
                    counts["mixtures.proposals_failed"] += 1
            return {"before": before, "after": after}
        if name == "mixtures.em_iterate":
            def after(args, kwargs, est, token):
                counts["mixtures.components_max"] = max(
                    counts["mixtures.components_max"], est.n_components
                )
            return {"after": after}
        return {}

    def install(self) -> None:
        """Wrap every listed function wherever a potlearn module binds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "potlearn"]
        for table, span in ((HOT, False), (SPANS, True)):
            for name, mod_name, attr in table:
                module = sys.modules[f"potlearn.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, span, **self._hooks(name, module)))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig, span, **self._hooks(name, module))
                bound = 0
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{name}: no binding found")

    def functions(self, op: str | None = None) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds], summed over callers."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (row_op, _caller, name), (calls, total, self_s) in self.agg.items():
            if op is None or row_op == op:
                acc = out[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return dict(out)
