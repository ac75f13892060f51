"""Every name the benchmark's tracer wraps must still exist in the program.

`perfbench/tracer.py` wraps functions by (module, attribute) and refuses to
run when one has no binding, so a refactor that drops or renames a traced
name breaks `perfbench/run.py --trace 1`.  The tracer is loaded by path,
without installing it, and each pair is resolved on the `potlearn` modules.
The attributes that `perfbench/worker.py` and `perfbench/checks.py` read off
reports, chains, logs and run records must exist too: some of them no
program code reads, so nothing else would notice them go.
"""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(f"potlearn.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return callable(vars(getattr(owner, cls_name, object)).get(method))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    tracer = load_tracer()
    pairs = tracer.HOT + tracer.SPANS
    assert len(pairs) > 30
    missing = [name for name, module, attr in pairs if not resolves(module, attr)]
    assert not missing, f"traced names with no binding: {missing}"


def test_tracer_hook_attributes_resolve():
    # the resistance hook counts InfeasibleTransitionError; the solver hook
    # reads DENSE_SOLVE_LIMIT and charges a GTH solve to chains at or below it
    stability = importlib.import_module("potlearn.stability")
    assert isinstance(stability.DENSE_SOLVE_LIMIT, int)
    assert issubclass(stability.InfeasibleTransitionError, Exception)


# (module, class, attributes the benchmark worker and checks read)
READ_BY_BENCHMARK = (
    ("harness", "OracleReport", ("stationary", "resistances", "identity_report", "noise_levels")),
    ("stability", "StableSetReport", ("masses", "states")),
    ("stability", "PerturbedChain", ("kernel",)),
    ("mixtures", "ObservationLog", ("n_unique",)),
    ("harness", "RunRecord", ("diagnostics", "positions", "iterations", "to_csv")),
)


def has_attribute(cls: type, name: str) -> bool:
    """A dataclass field, or a method or property defined on the class or a base."""
    if dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)}:
        return True
    return any(name in vars(k) for k in cls.__mro__)


def test_attributes_the_benchmark_reads_resolve():
    missing = [
        f"{module}.{cls_name}.{name}"
        for module, cls_name, names in READ_BY_BENCHMARK
        for name in names
        if not has_attribute(getattr(importlib.import_module(f"potlearn.{module}"), cls_name), name)
    ]
    assert not missing, f"attributes the benchmark reads with no binding: {missing}"
