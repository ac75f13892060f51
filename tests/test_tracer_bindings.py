"""Every name the benchmark's tracer wraps must still exist in the program.

`perfbench/tracer.py` wraps functions by (module, attribute) and refuses to
run when one has no binding, so a refactor that drops or renames a traced
name breaks `perfbench/run.py --trace 1`.  The tracer is loaded by path,
without installing it, and each pair is resolved on the `potlearn` modules.
"""
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
    # reads DENSE_SOLVE_LIMIT to tell GTH solves from power iteration
    stability = importlib.import_module("potlearn.stability")
    assert isinstance(stability.DENSE_SOLVE_LIMIT, int)
    assert issubclass(stability.InfeasibleTransitionError, Exception)
