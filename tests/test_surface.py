"""The names other code reads from clonebench: the package exports and the
function names the benchmark's per-layer timings select."""

import ast
import importlib
import re
import types
from pathlib import Path

import clonebench
from clonebench.optimize import QuadraticForm

ROOT = Path(__file__).resolve().parents[1]

# Exported beyond the acceptance suite's names: README builds a PreparedState by
# hand, and callers catch or filter what the library raises and warns.
EXTRA_EXPORTS = {"PreparedState", "DomainError", "ConvergenceError", "QuadratureWarning"}


def test_exports_are_what_the_acceptance_suite_uses():
    source = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    used = set(re.findall(r"\bcb\.([A-Za-z_]\w*)", source))
    assert set(clonebench.__all__) == used | EXTRA_EXPORTS
    assert len(clonebench.__all__) == len(set(clonebench.__all__))
    for name in clonebench.__all__:
        assert getattr(clonebench, name) is not None


def _time_layers() -> dict:
    """perfbench/run.py's TIME_LAYERS, read from the source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TIME_LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TIME_LAYERS")


def _public_functions(short: str) -> set[str]:
    """The span names the benchmark tracer gives one module's functions."""
    module = importlib.import_module(f"clonebench.{short}")
    return {
        f"{short}.{name}"
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType) and not name.startswith("_")
        and value.__module__ == module.__name__
    }


def test_time_layers_name_public_functions():
    # The tracer times QuadraticForm.matvec under this name; the rest are module functions.
    assert callable(QuadraticForm.matvec)
    for layer, prefixes in _time_layers().items():
        for prefix in prefixes:
            if prefix == "optimize.matvec":
                continue
            spans = _public_functions(prefix.split(".")[0])
            if prefix.endswith("."):
                assert spans, f"{layer}: no public function starts with {prefix!r}"
            else:
                assert prefix in spans, f"{layer}: {prefix} is not a public function"
