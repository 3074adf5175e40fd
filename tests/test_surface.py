"""Tests of the package's public surface: the bare package root, and the
per-layer benchmark metrics that name its functions."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import qincomp

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assigned_literal(path: Path, name: str):
    """The literal assigned to a module-level name, read with ast; a
    frozenset({...}) call reads as its set."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
                value = value.args[0]
            return ast.literal_eval(value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_package_root_binds_only_version_and_submodules():
    names = {
        name
        for name, value in vars(qincomp).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert names == set()
    assert isinstance(qincomp.__version__, str)


def test_every_layer_metric_span_is_a_traced_public_function():
    # the tracer records spans only for public functions defined in a
    # module and not in UNTRACED; any other name would read as 0 calls
    untraced = _assigned_literal(BENCH / "tracer.py", "UNTRACED")
    metrics = _assigned_literal(BENCH / "run.py", "LAYER_METRICS")
    spans = set()
    for _unit, _kind, span in metrics.values():
        spans.update((span,) if isinstance(span, str) else span)
    assert spans
    for span in sorted(spans):
        module_name, name = span.split(".")
        module = importlib.import_module(f"qincomp.{module_name}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__, span
        assert not name.startswith("_") and name not in untraced, span
