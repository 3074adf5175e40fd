"""Tests of the package's public surface: the bare package root, the
per-layer benchmark metrics that name its functions, and a reader outside
the tests for every public function and class and every module constant."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import qincomp

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "qincomp"


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


def _span_names(metrics) -> set[str]:
    """The module.function span names of a LAYER_METRICS literal."""
    spans = set()
    for _unit, _kind, span in metrics.values():
        spans.update((span,) if isinstance(span, str) else span)
    return spans


def _names_read(paths) -> set[str]:
    """Every bare name and attribute name that the given modules read; a
    def, an import, an annotation or an assignment alone reads nothing."""
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotations = {
            id(sub)
            for node in ast.walk(tree)
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
            if annotation is not None
            for sub in ast.walk(annotation)
        }
        for node in ast.walk(tree):
            if id(node) in annotations or isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


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
    spans = _span_names(_assigned_literal(BENCH / "run.py", "LAYER_METRICS"))
    assert spans
    for span in sorted(spans):
        module_name, name = span.split(".")
        module = importlib.import_module(f"qincomp.{module_name}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__, span
        assert not name.startswith("_") and name not in untraced, span


def test_every_public_function_has_a_caller_outside_the_tests():
    # test-only code lives in tests/, not in the package: every public
    # module-level function is read somewhere in src/ or in bench/ code; a
    # LAYER_METRICS span is a string, and naming a function is not calling it
    modules = sorted(SRC.glob("*.py"))
    read = _names_read(modules) | _names_read(BENCH.glob("*.py"))
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert uncalled == []


def test_every_public_class_is_read_outside_the_tests():
    # the same rule for types: a public module-level class (a dataclass, an
    # Enum or an exception) that only the tests read belongs in tests/
    modules = sorted(SRC.glob("*.py"))
    read = _names_read(modules) | _names_read(BENCH.glob("*.py"))
    unread = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []


def test_every_module_constant_is_read_outside_the_tests():
    # the same rule for module-level UPPER_CASE names: a constant that only
    # the tests read, such as a pinned output, belongs in tests/
    modules = sorted(SRC.glob("*.py"))
    read = _names_read(modules) | _names_read(BENCH.glob("*.py"))
    unread = [
        f"{path.stem}.{target.id}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper() and target.id not in read
    ]
    assert unread == []


# the modules that check no outside input and certify no verdict: cli makes
# every check of an outside input, and cases every certifying check
KERNELS = ("linalg", "qubits", "states", "majorization", "scenarios")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _modules() -> list[str]:
    return sorted(path.stem for path in SRC.glob("*.py"))


def _names_used(module: str) -> set[str]:
    """Every name a module reads, assigns, defines or imports, at any depth."""
    used = _names_read([SRC / f"{module}.py"])
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.asname or alias.name for alias in node.names)
    return used


def _package_imports(module: str) -> set[str]:
    """The package modules a module imports, relatively or by absolute name."""
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0 and not name.startswith("qincomp"):
                continue
            name = name.removeprefix("qincomp").lstrip(".")
            imported.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(
                alias.name.removeprefix("qincomp.") for alias in node.names if alias.name.startswith("qincomp.")
            )
    return imported


def test_only_cli_holds_the_unit_norm_tolerance():
    # the one unit-norm check of an outside input is cli's
    assert [module for module in _modules() if "NORM_TOL" in _names_used(module)] == ["cli"]


def test_only_cases_holds_the_certifying_checks():
    defined = {node.name for node in _tree("cases").body if isinstance(node, ast.FunctionDef)}
    assert {"_closed_form_deviation", "_internal", "_certify", "_certify_gamma"} <= defined
    for name in ("_closed_form_deviation", "_internal"):
        assert [module for module in _modules() if name in _names_used(module)] == ["cases"], name


def test_kernels_and_cases_import_no_checking_layer():
    assert set(KERNELS) < set(_modules())
    for module in KERNELS:
        assert _package_imports(module).isdisjoint({"cases", "sweep", "cli"}), module
    assert _package_imports("cases").isdisjoint({"sweep", "cli"})


def test_no_module_imports_json():
    # sweep._json writes every JSON byte, so no command pays json's import
    importers = []
    for module in _modules():
        for node in ast.walk(_tree(module)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] == "json" for name in names):
                importers.append(module)
    assert importers == []


def test_only_linalg_holds_per_thread_state():
    # the block buffers a stack keeps between calls live in one per-thread
    # store in linalg (_kept): no other module imports threading or makes
    # thread- or context-local state of its own, so buffer reuse stays there
    holders = []
    for module in _modules():
        for node in ast.walk(_tree(module)):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if any(name.split(".")[0] in {"threading", "_thread", "contextvars"} for name in names):
                holders.append(module)
        if {"local", "ContextVar"} & _names_used(module):
            holders.append(module)
    assert sorted(set(holders)) == ["linalg"]
