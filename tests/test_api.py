"""The package's public API and the rule that ``src/`` holds no test-only code, methods included."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import gridpaths
from gridpaths import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(gridpaths.__file__).resolve().parent


def test_public_api():
    assert sorted(gridpaths.__all__) == [
        "AlreadyReducedError",
        "BudgetExceededError",
        "Digraph",
        "EmbeddedDigraph",
        "ExtractionFailedError",
        "GTAssignment",
        "GridTilingInstance",
        "GridVertex",
        "HConnector",
        "InvalidSolutionError",
        "NotConnectedError",
        "PathSet",
        "ReductionOutput",
        "Terminal",
        "TreeNode",
        "VConnector",
        "boundary",
        "build_g1",
        "check_edp_solution",
        "check_gt_solution",
        "check_level_confinement",
        "generate_planted",
        "generate_random",
        "gt_solution_to_paths",
        "level_set",
        "paths_to_gt_solution",
        "predicted_counts",
        "reduce",
        "reduce_degree",
        "solve_edp_dag",
        "solve_gt_brute_force",
        "validate_instance",
    ]
    for name in gridpaths.__all__:
        obj = getattr(gridpaths, name)
        # defined in a submodule and re-exported as that very object, not wrapped
        assert obj.__module__.startswith("gridpaths."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    # the console script pyproject.toml declares
    script = re.search(r'^gridpaths = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert script is not None
    assert getattr(importlib.import_module(script[1]), script[2]) is cli.main
    assert callable(cli.main)


def _references(node: ast.AST) -> set[str]:
    """The names and attribute names ``node``'s code reads or writes; comments and docstrings hold none."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_test_only_code_in_src():
    """Each function, class, method and property in ``src/`` is used in ``src/``, hooked by the benchmark or public.

    A use is a name or attribute in another statement of the package: another
    top-level statement for a module-level definition; for a method or property
    of a class, another top-level statement or another member of its class.  The
    benchmark's hooks are found by name in its sources.  Module-level names in
    ``__all__`` are public; a method is not exempt for being on a public class,
    and dunder methods, which Python calls, are left out.  The rule goes by
    name alone, so one use of a name counts for every definition of it: it
    cannot tell ``PathSet.to_json_dict`` from the graph's.  Code only the tests
    call belongs in ``tests/_oracles.py``.
    """
    statements = [stmt for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    references = [_references(stmt) for stmt in statements]
    benchmark = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def used(name: str, elsewhere) -> bool:
        return any(name in refs for refs in elsewhere) or re.search(rf"\b{name}\b", benchmark) is not None

    unused = []
    for n, stmt in enumerate(statements):
        if not isinstance(stmt, defs):
            continue
        others = [refs for m, refs in enumerate(references) if m != n]
        if stmt.name not in gridpaths.__all__ and not used(stmt.name, others):
            unused.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            for member in stmt.body:
                if isinstance(member, defs) and not re.fullmatch(r"__\w+__", member.name):
                    rest = [_references(node) for node in [*header, *stmt.body] if node is not member]
                    if not used(member.name, others + rest):
                        unused.append(f"{stmt.name}.{member.name}")
    assert unused == []


def test_every_benchmark_hook_installs(monkeypatch):
    """Each name ``perfbench/run.py`` hooks exists, so its traced runs can wrap it.

    Its untraced runs install only the hooks that capture results, so without this test a deleted
    name that only a traced run hooks would show only in CI's traced benchmark step.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first, for its own modules
    with mock.patch.dict(sys.modules):  # and imports them, and itself, under names dropped again after
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(run)
        names = ("cli", "digraph", "edp", "errors", "gridtiling", "mappers", "reduction")
        pkg = SimpleNamespace(**{name: importlib.import_module(f"gridpaths.{name}") for name in names})
        reduce, hooks = pkg.reduction.reduce, run.Hooks(tracing=True)
        try:
            run.install_hooks(pkg, hooks)
            assert len(hooks._originals) == 23 and pkg.reduction.reduce is not reduce
        finally:
            hooks.uninstall()
    assert pkg.reduction.reduce is reduce
