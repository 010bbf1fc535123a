"""The package's public API and the rule that ``src/`` holds no test-only code."""

import ast
import importlib
import re
from pathlib import Path

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
        "solve_vdp_dag",
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
    """Each module-level function and class in ``src/`` is public API, used in ``src/`` or hooked by the benchmark.

    A use is a name or attribute in another top-level statement of some module
    of the package; the benchmark's hooks are found by name in its sources.
    Code only the tests call belongs in ``tests/_oracles.py``.
    """
    statements = [stmt for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    references = [_references(stmt) for stmt in statements]
    benchmark = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for n, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if (
            name not in gridpaths.__all__
            and not any(name in refs for m, refs in enumerate(references) if m != n)
            and not re.search(rf"\b{name}\b", benchmark)
        ):
            unused.append(name)
    assert unused == []
