"""Batch driver: generate instances, reduce, solve, verify, export.

Every command writes a machine-readable JSON report to stdout and a short
human summary to stderr.  Exit codes: 0 all checks pass, 1 check failure,
2 usage or parse error, 3 solver budget exhausted, 4 internal error (the
gadget's drawing has no well-defined embedding, face tracing breaks Euler's
formula, a mapper rejects or cannot read the solvers' own answers, or any
other exception).  The DPATH_BUDGET environment variable overrides the
solvers' node-expansion cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import edp, gridtiling, mappers, reduction
from .errors import DEFAULT_BUDGET, BudgetExceededError, EmbeddingError, brief

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

BUDGET_ENV_VAR = "DPATH_BUDGET"


def _solver_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        # ASCII digits, after a minus that makes it no budget: int() alone would also take "+",
        # spaces, "_" and other scripts' digits; it refuses more than 4300 digits
        if not ((digits := raw.removeprefix("-")).isascii() and digits.isdigit()):
            raise ValueError
        value = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {brief(raw)}") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _structure_report(out: reduction.ReductionOutput, timings: dict) -> dict:
    """The report on ``out``: its instance's sizes, its counts and checks, ``timings`` and ``ok``.

    ``ok`` holds when the sizes match the closed forms, the graph is a planar
    DAG and the terminals are well-formed.
    """
    g, inst = out.graph, out.provenance
    _, cycle = g._topo_ids()  # only whether there is a cycle: no labels needed
    embedding = g.check_planar_embedding()
    pair_ok = len(out.terminals) == 2 * inst.k
    if pair_ok:
        for s, t in out.terminals.pairs:
            if g.inn(s) or g.out(t):
                pair_ok = False
    counts = {
        "predicted": {"vertices": out.counts.vertices, "edges": out.counts.edges},
        "actual": {"vertices": g.num_vertices, "edges": g.num_edges},
    }
    counts["match"] = counts["predicted"] == counts["actual"]
    checks = {
        "dag": cycle is None,
        "faces": embedding.faces,
        "genus": embedding.genus,
        "max_in_degree": g.max_in_degree(),
        "max_out_degree": g.max_out_degree(),
        "terminal_pairs": len(out.terminals),
        "terminal_pairs_ok": pair_ok,
        "dotted_edges": len(g._split_edges()),
        "degree_reduced": out.degree_reduced,
    }
    return {
        "instance": {
            "k": inst.k,
            "N": inst.N,
            "set_sizes": {f"{x},{y}": len(inst.sets[(x, y)]) for x, y in inst.cells()},
        },
        "counts": counts,
        "checks": checks,
        "timings": timings,
        "ok": counts["match"] and checks["dag"] and checks["genus"] == 0 and pair_ok,
    }


def _read_json(path: str):
    """The JSON document in file ``path``; every input file is read through here."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:  # a RuntimeError, which main would report as an internal error
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _load_instance(path: str) -> gridtiling.GridTilingInstance:
    return gridtiling._valid(gridtiling.GridTilingInstance.from_json_dict(_read_json(path)), path)


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is not None:  # "" is a path, which open refuses
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _finite(x: float) -> str:
    if not math.isfinite(x):  # json.dumps would write NaN or Infinity, which JSON lacks
        raise ValueError(f"float {x!r} has no JSON form")
    return float.__repr__(x)


# the text of each JSON scalar, by exact type: a bool is no int here, and an int or str subclass has none
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _container_text(obj, nl: str) -> str:
    """The text of list or dict ``obj`` whose lines start with ``nl``: a newline and its indent.

    Each scalar item is written in place, with no call, and no name holds the item list, so it is
    freed once joined.  ``sorted`` raises TypeError for keys of mixed types and
    ``encode_basestring_ascii`` for any other key that is not a str.
    """
    inner = nl + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": "
            + (text(v) if (text := _SCALARS.get(type(v := obj[key]))) else _container_text(v, inner))
            for key in sorted(obj)
        ]) + nl + "}"
    if type(obj) is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([
            text(v) if (text := _SCALARS.get(type(v))) else _container_text(v, inner) for v in obj
        ]) + nl + "]"
    raise TypeError(f"a {type(obj).__name__} has no JSON form")


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``: the one writer of every JSON output.

    The standard library writes an indented document in pure Python, one chunk per token; this
    joins each container's items once, in about half the time and memory.  A value json.dumps
    would write differently or not at all (a tuple, a set, a non-str key, NaN) raises instead.
    """
    text = _SCALARS.get(type(obj))
    return (text(obj) if text else _container_text(obj, "\n")) + "\n"


def cmd_gen(args: argparse.Namespace) -> int:
    if args.mode == "planted":
        inst = gridtiling.generate_planted(args.k, args.N, noise=args.noise, seed=args.seed)
    else:
        inst = gridtiling.generate_random(args.k, args.N, density=args.density, seed=args.seed)
    _emit(_json_text(inst.to_json_dict()), args.out)
    dest = args.out or "stdout"
    print(
        f"generated {args.mode} instance k={args.k} N={args.N} seed={args.seed} -> {dest}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    t0 = time.perf_counter()
    # the instance is valid: derive the requested form once, not reduce then rebuild
    out = reduction._derive(inst, args.degree2)
    report = _structure_report(out, {"reduce_s": time.perf_counter() - t0})
    _emit(_json_text(out.to_json_dict()), args.out)
    sys.stdout.write(_json_text(report))
    actual, checks = report["counts"]["actual"], report["checks"]
    print(
        f"reduced {args.instance}: |V|={actual['vertices']} "
        f"|E|={actual['edges']} genus={checks['genus']} "
        f"dag={checks['dag']} -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def roundtrip_report(inst: gridtiling.GridTilingInstance, budget: int) -> dict:
    """Run oracle, reduction, solver, and both mapping directions on one instance.

    The report's ``ok`` holds when the structure is sound, the two solvers
    agree, and every roundtrip check that ran (both answers feasible) passed.
    """
    t0 = time.perf_counter()
    out = reduction.reduce(inst)
    report = _structure_report(out, {"reduce_s": time.perf_counter() - t0})
    timings = report["timings"]

    t0 = time.perf_counter()
    gt_answer = gridtiling.solve_gt_brute_force(inst, budget=budget)
    timings["grid_tiling_solve_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    edp_answer = edp.solve_edp_dag(out.graph, out.terminals, budget=budget)
    timings["edp_solve_s"] = time.perf_counter() - t0

    solver = {
        "grid_tiling": "feasible" if gt_answer is not None else "infeasible",
        "edge_disjoint_paths": "feasible" if edp_answer is not None else "infeasible",
        "agree": (gt_answer is None) == (edp_answer is None),
    }

    roundtrip = None
    if gt_answer is not None and edp_answer is not None:
        forward = mappers.gt_solution_to_paths(out, gt_answer)
        extracted = mappers.paths_to_gt_solution(out, edp_answer)
        # the extraction checks the path set first: one it rejects is neither valid nor the identity
        try:
            backward = mappers.paths_to_gt_solution(out, forward)
        except mappers.InvalidSolutionError:
            backward = None
        roundtrip = {
            "forward_valid": backward is not None,
            "level_confined": mappers.check_level_confinement(out, edp_answer),
            "extraction_valid": gridtiling.check_gt_solution(inst, extracted),
            "identity": backward == gt_answer,
        }
    report.update(solver=solver, roundtrip=roundtrip)
    report["ok"] = report["ok"] and solver["agree"] and all((roundtrip or {}).values())
    return report


def cmd_roundtrip(args: argparse.Namespace) -> int:
    budget = _solver_budget()
    reports = []
    for path in args.instances:
        inst = _load_instance(path)
        report = roundtrip_report(inst, budget)
        reports.append((path, report))
        status = "ok" if report["ok"] else "FAILED"
        print(
            f"{path}: gt={report['solver']['grid_tiling']} "
            f"edp={report['solver']['edge_disjoint_paths']} {status}",
            file=sys.stderr,
        )
    payload = {
        "runs": [{"file": path, "report": rep} for path, rep in reports],
        "ok": all(rep["ok"] for _, rep in reports),
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_OK if payload["ok"] else EXIT_CHECK_FAILED


def cmd_export(args: argparse.Namespace) -> int:
    g = reduction.ReductionOutput.from_json_dict(_read_json(args.graph)).graph
    if args.format == "dot":
        payload = g.to_dot()
    else:
        payload = _json_text(g.to_json_dict())
    _emit(payload, args.out)
    print(
        f"exported {args.graph} as {args.format} -> {args.out or 'stdout'}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpaths",
        description="grid-tiling to edge-disjoint-paths gadget toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a grid tiling instance file")
    gen.add_argument("k", type=int, help="grid-of-cells side length")
    gen.add_argument("N", type=int, help="universe side length (>= 2)")
    gen.add_argument("--mode", choices=("planted", "random"), default="planted")
    gen.add_argument("--noise", type=int, default=0, help="extra random pairs per cell (planted)")
    gen.add_argument("--density", type=float, default=0.5, help="pair probability (random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    red = sub.add_parser("reduce", help="reduce an instance file to a paths instance")
    red.add_argument("instance", help="instance JSON file")
    red.add_argument("--degree2", action="store_true", help="apply the degree-reduction edit")
    red.add_argument("--out", required=True, help="output reduction JSON file")
    red.set_defaults(func=cmd_reduce)

    rt = sub.add_parser("roundtrip", help="solve both sides and verify all checks")
    rt.add_argument("instances", nargs="+", help="instance JSON files")
    rt.set_defaults(func=cmd_roundtrip)

    exp = sub.add_parser("export", help="export a reduction file's graph")
    exp.add_argument("graph", help="reduction JSON file whose graph to export")
    exp.add_argument("--format", choices=("dot", "json"), default="dot")
    exp.add_argument("--out", help="output file (default: stdout)")
    exp.set_defaults(func=cmd_export)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: building it costs more than parsing with it
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EmbeddingError, mappers.InvalidSolutionError, RuntimeError) as exc:
        # after the budget case: BudgetExceededError is a RuntimeError too
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other crash (MemoryError, a bug): never Python's exit 1, "check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
