"""Every grid tiling instance with k = 2 and N = 2, end to end, in both forms of the reduction.

Each of the four cells holds one of the 16 subsets of [2] x [2], so there are 16**4 = 65,536
instances; instance ``index`` gives cell number c (in ``cells()`` order) the subset whose bits are
hex digit c of ``index``.  The feasibility answer of each comes from
``_oracles.gt_solutions_exhaustive``, which shares no code with the solvers under test:

* direct form: ``cli.roundtrip_report`` must report ``ok``, with both solvers giving that answer;
* degree-2 form: after ``reduce_degree``, ``solve_edp_dag`` and ``solve_gt_brute_force`` must give
  that answer, and on a "yes" the solver's paths and the forward map's must pass
  ``check_edp_solution``, the backward map's assignment ``check_gt_solution``, and the backward map
  of the forward map's paths must give back the assignment;
* both forms: pairwise propagation (``edp._propagate``), the solver's third stage, run on its own,
  must refute no yes-instance, and on a "yes" every arc of the forward map's paths, and in the
  degree-2 form of the solver's, must stay in its pair's domain; the summary counts the
  no-instances it refutes;
* the grid side: ``_oracles.bounds_refutes`` (ROADMAP item 28's rule) must refute no feasible
  instance; ``bounds_counts`` counts what it refutes and the no-instances it leaves open.

Run from the root of a checkout; it prints every mismatch and a summary, and exits 1 on any
mismatch or unsound refutation (about 150 s on a shared 2-CPU VM):

    PYTHONPATH=src python -m tests.exhaustive_k2n2

pytest does not collect this file; ``tests/test_cli.py`` runs ``mismatches`` on a fixed sample.
"""

import sys
import time
from itertools import product

from gridpaths import cli
from gridpaths.edp import _propagate, check_edp_solution, solve_edp_dag
from gridpaths.gridtiling import GridTilingInstance, _cells, check_gt_solution, solve_gt_brute_force
from gridpaths.mappers import gt_solution_to_paths, paths_to_gt_solution
from gridpaths.reduction import reduce, reduce_degree

from ._oracles import bounds_refutes, gt_solutions_exhaustive

COUNT = 16**4
BUDGET = 10**6
_POINTS = list(product((1, 2), repeat=2))
_SUBSETS = [frozenset(p for bit, p in enumerate(_POINTS) if mask >> bit & 1) for mask in range(16)]
_CELLS = list(_cells(2))


def instance(index: int) -> GridTilingInstance:
    """Instance number ``index``, 0 <= index < COUNT."""
    return GridTilingInstance(2, 2, {cell: _SUBSETS[index >> 4 * c & 15] for c, cell in enumerate(_CELLS)})


def mismatches(indices) -> tuple[int, int, list[str]]:
    """(feasible instances, no-instance forms that propagation refutes, one line per mismatch) over ``indices``."""
    feasible, refuted, found = 0, 0, []
    for index in indices:
        inst = instance(index)
        want = bool(gt_solutions_exhaustive(inst))
        answer = "feasible" if want else "infeasible"
        feasible += want

        report = cli.roundtrip_report(inst, BUDGET)
        solver = report["solver"]
        if not report["ok"] or solver["grid_tiling"] != answer or solver["edge_disjoint_paths"] != answer:
            found.append(f"{index} direct: ok {report['ok']}, solvers {solver}, oracle {answer}")

        direct = reduce(inst)
        out = reduce_degree(direct)
        paths = solve_edp_dag(out.graph, out.terminals, budget=BUDGET)
        tiling = solve_gt_brute_force(inst, budget=BUDGET)
        if (paths is not None) != want or (tiling is not None) != want:
            found.append(f"{index} degree-2: paths {paths is not None}, tiling {tiling is not None}, oracle {answer}")
        elif paths is not None:
            forward = gt_solution_to_paths(out, tiling)
            faults = check_edp_solution(out.graph, out.terminals, paths)
            faults += check_edp_solution(out.graph, out.terminals, forward)
            if not check_gt_solution(inst, paths_to_gt_solution(out, paths)):
                faults.append("the backward map of the solver's paths is not a solution")
            if paths_to_gt_solution(out, forward) != tiling:
                faults.append("the backward map of the forward map is not the identity")
            if faults:
                found.append(f"{index} degree-2: " + "; ".join(faults))

        for form, red in (("direct", direct), ("degree-2", out)):
            dom = _propagate(red.graph, list(red.terminals.pairs), BUDGET)
            if dom is None:
                refuted += 1
                if want:
                    found.append(f"{index} {form}: propagation refutes a yes-instance")
            elif want and tiling is not None:
                routes = [("forward map", gt_solution_to_paths(red, tiling))]
                if red is out and paths is not None:
                    routes.append(("solver", paths))
                edge_id = {edge: e for e, edge in enumerate(red.graph.edges)}
                for name, ps in routes:
                    for i, path in enumerate(ps.paths):
                        dropped = [arc for arc in zip(path, path[1:]) if not dom[edge_id[arc]] >> i & 1]
                        if dropped:
                            found.append(f"{index} {form}: {len(dropped)} arcs of the {name}'s path {i} leave its "
                                         f"domain, the first {dropped[0]}")
    return feasible, refuted, found


def bounds_counts(indices) -> tuple[int, int, int, int]:
    """(instances with an empty cell, others that ``bounds_refutes`` refutes, no-instances it leaves open, feasible
    instances it refutes) over ``indices``."""
    empty = refuted = survivors = unsound = 0
    for index in indices:
        inst = instance(index)
        if not all(inst.sets.values()):
            empty += 1
        elif bounds_refutes(inst):
            refuted += 1
            unsound += bool(gt_solutions_exhaustive(inst))
        elif not gt_solutions_exhaustive(inst):
            survivors += 1
    return empty, refuted, survivors, unsound


def main() -> int:
    t0 = time.perf_counter()
    feasible, refuted, found = mismatches(range(COUNT))
    for line in found:
        print(line)
    empty, bounds, survivors, unsound = bounds_counts(range(COUNT))
    print(
        f"bounds rule: {empty} instances with an empty cell, {bounds} others refuted ({unsound} of them feasible), "
        f"{survivors} no-instances left open"
    )
    print(
        f"{COUNT} instances, {feasible} feasible, {len(found)} mismatches; propagation refutes {refuted} of "
        f"{2 * (COUNT - feasible)} no-instance forms; {time.perf_counter() - t0:.1f} s"
    )
    return 1 if found or unsound else 0


if __name__ == "__main__":
    sys.exit(main())
