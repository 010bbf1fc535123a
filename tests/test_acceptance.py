"""Acceptance suite: one test per criterion, each printing its verdict.

Criterion 1 sweeps 208 seeded instances at oracle scale and pins the
equivalence between the grid tiling oracle and the path solver; the other
criteria reuse that sweep where they can.  All tolerances are exact.
"""

from dataclasses import dataclass

import pytest

from gridpaths.edp import check_edp_solution, solve_edp_dag
from gridpaths.gridtiling import (
    GridTilingInstance,
    check_gt_solution,
    generate_planted,
    generate_random,
    solve_gt_brute_force,
)
from gridpaths.mappers import (
    check_level_confinement,
    gt_solution_to_paths,
    paths_to_gt_solution,
)
from gridpaths.reduction import ReductionOutput, reduce, reduce_degree

from ._oracles import edp_feasible_exhaustive, edp_to_vdp_dag, random_dag, vdp_feasible_exhaustive


@dataclass
class SweepRecord:
    tag: str
    instance: GridTilingInstance
    output: ReductionOutput
    gt_answer: object
    edp_answer: object


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


@pytest.fixture(scope="module")
def sweep() -> list[SweepRecord]:
    records = []
    for k in (1, 2):
        for n in (2, 3):
            for density in (0.0, 0.3, 0.6, 1.0):
                for seed in range(12):
                    inst = generate_random(k, n, density, seed)
                    records.append((f"random k={k} N={n} d={density} s={seed}", inst))
            for noise in (0, 2):
                for seed in (0, 1):
                    inst = generate_planted(k, n, noise=noise, seed=seed)
                    records.append((f"planted k={k} N={n} noise={noise} s={seed}", inst))
    assert len(records) >= 200
    solved = []
    for tag, inst in records:
        out = reduce(inst)
        gt = solve_gt_brute_force(inst)
        ps = solve_edp_dag(out.graph, out.terminals)
        solved.append(SweepRecord(tag, inst, out, gt, ps))
    return solved


@pytest.fixture(scope="module")
def structure_sweep() -> list[ReductionOutput]:
    outputs = []
    for k in range(1, 5):
        for n in range(2, 7):
            full = {
                (x, y): {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
                for x in range(1, k + 1)
                for y in range(1, k + 1)
            }
            outputs.append(reduce(GridTilingInstance(k=k, N=n, sets=full)))
            outputs.append(reduce(generate_planted(k, n, noise=1, seed=k * 10 + n)))
    for seed in range(50):
        k = 1 + seed % 4
        n = 2 + seed % 5
        density = (0.0, 0.25, 0.5, 0.75, 1.0)[seed % 5]
        outputs.append(reduce(generate_random(k, n, density, seed)))
    return outputs


def test_criterion_1_reduction_equivalence(sweep):
    disagreements = [
        rec.tag
        for rec in sweep
        if (rec.gt_answer is None) != (rec.edp_answer is None)
    ]
    _verdict(
        1,
        "reduction equivalence",
        not disagreements,
        f" [{len(sweep)} instances, disagreements: {disagreements}]",
    )


def test_criterion_2_structural_claims(sweep, structure_sweep):
    failures = []
    reference = reduce(
        GridTilingInstance(
            k=3,
            N=5,
            sets={
                (x, y): {(a, b) for a in range(1, 6) for b in range(1, 6)}
                for x in range(1, 4)
                for y in range(1, 4)
            },
        )
    )
    if reference.graph.num_vertices != 297:
        failures.append(f"reference vertex count {reference.graph.num_vertices} != 297")
    for out in structure_sweep + [rec.output for rec in sweep]:
        k = out.provenance.k
        if out.graph.topological_sort()[1] is not None:
            failures.append(f"cycle at k={k} N={out.provenance.N}")
        if out.graph.check_planar_embedding().genus != 0:
            failures.append(f"nonzero genus at k={k} N={out.provenance.N}")
        if len(out.terminals) != 2 * k:
            failures.append(f"terminal count at k={k}")
        if (out.graph.num_vertices, out.graph.num_edges) != (
            out.counts.vertices,
            out.counts.edges,
        ):
            failures.append(f"count mismatch at k={k} N={out.provenance.N}")
    _verdict(
        2,
        "structural claims",
        not failures,
        f" [{len(structure_sweep) + len(sweep)} reductions; {failures[:3]}]",
    )


def test_criterion_3_degree_bound(sweep):
    failures = []
    for rec in sweep:
        red = reduce_degree(rec.output)
        g = red.graph
        if g.max_in_degree() > 2 or g.max_out_degree() > 2:
            failures.append(f"{rec.tag}: degrees")
        if g.topological_sort()[1] is not None:
            failures.append(f"{rec.tag}: cycle")
        if g.check_planar_embedding().genus != 0:
            failures.append(f"{rec.tag}: genus")
        reduced_answer = solve_edp_dag(g, red.terminals)
        if (reduced_answer is None) != (rec.edp_answer is None):
            failures.append(f"{rec.tag}: feasibility changed")
    _verdict(3, "degree bound", not failures, f" [{failures[:3]}]")


def test_criterion_4_forward_direction(sweep):
    failures = []
    checked = 0
    for rec in sweep:
        if rec.gt_answer is None:
            continue
        checked += 1
        ps = gt_solution_to_paths(rec.output, rec.gt_answer)
        if check_edp_solution(rec.output.graph, rec.output.terminals, ps):
            failures.append(f"{rec.tag}: invalid paths")
        if not check_level_confinement(rec.output, ps):
            failures.append(f"{rec.tag}: not confined")
    _verdict(
        4,
        "forward direction",
        checked > 0 and not failures,
        f" [{checked} yes-instances; {failures[:3]}]",
    )


def test_criterion_5_backward_direction(sweep):
    failures = []
    checked = 0
    for rec in sweep:
        if rec.edp_answer is None:
            continue
        checked += 1
        extracted = paths_to_gt_solution(rec.output, rec.edp_answer)
        if not check_gt_solution(rec.instance, extracted):
            failures.append(f"{rec.tag}: extraction not a solution")
    _verdict(
        5,
        "backward direction",
        checked > 0 and not failures,
        f" [{checked} solver path sets; {failures[:3]}]",
    )


def test_criterion_6_round_trip_identity(sweep):
    failures = []
    checked = 0
    for rec in sweep:
        if rec.gt_answer is None:
            continue
        checked += 1
        ps = gt_solution_to_paths(rec.output, rec.gt_answer)
        if paths_to_gt_solution(rec.output, ps) != rec.gt_answer:
            failures.append(rec.tag)
    _verdict(
        6,
        "round trip identity",
        checked > 0 and not failures,
        f" [{checked} yes-instances; {failures[:3]}]",
    )


def test_criterion_7_solver_cross_validation():
    failures = []
    for seed in range(50):
        g, pairs = random_dag(seed)
        answer = solve_edp_dag(g, pairs)
        if (answer is not None) != edp_feasible_exhaustive(g, pairs):
            failures.append(f"seed {seed}: exhaustive")
        gprime, vpairs = edp_to_vdp_dag(g, pairs)
        if (answer is not None) != vdp_feasible_exhaustive(gprime, vpairs):
            failures.append(f"seed {seed}: transform")
        if answer is not None and check_edp_solution(g, pairs, answer):
            failures.append(f"seed {seed}: unsound")
    _verdict(7, "solver cross-validation", not failures, f" [50 DAGs; {failures[:3]}]")


def test_criterion_8_size_growth(structure_sweep):
    worst = max(
        out.graph.num_vertices / (out.provenance.N**2 * out.provenance.k**2)
        for out in structure_sweep
    )
    # informational: witnesses the quadratic size bound with constant <= 3
    _verdict(8, "size growth", worst <= 3.0, f" [max |V| / (N^2 k^2) = {worst:.3f}]")
