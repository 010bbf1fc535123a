"""Smoke check of the benchmark on its smallest instances.

    python3 -m pytest -q perfbench/test_smoke.py

Kept out of the tier-1 suite: it exercises the benchmark, not gridpaths.
"""

import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SMALLEST = {
    "certify": [run.Family(2, 6, "planted", 2)],
    "solve-feasible": [run.Family(2, 3, "planted", 2)],
    "solve-infeasible": [run.Family(2, 3, "random", 0.15, True)],
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(workload, trace):
    result, lines = run.run(workload, seed=0, seconds=0.2, trace=trace, families=SMALLEST[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = set(run.PER_LAYER) if trace else set(run.END_TO_END_UNITS)
    assert set(result["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["reduction.build_g1_calls"]["value"] == 2
        assert result["metrics"]["reduction.reduce_calls"]["value"] == 1
    else:
        fails = sum(1 for line in lines if line.startswith("fail "))
        assert result["metrics"]["pass_ratio"]["value"] == 1 - fails / result["attempted"]


def test_known_layout_defect_is_a_failure_with_its_reason():
    # planted noise=0 at N=13 trips "collinear neighbor directions"
    result, lines = run.run("certify", seed=0, seconds=0.1, trace=False,
                            families=[run.Family(1, 13, "planted", 0)])
    assert result["correct"] is True
    assert result["failed"] == 0  # a known defect, not an operation that failed
    assert result["metrics"]["pass_ratio"]["value"] == 0.0
    assert any(line.startswith("fail ") and "collinear-raise" in line for line in lines)


def test_budget_exhaustion_counts_as_undecided(monkeypatch):
    monkeypatch.setattr(run, "BUDGET", 1)
    result, lines = run.run("solve-feasible", seed=0, seconds=0.1, trace=False, families=SMALLEST["solve-feasible"])
    assert result["failed"] == 0
    assert result["metrics"]["pass_ratio"]["value"] == 0.0
    assert result["metrics"]["decided_ratio"]["value"] == 0.0
    assert all(" budget" in line for line in lines if line.startswith("fail "))


def test_mix_weighs_the_lead_as_one_instance_whatever_the_rounds():
    # lead 8.0, then rounds of (1.0, 3.0): the mix is [8.0, 1.0, 3.0]
    one_round = [8.0, 1.0, 3.0]
    three_rounds = [8.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]
    assert run.mix(one_round, 1, 2) == run.mix(three_rounds, 1, 2) == [8.0, 1.0, 3.0]
    assert run.mix_rate(three_rounds, 1, 2) == 3 / 12.0


def _all_solutions(k, sets):
    cells = [(x, y) for x in range(1, k + 1) for y in range(1, k + 1)]
    for combo in itertools.product(*(sorted(sets[c]) for c in cells)):
        choice = dict(zip(cells, combo))
        if not checks.assignment_problems(k, sets, choice):
            yield choice


@pytest.mark.parametrize("seed", range(40))
def test_own_grid_tiling_search_matches_enumeration(seed):
    rng = random.Random(seed)
    k, n = rng.choice([(1, 3), (2, 2), (2, 3)])
    sets = {(x, y): {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if rng.random() < 0.35}
            for x in range(1, k + 1) for y in range(1, k + 1)}
    found = checks.solve_grid_tiling(k, sets)
    exists = next(_all_solutions(k, sets), None) is not None
    assert (found is not None) == exists
    if found is not None:
        assert checks.assignment_problems(k, sets, found) == []


def test_own_checks_reject_broken_outputs():
    sets = {(1, 1): {(1, 2)}, (2, 1): {(1, 1), (2, 2)}, (1, 2): {(1, 1)}, (2, 2): {(2, 2)}}
    decreasing_row = {(1, 1): (1, 2), (2, 1): (1, 1), (1, 2): (1, 1), (2, 2): (2, 2)}
    assert checks.assignment_problems(2, sets, decreasing_row)
    not_a_member = {**decreasing_row, (2, 1): (2, 1)}
    assert checks.assignment_problems(2, sets, not_a_member)
    edges = [("s", "m"), ("m", "t"), ("s", "t")]
    pairs = [("s", "t"), ("s", "t")]
    assert checks.path_set_problems(edges, pairs, [["s", "t"], ["s", "m", "t"]]) == []
    assert checks.path_set_problems(edges, pairs, [["s", "t"], ["s", "t"]])
    assert checks.path_set_problems(edges, pairs, [["s", "t"], ["s", "x", "t"]])
    assert checks.topo_order_problems(["a", "b"], [("a", "b")], ["b", "a"])
