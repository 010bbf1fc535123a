#!/usr/bin/env python3
"""gridpaths benchmark: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics, taken from spans recorded around calls
into the package's public functions, and writes the spans to
``.perfbench_out/``.  The report goes to standard output; its last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status is 0 when the run finished, whatever it measured,
and 2 when the package cannot be found or an argument is wrong.

Every instance is checked with the benchmark's own code (``checks.py``),
never with the program's ``ok`` flags.  A failed instance is given every
reason that applies, from: genus≠0, collinear-raise, count-mismatch,
budget, wrong-verdict, check-failed, crash.  All of them count in
``fail_ratio`` (reported as ``pass_ratio``), budget also in
``undecided_ratio`` (reported as ``decided_ratio``).  The known defects
that the program reports about itself (genus≠0, collinear-raise, budget)
are measured outcomes of an operation that ran to its end; the result's
``failed`` counts the operations that did not: a crash, or an output that
the benchmark's checks reject (count-mismatch, wrong-verdict,
check-failed).  The latter also make ``correct`` false.

Every time in the metrics is scaled to a reference host speed with the
benchmark's own probe (``hostspeed.py``), taken before and after each timed
call; the report prints the times as measured beside them.

Smoke check of the benchmark itself, on its smallest instances:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Hooks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Node expansions either solver may spend on one instance.  The solvers are
# deterministic and count expansions, so which instances hit the cap repeats
# exactly; at 50-90k expansions/s it also caps an instance at about 0.2 s.
BUDGET = 10_000
SETUP_REPEATS = 5
# reasons that are program defects the program reports itself; the others
# mean the operation crashed or gave an output the benchmark rejects
KNOWN_DEFECTS = frozenset({"genus≠0", "collinear-raise", "budget"})
WRONG_OUTPUT = frozenset({"count-mismatch", "wrong-verdict", "check-failed"})


@dataclass(frozen=True)
class Family:
    """A seeded instance distribution: planted (param = noise pairs per cell)
    or random (param = pair density), optionally conditioned on having no
    solution according to the benchmark's own grid tiling search."""

    k: int
    N: int
    mode: str
    param: float
    infeasible_only: bool = False

    @property
    def label(self) -> str:
        knob = f"noise={int(self.param)}" if self.mode == "planted" else f"d={self.param}"
        cond = ",no-only" if self.infeasible_only else ""
        return f"{self.mode}(k={self.k},N={self.N},{knob}{cond})"

    def draw(self, gridtiling, seed: int):
        if self.mode == "planted":
            return gridtiling.generate_planted(self.k, self.N, noise=int(self.param), seed=seed)
        return gridtiling.generate_random(self.k, self.N, density=self.param, seed=seed)


@dataclass(frozen=True)
class Workload:
    """``round`` lists the families of one round; a run does the ``lead``
    families once, then whole rounds, so every run holds the families in the
    same proportions."""

    why: str
    round: tuple[Family, ...]
    pipeline: str  # "certify" or "roundtrip"
    tail_pct: float  # the instance_s_tail percentile: about ten samples above it
    deck_per_second: float  # round instances a run does per second, about
    lead: tuple[Family, ...] = ()


def _ladder_round() -> tuple[Family, ...]:
    # (2, 6) : (3, 10) = 6 : 3 puts the median among the (2, 6) instances
    # and the p88 tail among the (3, 10) ones at any number of rounds.  A
    # round takes about 3 s, so a run ends close to its time.
    return (Family(2, 6, "planted", 2), Family(2, 6, "random", 0.5), Family(3, 10, "planted", 2)) * 3


WORKLOADS = {
    "certify": Workload(
        why=(
            "ladder: one (4,20) first (genus≠0 defect; not in the time metrics), then (2,6):(3,10) = 6:3, "
            "planted noise=2 / random d=0.5; no path search: reduction, digraph, mappers work"
        ),
        round=_ladder_round(),
        pipeline="certify",
        tail_pct=88.0,
        deck_per_second=3.5,
        lead=(Family(4, 20, "planted", 2),),
    ),
    "solve-feasible": Workload(
        why=(
            "planted noise=2 yes-instances, k in {2,3}, N in {3,4,5}, via cli roundtrip: median "
            "set by reduction/digraph/cli, tail by the EDP search and its 10^4-expansion budget"
        ),
        round=tuple(Family(k, n, "planted", 2) for k in (2, 3) for n in (3, 4, 5)),
        pipeline="roundtrip",
        tail_pct=95.0,
        deck_per_second=14.0,
    ),
    "solve-infeasible": Workload(
        why=(
            "random no-instances (by the benchmark's own search), k in {2,3}, N in {3,4}, "
            "d=0.1-0.15, via cli roundtrip: EDP search must exhaust or hit its 10^4 budget"
        ),
        # (3, 3) twice: its times lie between those of (2, 3) and (2, 4),
        # so the median falls inside one family, not on a gap between two
        round=(
            Family(2, 3, "random", 0.15, True),
            Family(3, 3, "random", 0.15, True),
            Family(2, 4, "random", 0.15, True),
            Family(3, 3, "random", 0.15, True),
            Family(3, 4, "random", 0.1, True),
        ),
        pipeline="roundtrip",
        tail_pct=95.0,
        deck_per_second=11.0,
    ),
}

_REDUCTION_TARGETS = (
    "instances_per_s, instance_s_p50, instance_s_tail and peak_rss_mb on certify; "
    "instance_s_p50 on solve-feasible; nothing on solve-infeasible"
)
_EDP_TARGETS = (
    "instances_per_s, instance_s_tail and decided_ratio on solve-infeasible; "
    "instance_s_tail on solve-feasible; nothing on certify"
)

# name -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_s": ("s/inst", "instance_s_p50 on solve-feasible and solve-infeasible"),
    "cli.roundtrip_calls": ("count/inst", "instance_s_p50 on solve-feasible and solve-infeasible"),
    "gridtiling.solve_s": ("s/inst", "nothing: under 3 ms everywhere measured"),
    "gridtiling.solve_calls": ("count/inst", "nothing: under 3 ms everywhere measured"),
    "gridtiling.check_s": ("s/inst", "nothing: under 3 ms everywhere measured"),
    "gridtiling.self_s": ("s/inst", "nothing: under 3 ms everywhere measured"),
    "reduction.reduce_s": ("s/inst", _REDUCTION_TARGETS),
    "reduction.reduce_calls": ("count/inst", _REDUCTION_TARGETS),
    "reduction.build_g1_s": ("s/inst", _REDUCTION_TARGETS),
    "reduction.build_g1_calls": ("count/inst", _REDUCTION_TARGETS + "; 2 per reduce on the seed code"),
    "reduction.split_s": ("s/inst", _REDUCTION_TARGETS),
    "reduction.reduce_degree_s": ("s/inst", _REDUCTION_TARGETS),
    "reduction.vertices": ("count/inst", _REDUCTION_TARGETS),
    "reduction.edges": ("count/inst", _REDUCTION_TARGETS),
    "reduction.self_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.construct_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.topo_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.embed_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.faces": ("count/inst", _REDUCTION_TARGETS),
    "digraph.embed_failed": ("count/inst", _REDUCTION_TARGETS + "; and pass_ratio on certify"),
    "digraph.json_dump_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.json_load_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.json_bytes": ("bytes/inst", _REDUCTION_TARGETS),
    "digraph.dot_s": ("s/inst", _REDUCTION_TARGETS),
    "digraph.dot_bytes": ("bytes/inst", _REDUCTION_TARGETS),
    "digraph.self_s": ("s/inst", _REDUCTION_TARGETS),
    "edp.solve_s": ("s/inst", _EDP_TARGETS),
    "edp.solve_calls": ("count/inst", _EDP_TARGETS),
    "edp.budget_exhausted": ("count/inst", _EDP_TARGETS),
    "edp.feasible": ("count/inst", _EDP_TARGETS),
    "edp.check_s": ("s/inst", "nothing: certify only calls check_edp_solution"),
    "edp.path_edges": ("count/inst", _EDP_TARGETS),
    "edp.self_s": ("s/inst", _EDP_TARGETS),
    "mappers.forward_s": ("s/inst", "instance_s_tail on certify (grid_dims rescans per row/column path); small on solve-feasible"),
    "mappers.backward_s": ("s/inst", "instance_s_tail on certify; small on solve-feasible"),
    "mappers.confinement_s": ("s/inst", "instance_s_tail on certify; small on solve-feasible"),
    "mappers.self_s": ("s/inst", "instance_s_tail on certify; small on solve-feasible"),
    "bench.self_s": ("s/inst", "nothing: the benchmark's own checks and bookkeeping"),
    "trace.overhead_s": ("s/inst", "nothing: traced minus untraced time of the same instances, both scaled"),
}

# per-layer metric -> span whose inclusive time or call count it is
_SPAN_TIME = {
    "gridtiling.solve_s": "gridtiling.solve_gt_brute_force",
    "gridtiling.check_s": "gridtiling.check_gt_solution",
    "reduction.reduce_s": "reduction.reduce",
    "reduction.build_g1_s": "reduction.build_g1",
    "reduction.split_s": "reduction.split_vertices",
    "reduction.reduce_degree_s": "reduction.reduce_degree",
    "digraph.construct_s": "digraph.construct",
    "digraph.topo_s": "digraph.topological_sort",
    "digraph.embed_s": "digraph.check_planar_embedding",
    "digraph.json_dump_s": "digraph.to_json_dict",
    "digraph.json_load_s": "digraph.from_json_dict",
    "digraph.dot_s": "digraph.to_dot",
    "edp.solve_s": "edp.solve_edp_dag",
    "edp.check_s": "edp.check_edp_solution",
    "mappers.forward_s": "mappers.gt_solution_to_paths",
    "mappers.backward_s": "mappers.paths_to_gt_solution",
    "mappers.confinement_s": "mappers.check_level_confinement",
}
_SPAN_CALLS = {
    "cli.roundtrip_calls": "cli.roundtrip_report",
    "gridtiling.solve_calls": "gridtiling.solve_gt_brute_force",
    "reduction.reduce_calls": "reduction.reduce",
    "reduction.build_g1_calls": "reduction.build_g1",
    "edp.solve_calls": "edp.solve_edp_dag",
}
LAYERS = ("cli", "gridtiling", "reduction", "digraph", "edp", "mappers")

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "pass_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Item:
    """One instance of the deck, with the benchmark's own verdict."""

    id: str
    family: Family
    path: str
    text: str  # the instance file's contents
    sets: dict
    feasible: bool


@dataclass
class Outcome:
    item: Item
    seconds: float  # as measured
    reasons: list
    note: str = ""
    scaled: float = math.nan  # ``seconds`` scaled to the reference host


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start
        return False


def load_package(root: Path) -> SimpleNamespace:
    """Import gridpaths afresh from ``root/src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "gridpaths" or m.startswith("gridpaths.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {m: importlib.import_module(f"gridpaths.{m}")
            for m in ("cli", "digraph", "edp", "errors", "gridtiling", "mappers", "reduction")}
    return SimpleNamespace(**mods)


def make_deck(pkg, name: str, lead, families, seed: int, size: int, workdir: Path) -> list[Item]:
    """The ``lead`` instances, then ``size`` more with ``families`` taken in
    turn, drawn from ``seed`` and encoded for files in ``workdir``; each is
    decided by the benchmark's own search."""
    rng = random.Random(f"{name}/{seed}")
    order = list(lead) + [families[idx % len(families)] for idx in range(size)]
    deck = []
    for idx, fam in enumerate(order):
        for _ in range(1000):
            inst = fam.draw(pkg.gridtiling, rng.getrandbits(32))
            sets = {cell: set(pairs) for cell, pairs in inst.sets.items()}
            feasible = checks.solve_grid_tiling(fam.k, sets) is not None
            if not (fam.infeasible_only and feasible):
                break
        else:
            raise RuntimeError(f"no infeasible instance drawn from {fam.label}")
        if fam.mode == "planted" and not feasible:
            raise RuntimeError(f"own search finds no solution to a planted {fam.label}")
        text = json.dumps(inst.to_json_dict())
        deck.append(Item(f"{name}/{seed}/{idx}", fam, str(workdir / f"{idx}.json"), text, sets, feasible))
    return deck


def _dedupe(reasons: list) -> list:
    return list(dict.fromkeys(reasons))


def _embedding_reasons(clock: Clock, g) -> list:
    try:
        with clock:
            emb = g.check_planar_embedding()
    except ValueError as exc:
        if "collinear" in str(exc):
            return ["collinear-raise"]
        raise
    reasons = [] if emb.genus == 0 else ["genus≠0"]
    if len(g.vertices) - len(g.edges) + emb.faces != 2 - 2 * emb.genus:
        reasons.append("check-failed")
    return reasons


def _same_reduction(a, b) -> bool:
    return (
        a.graph.vertices == b.graph.vertices
        and a.graph.edges == b.graph.edges
        and dict(a.graph.coords) == dict(b.graph.coords)
        and a.terminals.pairs == b.terminals.pairs
        and a.provenance.to_json_dict() == b.provenance.to_json_dict()
        and (a.counts, a.degree_reduced) == (b.counts, b.degree_reduced)
    )


def certify(pkg, item: Item, hooks: Hooks) -> Outcome:
    """Build, certify, serialise and map one instance; time the package calls only."""
    k, n, sets = item.family.k, item.family.N, item.sets
    clock = Clock()
    reasons: list = []
    try:
        with clock:
            with open(item.path, encoding="utf-8") as handle:
                inst = pkg.gridtiling.GridTilingInstance.from_json_dict(json.load(handle))
            out = pkg.reduction.reduce(inst)
            g = out.graph
            order, _ = g.topological_sort()
        if checks.topo_order_problems(g.vertices, g.edges, order):
            reasons.append("check-failed")
        reasons += _embedding_reasons(clock, g)
        want = checks.expected_counts(k, n, sets, degree_reduced=False)
        if want != (len(g.vertices), len(g.edges)) or want != (out.counts.vertices, out.counts.edges):
            reasons.append("count-mismatch")

        with clock:
            red = pkg.reduction.reduce_degree(out)
        g2 = red.graph
        reasons += _embedding_reasons(clock, g2)
        if max(checks.max_degrees(g2.vertices, g2.edges)) > 2:
            reasons.append("check-failed")
        if checks.expected_counts(k, n, sets, degree_reduced=True) != (len(g2.vertices), len(g2.edges)):
            reasons.append("count-mismatch")

        with clock:
            text = json.dumps(out.to_json_dict(), indent=2, sort_keys=True)
            back = pkg.reduction.ReductionOutput.from_json_dict(json.loads(text))
            dot = g.to_dot()
            dot_back = back.graph.to_dot()
        hooks.counters["digraph.json_bytes"] += len(text)
        if not _same_reduction(out, back) or dot != dot_back or dot.count("\n") != 2 + len(g.vertices) + len(g.edges):
            reasons.append("check-failed")

        if item.feasible:
            with clock:
                asg = pkg.gridtiling.solve_gt_brute_force(inst, budget=BUDGET)
            if asg is None or checks.assignment_problems(k, sets, asg.choice):
                reasons.append("wrong-verdict")
            else:
                with clock:
                    ps = pkg.mappers.gt_solution_to_paths(out, asg)
                    violations = pkg.edp.check_edp_solution(g, out.terminals, ps)
                    confined = pkg.mappers.check_level_confinement(out, ps)
                    back_asg = pkg.mappers.paths_to_gt_solution(out, ps)
                if (
                    violations
                    or not confined
                    or checks.path_set_problems(g.edges, out.terminals.pairs, ps.paths)
                    or checks.confinement_problems(k, ps.paths)
                    or back_asg.choice != asg.choice
                ):
                    reasons.append("check-failed")
    except pkg.errors.BudgetExceededError:
        reasons.append("budget")
    except Exception as exc:  # an instance that crashes is counted, the run goes on
        return Outcome(item, clock.total, _dedupe(reasons + ["crash"]), f"{type(exc).__name__}: {exc}")
    return Outcome(item, clock.total, _dedupe(reasons))


def _roundtrip_reasons(item: Item, report: dict, captured: dict) -> list:
    k, n, sets = item.family.k, item.family.N, item.sets
    reasons = []
    want = checks.expected_counts(k, n, sets, degree_reduced=False)
    actual = report["counts"]["actual"]
    if (actual["vertices"], actual["edges"]) != want:
        reasons.append("count-mismatch")
    if report["checks"]["genus"] != 0:
        reasons.append("genus≠0")
    if report["checks"]["dag"] is not True:
        reasons.append("check-failed")
    verdict = "feasible" if item.feasible else "infeasible"
    if report["solver"]["grid_tiling"] != verdict or report["solver"]["edge_disjoint_paths"] != verdict:
        reasons.append("wrong-verdict")
    (out,) = captured["reduction.reduce"]
    edges, pairs = out.graph.edges, out.terminals.pairs
    (paths,) = captured["edp.solve_edp_dag"]
    (asg,) = captured["gridtiling.solve_gt_brute_force"]
    if paths is not None and checks.path_set_problems(edges, pairs, paths.paths):
        reasons.append("wrong-verdict")
    if asg is not None and checks.assignment_problems(k, sets, asg.choice):
        reasons.append("wrong-verdict")
    if paths is not None and asg is not None:
        (forward,) = captured["mappers.gt_solution_to_paths"]
        extracted, backward = captured["mappers.paths_to_gt_solution"]
        if (
            checks.path_set_problems(edges, pairs, forward.paths)
            or checks.confinement_problems(k, forward.paths)
            or checks.assignment_problems(k, sets, extracted.choice)
            or backward.choice != asg.choice
        ):
            reasons.append("check-failed")
    return reasons


def roundtrip(pkg, item: Item, hooks: Hooks) -> Outcome:
    """``gridpaths roundtrip <file>`` in-process; the call is the timed part."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            code = pkg.cli.main(["roundtrip", item.path])
    except Exception as exc:  # an instance that crashes is counted, the run goes on
        return Outcome(item, time.perf_counter() - start, ["crash"], f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if code == pkg.cli.EXIT_BUDGET:
        return Outcome(item, elapsed, ["budget"])
    if code not in (pkg.cli.EXIT_OK, pkg.cli.EXIT_CHECK_FAILED):
        err = err_buf.getvalue().strip()
        return Outcome(item, elapsed, ["collinear-raise" if "collinear" in err else "crash"], err or f"exit {code}")
    try:
        report = json.loads(out_buf.getvalue())["runs"][0]["report"]
        reasons = _roundtrip_reasons(item, report, hooks.captured)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        # a report or a call sequence that the benchmark does not know
        return Outcome(item, elapsed, ["check-failed"], f"cannot check: {type(exc).__name__}: {exc}")
    if code != pkg.cli.EXIT_OK and not reasons:
        # the program flags a failure that none of the benchmark's checks sees
        reasons.append("check-failed")
    return Outcome(item, elapsed, _dedupe(reasons))


def install_hooks(pkg, hooks: Hooks) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    err, red, dig = pkg.errors, pkg.reduction, pkg.digraph

    def graph_size(counters, out, exc):
        if out is not None:
            counters["reduction.vertices"] += out.graph.num_vertices
            counters["reduction.edges"] += out.graph.num_edges

    def embedding(counters, emb, exc):
        if exc is not None or emb.genus != 0:
            counters["digraph.embed_failed"] += 1
        if emb is not None:
            counters["digraph.faces"] += emb.faces

    def dot_size(counters, text, exc):
        if text is not None:
            counters["digraph.dot_bytes"] += len(text)

    def search(counters, paths, exc):
        if isinstance(exc, err.BudgetExceededError):
            counters["edp.budget_exhausted"] += 1
        if paths is not None:
            counters["edp.feasible"] += 1
            counters["edp.path_edges"] += sum(len(p) - 1 for p in paths.paths)

    wrap = hooks.wrap
    wrap(pkg.cli, "main", "cli.main")
    wrap(pkg.cli, "roundtrip_report", "cli.roundtrip_report")
    wrap(pkg.gridtiling, "solve_gt_brute_force", "gridtiling.solve_gt_brute_force", capture=True)
    wrap(pkg.gridtiling, "check_gt_solution", "gridtiling.check_gt_solution")
    wrap(pkg.mappers, "check_gt_solution", "gridtiling.check_gt_solution")
    wrap(red, "reduce", "reduction.reduce", observe=graph_size, capture=True)
    wrap(red, "build_g1", "reduction.build_g1")
    wrap(red, "split_vertices", "reduction.split_vertices")
    wrap(red, "reduce_degree", "reduction.reduce_degree")
    wrap(red.ReductionOutput, "to_json_dict", "reduction.to_json_dict")
    wrap(red.ReductionOutput, "from_json_dict", "reduction.from_json_dict")
    wrap(dig.EmbeddedDigraph, "__init__", "digraph.construct")
    wrap(dig.Digraph, "topological_sort", "digraph.topological_sort")
    wrap(dig.EmbeddedDigraph, "check_planar_embedding", "digraph.check_planar_embedding", observe=embedding)
    wrap(dig.EmbeddedDigraph, "to_json_dict", "digraph.to_json_dict")
    wrap(dig.EmbeddedDigraph, "from_json_dict", "digraph.from_json_dict")
    wrap(dig.EmbeddedDigraph, "to_dot", "digraph.to_dot", observe=dot_size)
    wrap(pkg.edp, "solve_edp_dag", "edp.solve_edp_dag", observe=search, capture=True)
    wrap(pkg.edp, "check_edp_solution", "edp.check_edp_solution")
    wrap(pkg.mappers, "check_edp_solution", "edp.check_edp_solution")
    wrap(pkg.mappers, "gt_solution_to_paths", "mappers.gt_solution_to_paths", capture=True)
    wrap(pkg.mappers, "paths_to_gt_solution", "mappers.paths_to_gt_solution", capture=True)
    wrap(pkg.mappers, "check_level_confinement", "mappers.check_level_confinement")


def run_items(pkg, items, pipeline, hooks: Hooks) -> list[Outcome]:
    """One outcome per item, its time scaled by the host speed probes taken
    just before and after it.  Garbage left by earlier items is collected
    before each probe, outside the timings."""
    outcomes = []
    gc.collect()
    before = hostspeed.probe()
    for item in items:
        hooks.instance = item.id
        hooks.captured.clear()
        outcome = pipeline(pkg, item, hooks)
        gc.collect()
        after = hostspeed.probe()
        outcome.scaled = hostspeed.scale(outcome.seconds, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


def measure(pkg, deck, lead: int, pipeline, hooks: Hooks, seconds: float, round_size: int):
    """Time deck items with ``hooks`` installed: the ``lead`` items, then
    whole rounds until ``seconds`` are up or the deck ends.  A round starts
    only while it fits in the time left, as far as the rounds before it
    tell.  Returns the outcomes and the wall time of the loop."""
    install_hooks(pkg, hooks)
    start = time.perf_counter()
    try:
        outcomes = run_items(pkg, deck[:lead], pipeline, hooks)
        lead_end = time.perf_counter()
        while len(outcomes) + round_size <= len(deck):
            outcomes += run_items(pkg, deck[len(outcomes):len(outcomes) + round_size], pipeline, hooks)
            now = time.perf_counter()
            per_round = (now - lead_end) * round_size / (len(outcomes) - lead)
            if now - start + per_round > seconds:
                break
    finally:
        hooks.uninstall()
    return outcomes, time.perf_counter() - start


def tail(times: list, pct: float) -> tuple[float, int]:
    """(time at percentile ``pct``, number of samples above it)."""
    ordered = sorted(times)
    pos = pct / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
    return value, sum(1 for t in ordered if t > value)


def mix(values: list, lead: int, round_size: int) -> list:
    """Per-instance values folded into the workload's mix: the ``lead``
    instances' values, then each round position's mean over the rounds.
    Rates and shares taken over the mix do not change with the number of
    rounds that fit into a run (the lead is a larger share of a short run)."""
    rounds = values[lead:]
    return values[:lead] + [statistics.fmean(rounds[pos::round_size]) for pos in range(round_size)]


def mix_rate(times: list, lead: int, round_size: int) -> float:
    """Instances per second of the workload's mix."""
    slots = mix(times, lead, round_size)
    return len(slots) / sum(slots)


def end_to_end(outcomes, setups: list, tail_pct: float, lead: int, round_size: int) -> tuple[dict, list]:
    """Metric values and the report lines that describe them.  ``setups``
    holds (scaled, as measured) seconds per set-up.

    The time metrics leave out the ``lead`` instances: one timing of a
    memory-bound (4, 20) instance, scaled by a compute-bound probe, moved
    certify's instances_per_s by 30% between seeds.  The lead still counts
    in the ratios and in peak_rss_mb, and its time is printed."""
    setup_s = statistics.median(scaled for scaled, _ in setups)
    times = [o.scaled for o in outcomes[lead:]]
    raw = [o.seconds for o in outcomes[lead:]]
    n = len(outcomes)
    failed = sum(1 for o in outcomes if o.reasons)
    undecided = sum(1 for o in outcomes if "budget" in o.reasons)
    fail_share = statistics.fmean(mix([float(bool(o.reasons)) for o in outcomes], lead, round_size))
    undecided_share = statistics.fmean(mix([float("budget" in o.reasons) for o in outcomes], lead, round_size))
    tail_s, above = tail(times, tail_pct)
    values = {
        "setup_s": setup_s,
        "instances_per_s": mix_rate(times, 0, round_size),
        "instance_s_p50": statistics.median(times),
        "instance_s_tail": tail_s,
        "pass_ratio": 1 - fail_share,
        "decided_ratio": 1 - undecided_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_tail, _ = tail(raw, tail_pct)
    lines = [
        f"# times are scaled to a host whose speed probe takes {hostspeed.REFERENCE_S} s; as measured in brackets",
        f"setup_s          {setup_s:.4f} s     median of {len(setups)} set-ups: "
        + " ".join(f"{t:.4f}" for t, _ in setups) + f" ({statistics.median(r for _, r in setups):.4f} s)",
        f"instances_per_s  {values['instances_per_s']:.4f} 1/s   ({mix_rate(raw, 0, round_size):.4f}) "
        f"n={len(times)}, {len(times) // round_size} rounds of {round_size}, {sum(raw):.3f} s of package time",
        f"instance_s_p50   {values['instance_s_p50']:.6f} s   ({statistics.median(raw):.6f} s) n={len(times)}",
        f"instance_s_tail  {tail_s:.6f} s   ({raw_tail:.6f} s) p{tail_pct:g}, n={len(times)}, {above} samples above",
        f"fail_ratio       {fail_share:.4f}      of the mix; {failed}/{n} instances (pass_ratio {values['pass_ratio']:.4f})",
        f"undecided_ratio  {undecided_share:.4f}      of the mix; {undecided}/{n} hit the {BUDGET}-expansion budget"
        f" (decided_ratio {values['decided_ratio']:.4f})",
        f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB",
    ]
    lines += [f"# lead, not in the time metrics: {o.item.family.label} {o.scaled:.4f} s ({o.seconds:.4f} s)"
              for o in outcomes[:lead]]
    by_family: dict = {}
    for o in outcomes:
        by_family.setdefault(o.item.family.label, []).append(o)
    for label, group in by_family.items():
        secs = [o.scaled for o in group]
        bad = sum(1 for o in group if o.reasons)
        lines.append(f"#   {label}: n={len(group)} median {statistics.median(secs):.4f} s, max {max(secs):.4f} s, failed {bad}")
    return values, lines


def per_layer(hooks: Hooks, n: int, wall: float, untraced: float, traced: float) -> dict:
    """Per-instance averages of span times, call counts and counters."""
    inclusive, layer_self, top = hooks.span_totals()
    calls = hooks.span_calls()
    values = {}
    for name in PER_LAYER:
        layer = name.split(".", 1)[0]
        if name in _SPAN_TIME:
            total = inclusive.get(_SPAN_TIME[name], 0.0)
        elif name in _SPAN_CALLS:
            total = calls[_SPAN_CALLS[name]]
        elif name.endswith(".self_s") and layer in LAYERS:
            total = layer_self.get(layer, 0.0)
        elif name == "bench.self_s":
            total = wall - top
        elif name == "trace.overhead_s":
            total = traced - untraced
        else:
            total = hooks.counters[name]
        values[name] = total / n
    return values


def git_sha(root: Path) -> str:
    """HEAD of ``root/.git``, read from its files; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(root: Path, workload: str, lead, families, seed: int, deck_size: int, work: Path):
    """Import the package and make the deck ``SETUP_REPEATS`` times, then
    write the last deck's instance files.  Returns that package and deck and
    (scaled, as measured) seconds of each set-up.  The objects alive after
    set-up are moved out of the garbage collector's reach, so collections
    during the timed calls scan only what those calls made.

    The file writes are left out of the timed set-ups: on the ext4 disk of a
    2-CPU VM, creating the same few hundred files took from 0.1 to 0.4 s
    within one run, which would hide any change to import or generation.
    """
    setups = []
    before = hostspeed.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = load_package(root)
        deck = make_deck(pkg, workload, lead, families, seed, deck_size, work)
        took = time.perf_counter() - start
        after = hostspeed.probe()
        setups.append((hostspeed.scale(took, before, after), took))
        before = after
    work.mkdir(parents=True)
    for item in deck:
        Path(item.path).write_text(item.text, encoding="utf-8")
    gc.collect()
    gc.freeze()
    return pkg, deck, setups


def traced_report(pkg, deck, lead: int, pipeline, seconds: float, round_size: int, spans_path: Path):
    """Traced run for half of ``seconds``, then an untraced replay of the
    same instances for the overhead.  Returns (outcomes, metrics, lines,
    replay outcomes)."""
    hooks = Hooks(tracing=True)
    outcomes, wall = measure(pkg, deck, lead, pipeline, hooks, seconds / 2, round_size)
    n = len(outcomes)
    # no time limit on a deck cut to the traced instances: exactly those
    replay, _ = measure(pkg, deck[:n], lead, pipeline, Hooks(tracing=False), math.inf, round_size)
    # scaled, so that a change of host speed between the two is not overhead
    traced = sum(o.scaled for o in outcomes)
    untraced = sum(o.scaled for o in replay)
    values = per_layer(hooks, n, wall, untraced, traced)
    hooks.write_spans(spans_path)
    accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["bench.self_s"]
    lines = [f"{name:26s} {values[name]:.6g} {unit}  -> {target}" for name, (unit, target) in PER_LAYER.items()]
    lines += [
        f"# per instance: traced wall {wall / n:.6f} s = layer self times + bench.self_s "
        f"{accounted:.6f} s; package time traced {traced / n:.6f} s, untraced {untraced / n:.6f} s (scaled); n={n}",
        f"# {len(hooks.spans)} spans written to {spans_path.name}",
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    return outcomes, metrics, lines, replay


def run(workload: str, seed: int, seconds: float, trace: bool, families=None, root: Path = ROOT) -> tuple[dict, list]:
    """Set up, measure and check one workload; returns (result, report lines)."""
    spec = WORKLOADS[workload]
    lead = () if families else spec.lead
    families = tuple(families or spec.round)
    pipeline = certify if spec.pipeline == "certify" else roundtrip
    os.environ["DPATH_BUDGET"] = str(BUDGET)
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}"
    lines = [
        f"# gridpaths benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"# python {platform.python_version()}, {os.cpu_count()} cpus, git {git_sha(root)}, "
        f"solver budget {BUDGET} expansions",
        f"# why: {spec.why}",
        ("# lead, run once first: " + ", ".join(f.label for f in lead)) if lead else "# no lead",
        "# one round, in order: " + ", ".join(f.label for f in families),
    ]
    # twice the round instances a run needs at the nominal rate, so that a
    # fast host ends its run on time rather than at the deck's end
    rounds = max(2, math.ceil(2 * spec.deck_per_second * seconds / len(families)))
    shutil.rmtree(work, ignore_errors=True)
    try:
        pkg, deck, setups = set_up(root, workload, lead, families, seed, rounds * len(families), work)
        if trace:
            outcomes, metrics, metric_lines, replay = traced_report(
                pkg, deck, len(lead), pipeline, seconds, len(families),
                out_dir / f"spans-{workload}-seed{seed}.jsonl")
            _, e2e_lines = end_to_end(replay, setups, spec.tail_pct, len(lead), len(families))
            metric_lines += ["# untraced replay of the same instances:"] + ["#   " + ln for ln in e2e_lines]
            mismatched = [o.item.id for o, r in zip(outcomes, replay) if o.reasons != r.reasons]
        else:
            outcomes, _ = measure(pkg, deck, len(lead), pipeline, Hooks(tracing=False), seconds, len(families))
            values, metric_lines = end_to_end(outcomes, setups, spec.tail_pct, len(lead), len(families))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
            mismatched = []
        if mismatched:
            metric_lines.append(f"# untraced replay disagrees on {len(mismatched)} instances: {mismatched[:5]}")
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)

    with_reasons = [o for o in outcomes if o.reasons]
    by_reason = Counter(r for o in with_reasons for r in o.reasons)
    lines += metric_lines
    lines.append("# failures by reason: " + (", ".join(f"{r}={c}" for r, c in sorted(by_reason.items())) or "none"))
    lines += [f"fail {o.item.id} {o.item.family.label} {' '.join(o.reasons)}" + (f"  ({o.note})" if o.note else "")
              for o in with_reasons]
    known = sum(1 for o in with_reasons if KNOWN_DEFECTS.issuperset(o.reasons))
    lines.append(f"# {known} instances failed by known defects only ({', '.join(sorted(KNOWN_DEFECTS))}); "
                 f"{len(with_reasons) - known} crashed or gave an output the checks reject")
    result = {
        "correct": not mismatched and not any(WRONG_OUTPUT & set(o.reasons) for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(with_reasons) - known,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridpaths benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridpaths" / "__init__.py").is_file():
        print(f"error: no gridpaths package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
