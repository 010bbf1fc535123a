import gc
import hashlib
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.digraph import Digraph
from gridpaths.edp import (
    PathSet,
    _cone_sizes,
    _reach_bits,
    _search,
    check_edp_solution,
    solve_edp_dag,
    solve_vdp_dag,
)
from gridpaths.errors import BudgetExceededError
from gridpaths.gridtiling import (
    GridTilingInstance,
    generate_planted,
    generate_random,
    solve_gt_brute_force,
)
from gridpaths.mappers import gt_solution_to_paths
from gridpaths.reduction import reduce, reduce_degree

from ._oracles import (
    LineVertex,
    PairSink,
    PairSource,
    check_vdp_solution,
    cone_first_order,
    cone_sizes,
    edp_feasible_exhaustive,
    edp_to_vdp_dag,
    enumerate_routes,
    has_edge,
    random_dag,
    vdp_feasible_exhaustive,
)

def cross_graph():
    # two routes sharing the middle vertex but no edge
    return Digraph(
        ["s1", "s2", "m", "t1", "t2"],
        [("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")],
    )


def bridge_graph():
    # both pairs must cross the single x -> y edge
    return Digraph(
        ["s1", "s2", "x", "y", "t1", "t2"],
        [("s1", "x"), ("s2", "x"), ("x", "y"), ("y", "t1"), ("y", "t2")],
    )


def detour_graph():
    # Pair 0 runs a-m-y-z or a-n-z, pair 1 s-m-y-t or s-w-v-t: the first
    # route of each, in edge order, takes m -> y (and the vertices m and y)
    # from the other's.  Pair 1's cone {s, m, y, t, w, v} is the largest,
    # and pair 2 is the single vertex p.
    verts = ["a", "m", "y", "z", "n", "s", "t", "w", "v", "p"]
    edges = [("a", "m"), ("m", "y"), ("y", "z"), ("a", "n"), ("n", "z")]
    edges += [("s", "m"), ("y", "t"), ("s", "w"), ("w", "v"), ("v", "t")]
    return Digraph(verts, edges), [("a", "z"), ("s", "t"), ("p", "p")]


def witness_graph(second_route: bool):
    # Pair 0's only route s0-p-q-r-a-b-t0 takes the edge a -> b (and the
    # vertices a, b) of the first route the reachability test finds for
    # pair 1, s1-a-b-t1: the search reaches s1's later arc s1 -> a first.
    # With second_route, pair 1 can still go round by s1-c-t1.  The long
    # route keeps pair 0's cone the largest, so the solvers route it first.
    verts = ["s0", "s1", "p", "q", "r", "a", "b", "t0", "t1"]
    edges = [("s0", "p"), ("p", "q"), ("q", "r"), ("r", "a"), ("a", "b"), ("b", "t0"), ("b", "t1")]
    if second_route:
        verts.append("c")
        edges += [("s1", "c"), ("c", "t1")]
    edges.append(("s1", "a"))
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def cut_graph(second_route: bool, third_pair: bool = False, retake: bool = False):
    # Pair 0's first route s0-x-y-t0 takes the edge x -> y (and the vertices
    # x, y) that pair 1's only route s1-x-y-t1 needs, so pair 1's test fails
    # with x -> y in its blocking cut.  With second_route, pair 0 then goes
    # round by s0-c-t0 and frees it; without, its second route s0-c-x-y-t0
    # keeps it taken.  A third pair s2 -> t2 shares nothing with the others,
    # but once pair 1 is routed it takes every resource of pair 1's cut.
    # With retake, pair 0's second route s0-c-e-t0 frees the cut, so pair 1
    # answers "yes", but takes the c -> e of pair s2 -> t2's only route
    # s2-c-e-t2; its third route s0-d-x-y-t0 takes the cut again, and only
    # its fourth, s0-f-t0, leaves both pairs a route.
    verts = ["s0", "s1", "x", "y", "c", "t0", "t1"]
    edges = [("s0", "x"), ("x", "y"), ("y", "t0"), ("s1", "x"), ("y", "t1"), ("s0", "c")]
    pairs = [("s0", "t0"), ("s1", "t1")]
    if retake:
        verts += ["e", "d", "f", "s2", "t2"]
        edges += [("c", "e"), ("e", "t0"), ("s2", "c"), ("e", "t2")]
        edges += [("s0", "d"), ("d", "x"), ("s0", "f"), ("f", "t0")]
        return Digraph(verts, edges), pairs + [("s2", "t2")]
    edges.append(("c", "t0") if second_route else ("c", "x"))
    if third_pair:
        verts += ["s2", "t2"]
        edges.append(("s2", "t2"))
        pairs.append(("s2", "t2"))
    return Digraph(verts, edges), pairs


def returning_cut_graph():
    # Pair 1's only route is s1-a-b-c-d-t1.  Pair 0's routes, in search
    # order: s0-c-d-t0 leaves pair 1 the cut c -> d (at c when vertices are
    # the resource), s0-a-b-c-d-t0 holds that cut too, s0-a-b-t0 a new one,
    # a -> b (at a), s0-e-c-d-t0 the first one again while the second is
    # free, and s0-f-t0 leaves pair 1 its route.
    verts = ["s0", "s1", "a", "b", "c", "d", "e", "f", "t0", "t1"]
    edges = [("s1", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "t1"), ("s0", "c"), ("d", "t0")]
    edges += [("s0", "a"), ("b", "t0"), ("s0", "e"), ("e", "c"), ("s0", "f"), ("f", "t0")]
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def stale_cut_graph():
    # Pair 1 runs s1-a-b-h-t1 or s1-c-d-t1, or crosses over by b -> c or
    # h -> c.  Pair 0's first two routes, s0-a-b-h-c-d-t0 and
    # s0-a-b-c-d-t0, leave pair 1 the cut {a -> b, c -> d} (at a and c when
    # vertices are the resource), its third, s0-b-h-c-d-t0, the cut
    # {b -> h, c -> d} (at b and c).  Its next route, s0-b-c-d-t0
    # (s0-g-c-d-t0 when vertices are the resource, as b is on pair 1's
    # route), takes part of both held cuts but all of neither, and pair 1
    # still has a route.
    verts = ["s0", "s1", "a", "b", "h", "c", "d", "g", "t0", "t1"]
    edges = [("s1", "a"), ("a", "b"), ("b", "h"), ("h", "t1"), ("s1", "c"), ("c", "d"), ("d", "t1")]
    edges += [("b", "c"), ("h", "c"), ("d", "t0"), ("s0", "a"), ("s0", "b"), ("s0", "g"), ("g", "c")]
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def diamond_ladder(d: int):
    # Pair 0's first arc s0 -> u leads to u -> v, the bridge of pair 1's
    # only route s1-u-v-t1.  Behind v lie d diamonds x_k -> y_k | z_k ->
    # x_(k+1), from v = x_0 to t0 = x_d: 2^d routes, each of which reaches t0
    # with pair 1 cut off.  Pair 0's second arc s0 -> t0 leaves the bridge
    # free.
    xs = ["v"] + [f"x{k}" for k in range(1, d)] + ["t0"]
    verts = ["s0", "s1", "u", "t1"] + xs
    edges = [("s0", "u"), ("u", "v")]
    for k in range(d):
        verts += [f"y{k}", f"z{k}"]
        edges += [(xs[k], f"y{k}"), (xs[k], f"z{k}"), (f"y{k}", xs[k + 1]), (f"z{k}", xs[k + 1])]
    edges += [("v", "t1"), ("s0", "t0"), ("s1", "u")]
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def ladder_count(d: int) -> int:
    # s0 -> u and u -> v, 4 (2^d - 1) arcs in the diamonds' routes, s0 -> t0,
    # and pair 1's three arcs; with vertices as the resource the cut comes an
    # arc earlier, at u, and the count is the same
    return 4 * 2**d + 2


@st.composite
def dags_with_pairs(draw):
    """A DAG on 6-10 vertices, its arcs in a drawn order, and 1-3 pairs from its first vertices to its last."""
    n = draw(st.integers(6, 10))
    arcs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.permutations([arc for arc in arcs if draw(st.booleans())]))
    k = draw(st.integers(1, 3))
    return Digraph(range(n), edges), list(zip(range(k), draw(st.permutations(range(n - k, n)))))


class TestCheckEdpSolution:
    def test_vertex_sharing_is_allowed(self):
        g = cross_graph()
        ps = PathSet([["s1", "m", "t1"], ["s2", "m", "t2"]])
        assert check_edp_solution(g, [("s1", "t1"), ("s2", "t2")], ps) == []

    def test_shared_edge_is_named(self):
        g = bridge_graph()
        ps = PathSet([["s1", "x", "y", "t1"], ["s2", "x", "y", "t2"]])
        violations = check_edp_solution(g, [("s1", "t1"), ("s2", "t2")], ps)
        assert len(violations) == 1
        assert "'x'" in violations[0] and "'y'" in violations[0]

    def test_forward_mapped_planted_solution_is_valid(self):
        inst = generate_planted(2, 3, noise=0, seed=0)
        out = reduce(inst)
        asg = solve_gt_brute_force(inst)
        ps = gt_solution_to_paths(out, asg)
        assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_wrong_endpoints_and_missing_edges_reported(self):
        g = cross_graph()
        ps = PathSet([["m", "t1"], ["s2", "t2"]])
        violations = check_edp_solution(g, [("s1", "t1"), ("s2", "t2")], ps)
        assert any("starts at" in v for v in violations)
        assert any("missing edge" in v for v in violations)

    def test_vertex_outside_graph_and_shared_edges_reported(self):
        # "z" and "w" are not in the graph: their edges are missing; the
        # edge y -> z in both paths is shared, y -> w and y -> z are not one
        g = bridge_graph()
        ps = PathSet([["s1", "x", "y", "z", "t1"], ["s2", "x", "y", "w", "y", "z", "t2"]])
        assert check_edp_solution(g, [("s1", "t1"), ("s2", "t2")], ps) == [
            "path 0 uses missing edge ('y', 'z')",
            "path 0 uses missing edge ('z', 't1')",
            "path 1 uses missing edge ('y', 'w')",
            "path 1 uses missing edge ('w', 'y')",
            "path 1 uses missing edge ('y', 'z')",
            "path 1 uses missing edge ('z', 't2')",
            "paths 0 and 1 share edge ('x', 'y')",
            "paths 0 and 1 share edge ('y', 'z')",
        ]

    def test_int_label_outside_an_int_labelled_graph_is_no_vertex(self):
        # label 1 is not a vertex, though vertex 11 has id 1: its edges are
        # missing, and the two paths still share them
        g = Digraph([10, 11, 12], [(10, 11), (11, 12)])
        ps = PathSet([[10, 1, 12], [10, 1, 12]])
        assert check_edp_solution(g, [(10, 12), (10, 12)], ps) == [
            "path 0 uses missing edge (10, 1)",
            "path 0 uses missing edge (1, 12)",
            "path 1 uses missing edge (10, 1)",
            "path 1 uses missing edge (1, 12)",
            "paths 0 and 1 share edge (10, 1)",
            "paths 0 and 1 share edge (1, 12)",
        ]

    def test_wrong_path_count_reported(self):
        g = cross_graph()
        ps = PathSet([["s1", "m", "t1"]])
        assert check_edp_solution(g, [("s1", "t1"), ("s2", "t2")], ps)

    def test_zero_edge_path_is_valid_for_equal_endpoints(self):
        g = Digraph(["p", "q"], [("p", "q")])
        assert check_edp_solution(g, [("p", "p")], PathSet([["p"]])) == []
        assert check_edp_solution(g, [("p", "q")], PathSet([["p"]]))

    def test_empty_path_reported(self):
        g = Digraph(["p", "q"], [("p", "q")])
        assert check_edp_solution(g, [("p", "q")], PathSet([[]])) == ["path 0 is empty"]

    def test_edge_repeated_within_a_path_reported(self):
        # only a cycle lets one path use an edge twice
        g = Digraph(["x", "y"], [("x", "y"), ("y", "x")])
        ps = PathSet([["x", "y", "x", "y"]])
        assert check_edp_solution(g, [("x", "y")], ps) == ["path 0 repeats edge ('x', 'y')"]


class TestSolveEdp:
    def test_disjoint_corridors_are_feasible(self):
        g = Digraph(
            ["a1", "a2", "m1", "m2", "z1", "z2"],
            [("a1", "m1"), ("m1", "z1"), ("a2", "m2"), ("m2", "z2")],
        )
        ps = solve_edp_dag(g, [("a1", "z1"), ("a2", "z2")])
        assert ps is not None
        assert check_edp_solution(g, [("a1", "z1"), ("a2", "z2")], ps) == []

    def test_bridge_is_infeasible(self):
        g = bridge_graph()
        assert solve_edp_dag(g, [("s1", "t1"), ("s2", "t2")]) is None

    def test_vertex_crossing_is_feasible(self):
        g = cross_graph()
        assert solve_edp_dag(g, [("s1", "t1"), ("s2", "t2")]) is not None

    def test_planted_reduction_is_feasible(self):
        out = reduce(generate_planted(2, 3, noise=0, seed=0))
        ps = solve_edp_dag(out.graph, out.terminals)
        assert ps is not None
        assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_all_empty_reduction_is_infeasible(self):
        inst = GridTilingInstance(
            k=2, N=3, sets={(x, y): set() for x in (1, 2) for y in (1, 2)}
        )
        out = reduce(inst)
        assert solve_edp_dag(out.graph, out.terminals) is None

    def test_zero_edge_pair(self):
        g = Digraph(["p", "q"], [("p", "q")])
        ps = solve_edp_dag(g, [("p", "p")])
        assert ps.paths == [["p"]]
        # no pairs at all: both modes answer with the empty path set
        assert solve_edp_dag(g, []).paths == solve_vdp_dag(g, []).paths == []

    def test_cyclic_graph_rejected(self):
        g = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        with pytest.raises(ValueError, match="acyclic"):
            solve_edp_dag(g, [("u", "v")])

    def test_missing_terminal_rejected(self):
        g = Digraph(["u"], [])
        with pytest.raises(ValueError):
            solve_edp_dag(g, [("u", "zz")])

    def test_budget_exhaustion_raises(self):
        out = reduce(generate_planted(2, 3, noise=0, seed=0))
        with pytest.raises(BudgetExceededError):
            solve_edp_dag(out.graph, out.terminals, budget=5)

    def test_deterministic_output(self):
        out = reduce(generate_planted(2, 2, noise=2, seed=3))
        first = solve_edp_dag(out.graph, out.terminals)
        second = solve_edp_dag(out.graph, out.terminals)
        assert first.paths == second.paths

    def test_agrees_with_exhaustive_enumeration(self):
        for seed in range(40):
            g, pairs = random_dag(seed)
            got = solve_edp_dag(g, pairs)
            want = edp_feasible_exhaustive(g, pairs)
            assert (got is not None) == want, f"seed {seed}"
            if got is not None:
                assert check_edp_solution(g, pairs, got) == []


class TestVdp:
    def test_shared_vertex_rejected(self):
        g = cross_graph()
        ps = PathSet([["s1", "m", "t1"], ["s2", "m", "t2"]])
        assert not check_vdp_solution(g, [("s1", "t1"), ("s2", "t2")], ps)

    def test_disjoint_corridors_accepted(self):
        g = Digraph(
            ["a1", "a2", "m1", "m2", "z1", "z2"],
            [("a1", "m1"), ("m1", "z1"), ("a2", "m2"), ("m2", "z2")],
        )
        pairs = [("a1", "z1"), ("a2", "z2")]
        ps = solve_vdp_dag(g, pairs)
        assert ps is not None
        assert check_vdp_solution(g, pairs, ps)

    def test_vertex_cross_is_vdp_infeasible(self):
        g = cross_graph()
        assert solve_vdp_dag(g, [("s1", "t1"), ("s2", "t2")]) is None

    def test_duplicate_terminals_rejected(self):
        g = cross_graph()
        with pytest.raises(ValueError, match="two pairs"):
            solve_vdp_dag(g, [("s1", "t1"), ("s1", "t2")])

    def test_agrees_with_exhaustive_enumeration(self):
        for seed in range(40):
            g, pairs = random_dag(seed)
            got = solve_vdp_dag(g, pairs)
            want = vdp_feasible_exhaustive(g, pairs)
            assert (got is not None) == want, f"seed {seed}"
            if got is not None:
                assert check_vdp_solution(g, pairs, got)


class TestPairOrder:
    """The solvers route the largest cone first and answer in the given pair order."""

    def test_paths_are_index_aligned(self):
        # pair 1 routed first takes m -> y, so pair 0 goes round by n
        g, pairs = detour_graph()
        assert cone_sizes(g, pairs) == [5, 6, 1]
        for solver in (solve_edp_dag, solve_vdp_dag):
            ps = solver(g, pairs)
            assert ps.paths == [["a", "n", "z"], ["s", "m", "y", "t"], ["p"]]
            if solver is solve_vdp_dag:
                assert check_vdp_solution(g, pairs, ps)
            else:
                assert check_edp_solution(g, pairs, ps) == []

    @staticmethod
    def _assert_error(solver, g, pairs, message):
        with pytest.raises(ValueError) as info:
            solver(g, pairs)
        assert str(info.value) == message

    def test_input_is_checked_in_the_given_order(self):
        # ("s", "a") and ("s", "x3") have the largest cones: a search that
        # checked them first would name the repeated "a" before "z"
        chain = ["s", "x1", "x2", "x3", "a"]
        g = Digraph(chain + ["z", "n"], list(zip(chain, chain[1:])) + [("a", "z"), ("n", "z")])
        pairs = [("a", "z"), ("n", "z"), ("s", "a")]
        self._assert_error(solve_vdp_dag, g, pairs, "terminal vertex 'z' appears in two pairs")
        cyclic = Digraph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "v")])
        for solver in (solve_edp_dag, solve_vdp_dag):
            pairs = [("a", "qq"), ("s", "x3"), ("rr", "n")]
            self._assert_error(solver, g, pairs, "terminal pair ('a', 'qq') not in graph")
            self._assert_error(solver, cyclic, [("u", "zz"), ("u", "u")], "graph is not acyclic; cycle through 'w'")

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_cone_sizes_match_two_searches(self, seed, data):
        # up to 20 pairs, some repeated or from a vertex to itself
        g, _ = random_dag(seed)
        verts = g.vertices
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=20))
        reach = _reach_bits(g, [verts.index(t) for _, t in pairs])
        assert _cone_sizes(g, [verts.index(s) for s, _ in pairs], reach) == cone_sizes(g, pairs)


class TestTransform:
    def test_single_path_shape(self):
        g = Digraph(["u", "v", "w"], [("u", "v"), ("v", "w")])
        gprime, pairs = edp_to_vdp_dag(g, [("u", "w")])
        assert gprime.num_vertices == 4  # two edge-vertices plus the apex pair
        assert set(pairs[0]) == {PairSource(0), PairSink(0)}
        ps = solve_vdp_dag(gprime, pairs)
        assert ps.paths == [
            [PairSource(0), LineVertex("u", "v"), LineVertex("v", "w"), PairSink(0)]
        ]

    def test_bridge_becomes_cut_vertex(self):
        g = bridge_graph()
        gprime, pairs = edp_to_vdp_dag(g, [("s1", "t1"), ("s2", "t2")])
        assert solve_vdp_dag(gprime, pairs) is None

    def test_zero_edge_pair_gets_direct_edge(self):
        g = Digraph(["p", "q"], [("p", "q")])
        gprime, pairs = edp_to_vdp_dag(g, [("p", "p")])
        assert has_edge(gprime, PairSource(0), PairSink(0))
        assert solve_vdp_dag(gprime, pairs) is not None

    def test_feasibility_round_trip_on_random_dags(self):
        for seed in range(15):
            g, pairs = random_dag(seed)
            edp_answer = solve_edp_dag(g, pairs) is not None
            gprime, vpairs = edp_to_vdp_dag(g, pairs)
            vdp_answer = solve_vdp_dag(gprime, vpairs) is not None
            assert edp_answer == vdp_answer, f"seed {seed}"

    def test_transformed_solution_checks_out(self):
        g = cross_graph()
        pairs = [("s1", "t1"), ("s2", "t2")]
        gprime, vpairs = edp_to_vdp_dag(g, pairs)
        ps = solve_vdp_dag(gprime, vpairs)
        assert ps is not None
        assert check_vdp_solution(gprime, vpairs, ps)


def _modes(g, pairs):
    # (solver, graph, pairs, oracle): edge-disjoint, vertex-disjoint, and
    # vertex-disjoint on the line graph
    return [
        (solve_edp_dag, g, pairs, edp_feasible_exhaustive),
        (solve_vdp_dag, g, pairs, vdp_feasible_exhaustive),
        (solve_vdp_dag, *edp_to_vdp_dag(g, pairs), vdp_feasible_exhaustive),
    ]


def _routed_as_given(g, pairs):
    # the modes of a case that names its pairs in the order the solvers route them, in every form
    cases = _modes(g, pairs)
    for _, g, pairs, _ in cases:
        assert cone_first_order(g, pairs) == list(range(len(pairs)))
    return cases


class TestWitnessInvalidation:
    """Pair 1's first route is blocked by pair 0's: pair 1 is refuted at pair 0's target."""

    @staticmethod
    def _cases(second_route):
        # (solver, graph, pairs, oracle, arcs on pair 0's one route)
        cases = _routed_as_given(*witness_graph(second_route))
        return [(*case, arcs) for case, arcs in zip(cases, (6, 6, 7))]

    def test_second_route_is_found(self):
        for solver, g, pairs, oracle, _ in self._cases(second_route=True):
            ps = solver(g, pairs)
            assert ps is not None and oracle(g, pairs)
            if solver is solve_vdp_dag:
                assert check_vdp_solution(g, pairs, ps)
            else:
                assert check_edp_solution(g, pairs, ps) == []

    def test_blocked_witness_prunes_at_pair_0_target(self):
        for solver, g, pairs, oracle, arcs in self._cases(second_route=False):
            assert not oracle(g, pairs)
            # routing pair 0 costs one expansion per arc, so pair 1 must be
            # refuted at pair 0's target, before its search expands further
            assert solver(g, pairs, budget=arcs) is None


class TestCutInvalidation:
    """Pair 1's blocking cut is freed, or kept, by pair 0's second route."""

    @staticmethod
    def _cases(second_route, third_pair=False, retake=False):
        return _routed_as_given(*cut_graph(second_route, third_pair, retake))

    @staticmethod
    def _assert_solved(solver, g, pairs):
        ps = solver(g, pairs)
        assert ps is not None
        if solver is solve_vdp_dag:
            assert check_vdp_solution(g, pairs, ps)
        else:
            assert check_edp_solution(g, pairs, ps) == []

    def test_freed_cut_is_searched_again(self):
        # trusting the cut left by pair 0's first route would answer None
        for solver, g, pairs, oracle in self._cases(second_route=True):
            assert oracle(g, pairs)
            self._assert_solved(solver, g, pairs)

    def test_kept_cut_refutes(self):
        for solver, g, pairs, oracle in self._cases(second_route=False):
            assert not oracle(g, pairs)
            assert solver(g, pairs) is None

    def test_cut_belongs_to_its_pair(self):
        # when pair 2 is tested, pair 1's route holds all of pair 1's cut
        for solver, g, pairs, oracle in self._cases(second_route=True, third_pair=True):
            assert oracle(g, pairs)
            self._assert_solved(solver, g, pairs)

    def test_cut_survives_a_yes(self):
        # pair 1's cut, kept through its "yes" at pair 0's second route,
        # refutes it at the third and must not refute it at the fourth
        for solver, g, pairs, oracle in self._cases(second_route=True, retake=True):
            assert oracle(g, pairs)
            self._assert_solved(solver, g, pairs)

    def test_older_cut_refutes_again(self):
        # pair 1 is refuted by one cut, then by another, then by the first
        for solver, g, pairs, oracle in _routed_as_given(*returning_cut_graph()):
            assert oracle(g, pairs)
            self._assert_solved(solver, g, pairs)

    def test_stale_cuts_are_not_trusted(self):
        # both held cuts are partly taken when pair 1 has a route again
        for solver, g, pairs, oracle in _routed_as_given(*stale_cut_graph()):
            assert oracle(g, pairs)
            self._assert_solved(solver, g, pairs)


# the solvers' first search alone, in edge- and vertex-disjoint mode: no mirror search follows it
SEARCHES = (partial(_search, vertex_disjoint=False), partial(_search, vertex_disjoint=True))


def _mirror(g, pairs):
    # the instance the solvers search second: reverse graph, each pair's ends swapped, the list reversed
    return g._reverse(), [(t, s) for s, t in reversed(pairs)]


class TestSearchCore:
    # SHA-256 of the solvers' answers (the repr of the paths, "none" or
    # "budget") over the cases below; a change to the search must keep it.
    # The repr stands in for PathSet JSON, which encodes reduction labels only.
    # SEARCH_DIGEST pins the first search alone, SOLVER_DIGEST the solvers,
    # which also decide where only the mirror search finishes.
    SOLVER_DIGEST = "c99c4dd6713135d533af0a6a68911dfc3ab21a71f8dd6bb12020ab2c75899872"
    SEARCH_DIGEST = "cfa64471fa75b38c54b7c2def21243401084f9982d18756c0bf020164ebbbd87"

    @staticmethod
    def _answer(solver, g, pairs, budget):
        try:
            ps = solver(g, pairs, budget=budget)
        except BudgetExceededError:
            return "budget"
        return "none" if ps is None else repr(ps.paths)

    def _answers_digest(self, solvers) -> str:
        cases = []
        for seed in range(60):
            g, pairs = random_dag(seed)
            cases.append((g, pairs, (3, 50, 10_000)))
            cases.append((*edp_to_vdp_dag(g, pairs), (3, 50, 10_000)))
        for k in (1, 2):
            for n in (2, 3):
                out = reduce(generate_planted(k, n, noise=2, seed=k * 10 + n))
                cases.append((out.graph, out.terminals.pairs, (10_000,)))
        digest = hashlib.sha256()
        for g, pairs, budgets in cases:
            for budget in budgets:
                for solver in solvers:
                    answer = self._answer(solver, g, pairs, budget)
                    digest.update(answer.encode())
        return digest.hexdigest()

    def test_solver_answers_match_pinned_digest(self):
        assert self._answers_digest((solve_edp_dag, solve_vdp_dag)) == self.SOLVER_DIGEST

    def test_first_search_answers_match_pinned_digest(self):
        assert self._answers_digest(SEARCHES) == self.SEARCH_DIGEST

    # SHA-256 of the first search's expansion count (the smallest budget at
    # which it finishes, or "budget" past 10^4) in each mode on the cases
    # above plus deeper planted and infeasible random reductions: pins the
    # search tree itself, so pruning may get cheaper but not prune
    # differently.  The solvers' own counts are not monotone in the budget:
    # a budget under the first search's count can let the mirror finish.
    SOLVER_COUNT_DIGEST = "12735d4d9fd6763d6dc84aa164a34ce4a335ee3781baa833bcbcfaa330d5acf1"

    @staticmethod
    def _expansions(search, g, pairs) -> str:
        cap = 10_000

        def finishes(budget):
            try:
                search(g, pairs, budget=budget)
            except BudgetExceededError:
                return False
            return True

        if not finishes(cap):
            return "budget"
        lo, hi = 0, cap  # the count lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if finishes(mid):
                hi = mid
            else:
                lo = mid + 1
        return str(lo)

    def _counts_digest(self, searches) -> str:
        cases = []
        for seed in range(60):
            g, pairs = random_dag(seed)
            cases.append((g, pairs))
            cases.append(edp_to_vdp_dag(g, pairs))
        for k in (1, 2):
            for n in (2, 3):
                out = reduce(generate_planted(k, n, noise=2, seed=k * 10 + n))
                cases.append((out.graph, out.terminals.pairs))
        for k, n in ((2, 4), (3, 3), (3, 4)):
            out = reduce(generate_planted(k, n, noise=2, seed=k * 10 + n))
            cases.append((out.graph, out.terminals.pairs))
        for k, n in ((2, 3), (2, 4), (3, 3)):  # no tiling: the search must exhaust
            out = reduce(generate_random(k, n, density=0.15, seed=0))
            cases.append((out.graph, out.terminals.pairs))
        digest = hashlib.sha256()
        for g, pairs in cases:
            for search in searches:
                digest.update(f"{self._expansions(search, g, pairs)};".encode())
        return digest.hexdigest()

    def test_solver_expansion_counts_match_pinned_digest(self):
        assert self._counts_digest(SEARCHES) == self.SOLVER_COUNT_DIGEST

    @staticmethod
    def _assert_count(search, g, pairs, answer, count):
        # finishes with the answer at a budget of its count, raises one below
        ps = search(g, pairs, budget=count)
        assert (None if ps is None else ps.paths) == answer
        if count:
            with pytest.raises(BudgetExceededError):
                search(g, pairs, budget=count - 1)

    def _assert_enumerated_count(self, g, pairs):
        # the first search's answer and expansion count in each mode are the
        # enumerating search's in the cone-first order, its paths put back in
        # the given order
        for solver, g, pairs, _ in _modes(g, pairs):
            vertex_disjoint = solver is solve_vdp_dag
            order = cone_first_order(g, pairs)
            paths, count = enumerate_routes(g, [pairs[i] for i in order], vertex_disjoint)
            if paths is not None:
                paths = [paths[order.index(i)] for i in range(len(pairs))]
            self._assert_count(SEARCHES[vertex_disjoint], g, pairs, paths, count)

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_counts_match_an_enumerating_search(self, case):
        self._assert_enumerated_count(*case)

    def test_ladder_count_matches_enumeration(self):
        for d in range(1, 7):
            g, pairs = diamond_ladder(d)
            for vertex_disjoint in (False, True):
                assert enumerate_routes(g, pairs, vertex_disjoint)[1] == ladder_count(d)
            self._assert_enumerated_count(g, pairs)

    def test_subtree_sizes_are_counted_per_entry(self):
        # With vertices as the resource, pair 1's arc 1 -> 2 takes pair 2's
        # source, so the subtree below 2 is counted at both of pair 1's
        # entries: under pair 0's route 0-3-5 it is the arc 2 -> 4, under
        # 0-5 also 2 -> 3 -> 4, as 3 is free again.
        edges = [(0, 6), (3, 6), (0, 3), (2, 3), (3, 5), (1, 2), (3, 4), (2, 5)]
        edges += [(0, 5), (4, 5), (2, 4), (4, 6), (1, 4), (0, 1), (5, 6), (1, 3)]
        g, pairs = Digraph(range(7), edges), [(0, 5), (1, 4), (2, 6)]
        assert enumerate_routes(g, pairs, True) == ([[0, 5], [1, 4], [2, 3, 6]], 15)
        self._assert_enumerated_count(g, pairs)

    def test_claimed_source_is_counted(self):
        # With vertices as the resource, pair 0's first frame takes its
        # source v, on pair 1's only route s1-u-v-t1: all of pair 0's tree,
        # 4 (2^d - 1) arcs, is counted before any expansion, and a budget
        # below it must raise.
        for d in (3, 22):
            g, _ = diamond_ladder(d)
            pairs = [("v", "t0"), ("s1", "t1")]
            if d < 7:
                assert enumerate_routes(g, pairs, True) == (None, 4 * (2**d - 1))
            self._assert_count(SEARCHES[True], g, pairs, None, 4 * (2**d - 1))

    def test_futile_ladder_is_counted_not_walked(self):
        # 2^22 futile routes, about 1.7e7 expansions: an enumerating search
        # walks them in seconds, one that counts them in a pass over 4d arcs
        d = 22
        g, pairs = diamond_ladder(d)
        answer = [["s0", "t0"], ["s1", "u", "v", "t1"]]
        for search in SEARCHES:
            self._assert_count(search, g, pairs, answer, ladder_count(d))

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        g = Digraph(range(n), [(v, v + 1) for v in range(n - 1)])
        for solver in (solve_edp_dag, solve_vdp_dag):
            ps = solver(g, [(0, n - 1)])
            assert ps.paths == [list(range(n))]

    def test_memory_does_not_grow_with_edges_squared(self):
        # ~11k edges: one |E|-bit mask per edge would peak near 9 MB
        out = reduce(generate_planted(1, 60, noise=2, seed=0))
        out.graph.topological_sort()  # cached on the graph, not the search's cost
        tracemalloc.start()
        try:
            ps = solve_edp_dag(out.graph, out.terminals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check_edp_solution(out.graph, out.terminals, ps) == []
        assert peak < 3_000_000

    @pytest.mark.parametrize("degree2", [False, True])
    def test_graph_keeps_no_per_edge_objects(self, degree2):
        # The bytes a planted (3, 10) reduction keeps per vertex plus edge: its labels, id dict,
        # adjacency lists and id lists come to about 190 B.  A kept set of (tail, head) tuples and
        # a tuple per coordinate came to 247 B in the direct form and 281 B in the degree-2 form
        inst = generate_planted(3, 10, noise=2, seed=0)
        direct = reduce(inst)
        build = partial(reduce_degree, direct) if degree2 else partial(reduce, inst)
        build()  # the shape's cached base parts are no graph's cost
        tracemalloc.start()
        try:
            g = build().graph
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept / (g.num_vertices + g.num_edges) < 220

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_reach_bits_match_reachability(self, seed, data):
        # up to 20 targets, some repeated: masks of up to 20 bits
        g, _ = random_dag(seed)
        verts = g.vertices
        targets = data.draw(st.lists(st.sampled_from(verts), max_size=20))
        expected = []
        for t in targets:
            found, todo = {t}, [t]
            while todo:
                for u in g.inn(todo.pop()):
                    if u not in found:
                        found.add(u)
                        todo.append(u)
            expected.append([v in found for v in verts])
        reach = _reach_bits(g, [verts.index(t) for t in targets])
        assert [[bool(bits >> j & 1) for bits in reach] for j in range(len(targets))] == expected


class TestMirrorSearch:
    """Where the first search runs out, the solvers search the mirror instance with half the budget."""

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_answers_after_a_first_search_budget_hit_are_right(self, case):
        # at budgets 0, 1, 2, 4, ... up to the first search's count, where it
        # raises: any answer the solver gives is right and in the given order
        for solver, g, pairs, _ in _modes(*case):
            vertex_disjoint = solver is solve_vdp_dag
            feasible = enumerate_routes(g, pairs, vertex_disjoint)[0] is not None
            budget = 0
            while True:
                try:
                    SEARCHES[vertex_disjoint](g, pairs, budget=budget)
                    break
                except BudgetExceededError:
                    pass
                try:
                    ps = solver(g, pairs, budget=budget)
                except BudgetExceededError as exc:
                    assert exc.budget == budget
                else:
                    assert (ps is not None) == feasible
                    if ps is not None:
                        assert [(path[0], path[-1]) for path in ps.paths] == [tuple(pair) for pair in pairs]
                        assert check_edp_solution(g, pairs, ps) == []
                        assert check_vdp_solution(g, pairs, ps) or not vertex_disjoint
                budget = 2 * budget or 1

    def test_mirror_decides_where_the_first_search_runs_out(self):
        # planted (2, 4) noise 2 seed 10: the first search hits 10^4, the mirror finds the paths
        inst = generate_planted(2, 4, noise=2, seed=10)
        out = reduce(inst)
        with pytest.raises(BudgetExceededError):
            SEARCHES[False](out.graph, out.terminals, budget=10_000)
        ps = solve_edp_dag(out.graph, out.terminals, budget=10_000)
        mirrored = SEARCHES[False](*_mirror(out.graph, out.terminals.pairs), budget=5_000)
        assert ps.paths == [path[::-1] for path in reversed(mirrored.paths)]
        assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_both_searches_agree_on_reductions(self):
        # where the first and the mirror search both decide at 10^4, in either
        # mode, they agree; in edge-disjoint mode with the grid tiling answer
        both = set()  # the answers on which both decided
        for k, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
            for seed in range(3):
                for inst in (generate_planted(k, n, noise=2, seed=seed), generate_random(k, n, 0.15, seed=seed)):
                    out = reduce(inst)
                    feasible = solve_gt_brute_force(inst) is not None
                    for vertex_disjoint, search in enumerate(SEARCHES):
                        answers = []
                        for g, pairs in ((out.graph, out.terminals.pairs), _mirror(out.graph, out.terminals.pairs)):
                            try:
                                answers.append(search(g, pairs, budget=10_000) is not None)
                            except BudgetExceededError:
                                pass
                        assert len(set(answers)) <= 1, (k, n, seed, inst.sets)
                        if not vertex_disjoint:
                            assert set(answers) <= {feasible}
                        if len(answers) == 2:
                            both.add(answers[0])
        assert both == {False, True}
