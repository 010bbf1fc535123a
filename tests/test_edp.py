import gc
import hashlib
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.digraph import Digraph, Terminal
from gridpaths.edp import (
    PathSet,
    _cone_sizes,
    _Domains,
    _propagate,
    _reach_bits,
    _search,
    _search_domains,
    check_edp_solution,
    solve_edp_dag,
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
    check_edp_solution_reference,
    check_vdp_solution,
    cone_first_order,
    cone_sizes,
    edp_feasible_exhaustive,
    edp_to_vdp_dag,
    enumerate_routes,
    face_cycles,
    has_edge,
    pair_game_plain,
    random_dag,
    rotate_instance,
    signed_area,
    transpose_instance,
    undirected_edp_exhaustive,
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
    # route of each, in edge order, takes m -> y from the other's.  Pair 1's
    # cone {s, m, y, t, w, v} is the largest, and pair 2 is the single
    # vertex p.
    verts = ["a", "m", "y", "z", "n", "s", "t", "w", "v", "p"]
    edges = [("a", "m"), ("m", "y"), ("y", "z"), ("a", "n"), ("n", "z")]
    edges += [("s", "m"), ("y", "t"), ("s", "w"), ("w", "v"), ("v", "t")]
    return Digraph(verts, edges), [("a", "z"), ("s", "t"), ("p", "p")]


def witness_graph(second_route: bool):
    # Pair 0's only route s0-p-q-r-a-b-t0 takes the edge a -> b of the
    # first route the reachability test finds for pair 1, s1-a-b-t1: the
    # search reaches s1's later arc s1 -> a first.  With second_route, pair
    # 1 can still go round by s1-c-t1.  The long route keeps pair 0's cone
    # the largest, so the solver routes it first.
    verts = ["s0", "s1", "p", "q", "r", "a", "b", "t0", "t1"]
    edges = [("s0", "p"), ("p", "q"), ("q", "r"), ("r", "a"), ("a", "b"), ("b", "t0"), ("b", "t1")]
    if second_route:
        verts.append("c")
        edges += [("s1", "c"), ("c", "t1")]
    edges.append(("s1", "a"))
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def cut_graph(second_route: bool, third_pair: bool = False, retake: bool = False):
    # Pair 0's first route s0-x-y-t0 takes the edge x -> y that pair 1's
    # only route s1-x-y-t1 needs, so pair 1's test fails with x -> y in its
    # blocking cut.  With second_route, pair 0 then goes round by s0-c-t0
    # and frees it; without, its second route s0-c-x-y-t0 keeps it taken.
    # A third pair s2 -> t2 shares nothing with the others, but once pair 1
    # is routed it takes every edge of pair 1's cut.
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
    # order: s0-c-d-t0 leaves pair 1 the cut c -> d, s0-a-b-c-d-t0 holds
    # that cut too, s0-a-b-t0 a new one, a -> b, s0-e-c-d-t0 the first one
    # again while the second is free, and s0-f-t0 leaves pair 1 its route.
    verts = ["s0", "s1", "a", "b", "c", "d", "e", "f", "t0", "t1"]
    edges = [("s1", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "t1"), ("s0", "c"), ("d", "t0")]
    edges += [("s0", "a"), ("b", "t0"), ("s0", "e"), ("e", "c"), ("s0", "f"), ("f", "t0")]
    return Digraph(verts, edges), [("s0", "t0"), ("s1", "t1")]


def stale_cut_graph():
    # Pair 1 runs s1-a-b-h-t1 or s1-c-d-t1, or crosses over by b -> c or
    # h -> c.  Pair 0's first two routes, s0-a-b-h-c-d-t0 and
    # s0-a-b-c-d-t0, leave pair 1 the cut {a -> b, c -> d}, its third,
    # s0-b-h-c-d-t0, the cut {b -> h, c -> d}.  Its next route,
    # s0-b-c-d-t0, takes part of both held cuts but all of neither, and
    # pair 1 still has a route.
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
    # and pair 1's three arcs
    return 4 * 2**d + 2


@st.composite
def dags_with_pairs(draw, ks=(1, 2, 3, 3, 3, 3)):
    """A DAG on 6-10 vertices, its arcs in a drawn order, and k pairs from its first k vertices to its last k.

    Pairs may share a source or a sink, or both.  k is drawn from ``ks``, by default 3 in two draws
    of three: a fault in the per-entry subtree memo shows only when a third pair is cut off while a
    later one is entered twice.
    """
    n = draw(st.integers(6, 10))
    arcs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.permutations([arc for arc in arcs if draw(st.booleans())]))
    k = draw(st.sampled_from(ks))
    ends = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    return Digraph(range(n), edges), [(s, n - k + t) for s, t in zip(draw(ends), draw(ends))]


@st.composite
def digraphs_with_walks(draw):
    """A digraph on 2-8 vertices, cycles and antiparallel arcs allowed, with walks on it as a path set.

    Each walk's ends are its pair.  Then up to three faults are put in: a vertex dropped, another
    path's edge inserted, a path duplicated with its pair, a vertex replaced by a label outside the
    graph (the int n among them), or a pair end moved.
    """
    n = draw(st.integers(2, 8))
    arcs = [(a, b) for a in range(n) for b in range(n) if a != b]
    g = Digraph(range(n), draw(st.permutations([arc for arc in arcs if draw(st.booleans())])))
    vertex = st.integers(0, n - 1)
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        walk = [draw(vertex)]
        for _ in range(draw(st.integers(0, 6))):
            if not g.out(walk[-1]):
                break
            walk.append(draw(st.sampled_from(g.out(walk[-1]))))
        paths.append(walk)
    pairs = [(p[0], p[-1]) for p in paths]
    for fault in draw(st.lists(st.sampled_from(["drop", "edge", "copy", "outside", "ends"]), max_size=3)):
        idx = draw(st.integers(0, len(paths) - 1))
        path, other = paths[idx], paths[draw(st.integers(0, len(paths) - 1))]
        at = draw(st.integers(0, len(path) - 1))
        if fault == "drop" and len(path) > 1:
            paths[idx] = path[:at] + path[at + 1 :]
        elif fault == "edge" and len(other) > 1:
            m = draw(st.integers(0, len(other) - 2))
            paths[idx] = path[:at] + other[m : m + 2] + path[at:]
        elif fault == "copy":
            paths.append(path)
            pairs.append(pairs[idx])
        elif fault == "outside":
            paths[idx] = path[:at] + [draw(st.sampled_from([n, -1, "z"]))] + path[at + 1 :]
        elif fault == "ends":
            end = draw(st.one_of(vertex, st.just("z")))
            pairs[idx] = (end, pairs[idx][1]) if draw(st.booleans()) else (pairs[idx][0], end)
    return g, pairs, PathSet(paths)


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

    def test_single_vertex_path_outside_the_graph_reported(self):
        # its ends are right, but the solver rejects the pair ("z", "z") as not in the graph
        g = Digraph(["p", "q"], [("p", "q")])
        assert check_edp_solution(g, [("z", "z")], PathSet([["z"]])) == [
            "path 0 uses vertex 'z', which is not in the graph"
        ]
        assert check_edp_solution(g, [("z", "q")], PathSet([["z", "q"]])) == ["path 0 uses missing edge ('z', 'q')"]

    @settings(max_examples=300, deadline=None)
    @given(case=digraphs_with_walks())
    def test_messages_match_reference_on_random_digraphs(self, case):
        g, pairs, ps = case
        assert check_edp_solution(g, pairs, ps) == check_edp_solution_reference(g, pairs, ps)


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
        # no pairs at all: the empty path set
        assert solve_edp_dag(g, []).paths == []

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


def _reduction(k, n, planted, degree2):
    inst = generate_planted(k, n, noise=2, seed=k * 10 + n) if planted else generate_random(k, n, 0.3, seed=n)
    out = reduce(inst)
    return reduce_degree(out) if degree2 else out


class TestVdp:
    """Vertex-disjoint paths, on the oracles: the package has no VDP search, as a reduction's answer is always "no"."""

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
        paths, _ = enumerate_routes(g, pairs, True)
        assert paths is not None
        assert check_vdp_solution(g, pairs, PathSet(paths))

    def test_vertex_cross_is_vdp_infeasible(self):
        g, pairs = cross_graph(), [("s1", "t1"), ("s2", "t2")]
        assert enumerate_routes(g, pairs, True)[0] is None
        assert not vdp_feasible_exhaustive(g, pairs)

    def test_agrees_with_exhaustive_enumeration(self):
        for seed in range(40):
            g, pairs = random_dag(seed)
            paths, _ = enumerate_routes(g, pairs, True)
            assert (paths is not None) == vdp_feasible_exhaustive(g, pairs), f"seed {seed}"
            if paths is not None:
                assert check_vdp_solution(g, pairs, PathSet(paths))

    @pytest.mark.parametrize("degree2", [False, True])
    @pytest.mark.parametrize("planted", [True, False])
    @pytest.mark.parametrize("k, n", [(1, 2), (1, 5), (2, 3), (2, 7), (3, 4), (3, 10), (4, 6)])
    def test_reduction_terminals_alternate_on_the_outer_face(self, k, n, planted, degree2):
        # The outer face, the face of largest area, holds all 4k terminals in the cyclic order
        # a1 c1 ... ck b1 ... bk dk ... d1 ak ... a2.  So each column pair (a_i, b_i) alternates
        # there with each row pair (c_j, d_j), and in a plane graph two vertex-disjoint paths
        # between alternating terminals of one face would cross (Jordan curve): a reduction has
        # no vertex-disjoint routing, whatever its sets.
        out = _reduction(k, n, planted, degree2)
        coords = out.graph.coords
        outer = max(face_cycles(out.graph), key=lambda face: abs(signed_area(face, coords)))
        around = [v for v in outer if isinstance(v, Terminal)]
        ks = range(1, k + 1)
        want = [Terminal("a", 1)] + [Terminal("c", j) for j in ks] + [Terminal("b", i) for i in ks]
        want += [Terminal("d", j) for j in reversed(ks)] + [Terminal("a", i) for i in range(k, 1, -1)]
        start = around.index(Terminal("a", 1))
        around = around[start:] + around[:start]
        assert around in (want, want[:1] + want[:0:-1])

    @pytest.mark.parametrize("degree2", [False, True])
    @pytest.mark.parametrize("planted", [True, False])
    @pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_small_reductions_have_no_vertex_disjoint_routing(self, k, n, planted, degree2):
        out = _reduction(k, n, planted, degree2)
        assert enumerate_routes(out.graph, out.terminals.pairs, True)[0] is None


class TestUndirected:
    """The arc directions carry the hardness: undirected EDP is FPT in k, so a reduction's "no" must use them."""

    def test_empty_cell_routes_undirected_in_the_direct_form_only(self):
        out = reduce(GridTilingInstance(1, 3, {(1, 1): frozenset()}))
        g, pairs = out.graph, out.terminals.pairs
        assert g.num_vertices == 22
        assert solve_edp_dag(g, out.terminals) is None and not edp_feasible_exhaustive(g, pairs)
        paths = undirected_edp_exhaustive(g, pairs)
        assert paths is not None and [(path[0], path[-1]) for path in paths] == list(pairs)
        # simple paths along the underlying graph's edges, no edge used twice in either direction
        steps = [frozenset(step) for path in paths for step in zip(path, path[1:])]
        assert set(steps) <= {frozenset(edge) for edge in g.edges} and len(set(steps)) == len(steps)
        assert all(len(set(path)) == len(path) for path in paths)
        # here the row path reaches d_1 through b_1, in along one fan edge and out along another; in
        # the degree-2 form a terminal has two edges, too few to end one path and pass another on
        degree2 = reduce_degree(out)
        assert degree2.graph.num_vertices == 26
        assert undirected_edp_exhaustive(degree2.graph, degree2.terminals.pairs) is None


class TestPairOrder:
    """The solvers route the largest cone first and answer in the given pair order."""

    def test_paths_are_index_aligned(self):
        # pair 1 routed first takes m -> y, so pair 0 goes round by n
        g, pairs = detour_graph()
        assert cone_sizes(g, pairs) == [5, 6, 1]
        ps = solve_edp_dag(g, pairs)
        assert ps.paths == [["a", "n", "z"], ["s", "m", "y", "t"], ["p"]]
        assert check_edp_solution(g, pairs, ps) == []

    @staticmethod
    def _assert_error(g, pairs, message):
        with pytest.raises(ValueError) as info:
            solve_edp_dag(g, pairs)
        assert str(info.value) == message

    def test_input_is_checked_in_the_given_order(self):
        # ("s", "x3") has the largest cone: a search that checked it first
        # would still name the first pair not in the graph
        chain = ["s", "x1", "x2", "x3", "a"]
        g = Digraph(chain + ["z", "n"], list(zip(chain, chain[1:])) + [("a", "z"), ("n", "z")])
        cyclic = Digraph(["u", "v", "w"], [("u", "v"), ("v", "w"), ("w", "v")])
        self._assert_error(g, [("a", "qq"), ("s", "x3"), ("rr", "n")], "terminal pair ('a', 'qq') not in graph")
        self._assert_error(cyclic, [("u", "zz"), ("u", "u")], "graph is not acyclic; cycle through 'w'")

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
        assert enumerate_routes(gprime, pairs, True)[0] == [
            [PairSource(0), LineVertex("u", "v"), LineVertex("v", "w"), PairSink(0)]
        ]

    def test_bridge_becomes_cut_vertex(self):
        g = bridge_graph()
        gprime, pairs = edp_to_vdp_dag(g, [("s1", "t1"), ("s2", "t2")])
        assert not vdp_feasible_exhaustive(gprime, pairs)

    def test_zero_edge_pair_gets_direct_edge(self):
        g = Digraph(["p", "q"], [("p", "q")])
        gprime, pairs = edp_to_vdp_dag(g, [("p", "p")])
        assert has_edge(gprime, PairSource(0), PairSink(0))
        assert vdp_feasible_exhaustive(gprime, pairs)

    def test_feasibility_round_trip_on_random_dags(self):
        for seed in range(15):
            g, pairs = random_dag(seed)
            edp_answer = solve_edp_dag(g, pairs) is not None
            gprime, vpairs = edp_to_vdp_dag(g, pairs)
            assert edp_answer == vdp_feasible_exhaustive(gprime, vpairs), f"seed {seed}"

    def test_transformed_solution_checks_out(self):
        g = cross_graph()
        pairs = [("s1", "t1"), ("s2", "t2")]
        gprime, vpairs = edp_to_vdp_dag(g, pairs)
        paths, _ = enumerate_routes(gprime, vpairs, True)
        assert paths is not None
        assert check_vdp_solution(gprime, vpairs, PathSet(paths))


def _routed_as_given(g, pairs):
    # a case that names its pairs in the order the solver routes them
    assert cone_first_order(g, pairs) == list(range(len(pairs)))
    return g, pairs


class TestWitnessInvalidation:
    """Pair 1's first route is blocked by pair 0's: pair 1 is refuted at pair 0's target."""

    def test_second_route_is_found(self):
        g, pairs = _routed_as_given(*witness_graph(second_route=True))
        ps = solve_edp_dag(g, pairs)
        assert ps is not None and edp_feasible_exhaustive(g, pairs)
        assert check_edp_solution(g, pairs, ps) == []

    def test_blocked_witness_prunes_at_pair_0_target(self):
        g, pairs = _routed_as_given(*witness_graph(second_route=False))
        assert not edp_feasible_exhaustive(g, pairs)
        # routing pair 0 costs one expansion per arc, six, so pair 1 must be
        # refuted at pair 0's target, before its search expands further
        assert solve_edp_dag(g, pairs, budget=6) is None


class TestCutInvalidation:
    """Pair 1's blocking cut is freed, or kept, by pair 0's second route."""

    @staticmethod
    def _assert_solved(g, pairs):
        g, pairs = _routed_as_given(g, pairs)
        assert edp_feasible_exhaustive(g, pairs)
        ps = solve_edp_dag(g, pairs)
        assert ps is not None
        assert check_edp_solution(g, pairs, ps) == []

    def test_freed_cut_is_searched_again(self):
        # trusting the cut left by pair 0's first route would answer None
        self._assert_solved(*cut_graph(second_route=True))

    def test_kept_cut_refutes(self):
        g, pairs = _routed_as_given(*cut_graph(second_route=False))
        assert not edp_feasible_exhaustive(g, pairs)
        assert solve_edp_dag(g, pairs) is None

    def test_cut_belongs_to_its_pair(self):
        # when pair 2 is tested, pair 1's route holds all of pair 1's cut
        self._assert_solved(*cut_graph(second_route=True, third_pair=True))

    def test_cut_survives_a_yes(self):
        # pair 1's cut, kept through its "yes" at pair 0's second route,
        # refutes it at the third and must not refute it at the fourth
        self._assert_solved(*cut_graph(second_route=True, retake=True))

    def test_older_cut_refutes_again(self):
        # pair 1 is refuted by one cut, then by another, then by the first
        self._assert_solved(*returning_cut_graph())

    def test_stale_cuts_are_not_trusted(self):
        # both held cuts are partly taken when pair 1 has a route again
        self._assert_solved(*stale_cut_graph())


def _mirror(g, pairs):
    # the instance the solvers search second: reverse graph, each pair's ends swapped, the list reversed
    return g._reverse(), [(t, s) for s, t in reversed(pairs)]


class TestSearchCore:
    # SHA-256 of the answers (the repr of the paths, "none" or "budget") over
    # the cases below; a change to the search must keep it.  The repr stands
    # in for PathSet JSON, which encodes reduction labels only.
    # SEARCH_DIGEST pins the first search alone (``_search``, which no mirror
    # search follows), SOLVER_DIGEST the solver, which also decides where
    # only the mirror search finishes.  The line-graph cases are solved
    # edge-disjoint like the rest.
    SOLVER_DIGEST = "c243e1afa51f59158acf8263858858bcfdb734c7a9e94b63d489f8016c479fc6"
    SEARCH_DIGEST = "c758e8ed13d80d44d3d531a5c1865cf8928883afd09cfc0f170bcc64a0263d2e"

    @staticmethod
    def _answer(solver, g, pairs, budget):
        try:
            ps = solver(g, pairs, budget=budget)
        except BudgetExceededError:
            return "budget"
        return "none" if ps is None else repr(ps.paths)

    def _answers_digest(self, solver) -> str:
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
                digest.update(self._answer(solver, g, pairs, budget).encode())
        return digest.hexdigest()

    def test_solver_answers_match_pinned_digest(self):
        assert self._answers_digest(solve_edp_dag) == self.SOLVER_DIGEST

    def test_first_search_answers_match_pinned_digest(self):
        assert self._answers_digest(_search) == self.SEARCH_DIGEST

    # SHA-256 of the first search's expansion count (the smallest budget at
    # which it finishes, or "budget" past 10^4) on the cases above plus
    # deeper planted and infeasible random reductions: pins the search tree
    # itself, so pruning may get cheaper but not prune differently.  The
    # solver's own counts are not monotone in the budget: a budget under the
    # first search's count can let the mirror finish.
    SOLVER_COUNT_DIGEST = "9f0901d905c1e57fe9d6c40e3d03812873c2436e1ea080c0b6ed8e8564c81709"

    @staticmethod
    def _expansions(search, g, pairs, cap=10_000) -> str:
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

    def _counts_digest(self) -> str:
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
            digest.update(f"{self._expansions(_search, g, pairs)};".encode())
        return digest.hexdigest()

    def test_solver_expansion_counts_match_pinned_digest(self):
        assert self._counts_digest() == self.SOLVER_COUNT_DIGEST

    @staticmethod
    def _assert_count(search, g, pairs, answer, count):
        # finishes with the answer at a budget of its count, raises one below
        ps = search(g, pairs, budget=count)
        assert (None if ps is None else ps.paths) == answer
        if count:
            with pytest.raises(BudgetExceededError):
                search(g, pairs, budget=count - 1)

    def _assert_enumerated_count(self, g, pairs):
        # the first search's answer and expansion count are the enumerating
        # search's in the cone-first order, its paths put back in the given
        # order
        order = cone_first_order(g, pairs)
        paths, count = enumerate_routes(g, [pairs[i] for i in order], False)
        if paths is not None:
            paths = [paths[order.index(i)] for i in range(len(pairs))]
        self._assert_count(_search, g, pairs, paths, count)

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_counts_match_an_enumerating_search(self, case):
        self._assert_enumerated_count(*case)

    def test_ladder_count_matches_enumeration(self):
        for d in range(1, 7):
            g, pairs = diamond_ladder(d)
            assert enumerate_routes(g, pairs, False)[1] == ladder_count(d)
            self._assert_enumerated_count(g, pairs)

    def test_subtree_sizes_are_counted_per_entry(self):
        # Three pairs s -> t, and s has two arcs.  At pair 1's first entry,
        # under pair 0's route s-b-t, the arc s -> a cuts off pair 2, and the
        # subtree below a counts b as a dead end, as b -> t is taken.  At its
        # second entry, under s-a-t, the arc s -> b cuts off pair 2, and the
        # subtree below b is the arc b -> t, free now: one expansion, where a
        # size memoized per pair would count none.
        g = Digraph(["s", "a", "b", "t"], [("s", "b"), ("s", "a"), ("a", "b"), ("b", "t"), ("a", "t")])
        pairs = [("s", "t")] * 3
        assert enumerate_routes(g, pairs, False) == (None, 11)
        self._assert_enumerated_count(g, pairs)

    def test_futile_ladder_is_counted_not_walked(self):
        # 2^22 futile routes, about 1.7e7 expansions: an enumerating search
        # walks them in seconds, one that counts them in a pass over 4d arcs
        d = 22
        g, pairs = diamond_ladder(d)
        answer = [["s0", "t0"], ["s1", "u", "v", "t1"]]
        self._assert_count(_search, g, pairs, answer, ladder_count(d))

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        g = Digraph(range(n), [(v, v + 1) for v in range(n - 1)])
        assert solve_edp_dag(g, [(0, n - 1)]).paths == [list(range(n))]

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
        # The bytes a planted (3, 10) reduction keeps per vertex plus edge, after the two checks of
        # its forward-mapped solution that a roundtrip makes: its id dict, adjacency lists, id lists
        # and its list of the names in the shape's memo come to 157 B in the direct form and 174 B in
        # the degree-2 form; the bound leaves 8 % over the latter.  Grid labels made per build, not
        # shared through the memo, came to 188 B and 204 B; a kept set of (tail, head) tuples and a
        # tuple per coordinate, to 247 B and 281 B; a set of int edge keys kept for the checker, to
        # 234 B and 250 B
        inst = generate_planted(3, 10, noise=2, seed=0)
        direct = reduce(inst)
        build = partial(reduce_degree, direct) if degree2 else partial(reduce, inst)
        warm = build()  # the shape's cached base parts are no graph's cost
        ps = gt_solution_to_paths(warm, solve_gt_brute_force(inst))
        tracemalloc.start()
        try:
            g = build().graph
            for _ in range(2):
                assert check_edp_solution(g, warm.terminals, ps) == []
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept / (g.num_vertices + g.num_edges) < 188

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_reach_bits_match_reachability(self, seed, data):
        # up to 20 targets, some repeated: masks of up to 20 bits.  On the
        # mirror view, as the cone order uses it, bit j marks the vertices
        # that targets[j] reaches in the graph: a walk along out-arcs from it.
        g, _ = random_dag(seed)
        verts = g.vertices
        targets = data.draw(st.lists(st.sampled_from(verts), max_size=20))
        for view, before in ((g, g.inn), (g._reverse(), g.out)):
            expected = []
            for t in targets:
                found, todo = {t}, [t]
                while todo:
                    for u in before(todo.pop()):
                        if u not in found:
                            found.add(u)
                            todo.append(u)
                expected.append([v in found for v in verts])
            reach = _reach_bits(view, [verts.index(t) for t in targets])
            assert [[bool(bits >> j & 1) for bits in reach] for j in range(len(targets))] == expected


class TestMirrorSearch:
    """Where the first search runs out, the solvers search the mirror instance with half the budget."""

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_answers_after_a_first_search_budget_hit_are_right(self, case):
        # at budgets 0, 1, 2, 4, ... up to the first search's count, where it
        # raises: any answer the solver gives is right and in the given order
        g, pairs = case
        feasible = enumerate_routes(g, pairs, False)[0] is not None
        budget = 0
        while True:
            try:
                _search(g, pairs, budget=budget)
                break
            except BudgetExceededError:
                pass
            try:
                ps = solve_edp_dag(g, pairs, budget=budget)
            except BudgetExceededError as exc:
                assert exc.budget == budget
            else:
                assert (ps is not None) == feasible
                if ps is not None:
                    assert [(path[0], path[-1]) for path in ps.paths] == [tuple(pair) for pair in pairs]
                    assert check_edp_solution(g, pairs, ps) == []
            budget = 2 * budget or 1

    def test_mirror_decides_where_the_first_search_runs_out(self):
        # planted (2, 4) noise 2 seed 10: the first search hits 10^4, the mirror finds the paths
        inst = generate_planted(2, 4, noise=2, seed=10)
        out = reduce(inst)
        with pytest.raises(BudgetExceededError):
            _search(out.graph, out.terminals, budget=10_000)
        ps = solve_edp_dag(out.graph, out.terminals, budget=10_000)
        mirrored = _search(*_mirror(out.graph, out.terminals.pairs), budget=5_000)
        assert ps.paths == [path[::-1] for path in reversed(mirrored.paths)]
        assert check_edp_solution(out.graph, out.terminals, ps) == []

    @pytest.mark.parametrize("one_shot", [iter, lambda pairs: (pair for pair in pairs)], ids=["iterator", "generator"])
    @pytest.mark.parametrize(
        "inst, raises",
        [
            (generate_random(3, 5, density=0.1, seed=1), True),
            (generate_random(2, 5, density=0.1, seed=0), False),
            (generate_planted(2, 4, noise=2, seed=10), False),
        ],
        ids=["random-3-5-budget-hit", "random-2-5-propagation-decides", "planted-2-4-mirror-decides"],
    )
    def test_one_shot_pairs_are_read_once(self, one_shot, inst, raises):
        # each needs a stage after the first search, which must see the pairs the first search consumed
        out = reduce(inst)
        pairs = list(out.terminals.pairs)
        if raises:  # every stage runs out, as with the list
            with pytest.raises(BudgetExceededError):
                solve_edp_dag(out.graph, one_shot(pairs), budget=10_000)
        else:
            ps = solve_edp_dag(out.graph, one_shot(pairs), budget=10_000)
            assert ps == solve_edp_dag(out.graph, pairs, budget=10_000)
            assert (ps is None) == (solve_gt_brute_force(inst) is None)
            if ps is not None:
                assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_both_searches_agree_on_reductions(self):
        # where the first and the mirror search both decide at 10^4, they
        # agree with the grid tiling answer
        both = set()  # the answers on which both decided
        for k, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
            for seed in range(3):
                for inst in (generate_planted(k, n, noise=2, seed=seed), generate_random(k, n, 0.15, seed=seed)):
                    out = reduce(inst)
                    feasible = solve_gt_brute_force(inst) is not None
                    answers = []
                    for g, pairs in ((out.graph, out.terminals.pairs), _mirror(out.graph, out.terminals.pairs)):
                        try:
                            answers.append(_search(g, pairs, budget=10_000) is not None)
                        except BudgetExceededError:
                            pass
                    assert set(answers) <= {feasible}, (k, n, seed, inst.sets)
                    if len(answers) == 2:
                        both.add(answers[0])
        assert both == {False, True}


class TestStageLoop:
    """``solve_edp_dag`` runs its three stages in order, each with its share of the budget, until one answers."""

    STAGES = ("_search", "_search_mirror", "_search_domains")

    @staticmethod
    def _patch(monkeypatch, calls, answering=None):
        # each stage records (name, share), then answers None if it is the answering one, else runs out
        for name in TestStageLoop.STAGES:

            def stage(g, pairs, share, name=name):
                calls.append((name, share))
                if name == answering:
                    return None
                raise BudgetExceededError(share)

            monkeypatch.setattr(f"gridpaths.edp.{name}", stage)

    @pytest.mark.parametrize("budget, half", [(1, 1), (2, 1), (7, 4), (10_000, 5_000)])
    def test_stages_run_in_order_with_their_shares(self, monkeypatch, budget, half):
        calls = []
        self._patch(monkeypatch, calls)
        with pytest.raises(BudgetExceededError) as raised:
            solve_edp_dag(cross_graph(), [("s1", "t1")], budget=budget)
        assert calls == list(zip(self.STAGES, (budget, half, half)))
        assert raised.value.budget == budget

    def test_a_none_from_the_mirror_stage_is_the_answer(self, monkeypatch):
        calls = []
        self._patch(monkeypatch, calls, answering="_search_mirror")
        assert solve_edp_dag(cross_graph(), [("s1", "t1")], budget=10) is None
        assert calls == [("_search", 10), ("_search_mirror", 5)]


def _edge_id(g, u, v):
    tail, head = g._id[u], g._id[v]
    return next(e for e in g._out[tail] if g._head[e] == head)


class TestPropagation:
    """Pairwise propagation, the solver's third stage: its games are sound, exact at two pairs, and the plain game's."""

    @settings(max_examples=300, deadline=None)
    @given(case=dags_with_pairs())
    def test_never_refutes_a_feasible_instance(self, case):
        g, pairs = case
        if _propagate(g, pairs, 10**9) is None:
            assert not edp_feasible_exhaustive(g, pairs)

    @settings(max_examples=300, deadline=None)
    @given(case=dags_with_pairs())
    def test_solution_arcs_stay_in_their_domains(self, case):
        g, pairs = case
        paths, _ = enumerate_routes(g, pairs, False)
        if paths is not None:
            dom = _propagate(g, pairs, 10**9)
            for i, path in enumerate(paths):
                assert all(dom[_edge_id(g, u, v)] >> i & 1 for u, v in zip(path, path[1:]))

    @settings(max_examples=300, deadline=None)
    @given(case=dags_with_pairs(ks=(2,)))
    def test_refutes_exactly_the_no_instances_with_two_pairs(self, case):
        g, pairs = case
        assert (_propagate(g, pairs, 10**9) is None) == (not edp_feasible_exhaustive(g, pairs))

    @staticmethod
    def _assert_games_are_plain(doms, g, pairs):
        # every game of two pairs whose domains share an arc: the plain game's value and the arcs on its winning lines
        edges = g.edges
        for j in range(len(pairs)):
            for i in range(j):
                dom_i, dom_j = ({edges[e] for e in doms.arcs[p]} for p in (i, j))
                if dom_i & dom_j:
                    won, kept_i, kept_j = pair_game_plain(g, pairs[i], pairs[j], dom_i, dom_j)
                    result = doms.game(i, j)
                    assert (result is not None) == won, (i, j)
                    if won:
                        assert [{edges[e] for e in kept} for kept in result] == [kept_i, kept_j], (i, j)

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_games_are_the_plain_game_on_dags(self, case):
        g, pairs = case
        doms = _Domains(g, pairs, 10**9)
        if doms.routed:
            self._assert_games_are_plain(doms, g, pairs)

    @pytest.mark.parametrize("degree2", [False, True], ids=["direct", "degree2"])
    def test_games_are_the_plain_game_on_reductions(self, degree2):
        # each crossing game, on the cone domains and again at the fixpoint, where it keeps both domains whole
        for k, n in ((2, 2), (2, 3), (3, 3)):
            for seed in range(2):
                for inst in (generate_random(k, n, 0.15, seed=seed), generate_planted(k, n, noise=2, seed=seed)):
                    out = reduce(inst)
                    if degree2:
                        out = reduce_degree(out)
                    g, pairs = out.graph, list(out.terminals.pairs)
                    doms = _Domains(g, pairs, 10**9)
                    self._assert_games_are_plain(doms, g, pairs)
                    doms = _Domains(g, pairs, 10**9)
                    if doms.narrow():
                        arcs = [list(a) for a in doms.arcs]
                        self._assert_games_are_plain(doms, g, pairs)
                        assert doms.arcs == arcs

    @settings(max_examples=200, deadline=None)
    @given(case=dags_with_pairs())
    def test_paths_after_the_stage_pass_the_checker(self, case):
        g, pairs = case
        ps = _search_domains(g, pairs, 10**6)
        assert (ps is not None) == edp_feasible_exhaustive(g, pairs)
        if ps is not None:
            assert [(path[0], path[-1]) for path in ps.paths] == [tuple(pair) for pair in pairs]
            assert check_edp_solution(g, pairs, ps) == []

    @pytest.mark.parametrize(
        "inst, budget, feasible",
        [(generate_planted(3, 4, noise=2, seed=8), 20_000, True), (generate_random(2, 5, density=0.1, seed=0), 10_000, False)],
        ids=["planted-3-4-yes", "random-2-5-no"],
    )
    def test_stage_decides_where_both_searches_run_out(self, inst, budget, feasible):
        # both searches hit their budgets; propagation refutes, or the search on its domains finds the paths
        out = reduce(inst)
        pairs = list(out.terminals.pairs)
        with pytest.raises(BudgetExceededError):
            _search(out.graph, pairs, budget=budget)
        with pytest.raises(BudgetExceededError):
            _search(*_mirror(out.graph, pairs), budget=(budget + 1) // 2)
        ps = solve_edp_dag(out.graph, out.terminals, budget=budget)
        assert (ps is not None) == feasible == (solve_gt_brute_force(inst) is not None)
        if feasible:
            assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_stage_raises_past_its_cap(self):
        # random (3, 5) d=0.1 seed 1 is refuted after 10,490 states, the squares of the games' stop counts
        out = reduce(generate_random(3, 5, density=0.1, seed=1))
        pairs = list(out.terminals.pairs)
        assert _propagate(out.graph, pairs, 10_490) is None
        with pytest.raises(BudgetExceededError) as raised:
            _propagate(out.graph, pairs, 10_489)
        assert raised.value.budget == 10_489

    # Generator seeds of instances on which the first and the mirror search both run out at 10^4,
    # so that every answer below is the third stage's.  The random ones are of the solve-infeasible
    # benchmark families, from a draw of its seed-4101 deck (94 double budget hits in 1,485
    # instances; the first 25 of the (2, 4) ones, and all others); the planted ones (noise 2) of its
    # solve-feasible families: two that the search on the domains routes, two past the state cap.
    STAGE_THREE = {
        ("random", 2, 4, 0.15): (
            14346582, 116702507, 891891871, 1837217170, 458105535, 4120873847, 2827098378, 1226783099,
            1009935457, 3793885692, 3213811919, 3778935686, 793830589, 235081250, 1467385936, 2270924899,
            861346888, 1502305309, 2403883171, 3513700277, 557509247, 3399007947, 105649485, 61903146,
            490466680,
        ),
        ("random", 3, 3, 0.15): (
            745083719, 739577903, 1036186994, 3142544599, 1399146314, 2368527118, 2137128356, 590690629,
            3967619072, 400797833, 1327954372,
        ),
        ("random", 3, 4, 0.1): (
            2974949538, 993968416, 1120855074, 715110978, 4166524247, 1751949781, 1954077235, 3249266202,
            283528505, 1406192988, 237880538, 2179474692, 2827173989, 3396094598, 2904442794, 1935432168,
            2216834073, 2170568212, 4081057804, 1276849942, 1008206813, 4139771233, 3566261023, 2223517232,
        ),
        ("planted", 3, 3, 2): (2955497055, 1610257848),
        ("planted", 3, 4, 2): (3530956782, 1507326441),
    }
    # SHA-256 of solve_edp_dag's answers on them at 10^4, in TestSearchCore's form
    STAGE_THREE_DIGEST = "2d5ef69ce42671c99f907b0986047e07fb8417b735459dd626ffcf4830a63ace"

    def test_third_stage_answers_match_pinned_digest(self, monkeypatch):
        reached = []  # every instance must get to the stage
        monkeypatch.setattr("gridpaths.edp._search_domains", lambda *args: reached.append(1) or _search_domains(*args))
        digest = hashlib.sha256()
        for (mode, k, n, param), seeds in self.STAGE_THREE.items():
            for seed in seeds:
                if mode == "planted":
                    inst = generate_planted(k, n, noise=param, seed=seed)
                else:
                    inst = generate_random(k, n, density=param, seed=seed)
                out = reduce(inst)
                try:
                    ps = solve_edp_dag(out.graph, out.terminals, budget=10_000)
                except BudgetExceededError:
                    digest.update(b"budget")
                    continue
                digest.update(("none" if ps is None else repr(ps.paths)).encode())
                # checked against the grid tiling oracle, and a "yes" by its paths
                assert (ps is None) == (solve_gt_brute_force(inst) is None), (mode, k, n, seed)
                if ps is not None:
                    assert check_edp_solution(out.graph, out.terminals, ps) == [], (mode, k, n, seed)
        assert len(reached) == sum(map(len, self.STAGE_THREE.values()))
        assert digest.hexdigest() == self.STAGE_THREE_DIGEST

    # (k, N) of the planted (noise 2, seed 0) solver-table rows that propagation leaves open
    OPEN_ROWS = ((3, 4), (3, 5), (2, 8), (3, 6), (2, 12))
    # SHA-256 of _propagate's uncapped answers on the STAGE_THREE instances, then on OPEN_ROWS:
    # "none", or the per-edge masks of the domains it keeps
    DOMAIN_DIGEST = "ae42d98c5255152b08e8e3cb81c2bd1b472117c6c40736f6e0a2052f9788e734"

    def test_kept_domains_match_pinned_digest(self):
        # the answers alone would not show a game that keeps other arcs: 60 of the 64 STAGE_THREE
        # instances are refuted
        instances = []
        for (mode, k, n, param), seeds in self.STAGE_THREE.items():
            for seed in seeds:
                if mode == "planted":
                    instances.append(generate_planted(k, n, noise=param, seed=seed))
                else:
                    instances.append(generate_random(k, n, density=param, seed=seed))
        instances += [generate_planted(k, n, noise=2, seed=0) for k, n in self.OPEN_ROWS]
        digest, opened = hashlib.sha256(), 0
        for inst in instances:
            out = reduce(inst)
            dom = _propagate(out.graph, list(out.terminals.pairs), 10**9)
            opened += dom is not None
            digest.update(("none" if dom is None else repr(dom)).encode() + b";")
        assert opened == 4 + len(self.OPEN_ROWS)
        assert digest.hexdigest() == self.DOMAIN_DIGEST

    @staticmethod
    def _assert_view_searches_as_the_subgraph(g, pairs, keep, cap):
        # the search on the view g._restrict(keep) and on the subgraph rebuilt from the kept edges (the
        # third stage's construction before the view): the same answer at the same expansion count, up
        # to cap, and so on both graphs' mirrors
        sub = Digraph(g.vertices, [edge for edge, kept in zip(g.edges, keep) if kept])
        view = g._restrict(keep)
        mirrored = [(t, s) for s, t in reversed(pairs)]
        for rebuilt, viewed, ends in ((sub, view, pairs), (sub._reverse(), view._reverse(), mirrored)):
            count = TestSearchCore._expansions(_search, rebuilt, ends, cap)
            if count == "budget":
                with pytest.raises(BudgetExceededError):
                    _search(viewed, ends, budget=cap)
            else:
                ps = _search(rebuilt, ends, budget=int(count))
                TestSearchCore._assert_count(_search, viewed, ends, None if ps is None else ps.paths, int(count))

    @settings(max_examples=300, deadline=None)
    @given(case=dags_with_pairs(), data=st.data())
    def test_search_on_a_view_is_the_search_on_its_subgraph(self, case, data):
        g, pairs = case
        keep = data.draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
        self._assert_view_searches_as_the_subgraph(g, pairs, keep, 10_000)

    def test_search_on_the_kept_domains_is_the_search_on_their_subgraph(self):
        # the masks _propagate keeps on OPEN_ROWS, where the forward counts reach 740,605
        for k, n in self.OPEN_ROWS:
            out = reduce(generate_planted(k, n, noise=2, seed=0))
            pairs = list(out.terminals.pairs)
            self._assert_view_searches_as_the_subgraph(out.graph, pairs, _propagate(out.graph, pairs, 10**9), 10**6)


class TestInstanceSymmetries:
    """The transpose tau and the half turn rho keep a grid tiling instance's answer; the solver must too."""

    def test_solver_answers_alike_on_symmetric_instances(self):
        # random d = 0.15: wherever the solver decides at 10^4 on the reduction
        # of inst, tau inst, rho inst or tau rho inst, it gives the oracle's answer
        decided = set()
        for k, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
            for seed in range(40):
                inst = generate_random(k, n, 0.15, seed=seed)
                feasible = solve_gt_brute_force(inst) is not None
                turned = rotate_instance(inst)
                for image in (inst, transpose_instance(inst), turned, transpose_instance(turned)):
                    out = reduce(image)
                    try:
                        answer = solve_edp_dag(out.graph, out.terminals, budget=10_000) is not None
                    except BudgetExceededError:
                        continue
                    assert answer == feasible, (k, n, seed, image.sets)
                    decided.add(answer)
        assert decided == {False, True}
