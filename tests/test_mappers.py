import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.digraph import (
    EmbeddedDigraph,
    GridVertex,
    HConnector,
    Terminal,
    VConnector,
)
from gridpaths.edp import PathSet, check_edp_solution, solve_edp_dag
from gridpaths.errors import BudgetExceededError
from gridpaths.gridtiling import (
    GTAssignment,
    GridTilingInstance,
    check_gt_solution,
    generate_planted,
    generate_random,
    solve_gt_brute_force,
)
from gridpaths.mappers import (
    ExtractionFailedError,
    InvalidSolutionError,
    check_level_confinement,
    gt_solution_to_paths,
    paths_to_gt_solution,
)
from gridpaths.reduction import (
    GraphCounts,
    ReductionOutput,
    TerminalSet,
    boundary,
    grid_vertex_parts,
    reduce,
    reduce_degree,
)

from ._oracles import (
    check_edp_solution_reference,
    column_path,
    gt_solution_to_paths_reference,
    has_edge,
    level_confined_reference,
    row_path,
    transpose_instance,
    transpose_label,
)


def full_instance(k, n):
    sets = {
        (x, y): {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
        for x in range(1, k + 1)
        for y in range(1, k + 1)
    }
    return GridTilingInstance(k=k, N=n, sets=sets)


class TestRowColumnPaths:
    def test_row_through_whole_vertices(self):
        out = reduce(full_instance(1, 3))
        path = row_path(out, 1, 1, 2)
        assert path == [GridVertex(1, 1, q, 2) for q in (1, 2, 3)]

    def test_row_through_split_vertices(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): set()})
        out = reduce(inst)
        path = row_path(out, 1, 1, 1)
        assert [(v.q, v.part) for v in path] == [
            (1, "lb"),
            (1, "tr"),
            (2, "lb"),
            (2, "tr"),
        ]

    def test_column_through_split_vertices(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): set()})
        out = reduce(inst)
        path = column_path(out, 1, 1, 2)
        assert [(v.q, v.ell, v.part) for v in path] == [
            (2, 1, "lb"),
            (2, 1, "tr"),
            (2, 2, "lb"),
            (2, 2, "tr"),
        ]

    def test_paths_are_directed_paths(self):
        out = reduce(generate_random(2, 3, 0.5, seed=1))
        for ell in (1, 2, 3):
            for path in (row_path(out, 2, 1, ell), column_path(out, 1, 2, ell)):
                for u, v in zip(path, path[1:]):
                    assert has_edge(out.graph, u, v)

    def test_row_and_column_cross_edge_disjointly_at_whole_vertex(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        out = reduce(inst)
        row = row_path(out, 1, 1, 1)
        col = column_path(out, 1, 1, 1)
        row_edges = set(zip(row, row[1:]))
        col_edges = set(zip(col, col[1:]))
        assert not row_edges & col_edges
        assert set(row) & set(col) == {GridVertex(1, 1, 1, 1)}

    def test_out_of_range_rejected(self):
        out = reduce(full_instance(1, 2))
        with pytest.raises(ValueError):
            row_path(out, 1, 1, 3)
        with pytest.raises(ValueError):
            column_path(out, 1, 1, 0)
        # grid_vertex_parts takes an index only as an int, not a bool or a float
        with pytest.raises(ValueError):
            row_path(out, 1, 1, 2.0)
        with pytest.raises(ValueError):
            column_path(out, 1, True, 1)


class TestForwardDirection:
    def test_single_cell_crossing(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        out = reduce(inst)
        ps = gt_solution_to_paths(out, GTAssignment({(1, 1): (1, 1)}))
        assert check_edp_solution(out.graph, out.terminals, ps) == []
        shared = set(ps.paths[0]) & set(ps.paths[1])
        assert shared == {GridVertex(1, 1, 1, 1)}

    def test_planted_instance_maps_to_valid_paths(self):
        inst = generate_planted(2, 3, noise=0, seed=0)
        out = reduce(inst)
        asg = solve_gt_brute_force(inst)
        ps = gt_solution_to_paths(out, asg)
        assert check_edp_solution(out.graph, out.terminals, ps) == []
        assert check_level_confinement(out, ps)

    def test_degenerate_connector_run_uses_only_matching_edges(self):
        out = reduce(full_instance(2, 2))
        asg = GTAssignment({(x, y): (1, 1) for x in (1, 2) for y in (1, 2)})
        ps = gt_solution_to_paths(out, asg)
        column_route = ps.paths[0]
        runs = [v for v in column_route if isinstance(v, VConnector)]
        assert runs == [VConnector(1, 1, 1)]
        assert check_edp_solution(out.graph, out.terminals, ps) == []

    def test_invalid_assignment_rejected(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}})
        out = reduce(inst)
        with pytest.raises(InvalidSolutionError):
            gt_solution_to_paths(out, GTAssignment({(1, 1): (2, 2)}))

    def test_forward_works_on_degree_reduced_graphs(self):
        # tree depth changes at N = 3, 5 and 9
        for k in (1, 2, 3):
            for n in range(2, 10):
                inst = generate_planted(k, n, noise=2, seed=k * 10 + n)
                red = reduce_degree(reduce(inst))
                asg = solve_gt_brute_force(inst)
                ps = gt_solution_to_paths(red, asg)
                assert check_edp_solution(red.graph, red.terminals, ps) == [], (k, n)
                assert check_level_confinement(red, ps), (k, n)
                assert paths_to_gt_solution(red, ps) == asg, (k, n)


class TestLabelsMadeOnce:
    def test_maps_and_queries_return_the_graphs_own_labels(self):
        # the very objects in graph._verts, not equal copies, on both forms
        for k, n in ((1, 2), (2, 3), (3, 4)):
            inst = generate_planted(k, n, noise=2, seed=k + n)
            asg = solve_gt_brute_force(inst)
            for out in (reduce(inst), reduce_degree(reduce(inst))):
                returned = [v for path in gt_solution_to_paths(out, asg).paths for v in path]
                for cell in inst.cells():
                    returned += (v for side in ("left", "right", "top", "bottom") for v in boundary(out, *cell, side))
                    for q, ell in product(range(1, n + 1), repeat=2):
                        returned += grid_vertex_parts(out, *cell, q, ell)
                verts, ids = out.graph._verts, out.graph._id
                assert all(verts[ids[v]] is v for v in returned), (k, n, out.degree_reduced)

    def test_output_without_layout_is_named(self):
        # a ReductionOutput made by hand has no layout to read the labels through
        inst = generate_planted(2, 3, noise=2, seed=5)
        out = reduce(inst)
        bare = ReductionOutput(out.graph, out.terminals, out.provenance, out.counts)
        calls = (
            lambda: grid_vertex_parts(bare, 1, 1, 1, 1),
            lambda: boundary(bare, 1, 1, "left"),
            lambda: gt_solution_to_paths(bare, solve_gt_brute_force(inst)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^the reduction has no layout: make it with reduce or reduce_degree$"):
                call()


class TestBackwardDirection:
    def test_round_trip_is_identity(self):
        for inst in (
            generate_planted(2, 3, noise=1, seed=4),
            generate_planted(1, 3, noise=0, seed=0),
            full_instance(2, 2),
        ):
            out = reduce(inst)
            asg = solve_gt_brute_force(inst)
            ps = gt_solution_to_paths(out, asg)
            assert paths_to_gt_solution(out, ps) == asg

    def test_solver_output_extracts_to_valid_assignment(self):
        inst = generate_planted(2, 3, noise=2, seed=6)
        out = reduce(inst)
        ps = solve_edp_dag(out.graph, out.terminals)
        extracted = paths_to_gt_solution(out, ps)
        assert check_gt_solution(inst, extracted)

    def test_plain_tuple_copy_of_a_solver_answer_extracts_and_is_confined(self):
        # a label is a tuple: a copy made of plain tuples passes the checker, so it must extract and confine too
        inst = generate_planted(2, 3, noise=2, seed=6)
        for out in (reduce(inst), reduce_degree(reduce(inst))):
            answer = solve_edp_dag(out.graph, out.terminals)
            plain = PathSet([[tuple(v) for v in path] for path in answer.paths])
            assert {type(v) for path in plain.paths for v in path} == {tuple}
            assert check_edp_solution(out.graph, out.terminals, plain) == []
            assert paths_to_gt_solution(out, plain) == paths_to_gt_solution(out, answer)
            assert check_level_confinement(out, plain) and check_level_confinement(out, answer)

    def test_copy_with_equal_non_int_fields_extracts_the_graphs_ints(self):
        # ("grid", 1, 1, 2.0, 1, "whole") equals the label with q = 2 and passes the checker; the
        # assignment still holds the graph's own ints
        out = reduce(generate_planted(2, 3, noise=2, seed=6))
        answer = solve_edp_dag(out.graph, out.terminals)
        inexact = PathSet([[(*v[:3], float(v[3]), *v[4:]) if v[0] == "grid" else v for v in p] for p in answer.paths])
        assert check_edp_solution(out.graph, out.terminals, inexact) == []
        extracted = paths_to_gt_solution(out, inexact)
        assert extracted == paths_to_gt_solution(out, answer)
        assert {type(c) for pair in extracted.choice.values() for c in pair} == {int}

    def test_single_cell_extraction_lands_in_set(self):
        inst = GridTilingInstance(k=1, N=2, sets={(1, 1): {(2, 1)}})
        out = reduce(inst)
        ps = solve_edp_dag(out.graph, out.terminals)
        extracted = paths_to_gt_solution(out, ps)
        assert extracted.choice[(1, 1)] in inst.sets[(1, 1)]

    def test_invalid_path_set_rejected(self):
        out = reduce(full_instance(1, 2))
        bogus = PathSet([[Terminal("a", 1)], [Terminal("c", 1)]])
        with pytest.raises(InvalidSolutionError):
            paths_to_gt_solution(out, bogus)

    def test_missing_crossing_is_a_hard_error(self):
        # doctored graph whose "solution" bypasses the grids entirely
        a, b = Terminal("a", 1), Terminal("b", 1)
        c, d = Terminal("c", 1), Terminal("d", 1)
        u, v = HConnector(7, 7, 1), HConnector(8, 8, 1)
        w = GridVertex(1, 1, 1, 1)
        g = EmbeddedDigraph(
            [a, b, c, d, u, v, w],
            [(a, u), (u, b), (c, v), (v, d), (w, u), (w, v)],
            {
                a: (0, 0),
                b: (2, 0),
                c: (0, 2),
                d: (2, 2),
                u: (1, 0),
                v: (1, 2),
                w: (1, 1),
            },
        )
        doctored = ReductionOutput(
            graph=g,
            terminals=TerminalSet(((a, b), (c, d))),
            provenance=GridTilingInstance(k=1, N=2, sets={(1, 1): {(1, 1)}}),
            counts=GraphCounts(vertices=7, edges=6),
        )
        ps = PathSet([[a, u, b], [c, v, d]])
        assert check_edp_solution(g, doctored.terminals, ps) == []
        with pytest.raises(ExtractionFailedError):
            paths_to_gt_solution(doctored, ps)


class TestExhaustiveExtraction:
    def test_every_valid_path_tuple_extracts_on_every_tiny_instance(self):
        # all 16 subsets of the k=1, N=2 universe; every pairwise
        # edge-disjoint path tuple must yield a member of S_(1,1) and stay
        # level-confined
        from ._oracles import iter_all_paths

        universe = [(a, b) for a in (1, 2) for b in (1, 2)]
        for bits in range(16):
            cell = {universe[n] for n in range(4) if bits >> n & 1}
            inst = GridTilingInstance(k=1, N=2, sets={(1, 1): cell})
            out = reduce(inst)
            (a, b), (c, d) = out.terminals.pairs
            tuples_seen = 0
            for p in iter_all_paths(out.graph, a, b):
                p_edges = set(zip(p, p[1:]))
                for q in iter_all_paths(out.graph, c, d):
                    if p_edges & set(zip(q, q[1:])):
                        continue
                    tuples_seen += 1
                    ps = PathSet([p, q])
                    assert check_edp_solution(out.graph, out.terminals, ps) == []
                    extracted = paths_to_gt_solution(out, ps)
                    assert extracted.choice[(1, 1)] in cell
                    assert check_level_confinement(out, ps)
            # solvable iff some edge-disjoint tuple exists
            assert (tuples_seen > 0) == bool(cell)

    def test_every_assignment_maps_forward_on_small_instances(self):
        from ._oracles import gt_solutions_exhaustive

        for seed in range(6):
            inst = generate_random(2, 2, 0.6, seed)
            out = reduce(inst)
            for asg in gt_solutions_exhaustive(inst):
                ps = gt_solution_to_paths(out, asg)
                assert check_edp_solution(out.graph, out.terminals, ps) == []
                assert paths_to_gt_solution(out, ps) == asg


class TestLevelConfinement:
    def test_forward_paths_are_confined(self):
        inst = generate_random(2, 2, 0.8, seed=3)
        out = reduce(inst)
        asg = solve_gt_brute_force(inst)
        if asg is not None:
            ps = gt_solution_to_paths(out, asg)
            assert check_level_confinement(out, ps)

    def test_solver_paths_are_confined(self):
        inst = generate_planted(2, 3, noise=1, seed=9)
        out = reduce(inst)
        ps = solve_edp_dag(out.graph, out.terminals)
        assert check_level_confinement(out, ps)

    def test_detour_through_other_level_is_flagged(self):
        out = reduce(full_instance(2, 2))
        asg = GTAssignment({(x, y): (1, 1) for x in (1, 2) for y in (1, 2)})
        ps = gt_solution_to_paths(out, asg)
        # splice a walk through the j=2 horizontal connectors into path Q_1
        ps.paths[2] = [GridVertex(1, 2, 2, 1), HConnector(1, 2, 1)]
        assert not check_level_confinement(out, ps)

    def test_wrong_path_count_rejected(self):
        out = reduce(full_instance(1, 2))
        with pytest.raises(ValueError):
            check_level_confinement(out, PathSet([[Terminal("a", 1)]]))


class TestPinnedMaps:
    # SHA-256 of the repr of the forward map, of every boundary and of every
    # row and column path over the instance list below; computed before the
    # column and row rules were written once for both orientations.
    DIGEST = "7d65cc5a4532644d8f896dd7d237dbb9e0fcc6f9923bd53eb26a4a4506fd6347"

    def test_maps_match_pinned_digest(self):
        digest = hashlib.sha256()
        for k in (1, 2, 3):
            for n in range(2, 7):
                seed = k * 10 + n
                for inst in (
                    generate_planted(k, n, noise=2, seed=seed),
                    generate_random(k, n, 0.5, seed=seed),
                ):
                    out = reduce(inst)
                    asg = solve_gt_brute_force(inst)
                    for x in (out, reduce_degree(out)):
                        ps = None if asg is None else gt_solution_to_paths(x, asg)
                        digest.update(repr(ps).encode())
                        for cell in inst.cells():
                            for side in ("left", "right", "top", "bottom"):
                                digest.update(repr(boundary(x, *cell, side)).encode())
                            for ell in range(1, n + 1):
                                digest.update(repr(row_path(x, *cell, ell)).encode())
                                digest.update(repr(column_path(x, *cell, ell)).encode())
        assert digest.hexdigest() == self.DIGEST


# Swapping x and y (tau) maps the column half of the gadget onto the row half,
# and each side of a grid onto the side across the diagonal.
_SWAP_SIDE = {"left": "bottom", "bottom": "left", "right": "top", "top": "right"}


@st.composite
def instances(draw):
    """A random instance; with ``planted`` every cell (x, y) holds (min(y, N), min(x, N))."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    planted = draw(st.booleans())
    sets = {}
    for x in range(1, k + 1):
        for y in range(1, k + 1):
            sets[(x, y)] = draw(st.frozensets(pair, max_size=n * n))
            if planted:
                sets[(x, y)] |= {(min(y, n), min(x, n))}
    return GridTilingInstance(k=k, N=n, sets=sets), planted


class TestTransposition:
    @settings(max_examples=40, deadline=None)
    @given(drawn=instances(), degree2=st.booleans())
    def test_gadget_commutes_with_transposition(self, drawn, degree2):
        inst, planted = drawn
        k, n = inst.k, inst.N
        out, tout = reduce(inst), reduce(transpose_instance(inst))
        if degree2:
            out, tout = reduce_degree(out), reduce_degree(tout)
        t = transpose_label
        assert set(tout.graph.edges) == {(t(u), t(v)) for u, v in out.graph.edges}
        assert dict(tout.graph.coords) == {t(v): (y, x) for v, (x, y) in out.graph.coords.items()}
        pairs = out.terminals.pairs
        assert tout.terminals.pairs == tuple((t(s), t(d)) for s, d in pairs[k:] + pairs[:k])
        for (i, j) in inst.cells():
            for side, tside in _SWAP_SIDE.items():
                assert boundary(tout, j, i, tside) == [t(v) for v in boundary(out, i, j, side)]
        if planted:
            choice = {(x, y): (min(y, n), min(x, n)) for x, y in inst.cells()}
            ps = gt_solution_to_paths(out, GTAssignment(choice))
            tchoice = {(y, x): (b, a) for (x, y), (a, b) in choice.items()}
            tps = gt_solution_to_paths(tout, GTAssignment(tchoice))
            assert tps.paths == [[t(v) for v in p] for p in ps.paths[k:] + ps.paths[:k]]

    @pytest.mark.parametrize("degree2", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forward_map_commutes_with_transposition(self, k, degree2):
        # the grid tiling oracle's solution, not only the planted one: mapping it
        # and then tau gives the paths of its tau image, columns' and rows' swapped
        for seed in range(40):
            inst = generate_planted(k, 3, noise=2, seed=seed)
            out, tout = reduce(inst), reduce(transpose_instance(inst))
            if degree2:
                out, tout = reduce_degree(out), reduce_degree(tout)
            asg = solve_gt_brute_force(inst)
            tasg = GTAssignment({(y, x): (b, a) for (x, y), (a, b) in asg.choice.items()})
            ps, tps = gt_solution_to_paths(out, asg), gt_solution_to_paths(tout, tasg)
            assert tps.paths == [[transpose_label(v) for v in p] for p in ps.paths[k:] + ps.paths[:k]]


@st.composite
def reductions(draw):
    """A planted or random reduction with k <= 3 and N <= 5, in either form."""
    k, n, seed = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        inst = generate_planted(k, n, noise=draw(st.integers(0, 2)), seed=seed)
    else:
        inst = generate_random(k, n, draw(st.sampled_from([0.2, 0.5, 0.8])), seed=seed)
    out = reduce(inst)
    return reduce_degree(out) if draw(st.booleans()) else out


def mutations(draw, ps: PathSet, k: int) -> list[PathSet]:
    """The path set with one fault put in, for each kind of fault the checker names."""
    paths = ps.paths
    a, b = draw(st.lists(st.integers(0, 2 * k - 1), min_size=2, max_size=2, unique=True))

    def with_path(idx, path):
        return PathSet([path if n == idx else p for n, p in enumerate(paths)])

    # every path has two vertices at least, the pair's source and sink
    found = [
        with_path(a, []),  # an empty path
        PathSet(paths[:-1]),  # a wrong path count
        PathSet(paths + [paths[a]]),
        # two paths swapped
        PathSet([paths[b] if n == a else paths[a] if n == b else p for n, p in enumerate(paths)]),
    ]
    # the path cut short at one end: its edges are still the graph's
    found.append(with_path(a, paths[a][1:] if draw(st.booleans()) else paths[a][:-1]))
    long = [n for n, p in enumerate(paths) if len(p) >= 3]
    if long:  # an inner vertex dropped
        idx = draw(st.sampled_from(long))
        at = draw(st.integers(1, len(paths[idx]) - 2))
        found.append(with_path(idx, paths[idx][:at] + paths[idx][at + 1 :]))
    # one edge put on two paths
    n, at = draw(st.integers(0, len(paths[a]) - 2)), draw(st.integers(0, len(paths[b])))
    found.append(with_path(b, paths[b][:at] + paths[a][n : n + 2] + paths[b][at:]))
    # a label outside the graph; the grid vertex would lie in path a's stratum
    at = draw(st.integers(0, len(paths[a]) - 1))
    index = a % k + 1
    stranger = draw(st.sampled_from([GridVertex(index, index, 9, 9), Terminal("a", 99), "z"]))
    found.append(with_path(a, paths[a][:at] + [stranger] + paths[a][at + 1 :]))
    return found


class TestAgainstReference:
    """The checker, the forward map and the confinement rule agree with their reference oracles."""

    @settings(max_examples=60, deadline=None)
    @given(out=reductions(), data=st.data())
    def test_messages_forward_map_and_confinement_match(self, out, data):
        inst, g, terminals = out.provenance, out.graph, out.terminals
        try:
            asg = solve_gt_brute_force(inst, budget=10**4)
            answer = solve_edp_dag(g, terminals, budget=10**4)
        except BudgetExceededError:
            asg = answer = None
        forward = None
        if asg is not None:
            forward = gt_solution_to_paths(out, asg)
            assert forward == gt_solution_to_paths_reference(out, asg)
        base = forward or answer or PathSet([[s, t] for s, t in terminals.pairs])
        cases = [ps for ps in (forward, answer) if ps is not None]
        for ps in cases:
            assert check_edp_solution(g, terminals, ps) == check_edp_solution_reference(g, terminals, ps) == []
        for ps in cases + mutations(data.draw, base, inst.k):
            assert check_edp_solution(g, terminals, ps) == check_edp_solution_reference(g, terminals, ps)
            if len(ps.paths) == 2 * inst.k:
                assert check_level_confinement(out, ps) == level_confined_reference(out, ps)
