import copy
import json
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.digraph import (
    LB,
    TR,
    WHOLE,
    Digraph,
    EmbeddedDigraph,
    GridVertex,
    HConnector,
    NotConnectedError,
    Terminal,
    TreeNode,
    VConnector,
    label_from_name,
    label_name,
)
from gridpaths.errors import EmbeddingError
from gridpaths.gridtiling import generate_planted, generate_random
from gridpaths.reduction import build_g1, level_set, reduce, reduce_degree

from ._oracles import (
    faces_by_tracing,
    has_edge,
    in_neighbors,
    is_dotted_edge,
    out_neighbors,
    random_dag,
    rotations_by_comparison,
    rotations_from_runs,
)
from .test_reduction import _golden_outputs, full_instance


def unit_square():
    coords = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
    return EmbeddedDigraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)], coords)


def k5():
    coords = {
        i: (
            Fraction(round(1000 * math.cos(2 * math.pi * i / 5))),
            Fraction(round(1000 * math.sin(2 * math.pi * i / 5))),
        )
        for i in range(5)
    }
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return EmbeddedDigraph(list(range(5)), edges, coords)


def random_embedded(seed: int) -> EmbeddedDigraph:
    """A random simple graph on distinct points with denominators 1, 2, 3, 4 and 8.

    Half the draws add a vertex on the ray from a vertex c through another
    vertex u, joined to c along with u, so that c has two neighbours on one ray.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    points: list[tuple] = []
    while len(points) < n:
        point = tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 8))) for _ in "xy")
        if point not in points:
            points.append(point)
    pairs = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5}
    if rng.random() < 0.5:
        c, u = rng.sample(range(n), 2)
        t = rng.choice((Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(3)))
        w = tuple(p + t * (q - p) for p, q in zip(points[c], points[u]))
        if w not in points:
            points.append(w)
            pairs |= {(min(c, u), max(c, u)), (c, n)}
    return EmbeddedDigraph(range(len(points)), sorted(pairs), dict(enumerate(points)))


class TestConstruction:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Digraph(["a", "a"], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(["a"], [("a", "a")])

    def test_parallel_edge_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            Digraph(["a", "b"], [("a", "b"), ("a", "b")])

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Digraph(["a"], [("a", "b")])

    def test_missing_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            EmbeddedDigraph(["a", "b"], [], {"a": (0, 0)})

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            EmbeddedDigraph(["a", "b"], [], {"a": (0, 0), "b": (0, 0)})

    def test_extra_coordinates_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            EmbeddedDigraph(["a"], [], {"a": (0, 0), "b": (1, 1)})

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_inexact_coordinate_rejected(self, bad):
        # exact ints and Fractions only: a float is not exact, and True is not the int 1
        with pytest.raises(ValueError, match="coordinate of 'b' is not a pair of ints or Fractions"):
            EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": (0, Fraction(1, 2)), "b": (1, bad)})

    @pytest.mark.parametrize("bad", [(1,), (1, 2, 3)])
    def test_coordinate_of_wrong_length_rejected(self, bad):
        # the initializer reads the points as one flat list, x then y, so a third number would shift the rest
        with pytest.raises(ValueError, match="coordinate of 'b' is not a pair of ints or Fractions"):
            EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": (0, 0), "b": bad})

    @pytest.mark.parametrize("bad", [{3: "x", 1: "y"}, {2, 1}, range(4, 6), 5])
    def test_coordinate_that_is_not_a_tuple_or_list_rejected(self, bad):
        # a dict reads as its keys and a set in hash order; an int has no length
        with pytest.raises(ValueError, match="^coordinate of 'a' is not a pair of ints or Fractions"):
            EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": bad, "b": (9, 9)})

    @pytest.mark.parametrize("pair", [[3, Fraction(1, 2)], (3, Fraction(1, 2))])
    def test_coordinate_as_a_list_or_a_tuple_accepted(self, pair):
        g = EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": pair, "b": (9, 9)})
        assert g.coords == {"a": (3, Fraction(1, 2)), "b": (9, 9)}

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (Terminal("x", 1), "x_1"),
            (Terminal("a", 0), "a_0"),
            (GridVertex(True, 1, 1, 1), "w_True_1_1_1"),
            (GridVertex(1, 1, 1, 1, "top"), "w_1_1_1_1_top"),
            (TreeNode("a", 1, ()), "ta_1_"),
        ],
        ids=["family", "index", "bool-field", "part", "empty-path"],
    )
    def test_label_the_reader_refuses_is_rejected(self, bad, reason):
        # a graph writes only documents that read back: label_from_name(label_name(v)) == v holds
        good = Terminal("a", 1)
        message = f"vertex {bad!r} does not read back from its name: {reason!r} is not the name of a vertex label"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddedDigraph([good, bad], [(good, bad)], {good: (0, 0), bad: (1, 0)})
        assert label_name(bad) == reason
        with pytest.raises(ValueError, match="is not the name of a vertex label"):
            label_from_name(reason)

    @pytest.mark.parametrize(
        "first, second, name",
        [
            (Terminal("w_1_1_1", 1), GridVertex(1, 1, 1, 1), "w_1_1_1_1"),
            (HConnector(1, 2, 3), Terminal("h_1_2", 3), "h_1_2_3"),
        ],
        ids=["terminal-and-grid", "connector-and-terminal"],
    )
    def test_labels_with_one_dot_name_rejected(self, first, second, name):
        # Graphviz would merge two vertices with one name, and a document would read both as one;
        # the terminal's family is outside a-d
        assert label_name(first) == label_name(second) == name
        bad, other = (first, second) if isinstance(first, Terminal) else (second, first)
        message = f"vertex {bad!r} does not read back from its name: it is the name of {other!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddedDigraph([first, second], [(first, second)], {first: (0, 0), second: (1, 0)})


class TestIdInitializer:
    """The id-level initializer behind both label constructors keeps every check."""

    @staticmethod
    def _embedded(tail, head, xy, den):
        g = EmbeddedDigraph.__new__(EmbeddedDigraph)
        g._init(["a", "b", "c"], tail, head, [c for point in xy for c in point], den)
        return g

    def test_numerators_and_denominator_are_kept_as_given(self):
        g = self._embedded([0, 1], [1, 2], [(0, 0), (4, 2), (8, 12)], 8)
        assert g._den == 8 and g._x == [0, 4, 8] and g._y == [0, 2, 12]
        assert g.coords == {"a": (0, 0), "b": (Fraction(1, 2), Fraction(1, 4)), "c": (1, Fraction(3, 2))}
        assert g == EmbeddedDigraph(["a", "b", "c"], [("a", "b"), ("b", "c")], g.coords)

    @pytest.mark.parametrize(
        "tail, head, match",
        [
            ([0, 3], [1, 0], "edge 1 references a missing vertex"),
            ([0, -1], [1, 0], "edge 1 references a missing vertex"),
            ([0, 2], [1, 2], "self-loop at 'c'"),
            ([0, 1, 0], [1, 2, 1], "parallel edge \\('a', 'b'\\)"),
        ],
    )
    def test_bad_edges_rejected(self, tail, head, match):
        with pytest.raises(ValueError, match=match):
            self._embedded(tail, head, [(0, 0), (1, 0), (0, 1)], 1)

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(["a", "b"], [("a", "a"), ("a", "x")])
        with pytest.raises(ValueError, match="edge 0 references a missing vertex"):
            Digraph(["a", "b"], [("a", "x"), ("a", "a")])

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            self._embedded([0], [1], [(0, 0), (2, 2), (0, 0)], 2)


class TestTopologicalSort:
    def test_single_edge(self):
        g = Digraph(["u", "v"], [("u", "v")])
        order, cycle = g.topological_sort()
        assert cycle is None
        assert order == ["u", "v"]

    def test_two_cycle_yields_witness(self):
        g = Digraph(["u", "v"], [("u", "v"), ("v", "u")])
        order, cycle = g.topological_sort()
        assert order is None
        assert sorted(cycle) == ["u", "v"]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert has_edge(g, a, b)

    def test_constructed_gadget_is_acyclic(self):
        g = build_g1(2, 2)
        order, cycle = g.topological_sort()
        assert cycle is None
        position = {v: n for n, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges)

    def test_longer_cycle_witness_is_closed(self):
        g = Digraph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")],
        )
        _, cycle = g.topological_sort()
        assert cycle is not None
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert has_edge(g, a, b)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reverse_view_is_the_reverse_graph(self, seed):
        # the search's reverse view: each edge turned round on the same ids, the order (or cycle) reversed
        dag, _ = random_dag(seed)
        # a cycle through n0 and n4 (random_dag has at least 5 vertices)
        back = [("n4", "n0")] if ("n0", "n4") in dag.edges else [("n0", "n4"), ("n4", "n0")]
        cyclic = Digraph(dag.vertices, [*dag.edges, *back])
        for g in (dag, cyclic):
            rev = g._reverse()
            assert (rev.vertices, rev.edges) == (g.vertices, tuple((v, u) for u, v in g.edges))
            for v in g.vertices:
                assert (rev.out(v), rev.inn(v)) == (g.inn(v), g.out(v))
            order, cycle = rev.topological_sort()
            if g is dag:
                assert (order, cycle) == (g.topological_sort()[0][::-1], None)
                position = {v: n for n, v in enumerate(order)}
                assert all(position[u] < position[v] for u, v in rev.edges)
            else:
                assert order is None
                assert set(zip(cycle, cycle[1:] + cycle[:1])) <= set(rev.edges)


class TestNeighborhoods:
    def test_all_vertices_has_no_outside_neighbors(self):
        g = build_g1(1, 2)
        assert out_neighbors(g, g.vertices) == set()
        assert in_neighbors(g, g.vertices) == set()

    def test_single_edge(self):
        g = Digraph(["u", "v"], [("u", "v")])
        assert out_neighbors(g, {"u"}) == {"v"}
        assert in_neighbors(g, {"u"}) == set()

    def test_unknown_vertex_rejected(self):
        g = Digraph(["u"], [])
        with pytest.raises(ValueError):
            out_neighbors(g, {"x"})

    def test_vertical_level_out_neighbors_are_h_connectors(self):
        out = reduce(generate_planted(2, 2, noise=0, seed=0))
        vertical = level_set(out, "vertical", 1)
        expected = {
            v for v in out.graph.vertices if isinstance(v, HConnector) and v.i == 1
        }
        assert out_neighbors(out.graph, vertical) == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_neighbor_sets_are_disjoint_from_input(self, seed):
        g, _ = random_dag(seed)
        subset = [v for n, v in enumerate(g.vertices) if n % 2 == 0]
        assert out_neighbors(g, subset).isdisjoint(subset)
        assert in_neighbors(g, subset).isdisjoint(subset)


class TestDegrees:
    def test_empty_graph(self):
        g = Digraph([], [])
        assert g.max_in_degree() == 0
        assert g.max_out_degree() == 0

    def test_terminal_fans_dominate_degree(self):
        g = build_g1(2, 3)
        assert g.max_out_degree() == 3
        assert g.max_in_degree() == 3

    def test_degree_reduction_caps_at_two(self):
        out = reduce_degree(reduce(generate_planted(2, 3, noise=0, seed=0)))
        assert out.graph.max_in_degree() <= 2
        assert out.graph.max_out_degree() <= 2


def naive_kahn(verts, edges):
    """FIFO Kahn order recomputed from the vertex and edge lists alone."""
    indeg = {v: sum(1 for _, w in edges if w == v) for v in verts}
    queue = [v for v in verts if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for u, w in edges:
            if u == v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
    return order


class TestIndexCore:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), subset_bits=st.integers(0, 2**12 - 1))
    def test_queries_agree_with_naive_recomputation(self, seed, subset_bits):
        dag, _ = random_dag(seed)
        rng = random.Random(seed)
        verts, edges = list(dag.vertices), list(dag.edges)
        rng.shuffle(verts)
        rng.shuffle(edges)
        g = Digraph(verts, edges)
        assert (g.vertices, g.edges) == (tuple(verts), tuple(edges))
        for v in verts:
            assert g.out(v) == tuple(w for u, w in edges if u == v)
            assert g.inn(v) == tuple(u for u, w in edges if w == v)
            for w in verts:
                assert has_edge(g, v, w) == ((v, w) in edges)
        subset = {v for n, v in enumerate(verts) if subset_bits >> n & 1}
        assert out_neighbors(g, subset) == {w for u, w in edges if u in subset and w not in subset}
        assert in_neighbors(g, subset) == {u for u, w in edges if w in subset and u not in subset}
        assert g.max_out_degree() == max(sum(1 for u, _ in edges if u == v) for v in verts)
        assert g.max_in_degree() == max(sum(1 for _, w in edges if w == v) for v in verts)
        order, cycle = g.topological_sort()
        assert (order, cycle) == (naive_kahn(verts, edges), None)
        order.reverse()
        order.append("not a vertex")
        assert g.topological_sort() == (naive_kahn(verts, edges), None)


class TestEmbedding:
    def test_square_has_two_faces_genus_zero(self):
        check = unit_square().check_planar_embedding()
        assert check.faces == 2
        assert check.genus == 0

    def test_k5_has_positive_genus(self):
        assert k5().check_planar_embedding().genus >= 1

    def test_reduction_output_is_planar(self):
        out = reduce(generate_planted(2, 3, noise=0, seed=0))
        assert out.graph.check_planar_embedding().genus == 0

    def test_single_vertex_is_a_sphere(self):
        g = EmbeddedDigraph(["a"], [], {"a": (0, 0)})
        check = g.check_planar_embedding()
        assert (check.faces, check.genus) == (1, 0)

    def test_empty_graph_raises(self):
        with pytest.raises(NotConnectedError):
            EmbeddedDigraph([], [], {}).check_planar_embedding()

    def test_disconnected_graph_raises(self):
        g = EmbeddedDigraph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("c", "d")],
            {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)},
        )
        with pytest.raises(NotConnectedError):
            g.check_planar_embedding()

    def test_antiparallel_edges_rejected(self):
        g = EmbeddedDigraph(
            ["a", "b"], [("a", "b"), ("b", "a")], {"a": (0, 0), "b": (1, 0)}
        )
        with pytest.raises(ValueError, match="^antiparallel edges between 'a' and 'b'$"):
            g.check_planar_embedding()

    def test_collinear_directions_rejected(self):
        g = EmbeddedDigraph(
            ["a", "b", "c"],
            [("a", "b"), ("a", "c"), ("b", "c")],
            {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        )
        # the first tie is at a, between darts 0 and 2: its neighbours in dart-id order
        with pytest.raises(EmbeddingError, match="^collinear neighbor directions at 'a': 'b' and 'c' on one ray$"):
            g.check_planar_embedding()

    def test_layout_defect_message_is_pinned(self):
        # the first tie in vertex order, then angle order, then edge order; the
        # geometry of the fan corner that made N = 13 gadgets collinear
        w, lb, c1 = GridVertex(1, 1, 1, 1), GridVertex(1, 1, 1, 2, "lb"), Terminal("c", 1)
        g = EmbeddedDigraph(
            [w, lb, c1],
            [(w, lb), (c1, w), (c1, lb)],
            {w: (1, 1), lb: (Fraction(3, 4), Fraction(7, 4)), c1: (-1, 7)},
        )
        expected = (
            "collinear neighbor directions at GridVertex(i=1, j=1, q=1, ell=1, part='whole'): "
            "GridVertex(i=1, j=1, q=1, ell=2, part='lb') and Terminal(family='c', index=1) on one ray"
        )
        with pytest.raises(EmbeddingError) as info:
            g.check_planar_embedding()
        assert str(info.value) == expected

    def test_disconnection_is_reported_before_a_collinear_vertex(self):
        g = EmbeddedDigraph(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")],
            {"a": (0, 0), "b": (1, 0), "c": (2, 0), "d": (0, 1), "e": (1, 1)},
        )
        with pytest.raises(NotConnectedError):
            g.check_planar_embedding()
        with pytest.raises(EmbeddingError, match="collinear"):
            rotations_from_runs(g)


def _traced(check, g):
    """(faces, genus), or which error: a disconnected graph or two neighbours on one ray."""
    try:
        return check(g)
    except NotConnectedError:
        return "disconnected"
    except ValueError:  # EmbeddingError, or antiparallel edges, which share a ray
        return "ray"


def _package_check(g):
    check = g.check_planar_embedding()
    return check.faces, check.genus


class TestFaceOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), reverse=st.booleans())
    def test_random_graphs_match_label_tracing(self, seed, reverse):
        g = random_embedded(seed)
        if reverse and g.edges:  # add the reverse of one edge: antiparallel edges
            u, v = g.edges[seed % g.num_edges]
            g = EmbeddedDigraph(g.vertices, g.edges + ((v, u),), dict(g.coords))
        assert _traced(_package_check, g) == _traced(faces_by_tracing, g)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(2, 12),
        density=st.sampled_from([None, 0.1, 0.3, 0.5]),
        seed=st.integers(0, 5),
        degree2=st.booleans(),
    )
    def test_reductions_match_label_tracing(self, k, n, density, seed, degree2):
        if density is None:
            inst = generate_planted(k, n, noise=2, seed=seed)
        else:
            inst = generate_random(k, n, density, seed)
        out = reduce(inst)
        g = (reduce_degree(out) if degree2 else out).graph
        assert _traced(_package_check, g) == _traced(faces_by_tracing, g)


class TestRotation:
    def test_counterclockwise_order_from_positive_x(self):
        g = EmbeddedDigraph(
            ["o", "e", "n", "w", "s"],
            [("o", "e"), ("o", "n"), ("w", "o"), ("s", "o")],
            {"o": (0, 0), "e": (1, 0), "n": (0, 1), "w": (-1, 0), "s": (0, -1)},
        )
        assert rotations_from_runs(g)["o"] == ("e", "n", "w", "s")

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_comparison_sort_oracle(self, seed):
        g = random_embedded(seed)
        try:
            expected = rotations_by_comparison(g)
        except EmbeddingError:
            with pytest.raises(EmbeddingError, match="collinear"):
                rotations_from_runs(g)
            return
        assert rotations_from_runs(g) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gadgets_match_comparison_sort_oracle(self, k):
        for n in range(2, 13):
            out = reduce(generate_planted(k, n, noise=2, seed=n))
            for g in (out.graph, reduce_degree(out).graph):
                assert rotations_from_runs(g) == rotations_by_comparison(g)

    def test_rederiving_rotation_is_idempotent(self):
        out = reduce(generate_planted(2, 2, noise=0, seed=1))
        g = out.graph
        first = rotations_from_runs(g)
        rebuilt = EmbeddedDigraph(g.vertices, g.edges, dict(g.coords))
        assert rotations_from_runs(rebuilt) == first


# per label class: its kind (the tuple's tag), its DOT prefix and a strategy per field,
# over the values that have a name
_INDICES = st.integers(1, 10**6)
_LABEL_CLASSES = {
    GridVertex: ("grid", "w_", {"i": _INDICES, "j": _INDICES, "q": _INDICES, "ell": _INDICES,
                                "part": st.sampled_from((WHOLE, LB, TR))}),
    HConnector: ("hconn", "h_", {"i": _INDICES, "j": _INDICES, "ell": _INDICES}),
    VConnector: ("vconn", "v_", {"i": _INDICES, "j": _INDICES, "ell": _INDICES}),
    Terminal: ("terminal", "", {"family": st.sampled_from("abcd"), "index": _INDICES}),
    TreeNode: ("tree", "t", {"family": st.sampled_from("abcd"), "index": _INDICES,
                             "path": st.lists(st.integers(0, 1), min_size=1, max_size=8).map(tuple)}),
}


@st.composite
def _label_fields(draw):
    """A label class and a value for each of its fields, in order."""
    cls = draw(st.sampled_from(list(_LABEL_CLASSES)))
    return cls, {name: draw(values) for name, values in _LABEL_CLASSES[cls][2].items()}


class TestLabelContract:
    """The labels keep the dataclass interface: constructor, fields, repr, immutability."""

    def test_reprs_are_pinned(self):
        assert repr(GridVertex(1, 2, 3, 4, "lb")) == "GridVertex(i=1, j=2, q=3, ell=4, part='lb')"
        assert repr(GridVertex(1, 2, 3, 4)) == "GridVertex(i=1, j=2, q=3, ell=4, part='whole')"
        assert repr(HConnector(1, 2, 3)) == "HConnector(i=1, j=2, ell=3)"
        assert repr(VConnector(2, 1, 3)) == "VConnector(i=2, j=1, ell=3)"
        assert repr(Terminal("a", 2)) == "Terminal(family='a', index=2)"
        assert repr(TreeNode("a", 1, (0, 1))) == "TreeNode(family='a', index=1, path=(0, 1))"

    @given(drawn=_label_fields())
    def test_repr_names_each_field(self, drawn):
        cls, values = drawn
        fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
        assert repr(cls(**values)) == f"{cls.__name__}({fields})"

    @given(drawn=_label_fields())
    def test_keyword_and_positional_construction_agree(self, drawn):
        cls, values = drawn
        label = cls(**values)
        assert type(label) is cls and label == cls(*values.values())
        assert {name: getattr(label, name) for name in values} == values

    def test_part_defaults_to_whole(self):
        assert GridVertex(1, 2, 3, 4).part == WHOLE
        assert GridVertex(1, 2, 3, 4) == GridVertex(i=1, j=2, q=3, ell=4, part=WHOLE) != GridVertex(1, 2, 3, 4, LB)

    @pytest.mark.parametrize(
        "make",
        [lambda: GridVertex(1, 2, 3), lambda: HConnector(1, 2, 3, 4), lambda: Terminal(family="a"),
         lambda: TreeNode("a", 1, (0,), part=WHOLE)],
        ids=["missing-field", "extra-field", "missing-keyword", "unknown-keyword"],
    )
    def test_constructor_signature_is_checked(self, make):
        with pytest.raises(TypeError):
            make()

    @given(drawn=_label_fields())
    def test_fields_are_read_only(self, drawn):
        cls, values = drawn
        label = cls(**values)
        for name, value in values.items():
            with pytest.raises(AttributeError):
                setattr(label, name, value)
        with pytest.raises(AttributeError):
            label.extra = 1
        assert {name: getattr(label, name) for name in values} == values

    @given(drawn=_label_fields())
    def test_pickle_and_copy_round_trips(self, drawn):
        cls, values = drawn
        label = cls(**values)
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        for again in [*(pickle.loads(pickle.dumps(label, p)) for p in protocols), copy.copy(label), copy.deepcopy(label)]:
            assert type(again) is cls and again == label and hash(again) == hash(label)
            assert {name: getattr(again, name) for name in values} == values

    def test_classes_with_equal_fields_are_distinct_keys(self):
        h, v = HConnector(1, 1, 2), VConnector(1, 1, 2)
        assert h != v and v != h
        keys = {h: "h", v: "v"}
        assert len(keys) == 2 and keys[HConnector(1, 1, 2)] == "h" and keys[VConnector(1, 1, 2)] == "v"

    @given(drawn=_label_fields())
    def test_json_round_trip(self, drawn):
        # a label's JSON form is its name, which reads back to the label, field by field
        cls, values = drawn
        label = cls(**values)
        assert label.kind == label[0] == _LABEL_CLASSES[cls][0]
        again = label_from_name(json.loads(json.dumps(label_name(label))))
        assert type(again) is cls and again == label
        assert {name: getattr(again, name) for name in values} == values

    @given(drawn=_label_fields())
    def test_label_name_is_the_prefix_and_the_fields(self, drawn):
        cls, values = drawn
        shown = [
            "".join(map(str, v)) if k == "path" else str(v)
            for k, v in values.items()
            if not (k == "part" and v == WHOLE)
        ]
        assert label_name(cls(**values)) == _LABEL_CLASSES[cls][1] + "_".join(shown)

    def test_unsupported_label_type_rejected(self):
        for label in (("grid", 1, 1, 1, 1, WHOLE), "w_1_1_1_1", 7):
            with pytest.raises(TypeError, match="unsupported label type"):
                label_name(label)
        # and the reader takes only a name
        with pytest.raises(TypeError, match="^expected a JSON str, got GridVertex"):
            label_from_name(GridVertex(1, 1, 1, 1))


class TestSerialization:
    def test_label_json_round_trip(self):
        labels = [
            GridVertex(1, 2, 3, 4),
            GridVertex(1, 2, 3, 4, "lb"),
            HConnector(1, 2, 3),
            VConnector(2, 1, 3),
            Terminal("a", 2),
            TreeNode("c", 1, (0, 1, 1)),
        ]
        for label in labels:
            assert label_from_name(label_name(label)) == label

    @pytest.mark.parametrize(
        "data",
        [
            "x_1_1_1",
            "w_1_1_1",
            "h_one_1_1",
            ["terminal", "a", 1],
            "w_1.9_1_1_1",
            "w_True_1_1_1",
            "w_1_\u0661_1_1",
            "5_1",
            "tc_1_(1, 0)",
            "tc_1_1False",
            "h_1_1_1_lb",
            "w_-3_1_1_1_middle",
            "w_1_1_0_1",
            "w_1_1_1_1_middle",
            "v_1_1_0",
            "e_1",
            "a_0",
            "tc_1_012",
            "tc_1_",
            "tc_1_0-1",
            "w_01_1_1_1",
            "w_1_1_1_1_whole",
            "ta_1",
            "a_+1",
            "a_1\n",
            " a_1",
            "",
            {"kind": "terminal", "family": "a", "index": 1},
        ],
        ids=[
            "unknown-kind", "missing-field", "non-integer-field", "non-dict", "float-field",
            "bool-field", "string-digit-field", "non-string-field", "string-path", "bool-path-bit",
            "extra-field", "negative-field-and-part", "zero-field", "unknown-part", "zero-chain-index",
            "unknown-family", "zero-index", "non-binary-path", "empty-path", "negative-path-bit",
            "leading-zero", "whole-part-written", "tree-node-without-path", "plus-sign", "trailing-newline",
            "leading-space", "empty-name", "label-object",
        ],
    )
    def test_malformed_label_document_rejected(self, data):
        # only names label_name writes read back: a field int() would take but label_name never writes
        # (a digit of another script, a sign, a leading zero) is no name either
        message = "is not the name of a vertex label$" if type(data) is str else "^expected a JSON str, got "
        with pytest.raises((TypeError, ValueError), match=message):
            label_from_name(data)

    def test_label_names_are_pinned(self):
        names = {
            GridVertex(1, 2, 3, 4): "w_1_2_3_4",
            GridVertex(1, 2, 3, 4, "lb"): "w_1_2_3_4_lb",
            GridVertex(1, 2, 3, 4, "tr"): "w_1_2_3_4_tr",
            HConnector(1, 2, 3): "h_1_2_3",
            VConnector(2, 1, 3): "v_2_1_3",
            Terminal("a", 2): "a_2",
            TreeNode("c", 1, (0, 1, 1)): "tc_1_011",
            TreeNode("d", 3, (1,)): "td_3_1",
        }
        assert {label: label_name(label) for label in names} == names
        assert {label_from_name(name): name for name in names.values()} == names

    def test_label_names_are_distinct(self):
        out = reduce_degree(reduce(generate_planted(2, 3, noise=1, seed=3)))
        names = [label_name(v) for v in out.graph.vertices]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize(
        "coord",
        [
            ["1/0", "0"], [" 1/4 ", "0"], ["0.25", "0"], ["1e3", "0"], ["2/4", "0"], [True, "0"],
            [0.1, "0"], ["1", "2", "3"], ["-0", "0"], ["3/1", "0"], ["01", "0"], [1, "0"],
            "11", {"1": 0, "3": 0},
        ],
        ids=[
            "zero-denominator", "spaces", "decimal-point", "exponent", "not-lowest-terms", "json-true",
            "json-float", "three-elements", "minus-zero", "denominator-one", "leading-zero", "json-int",
            "string-container", "object-container",
        ],
    )
    def test_non_canonical_coordinate_rejected(self, coord):
        data = reduce(generate_planted(1, 2, noise=0, seed=0)).graph.to_json_dict()
        data["vertices"][0]["coord"] = coord
        with pytest.raises(ValueError, match="malformed graph document"):
            EmbeddedDigraph.from_json_dict(data)

    @pytest.mark.parametrize("value", [[1], {"x": "1"}, 1, None], ids=["list", "object", "int", "null"])
    def test_coordinate_that_is_no_string_is_named(self, value):
        # after a string coordinate, hashable or not: named by its JSON type, not by the parse cache's hashing
        data = reduce(generate_planted(1, 2, noise=0, seed=0)).graph.to_json_dict()
        data["vertices"][1]["coord"] = [data["vertices"][0]["coord"][0], value]
        message = f"malformed graph document: expected a JSON str, got {value!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EmbeddedDigraph.from_json_dict(data)

    @pytest.mark.parametrize("first", [True, False], ids=["subclass-first", "after-an-equal-str"])
    def test_str_subclass_coordinate_rejected_in_every_position(self, first):
        # equal to "0" and hashing like it, but no JSON str: an equal str read before it must not let it pass
        class S(str):
            pass

        plain, sub = {"label": "a_1", "coord": ["0", "0"]}, {"label": "b_1", "coord": [S("0"), "1"]}
        data = {"vertices": [sub, plain] if first else [plain, sub], "edges": []}
        message = "malformed graph document: expected a JSON str, got '0'"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EmbeddedDigraph.from_json_dict(data)

    def test_reader_builds_what_the_label_constructor_builds(self):
        # the same ids, numerators and least common denominator, on every golden reduction in both
        # forms and on a label-built graph whose coordinates have denominators 1, 2, 3, 4, 8 and 7
        g = reduce(generate_planted(1, 2, noise=0, seed=0)).graph
        coords = {v: (Fraction(n, (1, 2, 3, 4, 8)[n % 5]), Fraction(n * n, 7)) for n, v in enumerate(g.vertices)}
        mixed = EmbeddedDigraph(g.vertices, g.edges, coords)
        assert mixed._den == 168
        for g in [*(out.graph for out in _golden_outputs()), mixed]:
            read = EmbeddedDigraph.from_json_dict(g.to_json_dict())
            built = EmbeddedDigraph(g.vertices, g.edges, g.coords)
            assert [read._verts, read._tail, read._head, read._x, read._y, read._den] == [
                built._verts, built._tail, built._head, built._x, built._y, built._den
            ]

    def test_canonical_coordinates_accepted(self):
        g = reduce(generate_planted(1, 2, noise=0, seed=0)).graph
        data = g.to_json_dict()
        data["vertices"][0]["coord"] = ["-7/3", "-12"]
        assert EmbeddedDigraph.from_json_dict(data).coords[g.vertices[0]] == (Fraction(-7, 3), -12)

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda vs, es: vs.append(copy.deepcopy(vs[3])), "duplicate vertex GridVertex("),
            (lambda vs, es: vs.append({"label": vs[3]["label"], "coord": ["9", "9"]}), "duplicate vertex GridVertex("),
            (
                lambda vs, es: es.append([0, len(vs)]),  # an index one past the last vertex
                "malformed graph document: edge 15 is not a [tail, head] pair of vertex indices in [0, 11): [0, 11]",
            ),
            (lambda vs, es: es.append(copy.deepcopy(es[4])), "parallel edge ("),
            (lambda vs, es: es[4].__setitem__(1, es[4][0]), "self-loop at "),
            (lambda vs, es: vs[1].__setitem__("coord", vs[0]["coord"]), "vertex coordinates are not pairwise distinct"),
        ],
        ids=["duplicate-vertex", "duplicate-vertex-elsewhere", "unlisted-end", "parallel-edge", "self-loop", "one-point"],
    )
    def test_structural_fault_in_bare_document_rejected(self, fault, message):
        # planted (1, 2) has 11 vertices and 15 edges; each fault leaves a well-formed document of a bad graph
        data = reduce(generate_planted(1, 2, noise=0, seed=0)).graph.to_json_dict()
        fault(data["vertices"], data["edges"])
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            EmbeddedDigraph.from_json_dict(data)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_edge_end_equal_to_a_vertex_only_as_a_python_value_rejected(self, value):
        # 1 == True == 1.0, but an edge end must be spelled as an exact JSON int
        data = json.loads(json.dumps(reduce(generate_planted(1, 2, noise=0, seed=0)).graph.to_json_dict()))
        e, edge = next((e, edge) for e, edge in enumerate(data["edges"]) if 1 in edge)
        edge[edge.index(1)] = value
        message = f"malformed graph document: edge {e} is not a [tail, head] pair of vertex indices in [0, 11): {edge!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EmbeddedDigraph.from_json_dict(data)

    @pytest.mark.parametrize(
        "edge",
        [[3, -1], [3, 2**63 + 1], [3, "1"], [3, None], [0, 1, 2], [0], {"tail": 0, "head": 1}, 1],
        ids=["negative", "above-2**63", "string", "null", "three-items", "one-item", "object", "int"],
    )
    def test_edge_that_is_no_vertex_index_pair_rejected(self, edge):
        # planted (1, 2) has 11 vertices; edge 3 is replaced
        data = json.loads(json.dumps(reduce(generate_planted(1, 2, noise=0, seed=0)).graph.to_json_dict()))
        data["edges"][3] = edge
        message = f"malformed graph document: edge 3 is not a [tail, head] pair of vertex indices in [0, 11): {edge!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EmbeddedDigraph.from_json_dict(data)

    def test_label_ended_document_rejected(self):
        # the form written before edges became vertex indices: every end is a label
        g = reduce(generate_planted(1, 2, noise=0, seed=0)).graph
        data = g.to_json_dict()
        data["edges"] = [[label_name(u), label_name(v)] for u, v in g.edges]
        with pytest.raises(ValueError, match=r"^malformed graph document: edge 0 is not a \[tail, head\] pair of vertex "):
            EmbeddedDigraph.from_json_dict(data)

    def test_edges_are_vertex_index_pairs(self):
        g = reduce(generate_planted(1, 2, noise=0, seed=0)).graph
        data = g.to_json_dict()
        index = {v: n for n, v in enumerate(g.vertices)}
        assert [entry["label"] for entry in data["vertices"]] == [label_name(v) for v in g.vertices]
        assert data["edges"] == [[index[u], index[v]] for u, v in g.edges]

    def test_graph_json_round_trip(self):
        g = reduce(generate_planted(2, 2, noise=1, seed=5)).graph
        again = EmbeddedDigraph.from_json_dict(g.to_json_dict())
        assert again == g

    def test_dot_export_is_deterministic_and_styled(self):
        out = reduce(generate_planted(1, 2, noise=0, seed=0))
        dot = out.graph.to_dot()
        assert dot == out.graph.to_dot()
        assert 'pos="' in dot
        assert "style=dotted" in dot
        assert dot.startswith("digraph")

    @pytest.mark.parametrize("signs", [(1, 1), (-1, 1)], ids=["both-zero", "minus-zero-and-zero"])
    def test_dot_export_rejects_distinct_points_with_one_float_position(self, signs):
        # 1/10^400 and 1/(3 * 10^400) both round to 0.0; -0.0 and 0.0 are one position too
        a, b = Terminal("a", 1), Terminal("b", 1)
        coords = {a: (Fraction(signs[0], 10**400), 0), b: (Fraction(signs[1], 3 * 10**400), 0)}
        g = EmbeddedDigraph([a, b], [(a, b)], coords)
        message = (
            r"^coordinates of Terminal\(family='a', index=1\) and Terminal\(family='b', index=1\) "
            r"round to one float position -?0\.0,0\.0$"
        )
        with pytest.raises(ValueError, match=message):
            g.to_dot()
        assert EmbeddedDigraph.from_json_dict(g.to_json_dict()) == g  # the JSON form is exact

    def test_read_coordinates_at_one_float_position_rejected_on_dot_export(self):
        # 1/10^400 and 1/(3 * 10^400) are distinct rationals, and both round to 0.0
        data = reduce(generate_planted(2, 2, noise=0, seed=0)).graph.to_json_dict()
        data["vertices"][0]["coord"] = ["1/1" + "0" * 400, "0"]
        data["vertices"][1]["coord"] = ["1/3" + "0" * 400, "0"]
        g = EmbeddedDigraph.from_json_dict(data)
        first, second = g.vertices[:2]
        message = f"coordinates of {first!r} and {second!r} round to one float position 0.0,0.0"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            g.to_dot()
        assert g.to_json_dict() == data

    def test_read_coordinate_outside_float_range_rejected_on_dot_export(self):
        data = reduce(generate_planted(2, 2, noise=0, seed=0)).graph.to_json_dict()
        data["vertices"][0]["coord"][0] = "1" + "0" * 400
        g = EmbeddedDigraph.from_json_dict(data)
        message = "coordinate of GridVertex(i=1, j=1, q=1, ell=1, part='whole') is outside the float range"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            g.to_dot()
        # a numerator past 64 bits reads back: the JSON form is exact
        assert g.to_json_dict() == data
        assert g.coords[g.vertices[0]][0] == 10**400

    def test_dotted_edge_predicate(self):
        lb = GridVertex(1, 1, 2, 2, "lb")
        tr = GridVertex(1, 1, 2, 2, "tr")
        assert is_dotted_edge(lb, tr)
        assert not is_dotted_edge(tr, lb)
        assert not is_dotted_edge(lb, GridVertex(1, 1, 2, 3, "tr"))


class TestSplitEdges:
    """One pass lists the split edges for the DOT writer and the structure report."""

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 3),
        n=st.integers(2, 5),
        random_sets=st.booleans(),
        seed=st.integers(0, 10_000),
        degree2=st.booleans(),
    )
    def test_pass_equals_a_scan_of_every_edge(self, k, n, random_sets, seed, degree2):
        inst = generate_random(k, n, 0.5, seed) if random_sets else generate_planted(k, n, noise=2, seed=seed)
        out = reduce(inst)
        g = reduce_degree(out).graph if degree2 else out.graph
        scan = [e for e, (u, v) in enumerate(g.edges) if is_dotted_edge(u, v)]
        assert sorted(g._split_edges()) == scan
        assert len(scan) == sum(n * n - len(inst.sets[cell]) for cell in inst.cells())
        dotted_lines = [line for line in g.to_dot().splitlines() if line.endswith(" [style=dotted];")]
        assert len(dotted_lines) == len(scan)

    def test_lb_copy_with_other_out_edges(self):
        lb, tr = GridVertex(1, 1, 1, 1, LB), GridVertex(1, 1, 1, 1, TR)
        other_tr, whole = GridVertex(1, 1, 2, 1, TR), GridVertex(1, 1, 1, 2)
        verts = [whole, lb, tr, other_tr]
        edges = [(lb, whole), (lb, other_tr), (lb, tr), (tr, other_tr)]
        g = EmbeddedDigraph(verts, edges, {v: (n, n * n) for n, v in enumerate(verts)})
        assert g._split_edges() == [2]
        edge_lines = [line for line in g.to_dot().splitlines() if "->" in line]
        assert [line.endswith(" [style=dotted];") for line in edge_lines] == [False, False, True, False]


class TestEquality:
    def test_graphs_differing_in_one_coordinate_are_unequal(self):
        g = reduce(generate_planted(2, 2, noise=1, seed=3)).graph
        coords = dict(g.coords)
        v = g.vertices[5]
        coords[v] = (coords[v][0] + Fraction(1, 8), coords[v][1])
        moved = EmbeddedDigraph(g.vertices, g.edges, coords)
        assert moved != g and g != moved
        assert moved == EmbeddedDigraph(g.vertices, g.edges, coords)
        # and graphs compare by coordinates at any scale: the full-sets (2, 3) reduction's are over the
        # builder's 4, its label-built copy's over their least common denominator, 1
        full = reduce(full_instance(2, 3)).graph
        rebuilt = EmbeddedDigraph(full.vertices, full.edges, full.coords)
        assert (full._den, rebuilt._den) == (4, 1) and full == rebuilt and rebuilt == full

    def test_equal_denominators_unequal_numerators(self):
        g = EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": (0, 0), "b": (1, 1)})
        h = EmbeddedDigraph(["a", "b"], [("a", "b")], {"a": (0, 0), "b": (1, 2)})
        swapped = EmbeddedDigraph(["b", "a"], [("a", "b")], {"a": (0, 0), "b": (1, 1)})
        assert g._den == h._den and g != h
        assert g == swapped  # vertex order is not part of equality
        # a graph is never equal to a non-graph, nor to a graph of the other class
        plain = Digraph(["a", "b"], [("a", "b")])
        assert g != g.edges and plain != plain.edges and plain != g and g != plain

