"""Labeled directed graphs with coordinate-derived rotation systems.

Vertices are hashable label objects carrying their meaning (grid position,
connector chain, terminal, fan-tree node).  Inside, a vertex is the int id
of its place in the vertex list and an edge the int id of its place in the
edge list; every algorithm here runs on ids and turns them back into labels
only in what it returns.  Every graph is made by one id-level initializer,
``_init``, which keeps the int numerators and denominator it is given: the
label constructors map labels to ids and Fractions to numerators over their
least common denominator, the JSON reader turns names, vertex indices and
coordinate strings into the same, and the reduction, which hands out ids and
numerators itself, calls it directly.  These exact coordinates are the single
source of truth for the combinatorial embedding: the counterclockwise order
of the neighbors around each vertex is the rotation system, its faces are
traced, and Euler's formula V - E + F = 2 - 2g yields the genus.  Genus zero
certifies the drawing planar; no general-purpose planarity test is involved.

The rotation system lives on flat dart lists.  Each edge gives two darts,
one leaving either end; every dart gets an integer angle key, computed once
per distinct edge direction, and one stable sort of the dart ids by
(vertex, key) lays out every vertex's rotation as a contiguous run.  Two
darts of one vertex with equal keys lie on one ray, which leaves the
rotation undefined and is reported by name.  The faces are the cycles of
the successor list built from the runs.
"""

from __future__ import annotations

import inspect
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import EmbeddingError, brief, exact, exact_fields

Label = Hashable
Coord = tuple[Fraction, Fraction]
Edge = tuple[Label, Label]

WHOLE = "whole"
LB = "lb"
TR = "tr"


class NotConnectedError(ValueError):
    """The underlying undirected graph is not connected."""


# per field: the pattern of its text in a DOT name and the value that text stands for.  Only values
# the reduction makes have a name: ints from 1 with no sign or leading zero, the parts lb and tr (a
# whole vertex's part is left out), families a-d and non-empty 0/1 paths, so label_name is injective.
_INT = ("[1-9][0-9]*", int)
_FIELDS = {
    **dict.fromkeys(("i", "j", "q", "ell", "index"), _INT),
    "part": (f"{LB}|{TR}", str),
    "family": ("[a-d]", str),
    "path": ("[01]+", lambda bits: tuple(map(int, bits))),
}


class _Label(tuple):
    """A vertex label: the tuple ``(kind, *fields)``, ``kind`` being its class's tag.

    Hashing and equality are tuple's, run in C, and the kind keeps the
    classes apart.  A subclass's ``__new__`` parameters are its fields: each
    reads as a read-only attribute, and ``repr`` is the dataclass form.
    """

    __slots__ = ()

    def __init_subclass__(cls, kind: str, prefix: str) -> None:
        params = tuple(inspect.signature(cls.__new__).parameters.values())[1:]
        cls.kind, cls._fields, cls._default = kind, tuple(p.name for p in params), params[-1].default
        cls._template = prefix + "_".join(["%s"] * len(params))  # its DOT name, a %-template of its fields
        # the reader of that name: a group per field, the last one optional if it has a default
        *heads, last = (f"({_FIELDS[name][0]})" for name in cls._fields)
        optional = "" if cls._default is inspect.Parameter.empty else "?"
        cls._pattern = re.compile(f"{prefix}{'_'.join(heads)}(?:_{last}){optional}")
        cls._reads = [_FIELDS[name][1] for name in cls._fields]
        for n, param in enumerate(params, 1):
            setattr(cls, param.name, property(operator.itemgetter(n)))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self[1:]))})"

    def __reduce__(self) -> tuple:
        return type(self), self[1:]


class GridVertex(_Label, kind="grid", prefix="w_"):
    """Intersection of column q and row ell in the grid of cell (i, j).

    ``part`` distinguishes the two copies of a split vertex: the ``lb`` copy
    receives the incoming (left/bottom) edges, the ``tr`` copy keeps the
    outgoing (right/top) edges, and ``whole`` marks an unsplit vertex.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, q: int, ell: int, part: str = WHOLE) -> GridVertex:
        return tuple.__new__(cls, (cls.kind, i, j, q, ell, part))


class HConnector(_Label, kind="hconn", prefix="h_"):
    """Vertex ell of the chain joining cell (i, j) rightwards to cell (i+1, j)."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, ell: int) -> HConnector:
        return tuple.__new__(cls, (cls.kind, i, j, ell))


class VConnector(_Label, kind="vconn", prefix="v_"):
    """Vertex ell of the chain joining cell (i, j) upwards to cell (i, j+1)."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, ell: int) -> VConnector:
        return tuple.__new__(cls, (cls.kind, i, j, ell))


class Terminal(_Label, kind="terminal", prefix=""):
    """Terminal vertex; families a/c are sources, b/d are sinks."""

    __slots__ = ()

    def __new__(cls, family: str, index: int) -> Terminal:
        return tuple.__new__(cls, (cls.kind, family, index))


class TreeNode(_Label, kind="tree", prefix="t"):
    """Internal node of a degree-reduction fan tree.

    ``path`` is the sequence of 0/1 child choices from the tree's terminal
    root, 0 meaning the child covering the lower leaf range.
    """

    __slots__ = ()

    def __new__(cls, family: str, index: int, path: tuple[int, ...]) -> TreeNode:
        return tuple.__new__(cls, (cls.kind, family, index, path))


_CLASSES = (GridVertex, HConnector, VConnector, Terminal, TreeNode)


def label_name(label: Label) -> str:
    """The one text form of a label: its DOT name, and its form in every JSON document.

    The class prefix and the fields in order, joined by "_"; a last field at
    its default (the part of a whole grid vertex) is left out, and a tree
    node's path is written as its 0/1 digits.
    """
    if not isinstance(label, _Label):
        raise TypeError(f"unsupported label type: {type(label)!r}")
    cls, values = type(label), label[1:]
    if cls is TreeNode:
        values = (*values[:2], "".join(map(str, values[2])))
    if values[-1] == cls._default:
        return cls._template[:-3] % values[:-1]  # the template without its last "_%s"
    return cls._template % values


def label_from_name(name: str) -> Label:
    """The label whose ``label_name`` is ``name``: the reader of every label in a document.

    It takes exactly the names label_name writes, so each name has one label.
    """
    exact(str, name)
    for cls in _CLASSES:
        if match := cls._pattern.fullmatch(name):
            # an absent optional last field is None: the label takes its default
            return cls(*[read(text) for read, text in zip(cls._reads, match.groups()) if text is not None])
    raise ValueError(f"{brief(name)} is not the name of a vertex label")


def _label_ids(vertices: Iterable[Label], edges: Iterable[Edge]) -> tuple[list, list[int], list[int], dict]:
    """(vertices, tails, heads, label -> id) of a graph given by labels; an unknown end is -1."""
    verts = list(vertices)
    ids = dict(zip(verts, range(len(verts))))
    ends = [(ids.get(u, -1), ids.get(v, -1)) for u, v in edges]
    return verts, [a for a, _ in ends], [b for _, b in ends], ids


def _edge_ends(edges: list, n: int) -> tuple[list[int], list[int]]:
    """(tails, heads) of JSON ``edges``, each a [tail, head] pair of exact ints in [0, n): its ends' vertex indices."""
    for e, edge in enumerate(edges):
        if not (type(edge) is list and len(edge) == 2 and all(type(i) is int and 0 <= i < n for i in edge)):
            raise ValueError(f"edge {e} is not a [tail, head] pair of vertex indices in [0, {n}): {brief(edge)}")
    return [a for a, _ in edges], [b for _, b in edges]


def _over_lcm(values: list) -> tuple[list[int], int]:
    """(numerators, den): ints and Fractions ``values`` as int numerators over their least common denominator."""
    den = math.lcm(*{c.denominator for c in values})  # an int's is 1
    return [c.numerator * (den // c.denominator) for c in values], den


def _int_keys(tail: Iterable[int], head: Iterable[int], n: int) -> list[int]:
    """``a * n + b`` for each pair (a, b) of ``tail`` and ``head``: an edge's key in an ``n``-vertex graph."""
    return [a * n + b for a, b in zip(tail, head)]


class Digraph:
    """Immutable simple directed graph (no self-loops, no parallel edges).

    Vertex id ``n`` is ``vertices[n]`` and edge id ``e`` is ``edges[e]``.
    The package's algorithms work on the id arrays: ``_id`` (label -> id),
    ``_tail``/``_head`` (per edge id), ``_out``/``_in`` (per vertex id, its
    edge ids in insertion order) and ``_topo_ids()``.  No set of the edges is
    kept: an edge is found among its tail's out-edges.  The constructor maps
    labels to ids and calls ``_init``, which holds every check and is the only
    construction path; ``_reverse()`` is a view on those arrays, not a new
    graph.
    """

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Edge]):
        self._init(*_label_ids(vertices, edges)[:3])

    def _init(self, verts: list, tail: list[int], head: list[int]) -> None:
        """Vertex ``n`` is ``verts[n]``, edge ``e`` runs ``tail[e] -> head[e]``; makes the label -> id map."""
        n = len(verts)
        self._verts: list[Label] = verts
        self._id: dict[Label, int] = dict(zip(verts, range(n)))
        if len(self._id) != n:
            raise ValueError(f"duplicate vertex {next(v for m, v in enumerate(verts) if self._id[v] != m)!r}")
        ends = tail + head
        if len(set(_int_keys(tail, head, n))) < len(tail) or any(map(operator.eq, tail, head)) or (
            ends and not 0 <= min(ends) <= max(ends) < n
        ):
            seen = set()  # report the first bad edge
            for e, (a, b) in enumerate(zip(tail, head)):
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"edge {e} references a missing vertex")
                if a == b:
                    raise ValueError(f"self-loop at {verts[a]!r}")
                if (a, b) in seen:
                    raise ValueError(f"parallel edge ({verts[a]!r}, {verts[b]!r})")
                seen.add((a, b))
        self._tail: list[int] = tail
        self._head: list[int] = head
        self._out: list[list[int]] = [[] for _ in verts]
        self._in: list[list[int]] = [[] for _ in verts]
        for e, (a, b) in enumerate(zip(tail, head)):
            self._out[a].append(e)
            self._in[b].append(e)
        self._topo: tuple[list[int] | None, list[int] | None] | None = None

    @property
    def vertices(self) -> tuple:
        return tuple(self._verts)

    @property
    def edges(self) -> tuple:
        verts = self._verts
        return tuple((verts[a], verts[b]) for a, b in zip(self._tail, self._head))

    @property
    def num_vertices(self) -> int:
        return len(self._verts)

    @property
    def num_edges(self) -> int:
        return len(self._tail)

    def __contains__(self, v: Label) -> bool:
        return v in self._id

    def out(self, v: Label) -> tuple:
        return tuple(self._verts[self._head[e]] for e in self._out[self._id[v]])

    def inn(self, v: Label) -> tuple:
        return tuple(self._verts[self._tail[e]] for e in self._in[self._id[v]])

    def max_in_degree(self) -> int:
        return max(map(len, self._in), default=0)

    def max_out_degree(self) -> int:
        return max(map(len, self._out), default=0)

    def _topo_ids(self) -> tuple[list[int] | None, list[int] | None]:
        """Kahn's algorithm over vertex ids, run once: (order, None) or (None, cycle)."""
        if self._topo is not None:
            return self._topo
        head, tail = self._head, self._tail
        indeg = [len(es) for es in self._in]
        # the order list is also the FIFO queue; the loop visits appended ids
        order = [n for n, d in enumerate(indeg) if d == 0]
        for n in order:
            for e in self._out[n]:
                w = head[e]
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        cycle = None
        if len(order) < len(indeg):
            # every leftover vertex keeps an unprocessed in-edge, so walking
            # predecessors inside the leftover set must close a cycle
            v = next(n for n, d in enumerate(indeg) if d > 0)
            trail: list[int] = []
            pos: dict[int, int] = {}
            while v not in pos:
                pos[v] = len(trail)
                trail.append(v)
                v = next(tail[e] for e in self._in[v] if indeg[tail[e]] > 0)
            cycle = trail[pos[v]:][::-1]
        self._topo = (order, None) if cycle is None else (None, cycle)
        return self._topo

    def topological_sort(self) -> tuple[list | None, list | None]:
        """Kahn's algorithm; returns (order, None) or (None, cycle).

        The cycle witness is a list of distinct vertices v0 ... vm such that
        v0 -> v1 -> ... -> vm -> v0 are all edges.
        """
        order, cycle = self._topo_ids()
        if order is None:
            return None, [self._verts[n] for n in cycle]
        return [self._verts[n] for n in order], None

    def _reverse(self) -> Digraph:
        """For the path search, the reverse graph as a view sharing this one's lists: no copy.

        Edge e runs ``_head[e] -> _tail[e]``; the topological order (or cycle) is this graph's reversed.
        """
        rev = Digraph.__new__(Digraph)
        rev._verts, rev._id = self._verts, self._id
        rev._tail, rev._head, rev._out, rev._in = self._head, self._tail, self._in, self._out
        rev._topo = tuple(None if ids is None else ids[::-1] for ids in self._topo_ids())
        return rev

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if len(self._verts) <= 1:
            return True
        out, inn, tail, head = self._out, self._in, self._tail, self._head
        seen = bytearray(len(self._verts))
        seen[0] = 1
        reached = [0]  # the loop visits the ids appended to it
        for v in reached:
            for e in out[v]:
                w = head[e]
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
            for e in inn[v]:
                w = tail[e]
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
        return len(reached) == len(seen)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._id.keys() == other._id.keys() and set(self.edges) == set(other.edges)

    __hash__ = None


@dataclass(frozen=True)
class EmbeddingCheck:
    """Result of tracing the faces of a rotation system."""

    faces: int
    genus: int


class EmbeddedDigraph(Digraph):
    """Digraph whose vertices carry distinct exact rational coordinates (ints or Fractions).

    Vertex id ``n`` sits at (``_x[n]``, ``_y[n]``) / ``_den``: two lists of int numerators over the
    denominator the graph's maker gave (the label constructor's and the JSON reader's: the least
    common one); graphs compare by labels, edges and ``coords``.  Fractions are made only at the I/O
    edge: by ``coords``, the JSON writer and ``_parse_coord``.  A vertex that is a package label reads
    back from its name, ``label_from_name(label_name(v)) == v``: the document, which writes each label
    as its name, reads back, and no two vertices share a DOT name.
    """

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Edge], coords: Mapping[Label, Coord]):
        verts, tail, head, ids = _label_ids(vertices, edges)
        for v in verts:  # every label the JSON reader makes passes; a hand-made one may not
            if isinstance(v, _Label):
                try:
                    if (back := label_from_name(label_name(v))) != v:
                        raise ValueError(f"it is the name of {back!r}")
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"vertex {v!r} does not read back from its name: {exc}") from None
        try:
            given = [coords[v] for v in verts]
        except KeyError as exc:
            raise ValueError(f"missing coordinate for {exc.args[0]!r}") from None
        if len(coords) != len(ids):
            raise ValueError("coordinates given for unknown vertices")
        if bad := [v for v, xy in zip(verts, given) if not isinstance(xy, (tuple, list)) or len(xy) != 2
                   or {*map(type, xy)} - {int, Fraction}]:  # no float or bool; no dict, set or range: not in order
            raise ValueError(f"coordinate of {bad[0]!r} is not a pair of ints or Fractions: {coords[bad[0]]!r}")
        self._init(verts, tail, head, *_over_lcm([c for xy in given for c in xy]))

    def _init(self, verts, tail, head, xy: list[int], den: int) -> None:
        """Digraph._init, with vertex ``n`` at (``xy[2n]``, ``xy[2n + 1]``) / ``den``: kept as given, in two lists."""
        super()._init(verts, tail, head)
        self._x, self._y, self._den = xy[0::2], xy[1::2], den
        if len(set(zip(self._x, self._y))) != len(verts):
            raise ValueError("vertex coordinates are not pairwise distinct")

    @property
    def coords(self) -> Mapping[Label, Coord]:
        den, points = self._den, zip(self._verts, self._x, self._y)
        return MappingProxyType({v: (Fraction(x, den), Fraction(y, den)) for v, x, y in points})

    def _runs(self) -> tuple[list[int], list[int]]:
        """(order, start), two lists: vertex id n's darts, counterclockwise from +x, are order[start[n]:start[n + 1]].

        Dart 2e leaves the tail of edge e and dart 2e + 1 its head.  A point, in numerators at any common
        scale, is coded as x * w + y for w = 2 * (y spread) + 1, so an edge's direction (dx, dy) is the
        difference of its ends' codes, dx * w + dy, and the reverse direction's code is its negation.  The
        key of a direction, s = |dx| + |dy|, is floor(m * p) for the pseudo-angle p = 1 - dx/s on [0, pi),
        3 + dx/s on [pi, 2 pi), which grows with the angle from +x; distinct dx/s differ by >= 1/m for
        m = (x spread + y spread)**2, so equal keys mean one ray.  Keys are computed once per distinct
        code and ranked, and one stable sort of the D dart ids by ray orders every rotation.
        """
        tail, head, xs, ys = self._tail, self._head, self._x, self._y
        ndarts = 2 * len(tail)
        half = max(ys, default=0) - min(ys, default=0)
        m = (max(xs, default=0) - min(xs, default=0) + half) ** 2
        w = 2 * half + 1
        point = _int_keys(xs, ys, w)
        code = list(map(operator.sub, map(point.__getitem__, head), map(point.__getitem__, tail)))
        del point
        dirs = set(code)
        keys = {}
        for c in dirs | {-c for c in dirs}:
            dy = (c + half) % w - half
            dx = (c - dy) // w
            r = dx * m // (abs(dx) + abs(dy))
            keys[c] = m - r if dy > 0 or (dy == 0 and dx > 0) else 3 * m + r
        rank = {key: i for i, key in enumerate(sorted(set(keys.values())))}
        # a dart's ray is its vertex * K + the rank of its key, K ranks in all: one ray, one value
        nkeys, ray = len(rank), [0] * ndarts
        ray[0::2] = map(operator.add, map(operator.mul, tail, repeat(nkeys)),
                        map({c: rank[keys[c]] for c in keys}.__getitem__, code))
        ray[1::2] = map(operator.add, map(operator.mul, head, repeat(nkeys)),
                        map({c: rank[keys[-c]] for c in keys}.__getitem__, code))
        del code
        order = sorted(range(ndarts), key=ray.__getitem__)  # stable: ties go by dart id
        if any(map(operator.eq, map(ray.__getitem__, order), map(ray.__getitem__, islice(order, 1, None)))):
            self._name_tie(order, ray, nkeys)
        degrees = map(operator.add, map(len, self._out), map(len, self._in))
        return order, list(accumulate(degrees, initial=0))

    def _name_tie(self, order: list[int], ray: list[int], nkeys: int) -> None:
        """Raise for the first two darts, adjacent in ``order``, that leave one vertex along one ray."""
        verts, tail, head = self._verts, self._tail, self._head
        for a, b in zip(order, order[1:]):
            if ray[a] == ray[b]:
                v = ray[a] // nkeys
                u, w = (verts[tail[d >> 1] + head[d >> 1] - v] for d in (a, b))
                if u == w:
                    raise ValueError(f"antiparallel edges between {verts[v]!r} and {u!r}")
                raise EmbeddingError(
                    f"collinear neighbor directions at {verts[v]!r}: {u!r} and {w!r} on one ray"
                )

    def check_planar_embedding(self) -> EmbeddingCheck:
        """Trace all faces of the rotation system and report (faces, genus).

        Genus 0 certifies that the coordinates describe a planar embedding.
        Raises NotConnectedError when Euler's formula does not apply.
        """
        if not self._verts:
            raise NotConnectedError("empty graph has no embedding")
        if not self.is_connected():
            raise NotConnectedError("underlying undirected graph is disconnected")
        if not self._tail:
            return EmbeddingCheck(faces=1, genus=0)
        order, start = self._runs()
        ndarts = len(order)
        # A face arriving at v along dart d ^ 1 leaves along the dart after d
        # around v: the next one in ``order``, or for the last dart of a run
        # (none is empty in a connected graph) the first.
        succ = [0] * ndarts
        for d, after in zip(order, order[1:]):
            succ[d ^ 1] = after
        for first, end in zip(start, start[1:]):
            succ[order[end - 1] ^ 1] = order[first]
        faces = 0
        for dart in range(ndarts):
            if succ[dart] >= 0:
                faces += 1
                while dart >= 0:  # walk the face, marking each dart passed with -1
                    succ[dart], dart = -1, succ[dart]
        euler = len(self._verts) - len(self._tail) + faces
        if euler > 2 or (2 - euler) % 2 != 0:
            raise RuntimeError(f"face tracing produced impossible Euler characteristic {euler}")
        return EmbeddingCheck(faces=faces, genus=(2 - euler) // 2)

    def to_json_dict(self) -> dict:
        """The graph document: each vertex's label and coordinate, once; each edge as its [tail, head] vertex indices."""
        text = {n: str(Fraction(n, self._den)) for n in {*self._x, *self._y}}
        return {
            "vertices": [
                {"label": label_name(v), "coord": [text[x], text[y]]}
                for v, x, y in zip(self._verts, self._x, self._y)
            ],
            "edges": list(map(list, zip(self._tail, self._head))),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EmbeddedDigraph":
        try:
            (vertices, edges), verts, given = exact_fields(data, "vertices", "edges"), [], []
            for label, coord in map(exact_fields, exact(list, vertices), repeat("label"), repeat("coord")):
                verts.append(label_from_name(label))
                if len(exact(list, coord)) != 2:
                    raise ValueError(f"coord of vertex {label} is not an [x, y] pair: {brief(coord)}")
                given += map(_parse_coord, coord)
            tail, head = _edge_ends(exact(list, edges), len(verts))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed graph document: {exc}") from exc
        g = cls.__new__(cls)  # its labels read back and its ends are ids: _init holds every check left
        g._init(verts, tail, head, *_over_lcm(given))
        return g

    def _split_edges(self) -> list[int]:
        """The ids of the dotted edges: each lb copy's one edge, to its position's tr copy."""
        verts, head, out = self._verts, self._head, self._out
        # ("grid", i, j, q, ell, part): the head is u with the part tr in place of lb, so its tag is "grid"
        return [
            e
            for n, u in enumerate(verts)
            if isinstance(u, GridVertex) and u[-1] == LB
            for e in out[n]
            if verts[head[e]] == u[:-1] + (TR,)
        ]

    def to_dot(self) -> str:
        """DOT rendering with fixed positions; split-vertex edges are dotted."""
        # first: the first vertex at each float point; every graph's labels read back, so names differ
        names, den, first = [label_name(v) for v in self._verts], self._den, {}
        lines = ["digraph reduction {"]
        for v, name, x, y in zip(self._verts, names, self._x, self._y):
            try:  # int / int is correctly rounded: the same float as float(Fraction)
                x, y = point = x / den, y / den
            except OverflowError:
                raise ValueError(f"coordinate of {v!r} is outside the float range") from None
            if first.setdefault(point, v) is not v:  # distinct rationals, one float point
                raise ValueError(f"coordinates of {first[point]!r} and {v!r} round to one float position {x},{y}")
            lines.append(f'  "{name}" [pos="{x},{y}!"];')
        dotted = set(self._split_edges())
        for e, (a, b) in enumerate(zip(self._tail, self._head)):
            attr = " [style=dotted]" if e in dotted else ""
            lines.append(f'  "{names[a]}" -> "{names[b]}"{attr};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return super().__eq__(other) and self.coords == other.coords


# exactly the str(Fraction) that to_json_dict writes: no leading zero, d > 1 in lowest terms
_COORD = re.compile(r"(-?[1-9][0-9]*|0)(?:/([2-9]|[1-9][0-9]+))?")


def _parse_coord(text) -> Fraction:
    """The Fraction a coordinate string writes: the JSON reader's one maker of Fractions."""
    match = _COORD.fullmatch(exact(str, text))
    if match is None or (match[2] and math.gcd(int(match[1]), int(match[2])) != 1):
        raise ValueError(f"coordinate {brief(text)} is not '<n>' or '<n>/<d>' in lowest terms")
    return Fraction(int(match[1]), int(match[2] or 1))
