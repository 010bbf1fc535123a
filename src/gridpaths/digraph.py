"""Labeled directed graphs with coordinate-derived rotation systems.

Vertices are hashable label objects carrying their meaning (grid position,
connector chain, terminal, fan-tree node).  Embedded graphs additionally
carry exact rational coordinates, which are the single source of truth for
the combinatorial embedding: the counterclockwise angular order of the
neighbors around each vertex is the rotation system, its faces are traced,
and Euler's formula V - E + F = 2 - 2g yields the genus.  Genus zero
certifies that the drawing is planar; no general-purpose planarity test is
involved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import EmbeddingError

Label = Hashable
Coord = tuple[Fraction, Fraction]
Edge = tuple[Label, Label]

WHOLE = "whole"
LB = "lb"
TR = "tr"


class NotConnectedError(ValueError):
    """The underlying undirected graph is not connected."""


@dataclass(frozen=True)
class GridVertex:
    """Intersection of column q and row ell in the grid of cell (i, j).

    ``part`` distinguishes the two copies of a split vertex: the ``lb`` copy
    receives the incoming (left/bottom) edges, the ``tr`` copy keeps the
    outgoing (right/top) edges, and ``whole`` marks an unsplit vertex.
    """

    i: int
    j: int
    q: int
    ell: int
    part: str = WHOLE


@dataclass(frozen=True)
class HConnector:
    """Vertex ell of the chain joining cell (i, j) rightwards to cell (i+1, j)."""

    i: int
    j: int
    ell: int


@dataclass(frozen=True)
class VConnector:
    """Vertex ell of the chain joining cell (i, j) upwards to cell (i, j+1)."""

    i: int
    j: int
    ell: int


@dataclass(frozen=True)
class Terminal:
    """Terminal vertex; families a/c are sources, b/d are sinks."""

    family: str
    index: int


@dataclass(frozen=True)
class TreeNode:
    """Internal node of a degree-reduction fan tree.

    ``path`` is the sequence of 0/1 child choices from the tree's terminal
    root, 0 meaning the child covering the lower leaf range.
    """

    family: str
    index: int
    path: tuple[int, ...]


def label_name(label: Label) -> str:
    """Stable readable identifier, used for DOT export."""
    if isinstance(label, GridVertex):
        base = f"w_{label.i}_{label.j}_{label.q}_{label.ell}"
        return base if label.part == WHOLE else f"{base}_{label.part}"
    if isinstance(label, HConnector):
        return f"h_{label.i}_{label.j}_{label.ell}"
    if isinstance(label, VConnector):
        return f"v_{label.i}_{label.j}_{label.ell}"
    if isinstance(label, Terminal):
        return f"{label.family}_{label.index}"
    if isinstance(label, TreeNode):
        bits = "".join(str(b) for b in label.path)
        return f"t{label.family}_{label.index}_{bits}"
    raise TypeError(f"unsupported label type: {type(label)!r}")


def label_to_json(label: Label) -> dict:
    if isinstance(label, GridVertex):
        return {
            "kind": "grid",
            "i": label.i,
            "j": label.j,
            "q": label.q,
            "ell": label.ell,
            "part": label.part,
        }
    if isinstance(label, HConnector):
        return {"kind": "hconn", "i": label.i, "j": label.j, "ell": label.ell}
    if isinstance(label, VConnector):
        return {"kind": "vconn", "i": label.i, "j": label.j, "ell": label.ell}
    if isinstance(label, Terminal):
        return {"kind": "terminal", "family": label.family, "index": label.index}
    if isinstance(label, TreeNode):
        return {
            "kind": "tree",
            "family": label.family,
            "index": label.index,
            "path": list(label.path),
        }
    raise TypeError(f"unsupported label type: {type(label)!r}")


def label_from_json(data: dict) -> Label:
    try:
        kind = data["kind"]
        if kind == "grid":
            return GridVertex(
                i=int(data["i"]),
                j=int(data["j"]),
                q=int(data["q"]),
                ell=int(data["ell"]),
                part=str(data["part"]),
            )
        if kind == "hconn":
            return HConnector(i=int(data["i"]), j=int(data["j"]), ell=int(data["ell"]))
        if kind == "vconn":
            return VConnector(i=int(data["i"]), j=int(data["j"]), ell=int(data["ell"]))
        if kind == "terminal":
            return Terminal(family=str(data["family"]), index=int(data["index"]))
        if kind == "tree":
            return TreeNode(
                family=str(data["family"]),
                index=int(data["index"]),
                path=tuple(int(b) for b in data["path"]),
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed vertex label: {exc}") from exc
    raise ValueError(f"unknown vertex label kind {data.get('kind')!r}")


def is_dotted_edge(u: Label, v: Label) -> bool:
    """True for the lb -> tr edge joining the two copies of a split vertex."""
    return (
        isinstance(u, GridVertex)
        and isinstance(v, GridVertex)
        and u.part == LB
        and v.part == TR
        and (u.i, u.j, u.q, u.ell) == (v.i, v.j, v.q, v.ell)
    )


class Digraph:
    """Immutable simple directed graph (no self-loops, no parallel edges)."""

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Edge]):
        self._verts: list[Label] = []
        vert_set: set[Label] = set()
        for v in vertices:
            if v in vert_set:
                raise ValueError(f"duplicate vertex {v!r}")
            vert_set.add(v)
            self._verts.append(v)
        self._vert_set = vert_set
        self._out: dict[Label, list[Label]] = {v: [] for v in self._verts}
        self._in: dict[Label, list[Label]] = {v: [] for v in self._verts}
        self._edges: list[Edge] = []
        self._edge_set: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vert_set or v not in vert_set:
                raise ValueError(f"edge ({u!r}, {v!r}) references a missing vertex")
            if (u, v) in self._edge_set:
                raise ValueError(f"parallel edge ({u!r}, {v!r})")
            self._edge_set.add((u, v))
            self._edges.append((u, v))
            self._out[u].append(v)
            self._in[v].append(u)

    @property
    def vertices(self) -> tuple:
        return tuple(self._verts)

    @property
    def edges(self) -> tuple:
        return tuple(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._verts)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, v: Label) -> bool:
        return v in self._vert_set

    def has_edge(self, u: Label, v: Label) -> bool:
        return (u, v) in self._edge_set

    def out(self, v: Label) -> tuple:
        return tuple(self._out[v])

    def inn(self, v: Label) -> tuple:
        return tuple(self._in[v])

    def out_neighbors(self, subset: Iterable[Label]) -> set:
        """Vertices outside ``subset`` receiving an edge from it."""
        s = set(subset)
        missing = s - self._vert_set
        if missing:
            raise ValueError(f"subset contains unknown vertices: {sorted(map(repr, missing))}")
        return {w for v in s for w in self._out[v] if w not in s}

    def in_neighbors(self, subset: Iterable[Label]) -> set:
        """Vertices outside ``subset`` sending an edge into it."""
        s = set(subset)
        missing = s - self._vert_set
        if missing:
            raise ValueError(f"subset contains unknown vertices: {sorted(map(repr, missing))}")
        return {u for v in s for u in self._in[v] if u not in s}

    def max_in_degree(self) -> int:
        return max((len(us) for us in self._in.values()), default=0)

    def max_out_degree(self) -> int:
        return max((len(ws) for ws in self._out.values()), default=0)

    def topological_sort(self) -> tuple[list | None, list | None]:
        """Kahn's algorithm; returns (order, None) or (None, cycle).

        The cycle witness is a list of distinct vertices v0 ... vm such that
        v0 -> v1 -> ... -> vm -> v0 are all edges.
        """
        indeg = {v: len(self._in[v]) for v in self._verts}
        queue = deque(v for v in self._verts if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in self._out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) == len(self._verts):
            return order, None
        # every leftover vertex keeps an unprocessed in-edge, so walking
        # predecessors inside the leftover set must close a cycle
        remaining = {v for v in self._verts if indeg[v] > 0}
        v = next(x for x in self._verts if x in remaining)
        trail: list[Label] = []
        pos: dict[Label, int] = {}
        while v not in pos:
            pos[v] = len(trail)
            trail.append(v)
            v = next(u for u in self._in[v] if u in remaining)
        cycle = trail[pos[v]:]
        cycle.reverse()
        return None, cycle

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if len(self._verts) <= 1:
            return True
        seen = {self._verts[0]}
        stack = [self._verts[0]]
        while stack:
            v = stack.pop()
            for w in self._out[v] + self._in[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._verts)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._vert_set == other._vert_set and self._edge_set == other._edge_set

    __hash__ = None


@dataclass(frozen=True)
class EmbeddingCheck:
    """Result of tracing the faces of a rotation system."""

    faces: int
    genus: int


def _angle_half(dx: Fraction, dy: Fraction) -> int:
    # 0 for directions with angle in [0, pi), 1 for [pi, 2*pi)
    return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1


def _ccw_compare(d1, d2) -> int:
    h1 = _angle_half(d1[0], d1[1])
    h2 = _angle_half(d2[0], d2[1])
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    raise EmbeddingError("collinear neighbor directions; rotation is ambiguous")


class EmbeddedDigraph(Digraph):
    """Digraph whose vertices carry distinct exact rational coordinates."""

    def __init__(
        self,
        vertices: Iterable[Label],
        edges: Iterable[Edge],
        coords: Mapping[Label, Coord],
    ):
        super().__init__(vertices, edges)
        self._coords: dict[Label, Coord] = {}
        for v in self._verts:
            if v not in coords:
                raise ValueError(f"missing coordinate for {v!r}")
            x, y = coords[v]
            self._coords[v] = (Fraction(x), Fraction(y))
        if len(coords) != len(self._verts):
            raise ValueError("coordinates given for unknown vertices")
        if len(set(self._coords.values())) != len(self._verts):
            raise ValueError("vertex coordinates are not pairwise distinct")
        self._rot: dict[Label, tuple] | None = None

    @property
    def coords(self) -> Mapping[Label, Coord]:
        return MappingProxyType(self._coords)

    def coord(self, v: Label) -> Coord:
        return self._coords[v]

    def _rotation_map(self) -> dict[Label, tuple]:
        if self._rot is None:
            for u, v in self._edges:
                if (v, u) in self._edge_set:
                    raise ValueError(
                        f"antiparallel edges between {u!r} and {v!r}; "
                        "the embedding check needs a simple underlying graph"
                    )
            rot = {}
            for v in self._verts:
                vx, vy = self._coords[v]
                dirs = []
                for u in self._out[v] + self._in[v]:
                    ux, uy = self._coords[u]
                    dirs.append((ux - vx, uy - vy, u))
                dirs.sort(key=cmp_to_key(_ccw_compare))
                rot[v] = tuple(u for _, _, u in dirs)
            self._rot = rot
        return self._rot

    def rotation(self, v: Label) -> tuple:
        """Neighbors of ``v`` in counterclockwise angular order."""
        return self._rotation_map()[v]

    def check_planar_embedding(self) -> EmbeddingCheck:
        """Trace all faces of the rotation system and report (faces, genus).

        Genus 0 certifies that the coordinates describe a planar embedding.
        Raises NotConnectedError when Euler's formula does not apply.
        """
        if not self._verts:
            raise NotConnectedError("empty graph has no embedding")
        if not self.is_connected():
            raise NotConnectedError("underlying undirected graph is disconnected")
        if not self._edges:
            return EmbeddingCheck(faces=1, genus=0)
        rot = self._rotation_map()
        pos = {v: {u: idx for idx, u in enumerate(nbrs)} for v, nbrs in rot.items()}
        visited: set[Edge] = set()
        faces = 0
        darts: list[Edge] = []
        for u, v in self._edges:
            darts.append((u, v))
            darts.append((v, u))
        for start in darts:
            if start in visited:
                continue
            faces += 1
            dart = start
            while True:
                visited.add(dart)
                u, v = dart
                nbrs = rot[v]
                dart = (v, nbrs[(pos[v][u] + 1) % len(nbrs)])
                if dart == start:
                    break
        euler = len(self._verts) - len(self._edges) + faces
        if euler > 2 or (2 - euler) % 2 != 0:
            raise RuntimeError(f"face tracing produced impossible Euler characteristic {euler}")
        return EmbeddingCheck(faces=faces, genus=(2 - euler) // 2)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "label": label_to_json(v),
                    "coord": [str(self._coords[v][0]), str(self._coords[v][1])],
                }
                for v in self._verts
            ],
            "edges": [[label_to_json(u), label_to_json(v)] for u, v in self._edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EmbeddedDigraph":
        try:
            verts = []
            coords = {}
            for entry in data["vertices"]:
                v = label_from_json(entry["label"])
                x_str, y_str = entry["coord"]
                verts.append(v)
                coords[v] = (Fraction(x_str), Fraction(y_str))
            edges = [
                (label_from_json(u), label_from_json(v)) for u, v in data["edges"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph document: {exc}") from exc
        return cls(verts, edges, coords)

    def to_dot(self) -> str:
        """DOT rendering with fixed positions; split-vertex edges are dotted."""
        lines = ["digraph reduction {"]
        for v in self._verts:
            x, y = self._coords[v]
            lines.append(f'  "{label_name(v)}" [pos="{float(x)},{float(y)}!"];')
        for u, v in self._edges:
            attr = " [style=dotted]" if is_dotted_edge(u, v) else ""
            lines.append(f'  "{label_name(u)}" -> "{label_name(v)}"{attr};')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._vert_set == other._vert_set
            and self._edge_set == other._edge_set
            and self._coords == other._coords
        )

    __hash__ = None
