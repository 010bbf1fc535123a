"""Gadget construction: grid tiling instance -> edge-disjoint-paths instance.

The base graph holds one N x N directed grid per cell, arranged in a k x k
macro-grid with all edges pointing right or up.  Connector chains join
adjacent grids, and 4k terminals fan into/out of the outermost boundary
rows and columns.  The splitting step then replaces every grid vertex whose
coordinates are absent from its cell's set with an lb -> tr vertex pair, so
that edge-disjoint traffic can cross it left-to-right or bottom-to-top but
not both.  Optionally each terminal's N-edge fan is built as a balanced
binary tree instead, capping in- and out-degrees at 2.

Everything is laid out on exact rational coordinates so that the rotation
system derived from them passes the genus-0 embedding check, and vertex and
edge counts follow closed forms that the test suite pins exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, product
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .digraph import (
    LB,
    TR,
    WHOLE,
    EmbeddedDigraph,
    GridVertex,
    HConnector,
    Label,
    Terminal,
    TreeNode,
    VConnector,
    label_name,
)
from .errors import exact, exact_fields
from .gridtiling import GridTilingInstance, _size_violations, _valid

SIDES = ("left", "right", "top", "bottom")


class _Family(NamedTuple):
    """The columns' or the rows' half of the gadget; swapping x and y maps one onto the other.

    Path m runs from terminal family terminals[0] to terminals[1] in the lane of cells with
    (i, j)[axis] == m, entering each grid by sides[0], leaving by sides[1], and riding
    ``connector`` chains in between.
    """

    axis: int
    terminals: tuple[str, str]
    connector: type
    sides: tuple[str, str]


_FAMILIES = _COLUMNS, _ROWS = (  # in emission order: the columns first
    _Family(0, ("a", "b"), VConnector, ("bottom", "top")),
    _Family(1, ("c", "d"), HConnector, ("left", "right")),
)
# side -> (the family whose paths cross it, 0 where they enter a grid, 1 where they leave)
_SIDES = {side: (fam, end) for fam in _FAMILIES for end, side in enumerate(fam.sides)}


def _orient(fam: _Family, lane, step) -> tuple:
    """(x, y) of the point ``lane`` across and ``step`` along ``fam``'s paths, and back."""
    return (lane, step) if fam.axis == 0 else (step, lane)


def _position(k: int, n: int, i: int, j: int, q: int, ell: int) -> int:
    """The index p of grid position (i, j, q, ell), in the order ``_build`` makes the positions."""
    return (((i - 1) * k + j - 1) * n + q - 1) * n + ell - 1


def _boundary(k: int, n: int, i: int, j: int, side: str) -> list[int]:
    """The positions of grid (i, j)'s N vertices on ``side``, in ell order."""
    fam, end = _SIDES[side]
    return [_position(k, n, i, j, *_orient(fam, ell, (1, n)[end])) for ell in range(1, n + 1)]


class AlreadyReducedError(ValueError):
    """The degree-reduction edit was applied twice."""


@dataclass(frozen=True)
class TerminalSet:
    """Ordered terminal pairs: k bottom-to-top pairs, then k left-to-right pairs."""

    pairs: tuple[tuple[Label, Label], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((s, t) for s, t in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class GraphCounts:
    vertices: int
    edges: int


@dataclass(frozen=True)
class ReductionOutput:
    """A constructed paths instance with its provenance and predicted size; ``to_json_dict`` encodes its document."""

    graph: EmbeddedDigraph
    terminals: TerminalSet
    provenance: GridTilingInstance
    counts: GraphCounts
    degree_reduced: bool = False
    # per shape id of ``_base``, the (entry, exit) vertex ids that ``_build`` gave it; empty if made by hand
    layout: tuple = field(default=(), compare=False, repr=False)

    def to_json_dict(self) -> dict:
        """The document: the instance, the graph, terminals and counts it determines, and the form."""
        return {
            "instance": self.provenance.to_json_dict(),
            "graph": self.graph.to_json_dict(),
            "terminals": [[label_name(s), label_name(t)] for s, t in self.terminals.pairs],
            "counts": {"vertices": self.counts.vertices, "edges": self.counts.edges},
            "degree_reduced": self.degree_reduced,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReductionOutput":
        """Rebuild the reduction from ``instance`` and ``degree_reduced``.

        The gadget is a function of its instance, so ``graph``, ``terminals`` and ``counts`` carry
        nothing the rebuild lacks: each must equal the rebuild's encoding under ``==``.  ``==`` takes
        1, 1.0 and true as one value, but no other JSON value equals a value of another type, and the
        encoding's only ints are the graph's edge ends and the two counts.  So the counts are read by
        exact type, and a graph that compares equal has its edge ends' types checked in one pass.
        An equal-valued str, list or dict subclass passed in from Python is taken: the rebuild is
        returned, never a stored value.
        """
        try:
            keys = ("instance", "graph", "terminals", "counts", "degree_reduced")
            instance, graph, terminals, counts, degree_reduced = exact_fields(data, *keys)
            degree_reduced = exact(bool, degree_reduced)
            for count in exact_fields(counts, "vertices", "edges"):
                exact(int, count)
            inst = GridTilingInstance.from_json_dict(instance)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed reduction document: {exc}") from exc
        out = _derive(inst, degree_reduced)
        document = out.to_json_dict()
        for part, value in (("graph", graph), ("terminals", terminals), ("counts", counts)):
            if value != document[part]:
                if part == "graph":  # a part that is no graph document is named by the bare reader
                    EmbeddedDigraph.from_json_dict(value)
                raise ValueError(f"reduction document's {part} differs from its instance's construction")
        if foreign := set(map(type, chain.from_iterable(graph["edges"]))) - {int}:
            names = " and ".join(sorted(kind.__name__ for kind in foreign))
            raise ValueError(f"malformed reduction document: its graph holds a value of type {names}")
        return out


def build_g1(k: int, N: int) -> EmbeddedDigraph:
    """The unsplit base graph: grids, connector chains, terminals, fans.

    Grid vertex (i, j, q, ell) sits at x = (i-1)(N+1) + q, y = (j-1)(N+1) + ell,
    connectors on the interstitial grid lines, terminals outside the bounding
    box.  Every grid vertex ends up with in-degree and out-degree exactly 2.
    It is the split graph of the instance whose every cell holds all of [N]^2.
    """
    if violations := _size_violations(k, N):
        raise ValueError("; ".join(violations))
    full = frozenset(product(range(1, N + 1), repeat=2))
    return _build(k, N, dict.fromkeys(product(range(1, k + 1), repeat=2), full))[0]


def split_vertices(g1: EmbeddedDigraph, inst: GridTilingInstance) -> EmbeddedDigraph:
    """Split every grid vertex whose (q, ell) is absent from its cell's set.

    ``g1`` must be the base graph for the instance's (k, N); the split graph
    is then built straight from the instance, the same graph ``reduce``
    returns.
    """
    _valid(inst)
    if g1 != build_g1(inst.k, inst.N):
        raise ValueError("graph does not match the base construction for this instance")
    return _build(inst.k, inst.N, inst.sets)[0]


def _derive(inst: GridTilingInstance, degree_reduced: bool = False) -> ReductionOutput:
    """The reduction of an instance: its graph, terminal pairs and counts.

    The only code that makes a ReductionOutput; ``reduce``, ``reduce_degree``
    and the JSON loader all call it.  ``predicted_counts`` validates the
    instance first, so an invalid one raises ``reduce``'s ValueError.
    """
    counts = predicted_counts(inst, degree_reduced)
    ks = range(1, inst.k + 1)
    pairs = [[Terminal(family, m) for family in fam.terminals] for fam in _FAMILIES for m in ks]
    graph, layout = _build(inst.k, inst.N, inst.sets, trees=degree_reduced)
    return ReductionOutput(graph, TerminalSet(pairs), inst, counts, degree_reduced, layout)


def _build(k: int, N: int, sets: dict, trees: bool = False) -> tuple[EmbeddedDigraph, tuple[list[int], list[int]]]:
    """The base graph with each grid position split or whole, on vertex ids, and its layout.

    A position whose (q, ell) is absent from its cell's set becomes an lb copy
    at offset (-1/4, -1/4) and a tr copy at (+1/4, +1/4), joined by the
    dotted lb -> tr edge; edges arrive at lb and leave from tr.  With
    ``trees`` each terminal's fan is a balanced binary tree instead.

    Ids are handed out in order: grid positions by (i, j, q, ell), lb before
    tr, the connector chains (the rows' first), the terminals, the tree
    nodes (pre-order).  Edges: grid, connector, then fan and dotted edges, or
    with trees dotted and tree edges.  Coordinates are numerators over 4, or
    8 * levels with trees, which the graph keeps as they are.
    The positions' coordinates are made here.  Their labels and names come from the shape's
    ``_positions`` memo, which this fills on first use of a slot; the rest comes from the cached
    ``_base``.  The graph gets its vertices' names with them, for its writers.

    The layout (entry, exit), the two int lists made here, maps each shape id of ``_base`` to the
    vertex id that receives its edges and the one that sends them, which the forward map reads.
    """
    base, (labels, names) = _base(k, N, trees), _positions(k, N)
    pitch, den, quarter = N + 1, base.den, base.den // 4
    ks, ells = range(1, k + 1), range(1, N + 1)
    slots, xy, entry, exit_ = array("l"), [], [], []  # slots: per vertex its memo slot, kept as machine ints
    for p, (i, j, q, ell) in enumerate(product(ks, ks, ells, ells)):  # in the order of their positions p
        x, y = ((i - 1) * pitch + q) * den, ((j - 1) * pitch + ell) * den
        entry.append(len(slots))
        if (q, ell) in sets[i, j]:
            slots.append(3 * p)
            xy += x, y
        else:
            slots.extend((3 * p + 1, 3 * p + 2))
            xy += x - quarter, y - quarter, x + quarter, y + quarter
        exit_.append(len(slots) - 1)
        if labels[slots[-1]] is None:  # the first build of the shape to use a slot fills it, lb with tr
            for s in slots[entry[-1]:]:
                labels[s] = v = GridVertex(i, j, q, ell, _PARTS[s % 3])
                names[s] = label_name(v)
    first = len(slots)  # the other vertices follow the positions' copies
    entry += range(first, first + len(base.verts))
    exit_ += range(first, first + len(base.verts))
    verts = [*map(labels.__getitem__, slots), *base.verts]
    xy += base.xy
    # a tree node sits midway between its end leaves, each a quarter off if split
    for n, (dx, dy), lo, hi in base.ends:
        if splits := (entry[lo] != exit_[lo]) + (entry[hi] != exit_[hi]):
            xy[2 * first + n] += splits * dx
            xy[2 * first + n + 1] += splits * dy
    tail = list(map(exit_.__getitem__, base.tail))
    head = list(map(entry.__getitem__, base.head))
    dotted = [n for n, x in zip(entry, exit_) if n != x]
    at = base.fan if trees else len(tail)
    tail[at:at] = dotted
    head[at:at] = [n + 1 for n in dotted]  # a tr copy follows its lb copy
    g = EmbeddedDigraph.__new__(EmbeddedDigraph)
    g._init(verts, tail, head, xy, den, [*map(names.__getitem__, slots), *base.names])
    return g, (entry, exit_)


# a grid position's three label slots: whole, lb and tr copy
_PARTS = (WHOLE, LB, TR)


@lru_cache(maxsize=32)
def _positions(k: int, N: int) -> tuple[list, list]:
    """The memo of the grid-position labels and names of every graph of shape (k, N), in either form.

    Two lists, (labels, names): slot 3p + part holds position p's GridVertex with part
    ``_PARTS[part]`` and its label_name.  The slots start as None, so a one-off build makes only the
    labels it uses; later builds of the shape, split alike or not, share the labels and names.
    """
    size = 3 * k * k * N * N
    return [None] * size, [None] * size


class _Base(NamedTuple):
    """A shape's parts; shape id P + n, after the P = k^2 N^2 grid positions p, is verts[n]."""

    verts: tuple  # the connectors, terminals and tree nodes, in id order
    names: tuple  # their label_names
    xy: tuple  # their numerators over den, x then y for each
    tail: array  # the ends of every edge, its fan or tree edges from edge id ``fan`` on
    head: array
    fan: int
    den: int
    ends: tuple  # per tree node: the index of its x in xy, its shift per split end leaf, its two end leaves
    roots: Mapping  # (family, m) -> terminal m of the family
    chains: Mapping  # (axis, i, j) -> vertex 1 of the family's chain that leaves grid (i, j)
    routes: Mapping  # (family, m) -> per leaf, the tree nodes between the root and it


@lru_cache(maxsize=32)
def _base(k: int, N: int, trees: bool) -> _Base:
    """The connectors, terminals, fans or fan trees and every edge of G1, and where each sits.

    A fan is the one-level tree of the fan trees' grower: its root takes each leaf as a child.
    Built once per shape and shared by every graph of that shape, so every
    table is a tuple, an array ``_build`` only reads, or a read-only mapping.
    """
    pitch = N + 1
    ks, ells = range(1, k + 1), range(1, N + 1)
    # depth of the deepest leaf of a balanced tree on N leaves; a node at
    # depth d sits d / levels of the way from its terminal to the leaf level
    levels = (N - 1).bit_length()
    den = 8 * levels if trees else 4
    quarter = den // 4
    size = k * k * N * N
    verts, xy, ends = [], [], []
    roots, chains, routes = {}, {}, {}

    # each grid's edges one step along the columns' paths, then the rows',
    # a run of positions with one q at a time
    tail, head = [], []
    for grid in range(0, size, N * N):
        for fam in _FAMILIES:
            dq, dl = _orient(fam, 0, 1)
            for r in range(grid, grid + (N - dq) * N, N):
                tail += range(r, r + N - dl)
                head += range(r + dq * N + dl, r + dq * N + N)

    # a connector chain collects the exit side of grid (i, j) and feeds the entry
    # side of the next grid along the family's paths; the rows' chains come first
    for fam in reversed(_FAMILIES):
        di, dj = _orient(fam, 0, 1)
        for i, j in product(range(1, k + 1 - di), range(1, k + 1 - dj)):
            lane, step = _orient(fam, i, j)
            chain = range(size + len(verts), size + len(verts) + N)
            chains[fam.axis, i, j] = chain[0]
            verts += [fam.connector(i, j, ell) for ell in ells]
            xy += [c for ell in ells for c in _orient(fam, ((lane - 1) * pitch + ell) * den, step * pitch * den)]
            tail += [*chain[:-1], *_boundary(k, N, i, j, fam.sides[1]), *chain]
            head += [*chain[1:], *chain, *_boundary(k, N, i + di, j + dj, fam.sides[0])]

    # Terminals sit ``depth`` units outside the grids' bounding box, a fan
    # tree's internal nodes on evenly spaced levels between the terminal and
    # the split copies nearest it (a quarter outside the outermost grid line).
    # A direct fan edge to a leaf a units across from its terminal runs depth + 1
    # units deep, so it moves a / (4 (depth + 1)) across in the last quarter unit
    # before the leaf, where the grid edge from the leaf to the split copy of its
    # neighbour nearer the terminal moves 3/4.  It stays on its side of that edge
    # only while a < 3 (depth + 1), for every a up to (N - 1) / 2: depth 1 fails
    # from N = 13 on, and depth = ceil(N / 4) keeps a / (depth + 1) below 2.
    depth = -(-N // 4)
    outside = (-depth * den, (k * pitch + depth) * den)
    inward = (4 * depth + 3) * quarter  # depth + 3/4, from a terminal to the split copies nearest it
    for fam, m in product(_FAMILIES, ks):
        for end, family in enumerate(fam.terminals):
            roots[family, m] = size + len(verts)
            verts.append(Terminal(family, m))
            xy += _orient(fam, (m - 1) * pitch * den + pitch * den // 2, outside[end])

    # Terminal m of a family fans out into the entry side of the family's
    # first grid in lane m, or collects the exit side of its last grid, its
    # leaves in boundary order: a_i bottom, b_i top, c_j left, d_j right.
    fan: tuple[list[int], list[int]] = ([], [])  # tails, heads: a root's end is fan[end]
    for side, (fam, end) in _SIDES.items():
        for m in ks:
            family = fam.terminals[end]
            root = roots[family, m]
            leaves = _boundary(k, N, *_orient(fam, m, (1, k)[end]), side)
            found: list[tuple[int, ...]] = []  # per leaf, the tree nodes from the root to it

            def grow(lo: int, hi: int, path: tuple[int, ...], route: tuple[int, ...]) -> int:
                if hi - lo == 1:
                    found.append(route)
                    return leaves[lo]
                node = size + len(verts) if path else root
                if path:
                    route += (node,)
                    # leaf ell lies ((m-1) pitch + ell) den along the lane, a quarter = 2 levels off if split
                    ends.append((len(xy), _orient(fam, (-levels, levels)[end], 0), leaves[lo], leaves[hi - 1]))
                    verts.append(TreeNode(family, m, path))
                    t = (2 * (m - 1) * pitch + lo + 1 + hi) * den // 2
                    xy.extend(_orient(fam, t, outside[end] + (inward, -inward)[end] * len(path) // levels))
                # a fan's root takes each leaf as a one-leaf child; a tree node splits its leaves in two
                cuts = (lo, _tree_split(lo, hi), hi) if trees else range(lo, hi + 1)
                for bit, (clo, chi) in enumerate(zip(cuts, cuts[1:])):
                    child = grow(clo, chi, path + (bit,), route)
                    fan[end].append(node)
                    fan[1 - end].append(child)
                return node

            grow(0, N, (), ())
            routes[family, m] = tuple(found)

    edges = (array("l", tail + fan[0]), array("l", head + fan[1]))
    tables = map(MappingProxyType, (roots, chains, routes))
    return _Base(tuple(verts), tuple(map(label_name, verts)), tuple(xy), *edges, len(tail), den, tuple(ends), *tables)


def _tree_split(lo: int, hi: int) -> int:
    """Where a fan tree splits leaves [lo, hi): the larger half goes left."""
    return lo + (hi - lo + 1) // 2


def predicted_counts(inst: GridTilingInstance, degree_reduced: bool = False) -> GraphCounts:
    """Exact closed-form vertex and edge counts for the reduction output.

    Raises ``reduce``'s ValueError on an invalid instance, for which no
    reduction exists to count.
    """
    _valid(inst)
    k, n = inst.k, inst.N
    missing = sum(n * n - len(inst.sets[cell]) for cell in inst.cells())
    num_verts = 4 * k + 2 * k * (k - 1) * n + k * k * n * n + missing
    num_edges = 2 * k * k * n * (n - 1) + missing + 2 * k * (k - 1) * (3 * n - 1) + 4 * k * n
    if degree_reduced:
        # each of the 4k fans becomes a full binary tree: N-2 fresh internal
        # nodes and (2N-2) - N extra edges
        num_verts += 4 * k * (n - 2)
        num_edges += 4 * k * (n - 2)
    return GraphCounts(vertices=num_verts, edges=num_edges)


def reduce(inst: GridTilingInstance) -> ReductionOutput:
    """Full reduction: build the split graph and attach terminal pairs."""
    return _derive(inst)


def grid_vertex_parts(out: ReductionOutput, i: int, j: int, q: int, ell: int) -> tuple[GridVertex, GridVertex]:
    """The graph's (entry, exit) labels at a grid position: equal when whole, (lb, tr) when split."""
    k, n = out.provenance.k, out.provenance.N
    # exact ints, so that no bool, float or str indexes the layout
    if {type(i), type(j), type(q), type(ell)} != {int} or not (
        1 <= i <= k and 1 <= j <= k and 1 <= q <= n and 1 <= ell <= n
    ):
        raise ValueError(f"no grid vertex at cell ({i!r},{j!r}) position ({q!r},{ell!r})")
    (entry, exit_), p, verts = _layout(out), _position(k, n, i, j, q, ell), out.graph._verts
    return verts[entry[p]], verts[exit_[p]]


def _layout(out: ReductionOutput) -> tuple:
    """``out.layout``, or a ValueError for a ReductionOutput made by hand, which has none."""
    if not out.layout:
        raise ValueError("the reduction has no layout: make it with reduce or reduce_degree")
    return out.layout


def boundary(out: ReductionOutput, i: int, j: int, side: str) -> list:
    """The N boundary vertices of grid (i, j) on ``side``, in ell order.

    Split positions contribute the lb copy on the left/bottom sides and the
    tr copy on the right/top sides; whole positions contribute the single
    vertex either way.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    grid_vertex_parts(out, i, j, 1, 1)  # a cell out of range, or no layout, raises
    ids, verts = out.layout[_SIDES[side][1]], out.graph._verts
    return [verts[ids[p]] for p in _boundary(out.provenance.k, out.provenance.N, i, j, side)]


def level_set(out: ReductionOutput, kind: str, index: int) -> set:
    """The horizontal (row) or vertical (column) stratum of the gadget.

    Horizontal(j) holds c_j, d_j, every vertex of the grids (i, j), the
    horizontal connectors at row j, and any fan-tree nodes of c_j/d_j;
    Vertical(i) is the column analogue for a_i, b_i.
    """
    k = out.provenance.k
    if kind not in ("horizontal", "vertical"):
        raise ValueError(f"kind must be 'horizontal' or 'vertical', got {kind!r}")
    if type(index) is not int or not (1 <= index <= k):
        raise ValueError(f"index must be an int in [1, {k}], got {index!r}")
    fam = _ROWS if kind == "horizontal" else _COLUMNS
    return {v for v in out.graph.vertices if _in_level(v, fam, index)}


def _in_level(v: Label, fam: _Family, index: int) -> bool:
    """Whether label ``v``, or a plain-tuple copy of it, belongs to the stratum of path ``index`` of ``fam``."""
    # a label is the tuple (kind, i, j, ...) or (kind, family, index, ...): its tag tells its kind
    if v[0] in (GridVertex.kind, fam.connector.kind):
        return v[1 + fam.axis] == index
    return v[0] in (Terminal.kind, TreeNode.kind) and v[2] == index and v[1] in fam.terminals


def reduce_degree(out: ReductionOutput) -> ReductionOutput:
    """Replace every terminal fan with a balanced directed binary tree.

    Source fans become trees with edges directed away from the terminal
    root; sink fans the mirror image.  Leaves attach in boundary order and
    internal nodes sit at the midpoints of their leaf span within the fan
    region, which keeps the rotation system planar.  The result has maximum
    in-degree and out-degree 2 and the same feasibility answer.  The whole
    output is derived anew from ``out.provenance``, which is validated as
    ``reduce`` validates its instance.
    """
    if out.degree_reduced:
        raise AlreadyReducedError("degree reduction was already applied")
    return _derive(out.provenance, degree_reduced=True)
