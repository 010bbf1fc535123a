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

from dataclasses import dataclass
from fractions import Fraction

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
    label_to_json,
)
from .gridtiling import GridTilingInstance, _json_int, validate_instance

SIDES = ("left", "right", "top", "bottom")


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

    def to_json_list(self) -> list:
        return [[label_to_json(s), label_to_json(t)] for s, t in self.pairs]


@dataclass(frozen=True)
class GraphCounts:
    vertices: int
    edges: int


@dataclass(frozen=True)
class ReductionOutput:
    """A constructed paths instance with its provenance and predicted size."""

    graph: EmbeddedDigraph
    terminals: TerminalSet
    provenance: GridTilingInstance
    counts: GraphCounts
    degree_reduced: bool = False

    def to_json_dict(self) -> dict:
        return {
            "instance": self.provenance.to_json_dict(),
            "graph": self.graph.to_json_dict(),
            "terminals": self.terminals.to_json_list(),
            "counts": {"vertices": self.counts.vertices, "edges": self.counts.edges},
            "degree_reduced": self.degree_reduced,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReductionOutput":
        """Rebuild the reduction from ``instance`` and ``degree_reduced``.

        ``graph``, ``terminals`` and ``counts`` must equal the rebuild's encoding.
        """
        try:
            counts = [_json_int(data["counts"][key]) for key in ("vertices", "edges")]
            degree_reduced = data["degree_reduced"]
            # bool("false") is True: test the exact type
            if type(degree_reduced) is not bool:
                raise TypeError(f"degree_reduced must be a boolean, got {degree_reduced!r}")
            stored = {part: data[part] for part in ("graph", "terminals", "counts")}
            inst = GridTilingInstance.from_json_dict(data["instance"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed reduction document: {exc}") from exc
        out = _derive(_valid(inst), degree_reduced)
        derived = out.to_json_dict()
        for part, value in stored.items():
            if value != derived[part]:
                raise ValueError(f"reduction document's {part} differs from its instance's construction")
        return out


def build_g1(k: int, N: int) -> EmbeddedDigraph:
    """The unsplit base graph: grids, connector chains, terminals, fans.

    Grid vertex (i, j, q, ell) sits at x = (i-1)(N+1) + q, y = (j-1)(N+1) + ell,
    connectors on the interstitial grid lines, terminals outside the bounding
    box.  Every grid vertex ends up with in-degree and out-degree exactly 2.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    return _build(k, N, None)


def split_vertices(g1: EmbeddedDigraph, inst: GridTilingInstance) -> EmbeddedDigraph:
    """Split every grid vertex whose (q, ell) is absent from its cell's set.

    ``g1`` must be the base graph for the instance's (k, N); the split graph
    is then built straight from the instance, the same graph ``reduce``
    returns.
    """
    _valid(inst)
    if g1 != build_g1(inst.k, inst.N):
        raise ValueError("graph does not match the base construction for this instance")
    return _build(inst.k, inst.N, inst.sets)


def _valid(inst: GridTilingInstance) -> GridTilingInstance:
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    return inst


def _derive(inst: GridTilingInstance, degree_reduced: bool = False) -> ReductionOutput:
    """The reduction of a valid instance: its graph, terminal pairs and counts.

    The only code that makes a ReductionOutput; ``reduce``, ``reduce_degree``
    and the JSON loader all call it.
    """
    pairs = tuple((Terminal("a", i), Terminal("b", i)) for i in range(1, inst.k + 1))
    pairs += tuple((Terminal("c", j), Terminal("d", j)) for j in range(1, inst.k + 1))
    return ReductionOutput(
        graph=_build(inst.k, inst.N, inst.sets, trees=degree_reduced),
        terminals=TerminalSet(pairs),
        provenance=inst,
        counts=predicted_counts(inst, degree_reduced),
        degree_reduced=degree_reduced,
    )


def _build(k: int, N: int, sets: dict | None, trees: bool = False) -> EmbeddedDigraph:
    """The base graph with each grid position split or whole, in one pass.

    With ``sets`` None every position is whole (the base graph).  Otherwise a
    position whose (q, ell) is absent from its cell's set becomes an lb copy
    at offset (-1/4, -1/4) and a tr copy at (+1/4, +1/4), joined by the
    dotted lb -> tr edge; edges arrive at lb and leave from tr.  The dotted
    edges come after all others, in grid-vertex order.

    With ``trees`` each terminal's fan is a balanced binary tree instead:
    its nodes follow the terminals (pre-order within a tree) and its edges
    follow the dotted ones.
    """
    pitch = N + 1
    edges: list[tuple[Label, Label]] = []
    # the vertices in order, each with its coordinates: ints where whole, else Fractions
    coords: dict[Label, tuple] = {}
    # grid position (i, j, q, ell) -> the label its edges arrive at / leave from
    head: dict[tuple[int, int, int, int], GridVertex] = {}
    tail: dict[tuple[int, int, int, int], GridVertex] = {}
    dotted: list[tuple[Label, Label]] = []

    # (c - 1/4, c + 1/4) for each grid line c: one Fraction per copy, not per vertex
    shifted = [(Fraction(4 * c - 1, 4), Fraction(4 * c + 1, 4)) for c in range(k * pitch)]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            x0 = (i - 1) * pitch
            y0 = (j - 1) * pitch
            for q in range(1, N + 1):
                for ell in range(1, N + 1):
                    pos = (i, j, q, ell)
                    x, y = x0 + q, y0 + ell
                    if sets is None or (q, ell) in sets[(i, j)]:
                        v = GridVertex(i, j, q, ell)
                        coords[v] = (x, y)
                        head[pos] = tail[pos] = v
                    else:
                        lb = GridVertex(i, j, q, ell, LB)
                        tr = GridVertex(i, j, q, ell, TR)
                        coords[lb], coords[tr] = zip(shifted[x], shifted[y])
                        head[pos], tail[pos] = lb, tr
                        dotted.append((lb, tr))

    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for q in range(1, N + 1):
                for ell in range(1, N):
                    edges.append((tail[i, j, q, ell], head[i, j, q, ell + 1]))
            for q in range(1, N):
                for ell in range(1, N + 1):
                    edges.append((tail[i, j, q, ell], head[i, j, q + 1, ell]))

    # horizontal connector chains between grid (i, j) and grid (i+1, j)
    for i in range(1, k):
        for j in range(1, k + 1):
            for ell in range(1, N + 1):
                coords[HConnector(i, j, ell)] = (i * pitch, (j - 1) * pitch + ell)
            for ell in range(1, N):
                edges.append((HConnector(i, j, ell), HConnector(i, j, ell + 1)))
            for ell in range(1, N + 1):
                edges.append((tail[i, j, N, ell], HConnector(i, j, ell)))
            for ell in range(1, N + 1):
                edges.append((HConnector(i, j, ell), head[i + 1, j, 1, ell]))

    # vertical connector chains between grid (i, j) and grid (i, j+1)
    for i in range(1, k + 1):
        for j in range(1, k):
            for ell in range(1, N + 1):
                coords[VConnector(i, j, ell)] = ((i - 1) * pitch + ell, j * pitch)
            for ell in range(1, N):
                edges.append((VConnector(i, j, ell), VConnector(i, j, ell + 1)))
            for ell in range(1, N + 1):
                edges.append((tail[i, j, ell, N], VConnector(i, j, ell)))
            for ell in range(1, N + 1):
                edges.append((VConnector(i, j, ell), head[i, j + 1, ell, 1]))

    # Terminals sit one unit outside the grids' bounding box, a fan tree's
    # internal nodes on evenly spaced levels between the terminal and the
    # split copies nearest it (a quarter outside the outermost grid line).
    half = Fraction(pitch, 2) if pitch % 2 else pitch // 2
    near, far = -1, k * pitch + 1
    for i in range(1, k + 1):
        coords[Terminal("a", i)] = ((i - 1) * pitch + half, near)
        coords[Terminal("b", i)] = ((i - 1) * pitch + half, far)
    for j in range(1, k + 1):
        coords[Terminal("c", j)] = (near, (j - 1) * pitch + half)
        coords[Terminal("d", j)] = (far, (j - 1) * pitch + half)
    # depth of the deepest leaf of a balanced tree on N leaves; a node at
    # depth d sits d / levels of the way from its terminal to the leaf level
    levels = (N - 1).bit_length()

    # (terminal, leaves in boundary order, outward) per fan: a_i fans out into
    # the bottom row of grid (i, 1), c_j into the left column of grid (1, j);
    # b_i and d_j collect the top row of (i, k) and the right column of (k, j)
    ks, ells = range(1, k + 1), range(1, N + 1)
    fans = (
        [(Terminal("a", i), [head[i, 1, ell, 1] for ell in ells], True) for i in ks]
        + [(Terminal("b", i), [tail[i, k, ell, N] for ell in ells], False) for i in ks]
        + [(Terminal("c", j), [head[1, j, 1, ell] for ell in ells], True) for j in ks]
        + [(Terminal("d", j), [tail[k, j, N, ell] for ell in ells], False) for j in ks]
    )
    fan_edges: list[tuple[Label, Label]] = []
    for root, leaves, outward in fans:
        if not trees:
            fan_edges += [(root, v) if outward else (v, root) for v in leaves]
            continue
        # the leaves line up along x for a/b (axis 0), along y for c/d; in
        # quarter units the split copies nearest the terminal sit 7 further in
        axis = 0 if root.family in ("a", "b") else 1
        s_root, step = (4 * near, 7) if outward else (4 * far, -7)

        def grow(lo: int, hi: int, path: tuple[int, ...]) -> Label:
            if hi - lo == 1:
                return leaves[lo]
            node = TreeNode(root.family, root.index, path) if path else root
            if path:
                s = Fraction(s_root * levels + step * len(path), 4 * levels)
                t = Fraction(coords[leaves[lo]][axis] + coords[leaves[hi - 1]][axis], 2)
                coords[node] = (t, s) if axis == 0 else (s, t)
            mid = _tree_split(lo, hi)
            for bit, (clo, chi) in enumerate(((lo, mid), (mid, hi))):
                child = grow(clo, chi, path + (bit,))
                fan_edges.append((node, child) if outward else (child, node))
            return node

        grow(0, N, ())

    tail_edges = dotted + fan_edges if trees else fan_edges + dotted
    return EmbeddedDigraph(coords, edges + tail_edges, coords)


def _tree_split(lo: int, hi: int) -> int:
    """Where a fan tree splits leaves [lo, hi): the larger half goes left."""
    return lo + (hi - lo + 1) // 2


def _fan_route(out: ReductionOutput, terminal: Terminal, ell: int) -> list[TreeNode]:
    """The tree nodes between ``terminal`` and its fan's leaf ``ell``, root first.

    Empty when ``out`` is not degree-reduced (the fan edge is direct).
    """
    if not out.degree_reduced:
        return []
    lo, hi, path = 0, out.provenance.N, ()
    chain = []
    while True:
        mid = _tree_split(lo, hi)
        bit = int(ell > mid)
        lo, hi = (mid, hi) if bit else (lo, mid)
        path += (bit,)
        if hi - lo == 1:
            return chain
        chain.append(TreeNode(terminal.family, terminal.index, path))


def predicted_counts(inst: GridTilingInstance, degree_reduced: bool = False) -> GraphCounts:
    """Exact closed-form vertex and edge counts for the reduction output."""
    k, n = inst.k, inst.N
    missing = sum(n * n - len(inst.sets[cell]) for cell in inst.cells())
    num_verts = 4 * k + 2 * k * (k - 1) * n + k * k * n * n + missing
    num_edges = (
        2 * k * k * n * (n - 1)
        + missing
        + 2 * k * (k - 1) * (3 * n - 1)
        + 4 * k * n
    )
    if degree_reduced:
        # each of the 4k fans becomes a full binary tree: N-2 fresh internal
        # nodes and (2N-2) - N extra edges
        num_verts += 4 * k * (n - 2)
        num_edges += 4 * k * (n - 2)
    return GraphCounts(vertices=num_verts, edges=num_edges)


def reduce(inst: GridTilingInstance) -> ReductionOutput:
    """Full reduction: build the split graph and attach terminal pairs."""
    return _derive(_valid(inst))


def grid_vertex_parts(
    g: EmbeddedDigraph, i: int, j: int, q: int, ell: int
) -> tuple[GridVertex, GridVertex]:
    """(entry, exit) labels at a grid position: equal when whole, (lb, tr) when split."""
    whole = GridVertex(i, j, q, ell, WHOLE)
    if whole in g:
        return whole, whole
    lb = GridVertex(i, j, q, ell, LB)
    tr = GridVertex(i, j, q, ell, TR)
    if lb in g and tr in g:
        return lb, tr
    raise ValueError(f"no grid vertex at cell ({i},{j}) position ({q},{ell})")


def boundary(out: ReductionOutput, i: int, j: int, side: str) -> list:
    """The N boundary vertices of grid (i, j) on ``side``, in ell order.

    Split positions contribute the lb copy on the left/bottom sides and the
    tr copy on the right/top sides; whole positions contribute the single
    vertex either way.
    """
    g = out.graph
    k, n = out.provenance.k, out.provenance.N
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"grid index ({i},{j}) out of range for k={k}")
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    result = []
    for ell in range(1, n + 1):
        if side == "left":
            result.append(grid_vertex_parts(g, i, j, 1, ell)[0])
        elif side == "right":
            result.append(grid_vertex_parts(g, i, j, n, ell)[1])
        elif side == "top":
            result.append(grid_vertex_parts(g, i, j, ell, n)[1])
        else:
            result.append(grid_vertex_parts(g, i, j, ell, 1)[0])
    return result


def level_set(out: ReductionOutput, kind: str, index: int) -> set:
    """The horizontal (row) or vertical (column) stratum of the gadget.

    Horizontal(j) holds c_j, d_j, every vertex of the grids (i, j), the
    horizontal connectors at row j, and any fan-tree nodes of c_j/d_j;
    Vertical(i) is the column analogue for a_i, b_i.
    """
    k = out.provenance.k
    if kind not in ("horizontal", "vertical"):
        raise ValueError(f"kind must be 'horizontal' or 'vertical', got {kind!r}")
    if not (1 <= index <= k):
        raise ValueError(f"index {index} out of range for k={k}")
    return {v for v in out.graph.vertices if _in_level(v, kind, index)}


def _in_level(v: Label, kind: str, index: int) -> bool:
    """Whether label ``v`` belongs to stratum ``kind`` ``index`` (see level_set)."""
    horizontal = kind == "horizontal"
    if isinstance(v, (GridVertex, HConnector if horizontal else VConnector)):
        return (v.j if horizontal else v.i) == index
    if isinstance(v, (Terminal, TreeNode)):
        return v.index == index and v.family in (("c", "d") if horizontal else ("a", "b"))
    return False


def reduce_degree(out: ReductionOutput) -> ReductionOutput:
    """Replace every terminal fan with a balanced directed binary tree.

    Source fans become trees with edges directed away from the terminal
    root; sink fans the mirror image.  Leaves attach in boundary order and
    internal nodes sit at the midpoints of their leaf span within the fan
    region, which keeps the rotation system planar.  The result has maximum
    in-degree and out-degree 2 and the same feasibility answer.  The whole
    output is derived anew from ``out.provenance``.
    """
    if out.degree_reduced:
        raise AlreadyReducedError("degree reduction was already applied")
    return _derive(out.provenance, degree_reduced=True)
