"""Independent brute-force oracles used to cross-check the solvers.

These deliberately share no code with the package's search routines: the
grid tiling oracle enumerates full assignment products, and the two path
oracles enumerate every tuple of simple paths.  The rotation oracle sorts
each vertex's neighbours with a comparator over Fraction directions, as the
package did before it derived rotations from integer keys, and the face
oracle traces faces over those rotations with darts keyed by label pairs.
The package keeps no per-vertex rotation query, since only its genus check
reads the rotations; ``rotations_from_runs`` reads them from the dart runs
that check traces, for the tests to compare with the oracle.
The reference builder makes a reduction's whole graph in one pass, as the
package did before it cached the parts that depend only on (k, N).  It and
the reference forward map read the gadget's layout from their own copies of
the package's old rules: ``_split`` (a position's labels from its cell's
set), ``_boundary`` (a side's positions through a callable), ``_tree_split``
and ``_fan_route`` (a fan tree's nodes above a leaf, by replaying the
split).  The package keeps the layout its builder made instead, so the two
share no layout rule.

The cone sizes (descendants of a pair's source that are ancestors of its
target) come from two breadth-first searches per pair, and give the pair
order that the solvers route in.

Vertex-disjoint paths live only here, as the package has no VDP search:
the enumerating and exhaustive path oracles both take them, and the
line-graph transform from edge-disjoint to vertex-disjoint paths and the
vertex-disjoint solution checker cross-check the EDP solver against the VDP
oracle.  ``face_cycles`` and ``signed_area`` find a reduction's outer face,
on which its terminals show that VDP is "no".  Also here, since only the
tests call them: the edge and neighbourhood queries on a ``Digraph``; the
lb -> tr edge test, an oracle for the split-edge list; the grid-line
helpers; and ``to_dot_reference``, the DOT writer that checks and formats
each vertex's two floats on its own.

``bounds_refutes`` is ROADMAP item 28's grid-side rule, bounds consistency on
an instance's <= constraints, kept here until a solver uses it.
``routes_by_rule`` is ROADMAP item 21's closed form of what one cell lets
its column and row routes do, which the cell-relation test and
``tests/cell_yes_side.py`` check the reduction against.

Undirected edge-disjoint paths live only here too: ``undirected_edp_exhaustive``
tries every simple path of each pair on the underlying graph, arcs walked either
way, to show where a reduction's "no" depends on the arc directions.

The row and column paths read each grid lane through the validating
``grid_vertex_parts`` (``_grid_line``), and the reference checker and
confinement rule are the package's before they worked on vertex ids:
the tests hold the package's fast paths to them.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from typing import Callable, Iterable

from gridpaths.digraph import (
    LB,
    TR,
    WHOLE,
    Digraph,
    EmbeddedDigraph,
    GridVertex,
    HConnector,
    Label,
    NotConnectedError,
    Terminal,
    TreeNode,
    VConnector,
)
from gridpaths.edp import PathSet, _pairs, check_edp_solution
from gridpaths.errors import EmbeddingError
from gridpaths.gridtiling import GridTilingInstance, GTAssignment, check_gt_solution
from gridpaths.reduction import (
    _COLUMNS,
    _FAMILIES,
    _ROWS,
    _SIDES,
    ReductionOutput,
    _Family,
    _in_level,
    _orient,
    grid_vertex_parts,
)


def gt_solutions_exhaustive(inst: GridTilingInstance) -> list[GTAssignment]:
    """Every valid assignment, by checking the full cartesian product."""
    cells = list(inst.cells())
    pools = [sorted(inst.sets[c]) for c in cells]
    found = []
    for combo in itertools.product(*pools):
        asg = GTAssignment(dict(zip(cells, combo)))
        if check_gt_solution(inst, asg):
            found.append(asg)
    return found


def bounds_refutes(inst: GridTilingInstance) -> bool:
    """Whether bounds propagation empties a cell, a proof that the instance has no solution.

    A pair (a, b) leaves its cell when b is below the least b of the left
    neighbour or above the greatest b of the right one, or a is below the
    least a of the lower neighbour or above the greatest a of the upper
    one; the rule repeats until no pair leaves.
    """
    sets = {cell: set(inst.sets.get(cell, ())) for cell in inst.cells()}
    if not all(sets.values()):
        return True
    inf = float("inf")
    least = lambda cell, c: min(p[c] for p in sets[cell]) if cell in sets else -inf
    most = lambda cell, c: max(p[c] for p in sets[cell]) if cell in sets else inf
    changed = True
    while changed:
        changed = False
        for (x, y), pairs in sets.items():
            lo_a, hi_a = least((x, y - 1), 0), most((x, y + 1), 0)
            lo_b, hi_b = least((x - 1, y), 1), most((x + 1, y), 1)
            kept = {(a, b) for a, b in pairs if lo_a <= a <= hi_a and lo_b <= b <= hi_b}
            if not kept:
                return True
            if kept != pairs:
                sets[x, y], changed = kept, True
    return False


def routes_by_rule(cells: set, n: int, a: int, b: int, c: int, d: int) -> bool:
    """ROADMAP item 21's finding 2: a cell's column and row routes exist iff some (x, y) in its set admits them.

    ``cells`` is the cell's set S in [n]^2; the column route enters at bottom
    position a and leaves at top position b, the row route enters at left
    position c and leaves at right position d, all 1-based.
    """
    return any(
        a <= x <= b and c <= y <= d
        and (x != 1 or c == y) and (y != 1 or a == x) and (x != n or d == y) and (y != n or b == x)
        # the corner clauses: as (x, y) is in S, "(x, y) = (1, 1) or (1, 1) in S" is "(1, 1) in S"; so at (N, N)
        and ((a, c) != (1, 1) or (1, 1) in cells) and ((b, d) != (n, n) or (n, n) in cells)
        for x, y in cells
    )


def iter_all_paths(g: Digraph, s, t):
    """All simple directed s -> t paths; terminates because g must be a DAG."""
    if s == t:
        yield [s]
        return

    def walk(v, trail):
        if v == t:
            yield list(trail)
            return
        for w in g.out(v):
            trail.append(w)
            yield from walk(w, trail)
            trail.pop()

    yield from walk(s, [s])


def edp_feasible_exhaustive(g: Digraph, pairs) -> bool:
    """Try every tuple of candidate paths for pairwise edge-disjointness."""
    pools = [list(iter_all_paths(g, s, t)) for s, t in pairs]
    for combo in itertools.product(*pools):
        used = set()
        ok = True
        for path in combo:
            for edge in zip(path, path[1:]):
                if edge in used:
                    ok = False
                    break
                used.add(edge)
            if not ok:
                break
        if ok:
            return True
    return False


def vdp_feasible_exhaustive(g: Digraph, pairs) -> bool:
    """Try every tuple of candidate paths for pairwise vertex-disjointness."""
    pools = [list(iter_all_paths(g, s, t)) for s, t in pairs]
    for combo in itertools.product(*pools):
        used = set()
        ok = True
        for path in combo:
            if used.intersection(path):
                ok = False
                break
            used.update(path)
        if ok:
            return True
    return False


def undirected_edp_exhaustive(g: Digraph, pairs) -> list[list] | None:
    """Edge-disjoint paths on the underlying undirected graph: one per pair, in pair order, or None.

    Each path is simple and may walk an arc against its direction; each edge, in either direction,
    is used by one path at most.  Every simple path of each pair is tried, so a None is exhaustive.
    """
    around = {v: [*g.out(v), *g.inn(v)] for v in g.vertices}
    used: set[frozenset] = set()
    found: list[list] = []

    def route(i: int) -> bool:
        if i == len(pairs):
            return True
        source, target = pairs[i]
        trail = [source]

        def walk(v) -> bool:
            if v == target:
                found.append(list(trail))
                if route(i + 1):
                    return True
                found.pop()
                return False
            for w in around[v]:
                edge = frozenset((v, w))
                if edge not in used and w not in trail:
                    used.add(edge)
                    trail.append(w)
                    if walk(w):
                        return True
                    trail.pop()
                    used.remove(edge)
            return False

        return walk(source)

    return found if route(0) else None


def random_dag(seed: int, max_vertices: int = 12) -> tuple[Digraph, list[tuple]]:
    """Small random DAG with two terminal pairs on distinct vertices."""
    rng = random.Random(seed)
    n = rng.randint(5, max_vertices)
    names = [f"n{i}" for i in range(n)]
    p = rng.choice((0.2, 0.3, 0.45))
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    pairs = [(names[0], names[n - 1]), (names[1], names[n - 2])]
    return Digraph(names, edges), pairs


def _angle_half(dx, dy) -> int:
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


def rotations_by_comparison(g: EmbeddedDigraph) -> dict:
    """Each vertex's neighbours in counterclockwise order from +x.

    Sorts the Fraction directions from ``g.coords`` with a pairwise
    comparator; raises EmbeddingError when two neighbours lie on one ray
    (a comparison sort must compare every two neighbours it places
    side by side, so it meets every such pair).
    """
    coords = g.coords
    result = {}
    for v in g.vertices:
        vx, vy = coords[v]
        dirs = [(coords[u][0] - vx, coords[u][1] - vy, u) for u in g.out(v) + g.inn(v)]
        dirs.sort(key=cmp_to_key(_ccw_compare))
        result[v] = tuple(u for _, _, u in dirs)
    return result


def rotations_from_runs(g: EmbeddedDigraph) -> dict:
    """The package's rotation system: each vertex's neighbours, the far ends of its run of darts in ``g._runs()``.

    Not an oracle but the reader that the tests compare with one; raises what
    ``_runs`` raises for two neighbours of a vertex on one ray.
    """
    order, start = g._runs()
    ends = (g._head, g._tail)  # the far end of dart d
    return {
        v: tuple(g._verts[ends[d & 1][d >> 1]] for d in order[start[n] : start[n + 1]])
        for n, v in enumerate(g._verts)
    }


def faces_by_tracing(g: EmbeddedDigraph) -> tuple[int, int]:
    """(faces, genus) of the rotation system that ``rotations_by_comparison`` gives.

    Works on labels only, tracing the faces with ``face_cycles``.  Raises
    NotConnectedError for an empty or disconnected graph, as Euler's formula
    needs a connected one, and otherwise EmbeddingError when two neighbours
    of a vertex lie on one ray.
    """
    verts = g.vertices
    if not verts:
        raise NotConnectedError("empty graph")
    reached, todo = {verts[0]}, [verts[0]]
    while todo:
        v = todo.pop()
        for u in g.out(v) + g.inn(v):
            if u not in reached:
                reached.add(u)
                todo.append(u)
    if len(reached) < len(verts):
        raise NotConnectedError("disconnected graph")
    faces = max(len(face_cycles(g)), 1)  # a single vertex: one face, no darts
    return faces, (2 - (len(verts) - len(g.edges) + faces)) // 2


def face_cycles(g: EmbeddedDigraph) -> list[list[Label]]:
    """The faces of the rotation system that ``rotations_by_comparison`` gives, each the vertices its darts leave, in order.

    A dart is a (from, to) pair of neighbours, and the face after dart
    (u, v) leaves v towards the neighbour that follows u around v.
    """
    after = {}
    for v, around in rotations_by_comparison(g).items():
        for u, w in zip(around, around[1:] + around[:1]):
            after[u, v] = (v, w)
    faces, seen = [], set()
    for dart in after:
        face = []
        while dart not in seen:
            seen.add(dart)
            face.append(dart[0])
            dart = after[dart]
        if face:
            faces.append(face)
    return faces


def signed_area(cycle: list[Label], coords) -> Fraction:
    """The shoelace area of the closed polygon through ``cycle``'s points, positive when counterclockwise."""
    points = [coords[v] for v in cycle]
    return sum((x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])), Fraction()) / 2


def enumerate_routes(g: Digraph, pairs, vertex_disjoint: bool) -> tuple[list[list] | None, int]:
    """(paths or None, expansions) of a plain enumerating backtracker.

    Routes the pairs in order, trying each vertex's out-edges in edge order
    and entering only vertices that reach the pair's target; an arc taken
    is one expansion.  At each target it checks every remaining pair with a
    breadth-first search of the residual graph and backtracks if one has no
    route.  A resource is an edge, or in vertex-disjoint mode a vertex
    (each path's start vertex included), and no two paths share one.  It
    walks every subtree, futile or not, so its count is the one the
    package's search must report without walking them.
    """
    out = {v: [] for v in g.vertices}
    into = {v: [] for v in g.vertices}
    for e, (u, v) in enumerate(g.edges):
        out[u].append((e, v))
        into[v].append(u)

    def ancestors(t) -> set:
        found, todo = {t}, [t]
        while todo:
            for u in into[todo.pop()]:
                if u not in found:
                    found.add(u)
                    todo.append(u)
        return found

    anc = [ancestors(t) for _, t in pairs]
    used = set()
    expansions = 0

    def free(e, w) -> bool:
        return (w if vertex_disjoint else e) not in used

    def has_route(s, t) -> bool:
        if vertex_disjoint and s in used:
            return False
        frontier, reached = deque([s]), {s}
        while frontier:
            v = frontier.popleft()
            if v == t:
                return True
            for e, w in out[v]:
                if w not in reached and free(e, w):
                    reached.add(w)
                    frontier.append(w)
        return False

    def route(i):
        if i == len(pairs):
            return []
        s = pairs[i][0]
        if not vertex_disjoint:
            return walk(i, [s])
        used.add(s)
        found = walk(i, [s])
        used.discard(s)
        return found

    def walk(i, path):
        nonlocal expansions
        v = path[-1]
        if v == pairs[i][1]:
            if not all(has_route(s, t) for s, t in pairs[i + 1 :]):
                return None
            rest = route(i + 1)
            return None if rest is None else [list(path)] + rest
        for e, w in out[v]:
            if not free(e, w) or w not in anc[i]:
                continue
            expansions += 1
            r = w if vertex_disjoint else e
            used.add(r)
            path.append(w)
            found = walk(i, path)
            path.pop()
            used.discard(r)
            if found is not None:
                return found
        return None

    if not all(has_route(s, t) for s, t in pairs):
        return None, 0
    return route(0), expansions


def pair_game_plain(g: Digraph, pair_i, pair_j, dom_i: set, dom_j: set) -> tuple[bool, set, set]:
    """(won, the arcs of ``dom_i`` on a winning line, those of ``dom_j``) of two pairs' game, played plainly.

    Fortune, Hopcroft and Wyllie's game over arc domains, sets of (tail,
    head) label pairs: a state is the two tokens' vertices, None once a
    token is home.  The token on the topologically lower vertex moves
    along an arc of its domain, a home token counting as past every
    vertex, and two tokens on one vertex leave it by two distinct arcs.
    Every state reachable from the sources is valued, the last first, and
    a winning line is a move sequence from the start through won states to
    both tokens home.
    """
    order, _ = g.topological_sort()
    rank = {v: p for p, v in enumerate(order)}
    rank[None] = len(order)
    (si, ti), (sj, tj) = pair_i, pair_j
    out_i = {v: [(v, w) for w in g.out(v) if (v, w) in dom_i] for v in order}
    out_j = {v: [(v, w) for w in g.out(v) if (v, w) in dom_j] for v in order}

    def moves(x, y) -> list:
        # (next state, arc of i or None, arc of j or None)
        if rank[x] < rank[y]:
            return [((None if a[1] == ti else a[1], y), a, None) for a in out_i[x]]
        if rank[y] < rank[x]:
            return [((x, None if b[1] == tj else b[1]), None, b) for b in out_j[y]]
        if x is None:
            return []
        return [
            ((None if a[1] == ti else a[1], None if b[1] == tj else b[1]), a, b)
            for a in out_i[x]
            for b in out_j[x]
            if a != b
        ]

    start = (None if si == ti else si, None if sj == tj else sj)
    found, todo = {start: moves(*start)}, [start]
    while todo:
        for nxt, _, _ in found[todo.pop()]:
            if nxt not in found:
                found[nxt] = moves(*nxt)
                todo.append(nxt)
    won = {(None, None): True}
    for state in sorted(found, key=lambda st: rank[st[0]] + rank[st[1]], reverse=True):
        won[state] = won.get(state, False) or any(won[nxt] for nxt, _, _ in found[state])
    kept_i, kept_j = set(), set()
    if won[start]:
        seen, todo = {start}, [start]
        while todo:
            for nxt, a, b in found[todo.pop()]:
                if won[nxt]:
                    kept_i.add(a)
                    kept_j.add(b)
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
    return won[start], kept_i - {None}, kept_j - {None}


def cone_sizes(g: Digraph, pairs) -> list[int]:
    """Per pair, how many vertices its source reaches that also reach its target.

    Two breadth-first searches per pair, one along the edges from the
    source and one against them from the target; a vertex reaches itself.
    """

    def closure(v, step) -> set:
        found, frontier = {v}, deque([v])
        while frontier:
            for w in step(frontier.popleft()):
                if w not in found:
                    found.add(w)
                    frontier.append(w)
        return found

    return [len(closure(s, g.out) & closure(t, g.inn)) for s, t in pairs]


def cone_first_order(g: Digraph, pairs) -> list[int]:
    """The pair indices in the solvers' routing order: the largest cone first, the earliest on ties, then the rest as given."""
    sizes = cone_sizes(g, pairs)
    first = sizes.index(max(sizes))
    return [first] + [i for i in range(len(pairs)) if i != first]


def _split(sets: dict, i: int, j: int, q: int, ell: int) -> tuple[GridVertex, GridVertex]:
    """(entry, exit) at a grid position: (v, v) if (q, ell) is in the cell's set, else (lb, tr)."""
    if (q, ell) in sets[(i, j)]:
        v = GridVertex(i, j, q, ell)
        return v, v
    return GridVertex(i, j, q, ell, LB), GridVertex(i, j, q, ell, TR)


def _boundary(parts: Callable, n: int, i: int, j: int, side: str) -> list[GridVertex]:
    """Grid (i, j)'s N vertices on ``side``; ``parts`` maps (i, j, q, ell) to (entry, exit)."""
    fam, end = _SIDES[side]
    return [parts((i, j, *_orient(fam, ell, (1, n)[end])))[end] for ell in range(1, n + 1)]


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


def build_reference(k: int, N: int, sets: dict, trees: bool = False) -> EmbeddedDigraph:
    """The base graph with each grid position split or whole, in one pass, on vertex ids.

    ``reduction._build`` as it was before it took all but the grid positions
    from a cache: every vertex, coordinate and edge made for this instance.

    A position whose (q, ell) is absent from its cell's set becomes an lb copy
    at offset (-1/4, -1/4) and a tr copy at (+1/4, +1/4), joined by the
    dotted lb -> tr edge; edges arrive at lb and leave from tr.  With
    ``trees`` each terminal's fan is a balanced binary tree instead.

    Ids are handed out in order: grid positions by (i, j, q, ell), lb before
    tr, the connector chains (the rows' first), the terminals, the tree
    nodes (pre-order).  Edges: grid, connector, then fan and dotted edges, or
    with trees dotted and tree edges.  Coordinates are numerators over 4, or
    8 * levels with trees, which the graph keeps as they are.
    """
    pitch = N + 1
    ks, ells = range(1, k + 1), range(1, N + 1)
    # depth of the deepest leaf of a balanced tree on N leaves; a node at
    # depth d sits d / levels of the way from its terminal to the leaf level
    levels = (N - 1).bit_length()
    den = 8 * levels if trees else 4
    quarter = den // 4
    verts: list[Label] = []
    xy: list[int] = []  # x then y for each vertex
    # the ids that grid position p = (((i-1)k + j-1)N + q-1)N + ell-1 receives
    # its edges at and sends them from: one id if whole, the lb and tr ids if split
    entry: list[int] = []
    exit_: list[int] = []
    for pos in product(ks, ks, ells, ells):
        i, j, q, ell = pos
        x, y = ((i - 1) * pitch + q) * den, ((j - 1) * pitch + ell) * den
        copies = _split(sets, *pos)
        entry.append(len(verts))
        if copies[0] is copies[1]:
            verts.append(copies[0])
            xy += x, y
        else:
            verts += copies
            xy += x - quarter, y - quarter, x + quarter, y + quarter
        exit_.append(len(verts) - 1)

    def parts(pos: tuple[int, int, int, int]) -> tuple[int, int]:
        i, j, q, ell = pos
        p = (((i - 1) * k + j - 1) * N + q - 1) * N + ell - 1
        return entry[p], exit_[p]

    # each grid's edges one step along the columns' paths, then the rows',
    # a run of positions with one q at a time
    tail: list[int] = []
    head: list[int] = []
    for base in range(0, k * k * N * N, N * N):
        for fam in _FAMILIES:
            dq, dl = _orient(fam, 0, 1)
            for r in range(base, base + (N - dq) * N, N):
                tail += exit_[r : r + N - dl]
                head += entry[r + dq * N + dl : r + dq * N + N]

    # a connector chain collects the exit side of grid (i, j) and feeds the entry
    # side of the next grid along the family's paths; the rows' chains come first
    for fam in reversed(_FAMILIES):
        di, dj = _orient(fam, 0, 1)
        for i, j in product(range(1, k + 1 - di), range(1, k + 1 - dj)):
            lane, step = _orient(fam, i, j)
            chain = range(len(verts), len(verts) + N)
            verts += [fam.connector(i, j, ell) for ell in ells]
            xy += [c for ell in ells for c in _orient(fam, ((lane - 1) * pitch + ell) * den, step * pitch * den)]
            tail += [*chain[:-1], *_boundary(parts, N, i, j, fam.sides[1]), *chain]
            head += [*chain[1:], *chain, *_boundary(parts, N, i + di, j + dj, fam.sides[0])]

    # Terminals sit ``depth`` units outside the grids' bounding box, a fan
    # tree's internal nodes on evenly spaced levels between the terminal and
    # the split copies nearest it (a quarter outside the outermost grid line).
    # A direct fan edge to a leaf a units across from its terminal runs
    # depth + 1 units deep, so it moves a / (4 (depth + 1)) across in the
    # last quarter unit before the leaf, where the grid edge between the
    # leaf and the split copy of its neighbour nearer the terminal moves 3/4.
    # The fan edge stays on its own side of that grid edge only while
    # a < 3 (depth + 1), for every a up to (N - 1) / 2: depth 1 fails from
    # N = 13 on.  depth = ceil(N / 4) keeps a / (depth + 1) below 2 at every N.
    depth = -(-N // 4)
    outside = (-depth * den, (k * pitch + depth) * den)
    inward = (4 * depth + 3) * quarter  # depth + 3/4, from a terminal to the split copies nearest it
    roots = {}
    for fam, m in product(_FAMILIES, ks):
        for end, family in enumerate(fam.terminals):
            roots[family, m] = len(verts)
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
            leaves = _boundary(parts, N, *_orient(fam, m, (1, k)[end]), side)
            if not trees:
                fan[end].extend([root] * N)
                fan[1 - end].extend(leaves)
                continue

            def grow(lo: int, hi: int, path: tuple[int, ...]) -> int:
                if hi - lo == 1:
                    return leaves[lo]
                node = len(verts) if path else root
                if path:
                    verts.append(TreeNode(family, m, path))
                    t = (xy[2 * leaves[lo] + fam.axis] + xy[2 * leaves[hi - 1] + fam.axis]) // 2
                    xy.extend(_orient(fam, t, outside[end] + (inward, -inward)[end] * len(path) // levels))
                mid = _tree_split(lo, hi)
                for bit, (clo, chi) in enumerate(((lo, mid), (mid, hi))):
                    child = grow(clo, chi, path + (bit,))
                    fan[end].append(node)
                    fan[1 - end].append(child)
                return node

            grow(0, N, ())

    dotted = [n for n, x in zip(entry, exit_) if n != x]
    split = (dotted, [n + 1 for n in dotted])  # a tr copy follows its lb copy
    first, last = (split, fan) if trees else (fan, split)
    g = EmbeddedDigraph.__new__(EmbeddedDigraph)
    g._init(verts, tail + first[0] + last[0], head + first[1] + last[1], xy, den)
    return g


# the transpose tau trades the columns' terminal families for the rows'
_TRANSPOSED_FAMILY = {"a": "c", "b": "d", "c": "a", "d": "b"}


def transpose_instance(inst: GridTilingInstance) -> GridTilingInstance:
    """tau on an instance: cell (x, y) -> (y, x), pair (a, b) -> (b, a)."""
    sets = {(y, x): {(b, a) for a, b in pairs} for (x, y), pairs in inst.sets.items()}
    return GridTilingInstance(inst.k, inst.N, sets)


def rotate_instance(inst: GridTilingInstance) -> GridTilingInstance:
    """rho on an instance, a half turn: cell (x, y) -> (k+1-x, k+1-y), pair (a, b) -> (N+1-a, N+1-b)."""
    k1, n1 = inst.k + 1, inst.N + 1
    sets = {(k1 - x, k1 - y): {(n1 - a, n1 - b) for a, b in pairs} for (x, y), pairs in inst.sets.items()}
    return GridTilingInstance(inst.k, inst.N, sets)


def transpose_label(v: Label) -> Label:
    """tau on a label of a reduction: its label in the reduction of the transposed instance.

    A grid position (i, j, q, ell) goes to (j, i, ell, q) with its part, a row
    connector to the column connector with (i, j) swapped and back, and a
    terminal or tree node to the other family's: a <-> c, b <-> d.
    """
    if isinstance(v, GridVertex):
        return GridVertex(v.j, v.i, v.ell, v.q, v.part)
    if isinstance(v, HConnector):
        return VConnector(v.j, v.i, v.ell)
    if isinstance(v, VConnector):
        return HConnector(v.j, v.i, v.ell)
    if isinstance(v, Terminal):
        return Terminal(_TRANSPOSED_FAMILY[v.family], v.index)
    return TreeNode(_TRANSPOSED_FAMILY[v.family], v.index, v.path)


# the half turn rho trades each family's sources for its sinks, and lb copies for tr copies
_ROTATED_FAMILY = {"a": "b", "b": "a", "c": "d", "d": "c"}
_ROTATED_PART = {LB: TR, TR: LB, WHOLE: WHOLE}


def rotate_label(v: Label, k: int, n: int) -> Label:
    """rho on a label of a (k, n) reduction: its label in the reduction of the rotated instance.

    Every cell, lane, chain position and terminal index is turned around: grid
    position (i, j, q, ell) goes to (k+1-i, k+1-j, n+1-q, n+1-ell) with lb and tr
    swapped, the chain from cell i to i+1 to the one from k-i to k+1-i, terminal
    a_m to b_{k+1-m} and c_m to d_{k+1-m}, and a tree node to the other tree's
    node with every child choice flipped.
    """
    k1, n1 = k + 1, n + 1
    if isinstance(v, GridVertex):
        return GridVertex(k1 - v.i, k1 - v.j, n1 - v.q, n1 - v.ell, _ROTATED_PART[v.part])
    if isinstance(v, HConnector):
        return HConnector(k - v.i, k1 - v.j, n1 - v.ell)
    if isinstance(v, VConnector):
        return VConnector(k1 - v.i, k - v.j, n1 - v.ell)
    if isinstance(v, Terminal):
        return Terminal(_ROTATED_FAMILY[v.family], k1 - v.index)
    return TreeNode(_ROTATED_FAMILY[v.family], k1 - v.index, tuple(1 - bit for bit in v.path))


def has_edge(g: Digraph, u: Label, v: Label) -> bool:
    return u in g and v in g and g._id[v] in [g._head[e] for e in g._out[g._id[u]]]


def _outside(g: Digraph, subset: Iterable[Label], incident: list[list[int]], far: list[int]) -> set:
    s = set(subset)
    missing = s - g._id.keys()
    if missing:
        raise ValueError(f"subset contains unknown vertices: {sorted(map(repr, missing))}")
    ids = {g._id[v] for v in s}
    return {g._verts[far[e]] for n in ids for e in incident[n] if far[e] not in ids}


def out_neighbors(g: Digraph, subset: Iterable[Label]) -> set:
    """Vertices outside ``subset`` receiving an edge from it."""
    return _outside(g, subset, g._out, g._head)


def in_neighbors(g: Digraph, subset: Iterable[Label]) -> set:
    """Vertices outside ``subset`` sending an edge into it."""
    return _outside(g, subset, g._in, g._tail)


def is_dotted_edge(u: Label, v: Label) -> bool:
    """True for the lb -> tr edge joining the two copies of a split vertex."""
    # ("grid", i, j, q, ell, part): v is u with the part tr in place of lb
    return isinstance(u, GridVertex) and u[-1] == LB and isinstance(v, GridVertex) and v == u[:-1] + (TR,)


def to_dot_reference(g: EmbeddedDigraph) -> str:
    """``EmbeddedDigraph.to_dot`` as it was before it made each distinct numerator's float once.

    Two floats per vertex, each vertex checked against the float points before it, and one line
    appended at a time.
    """
    # first: the first vertex at each float point; every graph's labels read back, so names differ
    names, den, first = g._vertex_names(), g._den, {}
    lines = ["digraph reduction {"]
    for v, name, x, y in zip(g._verts, names, g._x, g._y):
        try:  # int / int is correctly rounded: the same float as float(Fraction)
            x, y = point = x / den, y / den
        except OverflowError:
            raise ValueError(f"coordinate of {v!r} is outside the float range") from None
        if first.setdefault(point, v) is not v:  # distinct rationals, one float point
            raise ValueError(f"coordinates of {first[point]!r} and {v!r} round to one float position {x},{y}")
        lines.append(f'  "{name}" [pos="{x},{y}!"];')
    dotted = set(g._split_edges())
    for e, (a, b) in enumerate(zip(g._tail, g._head)):
        attr = " [style=dotted]" if e in dotted else ""
        lines.append(f'  "{names[a]}" -> "{names[b]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _grid_line(out: ReductionOutput, fam: _Family, i: int, j: int, lane: int) -> list:
    """Lane ``lane`` of grid (i, j) along the family's paths, entering and leaving each position.

    It reads each position through the public, validating ``grid_vertex_parts``.
    """
    verts: list[Label] = []
    # grid_vertex_parts rejects a lane or cell out of range
    for s in range(1, out.provenance.N + 1):
        # a whole position's entry is its exit: keep one of them
        verts += dict.fromkeys(grid_vertex_parts(out, i, j, *_orient(fam, lane, s)))
    return verts


def row_path(out: ReductionOutput, i: int, j: int, ell: int) -> list:
    """Left-to-right path across row ell of grid (i, j).

    Runs from the lb copy in column 1 to the tr copy in column N, taking the
    dotted edge at every split position and passing straight through whole
    vertices.
    """
    return _grid_line(out, _ROWS, i, j, ell)


def column_path(out: ReductionOutput, i: int, j: int, ell: int) -> list:
    """Bottom-to-top path up column ell of grid (i, j); mirror of row_path."""
    return _grid_line(out, _COLUMNS, i, j, ell)


def gt_solution_to_paths_reference(out: ReductionOutput, asg: GTAssignment) -> PathSet:
    """``mappers.gt_solution_to_paths`` with its labels made from the instance by ``_split`` and ``_fan_route``."""
    ks = range(1, out.provenance.k + 1)
    paths: list[list[Label]] = []
    for fam, m in product(_FAMILIES, ks):
        cells = [_orient(fam, m, n) for n in ks]
        lanes = [asg.choice[cell][fam.axis] for cell in cells]
        source, sink = (Terminal(family, m) for family in fam.terminals)
        path = [source] + _fan_route(out, source, lanes[0])
        for n, cell in enumerate(cells):
            for step in range(1, out.provenance.N + 1):  # a whole position's entry is its exit
                path += dict.fromkeys(_split(out.provenance.sets, *cell, *_orient(fam, lanes[n], step)))
            if n + 1 < len(cells):
                path += [fam.connector(*cell, ell) for ell in range(lanes[n], lanes[n + 1] + 1)]
        paths.append(path + _fan_route(out, sink, lanes[-1])[::-1] + [sink])
    return PathSet(paths)


def level_confined_reference(out: ReductionOutput, ps: PathSet) -> bool:
    """``mappers.check_level_confinement``'s rule, tested one label at a time."""
    k, g = out.provenance.k, out.graph
    for idx, path in enumerate(ps.paths):
        fam, index = _FAMILIES[idx // k], idx % k + 1
        if len(path) > 1 and not all(v in g and _in_level(g._verts[g._id[v]], fam, index) for v in path):
            return False
    return True


def check_edp_solution_reference(g: Digraph, terminals, ps: PathSet) -> list[str]:
    """``edp.check_edp_solution`` before its fast path: every path set goes through the message loop."""
    pairs = _pairs(terminals)
    violations = []
    if len(ps.paths) != len(pairs):
        return [f"expected {len(pairs)} paths, got {len(ps.paths)}"]
    ids, edges = dict(g._id), set(zip(g._tail, g._head))
    id_paths = [[ids.setdefault(v, len(ids)) for v in path] for path in ps.paths]
    for idx, (path, nums, (s, t)) in enumerate(zip(ps.paths, id_paths, pairs)):
        if not path:
            violations.append(f"path {idx} is empty")
            continue
        if path[0] != s:
            violations.append(f"path {idx} starts at {path[0]!r}, expected {s!r}")
        if path[-1] != t:
            violations.append(f"path {idx} ends at {path[-1]!r}, expected {t!r}")
        if len(path) == 1 and path[0] not in g._id:
            violations.append(f"path {idx} uses vertex {path[0]!r}, which is not in the graph")
        seen = set()
        for n, edge in enumerate(zip(nums, nums[1:])):
            if edge not in edges:
                violations.append(f"path {idx} uses missing edge ({path[n]!r}, {path[n + 1]!r})")
            elif edge in seen:
                violations.append(f"path {idx} repeats edge ({path[n]!r}, {path[n + 1]!r})")
            seen.add(edge)
    owner: dict[tuple[int, int], int] = {}
    for idx, (path, nums) in enumerate(zip(ps.paths, id_paths)):
        for n, edge in enumerate(zip(nums, nums[1:])):
            prev = owner.setdefault(edge, idx)
            if prev != idx:
                violations.append(
                    f"paths {prev} and {idx} share edge ({path[n]!r}, {path[n + 1]!r})"
                )
    return violations


def check_vdp_solution(g: Digraph, terminals, ps: PathSet) -> bool:
    """True iff the paths are valid and pairwise vertex-disjoint.

    Disjointness is required on all vertices, endpoints included; terminal
    pairs must therefore be pairwise distinct vertices.
    """
    if check_edp_solution(g, terminals, ps):
        return False
    seen: set[Label] = set()
    for path in ps.paths:
        for v in path:
            if v in seen:
                return False
            seen.add(v)
    return True


@dataclass(frozen=True)
class LineVertex:
    """Vertex of the line-graph transform, standing for one original edge."""

    tail: Label
    head: Label


@dataclass(frozen=True)
class PairSource:
    """Fresh super-source for terminal pair ``index`` in the transform."""

    index: int


@dataclass(frozen=True)
class PairSink:
    """Fresh super-sink for terminal pair ``index`` in the transform."""

    index: int


def edp_to_vdp_dag(g: Digraph, terminals) -> tuple[Digraph, list[tuple[Label, Label]]]:
    """Line-graph transform: edge-disjoint on g == vertex-disjoint on the result.

    One vertex per edge of g, an edge e -> f whenever head(e) = tail(f),
    plus per pair a fresh super-source adjacent to the edges leaving its
    source and a fresh super-sink fed by the edges entering its sink.
    Vertex-disjoint super-source-to-super-sink paths correspond bijectively
    to edge-disjoint original paths (a direct source -> sink edge standing
    in for a single-vertex path when a pair's endpoints coincide).
    """
    pairs = _pairs(terminals)
    verts: list[Label] = [LineVertex(u, v) for u, v in g.edges]
    edges: list[tuple[Label, Label]] = []
    for u, v in g.edges:
        for w in g.out(v):
            edges.append((LineVertex(u, v), LineVertex(v, w)))
    new_pairs: list[tuple[Label, Label]] = []
    for num, (s, t) in enumerate(pairs):
        src = PairSource(num)
        snk = PairSink(num)
        verts.append(src)
        verts.append(snk)
        for w in g.out(s):
            edges.append((src, LineVertex(s, w)))
        for u in g.inn(t):
            edges.append((LineVertex(u, t), snk))
        if s == t:
            edges.append((src, snk))
        new_pairs.append((src, snk))
    return Digraph(verts, edges), new_pairs
