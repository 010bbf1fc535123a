"""Independent brute-force oracles used to cross-check the solvers.

These deliberately share no code with the package's search routines: the
grid tiling oracle enumerates full assignment products, and the two path
oracles enumerate every tuple of simple paths.  The rotation oracle sorts
each vertex's neighbours with a comparator over Fraction directions, as the
package did before it derived rotations from integer keys, and the face
oracle traces faces over those rotations with darts keyed by label pairs.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import cmp_to_key

from gridpaths.digraph import Digraph, EmbeddedDigraph, NotConnectedError
from gridpaths.errors import EmbeddingError
from gridpaths.gridtiling import GridTilingInstance, GTAssignment, check_gt_solution


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


def faces_by_tracing(g: EmbeddedDigraph) -> tuple[int, int]:
    """(faces, genus) of the rotation system that ``rotations_by_comparison`` gives.

    Works on labels only.  A dart is a (from, to) pair of neighbours, and
    the face after dart (u, v) leaves v towards the neighbour that follows
    u around v.  Raises NotConnectedError for an empty or disconnected
    graph, as Euler's formula needs a connected one, and otherwise
    EmbeddingError when two neighbours of a vertex lie on one ray.
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
    after = {}
    for v, around in rotations_by_comparison(g).items():
        for u, w in zip(around, around[1:] + around[:1]):
            after[u, v] = (v, w)
    faces, seen = 0, set()
    for dart in after:
        if dart not in seen:
            faces += 1
            while dart not in seen:
                seen.add(dart)
                dart = after[dart]
    faces = max(faces, 1)  # a single vertex: one face, no darts
    return faces, (2 - (len(verts) - len(g.edges) + faces)) // 2


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
