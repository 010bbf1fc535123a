"""The benchmark's own checks of gridpaths outputs.

Nothing here calls a gridpaths checker or solver: the verdicts below are
what the benchmark counts, whatever the program's own ``ok`` flags say.
Instances arrive as plain data (k, N and a dict of cell -> set of pairs),
graphs as vertex and edge sequences.
"""

from __future__ import annotations


def solve_grid_tiling(k: int, sets: dict) -> dict | None:
    """A monotone assignment {cell: (a, b)}, or None when there is none.

    Cells are filled column by column (y fast), unlike the program's
    row-major backtracker, and failed frontiers are memoised.  The frontier
    before cell (x, y) is the first coordinate chosen below it in column x
    and the second coordinates of the k row neighbours to its left.
    """
    order = [(x, y) for x in range(1, k + 1) for y in range(1, k + 1)]
    cands = {cell: sorted(sets.get(cell, ()), key=lambda p: (p[0] + p[1], p)) for cell in order}
    dead: set = set()
    chosen: dict = {}

    def extend(pos: int, below_a: int, left_b: tuple) -> bool:
        if pos == len(order):
            return True
        key = (pos, below_a, left_b)
        if key in dead:
            return False
        x, y = order[pos]
        for a, b in cands[(x, y)]:
            if a < below_a or b < left_b[y - 1]:
                continue
            chosen[(x, y)] = (a, b)
            nxt_b = left_b[: y - 1] + (b,) + left_b[y:]
            if extend(pos + 1, 0 if y == k else a, nxt_b):
                return True
        dead.add(key)
        return False

    if extend(0, 0, (0,) * k):
        return dict(chosen)
    return None


def assignment_problems(k: int, sets: dict, choice: dict) -> list[str]:
    """Why ``choice`` is not a grid tiling solution; empty when it is one."""
    problems = []
    for x in range(1, k + 1):
        for y in range(1, k + 1):
            pair = choice.get((x, y))
            if pair is None:
                problems.append(f"cell {(x, y)} unassigned")
            elif tuple(pair) not in sets.get((x, y), ()):
                problems.append(f"cell {(x, y)} takes {pair}, not in its set")
    if problems:
        return problems
    for x in range(1, k + 1):
        for y in range(1, k + 1):
            a, b = choice[(x, y)]
            if x < k and b > choice[(x + 1, y)][1]:
                problems.append(f"row {y} decreases between columns {x} and {x + 1}")
            if y < k and a > choice[(x, y + 1)][0]:
                problems.append(f"column {x} decreases between rows {y} and {y + 1}")
    return problems


def expected_counts(k: int, N: int, sets: dict, degree_reduced: bool) -> tuple[int, int]:
    """(|V|, |E|) of the reduction, counted part by part.

    Per cell an N x N grid with 2N(N-1) edges; per adjacent cell pair a
    connector chain of N vertices with N-1 chain edges, N edges in and N
    out; 4k terminals with an N-leaf fan each; one extra vertex and one
    dotted edge per split position.  A degree-reduced fan is a binary tree
    on N leaves, adding N-2 internal nodes and N-2 edges.
    """
    split = sum(N * N - len(sets.get((x, y), ())) for x in range(1, k + 1) for y in range(1, k + 1))
    chains = 2 * k * (k - 1)
    verts = k * k * N * N + chains * N + 4 * k + split
    edges = k * k * 2 * N * (N - 1) + chains * (3 * N - 1) + 4 * k * N + split
    if degree_reduced:
        verts += 4 * k * (N - 2)
        edges += 4 * k * (N - 2)
    return verts, edges


def topo_order_problems(vertices, edges, order) -> list[str]:
    """Why ``order`` is not a topological order of the graph."""
    if order is None:
        return ["no topological order returned"]
    pos = {v: n for n, v in enumerate(order)}
    if len(order) != len(vertices) or len(pos) != len(order) or any(v not in pos for v in vertices):
        return ["order is not a permutation of the vertices"]
    for u, v in edges:
        if pos[u] >= pos[v]:
            return [f"edge {u!r} -> {v!r} points backwards in the order"]
    return []


def max_degrees(vertices, edges) -> tuple[int, int]:
    """(max in-degree, max out-degree) from the edge list."""
    indeg = dict.fromkeys(vertices, 0)
    outdeg = dict.fromkeys(vertices, 0)
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    return max(indeg.values(), default=0), max(outdeg.values(), default=0)


def path_set_problems(edges, pairs, paths) -> list[str]:
    """Why ``paths`` is not an edge-disjoint routing of ``pairs``."""
    if len(paths) != len(pairs):
        return [f"{len(paths)} paths for {len(pairs)} pairs"]
    edge_set = set(edges)
    used: set = set()
    problems = []
    for idx, (path, (s, t)) in enumerate(zip(paths, pairs)):
        if not path or path[0] != s or path[-1] != t:
            problems.append(f"path {idx} does not join its pair")
            continue
        for e in zip(path, path[1:]):
            if e not in edge_set:
                problems.append(f"path {idx} uses a non-edge {e!r}")
            elif e in used:
                problems.append(f"edge {e!r} used twice")
            used.add(e)
    return problems


def confinement_problems(k: int, paths) -> list[str]:
    """Paths that leave their stratum: path i < k must stay in column i + 1
    (its grids, vertical connectors and a/b terminals), path k + j - 1 in
    row j (its grids, horizontal connectors and c/d terminals)."""
    problems = []
    for idx, path in enumerate(paths):
        vertical = idx < k
        line = idx + 1 if vertical else idx - k + 1
        for v in path:
            kind = type(v).__name__
            if kind == "GridVertex":
                ok = (v.i if vertical else v.j) == line
            elif kind == ("VConnector" if vertical else "HConnector"):
                ok = (v.i if vertical else v.j) == line
            elif kind == "Terminal":
                ok = v.family in (("a", "b") if vertical else ("c", "d")) and v.index == line
            else:
                ok = False
            if not ok:
                problems.append(f"path {idx} leaves its stratum at {v!r}")
                break
    return problems
