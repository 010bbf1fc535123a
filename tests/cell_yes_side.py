"""The "yes" side of the cell relation (ROADMAP item 31, fact 2) at N = 6, for every cell set.

``_oracles.routes_by_rule`` says "yes" for a cell set S through one point p of S, and reads the
rest of S only through (1, 1) in S and (N, N) in S.  So where it says "yes" for S it says "yes"
for S' = {p} | (S & {(1, 1), (N, N)}) too, and a reduction that routes for S' routes for every
S that holds S', since making a position whole removes no route
(``TestCellRelation::test_a_position_made_whole_removes_no_route`` checks that on samples).

This script checks every such S' (139 distinct sets at N = 6) with every a <= b and c <= d, in
both forms of the reduction: ``edp._propagate``, which decides an instance of two pairs exactly,
must route the cell's column and row routes exactly where ``routes_by_rule`` does.  It then
times ``_oracles.pair_game_plain``, with every arc in both domains, on every ``STEP``-th query,
and checks its answers too.

Run from the root of a checkout; it prints every mismatch and a summary, and exits 1 on any
mismatch (about 30 s on a shared 2-CPU VM):

    PYTHONPATH=src python -m tests.cell_yes_side

pytest does not collect this file; ``tests/test_reduction.py`` runs ``mismatches`` at N = 3.
"""

import sys
import time
from itertools import combinations, islice, product

from gridpaths.edp import _propagate
from gridpaths.gridtiling import GridTilingInstance
from gridpaths.reduction import boundary, reduce, reduce_degree

from ._oracles import pair_game_plain, routes_by_rule

N = 6
STEP = 50


def cell_sets(n: int) -> list[frozenset]:
    """Every {p} | C with p in [n]^2 and C a subset of {(1, 1), (n, n)}, each once."""
    corners = [(1, 1), (n, n)]
    found = {
        frozenset({p, *c})
        for p in product(range(1, n + 1), repeat=2)
        for size in range(3)
        for c in combinations(corners, size)
    }
    return sorted(found, key=sorted)


def queries(n: int):
    """Every query at size n: (form, graph, cell set, (a, b, c, d), the column and the row pair)."""
    spans = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    for cells in cell_sets(n):
        out = reduce(GridTilingInstance(k=1, N=n, sets={(1, 1): set(cells)}))
        for form, red in (("direct", out), ("degree-2", reduce_degree(out))):
            bottom, top, left, right = (boundary(red, 1, 1, side) for side in ("bottom", "top", "left", "right"))
            for (a, b), (c, d) in product(spans, repeat=2):
                yield form, red.graph, cells, (a, b, c, d), [(bottom[a - 1], top[b - 1]), (left[c - 1], right[d - 1])]


def _mismatch(form, cells, corners, solver: str, routed: bool) -> str:
    return f"{form} S = {sorted(cells)} (a, b, c, d) = {corners}: {solver} {'routes' if routed else 'refutes'}"


def mismatches(n: int) -> tuple[int, list[str]]:
    """(queries, one line per query on which ``_propagate`` and ``routes_by_rule`` differ) at size n."""
    count, found = 0, []
    for form, g, cells, corners, pairs in queries(n):
        routed = _propagate(g, pairs, 10**9) is not None
        if routed != routes_by_rule(cells, n, *corners):
            found.append(_mismatch(form, cells, corners, "propagation", routed))
        count += 1
    return count, found


def game_sample(n: int, step: int) -> tuple[int, float, list[str]]:
    """(queries, seconds in ``pair_game_plain``, mismatches) over every ``step``-th query at size n."""
    count, seconds, found = 0, 0.0, []
    for form, g, cells, corners, pairs in islice(queries(n), 0, None, step):
        arcs = set(g.edges)
        t0 = time.perf_counter()
        routed = pair_game_plain(g, *pairs, arcs, arcs)[0]
        seconds += time.perf_counter() - t0
        if routed != routes_by_rule(cells, n, *corners):
            found.append(_mismatch(form, cells, corners, "pair_game_plain", routed))
        count += 1
    return count, seconds, found


def main() -> int:
    t0 = time.perf_counter()
    count, found = mismatches(N)
    sampled, seconds, game_found = game_sample(N, STEP)
    found += game_found
    for line in found:
        print(line)
    print(
        f"N = {N}: {len(cell_sets(N))} cell sets, {count} queries in both forms, {len(found)} mismatches; "
        f"pair_game_plain {1000 * seconds / sampled:.2f} ms per query on {sampled} of them; "
        f"{time.perf_counter() - t0:.1f} s"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
