"""Exact edge-disjoint path search on DAGs.

One exhaustive backtracking search routes the terminal pairs one at a
time, each over the edges the earlier pairs left free, so a None answer is
a proof of infeasibility at the given budget.  It routes the pair with the
largest cone first (``_cone_sizes``), then the others in the given order.
``_search`` documents how it prunes without changing the search tree; it
tests ancestry on one bitmask per vertex, the targets it reaches.  In
``solve_edp_dag`` a search that hits its budget is followed by one on the
mirror instance, read from the sinks, with half the budget; the budget
error means both ran out.  Also here: the edge-disjoint solution checker.

There is no vertex-disjoint search: on a reduction all 4k terminals lie on
the outer face with each column pair alternating with each row pair, so
vertex-disjoint paths never exist there.

A path is a vertex sequence; a single-vertex path (source equals sink) is
legal and consumes no edges.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat

from .digraph import Digraph, Label, _int_keys
from .errors import DEFAULT_BUDGET, BudgetExceededError

# blocking cuts kept per pair by the path search's reachability test
_HELD_CUTS = 16


@dataclass
class PathSet:
    """One directed path per terminal pair, index-aligned with the pair list."""

    paths: list[list[Label]]


def _pairs(terminals) -> list[tuple[Label, Label]]:
    pairs = getattr(terminals, "pairs", terminals)
    return [(s, t) for s, t in pairs]


def check_edp_solution(g: Digraph, terminals, ps: PathSet) -> list[str]:
    """Violations of the edge-disjoint-paths conditions; empty means valid.

    Each path must be a directed path from its pair's source to its sink
    without repeating an edge, and no edge may appear in two paths.  Sharing
    vertices is allowed; single-vertex paths share nothing.  Edges are
    compared by the graph's int keys (``Digraph._edge_keys``) of their
    vertex ids.  A label not in the graph gets an id of its own, past the
    graph's, so its edges are missing but can still be shared.  A valid set
    is accepted by set operations on all its edges at once; the messages are
    built only when one of those tests fails.
    """
    pairs = _pairs(terminals)
    if len(ps.paths) != len(pairs):
        return [f"expected {len(pairs)} paths, got {len(ps.paths)}"]
    ids, edges, n = g._id, g._edge_keys, len(g._verts)
    used: list[int] = []
    for path, (s, t) in zip(ps.paths, pairs):
        if not path or path[0] != s or path[-1] != t:
            break
        # a label outside the graph maps to -n * n, which makes the key of each of its edges negative
        nums = list(map(ids.get, path, repeat(-n * n)))
        used += _int_keys(nums, islice(nums, 1, None), n)
    else:
        distinct = set(used)
        if len(distinct) == len(used) and distinct <= edges:
            return []
    # each path's own violations in path order, then every edge that a later path shares
    violations, shared, owner, outside = [], [], {}, {}
    for idx, (path, (s, t)) in enumerate(zip(ps.paths, pairs)):
        if not path:
            violations.append(f"path {idx} is empty")
            continue
        if path[0] != s:
            violations.append(f"path {idx} starts at {path[0]!r}, expected {s!r}")
        if path[-1] != t:
            violations.append(f"path {idx} ends at {path[-1]!r}, expected {t!r}")
        nums = [ids[v] if v in ids else outside.setdefault(v, n + len(outside)) for v in path]
        seen = set()
        for step, (a, b) in enumerate(zip(nums, nums[1:])):
            where = f"edge ({path[step]!r}, {path[step + 1]!r})"
            if not (a < n > b and a * n + b in edges):
                violations.append(f"path {idx} uses missing {where}")
            elif (a, b) in seen:
                violations.append(f"path {idx} repeats {where}")
            seen.add((a, b))
            if (prev := owner.setdefault((a, b), idx)) != idx:
                shared.append(f"paths {prev} and {idx} share {where}")
    return violations + shared


def _reach_bits(g: Digraph, targets: list[int]) -> list[int]:
    """Per vertex id, the bitmask of the targets it reaches: bit j for ``targets[j]``.

    A vertex reaches itself.  One pass in reverse topological order (``g``
    must be acyclic) ORs each vertex's successors' masks into its own.
    """
    head, out_edges = g._head, g._out
    reach = [0] * len(out_edges)
    for j, t in enumerate(targets):
        reach[t] |= 1 << j
    for v in reversed(g._topo_ids()[0]):
        bits = reach[v]
        for e in out_edges[v]:
            bits |= reach[head[e]]
        reach[v] = bits
    return reach


def _cone_sizes(g: Digraph, sources: list[int], reach: list[int]) -> list[int]:
    """Per pair j, the size of its cone: the vertices that ``sources[j]`` reaches and that reach its target.

    ``reach`` holds the targets' ``_reach_bits``, and the sources'
    ``_reach_bits`` on the mirror view ``g._reverse()`` have bit j at each
    vertex that ``sources[j]`` reaches; a vertex is in the cones of the bits
    that both of its masks have.
    """
    sizes = [0] * len(sources)
    for bits in map(operator.and_, _reach_bits(g._reverse(), sources), reach):
        while bits:
            low = bits & -bits
            sizes[low.bit_length() - 1] += 1
            bits ^= low
    return sizes


def _search(g: Digraph, terminals, budget: int) -> PathSet | None:
    """The backtracking search behind the solver, over the graph's vertex and edge ids.

    It routes the pair with the largest cone (ties to the earlier pair)
    first, then the others in the given order: the most constrained
    variable first.  It checks its input, and returns its paths, in the
    given order.  Moving one pair to the front moves its bit of every
    ``reach`` mask to bit 0, so the two ``_reach_bits`` passes run once.

    The plain search it reproduces routes the pairs in that order, tries
    each vertex's arcs in edge order, skips an arc into a vertex that cannot
    reach the current target, and at each target abandons the branch if a
    later pair has no route left.  ``reach[w]`` has bit i set when w reaches
    pair i's target, so each ancestry test is ``reach[w] & bit`` with
    bit = 1 << i.  Each arc takes its edge.  The search runs on an explicit
    stack of frames [pair, vertex, edge taken, next arc], so its depth is not
    bounded by the recursion limit; the frames of one pair spell out that
    pair's path.  One ``taken`` flag per edge holds the state of the whole
    stack: a frame sets its edge's flag when pushed and clears it when
    popped.  A pair's first frame takes edge -1, a spare flag after the
    others.

    Each pair after the first keeps a witness route (no pair routes before
    the first), and ``users`` maps each edge to a bitmask of the pairs whose
    witness uses it.  Taking an edge for pair i can cut off only the later
    pairs in its mask, so only those are tested, by ``cut_off``, which a step
    calls only when that mask is not empty.  It tests each by
    ``reachable(j)``: first the held cuts that contain the edge just taken,
    as no other can hold, then a depth-first search from the source over
    ancestors of the target, which records either a new witness, through the
    per-vertex arcs ``via``, or a new blocking cut, the taken arcs from the
    explored set into unexplored ancestors of the target.  While all of any
    held cut is taken the target is out of reach, since every route has to
    leave that cut's explored set through one of its arcs, which the graph
    fixes.  The cuts are held most recently used first, a new one or one
    that just refuted moved to the front, since nearby states of the search
    are refuted by the same cut, and ``_HELD_CUTS`` of them at most, since a
    test may scan them all however long the search runs.  Freeing an edge
    breaks no witness, so each later pair has a whole witness at every
    pushed frame, and every target frame hands over to the next pair.

    When a later pair is cut off by the arc into w, the plain search would
    walk w's whole subtree and fail at every target, since taking more edges
    keeps that pair cut off.  It would spend N(w) = the sum over the free
    arcs w -> x into ancestors of the target of 1 + N(x) expansions,
    N(target) = 0; ``cut_off`` frees the edge again and ``subtree`` counts
    them instead.  In a DAG nothing reachable from w lies on the path prefix,
    so N depends only on the edges of the earlier pairs: it is memoized per
    entry into pair i (``start(i)`` draws a new key) and capped at
    budget + 1, past which the plain search would have raised.  Answers,
    expansion counts and budget behaviour are those of the plain search.
    """
    _, cycle = g._topo_ids()
    if cycle is not None:
        raise ValueError(f"graph is not acyclic; cycle through {g._verts[cycle[0]]!r}")
    pairs = _pairs(terminals)
    ids = g._id
    for s, t in pairs:
        if s not in ids or t not in ids:
            raise ValueError(f"terminal pair ({s!r}, {t!r}) not in graph")
    head, tail, out_edges = g._head, g._tail, g._out
    nverts = len(g._verts)
    # one flag per edge, and a spare last one for first frames, which take none (-1): no witness uses it
    taken = bytearray(len(head) + 1)
    ends = [(ids[s], ids[t]) for s, t in pairs]
    reach = _reach_bits(g, [tv for _, tv in ends])
    order = list(range(len(pairs)))  # pair i of the search is the caller's pair order[i]
    if len(pairs) > 1:
        sizes = _cone_sizes(g, [sv for sv, _ in ends], reach)
        first = sizes.index(max(sizes))
        if first:
            order.insert(0, order.pop(first))
            ends.insert(0, ends.pop(first))
            # bit first to bit 0, the bits below it up by one
            low, high = (1 << first) - 1, -2 << first
            reach = [r & high | (r & low) << 1 | r >> first & 1 for r in reach]
    # per pair: the edges of its witness and of the blocking cuts of its last
    # failed searches, the one that refuted last first, and the key of its
    # current entry
    witness: list[list[int]] = [[] for _ in pairs]
    cuts = [deque(maxlen=_HELD_CUTS) for _ in pairs]
    entry = [0] * len(pairs)
    users = [0] * len(head)
    # per vertex: the arc a search reached it by and the key of that search;
    # its subtree size and the key of the entry it was counted for
    via, seen, size, sized = [0] * nverts, [0] * nverts, [0] * nverts, [0] * nverts
    npairs = len(pairs)
    expansions = keys = 0

    def reachable(idx: int, r: int = -1) -> bool:
        # r is the edge just taken: pair idx had a route before, so only a
        # held cut with r in it can hold now
        nonlocal keys
        sv, tv = ends[idx]
        held = cuts[idx]
        for n, cut in enumerate(held):
            if r in cut and all(map(taken.__getitem__, cut)):
                if n:
                    del held[n]
                    held.appendleft(cut)
                return False
        found = -1  # the arc that reaches the target
        bit = 1 << idx
        if sv != tv:
            keys += 1
            key = seen[sv] = keys
            via[sv] = -1
            stack = [sv]
            blocked = []  # the taken arcs met on the way, each once, from its explored tail
            while stack and found < 0:
                for e in out_edges[stack.pop()]:
                    if taken[e]:
                        blocked.append(e)
                        continue
                    w = head[e]
                    if w == tv:
                        found = e
                        break
                    if reach[w] & bit and seen[w] != key:
                        seen[w] = key
                        via[w] = e
                        stack.append(w)
            if found < 0:
                held.appendleft([e for e in blocked if reach[head[e]] & bit and seen[head[e]] != key])
                return False
        if idx:  # no pair routes before pair 0 to break its witness
            for e in witness[idx]:
                users[e] ^= bit
            route = witness[idx] = []
            while found >= 0:
                route.append(found)
                users[found] |= bit
                found = via[tail[found]]
        return True

    def cut_off(idx: int, r: int, w: int) -> bool:
        # whether taking r cut off a pair after idx whose witness uses r; if so,
        # frees r and counts w's subtree
        j = idx + 1
        mask = users[r] >> j
        while mask:
            if mask & 1 and not reachable(j, r):
                taken[r] = 0
                subtree(idx, w)
                return True
            mask >>= 1
            j += 1
        return False

    def subtree(idx: int, w: int) -> None:
        # adds N(w) for pair idx to the expansions; raises past the budget
        nonlocal expansions
        bit, key = 1 << idx, entry[idx]
        stack = [w]
        while stack:
            v = stack[-1]
            if sized[v] == key:
                stack.pop()
                continue
            total = 0  # -1 once a successor is still to count
            for e in out_edges[v]:
                x = head[e]
                if taken[e] or not reach[x] & bit:
                    continue
                if sized[x] != key:
                    stack.append(x)
                    total = -1
                elif total >= 0:
                    total += 1 + size[x]
            if total >= 0:
                stack.pop()
                size[v] = min(total, budget + 1)
                sized[v] = key
        expansions += size[w]
        if expansions > budget:
            raise BudgetExceededError(budget)

    def start(idx: int) -> None:
        # pushes pair idx's first frame under a new entry key
        nonlocal keys
        keys += 1
        entry[idx] = keys
        frames.append([idx, ends[idx][0], -1, 0])

    if not all(map(reachable, range(npairs))):
        return None
    if not pairs:
        return PathSet([])
    frames: list[list[int]] = []
    start(0)
    while frames:
        frame = frames[-1]
        idx, v, _, nxt = frame
        if v == ends[idx][1]:
            # A target frame is visited twice: first to hand over to the next
            # pair, then once that pair has failed from here.
            if nxt:
                taken[frames.pop()[2]] = 0
            elif idx + 1 == npairs:
                paths: list[list[Label]] = [[] for _ in pairs]
                for fidx, fv, _, _ in frames:
                    paths[order[fidx]].append(g._verts[fv])
                return PathSet(paths)
            else:
                frame[3] = 1
                start(idx + 1)
            continue
        arcs = out_edges[v]
        bit = 1 << idx
        above = 2 << idx  # users[e] >= above: a later pair's witness uses e
        while nxt < len(arcs):
            e = arcs[nxt]
            nxt += 1
            w = head[e]
            if taken[e] or not reach[w] & bit:
                continue
            expansions += 1
            if expansions > budget:
                raise BudgetExceededError(budget)
            taken[e] = 1
            if users[e] >= above and cut_off(idx, e, w):
                continue
            frame[3] = nxt
            frames.append([idx, w, e, 0])
            break
        else:
            taken[frames.pop()[2]] = 0
    return None


def solve_edp_dag(g: Digraph, terminals, budget: int = DEFAULT_BUDGET) -> PathSet | None:
    """Exact edge-disjoint routing on a DAG; None means provably infeasible.

    Deterministic: the pair with the largest cone (the vertices on its
    source-to-target paths; ties to the earlier pair) is routed first, then
    the others in the given order, and edges are tried in the graph's edge
    order.  If that search hits the expansion cap, the mirror instance (the
    reverse graph, each pair's ends swapped, the pair list reversed) is
    searched the same way with half the cap, rounded up; so a call makes at
    most 1.5 times the cap in expansions.  The paths come back in the given
    order.  Raises BudgetExceededError, naming the cap, when both searches
    hit it.  The cap counts plain backtracking's expansions, counted
    subtrees included: it bounds the tree, not the time (random (3,5) d=0.1
    seed 1 answers None after 7.1e6 expansions, 3.8 s on a 2-CPU VM).
    """
    pairs = _pairs(terminals)  # read once: both searches take it, and terminals may be a one-shot iterable
    try:
        return _search(g, pairs, budget)
    except BudgetExceededError:
        pass
    # backtracking cost is heavy-tailed across search orders, so the mirror
    # decides many of the first search's budget hits
    mirror = [(t, s) for s, t in reversed(pairs)]
    try:
        ps = _search(g._reverse(), mirror, (budget + 1) // 2)
    except BudgetExceededError:
        raise BudgetExceededError(budget) from None
    return None if ps is None else PathSet([path[::-1] for path in reversed(ps.paths)])

