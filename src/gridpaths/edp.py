"""Exact edge-disjoint path search on DAGs.

One exhaustive backtracking search routes the terminal pairs one at a
time, each over the edges the earlier pairs left free, so a None answer is
a proof of infeasibility at the given budget.  It routes the pair with the
largest cone first (``_cone_sizes``), then the others in the given order.
``_search`` documents how it prunes without changing the search tree; it
tests ancestry on one bitmask per vertex, the targets it reaches.
``solve_edp_dag`` runs up to three stages: that search; where it hits its
budget, the same search on the mirror instance, read from the sinks, with
half the budget; where that runs out too, pairwise propagation
(``_propagate``): two-pair games over per-pair arc domains, played to a
fixpoint, whose states are capped at half the budget, which either
refutes the instance or narrows the graph for one more search with half
the budget.  The budget error means every stage ran out.  Also here: the
edge-disjoint solution checker.

There is no vertex-disjoint search: on a reduction all 4k terminals lie on
the outer face with each column pair alternating with each row pair, so
vertex-disjoint paths never exist there.

A path is a vertex sequence; a single-vertex path (source equals sink) is
legal and consumes no edges.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice, product

from .digraph import Digraph, Label
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
    vertices is allowed; single-vertex paths share nothing, but their vertex
    must be in the graph.  A step's edge is found among its tail's out-edges.
    A label not in the graph gets an id of its own, past the graph's, so its
    edges are missing but can still be shared.  A valid set is accepted when
    each step finds an edge and no edge id occurs twice; the messages are
    built only when that fails.
    """
    pairs = _pairs(terminals)
    if len(ps.paths) != len(pairs):
        return [f"expected {len(pairs)} paths, got {len(ps.paths)}"]
    ids, out, head, n = g._id, g._out, g._head, len(g._verts)
    used, steps = [], 0
    for path, (s, t) in zip(ps.paths, pairs):
        nums = list(map(ids.get, path))
        if not path or path[0] != s or path[-1] != t or None in nums:
            break
        # a simple graph has at most one edge per step: a step that finds none leaves used short of steps
        steps += len(path) - 1
        used += [e for a, b in zip(nums, islice(nums, 1, None)) for e in out[a] if head[e] == b]
    else:
        if len(set(used)) == len(used) == steps:
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
        if len(path) == 1 and path[0] not in ids:
            violations.append(f"path {idx} uses vertex {path[0]!r}, which is not in the graph")
        nums = [ids[v] if v in ids else outside.setdefault(v, n + len(outside)) for v in path]
        seen = set()
        for step, (a, b) in enumerate(zip(nums, nums[1:])):
            where = f"edge ({path[step]!r}, {path[step + 1]!r})"
            if not (a < n > b and b in map(head.__getitem__, out[a])):
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
    that both of its masks have.  Many vertices share that AND, so each
    distinct one is split into its bits once, with its count.
    """
    sizes = [0] * len(sources)
    for bits, count in Counter(map(operator.and_, _reach_bits(g._reverse(), sources), reach)).items():
        while bits:
            low = bits & -bits
            sizes[low.bit_length() - 1] += count
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


_DEAD = 1  # bit 0 of a stop mask: a dead end, past which a token needs no shared arc


def _segments(arcs: list[int], head: list[int], tail: list[int], stop: dict[int, int]) -> dict[int, int]:
    """Per tail of a domain's ``arcs`` (in topological order), the stop mask of its out-arcs.

    A vertex's mask has the bit of each stop (``stop`` maps a vertex to its
    bit) that a path from it reaches before any other stop, and ``_DEAD``
    when such a path reaches a dead end, a vertex from which no stop is
    reachable: the target, at the latest.  An arc's mask is its head's: the
    head's own bit if it is a stop, else its entry here, or ``_DEAD`` if it
    has none.
    """
    acc: dict[int, int] = {}
    get, stop_get = acc.get, stop.get
    for e in reversed(arcs):
        v, h = tail[e], head[e]
        acc[v] = get(v, 0) | (stop_get(h) or get(h, _DEAD))
    return acc


def _kept(arcs: list[int], head: list[int], tail: list[int], stop: dict[int, int], acc: dict[int, int],
          good: dict[int, int], first: dict[int, int]) -> list[int]:
    """The ``arcs`` (in topological order) that lie on a winning line, given the good masks of the stops.

    A stop's good mask (``good``) has the bits of the stops, and ``_DEAD``,
    that a winning move from it ends at, -1 if the token moves freely from
    there on; ``first`` holds the same for an arc that a two-arc move starts
    with.  The pass carries each mask along the arcs that lead to one of its
    stops, into the vertices between stops; a free mask also into stops.
    """
    kept: list[int] = []
    keep, get, first_get, stop_get, acc_get = kept.append, good.get, first.get, stop.get, acc.get
    for e in arcs:
        m = get(tail[e], 0) | first_get(e, 0)
        if m:
            h = head[e]
            if m & (stop_get(h) or acc_get(h, _DEAD)):
                keep(e)
                if m < 0 or h not in stop:
                    good[h] = get(h, 0) | m
    return kept


class _Domains:
    """Per-pair arc domains on a graph, narrowed by two-pair games (pairwise consistency).

    ``dom[e]`` has bit i when edge e is in pair i's domain, and ``arcs[i]``
    lists that domain in topological order of the tails.  A domain starts
    as its pair's cone arcs: their tails are reached from the source, their
    heads reach the target.  The graph must be acyclic and hold every
    terminal, as the solver's first search checks; ``routed`` is whether
    every pair has a route.  ``states`` counts the states the games have
    valued, and a game that would take it past ``cap`` raises
    BudgetExceededError instead.
    """

    def __init__(self, g: Digraph, pairs: list[tuple[Label, Label]], cap: int) -> None:
        order = g._topo_ids()[0]
        ids = g._id
        self.ends = ends = [(ids[s], ids[t]) for s, t in pairs]
        self.head, self.tail, self.out = head, tail, out = g._head, g._tail, g._out
        back = _reach_bits(g, [t for _, t in ends])
        fwd = _reach_bits(g._reverse(), [s for s, _ in ends])
        self.routed = all(back[s] >> i & 1 for i, (s, _) in enumerate(ends))
        self.dom = dom = list(map(operator.and_, map(fwd.__getitem__, tail), map(back.__getitem__, head)))
        self.pos = pos = [0] * len(out)
        self.arcs = arcs = [[] for _ in ends]
        for p, v in enumerate(order):
            pos[v] = p
            for e in out[v]:
                bits = dom[e]
                while bits:
                    low = bits & -bits
                    arcs[low.bit_length() - 1].append(e)
                    bits ^= low
        self.cap, self.states = cap, 0

    def game(self, i: int, j: int) -> tuple[list[int], list[int]] | None:
        """Pairs i and j's two-token game: None if it is lost, else the arcs of each domain on a winning line.

        The game is Fortune, Hopcroft and Wyllie's: a token per pair, at its
        source first, moves along the arcs of its domain, and the game is
        won when edge-disjoint paths take both home.  Its value does not
        depend on the order of the moves, so only the arcs both domains
        share constrain it.  A state is a pair of stops, one per token: the
        tails of the shared arcs and the two sources.  A token moves from its
        stop through one arc and on through the vertices between stops, all
        of whose arcs are unshared, to its next stop, or into a dead end, from
        which it reaches its target without a shared arc; then the other
        token moves freely and the game is won.  The token on the
        topologically lower stop moves, so the other can never take an arc
        that it took; two tokens on one stop leave it by two distinct arcs.

        Stops are ranked by topological position, and stop r has bit r + 1
        of every mask.  ``won[r]`` holds the stops at which token i wins with
        token j at stop r, and bit 0.  One pass from the last stop to the
        first fills it: the stops after stop r by token j's moves, which reach
        later stops only; stop r itself by the two-arc moves; then the stops
        before it, from the last down, by token i's moves.  A second pass,
        from the first stop, carries the won states reached from the start
        (``reach``, the same layout) and collects the good masks for
        ``_kept``: per stop, and per first arc of a two-arc move.  The states
        valued, the squared number of stops, count against the cap.
        """
        dom, head, tail, out, pos = self.dom, self.head, self.tail, self.out, self.pos
        bi, bj = 1 << i, 1 << j
        both = bi | bj
        arcs_i, arcs_j = self.arcs[i], self.arcs[j]
        at = {tail[e] for e in (arcs_i if len(arcs_i) <= len(arcs_j) else arcs_j) if dom[e] & both == both}
        if not at:
            return arcs_i, arcs_j
        (si, _), (sj, _) = self.ends[i], self.ends[j]
        at = sorted({*at, si, sj}, key=pos.__getitem__)
        nstops = len(at)
        self.states += nstops * nstops
        if self.states > self.cap:
            raise BudgetExceededError(self.cap)
        stop = {v: 2 << r for r, v in enumerate(at)}
        acc_i = _segments(arcs_i, head, tail, stop)
        acc_j = _segments(arcs_j, head, tail, stop)
        succ_i = [acc_i.get(v, _DEAD) for v in at]
        succ_j = [acc_j.get(v, _DEAD) for v in at]

        # per stop, the arcs of i and of j that leave it, each with its stop mask; a token at home
        # leaves by a pseudo-arc (-1 for i, -2 for j) to a dead end
        firsts = []
        for y in at:
            arcs_at_i, arcs_at_j = [], []
            for e in out[y]:
                d, h = dom[e], head[e]
                if d & bi:
                    arcs_at_i.append((e, stop.get(h) or acc_i.get(h, _DEAD)))
                if d & bj:
                    arcs_at_j.append((e, stop.get(h) or acc_j.get(h, _DEAD)))
            firsts.append((arcs_at_i or [(-1, _DEAD)], arcs_at_j or [(-2, _DEAD)]))

        won = [0] * nstops
        for r in range(nstops - 1, -1, -1):
            bit = 2 << r
            arcs_at_i, arcs_at_j = firsts[r]
            # token j leaving y by arc b: the stops token i must then win at (partner) make the
            # stops after y; with i at y too, an arc a other than b must lead to one of them
            later = both_at_y = 0
            for b, v2 in arcs_at_j:
                if v2 & _DEAD:
                    partner = -1
                else:
                    partner = 0
                    while v2:
                        low = v2 & -v2
                        partner |= won[low.bit_length() - 2]
                        v2 ^= low
                later |= partner
                if not both_at_y:
                    for a, v1 in arcs_at_i:
                        if a != b and v1 & partner:
                            both_at_y = bit
                            break
            col = later & -bit << 1 | both_at_y | _DEAD
            for q in range(r - 1, -1, -1):
                if succ_i[q] & col:
                    col |= 2 << q
            won[r] = col
        if not won[at.index(sj)] & stop[si]:
            return None

        good_i = dict.fromkeys(at, 0)
        good_j = dict.fromkeys(at, 0)
        first_i: dict[int, int] = {}
        first_j: dict[int, int] = {}
        reach = [0] * nstops
        reach[at.index(sj)] = stop[si]
        for r, y in enumerate(at):
            col = reach[r]
            if not col:
                continue
            bit, wy = 2 << r, won[r]
            m = col & bit - 2
            while m:  # token i moves from the stops before y, the first first
                low = m & -m
                q = low.bit_length() - 2
                t = succ_i[q] & wy
                good_i[at[q]] |= t
                if t & _DEAD:
                    good_j[y] = -1
                col |= t & ~_DEAD
                m = col & bit - 2 & -low << 1
            if col & bit:  # both tokens at y: the good masks go to their first arcs
                arcs_at_i, arcs_at_j = firsts[r]
                for (a, v1), (b, v2) in product(arcs_at_i, arcs_at_j):
                    if a == b:
                        continue
                    if v1 & _DEAD:
                        first_i[a] = first_i.get(a, 0) | _DEAD
                        first_j[b] = -1
                    if v2 & _DEAD:
                        first_j[b] = first_j.get(b, 0) | _DEAD
                        first_i[a] = -1
                    v2 &= ~_DEAD
                    while v2:
                        low = v2 & -v2
                        q = low.bit_length() - 2
                        t = v1 & won[q] & ~_DEAD
                        if t:
                            first_i[a] = first_i.get(a, 0) | t
                            first_j[b] = first_j.get(b, 0) | low
                            reach[q] |= t
                        v2 ^= low
            later = col & -bit << 1
            if later:  # token j moves from y, token i at a later stop
                m = succ_j[r]
                if m & _DEAD:
                    good_j[y] |= _DEAD
                    while later:
                        low = later & -later
                        good_i[at[low.bit_length() - 2]] = -1
                        later ^= low
                    later = col & -bit << 1
                    m ^= _DEAD
                while m:
                    low = m & -m
                    q = low.bit_length() - 2
                    t = later & won[q]
                    if t:
                        good_j[y] |= low
                        reach[q] |= t
                    m ^= low
        return (
            _kept(arcs_i, head, tail, stop, acc_i, good_i, first_i),
            _kept(arcs_j, head, tail, stop, acc_j, good_j, first_j),
        )

    def narrow(self) -> bool:
        """Plays the games of every two pairs whose cones share an arc to a fixpoint; False if one is lost.

        A game is replayed whenever one of its two domains shrank since it
        was last played.  Domains only shrink, so two pairs whose cones
        share no arc never play.
        """
        dom, arcs = self.dom, self.arcs
        masks = set(dom)
        crossing = [(i, j) for j in range(len(arcs)) for i in range(j) if any(m >> i & m >> j & 1 for m in masks)]
        version = [0] * len(arcs)
        played = dict.fromkeys(crossing)
        again = True
        while again:
            again = False
            for i, j in crossing:
                if played[i, j] == (version[i], version[j]):
                    continue
                result = self.game(i, j)
                if result is None:
                    return False
                for p, kept in zip((i, j), result):
                    if len(kept) < len(arcs[p]):
                        for e in set(arcs[p]).difference(kept):
                            dom[e] ^= 1 << p
                        arcs[p] = kept
                        version[p] += 1
                        again = True
                played[i, j] = (version[i], version[j])
        return True


def _propagate(g: Digraph, pairs: list[tuple[Label, Label]], cap: int) -> list[int] | None:
    """Pairwise propagation: per edge, the bitmask of the pairs whose domain keeps it; None refutes.

    Starting from the cone arcs, ``_Domains.narrow`` keeps in each domain
    only the arcs on a winning line of its pair's game with each other
    pair, to a fixpoint.  Sound: a solution's paths for pairs i and j are a
    winning line of their game over any domains that hold them, so no game
    drops one of their arcs and none is lost.  With two pairs the one game
    decides the instance.  Raises BudgetExceededError once the games have
    valued more than ``cap`` states.
    """
    doms = _Domains(g, pairs, cap)
    return doms.dom if doms.routed and doms.narrow() else None


def _search_domains(g: Digraph, pairs: list[tuple[Label, Label]], budget: int) -> PathSet | None:
    """``_propagate`` with a cap of ``budget`` states, then one search with ``budget`` expansions on the domains it leaves.

    The search runs on the subgraph of the union of the domains, which
    keeps the graph's vertex ids and labels.
    """
    dom = _propagate(g, pairs, budget)
    if dom is None:
        return None
    keep = [e for e, bits in enumerate(dom) if bits]
    sub = Digraph.__new__(Digraph)
    sub._init(g._verts, [g._tail[e] for e in keep], [g._head[e] for e in keep])
    return _search(sub, pairs, budget)


def solve_edp_dag(g: Digraph, terminals, budget: int = DEFAULT_BUDGET) -> PathSet | None:
    """Exact edge-disjoint routing on a DAG; None means provably infeasible.

    Deterministic: the pair with the largest cone (the vertices on its
    source-to-target paths; ties to the earlier pair) is routed first, then
    the others in the given order, and edges are tried in the graph's edge
    order.  If that search hits the expansion cap, the mirror instance (the
    reverse graph, each pair's ends swapped, the pair list reversed) is
    searched the same way with half the cap, rounded up.  If that hits its
    cap too, pairwise propagation (``_search_domains``) plays two-pair games
    valuing at most half the cap in states: a lost game refutes the
    instance, and otherwise one search with half the cap runs on the arcs
    the games left.  So a call makes at most twice the cap in expansions,
    plus half of it in game states.  The paths come back in the given
    order.  Raises BudgetExceededError, naming the cap, when every stage
    hits its share.  The cap counts plain backtracking's expansions,
    counted subtrees included: it bounds the tree, not the time (random
    (3,5) d=0.1 seed 1 answers None after 7.1e6 expansions, 3.8 s on a
    2-CPU VM, in the first search, before propagation would refute it in
    10,490 states).
    """
    pairs = _pairs(terminals)  # read once: every stage takes it, and terminals may be a one-shot iterable
    try:
        return _search(g, pairs, budget)
    except BudgetExceededError:
        pass
    # backtracking cost is heavy-tailed across search orders, so the mirror
    # decides many of the first search's budget hits
    mirror = [(t, s) for s, t in reversed(pairs)]
    half = (budget + 1) // 2
    try:
        ps = _search(g._reverse(), mirror, half)
        return None if ps is None else PathSet([path[::-1] for path in reversed(ps.paths)])
    except BudgetExceededError:
        pass
    try:
        return _search_domains(g, pairs, half)
    except BudgetExceededError:
        raise BudgetExceededError(budget) from None

