"""Grid tiling instances: validation, exact solving, and generators.

An instance is a k x k grid of cells, each holding a subset of [N] x [N].
A solution picks one pair per cell so that second coordinates are
non-decreasing left-to-right within every row and first coordinates are
non-decreasing bottom-to-top within every column.  Cell (x, y) sits in
column x and row y, with (1, 1) at the bottom left.

The brute-force solver here is deliberately simple: it is the independent
oracle that the path-routing side of the package is checked against.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import islice, product, repeat
from typing import Iterator, Mapping

from .errors import DEFAULT_BUDGET, BudgetExceededError, brief, exact, exact_fields

Pair = tuple[int, int]
Cell = tuple[int, int]


@dataclass(frozen=True)
class GridTilingInstance:
    """A k x k grid of cells, each with a set of candidate pairs from [N] x [N]."""

    k: int
    N: int
    sets: Mapping[Cell, frozenset[Pair]]

    def __post_init__(self):
        # no int(): it would truncate 1.9 and parse "1"; validate_instance reports such values
        norm = {cell: frozenset(pairs) for cell, pairs in dict(self.sets).items()}
        object.__setattr__(self, "sets", norm)

    def cells(self) -> Iterator[Cell]:
        """All cell coordinates in row-major order (x fast, y slow)."""
        return _cells(self.k)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "N": self.N,
            "sets": {
                f"{x},{y}": [list(p) for p in sorted(self.sets[(x, y)])]
                for (x, y) in self.cells()
                if (x, y) in self.sets
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridTilingInstance":
        try:
            k, n, given = map(exact, (int, int, dict), exact_fields(data, "k", "N", "sets"))
            sets = {}
            for key, pairs in given.items():
                cell = _CELL_KEY.fullmatch(key)
                if cell is None:
                    raise ValueError(f"cell key {brief(key)} is not '<x>,<y>' in positive decimals")
                xy = (int(cell[1]), int(cell[2]))
                sets[xy] = frozenset(map(_read_pair, repeat(xy), exact(list, pairs)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed grid tiling instance: {exc}") from exc
        return cls(k=k, N=n, sets=sets)


# the keys to_json_dict writes, and only those: no sign, space or leading
# zero, so that no two keys name one cell
_CELL_KEY = re.compile(r"([1-9][0-9]*),([1-9][0-9]*)")


def _read_pair(cell: Cell, pair) -> Pair:
    """A JSON pair of ``cell`` as the instance reader takes it: a list of two exact ints."""
    if len(exact(list, pair)) != 2:
        raise ValueError(f"cell {cell} holds {brief(pair)}, which is not a pair [a, b]")
    return exact(int, pair[0]), exact(int, pair[1])


def _cells(k: int) -> Iterator[Cell]:
    """The cells of a k x k grid in row-major order; the generators' random draws follow it."""
    for y in range(1, k + 1):
        for x in range(1, k + 1):
            yield (x, y)


def _int_pair(value) -> bool:
    """Whether ``value`` is a tuple of two ints, by exact type as ``errors.exact`` tests."""
    return type(value) is tuple and len(value) == 2 and type(value[0]) is int and type(value[1]) is int


@dataclass(frozen=True)
class GTAssignment:
    """One chosen pair per cell; a candidate grid tiling solution."""

    choice: Mapping[Cell, Pair]

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))


def _size_violations(k, N) -> list[str]:
    """The size rule: k >= 1 and N >= 2, both exact ints, so True and 2.0 are not sizes."""
    violations = []
    if type(k) is not int or k < 1:
        violations.append(f"k must be a positive integer, got {k!r}")
    if type(N) is not int or N < 2:
        violations.append(f"N must be an integer >= 2, got {N!r}")
    return violations


def _seed_violations(seed) -> list[str]:
    """A generator's seed is an exact int, like the sizes."""
    return [] if type(seed) is int else [f"seed must be an integer, got {seed!r}"]


_MISSING_NAMED = 10  # missing cells named one by one in a violation list


def validate_instance(inst: GridTilingInstance) -> list[str]:
    """Return a list of invariant violations; empty means the instance is valid."""
    violations = _size_violations(inst.k, inst.N)
    if violations:
        return violations
    k = inst.k
    # values of other types are reported by repr: sorting them with ints would raise
    present = {cell for cell in inst.sets if _int_pair(cell)}
    inside = {cell for cell in present if 1 <= cell[0] <= k and 1 <= cell[1] <= k}
    for cell in sorted(set(inst.sets) - present, key=repr):
        violations.append(f"cell key {cell!r} is not a pair of integers")
    # the first missing cells in sorted order, found without making all k^2 cells; the rest counted
    missing = (cell for cell in product(range(1, k + 1), repeat=2) if cell not in inside)
    violations += [f"missing set for cell {cell}" for cell in islice(missing, _MISSING_NAMED)]
    if k * k - len(inside) > _MISSING_NAMED:
        violations.append(f"missing sets for {k * k - len(inside) - _MISSING_NAMED} more cells")
    for cell in sorted(present - inside):
        violations.append(f"unexpected cell {cell} outside [1,{k}]^2")
    n = inst.N
    for cell in sorted(inside):  # one pass finds a cell's offending pairs; only those are sorted
        bad = [p for p in inst.sets[cell] if not (_int_pair(p) and 1 <= p[0] <= n and 1 <= p[1] <= n)]
        if bad:
            far = sorted(pair for pair in bad if _int_pair(pair))
            for pair in sorted(set(bad).difference(far), key=repr):
                violations.append(f"cell {cell}: pair {pair!r} is not a pair of integers")
            violations += [f"cell {cell}: pair ({a},{b}) outside [1,{n}]^2" for a, b in far]
    return violations


def _valid(inst: GridTilingInstance, prefix: str = "invalid instance") -> GridTilingInstance:
    """``inst`` if it is valid, else a ValueError naming its violations after ``prefix``."""
    violations = validate_instance(inst)
    if violations:
        raise ValueError(f"{prefix}: " + "; ".join(violations))
    return inst


def check_gt_solution(inst: GridTilingInstance, asg: GTAssignment) -> bool:
    """True iff ``asg`` picks a member of every cell's set and is monotone.

    Monotone means: second coordinates non-decreasing as x grows within each
    row, first coordinates non-decreasing as y grows within each column.
    """
    cells = list(inst.cells())
    missing = [c for c in cells if c not in asg.choice]
    if missing:
        raise ValueError(f"assignment is not total; missing cells {missing}")
    for cell in cells:
        # (1.0, 1) == (1, 1): a member must be a pair of ints, not only equal to one
        pair = asg.choice[cell]
        if not _int_pair(pair) or pair not in inst.sets.get(cell, frozenset()):
            return False
    for y in range(1, inst.k + 1):
        for x in range(1, inst.k):
            if asg.choice[(x, y)][1] > asg.choice[(x + 1, y)][1]:
                return False
    for x in range(1, inst.k + 1):
        for y in range(1, inst.k):
            if asg.choice[(x, y)][0] > asg.choice[(x, y + 1)][0]:
                return False
    return True


def solve_gt_brute_force(
    inst: GridTilingInstance, budget: int = DEFAULT_BUDGET
) -> GTAssignment | None:
    """Exhaustive backtracking over cells in row-major order.

    Returns a valid assignment, or None iff no assignment satisfies
    ``check_gt_solution``.  Partial assignments violating a row or column
    condition are pruned immediately.  Raises BudgetExceededError when more
    than ``budget`` candidate pairs have been tried.  The search keeps its
    own stack, so its depth (k^2 cells) does not meet the recursion limit.
    """
    _valid(inst)
    k, cells = inst.k, list(inst.cells())
    pools = [sorted(inst.sets[cell]) for cell in cells]
    chosen: list[Pair] = []  # the pairs picked for cells[0 .. len(chosen) - 1]
    # the open cells' candidate iterators: each resumes where its cell left off
    stack = [iter(pools[0])]
    expansions = 0
    while stack:
        pos = len(chosen)
        for a, b in stack[-1]:
            expansions += 1
            if expansions > budget:
                raise BudgetExceededError(budget)
            # the left neighbour is pos - 1 unless x = 1, the lower one pos - k unless y = 1
            if (pos % k == 0 or chosen[pos - 1][1] <= b) and (pos < k or chosen[pos - k][0] <= a):
                chosen.append((a, b))
                break
        else:  # cell pos is exhausted: take back the previous cell's pick
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        if len(chosen) == len(cells):
            return GTAssignment(dict(zip(cells, chosen)))
        stack.append(iter(pools[pos + 1]))
    return None


def generate_planted(k: int, N: int, noise: int = 0, seed: int = 0) -> GridTilingInstance:
    """Instance with a deterministic monotone assignment planted in every cell.

    Cell (x, y) always contains (min(y, N), min(x, N)), which is monotone by
    construction, plus ``noise`` uniformly random extra pairs per cell.
    """
    violations = _size_violations(k, N)
    if type(noise) is not int or noise < 0:
        violations.append(f"noise must be an integer >= 0, got {noise!r}")
    if violations := violations + _seed_violations(seed):
        raise ValueError("; ".join(violations))
    rng = random.Random(seed)
    sets = {}
    for x, y in _cells(k):
        pairs = {(min(y, N), min(x, N))}
        for _ in range(noise):
            pairs.add((rng.randint(1, N), rng.randint(1, N)))
        sets[(x, y)] = frozenset(pairs)
    return GridTilingInstance(k=k, N=N, sets=sets)


def generate_random(k: int, N: int, density: float, seed: int = 0) -> GridTilingInstance:
    """Instance where each pair joins each cell independently with probability ``density``."""
    violations = _size_violations(k, N)
    if type(density) not in (int, float) or not 0 <= density <= 1:
        violations.append(f"density must be a number in [0, 1], got {density!r}")
    if violations := violations + _seed_violations(seed):
        raise ValueError("; ".join(violations))
    rng = random.Random(seed)
    pairs = list(product(range(1, N + 1), repeat=2))
    sets = {cell: frozenset(p for p in pairs if rng.random() < density) for cell in _cells(k)}
    return GridTilingInstance(k=k, N=N, sets=sets)
