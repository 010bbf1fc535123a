"""The two directions of the reduction, as executable maps.

Forward: a monotone grid tiling assignment yields one column-direction path
per bottom terminal and one row-direction path per left terminal, stitched
through the connector chains; the result is edge-disjoint because distinct
paths can only meet at whole (unsplit) grid vertices.

Backward: from any edge-disjoint solution, each cell's chosen pair is read
off as the first whole vertex of that cell's grid shared by the cell's
column path and row path.  Failure to find one would mean the gadget is
broken, so it raises instead of recovering.
"""

from __future__ import annotations

from itertools import product

from .digraph import GridVertex, Label, WHOLE
from .edp import PathSet, check_edp_solution
from .gridtiling import GTAssignment, check_gt_solution
from .reduction import _FAMILIES, ReductionOutput, _base, _in_level, _layout, _orient, _position


class InvalidSolutionError(ValueError):
    """The supplied assignment or path set fails its validity check."""


class ExtractionFailedError(RuntimeError):
    """No shared whole vertex exists in some cell; the reduction is broken."""


def gt_solution_to_paths(out: ReductionOutput, asg: GTAssignment) -> PathSet:
    """Build the edge-disjoint path set realizing a grid tiling solution.

    Path i climbs column alpha_{i,j} of each grid (i, j), riding the vertical
    connector chain from alpha_{i,j} to alpha_{i,j+1} in between; path k+j
    runs the rows symmetrically.  Monotonicity of the assignment is exactly
    what makes the connector rides possible.  Each path is a walk on the shape
    ids of ``reduction._base``, read as the graph's own labels through the
    layout that built the graph.
    """
    inst = out.provenance
    if not check_gt_solution(inst, asg):
        raise InvalidSolutionError("assignment does not solve the instance")
    k, n = inst.k, inst.N
    base, (entry, exit_), verts = _base(k, n, out.degree_reduced), _layout(out), out.graph._verts
    ks = range(1, k + 1)
    paths: list[list[Label]] = []
    for fam, m in product(_FAMILIES, ks):
        cells = [_orient(fam, m, c) for c in ks]
        # the lane chosen in each cell: alpha for a column, beta for a row
        lanes = [asg.choice[cell][fam.axis] for cell in cells]
        source, sink = fam.terminals
        # a walk on shape ids: the source, its fan's route to the first lane, each lane
        # with the connector run after it, the sink's route back and the sink
        walk = [base.roots[source, m], *base.routes[source, m][lanes[0] - 1]]
        for c, (cell, lane) in enumerate(zip(cells, lanes), 1):
            walk += [_position(k, n, *cell, *_orient(fam, lane, step)) for step in range(1, n + 1)]
            if c < k:
                chain = base.chains[(fam.axis, *cell)] - 1  # + ell: connector ell
                walk += range(chain + lane, chain + lanes[c] + 1)
        walk += [*reversed(base.routes[sink, m][lanes[-1] - 1]), base.roots[sink, m]]
        # a split position is entered at its lb copy and left from the tr copy after it
        paths.append([v for s in walk for v in verts[entry[s] : exit_[s] + 1]])
    return PathSet(paths)


def paths_to_gt_solution(out: ReductionOutput, ps: PathSet) -> GTAssignment:
    """Extract a grid tiling solution from an edge-disjoint path set.

    For each cell (i, j), the chosen pair is the (q, ell) of the first whole
    vertex of grid (i, j) along path i that path k+j also visits.  Such a
    vertex must exist whenever the paths are valid; its absence is reported
    as a gadget defect, never patched over.
    """
    violations = check_edp_solution(out.graph, out.terminals, ps)
    if violations:
        raise InvalidSolutionError("path set is not a solution: " + "; ".join(violations))
    k, ids, verts = out.provenance.k, out.graph._id, out.graph._verts
    rows = [set(path) for path in ps.paths[k:]]
    choice = {}
    for i in range(1, k + 1):
        column_route = ps.paths[i - 1]
        for j, row_verts in enumerate(rows, 1):
            for v in column_route:
                # few vertices of the column are on the row; a label or a plain-tuple copy of it is
                # ("grid", i, j, q, ell, part) at a grid vertex, so its tag tells its kind
                if v in row_verts and v[0] == GridVertex.kind and v[-1] == WHOLE and v[1:3] == (i, j):
                    choice[(i, j)] = verts[ids[v]][3:5]  # the graph's own ints, which a copy's 1.0 or True equals
                    break
            else:
                raise ExtractionFailedError(
                    f"paths {i - 1} and {k + j - 1} share no whole vertex in cell ({i},{j})"
                )
    return GTAssignment(choice)


def check_level_confinement(out: ReductionOutput, ps: PathSet) -> bool:
    """True iff each path's edges stay inside its own row or column stratum.

    Path i must keep every edge within the vertical stratum of column i and
    path k+j within the horizontal stratum of row j.
    """
    k = out.provenance.k
    if len(ps.paths) != 2 * k:
        raise ValueError(f"expected {2 * k} paths, got {len(ps.paths)}")
    ids = out.graph._id
    for idx, path in enumerate(ps.paths):
        fam, index = _FAMILIES[idx // k], idx % k + 1
        # a path without edges has nothing to confine
        if len(path) > 1 and not (all(map(ids.__contains__, path)) and all(_in_level(v, fam, index) for v in path)):
            return False
    return True
