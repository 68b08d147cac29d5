"""Fiber covers of periodic cylinders, their nerves and partitions of unity.

Patches are products of node-index runs (arcs) on the periodic fiber
axes.  A run (start, count) means nodes start .. start+count-1 taken mod
the axis size; unrolling a run gives a plain box chart, so every patch
and every intersection component is a box on which the cone-type
operators apply.  All restrictions are exact selections by slices (a
run through the seam is two of them), which is what keeps the gluing
recursion free of resampling error.

A cover builds its Cech nerve once, when it is constructed: the cells
(index tuple, component) of every depth with their charts, faces and
slice pieces (GoodCover.cells), which is all the gluing in cech reads.
"""

import itertools

import numpy as np

from .domain import box


def _mask_runs(mask):
    """Maximal circular runs of True in a boolean mask, as (start, count)."""
    m = len(mask)
    if mask.all():
        return [(0, m)]
    if not mask.any():
        return []
    starts = np.where(mask & ~np.roll(mask, 1))[0]
    out = []
    for s in starts:
        c = 0
        while mask[(s + c) % m]:
            c += 1
        out.append((int(s), c))
    return sorted(out)


def _run_mask(run, m):
    mask = np.zeros(m, dtype=bool)
    mask[(run[0] + np.arange(run[1])) % m] = True
    return mask


def _bump_values(run, m):
    """C^2 bump profile of an arc at the axis nodes, zero outside.

    u(1-u) cubed has triple zeros at the arc endpoints, so products
    extended by zero stay twice differentiable across the seam.
    """
    s, c = run
    ell = (np.arange(m) - s) % m
    vals = np.zeros(m)
    inside = ell <= c - 1
    u = ell[inside] / (c - 1)
    vals[inside] = (u * (1.0 - u)) ** 3
    return vals


class PartitionOfUnity:
    """Normalized bump functions rho_j subordinate to the cover patches.

    Bump j is the product of its per-axis profiles, profiles[j][ax]: a
    profile of the node values on each periodic axis, None on the others,
    which every patch spans.  fields[j] is bump j over the sum of all
    bumps, sampled on the fiber grid and lifted t-independently (the
    arrays broadcast along every non-periodic axis)."""

    def __init__(self, cover, profiles):
        dim = cover.domain.dim
        bumps = []
        for prof in profiles:
            f = np.ones([1] * dim)
            for ax, vals in enumerate(prof):
                if vals is not None:
                    f = f * vals.reshape([-1 if a == ax else 1 for a in range(dim)])
            bumps.append(f)
        total = sum(bumps)
        if total.min() <= 0:
            raise ValueError("cover bumps leave part of the fiber uncovered")
        self.cover = cover
        self.profiles = profiles
        self.fields = [f / total for f in bumps]

    def validate(self):
        """Checks the sum and, per axis, each bump's profile: nonnegative
        and zero off its patch's arc, which is where the bump vanishes."""
        total = sum(self.fields)
        if np.max(np.abs(total - 1.0)) > 1e-10:
            raise ValueError("partition does not sum to 1")
        for i, prof in enumerate(self.profiles):
            runs = self.cover.patch_runs(i)
            for ax, vals in enumerate(prof):
                if vals is None:
                    continue
                if vals.min() < 0:
                    raise ValueError("negative bump value")
                if np.any(vals[~_run_mask(runs[ax], vals.size)] != 0):
                    raise ValueError(f"bump {i} leaks outside its patch on axis {ax}")
        return True


class GoodCover:
    """Cover of a cylinder by products of arcs on its periodic axes.

    axis_arcs has one entry per axis: None on non-periodic axes (patches
    span them fully), a list of (start, count) runs on periodic ones.
    Patches are all combinations of one arc choice per periodic axis.
    Intersections may be disconnected; everything downstream works per
    connected component, each of which is again a box.  The whole domain
    is the component full, the runs of every node on every axis: it is
    the single component of the empty intersection, which Cech depth 0
    indexes.
    """

    def __init__(self, domain, axis_arcs):
        if len(axis_arcs) != domain.dim:
            raise ValueError("need one arc list per axis")
        for ax, arcs in enumerate(axis_arcs):
            if domain.periodic[ax] and not arcs:
                raise ValueError(f"periodic axis {ax} needs arcs")
            if not domain.periodic[ax] and arcs is not None:
                raise ValueError(f"axis {ax} is not periodic")
        self.domain = domain
        self.axis_arcs = axis_arcs
        choices = [range(len(a)) if a is not None else [None] for a in axis_arcs]
        self.patch_labels = list(itertools.product(*choices))
        self.full = tuple((0, m) for m in domain.grid)
        self._check_interior_coverage()
        self._cells = self._build_cells()

    def __len__(self):
        return len(self.patch_labels)

    def _check_interior_coverage(self):
        for ax, arcs in enumerate(self.axis_arcs):
            if arcs is None:
                continue
            m = self.domain.grid[ax]
            covered = np.zeros(m, dtype=bool)
            for s, c in arcs:
                if not 3 <= c < m:
                    raise ValueError("arc must span at least two cells and not the whole axis")
                covered[(s + 1 + np.arange(c - 2)) % m] = True
            if not covered.all():
                raise ValueError(f"arc interiors do not cover axis {ax}")

    def patch_runs(self, i):
        label = self.patch_labels[i]
        runs = []
        for ax in range(self.domain.dim):
            if label[ax] is None:
                runs.append((0, self.domain.grid[ax]))
            else:
                runs.append(self.axis_arcs[ax][label[ax]])
        return tuple(runs)

    def components(self, I):
        """Connected components of V_I as tuples of per-axis runs."""
        per_axis = []
        for ax in range(self.domain.dim):
            if self.axis_arcs[ax] is None:
                per_axis.append([(0, self.domain.grid[ax])])
                continue
            m = self.domain.grid[ax]
            mask = np.ones(m, dtype=bool)
            for i in I:
                mask &= _run_mask(self.patch_runs(i)[ax], m)
            runs = _mask_runs(mask)
            if not runs:
                return []
            per_axis.append(runs)
        return [tuple(c) for c in itertools.product(*per_axis)]

    def component_domain(self, comp):
        """The unrolled box chart of one component; the domain itself for
        the depth-0 component self.full."""
        if comp == self.full:
            return self.domain
        bounds = []
        grid = []
        for ax, (s, c) in enumerate(comp):
            lo, hi = self.domain.bounds[ax]
            if not self.domain.periodic[ax]:
                bounds.append((lo, hi))
                grid.append(self.domain.grid[ax])
                continue
            if c < 3:
                raise ValueError(f"a component has {c} nodes on axis {ax} and a box "
                                 "chart needs 3; refine the grid")
            h = self.domain.spacing(ax)
            bounds.append((lo + s * h, lo + (s + c - 1) * h))
            grid.append(c)
        return box(bounds, tuple(grid))

    def _contains(self, parent, child):
        for ax, ((ps, pc), (cs, cc)) in enumerate(zip(parent, child)):
            m = self.domain.grid[ax]
            if pc < m and (cs - ps) % m + cc > pc:
                return False
        return True

    def index_between(self, parent, child, shape=None):
        """Slice pieces picking the child component out of an array laid
        out on the parent component (self.full for the whole domain).

        The pieces are a tuple of blocks (dst, src), each a tuple of one
        slice per axis: child[dst] = parent[src] for every block covers
        the child once.  Runs wrap mod the axis size, so a child run that
        crosses the seam of a whole axis splits into two pieces, and the
        blocks are every combination of one piece per axis.  Child must
        lie inside parent.  Axes where shape has size 1 take slice(None)
        on both sides, so partition fields keep broadcasting.
        """
        if not self._contains(parent, child):
            raise ValueError("component is not contained in the parent")
        per_axis = []
        for ax, ((ps, _), (cs, cc)) in enumerate(zip(parent, child)):
            if shape is not None and shape[ax] == 1:
                per_axis.append([(slice(None), slice(None))])
                continue
            m = self.domain.grid[ax]
            start = (cs - ps) % m
            head = min(cc, m - start)
            pieces = [(slice(0, head), slice(start, start + head))]
            if head < cc:
                pieces.append((slice(head, cc), slice(0, cc - head)))
            per_axis.append(pieces)
        return tuple((tuple(d for d, _ in combo), tuple(s for _, s in combo))
                     for combo in itertools.product(*per_axis))

    def _build_cells(self):
        l = len(self)
        # partition fields are the grid on periodic axes and size 1 elsewhere
        rho_shape = tuple(m if per else 1 for m, per in zip(self.domain.grid, self.domain.periodic))
        comps = {}
        table = []
        for depth in range(l + 1):
            cells = []
            for J in itertools.combinations(range(l), depth):
                comps[J] = self.components(J)
                for comp in comps[J]:
                    faces = []
                    for r in range(depth):
                        sub = J[:r] + J[r + 1 :]
                        parent = next(p for p in comps[sub] if self._contains(p, comp))
                        faces.append(((-1) ** r, J[r], (sub, parent),
                                      self.index_between(parent, comp)))
                    cells.append(((J, comp), self.component_domain(comp), tuple(faces),
                                  self.index_between(self.full, comp, rho_shape)))
            table.append(tuple(cells))
        return tuple(table)

    def cells(self, depth):
        """The Cech cells (key, chart, faces, rho_index) at one depth, in
        combinations x components order; none past the top depth len(self).

        key = (J, comp) is the cochain key, chart comp's unrolled box and
        rho_index picks comp out of a partition field.  Face r is (sign,
        patch, parent, index): (-1)**r, J[r], the key of the component of
        J minus J[r] containing comp, and index_between(parent, comp).
        """
        return self._cells[depth] if depth <= len(self) else ()

    def partition_of_unity(self):
        tables = [None if arcs is None else [_bump_values(run, m) for run in arcs]
                  for arcs, m in zip(self.axis_arcs, self.domain.grid)]
        return PartitionOfUnity(self, [
            [None if arc is None else tables[ax][arc] for ax, arc in enumerate(label)]
            for label in self.patch_labels
        ])


def _granularity(domain, ax):
    m = domain.grid[ax]
    if m % 16:
        raise ValueError("periodic axis size must be a multiple of 16")
    return m // 16


def circle_cover(domain):
    """Three arcs on the unique periodic axis; pairwise overlaps are single
    runs and the triple intersection is empty, so the nerve is a circle."""
    per = [ax for ax in range(domain.dim) if domain.periodic[ax]]
    if len(per) != 1:
        raise ValueError("circle cover needs exactly one periodic axis")
    r = _granularity(domain, per[0])
    arcs = [(0, 6 * r + 1), (5 * r, 6 * r + 1), (10 * r, 7 * r + 1)]
    return GoodCover(domain, [arcs if ax == per[0] else None for ax in range(domain.dim)])


def torus_cover(domain):
    """Two overlapping arcs per periodic axis, four patches in total.

    Pairwise intersections on each axis have two runs, so patch overlaps
    are disconnected; components carry the bookkeeping.
    """
    per = [ax for ax in range(domain.dim) if domain.periodic[ax]]
    if len(per) != 2:
        raise ValueError("torus cover needs exactly two periodic axes")
    axis_arcs = []
    for ax in range(domain.dim):
        if ax in per:
            r = _granularity(domain, ax)
            axis_arcs.append([(0, 9 * r + 1), (8 * r, 9 * r + 1)])
        else:
            axis_arcs.append(None)
    return GoodCover(domain, axis_arcs)
