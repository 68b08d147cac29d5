"""Tensor-grid domains: boxes and product cylinders.

Axis 0 of a cylinder is the interval [a, b); the remaining axes form the
fiber, modeled as a flat torus (periodic axes) or a box.  Non-periodic
axes are sampled on the closed interval (trapezoid quadrature), periodic
axes on the half-open interval (rectangle rule).
"""

import numpy as np

KINDS = ("box", "cylinder")


class DomainSpec:
    """A tensor product of intervals with per-axis sample counts.

    Parameters
    ----------
    kind : str
        One of "box", "cylinder".
    bounds : sequence of (lo, hi)
        Per-axis intervals; all lengths must be positive and finite.
    grid : sequence of int
        Samples per axis, at least 3 each.
    periodic : sequence of bool, optional
        Periodic (wrap-around) axes.  Defaults to all False.  Axis 0 of
        a cylinder must not be periodic.
    """

    def __init__(self, kind, bounds, grid, periodic=None):
        if kind not in KINDS:
            raise ValueError(f"unknown domain kind {kind!r}")
        self.kind = kind
        try:
            self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        except (TypeError, ValueError):
            raise ValueError(
                f"bounds must be a sequence of (lo, hi) pairs, got {bounds!r}"
            ) from None
        self.grid = tuple(int(m) for m in grid)
        if periodic is None:
            periodic = (False,) * len(self.bounds)
        self.periodic = tuple(bool(f) for f in periodic)

        if not (len(self.bounds) == len(self.grid) == len(self.periodic)):
            raise ValueError("bounds, grid, periodic must have equal length")
        for lo, hi in self.bounds:
            if not np.isfinite([lo, hi]).all() or hi <= lo:
                raise ValueError(f"bad interval ({lo}, {hi})")
        for m in self.grid:
            if m < 3:
                raise ValueError("need at least 3 samples per axis")

        if kind == "cylinder":
            if self.dim < 2:
                raise ValueError("cylinder needs a fiber axis")
            if self.periodic[0]:
                raise ValueError("cylinder axis 0 cannot be periodic")

    @property
    def dim(self):
        return len(self.bounds)

    def axis_coords(self, ax):
        lo, hi = self.bounds[ax]
        m = self.grid[ax]
        if self.periodic[ax]:
            return lo + (hi - lo) * np.arange(m) / m
        return np.linspace(lo, hi, m)

    def axes(self):
        return [self.axis_coords(ax) for ax in range(self.dim)]

    def spacing(self, ax):
        lo, hi = self.bounds[ax]
        m = self.grid[ax]
        return (hi - lo) / (m if self.periodic[ax] else m - 1)

    def spacings(self):
        return [self.spacing(ax) for ax in range(self.dim)]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def quad_weights(self, ax):
        """1-D quadrature weights along one axis (trapezoid / rectangle)."""
        h = self.spacing(ax)
        m = self.grid[ax]
        w = np.full(m, h)
        if not self.periodic[ax]:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    def integrate(self, field):
        """Tensor trapezoid integral of a sampled scalar field."""
        out = np.asarray(field, dtype=float)
        if out.shape != self.grid:
            raise ValueError(f"field shape {out.shape} != grid {self.grid}")
        for ax in range(self.dim):
            w = self.quad_weights(ax)
            shape = [1] * self.dim
            shape[ax] = -1
            out = out * w.reshape(shape)
        return float(out.sum())

    def norm(self, density, p, weight=None):
        """||density||_{L^p(weight)} of a nonnegative sampled density: the
        largest density * weight at p = inf, else
        integrate(density**p * weight**p) ** (1/p).  weight is None or a
        WeightProfile; a t-only one enters as its column at the axis-0
        nodes, broadcast over the fiber, so no grid-sized weight is built."""
        p = float(p)
        if weight is None:
            sigma = None
        elif weight.t_only:
            sigma = weight.eval_t(self.axis_coords(0)).reshape((-1,) + (1,) * (self.dim - 1))
        else:
            sigma = weight.sample_on(self)
        if p == np.inf:
            return float((density if sigma is None else density * sigma).max())
        field = density**p
        if sigma is not None:
            field *= sigma**p
        return self.integrate(field) ** (1.0 / p)

    @property
    def volume(self):
        lengths = [hi - lo for lo, hi in self.bounds]
        return float(np.prod(lengths))

    def with_grid(self, grid):
        """Same domain on a different grid."""
        return DomainSpec(self.kind, self.bounds, grid, self.periodic)

    def __eq__(self, other):
        if not isinstance(other, DomainSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.bounds == other.bounds
            and self.grid == other.grid
            and self.periodic == other.periodic
        )

    def __repr__(self):
        return (
            f"DomainSpec({self.kind!r}, bounds={self.bounds}, grid={self.grid}, "
            f"periodic={self.periodic})"
        )

    def to_dict(self):
        return {
            "kind": self.kind,
            "bounds": [list(b) for b in self.bounds],
            "grid": list(self.grid),
            "periodic": list(self.periodic),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], d["bounds"], d["grid"], d.get("periodic"))


def box(bounds, grid, periodic=None):
    return DomainSpec("box", bounds, grid, periodic)


def cylinder(t_bounds, fiber_bounds, grid):
    """Product cylinder [a,b) x N, the fiber a flat torus (periodic axes)."""
    return DomainSpec("cylinder", [t_bounds, *fiber_bounds], grid, [False] + [True] * len(fiber_bounds))

