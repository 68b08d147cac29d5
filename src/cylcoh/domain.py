"""Tensor-grid domains: boxes, product cylinders, twisted cylinders.

Axis 0 of a cylinder is the interval [a, b); the remaining axes form the
fiber, modeled as a flat torus (periodic axes) or a box.  Non-periodic
axes are sampled on the closed interval (trapezoid quadrature), periodic
axes on the half-open interval (rectangle rule).
"""

import numpy as np

KINDS = ("box", "cylinder", "twisted-cylinder")


class DomainSpec:
    """A tensor product of intervals with per-axis sample counts.

    Parameters
    ----------
    kind : str
        One of "box", "cylinder", "twisted-cylinder".
    bounds : sequence of (lo, hi)
        Per-axis intervals; all lengths must be positive and finite.
    grid : sequence of int
        Samples per axis, at least 3 each.
    periodic : sequence of bool, optional
        Periodic (wrap-around) axes.  Defaults to all False.  Axis 0 of
        a cylinder must not be periodic.
    warp : ndarray, optional
        Sampled h(t, x) > 0 on the grid; required for twisted cylinders.
    """

    def __init__(self, kind, bounds, grid, periodic=None, warp=None):
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

        if kind in ("cylinder", "twisted-cylinder"):
            if self.dim < 2:
                raise ValueError("cylinder needs a fiber axis")
            if self.periodic[0]:
                raise ValueError("cylinder axis 0 cannot be periodic")

        if kind == "twisted-cylinder":
            if warp is None:
                raise ValueError("twisted cylinder requires warp samples")
            warp = np.asarray(warp, dtype=float)
            if warp.shape != self.grid:
                raise ValueError(
                    f"warp shape {warp.shape} does not match grid {self.grid}"
                )
            if not (warp > 0).all():
                raise ValueError("warp samples must be strictly positive")
        elif warp is not None:
            raise ValueError("warp only allowed on twisted cylinders")
        self.warp = warp

    @property
    def dim(self):
        return len(self.bounds)

    @property
    def fiber_dim(self):
        """Dimension of the fiber N of a cylinder [a,b) x N."""
        if self.kind == "box":
            raise ValueError("box has no fiber")
        return self.dim - 1

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

    @property
    def volume(self):
        lengths = [hi - lo for lo, hi in self.bounds]
        return float(np.prod(lengths))

    def sample(self, fn):
        """Sample a callable fn(*coord_arrays) on the mesh grid."""
        return np.asarray(fn(*self.meshgrid()), dtype=float) * np.ones(self.grid)

    def with_grid(self, grid, warp=None):
        """Same domain on a different grid (warp must be resampled by caller)."""
        if self.kind == "twisted-cylinder" and warp is None:
            raise ValueError("resampled warp required for twisted cylinders")
        return DomainSpec(self.kind, self.bounds, grid, self.periodic, warp)

    def __eq__(self, other):
        if not isinstance(other, DomainSpec):
            return NotImplemented
        same = (
            self.kind == other.kind
            and self.bounds == other.bounds
            and self.grid == other.grid
            and self.periodic == other.periodic
        )
        if not same:
            return False
        if self.warp is None:
            return other.warp is None
        return other.warp is not None and np.array_equal(self.warp, other.warp)

    def __repr__(self):
        return (
            f"DomainSpec({self.kind!r}, bounds={self.bounds}, grid={self.grid}, "
            f"periodic={self.periodic})"
        )

    def to_dict(self):
        d = {
            "kind": self.kind,
            "bounds": [list(b) for b in self.bounds],
            "grid": list(self.grid),
            "periodic": list(self.periodic),
        }
        if self.warp is not None:
            d["warp"] = self.warp.ravel().tolist()
        return d

    @classmethod
    def from_dict(cls, d):
        warp = d.get("warp")
        if warp is not None:
            warp = np.asarray(warp, dtype=float).reshape(tuple(d["grid"]))
        return cls(d["kind"], d["bounds"], d["grid"], d.get("periodic"), warp)


def box(bounds, grid, periodic=None):
    return DomainSpec("box", bounds, grid, periodic)


def cylinder(t_bounds, fiber_bounds, grid, periodic_fiber=True):
    """Product cylinder [a,b) x N, fiber periodic (torus) by default."""
    bounds = [t_bounds, *fiber_bounds]
    periodic = [False] + [periodic_fiber] * len(fiber_bounds)
    return DomainSpec("cylinder", bounds, grid, periodic)


def twisted_cylinder(t_bounds, fiber_bounds, grid, warp, periodic_fiber=True):
    """Twisted cylinder [a,b) x_h N; warp is a callable h(t, x) or samples."""
    bounds = [t_bounds, *fiber_bounds]
    periodic = [False] + [periodic_fiber] * len(fiber_bounds)
    spec = DomainSpec("cylinder", bounds, grid, periodic)
    if callable(warp):
        warp = warp(*spec.meshgrid())
    warp = np.asarray(warp, dtype=float) * np.ones(spec.grid)
    return DomainSpec("twisted-cylinder", bounds, grid, periodic, warp)
