"""Sampled differential forms, exterior derivative, warped L^p norms.

A GridForm stores one coefficient field per increasing multi-index.  On a
cylinder the t axis is axis 0 and every form splits uniquely as

    omega = omega_A + dt ^ omega_B

where neither part involves dt.  Since dt sits leftmost and 0 precedes all
fiber indices, the coefficient of omega_B at fiber index I equals the
coefficient of omega at (0,) + I with no sign flip.
"""

import itertools

import numpy as np

from .weights import WeightProfile


def increasing_indices(dim, k):
    """All increasing multi-index tuples of length k drawn from range(dim)."""
    if k < 0 or k > dim:
        return []
    return list(itertools.combinations(range(dim), k))


class GridForm:
    """Degree-k differential form sampled on a tensor grid.

    Parameters
    ----------
    domain : DomainSpec
    degree : int
        0 <= degree <= domain.dim.
    coeffs : dict, optional
        Maps increasing multi-index tuples to sampled fields; indices not
        given start at zero.
    """

    def __init__(self, domain, degree, coeffs=None):
        degree = int(degree)
        if degree < 0 or degree > domain.dim:
            raise ValueError(f"degree {degree} out of range for dim {domain.dim}")
        self.domain = domain
        self.degree = degree
        self.coeffs = {
            idx: np.zeros(domain.grid) for idx in increasing_indices(domain.dim, degree)
        }
        if coeffs:
            for idx, field in coeffs.items():
                self[idx] = field

    @classmethod
    def zeros(cls, domain, degree):
        return cls(domain, degree)

    @classmethod
    def from_callable(cls, domain, degree, fns):
        """Sample callables fns[idx](*mesh) into a form; a bare callable
        is accepted for 0-forms."""
        if callable(fns):
            fns = {(): fns}
        form = cls(domain, degree)
        for idx, fn in fns.items():
            form[idx] = fn(*domain.meshgrid()) if callable(fn) else fn
        return form

    def _check_index(self, idx):
        idx = tuple(int(i) for i in idx)
        if idx not in self.coeffs:
            raise KeyError(f"bad multi-index {idx} for degree {self.degree}")
        return idx

    def __getitem__(self, idx):
        return self.coeffs[self._check_index(idx)]

    def __setitem__(self, idx, field):
        idx = self._check_index(idx)
        field = np.asarray(field, dtype=float) * np.ones(self.domain.grid)
        if field.shape != self.domain.grid:
            raise ValueError(f"field shape {field.shape} != grid {self.domain.grid}")
        self.coeffs[idx] = field

    def copy(self):
        return GridForm(self.domain, self.degree, self.coeffs)

    def _binary(self, other, op):
        if not isinstance(other, GridForm):
            return NotImplemented
        if other.degree != self.degree or other.domain.grid != self.domain.grid:
            raise ValueError("form mismatch")
        out = GridForm(self.domain, self.degree)
        for idx in self.coeffs:
            out.coeffs[idx] = op(self.coeffs[idx], other.coeffs[idx])
        return out

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        out = GridForm(self.domain, self.degree)
        for idx in self.coeffs:
            out.coeffs[idx] = self.coeffs[idx] * float(c)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def max_abs(self):
        """Sup of the Euclidean coefficient norm over the grid."""
        if not self.coeffs:
            return 0.0
        return float(max(np.abs(f).max() for f in self.coeffs.values()))

    def allclose(self, other, atol=1e-12):
        diff = self - other
        return diff.max_abs() <= atol

    def __repr__(self):
        return f"GridForm(degree={self.degree}, grid={self.domain.grid})"


def _partial(field, domain, ax):
    """Finite-difference d/dx_ax: order-2 central, one-sided at closed ends."""
    h = domain.spacing(ax)
    if domain.periodic[ax]:
        return (np.roll(field, -1, axis=ax) - np.roll(field, 1, axis=ax)) / (2.0 * h)
    return np.gradient(field, h, axis=ax, edge_order=2)


def exterior_derivative(omega):
    """Finite-difference exterior derivative, degree k -> k+1.

    d(f dx_I) = sum over axes a not in I of sign * (df/dx_a) dx_{sort(I+a)},
    sign = (-1)^(number of entries of I below a).
    """
    dom = omega.domain
    if omega.degree >= dom.dim:
        raise ValueError("top degree form has no exterior derivative")
    out = GridForm(dom, omega.degree + 1)
    for idx, field in omega.coeffs.items():
        for ax in range(dom.dim):
            if ax in idx:
                continue
            pos = sum(1 for i in idx if i < ax)
            sign = -1.0 if pos % 2 else 1.0
            jdx = tuple(sorted(idx + (ax,)))
            out.coeffs[jdx] += sign * _partial(field, dom, ax)
    return out


def decompose_cylinder(omega):
    """Split omega = omega_A + dt ^ omega_B on a cylinder (t = axis 0).

    Returns (omega_A, omega_B) of degrees (k, k-1); only fiber indices of
    either part carry nonzero coefficients.
    """
    dom = omega.domain
    if dom.kind == "box":
        raise ValueError("not a cylinder")
    if omega.degree == 0:
        raise ValueError("degree-0 form has no dt part; the split is trivial")
    omega_a = GridForm(dom, omega.degree)
    omega_b = GridForm(dom, omega.degree - 1)
    for idx, field in omega.coeffs.items():
        if idx[0] == 0:
            omega_b.coeffs[idx[1:]] = field.copy()
        else:
            omega_a.coeffs[idx] = field.copy()
    return omega_a, omega_b


def recompose_cylinder(omega_a, omega_b):
    """Inverse of decompose_cylinder: omega_A + dt ^ omega_B."""
    dom = omega_a.domain
    out = GridForm(dom, omega_a.degree)
    for idx, field in omega_a.coeffs.items():
        if not idx or idx[0] != 0:
            out.coeffs[idx] = field.copy()
    for idx, field in omega_b.coeffs.items():
        if not idx or idx[0] != 0:
            out.coeffs[(0,) + idx] = field.copy()
    return out


def _split_squares(omega):
    """Sums of squared coefficients of the A and B parts (B = dt-carrying)."""
    grid = omega.domain.grid
    a2 = np.zeros(grid)
    b2 = np.zeros(grid)
    for idx, field in omega.coeffs.items():
        if idx and idx[0] == 0:
            b2 += field * field
        else:
            a2 += field * field
    return a2, b2


def pointwise_norm(omega, at=None):
    """Warped pointwise norm field |omega(t,x)|, or its value at one grid point.

    On a twisted cylinder with warp h this is
    (h^(-2k) |omega_A|^2 + h^(-2(k+1)) |omega_B|^2)^(1/2); with h == 1 it
    reduces to the Euclidean coefficient norm, which is what boxes and
    plain cylinders get.
    """
    dom = omega.domain
    a2, b2 = _split_squares(omega)
    if dom.kind == "twisted-cylinder":
        k = omega.degree
        h = dom.warp
        field = np.sqrt(h ** (-2.0 * k) * a2 + h ** (-2.0 * (k + 1)) * b2)
    else:
        field = np.sqrt(a2 + b2)
    if at is None:
        return field
    return float(field[tuple(at)])


def _weight_field(weight, domain):
    if weight is None:
        return None
    if isinstance(weight, WeightProfile):
        return weight.sample_on(domain)
    if callable(weight):
        return domain.sample(weight)
    return np.asarray(weight, dtype=float) * np.ones(domain.grid)


def lp_norm(omega, p, weight=None):
    """Weighted L^p norm by tensor trapezoid quadrature.

    Twisted cylinders use the warped density
    (h^(2(n/p-k)) |omega_A|^2 + h^(2(n/p-k+1)) |omega_B|^2)^(1/2) with
    n the fiber dimension; the weight enters as sigma^p inside the
    integral.  p = inf takes the weighted sup instead.
    """
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    dom = omega.domain
    a2, b2 = _split_squares(omega)
    if dom.kind == "twisted-cylinder":
        k = omega.degree
        n = dom.fiber_dim
        e = 0.0 if np.isinf(p) else n / p
        h = dom.warp
        dens = np.sqrt(h ** (2.0 * (e - k)) * a2 + h ** (2.0 * (e - k + 1)) * b2)
    else:
        dens = np.sqrt(a2 + b2)
    sigma = _weight_field(weight, dom)
    if np.isinf(p):
        if sigma is not None:
            dens = dens * sigma
        return float(dens.max())
    integrand = dens**p
    if sigma is not None:
        integrand = integrand * sigma**p
    return float(dom.integrate(integrand) ** (1.0 / p))


def fF_profiles(domain, k, p):
    """Fiber-wise min and max of h^(n/p - k) as t-only weight profiles."""
    if domain.kind != "twisted-cylinder":
        raise ValueError("fF profiles need a twisted cylinder with warp")
    e = domain.fiber_dim / float(p) - k
    powed = domain.warp**e
    fiber_axes = tuple(range(1, domain.dim))
    tcoords = domain.axis_coords(0)
    f = WeightProfile.sampled_t(tcoords, powed.min(axis=fiber_axes))
    F = WeightProfile.sampled_t(tcoords, powed.max(axis=fiber_axes))
    return f, F


# Seeded analytic test forms.  Forms are drawn as parameter sets first
# and sampled on a grid second, so convergence studies can rerun the same
# form on finer grids.  The trig amplitude is the knob: coefficients are
# multilinear plus one sine mode per axis, and the multilinear part is
# reproduced exactly by the homotopy-operator quadratures, so the
# amplitude controls how much genuine O(h^2) error a family carries.
# Periodic axes get no linear term, so samples stay consistent with the
# wrap.


def draw_coeff_params(dim, rng, amplitude, periodic=None):
    periodic = (False,) * dim if periodic is None else periodic
    return {
        "const": rng.uniform(0.3, 1.0),
        "lin": [0.0 if periodic[a] else rng.uniform(-0.5, 0.5) for a in range(dim)],
        "amp": [amplitude * rng.uniform(0.5, 1.0) for a in range(dim)],
        "phase": [rng.uniform(0.0, 2.0 * np.pi) for a in range(dim)],
    }


def draw_form_params(dim, degree, rng, amplitude=0.2, periodic=None):
    return {
        idx: draw_coeff_params(dim, rng, amplitude, periodic)
        for idx in increasing_indices(dim, degree)
    }


def sample_coeff(dom, cp):
    mesh = dom.meshgrid()
    out = cp["const"] * np.ones(dom.grid)
    for a in range(dom.dim):
        lo, hi = dom.bounds[a]
        th = (mesh[a] - lo) / (hi - lo)
        out = out + cp["lin"][a] * th
        out = out + cp["amp"][a] * np.sin(2.0 * np.pi * th + cp["phase"][a])
    return out


def sample_form(dom, degree, params):
    om = GridForm.zeros(dom, degree)
    for idx, cp in params.items():
        om.coeffs[idx] = sample_coeff(dom, cp)
    return om


def random_form(dom, degree, rng, amplitude=0.2):
    params = draw_form_params(dom.dim, degree, rng, amplitude, dom.periodic)
    return sample_form(dom, degree, params)
