"""Sampled differential forms, exterior derivative, weighted L^p norms.

A GridForm stores one coefficient field per increasing multi-index.
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
        """Largest absolute coefficient over the grid, sup_x max_I |f_I(x)|."""
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
            acc = out.coeffs[tuple(sorted(idx + (ax,)))]
            if sum(1 for i in idx if i < ax) % 2:
                acc -= _partial(field, dom, ax)
            else:
                acc += _partial(field, dom, ax)
    return out


def _weight_field(weight, domain):
    if weight is None:
        return None
    if isinstance(weight, WeightProfile):
        return weight.sample_on(domain)
    return np.asarray(weight, dtype=float) * np.ones(domain.grid)


def lp_norm(omega, p, weight=None):
    """Weighted L^p norm by tensor trapezoid quadrature.

    The density is the Euclidean coefficient norm sqrt(sum_I f_I^2); the
    weight sigma (None, a WeightProfile, or numbers broadcast to the grid)
    enters as sigma^p inside the integral.  p = inf takes the weighted sup
    instead.
    """
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    dom = omega.domain
    dens = np.sqrt(sum(f * f for f in omega.coeffs.values()))
    sigma = _weight_field(weight, dom)
    if np.isinf(p):
        if sigma is not None:
            dens = dens * sigma
        return float(dens.max())
    integrand = dens**p
    if sigma is not None:
        integrand = integrand * sigma**p
    return float(dom.integrate(integrand) ** (1.0 / p))


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
