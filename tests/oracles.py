"""Pointwise oracles for the whole-grid kernels of cylcoh.

point_eval applies the cubic stencils of _interp point by point, and
cone_pullback_fiber evaluates the cone pullback at a single point; the
tests hold scaled_eval and K_y against them.
"""

import itertools

import numpy as np

from cylcoh._interp import _axis_stencil
from cylcoh.homotopy import DEGREE0_MSG, _inside, _require_box


def point_eval(field, domain, pts):
    """Evaluate a sampled scalar field at points of shape (m, dim) or (dim,)."""
    pts = np.asarray(pts, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    stencils = [_axis_stencil(domain, ax, pts[:, ax]) for ax in range(domain.dim)]
    out = np.zeros(pts.shape[0])
    for taps in itertools.product(*[range(len(s[0])) for s in stencils]):
        w = np.ones(pts.shape[0])
        ix = []
        for ax, tap in enumerate(taps):
            idx, wts = stencils[ax]
            w = w * wts[tap]
            ix.append(idx[tap])
        out += w * field[tuple(ix)]
    return out[0] if squeeze else out


def cone_pullback_fiber(omega, y, x, t):
    """Coefficients of (psi_y^* omega)_1 at the point x, parameter t.

    Returns a dict over increasing multi-indices of length k-1.
    """
    dom = omega.domain
    _require_box(dom, "cone pullback")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not _inside(dom, x) or not _inside(dom, y):
        raise ValueError("x or y outside domain")
    psi = t * x + (1.0 - t) * y
    tk = t ** (omega.degree - 1)
    out = {}
    for idx, field in omega.coeffs.items():
        val = point_eval(field, dom, psi)
        for r, a in enumerate(idx):
            sign = -1.0 if r % 2 else 1.0
            jdx = idx[:r] + idx[r + 1 :]
            out[jdx] = out.get(jdx, 0.0) + sign * tk * val * (x[a] - y[a])
    return out
