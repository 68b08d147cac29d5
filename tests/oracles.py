"""Pointwise oracles for the whole-grid kernels of cylcoh.

point_eval applies the cubic stencils of _interp point by point,
cone_pullback_fiber evaluates the cone pullback at a single point, and
gauss_averaged_K sums K_y over Gauss centers; the tests hold
scaled_eval, K_y and A_alpha against them.  take and run_index read a
restriction between cover components block by block and by fancy
indexing of the wrapped runs, for the tests of the cover's slice pieces.
"""

import itertools

import numpy as np

from cylcoh._interp import _axis_stencil
from cylcoh.forms import GridForm
from cylcoh.homotopy import DEGREE0_MSG, K_y, _inside, _require_box


def point_eval(field, domain, pts):
    """Evaluate a sampled scalar field at points of shape (m, dim) or (dim,)."""
    pts = np.asarray(pts, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    stencils = [_axis_stencil(domain, ax, pts[:, ax]) for ax in range(domain.dim)]
    out = np.zeros(pts.shape[0])
    for taps in itertools.product(*[range(len(s[1])) for s in stencils]):
        w = np.ones(pts.shape[0])
        ix = []
        for ax, tap in enumerate(taps):
            start, wts = stencils[ax]
            w = w * wts[tap]
            ix.append(start + tap)
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


def gauss_averaged_K(omega, alpha, t_nodes):
    """A_alpha omega for a constant or sampled-t alpha, as K_y summed over
    centers y at the 2-point Gauss rule of each interval between alpha's
    knots on axis 0 (its clamped ends included) and of each fiber axis,
    weighted by alpha(y_0).  For multilinear coefficients the y-integrand
    at each t-node is a polynomial of degree <= 3 on each such cell, so
    the sum is exact."""
    dom = omega.domain
    x, w = np.polynomial.legendre.leggauss(2)
    rules = []
    for ax, (lo, hi) in enumerate(dom.bounds):
        cuts = [lo, hi]
        if ax == 0 and alpha.kind == "sampled-t":
            cuts = sorted({lo, hi} | {c for c in alpha.tcoords if lo < c < hi})
        pts, wts = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            pts += list(0.5 * (a + b) + 0.5 * (b - a) * x)
            wts += list(0.5 * (b - a) * w)
        rules.append(list(zip(pts, wts)))
    out = GridForm(dom, omega.degree - 1)
    for center in itertools.product(*rules):
        y = [c for c, _ in center]
        weight = np.prod([wt for _, wt in center]) * alpha.eval_t(y[0])
        out = out + weight * K_y(omega, y, t_nodes=t_nodes)
    return out


def take(arr, pieces):
    """arr restricted by GoodCover.index_between's slice pieces: a fresh
    array filled block by block, NaN wherever no block writes."""
    shape = [max(dst[ax].indices(n)[1] for dst, _ in pieces) for ax, n in enumerate(arr.shape)]
    out = np.full(shape, np.nan)
    for dst, src in pieces:
        out[dst] = arr[src]
    return out


def run_index(cover, parent, child, shape=None):
    """np.ix_ arrays picking child out of an array laid out on parent:
    node (cs - ps) % m + i, mod the axis size m, on each axis, and node 0
    on axes where shape has size 1."""
    idxs = []
    for ax, ((ps, _), (cs, cc)) in enumerate(zip(parent, child)):
        m = cover.domain.grid[ax]
        if shape is not None and shape[ax] == 1:
            idxs.append(np.zeros(1, dtype=int))
        else:
            idxs.append(((cs - ps) % m + np.arange(cc)) % m)
    return np.ix_(*idxs)
