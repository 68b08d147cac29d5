"""Cone homotopy operator K_y and its weighted average A_alpha.

Both act on forms over a convex box by contracting along the straight
lines psi_y(x, t) = t*x + (1-t)*y.  The dt-component of the pullback is

    (psi_y^* omega)_1 = t^(k-1) sum_I f_I(psi) sum_r (-1)^(r-1)
                         (x_{i_r} - y_{i_r}) dx_{I minus i_r}

and K_y omega integrates it over t in [0,1] by Gauss-Legendre.  The
stencil matrices that evaluate a field at t*x + (1-t)*y depend only on
the axis, the t-node and y, so K_y builds each axis's matrices once per
block of t-nodes, with the quadrature weight w_t t^(k-1) folded into the
last axis's matrices, and applies them to every coefficient; the factor
x_a - y_a multiplies the t-integral afterwards, as a 1-D array broadcast
along axis a.

A_alpha averages K_y over centers y against a unit-mass weight
alpha(y) = a(y_0), piecewise linear in y_0.  After z = t*x + (1-t)*y it
is a sum of box integrals of a((z_0 - t*x_0)/(1-t)) (x_a - z_a) f_I(z)
over t*x + (1-t)*D, which are separable: one window matrix per axis,
applied in turn, evaluates them for every x at once.  Each axis's
matrices come from one build per block of t-nodes (and piece of a) and
serve every coefficient.  Both operators, like C_integral, keep each
build within _interp.STACK_BYTES and apply it by _interp.apply_axes.
"""

import math

import numpy as np

from ._interp import (_frac, apply_axes, edge_integral, gauss01, law_exponent, node_blocks,
                      powerlaw_mass, scaled_axis_matrices, scaled_eval, window_stack)
from .forms import GridForm
from .weights import WeightProfile

# perfbench/tracing.py wraps scaled_eval and _box_integral here: call them by these names
_box_integral = apply_axes

DEGREE0_MSG = "K_y is zero on 0-forms; use the identity f - f(y) instead"
PIECEWISE_LINEAR = ("constant", "sampled-t")


def _require_box(domain, who):
    if domain.kind != "box" or any(domain.periodic):
        raise ValueError(f"{who} needs a convex box domain (no periodic axes)")


def _inside(domain, pt):
    eps = 1e-12
    return all(
        lo - eps <= c <= hi + eps for c, (lo, hi) in zip(pt, domain.bounds)
    )


def K_y(omega, y, t_nodes=32):
    """Cone homotopy operator: degree k -> k-1, K_y d + d K_y = id.

    Each axis's stencil matrices come from one build per block of
    t-nodes, with the quadrature weight w_t t^(k-1) folded into the last
    axis's, and serve every coefficient; each coefficient's t-integral
    runs on across the blocks.
    """
    dom = omega.domain
    _require_box(dom, "K_y")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    y = np.asarray(y, dtype=float)
    if not _inside(dom, y):
        raise ValueError("x or y outside domain")
    nodes, wts = gauss01(t_nodes)
    wts = wts * nodes ** (omega.degree - 1)
    # reused grid-sized buffers: fresh arrays per t-node let malloc hand
    # their pages back to the system and fault them in again
    work = (np.empty(dom.grid).ravel(), np.empty(dom.grid).ravel())
    # (x_a - y_a) does not depend on t, so integrate f_I(psi) first; zeros_like
    # fills a malloc'd array, where np.zeros' calloc can map fresh pages
    fint = {idx: np.zeros_like(field, dtype=float) for idx, field in omega.coeffs.items()}
    for block in node_blocks(len(nodes), 8 * max(dom.grid) ** 2):
        mats = [scaled_axis_matrices(dom, ax, y, nodes[block]) for ax in range(dom.dim)]
        for (mat, _), w in zip(mats[-1], wts[block]):
            mat *= w
        for idx, field in omega.coeffs.items():
            for node_mats in zip(*mats):
                fint[idx] += scaled_eval(field, node_mats, work)
    out = GridForm(dom, omega.degree - 1)
    for idx, f in fint.items():
        for r, a in enumerate(idx):
            lever = (dom.axis_coords(a) - y[a]).reshape((-1,) + (1,) * (dom.dim - 1 - a))
            term = np.multiply(f, -lever if r % 2 else lever, out=work[0].reshape(dom.grid))
            out.coeffs[idx[:r] + idx[r + 1 :]] += term
    return out


def _fiber_moment(D, pprime, t):
    """The fiber trapezoid integral of (t^2 + |x|^2)^(p'/2) at each t."""
    axes = [D.axis_coords(a) for a in range(1, D.dim)]
    if not axes:
        return np.abs(t) ** pprime
    fibersq = sum(m**2 for m in np.meshgrid(*axes, indexing="ij"))
    g = (t.reshape((-1,) + (1,) * len(axes)) ** 2 + fibersq) ** (pprime / 2.0)
    for a in range(D.dim - 1, 0, -1):
        g = (g * D.quad_weights(a)).sum(axis=-1)
    return g


def check_admissible_weight(alpha, D, p):
    """Admissibility of a centering weight: unit mass and finite dual norms.

    Checks int alpha = 1 (tol 1e-8), ||alpha||_{p'} < inf and
    ||alpha(y)|y||_{p'} < inf with p' = p/(p-1) exactly (sup norm when
    p = 1).  A constant or sampled-t alpha's mass is the exact integral
    that A_alpha reads (_pieces).  Power-law divergence is decided by the
    exponent rule, not by overflow; a power law pivoting at the right
    t-edge is never sampled on the closed grid: its masses are exact and
    ||alpha(y)|y|||_{p'} takes the edge rule.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    exact_pprime = np.inf if p == 1 else _frac(p) / (_frac(p) - 1)
    pprime = float(exact_pprime)

    violations = []
    lo0, hi0 = D.bounds[0]
    fiber_vol = math.prod(hi - lo for lo, hi in D.bounds[1:])

    if alpha.kind == "powerlaw" and alpha.lam > 0 and alpha.pivot <= hi0:
        mass = fiber_vol * powerlaw_mass(alpha.lam, alpha.pivot, lo0, hi0)
        # p' = inf makes e infinite, and the mass says the sup norm diverges
        e = law_exponent(alpha.lam, exact_pprime)
        amass = powerlaw_mass(e, alpha.pivot, lo0, hi0)
        anorm = mnorm = np.inf
        if np.isfinite(amass):
            anorm = (fiber_vol * amass) ** (1.0 / pprime)
            total = edge_integral(e, lo0, hi0, lambda t: _fiber_moment(D, pprime, t))
            mnorm = total ** (1.0 / pprime)
    else:
        field = alpha.sample_on(D)
        mass = _pieces(alpha, D)[2] if alpha.kind in PIECEWISE_LINEAR else D.integrate(field)
        moment = np.sqrt(sum(c**2 for c in D.meshgrid()))
        if np.isinf(pprime):
            anorm = float(field.max())
            mnorm = float((field * moment).max())
        else:
            anorm = D.integrate(field**pprime) ** (1.0 / pprime)
            mnorm = D.integrate((field * moment) ** pprime) ** (1.0 / pprime)

    if not (np.isfinite(mass) and abs(mass - 1.0) <= 1e-8):
        violations.append(f"unit mass (got {mass:.6g})")
    if not np.isfinite(anorm):
        violations.append("||alpha||_p' divergent")
    if not np.isfinite(mnorm):
        violations.append("||alpha |y|||_p' divergent")

    return {
        "admissible": not violations,
        "violations": violations,
        "mass": mass,
        "alpha_norm": anorm,
        "moment_norm": mnorm,
        "pprime": pprime,
    }


def _pieces(alpha, D):
    """The breakpoints u of a constant or sampled-t alpha on axis 0 of D,
    between which it is linear, alpha at u, and its exact mass."""
    (lo, hi), fiber = D.bounds[0], D.bounds[1:]
    knots = alpha.tcoords if alpha.kind == "sampled-t" else np.empty(0)
    u = np.union1d([lo, hi], knots[(knots > lo) & (knots < hi)])
    a = alpha.eval_t(u)
    return u, a, math.prod(b - c for c, b in fiber) * float(np.diff(u) @ (a[1:] + a[:-1])) / 2.0


def _window_rows(dom, ax, t, cuts, vals, lever_scale=None):
    """Axis ax's rows for the t-nodes t over the windows
    t*x_r + (1-t)*[cuts[0], cuts[-1]]: the integrals of w(z) phi_i(z) and,
    unless lever_scale is None, lever_scale times those of
    (x_r - z) w(z) phi_i(z), for the hat phi_i of node x_i and w linear
    between the images of cuts, where it is vals.  About x_i, w is
    w(x_i) + c1 (z - x_i); the local moments of (z - x_i)^n phi_i keep the
    rounding small where c1 = slope / (1-t) is large, near t = 1."""
    xs = dom.axis_coords(ax)
    dx = xs[:, None] - xs
    plain = lever = None
    for j in range(len(cuts) - 1):
        lower, upper = (t * xs + (1.0 - t) * c for c in cuts[j : j + 2])
        slope = (vals[j + 1] - vals[j]) / (cuts[j + 1] - cuts[j])
        coefs = [vals[j]]
        if slope:
            c1 = (slope / (1.0 - t))[..., None]
            coefs = [vals[j] + c1 * (xs - lower[..., None]), c1]
        rows = [window_stack(dom, ax, lower, upper, n)
                for n in (None, 1, 2)[: len(coefs) + (lever_scale is not None)]]
        for n, c in enumerate(coefs):
            if lever_scale is not None:
                term = dx * rows[n]
                term -= rows[n + 1]
                term *= c * lever_scale
                lever = term if lever is None else lever + term
            rows[n] *= c  # in place: the lever above was the last reader
            plain = rows[n] if plain is None else plain + rows[n]
    return plain, lever


def A_alpha(omega, alpha, t_nodes=16):
    """Averaged homotopy operator A_alpha omega = int alpha(y) K_y omega dy.

    alpha is a unit-mass constant or sampled-t weight, taken exactly as
    its piecewise-linear interpolant (clamped ends included); full-grid
    and power-law weights are refused.  Per t-node, each index I and each
    a in I give one box integral: the lever rows of x_a - z_a, scaled by
    w_t t^(k-1) (1-t)^-(dim+1), on axis a and the plain rows elsewhere.
    Exact on multilinear coefficient fields at each t-node.
    """
    dom = omega.domain
    _require_box(dom, "A_alpha")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    if not isinstance(alpha, WeightProfile) or alpha.kind not in PIECEWISE_LINEAR:
        raise ValueError(f"A_alpha takes a constant or sampled-t centering weight, not {alpha!r}")
    cuts, vals, mass = _pieces(alpha, dom)
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"alpha is not unit mass (got {mass:.6g})")
    nodes, wts = gauss01(t_nodes)
    pref = wts * nodes ** (omega.degree - 1) / (1.0 - nodes) ** (dom.dim + 1)
    levered = {a for idx in omega.coeffs for a in idx}
    work = (np.empty(dom.grid).ravel(), np.empty(dom.grid).ravel())
    out = GridForm(dom, omega.degree - 1)
    for block in node_blocks(len(nodes), 8 * max(dom.grid) ** 2):
        t = nodes[block, None]
        plain, lever = [], []
        for ax, ends in enumerate(dom.bounds):
            knots = (cuts, vals) if ax == 0 else (ends, (1.0, 1.0))
            scale = pref[block, None, None] if ax in levered else None
            rows, levers = _window_rows(dom, ax, t, *knots, scale)
            plain.append(rows)
            lever.append(levers)
        for i in range(t.shape[0]):
            for idx, field in omega.coeffs.items():
                for r, a in enumerate(idx):
                    mats = [lever[a][i] if ax == a else plain[ax][i] for ax in range(dom.dim)]
                    box = _box_integral(field, mats, work)
                    acc = out.coeffs[idx[:r] + idx[r + 1 :]]
                    (np.subtract if r % 2 else np.add)(acc, box, out=acc)
    return out
