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

A_alpha averages K_y over centers y against a unit-mass weight; for a
uniform weight the y-integral collapses, after the substitution
z = t*x + (1-t)*y, to box integrals of (x_a - z_a) f_I(z) over
t*x + (1-t)*D.  Those are separable: one window
matrix per axis, applied in turn, evaluates them for every x at once,
with the lever matrix x_a * P - M (plain and moment window matrices) on
axis a folding the factor x_a - z_a into a single box integral.  The
window matrices depend only on the axis, the t-node and the weight, so
each axis's matrices come from one build per block of t-nodes and are
shared by every coefficient.  Both operators, like C_integral, keep each
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
    p = 1).  Power-law divergence is decided by the exponent rule, not by
    overflow; a power law pivoting at the right t-edge is never sampled on
    the closed grid: its masses are exact and ||alpha(y)|y|||_{p'} takes
    the edge rule.
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
        mass = D.integrate(field)
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


def _a_alpha_uniform(omega, t_nodes):
    """A_alpha for the uniform unit-mass weight, via separable box integrals.

    With alpha = 1/|D| the substitution z = t*x + (1-t)*y turns the
    y-average of K_y into

        (1-t)^(-(dim+1)) / |D| * int_B (x_a - z_a) f_I(z) dz,

    B = t*x + (1-t)*D, whose ends along each axis depend on x_a alone.
    So for each index I and each a in I this is one box integral: the
    lever matrix x_a * P - M (plain and moment window matrices, scaled by
    the t-node's prefactor) on axis a and P on every other axis.  Per
    block of t-nodes, each axis's P, and M for every axis some index
    uses, come from one window_stack build each.
    """
    dom = omega.domain
    k = omega.degree
    nodes, wts = gauss01(t_nodes)
    pref = wts * nodes ** (k - 1) / (dom.volume * (1.0 - nodes) ** (dom.dim + 1))
    levered = {a for idx in omega.coeffs for a in idx}
    work = (np.empty(dom.grid).ravel(), np.empty(dom.grid).ravel())
    out = GridForm(dom, k - 1)
    for block in node_blocks(len(nodes), 8 * max(dom.grid) ** 2):
        t = nodes[block, None]
        plain, lever = [], {}
        for ax, (lo, hi) in enumerate(dom.bounds):
            xs = dom.axis_coords(ax)
            ends = (t * xs + (1.0 - t) * lo, t * xs + (1.0 - t) * hi)
            plain.append(window_stack(dom, ax, *ends))
            if ax in levered:
                moment = window_stack(dom, ax, *ends, "moment")
                lever[ax] = pref[block, None, None] * (xs[:, None] * plain[ax] - moment)
        for i in range(t.shape[0]):
            for idx, field in omega.coeffs.items():
                for r, a in enumerate(idx):
                    mats = [lever[a][i] if ax == a else plain[ax][i] for ax in range(dom.dim)]
                    box = _box_integral(field, mats, work)
                    acc = out.coeffs[idx[:r] + idx[r + 1 :]]
                    if r % 2:
                        acc -= box
                    else:
                        acc += box
    return out


def A_alpha(omega, alpha, t_nodes=16, y_grid=None):
    """Averaged homotopy operator A_alpha omega = int alpha(y) K_y omega dy.

    alpha must be a unit-mass weight on the (box) domain.  The uniform
    weight takes the separable box-integral path; other weights fall
    back to a tensor-trapezoid y-integration of K_y on a y_grid (default
    at most 9 points per axis), which is markedly slower.
    """
    dom = omega.domain
    _require_box(dom, "A_alpha")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    if not isinstance(alpha, WeightProfile):
        raise TypeError("alpha must be a WeightProfile")

    uniform = alpha.kind == "constant" and abs(alpha.value * dom.volume - 1.0) <= 1e-12
    if uniform and y_grid is None:
        return _a_alpha_uniform(omega, t_nodes)

    if y_grid is None:
        y_grid = [min(m, 9) for m in dom.grid]
    ydom = dom.with_grid(tuple(int(m) for m in y_grid))
    aw = alpha.sample_on(ydom)
    wts = np.ones(ydom.grid)
    for ax in range(ydom.dim):
        shape = [1] * ydom.dim
        shape[ax] = -1
        wts = wts * ydom.quad_weights(ax).reshape(shape)
    mass = float((aw * wts).sum())
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"alpha is not unit mass on the y-grid (got {mass:.6g})")
    out = GridForm(dom, omega.degree - 1)
    ypts = np.stack([c.ravel() for c in ydom.meshgrid()], axis=-1)
    for yw, y in zip((aw * wts).ravel(), ypts):
        if yw == 0.0:
            continue
        out = out + yw * K_y(omega, y, t_nodes=t_nodes)
    return out
