"""Cone homotopy operator K_y and its weighted average A_alpha.

Both act on forms over a convex box by contracting along the straight
lines psi_y(x, t) = t*x + (1-t)*y.  The dt-component of the pullback is

    (psi_y^* omega)_1 = t^(k-1) sum_I f_I(psi) sum_r (-1)^(r-1)
                         (x_{i_r} - y_{i_r}) dx_{I minus i_r}

and K_y omega integrates it over t in [0,1] by Gauss-Legendre.  The
stencils that evaluate a field at t*x + (1-t)*y depend only on the
axis, the t-node and y, so K_y builds each axis's stencils once per
call, for every t-node (_interp.scaled_taps), fills each block of
t-nodes' matrices from them and applies those to every coefficient.
Per t-node, scaled_eval cuts the field to the nodes the stencils reach
on every axis, read in place, and applies the middle axes' and then the
last axis's stencils into that t-node's rows of one stack; the block's
axis-0 matrices, filled side by side and each times its quadrature
weight w_t t^(k-1), then take the whole stack in one product, which
sums the block's t-nodes.  The stack is made once per call, as is every
buffer of both operators.  The factor x_a - y_a multiplies the
t-integral afterwards, as a 1-D array broadcast along axis a.

A_alpha averages K_y over centers y against a unit-mass weight
alpha(y) = a(y_0), piecewise linear in y_0.  After z = t*x + (1-t)*y it
is a sum of box integrals of a((z_0 - t*x_0)/(1-t)) (x_a - z_a) f_I(z)
over t*x + (1-t)*D, which are separable: one window matrix per axis,
applied in turn, evaluates them for every x at once (sum
factorisation).  The terms share their factors: the output for J sums,
over a not in J, the lever rows on axis a times the plain rows on every
other axis applied to f_{J+a}.  So per t-node A_alpha applies the plain
rows outside I to each f_I once, one lever product per term, and the
plain rows of J to each sum once, every product one single-axis
_box_integral.  Each axis's rows come from one build per block of
t-nodes (and piece of a), memoised in _interp.window_rows without the
degree's and the volume's factors, so every chart with that axis reuses
them.  Both operators, like C_integral, keep each build within
_interp.STACK_BYTES.
"""

import math

import numpy as np

from ._interp import (_frac, axis_product, edge_integral, gauss01, law_exponent, linear_pieces,
                      node_blocks, scaled_axis_matrices, scaled_blocks, scaled_eval, scaled_taps,
                      weight_norm, window_rows)
from .forms import GridForm, increasing_indices
from .weights import WeightProfile

# perfbench/tracing.py wraps scaled_eval and _box_integral here: call them by
# these names; _box_integral is one single-axis product of A_alpha, and
# K_y's block products call axis_product, so they count in K_y's own time
_box_integral = axis_product

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

    Each axis's stencils for every t-node come from one scaled_taps call.
    Per block of t-nodes (_interp.scaled_blocks), each axis's matrices
    are filled from those taps and serve every coefficient: axis 0's
    side by side straight into one buffer, each times its w_t t^(k-1).
    Each t-node's slab of a coefficient (scaled_eval: every axis but 0)
    fills its rows of one stack, and one product with the block's axis-0
    matrices sums the block's t-nodes.  The taps, the stack (one grid at
    least), the axis-0 matrices, the t-integrals and the output are made
    once per call, and only the output outlives it: its first coefficient
    is the t-sums' scratch grid until the levers fill it, and the stack
    is the levers' scratch.  y must have one coordinate per axis.
    """
    dom = omega.domain
    _require_box(dom, "K_y")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    y = np.asarray(y, dtype=float)
    if y.shape != (dom.dim,):
        raise ValueError(f"y has shape {y.shape}, the {dom.dim}-D domain needs ({dom.dim},)")
    if not _inside(dom, y):
        raise ValueError("x or y outside domain")
    nodes, wts = gauss01(t_nodes)
    wts = wts * nodes ** (omega.degree - 1)
    blocks, rows = scaled_blocks(dom, nodes)
    taps = [scaled_taps(dom, ax, y, nodes) for ax in range(dom.dim)]
    m0, size = dom.grid[0], math.prod(dom.grid)
    rest = size // m0
    degree = omega.degree - 1
    out = {J: np.empty(dom.grid) for J in increasing_indices(dom.dim, degree)}
    stack, lead = np.empty(max(rows * rest, size)), np.empty(rows * m0)
    scratch = next(iter(out.values())).reshape(-1)  # until the levers fill it
    # (x_a - y_a) does not depend on t, so integrate f_I(psi) first, into fint
    fint = np.empty((len(omega.coeffs),) + dom.grid)
    for n, block in enumerate(blocks):
        cat, first = scaled_axis_matrices(taps[0], block, wts[block], lead)
        mats = [first] + [scaled_axis_matrices(tp, block)[1] for tp in taps[1:]]
        offsets = np.cumsum([0] + [mat.shape[1] for mat, _ in first])
        slabs = stack[: offsets[-1] * rest].reshape((-1,) + dom.grid[1:])
        for f, field in zip(fint, omega.coeffs.values()):
            for node_mats, lo in zip(zip(*mats), offsets):
                scaled_eval(field, node_mats, (stack[lo * rest :], scratch))
            if n == 0:
                axis_product(slabs, cat, 0, f.reshape(-1))
            else:
                f += axis_product(slabs, cat, 0, scratch)
    filled = set()
    for f, idx in zip(fint, omega.coeffs):
        for r, a in enumerate(idx):
            lever = (dom.axis_coords(a) - y[a]).reshape((-1,) + (1,) * (dom.dim - 1 - a))
            lever = -lever if r % 2 else lever
            J = idx[:r] + idx[r + 1 :]
            if J in filled:
                out[J] += np.multiply(f, lever, out=stack[:size].reshape(dom.grid))
            else:
                np.multiply(f, lever, out=out[J])
                filled.add(J)
    return GridForm.holding(dom, degree, out)


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
    p = 1).  The mass and ||alpha||_{p'} are _interp.weight_norm's, as
    for beta and gamma.  ||alpha(y)|y|||_{p'} is D.norm of the density
    alpha|y| (the grid trapezoid, or the largest sample), except for a law
    pivoting at the right t-edge, which takes the edge rule.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    exact_pprime = math.inf if p == 1 else _frac(p) / (_frac(p) - 1)
    pprime = float(exact_pprime)

    violations = []
    lo0, hi0 = D.bounds[0]
    mass = weight_norm(alpha, 1, D)
    anorm = weight_norm(alpha, exact_pprime, D)
    if alpha.kind == "powerlaw" and alpha.lam > 0 and alpha.pivot <= hi0:
        # infinite on the closed grid: the moment takes the edge rule
        e = law_exponent(alpha.lam, exact_pprime)
        mnorm = math.inf if math.isinf(anorm) else edge_integral(
            e, lo0, hi0, lambda t: _fiber_moment(D, pprime, t)) ** (1.0 / pprime)
    else:
        mnorm = D.norm(alpha.sample_on(D) * np.sqrt(sum(c**2 for c in D.meshgrid())), pprime)

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


def _chained_terms(coeffs, plain, lever, out, bufs):
    """One t-node's terms when none shares a factor (k = 1 or k = dim):
    per index I and a in I, the lever rows on axis a and the plain rows
    elsewhere, as dim rotating products in turn.  Each is one matrix
    product, where a middle axis in place is a batched one: on thin
    charts (65 x 37 x 5) a 1-form took about 30% longer that way."""
    for idx, field in coeffs.items():
        for r, a in enumerate(idx):
            box = field
            for ax in range(len(plain)):
                mat = (-lever[a] if r % 2 else lever[a]) if ax == a else plain[ax]
                box = _box_integral(box, mat, 0, bufs[(ax + 1) % 2], rotate=True)
            out[idx[:r] + idx[r + 1 :]] += box


def _plain_chain(x, plain, axes, pair):
    """The plain rows of axes applied to x in turn; the last product
    lands in pair[0], the others alternate with pair[1]."""
    for n, ax in enumerate(axes):
        x = _box_integral(x, plain[ax], ax, pair[(len(axes) - 1 - n) % 2])
    return x


def _factored_terms(coeffs, plain, lever, out, bufs):
    """One t-node's terms for 1 < k < dim, each shared product once:
    g_I = (plain rows outside I) f_I, then S_J = sum over a not in J of
    +-(lever rows on a) g_{J+a}, and out_J += (plain rows on J) S_J.
    The products keep the axis order, so the sums are elementwise; bufs
    holds one buffer per I, then the sum's and a pair of work buffers."""
    dim = len(plain)
    *kept, total, w0, w1 = bufs
    g = {idx: _plain_chain(field, plain, [ax for ax in range(dim) if ax not in idx], (buf, w0))
         for (idx, field), buf in zip(coeffs.items(), kept)}
    for J, acc in out.items():
        s = None
        for a in sorted(set(range(dim)) - set(J)):
            idx = tuple(sorted(J + (a,)))
            mat = -lever[a] if idx.index(a) % 2 else lever[a]
            y = _box_integral(g[idx], mat, a, total if s is None else w0)
            s = y if s is None else np.add(s, y, out=s)
        acc += _plain_chain(s, plain, J, (w0, w1))


def A_alpha(omega, alpha, t_nodes=16):
    """Averaged homotopy operator A_alpha omega = int alpha(y) K_y omega dy.

    alpha is a unit-mass constant or sampled-t weight, taken exactly as
    its piecewise-linear interpolant (clamped ends included); full-grid
    and power-law weights are refused.  Per t-node the coefficient of J
    is the sum over a not in J of +-(lever rows on axis a) x (plain rows
    on every other axis) f_{J+a}, times w_t t^(k-1) (1-t)^-(dim+1) and,
    for a constant alpha, its value.  Those scalars multiply the lever
    rows at use, so the memoised window_rows serve every degree and
    volume.  For 1 < k < dim the terms share factors and each product is
    computed once (_factored_terms: 12 single-axis products per t-node
    for a 2-form in 3-D, where term by term takes 18); otherwise each term
    is one chain of dim products (_chained_terms).  Exact on multilinear
    coefficient fields at each t-node.
    """
    dom = omega.domain
    _require_box(dom, "A_alpha")
    if omega.degree == 0:
        raise ValueError(DEGREE0_MSG)
    if not isinstance(alpha, WeightProfile) or alpha.kind not in PIECEWISE_LINEAR:
        raise ValueError(f"A_alpha takes a constant or sampled-t centering weight, not {alpha!r}")
    mass = weight_norm(alpha, 1, dom)
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"alpha is not unit mass (got {mass:.6g})")
    cuts, vals = linear_pieces(alpha, *dom.bounds[0])
    level = vals[0] if alpha.kind == "constant" else 1.0
    nodes, wts = gauss01(t_nodes)
    scale = level * wts * nodes ** (omega.degree - 1) / (1.0 - nodes) ** (dom.dim + 1)
    if 1 < omega.degree < dom.dim:
        terms, nbufs = _factored_terms, len(omega.coeffs) + 3
    else:
        terms, nbufs = _chained_terms, 2
    # reused grid-sized buffers: fresh arrays per t-node let malloc hand
    # their pages back to the system and fault them in again
    bufs = [np.empty(dom.grid).ravel() for _ in range(nbufs)]
    out = GridForm(dom, omega.degree - 1)
    for block in node_blocks(len(nodes), 8 * max(dom.grid) ** 2):
        t = nodes[block, None]
        rows = [window_rows(dom, ax, t, *((cuts, vals / level) if ax == 0 else (ends, (1.0, 1.0))))
                for ax, ends in enumerate(dom.bounds)]
        for i, s in enumerate(scale[block]):
            terms(omega.coeffs, [plain[i] for plain, _ in rows],
                  [lever[i] * s for _, lever in rows], out.coeffs, bufs)
    return out
