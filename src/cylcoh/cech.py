"""Gluing local primitives on covered cylinders.

The pipeline follows the usual double-complex walk: local primitives on
patches (descent), a constant correction killing the degree-0 cocycle,
then partition-of-unity solves back up to a single global form (ascent).
Cochains are stored per (index tuple, connected component) at every
depth, the global form being the depth-0 cochain on the one component of
the empty index tuple; deeper components are boxes, so every local solve
is a cone-operator call on a box chart.

The nerve itself, which cell is a face of which and the slice pieces
between them, is the cover's cell table (GoodCover.cells), built once
with the cover; this module only does arithmetic on it.
"""

import math

import numpy as np

from .constants import Q_factor, _beta_norms
from .forms import GridForm, exterior_derivative, lp_norm
from .homotopy import A_alpha
from .weights import WeightProfile


class HypothesisFailure(ValueError):
    """A gluing hypothesis (weight norm finiteness) does not hold."""


class CechCochain:
    """Degree-k forms indexed by increasing patch tuples and components.

    data maps (I, comp) to a GridForm on the component's unrolled box;
    depth is len(I).  At depth 0 the one key is ((), cover.full) and its
    form lives on the full domain (see whole).  scale is the sup of the
    cochains this one was formed from by coboundary or subtraction, 0
    for one given directly; the cocycle check measures against it (see
    _cocycle_residual).
    """

    def __init__(self, cover, depth, degree, data, scale=0.0):
        self.cover = cover
        self.depth = depth
        self.degree = degree
        self.data = data
        self.scale = scale

    @classmethod
    def whole(cls, cover, form):
        """A global form as the depth-0 cochain."""
        return cls(cover, 0, form.degree, {((), cover.full): form})

    def entries(self):
        return sorted(self.data.items(), key=lambda kv: kv[0])

    def max_abs(self):
        return float(np.max([f.max_abs() for f in self.data.values()], initial=0.0))

    def d(self):
        return CechCochain(self.cover, self.depth, self.degree + 1,
                           {key: exterior_derivative(f) for key, f in self.data.items()})

    def __sub__(self, other):
        if set(self.data) != set(other.data):
            raise ValueError("cochain keys do not match")
        return CechCochain(
            self.cover,
            self.depth,
            self.degree,
            {key: f - other.data[key] for key, f in self.data.items()},
            scale=max(self.max_abs(), other.max_abs()),
        )

    def __repr__(self):
        return f"CechCochain(depth={self.depth}, degree={self.degree}, entries={len(self.data)})"


def coboundary(lam):
    """Alternating sum of restrictions, one Cech depth up; at depth 0 it
    restricts the global form to every patch.  Each cell's form is made
    once and every face's restriction is added into it in face order,
    piece by piece (GoodCover.index_between)."""
    data = {}
    for key, chart, faces, _ in lam.cover.cells(lam.depth + 1):
        acc = data[key] = GridForm(chart, lam.degree)
        for sign, _, parent, pieces in faces:
            op = np.add if sign > 0 else np.subtract
            for idx, arr in lam.data[parent].coeffs.items():
                for dst, src in pieces:
                    out = acc.coeffs[idx][dst]
                    op(out, arr[src], out=out)
    return CechCochain(lam.cover, lam.depth + 1, lam.degree, data, scale=lam.max_abs())


def _cocycle_residual(lam):
    """Sup of the coboundary, skipping one node at each cut edge.

    Entries carry numeric d's of partition-weighted fields; at a node on
    the rim of an intersection the two parent charts differentiate with
    different stencils (one-sided vs central across the rim), which is a
    chart artifact, not a cocycle defect.  One interior node in from the
    rim both charts use the same central stencil, so the residual there
    measures the actual mismatch.

    The sup is relative to lam's own sup or, when larger, to the sup of
    the cochains lam was formed from (lam.scale): a lam formed as a
    coboundary or difference that cancels to rounding is a cocycle to
    rounding of its operands, not of itself.
    """
    up = coboundary(lam)
    cover = lam.cover
    worst = 0.0
    for (J, comp), form in up.data.items():
        trims = []
        for ax, (start, count) in enumerate(comp):
            if count < cover.domain.grid[ax]:
                trims.append(slice(1, count - 1))
            else:
                trims.append(slice(None))
        sl = tuple(trims)
        for arr in form.coeffs.values():
            sub = arr[sl]
            if sub.size:
                worst = float(np.maximum(worst, np.max(np.abs(sub))))
    return worst / max(up.scale, lam.scale, 1e-30)


def solve_coboundary(lam, pou, tol=1e-8):
    """Partition-of-unity preimage: kappa with coboundary(kappa) = lam.

    Requires lam to be a cocycle; the weighted sum kappa_I = sum_j
    rho_j lam_{jI} (extended by zero, sign from sorting j into I) is the
    classical formula and is exact at grid nodes because each rho_j
    vanishes on its patch boundary nodes.  Returns (kappa, residual),
    residual being lam's relative cocycle residual.
    """
    cover = lam.cover
    res = _cocycle_residual(lam)
    if not res <= tol:
        raise ValueError(f"input is not a cocycle: coboundary residual {res:.3e}")
    data = {key: GridForm(chart, lam.degree)
            for key, chart, _, _ in cover.cells(lam.depth - 1)}
    # each cell (K, kcomp) feeds its faces' parents, so every kappa_I sums
    # its terms in K order, then components(K) order
    for key, _, faces, rho_pieces in cover.cells(lam.depth):
        form = lam.data[key]
        for sign, j, parent, pieces in faces:
            field = pou.fields[j]
            for idx, arr in form.coeffs.items():
                term = np.empty_like(arr)
                for dst, src in rho_pieces:
                    np.multiply(sign * field[src], arr[dst], out=term[dst])
                for dst, src in pieces:
                    out = data[parent].coeffs[idx][src]
                    out += term[dst]
    return CechCochain(cover, lam.depth - 1, lam.degree, data), res


def descend_xi(omega, cover, t_nodes=32, tol=1e-6):
    """Local primitives down the double complex: xi^s of degree k-1-s with
    d(xi^s) = (delta xi^{s-1}) per component, starting from omega itself.

    Returns (xi_list, residuals): residuals[s] is the largest relative
    patch-solve residual at depth s."""
    if omega.domain != cover.domain:
        raise ValueError(f"the cover is on {cover.domain!r}, not on omega's {omega.domain!r}")
    k = omega.degree
    if k < 1:
        raise ValueError("need a form of degree at least 1 to glue")
    scale = max(omega.max_abs(), 1e-30)
    if k < omega.domain.dim:
        closed_res = exterior_derivative(omega).max_abs() / scale
        if not closed_res <= tol:
            raise ValueError(f"omega is not closed: d-residual {closed_res:.3e}")
    xi_list = []
    residuals = []
    lam = coboundary(CechCochain.whole(cover, omega))
    for s in range(k):
        data = {}
        worst = 0.0
        lam_scale = max(lam.max_abs(), 1e-30)
        for (I, comp), form in lam.entries():
            xi = A_alpha(form, WeightProfile.constant(1.0 / form.domain.volume), t_nodes=t_nodes)
            res = (exterior_derivative(xi) - form).max_abs() / lam_scale
            if not res <= tol:
                raise ValueError(
                    f"patch solve failed at depth {s} on V_{I}: residual {res:.3e}"
                )
            data[(I, comp)] = xi
            worst = float(np.maximum(worst, res))
        xi_list.append(CechCochain(cover, lam.depth, k - 1 - s, data))
        residuals.append(worst)
        if s < k - 1:
            lam = coboundary(xi_list[-1])
    return xi_list, residuals


def constant_correction(xi_last, tol=1e-8):
    """Constant cochain c with coboundary(c) = coboundary(xi^{k-1}).

    The right side has locally constant components whenever omega was
    exact; the minimal-norm least-squares solution over the nerve
    coboundary matrix plays the role of the cited existence lemma.
    """
    cover = xi_last.cover
    lam = coboundary(xi_last)
    unknowns = cover.cells(xi_last.depth)
    col = {key: i for i, (key, *_) in enumerate(unknowns)}
    rows = cover.cells(lam.depth)
    A = np.zeros((len(rows), len(unknowns)))
    b = np.zeros(len(rows))
    drift = 0.0
    for rix, (key, _, faces, _) in enumerate(rows):
        vals = lam.data[key].coeffs[()]
        mean = float(vals.mean())
        drift = float(np.maximum(drift, np.max(np.abs(vals - mean))))
        b[rix] = mean
        for sign, _, parent, _ in faces:
            A[rix, col[parent]] += sign
    if rows:
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        res = float(np.max(np.abs(A @ sol - b)))
    else:
        sol = np.zeros(len(unknowns))
        res = 0.0
    if not res <= tol * max(1.0, float(np.max(np.abs(b))) if len(b) else 1.0):
        raise ValueError(f"cover cocycle obstruction: residual {res:.3e}")
    data = {}
    for i, (key, chart, _, _) in enumerate(unknowns):
        c = GridForm(chart, 0)
        c.coeffs[()] += sol[i]
        data[key] = c
    out = CechCochain(cover, xi_last.depth, 0, data)
    return out, {"lstsq_residual": res, "constancy_drift": drift}


def ascend_x(xi_list, c, pou, tol=1e-8):
    """Back up the double complex to a single global primitive.

    Returns (xi, residuals): residuals[s] is the cocycle residual of the
    depth-s right side that solve_coboundary inverted."""
    k = len(xi_list)
    residuals = [0.0] * k
    rhs = xi_list[k - 1] - c
    for s in range(k - 1, -1, -1):
        try:
            x, residuals[s] = solve_coboundary(rhs, pou, tol=tol)
        except ValueError as e:
            raise ValueError(f"ascent stage s={s}: {e}") from e
        if s > 0:
            rhs = xi_list[s - 1] - x.d()
    return x.data[((), x.cover.full)], residuals


def glue_primitive(omega, cover, beta=None, gamma=None, p=2.0, q=2.0, t_nodes=32, tol=1e-6):
    """End-to-end gluing with hypothesis checks and a stage report.

    Returns (xi, report) with d(xi) = omega on the full domain.
    report["stages"] has one entry per depth s of the descent: the
    number of patch solves, their largest relative residual, and the
    cocycle residual of the ascent's depth-s solve.  Weight
    hypotheses that fail produce a HypothesisFailure naming the culprit
    instead of a numeric answer; p and q outside q >= p >= 1 are a
    ValueError before any check or solve.
    """
    if not 1 <= p <= q:
        raise ValueError("need q >= p >= 1")
    domain = omega.domain
    lo0, hi0 = domain.bounds[0]
    beta = beta if beta is not None else WeightProfile.constant(1.0)
    beta_norm, tbeta_norm, failures = _beta_norms(beta, q, lo0, hi0)
    q_factor = None
    if gamma is not None:
        pbar_tried = sorted({1, (1 + p) / 2, p})
        q_vals = {pb: Q_factor(gamma, p, pb, domain) for pb in pbar_tried}
        finite = {pb: v for pb, v in q_vals.items() if math.isfinite(v)}
        if finite:
            q_factor = min(finite.values())
        else:
            failures.append("||1/gamma|| divergent for every tried pbar")
    if failures:
        raise HypothesisFailure("; ".join(failures))

    xi_list, patch_res = descend_xi(omega, cover, t_nodes=t_nodes, tol=tol)
    c, corr_info = constant_correction(xi_list[-1], tol=max(tol, 1e-8))
    pou = cover.partition_of_unity()
    xi, cocycle_res = ascend_x(xi_list, c, pou, tol=tol)

    resid = (exterior_derivative(xi) - omega).max_abs()
    scale = max(omega.max_abs(), 1e-30)
    xi_norm = lp_norm(xi, q, weight=beta)
    omega_norm = lp_norm(omega, p, weight=gamma)
    report = {
        "residual": resid,
        "relative_residual": resid / scale,
        "xi_norm_q_beta": xi_norm,
        "omega_norm_p_gamma": omega_norm,
        "norm_ratio": xi_norm / max(omega_norm, 1e-30),
        "beta_norm": beta_norm,
        "tbeta_norm": tbeta_norm,
        "constant_correction": corr_info,
        "patches": len(cover),
        "stages": [
            {
                "patch_solves": len(xi_s.data),
                "patch_residual_max": pres,
                "cocycle_residual": cres,
            }
            for xi_s, pres, cres in zip(xi_list, patch_res, cocycle_res)
        ],
    }
    if q_factor is not None:
        report["Q"] = q_factor
    return xi, report
