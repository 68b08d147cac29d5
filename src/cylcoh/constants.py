"""Sobolev-Poincare constants for the averaged homotopy operator.

Everything reduces to the t-integral

    C = int_0^1 sup_z ||beta(x) 1_{tx+(1-t)D}(z)||_{L^q(D,dx)}
        t^k (1-t)^(-n/p) dt

(optionally with an |x| moment on beta) plus the dual norms of the
centering weight alpha and, in the two-weight version, the norm of
1/gamma.  The endpoint t -> 1 is singular, so the quadrature uses a
graded mesh and a symbolic exponent pre-check decides finiteness before
any numbers are trusted.  For sampled beta, or the |x| moment, the sup
is a grid search over sliding-window integrals on _interp's
stacked-operator path, as for K_y and A_alpha: one window_stack build
per axis and pass for each block of t-nodes within _interp.STACK_BYTES,
applied by apply_axes.

The power-law t-integrals in the weight norms are _interp's
powerlaw_mass and edge_integral; bounded profiles take T_NORM_RULE.
"""

import math

import numpy as np

from ._interp import (apply_axes, edge_integral, gauss01, node_blocks, powerlaw_mass,
                      read_only, window_stack)
from .homotopy import check_admissible_weight
from .weights import WeightProfile

GRADING = 3
T_NORM_NODES = 256


class ConstantRequest:
    """Inputs for the constant evaluations.

    n is the fiber dimension used by the cylinder gate; the integrals
    themselves run over D and use its ambient dimension.
    """

    def __init__(self, k, p, q, D, n=None, pbar=None, beta=None, gamma=None, alpha=None):
        self.k = int(k)
        self.p = float(p)
        self.q = float(q)
        if not 1 <= self.p <= self.q:
            raise ValueError("need q >= p >= 1")
        self.D = D
        self.n = D.dim - 1 if n is None else int(n)
        self.pbar = self.p if pbar is None else float(pbar)
        if not 1 <= self.pbar <= self.p:
            raise ValueError("need 1 <= pbar <= p")
        self.beta = beta if beta is not None else WeightProfile.constant(1.0)
        self.gamma = gamma
        self.alpha = alpha

    def gates(self):
        """Both regime gates, recorded side by side.

        The convex-set route needs 1/p - 1/q < 1/dim(D); the cylinder
        route needs 1/p - 1/q < (q-1)/(q(n+1)).  Scenarios report which
        of the two they pass.
        """
        lhs = 1.0 / self.p - 1.0 / self.q
        return {
            "prop-convex": lhs < 1.0 / self.D.dim,
            "thm-cylinder": lhs < (self.q - 1.0) / (self.q * (self.n + 1.0)),
            "lhs": lhs,
        }

    def to_dict(self):
        d = {
            "k": self.k,
            "p": self.p,
            "q": self.q,
            "pbar": self.pbar,
            "n": self.n,
            "domain": self.D.to_dict(),
            "beta": self.beta.to_dict(),
        }
        if self.gamma is not None:
            d["gamma"] = self.gamma.to_dict()
        if self.alpha is not None:
            d["alpha"] = self.alpha.to_dict()
        return d


def _window_stacks(D, nodes, coords, pl=None):
    """The window matrices of the z in coords for every t in nodes, per
    axis stacked to shape (len(nodes), len(z), m) by one window_stack
    build.  The window of z is

        { x : z in t*x + (1-t)*D }  =  prod_a [ (z_a-(1-t)hi_a)/t, (z_a-(1-t)lo_a)/t ]

    clipped to D.  coords[ax] is one z vector for every t-node or one row
    per t-node.  pl = (mu, pivot) weights axis 0 by the exact power-law
    factor (pivot-s)^-mu instead of treating it as part of the samples."""
    t = np.asarray(nodes, dtype=float)[:, None]
    stacks = []
    for ax, z in enumerate(coords):
        lo, hi = D.bounds[ax]
        wl = np.clip((z - (1.0 - t) * hi) / t, lo, hi)
        wu = np.clip((z - (1.0 - t) * lo) / t, lo, hi)
        stacks.append(window_stack(D, ax, wl, np.maximum(wu, wl), pl if ax == 0 else None))
    return stacks


# perfbench/tracing.py wraps _window_mass_field here: call it by this name
_window_mass_field = apply_axes


def _sup_window_norms(qfield, D, q, nodes, pl=None):
    """sup_z of the window integral of qfield, to the power 1/q, for every
    t in nodes.

    Grid search over z at the sampling resolution plus one local
    refinement pass, 9 points per axis around each t-node's winner.  The
    window matrices are built once per block of t-nodes, one build per
    axis and pass; each row is computed on its own, so blocking leaves
    every sup unchanged.
    """
    coords = [D.axis_coords(ax) for ax in range(D.dim)]
    # the refinement's 9 rows per axis can outnumber an axis's nodes
    rows = [max(m, 9) for m in D.grid]
    work = (np.empty(math.prod(rows)), np.empty(math.prod(rows)))
    sups = []
    for block in node_blocks(len(nodes), 8 * max(rows) * max(D.grid)):
        ts = nodes[block]
        coarse = _window_stacks(D, ts, coords, pl)
        peaks, winners = [], []
        for i in range(len(ts)):
            mass = _window_mass_field(qfield, [s[i] for s in coarse], work)
            peaks.append(float(mass.max()))
            winners.append(np.unravel_index(int(np.argmax(mass)), mass.shape))
        fine = []
        for ax, idx in enumerate(np.array(winners).T):
            lo, hi = D.bounds[ax]
            h = D.spacing(ax)
            c = coords[ax][idx]
            fine.append(np.clip(np.linspace(c - h, c + h, 9, axis=-1), lo, hi))
        refined = _window_stacks(D, ts, fine, pl)
        for i, peak in enumerate(peaks):
            mass = _window_mass_field(qfield, [s[i] for s in refined], work)
            peak = max(peak, float(mass.max()))
            sups.append(max(peak, 0.0) ** (1.0 / q))
    return sups


def sup_indicator_norm(D, beta, q, t):
    """sup_z || beta(x) 1_{tx+(1-t)D}(z) ||_{L^q(D, dx)}.

    The window t*x + (1-t)*D ni z has per-axis length L_a*(1-t)/t, so the
    overlap with D never exceeds L_a*min(1, (1-t)/t) per axis; constant
    and power-law weights get the exact sliding-window answer, sampled
    weights a grid search.  t = 0 gives ||beta||_{L^q(D)}, t = 1 gives 0.
    """
    if D.kind != "box" or any(D.periodic):
        raise ValueError("sup_indicator_norm needs a box domain")
    q = float(q)
    if t < 0.0 or t > 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 1.0:
        return 0.0
    shrink = 1.0 if t == 0.0 else min(1.0, (1.0 - t) / t)
    if beta.kind == "constant":
        overlap = D.volume * shrink**D.dim
        return beta.value * overlap ** (1.0 / q)
    if beta.kind == "powerlaw":
        lo0, hi0 = D.bounds[0]
        m0 = powerlaw_mass(beta.lam * q, beta.pivot, lo0, hi0, (hi0 - lo0) * shrink)
        rest = math.prod((hi - lo) * shrink for lo, hi in D.bounds[1:])
        return (m0 * rest) ** (1.0 / q)
    qfield = beta.sample_on(D) ** q
    if t == 0.0:
        return D.integrate(qfield) ** (1.0 / q)
    return _sup_window_norms(qfield, D, q, [t])[0]


def _graded_nodes(t_nodes):
    """Gauss-Legendre nodes pushed toward t = 1 by t = 1-(1-u)^GRADING."""
    u, w = gauss01(t_nodes)
    t = 1.0 - (1.0 - u) ** GRADING
    jac = GRADING * (1.0 - u) ** (GRADING - 1)
    return t, w * jac


T_NORM_RULE = read_only(_graded_nodes(T_NORM_NODES))


def _c_integral_symbolic(req):
    """Finiteness of the C-integral by endpoint exponent arithmetic.

    Near t = 1 the sup factor decays like (1-t)^(dim/q) for bounded beta;
    a power-law axis weight (b-t)^(-lam) replaces its axis contribution
    (1-t)^(1/q) by (1-t)^((1-lam*q)/q) and needs lam*q < 1 at all.  The
    |x| moment is bounded on D and changes nothing.
    """
    nd = req.D.dim
    beta = req.beta
    singular = (
        beta.kind == "powerlaw"
        and beta.lam > 0
        and beta.pivot <= req.D.bounds[0][1]
    )
    if singular:
        if beta.lam * req.q >= 1.0:
            return False
        decay = (1.0 - beta.lam * req.q) / req.q + (nd - 1) / req.q
    else:
        decay = nd / req.q
    return decay - nd / req.p > -1.0


def C_integral(req, moment="none", t_nodes=64):
    """The Poincare constant C(k,p,q,n,beta): t-integral of the sup norm.

    moment="|x|" gives the C_2 variant with beta replaced by |x|beta.
    Returns math.inf when the symbolic endpoint test says divergent.
    D must be a box without periodic axes: the windows tx + (1-t)D are
    taken in its convex chart.
    """
    D = req.D
    if D.kind != "box" or any(D.periodic):
        raise ValueError("C_integral needs a box domain")
    if moment not in ("none", "|x|"):
        raise ValueError("moment must be 'none' or '|x|'")
    if not _c_integral_symbolic(req):
        return math.inf
    k, p, q = req.k, req.p, req.q
    beta = req.beta

    qfield = None
    pl = None
    if moment == "|x|":
        radius = np.sqrt(sum(c**2 for c in D.meshgrid()))
        if beta.kind == "powerlaw":
            qfield = radius**q
            pl = (beta.lam * q, beta.pivot)
        else:
            qfield = beta.sample_on(D) ** q * radius**q
    elif beta.kind in ("sampled", "sampled-t"):
        qfield = beta.sample_on(D) ** q

    nodes, wts = _graded_nodes(t_nodes)
    if qfield is None:
        sups = [sup_indicator_norm(D, beta, q, t) for t in nodes]
    else:
        sups = _sup_window_norms(qfield, D, q, nodes, pl=pl)
    total = 0.0
    for t, w, sup in zip(nodes, wts, sups):
        total += w * sup * t**k * (1.0 - t) ** (-D.dim / p)
    return float(total)


def corollary_box_bound(D, k, p, q, t_nodes=64):
    """Closed upper bound for C(k,p,q,n,1) on a box:

        |D|^(1/q) int_0^1 t^(k-n/q) (1-t)^(-n/p) min(t^(n/q),(1-t)^(n/q)) dt

    with n = dim(D); finite exactly when 1/p - 1/q < 1/n.
    """
    n = D.dim
    if 1.0 / p - 1.0 / q >= 1.0 / n:
        return math.inf
    t, w = _graded_nodes(t_nodes)
    vals = (
        t ** (k - n / q)
        * (1.0 - t) ** (-n / p)
        * np.minimum(t ** (n / q), (1.0 - t) ** (n / q))
    )
    return float(D.volume ** (1.0 / q) * np.sum(w * vals))


def Q_factor(gamma, p, pbar, D):
    """|| 1/gamma ||_{L^r(D)} with r = p*pbar/(p - pbar), sup when pbar = p.

    Power-law divergence is decided symbolically; math.inf signals it.
    A pivot inside the t-interval raises powerlaw_mass's error at every pbar.
    """
    p = float(p)
    pbar = float(pbar)
    if not 1.0 <= pbar <= p:
        raise ValueError("need 1 <= pbar <= p")
    inv = gamma**-1.0
    lo0, hi0 = D.bounds[0]
    if pbar == p:
        if inv.kind == "powerlaw":
            powerlaw_mass(inv.lam, inv.pivot, lo0, hi0)  # the pivot check only
            if inv.lam > 0:
                if inv.pivot == hi0:
                    return math.inf
                return float((inv.pivot - hi0) ** (-inv.lam))
            return float((inv.pivot - lo0) ** (-inv.lam))
        if inv.kind == "constant":
            return inv.value
        return float(inv.samples.max())
    r = p * pbar / (p - pbar)
    if inv.kind == "powerlaw":
        mass = powerlaw_mass(inv.lam * r, inv.pivot, lo0, hi0)
        fiber = math.prod(hi - lo for lo, hi in D.bounds[1:])
        return float((mass * fiber) ** (1.0 / r))
    field = inv.sample_on(D) ** r
    return float(D.integrate(field) ** (1.0 / r))


def _t_axis_norm(beta, q, lo, hi, moment_t=False):
    """|| beta ||_{L^q([lo,hi))} (or of t*beta(t)) for a t-only profile:
    exact masses for power laws (the t-moment of one singular at hi = 0
    is a law too), the edge rule for the t-moment of one singular at
    another hi, T_NORM_RULE for bounded profiles."""
    if beta.kind == "powerlaw":
        if moment_t and beta.lam > 0 and beta.pivot == hi == 0.0:
            # t < 0, so |t|^q (0-t)^(-lam q) is the law (0-t)^(q - lam q)
            return float(powerlaw_mass(beta.lam * q - q, 0.0, lo, hi) ** (1.0 / q))
        mass = powerlaw_mass(beta.lam * q, beta.pivot, lo, hi)
        if not moment_t or not math.isfinite(mass):
            return float(mass ** (1.0 / q))
        if beta.lam > 0 and beta.pivot == hi:
            # the edge rule crowds its nodes toward hi, leaving too few for
            # |t|^q (rough at t = 0) far from it: that half is plain (e = 0)
            e, mid = beta.lam * q, 0.5 * (lo + hi)
            near = edge_integral(e, mid, hi, lambda t: np.abs(t) ** q)
            far = edge_integral(0.0, lo, mid, lambda t: np.abs(t) ** q * (hi - t) ** -e)
            return (near + far) ** (1.0 / q)
    t, w = T_NORM_RULE
    ts = lo + (hi - lo) * t
    vals = beta.eval_t(ts) ** q
    if moment_t:
        vals = vals * np.abs(ts) ** q
    return float(((hi - lo) * np.sum(w * vals)) ** (1.0 / q))


def _beta_norms(beta, q, lo, hi):
    """(||beta||_{L^q[lo,hi)}, ||t beta(t)||_{L^q[lo,hi)}, failures): the
    beta hypotheses of the cylinder constant and of gluing, with each
    divergent norm named in failures."""
    beta_norm = _t_axis_norm(beta, q, lo, hi)
    tbeta_norm = _t_axis_norm(beta, q, lo, hi, moment_t=True)
    failures = []
    if not math.isfinite(beta_norm):
        failures.append("||beta||_{L^q[a,b)} divergent")
    if not math.isfinite(tbeta_norm):
        failures.append("||t beta(t)||_{L^q[a,b)} divergent")
    return beta_norm, tbeta_norm, failures


def cylinder_constant(req, t_nodes=64):
    """Cylinder-adapted constants: the |U|^(1/q) ||beta||_{L^q[a,b)} bound
    and the assembled one-weight constant C = ||alpha|y|||_{p'} C1 +
    ||alpha||_{p'} C2.

    Hypothesis failures (divergent beta or alpha norms) are reported by
    name, not raised; the gluing pipeline turns them into refusals.  The
    alpha norms are check_admissible_weight's.
    """
    D = req.D
    beta = req.beta
    if not beta.t_only:
        raise ValueError("cylinder constant needs a t-only beta")
    lo0, hi0 = D.bounds[0]
    fiber_measure = math.prod(hi - lo for lo, hi in D.bounds[1:])

    beta_norm, tbeta_norm, failures = _beta_norms(beta, req.q, lo0, hi0)
    bound = fiber_measure ** (1.0 / req.q) * beta_norm

    alpha = req.alpha if req.alpha is not None else WeightProfile.constant(1.0 / D.volume)
    adm = check_admissible_weight(alpha, D, req.p)
    anorm, amoment = float(adm["alpha_norm"]), float(adm["moment_norm"])
    # the constant needs finite alpha norms, not unit mass
    failures += [v for v in adm["violations"] if v.endswith("divergent")]
    c1 = C_integral(req, moment="none", t_nodes=t_nodes)
    c2 = C_integral(req, moment="|x|", t_nodes=t_nodes)
    if not math.isfinite(c1):
        failures.append("C1 integral divergent")
    if not math.isfinite(c2):
        failures.append("C2 integral divergent")
    full = amoment * c1 + anorm * c2

    out = {
        "cor_bound": bound,
        "beta_norm": beta_norm,
        "tbeta_norm": tbeta_norm,
        "C": full,
        "C1": c1,
        "C2": c2,
        "alpha_norm": anorm,
        "alpha_moment_norm": amoment,
        "gates": req.gates(),
        "hypothesis_failures": failures,
    }
    if req.gamma is not None:
        out["Q"] = Q_factor(req.gamma, req.p, req.pbar, D)
        if not math.isfinite(out["Q"]):
            failures.append("||1/gamma|| divergent for requested pbar")
    return out
