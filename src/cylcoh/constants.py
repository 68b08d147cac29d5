"""Sobolev-Poincare constants for the averaged homotopy operator.

Everything reduces to the t-integral

    C = int_0^1 sup_z ||beta(x) 1_{tx+(1-t)D}(z)||_{L^q(D,dx)}
        t^k (1-t)^(-n/p) dt

(optionally with an |x| moment on beta) plus the dual norms of the
centering weight alpha and, in the two-weight version, the norm of
1/gamma.  The endpoint t -> 1 is singular, so the quadrature uses a
graded mesh and _interp's exact exponent rule decides finiteness before
any numbers are trusted.  One function, _sup_norms, gives C_integral
the sup at every t-node.  For sampled beta, or the |x| moment, it is a
grid search over sliding-window integrals on _interp's stacked-operator
path, as for K_y and A_alpha: _window_stacks takes each axis's windows
by their (lower, upper) ends, per block of t-nodes within
_interp.STACK_BYTES, and builds one window_stack per distinct axis and
pass, applied by apply_axes.  Every stack is kept by _interp.memo, the
one memo of A_alpha's window rows too, so a repeated constant builds no
window stack.
t = 0, and a t-node where a grid node's window covers the box, search
nothing: the integrand is nonnegative, so the sup is the whole-box mass,
computed once a call.

The weight norms are _interp's t_norm and weight_norm, the same for
beta, gamma and alpha: the exact powerlaw_mass of a power law where it
has one, else one edge_integral, tanh-sinh pieces cut at 0 (the kink of
|t|^m) and at a sampled-t profile's knots.
"""

import math

import numpy as np

from ._interp import (_frac, apply_axes, diverges, gauss01, law_exponent, memo, node_blocks,
                      powerlaw_mass, t_norm, weight_norm, window_stack)
from .homotopy import _require_box, check_admissible_weight
from .vanishing import _window
from .weights import WeightProfile

GRADING = 3


class ConstantRequest:
    """Inputs for the constant evaluations.

    n is the fiber dimension used by the cylinder gate; the integrals
    themselves run over D and use its ambient dimension.  exact holds p, q
    and pbar as given (gates, exponent rule); p, q, pbar are their floats.
    """

    def __init__(self, k, p, q, D, n=None, pbar=None, beta=None, gamma=None, alpha=None):
        self.k = int(k)
        pbar = p if pbar is None else pbar
        if not 1 <= p <= q:
            raise ValueError("need q >= p >= 1")
        if not 1 <= pbar <= p:
            raise ValueError("need 1 <= pbar <= p")
        self.exact = (p, q, pbar)
        self.p, self.q, self.pbar = float(p), float(q), float(pbar)
        self.D = D
        self.n = D.dim - 1 if n is None else int(n)
        self.beta = beta if beta is not None else WeightProfile.constant(1.0)
        self.gamma = gamma
        self.alpha = alpha

    def gates(self):
        """Both regime gates, recorded side by side.

        The convex-set route needs 1/p - 1/q < 1/dim(D); the cylinder
        route needs 1/p - 1/q < (q-1)/(q(n+1)), the vanishing criterion's
        gate.  Both are decided exactly at the request's p and q.
        Scenarios report which of the two they pass.
        """
        p, q, _ = self.exact
        _, _, cylinder_gate = _window(self.n, self.k, p, q)
        return {
            "prop-convex": _convex_gate(self.D.dim, p, q),
            "thm-cylinder": cylinder_gate,
            "lhs": 1.0 / self.p - 1.0 / self.q,
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


def _window_ends(D, ax, t, z):
    """The window of each z along axis ax for each t (a column),

        { x_a : z in t*x_a + (1-t)*[lo, hi] }  =  [ (z-(1-t)hi)/t, (z-(1-t)lo)/t ]

    clipped to [lo, hi] = D.bounds[ax]: its (lower, upper) ends."""
    lo, hi = D.bounds[ax]
    wl = np.clip((z - (1.0 - t) * hi) / t, lo, hi)
    wu = np.clip((z - (1.0 - t) * lo) / t, lo, hi)
    return wl, np.maximum(wu, wl)


def _window_stacks(D, ends, pl=None):
    """The window matrices of the (lower, upper) ends in ends, one pair of
    (nodes, n) arrays per axis, stacked to shape (nodes, n, m).  pl =
    (mu, pivot) weights axis 0 by the exact power-law factor (pivot-s)^-mu
    instead of treating it as part of the samples.  Every stack is kept
    by _interp.memo, keyed by axis, ends and weight, so the axes of a
    cube that share their windows share one build, and a repeated call
    builds none."""
    stacks = []
    for ax, (wl, wu) in enumerate(ends):
        weight = pl if ax == 0 else None
        key = (window_stack, D.bounds[ax], D.grid[ax], wl.shape, wl.tobytes(), wu.tobytes(), weight)
        stacks.append(memo(key, lambda: (window_stack(D, ax, wl, wu, weight),))[0])
    return stacks


# perfbench/tracing.py wraps _window_mass_field here: call it by this name
_window_mass_field = apply_axes


def _sup_window_norms(qfield, D, q, nodes, pl=None):
    """sup_z of the window integral of qfield, to the power 1/q, for every
    t in nodes.

    The grid nodes' _window_ends come once per call, for every t > 0.
    t = 0, where every window is the whole box, and a t-node where some
    grid node's window is the whole box on every axis (t <= 1/2, with a
    node near the middle) take the whole-box mass, from the ends [[lo]],
    [[hi]] of each axis: the integrand is nonnegative, so no window holds
    more.  Every other t-node is a grid search over z, on its rows of
    those ends, plus one local refinement pass, 9 points per axis around
    its winner; the middle one is the winner itself, so the refined max
    is the sup.  The window matrices come per block of searched t-nodes
    from _window_stacks, at most one build per distinct axis and pass;
    each row is computed on its own, so blocking leaves every sup
    unchanged.
    """
    nodes = np.asarray(nodes, dtype=float)
    live = np.flatnonzero(nodes > 0.0)  # at t = 0 every window is the whole box
    ends = [_window_ends(D, ax, nodes[live, None], D.axis_coords(ax)) for ax in range(D.dim)]
    # the refinement's 9 rows per axis can outnumber an axis's nodes
    rows = [max(m, 9) for m in D.grid]
    work = (np.empty(math.prod(rows)), np.empty(math.prod(rows)))
    sups = np.empty(len(nodes))
    covered = np.ones(len(nodes), dtype=bool)
    for (lo, hi), (wl, wu) in zip(D.bounds, ends):
        covered[live] &= ((wl == lo) & (wu == hi)).any(axis=1)
    if covered.any():
        full = _window_stacks(D, [(np.array([[lo]]), np.array([[hi]])) for lo, hi in D.bounds], pl)
        whole = _window_mass_field(qfield, [s[0] for s in full], work).item()
        sups[covered] = max(whole, 0.0) ** (1.0 / q)
    search = np.flatnonzero(~covered[live])  # rows of ends
    for block in node_blocks(len(search), 8 * max(rows) * max(D.grid)):
        at = search[block]
        ts = nodes[live[at], None]
        coarse = _window_stacks(D, [(wl[at], wu[at]) for wl, wu in ends], pl)
        winners = []
        for i in range(len(ts)):
            mass = _window_mass_field(qfield, [s[i] for s in coarse], work)
            winners.append(np.unravel_index(int(np.argmax(mass)), mass.shape))
        fine = []
        for ax, idx in enumerate(np.array(winners).T):
            c, h = D.axis_coords(ax)[idx], D.spacing(ax)
            lattice = np.clip(np.linspace(c - h, c + h, 9, axis=-1), *D.bounds[ax])
            fine.append(_window_ends(D, ax, ts, lattice))
        refined = _window_stacks(D, fine, pl)
        for i, n in enumerate(live[at]):
            mass = _window_mass_field(qfield, [s[i] for s in refined], work)
            sups[n] = max(float(mass.max()), 0.0) ** (1.0 / q)
    return sups.tolist()


def _sup_norms(D, beta, q, nodes, moment="none"):
    """sup_z || beta(x) 1_{tx+(1-t)D}(z) ||_{L^q(D, dx)} for every t < 1 in
    nodes, with |x|beta for beta when moment is "|x|"; q as given.

    The window t*x + (1-t)*D ni z has per-axis length L_a*(1-t)/t, so the
    overlap with D never exceeds L_a*min(1, (1-t)/t) per axis: constant
    and power-law beta get that exact sliding-window answer.  Every other
    case is one _sup_window_norms call on beta^q (times |x|^q), a law's
    exact factor entering the axis-0 windows.
    """
    fq = float(q)
    law = beta.kind == "powerlaw"
    if moment == "none" and beta.kind in ("constant", "powerlaw"):
        shrinks = [1.0 if t == 0.0 else min(1.0, (1.0 - t) / t) for t in nodes]
        if not law:
            return [beta.value * (D.volume * s**D.dim) ** (1.0 / fq) for s in shrinks]
        (lo0, hi0), s = D.bounds[0], np.array(shrinks)
        mass = powerlaw_mass(law_exponent(beta.lam, q), beta.pivot, lo0, hi0, (hi0 - lo0) * s)
        fiber = math.prod(((hi - lo) * s for lo, hi in D.bounds[1:]), start=np.ones(len(s)))
        return ((mass * fiber) ** (1.0 / fq)).tolist()
    qfield = 1.0 if law else beta.sample_on(D) ** fq
    if moment == "|x|":
        qfield = qfield * np.sqrt(sum(c**2 for c in D.meshgrid())) ** fq
    pl = (law_exponent(beta.lam, q), beta.pivot) if law else None
    return _sup_window_norms(qfield, D, fq, nodes, pl=pl)


def _graded_nodes(t_nodes):
    """Gauss-Legendre nodes pushed toward t = 1 by t = 1-(1-u)^GRADING."""
    u, w = gauss01(t_nodes)
    t = 1.0 - (1.0 - u) ** GRADING
    jac = GRADING * (1.0 - u) ** (GRADING - 1)
    return t, w * jac


def _convex_gate(dim, p, q, lam=0):
    """Near t = 1 the C-integrand is the law (1-t)^-(lam + dim(1/p - 1/q)):
    is it integrable, at p and q as given?  lam = 0 gives 1/p - 1/q < 1/dim."""
    return not diverges(_frac(lam) + dim * (1 / _frac(p) - 1 / _frac(q)), 1.0, 1.0)


def _c_integral_symbolic(req):
    """Finiteness of the C-integral by two exact tests of the exponent rule:
    a power-law beta (b-t)^(-lam) singular at the t-edge b needs lam*q < 1,
    and slows the sup factor's decay (1-t)^(dim/q) at t = 1 by (1-t)^-lam;
    bounded beta has lam = 0.  The |x| moment is bounded and changes nothing.
    """
    beta, hi, (p, q, _) = req.beta, req.D.bounds[0][1], req.exact
    lam = beta.lam if beta.kind == "powerlaw" and beta.lam > 0 and beta.pivot <= hi else 0.0
    return not diverges(law_exponent(lam, q), beta.pivot, hi) and _convex_gate(req.D.dim, p, q, lam)


def C_integral(req, moment="none", t_nodes=64):
    """The Poincare constant C(k,p,q,n,beta): t-integral of the sup norm.

    moment="|x|" gives the C_2 variant with beta replaced by |x|beta.
    Returns math.inf when the symbolic endpoint test says divergent.
    D must be a box without periodic axes: the windows tx + (1-t)D are
    taken in its convex chart.
    """
    D = req.D
    _require_box(D, "C_integral")
    if moment not in ("none", "|x|"):
        raise ValueError("moment must be 'none' or '|x|'")
    if not _c_integral_symbolic(req):
        return math.inf
    k, p = req.k, req.p
    nodes, wts = _graded_nodes(t_nodes)
    sups = _sup_norms(D, req.beta, req.exact[1], nodes, moment)
    total = 0.0
    for t, w, sup in zip(nodes, wts, sups):
        total += w * sup * t**k * (1.0 - t) ** (-D.dim / p)
    return float(total)


def Q_factor(gamma, p, pbar, D):
    """|| 1/gamma ||_{L^r(D)} with r = p*pbar/(p - pbar), sup when pbar = p.

    r comes exactly from p and pbar as given, and math.inf signals a
    divergence by the exponent rule.  A pivot inside the t-interval raises
    powerlaw_mass's error at every pbar.
    """
    if not 1 <= pbar <= p:
        raise ValueError("need 1 <= pbar <= p")
    r = math.inf if pbar == p else _frac(p) * _frac(pbar) / (_frac(p) - _frac(pbar))
    return weight_norm(gamma**-1.0, r, D)


def _beta_norms(beta, q, lo, hi):
    """(||beta||_{L^q[lo,hi)}, ||t beta(t)||_{L^q[lo,hi)}, failures): the
    beta hypotheses of the cylinder constant and of gluing, with each
    divergent norm named in failures."""
    beta_norm = t_norm(beta, q, lo, hi)
    tbeta_norm = t_norm(beta, q, lo, hi, moment_t=True)
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

    p, q, pbar = req.exact
    beta_norm, tbeta_norm, failures = _beta_norms(beta, q, lo0, hi0)
    bound = fiber_measure ** (1.0 / req.q) * beta_norm

    alpha = req.alpha if req.alpha is not None else WeightProfile.constant(1.0 / D.volume)
    adm = check_admissible_weight(alpha, D, p)
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
        out["Q"] = Q_factor(req.gamma, p, pbar, D)
        if not math.isfinite(out["Q"]):
            failures.append("||1/gamma|| divergent for requested pbar")
    return out
