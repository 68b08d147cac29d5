"""Vanishing criterion for twisted-cylinder cohomology.

Conditions I1-I3 ask whether s^u, t s^u and g^v diverge at b (s, g the
fiber max and min of the twisting).  Every profile enters as a tail law
(mu, delta), (b - t)^(-mu) up to slope delta: a power law with pivot b
is (lam, 0), a constant or a pivot beyond b (0, 0), and a sampled-t
profile the least-squares slope mu of log s against
x = -log((b - t)/(b - a)) over its last TAIL_SAMPLES samples before b,
with delta = 1/mean(x), the slope a factor |log(b - t)|^(+-1) adds to
the fit.  A profile is immutable, so its tail law is fitted once per
profile and interval (a, b) and serves every (n, k, p, q) queried
against it: the module's memo _TAIL_LAWS keeps it under id(profile),
with the integer ratio of its mu that _exceeds reads, formed once when
the law is fitted, and a finalizer drops a profile's laws when the
profile dies.  Each slope is mu times the condition's exponent, and a
condition whose slope is within delta*|exponent| of 1 is undecided.

The verdict needs slope > 1, the strict threshold of the source's
window (below).  int (b - t)^(-1) diverges, but slope 1 lies outside
that window, and with the strict threshold every VANISHES stands under
either reading of the source.  The decision is exact: CriterionInput
keeps u = n/q - k + 2, v = k - n/p and the gate as integers from p and
q as given (_window), and _interp's exponent rule _exceeds compares
mu*exponent with 1 by integer cross-multiplication, as
AdmissibleRegion.contains does with mu = 1/alpha and 1/beta, whose
ratios the region forms once, when it is built.  Only the fitted tail's
delta band is a float test, being a tolerance by nature.

Bounded rule: with s bounded above and g away from 0 the cylinder is
bi-Lipschitz to the flat [a, b] x N, L_{q,p}-cohomology is bi-Lipschitz
invariant, and on the compact flat cylinder it is H^k(N) when the gates
hold (Gol'dshtein-Troyanov, J. Geom. Anal. 16, 2006).  So laws (0, 0)
VANISH conditional on H^k_DR(N) = 0; a fitted tail whose bands both
contain 0, or with under 3 samples before b, is UNDECIDED.

The source's worked power-law example pins the exact window
(AdmissibleRegion, over Fractions), which cross-checks the criterion:
(k - 2 + alpha)/n < 1/q <= 1/p < (k - beta)/n, p <= q, q(n+1-p) < np.
"""

import math
import weakref
from fractions import Fraction

import numpy as np

from ._interp import _exceeds, _frac, _law_ratio, _ratio
from .weights import WeightProfile

INF = math.inf
TAIL_SAMPLES = 64
# per profile id, its tail-law entries keyed by (a, b); see _tail_law
_TAIL_LAWS = {}
CONDITIONS = ("I1: int s^(n/q-k+2) divergent", "I2: int t s^(n/q-k+2) divergent",
              "I3: int g^(k-n/p) divergent")
# per condition, the reasons a report lists when it fails and when it is
# undecided, formed once
_REASONS = {name: (name + " does not hold", name + " undecided: slope within the tail band")
            for name in CONDITIONS}


def _window(n, k, p, q):
    """u = n/q - k + 2 and v = k - n/p as (num, den > 0) pairs, and the
    gate q(n+1-p) < np, exactly at the p, q >= 1 given.  Integer
    arithmetic throughout, so a query builds no Fraction.  An infinite p
    or q is the ratio 1/0, so its inverse is 0 exactly: at q = inf,
    u = 2 - k and the gate is p > n + 1."""
    (pn, pd), (qn, qd) = ((1, 0) if x == INF else _ratio(x) for x in (p, q))
    gate = qn * ((n + 1) * pd - pn) < n * pn * qd
    return (n * qd + (2 - k) * qn, qn), (k * pn - n * pd, pn), gate


def sphere_hdr_zero(n, k):
    """H^k_DR(S^n) = 0 table: true away from degrees 0 and n."""
    return k not in (0, n)


class ExponentSummary:
    """Maximal integrability exponents of the twisting profiles.

    s^u is integrable on [a,b) exactly for u < alpha, and g^v for
    v < beta.  t*s^u shares alpha when b != 0 (see _powerlaw_conditions).
    """

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta

    def __repr__(self):
        return f"ExponentSummary(alpha={self.alpha}, beta={self.beta})"


def powerlaw_exponents(lam_s, lam_g=None):
    """Exponent summary for s = (b-t)^(-lam_s), g = (b-t)^(-lam_g).

    (b-t)^(-lam*u) is integrable up to the finite endpoint exactly when
    lam*u < 1, so the maximal exponent is 1/lam; nonpositive lam means a
    bounded profile, reported as +inf.  lam_g defaults to lam_s (warped
    product with a single law).
    """
    if lam_g is None:
        lam_g = lam_s
    lam_s = _frac(lam_s)
    lam_g = _frac(lam_g)
    if lam_g > lam_s:
        raise ValueError("s must dominate g: lam_s >= lam_g required")
    alpha = 1 / lam_s if lam_s > 0 else INF
    beta = 1 / lam_g if lam_g > 0 else INF
    return ExponentSummary(alpha, beta)


class AdmissibleRegion:
    """Exact (1/p, 1/q) window for fixed n, k and exponents alpha, beta.

    Membership is the criterion's own exact rule, and the per-p
    q-interval is computed over Fractions, so rational inputs get
    tolerance-free answers.
    """

    def __init__(self, n, k, alpha, beta, b_infinite=False):
        alpha, beta = _frac(alpha), _frac(beta)
        if not (alpha > 0 and beta > 0):
            raise ValueError("integrability exponents alpha and beta must be positive")
        self.n = int(n)
        self.k = int(k)
        self.alpha = alpha
        self.beta = beta
        self.b_infinite = bool(b_infinite)
        # contains' laws mu = 1/alpha and 1/beta, as _exceeds reads them
        self._mu = None if INF in (alpha, beta) else (_law_ratio(1 / alpha), _law_ratio(1 / beta))
        self.reason = None
        if self.b_infinite:
            self.reason = (
                "b is infinite: the integrability exponents are all negative, "
                "forcing 1/p - 1/q > 2/n against the gate"
            )
            self.left = INF
            self.right = -INF
            return
        # lower bound on 1/q and upper bound on 1/p
        self.left = INF if alpha == INF else Fraction(self.k - 2 + alpha, 1) / self.n
        self.right = -INF if beta == INF else Fraction(self.k, 1) / self.n - Fraction(beta, 1) / self.n
        if alpha == INF or beta == INF:
            # no power-law window; criterion_check decides bounded twisting
            # by the bounded rule (module docstring)
            self.reason = "bounded twisting profile (infinite integrability exponent)"
        elif alpha + beta > 2:
            self.reason = "alpha + beta exceeds 2"
        elif max(self.left, Fraction(0)) >= min(self.right, Fraction(1)):
            self.reason = "empty (1/q, 1/p] window for these n, k, alpha, beta"

    @property
    def empty(self):
        return self.reason is not None

    @staticmethod
    def _exact(p, q):
        p, q = _frac(p), _frac(q)
        if p < 1 or q < 1:
            raise ValueError("p and q must be >= 1")
        return p, q

    def contains(self, p, q):
        """(p, q) in the window, by the criterion's exact rule:
        (k-2+alpha)/n < 1/q is alpha < u, the slope u/alpha > 1 of the
        law mu = 1/alpha, and 1/p < (k-beta)/n is v/beta > 1."""
        if self.b_infinite:
            return False
        p, q = self._exact(p, q)
        if self._mu is None:
            return False
        u, v, gate = _window(self.n, self.k, p, q)
        mu_alpha, mu_beta = self._mu
        return p <= q and gate and _exceeds(mu_alpha, u) and _exceeds(mu_beta, v)

    def margin(self, p, q):
        """Smallest strict-inequality slack at (p, q), as a float.

        The slacks of the two divergence thresholds and the gate count;
        the order p <= q does not.  Negative outside the region; a
        magnitude below a band threshold flags a point near the boundary.
        """
        if self.b_infinite:
            return -INF
        p, q = self._exact(p, q)
        inv_p, inv_q = (Fraction(0) if x == INF else 1 / x for x in (p, q))
        return min(float(slack) for slack in (
            INF if self.left == INF else inv_q - self.left,
            -INF if self.right == -INF else self.right - inv_p,
            (1 - inv_q) / (self.n + 1) - (inv_p - inv_q),
        ))

    def q_interval(self, p):
        """The q's admissible at this p: a pair (lo, hi) meaning [lo, hi), or None.

        hi collects the binding upper constraints: q < n/(k-2+alpha) from
        the left inequality and the gate q < np/(n+1-p) when p < n+1.
        """
        if self.empty:
            return None
        p = _frac(p)
        if p < 1:
            raise ValueError("p must be >= 1")
        if not 1 / p < self.right:
            return None
        uppers = []
        denom = self.k - 2 + self.alpha
        if denom > 0:
            uppers.append(Fraction(self.n, 1) / denom)
        if p < self.n + 1:
            uppers.append(self.n * p / (self.n + 1 - p))
        hi = min(uppers) if uppers else INF
        if hi <= p:
            return None
        return (p, hi)

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "beta": self.beta,
            "empty": self.empty,
            "reason": self.reason,
            "inv_q_lower": self.left if not self.b_infinite else None,
            "inv_p_upper": self.right if not self.b_infinite else None,
        }

    def __repr__(self):
        if self.empty:
            return f"AdmissibleRegion(empty: {self.reason})"
        return f"AdmissibleRegion({self.left} < 1/q <= 1/p < {self.right}, n={self.n}, k={self.k})"


def warp_profiles(t, h):
    """Twisting pair (s, g) of a sampled warp h(t, x) > 0.

    h has one row per entry of t (t-axis first, then the fiber axes); s
    and g are its max and min over the fiber, as sampled-t profiles at
    the strictly increasing t.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim < 2:
        raise ValueError("sampled warp needs a t-axis plus fiber axes")
    t = np.asarray(t, dtype=float)
    if t.shape != h.shape[:1]:
        raise ValueError(f"t has shape {t.shape}, expected one entry per row of h ({len(h)})")
    fiber_axes = tuple(range(1, h.ndim))
    return (WeightProfile.sampled_t(t, h.max(axis=fiber_axes)),
            WeightProfile.sampled_t(t, h.min(axis=fiber_axes)))


class CriterionInput:
    """One vanishing query: fiber dimension, degree, exponents, twisting.

    warp is a t-only WeightProfile for warped products (s = g = h) or an
    (s, g) pair of them; warp_profiles(t, h) turns a sampled h into the
    pair.  A sampled-t profile's t must lie in [a, b].  b = interval[1]
    may be inf only with power-law profiles.

    p and q are read exactly as given (a Fraction stays itself, a float
    is its own rational): the exponents u, v and the gate are kept exact
    (see _window), and the floats p and q serve the slopes and the report.
    """

    def __init__(self, n, k, p, q, interval, warp, hdr_zero=None):
        self.n = int(n)
        self.k = int(k)
        # compared as given: exact for ints, floats and Fractions
        if not 1 <= p <= q < INF:
            raise ValueError("need finite q >= p >= 1")
        self.p = float(p)
        self.q = float(q)
        self.u, self.v, self.gate = _window(self.n, self.k, p, q)
        self.a, self.b = float(interval[0]), float(interval[1])
        if self.n < 1:
            raise ValueError("fiber dimension must be >= 1")
        if not self.a < self.b:
            raise ValueError("empty interval")
        if isinstance(warp, WeightProfile):
            warp = (warp, warp)
        if not (isinstance(warp, (tuple, list)) and len(warp) == 2
                and all(isinstance(w, WeightProfile) for w in warp)):
            raise ValueError("warp must be a WeightProfile or an (s, g) pair of "
                             "WeightProfiles; warp_profiles(t, h) builds the pair")
        s_prof, g_prof = warp
        if not (s_prof.t_only and g_prof.t_only):
            raise ValueError("twisting profiles must be functions of t")
        if s_prof.kind == g_prof.kind == "powerlaw" and s_prof.lam < g_prof.lam:
            raise ValueError("s must dominate g: lam_s >= lam_g required")
        # a profile dominates itself, so one profile for s and g skips the compare
        if (s_prof is not g_prof and s_prof.kind == g_prof.kind == "sampled-t"
                and np.array_equal(s_prof.tcoords, g_prof.tcoords)
                and (s_prof.samples < g_prof.samples - 1e-12).any()):
            raise ValueError("s must dominate g pointwise")
        for prof in warp:
            if prof.kind == "sampled-t" and not (
                    self.a <= prof.tcoords[0] and prof.tcoords[-1] <= self.b):
                raise ValueError(f"sampled-t profile has t outside [a, b] = "
                                 f"[{self.a}, {self.b}]")
            # written so a NaN pivot fails too; b = inf is refused by its own route
            if prof.kind == "powerlaw" and self.b < INF and not prof.pivot >= self.b:
                raise ValueError(f"power-law pivot {prof.pivot} is below b = {self.b}: "
                                 "the pivot must be b or beyond")
        self.s, self.g = s_prof, g_prof
        if math.isinf(self.b) and s_prof.kind != "powerlaw":
            raise ValueError("infinite b needs power-law profiles")
        self.hdr_zero = hdr_zero


def _powerlaw_conditions(inp, law_s, law_g):
    """I1-I3 of the tail laws s ~ (b - t)^(-mu_s), g ~ (b - t)^(-mu_g),
    each a memo entry (law, mu's ratio) of _tail_law.

    Each integrand is (b - t)^(-slope) near b, with slope mu*exponent;
    in I2 the factor |t| lies between two positive constants near b != 0,
    so it shares I1's slope, and is b - t itself when b = 0: the rule's
    m = 1, a slope mu*u - 1.  "holds" is decided exactly by _exceeds;
    "slope" and "exponent" are floats.  A condition whose slope lies within
    delta*|exponent| of 1 is undecided, "holds": None; exact laws have
    delta 0.  A zero exponent makes the integrand 1 whatever the law, so
    it is always decided.
    """
    (s, mu_s), (g, mu_g) = law_s, law_g
    i1, i2, i3 = CONDITIONS
    u = inp.n / inp.q - inp.k + 2.0
    v = inp.k - inp.n / inp.p
    slope1 = s["mu"] * u
    slope2 = slope1 - (inp.b == 0)
    slope3 = g["mu"] * v
    band_u = s["delta"] * abs(u)
    band_v = g["delta"] * abs(v)
    return {
        i1: {
            "holds": None if u != 0 and abs(slope1 - 1.0) < band_u else _exceeds(mu_s, inp.u),
            "slope": slope1, "exponent": u},
        i2: {
            "holds": (None if u != 0 and abs(slope2 - 1.0) < band_u
                      else _exceeds(mu_s, inp.u, 1, inp.b)),
            "slope": slope2, "exponent": u},
        i3: {
            "holds": None if v != 0 and abs(slope3 - 1.0) < band_v else _exceeds(mu_g, inp.v),
            "slope": slope3, "exponent": v},
    }


def _tail_law(prof, a, b):
    """The memo entry (law, mu's ratio) of a t-only profile's tail law
    toward (a, b), fitted once; None when _fit_tail_law has no law.

    A profile is immutable, so its law is a pure function of (prof, a,
    b): _TAIL_LAWS keeps it under id(prof), keyed by (a, b), with the
    pair _exceeds reads formed when the law is fitted, and a finalizer
    drops the profile's entries when the profile dies, before its id can
    name another.  The memo's dicts are shared; copy before handing one
    out.  Only a miss inserts.
    """
    try:
        return _TAIL_LAWS[id(prof)][a, b]
    except KeyError:
        pass
    entries = _TAIL_LAWS.get(id(prof))
    if entries is None:
        entries = _TAIL_LAWS[id(prof)] = {}
        weakref.finalize(prof, _TAIL_LAWS.pop, id(prof), None)
    law = _fit_tail_law(prof, a, b)
    entry = entries[a, b] = None if law is None else (law, _law_ratio(law["mu"]))
    return entry


def _fit_tail_law(prof, a, b):
    """Tail law {mu, delta, rms} of a t-only profile toward a finite b,
    or None for a sampled-t profile with fewer than 3 samples before b
    or whose b - t all round to one value (nothing to fit a slope to)."""
    if prof.kind != "sampled-t":
        mu = prof.lam if prof.kind == "powerlaw" and prof.pivot == b else 0.0
        return {"mu": mu, "delta": 0.0, "rms": 0.0}
    before = prof.tcoords < b
    # b - t in units of b - a, so delta does not depend on the unit of t
    x = -np.log((b - prof.tcoords[before][-TAIL_SAMPLES:]) / (b - a))
    # t >= a gives x >= 0, so x[-1] > x[0] also makes mean(x) > 0
    if x.size < 3 or not x[-1] > x[0]:
        return None
    mean_x = float(x.mean())
    y = np.log(prof.samples[before][-TAIL_SAMPLES:])
    xc, yc = x - mean_x, y - y.mean()
    mu = float(xc @ yc / (xc @ xc))
    return {"mu": mu, "delta": 1.0 / mean_x,
            "rms": math.sqrt(float(np.mean((yc - mu * xc) ** 2)))}


def _sampled_conditions(inp, law_s, law_g):
    """(conditions, undecided reasons) of a query with a sampled-t
    profile, from the memo entries of its tail laws."""
    if law_s is None or law_g is None:
        return {}, ["fewer than 3 samples before b, or no spread in their b - t"]
    (s, _), (g, _) = law_s, law_g
    if abs(s["mu"]) <= s["delta"] and abs(g["mu"]) <= g["delta"]:
        return {}, ["tail bands of s and g contain 0: bounded and |log|-growing "
                    "twisting cannot be told apart"]
    return _powerlaw_conditions(inp, law_s, law_g), []


def criterion_check(inp):
    """Decide the vanishing hypotheses for one (n, k, p, q, twisting).

    report["route"] names what decided it: "b-infinite", "bounded" (the
    bounded rule, every tail law (0, 0)), "powerlaw" (exact laws) or
    "fitted-tail" (sampled tail laws, under "tail").  The verdict is
    HYPOTHESES-FAIL when a gate or condition fails, else UNDECIDED when
    something is undecided (reasons under "undecided"), else VANISHES,
    with the de Rham qualifier.
    """
    gates = {"order": True,  # CriterionInput refuses p > q
             "gate": inp.gate,
             "lhs": 1.0 / inp.p - 1.0 / inp.q,
             "gate_rhs": (inp.q - 1.0) / (inp.q * (inp.n + 1.0))}
    failed = [] if inp.gate else ["gate 1/p - 1/q < (q-1)/(q(n+1)) violated"]

    conds, tail, undecided = {}, None, []
    if math.isinf(inp.b):
        route = "b-infinite"
        failed.append("b is infinite: conditions I1-I3 cannot hold simultaneously")
    else:
        ab = inp.a, inp.b
        try:  # the memo hit, read in place: the path of every repeated query
            law_s, law_g = _TAIL_LAWS[id(inp.s)][ab], _TAIL_LAWS[id(inp.g)][ab]
        except KeyError:
            law_s, law_g = _tail_law(inp.s, *ab), _tail_law(inp.g, *ab)
        if "sampled-t" in (inp.s.kind, inp.g.kind):
            # the report's own dicts: the memo's stay unchanged
            route = "fitted-tail"
            tail = {"s": None if law_s is None else dict(law_s[0]),
                    "g": None if law_g is None else dict(law_g[0])}
            conds, undecided = _sampled_conditions(inp, law_s, law_g)
        elif law_s[0]["mu"] == 0 and law_g[0]["mu"] == 0:
            route = "bounded"
        else:
            route = "powerlaw"
            conds = _powerlaw_conditions(inp, law_s, law_g)
    for name, c in conds.items():
        holds = c["holds"]
        if holds is False:
            failed.append(_REASONS[name][0])
        elif holds is None:
            undecided.append(_REASONS[name][1])

    if inp.hdr_zero is False:
        failed.append(f"de Rham condition H^{inp.k}_DR(N) = 0 does not hold")

    verdict = "HYPOTHESES-FAIL" if failed else "UNDECIDED" if undecided else "VANISHES"
    report = {
        "verdict": verdict,
        "failed": failed,
        "conditional": inp.hdr_zero is None and verdict == "VANISHES",
        "conditions": conds,
        "gates": gates,
        "n": inp.n,
        "k": inp.k,
        "p": inp.p,
        "q": inp.q,
        "route": route,
    }
    if report["conditional"]:
        report["note"] = f"conditional on H^{inp.k}_DR(N) = 0"
    if tail is not None:
        report["tail"] = tail
    if verdict == "UNDECIDED":
        report["undecided"] = undecided
    return report


def asymptotic_delegate(inp):
    """Same criterion for an asymptotic twisted cylinder of dimension m = n + 1.

    The hypotheses relabel m = n + 1 and the de Rham flag refers to the
    ambient manifold; the numeric content is identical, so this wraps
    criterion_check and marks the report as delegated.
    """
    report = criterion_check(inp)
    report["delegated"] = True
    report["m"] = inp.n + 1
    if report["conditional"]:
        report["note"] = f"conditional on H^{inp.k}_DR(X) = 0"
    return report


def region_grid(region, resolution):
    """Dyadic scan of the (1/p, 1/q) triangle at i/resolution steps.

    Yields (inv_p, inv_q, member) with exact Fractions; doubling the
    resolution yields a superset of the sample points, so member rows
    nest across refinements.
    """
    R = int(resolution)
    for i in range(1, R + 1):
        inv_p = Fraction(i, R)
        for j in range(1, i + 1):
            inv_q = Fraction(j, R)
            member = region.contains(1 / inv_p, 1 / inv_q)
            yield inv_p, inv_q, member
