"""Vanishing criterion for twisted-cylinder cohomology.

One divergence detector, the dyadic-shell slope of _shell_integral,
decides whether s^u, t s^u and g^v diverge at b (conditions I1-I3;
s, g the fiber max and min of the twisting).  Every profile enters it
as a tail law (mu, delta), (b - t)^(-mu) up to slope delta: power laws
and constants exactly, (lam, 0) and (0, 0); a sampled-t profile by the
least-squares slope mu of log s against x = -log(b - t) over its last
TAIL_SAMPLES samples before b, with delta = 1/mean(x), the slope a
factor |log(b - t)|^(+-1) adds to the fit.  A condition whose slope is
within delta*|exponent| of 1 is undecided.

Bounded rule: with s bounded above and g away from 0 the cylinder is
bi-Lipschitz to the flat [a, b] x N, L_{q,p}-cohomology is bi-Lipschitz
invariant, and on the compact flat cylinder it is H^k(N) when the gates
hold (Gol'dshtein-Troyanov, J. Geom. Anal. 16, 2006).  So constants and
lam = 0 VANISH conditional on H^k_DR(N) = 0; a fitted tail whose bands
both contain 0, or with under 3 samples before b, is UNDECIDED.

The source's worked power-law example pins the exact window
(AdmissibleRegion, over Fractions), which cross-checks the detector:
(k - 2 + alpha)/n < 1/q <= 1/p < (k - beta)/n, p <= q, q(n+1-p) < np.
"""

import math
from fractions import Fraction

import numpy as np

from .homotopy import gauss01, read_only
from .weights import WeightProfile

INF = math.inf
SHELLS = 6
SHELL_NODES = 64
SHELL_RULE = read_only(gauss01(SHELL_NODES))
SLOPE_TOL = 1e-4
TAIL_SAMPLES = 64
# the region's strict inequalities, the ones a quadrature has to estimate
STRICT_CHECKS = ("(k-2+alpha)/n < 1/q", "1/p < (k-beta)/n", "gate q(n+1-p) < np")


def _frac(x):
    """Exact rational from int/Fraction/float; floats convert exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and math.isinf(x):
        return INF
    return Fraction(x)


def sphere_hdr_zero(n, k):
    """H^k_DR(S^n) = 0 table: true away from degrees 0 and n."""
    return k not in (0, n)


class ExponentSummary:
    """Maximal integrability exponents of the twisting profiles.

    s^u is integrable on [a,b) exactly for u < alpha, t*s^u for
    u < alpha1, and g^v for v < beta.  With b finite alpha1 = alpha.
    """

    def __init__(self, alpha, alpha1, beta):
        self.alpha = alpha
        self.alpha1 = alpha1
        self.beta = beta

    def to_dict(self):
        return {"alpha": self.alpha, "alpha1": self.alpha1, "beta": self.beta}

    def __repr__(self):
        return f"ExponentSummary(alpha={self.alpha}, alpha1={self.alpha1}, beta={self.beta})"


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
    return ExponentSummary(alpha, alpha, beta)


class AdmissibleRegion:
    """Exact (1/p, 1/q) window for fixed n, k and exponents alpha, beta.

    Membership and the per-p q-interval are decided over Fractions, so
    rational inputs get tolerance-free answers.
    """

    def __init__(self, n, k, alpha, beta, b_infinite=False):
        self.n = int(n)
        self.k = int(k)
        self.alpha = alpha
        self.beta = beta
        self.b_infinite = bool(b_infinite)
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

    def _checks(self, p, q):
        """The four inequality slacks at (p, q); positive means satisfied."""
        p = _frac(p)
        q = _frac(q)
        if p < 1 or q < 1:
            raise ValueError("p and q must be >= 1")
        inv_p, inv_q = 1 / p, 1 / q
        return {
            "order p <= q": inv_p - inv_q,
            "(k-2+alpha)/n < 1/q": INF if self.left == INF else inv_q - self.left,
            "1/p < (k-beta)/n": -INF if self.right == -INF else self.right - inv_p,
            "gate q(n+1-p) < np": (q - 1) / (q * (self.n + 1)) - (inv_p - inv_q),
        }

    def contains(self, p, q):
        if self.b_infinite:
            return False
        checks = self._checks(p, q)
        for name, slack in checks.items():
            if slack in (INF, -INF):
                return False
            if name in STRICT_CHECKS:
                if not slack > 0:
                    return False
            elif slack < 0:
                return False
        return True

    def margin(self, p, q):
        """Smallest strict-inequality slack at (p, q), as a float.

        Only the inequalities a quadrature path has to estimate count
        (the two divergence thresholds and the gate); the order p <= q
        is decided exactly everywhere.  Negative outside the region;
        magnitudes below a band threshold flag boundary points numeric
        classification cannot be trusted on.
        """
        if self.b_infinite:
            return -INF
        checks = self._checks(p, q)
        return min(float(checks[name]) for name in STRICT_CHECKS)

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


def admissible_region(n, k, alpha, beta, b_infinite=False):
    return AdmissibleRegion(n, k, _frac(alpha) if alpha != INF else INF,
                            _frac(beta) if beta != INF else INF, b_infinite)


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
    """

    def __init__(self, n, k, p, q, interval, warp, hdr_zero=None):
        self.n = int(n)
        self.k = int(k)
        self.p = float(p)
        self.q = float(q)
        self.a, self.b = float(interval[0]), float(interval[1])
        if not 1 <= self.p <= self.q:
            raise ValueError("need q >= p >= 1")
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
        if (s_prof.kind == g_prof.kind == "sampled-t"
                and np.array_equal(s_prof.tcoords, g_prof.tcoords)
                and (s_prof.samples < g_prof.samples - 1e-12).any()):
            raise ValueError("s must dominate g pointwise")
        for prof in warp:
            if prof.kind == "sampled-t" and not (
                    self.a <= prof.tcoords[0] and prof.tcoords[-1] <= self.b):
                raise ValueError(f"sampled-t profile has t outside [a, b] = "
                                 f"[{self.a}, {self.b}]")
        self.s, self.g = s_prof, g_prof
        if math.isinf(self.b) and s_prof.kind != "powerlaw":
            raise ValueError("infinite b needs power-law profiles (symbolic mode)")
        self.hdr_zero = hdr_zero


def _shell_integral(fn, a, b):
    """Dyadic-shell quadrature toward b: total, last slope estimate.

    Shell j covers [b - eps_j, b - eps_{j+1}] with eps_j = (b-a) 2^{-j};
    for (b - t)^(-mu) the shell mass ratio is 2^{mu-1}, so the fitted
    slope 1 + log2(ratio) recovers mu and mu >= 1 flags divergence.  All
    shells are one array evaluation: fn is called once, on the
    (SHELLS, SHELL_NODES) array of every shell's nodes, and one row sum
    gives the masses; the total adds them left to right.
    """
    nodes, wts = SHELL_RULE
    ends = b - (b - a) * 0.5 ** np.arange(SHELLS + 1)
    widths = ends[1:] - ends[:-1]
    ts = ends[:-1, None] + widths[:, None] * nodes
    masses = ((fn(ts) * wts).sum(axis=1) * widths).tolist()
    total = sum(masses)
    if masses[-2] <= 0:
        return total, -INF
    return total, 1.0 + math.log2(masses[-1] / masses[-2])


def _divergent_at_b(fn, a, b):
    total, slope = _shell_integral(fn, a, b)
    return slope >= 1.0 - SLOPE_TOL, total, slope


def _pq_gates(n, p, q):
    lhs = 1.0 / p - 1.0 / q
    gate = (q - 1.0) / (q * (n + 1.0))
    return {"order": p <= q, "gate": lhs < gate, "lhs": lhs, "gate_rhs": gate}


def _powerlaw_conditions(inp, s, g, band_s=0.0, band_g=0.0):
    """Divergence checks for the three §-style integrals via shells.

    A condition whose slope lies within band*|exponent| of 1 is
    undecided, "holds": None; exact laws have band 0.
    """
    n, k, p, q = inp.n, inp.k, inp.p, inp.q
    u = n / q - k + 2.0
    v = k - n / p
    su = None

    def s_pow(ts):  # I2 reuses the s^u that I1 takes on the same shell nodes
        nonlocal su
        su = s.eval_t(ts) ** u
        return su

    rows = (
        ("I1: int s^(n/q-k+2) divergent", s_pow, u, band_s),
        ("I2: int t s^(n/q-k+2) divergent", lambda ts: ts * su, u, band_s),
        ("I3: int g^(k-n/p) divergent", lambda ts: g.eval_t(ts) ** v, v, band_g),
    )
    conds = {}
    for name, fn, exponent, band in rows:
        div, total, slope = _divergent_at_b(fn, inp.a, inp.b)
        # a zero exponent makes the integrand 1 whatever the law: decided
        undecided = exponent != 0 and abs(slope - 1.0) < band * abs(exponent)
        conds[name] = {"holds": None if undecided else div, "total": total, "slope": slope,
                       "exponent": exponent}
    return conds


def _tail_law(prof, b):
    """Tail law {mu, delta, rms} of a t-only profile toward b, or None
    for a sampled-t profile with fewer than 3 samples before b."""
    if prof.kind != "sampled-t":
        return {"mu": prof.lam if prof.kind == "powerlaw" else 0.0, "delta": 0.0, "rms": 0.0}
    before = prof.tcoords < b
    x = -np.log(b - prof.tcoords[before][-TAIL_SAMPLES:])
    if x.size < 3:
        return None
    mean_x = float(x.mean())
    y = np.log(prof.samples[before][-TAIL_SAMPLES:])
    xc, yc = x - mean_x, y - y.mean()
    mu = float(xc @ yc / (xc @ xc))
    return {"mu": mu, "delta": 1.0 / mean_x if mean_x > 0 else INF,
            "rms": math.sqrt(float(np.mean((yc - mu * xc) ** 2)))}


def _sampled_conditions(inp):
    """(conditions, tail laws, undecided reasons) of a query with a
    sampled-t profile: it enters the shell detector as (b - t)^(-mu)
    with band delta, an exact profile as itself with band 0."""
    tail = {"s": _tail_law(inp.s, inp.b)}
    tail["g"] = tail["s"] if inp.g is inp.s else _tail_law(inp.g, inp.b)
    if None in tail.values():
        return {}, tail, ["fewer than 3 samples before b"]
    if all(abs(law["mu"]) <= law["delta"] for law in tail.values()):
        return {}, tail, ["tail bands of s and g contain 0: bounded and |log|-growing "
                          "twisting cannot be told apart"]
    s, g = (WeightProfile.powerlaw(tail[name]["mu"], inp.b) if prof.kind == "sampled-t"
            else prof for name, prof in (("s", inp.s), ("g", inp.g)))
    conds = _powerlaw_conditions(inp, s, g, tail["s"]["delta"], tail["g"]["delta"])
    return conds, tail, []


def criterion_check(inp):
    """Decide the vanishing hypotheses for one (n, k, p, q, twisting).

    report["route"] names what decided it: "b-infinite", "bounded" (the
    bounded rule), "powerlaw" (exact laws) or "fitted-tail" (sampled
    tail laws, under "tail").  The verdict is HYPOTHESES-FAIL when a gate
    or condition fails, else UNDECIDED when something is undecided
    (reasons under "undecided"), else VANISHES, with the de Rham qualifier.
    """
    gates = _pq_gates(inp.n, inp.p, inp.q)
    failed = []
    if not gates["order"]:
        failed.append("order p <= q violated")
    if not gates["gate"]:
        failed.append("gate 1/p - 1/q < (q-1)/(q(n+1)) violated")

    conds, tail, undecided = {}, None, []
    if math.isinf(inp.b):
        route = "b-infinite"
        failed.append("b is infinite: conditions I1-I3 cannot hold simultaneously")
    elif all(w.kind == "constant" or w.lam == 0 for w in (inp.s, inp.g)):  # sampled: lam None
        route = "bounded"
    elif "sampled-t" in (inp.s.kind, inp.g.kind):
        route = "fitted-tail"
        conds, tail, undecided = _sampled_conditions(inp)
    else:
        route = "powerlaw"
        conds = _powerlaw_conditions(inp, inp.s, inp.g)
    failed += [name + " does not hold" for name, c in conds.items() if c["holds"] is False]
    undecided += [name + " undecided: shell slope within the tail band"
                  for name, c in conds.items() if c["holds"] is None]

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
