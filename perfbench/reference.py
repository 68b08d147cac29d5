"""Reference values the benchmark computes without calling cylcoh.

Every check of a program output compares it with something from this
module: a finite difference coded here in numpy, a cone integral in
closed form, the admissible window evaluated in exact fractions, or a
closed-form constant.  None of these is a stored copy of an earlier
output.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def partial(field, ax, h, periodic):
    """Second-order d/dx along one axis: central inside, wrapped on a
    periodic axis, one-sided three-point at closed ends."""
    f = np.moveaxis(field, ax, 0)
    out = np.empty_like(f)
    if periodic:
        out[1:-1] = f[2:] - f[:-2]
        out[0] = f[1] - f[-1]
        out[-1] = f[0] - f[-2]
    else:
        out[1:-1] = f[2:] - f[:-2]
        out[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
        out[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    return np.moveaxis(out / (2.0 * h), 0, ax)


def d(coeffs, dim, spacings, periodic):
    """Exterior derivative of {increasing index: field} by partial()."""
    out = {}
    for idx, field in coeffs.items():
        for ax in range(dim):
            if ax in idx:
                continue
            sign = -1.0 if sum(i < ax for i in idx) % 2 else 1.0
            jdx = tuple(sorted(idx + (ax,)))
            term = sign * partial(field, ax, spacings[ax], periodic[ax])
            out[jdx] = out[jdx] + term if jdx in out else term
    return out


def cone_integral_multilinear(terms, degree, mesh, y):
    """K_y of a form with multilinear coefficients, in closed form.

    terms maps each increasing index I to {S: c}, the coefficient
    sum_S c prod_{a in S} x_a.  Along psi = y + t(x - y),
    prod_{a in S} psi_a = sum_{T subset S} prod_{S-T} y_a prod_T t(x_a - y_a),
    so int_0^1 t^(k-1) f_I(psi) dt = sum_S c sum_T prod_{S-T} y_a
    prod_T (x_a - y_a) / (k + |T|).
    """
    out = {}
    for idx, poly in terms.items():
        fint = 0.0
        for monomial, c in poly.items():
            for r in range(len(monomial) + 1):
                for T in combinations(monomial, r):
                    term = c / (degree + r)
                    for a in monomial:
                        term = term * ((mesh[a] - y[a]) if a in T else y[a])
                    fint = fint + term
        for r, a in enumerate(idx):
            sign = -1.0 if r % 2 else 1.0
            jdx = idx[:r] + idx[r + 1:]
            piece = sign * fint * (mesh[a] - y[a])
            out[jdx] = out[jdx] + piece if jdx in out else piece
    return out


def window(n, k, lam):
    """The admissible (1/q, 1/p) window for the power law (b - t)^(-lam)
    as the vanishing docstring states it, with alpha = beta = 1/lam:

        (k - 2 + alpha)/n < 1/q <= 1/p < (k - beta)/n,
        p <= q  and  q(n + 1 - p) < n p.

    Returns the slack function: the three strict slacks at (p, q)."""
    alpha = beta = Fraction(1, lam)
    left = (k - 2 + alpha) / n
    right = (k - beta) / n

    def slacks(p, q):
        inv_p, inv_q = 1 / p, 1 / q
        gate = (q - 1) / (q * (n + 1)) - (inv_p - inv_q)
        return inv_q - left, right - inv_p, gate

    return slacks


def powerlaw_window_points(margin=1e-3):
    """The criterion sweep: lam in {1,2,3}, n in {2,4}, k in 1..n+1,
    (p, q) = (21/i, 21/j) with 1 <= j <= i <= 21, minus the points whose
    smallest strict slack is within margin of zero.  Yields
    (lam, n, k, p, q, inside) with exact p, q and membership."""
    for lam in (1, 2, 3):
        for n in (2, 4):
            for k in range(1, n + 2):
                slacks = window(n, k, lam)
                for i in range(1, 22):
                    for j in range(1, i + 1):
                        p, q = Fraction(21, i), Fraction(21, j)
                        s = slacks(p, q)
                        if abs(float(min(s))) < margin:
                            continue
                        yield lam, n, k, p, q, all(v > 0 for v in s)


def graded_rule(t_nodes, kappa=3):
    """Gauss-Legendre on (0, 1) pushed toward t = 1 by t = 1-(1-u)^kappa:
    the t-rule the constants docstring names for the singular end."""
    u, w = np.polynomial.legendre.leggauss(int(t_nodes))
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    return 1.0 - (1.0 - u) ** kappa, w * kappa * (1.0 - u) ** (kappa - 1)


def flat_box_constant(dim, k, p, q, t_nodes=64):
    """C(k, p, q, n, 1) on the unit box, from the closed sup

        sup_z ||1_{tx+(1-t)D}(z)||_q = (|D| min(1, (1-t)/t)^dim)^(1/q),

    which is the corollary's closed form |D|^(1/q) int t^(k-n/q)
    (1-t)^(-n/p) min(t^(n/q), (1-t)^(n/q)) dt, on the same t-rule.
    Infinite exactly when 1/p - 1/q >= 1/dim."""
    if Fraction(1) / Fraction(p) - Fraction(1) / Fraction(q) >= Fraction(1, dim):
        return math.inf
    t, w = graded_rule(t_nodes)
    shrink = np.minimum(1.0, (1.0 - t) / t)
    vals = shrink ** (dim / q) * t**k * (1.0 - t) ** (-dim / p)
    return float(np.sum(w * vals))


def powerlaw_norms(lam, q):
    """Closed ||(1-t)^-lam||_{L^q[0,1)} and ||t (1-t)^-lam||_{L^q[0,1)}
    (a Beta function); inf when lam q >= 1."""
    e = lam * q
    if e >= 1.0:
        return math.inf, math.inf
    plain = (1.0 / (1.0 - e)) ** (1.0 / q)
    beta = math.gamma(q + 1.0) * math.gamma(1.0 - e) / math.gamma(q + 2.0 - e)
    return plain, beta ** (1.0 / q)


def powerlaw_c_finite(dim, lam, p, q):
    """Finiteness of both C-integrals for beta = (1-t)^-lam on a unit box:
    lam q < 1, and the sup factor's decay (1 - lam q)/q + (dim - 1)/q at
    t -> 1 beats the (1-t)^(-dim/p) singularity by more than -1."""
    lam, p, q = Fraction(lam), Fraction(p), Fraction(q)
    if lam * q >= 1:
        return False
    return (1 - lam * q) / q + Fraction(dim - 1) / q - Fraction(dim) / p > -1
