"""Sup-window norms, the C-integrals, and the assembled cylinder constant."""

import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylcoh import (
    C_integral,
    ConstantRequest,
    CriterionInput,
    Q_factor,
    WeightProfile,
    box,
    check_admissible_weight,
    corollary_box_bound,
    cylinder,
    cylinder_constant,
)
from cylcoh import _interp, constants
from cylcoh._interp import STACK_BYTES, powerlaw_mass, t_norm, window_matrix
from cylcoh.constants import _graded_nodes, _sup_norms, _window_mass_field, _window_stacks


def test_sup_indicator_constant_beta_exact():
    # per-axis overlap is min(1, (1-t)/t) on [0,1], so the norm is
    # value * min(1, (1-t)/t)^(dim/q), exact for constant weights
    dom = box([[0, 1]], [65])
    one = WeightProfile.constant(1.0)
    assert _sup_norms(dom, one, 2.0, [0.0])[0] == pytest.approx(1.0)
    assert _sup_norms(dom, one, 2.0, [0.25])[0] == pytest.approx(1.0)
    assert _sup_norms(dom, one, 2.0, [0.5])[0] == pytest.approx(1.0)
    got = _sup_norms(dom, one, 2.0, [0.75])[0]
    assert got == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-12)

    two = WeightProfile.constant(2.0)
    assert _sup_norms(dom, two, 2.0, [0.75])[0] == pytest.approx(
        2.0 * (1.0 / 3.0) ** 0.5, rel=1e-12
    )

    sq = box([[0, 1], [0, 1]], [17, 17])
    got = _sup_norms(sq, one, 1.0, [0.75])[0]
    assert got == pytest.approx((1.0 / 3.0) ** 2, rel=1e-12)


def test_sup_indicator_halfway_square():
    # at t = 1/2 the window matches D up to translation, best centred at
    # z = (1/2, 1/2): full overlap, norm exactly 1
    dom = box([[0, 1], [0, 1]], [33, 33])
    one = WeightProfile.constant(1.0)
    assert _sup_norms(dom, one, 1.0, [0.5])[0] == pytest.approx(1.0)

    flat = WeightProfile.sampled(np.ones(dom.grid))
    got = _sup_norms(dom, flat, 1.0, [0.5])[0]
    assert abs(got - 1.0) <= 1e-9, f"grid-search sup {got} != 1"


def test_sup_indicator_sampled_t_whole_box_is_one_rule():
    # for t <= 1/2 a window covers the whole box, so the sup is the same
    # at t = 0 as at t = 0.25: both take the whole-box mass of beta^q
    dom = box([[0, 1], [0, 1]], [9, 9])
    grid = np.random.default_rng(11).uniform(0.5, 2.0, dom.grid)
    for beta in (WeightProfile.sampled_t([0.0, 0.3, 1.0], [0.5, 1.5, 0.5]),
                 WeightProfile.sampled(grid)):
        for q in (1.0, 2.0):
            assert _sup_norms(dom, beta, q, [0.25])[0] == _sup_norms(dom, beta, q, [0.0])[0]


def test_sup_indicator_sampled_matches_constant():
    dom = box([[0, 1], [0, 1]], [33, 33])
    one = WeightProfile.constant(1.0)
    flat = WeightProfile.sampled(np.ones(dom.grid))
    for t in (0.3, 0.6, 0.85):
        a = _sup_norms(dom, one, 2.0, [t])[0]
        b = _sup_norms(dom, flat, 2.0, [t])[0]
        assert abs(a - b) <= 0.05 * a, f"t={t}: exact {a} vs grid {b}"


def test_sup_indicator_powerlaw_exact():
    dom = box([[0, 1]], [65])
    # (2-x)^(-1/2), q=2: window of length 1/3 hugs the right edge where the
    # weight peaks; int_{2/3}^1 (2-x)^(-1) dx = log(4/3)
    beta = WeightProfile.powerlaw(0.5, 2.0)
    got = _sup_norms(dom, beta, 2.0, [0.75])[0]
    assert got == pytest.approx(math.log(4.0 / 3.0) ** 0.5, rel=1e-12)

    # decreasing weight (2-x)^1 hugs the left edge instead
    grow = WeightProfile.powerlaw(-1.0, 2.0)
    got = _sup_norms(dom, grow, 2.0, [0.75])[0]
    want = ((8.0 - (5.0 / 3.0) ** 3) / 3.0) ** 0.5
    assert got == pytest.approx(want, rel=1e-12)

    # pivot on the edge with lam*q >= 1: divergent, decided symbolically
    sing = WeightProfile.powerlaw(0.5, 1.0)
    assert _sup_norms(dom, sing, 2.0, [0.75])[0] == math.inf
    # and the t = 0 full norm with lam*q < 1 stays exact: int (1-x)^(-1/2) = 2
    soft = WeightProfile.powerlaw(0.25, 1.0)
    assert _sup_norms(dom, soft, 2.0, [0.0])[0] == pytest.approx(
        2.0**0.5, rel=1e-12
    )


def test_powerlaw_mass_rejects_interior_pivot():
    with pytest.raises(ValueError, match="pivot 0.5 is below the end of"):
        powerlaw_mass(2.0, 0.5, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("lam", [-1.0, 0.25, 0.6])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_window_matrix_row_matches_powerlaw_mass(lam, q, shift):
    # the window matrices and the heaviest-window mass share _pl_primitive:
    # a one-row window matrix on a constant field integrates the law over
    # its window, and the heavier of the two edge windows is the mass
    lo, hi = 0.0, 1.0
    pivot = hi + shift
    dom = box([[lo, hi]], [17])
    for width in (0.1, 0.37, 1.0):
        mass = powerlaw_mass(lam * q, pivot, lo, hi, width)
        if not math.isfinite(mass):
            assert lam * q >= 1.0 and shift == 0.0
            continue
        rows = [
            window_matrix(dom, 0, np.array([a]), np.array([a + width]), (lam * q, pivot))
            for a in (lo, hi - width)
        ]
        heaviest = max(float(row[0] @ np.ones(dom.grid[0])) for row in rows)
        assert heaviest == pytest.approx(mass, rel=1e-14, abs=0.0), f"width={width}"


def test_window_rows_reaching_the_pivot_take_its_whole_mass():
    # a law singular at the axis end: a window [a, hi] integrates the law
    # up to the pivot itself.  On [0.3, 1.4] the sum lo + 16 h misses hi
    # by rounding, and a window end placed there left out a sliver whose
    # share of the mass (pivot - s)^-0.9 is not small: 3% of [1.3, 1.4]
    lo, hi, mu = 0.3, 1.4, 0.9
    dom = box([[lo, hi]], [17])
    e = float(1 - Fraction(mu))
    for a in (lo, 1.0, 1.3, 1.39, dom.axis_coords(0)[15]):
        row = window_matrix(dom, 0, np.array([a]), np.array([hi]), (mu, hi))[0]
        assert row.sum() == pytest.approx((hi - a) ** e / e, rel=1e-14, abs=0.0), a


def _window_row_40_digits(a, b, weight, m):
    """The window row of [a, b] on m nodes of [0, 1] at 40 digits: per
    cell, int (s - y) v(s) ds of each hat (s - y)/(x_other - y) against
    v(s) = (s - x_i)^n, or (pivot - s)^-mu for the law (mu, pivot), by
    closed antiderivatives in the hat's own local variable."""
    with mpmath.workdps(40):
        a, b, h = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(1) / (m - 1)
        row = [mpmath.mpf(0)] * m
        for c in range(m - 1):
            lo, hi = max(a, c * h), min(b, (c + 1) * h)
            if lo >= hi:
                continue
            for i, y in ((c, (c + 1) * h), (c + 1, c * h)):
                x = i * h
                if isinstance(weight, tuple):
                    mu, pivot = (mpmath.mpf(v) for v in weight)
                    # v = pivot - s: (s - y) = (pivot - y) - v
                    def prim(v):
                        return (pivot - y) * v ** (1 - mu) / (1 - mu) - v ** (2 - mu) / (2 - mu)
                    val = prim(pivot - lo) - prim(pivot - hi)
                else:
                    n = weight or 0
                    # v = s - x: (s - y) = v + (x - y)
                    def prim(v):
                        return v ** (n + 2) / (n + 2) + (x - y) * v ** (n + 1) / (n + 1)
                    val = prim(hi - x) - prim(lo - x)
                row[i] += val / (x - y)
        return [float(r) for r in row]


@pytest.mark.parametrize("weight", [None, 1, 2, (0.25, 1.0), (0.25, 2.0), (0.25, 10.0),
                                    (0.25, 100.0)],
                         ids=["None", "1", "2", "law", "law-pivot2", "law-pivot10", "law-pivot100"])
def test_window_rows_exact_for_narrow_windows(weight):
    # 400 random windows of width 10^U(-8, 0) on 17 nodes of [0, 1]: each
    # row is a sum of local cell terms, so it matches a 40-digit reference
    # to 1e-14 of its absolute sum whatever its width.  Running sums from
    # the axis end missed by up to 2.3e-8 here (the law); a law's up-hat
    # moment formed about its pivot missed by 1.1e-14, 7.0e-14 and 5.9e-13
    # at pivots 2, 10 and 100
    dom = box([[0.0, 1.0]], [17])
    rng = np.random.default_rng(14)
    width = 10.0 ** rng.uniform(-8.0, 0.0, 400)
    lower = rng.uniform(0.0, 1.0 - width)
    upper = lower + width
    got = window_matrix(dom, 0, lower, upper, weight)
    for a, b, row in zip(lower, upper, got):
        ref = np.array(_window_row_40_digits(a, b, weight, 17))
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).sum(), (a, b - a)


@pytest.mark.parametrize("e", [0.5, 0.9, 0.98])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_t_moment_norm_matches_beta_function(e, q):
    # ||t (1-t)^(-lam)||_{L^q[0,1)}^q = B(q + 1, 1 - lam q)
    lam = e / q
    exact = (math.gamma(q + 1.0) * math.gamma(1.0 - e) / math.gamma(q + 2.0 - e)) ** (1.0 / q)
    beta = WeightProfile.powerlaw(lam, 1.0)
    got = t_norm(beta, q, 0.0, 1.0, moment_t=True)
    assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
    sq = box([[0, 1], [0, 1]], [17, 17])
    out = cylinder_constant(ConstantRequest(1, q, q, sq, beta=beta), t_nodes=8)
    assert out["tbeta_norm"] == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_t_moment_norm_at_pivot_zero():
    # on [-1, 0) the moment |t|^q (0-t)^(-lam q) is the law (0-t)^(q - lam q),
    # finite iff lam q < q + 1: lam = 0.6, q = 2 gives (1/1.8)^(1/2)
    got = t_norm(WeightProfile.powerlaw(0.6, 0.0), 2.0, -1.0, 0.0, moment_t=True)
    assert got == pytest.approx((1.0 / 1.8) ** 0.5, rel=1e-12, abs=0.0)
    for lam in (1.5, 2.0):
        beta = WeightProfile.powerlaw(lam, 0.0)
        assert t_norm(beta, 2.0, -1.0, 0.0, moment_t=True) == math.inf


def test_t_moment_norms_straddling_zero():
    # |t|^q kinks at t = 0 inside [-1, 1.5), and every t-rule splits there:
    # ||t (1.5-t)^-0.3||_{L^1.5} against mpmath, split at 0, with u =
    # (1.5-t)^(1-e) taking the law's edge singularity out of its quadrature
    e = _interp.law_exponent(0.3, 1.5)
    with mpmath.workdps(30):
        q, e = mpmath.mpf(1.5), mpmath.mpf(e.numerator) / e.denominator
        g = 1 - e
        ref = (mpmath.quad(lambda t: (-t) ** q * (1.5 - t) ** -e, [-1, 0])
               + mpmath.quad(lambda u: (1.5 - u ** (1 / g)) ** q / g, [0, mpmath.mpf(1.5) ** g]))
        ref = float(ref ** (1 / q))
    law = WeightProfile.powerlaw(0.3, 1.5)
    got = t_norm(law, 1.5, -1.0, 1.5, moment_t=True)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # the same law as a centering weight, p' = 3/2, takes the edge rule
    adm = check_admissible_weight(law, box([[-1.0, 1.5]], [17]), 3)
    assert adm["moment_norm"] == pytest.approx(ref, rel=1e-12, abs=0.0)
    # a bounded profile: int |t|^q = (1 + 1.5^(q+1)) / (q+1)
    for q in (1.1, 1.5, 3.0):
        want = ((1.0 + 1.5 ** (q + 1.0)) / (q + 1.0)) ** (1.0 / q)
        got = t_norm(WeightProfile.constant(1.0), q, -1.0, 1.5, moment_t=True)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), q


@pytest.mark.parametrize("lam, pivot, q, lo", [(0.1, 0.5, 1.5, -0.3), (0.3, 1.0, 1.1, -1.0)])
def test_t_moment_norm_at_the_edge_matches_mpmath(lam, pivot, q, lo):
    # ||t (pivot-t)^-lam||_{L^q[lo, pivot)}: the law is singular at the edge,
    # where u = (pivot-t)^(1-lam q) is not smooth unless 1/(1-lam q) is an
    # integer, and |t|^q kinks at 0 inside the interval
    e = _interp.law_exponent(lam, q)
    with mpmath.workdps(30):
        mq, me = mpmath.mpf(q), mpmath.mpf(e.numerator) / e.denominator
        ref = mpmath.quad(lambda t: abs(t) ** mq * (pivot - t) ** -me, [lo, 0, pivot])
        ref = float(ref ** (1 / mq))
    got = t_norm(WeightProfile.powerlaw(lam, pivot), q, lo, pivot, moment_t=True)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def _interpolant_norms(knots, samples, q, lo, hi):
    """Both L^q[lo, hi) norms, of beta and of t beta, of the piecewise-linear
    interpolant of (knots, samples), constant past its end knots: exact
    on each piece between lo, 0, the knots and hi, in mpmath."""
    with mpmath.workdps(20):
        ts, vs = ([mpmath.mpf(float(v)) for v in arr] for arr in (knots, samples))

        def beta(t):
            i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
            return vs[i] + (vs[i + 1] - vs[i]) * (min(max(t, ts[0]), ts[-1]) - ts[i]) / (ts[i + 1] - ts[i])

        inner = [t for t in [mpmath.mpf(0), *ts] if lo < t < hi]
        ends = sorted({mpmath.mpf(lo), mpmath.mpf(hi), *inner})
        q, plain, moment = mpmath.mpf(q), 0, 0
        for c0, c1 in zip(ends, ends[1:]):
            b0, b1 = beta(c0), beta(c1)
            # beta is linear in t on the piece, so int beta^q dt is closed
            plain += (c1 - c0) * (b0**q if b0 == b1 else
                                  (b1 ** (q + 1) - b0 ** (q + 1)) / ((q + 1) * (b1 - b0)))
            moment += mpmath.quad(lambda t: abs(t) ** q * (b0 + (b1 - b0) * (t - c0) / (c1 - c0)) ** q,
                                  [c0, c1])
        return float(plain ** (1 / q)), float(moment ** (1 / q))


GRADED_T = 1.0 - 2.0 ** (-12.0 * np.arange(257) / 256)
NINE_KNOTS = np.random.default_rng(7).uniform([[-1.2] * 9, [0.5] * 9], [[1.1] * 9, [3.0] * 9])
# (knots, samples, q, lo) on [lo, 1): the criterion benchmark's sampled law
# (1-t)^-1 at t_i = 1 - 2^(-12 i/256), and 9 random knots on [-1, 1),
# which straddles 0, the first knot below -1
SAMPLED_T_CASES = {
    "graded-257": (GRADED_T, 1.0 / (1.0 - GRADED_T), 2.5, 0.0),
    "random-9": (np.sort(NINE_KNOTS[0]), NINE_KNOTS[1], 1.5, -1.0),
}


@pytest.mark.parametrize("case", sorted(SAMPLED_T_CASES))
def test_sampled_t_norms_match_exact_interpolant(case):
    knots, samples, q, lo = SAMPLED_T_CASES[case]
    beta = WeightProfile.sampled_t(knots, samples)
    want = _interpolant_norms(knots, samples, q, lo, 1.0)
    got = (t_norm(beta, q, lo, 1.0), t_norm(beta, q, lo, 1.0, moment_t=True))
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", sorted(SAMPLED_T_CASES))
def test_chunked_edge_integral_matches_one_sum(monkeypatch, case):
    # the pieces go to the integrand in chunks: a profile whose pieces fit
    # one chunk takes one sum, as before, and a chunked one differs from
    # that one sum by rounding only
    knots, samples, q, lo = SAMPLED_T_CASES[case]
    beta = WeightProfile.sampled_t(knots, samples)
    norms = [(t_norm(beta, q, lo, 1.0), t_norm(beta, q, lo, 1.0, moment_t=True))]
    monkeypatch.setattr(_interp, "CHUNK_BYTES", 1 << 30)
    one_sum = (t_norm(beta, q, lo, 1.0), t_norm(beta, q, lo, 1.0, moment_t=True))
    if len(knots) + 2 <= _interp.CHUNK_BYTES // (8 * _interp.TANH_SINH[0].size):
        assert norms[0] == one_sum
    assert norms[0] == pytest.approx(one_sum, rel=1e-15, abs=0.0)


def test_edge_integral_temporaries_stay_small():
    # a 257-knot profile (31,000 integrand points) takes its pieces in
    # chunks: the largest memory in use during a norm stays under 128 KiB,
    # below malloc's threshold for mapping fresh pages
    import tracemalloc

    knots, samples, q, lo = SAMPLED_T_CASES["graded-257"]
    beta = WeightProfile.sampled_t(knots, samples)
    t_norm(beta, q, lo, 1.0, moment_t=True)
    tracemalloc.start()
    try:
        t_norm(beta, q, lo, 1.0, moment_t=True)
        t_norm(beta, q, lo, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10, peak


@pytest.mark.parametrize("mu", [0.25, 0.6])
def test_window_mass_field_exact_for_powerlaw_weight(mu):
    # qfield = (a0 + a1 s)(c0 + c1 y): the interpolant is the field itself,
    # so the (1-s)^-mu weighted window integral has a closed form in
    # u = 1 - s, windows reaching the pivot s = 1 included
    dom = box([[0, 1], [0, 2]], [17, 9])
    a0, a1, c0, c1 = 0.7, -0.4, 1.3, 0.25
    s, y = dom.meshgrid()
    qfield = (a0 + a1 * s) * (c0 + c1 * y)

    def prim_s(u):
        return (a0 + a1) * u ** (1.0 - mu) / (1.0 - mu) - a1 * u ** (2.0 - mu) / (2.0 - mu)

    def prim_y(v):
        return c0 * v + 0.5 * c1 * v * v

    coords = [np.linspace(0.0, 1.0, 13), np.linspace(0.0, 2.0, 7)]
    nodes = (0.2, 0.5, 0.8)
    stacks = _window_stacks(dom, nodes, coords, pl=(mu, 1.0))
    work = (np.empty(qfield.size), np.empty(qfield.size))
    for i, t in enumerate(nodes):
        got = _window_mass_field(qfield, [s[i] for s in stacks], work)
        ends = []
        for z, (lo, hi) in zip(coords, dom.bounds):
            wl = np.clip((z - (1.0 - t) * hi) / t, lo, hi)
            wu = np.clip((z - (1.0 - t) * lo) / t, lo, hi)
            ends.append((wl, np.maximum(wu, wl)))
        (sl, su), (yl, yu) = ends
        ref = np.outer(prim_s(1.0 - sl) - prim_s(1.0 - su), prim_y(yu) - prim_y(yl))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("grid", [(33, 17), (17, 12, 7)])
def test_c_integral_blocked_sups_match_per_t(monkeypatch, grid, split):
    # every window row is built on its own, so the sups of a block of
    # t-nodes equal one-node searches bitwise; split shrinks the budget
    # to 3 t-nodes' largest build, so the 24 t-nodes take 8 blocks
    dom = box([[0, 1], [0, 2], [-1, 1]][: len(grid)], grid)
    if split:
        monkeypatch.setattr(_interp, "STACK_BYTES", 3 * 8 * max(grid) ** 2 + 7)
    beta = WeightProfile.sampled(np.random.default_rng(7).uniform(0.5, 2.0, dom.grid))
    seen = []  # the per-t sups of C_integral's window search
    search = constants._sup_window_norms

    def recorded(*args, **kwargs):
        seen.append(search(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(constants, "_sup_window_norms", recorded)
    nodes = _graded_nodes(24)[0]
    C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=beta), t_nodes=24)
    assert len(seen) == 1 and len(seen[0]) == len(nodes)
    for t, sup in zip(nodes, seen[0]):
        assert sup == _sup_norms(dom, beta, 3.0, [t])[0], f"t={t}"

    # the |x| moment of a power law, whose law enters the axis-0 windows
    law = WeightProfile.powerlaw(0.25, 1.0)
    seen.clear()
    C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=law), moment="|x|", t_nodes=24)
    qfield = np.sqrt(sum(c**2 for c in dom.meshgrid())) ** 3.0
    for t, sup in zip(nodes, seen[0]):
        one = search(qfield, dom, 3.0, [t], pl=(0.75, 1.0))[0]
        assert sup == pytest.approx(one, rel=1e-14, abs=0.0), f"t={t}"

    # constant and power-law beta take the closed form, no window search:
    # C_integral's per-t sups are one-node _sup_norms calls', bitwise
    sup_norms = constants._sup_norms

    def closed(*args, **kwargs):
        seen.append(sup_norms(*args, **kwargs))
        return seen[-1]

    betas = (WeightProfile.constant(1.5), law, WeightProfile.powerlaw(-1.0, 2.0))
    wants = [[_sup_norms(dom, b, 3.0, [t])[0] for t in nodes] for b in betas]
    monkeypatch.setattr(constants, "_sup_norms", closed)
    for beta, want in zip(betas, wants):
        seen.clear()
        C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=beta), t_nodes=24)
        assert seen == [want], beta


def _covered(D, nodes):
    """Per t-node: is some grid node's window, clipped to D, all of D on
    every axis?"""
    t = np.asarray(nodes, dtype=float)[:, None]
    hit = np.ones(len(t), dtype=bool)
    for ax, (lo, hi) in enumerate(D.bounds):
        z = D.axis_coords(ax)
        wl = np.clip((z - (1.0 - t) * hi) / t, lo, hi)
        wu = np.clip((z - (1.0 - t) * lo) / t, lo, hi)
        hit &= ((wl == lo) & (wu == hi)).any(axis=1)
    return hit


def _searched_sups(qfield, D, q, nodes, pl=None):
    """The sup search at every t-node, none skipped: the grid search over
    z, then 9 points per axis around its winner, with each window mass
    summed axis by axis by tensordot."""
    def mass(mats):
        out = qfield
        for ax, mat in enumerate(mats):
            out = np.moveaxis(np.tensordot(mat, out, axes=(1, ax)), 0, ax)
        return out

    coords = [D.axis_coords(ax) for ax in range(D.dim)]
    sups = []
    for t in nodes:
        coarse = mass([s[0] for s in _window_stacks(D, [t], coords, pl)])
        winner = np.unravel_index(int(np.argmax(coarse)), coarse.shape)
        fine = [np.clip(np.linspace(c[i] - D.spacing(ax), c[i] + D.spacing(ax), 9), *D.bounds[ax])
                for ax, (c, i) in enumerate(zip(coords, winner))]
        refined = mass([s[0] for s in _window_stacks(D, [t], fine, pl)])
        sups.append(max(coarse.max(), refined.max(), 0.0) ** (1.0 / q))
    return sups


@pytest.mark.parametrize("field", ["sampled", "law-moment", "sampled-law"])
@pytest.mark.parametrize("bounds, grid", [
    ([[0.3, 1.4]], (17,)),
    ([[0.3, 1.4]], (16,)),
    ([[0.5, 1.5], [-1.0, 0.25]], (9, 12)),
    ([[1.0, 2.0], [-0.5, 0.5], [0.2, 0.9]], (7, 8, 9)),
])
def test_sup_window_norms_match_exhaustive_search(monkeypatch, field, bounds, grid):
    # a t-node whose window covers the box takes the whole-box mass, which
    # no window exceeds: the sups of the search at every t-node, to rounding
    dom = box(bounds, grid)
    q, pl = 2.5, None
    if field == "law-moment":
        qfield = np.sqrt(sum(c**2 for c in dom.meshgrid())) ** q
    else:
        qfield = np.random.default_rng(len(grid)).uniform(0.5, 2.0, grid) ** q
    if field != "sampled":
        pl = (_interp.law_exponent(0.3, q), bounds[0][1])
    # graded nodes, and one just below 1/2, where an even axis has no
    # node whose window covers it
    nodes = np.append(_graded_nodes(16)[0], np.nextafter(0.5, 0.0))
    covered = _covered(dom, nodes)
    assert covered.any() and covered[-1] == all(m % 2 for m in grid)
    calls = []

    def counted(*args):
        calls.append(args[0].size)
        return _window_mass_field(*args)

    monkeypatch.setattr(constants, "_window_mass_field", counted)
    got = constants._sup_window_norms(qfield, dom, q, nodes, pl=pl)
    # two fields per searched t-node, one 1-row mass for the covered ones
    assert len(calls) == 2 * int((~covered).sum()) + 1
    want = _searched_sups(qfield, dom, q, nodes, pl)
    for t, a, b in zip(nodes, got, want):
        assert a == pytest.approx(b, rel=1e-13, abs=0.0), f"t={t}"

    # the node below 1/2 alone: covered on an odd grid, searched on an even one
    calls.clear()
    got = constants._sup_window_norms(qfield, dom, q, nodes[-1:], pl=pl)
    assert len(calls) == (1 if covered[-1] else 2)
    assert got[0] == pytest.approx(want[-1], rel=1e-13, abs=0.0)


def test_sup_window_search_skips_covered_nodes(monkeypatch):
    # on the unit square 19 of the 64 graded t-nodes are covered: the
    # search runs 2 x 45 + 1 window-mass fields instead of 2 x 64
    dom = box([[0, 1], [0, 1]], [33, 33])
    nodes = _graded_nodes(64)[0]
    assert _covered(dom, nodes).sum() == 19 and nodes[18] < 0.5 < nodes[19]
    calls = []

    def counted(*args):
        calls.append(1)
        return _window_mass_field(*args)

    monkeypatch.setattr(constants, "_window_mass_field", counted)
    beta = WeightProfile.sampled(np.random.default_rng(5).uniform(0.5, 2.0, dom.grid))
    C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=beta))
    assert len(calls) == 91


def test_c_integral_builds_windows_once_per_axis_and_block(monkeypatch):
    # from a cold memo, one window_matrix call per distinct axis and pass
    # for each block of searched t-nodes: the coarse search, the
    # refinement, and the whole-box rows.  beta = (1+x)(3-y)(1+z) is
    # separable, so the x and z winners sit on the same node, y's
    # elsewhere: the refinement shares x's rows with z, never with y.  A
    # second identical call builds the refinement's rows only.  At the CLI
    # maxima (257^2, 256 t-nodes) the blocks' builds stay within the byte
    # budget
    calls = []
    build = _interp.window_matrix

    def counted(domain, ax, lower, upper, weight=None):
        calls.append(len(lower))
        return build(domain, ax, lower, upper, weight)

    def run(dom, t_nodes, cold=True):
        c = dom.meshgrid()
        beta = (1.0 + c[0]) * (3.0 - c[1]) * (1.0 + c[2] if dom.dim > 2 else 1.0)
        calls.clear()
        if cold:
            monkeypatch.setattr(_interp, "_ROW_MEMO", {})
        C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=WeightProfile.sampled(beta)),
                   t_nodes=t_nodes)
        return sorted(calls), int((~_covered(dom, _graded_nodes(t_nodes)[0])).sum())

    monkeypatch.setattr(_interp, "window_matrix", counted)
    for t_nodes in (16, 64):
        for bounds, grid in [([[0, 1]] * 2, (33, 33)), ([[0, 1], [0, 2]], (33, 17)),
                             ([[0, 1]] * 3, (17, 17, 17))]:
            dom = box(bounds, grid)
            got, searched = run(dom, t_nodes)
            distinct = set(zip(dom.bounds, dom.grid))
            # whole box, refinement of x (and z) and of y, coarse search
            assert got == sorted([1] * len(distinct) + [searched * 9] * 2
                                 + [searched * m for _, m in distinct]), (grid, t_nodes)
            # the grid's and the whole box's rows are kept, the
            # refinement's follow beta and are built again
            assert run(dom, t_nodes, cold=False)[0] == [searched * 9] * 2, (grid, t_nodes)

    dom = box([[0, 1], [0, 1]], [257, 257])
    got, searched = run(dom, 256)
    blocks = -(-searched // (STACK_BYTES // (8 * 257 * 257)))
    assert blocks > 1 and got.count(1) == 1 and got.count(9 * searched) == 0
    assert len(got) == 1 + 3 * blocks and sum(got) == 1 + searched * (257 + 2 * 9)
    assert max(got) * 257 * 8 <= STACK_BYTES


def test_c_integral_matches_analytic_reference():
    # k=1, p=q=2 on [0,1]: the integrand collapses to
    # t^(1/2) (1-t)^(-1/2) min(t, 1-t)^(1/2), whose integral is 2 - sqrt(2)
    dom = box([[0, 1]], [65])
    req = ConstantRequest(1, 2.0, 2.0, dom)
    got = C_integral(req)
    ref = 2.0 - math.sqrt(2.0)
    assert abs(got - ref) <= 2e-4, f"C {got} vs analytic {ref}"
    # same integrand as the closed-form box bound, so the two agree tightly
    cor = corollary_box_bound(dom, 1, 2.0, 2.0)
    assert got == pytest.approx(cor, rel=1e-10)


def test_c_integral_equals_box_bound_for_flat_beta():
    sq = box([[0, 1], [0, 1]], [17, 17])
    for k, p, q in [(1, 2.0, 2.0), (2, 2.0, 3.0), (1, 1.0, 1.4)]:
        req = ConstantRequest(k, p, q, sq)
        got = C_integral(req)
        cor = corollary_box_bound(sq, k, p, q)
        assert got == pytest.approx(cor, rel=1e-10), f"k={k} p={p} q={q}"


def test_c_integral_divergence():
    sq = box([[0, 1], [0, 1]], [17, 17])
    # 1/p - 1/q = 1/2 = 1/dim: log-divergent endpoint
    req = ConstantRequest(1, 1.0, 2.0, sq)
    assert C_integral(req) == math.inf
    assert corollary_box_bound(sq, 1, 1.0, 2.0) == math.inf
    # just inside the gate it is finite
    req = ConstantRequest(1, 1.0, 1.9, sq)
    assert math.isfinite(C_integral(req))

    # singular beta with lam*q >= 1 diverges no matter the exponents
    dom = box([[0, 1]], [33])
    bad = ConstantRequest(1, 2.0, 2.0, dom, beta=WeightProfile.powerlaw(0.6, 1.0))
    assert C_integral(bad) == math.inf
    assert C_integral(bad, moment="|x|") == math.inf


def test_c_integral_moment_validation():
    dom = box([[0, 1]], [33])
    req = ConstantRequest(1, 2.0, 2.0, dom)
    with pytest.raises(ValueError, match="moment"):
        C_integral(req, moment="x^2")


@pytest.mark.parametrize("moment", ["none", "|x|"])
def test_c_integral_needs_box_domain(moment):
    # the windows tx + (1-t)D must not wrap around a periodic axis
    req = ConstantRequest(1, 2.0, 2.0, cylinder([0, 1], [[0, 1]], [17, 16]))
    with pytest.raises(ValueError, match="needs a box domain"):
        C_integral(req, moment=moment)


def test_request_validation_and_gates():
    sq = box([[0, 1], [0, 1]], [9, 9])
    with pytest.raises(ValueError, match="q >= p"):
        ConstantRequest(1, 3.0, 2.0, sq)
    with pytest.raises(ValueError, match="pbar"):
        ConstantRequest(1, 2.0, 2.0, sq, pbar=3.0)

    g = ConstantRequest(1, 2.0, 2.0, sq).gates()
    assert g["prop-convex"] and g["thm-cylinder"] and g["lhs"] == 0.0
    g = ConstantRequest(1, 1.0, 2.0, sq).gates()
    assert not g["prop-convex"] and not g["thm-cylinder"]
    # both gates are strict and exact: q(n+1-p) = np at n = 2, p = 1.5,
    # q = 2 (the float sides give 0.16666666666666663 < 0.16666666666666666),
    # and 1/p - 1/q = 1/2 at p = 1.5, q = 6
    g = ConstantRequest(2, 1.5, 2.0, sq, n=2).gates()
    assert g["prop-convex"] and not g["thm-cylinder"]
    g = ConstantRequest(2, 1.5, 6.0, sq).gates()
    assert not g["prop-convex"]
    assert corollary_box_bound(sq, 2, 1.5, 6.0) == math.inf
    assert math.isfinite(corollary_box_bound(sq, 2, 1.5, 5.0))
    # C_integral's finiteness for bounded beta is the same exact gate, also
    # at floats within rounding of 1/p - 1/q = 1/2
    for i in range(1, 37):
        p = 1 + Fraction(i, 37)
        req = ConstantRequest(1, float(p), float(1 / (1 / p - Fraction(1, 2))), sq)
        assert constants._c_integral_symbolic(req) == req.gates()["prop-convex"], p


@pytest.mark.parametrize("lam, p, q, finite", [
    (0.25, Fraction(20, 13), Fraction(5, 2), False),
    (0.5, Fraction(18, 13), Fraction(9, 5), False),
    (0.25, Fraction(77, 50), Fraction(5, 2), True),
])
def test_c_integral_exact_at_the_t_edge(lam, p, q, finite):
    # on the unit cube the t-integrand near t = 1 is the law
    # (1-t)^-(lam + 3(1/p - 1/q)); the first two points put that exponent
    # exactly at 1, a divergent integral that floats of p and q missed
    cube = box([[0, 1]] * 3, (9, 9, 9))
    req = ConstantRequest(1, p, q, cube, beta=WeightProfile.powerlaw(lam, 1.0))
    for moment in ("none", "|x|"):
        assert math.isfinite(C_integral(req, moment=moment, t_nodes=16)) == finite, moment


# a dyadic lam, so the test's Fraction is the lam the profile holds
LAMS = st.integers(0, 8).map(lambda i: Fraction(i, 8))
NUDGES = st.sampled_from([Fraction(0), Fraction(1, 997), Fraction(-1, 997)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_c_integral_finiteness_is_the_exponent_rule(data):
    # p and q on or near both boundaries, lam*q = 1 and
    # lam + dim(1/p - 1/q) = 1, and off them
    dim, lam = data.draw(st.sampled_from([1, 2, 3])), data.draw(LAMS)
    if lam and data.draw(st.booleans()):
        q = 1 / lam + data.draw(NUDGES)
    else:
        q = Fraction(data.draw(st.integers(10, 80)), 10)
    if data.draw(st.booleans()):
        p = 1 / ((1 - lam) / dim + 1 / q + data.draw(NUDGES))
    else:
        p = 1 + (q - 1) * Fraction(data.draw(st.integers(0, 20)), 20)
    assume(1 <= p <= q)
    n = data.draw(st.integers(1, 4))
    beta = WeightProfile.powerlaw(float(lam), 1.0) if lam else WeightProfile.constant(1.0)
    req = ConstantRequest(1, p, q, box([[0, 1]] * dim, (3,) * dim), n=n, beta=beta)
    finite = lam * q < 1 and lam + dim * (1 / p - 1 / q) < 1
    for moment in ("none", "|x|"):
        c = C_integral(req, moment=moment, t_nodes=8)
        assert not math.isnan(c) and math.isfinite(c) == finite, moment
    assert req.gates()["thm-cylinder"] == CriterionInput(n, 1, p, q, (0.0, 1.0), beta).gate


def test_law_within_rounding_of_the_threshold_is_finite():
    # 0.3 is stored below 3/10, so lam*q < 1 at q = 10/3: every norm is a
    # large finite one, where floats round lam*q to 1.0 and call it divergent
    sq = box([[0, 1], [0, 1]], [9, 9])
    req = ConstantRequest(1, 2, Fraction(10, 3), sq, beta=WeightProfile.powerlaw(0.3, 1.0))
    out = cylinder_constant(req, t_nodes=16)
    failure = {"beta_norm": "||beta||_{L^q[a,b)} divergent",
               "tbeta_norm": "||t beta(t)||_{L^q[a,b)} divergent",
               "C1": "C1 integral divergent", "C2": "C2 integral divergent"}
    for key, name in failure.items():
        assert not math.isnan(out[key]), key
        assert math.isfinite(out[key]) == (name not in out["hypothesis_failures"]), key
    assert out["hypothesis_failures"] == [] and math.isfinite(out["C"])
    assert out["beta_norm"] > 1e4


def test_q_factor():
    dom = box([[0, 1]], [33])
    assert Q_factor(WeightProfile.constant(1.0), 2.0, 2.0, dom) == 1.0

    # gamma = (2-t)^(-1): 1/gamma = 2-t, sup on [0,1] is 2
    gam = WeightProfile.powerlaw(1.0, 2.0)
    assert Q_factor(gam, 2.0, 2.0, dom) == pytest.approx(2.0)

    # gamma = (1-t)^(-1), p=2, pbar=1: r = 2 and ||1-t||_2 = 1/sqrt(3)
    gam = WeightProfile.powerlaw(1.0, 1.0)
    assert Q_factor(gam, 2.0, 1.0, dom) == pytest.approx(3.0**-0.5, rel=1e-9)

    # gamma vanishing at the right edge makes 1/gamma divergent
    van = WeightProfile.powerlaw(-0.6, 1.0)
    assert Q_factor(van, 2.0, 2.0, dom) == math.inf
    assert Q_factor(van, 2.0, 4.0 / 3.0, dom) == math.inf

    with pytest.raises(ValueError, match="pbar"):
        Q_factor(gam, 2.0, 3.0, dom)


def test_q_factor_full_grid_gamma():
    # 1/gamma = ((1+x)(2+y))^(1/2): its sup on the unit square is 6^(1/2), and
    # at p = 2, pbar = 1 (r = 2) its r-th power is bilinear, which the
    # trapezoid integrates exactly: ||1/gamma||_2^2 = (3/2)(5/2)
    dom = box([[0, 1], [0, 1]], [9, 5])
    x, y = dom.meshgrid()
    gam = WeightProfile.sampled(((1.0 + x) * (2.0 + y)) ** -0.5)
    assert Q_factor(gam, 2.0, 2.0, dom) == pytest.approx(6.0**0.5, rel=1e-14)
    assert Q_factor(gam, 2.0, 1.0, dom) == pytest.approx(3.75**0.5, rel=1e-14)


def test_q_factor_sampled_t_gamma_is_exact():
    # 1/gamma interpolates (0.5, 1.5, 0.5) at the knots (0, 0.3, 1): its
    # L^2 norm is (13/12)^(1/2), which the 9^2 grid trapezoid read 6.7e-3
    # low, and its sup is its peak between grid nodes
    dom = box([[0, 1], [0, 1]], [9, 9])
    gam = WeightProfile.sampled_t([0.0, 0.3, 1.0], [2.0, 2.0 / 3.0, 2.0])
    assert abs(Q_factor(gam, 2.0, 1.0, dom) - 1.040832999733066) <= 1e-13
    assert Q_factor(gam, 2.0, 2.0, dom) == pytest.approx(1.5, rel=1e-15)
    # the sup is taken on [0, 1] only, not over the knots outside it
    wide = WeightProfile.sampled_t([-1.0, 0.0, 1.0, 2.0], [0.1, 1.0, 1.0, 0.1])
    assert Q_factor(wide, 2.0, 2.0, dom) == 1.0


@pytest.mark.parametrize("lam", [-1.0, 1.0])
@pytest.mark.parametrize("pbar", [1.0, 1.5, 2.0])
def test_q_factor_rejects_interior_pivot_at_every_pbar(lam, pbar):
    # gamma = (0.5 - t)^(-lam) on [0, 1]: one pivot rule, one message,
    # for the sup (pbar = p) and for the L^r norms alike
    dom = box([[0, 1]], [33])
    with pytest.raises(ValueError, match="pivot 0.5 is below the end of"):
        Q_factor(WeightProfile.powerlaw(lam, 0.5), 2.0, pbar, dom)


def test_cylinder_constant_flat_beta():
    sq = box([[0, 1], [0, 1]], [17, 17])
    req = ConstantRequest(1, 2.0, 2.0, sq)
    out = cylinder_constant(req)
    assert out["hypothesis_failures"] == []
    assert out["beta_norm"] == pytest.approx(1.0)
    assert out["cor_bound"] == pytest.approx(1.0)
    # uniform alpha on the unit square: ||alpha||_2 = 1, ||alpha |y|||_2
    # = sqrt(2/3), and C assembles from C1, C2 with those factors
    assert out["alpha_norm"] == pytest.approx(1.0)
    # trapezoid integration of |y|^2 is second order: 17 nodes -> ~1e-3
    assert out["alpha_moment_norm"] == pytest.approx((2.0 / 3.0) ** 0.5, rel=2e-3)
    want = out["alpha_moment_norm"] * out["C1"] + out["alpha_norm"] * out["C2"]
    assert out["C"] == pytest.approx(want, rel=1e-12)
    assert math.isfinite(out["C"]) and out["C"] > 0


def test_cylinder_constant_powerlaw_beta_norms():
    sq = box([[0, 1], [0, 1]], [17, 17])
    # beta = (1-t)^(-1/4), q=2: ||beta||^2 = int (1-t)^(-1/2) = 2 and
    # ||t beta||^2 = B(3, 1/2) = 16/15
    beta = WeightProfile.powerlaw(0.25, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, beta=beta))
    assert out["beta_norm"] == pytest.approx(2.0**0.5, rel=1e-9)
    assert out["tbeta_norm"] == pytest.approx((16.0 / 15.0) ** 0.5, rel=1e-14)
    assert out["hypothesis_failures"] == []

    # just under / at the integrability edge lam*q = 1
    fine = WeightProfile.powerlaw(0.49, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, beta=fine))
    assert out["beta_norm"] == pytest.approx(50.0**0.5, rel=1e-9)
    edge = WeightProfile.powerlaw(0.5, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, beta=edge))
    assert "||beta||_{L^q[a,b)} divergent" in out["hypothesis_failures"]


def test_cylinder_constant_divergent_beta_named():
    sq = box([[0, 1], [0, 1]], [17, 17])
    beta = WeightProfile.powerlaw(2.0, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, beta=beta))
    names = out["hypothesis_failures"]
    assert "||beta||_{L^q[a,b)} divergent" in names
    assert "||t beta(t)||_{L^q[a,b)} divergent" in names
    assert out["cor_bound"] == math.inf
    assert out["C"] == math.inf and "C1 integral divergent" in names


def test_cylinder_constant_gamma_q():
    sq = box([[0, 1], [0, 1]], [17, 17])
    gam = WeightProfile.powerlaw(1.0, 2.0)
    req = ConstantRequest(1, 2.0, 2.0, sq, gamma=gam)
    out = cylinder_constant(req)
    assert out["Q"] == pytest.approx(2.0)
    assert out["hypothesis_failures"] == []

    van = WeightProfile.powerlaw(-0.6, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, gamma=van))
    assert out["Q"] == math.inf
    assert "||1/gamma|| divergent for requested pbar" in out["hypothesis_failures"]


def test_cylinder_constant_alpha_norms_are_admissibility_norms():
    # a power law pivoting at the right t-edge is never sampled at its
    # pivot: the edge-substituted norms of check_admissible_weight
    sq = box([[0, 1], [0, 1]], [17, 17])
    alpha = WeightProfile.powerlaw(0.25, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, alpha=alpha))
    adm = check_admissible_weight(alpha, sq, 2.0)
    assert out["alpha_norm"] == adm["alpha_norm"] == pytest.approx(2.0**0.5, rel=1e-12)
    assert out["alpha_moment_norm"] == adm["moment_norm"]
    assert out["alpha_moment_norm"] == pytest.approx(1.31705559, rel=1e-8)
    assert out["hypothesis_failures"] == []

    steep = WeightProfile.powerlaw(0.6, 1.0)
    out = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, alpha=steep))
    assert "||alpha||_p' divergent" in out["hypothesis_failures"]
    assert "||alpha |y|||_p' divergent" in out["hypothesis_failures"]


def test_c_integrals_match_brute_force_interval():
    # 1-D brute force: sup overlap and the right-aligned |x| window have
    # closed forms, leaving plain t-integrals to dense trapezoid
    dom = box([[0, 1]], [129])
    req = ConstantRequest(1, 2.0, 2.0, dom)
    c1 = C_integral(req)
    c2 = C_integral(req, moment="|x|")

    t = np.linspace(1e-9, 1.0 - 1e-9, 200001)
    ell = np.minimum(1.0, (1.0 - t) / t)
    f1 = np.sqrt(ell) * t * (1.0 - t) ** -0.5
    ref1 = np.sum(0.5 * (f1[1:] + f1[:-1]) * np.diff(t))
    lo = 1.0 - ell
    f2 = np.sqrt((1.0 - lo**3) / 3.0) * t * (1.0 - t) ** -0.5
    ref2 = np.sum(0.5 * (f2[1:] + f2[:-1]) * np.diff(t))

    assert abs(c1 - ref1) <= 1e-3, f"C1 {c1} vs brute {ref1}"
    assert abs(c2 - ref2) <= 1e-3, f"C2 {c2} vs brute {ref2}"

    out = cylinder_constant(req)
    assert out["alpha_moment_norm"] == pytest.approx(3.0**-0.5, rel=1e-4)
    want = out["alpha_moment_norm"] * out["C1"] + out["alpha_norm"] * out["C2"]
    assert out["C"] == pytest.approx(want, rel=1e-12)


def test_bound_monotone_in_beta():
    sq = box([[0, 1], [0, 1]], [17, 17])
    small = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq))
    beta = WeightProfile.powerlaw(0.25, 1.0)
    large = cylinder_constant(ConstantRequest(1, 2.0, 2.0, sq, beta=beta))
    # (1-t)^(-1/4) >= 1 on [0,1], so every beta-weighted quantity grows
    assert large["beta_norm"] >= small["beta_norm"]
    assert large["cor_bound"] >= small["cor_bound"]
    assert large["C"] >= small["C"]
