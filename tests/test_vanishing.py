"""Admissible exponent regions and the vanishing criterion."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylcoh import (
    AdmissibleRegion,
    CriterionInput,
    WeightProfile,
    asymptotic_delegate,
    criterion_check,
    powerlaw_exponents,
    region_grid,
    sphere_hdr_zero,
    warp_profiles,
)
from cylcoh import _interp, vanishing
from cylcoh.vanishing import _powerlaw_conditions


def test_powerlaw_exponents_exact():
    assert powerlaw_exponents(2) == (Fraction(1, 2), Fraction(1, 2))
    assert powerlaw_exponents(1) == (1, 1)
    assert powerlaw_exponents(3, 2) == (Fraction(1, 3), Fraction(1, 2))
    # nonpositive rate means a bounded profile
    assert powerlaw_exponents(0) == powerlaw_exponents(-1) == (math.inf, math.inf)
    assert powerlaw_exponents(1, -1) == (1, math.inf)
    with pytest.raises(ValueError, match="dominate"):
        powerlaw_exponents(1, 2)


@pytest.mark.parametrize("mu", [0.5, 0.9, 1.0, 1.5, 3.0])
def test_condition_slopes_closed_form(mu):
    # s^u, t s^u, g^v of the law (b-t)^(-mu) have slope mu*exponent; near
    # b = 0 the factor |t| = b - t takes 1 off I2's.  A condition holds
    # when its exact slope exceeds 1: mu = 0.5 puts I1 at slope exactly 1
    # for (n, k, p, q) = (2, 1, 2, 2), where int (b-t)^(-1) diverges but
    # the strict window excludes the point
    for b in (1.0, -1.0, 0.0):
        for n, k, p, q in [(4, 3, 2.0, 2.5), (2, 1, 2.0, 2.0), (4, 1, 3.0, 7.0)]:
            inp = CriterionInput(n, k, p, q, (b - 1.0, b), WeightProfile.powerlaw(mu, b))
            u, v = n / q - k + 2.0, k - n / p
            # the memo entry (law, mu's ratio) of the law (mu, 0)
            law = vanishing._tail_law(inp.s, inp.a, inp.b)
            assert law == ({"mu": mu, "delta": 0.0, "rms": 0.0}, mu.as_integer_ratio())
            conds = _powerlaw_conditions(inp, law, law)
            want = (mu * u, mu * u - (b == 0), mu * v)
            assert [c["slope"] for c in conds.values()] == list(want)
            assert [c["exponent"] for c in conds.values()] == [u, u, v]
            exact_u = n / Fraction(q) - k + 2
            exact_v = k - n / Fraction(p)
            exact = (Fraction(mu) * exact_u, Fraction(mu) * exact_u - (b == 0),
                     Fraction(mu) * exact_v)
            for c, slope in zip(conds.values(), exact, strict=True):
                assert c.keys() == {"holds", "slope", "exponent"}
                assert c["holds"] == (slope > 1)


FLAT = WeightProfile.constant(1.0)
WINDOW = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: CriterionInput(0, 1, 2.0, 3.0, (0.0, 1.0), FLAT), "fiber dimension must be >= 1"),
    (lambda: CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), WeightProfile.sampled(np.ones((3, 3)))),
     "twisting profiles must be functions of t"),
    (lambda: WINDOW.contains(0.5, 2.0), "p and q must be >= 1"),
    (lambda: WINDOW.q_interval(0.5), "p must be >= 1"),
], ids=["n<1", "full-grid-warp", "contains-p<1", "q_interval-p<1"])
def test_vanishing_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_region_window_fractions():
    # n=4, k=3, warp rate 2: 3/8 < 1/q <= 1/p < 5/8
    reg = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2))
    assert not reg.empty
    assert reg.left == Fraction(3, 8)
    assert reg.right == Fraction(5, 8)
    assert reg.contains(2, 2)
    assert not reg.contains(3, 3), "1/3 < 3/8 so q=3 leaves the window"
    assert not reg.contains(2, 3)
    # the boundary itself is excluded: 1/q = 3/8 exactly
    assert not reg.contains(Fraction(8, 3), Fraction(8, 3))

    assert reg.q_interval(2) == (Fraction(2), Fraction(8, 3))
    assert reg.q_interval(Fraction(8, 5)) is None


# (lam, n, k, p, q) where a float criterion with a 1e-4 slope tolerance
# said VANISHES and the exact window says no, with the conditions that
# fail: slopes exactly 1 (the first and the last), the gate at slack
# exactly 0, an I1 slope of 0.99994, and a window slack of -3.5e-17
BOUNDARY_POINTS = {
    "slopes-1": ((1, 2, 2, 2, 2), ["I1", "I2", "I3"]),
    "gate-slack-0": ((2, 2, 2, 1.5, 2), ["gate"]),
    "slope-0.99994": ((2, 4, 3, 2.5, 2.66672), ["I1", "I2"]),
    "slack-minus-3.5e-17": ((2, 4, 4, 1.5, 1.6), ["I1", "I2"]),
    "slope-1-at-8/3": ((2, 4, 3, Fraction(8, 3), Fraction(8, 3)), ["I1", "I2"]),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_POINTS))
def test_boundary_points_agree_with_region(case):
    (lam, n, k, p, q), failed = BOUNDARY_POINTS[case]
    assert not AdmissibleRegion(n, k, *powerlaw_exponents(lam)).contains(p, q)
    rep = criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0),
                                         WeightProfile.powerlaw(float(lam), 1.0), hdr_zero=True))
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert [f.split()[0].rstrip(":") for f in rep["failed"]] == failed


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def _window_queries(draw):
    """(lam_s, lam_g, n, k, p, q): exact p <= q on the I1 threshold, the
    I3 threshold or the gate of the window, or off all three.  A
    power-law profile holds float(lam), so each lam is drawn as the exact
    rational of a float."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n + 1))
    lam_s = Fraction(float(draw(st.fractions(Fraction(1, 4), 4, max_denominator=12))))
    lam_g = Fraction(float(lam_s * draw(st.fractions(Fraction(1, 4), 1, max_denominator=8))))
    where = draw(st.sampled_from(["I1", "I3", "gate", "off"]))
    if where == "I1":
        inv_q = (k - 2 + 1 / lam_s) / n  # mu_s u = 1
        assume(0 < inv_q <= 1)
        q = 1 / inv_q
        p = 1 + (q - 1) * draw(UNIT)
    elif where == "I3":
        inv_p = (k - 1 / lam_g) / n  # mu_g v = 1
        assume(0 < inv_p <= 1)
        p = 1 / inv_p
        q = p * (1 + 4 * draw(UNIT))
    elif where == "gate":
        p = 1 + n * draw(UNIT.filter(lambda f: f < 1))
        q = n * p / (n + 1 - p)  # q(n + 1 - p) = np
    else:
        p = 1 + 5 * draw(UNIT)
        q = p * (1 + 4 * draw(UNIT))
    return lam_s, lam_g, n, k, p, q


@settings(max_examples=500, deadline=None)
@given(_window_queries())
def test_powerlaw_verdict_equals_region(query):
    lam_s, lam_g, n, k, p, q = query
    alpha, beta = powerlaw_exponents(lam_s, lam_g)
    warp = (WeightProfile.powerlaw(float(lam_s), 1.0), WeightProfile.powerlaw(float(lam_g), 1.0))
    rep = criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0), warp, hdr_zero=True))
    assert (rep["verdict"] == "VANISHES") == AdmissibleRegion(n, k, alpha, beta).contains(p, q)


def test_region_members_by_rate():
    # at p = q = 2, n = 4, k = 3 the window contains every rate above 1
    for lam in (2, 3, 4):
        reg = AdmissibleRegion(4, 3, *powerlaw_exponents(lam))
        assert reg.contains(2, 2), f"rate {lam}"


def test_region_empty_reasons():
    reg = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2), b_infinite=True)
    assert reg.empty and "b is infinite" in reg.reason
    assert not reg.contains(2, 2)
    assert reg.margin(2, 2) == -math.inf

    reg = AdmissibleRegion(4, 3, *powerlaw_exponents(0))
    assert reg.empty and "bounded twisting" in reg.reason

    reg = AdmissibleRegion(4, 3, *powerlaw_exponents(Fraction(9, 10)))
    assert reg.empty and "alpha + beta exceeds 2" in reg.reason

    # rate 1 at k=1, n=2 collapses both bounds to 0: no (1/q, 1/p] left
    reg = AdmissibleRegion(2, 1, Fraction(1), Fraction(1))
    assert reg.empty and "window" in reg.reason

    # membership reads alpha and beta as the rates 1/alpha, 1/beta of a law
    for alpha, beta in ((0, Fraction(1, 2)), (Fraction(1, 2), -1)):
        with pytest.raises(ValueError, match="must be positive"):
            AdmissibleRegion(4, 3, alpha, beta)


def test_region_margin_sign():
    reg = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2))
    assert reg.margin(2, 2) > 0
    assert reg.margin(Fraction(8, 3), Fraction(8, 3)) == 0.0
    assert reg.margin(3, 3) < 0


def test_region_at_q_infinite():
    # 1/q = 0 exactly: u = 2 - k, and the gate q(n+1-p) < np reads p > n + 1
    reg = AdmissibleRegion(4, 1, Fraction(1, 2), Fraction(1, 10))
    assert reg.contains(6, math.inf)
    # slacks 1/8, 9/40 - 1/6 = 7/120 and the gate's 1/5 - 1/6 = 1/30
    assert reg.margin(6, math.inf) == float(Fraction(1, 30))
    assert abs(reg.margin(6, 10**12) - 1 / 30) < 1e-11
    assert not reg.contains(5, math.inf) and reg.margin(5, math.inf) == 0.0
    # 1/p = 0 too: the gate holds, and p <= q asks q = inf
    assert reg.contains(math.inf, math.inf) and reg.margin(math.inf, math.inf) == 0.125
    assert not reg.contains(math.inf, 6)
    reg = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2))
    assert not reg.contains(2, math.inf)
    assert reg.margin(2, math.inf) == -0.375


@pytest.mark.parametrize("x, want", [
    (math.inf, (1, 0)), (-math.inf, (-1, 0)), (np.float64("inf"), (1, 0)),
    (np.float64("-inf"), (-1, 0)), (Fraction(-7, 3), (-7, 3)), (0.375, (3, 8)),
    (np.int64(5), (5, 1)),
])
def test_ratio_reads_infinity_as_one_over_zero(x, want):
    # the exact rule's one spelling of infinity: 1/inf is exactly 0
    assert _interp._ratio(x) == want


def test_ratio_refuses_nan():
    for x in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError):
            _interp._ratio(x)


@pytest.mark.parametrize("alpha, beta", [(math.inf, Fraction(1, 2)),
                                         (Fraction(1, 2), math.inf), (math.inf, math.inf)])
def test_region_with_an_infinite_exponent_contains_nothing(alpha, beta):
    # an infinite alpha or beta is the law mu = 1/inf = 0, which exceeds
    # no exponent: no point of the triangle is a member, for any n and k
    for n in range(1, 5):
        for k in range(n + 2):
            reg = AdmissibleRegion(n, k, alpha, beta)
            assert reg.empty and "bounded twisting" in reg.reason
            assert not any(member for _, _, member in region_grid(reg, 24))
            assert not reg.contains(math.inf, math.inf)
    # the margin still reads the finite bound and the gate: at n = 4,
    # k = 3 and p = q = 2, the slacks are 5/8 - 1/2 = 1/8 and 1/10
    reg = AdmissibleRegion(4, 3, alpha, beta)
    want = 0.1 if beta < math.inf else -math.inf
    assert reg.margin(2, 2) == want and not reg.contains(2, 2)


def test_region_grid_nests_under_refinement():
    reg = AdmissibleRegion(4, 3, Fraction(1, 2), Fraction(1, 2))
    coarse = {(ip, iq) for ip, iq, m in region_grid(reg, 8) if m}
    fine = {(ip, iq) for ip, iq, m in region_grid(reg, 16) if m}
    assert coarse, "coarse scan found no members"
    assert coarse <= fine
    for ip, iq, _ in region_grid(reg, 8):
        assert isinstance(ip, Fraction) and isinstance(iq, Fraction)
        assert iq <= ip


def test_criterion_powerlaw_vanishes():
    warp = WeightProfile.powerlaw(2.0, 1.0)
    inp = CriterionInput(4, 3, 2.0, 2.5, (0.0, 1.0), warp, hdr_zero=True)
    rep = criterion_check(inp)
    assert rep["verdict"] == "VANISHES"
    assert rep["failed"] == [] and not rep["conditional"]
    assert all(c["holds"] for c in rep["conditions"].values())
    assert rep["gates"]["gate"] and rep["gates"]["order"]


def test_criterion_powerlaw_fails_with_region():
    # q = p = 3 leaves the exact window, and the slope shows the
    # matching convergent integral
    warp = WeightProfile.powerlaw(2.0, 1.0)
    inp = CriterionInput(4, 3, 3.0, 3.0, (0.0, 1.0), warp, hdr_zero=True)
    rep = criterion_check(inp)
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert any(f.startswith("I1") for f in rep["failed"])


def test_pivot_beyond_b_is_bounded_and_below_b_raises():
    # (1.5 - t)^-2 is bounded on [0, 1): the bounded rule decides it
    rep = criterion_check(CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0),
                                         WeightProfile.powerlaw(2.0, 1.5)))
    assert rep["route"] == "bounded" and rep["conditions"] == {}
    assert rep["verdict"] == "VANISHES" and rep["conditional"]
    # a pivot inside [a, b) puts the singularity in the interval
    for pivot in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"pivot {pivot} is below b"):
            CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), WeightProfile.powerlaw(2.0, pivot))
    with pytest.raises(ValueError, match="pivot 0.5 is below b"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0),
                       (WeightProfile.powerlaw(2.0, 1.0), WeightProfile.powerlaw(1.0, 0.5)))


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_i2_on_intervals_left_of_zero(lam):
    # near b != 0 the factor t of I2 is bounded away from 0, whatever its
    # sign, so the verdict does not depend on where the interval sits
    for n, k, p, q in _region_sweep():
        verdicts = {criterion_check(CriterionInput(
            n, k, float(p), float(q), (a, b), WeightProfile.powerlaw(float(lam), b),
            hdr_zero=True))["verdict"] for a, b in ((-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0))}
        assert len(verdicts) == 1, (n, k, p, q, verdicts)


def test_i2_at_b_zero_loses_one():
    # on (-1, 0) |t| = b - t: int t s^u diverges iff lam*u - 1 >= 1; at
    # u = 3/4 and lam = 2, s^u diverges (slope 3/2) and t s^u converges
    inp = CriterionInput(4, 3, 2.0, 16 / 7, (-1.0, 0.0), WeightProfile.powerlaw(2.0, 0.0),
                         hdr_zero=True)
    rep = criterion_check(inp)
    u = 4 / (16 / 7) - 1.0
    assert rep["conditions"][I1]["slope"] == 2.0 * u
    assert rep["conditions"][I2]["slope"] == 2.0 * u - 1.0
    assert rep["verdict"] == "HYPOTHESES-FAIL" and rep["failed"] == [I2 + " does not hold"]


def test_tail_band_does_not_depend_on_the_unit_of_t():
    # the same law on the same relative grid, with t in units of 1 and of
    # 1/1000: (b - t)/(b - a) is the same, so mu, delta and the verdict are
    reps = []
    for scale in (1.0, 1000.0):
        ts = scale * GRADED_T
        warp = WeightProfile.sampled_t(ts, (scale - ts) ** -2.0)
        reps.append(criterion_check(CriterionInput(4, 3, 2.0, 2.5, (0.0, scale), warp)))
    (one, law_one), (big, law_big) = ((r, r["tail"]["s"]) for r in reps)
    assert law_one["mu"] == pytest.approx(2.0, rel=1e-12)
    assert law_big["mu"] == pytest.approx(law_one["mu"], rel=1e-12)
    assert law_big["delta"] == pytest.approx(law_one["delta"], rel=1e-12)
    assert one["verdict"] == big["verdict"] == "VANISHES"


def test_criterion_infinite_b():
    warp = WeightProfile.powerlaw(2.0, 0.0)
    inp = CriterionInput(4, 3, 2.0, 2.0, (0.0, math.inf), warp, hdr_zero=True)
    rep = criterion_check(inp)
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert any("b is infinite" in f for f in rep["failed"])
    assert rep["conditions"] == {}


FLAT = warp_profiles(np.linspace(0.0, 1.0, 65), np.ones((65, 9)))


def test_criterion_sampled_flat_is_conditional():
    # exactly bounded twisting takes the bounded rule; sampled flat data
    # cannot tell bounded from |log|-growing twisting
    rep = criterion_check(CriterionInput(2, 1, 2.0, 2.0, (0.0, 1.0), WeightProfile.constant(1.0)))
    assert rep["verdict"] == "VANISHES" and rep["route"] == "bounded"
    assert rep["conditional"]
    assert rep["note"] == "conditional on H^1_DR(N) = 0"
    rep = criterion_check(CriterionInput(2, 1, 2.0, 2.0, (0.0, 1.0), FLAT))
    assert rep["verdict"] == "UNDECIDED" and rep["route"] == "fitted-tail"
    assert not rep["conditional"] and "contain 0" in rep["undecided"][0]


def test_criterion_sampled_detects_collapse():
    # h = (1-t)^2 -> 0 at b: the fitted tail is (1-t)^2 and s^u converges
    ts = np.linspace(0.0, 1.0, 257)[:-1]
    warp = WeightProfile.sampled_t(ts, (1.0 - ts) ** 2)
    inp = CriterionInput(4, 1, 2.0, 2.0, (0.0, 1.0), warp, hdr_zero=True)
    rep = criterion_check(inp)
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert rep["tail"]["s"]["mu"] == pytest.approx(-2.0, rel=1e-12)
    assert I1 + " does not hold" in rep["failed"]


I1 = "I1: int s^(n/q-k+2) divergent"
I2 = "I2: int t s^(n/q-k+2) divergent"
I3 = "I3: int g^(k-n/p) divergent"
LINEAR_T = np.linspace(0.0, 1.0, 257)[:-1]
GRADED_T = 1.0 - 2.0 ** (-12.0 * np.arange(257) / 256)
# (n, k, p, warp, hdr_zero) and the report of the fitted-tail route:
# verdict, failed, fitted mu and band delta of s, slopes of I1-I3; near
# b = 1 the factor t of I2 leaves I1's slope as it is
SAMPLED_CASES = {
    "flat": ((2, 1, 2.0, FLAT, None),
             "UNDECIDED", [], 0.0, 1.0491748609389464, None),
    "collapse": ((4, 1, 2.0, WeightProfile.sampled_t(LINEAR_T, (1.0 - LINEAR_T) ** 2), True),
                 "HYPOTHESES-FAIL", [I1 + " does not hold", I2 + " does not hold"],
                 -2.0, 0.42745558735023664, (-6.0, -6.0, 2.0)),
    # mu = 1 +- delta takes in (1-t)^-1.137 / |log(1-t)|, whose window holds p = q = 21
    "graded-lam1": ((2, 1, 21.0, WeightProfile.sampled_t(GRADED_T, (1.0 - GRADED_T) ** -1.0), True),
                    "UNDECIDED", [], 1.0, 0.13709351539256626,
                    (1.0952380952380953, 1.0952380952380953, 0.9047619047619047)),
}


@pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
def test_criterion_sampled_reports_pinned(case):
    (n, k, p, warp, hdr), verdict, failed, mu, delta, slopes = SAMPLED_CASES[case]
    rep = criterion_check(CriterionInput(n, k, p, p, (0.0, 1.0), warp, hdr_zero=hdr))
    assert rep["verdict"] == verdict and rep["failed"] == failed
    assert rep["route"] == "fitted-tail" and "pbar_witnesses" not in rep
    for law in rep["tail"].values():
        assert law["mu"] == pytest.approx(mu, rel=1e-12)
        assert law["delta"] == pytest.approx(delta, rel=1e-12)
    if slopes is None:
        assert rep["conditions"] == {}
    else:
        got = [rep["conditions"][name]["slope"] for name in (I1, I2, I3)]
        assert got == pytest.approx(slopes, rel=1e-12)


def _law(ts, lam, log_power=0):
    return WeightProfile.sampled_t(ts, (1.0 - ts) ** -lam * np.abs(np.log(1.0 - ts)) ** log_power)


def _region_sweep():
    """(n, k, p, q) of the criterion-6 grid, as Fractions of 21."""
    for n in (2, 4):
        for k in range(1, n + 2):
            for i in range(1, 22):
                for j in range(1, i + 1):
                    yield n, k, Fraction(21, i), Fraction(21, j)


# |log(1-t)| is 0 at t = 0, so the log laws start one graded step in
FIT_CASES = {
    "lam2-times-log": (_law(GRADED_T[1:], 2, 1), (Fraction(1, 2), Fraction(1, 2))),
    "lam2-over-log": (_law(GRADED_T[1:], 2, -1), (Fraction(1, 2), Fraction(1, 2))),
    "pair-lam3-lam2": ((_law(GRADED_T, 3), _law(GRADED_T, 2)), (Fraction(1, 3), Fraction(1, 2))),
    "constant": (WeightProfile.constant(1.0), "VANISHES"),
    "flat-sampled": (FLAT, "UNDECIDED"),
    "cut-at-half": (_law(np.linspace(0.0, 0.5, 65), 2), "UNDECIDED"),
    # the sample at b itself is not part of the tail
    "two-samples": (WeightProfile.sampled_t([0.5, 0.75, 1.0], [4.0, 16.0, 64.0]), "UNDECIDED"),
    # b - t rounds to 1 at all three: no slope to fit
    "no-spread": (WeightProfile.sampled_t([0.0, 1e-20, 2e-20], [1.0, 2.0, 3.0]), "UNDECIDED"),
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fitted_tail_verdicts(case):
    warp, want = FIT_CASES[case]
    if isinstance(want, str):
        rep = criterion_check(CriterionInput(2, 1, 2.0, 2.0, (0.0, 1.0), warp))
        assert rep["verdict"] == want
        assert rep["conditional"] == (want == "VANISHES")
        return
    # decided verdicts agree with the exact region of the law's exponents
    decided = 0
    for n, k, p, q in _region_sweep():
        reg = AdmissibleRegion(n, k, *want)
        if abs(reg.margin(p, q)) < 1e-3:
            continue
        rep = criterion_check(CriterionInput(n, k, float(p), float(q), (0.0, 1.0), warp,
                                             hdr_zero=True))
        if rep["verdict"] != "UNDECIDED":
            decided += 1
            assert (rep["verdict"] == "VANISHES") == reg.contains(p, q), (n, k, p, q)
    assert decided > 1000


def test_criterion_de_rham_flag():
    inp = CriterionInput(2, 1, 2.0, 2.0, (0.0, 1.0), FLAT, hdr_zero=False)
    rep = criterion_check(inp)
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert "de Rham condition H^1_DR(N) = 0 does not hold" in rep["failed"]


def test_one_sampled_profile_is_not_compared_with_itself(monkeypatch):
    ts = np.linspace(0.0, 0.9, 257)
    prof = WeightProfile.sampled_t(ts, (1.0 - ts) ** -2.0)

    def refuse(*args):
        raise AssertionError("a profile was compared with itself")

    monkeypatch.setattr(np, "array_equal", refuse)
    inp = CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), prof)
    assert inp.s is inp.g is prof


def test_criterion_input_validation():
    warp = WeightProfile.powerlaw(2.0, 1.0)
    with pytest.raises(ValueError, match="q >= p"):
        CriterionInput(4, 3, 3.0, 2.0, (0.0, 1.0), warp)
    # p and q are compared exactly as given: 8/3 + 1e-30 rounds to the
    # float of 8/3 but exceeds it
    with pytest.raises(ValueError, match="q >= p"):
        CriterionInput(4, 3, Fraction(8, 3) + Fraction(1, 10**30), Fraction(8, 3), (0.0, 1.0),
                       warp)
    with pytest.raises(ValueError, match="finite"):
        CriterionInput(4, 3, 2.0, math.inf, (0.0, 1.0), warp)
    # numpy scalars convert exactly, like the floats and ints they hold
    inp = CriterionInput(4, 3, np.int64(2), np.float32(2.5), (0.0, 1.0), warp)
    assert (Fraction(*inp.u), Fraction(*inp.v)) == (Fraction(3, 5), Fraction(1))
    with pytest.raises(ValueError, match="interval"):
        CriterionInput(4, 3, 2.0, 2.0, (1.0, 1.0), warp)
    # a bare h array has no t-coordinates; warp_profiles gives them
    with pytest.raises(ValueError, match="WeightProfile"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), np.ones((9, 5)))
    with pytest.raises(ValueError, match="WeightProfile"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), (np.ones(9), np.ones(9)))
    with pytest.raises(ValueError, match="power-law"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, math.inf), FLAT)
    pair = (WeightProfile.powerlaw(1.0, 1.0), WeightProfile.powerlaw(2.0, 1.0))
    with pytest.raises(ValueError, match="dominate"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), pair)
    ts = np.linspace(0.0, 0.9, 9)
    low, high = (WeightProfile.sampled_t(ts, (1.0 - ts) ** -lam) for lam in (1.0, 2.0))
    with pytest.raises(ValueError, match="dominate g pointwise"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), (low, high))
    CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), (high, low))
    # samples past b would be read as twisting the interval does not have
    with pytest.raises(ValueError, match="outside"):
        CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), warp_profiles([0, 0.5, 2, 3], np.ones((4, 2))))
    # a last sample at b itself is fine: the tail fit reads t < b only
    assert CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), FLAT).s.tcoords[-1] == 1.0


def test_warp_profiles_fiber_max_min():
    ts = np.linspace(0.0, 1.0, 9)
    pairs = []
    for m in (256, 2560):
        xs = np.arange(m) / m
        h = np.exp(ts)[:, None] * (2.0 + np.sin(2 * np.pi * xs))[None, :]
        s, g = warp_profiles(ts, h)
        assert s.kind == g.kind == "sampled-t"
        assert np.array_equal(s.tcoords, ts) and np.array_equal(g.tcoords, ts)
        assert np.array_equal(s.samples, h.max(axis=1))
        assert np.array_equal(g.samples, h.min(axis=1))
        pairs.append((s, g))
    # a 10x finer fiber grid pins the same fiber min and max to grid tolerance
    (s, g), (s_fine, g_fine) = pairs
    assert np.allclose(g.eval_t(ts), g_fine.eval_t(ts), atol=1e-4)
    assert np.allclose(s.eval_t(ts), s_fine.eval_t(ts), atol=1e-4)


def test_warp_profiles_validation():
    ts = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="fiber axes"):
        warp_profiles(ts, np.ones(9))
    with pytest.raises(ValueError, match="one entry per row"):
        warp_profiles(ts[:-1], np.ones((9, 4)))
    with pytest.raises(ValueError, match="strictly increasing"):
        warp_profiles(ts[::-1], np.ones((9, 4)))
    h = np.ones((9, 4))
    h[3, 2] = 0.0
    with pytest.raises(ValueError, match="positive"):
        warp_profiles(ts, h)


def test_asymptotic_delegate_bookkeeping():
    warp = WeightProfile.powerlaw(2.0, 1.0)
    inp = CriterionInput(4, 3, 2.0, 2.5, (0.0, 1.0), warp)
    rep = asymptotic_delegate(inp)
    base = criterion_check(inp)
    assert rep["verdict"] == base["verdict"]
    assert rep["delegated"] and rep["m"] == 5
    assert rep["note"] == "conditional on H^3_DR(X) = 0"


def test_sphere_hdr_table():
    assert not sphere_hdr_zero(3, 0)
    assert not sphere_hdr_zero(3, 3)
    assert sphere_hdr_zero(3, 1)
    assert sphere_hdr_zero(3, 2)
    assert sphere_hdr_zero(4, 3)


def _counted_fits(monkeypatch):
    calls = []
    fit = vanishing._fit_tail_law

    def counted(prof, a, b):
        calls.append((prof, a, b))
        return fit(prof, a, b)

    monkeypatch.setattr(vanishing, "_fit_tail_law", counted)
    return calls


def test_tail_law_fitted_once_per_profile_and_interval(monkeypatch):
    calls = _counted_fits(monkeypatch)
    ts = np.linspace(0.0, 1.0, 257)[1:-1]
    warp = WeightProfile.sampled_t(ts, (1.0 - ts) ** -2.0)
    queries = [(n, k, p, q) for n in (2, 3, 4, 5) for k in range(1, n + 2)
               for p in np.linspace(1.0, 4.0, 10) for q in np.linspace(4.0, 9.0, 6)][:1000]
    assert len(queries) == 1000
    for n, k, p, q in queries:
        criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0), warp))
    assert len(calls) == 1
    criterion_check(CriterionInput(2, 1, 2.0, 3.0, (-1.0, 1.0), warp))
    assert len(calls) == 2


def _criterion_8_profiles():
    t_sets = (1.0 - 2.0 ** (-12.0 * np.arange(1, 257) / 256), np.linspace(0.0, 1.0, 257)[1:-1])
    return [(ts, (1.0 - ts) ** -lam * np.abs(np.log(1.0 - ts)) ** log_power)
            for ts in t_sets for log_power in (0, 1, -1) for lam in (1, 2, 3)]


def test_memo_hit_reports_match_fresh_profiles():
    queries = [(2, 1, 2.0, 2.0), (4, 2, 1.5, 3.0), (4, 3, 4.0, 8.0), (2, 3, 1.2, 1.4)]
    for ts, vals in _criterion_8_profiles():
        warp = WeightProfile.sampled_t(ts, vals)
        for n, k, p, q in queries:
            first = criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0), warp))
            hit = criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0), warp))
            fresh = criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0),
                                                   WeightProfile.sampled_t(ts, vals)))
            want = json.dumps(fresh, sort_keys=True)
            assert json.dumps(first, sort_keys=True) == want
            assert json.dumps(hit, sort_keys=True) == want


def test_report_tail_is_not_the_memo():
    ts = np.linspace(0.0, 1.0, 257)[1:-1]
    warp = WeightProfile.sampled_t(ts, 1.0 - np.log(1.0 - ts))
    inp = CriterionInput(4, 3, 2.0, 2.0, (0.0, 1.0), warp)
    rep = criterion_check(inp)
    want = json.dumps(rep, sort_keys=True)
    rep["tail"]["s"]["mu"] = 99.0
    assert rep["tail"]["g"]["mu"] != 99.0
    assert json.dumps(criterion_check(inp), sort_keys=True) == want


def _exact_holds(mu, n, k, p, q, b):
    """I1-I3 of the law (b - t)^(-mu) over Fractions: mu*u > 1, mu*u - [b = 0]
    > 1 and mu*v > 1, with u = n/q - k + 2 and v = k - n/p."""
    mu = Fraction(mu)
    u, v = n / Fraction(q) - k + 2, k - n / Fraction(p)
    return [mu * u > 1, mu * u - (b == 0) > 1, mu * v > 1]


def test_criterion_check_matches_fraction_oracle():
    # the criterion-6 grid under the laws 1/2, 1, 2, 3 toward b = 1, 0, -1:
    # every exact law decides all three conditions as the Fractions do, and
    # the law's sampled twin decides each condition it decides at its own
    # fitted mu
    grid = [(n, k, Fraction(21, i), Fraction(21, j)) for n in (2, 4) for k in range(1, n + 2)
            for i in range(1, 22) for j in range(1, i + 1)]
    decided = 0
    for lam in (Fraction(1, 2), 1, 2, 3):
        for b in (1.0, 0.0, -1.0):
            ts = b - 2.0 ** (-12.0 * np.arange(256) / 256)
            exact = WeightProfile.powerlaw(float(lam), b)
            twin = WeightProfile.sampled_t(ts, (b - ts) ** -float(lam))
            for n, k, p, q in grid:
                rep = criterion_check(CriterionInput(n, k, p, q, (b - 1.0, b), exact))
                assert rep["route"] == "powerlaw"
                want = _exact_holds(lam, n, k, p, q, b)
                assert [c["holds"] for c in rep["conditions"].values()] == want
                rep = criterion_check(CriterionInput(n, k, p, q, (b - 1.0, b), twin))
                mu = rep["tail"]["s"]["mu"]
                assert rep["route"] == "fitted-tail" and abs(mu - lam) < 1e-3
                got = [c["holds"] for c in rep["conditions"].values()]
                assert len(got) == 3
                for holds, want_holds in zip(got, _exact_holds(mu, n, k, p, q, b), strict=True):
                    if holds is not None:
                        decided += 1
                        assert holds == want_holds, (lam, b, n, k, str(p), str(q))
    assert decided > 60000


def test_tail_law_memo_goes_with_its_profile():
    # the memo holds its profiles weakly: a profile's entries leave with
    # it, and a profile made at the freed address fits its own law
    ts = np.linspace(0.0, 1.0, 129)[:-1]
    reused = 0
    for _ in range(5):
        prof = WeightProfile.sampled_t(ts, (1.0 - ts) ** -1.0)
        rep = criterion_check(CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), prof))
        assert rep["tail"]["s"]["mu"] == pytest.approx(1.0)
        entries, address = vanishing._TAIL_LAWS[prof], id(prof)
        assert list(entries) == [(0.0, 1.0)]
        del prof  # no cycle holds a profile, so it dies here
        assert all(kept is not entries for kept in vanishing._TAIL_LAWS.values())
        # a profile made now often lands at the freed address
        other = WeightProfile.sampled_t(ts, (1.0 - ts) ** -3.0)
        reused += id(other) == address
        rep = criterion_check(CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), other))
        assert rep["tail"]["s"]["mu"] == pytest.approx(3.0)
        del other
    assert reused > 0, "no profile was made at a freed address"


def test_query_carries_its_tail_laws():
    # a query fetches its laws once, when built: one object when s is g,
    # none toward an infinite b
    ts = np.linspace(0.0, 1.0, 129)[:-1]
    s = WeightProfile.sampled_t(ts, (1.0 - ts) ** -2.0)
    g = WeightProfile.sampled_t(ts, (1.0 - ts) ** -1.0)
    inp = CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), s)
    assert inp.law_s is inp.law_g is vanishing._tail_law(s, 0.0, 1.0)
    inp = CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), (s, g))
    assert inp.law_s is vanishing._tail_law(s, 0.0, 1.0)
    assert inp.law_g is vanishing._tail_law(g, 0.0, 1.0)
    inp = CriterionInput(2, 1, 2.0, 3.0, (0.0, math.inf), WeightProfile.powerlaw(1.0, 1.0))
    assert inp.law_s is inp.law_g is None
    few = WeightProfile.sampled_t([0.1, 0.5], [1.0, 2.0])
    assert CriterionInput(2, 1, 2.0, 3.0, (0.0, 1.0), few).law_s is None


def test_criterion_check_calls_conditions_through_the_module(monkeypatch):
    # one call per query, looked up on the module, so a wrapper installed
    # there (as the benchmark's tracer does) sees every call
    calls = []
    for name in ("_powerlaw_conditions", "_sampled_conditions"):
        def counted(*args, fn=getattr(vanishing, name), name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(vanishing, name, counted)
    ts = np.linspace(0.0, 1.0, 129)[:-1]
    warps = [(WeightProfile.powerlaw(2.0, 1.0), ["_powerlaw_conditions"]),
             (WeightProfile.sampled_t(ts, (1.0 - ts) ** -2.0),
              ["_sampled_conditions", "_powerlaw_conditions"]),
             (WeightProfile.sampled_t(ts, np.full(ts.size, 1.5)), ["_sampled_conditions"]),
             (WeightProfile.constant(1.5), [])]
    for warp, want in warps:
        for n, k, p, q in [(4, 3, 2.0, 2.5), (2, 1, 1.0, 4.0)]:
            calls.clear()
            criterion_check(CriterionInput(n, k, p, q, (0.0, 1.0), warp))
            assert calls == want


def test_gauss01_built_once_per_node_count():
    for n in (2, 16, 32, 64, 256):
        rule = _interp.gauss01(n)
        assert _interp.gauss01(n) is rule
        x, w = np.polynomial.legendre.leggauss(n)
        for arr, ref in zip(rule, (0.5 * (x + 1.0), 0.5 * w), strict=True):
            assert arr.flags.writeable is False
            assert arr.tobytes() == ref.tobytes()
