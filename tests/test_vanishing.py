"""Admissible exponent regions and the vanishing criterion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cylcoh import (
    CriterionInput,
    WeightProfile,
    admissible_region,
    asymptotic_delegate,
    criterion_check,
    powerlaw_exponents,
    region_grid,
    sphere_hdr_zero,
    warp_profiles,
)
from cylcoh.vanishing import SHELL_RULE, SHELLS, _divergent_at_b, _shell_integral


def test_powerlaw_exponents_exact():
    e = powerlaw_exponents(2)
    assert e.alpha == Fraction(1, 2) and e.beta == Fraction(1, 2)
    assert e.alpha1 == e.alpha
    e = powerlaw_exponents(1)
    assert e.alpha == 1
    e = powerlaw_exponents(3, 2)
    assert e.alpha == Fraction(1, 3) and e.beta == Fraction(1, 2)
    # nonpositive rate means a bounded profile
    assert powerlaw_exponents(0).alpha == math.inf
    assert powerlaw_exponents(-1).beta == math.inf
    with pytest.raises(ValueError, match="dominate"):
        powerlaw_exponents(1, 2)


def test_shell_detector_matches_exponent_arithmetic():
    # (1-t)^(-mu) is integrable on [0,1) iff mu < 1; the dyadic-shell
    # slope recovers mu, so the detector must agree away from mu = 1
    rng = np.random.default_rng(0)
    for _ in range(40):
        mu = float(rng.uniform(0.0, 4.0))
        if abs(mu - 1.0) < 0.02:
            continue
        div, total, slope = _divergent_at_b(lambda ts: (1.0 - ts) ** -mu, 0.0, 1.0)
        assert div == (mu >= 1.0), f"mu={mu}: divergent={div}, slope={slope}"


@pytest.mark.parametrize("mu", [0.5, 0.9, 1.0, 1.5, 3.0])
def test_shell_integral_closed_form(mu):
    # shell j of (0, 1) is [1 - eps_j, 1 - eps_{j+1}] with eps_j = 2^-j, where
    # (1-t)^(-mu) integrates to (eps_j^(1-mu) - eps_{j+1}^(1-mu))/(1-mu), or
    # log(eps_j/eps_{j+1}) at mu = 1; successive masses differ by 2^(mu-1)
    eps = [2.0**-j for j in range(SHELLS + 1)]
    if mu == 1.0:
        want = sum(math.log(eps[j] / eps[j + 1]) for j in range(SHELLS))
    else:
        want = sum((eps[j] ** (1 - mu) - eps[j + 1] ** (1 - mu)) / (1 - mu)
                   for j in range(SHELLS))
    total, slope = _shell_integral(lambda ts: (1.0 - ts) ** -mu, 0.0, 1.0)
    assert abs(total - want) <= 1e-12 * want
    assert abs(slope - mu) <= 1e-12


def test_shell_integral_matches_shell_loop():
    # reference: one shell at a time; the array evaluation does the same
    # arithmetic per element, so the results agree exactly
    nodes, wts = SHELL_RULE
    for fn, a, b in [(lambda ts: (1.0 - ts) ** -1.5, 0.0, 1.0),
                     (lambda ts: ts * (2.0 - ts) ** -0.7, -1.0, 2.0)]:
        masses = []
        for j in range(SHELLS):
            lo, hi = b - (b - a) * 0.5**j, b - (b - a) * 0.5 ** (j + 1)
            masses.append(float(np.sum(fn(lo + (hi - lo) * nodes) * wts) * (hi - lo)))
        want = (sum(masses), 1.0 + math.log2(masses[-1] / masses[-2]))
        assert _shell_integral(fn, a, b) == want


def test_region_window_fractions():
    # n=4, k=3, warp rate 2: 3/8 < 1/q <= 1/p < 5/8
    reg = admissible_region(4, 3, Fraction(1, 2), Fraction(1, 2))
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


def test_region_members_by_rate():
    # at p = q = 2, n = 4, k = 3 the window contains every rate above 1
    for lam in (2, 3, 4):
        e = powerlaw_exponents(lam)
        reg = admissible_region(4, 3, e.alpha, e.beta)
        assert reg.contains(2, 2), f"rate {lam}"


def test_region_empty_reasons():
    reg = admissible_region(4, 3, Fraction(1, 2), Fraction(1, 2), b_infinite=True)
    assert reg.empty and "b is infinite" in reg.reason
    assert not reg.contains(2, 2)
    assert reg.margin(2, 2) == -math.inf

    e = powerlaw_exponents(0)
    reg = admissible_region(4, 3, e.alpha, e.beta)
    assert reg.empty and "bounded twisting" in reg.reason

    e = powerlaw_exponents(Fraction(9, 10))
    reg = admissible_region(4, 3, e.alpha, e.beta)
    assert reg.empty and "alpha + beta exceeds 2" in reg.reason

    # rate 1 at k=1, n=2 collapses both bounds to 0: no (1/q, 1/p] left
    reg = admissible_region(2, 1, Fraction(1), Fraction(1))
    assert reg.empty and "window" in reg.reason


def test_region_margin_sign():
    reg = admissible_region(4, 3, Fraction(1, 2), Fraction(1, 2))
    assert reg.margin(2, 2) > 0
    assert reg.margin(Fraction(8, 3), Fraction(8, 3)) == 0.0
    assert reg.margin(3, 3) < 0


def test_region_grid_nests_under_refinement():
    reg = admissible_region(4, 3, Fraction(1, 2), Fraction(1, 2))
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
    # q = p = 3 leaves the exact window, and the shell detector sees the
    # matching convergent integral
    warp = WeightProfile.powerlaw(2.0, 1.0)
    inp = CriterionInput(4, 3, 3.0, 3.0, (0.0, 1.0), warp, hdr_zero=True)
    rep = criterion_check(inp)
    assert rep["verdict"] == "HYPOTHESES-FAIL"
    assert any(f.startswith("I1") for f in rep["failed"])


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
# verdict, failed, fitted mu and band delta of s, shell slopes of I1-I3
SAMPLED_CASES = {
    "flat": ((2, 1, 2.0, FLAT, None),
             "UNDECIDED", [], 0.0, 1.0491748609389464, None),
    "collapse": ((4, 1, 2.0, WeightProfile.sampled_t(LINEAR_T, (1.0 - LINEAR_T) ** 2), True),
                 "HYPOTHESES-FAIL", [I1 + " does not hold", I2 + " does not hold"],
                 -2.0, 0.42745558735023664, (-6.0, -5.9586923632137765, 2.0)),
    # mu = 1 +- delta takes in (1-t)^-1.137 / |log(1-t)|, whose window holds p = q = 21
    "graded-lam1": ((2, 1, 21.0, WeightProfile.sampled_t(GRADED_T, (1.0 - GRADED_T) ** -1.0), True),
                    "UNDECIDED", [], 1.0, 0.13709351539256626,
                    (1.0952380952380953, 1.1287674690644929, 0.9047619047619047)),
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
        reg = admissible_region(n, k, *want)
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


def test_criterion_input_validation():
    warp = WeightProfile.powerlaw(2.0, 1.0)
    with pytest.raises(ValueError, match="q >= p"):
        CriterionInput(4, 3, 3.0, 2.0, (0.0, 1.0), warp)
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
