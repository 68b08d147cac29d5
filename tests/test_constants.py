"""Sup-window norms, the C-integrals, and the assembled cylinder constant."""

import math

import numpy as np
import pytest

from cylcoh import (
    C_integral,
    ConstantRequest,
    Q_factor,
    WeightProfile,
    box,
    check_admissible_weight,
    corollary_box_bound,
    cylinder,
    cylinder_constant,
    sup_indicator_norm,
)
from cylcoh import _interp, constants
from cylcoh._interp import STACK_BYTES, powerlaw_mass, window_matrix
from cylcoh.constants import _graded_nodes, _t_axis_norm, _window_mass_field, _window_stacks


def test_sup_indicator_constant_beta_exact():
    # per-axis overlap is min(1, (1-t)/t) on [0,1], so the norm is
    # value * min(1, (1-t)/t)^(dim/q), exact for constant weights
    dom = box([[0, 1]], [65])
    one = WeightProfile.constant(1.0)
    assert sup_indicator_norm(dom, one, 2.0, 0.0) == pytest.approx(1.0)
    assert sup_indicator_norm(dom, one, 2.0, 1.0) == 0.0
    assert sup_indicator_norm(dom, one, 2.0, 0.25) == pytest.approx(1.0)
    assert sup_indicator_norm(dom, one, 2.0, 0.5) == pytest.approx(1.0)
    got = sup_indicator_norm(dom, one, 2.0, 0.75)
    assert got == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-12)

    two = WeightProfile.constant(2.0)
    assert sup_indicator_norm(dom, two, 2.0, 0.75) == pytest.approx(
        2.0 * (1.0 / 3.0) ** 0.5, rel=1e-12
    )

    sq = box([[0, 1], [0, 1]], [17, 17])
    got = sup_indicator_norm(sq, one, 1.0, 0.75)
    assert got == pytest.approx((1.0 / 3.0) ** 2, rel=1e-12)


def test_sup_indicator_halfway_square():
    # at t = 1/2 the window matches D up to translation, best centred at
    # z = (1/2, 1/2): full overlap, norm exactly 1
    dom = box([[0, 1], [0, 1]], [33, 33])
    one = WeightProfile.constant(1.0)
    assert sup_indicator_norm(dom, one, 1.0, 0.5) == pytest.approx(1.0)

    flat = WeightProfile.sampled(np.ones(dom.grid))
    got = sup_indicator_norm(dom, flat, 1.0, 0.5)
    assert abs(got - 1.0) <= 1e-9, f"grid-search sup {got} != 1"


def test_sup_indicator_sampled_matches_constant():
    dom = box([[0, 1], [0, 1]], [33, 33])
    one = WeightProfile.constant(1.0)
    flat = WeightProfile.sampled(np.ones(dom.grid))
    for t in (0.3, 0.6, 0.85):
        a = sup_indicator_norm(dom, one, 2.0, t)
        b = sup_indicator_norm(dom, flat, 2.0, t)
        assert abs(a - b) <= 0.05 * a, f"t={t}: exact {a} vs grid {b}"


def test_sup_indicator_powerlaw_exact():
    dom = box([[0, 1]], [65])
    # (2-x)^(-1/2), q=2: window of length 1/3 hugs the right edge where the
    # weight peaks; int_{2/3}^1 (2-x)^(-1) dx = log(4/3)
    beta = WeightProfile.powerlaw(0.5, 2.0)
    got = sup_indicator_norm(dom, beta, 2.0, 0.75)
    assert got == pytest.approx(math.log(4.0 / 3.0) ** 0.5, rel=1e-12)

    # decreasing weight (2-x)^1 hugs the left edge instead
    grow = WeightProfile.powerlaw(-1.0, 2.0)
    got = sup_indicator_norm(dom, grow, 2.0, 0.75)
    want = ((8.0 - (5.0 / 3.0) ** 3) / 3.0) ** 0.5
    assert got == pytest.approx(want, rel=1e-12)

    # pivot on the edge with lam*q >= 1: divergent, decided symbolically
    sing = WeightProfile.powerlaw(0.5, 1.0)
    assert sup_indicator_norm(dom, sing, 2.0, 0.75) == math.inf
    # and the t = 0 full norm with lam*q < 1 stays exact: int (1-x)^(-1/2) = 2
    soft = WeightProfile.powerlaw(0.25, 1.0)
    assert sup_indicator_norm(dom, soft, 2.0, 0.0) == pytest.approx(
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


@pytest.mark.parametrize("e", [0.5, 0.9, 0.98])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_t_moment_norm_matches_beta_function(e, q):
    # ||t (1-t)^(-lam)||_{L^q[0,1)}^q = B(q + 1, 1 - lam q)
    lam = e / q
    exact = (math.gamma(q + 1.0) * math.gamma(1.0 - e) / math.gamma(q + 2.0 - e)) ** (1.0 / q)
    beta = WeightProfile.powerlaw(lam, 1.0)
    got = _t_axis_norm(beta, q, 0.0, 1.0, moment_t=True)
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)
    sq = box([[0, 1], [0, 1]], [17, 17])
    out = cylinder_constant(ConstantRequest(1, q, q, sq, beta=beta), t_nodes=8)
    assert out["tbeta_norm"] == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_t_moment_norm_at_pivot_zero():
    # on [-1, 0) the moment |t|^q (0-t)^(-lam q) is the law (0-t)^(q - lam q),
    # finite iff lam q < q + 1: lam = 0.6, q = 2 gives (1/1.8)^(1/2)
    got = _t_axis_norm(WeightProfile.powerlaw(0.6, 0.0), 2.0, -1.0, 0.0, moment_t=True)
    assert got == pytest.approx((1.0 / 1.8) ** 0.5, rel=1e-12, abs=0.0)
    for lam in (1.5, 2.0):
        beta = WeightProfile.powerlaw(lam, 0.0)
        assert _t_axis_norm(beta, 2.0, -1.0, 0.0, moment_t=True) == math.inf


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
        assert sup == sup_indicator_norm(dom, beta, 3.0, t), f"t={t}"

    # the |x| moment of a power law, whose law enters the axis-0 windows
    law = WeightProfile.powerlaw(0.25, 1.0)
    seen.clear()
    C_integral(ConstantRequest(1, 2.0, 3.0, dom, beta=law), moment="|x|", t_nodes=24)
    qfield = np.sqrt(sum(c**2 for c in dom.meshgrid())) ** 3.0
    for t, sup in zip(nodes, seen[0]):
        one = search(qfield, dom, 3.0, [t], pl=(0.75, 1.0))[0]
        assert sup == pytest.approx(one, rel=1e-14, abs=0.0), f"t={t}"


def test_c_integral_builds_windows_once_per_axis_and_block(monkeypatch):
    # one window_matrix call per axis and pass for each block of t-nodes:
    # a single block at 33^2, and at the CLI maxima (257^2, 256 t-nodes)
    # several blocks, none of whose builds exceeds the byte budget
    calls = []
    build = _interp.window_matrix

    def counted(domain, ax, lower, upper, weight=None):
        calls.append(len(lower) * domain.grid[ax] * 8)
        return build(domain, ax, lower, upper, weight)

    monkeypatch.setattr(_interp, "window_matrix", counted)
    dom = box([[0, 1], [0, 1]], [33, 33])
    req = ConstantRequest(1, 2.0, 3.0, dom, beta=WeightProfile.sampled(np.ones(dom.grid)))
    for t_nodes in (16, 64):
        calls.clear()
        C_integral(req, t_nodes=t_nodes)
        assert len(calls) == 2 * dom.dim, f"t_nodes={t_nodes}"

    dom = box([[0, 1], [0, 1]], [257, 257])
    req = ConstantRequest(1, 2.0, 3.0, dom, beta=WeightProfile.sampled(np.ones(dom.grid)))
    calls.clear()
    C_integral(req, t_nodes=256)
    assert len(calls) > 2 * dom.dim
    assert max(calls) <= STACK_BYTES


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
    assert out["tbeta_norm"] == pytest.approx((16.0 / 15.0) ** 0.5, rel=1e-5)
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
