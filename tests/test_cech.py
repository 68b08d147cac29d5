"""Cech coboundary algebra and the end-to-end gluing pipeline."""

import numpy as np
import pytest

from cylcoh import (
    GridForm,
    HypothesisFailure,
    WeightProfile,
    cech,
    circle_cover,
    coboundary,
    cylinder,
    exterior_derivative,
    glue_primitive,
    torus_cover,
)
from cylcoh.cech import (
    CechCochain,
    constant_correction,
    descend_xi,
    solve_coboundary,
)
from cylcoh.cover import GoodCover
from cylcoh.forms import random_form
from oracles import take


def _patch_cochain(cover, degree, rng, amplitude=0.2):
    """Independent random forms on every patch component."""
    data = {}
    for i in range(len(cover)):
        for comp in cover.components((i,)):
            dom = cover.component_domain(comp)
            data[((i,), comp)] = random_form(dom, degree, rng, amplitude=amplitude)
    return CechCochain(cover, 1, degree, data)


def test_coboundary_of_restriction_vanishes():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    f = random_form(dom, 1, np.random.default_rng(0))
    lam = coboundary(CechCochain.whole(cov, f))
    assert lam.depth == 1
    up = coboundary(lam)
    # restrictions of one global form agree exactly on overlaps
    assert up.max_abs() <= 1e-14


def test_coboundary_pair_signs():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    data = {}
    consts = [2.0, 5.0, 11.0]
    for i in range(3):
        comp = cov.components((i,))[0]
        g = GridForm(cov.component_domain(comp), 0)
        g[()] = consts[i]
        data[((i,), comp)] = g
    lam = CechCochain(cov, 1, 0, data)
    up = coboundary(lam)
    for (J, comp), form in up.entries():
        i, j = J
        want = consts[j] - consts[i]
        got = form.coeffs[()]
        assert np.allclose(got, want), f"(delta lam)_{J} != lam_{j} - lam_{i}"


def test_coboundary_squares_to_zero():
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [5, 32, 32])
    cov = torus_cover(dom)
    lam = _patch_cochain(cov, 1, np.random.default_rng(1))
    up = coboundary(coboundary(lam))
    assert up.depth == 3
    assert len(up.data) > 0, "torus cover should have triple overlaps"
    assert up.max_abs() <= 1e-12


def test_solve_coboundary_round_trip():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    pou = cov.partition_of_unity()
    kappa = _patch_cochain(cov, 1, np.random.default_rng(2))
    lam = coboundary(kappa)
    back, res = solve_coboundary(lam, pou)
    assert back.depth == 1 and res <= 1e-12
    resid = (coboundary(back) - lam).max_abs()
    assert resid <= 1e-12, f"delta(solution) misses the cocycle by {resid:.3e}"


def test_solve_coboundary_depth_one_recovers_global():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    pou = cov.partition_of_unity()
    f = random_form(dom, 1, np.random.default_rng(3))
    lam = coboundary(CechCochain.whole(cov, f))
    out, _ = solve_coboundary(lam, pou)
    assert out.depth == 0 and list(out.data) == [((), cov.full)]
    assert (out.data[((), cov.full)] - f).max_abs() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_coboundary_accepts_a_coboundary_that_cancels(seed):
    # delta delta lam is zero up to the rounding of delta lam's values, so
    # the cocycle check measures it against them, not against its own sup
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [9, 32, 32])
    cov = torus_cover(dom)
    rng = np.random.default_rng(seed)
    data = {}
    for key, chart, _, _ in cov.cells(1):
        form = GridForm(chart, 1)
        for arr in form.coeffs.values():
            arr[...] = rng.standard_normal(chart.grid) * 10.0 ** rng.integers(-3, 3)
        data[key] = form
    mid = coboundary(CechCochain(cov, 1, 1, data))
    rhs = coboundary(mid)
    assert rhs.max_abs() <= 1e-13 * mid.max_abs()
    kappa, res = solve_coboundary(rhs, cov.partition_of_unity())
    assert res <= 1e-14
    assert (coboundary(kappa) - rhs).max_abs() <= 1e-14 * mid.max_abs()


def test_solve_coboundary_rejects_non_cocycle():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    pou = cov.partition_of_unity()
    lam = _patch_cochain(cov, 1, np.random.default_rng(4))
    with pytest.raises(ValueError, match="not a cocycle"):
        solve_coboundary(lam, pou)


def test_descend_validation():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    with pytest.raises(ValueError, match="degree at least 1"):
        descend_xi(GridForm(dom, 0), cov)
    open_form = random_form(dom, 1, np.random.default_rng(5))
    with pytest.raises(ValueError, match="not closed"):
        descend_xi(open_form, cov)


def test_descend_gives_local_primitives():
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    rng = np.random.default_rng(6)
    f = random_form(dom, 0, rng, amplitude=3e-6)
    om = exterior_derivative(f)
    cov = circle_cover(dom)
    xi_list, residuals = descend_xi(om, cov)
    assert len(xi_list) == len(residuals) == 1
    # primitives of the same form differ by constants on overlaps
    drift = constant_correction(xi_list[0])[1]["constancy_drift"]
    assert drift <= 1e-6, f"overlap differences drift by {drift:.3e}"


def test_constant_correction_trivial_and_prescribed():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    f = random_form(dom, 0, np.random.default_rng(7))
    lam = coboundary(CechCochain.whole(cov, f))
    c, info = constant_correction(lam)
    assert info["lstsq_residual"] <= 1e-12
    assert c.max_abs() <= 1e-10

    # shift each patch by its own constant: the correction must absorb it
    shifts = [1.0, -3.0, 7.0]
    data = {}
    for ((i,), comp), form in lam.entries():
        data[((i,), comp)] = form + shifts[i] * GridForm.from_callable(
            form.domain, 0, lambda *a: np.ones_like(a[0])
        )
    shifted = CechCochain(cov, 1, 0, data)
    c, info = constant_correction(shifted)
    assert info["lstsq_residual"] <= 1e-10
    delta_c = coboundary(c)
    for (J, comp), form in delta_c.entries():
        i, j = J
        want = shifts[j] - shifts[i]
        assert np.allclose(form.coeffs[()], want, atol=1e-10)


def test_glue_exact_one_form_circle():
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    rng = np.random.default_rng(8)
    f = random_form(dom, 0, rng, amplitude=3e-6)
    om = exterior_derivative(f)
    xi, report = glue_primitive(om, circle_cover(dom))
    assert report["relative_residual"] <= 1e-5
    assert len(report["stages"]) == 1 and report["patches"] == 3
    # xi and f are both primitives on a connected domain: constant gap
    gap = xi[()] - f[()]
    assert np.ptp(gap) <= 1e-4 * max(np.abs(f[()]).max(), 1.0)
    assert report["norm_ratio"] > 0


def test_glue_exact_two_form_torus():
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [33, 32, 32])
    rng = np.random.default_rng(9)
    eta = random_form(dom, 1, rng, amplitude=1e-6)
    om = exterior_derivative(eta)
    xi, report = glue_primitive(om, torus_cover(dom))
    assert report["relative_residual"] <= 1e-4
    assert len(report["stages"]) == 2 and report["patches"] == 4
    # four patches at depth 1; sixteen overlap components at depth 2
    assert [st["patch_solves"] for st in report["stages"]] == [4, 16]
    for st in report["stages"]:
        assert 0.0 < st["patch_residual_max"] <= 1e-6
        assert 0.0 <= st["cocycle_residual"] <= 1e-6
    assert (exterior_derivative(xi) - om).max_abs() <= report["residual"] + 1e-15


def test_glue_top_degree_on_two_arc_cover():
    # two arcs: the nerve stops at depth 2, and the constant correction of a
    # 2-form reads depth 3, which has no cells
    dom = cylinder([0, 1], [[0, 1]], [17, 32])
    cov = GoodCover(dom, [None, [(0, 19), (16, 19)]])
    assert cov.cells(3) == ()
    eta = random_form(dom, 1, np.random.default_rng(14), amplitude=3e-6)
    om = exterior_derivative(eta)
    xi, report = glue_primitive(om, cov, t_nodes=16, tol=1e-4)
    assert report["relative_residual"] <= 1e-4
    assert (exterior_derivative(xi) - om).max_abs() <= report["residual"] + 1e-15


def test_glue_refuses_divergent_beta():
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    f = random_form(dom, 0, np.random.default_rng(10), amplitude=3e-6)
    om = exterior_derivative(f)
    beta = WeightProfile.powerlaw(2.0, 1.0)
    with pytest.raises(HypothesisFailure) as err:
        glue_primitive(om, circle_cover(dom), beta=beta)
    msg = str(err.value)
    assert "||beta||_{L^q[a,b)} divergent" in msg
    assert "||t beta(t)||_{L^q[a,b)} divergent" in msg


@pytest.mark.parametrize("p, q", [(3.0, 2.0), (0.5, 2.0)], ids=["q<p", "p<1"])
def test_glue_refuses_exponents_outside_the_range(p, q, monkeypatch):
    # the exponents are refused as ConstantRequest refuses them, before the
    # divergent beta is checked and before any patch is solved
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    om = exterior_derivative(random_form(dom, 0, np.random.default_rng(10), amplitude=3e-6))
    calls = []
    monkeypatch.setattr(cech, "A_alpha", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="need q >= p >= 1"):
        glue_primitive(om, circle_cover(dom), beta=WeightProfile.powerlaw(2.0, 1.0), p=p, q=q)
    assert calls == []


def test_glue_refuses_vanishing_gamma():
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    f = random_form(dom, 0, np.random.default_rng(11), amplitude=3e-6)
    om = exterior_derivative(f)
    gamma = WeightProfile.powerlaw(-0.6, 1.0)
    with pytest.raises(HypothesisFailure, match="every tried pbar"):
        glue_primitive(om, circle_cover(dom), gamma=gamma)


def test_glue_reports_best_q():
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    f = random_form(dom, 0, np.random.default_rng(12), amplitude=3e-6)
    om = exterior_derivative(f)
    gamma = WeightProfile.powerlaw(1.0, 2.0)
    _, report = glue_primitive(om, circle_cover(dom), gamma=gamma)
    # pbar scan: sup gives 2, pbar=1 gives ||2-t||_2 = sqrt(7/3); the
    # report keeps the smallest finite value
    assert report["Q"] == pytest.approx((7.0 / 3.0) ** 0.5, rel=1e-6)


def test_glue_detects_angle_form_obstruction():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    om = GridForm(dom, 1)
    om[(1,)] = 1.0
    with pytest.raises(ValueError, match="cover cocycle obstruction"):
        glue_primitive(om, circle_cover(dom))


def test_cochain_subtract_needs_matching_keys():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    a = _patch_cochain(cov, 1, np.random.default_rng(13))
    b = CechCochain(cov, 1, 1, dict(list(a.data.items())[:2]))
    with pytest.raises(ValueError, match="keys do not match"):
        a - b


def _cell_cochain(cover, depth, degree, rng):
    """Independent random forms on every cell chart at one depth."""
    data = {key: random_form(chart, degree, rng) for key, chart, _, _ in cover.cells(depth)}
    return CechCochain(cover, depth, degree, data)


@pytest.mark.parametrize("depth", [1, 2])
def test_coboundary_is_the_signed_sum_of_face_restrictions(depth, monkeypatch):
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [5, 32, 32])
    cov = torus_cover(dom)
    lam = _cell_cochain(cov, depth, 1, np.random.default_rng(20 + depth))
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return GridForm(*args, **kwargs)

    monkeypatch.setattr(cech, "GridForm", counted)
    up = coboundary(lam)
    cells = cov.cells(depth + 1)
    assert len(cells) > 0
    # one form per cell, filled in place: no form per face
    assert len(built) == len(cells)
    assert sorted(up.data) == sorted(key for key, *_ in cells)
    for key, chart, faces, _ in cells:
        for idx, got in up.data[key].coeffs.items():
            want = np.zeros(chart.grid)
            for sign, _, parent, pieces in faces:
                want = want + sign * take(lam.data[parent].coeffs[idx], pieces)
            assert np.array_equal(got, want), f"(delta lam)_{key} at {idx}"


@pytest.mark.parametrize("fiber, grid, idx, node", [
    ([[0, 1], [0, 1]], [17, 32, 32], (1, 2), (5, 7, 9)),
    ([[0, 1]], [17, 32], (0, 1), (5, 7)),
])
def test_glue_refuses_nan(fiber, grid, idx, node):
    # a 2-form on the torus cylinder fails the closedness check; on the
    # circle cylinder it is top degree, has none, and fails its patch solve
    dom = cylinder([0, 1], fiber, grid)
    cov = torus_cover(dom) if len(fiber) == 2 else circle_cover(dom)
    om = exterior_derivative(random_form(dom, 1, np.random.default_rng(15), amplitude=1e-6))
    om[idx][node] = np.nan
    assert np.isnan(om.max_abs())
    with pytest.raises(ValueError, match="nan"):
        glue_primitive(om, cov, t_nodes=16, tol=1e-4)


def test_nan_cochain_is_not_a_cocycle():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    lam = coboundary(_patch_cochain(cov, 1, np.random.default_rng(16)))
    assert np.isfinite(lam.max_abs())
    lam.entries()[-1][1][(1,)][4, 2] = np.nan
    assert np.isnan(lam.max_abs())
    with pytest.raises(ValueError, match="not a cocycle: coboundary residual nan"):
        solve_coboundary(lam, cov.partition_of_unity())


@pytest.mark.parametrize("cover_domain", [
    cylinder([0, 1], [[0, 1]], [33, 48]),  # another grid
    cylinder([0, 2], [[0, 1]], [33, 32]),  # same grid, another t-interval
])
def test_glue_refuses_a_cover_of_another_domain(cover_domain):
    dom = cylinder([0, 1], [[0, 1]], [33, 32])
    om = exterior_derivative(random_form(dom, 0, np.random.default_rng(17), amplitude=3e-6))
    with pytest.raises(ValueError, match="the cover is on") as err:
        glue_primitive(om, circle_cover(cover_domain))
    assert repr(cover_domain) in str(err.value) and repr(dom) in str(err.value)
