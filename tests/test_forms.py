import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylcoh import (
    GridForm,
    box,
    cylinder,
    twisted_cylinder,
    exterior_derivative,
    decompose_cylinder,
    lp_norm,
    pointwise_norm,
)
from cylcoh.forms import fF_profiles, random_form, recompose_cylinder


def test_d_constant_zero():
    dom = box([[0, 1], [0, 1]], [9, 9])
    f = GridForm.from_callable(dom, 0, lambda x, y: 3.0 + 0 * x)
    df = exterior_derivative(f)
    assert df.degree == 1
    assert df.max_abs() <= 1e-12


def test_d_affine_exact():
    dom = box([[0, 1], [0, 1]], [17, 17])
    om = GridForm.from_callable(dom, 1, {(1,): lambda x, y: x})
    dom2 = exterior_derivative(om)
    assert np.abs(dom2[(0, 1)] - 1.0).max() <= 1e-10


def test_d_trig_second_order():
    errs = []
    for m in (17, 33, 65):
        dom = box([[0, 1], [0, 1]], [m, m])
        om = GridForm.from_callable(dom, 1, {(1,): lambda x, y: np.sin(x)})
        exact = GridForm.from_callable(dom, 2, {(0, 1): lambda x, y: np.cos(x)})
        errs.append((exterior_derivative(om) - exact).max_abs())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0 - 0.1, f"observed orders {orders}"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 1))
def test_dd_zero(seed, degree):
    rng = np.random.default_rng(seed)
    dom = box([[0, 1], [0, 1], [0, 1]], [9, 9, 9])
    om = random_form(dom, degree, rng)
    dd = exterior_derivative(exterior_derivative(om))
    assert dd.max_abs() <= 1e-10 * max(om.max_abs(), 1.0)


def test_decompose_dt_component():
    dom = cylinder([0, 1], [[0, 1]], [5, 8])
    t, th = dom.meshgrid()
    om = GridForm(dom, 1, {(0,): 1.0 + t})
    om_a, om_b = decompose_cylinder(om)
    assert om_a.max_abs() == 0.0
    assert np.allclose(om_b[()], 1.0 + t)


def test_decompose_fiber_component():
    dom = cylinder([0, 1], [[0, 1]], [5, 8])
    om = GridForm(dom, 1, {(1,): 2.0})
    om_a, om_b = decompose_cylinder(om)
    assert np.allclose(om_a[(1,)], 2.0)
    assert om_b.max_abs() == 0.0


def test_decompose_mixed_two_form():
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [5, 8, 8])
    t = dom.meshgrid()[0]
    om = GridForm(dom, 2, {(0, 1): 1.0 + t, (1, 2): 3.0})
    om_a, om_b = decompose_cylinder(om)
    assert np.allclose(om_a[(1, 2)], 3.0)
    assert np.abs(om_a[(0, 1)]).max() == 0.0
    assert np.allclose(om_b[(1,)], 1.0 + t)
    back = recompose_cylinder(om_a, om_b)
    assert back.allclose(om)


def test_pointwise_norm_flat():
    dom = twisted_cylinder([0, 1], [[0, 1]], [5, 8], lambda t, x: 1.0 + 0 * t)
    om = GridForm(dom, 1, {(1,): 3.0})
    assert np.allclose(pointwise_norm(om), 3.0)


def test_pointwise_norm_constant_warp():
    c = 1.7
    dom = twisted_cylinder([0, 1], [[0, 1], [0, 1]], [5, 8, 8], lambda t, x, y: c + 0 * t)
    om = GridForm(dom, 2, {(1, 2): 5.0})
    assert np.allclose(pointwise_norm(om), c**-2 * 5.0)


def test_pointwise_norm_dt_exponent():
    # B part of a k-form carries h^-(k+1)
    dom = twisted_cylinder([0, 1], [[0, 1]], [9, 8], lambda t, x: np.exp(t))
    om = GridForm(dom, 1, {(0,): 1.0})
    ts = dom.axis_coords(0)
    assert np.allclose(pointwise_norm(om), np.exp(-2.0 * ts)[:, None])


def test_lp_norm_flat_cases():
    dom = box([[0, 1], [0, 1]], [17, 17])
    one = GridForm.from_callable(dom, 0, lambda x, y: 1.0 + 0 * x)
    assert lp_norm(one, 2.0) == pytest.approx(1.0)
    dx1 = GridForm(dom, 1, {(0,): 1.0})
    assert lp_norm(dx1, 1.0, weight=2.0) == pytest.approx(2.0)


def test_lp_norm_twisted_vs_1d_quadrature():
    # closed form: ||dt||_2^2 = int_0^1 e^(2t(n/p - k + 1)) dt at n=1,p=2,k=1,
    # i.e. int e^t dt = e - 1
    dom = twisted_cylinder([0, 1], [[0, 1]], [257, 8], lambda t, x: np.exp(t))
    om = GridForm(dom, 1, {(0,): 1.0})
    assert lp_norm(om, 2.0) == pytest.approx(np.sqrt(np.e - 1.0), rel=1e-4)


def test_fF_profiles():
    dom = twisted_cylinder([0, 1], [[0, 1]], [9, 8], lambda t, x: np.exp(t))
    f, F = fF_profiles(dom, 1, 2.0)
    ts = dom.axis_coords(0)
    # x-independent warp: f = F = e^(t(n/p - k)) = e^(-t/2)
    assert np.allclose(f.eval_t(ts), np.exp(-0.5 * ts))
    assert np.allclose(F.eval_t(ts), np.exp(-0.5 * ts))

    dom2 = twisted_cylinder(
        [0, 1], [[0, 1]], [9, 64], lambda t, x: np.exp(t) * (2.0 + np.sin(2 * np.pi * x))
    )
    f2, _ = fF_profiles(dom2, 1, 1.0)
    # n/p - k = 0: profile is h^0 = 1 regardless of the fiber factor
    assert np.allclose(f2.eval_t(ts), 1.0)
    warp = lambda t, x: np.exp(t) * (2.0 + np.sin(2 * np.pi * x))
    dom3 = twisted_cylinder([0, 1], [[0, 1]], [9, 256], warp)
    dom_fine = twisted_cylinder([0, 1], [[0, 1]], [9, 2560], warp)
    f3, F3 = fF_profiles(dom3, 2, 1.0)
    # 10x finer fiber grid pins the same min to grid tolerance
    assert np.allclose(f3.eval_t(ts), fF_profiles(dom_fine, 2, 1.0)[0].eval_t(ts), atol=1e-4)
    assert np.all(F3.eval_t(ts) >= f3.eval_t(ts))


def test_top_degree_d_raises():
    dom = box([[0, 1], [0, 1]], [9, 9])
    om = GridForm(dom, 2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        exterior_derivative(om)
