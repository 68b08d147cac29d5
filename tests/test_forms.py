import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylcoh import GridForm, WeightProfile, box, cylinder, exterior_derivative, lp_norm
from cylcoh.forms import random_form


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


def test_lp_norm_flat_cases():
    dom = box([[0, 1], [0, 1]], [17, 17])
    one = GridForm.from_callable(dom, 0, lambda x, y: 1.0 + 0 * x)
    assert lp_norm(one, 2.0) == pytest.approx(1.0)
    dx1 = GridForm(dom, 1, {(0,): 1.0})
    assert lp_norm(dx1, 1.0, weight=WeightProfile.constant(2.0)) == pytest.approx(2.0)
    # coefficients (3, 4) on a cylinder of area 2: the density is the
    # Euclidean norm 5, while max_abs is the largest coefficient, 4
    cyl = cylinder([0, 1], [[0, 2]], [9, 16])
    om = GridForm(cyl, 1, {(0,): 3.0, (1,): 4.0})
    assert lp_norm(om, np.inf) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm(om, 2.0) == pytest.approx(5.0 * np.sqrt(2.0), rel=1e-14)
    assert lp_norm(om, 1.0, weight=WeightProfile.constant(0.5)) == pytest.approx(5.0, rel=1e-14)
    assert om.max_abs() == 4.0


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.25, np.inf])
def test_lp_norm_weights_enter_bitwise(q):
    # a unit weight changes no bit, and a t-only weight's broadcast
    # column gives the same bits as its values sampled on the full grid
    dom = cylinder([0, 1], [[0, 1], [0, 2]], [9, 8, 6])
    om = random_form(dom, 1, np.random.default_rng(3))
    assert lp_norm(om, q, WeightProfile.constant(1.0)) == lp_norm(om, q)
    for weight in (WeightProfile.sampled_t([0.0, 0.3, 1.0], [0.5, 1.5, 0.7]),
                   WeightProfile.powerlaw(0.25, 2.0), WeightProfile.constant(2.0)):
        full = WeightProfile.sampled(weight.sample_on(dom))
        assert lp_norm(om, q, weight) == lp_norm(om, q, full)


def _gradient_roll_d(om):
    # the exterior derivative from fresh np.gradient / np.roll partials
    dom = om.domain
    out = GridForm(dom, om.degree + 1)
    for idx, field in om.coeffs.items():
        for ax in range(dom.dim):
            if ax in idx:
                continue
            h = dom.spacing(ax)
            if dom.periodic[ax]:
                part = (np.roll(field, -1, axis=ax) - np.roll(field, 1, axis=ax)) / (2.0 * h)
            else:
                part = np.gradient(field, h, axis=ax, edge_order=2)
            acc = out.coeffs[tuple(sorted(idx + (ax,)))]
            if sum(1 for i in idx if i < ax) % 2:
                acc -= part
            else:
                acc += part
    return out


@pytest.mark.parametrize("dom", [box([[0, 1.3], [-0.2, 0.5]], [9, 11]),
                                 box([[0, 1], [0, 2], [-1, 0.3]], [5, 6, 7]),
                                 cylinder([0, 1], [[0, 1], [0, 1]], [7, 16, 32])],
                         ids=["box2", "box3", "torus"])
def test_d_buffered_partials_match_gradient_and_roll(dom):
    # the buffered partials repeat np.gradient's and np.roll's operations
    # in their order, on closed and periodic axes, at every degree
    rng = np.random.default_rng(dom.dim)
    for k in range(dom.dim):
        om = GridForm(dom, k)
        for idx in om.coeffs:
            om.coeffs[idx] = rng.standard_normal(dom.grid)
        got, want = exterior_derivative(om), _gradient_roll_d(om)
        for idx, field in want.coeffs.items():
            assert np.array_equal(got[idx], field), (k, idx)


def test_top_degree_d_raises():
    dom = box([[0, 1], [0, 1]], [9, 9])
    om = GridForm(dom, 2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        exterior_derivative(om)


def test_max_abs_keeps_nan_in_any_coefficient():
    dom = box([[0, 1], [0, 1]], [5, 5])
    om = GridForm(dom, 1, {(0,): 0.5})
    assert om.max_abs() == 0.5
    om[(1,)][2, 3] = np.nan
    assert np.isnan(om.max_abs())


def test_binary_ops_need_the_same_domain():
    # same grid, another box: the sum would be a form on neither
    a = GridForm(box([[0, 1], [0, 1]], [5, 5]), 1, {(0,): 1.0})
    b = GridForm(box([[0, 2], [0, 1]], [5, 5]), 1, {(0,): 1.0})
    with pytest.raises(ValueError, match="form mismatch"):
        a + b
    with pytest.raises(ValueError, match="form mismatch"):
        a - b
    assert np.array_equal((a + a)[(0,)], np.full((5, 5), 2.0))


def test_form_arithmetic_allocates_only_its_result(monkeypatch):
    # +, -, scalar * and negation build each result coefficient once, with
    # no zero-filled form first, and hold the same values as the
    # elementwise operations
    dom = box([[0, 1], [0, 2], [0, 1]], [5, 6, 7])
    rng = np.random.default_rng(4)
    a, b = random_form(dom, 2, rng), random_form(dom, 2, rng)
    zeros = []
    real_zeros = np.zeros

    def counted(*args, **kwargs):
        zeros.append(args)
        return real_zeros(*args, **kwargs)

    monkeypatch.setattr(np, "zeros", counted)
    results = {"add": a + b, "sub": a - b, "mul": 2.5 * a, "rmul": a * -3, "neg": -a}
    assert zeros == []
    monkeypatch.undo()
    want = {"add": lambda i: a[i] + b[i], "sub": lambda i: a[i] - b[i],
            "mul": lambda i: a[i] * 2.5, "rmul": lambda i: a[i] * -3.0, "neg": lambda i: a[i] * -1.0}
    for name, form in results.items():
        assert (form.domain, form.degree, list(form.coeffs)) == (dom, 2, list(a.coeffs))
        for idx in a.coeffs:
            assert np.array_equal(form[idx], want[name](idx)), (name, idx)
            assert not np.shares_memory(form[idx], a[idx])


SQUARE = box([[0, 1], [0, 2]], [5, 7])


def _set(form, idx, field):
    form[idx] = field


@pytest.mark.parametrize("call, error, message", [
    (lambda: GridForm(SQUARE, 3), ValueError, "degree 3 out of range for dim 2"),
    (lambda: GridForm(SQUARE, -1), ValueError, "degree -1 out of range for dim 2"),
    (lambda: GridForm(SQUARE, 1)[(0, 1)], KeyError, "bad multi-index (0, 1) for degree 1"),
    (lambda: GridForm(SQUARE, 2)[(1, 0)], KeyError, "bad multi-index (1, 0) for degree 2"),
    (lambda: _set(GridForm(SQUARE, 1), (2,), 1.0), KeyError, "bad multi-index (2,) for degree 1"),
    (lambda: _set(GridForm(SQUARE, 1), (0,), np.ones((2, 5, 7))), ValueError,
     "field shape (2, 5, 7) != grid (5, 7)"),
    (lambda: GridForm(SQUARE, 0, {(): np.ones((3, 5, 1))}), ValueError,
     "field shape (3, 5, 7) != grid (5, 7)"),
    (lambda: lp_norm(GridForm(SQUARE, 1), 0.5), ValueError, "p must be >= 1"),
], ids=["degree-high", "degree-negative", "index-length", "index-order", "set-index", "set-shape",
        "init-shape", "lp-norm-p<1"])
def test_grid_form_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
