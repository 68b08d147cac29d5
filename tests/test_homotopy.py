import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from cylcoh import (
    GridForm,
    box,
    exterior_derivative,
    K_y,
    A_alpha,
    check_admissible_weight,
    WeightProfile,
)
from cylcoh import _interp, constants, homotopy
from cylcoh.homotopy import _box_integral, DEGREE0_MSG
from cylcoh._interp import scaled_axis_matrices, scaled_eval
from cylcoh.forms import increasing_indices, random_form
from oracles import cone_pullback_fiber, point_eval


def test_pullback_one_form():
    dom = box([[0, 1], [0, 1]], [17, 17])
    om = GridForm(dom, 1, {(0,): 1.0})
    out = cone_pullback_fiber(om, [0.25, 0.25], [0.75, 0.5], 0.6)
    assert out[()] == pytest.approx(0.5)


def test_pullback_two_form():
    dom = box([[0, 1], [0, 1]], [17, 17])
    om = GridForm(dom, 2, {(0, 1): 1.0})
    x, y, t = [0.75, 0.5], [0.25, 0.25], 0.6
    out = cone_pullback_fiber(om, y, x, t)
    # t * [(x1-y1) dx2 - (x2-y2) dx1]
    assert out[(1,)] == pytest.approx(t * (x[0] - y[0]))
    assert out[(0,)] == pytest.approx(-t * (x[1] - y[1]))


def test_pullback_matches_vector_action_oracle():
    """Cross-check against the coordinate-free definition.

    (psi_y^* om)_1 evaluated on (e_j1 .. e_jk-1) equals
    om_psi(x - y, t e_j1, .., t e_jk-1): push the frame forward and let
    the form act on it.  Evaluated symbolically on cubic coefficients,
    so the only gap is the grid interpolation of the implementation.
    """
    rng = np.random.default_rng(42)
    m = 33
    dom = box([[0, 1], [0, 1], [0, 1]], [m, m, m])
    xs = sp.symbols("x0 x1 x2")

    def cubic():
        expr = sp.Rational(0)
        for exps in itertools.product(range(2), repeat=3):
            if sum(exps) > 3:
                continue
            c = sp.Rational(int(rng.integers(-3, 4)), 4)
            expr += c * xs[0] ** exps[0] * xs[1] ** exps[1] * xs[2] ** exps[2]
        expr += sp.Rational(int(rng.integers(1, 4)), 4) * xs[0] ** 3
        return expr

    coeff_exprs = {idx: cubic() for idx in increasing_indices(3, 2)}
    om = GridForm(dom, 2)
    mesh = dom.meshgrid()
    for idx, expr in coeff_exprs.items():
        om.coeffs[idx] = sp.lambdify(xs, expr, "numpy")(*mesh) * np.ones(dom.grid)

    for _ in range(100):
        x = rng.uniform(0.05, 0.95, 3)
        y = rng.uniform(0.05, 0.95, 3)
        t = rng.uniform(0.05, 0.95)
        got = cone_pullback_fiber(om, y, x, t)
        psi = t * x + (1 - t) * y
        vals = {idx: float(expr.subs(dict(zip(xs, psi)))) for idx, expr in coeff_exprs.items()}
        v0 = x - y
        for J in increasing_indices(3, 1):
            want = 0.0
            for I, w in vals.items():
                cols = [v0] + [np.eye(3)[j] for j in J]
                M = np.array([[c[i] for c in cols] for i in I])
                want += w * np.linalg.det(M) * t ** (len(J))
            assert got[J] == pytest.approx(want, abs=2e-3), f"J={J} t={t:.3f}"


def test_K_one_form_exact():
    dom = box([[0, 1], [0, 1]], [17, 17])
    om = GridForm(dom, 1, {(0,): 1.0})
    y = [0.25, 0.5]
    prim = K_y(om, y)
    x1 = dom.meshgrid()[0]
    assert np.abs(prim[()] - (x1 - 0.25)).max() <= 1e-10
    assert (exterior_derivative(prim) - om).max_abs() <= 1e-10


def test_K_volume_form():
    dom = box([[0, 1], [0, 1]], [17, 17])
    om = GridForm(dom, 2, {(0, 1): 1.0})
    y = [0.25, 0.25]
    prim = K_y(om, y)
    x1, x2 = dom.meshgrid()
    assert np.abs(prim[(1,)] - 0.5 * (x1 - 0.25)).max() <= 1e-10
    assert np.abs(prim[(0,)] + 0.5 * (x2 - 0.25)).max() <= 1e-10


def test_K_identity_closed_trig():
    m, amp = 129, 5e-5
    dom = box([[0, 1], [0, 1]], [m, m])
    x1, x2 = dom.meshgrid()
    f1 = amp * 2 * np.pi * np.cos(2 * np.pi * x1 + 0.3)
    f2 = amp * 2 * np.pi * np.cos(2 * np.pi * x2 + 1.1)
    om = GridForm(dom, 1, {(0,): f1, (1,): f2})  # df for a trig potential
    prim = K_y(om, [0.5, 0.5], t_nodes=64)
    resid = (exterior_derivative(prim) - om).max_abs()
    assert resid <= 1e-6, f"residual {resid:.3e}"


@pytest.mark.parametrize("t", [0.03, 0.5, 0.97])
def test_scaled_eval_matches_point_eval(t):
    # two closed cubic axes, one 3-node (linear) axis
    dom = box([[0, 1], [0, 2], [-1, 1]], [9, 8, 3])
    field = np.random.default_rng(7).standard_normal(dom.grid)
    y = np.array([0.3, 1.9, -0.4])
    pts = t * np.stack([c.ravel() for c in dom.meshgrid()], axis=-1) + (1 - t) * y
    want = point_eval(field, dom, pts).reshape(dom.grid)
    mats = [scaled_axis_matrices(dom, ax, y, [t])[0] for ax in range(dom.dim)]
    work = (np.empty(field.size), np.empty(field.size))
    got = scaled_eval(field, mats, work)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize(
    "bounds, grid, y",
    [
        ([[0, 1], [0, 2], [-1, 1]], [9, 8, 3], [0.3, 1.9, -0.4]),
        ([[-0.5, 1.0], [0, 2]], [13, 10], [0.8, 0.4]),
    ],
    ids=["9x8x3", "13x10"],
)
def test_K_y_matches_pointwise_quadrature(bounds, grid, y):
    # K_y is the Gauss-Legendre sum over t of
    # t^(k-1) sum_r (-1)^r f_I(t x + (1-t) y) (x_{i_r} - y_{i_r}),
    # here with f_I evaluated point by point at every grid point x
    dom = box(bounds, grid)
    y = np.array(y)
    xs = np.stack([c.ravel() for c in dom.meshgrid()], axis=-1)
    nodes, wts = homotopy.gauss01(32)
    rng = np.random.default_rng(13)
    for k in range(1, dom.dim + 1):
        om = GridForm(dom, k)
        for idx in om.coeffs:
            om.coeffs[idx] = rng.standard_normal(dom.grid)
        want = {jdx: np.zeros(xs.shape[0]) for jdx in increasing_indices(dom.dim, k - 1)}
        for t, w in zip(nodes, wts):
            for idx, field in om.coeffs.items():
                val = w * t ** (k - 1) * point_eval(field, dom, t * xs + (1 - t) * y)
                for r, a in enumerate(idx):
                    want[idx[:r] + idx[r + 1 :]] += (-1) ** r * val * (xs[:, a] - y[a])
        got = K_y(om, y)
        for jdx, ref in want.items():
            ref = ref.reshape(dom.grid)
            err = np.abs(got[jdx] - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), f"k={k} {jdx}: {err:.3e}"


def test_K_y_builds_stencils_once_per_axis(monkeypatch):
    # one stencil build per axis for all t-nodes, shared by every
    # coefficient: a 3-form (1 coefficient) and a 2-form (3) in 3-D
    calls = []
    build = _interp._axis_stencil

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(_interp, "_axis_stencil", counted)
    dom = box([[0, 1], [0, 1], [0, 1]], [9, 8, 7])
    rng = np.random.default_rng(3)
    for k in (3, 2):
        om = random_form(dom, k, rng)
        for t_nodes in (4, 32):
            calls.clear()
            K_y(om, [0.4, 0.5, 0.6], t_nodes=t_nodes)
            assert len(calls) == dom.dim, f"k={k} t_nodes={t_nodes}"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_K_linearity(seed):
    rng = np.random.default_rng(seed)
    dom = box([[0, 1], [0, 1]], [9, 9])
    om = random_form(dom, 1, rng)
    eta = random_form(dom, 1, rng)
    a, b = rng.uniform(-2, 2, 2)
    lhs = K_y(a * om + b * eta, [0.5, 0.5], t_nodes=8)
    rhs = a * K_y(om, [0.5, 0.5], t_nodes=8) + b * K_y(eta, [0.5, 0.5], t_nodes=8)
    assert (lhs - rhs).max_abs() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_pullback_bound(seed):
    # |(psi_y^* om)_1| <= t^(k-1) sqrt(k) |x-y| |om(psi)|: each output index
    # sums k Cauchy-Schwarz terms and every input coefficient lands in k slots
    rng = np.random.default_rng(seed)
    dom = box([[0, 1], [0, 1], [0, 1]], [5, 5, 5])
    k = int(rng.integers(1, 4))
    om = random_form(dom, k, rng, amplitude=0.0)  # multilinear: interp exact
    x = rng.uniform(0.1, 0.9, 3)
    y = rng.uniform(0.1, 0.9, 3)
    t = rng.uniform(0.05, 0.95)
    out = cone_pullback_fiber(om, y, x, t)
    lhs = np.sqrt(sum(v**2 for v in out.values()))
    psi = t * x + (1 - t) * y
    om_at = np.sqrt(sum(point_eval(f, dom, psi) ** 2 for f in om.coeffs.values()))
    rhs = t ** (k - 1) * np.sqrt(k) * np.linalg.norm(x - y) * om_at
    assert lhs <= rhs + 1e-12


def test_degree0_message():
    dom = box([[0, 1]], [9])
    f = GridForm.from_callable(dom, 0, lambda x: x)
    with pytest.raises(ValueError, match="identity f - f"):
        K_y(f, [0.5])


@pytest.mark.parametrize(
    "axis, weight",
    [pytest.param(None, None, id="None")]
    + [pytest.param(a, "moment", id=str(a)) for a in range(3)]
    + [pytest.param(a, "lever", id=f"lever{a}") for a in range(3)],
)
@pytest.mark.parametrize("t", [0.03, 0.5, 0.97])
def test_box_integral_exact_on_multilinear(t, axis, weight):
    # the window integrals are exact for the piecewise-linear interpolant,
    # which reproduces a multilinear field: compare with the closed form
    # sum_e c_e prod_a int_{L_a}^{U_a} w_a(s) s^e_a ds, where w_a is 1,
    # or s (moment) or x_a - s (lever) on the weighted axis
    rng = np.random.default_rng(11)
    bounds = [[-0.3, 1.1], [0.2, 2.0], [0.5, 1.0]]
    dom = box(bounds, [9, 7, 5])
    mesh = dom.meshgrid()
    coef = rng.standard_normal((2, 2, 2))
    field = sum(
        coef[e] * np.prod([mesh[a] ** e[a] for a in range(3)], axis=0)
        for e in itertools.product(range(2), repeat=3)
    )
    mats = []
    for a, (lo, hi) in enumerate(bounds):
        xs = dom.axis_coords(a)
        ends = (t * xs[None] + (1.0 - t) * lo, t * xs[None] + (1.0 - t) * hi)
        plain = _interp.window_stack(dom, a, *ends)[0]
        if a != axis:
            mats.append(plain)
        elif weight == "moment":
            mats.append(_interp.window_stack(dom, a, *ends, "moment")[0])
        else:
            mats.append(xs[:, None] * plain - _interp.window_stack(dom, a, *ends, "moment")[0])
    work = (np.empty(field.size), np.empty(field.size))
    got = _box_integral(field, mats, work)

    def power(a, n):
        low = t * mesh[a] + (1.0 - t) * bounds[a][0]
        up = t * mesh[a] + (1.0 - t) * bounds[a][1]
        return (up**n - low**n) / n

    ref = 0.0
    for e in itertools.product(range(2), repeat=3):
        term = coef[e]
        for a in range(3):
            n = e[a] + 1
            if a != axis:
                term = term * power(a, n)
            elif weight == "moment":
                term = term * power(a, n + 1)
            else:
                term = term * (mesh[a] * power(a, n) - power(a, n + 1))
        ref = ref + term
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_a_alpha_builds_window_matrices_once_per_axis(monkeypatch):
    # one build per axis for all t-nodes: the plain matrices of every
    # axis and the moment matrices of every axis that some index uses
    # (all three for degree 2 in 3-D)
    calls = []
    build = _interp.window_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(_interp, "window_matrix", counted)
    dom = box([[0, 1], [0, 1], [0, 1]], [9, 8, 7])
    om = random_form(dom, 2, np.random.default_rng(3))
    for t_nodes in (4, 16):
        calls.clear()
        A_alpha(om, WeightProfile.constant(1.0), t_nodes=t_nodes)
        assert len(calls) == 2 * dom.dim, f"t_nodes={t_nodes}"


@pytest.mark.parametrize("grid", [(17, 12), (9, 8, 7)])
def test_blocked_K_y_and_A_alpha_match_one_block(monkeypatch, grid):
    # every stencil and window row is built on its own and each t-integral
    # keeps its node order, so blocks of 3 of the 16 t-nodes (6 blocks)
    # give what one block gives, bitwise
    dom = box([[0, 1], [-0.5, 1.5], [0.2, 0.9]][: len(grid)], grid)
    uniform = WeightProfile.constant(1.0 / dom.volume)
    y = [0.3, 0.7, 0.5][: len(grid)]
    rng = np.random.default_rng(17)
    oms = [random_form(dom, k, rng) for k in range(1, dom.dim + 1)]

    def run():
        return [(K_y(om, y, t_nodes=16), A_alpha(om, uniform, t_nodes=16)) for om in oms]

    whole = run()
    monkeypatch.setattr(_interp, "STACK_BYTES", 3 * 8 * max(grid) ** 2 + 7)
    assert len(_interp.node_blocks(16, 8 * max(grid) ** 2)) == 6
    for pair, ref in zip(run(), whole):
        for got, want in zip(pair, ref):
            for idx, field in want.coeffs.items():
                assert np.array_equal(got[idx], field), f"{got!r} {idx}"


def test_stacked_builds_fit_budget_at_cli_maxima(monkeypatch):
    # at the CLI maxima (257^2, 256 t-nodes) K_y's stencil matrices and
    # A_alpha's window stacks come in several blocks, no build above the
    # budget; the products are skipped, only the builds matter here
    stencils, windows = [], []
    stencil_build, window_build = homotopy.scaled_axis_matrices, _interp.window_matrix

    def stencil_counted(*args):
        out = stencil_build(*args)
        stencils.append(sum(mat.nbytes for mat, _ in out))
        return out

    def window_counted(domain, ax, lower, upper, weight=None):
        windows.append(len(lower) * domain.grid[ax] * 8)
        return window_build(domain, ax, lower, upper, weight)

    monkeypatch.setattr(homotopy, "scaled_axis_matrices", stencil_counted)
    monkeypatch.setattr(_interp, "window_matrix", window_counted)
    monkeypatch.setattr(homotopy, "scaled_eval", lambda field, mats, work: 0.0)
    monkeypatch.setattr(homotopy, "_box_integral", lambda field, mats, work: 0.0)
    dom = box([[0, 1], [0, 1]], [257, 257])
    om = GridForm(dom, 1)
    K_y(om, [0.5, 0.5], t_nodes=256)
    A_alpha(om, WeightProfile.constant(1.0), t_nodes=256)
    for builds in (stencils, windows):
        assert len(builds) > 2 * dom.dim
        assert max(builds) <= _interp.STACK_BYTES


def test_fixed_rules_are_read_only_and_match_fresh_builds():
    rules = [
        (constants.T_NORM_RULE, constants._graded_nodes(constants.T_NORM_NODES)),
        (_interp.EDGE_RULE, _interp.gauss01(_interp.EDGE_NODES)),
    ]
    for rule, fresh in rules:
        for arr, ref in zip(rule, fresh, strict=True):
            assert arr.flags.writeable is False
            assert np.array_equal(arr, ref)


def test_A_uniform_volume_form():
    dom = box([[0, 1], [0, 1]], [33, 33])
    om = GridForm(dom, 2, {(0, 1): 1.0})
    prim = A_alpha(om, WeightProfile.constant(1.0))
    x1, x2 = dom.meshgrid()
    assert np.abs(prim[(1,)] - 0.5 * (x1 - 0.5)).max() <= 1e-9
    assert np.abs(prim[(0,)] + 0.5 * (x2 - 0.5)).max() <= 1e-9


def test_A_uniform_one_form_barycenter():
    dom = box([[0, 2], [0, 1]], [33, 17])
    om = GridForm(dom, 1, {(0,): 1.0})
    prim = A_alpha(om, WeightProfile.constant(1.0 / dom.volume))
    x1 = dom.meshgrid()[0]
    assert np.abs(prim[()] - (x1 - 1.0)).max() <= 1e-9


def test_A_nonuniform_matches_moment():
    # A_alpha dx1 = x1 - m1 with m1 the alpha-average of y1
    dom = box([[0, 1], [0, 1]], [17, 17])
    a = 0.8
    alpha = WeightProfile.sampled(dom.sample(lambda x, y: 1.0 + a * (x - 0.5)))
    om = GridForm(dom, 1, {(0,): 1.0})
    prim = A_alpha(om, alpha, y_grid=(17, 17))
    x1 = dom.meshgrid()[0]
    m1 = dom.integrate(dom.sample(lambda x, y: x * (1.0 + a * (x - 0.5))))
    assert np.abs(prim[()] - (x1 - m1)).max() <= 1e-8


def test_A_identity_random_exact():
    rng = np.random.default_rng(3)
    dom = box([[0, 1], [0, 1], [0, 1]], [33, 33, 33])
    worst = 0.0
    for _ in range(3):
        eta = random_form(dom, 1, rng, amplitude=2e-5)
        om = exterior_derivative(eta)
        prim = A_alpha(om, WeightProfile.constant(1.0))
        resid = (exterior_derivative(prim) - om).max_abs() / om.max_abs()
        worst = max(worst, resid)
    assert worst <= 1e-5, f"worst residual {worst:.3e}"


def test_weight_admissibility():
    dom = box([[0, 1]], [65])
    ok = check_admissible_weight(WeightProfile.constant(1.0), dom, 2.0)
    assert ok["admissible"]

    half = check_admissible_weight(WeightProfile.constant(0.5), dom, 2.0)
    assert not half["admissible"]
    assert any("unit mass" in v for v in half["violations"])

    # (1-y)^(-1) has mass log-divergent and ||alpha||_2 divergent; scale
    # does not matter for the dual-norm violation
    bad = WeightProfile.powerlaw(1.0, 1.0)
    res = check_admissible_weight(bad, dom, 2.0)
    assert not res["admissible"]
    assert any("alpha" in v for v in res["violations"])
    assert np.isinf(res["alpha_norm"])

    # integrable edge singularity: mass and norms come out in closed form
    # without ever sampling the pivot node.  mass = 4/3, ||a||_2 = sqrt(2),
    # ||a y||_2 = sqrt(B(3, 1/2)) = sqrt(16/15)
    soft = WeightProfile.powerlaw(0.25, 1.0)
    res = check_admissible_weight(soft, dom, 2.0)
    assert res["violations"] == [f"unit mass (got {res['mass']:.6g})"]
    assert abs(res["mass"] - 4.0 / 3.0) <= 1e-12
    assert abs(res["alpha_norm"] - np.sqrt(2.0)) <= 1e-12
    assert abs(res["moment_norm"] - np.sqrt(16.0 / 15.0)) <= 1e-6
