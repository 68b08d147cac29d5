import itertools
import math
import re

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
from cylcoh import _interp, homotopy
from cylcoh.homotopy import _box_integral, DEGREE0_MSG
from cylcoh._interp import scaled_axis_matrices, scaled_eval, scaled_taps
from cylcoh.forms import increasing_indices, random_form
from oracles import cone_pullback_fiber, gauss_averaged_K, point_eval


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
    # closed cubic axes and one 3-node (linear) axis, in 3-D, 2-D and 1-D:
    # the slab holds every axis but 0, cut to the nodes axis 0's stencils
    # reach, and axis 0's matrix applied to it finishes the evaluation
    for bounds, grid in (([[0, 1], [0, 2], [-1, 1]], [9, 8, 3]), ([[0, 1], [0, 2]], [9, 8]),
                         ([[-1, 1]], [9])):
        dom = box(bounds, grid)
        field = np.random.default_rng(7).standard_normal(dom.grid)
        y = np.array([0.3, 1.9, -0.4])[: dom.dim]
        pts = t * np.stack([c.ravel() for c in dom.meshgrid()], axis=-1) + (1 - t) * y
        want = point_eval(field, dom, pts).reshape(dom.grid)
        mats = [scaled_axis_matrices(scaled_taps(dom, ax, y, [t]), slice(0, 1))[1][0]
                for ax in range(dom.dim)]
        (mat0, cols0), rest = mats[0], dom.grid[1:]
        slab_out, scratch = np.full(field.size, np.nan), np.full(field.size, np.nan)
        slab = scaled_eval(field, mats, (slab_out, scratch))
        assert slab.shape == (cols0.stop - cols0.start,) + rest
        assert np.shares_memory(slab, slab_out)
        got = (mat0 @ slab.reshape(slab.shape[0], -1)).reshape(dom.grid)
        assert np.abs(got - want).max() <= 1e-13, grid


# (bounds, grid, y): 3-node axes take the linear stencils; y on a corner
# puts every scaled point on one side of it
POINTWISE_CASES = {
    "9x8x3": ([[0, 1], [0, 2], [-1, 1]], [9, 8, 3], [0.3, 1.9, -0.4]),
    "13x10": ([[-0.5, 1.0], [0, 2]], [13, 10], [0.8, 0.4]),
    "3x9x3": ([[0, 1], [0, 2], [-1, 1]], [3, 9, 3], [0.5, 0.2, 0.1]),
    "3x3": ([[0, 1], [0, 1]], [3, 3], [0.25, 0.75]),
    "corner-9x7x5": ([[0, 1], [0, 2], [-1, 1]], [9, 7, 5], [1.0, 0.0, -1.0]),
    "corner-11x6": ([[-0.5, 1.0], [0, 2]], [11, 6], [-0.5, 2.0]),
    "9": ([[-1, 1]], [9], [0.3]),
}


@pytest.mark.parametrize("case", list(POINTWISE_CASES))
def test_K_y_matches_pointwise_quadrature(monkeypatch, case):
    # K_y is the Gauss-Legendre sum over t of
    # t^(k-1) sum_r (-1)^r f_I(t x + (1-t) y) (x_{i_r} - y_{i_r}),
    # here with f_I evaluated point by point at every grid point x: at 32
    # t-nodes in one block, and at 7 and 13 under budgets of a few of the
    # largest slabs, which split them into blocks of unequal sizes
    bounds, grid, y = POINTWISE_CASES[case]
    dom = box(bounds, grid)
    y = np.array(y, dtype=float)
    xs = np.stack([c.ravel() for c in dom.meshgrid()], axis=-1)
    slab_bytes = 8 * grid[0] * max(math.prod(grid[1:]), grid[0])
    rng = np.random.default_rng(13)
    for t_nodes, budget in ((32, None), (7, 3), (13, 5)):
        nodes, wts = homotopy.gauss01(t_nodes)
        if budget:
            monkeypatch.setattr(_interp, "STACK_BYTES", budget * slab_bytes)
            sizes = [b.stop - b.start for b in _interp.scaled_blocks(dom, nodes)[0]]
            assert len(sizes) > 1 and len(set(sizes)) > 1, sizes
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
            got = K_y(om, y, t_nodes=t_nodes)
            assert list(got.coeffs) == list(want)
            for jdx, ref in want.items():
                ref = ref.reshape(dom.grid)
                err = np.abs(got[jdx] - ref).max()
                assert err <= 1e-13 * np.abs(ref).max(), f"{t_nodes} nodes, k={k} {jdx}: {err:.3e}"


def test_K_y_builds_stencils_once_per_axis(monkeypatch):
    # one stencil build per axis for all t-nodes, shared by every
    # coefficient and every block of t-nodes: a 3-form (1 coefficient)
    # and a 2-form (3) in 3-D, in one block and, under a budget of three
    # of the largest slabs, in several
    calls = []
    build = _interp._axis_stencil

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(_interp, "_axis_stencil", counted)
    grid = [9, 8, 7]
    dom = box([[0, 1], [0, 1], [0, 1]], grid)
    slab_bytes = 8 * grid[0] * math.prod(grid[1:])
    rng = np.random.default_rng(3)
    for budget in (None, 3):
        if budget:
            monkeypatch.setattr(_interp, "STACK_BYTES", budget * slab_bytes)
        for k in (3, 2):
            om = random_form(dom, k, rng)
            for t_nodes in (4, 32):
                blocks = _interp.scaled_blocks(dom, _interp.gauss01(t_nodes)[0])[0]
                assert len(blocks) > 1 or not budget or t_nodes < 32, blocks
                calls.clear()
                K_y(om, [0.4, 0.5, 0.6], t_nodes=t_nodes)
                assert len(calls) == dom.dim, f"k={k} t_nodes={t_nodes} {len(blocks)} blocks"


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


@pytest.mark.parametrize("y", [[0.5, 0.5, 7.0], [0.5], [[0.5, 0.5]]])
def test_K_y_refuses_a_center_of_the_wrong_length(y):
    # y takes one coordinate per axis: the bounds check alone would read
    # only the first dim of them and drop the rest unread
    om = GridForm(box([[0, 1], [0, 1]], [9, 9]), 1)
    shape = re.escape(str(np.shape(y)))
    with pytest.raises(ValueError, match=rf"y has shape {shape}, the 2-D domain needs \(2,\)"):
        K_y(om, y)


@pytest.mark.parametrize(
    "axis, weight",
    [pytest.param(None, None, id="None")]
    + [pytest.param(a, "moment", id=str(a)) for a in range(3)]
    + [pytest.param(a, "lever", id=f"lever{a}") for a in range(3)]
    + [pytest.param(a, "moment2", id=f"second{a}") for a in range(3)],
)
@pytest.mark.parametrize("t", [0.03, 0.5, 0.97])
def test_box_integral_exact_on_multilinear(t, axis, weight):
    # the window integrals are exact for the piecewise-linear interpolant,
    # which reproduces a multilinear field: compare with the closed form
    # sum_e c_e prod_a int_{L_a}^{U_a} w_a(s) s^e_a ds, where w_a is 1,
    # or s (moment), s^2 (moment2) or x_a - s (lever) on the weighted axis,
    # each put together from the local moments r_n of (s - x_i)^n
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
        r0, r1, r2 = (_interp.window_stack(dom, a, *ends, n)[0] for n in (None, 1, 2))
        rows = {"moment": xs * r0 + r1, "moment2": xs**2 * r0 + 2.0 * xs * r1 + r2,
                "lever": (xs[:, None] - xs) * r0 - r1}
        mats.append(rows[weight] if a == axis else r0)
    # single-axis products in place (axis 0, the middle axis, the last)
    # and the rotating chain of apply_axes
    work = (np.empty(field.size), np.empty(field.size))
    in_place = field
    for a, mat in enumerate(mats):
        in_place = _box_integral(in_place, mat, a, work[a % 2])
    rotated = _interp.apply_axes(field, mats, (np.empty(field.size), np.empty(field.size)))

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
            elif weight == "moment2":
                term = term * power(a, n + 2)
            else:
                term = term * (mesh[a] * power(a, n) - power(a, n + 1))
        ref = ref + term
    for got in (in_place, rotated):
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
    monkeypatch.setattr(_interp, "_ROW_MEMO", {})  # cold: no rows from earlier tests
    dom = box([[0, 1], [0, 1], [0, 1]], [9, 8, 7])
    om = random_form(dom, 2, np.random.default_rng(3))
    for t_nodes in (4, 16):
        calls.clear()
        A_alpha(om, WeightProfile.constant(1.0), t_nodes=t_nodes)
        assert len(calls) == 2 * dom.dim, f"t_nodes={t_nodes}"


@pytest.mark.parametrize("grid", [(17, 12), (9, 8, 7)])
def test_blocked_K_y_and_A_alpha_match_one_block(monkeypatch, grid):
    # every stencil and window row is built on its own, so blocks of 3 of
    # the 16 t-nodes (6 blocks) give A_alpha what one block gives,
    # bitwise; K_y sums each block's t-nodes inside one product, so its
    # blocks change only the order of the sum
    dom = box([[0, 1], [-0.5, 1.5], [0.2, 0.9]][: len(grid)], grid)
    uniform = WeightProfile.constant(1.0 / dom.volume)
    y = [0.3, 0.7, 0.5][: len(grid)]
    rng = np.random.default_rng(17)
    oms = [random_form(dom, k, rng) for k in range(1, dom.dim + 1)]

    def run():
        return [(K_y(om, y, t_nodes=16), A_alpha(om, uniform, t_nodes=16)) for om in oms]

    assert len(_interp.scaled_blocks(dom, _interp.gauss01(16)[0])[0]) == 1
    whole = run()
    monkeypatch.setattr(_interp, "STACK_BYTES", 3 * 8 * max(grid) ** 2 + 7)
    assert len(_interp.node_blocks(16, 8 * max(grid) ** 2)) == 6
    assert len(_interp.scaled_blocks(dom, _interp.gauss01(16)[0])[0]) > 3
    for (got_K, got_A), (want_K, want_A) in zip(run(), whole):
        scale = want_K.max_abs()
        for idx, field in want_K.coeffs.items():
            assert np.abs(got_K[idx] - field).max() <= 1e-14 * scale, f"{got_K!r} {idx}"
        for idx, field in want_A.coeffs.items():
            assert np.array_equal(got_A[idx], field), f"{got_A!r} {idx}"


def test_stacked_builds_fit_budget_at_cli_maxima(monkeypatch):
    # at the CLI maxima (257^2, 256 t-nodes) K_y's stencil matrices, its
    # stacks of slabs and its side-by-side axis-0 matrices, and A_alpha's
    # window stacks, come in several blocks, no build above the budget,
    # and the window-row memo stays within MEMO_BYTES; K_y's taps, one
    # start and 4 weights per (t-node, grid point) and axis, come once per
    # axis and call, each within the budget too (about 2.6 MB); the
    # products are skipped, only the builds matter here
    taps, stencils, windows, stacks, leads = [], [], [], [], []
    taps_build, stencil_build = homotopy.scaled_taps, homotopy.scaled_axis_matrices
    window_build = _interp.window_matrix

    def taps_counted(*args):
        out = taps_build(*args)
        taps.append(sum(a.nbytes for a in out))
        return out

    def stencil_counted(*args):
        out = stencil_build(*args)
        stencils.append(out[0].nbytes)
        return out

    def window_counted(domain, ax, lower, upper, weight=None):
        windows.append(len(lower) * domain.grid[ax] * 8)
        return window_build(domain, ax, lower, upper, weight)

    def product_counted(field, mat, ax, out, rotate=False):
        stacks.append(field.nbytes)
        leads.append(mat.nbytes)
        return 0.0

    monkeypatch.setattr(homotopy, "scaled_taps", taps_counted)
    monkeypatch.setattr(homotopy, "scaled_axis_matrices", stencil_counted)
    monkeypatch.setattr(_interp, "window_matrix", window_counted)
    monkeypatch.setattr(homotopy, "scaled_eval", lambda field, mats, work: 0.0)
    monkeypatch.setattr(homotopy, "axis_product", product_counted)
    monkeypatch.setattr(homotopy, "_box_integral", lambda field, mat, ax, out, rotate=False: field)
    monkeypatch.setattr(_interp, "_ROW_MEMO", {})
    dom = box([[0, 1], [0, 1]], [257, 257])
    om = GridForm(dom, 1)
    K_y(om, [0.5, 0.5], t_nodes=256)
    A_alpha(om, WeightProfile.constant(1.0), t_nodes=256)
    assert len(stacks) == len(leads) == len(om.coeffs) * len(stencils) // dom.dim
    assert len(taps) == dom.dim and max(taps) <= _interp.STACK_BYTES
    for builds in (stencils, windows, stacks, leads):
        assert len(builds) > 2 * dom.dim
        assert max(builds) <= _interp.STACK_BYTES
    held = [a.nbytes for rows in _interp._ROW_MEMO.values() for a in rows]
    assert held and sum(held) <= _interp.MEMO_BYTES


def test_K_y_allocates_no_grid_sized_array_per_t_node():
    # one call's peak holds its output (also its scratch grid), its
    # t-integrals (one grid per coefficient), its taps and its block
    # buffers: the stack of slabs (one grid at least, the levers' scratch)
    # and the axis-0 matrices each fit max(grid, STACK_BYTES) and
    # STACK_BYTES, as do the matrices of each other axis
    # (scaled_blocks); the axis-0 matrices are filled in place, with no
    # build of their own to copy from.  The taps hold one int64 start and
    # 4 weights per t-node and grid point of each axis.  One more grid per
    # t-node would add 256 grids, about 73 MB, at 256 t-nodes
    import tracemalloc

    dom = box([[0, 1]] * 3, [33, 33, 33])
    grid_bytes = 8 * math.prod(dom.grid)
    block_bytes = max(grid_bytes, _interp.STACK_BYTES) + dom.dim * _interp.STACK_BYTES
    for t_nodes in (8, 256):
        taps_bytes = 5 * 8 * t_nodes * sum(dom.grid)
        for k in (1, 3):
            om = random_form(dom, k, np.random.default_rng(2))
            tracemalloc.start()
            try:
                out = K_y(om, [0.5, 0.5, 0.5], t_nodes=t_nodes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            grids = len(om.coeffs) + len(out.coeffs)
            bound = grids * grid_bytes + block_bytes + taps_bytes
            assert peak < bound, (t_nodes, k, peak / grid_bytes)


def test_concurrent_K_y_calls_equal_sequential_ones():
    # every call makes its own buffers, so calls on three threads at
    # once (more than the cores), switching often, give what the same
    # calls give one after another, bitwise
    import sys
    import threading

    rng = np.random.default_rng(23)
    cases = [(random_form(box([[0, 1]] * 3, [17, 15, 13]), k, rng), [0.4, 0.5, 0.6]) for k in (1, 2)]
    cases += [(random_form(box([[0, 1]] * 2, [41, 37]), 1, rng), [0.2, 0.9])]
    want = [K_y(om, y, t_nodes=24) for om, y in cases]
    got = {slot: [] for slot in range(3)}

    def work(slot):
        for n in range(3 * len(cases)):
            i = (n + slot) % len(cases)
            got[slot].append((i, K_y(*cases[i], t_nodes=24)))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for slot, outs in got.items():
        assert len(outs) == 3 * len(cases), slot
        for i, out in outs:
            for idx, field in want[i].coeffs.items():
                assert np.array_equal(out[idx], field), (slot, i, idx)


# single-axis products per t-node of the factored plan; term by term takes
# dim products for each of the C(dim, k) * k terms
FACTORED_PRODUCTS = {(1, 1): 1, (2, 1): 4, (2, 2): 4, (3, 1): 9, (3, 2): 12, (3, 3): 9}


@pytest.mark.parametrize("dim, k", sorted(FACTORED_PRODUCTS))
def test_A_alpha_computes_each_shared_product_once(monkeypatch, dim, k):
    axes = []
    product = homotopy._box_integral

    def counted(field, mat, ax, out, rotate=False):
        axes.append(ax)
        return product(field, mat, ax, out, rotate)

    monkeypatch.setattr(homotopy, "_box_integral", counted)
    dom = box([[0, 1], [0, 2], [0, 0.5]][:dim], [9, 8, 7][:dim])
    A_alpha(random_form(dom, k, np.random.default_rng(dim + k)), WeightProfile.constant(1.0 / dom.volume),
            t_nodes=4)
    assert len(axes) == 4 * FACTORED_PRODUCTS[dim, k]
    assert FACTORED_PRODUCTS[dim, k] <= math.comb(dim, k) * k * dim


def _term_by_term_A(om, alpha, t_nodes):
    # one box integral per (I, a in I), the lever rows on axis a scaled by
    # w_t t^(k-1) (1-t)^-(dim+1) and the plain rows elsewhere, alpha's level
    # kept inside axis 0's rows
    dom, k = om.domain, om.degree
    cuts, vals = _interp.linear_pieces(alpha, *dom.bounds[0])
    nodes, wts = _interp.gauss01(t_nodes)
    rows = [_interp.window_rows(dom, ax, nodes[:, None], *((cuts, vals) if ax == 0 else (ends, (1.0, 1.0))))
            for ax, ends in enumerate(dom.bounds)]
    pref = wts * nodes ** (k - 1) / (1.0 - nodes) ** (dom.dim + 1)
    work = (np.empty(np.prod(dom.grid)), np.empty(np.prod(dom.grid)))
    out = GridForm(dom, k - 1)
    for i in range(t_nodes):
        for idx, field in om.coeffs.items():
            for r, a in enumerate(idx):
                mats = [rows[ax][1][i] * pref[i] if ax == a else rows[ax][0][i] for ax in range(dom.dim)]
                out.coeffs[idx[:r] + idx[r + 1 :]] += (-1) ** r * _interp.apply_axes(field, mats, work)
    return out


@pytest.mark.parametrize("alpha", ["constant", "sloped"])
@pytest.mark.parametrize("bounds, grid", [([[-0.3, 1.1], [0.2, 2.0]], (17, 13)),
                                          ([[-0.3, 1.1], [0.2, 2.0], [0.5, 1.0]], (13, 9, 7))],
                         ids=["2d", "3d"])
def test_factored_A_alpha_matches_term_by_term(bounds, grid, alpha):
    dom = box(bounds, grid)
    rng = np.random.default_rng(len(grid))
    if alpha == "constant":
        weight = WeightProfile.constant(1.0 / dom.volume)
    else:
        weight = _unit_sampled_t(dom, [-0.3, 0.1, 0.6, 1.1], [0.5, 2.0, 0.8, 1.6])
    for k in range(1, dom.dim + 1):
        om = random_form(dom, k, rng)
        got = A_alpha(om, weight, t_nodes=16)
        want = _term_by_term_A(om, weight, 16)
        scale = want.max_abs()
        for idx, field in want.coeffs.items():
            assert np.abs(got[idx] - field).max() <= 1e-13 * scale, (k, idx)


def test_second_A_alpha_call_on_a_chart_builds_no_window_rows(monkeypatch):
    # the memoised rows hold no factor of the degree or the volume: another
    # degree on the same chart builds nothing, and a chart that changes one
    # axis builds that axis's plain and lever rows only
    calls = []
    build = _interp.window_matrix

    def counted(domain, ax, *args, **kwargs):
        calls.append(domain.bounds[ax])
        return build(domain, ax, *args, **kwargs)

    monkeypatch.setattr(_interp, "window_matrix", counted)
    monkeypatch.setattr(_interp, "_ROW_MEMO", {})
    dom = box([[0, 1], [0, 0.5625], [0, 0.5625]], [17, 9, 9])
    rng = np.random.default_rng(5)
    A_alpha(random_form(dom, 2, rng), WeightProfile.constant(1.0 / dom.volume))
    assert len(calls) == 4  # axes 1 and 2 are the same axis
    calls.clear()
    A_alpha(random_form(dom, 1, rng), WeightProfile.constant(1.0 / dom.volume))
    A_alpha(random_form(dom, 3, rng), WeightProfile.constant(1.0 / dom.volume))
    assert calls == []
    thin = box([[0, 1], [0, 0.5625], [0.5, 0.5625]], [17, 9, 3])
    A_alpha(random_form(thin, 1, rng), WeightProfile.constant(1.0 / thin.volume))
    assert calls == [(0.5, 0.5625)] * 2


def test_fixed_rules_are_read_only_and_match_fresh_builds():
    x, w = _interp.TANH_SINH
    for arr, ref in zip((x, w), _interp.tanh_sinh01(1.0 / 16.0, 60), strict=True):
        assert arr.flags.writeable is False
        assert np.array_equal(arr, ref)
    # symmetric on (0, 1), its nodes next to 0 kept to full relative precision
    assert np.allclose(x + x[::-1], 1.0, rtol=0.0, atol=2.3e-16)
    assert np.allclose(w, w[::-1], rtol=1e-15, atol=0.0)
    assert 0.0 < x[0] < 1e-28 and w.sum() == pytest.approx(1.0, rel=1e-15)


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
    # A_alpha dx1 = x1 - m1 with m1 the alpha-average of y1: for
    # alpha = 1 + a (y1 - 1/2) on the unit square, m1 = 1/2 + a/12
    dom = box([[0, 1], [0, 1]], [17, 17])
    a = 0.8
    knots = np.linspace(0.0, 1.0, 9)
    alpha = WeightProfile.sampled_t(knots, 1.0 + a * (knots - 0.5))
    om = GridForm(dom, 1, {(0,): 1.0})
    prim = A_alpha(om, alpha)
    x1 = dom.meshgrid()[0]
    assert np.abs(prim[()] - (x1 - 0.5 - a / 12.0)).max() <= 1e-12


def _multilinear_form(dom, k, rng):
    mesh = dom.meshgrid()
    om = GridForm(dom, k)
    for idx in increasing_indices(dom.dim, k):
        om.coeffs[idx] = sum(
            rng.standard_normal() * np.prod([mesh[a] ** e[a] for a in range(dom.dim)], axis=0)
            for e in itertools.product(range(2), repeat=dom.dim)
        ) * np.ones(dom.grid)
    return om


def _unit_sampled_t(dom, knots, values):
    # scaled to unit mass by the integral of the interpolant, clamped ends
    # included, on its own breakpoints
    lo, hi = dom.bounds[0]
    u = np.array(sorted({lo, hi} | {c for c in knots if lo < c < hi}))
    a = np.interp(u, knots, values)
    mass = dom.volume / (hi - lo) * float(np.sum(np.diff(u) * (a[1:] + a[:-1]) / 2.0))
    return WeightProfile.sampled_t(knots, np.asarray(values) / mass)


@pytest.mark.parametrize("knots", [[0.05, 0.37, 0.61, 0.9], [-1.0, 0.2, 0.5, 3.0], None],
                         ids=["clamped", "beyond", "constant"])
@pytest.mark.parametrize("bounds, grid, k", [
    pytest.param([[-0.3, 1.1], [0.2, 2.0]], (17, 13), k, id=f"2d-k{k}") for k in (1, 2)
] + [
    pytest.param([[-0.3, 1.1], [0.2, 2.0], [0.5, 1.0]], (9, 7, 5), k, id=f"3d-k{k}")
    for k in (1, 2, 3)
])
def test_A_alpha_matches_gauss_oracle(bounds, grid, k, knots):
    # off-grid knots inside the axis (clamped ends) or past both ends: the
    # window path matches K_y summed at Gauss centers, exactly up to rounding
    dom = box(bounds, grid)
    rng = np.random.default_rng(len(grid) * 10 + k)
    if knots is None:
        alpha = WeightProfile.constant(1.0 / dom.volume)
    else:
        alpha = _unit_sampled_t(dom, knots, rng.uniform(0.5, 2.0, len(knots)))
    om = _multilinear_form(dom, k, rng)
    got = A_alpha(om, alpha, t_nodes=16)
    want = gauss_averaged_K(om, alpha, 16)
    scale = max(np.abs(f).max() for f in want.coeffs.values())
    for idx, f in want.coeffs.items():
        assert np.abs(got[idx] - f).max() <= 1e-10 * scale, idx


def test_sloped_A_alpha_matches_gauss_oracle_near_t_1():
    # 9 random knots: each piece's slope reaches the rows as slope/(1-t),
    # largest at the t-nodes next to 1, where the windows are narrowest.
    # Rows built from local cell terms keep A_alpha at the oracle to 1e-12
    # at 256 t-nodes; running sums from the axis end missed by 5.0e-7
    dom = box([[-0.3, 1.1], [0.2, 2.0], [0.5, 1.0]], (9, 7, 5))
    rng = np.random.default_rng(28)
    alpha = _unit_sampled_t(dom, np.sort(rng.uniform(-0.3, 1.1, 9)), rng.uniform(0.5, 2.0, 9))
    om = _multilinear_form(dom, 2, rng)
    got = A_alpha(om, alpha, t_nodes=256)
    want = gauss_averaged_K(om, alpha, 256)
    scale = max(np.abs(f).max() for f in want.coeffs.values())
    for idx, f in want.coeffs.items():
        assert np.abs(got[idx] - f).max() <= 1e-12 * scale, idx


def test_piecewise_linear_alpha_mass_is_exact():
    # knots [0, 0.3, 1] off the 33-node grid: the exact mass is 1, where
    # trapezoids on the domain grid or a y-grid read below it
    dom = box([[0, 1], [0, 1]], [33, 33])
    alpha = WeightProfile.sampled_t([0.0, 0.3, 1.0], [0.5, 1.5, 0.5])
    res = check_admissible_weight(alpha, dom, 2.0)
    assert res["admissible"] and abs(res["mass"] - 1.0) <= 1e-15
    A_alpha(GridForm(dom, 1, {(0,): 1.0}), alpha, t_nodes=4)
    with pytest.raises(ValueError, match="not unit mass"):
        A_alpha(GridForm(dom, 1, {(0,): 1.0}), WeightProfile.constant(0.5), t_nodes=4)


@pytest.mark.parametrize("m", [9, 33])
def test_powerlaw_alpha_pivoting_past_the_edge_has_exact_mass(m):
    # (1.5625 - t)^(-1/2) has mass 2 (1.25 - 0.75) = 1 on the unit square,
    # where the grid trapezoid reads 1.00121 on 9^2 and 1.00008 on 33^2
    res = check_admissible_weight(WeightProfile.powerlaw(0.5, 1.5625), box([[0, 1], [0, 1]], [m, m]), 2.0)
    assert abs(res["mass"] - 1.0) <= 1e-12
    assert res["admissible"], res["violations"]


def test_t_only_alpha_norms_are_exact():
    # alpha's norms take beta's t-rule.  On a 9^2 box the grid trapezoid
    # read ||alpha||_2 = (13/12)^(1/2) of this profile 6.7e-3 low, its sup
    # as 1.39 (the largest grid sample: the peak at t = 0.3 lies between
    # nodes), and the law's norm, ln(1.5625/0.5625)^(1/2), 1.7e-3 high
    dom = box([[0, 1], [0, 1]], [9, 9])
    alpha = WeightProfile.sampled_t([0.0, 0.3, 1.0], [0.5, 1.5, 0.5])
    res = check_admissible_weight(alpha, dom, 2.0)
    assert res["admissible"] and abs(res["alpha_norm"] - 1.040832999733066) <= 1e-13
    assert check_admissible_weight(alpha, dom, 1)["alpha_norm"] == 1.5
    law = check_admissible_weight(WeightProfile.powerlaw(0.5, 1.5625), dom, 2.0)
    assert abs(law["alpha_norm"] - math.log(1.5625 / 0.5625) ** 0.5) <= 1e-13


@pytest.mark.parametrize("alpha", [WeightProfile.sampled(np.ones((9, 9))),
                                   WeightProfile.powerlaw(0.5, 1.5625)],
                         ids=["sampled", "powerlaw"])
def test_A_alpha_refuses_other_weight_kinds(alpha):
    # both have unit mass on the unit square (the power law exactly), and
    # neither is a piecewise-linear function of t
    dom = box([[0, 1], [0, 1]], [9, 9])
    with pytest.raises(ValueError, match="constant or sampled-t centering weight"):
        A_alpha(GridForm(dom, 1, {(0,): 1.0}), alpha)


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
