import numpy as np
import pytest

from cylcoh import DomainSpec, WeightProfile, box, cylinder


def test_box_basics():
    dom = box([[0, 1], [0, 2]], [5, 9])
    assert dom.dim == 2
    assert dom.kind == "box"
    assert dom.periodic == (False, False)
    assert dom.spacing(0) == pytest.approx(0.25)
    assert dom.spacing(1) == pytest.approx(0.25)
    assert dom.volume == pytest.approx(2.0)
    xs = dom.axis_coords(1)
    assert xs[0] == 0.0 and xs[-1] == 2.0 and len(xs) == 9


def test_cylinder_axis_sampling():
    # t-axis closed (keeps the endpoint), fiber half-open (wraps)
    dom = cylinder([0, 1], [[0, 1]], [5, 8])
    ts = dom.axis_coords(0)
    th = dom.axis_coords(1)
    assert ts[-1] == pytest.approx(1.0)
    assert th[-1] == pytest.approx(1.0 - 1.0 / 8)
    assert dom.periodic == (False, True)


def test_quadrature_constant():
    for dom in (box([[0, 1], [0, 3]], [7, 11]), cylinder([0, 2], [[0, 1]], [9, 16])):
        assert dom.integrate(np.ones(dom.grid)) == pytest.approx(dom.volume)


def test_quadrature_polynomial_exact():
    # trapezoid is exact for linear integrands
    dom = box([[0, 1], [0, 1]], [6, 9])
    x, y = dom.meshgrid()
    assert dom.integrate(2.0 * x + y) == pytest.approx(1.5)


def test_norm_closed_forms():
    # p = 1 against a constant weight: the trapezoid is exact on a
    # density linear in each axis, 3 * int (1 + x + 2y + xy) = 3 * 8 = 24
    dom = box([[0, 1], [0, 2]], [6, 9])
    x, y = dom.meshgrid()
    assert dom.norm(1.0 + x + 2.0 * y + x * y, 1, WeightProfile.constant(3.0)) == pytest.approx(
        24.0, rel=1e-14)
    # p = inf against the sampled-t weight 2 - t: (1 + t)(2 - t) peaks at
    # t = 1/2, a node, with 9/4; the fiber factor peaks at 1
    cyl = cylinder([0, 1], [[0, 1]], [9, 8])
    t, th = cyl.meshgrid()
    weight = WeightProfile.sampled_t([0.0, 1.0], [2.0, 1.0])
    assert cyl.norm((1.0 + t) * np.cos(np.pi * th) ** 2, np.inf, weight) == 2.25


def test_periodic_quadrature_trig_exact():
    dom = cylinder([0, 1], [[0, 1]], [5, 32])
    _, th = dom.meshgrid()
    # uniform weights over a full period integrate sin exactly
    assert dom.integrate(np.sin(2 * np.pi * th)) == pytest.approx(0.0, abs=1e-14)


def test_with_grid_and_roundtrip():
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [5, 16, 16])
    fine = dom.with_grid((9, 32, 32))
    assert fine.kind == dom.kind
    assert fine.bounds == dom.bounds
    assert fine.periodic == dom.periodic
    back = DomainSpec.from_dict(dom.to_dict())
    assert back == dom


def test_sample_matches_meshgrid():
    dom = box([[0, 1], [-1, 1]], [5, 7])
    f = dom.sample(lambda x, y: x * y + 1.0)
    x, y = dom.meshgrid()
    assert np.allclose(f, x * y + 1.0)


def test_invalid_grids():
    with pytest.raises(ValueError):
        box([[0, 1]], [2])
    with pytest.raises(ValueError):
        DomainSpec("cylinder", [[0, 1], [0, 1]], [5, 8], periodic=[True, True])
