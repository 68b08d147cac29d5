import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylcoh import WeightProfile, box, check_admissible_weight, cylinder
from cylcoh._interp import powerlaw_mass
from cylcoh.vanishing import _fit_tail_law


def test_constant_profile():
    w = WeightProfile.constant(2.5)
    assert np.allclose(w.eval_t(np.linspace(0, 1, 5)), 2.5)
    assert w.t_only


def test_powerlaw_eval():
    w = WeightProfile.powerlaw(2.0, 1.0)
    ts = np.array([0.0, 0.5, 0.75])
    assert np.allclose(w.eval_t(ts), (1.0 - ts) ** -2)


def test_powerlaw_at_its_pivot_is_refused_only_when_singular():
    # (1-t)^(1/2) is bounded at its pivot: alpha = that law has finite norms
    # on the unit square, its |y| moment sampled at the pivot node
    dom = box([[0, 1], [0, 1]], [9, 9])
    adm = check_admissible_weight(WeightProfile.powerlaw(-0.5, 1.0), dom, 2)
    assert adm["mass"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert adm["alpha_norm"] == pytest.approx(0.5**0.5, rel=1e-12)
    assert math.isfinite(adm["moment_norm"])
    assert list(WeightProfile.powerlaw(0.0, 1.0).eval_t([0.5, 1.0])) == [1.0, 1.0]
    for lam, t in ((0.5, 1.0), (-0.5, 1.5), (0.0, 1.5)):
        with pytest.raises(ValueError, match="past its pivot, or at a singular one"):
            WeightProfile.powerlaw(lam, 1.0).eval_t([0.0, t])


def test_sampled_t_interpolates():
    w = WeightProfile.sampled_t([0.0, 1.0], [1.0, 3.0])
    assert w.eval_t(np.array([0.5]))[0] == pytest.approx(2.0)


def test_sample_on_broadcasts():
    dom = cylinder([0, 1], [[0, 1]], [5, 8])
    w = WeightProfile.powerlaw(1.0, 2.0)
    field = w.sample_on(dom)
    assert field.shape == dom.grid
    ts = dom.axis_coords(0)
    assert np.allclose(field[:, 2], (2.0 - ts) ** -1)


def test_positivity_enforced():
    with pytest.raises(ValueError):
        WeightProfile.constant(-1.0)
    with pytest.raises(ValueError):
        WeightProfile.sampled_t([0, 1], [1.0, 0.0])


def test_sampled_t_needs_increasing_t():
    # np.interp reads its nodes in increasing order only
    for t in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            WeightProfile.sampled_t(t, [1.0, 2.0, 3.0])


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3, allow_nan=False), st.floats(0.25, 4))
def test_pow_exponent_arithmetic(lam, e):
    w = WeightProfile.powerlaw(lam, 1.5) ** e
    assert w.kind == "powerlaw"
    assert w.lam == pytest.approx(lam * e)
    assert w.pivot == 1.5


def test_powerlaw_mass_trichotomy():
    # (1-t)^(-lam u) integrable on [0,1) iff lam*u < 1
    lam = 2.0
    assert math.isfinite(powerlaw_mass(lam * 0.49, 1.0, 0.0, 1.0))
    assert powerlaw_mass(lam * 0.5, 1.0, 0.0, 1.0) == math.inf
    assert powerlaw_mass(lam * 1.0, 1.0, 0.0, 1.0) == math.inf
    # pivot beyond the interval: always finite
    assert math.isfinite(powerlaw_mass(lam * 10.0, 2.0, 0.0, 1.0))


def test_roundtrip():
    for w in (
        WeightProfile.constant(1.0),
        WeightProfile.powerlaw(0.5, 1.0),
        WeightProfile.sampled_t([0, 0.5, 1], [1, 2, 1]),
    ):
        back = WeightProfile.from_dict(w.to_dict())
        assert back.kind == w.kind
        ts = np.linspace(0, 0.9, 7)
        assert np.allclose(back.eval_t(ts), w.eval_t(ts))


def test_full_grid_sampled():
    dom = box([[0, 1], [0, 1]], [5, 5])
    vals = np.ones(dom.grid) + 0.1
    w = WeightProfile.sampled(vals)
    assert not w.t_only
    assert np.allclose(w.sample_on(dom), vals)
    with pytest.raises(ValueError):
        w.sample_on(box([[0, 1], [0, 1]], [7, 7]))


def _profiles_with_arrays():
    """(profile, caller's arrays) for every constructor that stores arrays."""
    ts, vals = np.linspace(0.0, 0.9, 16), np.linspace(1.0, 2.0, 16)
    grid = np.full((5, 5), 1.5)
    out = [(WeightProfile.sampled_t(ts, vals), (ts, vals)),
           (WeightProfile.sampled(grid), (grid,))]
    out += [(prof**2.0, arrays) for prof, arrays in out]
    out += [(WeightProfile.from_dict(prof.to_dict()), arrays) for prof, arrays in out]
    return out


def test_profile_arrays_are_read_only():
    for prof, arrays in _profiles_with_arrays():
        for arr in (prof.samples, prof.tcoords):
            if arr is None:
                continue
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7.0
        for arr in arrays:
            assert arr.flags.writeable
    # sample_on hands out the grid itself, read-only, not a writable alias
    field = WeightProfile.sampled(np.full((5, 5), 1.5)).sample_on(box([[0, 1], [0, 1]], [5, 5]))
    with pytest.raises(ValueError, match="read-only"):
        field[0, 0] = 7.0


def test_profile_attributes_cannot_be_reassigned():
    w = WeightProfile.powerlaw(2.0, 1.0)
    with pytest.raises(AttributeError, match="immutable"):
        w.lam = 3.0
    assert w.lam == 2.0


def test_caller_mutation_leaves_sampled_t_fit_unchanged():
    ts = np.linspace(0.0, 1.0, 129)[:-1]
    vals = (1.0 - ts) ** -2.0
    w = WeightProfile.sampled_t(ts, vals)
    before = _fit_tail_law(w, 0.0, 1.0)
    ts[-5:] *= 0.5
    vals[:] = 1.0
    assert _fit_tail_law(w, 0.0, 1.0) == before
