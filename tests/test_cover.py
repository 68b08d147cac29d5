"""Good covers of periodic fibers, their components, and partitions of unity."""

import re

import numpy as np
import pytest

from cylcoh import circle_cover, cylinder, torus_cover
from cylcoh.cover import GoodCover, PartitionOfUnity
from cylcoh.domain import DomainSpec
from oracles import run_index, take


def test_circle_cover_three_arcs():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    assert len(cov) == 3
    r = 32 // 16
    assert cov.axis_arcs[1] == [(0, 6 * r + 1), (5 * r, 6 * r + 1), (10 * r, 7 * r + 1)]
    # every patch spans the t axis fully
    for i in range(3):
        assert cov.patch_runs(i)[0] == (0, 9)


def test_circle_cover_nerve():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    # pairwise overlaps are single short runs, one of them through the seam
    assert cov.components((0, 1)) == [((0, 9), (10, 3))]
    assert cov.components((1, 2)) == [((0, 9), (20, 3))]
    assert cov.components((0, 2)) == [((0, 9), (0, 3))]
    # empty triple intersection is what makes the cover good
    assert cov.components((0, 1, 2)) == []


def test_component_domain_unrolls_seam():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    comp = cov.components((2,))[0]
    chart = cov.component_domain(comp)
    assert chart.kind == "box"
    assert chart.grid == (9, 15)
    lo, hi = chart.bounds[1]
    # arc 2 starts at node 20 and runs past the seam to node 34
    assert lo == pytest.approx(20 / 32)
    assert hi == pytest.approx(34 / 32)


def test_torus_cover_components():
    dom = cylinder([0, 1], [[0, 1], [0, 1]], [5, 32, 32])
    cov = torus_cover(dom)
    assert len(cov) == 4
    # patches 0 and 1 share the full first arc but meet in two runs on the
    # second axis, so their intersection has two components
    comps = cov.components((0, 1))
    assert len(comps) == 2
    seconds = sorted(c[2] for c in comps)
    assert seconds == [(0, 3), (16, 3)]
    # the quadruple overlap splits into a 2x2 grid of small squares
    assert len(cov.components((0, 1, 2, 3))) == 4


def test_index_between_broadcast():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    assert cov.full == ((0, 9), (0, 32))
    assert cov.components(()) == [cov.full]
    assert cov.component_domain(cov.full) is dom
    comp = cov.components((0, 1))[0]
    full = np.arange(9 * 32, dtype=float).reshape(9, 32)
    sub = take(full, cov.index_between(cov.full, comp))
    assert sub.shape == (9, 3)
    assert np.array_equal(sub[:, 0], full[:, 10])
    # arc 2 runs through the seam: its run splits into two slices
    arc = cov.components((2,))[0]
    pieces = cov.index_between(cov.full, arc)
    assert pieces == (((slice(0, 9), slice(0, 12)), (slice(0, 9), slice(20, 32))),
                      ((slice(0, 9), slice(12, 15)), (slice(0, 9), slice(0, 3))))
    wrapped = take(full, pieces)
    assert np.array_equal(wrapped[0], full[0, np.r_[20:32, 0:3]])
    # size-1 axes stay size 1 so partition fields keep broadcasting
    rho = np.ones((1, 32))
    assert take(rho, cov.index_between(cov.full, comp, rho.shape)).shape == (1, 3)


def test_index_between_containment():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    par = cov.components((2,))[0]
    child = cov.components((1, 2))[0]
    (dst, (rows, cols)), = cov.index_between(par, child)
    assert dst == (slice(0, 9), slice(0, 3))
    assert np.array_equal(np.arange(9)[rows], np.arange(9))
    assert np.array_equal(np.arange(15)[cols], np.arange(3))

    other = cov.components((0,))[0]
    with pytest.raises(ValueError, match="not contained"):
        cov.index_between(child, other)


@pytest.mark.parametrize("make, grid, counts", [
    (circle_cover, [9, 32], [1, 3, 3, 0]),
    (torus_cover, [5, 32, 32], [1, 4, 16, 16, 4]),
])
def test_cell_table(make, grid, counts):
    dom = cylinder([0, 1], [[0, 1]] * (len(grid) - 1), grid)
    cov = make(dom)
    assert [len(cov.cells(d)) for d in range(len(cov) + 1)] == counts
    assert cov.cells(len(cov) + 1) == ()
    (key, chart, faces, _), = cov.cells(0)
    assert key == ((), cov.full) and chart is dom and faces == ()
    rho_shape = tuple(m if per else 1 for m, per in zip(dom.grid, dom.periodic))
    rng = np.random.default_rng(0)
    full, rho = rng.standard_normal(dom.grid), rng.standard_normal(rho_shape)
    for d in range(1, len(cov) + 1):
        for (J, comp), chart, faces, rho_index in cov.cells(d):
            assert chart == cov.component_domain(comp)
            # every node of the component comes from one block, the node
            # the wrapped run names
            want = rho[run_index(cov, cov.full, comp, rho_shape)]
            assert np.array_equal(take(rho, rho_index), want)
            assert len(faces) == d
            for r, (sign, patch, (sub, parent), pieces) in enumerate(faces):
                assert (sign, patch, sub) == ((-1) ** r, J[r], J[:r] + J[r + 1 :])
                accepted = []
                for cand in cov.components(sub):
                    try:
                        cov.index_between(cand, comp)
                    except ValueError:
                        continue
                    accepted.append(cand)
                assert accepted == [parent]
                on_parent = take(full, cov.index_between(cov.full, parent))
                want = full[run_index(cov, cov.full, comp)]
                assert np.array_equal(take(on_parent, pieces), want)


@pytest.mark.parametrize("make, fiber_axes", [(circle_cover, 1), (torus_cover, 2)])
def test_covers_refuse_a_16_node_axis(make, fiber_axes):
    # the standard arcs overlap in 2 nodes at 16 per axis, too few for a box chart
    with pytest.raises(ValueError, match="refine the grid"):
        make(cylinder([0, 1], [[0, 1]] * fiber_axes, [9] + [16] * fiber_axes))
    make(cylinder([0, 1], [[0, 1]] * fiber_axes, [9] + [32] * fiber_axes))


def test_partition_of_unity():
    for dom, make in [
        (cylinder([0, 1], [[0, 1]], [9, 32]), circle_cover),
        (cylinder([0, 1], [[0, 1], [0, 1]], [5, 32, 32]), torus_cover),
    ]:
        cov = make(dom)
        pou = cov.partition_of_unity()
        assert pou.validate()
        total = sum(pou.fields)
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        for f in pou.fields:
            assert f.min() >= 0.0
            assert f.shape[0] == 1, "bumps must broadcast along t"


@pytest.mark.parametrize("ax", [1, 2])
def test_partition_refuses_a_bump_leaking_off_its_arc(ax):
    # each bump is a product of per-axis profiles: one profile nonzero at a
    # node off its arc, on one periodic axis, leaks the bump there
    cov = torus_cover(cylinder([0, 1], [[0, 1], [0, 1]], [5, 32, 32]))
    profiles = [list(prof) for prof in cov.partition_of_unity().profiles]
    s, c = cov.patch_runs(0)[ax]
    leaky = profiles[0][ax].copy()
    leaky[(s + c) % 32] = 1e-3
    profiles[0][ax] = leaky
    with pytest.raises(ValueError, match=f"bump 0 leaks outside its patch on axis {ax}"):
        PartitionOfUnity(cov, profiles).validate()


def test_bumps_vanish_at_arc_endpoints():
    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    cov = circle_cover(dom)
    pou = cov.partition_of_unity()
    for i in range(len(cov)):
        s, c = cov.patch_runs(i)[1]
        prof = pou.fields[i][0]
        assert prof[s % 32] == 0.0
        assert prof[(s + c - 1) % 32] == 0.0


def test_cover_validation():
    dom = cylinder([0, 1], [[0, 1]], [9, 30])
    with pytest.raises(ValueError, match="multiple of 16"):
        circle_cover(dom)

    dom = cylinder([0, 1], [[0, 1]], [9, 32])
    with pytest.raises(ValueError, match="at least two cells"):
        GoodCover(dom, [None, [(0, 2), (1, 31)]])
    with pytest.raises(ValueError, match="do not cover"):
        GoodCover(dom, [None, [(0, 8), (8, 8)]])
    with pytest.raises(ValueError, match="not the whole axis"):
        GoodCover(dom, [None, [(0, 32), (30, 4)]])
    with pytest.raises(ValueError, match="not periodic"):
        GoodCover(dom, [[(0, 5)], [(0, 20), (16, 20)]])
    box_dom = DomainSpec("cylinder", [[0, 1], [0, 1]], [9, 32])
    with pytest.raises(ValueError, match="one periodic axis"):
        circle_cover(box_dom)
    with pytest.raises(ValueError, match="two periodic axes"):
        torus_cover(dom)


def _tampered(change):
    """The circle cover's partition of unity after change(cover, profiles,
    fields) has edited its lists."""
    cov = circle_cover(cylinder([0, 1], [[0, 1]], [9, 32]))
    pou = cov.partition_of_unity()
    profiles, fields = [list(prof) for prof in pou.profiles], list(pou.fields)
    change(cov, profiles, fields)
    out = PartitionOfUnity(cov, profiles)
    out.fields = fields
    return out


def _off_arc(value):
    """A change that sets patch 0's profile to value at the node just past
    its arc, where the other patches cover the fiber."""
    def change(cov, profiles, fields):
        s, c = cov.patch_runs(0)[1]
        profiles[0][1] = profiles[0][1].copy()
        profiles[0][1][(s + c) % 32] = value
    return change


def _doubled(cov, profiles, fields):
    fields[0] = 2.0 * fields[0]


@pytest.mark.parametrize("call, message", [
    (lambda: GoodCover(cylinder([0, 1], [[0, 1]], [9, 32]), [None]), "need one arc list per axis"),
    (lambda: GoodCover(cylinder([0, 1], [[0, 1]], [9, 32]), [None, []]), "periodic axis 1 needs arcs"),
    (lambda: GoodCover(cylinder([0, 1], [[0, 1]], [9, 32]), [None, [(0, 2), (1, 31)]]),
     "arc must span at least two cells and not the whole axis"),
    (lambda: GoodCover(cylinder([0, 1], [[0, 1]], [9, 32]), [None, [(0, 8), (8, 8)]]),
     "arc interiors do not cover axis 1"),
    (lambda: PartitionOfUnity(circle_cover(cylinder([0, 1], [[0, 1]], [9, 32])),
                              [[None, np.zeros(32)]] * 3),
     "cover bumps leave part of the fiber uncovered"),
    (lambda: _tampered(_doubled).validate(), "partition does not sum to 1"),
    (lambda: _tampered(_off_arc(-1e-9)).validate(), "negative bump value"),
    (lambda: _tampered(_off_arc(1e-9)).validate(), "bump 0 leaks outside its patch on axis 1"),
], ids=["arc-lists", "no-arcs", "short-arc", "gap", "uncovered", "sum", "sign", "leak"])
def test_cover_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
