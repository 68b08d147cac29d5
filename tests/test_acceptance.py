"""End-to-end acceptance checks, one scorecard line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Each criterion measures actual library output against a
pinned tolerance and a wall-clock budget; nothing here is mocked or
seeded to a known-good answer beyond fixing the RNG streams.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from cylcoh import (
    GridForm,
    WeightProfile,
    box,
    cylinder,
    exterior_derivative,
    lp_norm,
)
from cylcoh.cech import glue_primitive
from cylcoh.cli import main
from cylcoh.constants import (
    C_integral,
    ConstantRequest,
    corollary_box_bound,
    cylinder_constant,
)
from cylcoh.cover import circle_cover, torus_cover
from cylcoh.forms import draw_form_params, sample_form
from cylcoh.homotopy import A_alpha, K_y
from cylcoh.vanishing import (
    AdmissibleRegion,
    CriterionInput,
    criterion_check,
    powerlaw_exponents,
)


def _line(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


def _identity_residual(dom, degree, params, t_nodes=32):
    om = sample_form(dom, degree, params)
    y = np.array([0.5 * (lo + hi) for lo, hi in dom.bounds])
    dK = exterior_derivative(K_y(om, y, t_nodes=t_nodes))
    if degree == dom.dim:
        return (dK - om).max_abs()
    Kd = K_y(exterior_derivative(om), y, t_nodes=t_nodes)
    return (Kd + dK - om).max_abs()


def test_criterion_1_homotopy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    # 20 forms per degree, split across the two boxes carrying that
    # degree; only the 3-cube has 3-forms
    counts = {(2, 1): 10, (2, 2): 10, (3, 1): 10, (3, 2): 10, (3, 3): 20}
    for (dim, k), cnt in counts.items():
        dom = box([[0.0, 1.0]] * dim, (65,) * dim)
        for _ in range(cnt):
            params = draw_form_params(dim, k, rng, 3e-5)
            worst = max(worst, _identity_residual(dom, k, params))

    # same forms resampled on a refinement ladder; the multilinear part
    # is exact, so the trig part should show second order
    ladders = {2: (33, 65, 129), 3: (17, 33, 65)}
    orders = {}
    for dim, grids in ladders.items():
        hs = [1.0 / (m - 1) for m in grids]
        for k in range(1, dim + 1):
            res = np.zeros(len(grids))
            for _ in range(2):
                params = draw_form_params(dim, k, rng, 1e-2)
                for gi, m in enumerate(grids):
                    dom = box([[0.0, 1.0]] * dim, (m,) * dim)
                    res[gi] += _identity_residual(dom, k, params)
            slope = np.polyfit(np.log(hs), np.log(res / 2.0), 1)[0]
            orders[(dim, k)] = slope

    dt = time.perf_counter() - t0
    min_order = min(orders.values())
    ok = worst <= 1e-6 and min_order >= 1.9 and dt <= 60.0
    detail = f"max residual {worst:.3e}, min order {min_order:.2f}, {dt:.1f}s"
    assert _line(1, "homotopy identity", ok, detail), detail


def test_criterion_2_averaged_identity_and_bound():
    t0 = time.perf_counter()
    dom = box([[0.0, 1.0]] * 2, (33, 33))
    alpha = WeightProfile.constant(1.0)
    flat = WeightProfile.constant(1.0)
    pairs = [(1.0, 1.0), (2.0, 2.0), (2.0, 2.4)]

    consts = {}
    for k in (1, 2):
        for p, q in pairs:
            out = cylinder_constant(
                ConstantRequest(k, p, q, dom, n=2, beta=flat, alpha=alpha)
            )
            assert out["hypothesis_failures"] == [], f"gate failed at k={k} ({p},{q})"
            consts[(k, p, q)] = out["C"]

    rng = np.random.default_rng(21)
    worst_res = 0.0
    worst_frac = 0.0
    for k in (1, 2):
        for _ in range(10):
            eta = sample_form(dom, k - 1, draw_form_params(2, k - 1, rng, 2e-5))
            om = exterior_derivative(eta)
            prim = A_alpha(om, alpha, t_nodes=16)
            worst_res = max(worst_res, (exterior_derivative(prim) - om).max_abs())
            for p, q in pairs:
                ratio = lp_norm(prim, q) / lp_norm(om, p)
                worst_frac = max(worst_frac, ratio / consts[(k, p, q)])

    dt = time.perf_counter() - t0
    ok = worst_res <= 1e-5 and worst_frac <= 1.0 and dt <= 120.0
    detail = f"max residual {worst_res:.3e}, max ratio/C {worst_frac:.3f}, {dt:.1f}s"
    assert _line(2, "averaged primitive bound", ok, detail), detail


def test_criterion_3_constant_finiteness():
    t0 = time.perf_counter()
    cases = [
        (1, 1, 2.0, 2.0),
        (1, 1, 1.0, 2.0),
        (2, 1, 1.0, 2.0),
        (2, 1, 1.0, 1.9),
        (2, 2, 2.0, 2.0),
        (2, 1, 1.0, 4.0),
        (3, 1, 1.0, 1.5),
        (3, 2, 2.0, 3.0),
        (3, 3, 1.5, 1.5),
        (3, 1, 1.2, 6.0),
    ]
    bad = []
    for n, k, p, q in cases:
        dom = box([[0.0, 1.0]] * n, (9,) * n)
        c1 = C_integral(ConstantRequest(k, p, q, dom, n=n), moment="none")
        bound = corollary_box_bound(dom, k, p, q)
        should = 1.0 / p - 1.0 / q < 1.0 / n
        if math.isfinite(c1) != should or math.isfinite(bound) != should:
            bad.append((n, k, p, q, "finiteness"))
        elif should and c1 > bound * (1.0 + 1e-9):
            bad.append((n, k, p, q, f"C={c1:.6g} > bound={bound:.6g}"))

    dt = time.perf_counter() - t0
    ok = not bad and dt <= 30.0
    detail = f"{len(cases)} parameter sets, {len(bad)} violations, {dt:.1f}s"
    assert _line(3, "constant bounds vs closed form", ok, detail), f"{detail}: {bad}"


def test_criterion_4_gluing_stability():
    t0 = time.perf_counter()
    setups = [
        ("circle", 1, circle_cover, 1, [(65, 64), (97, 96), (129, 128)]),
        ("torus", 2, torus_cover, 2, [(49, 48, 48), (65, 64, 64), (81, 80, 80)]),
    ]
    rng = np.random.default_rng(41)
    worst_res = 0.0
    worst_growth = 0.0
    for _name, axes, mk_cover, degree, grids in setups:
        periodic = (False,) + (True,) * axes
        for _ in range(10):
            params = draw_form_params(1 + axes, degree - 1, rng, 1e-5, periodic)
            ratios = []
            for g in grids:
                dom = cylinder([0.0, 1.0], [[0.0, 1.0]] * axes, g)
                eta = sample_form(dom, degree - 1, params)
                om = exterior_derivative(eta)
                xi, rep = glue_primitive(om, mk_cover(dom), tol=1e-4, t_nodes=16)
                worst_res = max(worst_res, (exterior_derivative(xi) - om).max_abs())
                ratios.append(rep["norm_ratio"])
            for prev, cur in zip(ratios, ratios[1:]):
                worst_growth = max(worst_growth, cur / prev - 1.0)

    dt = time.perf_counter() - t0
    ok = worst_res <= 1e-5 and worst_growth <= 0.10 and dt <= 300.0
    detail = (
        f"max |d xi - omega| {worst_res:.3e}, "
        f"max ratio growth {100 * worst_growth:.1f}%, {dt:.0f}s"
    )
    assert _line(4, "gluing stability", ok, detail), detail


def test_criterion_5_exact_region_values():
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    es = powerlaw_exponents(2)
    ok = es.alpha == half and es.beta == half

    reg = AdmissibleRegion(4, 3, half, half)
    ok = ok and reg.q_interval(Fraction(2)) == (Fraction(2), Fraction(8, 3))

    for ell in (2, 3, 4):
        r = AdmissibleRegion(2 * ell, ell + 1, Fraction(1, ell), Fraction(1, ell))
        ok = ok and r.contains(2, 2)

    rinf = AdmissibleRegion(4, 3, half, half, b_infinite=True)
    ok = ok and rinf.empty and "b is infinite" in rinf.reason

    dt = time.perf_counter() - t0
    ok = ok and dt <= 1.0
    detail = f"alpha=beta={es.alpha}, q-interval [2, 8/3), {dt:.2f}s"
    assert _line(5, "exact admissible-region values", ok, detail), detail


def test_criterion_6_criterion_region_agreement():
    t0 = time.perf_counter()
    checked = 0
    disagree = []
    for lam in (1, 2, 3):
        warp = WeightProfile.powerlaw(float(lam), 1.0)
        a = Fraction(1, lam)
        for n in (2, 4):
            for k in range(1, n + 2):
                reg = AdmissibleRegion(n, k, a, a)
                for i in range(1, 22):
                    for j in range(1, i + 1):
                        p, q = Fraction(21, i), Fraction(21, j)
                        rep = criterion_check(CriterionInput(
                            n, k, p, q, (0.0, 1.0), warp, hdr_zero=True,
                        ))
                        checked += 1
                        if (rep["verdict"] == "VANISHES") != reg.contains(p, q):
                            disagree.append((lam, n, k, str(p), str(q)))

    dt = time.perf_counter() - t0
    ok = checked > 5000 and not disagree and dt <= 120.0
    detail = f"{checked} points, {len(disagree)} disagreements, {dt:.0f}s"
    assert _line(6, "criterion/region agreement", ok, detail), f"{detail}: {disagree[:5]}"


def test_criterion_7_refusal_names_condition(tmp_path):
    t0 = time.perf_counter()
    sc = {
        "command": "glue",
        "surface": "cylinder-s1",
        "grid": [33, 32],
        "degree": 1,
        "count": 1,
        "q": 2,
        "beta": {"kind": "powerlaw", "lam": 2.0, "pivot": 1.0},
    }
    path = tmp_path / "refuse.json"
    path.write_text(json.dumps(sc))
    code = main(["--scenario", str(path), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "refuse.report.json").read_text())

    dt = time.perf_counter() - t0
    ok = (
        code == 2
        and report["verdict"] == "HYPOTHESES-FAIL"
        and "||beta||_{L^q[a,b)} divergent" in report["refusal"]
        and dt <= 1.0
    )
    detail = f"exit {code}, refusal: {report.get('refusal', '?')}, {dt:.2f}s"
    assert _line(7, "divergent-hypothesis refusal", ok, detail), detail


def test_criterion_8_sampled_criterion_region_agreement():
    # the criterion-6 sweep through fitted tails: pure, |log|-multiplied and
    # |log|-divided laws at graded and linear t; UNDECIDED is allowed, a
    # decided verdict that contradicts the region is not
    t0 = time.perf_counter()
    t_sets = {"graded": 1.0 - 2.0 ** (-12.0 * np.arange(1, 257) / 256),
              "linear": np.linspace(0.0, 1.0, 257)[1:-1]}  # |log(1-t)| = 0 at t = 0
    checked = undecided = 0
    wrong = []
    for t_name, ts in t_sets.items():
        for log_power in (0, 1, -1):
            for lam in (1, 2, 3):
                warp = WeightProfile.sampled_t(
                    ts, (1.0 - ts) ** -lam * np.abs(np.log(1.0 - ts)) ** log_power)
                a = Fraction(1, lam)
                for n in (2, 4):
                    for k in range(1, n + 2):
                        reg = AdmissibleRegion(n, k, a, a)
                        for i in range(1, 22):
                            for j in range(1, i + 1):
                                p, q = Fraction(21, i), Fraction(21, j)
                                if abs(reg.margin(p, q)) < 1e-3:
                                    continue
                                verdict = criterion_check(CriterionInput(
                                    n, k, p, q, (0.0, 1.0), warp, hdr_zero=True,
                                ))["verdict"]
                                checked += 1
                                undecided += verdict == "UNDECIDED"
                                if verdict != "UNDECIDED" and (
                                        (verdict == "VANISHES") != reg.contains(p, q)):
                                    wrong.append((t_name, log_power, lam, n, k, str(p), str(q),
                                                  verdict))

    dt = time.perf_counter() - t0
    ok = checked > 30000 and not wrong and dt <= 60.0
    detail = (f"{checked} points, {len(wrong)} wrong verdicts, {undecided} undecided, "
              f"{dt:.0f}s")
    assert _line(8, "sampled criterion/region agreement", ok, detail), f"{detail}: {wrong[:5]}"
