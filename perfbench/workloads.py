"""The workloads: inputs made from a seed, one round of operations, checks.

A round is a fixed list of operations; a run repeats whole rounds, so
every run attempts the same operations in the same proportions.  Each
operation carries a check against reference.py.  A check returns
(status, residual): status "ok", FAILED for an operation the workload
counts as failed, or a message naming a wrong output.

Operations call cylcoh through module attributes (homotopy.K_y, not a
name bound at import), so the tracer's wrappers see every call.
"""

import math
from collections import namedtuple
from itertools import combinations

import numpy as np

from cylcoh import cech, constants, forms, homotopy, vanishing
from cylcoh.constants import ConstantRequest
from cylcoh.cover import torus_cover
from cylcoh.domain import box, cylinder
from cylcoh.forms import GridForm, increasing_indices
from cylcoh.vanishing import CriterionInput
from cylcoh.weights import WeightProfile

import reference as ref

FAILED = "failed"
OK = ("ok", None)


Op = namedtuple("Op", "label run check")


# Phases of the sine modes.  The seed draws only the multilinear part of
# each coefficient, which K_y, A_alpha and the finite differences
# reproduce to roundoff; the fixed sine modes alone set the residual, so
# residual_max reads the same discretisation error on every seed.
PHASES = (0.3, 1.1, 2.0)


def _trig_coeff(dom, rng, amplitude):
    """Random constant + random linear ramps (closed axes only) + one sine
    mode of the given amplitude per axis."""
    out = rng.uniform(0.3, 1.0) * np.ones(dom.grid)
    for a, xa in enumerate(dom.meshgrid()):
        lo, hi = dom.bounds[a]
        th = (xa - lo) / (hi - lo)
        lin = 0.0 if dom.periodic[a] else rng.uniform(-0.5, 0.5)
        out = out + lin * th + amplitude * np.sin(2.0 * np.pi * th + PHASES[a])
    return out


def _max_diff(a, b):
    return max(float(np.abs(a[i] - b[i]).max()) for i in a)


class Identity:
    """K_y d omega + d K_y omega = omega, one form per operation.

    65^3 box at degrees 1, 2, 3 and 129^2 box at degrees 1, 2; centre at
    the box midpoint, 32 t-nodes, trig amplitude 1e-2 so the residual is
    O(h^2) discretisation error, far above roundoff.
    """

    BOXES = [(3, 65, 1), (3, 65, 2), (3, 65, 3), (2, 129, 1), (2, 129, 2)]
    AMPLITUDE = 1e-2
    T_NODES = 32
    # the O(h^2) error of the amplitude-1e-2 modes measures 9.7e-5 at h = 1/64
    TOL = 3e-4

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        rng = np.random.default_rng([self.seed, 1])
        self.cases = []
        self.multilinear = []
        for dim, m, k in self.BOXES:
            dom = box([[0.0, 1.0]] * dim, (m,) * dim)
            y = np.full(dim, 0.5)
            om = GridForm(dom, k)
            for idx in om.coeffs:
                om.coeffs[idx] = _trig_coeff(dom, rng, self.AMPLITUDE)
            self.cases.append((dom, k, y, om))
            terms = {idx: {S: rng.uniform(-1.0, 1.0) for r in range(dim + 1)
                           for S in combinations(range(dim), r)}
                     for idx in increasing_indices(dim, k)}
            self.multilinear.append((dom, k, y, terms))

    def _op(self, dom, k, y, om):
        def run():
            dK = forms.exterior_derivative(homotopy.K_y(om, y, self.T_NODES))
            if k == dom.dim:
                return (dK - om).max_abs()
            Kd = homotopy.K_y(forms.exterior_derivative(om), y, self.T_NODES)
            return (Kd + dK - om).max_abs()

        def check(res):
            if not res <= self.TOL:
                return f"identity residual {res:.3e} > {self.TOL:g} ({dom.grid}, k={k})", res
            return "ok", res

        return Op(f"identity {dom.grid} k={k}", run, check)

    def round(self):
        return [self._op(*case) for case in self.cases]

    def warmup(self):
        self.round()[0].run()

    def final_checks(self):
        """K_y of one multilinear form per box and degree against the
        closed-form cone integral; exact up to roundoff."""
        bad = []
        for dom, k, y, terms in self.multilinear:
            mesh = dom.meshgrid()
            om = GridForm(dom, k)
            for idx, poly in terms.items():
                field = np.zeros(dom.grid)
                for S, c in poly.items():
                    mono = c * np.ones(dom.grid)
                    for a in S:
                        mono = mono * mesh[a]
                    field = field + mono
                om.coeffs[idx] = field
            got = homotopy.K_y(om, y, self.T_NODES).coeffs
            want = ref.cone_integral_multilinear(terms, k, mesh, y)
            err = _max_diff(got, want)
            if not err <= 1e-11:
                bad.append(f"K_y of a multilinear {k}-form on {dom.grid}: "
                           f"off the cone integral by {err:.3e}")
        return bad


class Glue:
    """glue_primitive of one exact 2-form d eta on [0,1] x T^2 at
    65x64x64 with the four-patch torus cover, 16 t-nodes, tol 1e-4 and
    trig amplitude 1e-5: the settings of acceptance criterion 4."""

    GRID = (65, 64, 64)
    AMPLITUDE = 1e-5
    T_NODES = 16
    GLUE_TOL = 1e-4
    # acceptance criterion 4's bound on |d xi - omega|
    TOL = 1e-5

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        dom = cylinder([0.0, 1.0], [[0.0, 1.0]] * 2, self.GRID)
        eta = {idx: _trig_coeff(dom, rng, self.AMPLITUDE)
               for idx in increasing_indices(dom.dim, 1)}
        self.omega_coeffs = ref.d(eta, dom.dim, dom.spacings(), dom.periodic)
        self.omega = GridForm(dom, 2, self.omega_coeffs)
        self.cover = torus_cover(dom)
        self.cover.partition_of_unity().validate()

    def round(self):
        dom = self.omega.domain

        def run():
            return cech.glue_primitive(self.omega, self.cover, tol=self.GLUE_TOL,
                                       t_nodes=self.T_NODES)

        def check(out):
            xi, rep = out
            dxi = ref.d(xi.coeffs, dom.dim, dom.spacings(), dom.periodic)
            res = _max_diff(dxi, self.omega_coeffs)
            ratio = rep["norm_ratio"]
            if not res <= self.TOL:
                return f"|d xi - omega| {res:.3e} > {self.TOL:g}", res
            if not (math.isfinite(ratio) and ratio > 0):
                return f"norm ratio {ratio!r} is not finite and positive", res
            return "ok", res

        return [Op(f"glue {self.GRID}", run, check)]

    def warmup(self):
        self.round()[0].run()

    def final_checks(self):
        return []


class Criterion:
    """Vanishing verdicts on the criterion-6 sweep plus weighted constants.

    One verdict operation decides one sweep point twice: by the power-law
    route, and by the sampled route on the same law at 257 points
    t_i = 1 - 2^(-12 i/256), graded toward b = 1 and stopping 2^-12
    before it.  The operation fails when the sampled verdict contradicts
    the exact window; a power-law verdict that does is a wrong output.
    The sweep does not depend on the seed, so the same 540 points fail
    on every run.  The seed orders the round.
    """

    SAMPLED_T = 1.0 - 2.0 ** (-12.0 * np.arange(257) / 256)
    C_CASES = [(1, 2.0, 2.0), (2, 1.5, 2.5), (2, 2.0, 3.0), (1, 1.0, 1.5), (1, 1.0, 2.0)]
    CYL_CASES = [(1, 2.0, 2.0, 0.25), (2, 2.0, 2.0, 0.25), (1, 1.0, 2.0, 0.25),
                 (1, 2.0, 2.0, 0.6)]
    GRID = 33
    # level of the constant beta given as samples; its relative gap to the
    # exact constant-beta value is roundoff that moves with the level, so
    # the level stays fixed for residual_max to compare across seeds
    LEVEL = 1.5
    REL_TOL = 1e-6

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        rng = np.random.default_rng([self.seed, 3])
        ts = self.SAMPLED_T
        laws = {lam: (WeightProfile.powerlaw(float(lam), 1.0),
                      WeightProfile.sampled_t(ts, (1.0 - ts) ** -float(lam)))
                for lam in (1, 2, 3)}
        ops = []
        for lam, n, k, p, q, inside in ref.powerlaw_window_points():
            inps = [CriterionInput(n, k, float(p), float(q), (0.0, 1.0), warp, hdr_zero=True)
                    for warp in laws[lam]]
            ops.append(self._verdict_op(f"lam={lam} n={n} k={k} p={p} q={q}", inps, inside))
        for dim in (2, 3):
            dom = box([[0.0, 1.0]] * dim, (self.GRID,) * dim)
            flat = WeightProfile.sampled(np.full(dom.grid, self.LEVEL))
            for k, p, q in self.C_CASES:
                ops.append(self._c_integral_op(dom, k, p, q, flat))
            for k, p, q, lam in self.CYL_CASES:
                ops.append(self._cylinder_op(dom, k, p, q, lam))
        self.warm = ops[-len(self.CYL_CASES) - len(self.C_CASES)]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def _verdict_op(self, label, inps, inside):
        def run():
            return [vanishing.criterion_check(inp)["verdict"] for inp in inps]

        def check(verdicts):
            powerlaw, sampled = ((v == "VANISHES") != inside for v in verdicts)
            if powerlaw:
                return f"power-law verdict {verdicts[0]} contradicts the exact window", None
            return (FAILED, None) if sampled else OK

        return Op(f"verdicts {label}", run, check)

    def _c_integral_op(self, dom, k, p, q, beta):
        req = ConstantRequest(k, p, q, dom, n=dom.dim, beta=beta)
        exact = self.LEVEL * ref.flat_box_constant(dom.dim, k, p, q)

        def run():
            return constants.C_integral(req)

        def check(c):
            if math.isfinite(c) != math.isfinite(exact):
                return f"C_integral {dom.grid} {(k, p, q)} finite={math.isfinite(c)}", None
            if not math.isfinite(c):
                return OK
            gap = abs(c / exact - 1.0)
            if not (gap <= self.REL_TOL and c <= exact * (1.0 + self.REL_TOL)):
                return f"C_integral {dom.grid} {(k, p, q)} = {c!r}, exact {exact!r}", gap
            return "ok", gap

        return Op(f"C_integral {dom.grid} k={k} p={p} q={q}", run, check)

    def _cylinder_op(self, dom, k, p, q, lam):
        req = ConstantRequest(k, p, q, dom, n=dom.dim, beta=WeightProfile.powerlaw(lam, 1.0))
        finite = ref.powerlaw_c_finite(dom.dim, lam, p, q)
        beta_norm, tbeta_norm = ref.powerlaw_norms(lam, q)
        flat = ref.flat_box_constant(dom.dim, k, p, q)

        def run():
            return constants.cylinder_constant(req)

        def check(out):
            name = f"cylinder_constant {dom.grid} {(k, p, q, lam)}"
            if (not out["hypothesis_failures"]) != finite:
                return f"{name}: failures {out['hypothesis_failures']}", None
            if math.isfinite(beta_norm):
                if abs(out["beta_norm"] / beta_norm - 1.0) > 1e-12:
                    return f"{name}: ||beta||_q {out['beta_norm']!r} != {beta_norm!r}", None
                if abs(out["tbeta_norm"] / tbeta_norm - 1.0) > self.REL_TOL:
                    return f"{name}: ||t beta||_q {out['tbeta_norm']!r} != {tbeta_norm!r}", None
            if finite and not (out["C1"] >= flat * (1.0 - self.REL_TOL)
                               and 0.0 < out["C"] < math.inf):
                # beta >= 1 on [0, 1), so C1 is at least the flat constant
                return f"{name}: C1 {out['C1']!r} below flat {flat!r} or C {out['C']!r}", None
            return OK

        return Op(f"cylinder_constant {dom.grid} k={k} p={p} q={q} lam={lam}", run, check)

    def round(self):
        return self.ops

    def warmup(self):
        self.warm.run()

    def final_checks(self):
        return []


WORKLOADS = {"identity": Identity, "glue": Glue, "criterion": Criterion}
