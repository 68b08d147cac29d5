"""Batch front end: scenario files in, reports and CSV out.

A scenario is one JSON file naming a command and its inputs.  Reports
are rendered with sorted keys and fixed float formatting (17 significant
digits) so identical scenarios produce byte-identical artifacts.  Exit
codes: 0 success, 2 structured hypothesis refusal, 1 anything else.
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import jsonschema

from .domain import KINDS as DOMAIN_KINDS, DomainSpec, cylinder
from .forms import exterior_derivative, lp_norm, random_form
from .weights import WeightProfile
from .homotopy import K_y, A_alpha, check_admissible_weight
from .constants import ConstantRequest, C_integral, cylinder_constant
from .cover import circle_cover, torus_cover
from .cech import glue_primitive, HypothesisFailure
from .vanishing import (AdmissibleRegion, powerlaw_exponents, CriterionInput,
                        criterion_check, asymptotic_delegate, region_grid,
                        sphere_hdr_zero, warp_profiles)

# points per grid axis: 257 is one doubling above the finest grid the
# README, the tests and the acceptance ladders use (129)
GRID_MAX = 257
# points per grid in all, after --grid-scale: 129^3 is one doubling per
# axis above the finest 3-D grid the tests and benchmarks use (65^3, and
# criterion 4's 65 x 64 x 64), and bounds a float field at 16.4 MiB; the
# schema's per-axis maximum alone admits a 257^4 grid, a 32.5 GiB field
GRID_POINTS = 129**3
# axes of a domain, and so the largest form degree: 4 is the most the
# tests use, and a 13-axis grid of 3 points, within GRID_POINTS, still
# asks for about 20 GiB of degree-6 components
AXES_MAX = 4
GRID = {"type": "array", "maxItems": AXES_MAX,
        "items": {"type": "integer", "minimum": 3, "maximum": GRID_MAX}}
# an exponent is a number >= 1 or a string Fraction reads: "5/2" or "2.5"
EXPONENT = {"anyOf": [{"type": "number", "minimum": 1},
                      {"type": "string", "pattern": r"^[0-9]+(\.[0-9]+|/[0-9]+)?$"}]}

NUMBER = {"type": "number"}
# a number, or a string Fraction reads: "-3/2", "0.25" or "1e-3"
FRACTION = {"anyOf": [NUMBER, {"type": "string",
                               "pattern": r"^[-+]?([0-9]+/[0-9]+|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?)$"}]}
K = {"type": "integer", "minimum": 0}


def _warp_kind(kind, required, optional=()):
    """The keys of one warp kind: each name in required must be there,
    and no key beyond them, optional and "kind" is allowed."""
    keys = {"kind": {"const": kind}, **dict(required), **dict(optional)}
    return {"if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {"required": [name for name, _ in required], "properties": keys,
                     "additionalProperties": False}}


WARP = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["powerlaw", "powerlaw-pair", "sampled", "profile"]}},
    "allOf": [
        _warp_kind("powerlaw", [("lam", NUMBER)], [("pivot", NUMBER)]),
        _warp_kind("powerlaw-pair", [("lam_s", NUMBER), ("lam_g", NUMBER)], [("pivot", NUMBER)]),
        _warp_kind("sampled", [("t", {"type": "array", "items": NUMBER}), ("values", {"type": "array"})],
                   [("shape", {"type": "array", "items": {"type": "integer", "minimum": 1}})]),
        _warp_kind("profile", [("profile", {"type": "object"})]),
    ],
}

SCHEMA = {
    "type": "object",
    "required": ["command"],
    "properties": {
        "command": {"enum": ["homotopy-check", "constant", "glue", "vanish", "region"]},
        "seed": {"type": "integer", "minimum": 0},
        "report": {"type": "string"},
        "csv": {"type": "string"},
        "domain": {"type": "object", "required": ["kind", "bounds", "grid"],
                   "properties": {"kind": {"enum": list(DOMAIN_KINDS)},
                                  "bounds": {"type": "array", "maxItems": AXES_MAX, "items": {
                                      "type": "array", "items": NUMBER, "minItems": 2, "maxItems": 2}},
                                  "grid": GRID,
                                  "periodic": {"type": "array", "maxItems": AXES_MAX,
                                               "items": {"type": "boolean"}}},
                   "additionalProperties": False},
        "degree": {"type": "integer", "minimum": 0, "maximum": AXES_MAX},
        # the maxima bound the work of one scenario
        "count": {"type": "integer", "minimum": 1, "maximum": 100},
        "t_nodes": {"type": "integer", "minimum": 2, "maximum": 256},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "amplitude": {"type": "number", "minimum": 0},
        "resolution": {"type": "integer", "minimum": 1, "maximum": 512},
        "n": {"type": "integer", "minimum": 1},
        "p": EXPONENT,
        "q": EXPONENT,
        "surface": {"enum": ["cylinder-s1", "cylinder-t2"]},
        "grid": GRID,
        "mode": {"enum": ["identity", "averaged"]},
        "route": {"enum": ["box", "cylinder"]},
        "interval": {"type": "array", "minItems": 2, "maxItems": 2},
        "warp": WARP,
        "asymptotic": {"type": "boolean"},
        "y": {"type": "array", "items": NUMBER},
        # a list of k for region only: the first allOf rule keeps the others to one
        "k": {"anyOf": [K, {"type": "array", "items": K, "minItems": 1}]},
        "pbar": EXPONENT,
        "lambda": FRACTION,
        "lam_g": FRACTION,
        "hdr_zero": {"type": ["boolean", "null"]},
        "fiber": {"enum": ["sphere"]},
        "b_infinite": {"type": "boolean"},
        # read by the handlers and checked there
        **{key: {} for key in ("alpha", "beta", "gamma", "weight", "t_bounds", "fiber_bounds")},
    },
    "additionalProperties": False,
    "allOf": [
        {"if": {"properties": {"command": {"not": {"const": "region"}}}},
         "then": {"properties": {"k": K}}},
        {"if": {"properties": {"command": {"const": "homotopy-check"}}},
         "then": {"required": ["domain", "degree"]}},
        {"if": {"properties": {"command": {"const": "constant"}}},
         "then": {"required": ["domain", "k", "p", "q"]}},
        {"if": {"properties": {"command": {"const": "glue"}}},
         "then": {"required": ["surface", "grid", "degree"]}},
        {"if": {"properties": {"command": {"const": "vanish"}}},
         "then": {"required": ["n", "k", "p", "q", "warp"]}},
        {"if": {"properties": {"command": {"const": "region"}}},
         "then": {"required": ["n", "k"]}},
    ],
}

def _non_finite_at(sc):
    """The path of the first inf or NaN number in a parsed scenario, as
    "warp/values/4/0" ("" for the scenario itself), or None.  json.loads
    makes one of 1e400 and of the Infinity and NaN literals; a string
    such as "inf" is no number.  The walk keeps its own stack, so a
    scenario json.loads accepted cannot nest too deeply for it."""
    stack = [((), sc)]
    while stack:
        path, x = stack.pop()
        if isinstance(x, float) and not math.isfinite(x):
            return "/".join(map(str, path))
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
        stack.extend((path + (key,), v) for key, v in reversed(list(items)))
    return None


def render_canonical(obj, indent=0):
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Fractions render as reduced "num/den" strings, infinities as "inf"
    so the output stays parseable JSON.
    """
    sp = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key in sorted(obj, key=str):
            rows.append(f'{sp}  {json.dumps(str(key))}: {render_canonical(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(rows) + "\n" + sp + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{sp}  {render_canonical(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + sp + "]"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return json.dumps(str(obj))


def _parse_frac(v):
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    if isinstance(v, (int, np.integer)):
        return Fraction(int(v))
    return Fraction(float(v))


def _parse_bound(v):
    if isinstance(v, str):
        if v in ("inf", "+inf"):
            return math.inf
        return float(_parse_frac(v))
    return float(v)


def _scale_domain(domain, scale):
    """Refine or coarsen a grid; periodic axes snap to multiples of 16.

    Non-periodic axes scale the cell count: m -> round((m-1)*scale)+1.
    The snap keeps the standard covers' multiple-of-16 rule, and the
    floor of 32 the fewest nodes they accept.  A scaled axis above
    GRID_MAX, or a grid, scaled or not, of more than GRID_POINTS points
    in all, is a ValueError, raised before any field is sampled.
    """
    if scale is not None and scale != 1.0:
        new = []
        for m, per in zip(domain.grid, domain.periodic):
            if per:
                mm = max(32, int(round(m * scale / 16.0)) * 16)
            else:
                mm = max(3, int(round((m - 1) * scale)) + 1)
            new.append(mm)
        if max(new) > GRID_MAX:
            raise ValueError(f"scaled grid {new} exceeds {GRID_MAX} points per axis")
        domain = domain.with_grid(tuple(new))
    points = math.prod(domain.grid)
    if points > GRID_POINTS:
        raise ValueError(f"grid {list(domain.grid)} has {points} points, above {GRID_POINTS} in all")
    return domain


def _weight(sc, key):
    return WeightProfile.from_dict(sc[key]) if key in sc else None


def _cmd_homotopy(sc, args):
    dom = _scale_domain(DomainSpec.from_dict(sc["domain"]), args.grid_scale)
    degree = sc["degree"]
    mode = sc.get("mode", "identity")
    count = sc.get("count", 5)
    tol = sc.get("tolerance", 1e-6 if mode == "identity" else 1e-5)
    t_nodes = sc.get("t_nodes", 32 if mode == "identity" else 16)
    amplitude = sc.get("amplitude", 0.2)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    rng = np.random.default_rng(seed)

    residuals = []
    report = {
        "command": "homotopy-check",
        "mode": mode,
        "degree": degree,
        "count": count,
        "t_nodes": t_nodes,
        "tolerance": tol,
        "seed": seed,
        "domain": dom.to_dict(),
    }

    if mode == "identity":
        y = np.asarray(sc.get("y", [0.5 * (lo + hi) for lo, hi in dom.bounds]), dtype=float)
        report["y"] = list(map(float, y))
        for _ in range(count):
            om = random_form(dom, degree, rng, amplitude)
            dom_scale = max(om.max_abs(), 1e-30)
            recon = K_y(exterior_derivative(om), y, t_nodes=t_nodes)
            dK = exterior_derivative(K_y(om, y, t_nodes=t_nodes))
            resid = (recon + dK - om).max_abs() / dom_scale
            residuals.append(float(resid))
    else:
        p = _parse_frac(sc.get("p", 2))
        q = _parse_frac(sc["q"]) if "q" in sc else p
        if not 1 <= p <= q:
            raise ValueError("need q >= p >= 1")
        alpha = _weight(sc, "weight")
        if alpha is None:
            alpha = WeightProfile.constant(1.0 / dom.volume)
        adm = check_admissible_weight(alpha, dom, p)
        report["weight_check"] = adm
        if not adm["admissible"]:
            raise HypothesisFailure(
                "inadmissible centering weight: " + "; ".join(adm["violations"])
            )
        ratios = []
        for _ in range(count):
            eta = random_form(dom, max(degree - 1, 0), rng, amplitude)
            om = exterior_derivative(eta) if degree >= 1 else eta
            prim = A_alpha(om, alpha, t_nodes=t_nodes)
            resid = (exterior_derivative(prim) - om).max_abs() / max(om.max_abs(), 1e-30)
            residuals.append(float(resid))
            if "p" in sc and "q" in sc:
                beta = _weight(sc, "beta")
                num = lp_norm(prim, q, beta)
                den = max(lp_norm(om, p), 1e-30)
                ratios.append(num / den)
        if ratios:
            report["norm_ratio_max"] = max(ratios)

    report["residuals"] = residuals
    report["residual_max"] = max(residuals)
    report["pass"] = report["residual_max"] <= tol
    return report, (0 if report["pass"] else 1), None


def _cmd_constant(sc, args):
    dom = _scale_domain(DomainSpec.from_dict(sc["domain"]), args.grid_scale)
    req = ConstantRequest(
        sc["k"], _parse_frac(sc["p"]), _parse_frac(sc["q"]), dom,
        n=sc.get("n"), pbar=_parse_frac(sc["pbar"]) if "pbar" in sc else None,
        beta=_weight(sc, "beta"), gamma=_weight(sc, "gamma"), alpha=_weight(sc, "alpha"),
    )
    route = sc.get("route", "box")
    t_nodes = sc.get("t_nodes", 64)
    report = {
        "command": "constant",
        "route": route,
        "request": req.to_dict(),
        "gates": req.gates(),
    }
    code = 0
    if route == "box":
        c1 = C_integral(req, moment="none", t_nodes=t_nodes)
        c2 = C_integral(req, moment="|x|", t_nodes=t_nodes)
        report.update({"C1": c1, "C2": c2, "finite": math.isfinite(c1) and math.isfinite(c2)})
    else:
        out = cylinder_constant(req, t_nodes=t_nodes)
        report.update(out)
        if out["hypothesis_failures"]:
            report["verdict"] = "HYPOTHESES-FAIL"
            code = 2
    return report, code, None


def _cmd_glue(sc, args):
    t_bounds = sc.get("t_bounds", [0.0, 1.0])
    grid = list(sc["grid"])
    fiber_axes = 1 if sc["surface"] == "cylinder-s1" else 2
    if len(grid) != 1 + fiber_axes:
        raise ValueError(f"grid needs {1 + fiber_axes} axes for {sc['surface']}")
    fiber_bounds = sc.get("fiber_bounds", [[0.0, 1.0]] * fiber_axes)
    dom = _scale_domain(cylinder(t_bounds, fiber_bounds, grid), args.grid_scale)
    cover = circle_cover(dom) if fiber_axes == 1 else torus_cover(dom)

    degree = sc["degree"]
    if degree < 1:
        raise ValueError("glue needs degree >= 1")
    count = sc.get("count", 3)
    tol = sc.get("tolerance", 1e-5)
    amplitude = sc.get("amplitude", 1e-3)
    seed = args.seed if args.seed is not None else sc.get("seed", 0)
    rng = np.random.default_rng(seed)
    p, q = _parse_frac(sc.get("p", 2)), _parse_frac(sc.get("q", 2))
    beta = _weight(sc, "beta")
    gamma = _weight(sc, "gamma")

    runs = []
    for _ in range(count):
        eta = random_form(dom, degree - 1, rng, amplitude)
        om = exterior_derivative(eta)
        xi, rep = glue_primitive(
            om, cover, beta=beta, gamma=gamma, p=p, q=q,
            t_nodes=sc.get("t_nodes", 32), tol=tol,
        )
        runs.append(rep)

    report = {
        "command": "glue",
        "surface": sc["surface"],
        "degree": degree,
        "grid": list(dom.grid),
        "count": count,
        "tolerance": tol,
        "seed": seed,
        "p": p,
        "q": q,
        "runs": runs,
        "residual_max": max(r["relative_residual"] for r in runs),
        "norm_ratio_max": max(r["norm_ratio"] for r in runs),
    }
    report["pass"] = report["residual_max"] <= tol
    return report, 0 if report["pass"] else 1, None


def _parse_warp(d, b):
    """The profiles of warp d on an interval ending at b; WARP has checked
    its keys for its kind."""
    kind = d["kind"]
    if kind == "powerlaw":
        return WeightProfile.powerlaw(float(d["lam"]), float(d.get("pivot", b)))
    if kind == "powerlaw-pair":
        pivot = float(d.get("pivot", b))
        return (WeightProfile.powerlaw(float(d["lam_s"]), pivot),
                WeightProfile.powerlaw(float(d["lam_g"]), pivot))
    if kind == "sampled":
        h = np.asarray(d["values"], dtype=float)
        if "shape" in d:
            h = h.reshape(d["shape"])
        return warp_profiles(d["t"], h)
    return WeightProfile.from_dict(d["profile"])


def _cmd_vanish(sc, args):
    interval = sc.get("interval", [0.0, 1.0])
    a, b = _parse_bound(interval[0]), _parse_bound(interval[1])
    hdr = sc.get("hdr_zero")
    if hdr is None and sc.get("fiber") == "sphere":
        hdr = sphere_hdr_zero(sc["n"], sc["k"])
    inp = CriterionInput(
        sc["n"], sc["k"], _parse_frac(sc["p"]), _parse_frac(sc["q"]),
        (a, b), _parse_warp(sc["warp"], b), hdr_zero=hdr,
    )
    if sc.get("asymptotic", False):
        report = asymptotic_delegate(inp)
    else:
        report = criterion_check(inp)
    report["command"] = "vanish"
    return report, (0 if report["verdict"] == "VANISHES" else 2), None


def _cmd_region(sc, args):
    n = sc["n"]
    ks = sc["k"] if isinstance(sc["k"], list) else [sc["k"]]
    b_inf = bool(sc.get("b_infinite", False))
    if "lambda" in sc:
        alpha, beta = powerlaw_exponents(_parse_frac(sc["lambda"]),
                                         _parse_frac(sc["lam_g"]) if "lam_g" in sc else None)
    else:
        alpha = _parse_frac(sc["alpha"]) if sc.get("alpha") not in (None, "inf") else math.inf
        beta = _parse_frac(sc["beta"]) if sc.get("beta") not in (None, "inf") else math.inf
    resolution = sc.get("resolution", 16)

    rows = []
    per_k = {}
    for k in ks:
        reg = AdmissibleRegion(n, k, alpha, beta, b_infinite=b_inf)
        entry = reg.to_dict()
        if "p" in sc:
            iv = reg.q_interval(_parse_frac(sc["p"]))
            entry["q_interval"] = None if iv is None else {"lo": iv[0], "hi": iv[1],
                                                           "form": "[lo, hi)"}
        per_k[str(k)] = entry
        if not reg.empty:
            for inv_p, inv_q, member in region_grid(reg, resolution):
                if member:
                    rows.append(f"{inv_p},{inv_q},{k},member")

    csv_text = "inv_p,inv_q,k,verdict\n" + "".join(r + "\n" for r in rows)
    report = {
        "command": "region",
        "n": n,
        "alpha": alpha,
        "beta": beta,
        "b_infinite": b_inf,
        "resolution": resolution,
        "regions": per_k,
        "member_rows": len(rows),
    }
    return report, 0, csv_text


HANDLERS = {
    "homotopy-check": _cmd_homotopy,
    "constant": _cmd_constant,
    "glue": _cmd_glue,
    "vanish": _cmd_vanish,
    "region": _cmd_region,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="cylcoh",
        description="Run a scenario file against the cylinder cohomology toolkit.",
    )
    ap.add_argument("--scenario", required=True, help="path to a JSON scenario")
    ap.add_argument("--out", default=None, help="output directory (default: scenario's)")
    ap.add_argument("--grid-scale", type=float, default=None,
                    help="refine/coarsen grids by this factor")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed for random test forms")
    args = ap.parse_args(argv)

    path = Path(args.scenario)
    try:
        sc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read scenario: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"schema error: scenario is not valid JSON: {e}", file=sys.stderr)
        return 1
    except RecursionError as e:
        print(f"schema error: scenario nests too deeply: {e}", file=sys.stderr)
        return 1
    where = _non_finite_at(sc)
    if where is not None:
        print("schema error: numbers must be finite" + (f" (at {where})" if where else ""),
              file=sys.stderr)
        return 1
    try:
        jsonschema.validate(sc, SCHEMA)
    except jsonschema.ValidationError as e:
        where = "/".join(map(str, e.absolute_path))
        print(f"schema error: {e.message}" + (f" (at {where})" if where else ""), file=sys.stderr)
        return 1

    out_dir = Path(args.out) if args.out else path.parent
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 1

    try:
        report, code, csv_text = HANDLERS[sc["command"]](sc, args)
    except HypothesisFailure as e:
        report = {"command": sc["command"], "verdict": "HYPOTHESES-FAIL", "refusal": str(e)}
        code, csv_text = 2, None
    except Exception as e:  # every scenario gets a report, never a traceback
        print(f"error: {sc['command']} failed: {e}", file=sys.stderr)
        report = {"command": sc["command"], "error": str(e)}
        code, csv_text = 1, None

    outputs = [(out_dir / sc.get("report", path.stem + ".report.json"),
                render_canonical(report) + "\n")]
    if csv_text is not None:
        outputs.append((out_dir / sc.get("csv", path.stem + ".csv"), csv_text))
    for out_path, text in outputs:
        try:
            out_path.write_text(text)
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 1
    artifacts = [str(out_path) for out_path, _ in outputs]

    status = report.get("verdict", "ok" if code == 0 else "failed")
    print(f"{sc['command']}: {status} -> " + ", ".join(artifacts))
    return code


if __name__ == "__main__":
    sys.exit(main())
