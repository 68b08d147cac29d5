"""Scenario front end: exit codes, report determinism, CSV output."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cylcoh
import cylcoh.cli as cli
from cylcoh import (CriterionInput, K_y, box, criterion_check, exterior_derivative,
                    warp_profiles)
from cylcoh.cli import AXES_MAX, GRID_MAX, GRID_POINTS, SCHEMA, main, render_canonical
from cylcoh.forms import random_form


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _run(tmp_path, payload, extra=(), name="scen.json"):
    p = _write(tmp_path, name, payload)
    code = main(["--scenario", str(p), "--out", str(tmp_path)] + list(extra))
    report_path = tmp_path / payload.get("report", p.stem + ".report.json")
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report, report_path


BOX33 = {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [33, 33]}


def test_rejects_invalid_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["--scenario", str(p)]) == 1
    assert "schema error" in capsys.readouterr().err


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_rejects_non_utf8_scenario(tmp_path, capsys):
    p = tmp_path / "latin.json"
    p.write_bytes(b'\xff\xfe{"command": "region"}')
    assert main(["--scenario", str(p)]) == 1
    _one_line_error(capsys, "error: cannot read scenario")


def test_rejects_deeply_nested_json(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["--scenario", str(p)]) == 1
    _one_line_error(capsys, "schema error: scenario nests too deeply")


def test_out_naming_a_file_is_an_error(tmp_path, capsys):
    p = _write(tmp_path, "scen.json", {"command": "region", "n": 2, "k": 1,
                                      "alpha": "1", "beta": "1"})
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--scenario", str(p), "--out", str(taken)]) == 1
    _one_line_error(capsys, "error: cannot create output directory")
    assert taken.read_text() == ""


@pytest.mark.parametrize("field", [{"report": "nosuch/x.json"}, {"csv": "nosuch/x.csv"},
                                   {"report": ""}], ids=["report", "csv", "report-empty"])
def test_unwritable_output_is_an_error(tmp_path, capsys, field):
    # a missing directory, or a report path naming the output directory itself
    p = _write(tmp_path, "scen.json", {"command": "region", "n": 2, "k": 1,
                                      "alpha": "1", "beta": "1", **field})
    assert main(["--scenario", str(p), "--out", str(tmp_path)]) == 1
    _one_line_error(capsys, "error: cannot write output")
    assert not (tmp_path / "nosuch").exists()


def test_rejects_unknown_command(tmp_path, capsys):
    code, _, _ = _run(tmp_path, {"command": "frobnicate"})
    assert code == 1
    assert "schema error" in capsys.readouterr().err


def test_rejects_missing_fields(tmp_path, capsys):
    code, _, _ = _run(tmp_path, {"command": "vanish", "n": 4, "k": 3})
    assert code == 1
    assert "schema error" in capsys.readouterr().err


def test_zero_denominator_reports_error(tmp_path, capsys):
    sc = {
        "command": "vanish",
        "n": 4,
        "k": 3,
        "p": "1/0",
        "q": 2,
        "warp": {"kind": "powerlaw", "lam": 2.0},
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert "zero denominator" in report["error"]
    assert "vanish failed" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("p", "two"), ("q", 0.5)])
def test_exponent_outside_schema(tmp_path, capsys, field, value):
    sc = {"command": "vanish", "n": 4, "k": 3, "p": 2, "q": "5/2",
          "warp": {"kind": "powerlaw", "lam": 2.0}}
    sc[field] = value
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    assert "schema error" in capsys.readouterr().err


def test_readme_scenarios_validate():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert len(blocks) >= 5
    for block in blocks:
        jsonschema.validate(json.loads(block.split("```")[0]), SCHEMA)


HOMOTOPY_CHECK = {"command": "homotopy-check", "degree": 1}
CONSTANT = {"command": "constant", "k": 1, "p": 2, "q": 2}


@pytest.mark.parametrize(
    "base, domain, where",
    [
        (HOMOTOPY_CHECK, {"kind": "box", "bounds": 5, "grid": [65]}, "domain/bounds"),
        (HOMOTOPY_CHECK, {"kind": "box", "bounds": [[0.0, 1.0]], "grid": 5}, "domain/grid"),
        (CONSTANT, {"kind": "box", "bounds": [[0.0]], "grid": [33]}, "domain/bounds/0"),
        (CONSTANT, {"kind": "box", "bounds": [[0.0, 1.0]], "grid": [33], "periodic": True},
         "domain/periodic"),
        (CONSTANT, {"kind": "torus", "bounds": [[0.0, 1.0]], "grid": [33]}, "domain/kind"),
        (CONSTANT, {"kind": "box", "bounds": [[0.0, 1.0]], "grid": [33], "warp": [1.0] * 33},
         "domain"),
        (CONSTANT, {"kind": "box", "grid": [33]}, "domain"),
    ],
    ids=["bounds", "grid", "short-pair", "periodic", "kind", "unknown-key", "no-bounds"],
)
def test_malformed_domain_is_a_schema_error(tmp_path, capsys, base, domain, where):
    # the schema owns the domain's shape, so no handler runs and no
    # report is written
    code, report, _ = _run(tmp_path, dict(base, domain=domain))
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and err.endswith(f"(at {where})\n"), err


@pytest.mark.parametrize(
    "sc",
    [
        {"command": "vanish", "n": 4, "k": 3, "p": 2, "q": 2,
         "warp": {"kind": "sampled", "t": [0.0, 0.5], "values": [1.0] * 6, "shape": [4, 2]}},
        {"command": "glue", "surface": "cylinder-s1", "grid": [33, 32], "degree": 1,
         "fiber_bounds": 5},
    ],
    ids=["warp", "fiber_bounds"],
)
def test_malformed_field_reports_error(tmp_path, sc):
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert report["command"] == sc["command"] and "error" in report


def test_vanish_powerlaw(tmp_path):
    sc = {
        "command": "vanish",
        "n": 4,
        "k": 3,
        "p": 2,
        "q": "5/2",
        "interval": [0.0, 1.0],
        "warp": {"kind": "powerlaw", "lam": 2.0},
        "fiber": "sphere",
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    assert report["verdict"] == "VANISHES"
    assert report["conditional"] is False, "sphere table settles the de Rham flag"
    assert report["failed"] == []


@pytest.mark.parametrize("lam_g, verdict, code", [(1.5, "VANISHES", 0), (1.0, "HYPOTHESES-FAIL", 2)])
def test_vanish_powerlaw_pair(tmp_path, lam_g, verdict, code):
    # u = n/q - k + 2 = 3/5 and v = k - n/p = 1: s = (1-t)^-2 meets I1 and I2
    # (slope 6/5), and g meets I3 only when lam_g * v > 1
    sc = {"command": "vanish", "n": 4, "k": 3, "p": 2, "q": "5/2", "interval": [0.0, 1.0],
          "warp": {"kind": "powerlaw-pair", "lam_s": 2.0, "lam_g": lam_g}, "fiber": "sphere"}
    got, report, _ = _run(tmp_path, sc)
    assert (got, report["verdict"]) == (code, verdict)
    assert report["conditions"]["I1: int s^(n/q-k+2) divergent"]["slope"] == pytest.approx(1.2)
    assert report["conditions"]["I3: int g^(k-n/p) divergent"]["slope"] == lam_g
    assert report["failed"] == ([] if code == 0 else ["I3: int g^(k-n/p) divergent does not hold"])


def test_vanish_profile_warp_matches_powerlaw_warp(tmp_path):
    # a profile warp given as a dict reaches the same law as the powerlaw kind
    sc = {"command": "vanish", "n": 4, "k": 3, "p": 2, "q": "5/2", "interval": [0.0, 1.0],
          "fiber": "sphere"}
    law = {"kind": "powerlaw", "lam": 2.0, "pivot": 1.0}
    code, report, _ = _run(tmp_path, {**sc, "warp": {"kind": "profile", "profile": law}})
    assert (code, report["verdict"]) == (0, "VANISHES")
    _, direct, _ = _run(tmp_path, {**sc, "warp": law}, name="direct.json")
    assert report == direct


def test_vanish_and_region_agree_on_the_boundary(tmp_path):
    # p = q = 8/3 puts 1/q on the window's lower bound 3/8: I1's slope is
    # exactly 1, outside the strict window, and the exact exponents reach
    # the criterion as parsed
    sc = {"command": "vanish", "n": 4, "k": 3, "p": "8/3", "q": "8/3",
          "warp": {"kind": "powerlaw", "lam": 2.0}, "hdr_zero": True}
    code, report, _ = _run(tmp_path, sc, name="vanish.json")
    assert code == 2 and report["verdict"] == "HYPOTHESES-FAIL"
    assert report["conditions"]["I1: int s^(n/q-k+2) divergent"]["slope"] == 1.0
    assert report["conditions"]["I1: int s^(n/q-k+2) divergent"]["holds"] is False
    sc = {"command": "region", "n": 4, "k": 3, "lambda": 2, "p": "8/3"}
    code, report, _ = _run(tmp_path, sc, name="region.json")
    assert code == 0 and report["regions"]["3"]["q_interval"] is None


def test_constant_and_vanish_agree_on_the_gate(tmp_path):
    # q(n+1-p) = np exactly at n = 2, p = 9/5, q = 3: the gate fails for
    # both commands, which read p and q as parsed
    sq = {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [9, 9]}
    sc = {"command": "constant", "k": 1, "p": "9/5", "q": 3, "n": 2, "route": "cylinder",
          "domain": sq}
    code, constant, _ = _run(tmp_path, sc, name="constant.json")
    assert code == 0
    sc = {"command": "vanish", "n": 2, "k": 1, "p": "9/5", "q": 3,
          "warp": {"kind": "powerlaw", "lam": 2.0}}
    code, vanish, _ = _run(tmp_path, sc, name="vanish.json")
    assert code == 2
    assert constant["gates"]["thm-cylinder"] is False
    assert vanish["gates"]["gate"] is False


def test_vanish_infinite_b_refuses(tmp_path):
    sc = {
        "command": "vanish",
        "n": 4,
        "k": 3,
        "p": 2,
        "q": 2,
        "interval": [0.0, "inf"],
        "warp": {"kind": "powerlaw", "lam": 2.0, "pivot": 0.0},
        "hdr_zero": True,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 2
    assert report["verdict"] == "HYPOTHESES-FAIL"
    assert any("b is infinite" in f for f in report["failed"])


def test_vanish_pivot_below_b_reports_error(tmp_path, capsys):
    sc = {"command": "vanish", "n": 4, "k": 3, "p": 2, "q": 2, "interval": [0.0, 1.0],
          "warp": {"kind": "powerlaw", "lam": 2.0, "pivot": 0.5}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert "pivot 0.5 is below b" in report["error"]
    assert "vanish failed" in capsys.readouterr().err


def test_vanish_asymptotic_flag(tmp_path):
    sc = {
        "command": "vanish",
        "n": 4,
        "k": 3,
        "p": 2,
        "q": "5/2",
        "warp": {"kind": "powerlaw", "lam": 2.0},
        "hdr_zero": True,
        "asymptotic": True,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    assert report["delegated"] is True and report["m"] == 5


def test_vanish_sampled_warp_matches_library(tmp_path):
    ts = 1.0 - 2.0 ** (-np.arange(33) / 4.0)
    xs = np.arange(16) / 16
    h = np.exp(ts)[:, None] * (2.0 + np.sin(2 * np.pi * xs))[None, :]
    sc = {
        "command": "vanish", "n": 2, "k": 1, "p": 2, "q": 2, "hdr_zero": True,
        "warp": {"kind": "sampled", "t": ts.tolist(), "values": h.ravel().tolist(),
                 "shape": list(h.shape)},
    }
    code, _, path = _run(tmp_path, sc)
    rep = criterion_check(CriterionInput(2, 1, 2.0, 2.0, (0.0, 1.0), warp_profiles(ts, h),
                                         hdr_zero=True))
    rep["command"] = "vanish"
    # bounded h: the fitted tail cannot tell it from |log|-growing twisting
    assert rep["verdict"] == "UNDECIDED" and code == 2
    assert path.read_text() == render_canonical(rep) + "\n"


def test_readme_sampled_scenario_matches_library(tmp_path):
    # n = 2, k = 1 and p = 2 give v = k - n/p = 0, so int g^v converges
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [json.loads(b.split("```")[0]) for b in readme.split("```json\n")[1:]]
    sc, = [b for b in blocks if b.get("warp", {}).get("kind") == "sampled"]
    code, _, path = _run(tmp_path, sc)
    h = np.asarray(sc["warp"]["values"], dtype=float).reshape(sc["warp"]["shape"])
    rep = criterion_check(CriterionInput(sc["n"], sc["k"], sc["p"], sc["q"], (0.0, 1.0),
                                         warp_profiles(sc["warp"]["t"], h), hdr_zero=True))
    rep["command"] = "vanish"
    assert code == 2 and rep["verdict"] == "HYPOTHESES-FAIL" and rep["route"] == "fitted-tail"
    assert rep["failed"] == ["I3: int g^(k-n/p) divergent does not hold"]
    assert path.read_text() == render_canonical(rep) + "\n"


def test_vanish_sampled_warp_needs_t(tmp_path, capsys):
    sc = {"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 2,
          "warp": {"kind": "sampled", "values": [1.0] * 12, "shape": [4, 3]}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    assert capsys.readouterr().err == "schema error: 't' is a required property (at warp)\n"


# one warp of each kind that the schema accepts, and the key it requires
WARPS = {
    "powerlaw": ({"lam": 0.5, "pivot": 1.0}, "lam"),
    "powerlaw-pair": ({"lam_s": 0.5, "lam_g": 0.25, "pivot": 1.0}, "lam_g"),
    "sampled": ({"t": [0.0, 0.5], "values": [1.0] * 4, "shape": [2, 2]}, "t"),
    "profile": ({"profile": {"kind": "powerlaw", "lam": 0.5, "pivot": 1.0}}, "profile"),
}


@pytest.mark.parametrize("kind", sorted(WARPS))
def test_warp_schema_per_kind(tmp_path, capsys, kind):
    # each kind names its required keys and refuses any other, before the
    # handler runs: no report is written
    keys, required = WARPS[kind]
    sc = {"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 2, "warp": {"kind": kind, **keys}}
    jsonschema.validate(sc, SCHEMA)
    missing = {key: v for key, v in sc["warp"].items() if key != required}
    code, report, _ = _run(tmp_path, {**sc, "warp": {**missing, required + "_x": 0.5}})
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"schema error: {required!r} is a required property (at warp)\n"
    code, report, _ = _run(tmp_path, {**sc, "warp": {**sc["warp"], "lam_x": 0.5}})
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert "'lam_x' was unexpected" in err and err.endswith("(at warp)\n")


def test_warp_schema_refuses_unknown_kind(tmp_path, capsys):
    for warp in ({"kind": "spline", "lam": 0.5}, {"lam": 0.5}, 5):
        sc = {"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 2, "warp": warp}
        code, report, _ = _run(tmp_path, sc)
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith("schema error: ")


def test_twisted_cylinder_domain_is_an_error(tmp_path, capsys):
    # no route reads a warp, so a warped domain is refused rather than
    # ignored: the domain schema knows neither the kind nor the key
    dom = {"kind": "twisted-cylinder", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [9, 8],
           "periodic": [False, True], "warp": [1.0] * 72}
    sc = {"command": "constant", "domain": dom, "k": 1, "p": 2, "q": 2}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and err.endswith("(at domain)\n"), err


def test_report_byte_identical(tmp_path):
    sc = {
        "command": "vanish",
        "n": 4,
        "k": 3,
        "p": 2,
        "q": "5/2",
        "warp": {"kind": "powerlaw", "lam": 2.0},
        "hdr_zero": True,
    }
    _, _, path1 = _run(tmp_path, sc, name="a.json")
    first = hashlib.md5(path1.read_bytes()).hexdigest()
    _, _, path2 = _run(tmp_path, sc, name="a.json")
    assert hashlib.md5(path2.read_bytes()).hexdigest() == first


def _run_process(tmp_path, path, extra=(), preexec_fn=None):
    """Run the CLI on a scenario in a child process, where a hang or a
    huge allocation can be cut by the timeout; preexec_fn runs in the
    child before the CLI starts."""
    src = str(Path(cylcoh.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cylcoh", "--scenario", str(path), "--out", str(tmp_path)]
        + list(extra),
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=preexec_fn,
    )


def test_oversized_resolution_is_a_schema_error(tmp_path):
    # 1e+308 is an integer to JSON Schema; without a maximum region_grid
    # would walk a 1e308 x 1e308 grid, so run it where a hang can be cut
    p = _write(tmp_path, "huge.json", {"command": "region", "n": 4, "k": 3,
                                       "lambda": 2, "resolution": 1e308})
    assert '"resolution": 1e+308' in p.read_text()
    proc = _run_process(tmp_path, p)
    assert proc.returncode == 1
    assert "schema error" in proc.stderr


@pytest.mark.parametrize(
    "sc",
    [
        {"command": "glue", "surface": "cylinder-s1", "grid": [10**6 + 1, 10**6],
         "degree": 1},
        {"command": "homotopy-check", "degree": 1,
         "domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 2, "grid": [10**6, 10**6]}},
    ],
    ids=["top-level", "domain"],
)
def test_oversized_grid_is_a_schema_error(tmp_path, sc):
    # a 10^6-point axis would ask for terabytes of fields: the schema
    # refuses it before any handler runs, so no report is written
    p = _write(tmp_path, "huge.json", sc)
    proc = _run_process(tmp_path, p)
    assert proc.returncode == 1
    assert "schema error" in proc.stderr and str(GRID_MAX) in proc.stderr
    assert not (tmp_path / "huge.report.json").exists()


def test_grid_scale_beyond_maximum_is_an_error(tmp_path):
    # 129 nodes scaled by 4 is 513 > GRID_MAX: the handler stops before
    # sampling a field and the run gets an error report
    sc = dict(BOX33, grid=[33, 129])
    p = _write(tmp_path, "scaled.json",
               {"command": "homotopy-check", "degree": 1, "domain": sc})
    proc = _run_process(tmp_path, p, ["--grid-scale", "4"])
    assert proc.returncode == 1
    report = json.loads((tmp_path / "scaled.report.json").read_text())
    assert f"exceeds {GRID_MAX} points per axis" in report["error"]


def _limit_address_space():
    # the child's own limit: 3 GiB holds the interpreter and numpy, and no
    # grid-sized array of a refused grid, so a missed bound fails fast
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "sc, extra",
    [
        ({"command": "constant", "k": 1, "p": 2, "q": 2,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 4, "grid": [257] * 4}}, ()),
        ({"command": "glue", "surface": "cylinder-t2", "grid": [257, 256, 256], "degree": 1}, ()),
        # 65 nodes scaled by 2.5 is 161 per axis, within GRID_MAX; 161^3 is not
        ({"command": "homotopy-check", "degree": 1,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 3, "grid": [65] * 3}},
         ("--grid-scale", "2.5")),
    ],
    ids=["4-D", "glue", "scaled"],
)
def test_grid_points_bounded_before_sampling(tmp_path, sc, extra):
    # each axis is within GRID_MAX, but the grid holds more than
    # GRID_POINTS points: the handler stops with one error line and an
    # error report before any grid-sized array is made (a 257^4 field
    # alone is 32.5 GiB)
    p = _write(tmp_path, "big.json", sc)
    start = time.perf_counter()
    proc = _run_process(tmp_path, p, extra, preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and f"above {GRID_POINTS} in all" in lines[0], proc.stderr
    report = json.loads((tmp_path / "big.report.json").read_text())
    assert f"above {GRID_POINTS} in all" in report["error"]


@pytest.mark.parametrize(
    "sc, where",
    [
        # 1716 degree-6 components on a 3^13 grid, within GRID_POINTS: about 20 GiB
        ({"command": "homotopy-check", "degree": 6,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 13, "grid": [3] * 13}}, "degree"),
        ({"command": "homotopy-check", "degree": 1,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 13, "grid": [3] * 13}}, "domain/grid"),
        ({"command": "homotopy-check", "degree": 1,
          "domain": dict(BOX33, periodic=[False] * (AXES_MAX + 1))}, "domain/periodic"),
        ({"command": "glue", "surface": "cylinder-t2", "grid": [33] + [32] * AXES_MAX,
          "degree": 1}, "grid"),
    ],
    ids=["13-D-degree-6", "13-D", "periodic", "glue-grid"],
)
def test_axes_and_degree_are_bounded(tmp_path, sc, where):
    # more than AXES_MAX axes, or a degree above it, is a schema error
    # naming the path, refused before any handler runs
    p = _write(tmp_path, "wide.json", sc)
    proc = _run_process(tmp_path, p, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("schema error: "), proc.stderr
    assert lines[0].endswith(f"(at {where})"), proc.stderr
    assert not (tmp_path / "wide.report.json").exists()


def test_region_csv_rows(tmp_path):
    sc = {
        "command": "region",
        "n": 4,
        "k": 3,
        "lambda": 2,
        "p": 2,
        "resolution": 8,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    csv_path = tmp_path / "scen.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "inv_p,inv_q,k,verdict"
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows, "expected member rows at resolution 8"
    assert all(r[3] == "member" for r in rows)
    assert ["1/2", "1/2", "3", "member"] in rows
    for r in rows:
        assert Fraction(r[1]) > Fraction(3, 8), f"1/q must clear the window: {r}"
        assert Fraction(r[0]) < Fraction(5, 8)
    # the q-interval at p=2 is reported exactly
    qiv = report["regions"]["3"]["q_interval"]
    assert qiv["lo"] == "2" and qiv["hi"] == "8/3"
    assert report["member_rows"] == len(rows)


def test_region_members_nest_under_refinement(tmp_path):
    base = {"command": "region", "n": 4, "k": 3, "lambda": 2}

    def members(resolution, name):
        sc = dict(base, resolution=resolution)
        _run(tmp_path, sc, name=name)
        lines = (tmp_path / (name[:-5] + ".csv")).read_text().strip().split("\n")
        return {tuple(ln.split(",")[:2]) for ln in lines[1:]}

    coarse = members(8, "r8.json")
    fine = members(16, "r16.json")
    assert coarse and coarse <= fine


def test_region_empty_is_header_only(tmp_path):
    sc = {"command": "region", "n": 4, "k": 3, "lambda": "9/10"}
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    assert report["member_rows"] == 0
    assert report["regions"]["3"]["empty"] is True
    assert (tmp_path / "scen.csv").read_text() == "inv_p,inv_q,k,verdict\n"


def test_glue_small_scenario(tmp_path):
    sc = {
        "command": "glue",
        "surface": "cylinder-s1",
        "grid": [33, 32],
        "degree": 1,
        "count": 1,
        "amplitude": 3e-6,
        "tolerance": 1e-4,
        "seed": 5,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    assert report["pass"] is True
    assert report["residual_max"] <= 1e-4
    assert len(report["runs"][0]["stages"]) == 1


@pytest.mark.parametrize("surface, grid",
                         [("cylinder-s1", [33, 16]), ("cylinder-t2", [9, 16, 16])])
def test_glue_too_coarse_for_the_cover_is_an_error(tmp_path, capsys, surface, grid):
    # 16 nodes give the cover's arcs 2-node overlaps: refused when the cover
    # is built, before any descent
    sc = {"command": "glue", "surface": surface, "grid": grid, "degree": 1, "count": 1,
          "tolerance": 1e-2, "amplitude": 1e-7}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert "refine the grid" in report["error"]
    err = capsys.readouterr().err
    assert err.startswith("error: glue failed:") and err.count("\n") == 1, err
    assert "refine the grid" in err


@pytest.mark.parametrize("field, message", [({"grid": [33, 32, 32]}, "grid needs 2 axes for cylinder-s1"),
                                            ({"degree": 0}, "glue needs degree >= 1"),
                                            ({"p": 3, "q": 2}, "need q >= p >= 1"),
                                            ({"p": "1/2", "q": 2}, "need q >= p >= 1")],
                         ids=["grid-length", "degree-0", "q<p", "p<1"])
def test_glue_malformed_scenario_is_an_error(tmp_path, capsys, field, message):
    # each passes the schema and is refused by the handler, with one error line
    sc = {"command": "glue", "surface": "cylinder-s1", "grid": [33, 32], "degree": 1,
          "count": 1, **field}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert report == {"command": "glue", "error": message}
    assert capsys.readouterr().err == f"error: glue failed: {message}\n"


@pytest.mark.parametrize("sc, key",
                         [({"command": "region", "n": 4, "k": 3, "lam": 2, "p": 2}, "lam"),
                          ({"command": "glue", "surface": "cylinder-s1", "grid": [33, 32],
                            "degree": 1, "patch_tol": 1e-9}, "patch_tol")],
                         ids=["lam", "patch_tol"])
def test_removed_keys_are_refused(tmp_path, capsys, sc, key):
    # a removed key is an unknown key to the schema: one error line naming
    # it, and no report, not a scenario run as if it were unset
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("schema error: ") and f"{key!r}" in err


def test_unknown_key_is_refused(tmp_path, capsys):
    # a misspelled key is a schema error, not a scenario run as if it were unset
    sc = {"command": "region", "n": 4, "k": 3, "lamda": 2, "p": 2}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("schema error: ") and "'lamda'" in err


VANISH = {"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 3,
          "warp": {"kind": "powerlaw", "lam": 0.2}}
REGION = {"command": "region", "n": 4, "k": 3, "lambda": 2, "p": 2}
CONSTANT = {"command": "constant", "domain": BOX33, "k": 1, "p": 2, "q": 3}


@pytest.mark.parametrize("sc, where", [
    (dict(VANISH, hdr_zero="false"), "hdr_zero"),
    (dict(CONSTANT, k=3.7), "k"),
    (dict(VANISH, k=-1), "k"),
    (dict(CONSTANT, k=[1]), "k"),
    (dict(REGION, k=3.7), "k"),
    (dict(REGION, k=[]), "k"),
    (dict(REGION, b_infinite="no"), "b_infinite"),
    (dict(CONSTANT, pbar=True), "pbar"),
    (dict(VANISH, fiber="spehre"), "fiber"),
    (dict(REGION, **{"lambda": "two"}), "lambda"),
    (dict(REGION, lam_g=[1]), "lam_g"),
], ids=["hdr_zero-string", "k-float", "k-negative", "k-list-outside-region", "region-k-float",
        "region-k-empty", "b_infinite-string", "pbar-bool", "fiber-misspelt", "lambda-word",
        "lam_g-list"])
def test_top_level_scalars_are_typed(tmp_path, capsys, sc, where):
    # each was once passed through untyped and run as something else
    # ("false" as true, 3.7 as 3, true as 1): one schema error at its path
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("schema error: "), err
    assert err.endswith(f"(at {where})\n"), err


@pytest.mark.parametrize("sc", [dict(REGION, k=[1, 2]), dict(REGION, **{"lambda": "-3/2"}),
                                dict(REGION, lam_g="1e-1"), dict(VANISH, hdr_zero=None, fiber="sphere"),
                                dict(CONSTANT, pbar="3/2")],
                         ids=["region-k-list", "lambda-fraction", "lam_g-exponent", "sphere",
                              "pbar-fraction"])
def test_typed_scalars_take_their_values(tmp_path, sc):
    code, report, _ = _run(tmp_path, sc)
    assert code in (0, 2) and report is not None and "error" not in report


def test_untyped_schema_keys_are_the_handlers_own():
    # the keys the schema passes through as {} are checked by their handlers
    untyped = {key for key, rule in SCHEMA["properties"].items() if rule == {}}
    assert untyped == {"alpha", "beta", "gamma", "weight", "t_bounds", "fiber_bounds"}


def test_glue_grid_scale_keeps_the_cover_fine_enough(tmp_path):
    # halving the README's 33x32 glue keeps 32 nodes on the periodic axis,
    # the fewest the circle cover accepts
    sc = {"command": "glue", "surface": "cylinder-s1", "grid": [33, 32], "degree": 1,
          "count": 1, "amplitude": 3e-6, "tolerance": 1e-4, "seed": 5}
    code, report, _ = _run(tmp_path, sc, extra=["--grid-scale", "0.5"])
    assert code == 0 and report["pass"] is True
    assert report["grid"] == [17, 32]


def test_glue_divergent_beta_refuses(tmp_path):
    sc = {
        "command": "glue",
        "surface": "cylinder-s1",
        "grid": [33, 32],
        "degree": 1,
        "count": 1,
        "amplitude": 3e-6,
        "beta": {"kind": "powerlaw", "lam": 2.0, "pivot": 1.0},
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 2
    assert report["verdict"] == "HYPOTHESES-FAIL"
    assert "||beta||_{L^q[a,b)} divergent" in report["refusal"]


def test_homotopy_identity_scenario(tmp_path):
    sc = {
        "command": "homotopy-check",
        "domain": BOX33,
        "degree": 1,
        "count": 2,
        "amplitude": 5e-5,
        "tolerance": 1e-4,
        "seed": 1,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    assert report["pass"] is True
    assert len(report["residuals"]) == 2


def test_homotopy_check_draws_from_forms_family(tmp_path):
    # the scenario's form is forms.random_form's draw from the seed
    sc = {
        "command": "homotopy-check",
        "domain": BOX33,
        "degree": 1,
        "count": 1,
        "amplitude": 5e-5,
        "tolerance": 1e-4,
        "seed": 4,
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 0
    dom = box(BOX33["bounds"], BOX33["grid"])
    om = random_form(dom, 1, np.random.default_rng(4), 5e-5)
    y = [0.5, 0.5]
    recon = K_y(exterior_derivative(om), y) + exterior_derivative(K_y(om, y))
    assert report["residuals"] == [(recon - om).max_abs() / om.max_abs()]


def test_homotopy_averaged_reads_fraction_exponents(tmp_path):
    sc = {"command": "homotopy-check", "degree": 1, "count": 2, "mode": "averaged",
          "p": "3/2", "q": "5/2", "amplitude": 5e-5, "tolerance": 1e-3,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [17, 17]}}
    code, exact, _ = _run(tmp_path, sc, name="fractions.json")
    assert code == 0
    code, floats, _ = _run(tmp_path, dict(sc, p=1.5, q=2.5), name="floats.json")
    assert code == 0
    assert exact["norm_ratio_max"] == floats["norm_ratio_max"]


def test_homotopy_inadmissible_weight_refuses(tmp_path):
    sc = {
        "command": "homotopy-check",
        "domain": {"kind": "box", "bounds": [[0.0, 1.0]], "grid": [33]},
        "degree": 1,
        "mode": "averaged",
        "weight": {"kind": "powerlaw", "lam": 1.0, "pivot": 1.0},
    }
    code, report, _ = _run(tmp_path, sc)
    assert code == 2
    assert "inadmissible centering weight" in report["refusal"]


def test_homotopy_averaged_refuses_full_grid_weight(tmp_path, capsys):
    # a unit-mass full-grid weight passes the admissibility check, and
    # A_alpha refuses it: it takes constant and sampled-t weights only
    sc = {"command": "homotopy-check", "degree": 1, "count": 1, "mode": "averaged",
          "domain": BOX33,
          "weight": {"kind": "sampled", "values": [1.0] * 33 * 33, "shape": [33, 33]}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert "constant or sampled-t centering weight" in report["error"]
    _one_line_error(capsys, "error: homotopy-check failed: A_alpha takes a constant or sampled-t")


@pytest.mark.parametrize("exponents", [{"p": 3, "q": 2}, {"p": "1/2"}, {"p": "1/2", "q": 2}],
                         ids=["q<p", "p<1", "p<1-with-q"])
def test_homotopy_averaged_refuses_exponents_out_of_order(tmp_path, capsys, monkeypatch, exponents):
    # as glue and constant do: q >= p >= 1, refused before any form is
    # drawn (p = 3, q = 2 once ran and reported a norm_ratio_max of 0.1505)
    drawn = []
    monkeypatch.setattr(cli, "random_form", lambda *args: drawn.append(args))
    sc = {"command": "homotopy-check", "degree": 1, "mode": "averaged", "tolerance": 0.5,
          "domain": {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [17, 17]},
          **exponents}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and drawn == []
    assert report == {"command": "homotopy-check", "error": "need q >= p >= 1"}
    assert capsys.readouterr().err == "error: homotopy-check failed: need q >= p >= 1\n"


@pytest.mark.parametrize("y, shape", [([0.5, 0.5, 7.0], "(3,)"), ([0.5], "(1,)")])
def test_homotopy_refuses_a_center_of_the_wrong_length(tmp_path, capsys, y, shape):
    # K_y takes one coordinate of y per axis, so a longer y is not run at
    # its first two coordinates and a shorter one fails by name
    sc = {"command": "homotopy-check", "degree": 1, "count": 1, "y": y,
          "domain": {"kind": "box", "bounds": [[0, 1], [0, 1]], "grid": [9, 9]}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and "error" in report
    _one_line_error(capsys, f"error: homotopy-check failed: y has shape {shape}, "
                            "the 2-D domain needs (2,)")


def test_homotopy_center_is_an_array_of_numbers(tmp_path, capsys):
    sc = {"command": "homotopy-check", "degree": 1, "domain": BOX33, "y": [0.5, "0.5"]}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and err.endswith("(at y/1)\n"), err


def test_homotopy_averaged_admits_unit_mass_powerlaw_past_the_edge(tmp_path, capsys):
    # the weight check takes the law's exact mass, 1, so the weight is not
    # refused as inadmissible (exit 2); A_alpha then refuses the power law
    sc = {"command": "homotopy-check", "degree": 1, "count": 1, "mode": "averaged",
          "domain": BOX33, "weight": {"kind": "powerlaw", "lam": 0.5, "pivot": 1.5625}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 1
    assert "constant or sampled-t centering weight" in report["error"]
    _one_line_error(capsys, "error: homotopy-check failed: A_alpha takes a constant or sampled-t")


def test_grid_scale_flag(tmp_path):
    sc = {
        "command": "homotopy-check",
        "domain": BOX33,
        "degree": 1,
        "count": 1,
        "amplitude": 5e-5,
        "tolerance": 1e-3,
    }
    code, report, _ = _run(tmp_path, sc, extra=["--grid-scale", "0.5"])
    assert code == 0
    assert report["domain"]["grid"] == [17, 17]


def test_constant_routes(tmp_path, capsys):
    dom1d = {"kind": "box", "bounds": [[0.0, 1.0]], "grid": [65]}
    sc = {"command": "constant", "domain": dom1d, "k": 1, "p": 2, "q": 2}
    code, report, _ = _run(tmp_path, sc, name="c_box.json")
    assert code == 0
    assert report["finite"] is True
    assert abs(report["C1"] - (2.0 - 2.0**0.5)) <= 2e-4

    # the box route's C1 at beta = 1 is the closed box bound: no second
    # route gives it
    code, report, _ = _run(tmp_path, dict(sc, route="corollary"), name="c_cor.json")
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("schema error: ") and err.endswith("(at route)\n")

    sc = {
        "command": "constant",
        "domain": dom1d,
        "k": 1,
        "p": 2,
        "q": 2,
        "route": "cylinder",
        "beta": {"kind": "powerlaw", "lam": 2.0, "pivot": 1.0},
    }
    code, report, _ = _run(tmp_path, sc, name="c_cyl.json")
    assert code == 2
    assert report["verdict"] == "HYPOTHESES-FAIL"
    assert "||beta||_{L^q[a,b)} divergent" in report["hypothesis_failures"]


def test_constant_cylinder_echoes_two_weights(tmp_path):
    # a sampled-t alpha, a sampled-t gamma and pbar through the cylinder
    # route: the request echoes all three, and 1/gamma and alpha are the
    # same interpolant of (0.5, 1.5, 0.5) at the knots (0, 0.3, 1), whose
    # L^2 norm is (13/12)^(1/2) and mass 1
    alpha = {"kind": "sampled-t", "t": [0.0, 0.3, 1.0], "values": [0.5, 1.5, 0.5]}
    gamma = {"kind": "sampled-t", "t": [0.0, 0.3, 1.0], "values": [2.0, 2.0 / 3.0, 2.0]}
    sq = {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]], "grid": [9, 9]}
    sc = {"command": "constant", "domain": sq, "k": 1, "p": 2, "q": 2, "pbar": 1,
          "route": "cylinder", "alpha": alpha, "gamma": gamma, "t_nodes": 8}
    code, report, _ = _run(tmp_path, sc)
    assert code == 0 and report["hypothesis_failures"] == []
    assert report["request"]["alpha"] == alpha
    assert report["request"]["gamma"] == gamma
    assert report["request"]["pbar"] == 1.0
    norm = (13.0 / 12.0) ** 0.5
    assert abs(report["Q"] - norm) <= 1e-13
    assert abs(report["alpha_norm"] - norm) <= 1e-13


WARP_1E400 = ('{"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 3, "warp": {"kind": "sampled", '
              '"t": [0.1, 0.2, 0.3, 0.4, 0.5], "values": [[1, 1], [2, 2], [3, 3], [4, 4], [1e400, 5]]}}')
BETA = ('{"command": "constant", "route": "cylinder", "k": 1, "p": 2, "q": 2, '
        '"domain": {"kind": "box", "bounds": [[0.0, 1.0]], "grid": [17]}, '
        '"beta": {"kind": "sampled-t", "t": [0.0, 0.5, 1.0], "values": [1.0, %s, 2.0]}}')


@pytest.mark.parametrize("text, where", [
    (WARP_1E400, "warp/values/4/0"),
    (BETA % "Infinity", "beta/values/1"),
    (BETA % "1e400", "beta/values/1"),
    (BETA % "-Infinity", "beta/values/1"),
    (BETA % "NaN", "beta/values/1"),
])
def test_non_finite_numbers_are_schema_errors(tmp_path, capsys, text, where):
    # json.loads reads 1e400 and the Infinity and NaN literals as floats;
    # each is refused by its path before any handler runs, so no NaN can
    # reach a warp's fit or a constant's report
    p = tmp_path / "scen.json"
    p.write_text(text)
    assert main(["--scenario", str(p)]) == 1
    assert capsys.readouterr().err == f"schema error: numbers must be finite (at {where})\n"
    assert list(tmp_path.iterdir()) == [p]


def test_inf_as_a_string_stays_valid(tmp_path):
    # the interval's "inf" is a string, no JSON number: the b-infinite route runs
    sc = {"command": "vanish", "n": 2, "k": 1, "p": 2, "q": 3, "interval": [0.0, "inf"],
          "warp": {"kind": "powerlaw", "lam": 1.0, "pivot": 1.0}}
    code, report, _ = _run(tmp_path, sc)
    assert code == 2 and report["route"] == "b-infinite"
