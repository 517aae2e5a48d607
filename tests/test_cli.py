"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); stdout is captured and
parsed back as JSON.  Exit codes: 0 success/pass, 1 failed check, 2
usage or input error.
"""

import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import skewfib
from skewfib import cli
from skewfib.cli import main
from skewfib.contact import gluck_yang_matrix
from skewfib.fibration import Chart, builtin_chart, chart_from_dict, chart_to_dict, fiber_solve

J2 = [[0.0, -1.0], [1.0, 0.0]]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def _write_chart_file(tmp_path, name, **params):
    c = builtin_chart(name, **params)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(chart_to_dict(c)))
    return str(path)


def _write_matrix_file(tmp_path, mat, fname="mat.json"):
    path = tmp_path / fname
    path.write_text(json.dumps({"matrix": np.asarray(mat).tolist()}))
    return str(path)


# ---------------------------------------------------------------------------
# dims


def test_dims_rho(capsys):
    code, data = _run_json(capsys, ["dims", "rho", "12"])
    assert code == 0
    assert data == {"q": 12, "rho": 4}


def test_dims_admissible_exact_output(capsys):
    code, out = _run(capsys, ["dims", "admissible", "2", "6"])
    assert code == 0
    assert out == '{"admissible_skew":true,"admissible_sphere":false}\n'


def test_dims_table(capsys):
    code, data = _run_json(capsys, ["dims", "table", "--max-n", "7"])
    assert code == 0
    rows = {n: ks for n, ks in data["rows"]}
    assert rows[7] == [3, 1]
    assert rows[4] == []


# ---------------------------------------------------------------------------
# build


def test_build_hopf_writes_chart(capsys, tmp_path):
    out_path = tmp_path / "hopf7.json"
    code, data = _run_json(capsys, ["build", "hopf", "--dim", "7", "--out", str(out_path)])
    assert code == 0
    assert data["written"] == str(out_path)
    c = chart_from_dict(json.loads(out_path.read_text()))
    assert c.n == 7 and c.name == "hopf7"


def test_build_emits_chart_without_out(capsys):
    code, data = _run_json(capsys, ["build", "hopf-line", "--m", "2", "--a", "1", "--b", "2"])
    assert code == 0
    assert data["schema"] == "skewfib-chart-v1"
    c = chart_from_dict(data)
    assert c.q == 4


def test_build_bilinear_algebra(capsys, tmp_path):
    out_path = tmp_path / "oct.json"
    code, _ = _run_json(
        capsys, ["build", "bilinear", "--algebra", "octonion", "--kp1", "8", "--out", str(out_path)]
    )
    assert code == 0
    assert chart_from_dict(json.loads(out_path.read_text())).n == 15


def test_build_bilinear_hr(capsys):
    code, data = _run_json(capsys, ["build", "bilinear", "--hr", "4", "3"])
    assert code == 0
    assert data["k"] == 2 and data["q"] == 4


def test_build_bilinear_needs_a_source(capsys):
    code, _ = _run(capsys, ["build", "bilinear"])
    assert code == 2


def test_build_gluck_yang(capsys):
    code, data = _run_json(capsys, ["build", "gluck-yang", "--m", "2"])
    assert code == 0
    c = chart_from_dict(data)
    assert (c.k, c.q, c.kind, c.name) == (1, 4, "linear", "gluck_yang")
    assert np.array_equal(c.C, gluck_yang_matrix(2)[None])


def test_build_from_json_round_trip(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "gluck_yang", m=2)
    code, data = _run_json(capsys, ["build", "from-json", "--in", path])
    assert code == 0
    assert data["builtin"]["name"] == "gluck_yang"


# ---------------------------------------------------------------------------
# verify


def test_verify_skew_pass(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    code, data = _run_json(
        capsys, ["verify", "skew", "--chart", path, "--radius", "50", "--samples", "512"]
    )
    assert code == 0
    assert data["schema"] == "skewfib-report-v1"
    assert data["check"] == "skew"
    assert abs(data["margin"] - 1.0) <= 1e-9


def test_verify_skew_fail_exits_one_with_witnesses(capsys, tmp_path):
    # C = 2I: every pair of fibers is parallel
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({"schema": "skewfib-chart-v1", "kind": "linear", "k": 1, "q": 2,
                                "C": [[[2.0, 0.0], [0.0, 2.0]]]}))
    code, data = _run_json(capsys, ["verify", "skew", "--chart", str(path)])
    assert code == 1
    assert data["verdict"] == "fail"
    assert data["witnesses"]


def test_verify_nondeg_pass_and_fail(capsys, tmp_path):
    good = _write_chart_file(tmp_path, "hopf_line", m=2, a=1.0, b=2.0)
    code, data = _run_json(capsys, ["verify", "nondeg", "--chart", good])
    assert code == 0 and data["verdict"] == "pass"

    bad = tmp_path / "parallel.json"
    bad.write_text(
        json.dumps(
            {
                "schema": "skewfib-chart-v1",
                "kind": "linear",
                "k": 1,
                "q": 2,
                "C": [[[0.0, 0.0], [0.0, 0.0]]],
            }
        )
    )
    code, data = _run_json(capsys, ["verify", "nondeg", "--chart", str(bad)])
    assert code == 1
    assert data["verdict"] == "fail"
    assert data["witnesses"]


def test_verify_certified_payloads_and_zero_chart_k3(capsys, tmp_path):
    """Linear charts the Gram test certifies report pass with the closed
    margin and no pair drawn; the zero chart with k = 3 fails nondeg."""
    path = _write_chart_file(tmp_path, "hopf7")
    code, data = _run_json(capsys, ["verify", "skew", "--chart", path, "--samples", "10000"])
    assert code == 0 and data["verdict"] == "pass" and data["margin"] == 1.0
    assert data["details"]["margin_exact"] is True and data["details"]["pairs_tested"] == 0
    assert 0.0 < data["details"]["certified_lower_bound"] <= 1.0
    assert data["sampling"]["count"] == 10000
    code, data = _run_json(capsys, ["sphere", "complete-check", "--chart", path])
    assert code == 0 and data["verdict"] == "pass" and data["details"]["margin_exact"] is True

    zero = tmp_path / "zero-k3.json"
    zero.write_text(json.dumps({"schema": "skewfib-chart-v1", "kind": "linear", "k": 3, "q": 4,
                                "C": [[[0.0] * 4] * 4] * 3}))
    code, data = _run_json(capsys, ["verify", "nondeg", "--chart", str(zero), "--samples", "200"])
    assert code == 1 and data["verdict"] == "fail"
    assert data["witnesses"] == [{"t": [1.0, 0.0, 0.0, 0.0], "sigma_min": 0.0}]


def test_verify_eigen(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf_line", m=3, a=0.5, b=-1.5)
    code, data = _run_json(capsys, ["verify", "eigen", "--chart", path])
    assert code == 0
    assert data["margin"] == pytest.approx(1.5, abs=1e-12)
    plane = _write_chart_file(tmp_path, "hopf7")
    code, _ = _run(capsys, ["verify", "eigen", "--chart", plane])
    assert code == 2  # needs a linear k = 1 chart


def test_verify_contact_dichotomy(capsys, tmp_path):
    rot = _write_chart_file(tmp_path, "hopf3")
    code, data = _run_json(capsys, ["verify", "contact", "--chart", rot, "--samples", "10"])
    assert code == 0 and data["all_contact"] is True

    gy = _write_chart_file(tmp_path, "gluck_yang", m=2)
    code, data = _run_json(capsys, ["verify", "contact", "--chart", gy, "--point", "0"])
    assert code == 1
    assert data["all_contact"] is False
    assert data["results"][0]["det_margin"] <= 1e-10


def test_verify_invariant_planes(capsys, tmp_path):
    good = _write_matrix_file(tmp_path, np.kron(np.eye(2), np.asarray(J2)), "J4.json")
    code, data = _run_json(capsys, ["verify", "invariant-planes", "--matrix", good])
    assert code == 0
    assert data["a"] == pytest.approx(0.0, abs=1e-12)
    assert data["b"] == pytest.approx(1.0, abs=1e-12)

    mixed = np.zeros((4, 4))
    mixed[:2, :2] = np.asarray(J2)
    mixed[2:, 2:] = 2.0 * np.asarray(J2)
    bad = _write_matrix_file(tmp_path, mixed, "mixed.json")
    code, data = _run_json(capsys, ["verify", "invariant-planes", "--matrix", bad])
    assert code == 1
    assert data["is_invariant"] is False

    real = _write_matrix_file(tmp_path, np.diag([1.0, 2.0]), "real.json")
    code, _ = _run(capsys, ["verify", "invariant-planes", "--matrix", real])
    assert code == 2  # real eigenvalues are an input error, not a failed check


def test_verify_invariant_planes_reads_the_first_matrix_of_a_chart_file(capsys, tmp_path):
    """A chart file given as --matrix stands for its first chart matrix."""
    chart = _write_chart_file(tmp_path, "hopf_line", m=2, a=0.5, b=-1.5)
    mat = _write_matrix_file(tmp_path, builtin_chart("hopf_line", m=2, a=0.5, b=-1.5).C[0])
    argv = ["verify", "invariant-planes", "--samples", "20", "--matrix"]
    code, out = _run(capsys, argv + [chart])
    assert code == 0 and json.loads(out)["a"] == 0.5
    assert (code, out) == _run(capsys, argv + [mat])


def test_verify_invariant_planes_zero_samples_is_input_error(capsys, tmp_path):
    path = _write_matrix_file(tmp_path, np.kron(np.eye(2), np.asarray(J2)), "J4.json")
    code = main(["verify", "invariant-planes", "--matrix", path, "--samples", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "need samples >= 1" in err


def test_verify_invariant_planes_non_finite_matrix_is_input_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"matrix": [[NaN, NaN], [NaN, NaN]]}')
    code, out = _run(capsys, ["verify", "invariant-planes", "--matrix", str(path)])
    assert code == 2
    assert out == ""


def test_verify_eigen_non_finite_chart_is_input_error(capsys, tmp_path):
    path = tmp_path / "nan_chart.json"
    path.write_text('{"kind": "linear", "k": 1, "q": 2, "C": [[[0, NaN], [1, 0]]]}')
    code, out = _run(capsys, ["verify", "eigen", "--chart", str(path)])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# fiber and sample


def test_fiber_report(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    code, data = _run_json(capsys, ["fiber", "--chart", path, "--point", "0 0 1"])
    assert code == 0
    assert data["chart_point"] == [0.0, 1.0]
    assert data["residual"] <= 1e-12
    assert data["distance"] == pytest.approx(1.0, abs=1e-12)
    code, data = _run_json(capsys, ["fiber", "--chart", path, "--point", "0"])
    assert code == 0 and data["chart_point"] == [0.0, 0.0]


def test_fiber_evaluates_b_once_after_the_solve(capsys, tmp_path, monkeypatch):
    """On a germ extension, the fiber verb evaluates B exactly as loading
    the chart and a direct fiber_solve at the same point do, and no more:
    the plane and the printed residual take the B(y) of the solve, with no
    evaluation after it."""
    ext = builtin_chart("germ_extension", blend_r=0.5, base=builtin_chart("quad_germ", eps=0.2))
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(chart_to_dict(ext)))
    calls = []
    b = Chart._b
    monkeypatch.setattr(Chart, "_b", lambda self, ys: calls.append((self.name, len(ys))) or b(self, ys))
    # near, ring and far zones, and a solve through the ring with t != 0
    for point in ([0.0, 0.1, -0.1], [0.0, 0.3, 0.2], [0.0, -2.0, 1.0], [0.4, 0.35, 0.1]):
        x = np.array(point)
        calls.clear()
        y = fiber_solve(chart_from_dict(json.loads(path.read_text())), x)
        direct = list(calls)
        calls.clear()
        code, data = _run_json(capsys, ["fiber", "--chart", str(path), "--point", ",".join(map(repr, point))])
        assert code == 0
        assert ("germ_extension", 1) in direct
        assert calls == direct
        assert data["chart_point"] == y.tolist()
        assert data["residual"] == float(np.linalg.norm(y + ext.B(y) @ x[:1] - x[1:]))


def test_handlers_are_guarded_when_the_parser_is_built(capsys, tmp_path, monkeypatch):
    """main runs the handler that _build_parser guarded, with no guard of
    its own per call; overflow still exits 2: here I + t C has entries
    1e310."""
    hopf = _write_chart_file(tmp_path, "hopf3")
    steep = _write_chart_file(tmp_path, "hopf_line", m=1, a=0.0, b=1e300)
    cli._build_parser()
    monkeypatch.setattr(cli, "overflow_is_invalid", lambda fn: pytest.fail("guard built per call"))
    code, data = _run_json(capsys, ["fiber", "--chart", hopf, "--point", "0,0,1"])
    assert code == 0 and data["chart_point"] == [0.0, 1.0]
    code, _ = _run(capsys, ["fiber", "--chart", steep, "--point", "1e10,1,1"])
    assert code == 2


def test_fiber_answers_where_only_a_squared_norm_overflows(capsys, tmp_path):
    """The residual budget, the printed residual and the distance scale
    before they square, so points whose |x|^2 overflows solve."""
    hopf = _write_chart_file(tmp_path, "hopf3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = _run_json(capsys, ["fiber", "--chart", hopf, "--point", "1e200,1e200,1e200"])
        assert code == 0 and data["chart_point"] == [1.0, -1.0]
        code, data = _run_json(capsys, ["fiber", "--chart", hopf, "--point", "0.5,1e200,-2e200"])
        assert code == 0 and data["chart_point"] == [0.0, -2e200]
        assert data["distance"] == 2e200


def test_fiber_bad_point_dimension(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    code, _ = _run(capsys, ["fiber", "--chart", path, "--point", "1 2"])
    assert code == 2


def test_fiber_non_finite_point_is_input_error(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    code, out = _run(capsys, ["fiber", "--chart", path, "--point", "nan 0 0"])
    assert code == 2
    assert out == ""


def test_sample_random_grid_csv(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    out = tmp_path / "pts.csv"
    code, data = _run_json(
        capsys,
        ["sample", "--chart", path, "--grid", "random:5:2", "--t-range=-1:1",
         "--steps", "3", "--out", str(out)],
    )
    assert code == 0
    assert data["fibers"] == 5 and data["rows"] == 15
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "fiber_id,i1,x1,x2,x3"
    assert len(lines) == 16
    # each row is a point of its fiber
    c = builtin_chart("hopf3")
    grid_bases = {}
    for line in lines[1:]:
        cells = line.split(",")
        fid = int(cells[0])
        x = np.array([float(v) for v in cells[2:]])
        y = fiber_solve(c, x)
        grid_bases.setdefault(fid, y)
        assert np.max(np.abs(grid_bases[fid] - y)) <= 1e-9


def test_sample_circle_and_file_grids(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    out = tmp_path / "c.csv"
    code, data = _run_json(
        capsys, ["sample", "--chart", path, "--grid", "circle:2:8", "--out", str(out)]
    )
    assert code == 0 and data["fibers"] == 8

    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 2\n# comment\n0.5, -0.5\n")
    code, data = _run_json(
        capsys, ["sample", "--chart", path, "--grid", f"file:{pts}", "--out", str(out)]
    )
    assert code == 0 and data["fibers"] == 3


def test_sample_beyond_the_row_limit_is_one_line_error(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf15")
    out = tmp_path / "big.csv"
    code = main(["sample", "--chart", path, "--grid", "random:1:1", "--steps", "100000",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    assert captured.err == "skewfib: error: 1 x 100000^7 sample rows exceed 1048576\n"


def test_sample_bad_grid(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    code, _ = _run(capsys, ["sample", "--chart", path, "--grid", "lattice:3",
                            "--out", str(tmp_path / "x.csv")])
    assert code == 2


# ---------------------------------------------------------------------------
# sphere


def test_sphere_complete_check(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf7")
    code, data = _run_json(capsys, ["sphere", "complete-check", "--chart", path])
    assert code == 0
    assert abs(data["margin"] - 1.0) <= 1e-9


def test_sphere_complete_check_inadmissible(capsys, tmp_path):
    code, chart_data = _run_json(capsys, ["build", "bilinear", "--hr", "4", "3"])
    assert code == 0
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(chart_data))
    code, data = _run_json(capsys, ["sphere", "complete-check", "--chart", str(path)])
    assert code == 1
    assert data["witnesses"][0]["reason"] == "no sphere fibration exists"


def test_sphere_complete_check_dimension_error(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf_line", m=2, a=0.0, b=1.0)  # n = 5, k = 1
    code, _ = _run(capsys, ["sphere", "complete-check", "--chart", path])
    assert code == 2


def test_sphere_assemble(capsys, tmp_path):
    mat = _write_matrix_file(tmp_path, J2)
    out = tmp_path / "circles.csv"
    code, data = _run_json(
        capsys,
        ["sphere", "assemble", "--matrix", mat, "--point", "0",
         "--theta-steps", "16", "--out", str(out)],
    )
    assert code == 0
    assert len(data["circles"]) == 1
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "circle_id,theta,x1,x2,x3,x4"
    assert len(lines) == 17
    # all exported points are unit vectors
    for line in lines[1:]:
        row = np.array([float(v) for v in line.split(",")[2:]])
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-12


@pytest.mark.parametrize("point, norm", [("0 0 0 0", "0.0")])
def test_sphere_assemble_point_without_finite_norm_is_one_line_error(capsys, tmp_path, point, norm):
    mat = _write_matrix_file(tmp_path, J2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sphere", "assemble", "--matrix", mat, "--point", point])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"skewfib: error: sphere point must have a nonzero finite norm, got {norm}\n"


def test_sphere_assemble_at_a_point_whose_squared_norm_overflows(capsys, tmp_path):
    """|p|^2 = 2e616 overflows, but unit scales p first, so the point gets
    the circle of its direction."""
    mat = _write_matrix_file(tmp_path, J2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, far = _run(capsys, ["sphere", "assemble", "--matrix", mat, "--point", "1e308 1e308 0 0"])
    assert code == 0
    assert far == _run(capsys, ["sphere", "assemble", "--matrix", mat, "--point", "1 1 0 0"])[1]


def test_sphere_assemble_at_sampled_points(capsys, tmp_path):
    """Without --point the circles go through --samples points drawn from
    the seeded stream, one frame of S^3 per point."""
    mat = _write_matrix_file(tmp_path, J2)
    argv = ["sphere", "assemble", "--matrix", mat, "--samples", "3", "--seed", "7"]
    code, data = _run_json(capsys, argv)
    assert code == 0 and data["written"] is None
    frames = np.array(data["circles"])
    assert frames.shape == (3, 4, 2)
    assert np.allclose(frames.transpose(0, 2, 1) @ frames, np.eye(2), atol=1e-12)
    assert _run_json(capsys, argv) == (code, data)


def test_sphere_probe(capsys, tmp_path):
    mat = _write_matrix_file(tmp_path, np.kron(np.eye(2), np.asarray(J2)), "J4.json")
    code, data = _run_json(
        capsys, ["sphere", "probe", "--matrix", mat, "--distance", "1e-4", "--samples", "4"]
    )
    assert code == 0
    assert data["converged"] is True
    assert data["max_angle"] <= 1e-3
    code, data = _run_json(
        capsys,
        ["sphere", "probe", "--matrix", mat, "--distance", "1e-1",
         "--samples", "4", "--threshold", "1e-9"],
    )
    assert code == 1


# ---------------------------------------------------------------------------
# contact and germ verbs


def test_contact_check_verb(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf_line", m=2, a=0.0, b=1.0)
    code, data = _run_json(capsys, ["contact", "check", "--chart", path, "--samples", "5"])
    assert code == 0
    assert len(data["results"]) == 5


def test_contact_points_file(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.5 0.5\n")
    code, data = _run_json(capsys, ["contact", "check", "--chart", path, "--points", str(pts)])
    assert code == 0
    assert len(data["results"]) == 2


def test_contact_points_file_without_points_is_one_line_error(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    pts = tmp_path / "pts.txt"
    pts.write_text("# chart points\n\n   # none yet\n")
    code = main(["contact", "check", "--chart", path, "--points", str(pts)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"skewfib: error: no points found in {pts}\n"


def test_contact_check_zero_chart(capsys, tmp_path):
    """d(alpha) = 0 at every point of the zero chart: each margin is 0 and
    the zero scale raises no floating-point error."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(chart_to_dict(Chart(1, 2, "linear", C=(np.zeros((2, 2)),)))))
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n0.5 -1\n3 2\n")
    code = main(["contact", "check", "--chart", str(path), "--points", str(pts)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    data = json.loads(captured.out)
    assert [r["det_margin"] for r in data["results"]] == [0.0, 0.0, 0.0]
    assert data["all_contact"] is False


def test_germ_extend(capsys, tmp_path):
    germ = _write_chart_file(tmp_path, "quad_germ", eps=0.05)
    out = tmp_path / "ext.json"
    code, data = _run_json(capsys, ["germ", "extend", "--chart", germ, "--out", str(out)])
    assert code == 0
    ext = chart_from_dict(json.loads(out.read_text()))
    assert ext.name == "germ_extension"
    # the written extension solves fibers like the in-process one
    x = np.array([0.5, 1.0, -2.0])
    assert np.linalg.norm(fiber_solve(ext, x) - fiber_solve(
        builtin_chart("germ_extension", blend_r=ext.params["blend_r"],
                      base=builtin_chart("quad_germ", eps=0.05)), x)) <= 1e-12


def test_germ_extend_failure_is_a_report(capsys, tmp_path):
    """A failed blend schedule is a germ-extend report whose verdict derives
    from its one witness; the rest comes from the last blend tried."""
    steep = builtin_chart("germ_extension", blend_r=1.0, base=builtin_chart("quad_germ", eps=1e10))
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(chart_to_dict(steep)))
    out = tmp_path / "ext.json"
    argv = ["germ", "extend", "--chart", str(path), "--radius", "1", "--samples", "500",
            "--out", str(out)]
    code, data = _run_json(capsys, argv)
    assert code == 1
    assert not out.exists()
    assert data["check"] == "germ-extend" and data["verdict"] == "fail"
    assert data["witnesses"] == [
        {"blend_r": 1.0, "reason": "no nondegenerate blend found down to radius 9.537e-07"}
    ]
    assert data["margin"] == 0.0
    assert data["details"]["exact"] is False
    assert data["sampling"] == {"count": 500, "mode": "pseudo-random", "radius": 10.0 / 2**20,
                                "seed": 20}
    assert data["schema"] == cli.REPORT_SCHEMA


# ---------------------------------------------------------------------------
# process behavior


def test_byte_reproducibility(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf7")
    argv = ["verify", "skew", "--chart", path, "--samples", "256", "--seed", "7"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("chart", ["hopf7", "gluck_yang"])
def test_negative_seed_is_one_line_error(capsys, tmp_path, chart):
    """--seed -1 is an input error on a chart the Gram test certifies
    (hopf7, which draws no sample) and on a sampled one alike: exit 2,
    one stderr line and nothing on stdout."""
    path = _write_chart_file(tmp_path, chart, **({"m": 2} if chart == "gluck_yang" else {}))
    code = main(["verify", "skew", "--chart", path, "--seed", "-1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "skewfib: error: need a seed >= 0, got -1\n"


def test_low_discrepancy_skew_on_a_64_dimensional_zero_chart(capsys, tmp_path):
    """The zero chart on R^65 draws 64-dimensional low-discrepancy pairs:
    its fibers are all parallel, so the verdict is fail with a witness."""
    path = tmp_path / "zero-q64.json"
    path.write_text(json.dumps({"schema": "skewfib-chart-v1", "kind": "linear", "k": 1, "q": 64,
                                "C": [np.zeros((64, 64)).tolist()]}))
    code, data = _run_json(capsys, ["verify", "skew", "--chart", str(path), "--samples", "64",
                                    "--mode", "low-discrepancy"])
    assert code == 1 and data["verdict"] == "fail" and data["witnesses"]
    assert data["sampling"]["mode"] == "low-discrepancy"


def test_seed_changes_report(capsys, tmp_path):
    path = _write_chart_file(tmp_path, "hopf7")
    _, out1 = _run(capsys, ["verify", "skew", "--chart", path, "--samples", "64", "--seed", "1"])
    _, out2 = _run(capsys, ["verify", "skew", "--chart", path, "--samples", "64", "--seed", "2"])
    assert out1 != out2


def test_usage_errors(capsys, tmp_path):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify", "skew", "--chart", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "skew", "--chart", str(bad)]) == 2
    capsys.readouterr()


HUGE_CHART = '{"kind": "linear", "k": 1, "q": 2, "C": [[[1e308, -1e308], [1e308, 1e308]]]}'
# its eigenvalues are 0 and 3e308, beyond the float range
ROT_BEYOND_CHART = '{"kind": "linear", "k": 1, "q": 2, "C": [[[1.5e308, -1.5e308], [1.5e308, 1.5e308]]]}'
BEYOND_CHART = '{"kind": "linear", "k": 1, "q": 2, "C": [[[1.5e308, 1.5e308], [1.5e308, 1.5e308]]]}'


def test_non_finite_report_value_is_input_error(capsys, tmp_path):
    """A value that would overflow to inf ends in an input error with
    nothing on stdout, never in a bare Infinity; a non-finite value that
    reaches a report anyway is refused by the strict JSON writer."""
    path = tmp_path / "beyond.json"
    path.write_text(BEYOND_CHART)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "eigen", "--chart", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "skewfib: error: math range error\n"
    mat = _write_matrix_file(tmp_path, J2)
    code = main(["sphere", "probe", "--matrix", mat, "--samples", "2", "--threshold", "inf"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "skewfib: error: Out of range float values are not JSON compliant\n"


_GERM = {"schema": "skewfib-chart-v1", "kind": "builtin", "k": 1, "q": 2,
         "builtin": {"name": "quad_germ", "params": {"eps": 0.05}}}
_BLEND = "germ_extension parameter blend_r must be finite and > 0, got {}"
_BAD_SMOOTH = [
    *(("germ_extension", {"blend_r": v, "base": _GERM}, _BLEND.format(v))
      for v in (0.0, -1.0, math.nan, math.inf)),
    ("germ_extension", {"blend_r": 2.0, "base": _GERM},
     "germ_extension parameter blend_r must be <= the base's domain radius 1.0, got 2.0"),
    *(("quad_germ", {"eps": v}, f"quad_germ parameter eps must be finite, got {v}")
      for v in (math.nan, -math.inf)),
]


@pytest.mark.parametrize(
    "name, params, message", _BAD_SMOOTH,
    ids=["blend-zero", "blend-negative", "blend-nan", "blend-inf", "blend-beyond-domain", "eps-nan",
         "eps-inf"],
)
def test_bad_smooth_chart_parameter_is_one_line_error(capsys, tmp_path, name, params, message):
    """A blend radius that is not finite and positive or exceeds its base's
    domain radius, or a germ eps that is not finite, is an input error when the chart file is read: exit 2 and
    one stderr line, with no warning and nothing on stdout.  json writes
    the non-finite values as NaN and Infinity, which it also reads."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(dict(_GERM, builtin={"name": name, "params": params})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "nondeg", "--chart", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"skewfib: error: {message}\n"


_OVERFLOW = "skewfib: error: overflow encountered in "


@pytest.mark.parametrize(
    "verb, chart, message",
    [
        (["sample", "--grid", "random:4:2"], HUGE_CHART, _OVERFLOW),
        (["contact", "check"], HUGE_CHART, _OVERFLOW),
        (["verify", "contact"], HUGE_CHART, _OVERFLOW),
        (["verify", "skew"], HUGE_CHART, _OVERFLOW),
        # the eigenvalues of HUGE_CHART are representable; these are not
        (["verify", "nondeg"], BEYOND_CHART, "skewfib: error: math range error"),
        (["verify", "eigen"], BEYOND_CHART, "skewfib: error: math range error"),
    ],
    ids=["sample", "contact-check", "verify-contact", "verify-skew", "verify-nondeg", "verify-eigen"],
)
def test_overflowing_chart_is_one_line_error(capsys, tmp_path, verb, chart, message):
    """A finite chart whose products overflow: exit 2, one stderr line,
    no warning, nothing on stdout and no file written."""
    path = tmp_path / "huge.json"
    path.write_text(chart)
    argv = verb + ["--chart", str(path)]
    if verb[0] == "sample":
        argv += ["--out", str(tmp_path / "fibers.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


@pytest.mark.parametrize("verb", ["nondeg", "eigen"])
def test_chart_with_huge_representable_spectrum_answers(capsys, tmp_path, verb):
    """The 2 x 2 closed form scales a block beyond 2^500 first, so the
    spectrum 1e308 +- 1e308 i comes back, with margin 1e308."""
    path = tmp_path / "huge.json"
    path.write_text(HUGE_CHART)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = _run_json(capsys, ["verify", verb, "--chart", str(path)])
    assert code == 0 and data["verdict"] == "pass" and data["margin"] == 1e308
    assert data["details"]["eigenvalues"] == [{"re": 1e308, "im": -1e308}, {"re": 1e308, "im": 1e308}]


@pytest.mark.parametrize("verb", ["nondeg", "eigen"])
def test_chart_whose_eigenvalue_modulus_overflows_passes(capsys, tmp_path, verb):
    """1.5e308 +- 1.5e308 i: the parts are finite, |lambda| is not, and the
    real-eigenvalue test is formed so that it does not overflow."""
    path = tmp_path / "rot.json"
    path.write_text(ROT_BEYOND_CHART)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = _run_json(capsys, ["verify", verb, "--chart", str(path)])
    assert code == 0 and data["verdict"] == "pass" and data["margin"] == 1.5e308
    assert data["witnesses"] == []


_HOPF_LINE = '{"kind": "builtin", "k": 1, "q": 2, "builtin": {"name": "hopf_line", "params": %s}}'
_MALFORMED = [
    ("invariant-planes", '{"C": []}', "matrix file {}: key 'C' must hold a nonempty list of matrices"),
    ("invariant-planes", '{"matrix": {"a": 1}}', "matrix file {} does not hold a square matrix"),
    ("skew", "[1, 2]", "chart data must be a JSON object, got list"),
    ("skew", '{"kind": "linear", "k": 1, "q": 2, "C": 5}',
     "chart data key 'C' must hold a 3-dimensional array of numbers"),
    ("skew", '{"kind": "affine", "k": 1, "q": 2, "C": [[[0, -1], [1, 0]]], "B0": {"a": 1}}',
     "chart data key 'B0' must hold a 2-dimensional array of numbers"),
    ("skew", '{"kind": "linear", "k": [1], "q": 2, "C": []}',
     "chart data key 'k' must hold a number, got [1]"),
    ("skew", '{"kind": "builtin", "k": 1, "q": 2, "builtin": 5}',
     "chart data key 'builtin' must hold an object with an object 'params'"),
    ("skew", '{"kind": "builtin", "k": 1, "q": 2, "builtin": {"name": "germ_extension", '
     '"params": {"blend_r": 0.5, "base": 5}}}',
     "germ_extension parameters key 'base' must hold a chart, got int"),
    ("skew", _HOPF_LINE % '{"m": 1, "b": 1}', "hopf_line parameters missing key 'a'"),
    ("skew", _HOPF_LINE % '{"m": 1e999, "a": 0, "b": 1}', "cannot convert float infinity to integer"),
    ("skew", _HOPF_LINE % '{"m": 2.5, "a": 0, "b": 1}',
     "hopf_line parameters key 'm' must hold an integer, got 2.5"),
    ("skew", '{"kind": "builtin", "k": 1, "q": 4, "builtin": {"name": "gluck_yang", "params": {"m": 2.9}}}',
     "gluck_yang parameters key 'm' must hold an integer, got 2.9"),
    ("skew", '{"kind": "linear", "k": 1.5, "q": 2, "C": [[[0, -1], [1, 0]]]}',
     "chart data key 'k' must hold an integer, got 1.5"),
]


@pytest.mark.parametrize(
    "what, text, message", _MALFORMED,
    ids=["matrix-C-empty", "matrix-dict", "chart-list", "chart-C-int", "chart-B0-dict", "chart-k-list",
         "chart-builtin-int", "germ-base-int", "hopf-line-no-a", "hopf-line-m-inf", "hopf-line-m-half",
         "gluck-yang-m-float", "chart-k-float"],
)
def test_malformed_file_is_one_line_error(capsys, tmp_path, what, text, message):
    """A chart or matrix file of the wrong shape is an input error that
    names the field: exit 2, one stderr line and nothing on stdout, never
    exit 1, which means a failed verification, with a traceback."""
    path = tmp_path / "data.json"
    path.write_text(text)
    flag = "--matrix" if what == "invariant-planes" else "--chart"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", what, flag, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"skewfib: error: {message.format(path)}\n"


_HOPF3_TEXT = json.dumps(
    {"schema": "skewfib-chart-v1", "k": 1, "q": 2, "kind": "linear", "C": [[[0.0, -1.0], [1.0, 0.0]]]},
    indent=1,
)
_LATE = json.dumps({"kind": "linear", "k": 1, "q": 2, "C": [[[0.0, -1.0], [1.0, 0.0]]],
                    "pad": "x" * 10000}).encode()
# (chart file bytes, exit code, stderr) as a text-mode UTF-8 read gave them
_ENCODED = {
    "utf8-bom": (b"\xef\xbb\xbf" + _HOPF3_TEXT.encode(), 2,
                 "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "utf16": (_HOPF3_TEXT.encode("utf-16"), 2,
              "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "utf16-le": (_HOPF3_TEXT.encode("utf-16-le"), 2,
                 "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "invalid-utf8": (_HOPF3_TEXT.encode().replace(b'"linear"', b'"lin\xffear"'), 2,
                     "'utf-8' codec can't decode byte 0xff in position 64: invalid start byte"),
    "invalid-utf8-after-8k": (_LATE[:-3] + b"\xff" + _LATE[-3:], 2,
                              f"'utf-8' codec can't decode byte 0xff in position {len(_LATE) - 3}: "
                              "invalid start byte"),
    "truncated-utf8": (_HOPF3_TEXT.encode() + b"\xe2\x82", 2,
                       "'utf-8' codec can't decode bytes in position 146-147: unexpected end of data"),
    "crlf": (_HOPF3_TEXT.replace("\n", "\r\n").encode(), 0, ""),
    "cr": (_HOPF3_TEXT.replace("\n", "\r").encode(), 0, ""),
    # the character offsets count each line end as one character
    "crlf-bad-json": (_HOPF3_TEXT.replace('"kind"', '"kind" "oops",').replace("\n", "\r\n").encode(),
                      2, "Expecting ':' delimiter: line 5 column 9 (char 59)"),
    "crlf-in-string": (_HOPF3_TEXT.replace('"linear"', '"lin\r\near"').replace("\n", "\r\n").encode(),
                       2, "Invalid control character at: line 5 column 14 (char 64)"),
}


@pytest.mark.parametrize("raw, code, message", _ENCODED.values(), ids=_ENCODED.keys())
def test_chart_file_encodings(capsys, tmp_path, raw, code, message):
    """Chart files are decoded once as strict UTF-8, with line ends
    translated as a text-mode read translates them: a BOM, UTF-16 and
    bytes that are not UTF-8 are one-line input errors, messages count
    characters as before, and CR or CRLF line ends read as LF ones."""
    path = tmp_path / "chart.json"
    path.write_bytes(raw)
    got = main(["verify", "eigen", "--chart", str(path)])
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert (out, err) == ("", f"skewfib: error: {message}\n")
    else:
        path.write_text(_HOPF3_TEXT)
        assert main(["verify", "eigen", "--chart", str(path)]) == 0
        assert (out, err) == (capsys.readouterr().out, "")


_ZERO = "need samples >= 1, got 0"
_RADIUS = "need a finite sampling radius > 0, got {}"

_INPUT_ERRORS = [
    (["verify", "nondeg", "--chart", "@hopf3", "--samples", "0"], _ZERO),
    (["verify", "nondeg", "--chart", "@hopf3", "--samples=-5"], "need samples >= 1, got -5"),
    (["contact", "check", "--chart", "@hopf3", "--samples", "0"], _ZERO),
    (["contact", "check", "--chart", "@hopf3", "--samples=-3"], "need samples >= 1, got -3"),
    (["contact", "check", "--chart", "@hopf3", "--radius=-1"], _RADIUS.format(-1.0)),
    (["contact", "check", "--chart", "@hopf3", "--radius", "0"], _RADIUS.format(0.0)),
    (["contact", "check", "--chart", "@hopf3", "--radius", "nan"], _RADIUS.format("nan")),
    (["verify", "contact", "--chart", "@hopf3", "--samples", "0"], _ZERO),
    (["verify", "contact", "--chart", "@hopf3", "--radius=-1"], _RADIUS.format(-1.0)),
    (["verify", "contact", "--chart", "@hopf3", "--radius", "0"], _RADIUS.format(0.0)),
    (["verify", "contact", "--chart", "@hopf3", "--radius", "inf"], _RADIUS.format("inf")),
    (["sphere", "probe", "--matrix", "@J4", "--samples", "0"], _ZERO),
    (["sphere", "probe", "--matrix", "@J4", "--samples=-1"], "need samples >= 1, got -1"),
    (["sphere", "assemble", "--matrix", "@J4", "--samples", "0", "--out", "!"], _ZERO),
    (["sphere", "assemble", "--matrix", "@J4", "--samples=-2"], "need samples >= 1, got -2"),
    (["sample", "--chart", "@hopf3", "--grid", "random:0:1", "--out", "!"], _ZERO),
    (["sample", "--chart", "@hopf3", "--grid", "random:-2:1", "--out", "!"],
     "need samples >= 1, got -2"),
    (["sample", "--chart", "@hopf3", "--grid", "random:4:-1", "--out", "!"], _RADIUS.format(-1.0)),
    (["sample", "--chart", "@hopf3", "--grid", "random:4:0", "--out", "!"], _RADIUS.format(0.0)),
    (["sample", "--chart", "@hopf3", "--grid", "circle:1:0", "--out", "!"],
     "need at least one base point"),
]


@pytest.mark.parametrize(
    "argv, message", _INPUT_ERRORS, ids=["_".join(argv) for argv, _ in _INPUT_ERRORS]
)
def test_sample_count_and_radius_errors_are_one_line(capsys, tmp_path, argv, message):
    """A sample count below 1, a radius that is not finite and > 0, or an
    empty grid: exit 2 with one stderr line, nothing on stdout and no
    file written, never a verdict on no samples."""
    files = {
        "@hopf3": _write_chart_file(tmp_path, "hopf3"),
        "@J4": _write_matrix_file(tmp_path, np.kron(np.eye(2), np.asarray(J2)), "J4.json"),
        "!": str(tmp_path / "out.csv"),
    }
    before = sorted(p.name for p in tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"skewfib: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_build_hopf_line_non_finite_parameter_is_one_line_error(capsys):
    for flag, value in (("--a", "inf"), ("--b", "nan")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["build", "hopf-line", "--m", "1", flag, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"skewfib: error: hopf_line parameter {flag[2:]} must be finite, got {value}\n"


def test_parser_is_built_once_and_reused(capsys, tmp_path, monkeypatch):
    """main() takes the tree and the leaf table from one build of the one
    cached builder, on leaf commands and help alike: a builder that builds
    afresh is called once per command and gives the same outcomes as the
    cached one, which builds once."""
    hopf = _write_chart_file(tmp_path, "hopf3")
    mat = _write_matrix_file(tmp_path, np.kron(np.eye(2), np.asarray(J2)), "J4.json")
    calls = [
        ["verify", "invariant-planes", "--matrix", mat, "--samples", "20"],
        ["verify", "skew", "--chart", hopf, "--samples", "32"],
        ["--help"],
        ["verify", "skew", "--chart", hopf, "--samples", "many"],
        ["verify", "skew", "--help"],
        ["verify", "invariant-planes", "--matrix", mat, "--seed", "3", "--samples", "20"],
        ["sphere", "complete-check", "--chart", hopf, "--seed", "3"],
        ["verify", "--help"],
        ["verify", "nondeg", "--chart", hopf, "--samples", "32"],
        ["fiber", "--chart", hopf, "--point", "0"],
        ["verify", "contact", "--chart", hopf, "--point", "0"],
    ]
    build = cli._build_parser.__wrapped__
    built = []

    def counted_build():
        built.append(1)
        return build()

    def outcomes():
        results = []
        for argv in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    monkeypatch.setattr(cli, "_build_parser", counted_build)  # a new tree and table on every call
    fresh = outcomes()
    assert len(built) == len(calls)
    built.clear()
    monkeypatch.setattr(cli, "_build_parser", functools.cache(counted_build))
    assert outcomes() == fresh
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert "invalid int value: 'many'" in fresh[3][2]


# One command line per leaf parser, each with its own options.
_LEAF_ARGVS = [
    ["dims", "rho", "8"],
    ["dims", "admissible", "1", "3"],
    ["dims", "table", "--max-n", "9"],
    ["build", "hopf", "--dim", "3", "--out", "h.json"],
    ["build", "hopf-line", "--m", "1", "--a=-0.25"],
    ["build", "gluck-yang", "--m", "2"],
    ["build", "bilinear", "--hr", "4", "3"],
    ["build", "from-json", "--in", "c.json"],
    ["verify", "skew", "--chart", "c.json", "--samp", "64", "--mode", "low-discrepancy"],
    ["verify", "nondeg", "--chart", "c.json", "--radius", "2.5"],
    ["verify", "eigen", "--chart", "c.json"],
    ["verify", "contact", "--chart", "c.json", "--point", "0.5 -1"],
    ["verify", "invariant-planes", "--matrix", "J4.json"],
    ["fiber", "--chart", "c.json", "--point", "0"],
    ["sample", "--chart", "c.json", "--grid", "random:4:1", "--t-range=-2:2", "--out", "s.csv"],
    ["sphere", "complete-check", "--chart", "c.json", "--seed", "7"],
    ["sphere", "assemble", "--matrix", "J4.json", "--theta-steps", "8"],
    ["sphere", "probe", "--matrix", "J4.json", "--distance", "1e-1"],
    ["contact", "check", "--chart", "c.json", "--points", "p.txt"],
    ["germ", "extend", "--chart", "c.json", "--radius", "0.3", "--out", "e.json"],
]


def test_build_from_json_rejects_a_non_integer_m(capsys, tmp_path):
    """m = 2.9 in a chart file was truncated to 2 and the chart written;
    it is an input error now, and nothing is written.  m = 2.0, as JSON
    may write 2, builds the m = 2 chart."""
    text = '{"kind": "builtin", "k": 1, "q": 4, "builtin": {"name": "gluck_yang", "params": {"m": %s}}}'
    path, out = tmp_path / "gy.json", tmp_path / "out.json"
    path.write_text(text % "2.9")
    assert main(["build", "from-json", "--in", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "skewfib: error: gluck_yang parameters key 'm' must hold an integer, got 2.9\n"
    assert not out.exists()
    path.write_text(text % "2.0")
    assert main(["build", "from-json", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == chart_to_dict(builtin_chart("gluck_yang", m=2))


def test_leaf_table_has_one_entry_per_command():
    leaves = cli._build_parser()[1]
    assert len(leaves) == len(_LEAF_ARGVS) == 20
    assert {key for key in leaves for argv in _LEAF_ARGVS if tuple(argv[: len(key)]) == key} == set(leaves)


@pytest.mark.parametrize("argv", _LEAF_ARGVS, ids=[" ".join(a[:2]) for a in _LEAF_ARGVS])
def test_leaf_path_gives_the_tree_namespace(argv):
    """The leaf parser, run into the values the tree sets above it, gives
    the namespace of the whole tree: handler, verb, the sub-verb's dest
    and every default, the verb's handler on each of its leaves included."""
    tree = cli._build_parser()[0]
    assert vars(cli._parse(argv)) == vars(tree.parse_args(argv))


_USAGE = [
    (["verify", "skew", "--chart", "@hopf3", "--bogus", "1"], 2),
    (["verify", "skew"], 2),
    (["verify", "skew", "--chart", "@hopf3", "--samples", "many"], 2),
    (["verify", "skew", "--chart", "@hopf3", "--samp", "64"], 0),
    (["verify", "skew", "--help"], 0),
]


@pytest.mark.parametrize("argv, code", _USAGE, ids=["unrecognized", "no-chart", "bad-int", "abbrev", "help"])
def test_leaf_path_output_equals_the_tree_alone(capsys, tmp_path, monkeypatch, argv, code):
    """main's stdout, stderr and exit code on an unrecognized argument, a
    usage error, an abbreviated option and help are those of the tree."""
    hopf = _write_chart_file(tmp_path, "hopf3")
    argv = [hopf if a == "@hopf3" else a for a in argv]

    def outcome():
        result = main(argv)
        out, err = capsys.readouterr()
        return result, out, err

    leaf = outcome()
    tree = cli._build_parser()[0]
    monkeypatch.setattr(cli, "_build_parser", lambda: (tree, {}))  # every argv goes to the tree
    assert outcome() == leaf
    assert leaf[0] == code


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "skewfib" in out


def test_tolerance_env_flips_verdict(capsys, tmp_path, monkeypatch):
    """A barely rotating chart passes by default and fails under a
    coarse SKEWFIB_TOL override."""
    path = _write_chart_file(tmp_path, "hopf_line", m=1, a=1.0, b=1e-5)
    code, _ = _run_json(capsys, ["verify", "eigen", "--chart", path])
    assert code == 0
    monkeypatch.setenv("SKEWFIB_TOL", "1e-3")
    code, data = _run_json(capsys, ["verify", "eigen", "--chart", path])
    assert code == 1
    assert data["verdict"] == "fail"


def test_tolerance_env_must_be_finite(capsys, tmp_path, monkeypatch):
    path = _write_chart_file(tmp_path, "hopf3")
    monkeypatch.setenv("SKEWFIB_TOL", "inf")
    code, out = _run(capsys, ["verify", "eigen", "--chart", path])
    assert code == 2
    assert out == ""


def test_contact_check_non_finite_point_is_one_line_error(tmp_path):
    path = _write_chart_file(tmp_path, "hopf3")
    src = str(Path(skewfib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "skewfib", "contact", "check", "--chart", path, "--point", "nan 0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(skewfib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "skewfib", "dims", "rho", "8"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"q": 8, "rho": 8}


# Every verb kind, each at a small size.
_VERB_KINDS = [
    ["dims", "rho", "8"],
    ["dims", "admissible", "1", "3"],
    ["dims", "table", "--max-n", "9"],
    ["build", "hopf", "--dim", "3", "--out", "hopf3.json"],
    ["build", "bilinear", "--algebra", "octonion", "--kp1", "5"],
    ["build", "from-json", "--in", "quad.json"],
    ["verify", "skew", "--chart", "hopf3.json", "--samples", "64"],
    ["verify", "nondeg", "--chart", "quad.json", "--samples", "64"],
    ["verify", "eigen", "--chart", "hopf3.json"],
    ["verify", "contact", "--chart", "hopf3.json", "--point", "0.5 -1"],
    ["verify", "invariant-planes", "--matrix", "J4.json", "--samples", "20"],
    ["fiber", "--chart", "quad.json", "--point", "0.5 0.25 -0.5"],
    ["sample", "--chart", "hopf3.json", "--grid", "random:4:1", "--out", "s.csv"],
    ["sphere", "complete-check", "--chart", "quad.json", "--samples", "64"],
    ["sphere", "assemble", "--matrix", "J4.json", "--samples", "3"],
    ["sphere", "probe", "--matrix", "J4.json", "--samples", "4"],
    ["contact", "check", "--chart", "hopf3.json", "--samples", "3", "--radius", "1.5"],
    ["germ", "extend", "--chart", "quad.json", "--samples", "200", "--out", "ext.json"],
]

_LOADS = """
import contextlib, io, json, sys
from skewfib import cli
heavy = {"numpy.ma", "scipy", "concurrent.futures"}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded = sorted(m for m in heavy if m in sys.modules)
    heavy.difference_update(loaded)
    print(json.dumps([argv, code, loaded]))
"""


def test_verbs_import_no_heavy_modules(tmp_path):
    """No verb kind loads numpy.ma, scipy or concurrent.futures: each would
    add its import to the command's start-up.  All run in one fresh
    interpreter, so a module is named at the first verb that loads it."""
    (tmp_path / "quad.json").write_text(json.dumps(chart_to_dict(builtin_chart("quad_germ"))))
    _write_matrix_file(tmp_path, np.kron(np.eye(2), J2), "J4.json")
    src = str(Path(skewfib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADS, json.dumps(_VERB_KINDS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert [argv for argv, _, _ in runs] == _VERB_KINDS
    assert [code for _, code, _ in runs] == [0] * len(_VERB_KINDS)
    assert [(argv, loaded) for argv, _, loaded in runs if loaded] == []
