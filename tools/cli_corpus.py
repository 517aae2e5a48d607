"""Compare the command line of two checkouts on one fixed-seed corpus.

    python3 tools/cli_corpus.py OLD NEW

OLD and NEW are checkouts of this repository.  Each runs the whole
corpus in its own subprocess, importing skewfib from its own src/ and
calling skewfib.cli.main once per command, in a working directory of its
own under a temporary directory (nothing is written anywhere else).  The
corpus covers every verb on the inputs below, seeds 0 and 7 and
both sample modes, and the input-error paths of the sampled verbs:

- chart and matrix files of the wrong shape, among them linear charts
  with a matrix of the wrong shape, the wrong matrix count or an infinite
  entry, which pass the file reader and stop at the Chart constructor,
  and a `hopf_line` chart with m = 2.5 and a Glück–Yang one with m = 2.9,
  which `build from-json` and `verify skew` reject, since m must be an
  integer;
- charts built by the `build` verbs: hopf3/7/15, two hopf_line,
  Glück–Yang m = 2, 3 and 4, Hurwitz–Radon HR(4,3), HR(8,5), HR(16,9) and the complex,
  quaternion and octonion maps;
- chart files written here: zero charts (k = 1 and k = 3), a real
  eigenvalue, C = [[0, -4], [0.25, 0]], C = 2I, an ill-conditioned k = 2
  chart, two affine charts, an overflowing chart, `quad_germ` with two
  eps, smooth extensions of a linear k = 3 chart and of the zero k = 3
  chart, an extension of a steep `quad_germ` on which `germ extend`
  fails, an extension whose blend radius exceeds its base's domain, and
  the extensions that `germ extend` writes;
- large stacks: 10,000-pair `verify skew` runs and a 4,096-sample
  `verify nondeg`;
- `verify skew` at radius 5e-12 on a skew line chart that the Gram test
  leaves open, C = [[0, -4], [0.25, 0]], and on C = 2I, whose fibers
  are all parallel;
- the closed-form screens of smooth line charts: `verify skew`,
  `verify nondeg` and `sphere complete-check` at the default 1,024
  samples on two `quad_germ` extensions and on `quad_germ` with
  eps = 1e160, whose entries overflow the screens' bounds;
- `fiber` at chart points in the germ, ring and linear zones of two
  extensions, one solve through the ring, a steep line
  (hopf_line b = 1e160) whose graph frame overflows unless scaled, a
  hopf3 point whose squared norm overflows, and a solve on hopf_line
  b = 1e300 whose system matrix overflows;
- `verify nondeg` and `verify eigen` on C = 2^1000 J2, whose margin is
  representable, and on C = 1.5e308 [[1, 1], [1, 1]], whose eigenvalue
  3e308 is not;
- `verify nondeg`, `verify eigen` and `verify skew` on the chart file, and
  `verify invariant-planes` on the matrix file and the chart file, of
  C = 1.5e308 [[1, -1], [1, 1]], whose eigenvalues 1.5e308 +- 1.5e308 i
  have finite parts and a modulus beyond the float range;
- `sphere assemble` at a point whose squared norm overflows, and `sample`
  on hopf15 at 100,000 steps, a grid of 10^35 rows;
- `verify skew --mode low-discrepancy` on the zero chart with q = 64,
  whose pairs are drawn in 64 dimensions;
- `verify skew --seed -1` on hopf7, which the Gram test certifies
  without a sample, and on Glück–Yang m = 2, which is sampled;
- `verify skew` at seeds 0 and 7 in both modes on Glück–Yang m = 3 and
  m = 4, 1,024 sampled pairs in q = 6 and q = 8;
- `verify skew` at seeds 0 and 7 on `k1-q1.json` (C = [[2]]) and
  `k2-q2.json` (C = (J2, diag(1, -1))), whose pair matrices have more
  columns than rows, on `diag-12.json` (C = diag(1, 2)), singular only
  at the Gram test's t, and on `k2-q3.json`, a k = 2, q = 3 chart whose
  singular set sampling misses;
- `verify nondeg` at seeds 0 and 7 on `k2-q3.json` and `k2-q2.json`,
  whose pencils have more slots than rho(q) and fail by the
  Hurwitz–Radon–Adams gate, `verify skew` and `verify nondeg` at seeds
  0 and 7 on `ext-k2-q3.json`, a smooth extension of `k2-q3.json` that
  the gate fails too, and `verify skew` at seeds 0 and 7 on
  `real-eig.json`, whose real eigenvalues sampled pairs miss;
- help at the root, verb and command levels, and the usage errors: no
  arguments, an unknown verb, a verb without its sub-verb, a missing
  required option, an unrecognized option, an invalid int and an option
  value that begins with a dash.  The subprocesses run with COLUMNS=80,
  so help text does not depend on the terminal.

For every command it compares stdout, stderr, the exit code and every
file the command wrote or changed (by content), then prints how many
commands are identical and each one that differs: a JSON stdout by each
changed dotted key (`details.certified_lower_bound`, `witnesses.0.t.1`)
with its old and new value, any other output by a short prefix.  The
exit code is 0 when all are identical and 1 otherwise.  It is not part
of the test suite, and a run takes about fifteen seconds on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

# Left multiplication by the quaternion units i, j, k: anticommuting
# orthogonal complex structures on R^4.
_LI = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
_LJ = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
_LK = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
_J2 = [[0.0, -1.0], [1.0, 0.0]]
_ROT_BEYOND = [[1.5e308, -1.5e308], [1.5e308, 1.5e308]]
_ZERO4 = [[0.0] * 4 for _ in range(4)]


def _linear(k, q, mats, b0=None):
    out = {"schema": "skewfib-chart-v1", "kind": "linear" if b0 is None else "affine",
           "k": k, "q": q, "C": mats}
    if b0 is not None:
        out["B0"] = b0
    return out


def _builtin(k, q, name, params):
    return {"schema": "skewfib-chart-v1", "kind": "builtin", "k": k, "q": q,
            "builtin": {"name": name, "params": params}}


_K2_Q3 = _linear(2, 3, [[[-1.66, -1.05, 1.21], [0.33, -1.62, -0.27], [-0.08, -1.36, 0.94]],
                        [[-1.55, -0.44, 0.07], [-0.28, 0.35, 0.95], [1.83, -0.86, 0.59]]])

# Input files written into each working directory before the corpus runs.
FILES = {
    "zero-k1.json": _linear(1, 2, [[[0.0, 0.0], [0.0, 0.0]]]),
    "zero-k3.json": _linear(3, 4, [_ZERO4, _ZERO4, _ZERO4]),
    "zero-q64.json": _linear(1, 64, [[[0.0] * 64 for _ in range(64)]]),
    "real-eig.json": _linear(1, 2, [[[1.0, 2.0], [0.0, 3.0]]]),
    "stretched.json": _linear(1, 2, [[[0.0, -4.0], [0.25, 0.0]]]),
    "two-i.json": _linear(1, 2, [[[2.0, 0.0], [0.0, 2.0]]]),
    "ill-k2.json": _linear(2, 4, [_LI, [[v * 1e-7 for v in _LJ[0]]] + _LJ[1:]]),
    "affine-k1.json": _linear(1, 2, [_J2], [[0.25], [-0.5]]),
    "affine-k3.json": _linear(
        3, 4, [_LI, _LJ, _LK], [[0.5, 0, -1], [0, 0.25, 0], [1, 0, 0], [0, 0, 2]]
    ),
    "huge.json": _linear(1, 2, [[[1e308, -1e308], [1e308, 1e308]]]),
    # margin 2^1000, and an eigenvalue 3e308 beyond the float range
    "pow2-1000.json": _linear(1, 2, [[[0.0, -(2.0**1000)], [2.0**1000, 0.0]]]),
    "beyond.json": _linear(1, 2, [[[1.5e308, 1.5e308], [1.5e308, 1.5e308]]]),
    # eigenvalues 1.5e308 +- 1.5e308 i: finite parts, a modulus beyond the range
    "rot-beyond.json": _linear(1, 2, [_ROT_BEYOND]),
    "rot-beyond-matrix.json": {"matrix": _ROT_BEYOND},
    # no skew chart has k >= q; diag(1, 2) is singular at the Gram test's t only
    "k1-q1.json": _linear(1, 1, [[[2.0]]]),
    "k2-q2.json": _linear(2, 2, [_J2, [[1.0, 0.0], [0.0, -1.0]]]),
    "diag-12.json": _linear(1, 2, [[[1.0, 0.0], [0.0, 2.0]]]),
    # rho(3) = 1, so this pencil is singular somewhere, but sampling misses it
    "k2-q3.json": _K2_Q3,
    # its smooth extension, which the Hurwitz-Radon-Adams gate fails as well
    "ext-k2-q3.json": _builtin(2, 3, "germ_extension", {"blend_r": 1.0, "base": _K2_Q3}),
    "quad-005.json": _builtin(1, 2, "quad_germ", {"eps": 0.05}),
    "quad-02.json": _builtin(1, 2, "quad_germ", {"eps": 0.2}),
    # entries near 1e162: the closed-form screens overflow and fall back
    "big-germ.json": _builtin(1, 2, "quad_germ", {"eps": 1e160}),
    "ext-quat.json": _builtin(3, 4, "germ_extension",
                              {"blend_r": 0.5, "base": _linear(3, 4, [_LI, _LJ, _LK])}),
    "ext-zero-k3.json": _builtin(3, 4, "germ_extension",
                                 {"blend_r": 0.5, "base": _linear(3, 4, [_ZERO4] * 3)}),
    # real eigenvalues of dB within 1e-9 of the origin: `germ extend --radius 1` fails
    "ext-steep.json": _builtin(1, 2, "germ_extension",
                               {"blend_r": 1.0, "base": _builtin(1, 2, "quad_germ", {"eps": 1e10})}),
    "J2.json": {"matrix": _J2},
    "J4.json": {"matrix": _LI},
    "scaled.json": {"matrix": [[0.5, -2.0], [2.0, 0.5]]},
    "mixed.json": {"matrix": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]},
    "real.json": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
    "odd.json": {"matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
    "gy.json": {"matrix": [[0, 0.5, 1, 0], [-0.5, 0, 0, 1], [0, 0, 0, 0.5], [0, 0, -0.5, 0]]},
    "pts-q2.txt": "# chart points\n0 0\n0.5 -0.25\n1.5 2\n",
    "pts-q4.txt": "0 0 0 0\n0.5 -0.25 1 0\n",
    # files of the wrong shape, and a parameter that json reads as inf
    "bad-C-empty.json": {"C": []},
    "bad-matrix.json": {"matrix": {"a": 1}},
    "bad-list.json": [1, 2],
    "bad-C-int.json": {"kind": "linear", "k": 1, "q": 2, "C": 5},
    "bad-B0.json": _linear(1, 2, [_J2], {"a": 1}),
    # well-formed arrays that the Chart constructor rejects: a 3 x 3 matrix
    # on q = 2, one matrix for k = 2, and an entry that json reads as inf
    "bad-C-shape.json": _linear(1, 2, [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]),
    "bad-C-count.json": _linear(2, 2, [_J2]),
    "bad-C-inf.json": '{"kind": "linear", "k": 1, "q": 2, "C": [[[1e999, 0], [0, 1]]]}',
    "bad-base.json": _builtin(1, 2, "germ_extension", {"blend_r": 0.5, "base": 5}),
    "bad-blend-r.json": _builtin(1, 2, "germ_extension",
                                 {"blend_r": 2.0, "base": _builtin(1, 2, "quad_germ", {})}),
    "bad-no-a.json": _builtin(1, 2, "hopf_line", {"m": 1, "b": 1}),
    "bad-m-inf.json": '{"kind": "builtin", "k": 1, "q": 2, '
                      '"builtin": {"name": "hopf_line", "params": {"m": 1e999, "a": 0, "b": 1}}}',
    # integer parameters that are not integers
    "bad-m-half.json": _builtin(1, 4, "hopf_line", {"m": 2.5, "a": 0, "b": 1}),
    "bad-gy-m.json": _builtin(1, 4, "gluck_yang", {"m": 2.9}),
}

# Charts built through the CLI, by output file.
BUILDS = {
    "hopf3.json": ["build", "hopf", "--dim", "3"],
    "hopf7.json": ["build", "hopf", "--dim", "7"],
    "hopf15.json": ["build", "hopf", "--dim", "15"],
    "line-m1.json": ["build", "hopf-line", "--m", "1", "--a", "0.5", "--b", "1.5"],
    "line-m2.json": ["build", "hopf-line", "--m", "2", "--a=-0.25", "--b", "2"],
    "gy-m2.json": ["build", "gluck-yang", "--m", "2"],
    "gy-m3.json": ["build", "gluck-yang", "--m", "3"],
    "gy-m4.json": ["build", "gluck-yang", "--m", "4"],
    "hr-4-3.json": ["build", "bilinear", "--hr", "4", "3"],
    "hr-8-5.json": ["build", "bilinear", "--hr", "8", "5"],
    "hr-16-9.json": ["build", "bilinear", "--hr", "16", "9"],
    "complex-2.json": ["build", "bilinear", "--algebra", "complex", "--kp1", "2"],
    "quat-3.json": ["build", "bilinear", "--algebra", "quaternion", "--kp1", "3"],
    "oct-5.json": ["build", "bilinear", "--algebra", "octonion", "--kp1", "5"],
}

# (k, q) of every chart the checks run on, including the germ extensions
# that the corpus writes itself.
CHARTS = {
    "hopf3.json": (1, 2), "hopf7.json": (3, 4), "hopf15.json": (7, 8),
    "line-m1.json": (1, 2), "line-m2.json": (1, 4), "gy-m2.json": (1, 4),
    "hr-4-3.json": (2, 4), "hr-8-5.json": (4, 8), "hr-16-9.json": (8, 16),
    "complex-2.json": (1, 2), "quat-3.json": (2, 4), "oct-5.json": (4, 8),
    "zero-k1.json": (1, 2), "zero-k3.json": (3, 4), "real-eig.json": (1, 2),
    "ill-k2.json": (2, 4), "affine-k1.json": (1, 2), "affine-k3.json": (3, 4),
    "huge.json": (1, 2), "quad-005.json": (1, 2), "quad-02.json": (1, 2),
    "ext-005.json": (1, 2), "ext-02.json": (1, 2),
    "ext-quat.json": (3, 4), "ext-zero-k3.json": (3, 4),
}

MATRICES = ("J2.json", "J4.json", "scaled.json", "mixed.json", "real.json", "odd.json", "gy.json")


def _point(dim: int) -> str:
    return ",".join(repr(0.5 * ((-1) ** i) * (1 + i % 3)) for i in range(dim))


def corpus() -> list[dict]:
    """Every command as {"argv": [...]} plus an optional "env" override."""
    cmds: list[dict] = []

    def add(*argv, env=None):
        cmds.append({"argv": [str(a) for a in argv], **({"env": env} if env else {})})

    for q in range(1, 17):
        add("dims", "rho", q)
    for k, n in ((1, 3), (3, 7), (7, 15), (2, 6), (1, 4), (8, 24)):
        add("dims", "admissible", k, n)
    add("dims", "table")
    add("dims", "table", "--max-n", 9)

    for out, argv in BUILDS.items():
        add(*argv)
        add(*argv, "--out", out)
        add("build", "from-json", "--in", out)
    for name in ("quad-005.json", "ext-quat.json", "affine-k3.json", "zero-k3.json"):
        add("build", "from-json", "--in", name, "--out", "copy-" + name)
    for flag in ("--a", "--b"):
        for value in ("inf", "-inf", "nan", "1e308"):
            add("build", "hopf-line", "--m", 1, f"{flag}={value}")
    add("build", "hopf-line", "--m", 0)
    add("build", "hopf-line", "--m", 1, "--b", 0)
    add("build", "gluck-yang", "--m", 1)
    add("build", "bilinear", "--hr", 6, 3)
    add("build", "bilinear", "--algebra", "octonion", "--kp1", 9)
    add("build", "bilinear")

    for base in ("quad-005", "quad-02"):
        out = base.replace("quad", "ext") + ".json"
        add("germ", "extend", "--chart", f"{base}.json", "--out", out)
        add("germ", "extend", "--chart", f"{base}.json", "--radius", 0.3, "--seed", 7)
        add("germ", "extend", "--chart", f"{base}.json", "--samples", 300)
    for chart in CHARTS:
        add("germ", "extend", "--chart", chart, "--samples", 200, "--out", "germ-" + chart)
    for seed in (0, 7):
        add("germ", "extend", "--chart", "ext-steep.json", "--radius", 1, "--samples", 500,
            "--seed", seed, "--out", "steep-out.json")

    # large stacks
    for chart in ("hopf15.json", "hr-16-9.json", "zero-k3.json"):
        add("verify", "skew", "--chart", chart, "--samples", 10000, "--radius", 100)
    add("verify", "nondeg", "--chart", "hr-16-9.json", "--samples", 4096)

    # pairs whose sigma_min is near the absolute tolerance: a skew chart
    # and one whose fibers are all parallel
    for chart in ("stretched.json", "two-i.json"):
        add("verify", "skew", "--chart", chart, "--radius", 5e-12)

    # low-discrepancy pairs in 64 dimensions, and a negative seed on a
    # certified and a sampled chart
    add("verify", "skew", "--chart", "zero-q64.json", "--samples", 64, "--mode", "low-discrepancy")
    for chart in ("hopf7.json", "gy-m2.json"):
        add("verify", "skew", "--chart", chart, "--seed", -1)

    # 1,024 sampled pairs in q = 6, whose pair norms numeric.row_norms
    # sums by columns, and in q = 8, where it reduces each row as numpy does
    for chart in ("gy-m3.json", "gy-m4.json"):
        for seed in (0, 7):
            for mode in ("pseudo-random", "low-discrepancy"):
                add("verify", "skew", "--chart", chart, "--seed", seed, "--mode", mode)

    # charts that no sampled pair used to refute: k >= q, the Gram test's
    # singular t, and a k = 2, q = 3 pencil whose singular set sampling misses
    for chart in ("k1-q1.json", "k2-q2.json", "diag-12.json", "k2-q3.json"):
        for seed in (0, 7):
            add("verify", "skew", "--chart", chart, "--seed", seed)

    # pencils with k + 1 > rho(q), which the Hurwitz-Radon-Adams gate fails,
    # a smooth chart with k + 1 > rho(q), and a k = 1 chart with real
    # eigenvalues, which sampled pairs miss
    for seed in (0, 7):
        for chart in ("k2-q3.json", "k2-q2.json"):
            add("verify", "nondeg", "--chart", chart, "--seed", seed)
        for what in ("skew", "nondeg"):
            add("verify", what, "--chart", "ext-k2-q3.json", "--seed", seed)
        add("verify", "skew", "--chart", "real-eig.json", "--seed", seed)

    # smooth line charts at the default 1,024 samples, where the closed-form
    # screens send only the deciding matrices to LAPACK
    for chart in ("ext-005.json", "ext-02.json", "big-germ.json"):
        for seed in (0, 7):
            add("verify", "skew", "--chart", chart, "--seed", seed)
            add("verify", "nondeg", "--chart", chart, "--seed", seed)
            add("sphere", "complete-check", "--chart", chart, "--seed", seed)

    # the blend zones of the two extensions, both written at blend radius
    # 0.5: with t = 0 the solved point is y itself, at |y| / blend_r = 0.4
    # (germ), 0.75 (ring) and 2 (linear); (0.4, 0.3, 0.2) solves to
    # |y| / blend_r = 0.66, so Newton runs through the ring
    for chart in ("ext-005.json", "ext-02.json"):
        for point in ("0,0.12,-0.16", "0,0.225,-0.3", "0,0.6,-0.8", "0.4,0.3,0.2"):
            add("fiber", "--chart", chart, "--point", point)

    # a steep line whose unscaled |(1, B(y))|^2 overflows
    add("build", "hopf-line", "--m=1", "--a=0", "--b=1e160", "--out", "steep-line.json")
    add("fiber", "--chart", "steep-line.json", "--point", "0,1,0")
    # a point whose |x|^2 overflows, and a solve whose I + t C overflows
    add("fiber", "--chart", "hopf3.json", "--point", "0.5,1e200,-2e200")
    add("build", "hopf-line", "--m=1", "--a=0", "--b=1e300", "--out", "steeper-line.json")
    add("fiber", "--chart", "steeper-line.json", "--point", "1e10,1,1")
    # 2 x 2 spectra beyond 2^500: representable, and not, and one whose
    # parts are representable but whose modulus is not
    for chart in ("pow2-1000.json", "beyond.json", "rot-beyond.json"):
        add("verify", "nondeg", "--chart", chart)
        add("verify", "eigen", "--chart", chart)
    add("verify", "skew", "--chart", "rot-beyond.json")
    for mat in ("rot-beyond-matrix.json", "rot-beyond.json"):
        add("verify", "invariant-planes", "--matrix", mat)

    for chart, (k, q) in CHARTS.items():
        for what in ("skew", "nondeg"):
            for seed in (0, 7):
                for samples in (64, 300):
                    for mode in ("pseudo-random", "low-discrepancy"):
                        add("verify", what, "--chart", chart, "--samples", samples,
                            "--seed", seed, "--mode", mode)
            add("verify", what, "--chart", chart, "--samples", 64, "--radius", 2.5)
            add("verify", what, "--chart", chart, "--samples", 1)
            add("verify", what, "--chart", chart, "--samples", 0)
            add("verify", what, "--chart", chart, "--samples", 64, "--radius", 0)
            add("verify", what, "--chart", chart, "--samples", 64, "--radius", "nan")
        add("verify", "eigen", "--chart", chart)
        for seed in (0, 7):
            for samples in (64, 300):
                add("sphere", "complete-check", "--chart", chart, "--samples", samples,
                    "--seed", seed)
        add("sphere", "complete-check", "--chart", chart, "--samples", 0)
        add("fiber", "--chart", chart, "--point", "0")
        add("fiber", "--chart", chart, "--point", _point(k + q))
        add("sample", "--chart", chart, "--grid", "random:4:2", "--steps", 3,
            "--out", "s-" + chart + ".csv")
        add("sample", "--chart", chart, "--grid", "circle:1.5:5", "--steps", 2, "--seed", 7,
            "--t-range=-2:0.5", "--out", "c-" + chart + ".csv")
        pts = "pts-q2.txt" if q == 2 else "pts-q4.txt" if q == 4 else None
        if pts:
            add("sample", "--chart", chart, "--grid", "file:" + pts, "--out", "f-" + chart + ".csv")
        if k == 1:
            for verb in (("verify", "contact"), ("contact", "check")):
                add(*verb, "--chart", chart, "--point", "0")
                add(*verb, "--chart", chart, "--point", _point(q))
                for seed in (0, 7):
                    add(*verb, "--chart", chart, "--samples", 3, "--radius", 1.5, "--seed", seed)
                if pts:
                    add(*verb, "--chart", chart, "--points", pts)

    for mat in MATRICES:
        for seed in (0, 7):
            add("verify", "invariant-planes", "--matrix", mat, "--samples", 50, "--seed", seed)
        add("verify", "invariant-planes", "--matrix", mat, "--samples", 0)
        add("sphere", "assemble", "--matrix", mat, "--point", "0", "--theta-steps", 8,
            "--out", "a-" + mat + ".csv")
        add("sphere", "assemble", "--matrix", mat, "--samples", 3, "--seed", 7)
        for distance, threshold in (("1e-4", "1e-3"), ("1e-1", "1e-9")):
            add("sphere", "probe", "--matrix", mat, "--samples", 4, "--distance", distance,
                "--threshold", threshold)

    # the sampled verbs' input-error paths
    for verb in (("contact", "check"), ("verify", "contact")):
        for extra in (["--samples", 0], ["--samples=-3"], ["--radius=-1"], ["--radius", 0],
                      ["--radius", "nan"], ["--radius", "inf"], ["--samples", 0, "--radius=-1"]):
            add(*verb, "--chart", "hopf3.json", *extra)
    both_bad = (["--samples", 0, "--radius", 0], ["--samples", 1, "--radius=-1"])
    for extra in (["--samples=-5"], *both_bad):
        for what in ("skew", "nondeg"):
            add("verify", what, "--chart", "hopf3.json", *extra)
            add("verify", what, "--chart", "quad-005.json", *extra)
    for verb in ("probe", "assemble"):
        add("sphere", verb, "--matrix", "J4.json", "--samples", 0)
        add("sphere", verb, "--matrix", "J4.json", "--samples=-1")
    add("sphere", "assemble", "--matrix", "J4.json", "--samples", 0, "--out", "bad.csv")
    add("sphere", "assemble", "--matrix", "J4.json", "--samples", 0, "--point", "0")
    for grid in ("random:0:1", "random:-2:1", "random:4:-1", "random:4:0", "random:4:nan",
                 "circle:1:0", "circle:0:4", "random:4", "hexagon:3"):
        add("sample", "--chart", "hopf3.json", "--grid", grid, "--out", "bad.csv")
    add("sample", "--chart", "hopf3.json", "--grid", "random:4:1", "--steps", 0, "--out", "bad.csv")
    add("sphere", "complete-check", "--chart", "quad-005.json", "--samples=-2")
    add("verify", "invariant-planes", "--matrix", "odd.json", "--samples", 0)
    add("germ", "extend", "--chart", "quad-005.json", "--samples", 0)
    add("germ", "extend", "--chart", "quad-005.json", "--radius", 0)
    for name in ("bad-C-empty.json", "bad-matrix.json"):
        add("verify", "invariant-planes", "--matrix", name)
    for name in ("bad-list.json", "bad-C-int.json", "bad-B0.json", "bad-C-shape.json",
                 "bad-C-count.json", "bad-C-inf.json", "bad-base.json", "bad-blend-r.json",
                 "bad-no-a.json", "bad-m-inf.json"):
        add("verify", "skew", "--chart", name)
    for name in ("bad-m-half.json", "bad-gy-m.json"):
        add("build", "from-json", "--in", name)
        add("verify", "skew", "--chart", name)

    # tolerance overrides and usage errors
    for tol in ("1e-3", "1e-12,1e-15", "abc", "inf"):
        add("verify", "nondeg", "--chart", "ill-k2.json", "--samples", 64, env={"SKEWFIB_TOL": tol})
        add("verify", "eigen", "--chart", "line-m1.json", env={"SKEWFIB_TOL": tol})
    # help at every level and the usage errors: the tree parses an argv
    # that names no command, a command's own parser the others
    add("--help")
    add("verify", "--help")
    add("verify", "skew", "--help")
    add()
    add("frobnicate")
    add("verify")
    add("verify", "skew")
    add("verify", "skew", "--chart", "hopf3.json", "--bogus", 1)
    add("verify", "skew", "--chart", "hopf3.json", "--samples", "many")
    add("fiber", "--chart", "hopf3.json", "--point", "-1,0,0")
    add("verify", "skew", "--chart", "missing.json")
    add("fiber", "--chart", "hopf3.json", "--point", "1,2")
    add("sphere", "assemble", "--matrix", "J2.json", "--point", "0 0 0 0")
    add("sphere", "assemble", "--matrix", "J2.json", "--point", "1e308 1e308 0 0")
    add("sample", "--chart", "hopf15.json", "--grid", "random:1:1", "--steps", 100000,
        "--out", "big.csv")
    return cmds


def _snapshot(root: str) -> dict:
    """Modification time of every file, so that a file rewritten with the
    same bytes still counts as written."""
    return {name: os.stat(os.path.join(root, name)).st_mtime_ns for name in os.listdir(root)}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def worker(src: str, workdir: str) -> None:
    """Run the corpus from stdin with skewfib imported from src; print the
    results as JSON lines, one per command."""
    sys.path.insert(0, src)
    import skewfib.cli

    here = os.path.dirname(os.path.abspath(skewfib.cli.__file__))
    if os.path.commonpath([here, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"skewfib imported from {here}, not from {src}")
    warnings.simplefilter("always")
    os.chdir(workdir)
    for name, data in FILES.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(data if isinstance(data, str) else json.dumps(data))
    for cmd in json.load(sys.stdin):
        before = _snapshot(".")
        saved = {key: os.environ.get(key) for key in cmd.get("env", {})}
        os.environ.update(cmd.get("env", {}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = skewfib.cli.main(cmd["argv"])
            except Exception as exc:  # a crash is an outcome to compare, too
                code = f"raised {type(exc).__name__}: {exc}"
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value
        after = _snapshot(".")
        files = {name: _digest(name) for name in sorted(after) if before.get(name) != after[name]}
        stderr = err.getvalue().replace(os.path.abspath(src), "<src>")
        result = {"stdout": out.getvalue(), "stderr": stderr, "exit": code, "files": files}
        print(json.dumps(result))


def _run(checkout: str, workdir: str, cmds: list[dict]) -> list[dict]:
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {key: v for key, v in os.environ.items() if key not in ("PYTHONPATH", "SKEWFIB_TOL")}
    env["COLUMNS"] = "80"  # argparse wraps help text to the terminal's width
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src, workdir],
        input=json.dumps(cmds), capture_output=True, text=True, env=env, check=False,
    )
    if done.returncode:
        raise SystemExit(f"corpus run in {checkout} failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def _short(text) -> str:
    text = json.dumps(text)
    return text if len(text) <= 160 else text[:157] + "..."


def _leaves(value, key: str = "") -> dict:
    """Every leaf of a JSON value by its dotted key, list items by index."""
    if not (isinstance(value, (dict, list)) and value):
        return {key: value}
    out = {}
    for name, item in value.items() if isinstance(value, dict) else enumerate(value):
        out.update(_leaves(item, f"{key}.{name}" if key else str(name)))
    return out


def _json_changes(old: str, new: str) -> list[str] | None:
    """Each changed dotted key of two JSON documents with its old and new
    value, or None when either is not JSON."""
    try:
        a, b = _leaves(json.loads(old)), _leaves(json.loads(new))
    except ValueError:
        return None
    absent = "<absent>"
    return [f"{key}: {_short(a.get(key, absent))} -> {_short(b.get(key, absent))}"
            for key in {**a, **b} if a.get(key, absent) != b.get(key, absent)]


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        worker(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    cmds = corpus()
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        results = []
        for side, checkout in zip(("old", "new"), argv):
            workdir = os.path.join(tmp, side)
            os.mkdir(workdir)
            results.append(_run(checkout, workdir, cmds))
    old, new = results
    differ = [(c, a, b) for c, a, b in zip(cmds, old, new) if a != b]
    nfiles = sum(len(r["files"]) for r in old)
    print(f"{len(cmds)} commands, {nfiles} files written: "
          f"{len(cmds) - len(differ)} identical, {len(differ)} differ")
    for cmd, a, b in differ:
        env = " ".join(f"{k}={v}" for k, v in cmd.get("env", {}).items())
        print(f"\n{env + ' ' if env else ''}skewfib {' '.join(cmd['argv'])}")
        for key in ("exit", "stdout", "stderr", "files"):
            if a[key] == b[key]:
                continue
            changes = _json_changes(a[key], b[key]) if key == "stdout" else None
            if changes is None:
                print(f"  {key}: {_short(a[key])}\n    -> {_short(b[key])}")
            else:
                print(f"  {key} (JSON):" + "".join(f"\n    {line}" for line in changes))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
