"""Seeded corpora for the three benchmark workloads.

A corpus is a directory of chart files, matrix files and point files,
plus `ops.json`: the list of operations one pass of the workload runs,
each with the outcome its oracle expects.  The same seed writes
byte-identical files; the library only ever sees what is written here.

Every operation is a dict:

- `op`: the name under which its latency is reported (`op.<name>.p50_ms`);
- `argv` for a CLI operation, where a token starting with `@` names a
  file of the corpus, or `call` for a library operation;
- `expect`: what the oracle in `oracle.py` checks.

Chart files are materialized through the CLI `build` and `germ extend`
verbs, as a user would.  Offset and degenerate charts are written here
directly in the chart-file format.  Which families appear, and how many
operations of each kind, is fixed per workload; the seed only draws
parameters, offsets, points, sample seeds and the order of the pass, so
the cost of a pass stays the same from seed to seed.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np

WORKLOADS = ("verify-linear", "germ-smooth", "point-queries")

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _num(x: float) -> str:
    return repr(float(x))


def _point_arg(v) -> str:
    return ",".join(_num(x) for x in v)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g) * radius * rng.uniform(0.2, 1.0)


class _Writer:
    """Writes corpus files into one directory, building charts through the CLI."""

    def __init__(self, workdir: str, cli_main):
        self.dir = workdir
        self.cli_main = cli_main

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def cli(self, argv: list[str]) -> None:
        argv = [self.path(a[1:]) if a.startswith("@") else a for a in argv]
        with redirect_stdout(io.StringIO()):
            code = self.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"corpus build step failed with exit {code}: {argv}")

    def build(self, name: str, argv: list[str]) -> dict:
        self.cli(argv + ["--out", f"@{name}"])
        return _read_json(self.path(name))

    def chart(self, name: str, data: dict) -> dict:
        _write_json(self.path(name), data)
        return data

    def text(self, name: str, lines: list[str]) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))


def _offset(chart: dict, rng: np.random.Generator) -> dict:
    out = dict(chart)
    out["kind"] = "affine"
    out["B0"] = np.round(rng.uniform(-3.0, 3.0, (chart["q"], chart["k"])), 6).tolist()
    return out


def _hopf_line_skew_margin(a: float, b: float) -> float:
    # sigma_min of [(aI + bJ)d | d] / |d|: the Gram matrix of the two
    # columns is [[a^2 + b^2, a], [a, 1]] for every d.
    tr = a * a + b * b + 1.0
    return float(np.sqrt((tr - np.sqrt(tr * tr - 4.0 * b * b)) / 2.0))


def _verify_linear(w: _Writer, rng: np.random.Generator) -> list[dict]:
    seeds = iter(rng.integers(0, 2**31 - 1, size=400).tolist())
    ops: list[dict] = []

    def add(op, argv, **expect):
        expect.setdefault("code", 1 if expect.get("verdict") == "fail" else 0)
        ops.append({"op": op, "argv": argv, "expect": expect})

    # Clifford charts: unit-norm families, every skew, nondegeneracy and
    # completion margin is exactly 1.
    clifford = {
        "hopf3.json": ["build", "hopf", "--dim=3"],
        "hopf7.json": ["build", "hopf", "--dim=7"],
        "hopf15.json": ["build", "hopf", "--dim=15"],
        "hr-4-4.json": ["build", "bilinear", "--hr", "4", "4"],
        "hr-8-5.json": ["build", "bilinear", "--hr", "8", "5"],
        "hr-8-8.json": ["build", "bilinear", "--hr", "8", "8"],
        "hr-16-9.json": ["build", "bilinear", "--hr", "16", "9"],
        "alg-complex-2.json": ["build", "bilinear", "--algebra", "complex", "--kp1=2"],
        "alg-quaternion-3.json": ["build", "bilinear", "--algebra", "quaternion", "--kp1=3"],
        "alg-octonion-5.json": ["build", "bilinear", "--algebra", "octonion", "--kp1=5"],
    }
    charts = {name: w.build(name, argv) for name, argv in clifford.items()}
    for base in ("hopf3", "hopf7", "hopf15", "hr-8-5"):
        name = f"off-{base}.json"
        charts[name] = w.chart(name, _offset(charts[f"{base}.json"], rng))

    lines = {}
    for m in (1, 2, 3):
        a = round(float(rng.uniform(-2.0, 2.0)), 6)
        b = round(float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), 6)
        name = f"line-m{m}.json"
        w.build(name, ["build", "hopf-line", f"--m={m}", f"--a={_num(a)}", f"--b={_num(b)}"])
        lines[name] = (m, a, b)
    for m in (2, 3):
        w.build(f"gy-m{m}.json", ["build", "gluck-yang", f"--m={m}"])

    # Deliberately degenerate charts, each with an expected `fail`.
    w.chart("zero.json", {"schema": "skewfib-chart-v1", "k": 1, "q": 2, "kind": "linear",
                          "C": [[[0.0, 0.0], [0.0, 0.0]]]})
    lam = round(float(rng.uniform(-2.0, 2.0)), 6)
    ra, rb = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    blocks = np.zeros((3, 3))
    blocks[0, 0] = lam
    blocks[1:, 1:] = [[ra, -rb], [rb, ra]]
    while True:
        v = rng.standard_normal((3, 3))
        if np.linalg.cond(v) < 20.0:
            break
    conj = np.round(v @ blocks @ np.linalg.inv(v), 9)
    w.chart("real-eig.json", {"schema": "skewfib-chart-v1", "k": 1, "q": 3, "kind": "linear",
                              "C": [conj.tolist()]})
    w.build("plane-k2-n6.json", ["build", "bilinear", "--hr", "4", "3"])

    def skew(chart, radius, samples, **expect):
        add("verify-skew", ["verify", "skew", "--chart", f"@{chart}", f"--radius={radius}",
                            f"--samples={samples}", f"--seed={next(seeds)}"], **expect)

    def nondeg(chart, **expect):
        add("verify-nondeg", ["verify", "nondeg", "--chart", f"@{chart}",
                              f"--seed={next(seeds)}"], **expect)

    def complete(chart, **expect):
        add("sphere-complete-check", ["sphere", "complete-check", "--chart", f"@{chart}",
                                      f"--seed={next(seeds)}"], **expect)

    # Every operation appears twice in a pass, with its own sample seed, so
    # that a pass has more than 100 operations.
    for _ in range(2):
        # The tail: 10k-pair skew requests at radius 100, as in the README.
        for chart in ("hopf7.json", "hopf15.json", "hr-8-5.json", "hr-8-8.json", "hr-16-9.json",
                      "alg-octonion-5.json", "off-hopf15.json", "off-hr-8-5.json"):
            skew(chart, 100, 10000, verdict="ok", margin=1.0)
        for chart in ("hopf3.json", "hopf7.json", "hr-4-4.json", "alg-complex-2.json",
                      "alg-quaternion-3.json", "off-hopf3.json", "off-hopf7.json"):
            skew(chart, 10, 1024, verdict="ok", margin=1.0)
        for chart, (m, a, b) in lines.items():
            skew(chart, 10, 1024, verdict="ok", margin=_hopf_line_skew_margin(a, b))
        skew("zero.json", 10, 256, verdict="fail", witness="skew")

        for chart in ("hopf3.json", "hopf7.json", "hopf15.json", "hr-8-5.json",
                      "alg-quaternion-3.json", "off-hopf15.json"):
            nondeg(chart, verdict="ok", margin=1.0)
        for chart, (m, a, b) in lines.items():
            nondeg(chart, verdict="ok", margin=abs(b))
        nondeg("gy-m2.json", verdict="ok", margin=0.5)

        for chart, (m, a, b) in lines.items():
            add("verify-eigen", ["verify", "eigen", "--chart", f"@{chart}"], verdict="ok", margin=abs(b))
        for chart in ("hopf3.json", "off-hopf3.json"):
            add("verify-eigen", ["verify", "eigen", "--chart", f"@{chart}"], verdict="ok", margin=1.0)
        for m in (2, 3):
            add("verify-eigen", ["verify", "eigen", "--chart", f"@gy-m{m}.json"], verdict="ok", margin=0.5)
        add("verify-eigen", ["verify", "eigen", "--chart", "@zero.json"], verdict="fail", witness="eigen")
        add("verify-eigen", ["verify", "eigen", "--chart", "@real-eig.json"], verdict="fail",
            witness="eigen")

        for chart in ("hopf3.json", "hopf7.json", "hopf15.json", "hr-4-4.json", "hr-8-8.json",
                      "alg-complex-2.json", "off-hopf7.json", "off-hopf15.json"):
            complete(chart, verdict="ok", margin=1.0)
        m1, a1, b1 = lines["line-m1.json"]
        complete("line-m1.json", verdict="ok", margin=float(np.hypot(a1, b1)))
        complete("plane-k2-n6.json", verdict="fail", witness="admissible")

        for chart in ("hopf3.json", "line-m1.json", "line-m2.json", "line-m3.json"):
            add("contact-check", ["contact", "check", "--chart", f"@{chart}", "--point", "0"],
                contact=True)
        for m in (2, 3):
            add("contact-check", ["contact", "check", "--chart", f"@gy-m{m}.json", "--point", "0"],
                contact=False, code=1)
    return ops


def _quad_germ(eps: float) -> dict:
    return {"schema": "skewfib-chart-v1", "kind": "builtin", "k": 1, "q": 2,
            "builtin": {"name": "quad_germ", "params": {"eps": eps}}}


def _germ_smooth(w: _Writer, rng: np.random.Generator) -> list[dict]:
    ops: list[dict] = []

    def seeded(op, argv, **expect):
        ops.append({"op": op, "argv": argv + [f"--seed={int(rng.integers(0, 10_000))}"],
                    "expect": {"code": 0, "verdict": "ok", **expect}})

    for i in range(5):
        eps = round(float(rng.uniform(0.02, 0.15)), 6)
        w.chart(f"germ-{i}.json", _quad_germ(eps))
        ext = f"ext-{i}.json"
        extend = ["germ", "extend", "--chart", f"@germ-{i}.json", "--samples=1000",
                  f"--seed={int(rng.integers(0, 10_000))}"]
        w.cli(extend + ["--out", f"@{ext}"])
        ops.append({"op": "germ-extend", "argv": extend + ["--out", f"@run-{ext}"],
                    "expect": {"code": 0, "extension": ext}})
        for j in range(2):
            seeded("verify-skew", ["verify", "skew", "--chart", f"@{ext}"], smooth="skew")
            seeded("verify-nondeg", ["verify", "nondeg", "--chart", f"@{ext}"], smooth="nondeg")
            for _ in range(2):
                seeded("sphere-complete-check", ["sphere", "complete-check", "--chart", f"@{ext}"],
                       smooth="completion")
            pts = [_ball(rng, 2, 3.0) for _ in range(4)]
            w.text(f"contact-{i}-{j}.txt", [_point_arg(p) for p in pts])
            ops.append({"op": "contact-check",
                        "argv": ["contact", "check", "--chart", f"@{ext}", "--points",
                                 f"@contact-{i}-{j}.txt"],
                        "expect": {"code": 0, "contact": True, "points": len(pts)}})
            for _ in range(5):
                x = _ball(rng, 3, 5.0)
                ops.append({"op": "fiber",
                            "argv": ["fiber", "--chart", f"@{ext}", f"--point={_point_arg(x)}"],
                            "expect": {"code": 0, "fiber": ext, "x": x.tolist()}})
    return ops


def _rotation(a: float, b: float, m: int) -> list:
    return (a * np.eye(2 * m) + b * np.kron(np.eye(m), J2)).tolist()


def _point_queries(w: _Writer, rng: np.random.Generator) -> list[dict]:
    ops: list[dict] = []
    for name in ("hopf3", "hopf7", "hopf15"):
        dim = name[4:]
        w.build(f"{name}.json", ["build", "hopf", f"--dim={dim}"])
    for m in (1, 2):
        a = round(float(rng.uniform(-2.0, 2.0)), 6)
        b = round(float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), 6)
        w.build(f"line-m{m}.json", ["build", "hopf-line", f"--m={m}", f"--a={_num(a)}",
                                    f"--b={_num(b)}"])
    w.build("gy-m2.json", ["build", "gluck-yang", "--m=2"])
    w.chart("germ.json", _quad_germ(round(float(rng.uniform(0.02, 0.15)), 6)))
    w.cli(["germ", "extend", "--chart", "@germ.json", f"--seed={int(rng.integers(0, 10_000))}",
           "--out", "@ext.json"])

    dims = {"hopf3.json": (1, 2), "hopf7.json": (3, 4), "hopf15.json": (7, 8),
            "line-m1.json": (1, 2), "line-m2.json": (1, 4), "ext.json": (1, 2)}

    mats = []
    for i in range(3):
        a = round(float(rng.uniform(-2.0, 2.0)), 6)
        b = round(float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])), 6)
        _write_json(w.path(f"rot-{i}.json"), {"matrix": _rotation(a, b, 2)})
        mats.append((f"rot-{i}.json", a, b))
    mixed = np.zeros((4, 4))
    mixed[:2, :2] = J2
    mixed[2:, 2:] = round(float(rng.uniform(1.5, 3.0)), 6) * J2
    _write_json(w.path("mixed.json"), {"matrix": mixed.tolist()})

    # Every kind of call appears twice in a pass, with fresh arguments, so
    # that a pass has more than 100 operations.
    for _ in range(2):
        for chart in ("hopf3.json", "hopf7.json", "hopf15.json", "line-m2.json"):
            for _ in range(6):
                x = _ball(rng, sum(dims[chart]), 50.0)
                ops.append({"op": "fiber_solve", "call": {"fn": "fiber_solve", "chart": chart,
                                                          "x": x.tolist()}, "expect": {}})
        for _ in range(4):
            x = _ball(rng, 3, 5.0)
            ops.append({"op": "fiber_solve", "call": {"fn": "fiber_solve", "chart": "ext.json",
                                                      "x": x.tolist()}, "expect": {}})
        for chart in ("hopf3.json", "hopf7.json", "hopf15.json", "line-m1.json", "ext.json"):
            for _ in range(2):
                k, q = dims[chart]
                ops.append({"op": "fiber_plane",
                            "call": {"fn": "fiber_plane", "chart": chart,
                                     "y": _ball(rng, q, 5.0).tolist(),
                                     "t": rng.uniform(-3.0, 3.0, k).tolist()},
                            "expect": {}})

        for name, a, b in mats:
            for _ in range(3):
                ops.append({"op": "sphere_fiber_direction",
                            "call": {"fn": "sphere_fiber_direction", "matrix": name,
                                     "z": rng.uniform(-5.0, 5.0, 4).tolist(),
                                     "z_t": float(rng.uniform(-3.0, 3.0))},
                            "expect": {"a": a, "b": b}})
        for name, a, b in mats:
            generic = rng.standard_normal(6)
            equator = np.concatenate([rng.standard_normal(5), [0.0]])
            core = np.concatenate([[0.0], rng.standard_normal(4), [0.0]])
            for p in (generic, equator, core):
                ops.append({"op": "assign",
                            "call": {"fn": "assign", "matrix": name,
                                     "p": (p / np.linalg.norm(p)).tolist()},
                            "expect": {}})
        name, a, b = mats[int(rng.integers(0, len(mats)))]
        ops.append({"op": "invariant_on_planes",
                    "call": {"fn": "invariant_on_planes", "matrix": name},
                    "expect": {"invariant": True, "a": a, "b": b}})
        ops.append({"op": "invariant_on_planes",
                    "call": {"fn": "invariant_on_planes", "matrix": "mixed.json"},
                    "expect": {"invariant": False}})

        for chart in ("line-m1.json", "line-m2.json", "hopf3.json"):
            q = dims[chart][1]
            ops.append({"op": "contact_check",
                        "call": {"fn": "contact_check", "chart": chart,
                                 "y": _ball(rng, q, 2.0).tolist()},
                        "expect": {"contact": True}})
        ops.append({"op": "contact_check",
                    "call": {"fn": "contact_check", "chart": "gy-m2.json", "y": [0.0] * 4},
                    "expect": {"contact": False}})

        for chart in ("hopf3.json", "line-m1.json", "line-m2.json"):
            q = dims[chart][1]
            uq = rng.standard_normal(q)
            uq /= np.linalg.norm(uq)
            # v is orthogonal to u: its chart-plane part is a multiple of J u.
            jq = np.kron(np.eye(q // 2), J2) @ uq
            u = np.concatenate([[0.0], uq])
            v = np.concatenate([[rng.uniform(-3.0, 3.0)], rng.uniform(-3.0, 3.0) * jq])
            ops.append({"op": "limiting_direction",
                        "call": {"fn": "limiting_direction", "chart": chart, "u": u.tolist(),
                                 "v": v.tolist()},
                        "expect": {}})

        for chart, steps in (("hopf7.json", 5), ("line-m2.json", 9)):
            q = dims[chart][1]
            base = np.stack([_ball(rng, q, 3.0) for _ in range(8)])
            ops.append({"op": "sample_fibers",
                        "call": {"fn": "sample_fibers", "chart": chart, "base": base.tolist(),
                                 "steps": steps},
                        "expect": {}})
    return ops


_BUILDERS = {
    "verify-linear": _verify_linear,
    "germ-smooth": _germ_smooth,
    "point-queries": _point_queries,
}


def write_corpus(workload: str, seed: int, workdir: str, cli_main) -> list[dict]:
    """Write the corpus of one workload into workdir and return its operations.

    The pass order is shuffled by the seed; `ops.json` records it.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(workload, seed)
    ops = _BUILDERS[workload](_Writer(workdir, cli_main), rng)
    order = rng.permutation(len(ops))
    ops = [ops[int(i)] for i in order]
    for i, op in enumerate(ops):
        op["id"] = i
    _write_json(os.path.join(workdir, "ops.json"), ops)
    return ops
