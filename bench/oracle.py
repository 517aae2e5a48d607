"""Independent checks of every benchmark operation, in plain numpy.

Each check recomputes what an operation reports from the corpus files
and closed forms, following acceptance criteria 03, 04, 05, 07, 10 and
11.  Nothing here calls skewfib: chart maps are evaluated from the
chart-file data, and the smooth germ extension is re-implemented from
its definition.  `check` returns None when an output is accepted and a
one-line reason otherwise.

On charts whose verdict may be certified exactly in the future, either
`pass` or `evidence-only` is accepted; what counts as an error is a
wrong exit code, a wrong margin, or a change between an ok verdict and
`fail`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
OK_VERDICTS = ("pass", "evidence-only")
# The library's default singularity threshold: sigma_min <= REL * sigma_max + ABS.
REL, ABS = 1e-8, 1e-12


class Reject(Exception):
    """An output its oracle does not accept."""


def _require(cond, why: str) -> None:
    if not cond:
        raise Reject(why)


def _bump(s: float) -> float:
    if s <= 0.5:
        return 1.0
    if s >= 1.0:
        return 0.0
    tau = 2.0 * (s - 0.5)
    g1 = math.exp(-1.0 / (1.0 - tau))
    g0 = math.exp(-1.0 / tau)
    return g1 / (g1 + g0)


class ChartMap:
    """B(y) evaluated from a chart file, without the library."""

    def __init__(self, data: dict):
        self.k, self.q = int(data["k"]), int(data["q"])
        self.kind = data["kind"]
        if self.kind in ("linear", "affine"):
            self.C = np.asarray(data["C"], dtype=float)
            self.B0 = np.asarray(data["B0"], dtype=float) if self.kind == "affine" else None
            return
        meta = data["builtin"]
        if meta["name"] != "germ_extension":
            raise ValueError(f"no oracle for builtin chart {meta['name']!r}")
        base = meta["params"]["base"]["builtin"]
        if base["name"] != "quad_germ":
            raise ValueError("oracle extensions are of quad_germ only")
        self.eps = float(base["params"]["eps"])
        self.blend_r = float(meta["params"]["blend_r"])

    @property
    def n(self) -> int:
        return self.k + self.q

    def B(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind in ("linear", "affine"):
            out = np.einsum("jab,b->aj", self.C, y)
            return out + self.B0 if self.B0 is not None else out
        # quad_germ: B(y) = J y + eps (y0^2, y0 y1); its linearization at 0 is J y.
        germ = J2 @ y + self.eps * np.array([y[0] ** 2, y[0] * y[1]])
        lin = J2 @ y
        w = _bump(float(np.linalg.norm(y)) / self.blend_r)
        return (w * germ + (1.0 - w) * lin).reshape(2, 1)

    def dB0(self, y: np.ndarray, h: float = 1e-6) -> np.ndarray:
        """q x q derivative of the first column of B at y."""
        cols = []
        for i in range(self.q):
            e = np.zeros(self.q)
            e[i] = h
            cols.append((self.B(y + e)[:, 0] - self.B(y - e)[:, 0]) / (2.0 * h))
        return np.column_stack(cols)


class Oracle:
    """Checks outputs against the corpus in one work directory."""

    def __init__(self, workdir: str):
        self.dir = workdir
        self._json: dict[str, object] = {}
        self._maps: dict[str, ChartMap] = {}

    def load(self, name: str):
        if name not in self._json:
            with open(os.path.join(self.dir, name), "r", encoding="utf-8") as fh:
                self._json[name] = json.load(fh)
        return self._json[name]

    def chart(self, name: str) -> ChartMap:
        if name not in self._maps:
            self._maps[name] = ChartMap(self.load(name))
        return self._maps[name]

    def matrix(self, name: str) -> np.ndarray:
        return np.asarray(self.load(name)["matrix"], dtype=float)

    def check(self, op: dict, out) -> str | None:
        try:
            if "argv" in op:
                self._cli(op, *out)
            else:
                getattr(self, "_" + op["call"]["fn"])(op["call"], op["expect"], out)
        except Reject as exc:
            return f"op {op['id']} {op['op']}: {exc}"
        except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
            return f"op {op['id']} {op['op']}: malformed output ({type(exc).__name__}: {exc})"
        return None

    # -- CLI operations ---------------------------------------------------

    def _cli(self, op: dict, code: int, stdout: str) -> None:
        exp = op["expect"]
        _require(code == exp["code"], f"exit code {code}, expected {exp['code']}")
        rep = json.loads(stdout.strip().splitlines()[-1])
        argv = op["argv"]
        chart = argv[argv.index("--chart") + 1][1:]
        if "verdict" in exp:
            if exp["verdict"] == "ok":
                _require(rep["verdict"] in OK_VERDICTS, f"verdict {rep['verdict']}, expected ok")
            else:
                _require(rep["verdict"] == "fail", f"verdict {rep['verdict']}, expected fail")
                _require(rep["witnesses"], "fail without a witness")
        if "margin" in exp:
            want = exp["margin"]
            _require(abs(rep["margin"] - want) <= 1e-9 * max(1.0, abs(want)),
                     f"margin {rep['margin']!r}, expected {want!r}")
        if "witness" in exp:
            getattr(self, "_witness_" + exp["witness"])(self.chart(chart), rep)
        if "smooth" in exp:
            getattr(self, "_smooth_" + exp["smooth"])(self.chart(chart), rep)
        if "contact" in exp:
            self._cli_contact(op, chart, rep)
        if "extension" in exp:
            self._germ_extend(op, rep)
        if "fiber" in exp:
            self._cli_fiber(self.chart(chart), np.asarray(exp["x"]), rep)

    def _witness_skew(self, c: ChartMap, rep: dict) -> None:
        for wit in rep["witnesses"]:
            x, y = np.asarray(wit["x"]), np.asarray(wit["y"])
            mat = np.column_stack([c.B(x) - c.B(y), x - y])
            sv = np.linalg.svd(mat, compute_uv=False)
            _require(sv[-1] <= REL * sv[0] + ABS, "skew witness is not singular")
            _require(abs(sv[-1] - wit["sigma_min"]) <= 1e-9 * (1.0 + sv[0]),
                     "skew witness sigma_min does not match")

    def _witness_eigen(self, c: ChartMap, rep: dict) -> None:
        eig = np.linalg.eigvals(c.C[0])
        for wit in rep["witnesses"]:
            lam = float(wit["eigenvalue"])
            _require(np.min(np.abs(eig - lam)) <= 1e-8 * (1.0 + abs(lam)),
                     f"witness {lam!r} is not a real eigenvalue")

    def _witness_admissible(self, c: ChartMap, rep: dict) -> None:
        wit = rep["witnesses"][0]
        _require((wit["k"], wit["n"]) == (c.k, c.n), "witness names another (k, n)")
        # Great k-sphere fibrations of S^n need k in {0, 1, 3, 7} and n = 2k + 1.
        _require(c.k not in (0, 1, 3, 7) or c.n != 2 * c.k + 1, "admissible (k, n) rejected")

    def _smooth_nondeg(self, c: ChartMap, rep: dict) -> None:
        worst = np.asarray(rep["details"]["worst_point"])
        eig = np.linalg.eigvals(c.dB0(worst))
        _require(abs(float(np.min(np.abs(eig.imag))) - rep["margin"]) <= 1e-6,
                 "nondeg margin differs from the eigenvalue at the worst point")
        _require(rep["margin"] > 0.0, "nondeg margin is not positive")

    def _smooth_skew(self, c: ChartMap, rep: dict) -> None:
        # Pairs outside the blend radius see the linear chart J y, whose
        # margin is exactly 1, so the sampled minimum cannot exceed it.
        _require(0.0 < rep["margin"] <= 1.0 + 1e-9, f"skew margin {rep['margin']!r}")
        _require(0 < rep["details"]["pairs_tested"] <= rep["sampling"]["count"],
                 "pairs_tested out of range")

    def _smooth_completion(self, c: ChartMap, rep: dict) -> None:
        _require(0.0 < rep["margin"] <= 1.0 + 1e-6, f"completion margin {rep['margin']!r}")

    def _cli_contact(self, op: dict, chart: str, rep: dict) -> None:
        want = op["expect"]["contact"]
        results = rep["results"]
        _require(rep["all_contact"] == want, f"all_contact {rep['all_contact']}")
        c = self.chart(chart)
        if "points" in op["expect"]:
            argv = op["argv"]
            path = os.path.join(self.dir, argv[argv.index("--points") + 1][1:])
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
            _require(len(results) == op["expect"]["points"], "wrong number of results")
            for r, p in zip(results, pts):
                _require(np.allclose(r["point"], p, rtol=0.0, atol=1e-15), "result for another point")
                _require(r["is_contact"] and r["det_margin"] > 1e-6, "point is not contact")
            return
        # Linear chart at the origin: contact exactly when M - M^T is nonsingular.
        sv = np.linalg.svd(c.C[0] - c.C[0].T, compute_uv=False)
        _require((sv[-1] > 1e-10) == want, "M - M^T disagrees with the expected dichotomy")
        for r in results:
            _require(r["is_contact"] == want, f"is_contact {r['is_contact']}")
            if not want:
                _require(r["det_margin"] <= 1e-10, f"det_margin {r['det_margin']!r}")

    def _germ_extend(self, op: dict, rep: dict) -> None:
        argv = op["argv"]
        written = argv[argv.index("--out") + 1][1:]
        _require(rep.get("written", "").endswith(written), "extension not written")
        with open(os.path.join(self.dir, written), "rb") as fh:
            got = fh.read()
        with open(os.path.join(self.dir, op["expect"]["extension"]), "rb") as fh:
            ref = fh.read()
        _require(got == ref, "extension differs from the set-up run with the same seed")
        data = json.loads(got)
        germ = self.load(argv[argv.index("--chart") + 1][1:])
        params = data["builtin"]["params"]
        _require(params["base"]["builtin"] == germ["builtin"], "extension of another germ")
        halvings = math.log2(0.5 / params["blend_r"])
        _require(abs(halvings - round(halvings)) <= 1e-12 and 0 <= round(halvings) <= 20,
                 f"blend_r {params['blend_r']!r} is not a halving of 0.5")

    def _cli_fiber(self, c: ChartMap, x: np.ndarray, rep: dict) -> None:
        y = np.asarray(rep["chart_point"])
        self._fiber_point(c, x, y)
        frame = np.asarray(rep["direction"])
        self._in_plane(x, frame, np.asarray(rep["base"]))

    # -- shared geometry --------------------------------------------------

    def _fiber_point(self, c: ChartMap, x: np.ndarray, y: np.ndarray) -> None:
        res = float(np.linalg.norm(y + c.B(y) @ x[: c.k] - x[c.k:]))
        _require(res <= 1e-10 * (1.0 + float(np.linalg.norm(x))), f"fiber residual {res:.3e}")

    @staticmethod
    def _in_plane(x: np.ndarray, frame: np.ndarray, base: np.ndarray) -> None:
        _require(np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))) <= 1e-12,
                 "fiber frame is not orthonormal")
        gap = x - base
        gap = gap - frame @ (frame.T @ gap)
        _require(float(np.linalg.norm(gap)) <= 1e-9 * (1.0 + float(np.linalg.norm(x))),
                 "point does not lie in its fiber plane")

    # -- library operations -----------------------------------------------

    def _fiber_solve(self, call: dict, exp: dict, y) -> None:
        self._fiber_point(self.chart(call["chart"]), np.asarray(call["x"]), np.asarray(y))

    def _fiber_plane(self, call: dict, exp: dict, plane) -> None:
        c = self.chart(call["chart"])
        y, t = np.asarray(call["y"]), np.asarray(call["t"])
        x = np.concatenate([t, c.B(y) @ t + y])
        self._in_plane(x, np.asarray(plane.direction.frame), np.asarray(plane.base))

    def _sphere_fiber_direction(self, call: dict, exp: dict, d) -> None:
        m = self.matrix(call["matrix"])
        z, zt = np.asarray(call["z"]), float(call["z_t"])
        a, b = exp["a"], exp["b"]
        s = (1.0 + zt * a) ** 2 + (zt * b) ** 2
        w = m @ np.linalg.solve(np.eye(len(z)) + zt * m, z)
        inverse_form = s * np.concatenate([[1.0], w, [0.0]])
        d = np.asarray(d)
        _require(float(np.linalg.norm(d - inverse_form)) <= 1e-9 * (1.0 + float(np.linalg.norm(d))),
                 "block form and inverse form disagree")

    def _assign(self, call: dict, exp: dict, circle) -> None:
        frame = np.asarray(circle.frame)
        p = np.asarray(call["p"])
        _require(frame.shape == (p.size, 2), f"circle frame shape {frame.shape}")
        _require(np.max(np.abs(frame.T @ frame - np.eye(2))) <= 1e-12, "circle frame not orthonormal")
        _require(float(np.linalg.norm(p - frame @ (frame.T @ p))) <= 1e-9,
                 "assigned circle misses its point")

    def _invariant_on_planes(self, call: dict, exp: dict, rep) -> None:
        _require(rep.is_invariant == exp["invariant"], f"is_invariant {rep.is_invariant}")
        if exp["invariant"]:
            _require(abs(rep.a - exp["a"]) <= 1e-10 and abs(rep.b - exp["b"]) <= 1e-10,
                     f"(a, b) = ({rep.a!r}, {rep.b!r}), expected ({exp['a']!r}, {exp['b']!r})")
            _require(rep.max_residual <= 1e-10, f"max_residual {rep.max_residual:.3e}")

    def _contact_check(self, call: dict, exp: dict, rep) -> None:
        _require(rep.is_contact == exp["contact"], f"is_contact {rep.is_contact}")
        if exp["contact"]:
            _require(rep.det_margin > 1e-6, f"det_margin {rep.det_margin!r}")
        else:
            m = self.chart(call["chart"]).C[0]
            sv = np.linalg.svd(m - m.T, compute_uv=False)
            _require(sv[-1] <= 1e-12 and rep.det_margin <= 1e-10, "contact degeneracy not shown")

    def _limiting_direction(self, call: dict, exp: dict, got) -> None:
        m = self.chart(call["chart"]).C[0]
        u, v = np.asarray(call["u"]), np.asarray(call["v"])
        # B(y) = M y along v + s u: y ~ s (I + v_t M)^{-1} u, so the fiber
        # direction (1, M y) tends to (0, M (I + v_t M)^{-1} u).
        lim = m @ np.linalg.solve(np.eye(m.shape[0]) + v[0] * m, u[1:])
        want = np.concatenate([[0.0], lim]) / np.linalg.norm(lim)
        _require(float(np.linalg.norm(np.asarray(got) - want)) <= 1e-6, "limit direction is off")

    def _sample_fibers(self, call: dict, exp: dict, out) -> None:
        ids, idx, pts = (np.asarray(a) for a in out)
        c = self.chart(call["chart"])
        base, steps = np.asarray(call["base"]), int(call["steps"])
        _require(pts.shape == (len(base) * steps ** c.k, c.n), f"sample shape {pts.shape}")
        axis = np.linspace(-1.0, 1.0, steps)
        for row, fid, ind in zip(pts, ids, idx):
            y = base[int(fid)]
            t = axis[ind]
            _require(np.array_equal(row[: c.k], t), "sample parameters off the grid")
            want = c.B(y) @ t + y
            _require(float(np.linalg.norm(row[c.k:] - want)) <= 1e-12 * (1.0 + float(np.linalg.norm(want))),
                     "sample point off its fiber")
