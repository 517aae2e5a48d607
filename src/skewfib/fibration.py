"""Charts for skew fibrations of R^n = R^k x R^q.

A chart is the data of a map B from the chart plane R^q to Hom(R^k, R^q);
the fiber through a chart point y is the graph {(t, B(y) t + y)}.  Linear
charts store B as k matrices C_j with B(y) t = sum_j t_j C_j y, affine
charts add a constant offset, and smooth charts evaluate a closed form.

Evaluation is batch-first: Chart.B and Chart.dB take one point (q,) or a
stack (N, q), and a smooth chart's b_func/db_func map an (N, q) stack to
N values.  The sampled checks evaluate all their points in one call, and
a single point runs the same code as a stack of one.

The fibration is by pairwise skew planes exactly when the stacked
difference [B(x) - B(y) | x - y] has trivial kernel for all x != y, and
is nondegenerate when the derivative of y -> [B(y) | y] is a nonsingular
bilinear map.  For line fibrations (k = 1) nondegeneracy is exactly
"dB_y has no real eigenvalues", which is tested exactly.

Coordinates: fiber parameters first, chart plane last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import report as rp
from .bilinear import BilinearMap, J2, from_algebra, gram_first, pencil_report, verify_nonsingular
from .errors import (
    BlendFailure,
    InvalidInput,
    NoConvergence,
    SingularLastColumn,
    SingularSystem,
)
from .grassmann import AffinePlane, OrientedPlane, _built, max_principal_angle
from .numeric import (
    SampleStream,
    Tolerance,
    eig_screen,
    eigenvalues,
    finite_vector,
    is_singular,
    oriented_q,
    overflow_is_invalid,
    real_eigenvalue_mask,
    row_norms,
    spherical_distance,
)

LINEAR = "linear"
AFFINE = "affine"
BUILTIN = "builtin"

CHART_SCHEMA = "skewfib-chart-v1"

# Unit vectors t per chart point in the smooth k >= 2 nondegeneracy check.
T_SAMPLES = 64
# Distance along the ray at which limiting_direction evaluates the fiber.
LIMIT_T = 1e8


@dataclass(frozen=True, eq=False)
class Chart:
    """A chart of a fibration of R^(k+q) by affine k-planes.

    B and dB take one chart point, shape (q,), or a stack of them, shape
    (N, q), and return B(y) as (q, k) or (N, q, k) and dB as (q, k, q) or
    (N, q, k, q).  A single point is the N = 1 case of the stack path, so
    row i of a stacked result equals the result for row i alone, bit for
    bit.  A builtin chart's b_func and db_func follow the same stack
    contract: they receive an (N, q) array and return N values of B
    (anything reshapeable to (N, q, k)) and of dB ((N, q, k, q)); a
    builtin chart needs both, since dB is never guessed from B.  C holds
    the linear part of a linear or affine chart as one (k, q, q) array;
    the constructor takes any sequence of k matrices of shape (q, q).
    """

    k: int
    q: int
    kind: str
    C: np.ndarray | None = None
    B0: np.ndarray | None = None
    name: str | None = None
    params: dict | None = None
    domain_radius: float = math.inf
    b_func: object = field(default=None, repr=False)
    db_func: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.k < 1 or self.q < 1:
            raise InvalidInput(f"need k >= 1 and q >= 1, got k={self.k} q={self.q}")
        if self.kind not in (LINEAR, AFFINE, BUILTIN):
            raise InvalidInput(f"unknown chart kind {self.kind!r}")
        if self.kind in (LINEAR, AFFINE):
            if self.C is None or len(self.C) != self.k:
                raise InvalidInput(f"linear chart needs {self.k} matrices")
            mats = tuple(np.asarray(m, dtype=float) for m in self.C)
            for m in mats:
                if m.shape != (self.q, self.q):
                    raise InvalidInput(f"chart matrix shape {m.shape} != ({self.q}, {self.q})")
            cs = np.stack(mats)
            if not np.isfinite(cs).all():
                raise InvalidInput("chart matrices must be finite")
            object.__setattr__(self, "C", cs)
        if self.kind == AFFINE:
            b0 = np.asarray(self.B0, dtype=float)
            if b0.shape != (self.q, self.k):
                raise InvalidInput(f"offset shape {b0.shape} != ({self.q}, {self.k})")
            if not np.isfinite(b0).all():
                raise InvalidInput("chart offset must be finite")
            object.__setattr__(self, "B0", b0)
        if self.kind == BUILTIN and (self.b_func is None or self.db_func is None):
            raise InvalidInput("builtin chart needs evaluation functions for B and dB")

    @property
    def n(self) -> int:
        return self.k + self.q

    @property
    def is_linear(self) -> bool:
        """Linear or affine: B depends (affinely) linearly on y."""
        return self.kind in (LINEAR, AFFINE)

    def with_offset(self, b0: np.ndarray) -> "Chart":
        """Affine chart with the same linear part and the given offset."""
        if not self.is_linear:
            raise InvalidInput("offsets only apply to linear charts")
        return Chart(self.k, self.q, AFFINE, C=self.C, B0=b0, name=self.name, params=self.params)

    def _points(self, y: np.ndarray) -> np.ndarray:
        """Chart points as an (N, q) stack; one point is N = 1."""
        if y.ndim > 2 or y.shape[-1:] != (self.q,):
            raise InvalidInput(f"chart point shape {y.shape} != ({self.q},) or (N, {self.q})")
        return y.reshape(-1, self.q)

    def B(self, y: np.ndarray) -> np.ndarray:
        """The q x k matrix B(y), or an (N, q, k) stack for (N, q) points."""
        y = np.asarray(y, dtype=float)
        out = self._finite(self._b(self._points(y)), "B")
        return out if y.ndim == 2 else out[0]

    def _b(self, ys: np.ndarray) -> np.ndarray:
        """B on an (N, q) stack of points, as an (N, q, k) array."""
        if self.kind == BUILTIN:
            return np.asarray(self.b_func(ys), dtype=float).reshape(len(ys), self.q, self.k)
        # one matrix-vector product C_j y per point and j, rounded as for a single point
        out = np.matmul(self.C, ys[:, None, :, None])[..., 0].transpose(0, 2, 1)
        out = np.ascontiguousarray(out)
        if self.kind == AFFINE:
            out += self.B0
        return out

    def dB(self, y: np.ndarray) -> np.ndarray:
        """Derivative of B at y as a (q, k, q) tensor T[i, j, l] = dB_ij/dy_l,
        or an (N, q, k, q) stack for (N, q) points."""
        y = np.asarray(y, dtype=float)
        out = self._finite(self._db(self._points(y)), "dB")
        return out if y.ndim == 2 else out[0]

    def _finite(self, out: np.ndarray, what: str) -> np.ndarray:
        """out, unless a builtin chart's closures gave a value that is not
        finite: checked once per public call, not in the per-row _b and _db
        that extensions nest."""
        if self.kind == BUILTIN and not np.isfinite(out).all():
            raise InvalidInput(f"builtin chart {what}(y) is not finite")
        return out

    def _db(self, ys: np.ndarray) -> np.ndarray:
        """dB on an (N, q) stack of points, as an (N, q, k, q) array."""
        if self.kind == BUILTIN:
            shape = (len(ys), self.q, self.k, self.q)
            return np.asarray(self.db_func(ys), dtype=float).reshape(shape)
        return self.C.transpose(1, 0, 2)[None].repeat(len(ys), axis=0)


def from_bilinear(a: BilinearMap, tol: Tolerance | None = None) -> Chart:
    """Linear chart from a nonsingular bilinear map.

    Divides by the last matrix slot so the chart-plane column becomes the
    identity: C_j = inv(M_kp1) M_j for j <= k.  The caller is expected to
    have verified nonsingularity; only invertibility of the last slot is
    checked here.
    """
    tol = tol or Tolerance.default()
    if a.kp1 < 2:
        raise InvalidInput("need kp1 >= 2 to form a chart")
    last = a.mats[-1]
    sv = np.linalg.svd(last, compute_uv=False)
    if is_singular(sv, tol):
        raise SingularLastColumn(f"last matrix has sigma_min={sv[-1]:.3e}")
    cs = tuple(np.linalg.solve(last, m) for m in a.mats[:-1])
    return Chart(a.kp1 - 1, a.q, LINEAR, C=cs)


def block_rotation(m: int) -> np.ndarray:
    """Block-diagonal 2m x 2m complex structure (m copies of J2)."""
    return np.kron(np.eye(m), J2)


_QUAD_DB = np.array([[2.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])


def _quad_germ_chart(eps: float) -> Chart:
    eps = float(eps)

    def b(ys):
        # J2 has entries 0 and +-1, so every row of ys @ J2.T is exact, equal to J2 @ y
        out = ys @ J2.T
        quad = ys[:, :1] * ys
        # float_power is pow, which rounds like the scalar y0 ** 2; y0 * y0 does not
        quad[:, 0] = np.float_power(ys[:, 0], 2)
        quad *= eps
        out += quad
        return out[:, :, None]

    def db(ys):
        # rows [[2 y0, 0], [y1, y0]]: each entry is one product by 0, 1 or 2, so exact
        return J2 + eps * (ys @ _QUAD_DB).reshape(-1, 2, 2)

    return Chart(
        1, 2, BUILTIN, name="quad_germ", params={"eps": eps},
        domain_radius=1.0, b_func=b, db_func=db,
    )


def _number(fields: dict, key: str, what: str, convert=float):
    """fields[key] converted by convert, or InvalidInput naming the field
    when it is missing or holds no number."""
    if key not in fields:
        raise InvalidInput(f"{what} missing key {key!r}")
    try:
        return convert(fields[key])
    except (TypeError, ValueError):
        raise InvalidInput(f"{what} key {key!r} must hold a number, got {fields[key]!r}") from None


def _array(data: dict, key: str, ndim: int) -> np.ndarray:
    """data[key] as a float array of ndim dimensions, or InvalidInput
    naming the chart data key that holds anything else."""
    try:
        out = np.asarray(data.get(key), dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim:
        raise InvalidInput(f"chart data key {key!r} must hold a {ndim}-dimensional array of numbers")
    return out


def builtin_chart(name: str, **params) -> Chart:
    """Named chart families.

    hopf3, hopf7, hopf15: line/3-plane/7-plane fibrations from complex,
    quaternion, and octonion multiplication.  hopf_line(m, a, b): the
    line fibration of R^(2m+1) with B(y) = (a I + b J) y.  gluck_yang(m):
    the line fibration whose orthogonal plane field fails the contact
    condition.  quad_germ(eps): a quadratically perturbed line germ on
    the unit disk, for extension demos.
    """
    if name == "hopf3":
        c = builtin_chart("hopf_line", m=1, a=0.0, b=1.0)
        return replace(c, name="hopf3", params={})
    if name == "hopf7":
        return replace(from_bilinear(from_algebra("quaternion", 4)), name="hopf7", params={})
    if name == "hopf15":
        return replace(from_bilinear(from_algebra("octonion", 8)), name="hopf15", params={})
    if name == "hopf_line":
        m = _number(params, "m", "hopf_line parameters", int)
        a = _number(params, "a", "hopf_line parameters")
        b = _number(params, "b", "hopf_line parameters")
        for key, v in (("a", a), ("b", b)):
            if not math.isfinite(v):
                raise InvalidInput(f"hopf_line parameter {key} must be finite, got {v}")
        if m < 1:
            raise InvalidInput(f"need m >= 1, got {m}")
        if b == 0.0:
            raise InvalidInput("need b != 0: a real multiple of the identity is degenerate")
        c1 = a * np.eye(2 * m) + b * block_rotation(m)
        return Chart(1, 2 * m, LINEAR, C=(c1,), name="hopf_line", params={"m": m, "a": a, "b": b})
    if name == "gluck_yang":
        from .contact import gluck_yang_matrix

        m = _number(params, "m", "gluck_yang parameters", int)
        return Chart(
            1, 2 * m, LINEAR, C=(gluck_yang_matrix(m),), name="gluck_yang", params={"m": m}
        )
    if name == "quad_germ":
        eps = _number({"eps": 0.05, **params}, "eps", "quad_germ parameters")
        if not math.isfinite(eps):
            raise InvalidInput(f"quad_germ parameter eps must be finite, got {eps}")
        return _quad_germ_chart(eps)
    if name == "germ_extension":
        blend_r = _number(params, "blend_r", "germ_extension parameters")
        if not (math.isfinite(blend_r) and blend_r > 0.0):
            raise InvalidInput(
                f"germ_extension parameter blend_r must be finite and > 0, got {blend_r}"
            )
        base = params.get("base")
        if isinstance(base, dict):
            base = chart_from_dict(base)
        if not isinstance(base, Chart):
            raise InvalidInput(
                f"germ_extension parameters key 'base' must hold a chart, got {type(base).__name__}"
            )
        if blend_r > base.domain_radius:
            raise InvalidInput(
                f"germ_extension parameter blend_r must be <= the base's domain radius "
                f"{base.domain_radius}, got {blend_r}"
            )
        return _make_extension(base, _linearization(base), blend_r)
    raise InvalidInput(f"unknown builtin chart {name!r}")


def chart_to_dict(c: Chart) -> dict:
    out: dict = {"schema": CHART_SCHEMA, "k": c.k, "q": c.q, "kind": c.kind}
    if c.is_linear:
        out["C"] = [m.tolist() for m in c.C]
        if c.kind == AFFINE:
            out["B0"] = c.B0.tolist()
        if c.name:
            out["builtin"] = {"name": c.name, "params": c.params or {}}
        return out
    if c.name == "germ_extension":
        base = chart_to_dict(c.params["base"])
        out["builtin"] = {"name": c.name, "params": {"blend_r": c.params["blend_r"], "base": base}}
        return out
    if c.name:
        out["builtin"] = {"name": c.name, "params": c.params or {}}
        return out
    raise InvalidInput("cannot serialize an anonymous smooth chart")


def chart_from_dict(data: dict) -> Chart:
    """The chart that chart_to_dict wrote, or any dict of the same layout,
    as read from a chart file.  Data of another shape raises InvalidInput
    naming the field."""
    if not isinstance(data, dict):
        raise InvalidInput(f"chart data must be a JSON object, got {type(data).__name__}")
    if "kind" not in data:
        raise InvalidInput("chart data missing key 'kind'")
    kind = data["kind"]
    k, q = _number(data, "k", "chart data", int), _number(data, "q", "chart data", int)
    meta = data.get("builtin") or {}
    if not (isinstance(meta, dict) and isinstance(meta.get("params") or {}, dict)):
        raise InvalidInput("chart data key 'builtin' must hold an object with an object 'params'")
    if kind in (LINEAR, AFFINE):
        return Chart(
            k, q, kind, C=_array(data, "C", 3),
            B0=_array(data, "B0", 2) if kind == AFFINE else None,
            name=meta.get("name"), params=meta.get("params"),
        )
    if kind == BUILTIN:
        if "name" not in meta:
            raise InvalidInput("builtin chart data needs builtin.name")
        c = builtin_chart(meta["name"], **(meta.get("params") or {}))
        if (c.k, c.q) != (k, q):
            raise InvalidInput(f"builtin {meta['name']} has (k, q) = ({c.k}, {c.q}), data says ({k}, {q})")
        return c
    raise InvalidInput(f"unknown chart kind {kind!r}")


# ---------------------------------------------------------------------------
# fibers


def _solve(
    c: Chart, s: float, t: np.ndarray, b: np.ndarray, y0: np.ndarray, budget: float, tol: Tolerance
) -> np.ndarray:
    """Chart point y with s y + B(y) t = b (s = 1 or 0) to a residual <= budget.

    Linear and affine charts: one direct solve and one refinement step.
    Smooth charts: damped Newton from y0, at most 100 steps.  A singular
    system matrix or Newton Jacobian raises SingularSystem; a residual
    above the budget raises NoConvergence.
    """
    # s y is added, not multiplied: for s = 1 the arithmetic is that of y + B(y) t = b
    eye = np.eye(c.q) if s else 0.0

    def residual(y):
        return (y if s else 0.0) + c.B(y) @ t - b

    if c.is_linear:
        mat = eye + sum(t[j] * c.C[j] for j in range(c.k))
        rhs = b - (c.B0 @ t if c.kind == AFFINE else 0.0)
        sv = np.linalg.svd(mat, compute_uv=False)
        if is_singular(sv, tol):
            raise SingularSystem(f"chart system singular at t1={t.tolist()}: sigma_min={sv[-1]:.3e}")
        y = np.linalg.solve(mat, rhs)
        # One refinement step guards against loss of accuracy at large |x|.
        y = y + np.linalg.solve(mat, rhs - mat @ y)
        if float(np.linalg.norm(residual(y))) > budget:
            raise NoConvergence(f"linear solve residual above {budget:.3e}")
        return y

    y = y0.copy()
    r = residual(y)
    res = float(np.linalg.norm(r))
    for _ in range(100):
        if res <= budget:
            return y
        jac = eye + np.einsum("ijl,j->il", c.dB(y), t)
        sv = np.linalg.svd(jac, compute_uv=False)
        if is_singular(sv, tol):
            raise SingularSystem(f"Newton Jacobian singular: sigma_min={sv[-1]:.3e}")
        step = -np.linalg.solve(jac, r)
        lam = 1.0
        while lam > 1e-6:
            cand = y + lam * step
            cand_r = residual(cand)
            cand_res = float(np.linalg.norm(cand_r))
            if cand_res < res:
                y, r, res = cand, cand_r, cand_res
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"damping stalled at residual {res:.3e}")
    if res <= budget:
        return y
    raise NoConvergence(f"no convergence in 100 iterations, residual {res:.3e}")


@overflow_is_invalid
def fiber_solve(c: Chart, x: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Chart point y whose fiber passes through x = (t1, t2).

    Solves y + B(y) t1 = t2: directly for linear and affine charts, by a
    damped Newton iteration (at most 100 steps, started at t2) otherwise.
    The result satisfies |y + B(y) t1 - t2| <= 1e-10 (1 + |x|).
    """
    tol = tol or Tolerance.default()
    x = finite_vector(x, c.n)
    t1, t2 = x[: c.k], x[c.k :]
    budget = 1e-10 * (1.0 + float(np.linalg.norm(x)))
    return _solve(c, 1.0, t1, t2, t2, budget, tol)


@overflow_is_invalid
def fiber_plane(c: Chart, y: np.ndarray) -> AffinePlane:
    """The fiber through chart point y as an affine plane.

    Direction is the span of (e_j, B(y) e_j), oriented by parameter
    order; the base point is (0, y) projected off the direction.

    The graph frame F = [I_k; B(y)] has sigma_min >= 1 whatever B(y) is:
    |F t|^2 = |t|^2 + |B(y) t|^2 >= |t|^2.  orthonormalize's rank gate
    (sigma_min <= tol.abs) could only trip at tol.abs >= 1, so the frame
    goes straight to numeric.oriented_q, which returns what
    orthonormalize returns at any smaller tolerance, and the plane is
    built without the constructors' checks (grassmann._built).  A chart
    whose B(y) or base overflows raises InvalidInput with numpy's message,
    as every guarded entry point does (numeric.overflow_is_invalid).
    """
    y = finite_vector(y, c.q)
    p = np.concatenate([np.zeros(c.k), y])
    frame = oriented_q(np.vstack([np.eye(c.k), c.B(y)]))
    base = p - frame @ (frame.T @ p)
    return _built(AffinePlane, direction=_built(OrientedPlane, frame=frame), base=base)


# ---------------------------------------------------------------------------
# verification


@overflow_is_invalid
def verify_skew(
    c: Chart,
    radius: float = 10.0,
    samples: int = 1024,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> rp.VerificationReport:
    """Kernel test for pairwise skewness over sampled chart-point pairs.

    Fibers through x != y are skew exactly when [B(x) - B(y) | x - y]
    has trivial kernel; margin is the minimum over sampled pairs of
    sigma_min of that matrix divided by |x - y|.  On smooth charts the
    stack goes through report.screened_report, which sends only the pairs
    that can hold the least margin to LAPACK when k = 1.

    On a linear or affine chart B(x) - B(y) = B_lin(d) with d = x - y, and
    the columns of [B_lin(d) | d] are M_j d for the pencil M = (C_1, ...,
    C_k, I), so the least margin over all pairs is that pencil's least
    sigma_min(M(t)) over unit t: bilinear.gram_first tries its Gram
    certificate before any pair is drawn.
    """
    tol = tol or Tolerance.default()
    stream = stream or SampleStream()
    if samples < 2:
        raise InvalidInput(f"need samples >= 2, got {samples}")
    sampling = stream.sampling(samples, radius)

    def sample():
        xs, ys = stream.pairs_in_ball(samples, c.q, radius)
        diff = xs - ys
        norms = np.linalg.norm(diff, axis=1)
        keep = norms > 1e-12 * max(radius, 1.0)
        xs, ys, diff, norms = xs[keep], ys[keep], diff[keep], norms[keep]
        if xs.shape[0] == 0:
            raise InvalidInput("all sampled pairs were coincident; increase samples or radius")

        if c.is_linear:
            stacks = np.empty((diff.shape[0], c.q, c.k + 1))
            for j in range(c.k):
                stacks[:, :, j] = diff @ c.C[j].T
            stacks[:, :, c.k] = diff
            report = rp.sampled_report
        else:
            stacks = np.concatenate([c.B(xs) - c.B(ys), diff[:, :, None]], axis=2)
            report = rp.screened_report
        return report(
            "skew",
            stacks,
            sampling,
            lambda i, smin: {"x": xs[i].tolist(), "y": ys[i].tolist(), "sigma_min": smin},
            lambda worst: {"pairs_tested": int(xs.shape[0])},
            tol,
            scale=norms,
        )

    if not c.is_linear:
        return sample()
    pencil = np.concatenate([c.C, np.eye(c.q)[None]])
    return gram_first("skew", pencil, sampling, lambda t: {"pairs_tested": 0}, tol, sample)


def _spectrum_report(
    eig: np.ndarray, ys: np.ndarray, sampling: dict | None, tol: Tolerance
) -> rp.VerificationReport:
    """k = 1 verdict from an (N, q) stack of dB eigenvalues at chart points ys.

    A real eigenvalue fails, witnessed at the first point that has one, and
    margin is the least |Im eigenvalue|.  Without sampling, ys is the one
    point of a linear chart, whose dB is constant, and a clean result passes.
    """
    per_point = np.min(np.abs(eig.imag), axis=1)
    worst = int(np.argmin(per_point))
    real = real_eigenvalue_mask(eig, tol)
    bad = np.flatnonzero(np.any(real, axis=1))[:1]
    witnesses = tuple({"y": ys[i].tolist(), "eigenvalue": float(eig[i].real[real[i]][0])} for i in bad)
    if sampling is None:
        details = {"exact": True, "eigenvalues": [complex(v) for v in eig[0]]}
    else:
        details = {"exact": False, "worst_point": ys[worst].tolist()}
    return rp.VerificationReport(
        "nondegenerate", float(per_point[worst]), witnesses, sampling, details
    )


@overflow_is_invalid
def verify_nondegenerate(
    c: Chart,
    radius: float = 10.0,
    samples: int = 1024,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> rp.VerificationReport:
    """Nondegeneracy: the derivative bilinear map must be nonsingular.

    For k = 1 the condition is that dB_y has no real eigenvalues; this is
    exact for linear charts (dB is constant) and sampled over chart
    points otherwise, with margin the least |Im eigenvalue|.  For k >= 2
    it builds the pencil (dB_y, identity): a linear chart's constant
    pencil goes to bilinear.verify_nonsingular, which tries the Gram
    certificate before sampling samples unit t, and a smooth chart's
    pencils at T_SAMPLES unit t per sampled chart point go to
    bilinear.pencil_report.

    On smooth charts with k = 1 and q = 2, numeric.eig_screen first bounds
    |Im lambda| of every dB_y in closed form, widened by the rounding slack
    argued at numeric.SCREEN_SLACK, and only the samples that can hold the
    least |Im| go to np.linalg.eigvals, so the margin and worst_point are
    the full stack's bit for bit.  Otherwise report.candidates_first sends
    the whole stack, so every fail comes from it.
    """
    tol = tol or Tolerance.default()
    stream = stream or SampleStream()
    sampling = stream.sampling(samples, radius)

    if c.is_linear and c.k == 1:
        return _spectrum_report(eigenvalues(c.C[0])[None], np.zeros((1, c.q)), None, tol)

    if c.is_linear:
        sub = verify_nonsingular(BilinearMap(c.q, c.k + 1, (*c.C, np.eye(c.q))), samples, stream, tol)
        return replace(sub, check="nondegenerate", sampling=sampling)

    pts = stream.ball_points(samples, c.q, radius)
    if c.k == 1:
        mats = c.dB(pts)[:, :, 0, :]
        return rp.candidates_first(
            eig_screen(mats, tol),
            lambda rows: _spectrum_report(np.linalg.eigvals(mats[rows]), pts[rows], sampling, tol),
        )

    ts = stream.unit_vectors(T_SAMPLES, c.k + 1)
    eye = np.broadcast_to(np.eye(c.q), (len(pts), 1, c.q, c.q))
    slots = np.concatenate([c.dB(pts).transpose(0, 2, 1, 3), eye], axis=1)
    return pencil_report(
        "nondegenerate", slots, ts, sampling,
        lambda n, s: {"exact": False, "worst_point": pts[n].tolist()}, tol, pts,
    )


# ---------------------------------------------------------------------------
# asymptotics


@dataclass(frozen=True)
class ConeProbe:
    """Probe along base + t * ell with every point inside the cone
    {y : <y, ell> >= N, angle(y, ell) <= delta}."""

    ell: np.ndarray
    t_values: tuple
    N: float = 1.0
    delta: float = 0.5
    base: np.ndarray | None = None

    @overflow_is_invalid
    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float)
        object.__setattr__(self, "ell", ell)
        # NaN fails this comparison, so a non-finite ell is rejected too
        if not abs(float(np.linalg.norm(ell)) - 1.0) <= 1e-10:
            raise InvalidInput("ell must be a unit vector")
        if not (0.0 < self.delta < math.pi / 2):
            raise InvalidInput(f"delta must lie in (0, pi/2), got {self.delta}")
        ts = tuple(float(t) for t in self.t_values)
        if not ts or not all(map(math.isfinite, ts)) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidInput("t_values must be finite, nonempty and increasing")
        object.__setattr__(self, "t_values", ts)
        base = np.zeros_like(ell) if self.base is None else self.base
        base = finite_vector(base, ell.size, "base")
        object.__setattr__(self, "base", base)
        for t in ts:
            y = base + t * ell
            # NaN fails this comparison, so N = NaN is rejected too
            if not float(y @ ell) >= self.N:
                raise InvalidInput(f"probe point at t={t} leaves the cone: not <y, ell> >= N")
            if spherical_distance(y / np.linalg.norm(y), ell) > self.delta:
                raise InvalidInput(f"probe point at t={t} leaves the cone: angle > delta")

    def points(self) -> np.ndarray:
        return np.stack([self.base + t * self.ell for t in self.t_values])


@overflow_is_invalid
def fiber_containing_direction(c: Chart, ell: np.ndarray, tol: Tolerance | None = None) -> np.ndarray:
    """Chart point whose fiber has ell among its directions.

    Solves B(y) ell_t = ell_y with fiber_solve's solver (Newton from y = 0
    on smooth charts) to a residual of 1e-12 (1 + |ell_y|); requires a
    nonzero parameter part.  A singular system, as on a degenerate linear
    chart, raises SingularSystem, and a missed budget NoConvergence.
    """
    tol = tol or Tolerance.default()
    ell = finite_vector(ell, c.n, "ell")
    lt, ly = ell[: c.k], ell[c.k :]
    if float(np.linalg.norm(lt)) <= 1e-12:
        raise InvalidInput("direction lies in the chart plane; no fiber contains it")
    budget = 1e-12 * (1.0 + float(np.linalg.norm(ly)))
    return _solve(c, 0.0, lt, ly, np.zeros(c.q), budget, tol)


@overflow_is_invalid
def continuity_probe(
    c: Chart,
    ell: np.ndarray,
    probe: ConeProbe,
    tol: Tolerance | None = None,
) -> list[float]:
    """Largest principal angle between the fiber through each probe point
    and the fiber containing the direction ell.

    Fibers through points diverging inside a cone around ell converge to
    the fiber containing ell; the returned angles quantify the rate.
    """
    tol = tol or Tolerance.default()
    ell = finite_vector(ell, c.n, "ell")
    reference = fiber_plane(c, fiber_containing_direction(c, ell, tol)).direction
    angles = []
    for pt in probe.points():
        y = fiber_solve(c, pt, tol)
        d = fiber_plane(c, y).direction
        angles.append(max_principal_angle(d, reference))
    return angles


@overflow_is_invalid
def limiting_direction(
    c: Chart,
    u: np.ndarray,
    v: np.ndarray,
    tol: Tolerance | None = None,
) -> np.ndarray:
    """Limit of the fiber direction along v + s u as s grows, for line charts.

    u must be a unit vector in the chart plane (zero parameter part) and v
    orthogonal to u.  Evaluated at s = LIMIT_T with one Richardson step,
    which cancels the order-1/s error of the plain evaluation.
    """
    if c.k != 1:
        raise InvalidInput("limiting directions are defined for line charts (k = 1)")
    u = finite_vector(u, c.n, "u")
    v = finite_vector(v, c.n, "v")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise InvalidInput("u must be a unit vector")
    if float(np.abs(u[: c.k]).max()) > 1e-12:
        raise InvalidInput("u must lie in the chart plane (zero parameter part)")
    if abs(float(u @ v)) > 1e-10 * (1.0 + float(np.linalg.norm(v))):
        raise InvalidInput("v must be orthogonal to u")

    def direction(s: float) -> np.ndarray:
        y = fiber_solve(c, v + s * u, tol)
        d = np.concatenate([[1.0], c.B(y)[:, 0]])
        return d / np.linalg.norm(d)

    d1 = direction(LIMIT_T)
    d2 = direction(2.0 * LIMIT_T)
    limit = 2.0 * d2 - d1
    return limit / np.linalg.norm(limit)


# ---------------------------------------------------------------------------
# germs


def _bump(s: float) -> tuple[float, float]:
    """Smooth transition w(s) from 1 at s = 1/2 to 0 at s = 1, and dw/ds,
    for 1/2 < s < 1."""
    tau = 2.0 * (s - 0.5)
    g1 = math.exp(-1.0 / (1.0 - tau))
    g0 = math.exp(-1.0 / tau)
    w, v = g1 / (g1 + g0), g0 / (g1 + g0)
    # dw/dtau = -w (1 - w) (1 / (1 - tau)^2 + 1 / tau^2), with 1 - w = v
    return w, -2.0 * w * v * (1.0 / (1.0 - tau) ** 2 + 1.0 / tau**2)


def _linearization(local: Chart) -> Chart:
    """The affine chart B(0) + dB_0 y of a germ."""
    zero = np.zeros(local.q)
    return Chart(local.k, local.q, AFFINE, C=local.dB(zero).transpose(1, 0, 2), B0=local.B(zero))


def _make_extension(local: Chart, lin: Chart, blend_r: float) -> Chart:
    """The germ on s <= 1/2, its linearization lin on s >= 1, and on the
    ring B = w B_germ + (1 - w) B_lin, whose derivative is
    w dB_germ + (1 - w) dB_lin + (B_germ - B_lin) (x) grad w."""

    def blend(ys, germ, linear, term=None):
        """germ on the rows of an (N, q) stack with s = |y| / blend_r <= 1/2,
        linear on s >= 1, and w germ + (1 - w) linear + term(y, dw/ds) on
        the ring between, with the bump weight w(s).  Rows with a NaN norm
        count as near, so they come out NaN."""
        s = row_norms(ys) / blend_r
        far = s > 0.5
        if not np.count_nonzero(far):
            return germ(ys)
        near = np.flatnonzero(~(s >= 1.0))
        ring = far[near]
        rows = near[ring]
        bumps = np.array([_bump(v) for v in s[rows].tolist()]).reshape(-1, 2)
        out = linear(ys)
        if len(near):
            loc = germ(ys[near])
            w = bumps[:, 0].reshape((-1,) + (1,) * (out.ndim - 1))
            mixed = w * loc[ring] + (1.0 - w) * out[rows]
            if term is not None:
                mixed += term(ys[rows], bumps[:, 1])
            out[near] = loc
            out[rows] = mixed
        return out

    def slope(ys, dw):
        # (B_germ - B_lin) (x) grad w, with grad w = w'(s) y / (|y| blend_r)
        grad = (dw / (row_norms(ys) * blend_r))[:, None] * ys
        return (local._b(ys) - lin._b(ys))[..., None] * grad[:, None, None, :]

    return Chart(
        local.k, local.q, BUILTIN, name="germ_extension",
        params={"blend_r": float(blend_r), "base": local},
        b_func=lambda ys: blend(ys, local._b, lin._b),
        db_func=lambda ys: blend(ys, local._db, lin._db, slope),
    )


@overflow_is_invalid
def extend_germ(
    local: Chart,
    blend_r: float = 0.5,
    samples: int = 2000,
    seed: int = 0,
    tol: Tolerance | None = None,
) -> Chart:
    """Extend a chart germ to all of R^q by blending into its linearization.

    Outside the blend zone the chart is the affine chart B(0) + dB_0 y,
    whose nondegeneracy is the germ's nondegeneracy at the origin; it is
    checked first, by verify_nondegenerate on that chart with 512 samples
    (exact for k = 1).  Inside radius blend_r/2 the germ's B and dB are
    evaluated through the identical code path, so both agree with the
    germ's bit for bit; the blend's dB is its closed form.  The blend radius is
    halved (at most 20 times) until the blended chart passes the sampled
    nondegeneracy check on a ball of ten times the blend radius; that
    blended chart is returned.  A passed sampled check is evidence, not a
    proof, so the chart carries no verdict of its own.
    """
    tol = tol or Tolerance.default()
    if local.is_linear:
        # Already globally defined and equal to its own linearization.
        return local
    if not (0.0 < blend_r <= local.domain_radius):
        raise InvalidInput(
            f"need 0 < blend_r <= domain radius {local.domain_radius}, got {blend_r}"
        )
    lin = _linearization(local)
    origin = verify_nondegenerate(lin, samples=512, stream=SampleStream(seed), tol=tol)
    if not origin.ok:
        raise InvalidInput(
            "germ is degenerate at the origin: its linearization B(0) + dB_0 y fails "
            f"the nondegeneracy check (margin {origin.margin:.3e})"
        )

    for attempt in range(21):
        r = float(blend_r) * 0.5**attempt
        ext = _make_extension(local, lin, r)
        repn = verify_nondegenerate(
            ext, radius=10.0 * r, samples=samples, stream=SampleStream(seed + attempt), tol=tol
        )
        if repn.ok:
            return ext
    raise BlendFailure(f"no nondegenerate blend found down to radius {r:.3e}", repn)


# ---------------------------------------------------------------------------
# sampling fibers


@overflow_is_invalid
def sample_fibers(
    c: Chart,
    base_points: np.ndarray,
    t_range: tuple = (-1.0, 1.0),
    steps: int = 5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample points of the fibers through the given chart points.

    Returns (fiber_ids, grid_indices, points): for each base point, a grid
    of steps**k parameter values over t_range per axis, with the ambient
    point (t, B(y) t + y) for each, all fibers in one stacked product.
    An empty, non-finite or overflowing stack of points raises InvalidInput.
    """
    base_points = np.atleast_2d(np.asarray(base_points, dtype=float))
    if base_points.shape[1] != c.q:
        raise InvalidInput(f"base points must have {c.q} columns")
    if not len(base_points):
        raise InvalidInput("need at least one base point")
    if not np.isfinite(base_points).all():
        raise InvalidInput("base points must be finite")
    if steps < 1:
        raise InvalidInput("need steps >= 1")
    lo, hi = float(t_range[0]), float(t_range[1])
    if not math.isfinite(hi - lo):
        raise InvalidInput(f"t_range ends and their difference must be finite, got ({lo}, {hi})")
    if hi <= lo:
        raise InvalidInput("t_range must be increasing")
    axis = np.linspace(lo, hi, steps)
    idx = np.indices((steps,) * c.k).reshape(c.k, -1).T
    tgrid = axis[idx]
    count, size = len(base_points), len(tgrid)
    planes = np.matmul(tgrid, c.B(base_points).transpose(0, 2, 1)) + base_points[:, None, :]
    points = np.concatenate([np.broadcast_to(tgrid, (count, size, c.k)), planes], axis=2)
    points = points.reshape(count * size, c.n)
    return np.repeat(np.arange(count), size), np.tile(idx, (count, 1)), points
