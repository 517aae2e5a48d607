"""Central projection between a fibered R^n and the unit sphere S^n.

R^n sits inside R^(n+1) as the tangent hyperplane at the north pole
(last coordinate 1); rays through the center identify it with the open
upper hemisphere.  Fibers of a chart correspond to great k-spheres, and
a chart on R^(2k+1) extends to a great-sphere fibration of all of
S^(2k+1) exactly when B(.)t is surjective for every nonzero t.  For
great circles the equatorial extension is classified by matrices that
are invariant on planes: B^2(u) in span{u, B(u)} for every u, i.e. all
eigenvalues a +- bi with a single (a, b) pair up to the sign of b.

Vectors in R^(n+1) keep the ambient order (fiber parameters first, then
the chart plane) and append the projective coordinate last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import report as rp
from .bilinear import BilinearMap, pencil_report, verify_nonsingular
from .dims import admissible_sphere
from .errors import DimensionMismatch, EquatorPoint, InvalidInput, RankDeficient, RealEigenvalue
from .fibration import Chart, fiber_plane, fiber_solve
from .grassmann import AffinePlane, GreatSphere, _built, embed_affine
from .numeric import (
    SampleStream,
    Tolerance,
    finite_vector,
    orthonormalize,
    overflow_is_invalid,
    rank_gate,
    real_eigenvalue_mask,
)

EQUATOR_EPS = 1e-14


@overflow_is_invalid
def central_project(p: np.ndarray) -> np.ndarray:
    """Sphere point to tangent hyperplane: (x_1..x_n)/x_(n+1).

    Defined on either open hemisphere (antipodal points land together).
    A point that is not finite, or whose image overflows, raises
    InvalidInput.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInput("need a vector with at least two coordinates")
    p = finite_vector(p, p.size, "sphere point")
    if abs(p[-1]) <= EQUATOR_EPS:
        raise EquatorPoint(f"last coordinate {p[-1]:.3e} is on the equator")
    return p[:-1] / p[-1]


def inverse_project(x: np.ndarray) -> np.ndarray:
    """Tangent-hyperplane point to the upper hemisphere: (x, 1)/|(x, 1)|.

    v = (x, 1) is divided by max|v| before its norm is taken, so the norm
    cannot overflow; when every |x_i| <= 1 that divisor is exactly 1.0.
    A point that is not finite raises InvalidInput.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InvalidInput("tangent-plane point coordinates must be finite")
    v = np.append(x, 1.0)
    v /= np.max(np.abs(v))
    return v / np.linalg.norm(v)


def great_sphere_of(p: AffinePlane) -> GreatSphere:
    """The great k-sphere cut out by the linearization of an affine plane.

    Upper-hemisphere points of the result centrally project back onto
    the plane.  The frame of embed_affine is orthonormal by construction
    and is not checked again.
    """
    return _built(GreatSphere, frame=embed_affine(p).frame)


@overflow_is_invalid
def completion_check(
    c: Chart,
    samples: int = 1024,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> rp.VerificationReport:
    """Surjectivity of y -> B(y)t for every unit t, on charts with n = 2k+1.

    Passing means the chart's fibration of R^(2k+1) completes to a great
    k-sphere fibration of S^(2k+1).  For linear and affine charts the map
    is y -> (sum_j t_j C_j) y and the check is bilinear.verify_nonsingular
    on (C_1, ..., C_k): exact for k <= 2, the Gram certificate first for
    k >= 3; for smooth charts it stacks the pencils sum_j t_j
    dB_j(y), the Jacobians of y -> B(y)t, over sampled (y, t) and leaves
    the verdict to bilinear.pencil_report.  The condition is homogeneous
    in t, so t and -t are one test: for k = 1, where every unit t is +-1,
    only t = 1 is tested, one Jacobian per sampled chart point y.
    """
    tol = tol or Tolerance.default()
    stream = stream or SampleStream()
    if c.n != 2 * c.k + 1:
        raise DimensionMismatch(f"need n = 2k+1, got n={c.n} k={c.k}")
    if c.is_linear:
        sub = verify_nonsingular(BilinearMap(c.q, c.k, c.C), samples, stream, tol)
        return replace(sub, check="completion")
    ys = stream.ball_points(samples, c.q, 10.0)
    # B(y)(-t) = -B(y)t has the same singular values, so a line needs one t.
    ts = np.ones((1, 1)) if c.k == 1 else stream.unit_vectors(max(16, samples // 16), c.k)
    return pencil_report(
        "completion", c.dB(ys).transpose(0, 2, 1, 3), ts, stream.sampling(samples, 10.0),
        lambda n, s: {"exact": False}, tol, ys,
    )


def completion_report(
    c: Chart,
    samples: int = 1024,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> rp.VerificationReport:
    """Completion check gated on the sphere fiber-dimension constraint.

    Great k-sphere fibrations of S^n exist only for k in {0, 1, 3, 7}
    with the matching parity of n; outside that list no completion
    exists and the check is not attempted.
    """
    if not admissible_sphere(c.k, c.n):
        witness = {"k": c.k, "n": c.n, "reason": "no sphere fibration exists"}
        return rp.VerificationReport("completion", 0.0, (witness,), None, {"admissible": False})
    return completion_check(c, samples, stream, tol)


# ---------------------------------------------------------------------------
# invariant-on-planes classification


@dataclass(frozen=True)
class PlaneInvariantReport:
    """Outcome of the invariant-on-planes test for a 2m x 2m matrix.

    When is_invariant, the matrix has the single eigenvalue pair a +- bi
    (b != 0) and (M - aI)^2 + b^2 I vanishes; max_residual is the largest
    sampled component of M^2 u orthogonal to span{u, Mu}.
    """

    is_invariant: bool
    a: float
    b: float
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "is_invariant": self.is_invariant,
            "a": self.a,
            "b": self.b,
            "max_residual": self.max_residual,
        }


@overflow_is_invalid
def plane_residual(m: np.ndarray, u: np.ndarray) -> float:
    """Norm of the component of M^2 u orthogonal to span{u, Mu}.

    A matrix that is not square or not finite, a u that is not a finite
    vector of its size, or arithmetic that overflows raises InvalidInput.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"need a square matrix, got shape {m.shape}")
    _check_finite(m)
    u = finite_vector(u, len(m), "u")
    return float(_plane_residuals(m, u[None, :])[0])


def _plane_residuals(
    m: np.ndarray, us: np.ndarray, tol: Tolerance | None = None
) -> np.ndarray:
    """plane_residual for every row of us, in closed form on the rows.

    The frame [u | Mu] has two columns, so two Gram-Schmidt steps replace
    a QR: p = Mu - (u.Mu / u.u) u spans the rest of the plane, and the
    residual is |r| for r = w - (u.w / u.u) u - (p.r / p.p) p, with
    w = M^2 u.  The rank gate of orthonormalize keeps its meaning: a
    frame with sigma_min <= tol.abs raises RankDeficient.  sigma_min
    comes from the 2 x 2 Gram matrix [[uu, c], [c, dd]] (uu = u.u,
    dd = Mu.Mu, c = u.Mu) without an SVD: its determinant is
    uu dd - c^2 = |u|^2 |p|^2, so

        sigma_min = |u| |p| / sigma_max,
        sigma_max^2 = (uu + dd) / 2 + sqrt(((uu - dd) / 2)^2 + c^2),

    which does not cancel as sqrt(det) / sigma_max formed from the
    entries would.  A zero u is rejected before any division.  The
    stacked matmuls and the row-wise vecdots reproduce the arithmetic of
    a single u, so row i equals plane_residual(m, us[i]) bit for bit.
    """
    tol = tol or Tolerance.default()
    mu = np.matmul(m, us[:, :, None])
    w = np.matmul(m, mu)[:, :, 0]
    mu = mu[:, :, 0]
    uu = np.vecdot(us, us)
    if not uu.all():
        raise RankDeficient(
            f"frame is rank deficient: u = 0, so sigma_min = 0 <= {tol.abs:.1e}"
        )
    c = np.vecdot(us, mu)
    dd = np.vecdot(mu, mu)
    p = mu - (c / uu)[:, None] * us
    pp = np.vecdot(p, p)
    smax = np.sqrt(0.5 * (uu + dd) + np.hypot(0.5 * (uu - dd), c))
    rank_gate(np.sqrt(uu) * np.sqrt(pp) / smax, tol)
    r = w - (np.vecdot(us, w) / uu)[:, None] * us
    r -= (np.vecdot(p, r) / pp)[:, None] * p
    return np.sqrt(np.vecdot(r, r))


@overflow_is_invalid
def invariant_on_planes(
    m: np.ndarray,
    samples: int = 1000,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> PlaneInvariantReport:
    """Test whether M^2 u lies in span{u, Mu} for every u.

    Exactly the matrices with a single eigenvalue pair a +- bi and
    (M - aI)^2 + b^2 I = 0; such matrices extend their line fibration
    over the equator of the sphere.  Requires no real eigenvalues.  The
    sign of b is read off the (2,1) entry of M - aI when that entry is
    decisively nonzero; otherwise b is reported positive.  The spectral
    part is computed once per (matrix value, tolerance) and memoized for
    at most 32 matrices (_classified); the sampled residual runs on every
    call.  Arithmetic that overflows raises InvalidInput.
    """
    tol = tol or Tolerance.default()
    stream = stream or SampleStream()
    m = np.asarray(m, dtype=float)
    is_invariant, a, b = _classify(m, tol)
    us = stream.unit_vectors(samples, m.shape[0])
    max_residual = float(_plane_residuals(m, us, tol).max())
    return PlaneInvariantReport(is_invariant, a, b, max_residual)


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise InvalidInput("matrix entries must be finite")


def _classify(m: np.ndarray, tol: Tolerance) -> tuple[bool, float, float]:
    """Exact part of the invariant-on-planes test: (is_invariant, a, b)
    from the spectrum and the identity (M - aI)^2 + b^2 I = 0.

    The shape and finiteness checks run on every call; the rest is
    memoized on the matrix's bytes and the tolerance (_classified)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 or m.shape[0] == 0:
        raise InvalidInput(f"need a nonempty even square matrix, got shape {m.shape}")
    _check_finite(m)
    return _classified(m.tobytes(), m.shape[0], tol)


@functools.lru_cache(maxsize=32)
def _classified(raw: bytes, d: int, tol: Tolerance) -> tuple[bool, float, float]:
    """_classify on the d x d float64 matrix whose C-order bytes are raw.

    Keyed on the matrix's value, not its identity, so a matrix changed
    in place is classified again, and on the frozen Tolerance, so another
    SKEWFIB_TOL is another entry.  An exception (RealEigenvalue, or an
    overflow) is not cached.  At most 32 matrices are kept, as bytes,
    each with its three-number result.
    """
    m = np.frombuffer(raw).reshape(d, d)
    eig = np.linalg.eigvals(m)
    real = real_eigenvalue_mask(eig, tol)
    if np.any(real):
        raise RealEigenvalue(f"real eigenvalue {float(eig.real[real][0]):.6g}")

    scale = 1.0 + float(np.linalg.norm(m, 2))
    a = float(np.trace(m)) / d
    # the median of the d (even) values |Im lambda|, without np.median,
    # which imports numpy.ma
    lo, hi = np.sort(np.abs(eig.imag))[d // 2 - 1 : d // 2 + 1].tolist()
    b = (lo + hi) / 2
    # aI does not touch the (2,1) entry, so the sign probe reads m directly.
    off = float(m[1, 0])
    if abs(off) > 1e-6 * scale:
        b = math.copysign(b, off)

    spectrum_ok = bool(
        np.all(np.abs(eig.real - a) <= tol.rel * scale)
        and np.all(np.abs(np.abs(eig.imag) - abs(b)) <= tol.rel * scale)
    )
    poly = (m - a * np.eye(d)) @ (m - a * np.eye(d)) + b * b * np.eye(d)
    poly_ok = float(np.linalg.norm(poly, 2)) <= tol.rel * scale * scale
    return spectrum_ok and poly_ok, a, b


def _invariant_data(m: np.ndarray, tol: Tolerance) -> tuple[float, float]:
    is_invariant, a, b = _classify(m, tol)
    if not is_invariant:
        raise InvalidInput("matrix is not invariant on planes")
    return a, b


@overflow_is_invalid
def sphere_fiber_direction(
    m: np.ndarray, z: np.ndarray, z_t: float, tol: Tolerance | None = None
) -> np.ndarray:
    """Unnormalized direction of the great-circle fiber through (z_t, z).

    Returns the (2m+2)-vector (s, (z_t (a^2+b^2) I + M) z, 0) with
    s = (1 + z_t a)^2 + z_t^2 b^2, cross-checked against the
    matrix-inverse form (1, M (I + z_t M)^{-1} z, 0) scaled by s; the
    two agree to 1e-9 relative whenever M is invariant on planes.  M is
    classified once per (matrix value, tolerance), memoized for at most
    32 matrices, so repeated queries on one M skip its spectrum.
    Arithmetic that overflows raises InvalidInput.
    """
    tol = tol or Tolerance.default()
    m = np.asarray(m, dtype=float)
    a, b = _invariant_data(m, tol)
    z = finite_vector(z, len(m), "z")
    if not math.isfinite(z_t):
        raise InvalidInput(f"z_t must be finite, got {z_t}")
    s = (1.0 + z_t * a) ** 2 + (z_t * b) ** 2
    block = np.concatenate([[s], (z_t * (a * a + b * b) * np.eye(len(z)) + m) @ z, [0.0]])
    w = np.linalg.solve(np.eye(len(z)) + z_t * m, z)
    inverse_form = np.concatenate([[1.0], m @ w, [0.0]])
    err = float(np.linalg.norm(block - s * inverse_form))
    if err > 1e-9 * (1.0 + float(np.linalg.norm(block))):
        raise InvalidInput(f"direction forms disagree by {err:.3e}; matrix is not invariant")
    return block


@overflow_is_invalid
def assemble_great_circles(m: np.ndarray, tol: Tolerance | None = None):
    """Assignment of a great circle of S^(2m+1) to every sphere point.

    Points off the closed equator project to the chart of the line
    fibration with B(y) = My and take their fiber's great circle.
    Equator points still covered by a fiber closure (nonzero parameter
    coordinate) use the limiting chart point M^{-1}(p_E / p_t).  Points
    of the core sphere S (parameter and projective coordinates both
    zero) take span{(0, u, 0), (0, Mu, 0)}.  Requires an
    invariant-on-planes matrix; returns the assignment as a callable.
    """
    tol = tol or Tolerance.default()
    m = np.asarray(m, dtype=float)
    _invariant_data(m, tol)
    d = m.shape[0]
    chart = Chart(1, d, "linear", C=(m,))

    @overflow_is_invalid
    def assign(p: np.ndarray) -> GreatSphere:
        p = finite_vector(p, d + 2, "sphere point")
        if abs(float(np.linalg.norm(p)) - 1.0) > 1e-12:
            raise InvalidInput("sphere points must be unit vectors")
        p_t, p_e, p_proj = p[0], p[1:-1], p[-1]
        if abs(p_proj) > EQUATOR_EPS:
            y = fiber_solve(chart, p[:-1] / p_proj, tol)
            return great_sphere_of(fiber_plane(chart, y))
        if abs(p_t) > EQUATOR_EPS:
            y = np.linalg.solve(m, p_e / p_t)
            return great_sphere_of(fiber_plane(chart, y))
        cols = np.zeros((d + 2, 2))
        cols[1:-1, 0] = p_e
        cols[1:-1, 1] = m @ p_e
        return GreatSphere(orthonormalize(cols, tol))

    return assign


@overflow_is_invalid
def equator_restriction(
    m: np.ndarray, u: np.ndarray, tol: Tolerance | None = None
) -> GreatSphere:
    """Great circle of the core sphere S^(2m-1) through u: span{u, Mu}.

    For any invariant-on-planes M this is the plane span{u, Ju}, so the
    equatorial restriction is always the standard Hopf fibration; the
    orientation follows the sign of b.  M is classified once per (matrix
    value, tolerance), memoized for at most 32 matrices.
    """
    tol = tol or Tolerance.default()
    m = np.asarray(m, dtype=float)
    _invariant_data(m, tol)
    u = finite_vector(u, len(m), "u")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-10:
        raise InvalidInput("u must be a unit vector")
    return GreatSphere(orthonormalize(np.column_stack([u, m @ u]), tol))
