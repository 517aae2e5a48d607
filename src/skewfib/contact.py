"""Contact-condition tests for line-fibration charts on R^(2m+1).

The plane field orthogonal to the fibers of a nondegenerate line
fibration is the kernel of the 1-form alpha with coefficients
(1, b) / s at the chart point y, where b = B(y)[:, 0] and
s = 1 + |b|^2: the fiber direction rescaled so the parameter component
is constant.  The field is contact at a point when d(alpha) restricted
to ker alpha is nondegenerate.

d(alpha) at (0, y) is a closed form in b and D = Chart.dB(y)[:, 0, :]:
each ambient point takes the form of its fiber's chart point, whose
derivative at the chart plane the implicit-function theorem gives.  The
columns of N = [-b^T; I_q] span ker alpha, with Gram matrix
G = N^T N = I + b b^T of determinant s, and

    N^T d(alpha) N = (G D^T - D G) / s,

so the determinant of d(alpha) in an orthonormal basis of ker alpha is
det(G D^T - D G) / s^(q+1); q is even, so neither the basis nor its
orientation changes it.  That form cancels: the entries of G are of size
|b|^2, and its relative error grows with them.  The checks instead apply
d(alpha) to the orthonormal basis Q = N G^(-1/2) in closed form,

    Q = [-b^T / r; I - b b^T / (r (r + 1))],   r = sqrt(s),

which costs the same and keeps the error near the rounding of d(alpha).
For a linear chart at the origin b = 0, Q = [0; I] and the restriction
is exactly M^T - M, which decides the dichotomy: block rotations give
contact structures, while the shifted-block construction of
gluck_yang_matrix makes M - M^T singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import J2
from .errors import InvalidInput
from .fibration import Chart
from .numeric import Tolerance, as_integer, finite_array, overflow_is_invalid, real_eigenvalue_mask


@dataclass(frozen=True)
class ContactReport:
    """Pointwise contact test outcome.

    det_margin is |det of d(alpha) restricted to ker alpha|^(1/m)
    normalized by the squared norm of d(alpha); is_contact holds exactly
    when it clears the threshold.
    """

    point: np.ndarray
    det_margin: float
    is_contact: bool
    details: dict | None = None

    def to_dict(self) -> dict:
        return {
            "point": np.asarray(self.point).tolist(),
            "det_margin": self.det_margin,
            "is_contact": self.is_contact,
        }


@overflow_is_invalid
def contact_form(c: Chart, y: np.ndarray) -> np.ndarray:
    """Coefficients of the fiber-orthogonal 1-form at chart point y.

    The form annihilates the hyperplane orthogonal to the fiber
    direction (1, B(y)); coefficients are (1, B(y)) / (1 + |B(y)|^2),
    parameter component first.  An (N, q) stack of points gives an
    (N, q + 1) stack of forms.  A y that is not a finite (q,) or (N, q)
    array (Chart.B), or one whose form overflows, raises InvalidInput.
    """
    if c.k != 1:
        raise InvalidInput("the contact form is defined for line charts (k = 1)")
    b = c.B(y)[..., 0]
    one = np.ones(b.shape[:-1] + (1,))
    return np.concatenate([one, b], axis=-1) / (1.0 + np.vecdot(b, b))[..., None]


def _check_line_chart(c: Chart) -> None:
    if c.k != 1:
        raise InvalidInput("contact tests apply to line charts (k = 1)")
    if c.q % 2:
        raise InvalidInput(f"chart plane dimension must be even, got {c.q}")


@overflow_is_invalid
def contact_checks(c: Chart, ys: np.ndarray, tol: Tolerance | None = None) -> list[ContactReport]:
    """Contact test at each row of an (N, q) stack of chart-plane points.

    The form is extended off the chart plane by assigning each ambient
    point x = (t, x_y) the form of its fiber's chart point y(x), the
    solution of y + B(y) t = x_y.  At t = 0 the implicit-function theorem
    gives dy/dx = N^T = [-b | I], so the Jacobian of alpha at (0, y) is
    jac = (d alpha / d b) D N^T, and d(alpha) = jac^T - jac; its 2-norm is
    the scale of det_margin.  The restricted determinant is
    det(Q^T d(alpha) Q) for the closed-form basis Q of the module
    docstring.  The points are checked once (numeric.finite_array), then
    one evaluation of B and one of dB cover the stack, and row i of the
    result equals contact_check at row i, bit for bit.  A row where
    d(alpha) = 0 has margin 0 and is not contact.  The check is as exact
    as the chart's dB, which every chart gives in closed form.
    """
    tol = tol or Tolerance.default()
    _check_line_chart(c)
    return _contact_checks(c, finite_array(ys, (None, c.q), "point coordinates"), tol)


@overflow_is_invalid
def contact_check(c: Chart, y: np.ndarray, tol: Tolerance | None = None) -> ContactReport:
    """Contact test at the chart-plane point y: the N = 1 case of
    contact_checks."""
    _check_line_chart(c)
    y = finite_array(y, (c.q,), "point coordinates")
    return _contact_checks(c, y[None], tol or Tolerance.default())[0]


def _contact_checks(c: Chart, ys: np.ndarray, tol: Tolerance) -> list[ContactReport]:
    """contact_checks on an (N, q) stack of points that the caller has
    checked, unguarded: B and dB are evaluated once each on the stack
    (Chart._values, Chart._derivatives), as fibration._solve does."""
    m_half = c.q // 2
    eye = np.eye(c.q)

    b = c._values(ys)[:, :, 0]
    d = c._derivatives(ys)[:, :, 0, :]
    s = 1.0 + np.vecdot(b, b)
    form = np.concatenate([np.ones((len(ys), 1)), b], axis=1)
    # d alpha / d b for alpha = (1, b) / s, then the chain rule through b(y(x))
    dform = np.eye(c.q + 1)[:, 1:] / s[:, None, None]
    dform -= form[:, :, None] * (2.0 * b)[:, None, :] / (s * s)[:, None, None]
    jac = dform @ d @ np.concatenate([-b[:, :, None], np.broadcast_to(eye, d.shape)], axis=2)
    dalpha = jac.mT - jac
    # the largest singular value, as np.linalg.norm(dalpha, 2, axis=(1, 2)) takes it
    scales = np.linalg.svd(dalpha, compute_uv=False)[:, 0]
    # the orthonormal basis Q of ker alpha (module docstring), one per row
    r = np.sqrt(s)[:, None, None]
    lower = eye - b[:, :, None] * b[:, None, :] / (r * (r + 1.0))
    basis = np.concatenate([-b[:, None, :] / r, lower], axis=1)
    dets = np.linalg.det(basis.mT @ dalpha @ basis)

    threshold = tol.threshold(1.0)
    reports = []
    for y, det, scale in zip(ys, dets.tolist(), scales.tolist()):
        if scale == 0.0:
            reports.append(ContactReport(y, 0.0, False, {"dalpha_norm": 0.0}))
            continue
        det_margin = abs(det) ** (1.0 / m_half) / (scale * scale)
        details = {"dalpha_norm": scale, "restricted_det": det}
        reports.append(ContactReport(y, det_margin, det_margin > threshold, details))
    return reports


def gluck_yang_matrix(m: int) -> np.ndarray:
    """The 2m x 2m block matrix whose line fibration is not contact.

    Half-speed rotation blocks [[0, 1/2], [-1/2, 0]] down the diagonal
    and a single 2x2 identity in the top right corner.  All eigenvalues
    are +-i/2, so the fibration is nondegenerate, yet M - M^T is
    singular and the orthogonal plane field fails the contact condition.
    """
    m = as_integer(m, "need an integer m")
    if m < 2:
        raise InvalidInput(f"need m >= 2, got {m}")
    d = -0.5 * J2
    out = np.kron(np.eye(m), d)
    out[0:2, 2 * m - 2 : 2 * m] += np.eye(2)
    eig = np.linalg.eigvals(out)
    if np.any(real_eigenvalue_mask(eig, Tolerance(rel=1e-10))):
        raise InvalidInput("construction produced a real eigenvalue")
    skew = out - out.T
    if np.linalg.svd(skew, compute_uv=False)[-1] > 1e-12:
        raise InvalidInput("construction produced an invertible M - M^T")
    return out
