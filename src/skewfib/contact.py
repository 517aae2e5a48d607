"""Contact-condition tests for line-fibration charts on R^(2m+1).

The plane field orthogonal to the fibers of a nondegenerate line
fibration is the kernel of the 1-form with coefficients
(1, B(y)) / (1 + |B(y)|^2): the fiber direction rescaled so the
parameter component is constant.  The field is contact at a point when
the exterior derivative restricted to the kernel hyperplane is
nondegenerate.  contact_check computes that derivative in closed form
from B(y) and Chart.dB(y), through the derivative of the fiber's chart
point y(x) at the chart plane, so every chart kind takes the same path.
For a linear chart at the origin the restriction is exactly M^T - M,
which decides the dichotomy: block rotations give contact structures,
while the shifted-block construction of gluck_yang_matrix makes M - M^T
singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import J2
from .errors import InvalidInput
from .fibration import Chart
from .numeric import Tolerance, finite_vector, orthonormal_complement, real_eigenvalue_mask


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


def contact_form(c: Chart, y: np.ndarray) -> np.ndarray:
    """Coefficients of the fiber-orthogonal 1-form at chart point y.

    The form annihilates the hyperplane orthogonal to the fiber
    direction (1, B(y)); coefficients are (1, B(y)) / (1 + |B(y)|^2),
    parameter component first.  An (N, q) stack of points gives an
    (N, q + 1) stack of forms.
    """
    if c.k != 1:
        raise InvalidInput("the contact form is defined for line charts (k = 1)")
    b = c.B(y)[..., 0]
    one = np.ones(b.shape[:-1] + (1,))
    return np.concatenate([one, b], axis=-1) / (1.0 + np.vecdot(b, b))[..., None]


def contact_check(
    c: Chart,
    y: np.ndarray,
    tol: Tolerance | None = None,
    basis: np.ndarray | None = None,
) -> ContactReport:
    """Contact test at the chart-plane point y.

    The form is extended off the chart plane by assigning each ambient
    point x = (t, x_y) the form of its fiber's chart point y(x), the
    solution of y + B(y) t = x_y.  At t = 0 the implicit-function theorem
    gives dy/dt = -b and dy/dx_y = I with b = B(y)[:, 0], so the Jacobian
    of alpha at (0, y) is a closed form in B(y) and Chart.dB(y), and
    d(alpha) is its antisymmetrization.  The check is as exact as the
    chart's dB, which every chart gives in closed form.
    det_margin is basis-independent.
    """
    tol = tol or Tolerance.default()
    if c.k != 1:
        raise InvalidInput("contact tests apply to line charts (k = 1)")
    if c.q % 2:
        raise InvalidInput(f"chart plane dimension must be even, got {c.q}")
    m_half = c.q // 2
    y = finite_vector(y, c.q)

    b = c.B(y)[:, 0]
    s = 1.0 + float(b @ b)
    form = np.concatenate([[1.0], b])
    alpha0 = form / s
    # d(alpha)/dy for alpha = (1, b) / s, then the chain rule through y(x)
    dform = np.vstack([np.zeros((1, c.q)), np.eye(c.q)]) / s
    dform -= np.outer(form, 2.0 * b) / (s * s)
    jac = dform @ c.dB(y)[:, 0, :] @ np.column_stack([-b, np.eye(c.q)])
    dalpha = jac.T - jac
    if basis is None:
        basis = orthonormal_complement(
            (alpha0 / np.linalg.norm(alpha0)).reshape(-1, 1), tol
        )
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (c.q + 1, c.q):
            raise InvalidInput(f"kernel basis shape {basis.shape} != ({c.q + 1}, {c.q})")
    restricted = basis.T @ dalpha @ basis
    scale = float(np.linalg.norm(dalpha, 2))
    if scale == 0.0:
        return ContactReport(y, 0.0, False, {"dalpha_norm": 0.0})
    det = float(np.linalg.det(restricted))
    det_margin = abs(det) ** (1.0 / m_half) / (scale * scale)
    details = {"dalpha_norm": scale, "restricted_det": det}
    return ContactReport(y, det_margin, det_margin > tol.threshold(1.0), details)


def gluck_yang_matrix(m: int) -> np.ndarray:
    """The 2m x 2m block matrix whose line fibration is not contact.

    Half-speed rotation blocks [[0, 1/2], [-1/2, 0]] down the diagonal
    and a single 2x2 identity in the top right corner.  All eigenvalues
    are +-i/2, so the fibration is nondegenerate, yet M - M^T is
    singular and the orthogonal plane field fails the contact condition.
    """
    m = int(m)
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
