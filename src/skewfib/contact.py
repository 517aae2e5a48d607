"""Contact-condition tests for line-fibration charts on R^(2m+1).

The plane field orthogonal to the fibers of a nondegenerate line
fibration is the kernel of the 1-form with coefficients
(1, B(y)) / (1 + |B(y)|^2): the fiber direction rescaled so the
parameter component is constant.  The field is contact at a point when
the exterior derivative restricted to the kernel hyperplane is
nondegenerate.  For a linear chart at the origin that restriction is
represented by M - M^T up to scale, which decides the dichotomy: block
rotations give contact structures, while the shifted-block construction
of gluck_yang_matrix makes M - M^T singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bilinear import J2
from .errors import InvalidInput
from .fibration import Chart, fiber_solve
from .numeric import Tolerance, finite_vector, jacobian, orthonormal_complement, real_eigenvalue_mask


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


def _ambient_forms(c: Chart, xs: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The form of each ambient point's fiber, for an (N, n) stack."""
    return contact_form(c, np.stack([fiber_solve(c, x, tol) for x in xs]))


def _ambient_form_linear(c: Chart, x: np.ndarray) -> np.ndarray:
    """Closed-form ambient extension for linear/affine line charts.

    Polynomial in x apart from one linear solve, so it accepts complex
    input and a complex-step derivative of it is exact.
    """
    t, plane = x[0], x[1:]
    cmat = c.C[0]
    offset = c.B0[:, 0] if c.kind == "affine" else np.zeros(c.q)
    y = np.linalg.solve(np.eye(c.q, dtype=x.dtype) + t * cmat, plane - t * offset)
    b = cmat @ y + offset
    one = np.ones(1, dtype=b.dtype)
    return np.concatenate([one, b]) / (1.0 + b @ b)


def _complex_step_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Machine-precision Jacobian of an analytic map, rows = outputs."""
    h = 1e-20  # no subtraction, so no cancellation: the step can be this small
    cols = []
    for j in range(x.size):
        xp = x.astype(complex)
        xp[j] += 1j * h
        cols.append(np.imag(f(xp)) / h)
    return np.column_stack(cols)


def contact_check(
    c: Chart,
    y: np.ndarray,
    tol: Tolerance | None = None,
    basis: np.ndarray | None = None,
) -> ContactReport:
    """Contact test at the chart-plane point y.

    The form is extended off the chart plane by assigning each ambient
    point the form of its fiber's chart point; d(alpha) is the
    antisymmetrized central-difference Jacobian at (0, y).  det_margin is
    basis-independent; for linear charts at y = 0 the kernel restriction
    is cross-checked against M - M^T up to a fitted scalar, with the
    entrywise mismatch reported in details.
    """
    tol = tol or Tolerance.default()
    if c.k != 1:
        raise InvalidInput("contact tests apply to line charts (k = 1)")
    if c.q % 2:
        raise InvalidInput(f"chart plane dimension must be even, got {c.q}")
    m_half = c.q // 2
    y = finite_vector(y, c.q)
    x0 = np.concatenate([[0.0], y])

    if c.is_linear:
        # Exact derivatives keep the degenerate det far below threshold
        # even after the 1/m-th root.
        jac = _complex_step_jacobian(lambda x: _ambient_form_linear(c, x), x0)
    else:
        jac = jacobian(lambda xs: _ambient_forms(c, xs, tol), x0)
    dalpha = jac.T - jac
    alpha0 = contact_form(c, y)
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
    details: dict = {"dalpha_norm": scale, "restricted_det": det}

    if c.is_linear and float(np.linalg.norm(y)) == 0.0:
        mm = c.C[0] - c.C[0].T
        block = dalpha[1:, 1:]
        denom = float(np.sum(mm * mm))
        lam = float(np.sum(block * mm)) / denom if denom > 0 else 0.0
        details["linear_scalar"] = lam
        details["linear_mismatch"] = float(np.max(np.abs(block - lam * mm)))

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
