"""Tests for the fiber-orthogonal plane field and the contact dichotomy."""

import warnings

import numpy as np
import pytest

from skewfib.contact import (
    ContactReport,
    contact_check,
    contact_checks,
    contact_form,
    gluck_yang_matrix,
)
from skewfib.errors import InvalidInput
from skewfib.fibration import Chart, block_rotation, builtin_chart, extend_germ, fiber_solve
from skewfib.numeric import SampleStream, jacobian

RNG_SEED = 31415

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _kernel_basis(alpha):
    """Orthonormal basis Q of the kernel of the 1-form alpha, from an SVD,
    oriented so that det([alpha / |alpha| | Q]) > 0."""
    unit = alpha / np.linalg.norm(alpha)
    basis = np.linalg.svd(unit[None, :])[2][1:].T
    if np.linalg.det(np.column_stack([unit, basis])) < 0:
        basis[:, 0] = -basis[:, 0]
    return basis


def test_contact_form_values():
    c = builtin_chart("hopf3")
    f0 = contact_form(c, np.zeros(2))
    assert np.array_equal(f0, np.array([1.0, 0.0, 0.0]))
    f1 = contact_form(c, np.array([1.0, 0.0]))
    # B(1, 0) = (0, 1), so the form is (1, 0, 1) / 2
    assert np.allclose(f1, np.array([0.5, 0.0, 0.5]), atol=1e-14)


def test_contact_form_annihilates_orthogonal_plane():
    rng = np.random.default_rng(RNG_SEED)
    c = builtin_chart("hopf_line", m=2, a=0.7, b=1.3)
    for _ in range(20):
        y = rng.uniform(-2.0, 2.0, 4)
        alpha = contact_form(c, y)
        d = np.concatenate([[1.0], c.B(y)[:, 0]])
        # the fiber direction pairs to 1, its orthocomplement to 0
        assert alpha @ d == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(alpha @ _kernel_basis(d))) <= 1e-12


def test_contact_form_needs_line_chart():
    with pytest.raises(InvalidInput):
        contact_form(builtin_chart("hopf7"), np.zeros(4))


def test_contact_check_rotation_chart():
    """Block rotations carry the standard contact structure; at the
    origin the margin is exactly one."""
    for m in (1, 2, 3):
        c = builtin_chart("hopf_line", m=m, a=0.0, b=1.0)
        rep = contact_check(c, np.zeros(2 * m))
        assert rep.is_contact
        assert rep.det_margin == pytest.approx(1.0, abs=1e-6)


def test_contact_check_away_from_origin():
    rng = np.random.default_rng(RNG_SEED)
    c = builtin_chart("hopf3")
    for _ in range(10):
        y = rng.uniform(-2.0, 2.0, 2)
        rep = contact_check(c, y)
        assert rep.is_contact
        assert rep.det_margin > 1e-3


def test_contact_check_gluck_yang_degenerate():
    """The shifted-block construction fails the contact condition at 0."""
    for m in (2, 3):
        c = builtin_chart("gluck_yang", m=m)
        rep = contact_check(c, np.zeros(2 * m))
        assert not rep.is_contact
        assert rep.det_margin <= 1e-10


def test_contact_check_linear_cross_check():
    """At the origin of a linear chart b = 0, so G = I and s = 1 and the
    restricted form (G D^T - D G) / s is exactly M^T - M."""
    charts = [builtin_chart("hopf_line", m=m, a=1.0, b=2.0) for m in (1, 2, 3)]
    charts.append(builtin_chart("gluck_yang", m=2))
    for c in charts:
        rep = contact_check(c, np.zeros(c.q))
        cmat = c.C[0]
        assert rep.details["restricted_det"] == np.linalg.det(cmat.T - cmat), c.name


def _reference_dalpha(c, y):
    """d(alpha) at (0, y) from central differences of the form of the
    fiber through each ambient point, each fiber found by a Newton
    fiber_solve: an independent route to the closed form.  Returns its
    norm and the det of its restriction to ker alpha."""
    def forms(xs):
        return contact_form(c, np.stack([fiber_solve(c, x) for x in xs]))

    jac = jacobian(forms, np.concatenate([[0.0], y]))
    dalpha = jac.T - jac
    basis = _kernel_basis(contact_form(c, y))
    return float(np.linalg.norm(dalpha, 2)), float(np.linalg.det(basis.T @ dalpha @ basis))


def test_contact_check_matches_newton_reference():
    """The closed-form d(alpha) agrees with differences through Newton
    fiber solves on linear, affine and smooth charts."""
    rng = np.random.default_rng(RNG_SEED)
    offset = np.array([[0.3], [-0.2], [0.1], [0.4]])
    charts = [
        builtin_chart("hopf_line", m=2, a=0.5, b=1.5),
        builtin_chart("gluck_yang", m=2).with_offset(offset),
        extend_germ(builtin_chart("quad_germ", eps=0.2)),
    ]
    for c in charts:
        for _ in range(10):
            y = rng.uniform(-1.0, 1.0, c.q)
            rep = contact_check(c, y)
            norm, det = _reference_dalpha(c, y)
            assert rep.details["restricted_det"] == pytest.approx(det, rel=1e-6), (c.name, y)
            # the norm is the scale of det_margin
            assert rep.details["dalpha_norm"] == pytest.approx(norm, rel=1e-6), (c.name, y)


def test_contact_checks_rows_equal_single_points():
    """Row i of a stack equals contact_check at row i, bit for bit: on a
    linear and an affine chart, in all three blend zones of an extension,
    and on the zero chart, where d(alpha) = 0 and every margin is 0."""
    rng = np.random.default_rng(RNG_SEED)
    ext = extend_germ(builtin_chart("quad_germ", eps=0.2))
    dirs = rng.standard_normal((12, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # s = |y| / blend_r of 0.3 (germ), 0.75 (ring) and 2 (linearization)
    zones = np.repeat([0.3, 0.75, 2.0], 4) * ext.params["blend_r"]
    zero = Chart(1, 2, "linear", C=(np.zeros((2, 2)),))
    offset = np.array([[0.3], [-0.2], [0.1], [0.4]])
    cases = [
        (builtin_chart("hopf_line", m=3, a=0.5, b=1.5), rng.uniform(-2.0, 2.0, (10, 6))),
        (builtin_chart("gluck_yang", m=2).with_offset(offset), rng.uniform(-2.0, 2.0, (10, 4))),
        (ext, dirs * zones[:, None]),
        (zero, rng.uniform(-2.0, 2.0, (5, 2))),
    ]
    for c, ys in cases:
        reports = contact_checks(c, ys)
        assert len(reports) == len(ys)
        for y, rep in zip(ys, reports):
            one = contact_check(c, y)
            assert np.array_equal(rep.point, y)
            assert rep.det_margin == one.det_margin, (c.name, y)
            assert rep.is_contact == one.is_contact
            assert rep.details == one.details
    for rep in contact_checks(zero, cases[-1][1]):
        assert rep.det_margin == 0.0 and not rep.is_contact
        assert rep.details == {"dalpha_norm": 0.0}


def test_contact_check_validation():
    with pytest.raises(InvalidInput):
        contact_check(builtin_chart("hopf7"), np.zeros(4))  # k = 3
    c = builtin_chart("hopf3")
    with pytest.raises(InvalidInput):
        contact_check(c, np.zeros(3))  # wrong point shape
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(InvalidInput, match="point stack shape"):
            contact_checks(c, bad)
    odd = Chart(1, 3, "linear", C=(np.eye(3),))
    with pytest.raises(InvalidInput):
        contact_check(odd, np.zeros(3))  # odd chart plane dimension


def test_contact_check_rejects_non_finite_point():
    """Rejected before the Jacobian is formed: no numpy warning either."""
    c = builtin_chart("hopf3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInput):
                contact_check(c, np.array([bad, 0.0]))
            with pytest.raises(InvalidInput, match="point coordinates must be finite"):
                contact_checks(c, np.array([[0.0, 0.0], [0.5, bad]]))


def test_contact_report_serialization():
    rep = contact_check(builtin_chart("hopf3"), np.zeros(2))
    data = rep.to_dict()
    assert set(data) == {"point", "det_margin", "is_contact"}
    assert data["is_contact"] is True
    assert isinstance(rep, ContactReport)


def test_gluck_yang_matrix_structure():
    m = gluck_yang_matrix(2)
    expected = np.kron(np.eye(2), -0.5 * J2)
    expected[0:2, 2:4] += np.eye(2)
    assert np.array_equal(m, expected)


def test_gluck_yang_matrix_spectrum_and_skew_part():
    for size in (2, 3, 5):
        m = gluck_yang_matrix(size)
        eig = np.linalg.eigvals(m)
        # nondegenerate: all eigenvalues are +-i/2
        assert np.max(np.abs(np.abs(eig.imag) - 0.5)) <= 1e-10
        assert np.max(np.abs(eig.real)) <= 1e-10
        # but the skew part is exactly singular
        skew = m - m.T
        assert np.linalg.svd(skew, compute_uv=False)[-1] <= 1e-12
        assert abs(np.linalg.det(skew)) <= 1e-12


def test_gluck_yang_matrix_rejects_small_m():
    with pytest.raises(InvalidInput):
        gluck_yang_matrix(1)


def test_gluck_yang_chart_is_nondegenerate_but_not_contact():
    from skewfib.fibration import verify_nondegenerate, verify_skew

    c = builtin_chart("gluck_yang", m=2)
    nd = verify_nondegenerate(c)
    assert nd.ok  # the fibration itself is fine
    sk = verify_skew(c, radius=10.0, samples=256, stream=SampleStream(seed=2))
    assert sk.verdict != "fail"
    rep = contact_check(c, np.zeros(4))
    assert not rep.is_contact  # only the plane field degenerates


def test_contact_check_smooth_chart():
    """Smooth charts take the same closed form, with dB from the chart."""
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    rep = contact_check(ext, np.zeros(2))
    assert rep.is_contact
    assert 0.9 < rep.det_margin < 1.1


def test_block_rotation_det_margin_positive_on_grid():
    rng = np.random.default_rng(RNG_SEED)
    for a in (-1.0, 0.0, 1.5):
        for b in (-2.0, 1.0):
            c = builtin_chart("hopf_line", m=2, a=a, b=b)
            for _ in range(5):
                y = rng.uniform(-1.5, 1.5, 4)
                rep = contact_check(c, y)
                assert rep.is_contact, (a, b, y)
