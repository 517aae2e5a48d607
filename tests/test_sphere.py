"""Tests for central projection, fibration completion over the sphere,
plane-invariant matrices, and great-circle assembly."""

import warnings

import numpy as np
import pytest

from skewfib.bilinear import hurwitz_radon_family
from skewfib.errors import (
    DimensionMismatch,
    EquatorPoint,
    InvalidInput,
    RankDeficient,
    RealEigenvalue,
)
from skewfib.fibration import Chart, builtin_chart, extend_germ, fiber_plane, from_bilinear
from skewfib.grassmann import (
    AffinePlane,
    GreatSphere,
    OrientedPlane,
    embed_affine,
    max_principal_angle,
)
from skewfib.numeric import SampleStream, Tolerance, orthonormalize, spherical_distance
from skewfib.sphere import (
    assemble_great_circles,
    central_project,
    completion_check,
    equator_restriction,
    great_sphere_of,
    invariant_on_planes,
    inverse_project,
    _classified,
    _plane_residuals,
    plane_residual,
    sphere_fiber_direction,
)

RNG_SEED = 777

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
J4 = np.kron(np.eye(2), J2)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# central projection


def test_projection_poles_and_origin():
    north = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(central_project(north), np.zeros(3))
    p = inverse_project(np.zeros(3))
    assert np.array_equal(p, north)


def test_projection_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    for n in (3, 7):
        for _ in range(200):
            x = rng.uniform(-50.0, 50.0, n)
            p = inverse_project(x)
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-12
            assert p[-1] > 0.0  # upper hemisphere
            back = central_project(p)
            assert np.max(np.abs(back - x)) <= 1e-9 * (1.0 + np.max(np.abs(x)))


def test_projection_antipodal_consistency():
    rng = np.random.default_rng(RNG_SEED)
    x = rng.standard_normal(3)
    p = inverse_project(x)
    # the antipode projects to the same point of R^n
    assert np.max(np.abs(central_project(-p) - x)) <= 1e-12


def test_projection_equator_rejected():
    with pytest.raises(EquatorPoint):
        central_project(np.array([1.0, 0.0, 0.0, 0.0]))
    near = np.array([1.0, 0.0, 0.0, 1e-15])
    near /= np.linalg.norm(near)
    with pytest.raises(EquatorPoint):
        central_project(near)


def test_great_sphere_of_line_through_origin():
    line = AffinePlane(OrientedPlane(np.eye(3)[:, :1]), np.zeros(3))
    g = great_sphere_of(line)
    assert g.k == 1
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert max_principal_angle(g.frame, expected) <= 1e-7


def test_great_sphere_points_project_to_plane():
    """Upper-hemisphere points of the completed circle project back onto
    the affine line."""
    rng = np.random.default_rng(RNG_SEED)
    d = OrientedPlane(np.eye(3)[:, :1])
    base = np.array([0.0, 2.0, -1.0])
    line = AffinePlane(d, base)
    g = great_sphere_of(line)
    for theta in np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False):
        p = g.points(np.array([[np.cos(theta), np.sin(theta)]]))[0]
        if abs(p[-1]) < 1e-3:
            continue
        x = central_project(p)
        gap = (x - base) - d.frame[:, 0] * float(d.frame[:, 0] @ (x - base))
        assert np.linalg.norm(gap) <= 1e-10 * (1.0 + np.linalg.norm(x))


# ---------------------------------------------------------------------------
# completion


def test_completion_hopf3_exact():
    rep = completion_check(builtin_chart("hopf3"))
    assert rep.ok
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


def test_completion_hopf7():
    rep = completion_check(builtin_chart("hopf7"), samples=256)
    assert rep.ok
    assert abs(rep.margin - 1.0) <= 1e-9


def test_completion_ignores_affine_offset():
    c = builtin_chart("hopf3").with_offset(np.array([[5.0], [-3.0]]))
    rep = completion_check(c)
    assert rep.ok and rep.margin == pytest.approx(1.0, abs=1e-12)


def test_completion_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        completion_check(builtin_chart("hopf_line", m=2, a=0.0, b=1.0))  # n = 5, k = 1


def test_completion_smooth_chart():
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    rep = completion_check(ext, samples=256)
    assert rep.ok
    assert rep.verdict == "evidence-only"


def _sin_square_db(ys):
    """dB of B(y) = (sin y_1, y_1^2): only the y_1 column is nonzero."""
    out = np.zeros((len(ys), 2, 1, 2))
    out[:, 0, 0, 0] = np.cos(ys[:, 0])
    out[:, 1, 0, 0] = 2.0 * ys[:, 0]
    return out


def test_completion_smooth_chart_matches_per_point_reference():
    """The smooth completion check evaluates dB on one stack; margin,
    verdict and witness values equal a loop over single points with
    t = 1, the only direction a line chart (k = 1) needs.  The margin
    also equals, bit for bit, that of 16 sampled t = +-1."""
    tol = Tolerance()
    t1 = np.ones(1)
    charts = (
        extend_germ(builtin_chart("quad_germ", eps=0.05)),
        # B(y) depends on y_1 only, so every sampled Jacobian is singular
        Chart(1, 2, "builtin", b_func=lambda ys: np.stack([np.sin(ys[:, 0]), ys[:, 0] ** 2], 1),
              db_func=_sin_square_db),
    )
    for c in charts:
        for seed in (0, 7):
            rep = completion_check(c, samples=160, stream=SampleStream(seed), tol=tol)
            stream = SampleStream(seed)
            ys = stream.ball_points(160, 2, 10.0)
            sv = {
                tuple(y): np.linalg.svd(np.einsum("ijl,j->il", c.dB(y), t1), compute_uv=False)
                for y in ys
            }
            singular = [s[-1] <= tol.threshold(s[0]) for s in sv.values()]
            assert rep.margin == min(s[-1] for s in sv.values())
            assert rep.verdict == ("fail" if any(singular) else "evidence-only")
            for w in rep.witnesses:
                assert w["t"] == [1.0]
                assert w["sigma_min"] == sv[tuple(w["y"])][-1]
            ts = stream.unit_vectors(16, 1)
            assert set(ts[:, 0]) == {-1.0, 1.0}
            assert rep.margin == min(
                np.linalg.svd(np.einsum("ijl,j->il", c.dB(y), t), compute_uv=False)[-1]
                for y in ys for t in ts
            )
            if c is charts[1]:
                assert rep.verdict == "fail"
                assert len({tuple(w["y"]) for w in rep.witnesses}) == 3


def _closure_chart(mats, scales):
    """k = 3, q = 4 chart with B(y) t = sum_j t_j C_j (f_j(y_0), y_1, y_2, y_3),
    where f_j' = scales[j] (1 + y_0^2); scales None keeps y_0 itself."""

    def b(ys):
        cols = []
        for j, m in enumerate(mats):
            zs = ys.copy()
            if scales is not None:
                zs[:, 0] = scales[j] * (ys[:, 0] + ys[:, 0] ** 3 / 3.0)
            cols.append(zs @ m.T)
        return np.stack(cols, axis=2)

    def db(ys):
        out = np.broadcast_to(np.stack(mats, axis=1), (len(ys), 4, 3, 4)).copy()
        if scales is not None:
            for j, m in enumerate(mats):
                out[:, :, j, 0] = np.outer(scales[j] * (1.0 + ys[:, 0] ** 2), m[:, 0])
        return out

    return Chart(3, 4, "builtin", b_func=b, db_func=db)


def test_completion_smooth_k3_matches_per_point_reference():
    """Smooth k >= 2: margin, verdict, witnesses and details equal a loop
    over single chart points y and sampled unit t.  The Clifford chart has
    the same dB at every point; the second chart scales the y_0 column of
    each C_j by a tiny factor, so sigma_min is about sum_j t_j^2 d_j(y),
    distinct for every sample and below the singularity threshold."""
    tol = Tolerance()
    mats = builtin_chart("hopf7").C
    charts = (_closure_chart(mats, None), _closure_chart(mats, (1e-11, 3e-11, 9e-11)))
    for c in charts:
        for seed in (0, 7):
            rep = completion_check(c, samples=160, stream=SampleStream(seed), tol=tol)
            stream = SampleStream(seed)
            ys = stream.ball_points(160, 4, 10.0)
            ts = stream.unit_vectors(16, 3)
            ref = [
                (np.linalg.svd(np.einsum("ijl,j->il", c.dB(y), t), compute_uv=False), n, s)
                for n, y in enumerate(ys) for s, t in enumerate(ts)
            ]
            smins = [sv[-1] for sv, _, _ in ref]
            assert rep.margin == min(smins)
            assert rep.details == {"exact": False}
            singular = sorted(
                (sv[-1], n, s) for sv, n, s in ref if sv[-1] <= tol.threshold(sv[0])
            )
            expected = [
                {"y": ys[n].tolist(), "t": ts[s].tolist(), "sigma_min": smin}
                for smin, n, s in singular[:3]
            ]
            assert list(rep.witnesses) == expected
            assert rep.verdict == ("fail" if singular else "evidence-only")
            if c is charts[0]:
                assert rep.verdict == "evidence-only"
                assert abs(rep.margin - 1.0) <= 1e-12
            else:
                assert rep.verdict == "fail"
                assert len(set(smins)) == len(smins)


def test_completion_sampling_records():
    """Linear completion records the pencil test's sampling, without a
    radius; smooth completion samples chart points in a ball of radius 10."""
    linear = completion_check(builtin_chart("hopf7"), samples=64, stream=SampleStream(5))
    assert linear.sampling == {"seed": 5, "mode": "pseudo-random", "count": 64}
    assert completion_check(builtin_chart("hopf3")).sampling == {
        "seed": 0, "mode": "pseudo-random", "count": 1024,
    }
    ext = extend_germ(builtin_chart("quad_germ", eps=0.05))
    smooth = completion_check(ext, samples=32, stream=SampleStream(3, "low-discrepancy"))
    assert smooth.sampling == {"seed": 3, "mode": "low-discrepancy", "count": 32, "radius": 10.0}


def test_completion_check_gates_on_fiber_dimension():
    """S^6 and S^5 have no fibration by great 2-spheres: the gate fails
    k = 2 on R^6 and on R^5, where n = 2k + 1, with margin 0 before any
    pencil test, and draws no sample."""
    charts = (
        from_bilinear(hurwitz_radon_family(4, 3)),  # k = 2, n = 6
        Chart(2, 3, "linear", C=(np.eye(3), np.diag([1.0, 2.0, 3.0]))),  # k = 2, n = 5
    )
    for c in charts:
        rep = completion_check(c)
        assert rep.verdict == "fail" and rep.margin == 0.0 and rep.sampling is None
        assert rep.witnesses == ({"k": 2, "n": c.n, "reason": "no sphere fibration exists"},)
        assert rep.details == {"admissible": False}


def test_completion_check_passes_gate_for_circles():
    rep = completion_check(builtin_chart("hopf3"))
    assert rep.ok


def test_projection_rejects_non_finite_and_overflow():
    with pytest.raises(InvalidInput):
        central_project(np.array([np.nan, 1.0]))
    with pytest.raises(InvalidInput):
        central_project(np.array([1.0, np.inf]))
    with pytest.raises(InvalidInput):
        central_project(np.array([1e300, 1e-10]))  # the quotient overflows
    with pytest.raises(InvalidInput):
        inverse_project(np.array([np.inf, 0.0]))
    with pytest.raises(InvalidInput):
        inverse_project(np.array([np.nan, 0.0]))


def test_projection_large_finite_points_stay_on_sphere():
    for x in ([1e150, -1e150], [1e200, 1e200], [1.7e308, -1.7e308]):
        p = inverse_project(np.array(x))  # |(x, 1)|^2 overflows for all but the first
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-12
        assert 0.0 < p[-1] <= 1e-150
    assert np.array_equal(central_project(np.array([1e290, 0.5])), np.array([2e290]))


def test_inverse_project_scales_before_the_norm():
    p = inverse_project(np.array([1e160, 0.0]))
    assert np.allclose(p, [1.0, 0.0, 1e-160], rtol=1e-15, atol=0.0)
    # central_project rejects a last coordinate <= EQUATOR_EPS, so the
    # round trip runs on points with |x| below 1e14
    for x in ([1e13, -3e12], [7.0, -2.5, 0.3], [-1e10, 4e9, 1e-3]):
        x = np.array(x)
        back = central_project(inverse_project(x))
        assert np.all(np.abs(back - x) <= 1e-15 * np.abs(x))
    # in range, the power-of-two scaling keeps the bits of v / |v|
    for x in ([0.75, -1.0, 1e-3, 0.0], [3e100, -7.5, 1e-200]):
        v = np.append(x, 1.0)
        assert np.array_equal(inverse_project(np.array(x)), v / np.linalg.norm(v))


def test_great_sphere_of_a_far_fiber():
    """At |y| = 1e200 both |(1, B(y))|^2 and |(base, 1)|^2 overflow; unit
    scales first, so the frame is the closed form, the direction
    (1, B(y)) / |B(y)| and the base column (0, y, 1) / |y|."""
    c = builtin_chart("hopf3")
    rng = np.random.default_rng(RNG_SEED)
    s = 1e200
    for _ in range(5):
        y_hat = rng.standard_normal(2)
        y_hat /= np.linalg.norm(y_hat)
        frame = great_sphere_of(fiber_plane(c, s * y_hat)).frame
        b_hat = c.B(y_hat)[:, 0]
        expected = np.array([np.concatenate([[1.0 / s], b_hat, [0.0]]),
                             np.concatenate([[0.0], y_hat, [1.0 / s]])]).T
        # a zero entry may read a rounding residual of the base projection
        assert np.allclose(frame, expected, rtol=8 * 2.0**-52, atol=2.0**-52 / s)


# ---------------------------------------------------------------------------
# invariant on planes


def test_invariant_rotation_block():
    rep = invariant_on_planes(J2)
    assert rep.is_invariant
    assert rep.a == pytest.approx(0.0, abs=1e-12)
    assert rep.b == pytest.approx(1.0, abs=1e-12)
    assert rep.max_residual <= 1e-12


def test_invariant_scaled_rotation_recovery():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        m = a * np.eye(4) + b * J4
        rep = invariant_on_planes(m, samples=200)
        assert rep.is_invariant
        assert abs(rep.a - a) <= 1e-10 * (1.0 + abs(a))
        assert abs(rep.b - b) <= 1e-10 * (1.0 + abs(b))  # sign included
        assert rep.max_residual <= 1e-10


def test_invariant_fails_on_mixed_speeds():
    m = np.zeros((4, 4))
    m[:2, :2] = J2
    m[2:, 2:] = 2.0 * J2
    rep = invariant_on_planes(m)
    assert not rep.is_invariant
    assert rep.max_residual > 0.5


def test_invariant_rejects_real_eigenvalues():
    with pytest.raises(RealEigenvalue):
        invariant_on_planes(np.diag([1.0, 2.0]))
    with pytest.raises(InvalidInput):
        invariant_on_planes(np.zeros((3, 3)))  # odd dimension


def test_plane_residual_witness_value():
    """Residual of the mixed-speed rotation at u = (e2 + e4)/sqrt(2)."""
    m = np.zeros((4, 4))
    m[:2, :2] = J2
    m[2:, 2:] = 2.0 * J2
    u = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert plane_residual(m, u) == pytest.approx(1.5, abs=1e-12)
    # u inside a single speed block has no residual
    assert plane_residual(m, np.array([1.0, 0.0, 0.0, 0.0])) <= 1e-14


def test_plane_residual_rejects_bad_input():
    """A non-finite or wrongly shaped m or u is an input error, raised
    before any arithmetic, so no numpy warning is recorded."""
    bad = (
        (J4, [np.inf, 0.0, 0.0, 0.0]),
        (J4, [np.nan, 1.0, 0.0, 0.0]),
        (J4, [1.0, 0.0, 0.0]),
        (J4, np.eye(4)),
        (np.where(J4 == 1.0, np.inf, J4), [1.0, 0.0, 0.0, 0.0]),
        (np.full((2, 2), np.nan), [1.0, 0.0]),
        (np.zeros((2, 3)), [1.0, 0.0]),
        (np.zeros(4), [1.0, 0.0, 0.0, 0.0]),
    )
    for m, u in bad:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInput):
                plane_residual(m, u)
        assert caught == []


def test_invariant_rejects_empty_sample_count():
    with pytest.raises(InvalidInput, match="samples"):
        invariant_on_planes(J4, samples=0)
    with pytest.raises(InvalidInput, match="samples"):
        invariant_on_planes(J4, samples=-3)


def test_invariant_rejects_empty_matrix():
    with pytest.raises(InvalidInput):
        invariant_on_planes(np.zeros((0, 0)))


def test_invariant_rejects_non_finite_matrix():
    for bad in (np.full((2, 2), np.nan), np.array([[0.0, -np.inf], [1.0, 0.0]])):
        with pytest.raises(InvalidInput):
            invariant_on_planes(bad)
        with pytest.raises(InvalidInput):
            sphere_fiber_direction(bad, np.ones(2), 0.5)


def test_plane_residual_rejects_zero_vector():
    with pytest.raises(RankDeficient):
        plane_residual(J4, np.zeros(4))


def test_invariant_rank_gate_uses_given_tolerance():
    # [u | J4 u] has both singular values 1, under an absolute floor of 10
    with pytest.raises(RankDeficient):
        invariant_on_planes(J4, samples=5, tol=Tolerance(abs=10.0))
    assert invariant_on_planes(J4, samples=5).max_residual <= 1e-12


def _qr_plane_residual(m, u, tol=None):
    """The residual as computed before the closed form: the SVD rank gate
    and QR of orthonormalize on [u | Mu], then w = M^2 u minus its
    projection on the frame."""
    mu = m @ u
    q = orthonormalize(np.column_stack([u, mu]), tol)
    w = m @ mu
    return float(np.linalg.norm(w - q @ (q.T @ w)))


def _plane_frames_near_rank_one(rng):
    """(m, u) pairs whose frames [u | Mu] have sigma_min spread from 1e-14
    to 1e-10, on both sides of every tolerance below."""
    yield np.array([[0.0, -1e-14], [1.0, 0.0]]), np.array([0.0, 1.0])
    for smin in (3e-14, 3e-13, 3e-12, 3e-11, 1e-10):
        yield np.array([[0.0, -smin], [1.0, 0.0]]), np.array([0.0, 1.0])
        for d, a in ((4, 0.01), (4, 10.0), (6, 1.0), (6, 100.0)):
            # Mu = a u + sqrt(1 + a^2) smin f with f orthogonal to u, so that
            # sigma_min([u | Mu]) = smin to first order, with sigma_max near
            # sqrt(1 + a^2); M is random off u
            basis = np.linalg.qr(rng.standard_normal((d, 2)))[0]
            u, f = basis[:, 0], basis[:, 1]
            rest = rng.standard_normal((d, d)) @ (np.eye(d) - np.outer(u, u))
            yield np.outer(a * u + np.hypot(1.0, a) * smin * f, u) + rest, u


def test_plane_residual_gate_matches_svd_gate():
    """The Gram-matrix sigma_min raises RankDeficient exactly where the
    SVD gate of orthonormalize does, on frames just above and below the
    tolerance."""
    rng = np.random.default_rng(RNG_SEED)
    cases = list(_plane_frames_near_rank_one(rng))
    with pytest.raises(RankDeficient):
        plane_residual(*cases[0])
    flips = set()
    for abs_tol in (1e-13, 1e-12, 1e-11):
        tol = Tolerance(abs=abs_tol)
        for m, u in cases:
            smin = np.linalg.svd(np.column_stack([u, m @ u]), compute_uv=False)[-1]
            assert not 0.5 < smin / abs_tol < 2.0, "case too close to the tolerance"
            deficient = smin <= abs_tol
            flips.add(deficient)
            for fn in (_qr_plane_residual, lambda m, u, tol: _plane_residuals(m, u[None], tol)):
                if deficient:
                    with pytest.raises(RankDeficient):
                        fn(m, u, tol)
                else:
                    fn(m, u, tol)
    assert flips == {True, False}


def test_plane_residual_matches_qr_reference():
    """The closed-form residual agrees with the QR path to
    1e-14 (1 + |M|^2) on random matrices of several scales."""
    rng = np.random.default_rng(RNG_SEED)
    for d in (4, 6):
        for scale in (0.1, 1.0, 10.0, 100.0):
            for _ in range(25):
                m = scale * rng.standard_normal((d, d))
                u = _unit(rng, d)
                bound = 1e-14 * (1.0 + np.linalg.norm(m, 2) ** 2)
                assert abs(plane_residual(m, u) - _qr_plane_residual(m, u)) <= bound


def _line_frame(b):
    """The closed-form k = 1 graph frame v / |v|, v = (1, b), scaled first
    by the power of two that brings max |v_i| into [1/2, 1)."""
    v = np.concatenate([[1.0], b])
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
    return (v / np.linalg.norm(v))[:, None]


def test_library_built_planes_pass_public_constructors():
    """fiber_plane skips the rank gate and the constructors' checks.  Its
    k >= 2 frames equal orthonormalize's bit for bit; its k = 1 frames are
    the closed form, bit for bit, with a positive first entry and within
    4 eps of orthonormalize's.  The public constructors accept every plane
    and great circle built from them."""
    charts = [builtin_chart(name) for name in ("hopf3", "hopf7", "hopf15")]
    charts.append(builtin_chart("hopf_line", m=2, a=0.5, b=-1.5))
    charts.append(extend_germ(builtin_chart("quad_germ", eps=0.2)))
    rng = np.random.default_rng(RNG_SEED)
    eps = np.finfo(float).eps
    for c in charts:
        for radius in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
            for _ in range(3):
                y = radius * _unit(rng, c.q)
                plane = fiber_plane(c, y)
                frame = plane.direction.frame
                reference = orthonormalize(np.vstack([np.eye(c.k), c.B(y)]))
                if c.k == 1:
                    assert np.array_equal(frame, _line_frame(c.B(y)[:, 0]))
                    assert frame[0, 0] > 0.0
                    assert np.max(np.abs(frame - reference)) <= 4 * eps
                else:
                    assert np.array_equal(frame, reference)
                # each public constructor raises InvalidInput on a frame it rejects
                AffinePlane(OrientedPlane(frame), plane.base)
                OrientedPlane(embed_affine(plane).frame)
                GreatSphere(great_sphere_of(plane).frame)
    # the steep line: |(1, B(y))|^2 = 1 + 1e320 overflows, and the scaled
    # closed form still gives the unit frame (1e-160, 0, 1), where QR's sign
    # fix gave a first entry of -0.0
    c = builtin_chart("hopf_line", m=1, a=0.0, b=1e160)
    b = c.B(np.array([1.0, 0.0]))[:, 0]
    with np.errstate(over="ignore"):
        assert not np.isfinite(1.0 + b @ b)
    frame = fiber_plane(c, np.array([1.0, 0.0])).direction.frame
    assert np.array_equal(frame, _line_frame(b))
    assert np.array_equal(frame[:, 0], [1e-160, 0.0, 1.0])


def test_invariant_max_residual_is_max_of_single_residuals():
    """The batched residual reproduces plane_residual bit for bit, which
    keeps fixed-seed CLI output byte-identical."""
    mixed = np.zeros((4, 4))
    mixed[:2, :2] = J2
    mixed[2:, 2:] = 2.0 * J2
    for m in (mixed, -1.25 * np.eye(4) + 0.75 * J4):
        for seed in (0, 7):
            for mode in SampleStream.MODES:
                rep = invariant_on_planes(m, stream=SampleStream(seed, mode))
                us = SampleStream(seed, mode).unit_vectors(1000, 4)
                assert rep.max_residual == max(plane_residual(m, u) for u in us)


def test_invariant_report_serialization():
    rep = invariant_on_planes(2.0 * np.eye(2) + 3.0 * J2)
    data = rep.to_dict()
    assert data["is_invariant"] is True
    assert data["a"] == pytest.approx(2.0)
    assert data["b"] == pytest.approx(3.0)


def _near_invariant():
    """Invariant on planes at SKEWFIB_TOL=1e-3 but not at the default:
    the second rotation block turns 1e-5 faster than the first."""
    m = np.zeros((4, 4))
    m[:2, :2] = J2
    m[2:, 2:] = (1.0 + 1e-5) * J2
    return m


def test_classification_runs_once_per_matrix_and_tolerance(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    _classified.cache_clear()
    m = 0.37 * np.eye(4) + 1.9 * J4
    rng = np.random.default_rng(RNG_SEED)
    first = invariant_on_planes(m, samples=50)
    for _ in range(3):
        sphere_fiber_direction(m, rng.standard_normal(4), rng.uniform(-2.0, 2.0))
    equator_restriction(m, np.array([1.0, 0.0, 0.0, 0.0]))
    # the key is the matrix's value, not its memory layout or identity
    again = invariant_on_planes(np.asfortranarray(m.copy()), samples=50)
    assert len(calls) == 1
    assert (again.is_invariant, again.a, again.b) == (first.is_invariant, first.a, first.b)
    invariant_on_planes(m, samples=50, tol=Tolerance(rel=1e-6))
    assert len(calls) == 2
    assert _classified.cache_info().currsize == 2


def test_classification_redone_after_in_place_change():
    m = 2.0 * J4
    assert invariant_on_planes(m, samples=50).is_invariant
    m[2:, 2:] *= 2.0  # mixed speeds: 2 and 4
    rep = invariant_on_planes(m, samples=50)
    assert not rep.is_invariant
    with pytest.raises(InvalidInput):
        sphere_fiber_direction(m, np.ones(4), 0.5)
    m[2:, 2:] /= 2.0
    assert invariant_on_planes(m, samples=50).is_invariant


@pytest.mark.parametrize("first", ["default", "coarse"])
def test_classification_follows_skewfib_tol(monkeypatch, first):
    m = _near_invariant()
    expected = {"default": False, "coarse": True}
    order = [first, "coarse" if first == "default" else "default", first]
    for which in order:
        if which == "coarse":
            monkeypatch.setenv("SKEWFIB_TOL", "1e-3")
        else:
            monkeypatch.delenv("SKEWFIB_TOL", raising=False)
        assert invariant_on_planes(m, samples=50).is_invariant is expected[which]


def test_real_eigenvalue_raised_on_every_call():
    m = np.diag([1.0, 2.0])
    before = _classified.cache_info().currsize
    for _ in range(3):
        with pytest.raises(RealEigenvalue):
            invariant_on_planes(m)
        with pytest.raises(RealEigenvalue):
            sphere_fiber_direction(m, np.ones(2), 0.5)
    assert _classified.cache_info().currsize == before


def test_sphere_helpers_overflow_raises_invalid_input():
    m = 0.5 * np.eye(2) + 2.0 * J2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            invariant_on_planes(1e200 * J2)  # (M - aI)^2 overflows
        with pytest.raises(InvalidInput):
            invariant_on_planes(1e154 * J2)  # the spectrum is fine, M^2 u overflows
        with pytest.raises(InvalidInput):
            plane_residual(1e200 * J2, np.array([1.0, 0.0]))
        with pytest.raises(InvalidInput):
            sphere_fiber_direction(m, np.array([1.0, 2.0]), 1e200)  # s overflows
        with pytest.raises(InvalidInput):
            sphere_fiber_direction(m, np.array([1e308, 2.0]), 1.0)  # M z overflows


def test_sphere_helpers_large_finite_input_unchanged():
    """Overflow checks leave large but finite arithmetic alone."""
    rep = invariant_on_planes(1e50 * J2, samples=50)
    assert rep.is_invariant and rep.b == pytest.approx(1e50, rel=1e-12)
    z = np.array([1e100, 0.0])
    d = sphere_fiber_direction(J2, z, 1e50)
    # J2 has a = 0 and b = 1; the function's own expression, evaluated here
    expected = np.concatenate([[1.0 + 1e50**2], (1e50 * np.eye(2) + J2) @ z, [0.0]])
    assert np.array_equal(d, expected)


def test_sphere_fiber_direction_answers_where_only_a_squared_norm_overflows():
    """The cross-check's norms scale first, so a direction whose squared
    length overflows still comes back: the function's own expression with
    a = 1/2 and b = 2, to the rounding of the classified a and b."""
    m = 0.5 * np.eye(2) + 2.0 * J2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, z_t in (([1e200, 1e200], 0.5), ([1e300, 2.0], 1.0)):
            z = np.array(z)
            s = (1.0 + 0.5 * z_t) ** 2 + (2.0 * z_t) ** 2
            expected = np.concatenate([[s], (z_t * 4.25 * np.eye(2) + m) @ z, [0.0]])
            assert np.allclose(sphere_fiber_direction(m, z, z_t), expected, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# sphere fiber directions


def test_sphere_fiber_direction_zero_parameter():
    rng = np.random.default_rng(RNG_SEED)
    z = rng.standard_normal(2)
    d = sphere_fiber_direction(J2, z, 0.0)
    expected = np.concatenate([[1.0], J2 @ z, [0.0]])
    assert np.max(np.abs(d - expected)) <= 1e-12


def test_sphere_fiber_direction_rotation_formula():
    """For M = J the direction is (1 + z_t^2, z_t z + J z, 0)."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        z = rng.standard_normal(2)
        zt = rng.uniform(-4.0, 4.0)
        d = sphere_fiber_direction(J2, z, zt)
        expected = np.concatenate([[1.0 + zt * zt], zt * z + J2 @ z, [0.0]])
        assert np.max(np.abs(d - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))


def test_sphere_fiber_direction_matches_inverse_form():
    """Block form against M (I + z_t M)^-1 z computed directly."""
    rng = np.random.default_rng(RNG_SEED)
    for a in (-1.0, 0.0, 2.0):
        for b in (-2.0, 0.5, 1.0):
            m = a * np.eye(4) + b * J4
            for _ in range(40):
                z = rng.standard_normal(4)
                zt = rng.uniform(-3.0, 3.0)
                d = sphere_fiber_direction(m, z, zt)
                s = d[0]
                w = m @ np.linalg.solve(np.eye(4) + zt * m, z)
                expected = np.concatenate([[s], s * w, [0.0 * s]])
                # the block form equals s times the inverse form
                assert np.max(np.abs(d - expected)) <= 1e-9 * (1.0 + np.max(np.abs(d)))


def test_sphere_fiber_direction_rejects_noninvariant():
    m = np.zeros((4, 4))
    m[:2, :2] = J2
    m[2:, 2:] = 2.0 * J2
    with pytest.raises(InvalidInput):
        sphere_fiber_direction(m, np.ones(4), 0.5)


# ---------------------------------------------------------------------------
# great-circle assembly


def test_assemble_north_pole_circle():
    assign = assemble_great_circles(J2)
    north = np.array([0.0, 0.0, 0.0, 1.0])
    g = assign(north)
    # the circle completes the fiber through the origin: span{e_t, e_proj}
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert max_principal_angle(g.frame, expected) <= 1e-7


def test_assemble_equator_circle():
    assign = assemble_great_circles(J2)
    u = np.array([1.0, 0.0])
    p = np.concatenate([[0.0], u, [0.0]])
    g = assign(p)
    # equator points ride the circle spanned by (0, u, 0) and (0, Ju, 0)
    expected = np.zeros((4, 2))
    expected[1:3, 0] = u
    expected[1:3, 1] = J2 @ u
    angle = max_principal_angle(g.frame, np.linalg.qr(expected)[0])
    assert angle <= 1e-7


def test_assemble_covers_chart_fibers():
    """Off the equator the assigned circle is the completed affine fiber."""
    c = builtin_chart("hopf3")
    assign = assemble_great_circles(J2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        x = rng.uniform(-5.0, 5.0, 3)
        p = inverse_project(x)
        g = assign(p)
        y = np.asarray(
            np.linalg.solve(np.eye(2) + x[0] * J2, x[1:])
        )  # chart point of the fiber through x
        target = great_sphere_of(fiber_plane(c, y))
        assert max_principal_angle(g.frame, target.frame) <= 1e-6


def test_assemble_lower_hemisphere():
    assign = assemble_great_circles(J2)
    x = np.array([1.0, 2.0, 0.5])
    p = inverse_project(x)
    g_up = assign(p)
    g_down = assign(-p)
    assert max_principal_angle(g_up.frame, g_down.frame) <= 1e-7


def test_assemble_circles_converge_to_equator_assignment():
    """Approaching an equator point, assigned circles converge at the
    rate of the spherical distance."""
    assign = assemble_great_circles(J2)
    u = np.array([1.0, 0.0])
    target = assign(np.concatenate([[0.0], u, [0.0]]))
    for eps in (1e-2, 1e-3, 1e-4):
        p = np.concatenate([[eps], u, [0.0]])
        p /= np.linalg.norm(p)
        g = assign(p)
        angle = max_principal_angle(g.frame, target.frame)
        dist = spherical_distance(p, np.concatenate([[0.0], u, [0.0]]))
        assert angle <= 10.0 * dist


def test_assemble_distinct_circles_disjoint():
    """Points of circles through distinct fibers stay apart."""
    assign = assemble_great_circles(J4)
    rng = np.random.default_rng(RNG_SEED)
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    params = np.column_stack([np.cos(thetas), np.sin(thetas)])
    for _ in range(20):
        x1 = rng.uniform(-3.0, 3.0, 5)
        x2 = rng.uniform(-3.0, 3.0, 5)
        if np.linalg.norm(x1 - x2) < 0.5:
            continue
        g1 = assign(inverse_project(x1))
        g2 = assign(inverse_project(x2))
        if max_principal_angle(g1.frame, g2.frame) <= 1e-9:
            continue  # same fiber
        pts1 = g1.points(params)
        pts2 = g2.points(params)
        gap = np.min(np.linalg.norm(pts1[:, None, :] - pts2[None, :, :], axis=2))
        assert gap > 1e-8


def test_assemble_validates_input():
    assign = assemble_great_circles(J2)
    with pytest.raises(InvalidInput):
        assign(np.array([1.0, 0.0, 0.0]))  # wrong dimension
    with pytest.raises(InvalidInput):
        assign(np.array([1.0, 1.0, 0.0, 0.0]))  # not unit


def test_equator_restriction_rotation():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        u = _unit(rng, 2)
        g = equator_restriction(J2, u)
        expected = np.column_stack([u, J2 @ u])
        assert max_principal_angle(g.frame, np.linalg.qr(expected)[0]) <= 1e-7


def test_equator_restriction_orientation_tracks_rotation_sign():
    u = np.array([1.0, 0.0])
    g_pos = equator_restriction(2.0 * np.eye(2) + 3.0 * J2, u)
    g_neg = equator_restriction(2.0 * np.eye(2) - 3.0 * J2, u)
    assert np.linalg.det(g_pos.frame) > 0
    assert np.linalg.det(g_neg.frame) < 0


def test_equator_restriction_same_circles_for_shifted_matrix():
    """aI + bJ restricts to the same unoriented equator circles as J."""
    rng = np.random.default_rng(RNG_SEED)
    m = 1.0 * np.eye(4) + 2.0 * J4
    for _ in range(50):
        u = _unit(rng, 4)
        g1 = equator_restriction(m, u)
        g2 = equator_restriction(J4, u)
        assert max_principal_angle(g1.frame, g2.frame) <= 1e-6


def test_sphere_helpers_reject_non_finite_input():
    with pytest.raises(InvalidInput):
        sphere_fiber_direction(J2, np.array([np.nan, 0.0]), 0.5)
    with pytest.raises(InvalidInput):
        sphere_fiber_direction(J2, np.array([1.0, 0.0]), np.nan)
    with pytest.raises(InvalidInput):
        sphere_fiber_direction(J2, np.array([1.0, 0.0, 0.0]), 0.5)  # wrong length
    with pytest.raises(InvalidInput):
        equator_restriction(J2, np.array([np.nan, 0.0]))
    with pytest.raises(InvalidInput):
        assemble_great_circles(J2)(np.array([np.nan, 0.0, 0.0, 1.0]))


def test_equator_restriction_needs_unit_vector():
    with pytest.raises(InvalidInput):
        equator_restriction(J2, np.array([2.0, 0.0]))
