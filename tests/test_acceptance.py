"""Acceptance suite: one test per release criterion.

Each criterion prints a single `acceptance NN <name>: PASS/FAIL` line
(bypassing capture) with its runtime, and asserts both the documented
tolerances and the documented runtime budget.  Wherever a criterion
rests on a derived number, the independent oracle is computed first,
inside the test, from plain numpy.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from skewfib.bilinear import BilinearMap, hurwitz_radon_family, verify_nonsingular
from skewfib.contact import contact_check, gluck_yang_matrix
from skewfib.dims import admissible_skew, rho, skew_period, skew_table
from skewfib.fibration import (
    Chart,
    ConeProbe,
    builtin_chart,
    continuity_probe,
    extend_germ,
    fiber_plane,
    fiber_solve,
    from_bilinear,
    limiting_direction,
    verify_nondegenerate,
    verify_skew,
)
from skewfib.grassmann import skew_pair
from skewfib.numeric import SampleStream, Tolerance
from skewfib.sphere import (
    assemble_great_circles,
    completion_check,
    invariant_on_planes,
    plane_residual,
    sphere_fiber_direction,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

# fiber-dimension periods for k = 1..14
PERIODS = (2, 4, 4, 8, 8, 8, 8, 16, 32, 64, 64, 128, 128, 128)

# admissible fiber dimensions per ambient dimension 3..24, largest first
TABLE = {
    3: [1], 4: [], 5: [1], 6: [2], 7: [3, 1], 8: [], 9: [1], 10: [2],
    11: [3, 1], 12: [4], 13: [5, 1], 14: [6, 2], 15: [7, 3, 1], 16: [],
    17: [1], 18: [2], 19: [3, 1], 20: [4], 21: [5, 1], 22: [6, 2],
    23: [7, 3, 1], 24: [8],
}


@contextmanager
def _criterion(capsys, num, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def _ball(rng, n, radius):
    x = rng.standard_normal(n)
    return x * (radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(x))


def test_criterion_01_dimension_tables(capsys):
    """rho values, fiber-dimension periods, and the admissible table are
    frozen integers; everything must match exactly."""
    with _criterion(capsys, 1, "dimension tables", 1.0):
        assert [rho(2 ** v) for v in range(9)] == [1, 2, 4, 8, 9, 10, 12, 16, 17]
        assert rho(12) == 4 and rho(48) == 9 and rho(1) == 1
        for k, period in zip(range(1, 15), PERIODS):
            assert skew_period(k) == period, k
        table = skew_table(24)
        for n, ks in TABLE.items():
            assert table[n] == ks, n
        for n, ks in TABLE.items():
            for k in range(1, min(n - 1, 15)):
                assert admissible_skew(k, n) == (k in ks), (k, n)


def test_criterion_02_quaternion_determinant_identity(capsys):
    """det([B(y) - B(z) | y - z]) equals |y - z|^4 on the quaternion chart;
    the oracle is the plain 4x4 determinant."""
    with _criterion(capsys, 2, "quaternion determinant identity", 1.0):
        c = builtin_chart("hopf7")
        rng = np.random.default_rng(312)
        for _ in range(1000):
            y = rng.uniform(-10.0, 10.0, 4)
            z = rng.uniform(-10.0, 10.0, 4)
            det = float(np.linalg.det(np.column_stack([c.B(y) - c.B(z), y - z])))
            target = float(np.linalg.norm(y - z) ** 4)
            assert abs(det - target) <= 1e-8 * (1.0 + target)


def test_criterion_03_skewness_margins(capsys):
    """Sampled skewness margins against the closed-form singular values."""
    with _criterion(capsys, 3, "skewness margins", 10.0):
        # oracle first: for the unit-rotation line chart both singular
        # values of [B(x)-B(y) | x-y] equal |x-y|
        c3 = builtin_chart("hopf3")
        xs, ys = SampleStream(seed=1).pairs_in_ball(100, 2, 100.0)
        for x, y in zip(xs, ys):
            sv = np.linalg.svd(np.column_stack([c3.B(x) - c3.B(y), x - y]), compute_uv=False)
            assert np.max(np.abs(sv - np.linalg.norm(x - y))) <= 1e-9 * np.linalg.norm(x - y)
        rep = verify_skew(c3, radius=100.0, samples=10_000)
        assert abs(rep.margin - 1.0) <= 1e-9

        # oracle: the norm identity makes every singular value |x-y| on
        # the quaternion and octonion charts as well
        for name in ("hopf7", "hopf15"):
            c = builtin_chart(name)
            xs, ys = SampleStream(seed=2).pairs_in_ball(50, c.q, 100.0)
            for x, y in zip(xs, ys):
                sv = np.linalg.svd(np.column_stack([c.B(x) - c.B(y), x - y]), compute_uv=False)
                assert np.max(np.abs(sv - np.linalg.norm(x - y))) <= 1e-8 * np.linalg.norm(x - y)
            rep = verify_skew(c, radius=100.0, samples=10_000)
            assert rep.margin > 0.5
            assert rep.verdict != "fail"


def test_criterion_04_degeneracy_detection(capsys):
    """The parallel chart must fail with witnesses; rotation-family
    margins are the exact |b| eigenvalue margins."""
    with _criterion(capsys, 4, "degeneracy detection", 1.0):
        parallel = Chart(1, 2, "linear", C=(np.zeros((2, 2)),))
        sk = verify_skew(parallel, radius=10.0, samples=256)
        assert sk.verdict == "fail" and len(sk.witnesses) >= 1
        nd = verify_nondegenerate(parallel)
        assert nd.verdict == "fail" and len(nd.witnesses) >= 1
        assert "eigenvalue" in nd.witnesses[0]
        for m in (1, 2, 3):
            for a in (-1.0, 0.0, 2.0):
                for b in (-2.0, 0.5, 1.0):
                    rep = verify_nondegenerate(builtin_chart("hopf_line", m=m, a=a, b=b))
                    assert rep.verdict == "pass"
                    assert rep.margin == abs(b), (m, a, b)


def test_criterion_05_fiber_solver(capsys):
    """Residuals and plane membership for solved fibers on all shipped
    global charts plus one germ extension."""
    with _criterion(capsys, 5, "fiber solver", 5.0):
        charts = [
            builtin_chart("hopf3"),
            builtin_chart("hopf7"),
            builtin_chart("hopf15"),
            extend_germ(builtin_chart("quad_germ", eps=0.05)),
        ]
        rng = np.random.default_rng(55)
        for c in charts:
            for _ in range(1000):
                x = _ball(rng, c.n, 100.0)
                y = fiber_solve(c, x)
                residual = float(np.linalg.norm(c.B(y) @ x[: c.k] + y - x[c.k :]))
                assert residual <= 1e-10 * (1.0 + float(np.linalg.norm(x)))
                plane = fiber_plane(c, y)
                gap = x - plane.base
                gap = gap - plane.direction.frame @ (plane.direction.frame.T @ gap)
                assert np.linalg.norm(gap) <= 1e-9 * (1.0 + np.linalg.norm(x))


def test_criterion_06_continuity_at_infinity(capsys):
    """Probe angles decay like 1/t; the extra decade at t = 1e7 must
    match the power law fitted on the first three probes."""
    with _criterion(capsys, 6, "continuity at infinity", 5.0):
        cases = []
        c3 = builtin_chart("hopf3")
        cases.append((c3, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])))
        c7 = builtin_chart("hopf7")
        plane = fiber_plane(c7, np.array([1.0, -1.0, 0.5, 2.0]))
        ell = plane.direction.frame[:, 0]
        offset = np.zeros(7)
        offset[4] = 1.5
        offset -= (offset @ ell) * ell
        cases.append((c7, ell, plane.base + offset))
        for c, ell, base in cases:
            probe = ConeProbe(ell, (1e2, 1e4, 1e6, 1e7), base=base)
            angles = continuity_probe(c, ell, probe)
            assert angles[0] > angles[1] > angles[2]
            assert angles[2] <= 1e-2
            # oracle: fit log-log slope on the three probe decades and
            # predict the fourth value
            slope = np.polyfit(np.log10((1e2, 1e4, 1e6)), np.log10(angles[:3]), 1)[0]
            assert abs(slope + 1.0) <= 0.1
            predicted = angles[2] * 10.0 ** slope
            assert predicted / 3.0 <= angles[3] <= predicted * 3.0


def test_criterion_07_limiting_direction_formula(capsys):
    """The Richardson limit equals normalize(v_t u + B(u)) for the unit
    rotation chart."""
    with _criterion(capsys, 7, "limiting direction formula", 2.0):
        c = builtin_chart("hopf3")
        rng = np.random.default_rng(77)
        for _ in range(100):
            uq = rng.standard_normal(2)
            uq /= np.linalg.norm(uq)
            u = np.concatenate([[0.0], uq])
            v3 = rng.uniform(-3.0, 3.0)
            w = rng.uniform(-3.0, 3.0)
            v = np.concatenate([[v3], w * (J2 @ uq)])  # orthogonal to u
            got = limiting_direction(c, u, v)
            expected = v3 * u + np.concatenate([[0.0], J2 @ uq])
            expected /= np.linalg.norm(expected)
            assert np.linalg.norm(got - expected) <= 1e-6


def test_criterion_08_contact_dichotomy(capsys):
    """Rotation charts are contact everywhere sampled; the shifted-block
    family is degenerate at 0 yet nondegenerate as a fibration."""
    with _criterion(capsys, 8, "contact dichotomy", 5.0):
        for m in (1, 2, 3):
            c = builtin_chart("hopf_line", m=m, a=0.0, b=1.0)
            for y in SampleStream(seed=8).ball_points(20, 2 * m, 2.0):
                assert contact_check(c, y).is_contact, (m, y)
        for m in (2, 3):
            # oracle: the eigenvalue solver keeps all spectra off the
            # real axis, so the fibration itself is nondegenerate
            eig = np.linalg.eigvals(gluck_yang_matrix(m))
            assert np.min(np.abs(eig.imag)) >= 0.2
            c = builtin_chart("gluck_yang", m=m)
            rep = contact_check(c, np.zeros(2 * m))
            assert rep.det_margin <= 1e-10
            assert not rep.is_contact


def test_criterion_09_invariant_on_planes(capsys):
    """Classification of matrices keeping planes span{u, Mu} invariant."""
    with _criterion(capsys, 9, "invariant on planes", 2.0):
        for d in (1, 2, 3):
            rep = invariant_on_planes(np.kron(np.eye(d), J2))
            assert rep.is_invariant and rep.max_residual <= 1e-12
        mixed = np.zeros((4, 4))
        mixed[:2, :2] = J2
        mixed[2:, 2:] = 2.0 * J2
        rep = invariant_on_planes(mixed)
        assert not rep.is_invariant
        u = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
        # oracle: project M^2 u off span{u, Mu} with a plain least squares
        basis = np.column_stack([u, mixed @ u])
        m2u = mixed @ (mixed @ u)
        coeffs, *_ = np.linalg.lstsq(basis, m2u, rcond=None)
        direct = float(np.linalg.norm(m2u - basis @ coeffs))
        assert direct > 0.1
        assert plane_residual(mixed, u) == pytest.approx(direct, rel=1e-9)
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
            rep = invariant_on_planes(a * np.eye(4) + b * np.kron(np.eye(2), J2))
            assert rep.is_invariant
            assert abs(rep.a - a) <= 1e-10 and abs(rep.b - b) <= 1e-10


def test_criterion_10_sphere_direction_formulas(capsys):
    """Block closed form vs matrix-inverse form, and convergence of
    assembled circles approaching the equatorial core sphere."""
    with _criterion(capsys, 10, "sphere direction formulas", 10.0):
        rng = np.random.default_rng(1010)
        for a in (-1.0, 0.0, 2.0):
            for b in (-2.0, 0.5, 1.0):
                m = a * np.eye(4) + b * np.kron(np.eye(2), J2)
                for _ in range(112):
                    z = rng.uniform(-5.0, 5.0, 4)
                    zt = rng.uniform(-3.0, 3.0)
                    d = sphere_fiber_direction(m, z, zt)
                    # oracle: the matrix-inverse form computed in place
                    s = (1.0 + zt * a) ** 2 + (zt * b) ** 2
                    w = m @ np.linalg.solve(np.eye(4) + zt * m, z)
                    oracle = s * np.concatenate([[1.0], w, [0.0]])
                    assert np.linalg.norm(d - oracle) <= 1e-9 * (1.0 + np.linalg.norm(d))

        from skewfib.grassmann import max_principal_angle

        for m in (J2, np.eye(4) + 2.0 * np.kron(np.eye(2), J2)):
            assign = assemble_great_circles(m)
            d = m.shape[0]
            for u in SampleStream(seed=3).unit_vectors(4, d):
                p_s = np.concatenate([[0.0], u, [0.0]])
                limit = assign(p_s)
                w = np.zeros(d + 2)
                w[0], w[-1] = 0.6, 0.8
                p = np.cos(1e-4) * p_s + np.sin(1e-4) * w
                angle = max_principal_angle(assign(p / np.linalg.norm(p)).frame, limit.frame)
                assert angle <= 1e-3


def test_criterion_11_completion_checks(capsys):
    """Quaternion chart completion margin is 1, offsets included; a
    plane chart of R^6 is rejected by the sphere admissibility gate."""
    with _criterion(capsys, 11, "completion checks", 2.0):
        c = builtin_chart("hopf7")
        # oracle: the quaternion norm identity makes every unit
        # combination of the chart matrices orthogonal
        mats = np.stack(c.C)
        for t in SampleStream(seed=4).unit_vectors(200, 3):
            sv = np.linalg.svd(np.einsum("j,jab->ab", t, mats), compute_uv=False)
            assert np.max(np.abs(sv - 1.0)) <= 1e-12
        rep = completion_check(c)
        assert rep.ok and abs(rep.margin - 1.0) <= 1e-9
        shifted = Chart(3, 4, "affine", C=c.C, B0=np.array([[1.0, 0.5, 0.0], [0.0, -2.0, 1.0],
                                                            [3.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        rep = completion_check(shifted)
        assert rep.ok and abs(rep.margin - 1.0) <= 1e-9
        plane_chart = from_bilinear(hurwitz_radon_family(4, 3))
        assert (plane_chart.k, plane_chart.n) == (2, 6)
        rep = completion_check(plane_chart)
        assert rep.verdict == "fail"
        assert rep.witnesses[0]["reason"] == "no sphere fibration exists"


def test_criterion_12_germ_extension(capsys):
    """The quadratic germ extends to a globally nondegenerate chart and
    is untouched (bitwise) on the inner half of the blend zone."""
    with _criterion(capsys, 12, "germ extension", 20.0):
        germ = builtin_chart("quad_germ", eps=0.05)
        ext = extend_germ(germ)
        rep = verify_nondegenerate(ext, radius=100.0, samples=10_000)
        assert rep.ok
        r = ext.params["blend_r"]
        rng = np.random.default_rng(1212)
        for _ in range(200):
            y = rng.standard_normal(2)
            y *= rng.uniform(0.0, 0.5 * r) / np.linalg.norm(y)
            assert np.array_equal(ext.B(y), germ.B(y))


def test_criterion_13_cross_validation(capsys):
    """Independent formulations must agree: plane-pair skewness vs the
    kernel test, and exact eigenvalues vs the bilinear pencil."""
    with _criterion(capsys, 13, "cross validation", 10.0):
        tol = Tolerance.default()
        charts = [
            builtin_chart("hopf3"),
            builtin_chart("hopf7"),
            builtin_chart("hopf15"),
            builtin_chart("hopf_line", m=2, a=1.0, b=2.0),
            builtin_chart("gluck_yang", m=2),
            extend_germ(builtin_chart("quad_germ", eps=0.05)),
        ]
        for c in charts:
            xs, ys = SampleStream(seed=13).pairs_in_ball(1000, c.q, 10.0)
            for x, y in zip(xs, ys):
                if np.linalg.norm(x - y) <= 1e-9:
                    continue
                mat = np.column_stack([c.B(x) - c.B(y), x - y])
                sv = np.linalg.svd(mat, compute_uv=False)
                kernel_skew = sv[-1] > tol.rel * sv[0] + tol.abs
                pair_skew, _ = skew_pair(fiber_plane(c, x), fiber_plane(c, y))
                assert kernel_skew == pair_skew, (c.name, x, y)

        rng = np.random.default_rng(131)
        for trial in range(50):
            want_fail = trial % 2 == 0
            if want_fail:
                lams = rng.uniform(-2.0, 2.0, 2)
                blocks = [np.diag(lams)]
            else:
                blocks = []
            pairs = 1 if want_fail else 2
            for _ in range(pairs):
                a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
                blocks.append(np.array([[a, -b], [b, a]]))
            d = np.zeros((4, 4))
            at = 0
            for blk in blocks:
                s = blk.shape[0]
                d[at:at + s, at:at + s] = blk
                at += s
            while True:
                v = rng.standard_normal((4, 4))
                if np.linalg.cond(v) < 50.0:
                    break
            c1 = v @ d @ np.linalg.inv(v)
            eigen_rep = verify_nondegenerate(Chart(1, 4, "linear", C=(c1,)))
            pencil_rep = verify_nonsingular(BilinearMap(4, 2, (c1, np.eye(4))))
            assert eigen_rep.ok == pencil_rep.ok == (not want_fail), trial
