"""Tests for the shared numeric kernel: tolerances, sampling, linear algebra helpers,
and the overflow guard that every library entry point runs under."""

import concurrent.futures
import math
import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest

from skewfib.contact import contact_check, contact_checks, contact_form
from skewfib.errors import InvalidInput, RankDeficient
from skewfib.fibration import (
    Chart,
    ConeProbe,
    builtin_chart,
    fiber_solve,
    limiting_direction,
    verify_nondegenerate,
    verify_skew,
)
from skewfib.grassmann import AffinePlane, OrientedPlane, skew_pair
from skewfib.numeric import (
    MIN_CHUNK,
    SampleStream,
    Tolerance,
    eigenvalues,
    jacobian,
    oriented_q,
    orthonormalize,
    overflow_is_invalid,
    row_norms,
    singular_values,
    spherical_distance,
)

RNG_SEED = 1234


def test_tolerance_defaults():
    tol = Tolerance.default()
    assert tol.rel == 1e-8
    assert tol.abs == 1e-12
    assert tol.threshold(1.0) == 1e-8 + 1e-12
    assert tol.threshold(100.0) == 1e-8 * 100.0 + 1e-12


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("SKEWFIB_TOL", "1e-3")
    tol = Tolerance.default()
    assert tol.rel == 1e-3
    monkeypatch.setenv("SKEWFIB_TOL", "1e-4,1e-10")
    tol = Tolerance.default()
    assert tol.rel == 1e-4 and tol.abs == 1e-10
    monkeypatch.delenv("SKEWFIB_TOL")
    assert Tolerance.default().rel == 1e-8
    monkeypatch.setenv("SKEWFIB_TOL", "banana")
    with pytest.raises(InvalidInput):
        Tolerance.default()


def test_tolerance_rejects_bad_values():
    with pytest.raises(InvalidInput):
        Tolerance(rel=-1e-9, abs=1e-12)
    with pytest.raises(InvalidInput):
        Tolerance(rel=1e-9, abs=float("nan"))


def test_tolerance_rejects_infinite_values(monkeypatch):
    with pytest.raises(InvalidInput):
        Tolerance(rel=float("inf"))
    with pytest.raises(InvalidInput):
        Tolerance(abs=float("inf"))
    monkeypatch.setenv("SKEWFIB_TOL", "inf")
    with pytest.raises(InvalidInput):
        Tolerance.default()


def test_sample_stream_deterministic():
    """Same seed and mode must reproduce draws bit for bit."""
    for mode in ("pseudo-random", "low-discrepancy"):
        a = SampleStream(seed=7, mode=mode).unit_vectors(50, 5)
        b = SampleStream(seed=7, mode=mode).unit_vectors(50, 5)
        assert np.array_equal(a, b)
        c = SampleStream(seed=8, mode=mode).unit_vectors(50, 5)
        assert not np.array_equal(a, c)


def test_sample_stream_prefix_stable():
    """Asking for more points must not change the points already drawn."""
    for mode in ("pseudo-random", "low-discrepancy"):
        short = SampleStream(seed=3, mode=mode).ball_points(100, 4, 2.0)
        long = SampleStream(seed=3, mode=mode).ball_points(1000, 4, 2.0)
        assert np.array_equal(short, long[:100])


def test_sample_stream_geometry():
    stream = SampleStream(seed=RNG_SEED)
    u = stream.unit_vectors(200, 6)
    assert u.shape == (200, 6)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    b = stream.ball_points(200, 3, 5.0)
    assert b.shape == (200, 3)
    assert np.all(np.linalg.norm(b, axis=1) <= 5.0 + 1e-12)
    x, y = stream.pairs_in_ball(100, 4, 2.0)
    assert x.shape == y.shape == (100, 4)


def test_sample_stream_rejects_unknown_mode():
    with pytest.raises(InvalidInput):
        SampleStream(seed=0, mode="sobol")


def test_sample_stream_checks_every_count_and_radius():
    stream = SampleStream(seed=0)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got 0"):
        stream.unit_vectors(0, 3)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got -2"):
        stream.pairs_in_ball(-2, 3, 1.0)
    with pytest.raises(InvalidInput, match=r"need a finite sampling radius > 0, got -1.0"):
        stream.ball_points(5, 3, -1.0)
    for radius in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="sampling radius"):
            stream.pairs_in_ball(5, 3, radius)
    with pytest.raises(InvalidInput, match=r"need samples >= 1, got 0"):
        stream.sampling(0)
    with pytest.raises(InvalidInput, match="sampling radius"):
        stream.sampling(5, 0.0)
    # a rejected request draws nothing, so the stream stays where it was
    assert np.array_equal(stream.unit_vectors(4, 3), SampleStream(seed=0).unit_vectors(4, 3))


def test_orthonormalize_plain_cases():
    q = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-14)
    # first column is only scaled, so it keeps its direction
    assert np.allclose(q[:, 0], [1.0, 0.0, 0.0], atol=1e-14)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        frame = rng.standard_normal((7, 3))
        q1 = orthonormalize(frame)
        q2 = orthonormalize(q1)
        assert np.max(np.abs(q2 - q1)) <= 1e-14


def test_orthonormalize_keeps_orientation():
    """Square frames keep the sign of their determinant."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        frame = rng.standard_normal((4, 4))
        if abs(np.linalg.det(frame)) < 1e-6:
            continue
        q = orthonormalize(frame)
        assert np.sign(np.linalg.det(q)) == np.sign(np.linalg.det(frame))


def test_orthonormalize_rank_deficient():
    frame = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        orthonormalize(frame)


def test_orthonormalize_stack_matches_single_frames():
    rng = np.random.default_rng(RNG_SEED)
    frames = rng.standard_normal((6, 5, 2))
    q = orthonormalize(frames)
    for frame, qi in zip(frames, q):
        assert np.array_equal(qi, orthonormalize(frame))
    frames[4, :, 1] = 3.0 * frames[4, :, 0]
    with pytest.raises(RankDeficient):
        orthonormalize(frames)


def test_oriented_q_is_orthonormalize_without_gate():
    """Below the gate the two agree bit for bit.  A graph frame [I; B] has
    sigma_min >= 1, so only a tolerance of 1 or more makes orthonormalize
    reject it; oriented_q has no gate."""
    rng = np.random.default_rng(RNG_SEED)
    frames = rng.standard_normal((6, 5, 2))
    assert np.array_equal(oriented_q(frames), orthonormalize(frames))
    graph = np.vstack([np.eye(2), 1e-3 * rng.standard_normal((3, 2))])
    assert np.linalg.svd(graph, compute_uv=False)[-1] >= 1.0
    with pytest.raises(RankDeficient):
        orthonormalize(graph, Tolerance(abs=2.0))
    assert np.array_equal(oriented_q(graph), orthonormalize(graph))


def test_eigenvalues_known_spectra():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    eig = np.sort_complex(eigenvalues(rot))
    assert np.allclose(eig, [-1j, 1j], atol=1e-13)
    eig = np.sort_complex(eigenvalues(np.diag([2.0, 3.0])))
    assert np.allclose(eig, [2.0, 3.0], atol=1e-13)


def test_eigenvalues_real_two_by_two_component():
    """A 2 x 2 component with real eigenvalues, smaller first, with zero
    imaginary parts, from the quadratic formula."""
    m = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    eig = eigenvalues(m)
    root = math.sqrt(8.25)
    assert eig.tolist() == [complex(2.5 - root), complex(2.5 + root), 5.0]
    assert np.allclose(np.sort(eig.real), np.sort(np.linalg.eigvals(m).real), atol=1e-13)


def test_eigenvalues_similarity_invariant():
    """Conjugating by an orthogonal matrix must not move the spectrum."""
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        m = rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = np.sort_complex(eigenvalues(m))
        b = np.sort_complex(eigenvalues(q.T @ m @ q))
        scale = np.linalg.norm(m, 2)
        assert np.max(np.abs(a - b)) <= 1e-8 * scale


def test_jacobian_exact_on_linear_maps():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        m = rng.standard_normal((4, 3))
        jac = jacobian(lambda ys: ys @ m.T, rng.standard_normal(3))
        assert np.max(np.abs(jac - m)) <= 1e-10 * (1.0 + np.max(np.abs(m)))


def test_jacobian_quadratic():
    def f(ys):
        return np.column_stack([ys[:, 0] ** 2, ys[:, 1]])

    jac = jacobian(f, np.array([1.0, 1.0]))
    assert np.allclose(jac, [[2.0, 0.0], [0.0, 1.0]], atol=1e-7)


def test_jacobian_rows_are_outputs():
    # map from R^2 to R^3, so the jacobian must be 3 x 2
    def f(ys):
        return np.column_stack([ys[:, 0], ys[:, 1], ys[:, 0] + ys[:, 1]])

    jac = jacobian(f, np.zeros(2))
    assert jac.shape == (3, 2)


def test_row_norms_match_single_vector_norms():
    rng = np.random.default_rng(RNG_SEED)
    for p in (2, 3, 8):
        ys = rng.standard_normal((2000, p)) * np.exp(rng.uniform(-5.0, 5.0, (2000, 1)))
        assert np.array_equal(row_norms(ys), [np.linalg.norm(y) for y in ys])


def test_jacobian_stack_matches_single_rows():
    rng = np.random.default_rng(RNG_SEED)

    def f(ys):
        # elementwise in each row, so a row's values do not depend on the stack
        y0, y1 = ys[:, 0], ys[:, 1]
        return np.stack([np.sin(y0) * y1, y0 ** 3, np.exp(0.1 * y1) - y0], axis=1)

    ys = rng.standard_normal((9, 2)) * np.array([[1.0], [10.0], [1e-3]] * 3)
    jac = jacobian(f, ys)
    assert jac.shape == (9, 3, 2)
    for i, y in enumerate(ys):
        assert np.array_equal(jac[i], jacobian(f, y))
        # one central difference per column, step 1e-5 (1 + |y|)
        h = 1e-5 * (1.0 + np.linalg.norm(y))
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            col = (f((y + step)[None]).ravel() - f((y - step)[None]).ravel()) / (2.0 * h)
            assert np.array_equal(jac[i][:, j], col)


def test_spherical_distance():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert spherical_distance(e1, e2) == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert spherical_distance(e1, -e1) == pytest.approx(np.pi, abs=1e-12)
    assert spherical_distance(e1, e1) <= 1e-12


def _svd(stack):
    return np.linalg.svd(stack, compute_uv=False)


def _count_executors(monkeypatch) -> list:
    """A list that gains one entry per thread pool singular_values builds."""
    built = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return built


@pytest.mark.parametrize("shape", [(2, 2), (8, 8), (16, 9)])
@pytest.mark.parametrize(
    "count, cpus_seen, threaded",
    [
        (2 * MIN_CHUNK - 1, 2, False),  # just below the split
        (2 * MIN_CHUNK, 2, True),  # at the split: two chunks of MIN_CHUNK
        (2 * MIN_CHUNK + 1, 2, True),  # odd length, uneven chunks
        (3 * MIN_CHUNK + 1, 3, True),  # three chunks, length not a multiple of 3
        (3 * MIN_CHUNK + 1, 1, False),  # one CPU: one call, no pool
    ],
)
def test_singular_values_equal_one_svd_call(cpus, monkeypatch, shape, count, cpus_seen, threaded):
    cpus(cpus_seen)
    pools = _count_executors(monkeypatch)
    stack = np.random.default_rng(RNG_SEED).standard_normal((count, *shape))
    assert np.array_equal(singular_values(stack), _svd(stack))
    assert bool(pools) == threaded


@pytest.mark.parametrize("bad", [17, 3 * MIN_CHUNK + 17], ids=["calling-thread", "pool-thread"])
def test_singular_values_raise_the_serial_error(cpus, bad):
    """A NaN matrix deep in either chunk fails that chunk's svd call with
    the message of the one-call svd, also under the CLI's overflow setting."""
    cpus(2)
    stack = np.random.default_rng(RNG_SEED).standard_normal((4 * MIN_CHUNK, 4, 4))
    stack[bad, 2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as serial:
        _svd(stack)
    with np.errstate(over="raise"), pytest.raises(np.linalg.LinAlgError) as threaded:
        singular_values(stack)
    assert str(threaded.value) == str(serial.value) == "SVD did not converge"


@pytest.mark.parametrize("bad", [None, 3 * MIN_CHUNK + 17], ids=["returns", "raises"])
def test_singular_values_leave_no_thread_behind(cpus, bad):
    """Once a split call returns, or raises on a NaN matrix in the chunk a
    pool thread decomposes, none of its threads is alive."""
    cpus(2)
    stack = np.random.default_rng(RNG_SEED).standard_normal((4 * MIN_CHUNK, 3, 3))
    if bad is None:
        singular_values(stack)
    else:
        stack[bad, 2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            singular_values(stack)
    assert not [t for t in threading.enumerate() if t.name.startswith("skewfib-svd")]


def test_singular_values_under_concurrent_calls(cpus, monkeypatch):
    """Eight threads take the threaded path at once on two pretended CPUs;
    each builds a pool of its own and gets the one-call result."""
    cpus(2)
    built = _count_executors(monkeypatch)
    stacks = [np.random.default_rng(seed).standard_normal((2 * MIN_CHUNK, 3, 3)) for seed in range(8)]
    results = [None] * len(stacks)

    def work(i):
        results[i] = singular_values(stacks[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == len(stacks)
    for stack, result in zip(stacks, results):
        assert np.array_equal(result, _svd(stack))


def _child_singular_values(stack, expected, done):
    done.put(bool(np.array_equal(singular_values(stack), expected)))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_singular_values_after_fork(cpus):
    """A child forked after a threaded call splits its own large stack
    with threads of its own."""
    cpus(2)
    stack = np.random.default_rng(RNG_SEED).standard_normal((2 * MIN_CHUNK, 3, 3))
    expected = singular_values(stack)
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    child = ctx.Process(target=_child_singular_values, args=(stack, expected, done))
    child.start()
    try:
        assert done.get(timeout=60) is True
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_overflow_guard_keeps_message_and_caller_state():
    """The guard re-raises numpy's overflow, or a Python OverflowError, as
    InvalidInput with the same message, and leaves the caller's numpy error
    state as it found it."""

    @overflow_is_invalid
    def square(x):
        """docstring"""
        return x * x

    assert square.__name__ == "square" and square.__doc__ == "docstring"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="^overflow encountered in scalar multiply$"):
            square(np.float64(1e200))
        assert np.geterr()["over"] == "ignore"
    with pytest.raises(InvalidInput, match="^cannot convert float infinity to integer$"):
        overflow_is_invalid(int)(math.inf)


_HOPF3 = builtin_chart("hopf3")
# Skew, but left to sampling by the Gram test, which reads no radius.
_STRETCHED = Chart(1, 2, "linear", C=(np.array([[0.0, -4.0], [0.25, 0.0]]),))
_E1, _E2 = np.eye(3)[0], np.eye(3)[1]


def _line(base):
    return AffinePlane(OrientedPlane(np.eye(3)[:, :1]), np.asarray(base, dtype=float))


_OVERFLOWS = {
    "contact_form": lambda: contact_form(_HOPF3, np.array([1e200, 0.0])),
    "contact_check": lambda: contact_check(_HOPF3, np.array([1e200, 0.0])),
    "contact_checks": lambda: contact_checks(_HOPF3, np.array([[1e200, 0.0]])),
    "verify_skew": lambda: verify_skew(_STRETCHED, radius=1e200, samples=8),
    "fiber_solve": lambda: fiber_solve(_HOPF3, np.array([1e200, 1e200, 0.0])),
    "limiting_direction": lambda: limiting_direction(_HOPF3, _E2, np.array([1e300, 0.0, 0.0])),
    "ConeProbe": lambda: ConeProbe(_E1, (1e200, 1e300)),
    "skew_pair": lambda: skew_pair(_line([0.0, 1e200, 0.0]), _line([0.0, 0.0, 1e200])),
    "verify_nondegenerate": lambda: verify_nondegenerate(
        Chart(1, 2, "linear", C=(np.array([[1e308, -1e308], [1e308, 1e308]]),))
    ),
}


@pytest.mark.parametrize("call", _OVERFLOWS.values(), ids=_OVERFLOWS.keys())
def test_entry_points_reject_overflowing_input(call):
    """Finite input whose arithmetic overflows is an input error at every
    library entry point, never a warning, a verdict on inf or NaN (such as
    margin 0.0 for a chart whose true margin is positive), a result of
    zeros or a raw LinAlgError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="overflow"):
            call()


def test_entry_points_keep_large_finite_results():
    """The guard leaves large but finite arithmetic alone: these results
    are the bits computed without it."""
    assert verify_skew(_STRETCHED, radius=1e150).margin == float.fromhex("0x1.000051ab53845p-2")
    rep = contact_check(_HOPF3, np.array([1e76, 0.0]))
    assert rep.det_margin == float.fromhex("0x1.fffffffffff19p-1") and rep.is_contact
