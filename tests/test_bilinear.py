"""Tests for nonsingular bilinear maps: algebra models, anticommuting families,
and the exact/sampled nonsingularity checks."""

import numpy as np
import pytest

from skewfib.bilinear import (
    BilinearMap,
    algebra_unit_matrices,
    from_algebra,
    gram_enclosure,
    gram_matrix,
    hurwitz_radon_family,
    pencil_report,
    verify_nonsingular,
)
from skewfib.contact import gluck_yang_matrix
from skewfib.errors import InvalidInput
from skewfib.fibration import builtin_chart, from_bilinear
from skewfib.numeric import SampleStream, Tolerance, pow2_scaled

RNG_SEED = 97531

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _hamilton_left_mult(unit_index: int) -> np.ndarray:
    """Left multiplication by a quaternion basis unit, built from the
    multiplication table alone (1, i, j, k with ij = k, jk = i, ki = j)."""
    table = np.zeros((4, 4, 4))  # table[a, b] = e_a * e_b as a vector
    table[0] = np.eye(4)
    for b in range(4):
        table[b, 0, b] = 1.0
    for a in (1, 2, 3):
        table[a, a, 0] = -1.0
    for a, b, c in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        table[a, b, c] = 1.0
        table[b, a, c] = -1.0
    return table[unit_index].T


def test_complex_unit_matrices():
    mats = algebra_unit_matrices("complex")
    assert np.array_equal(mats[0], np.eye(2))
    assert np.array_equal(mats[1], J2)


def test_quaternion_matches_multiplication_table():
    mats = algebra_unit_matrices("quaternion")
    for j in range(4):
        assert np.array_equal(mats[j], _hamilton_left_mult(j)), j


def test_octonion_norm_identity():
    """Unit combinations of the octonion matrices must be orthogonal."""
    a = from_algebra("octonion", 8)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        t = rng.standard_normal(8)
        t /= np.linalg.norm(t)
        sv = np.linalg.svd(np.tensordot(t, np.stack(a.mats), 1), compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-12


def test_algebra_identities():
    """Identity first, then anticommuting orthogonal complex structures."""
    for name, dim in [("complex", 2), ("quaternion", 4), ("octonion", 8)]:
        mats = algebra_unit_matrices(name)
        assert np.array_equal(mats[0], np.eye(dim))
        for i in range(1, dim):
            mi = mats[i]
            assert np.max(np.abs(mi @ mi + np.eye(dim))) <= 1e-13
            assert np.max(np.abs(mi.T + mi)) <= 1e-13
            for j in range(i + 1, dim):
                mj = mats[j]
                assert np.max(np.abs(mi @ mj + mj @ mi)) <= 1e-13


def test_from_algebra_validation():
    with pytest.raises(InvalidInput):
        from_algebra("sedenion", 2)
    with pytest.raises(InvalidInput):
        from_algebra("quaternion", 5)
    a = from_algebra("quaternion", 3)
    assert a.q == 4 and a.kp1 == 3


def test_bilinear_map_validation():
    with pytest.raises(InvalidInput):
        BilinearMap(2, 2, (np.eye(2),))  # wrong count
    with pytest.raises(InvalidInput):
        BilinearMap(2, 1, (np.eye(3),))  # wrong shape
    with pytest.raises(InvalidInput):
        BilinearMap(0, 1, ())
    # a number has no length: once a raw TypeError from len()
    with pytest.raises(InvalidInput, match=r"^expected 1 matrices, got int$"):
        BilinearMap(2, 1, 5)
    with pytest.raises(InvalidInput, match=r"^expected 2 matrices, got 1$"):
        BilinearMap(2, 2, (np.eye(2),))


def test_bilinear_map_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            BilinearMap(2, 2, (np.eye(2), np.array([[0.0, bad], [1.0, 0.0]])))


def test_bilinear_map_owns_a_copy_of_its_matrices():
    """Writing NaN to the caller's matrix after BilinearMap(...) leaves the
    checked map as built, so a verdict never runs on unvalidated data."""
    m = np.eye(2)
    a = BilinearMap(2, 1, (m,))
    m[0, 0] = np.nan
    assert np.array_equal(a.mats[0], np.eye(2))
    rep = verify_nonsingular(a)
    assert rep.ok and rep.details["exact"]


def test_hurwitz_radon_relations():
    """M1 = I and the rest are anticommuting orthogonal complex structures."""
    for q, r in [(8, 8), (12, 4), (16, 9), (32, 10)]:
        fam = hurwitz_radon_family(q, r)
        mats = fam.mats
        assert np.array_equal(mats[0], np.eye(q))
        for i in range(1, r):
            mi = mats[i]
            assert np.max(np.abs(mi @ mi + np.eye(q))) <= 1e-13, (q, r, i)
            assert np.max(np.abs(mi.T + mi)) <= 1e-13
            for j in range(i + 1, r):
                mj = mats[j]
                assert np.max(np.abs(mi @ mj + mj @ mi)) <= 1e-13, (q, r, i, j)


def test_hurwitz_radon_norm_identity():
    fam = hurwitz_radon_family(16, 9)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        t = rng.standard_normal(9)
        t /= np.linalg.norm(t)
        sv = np.linalg.svd(np.tensordot(t, np.stack(fam.mats), 1), compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-10


def test_hurwitz_radon_bound():
    with pytest.raises(InvalidInput):
        hurwitz_radon_family(16, 10)  # rho(16) = 9
    with pytest.raises(InvalidInput):
        hurwitz_radon_family(6, 3)  # rho(6) = 2


def test_verify_nonsingular_single_matrix():
    good = verify_nonsingular(BilinearMap(2, 1, (J2,)))
    assert good.ok and good.verdict == "pass"
    assert good.margin == pytest.approx(1.0, abs=1e-14)
    bad = verify_nonsingular(BilinearMap(2, 1, (np.zeros((2, 2)),)))
    assert not bad.ok and bad.margin == 0.0
    assert bad.witnesses


def test_verify_nonsingular_exact_pair_failure():
    """The pair {I, I} is singular along t1 + t2 = 0, found exactly."""
    rep = verify_nonsingular(BilinearMap(2, 2, (np.eye(2), np.eye(2))))
    assert rep.verdict == "fail"
    assert rep.margin == 0.0
    t = np.asarray(rep.witnesses[0]["t"])
    assert abs(abs(t @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) <= 1e-12
    assert rep.witnesses[0]["eigenvalue"] == pytest.approx(1.0, abs=1e-12)


def test_verify_nonsingular_exact_pair_with_singular_last_slot():
    """M_2 = 0 is singular, so the pencil (I, 0) fails at t = (0, 1) before
    inv(M_2) M_1 is formed."""
    rep = verify_nonsingular(BilinearMap(2, 2, (np.eye(2), np.zeros((2, 2)))))
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert rep.witnesses == ({"t": [0.0, 1.0]},)
    assert rep.details["exact"] is True


def test_verify_nonsingular_exact_pair_pass():
    rep = verify_nonsingular(from_algebra("complex", 2))
    assert rep.verdict == "pass"
    assert rep.details["exact"] is True
    # sampled margin of unit combinations of {I, J} is exactly 1
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


def _pair_with_spectrum(rng, eigs_real, eigs_imag):
    """Build {M1, M2} with inv(M2) M1 having the requested spectrum."""
    blocks = []
    for lam in eigs_real:
        blocks.append(np.array([[lam]]))
    for a, b in eigs_imag:
        blocks.append(np.array([[a, -b], [b, a]]))
    d = np.zeros((4, 4))
    at = 0
    for blk in blocks:
        s = blk.shape[0]
        d[at:at + s, at:at + s] = blk
        at += s
    while True:
        v = rng.standard_normal((4, 4))
        m2 = rng.standard_normal((4, 4))
        if np.linalg.cond(v) < 50.0 and np.linalg.cond(m2) < 50.0:
            break
    g = v @ d @ np.linalg.inv(v)
    return BilinearMap(4, 2, (m2 @ g, m2))


def test_exact_pencil_agrees_with_construction():
    """Verdicts on 100 pairs with planted spectra, half singular."""
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(100):
        singular = trial % 2 == 0
        if singular:
            a = _pair_with_spectrum(rng, [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)],
                                    [(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))])
        else:
            a = _pair_with_spectrum(rng, [],
                                    [(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)),
                                     (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))])
        rep = verify_nonsingular(a)
        assert rep.ok == (not singular), trial
        if singular:
            # the witness combination really is singular
            t = np.asarray(rep.witnesses[0]["t"])
            sv = np.linalg.svd(np.tensordot(t, np.stack(a.mats), 1), compute_uv=False)
            assert sv[-1] <= 1e-7 * sv[0]


def test_sampled_two_slot_fail_stands():
    """A rotated Jordan block C = Q(lam I + N)Q^T with its pencil (C, I):
    LAPACK moves the defective eigenvalue lam off the real axis by about
    eps^(1/4), so the exact two-slot test alone would pass it, but a
    sampled t near (1, -lam)/|.| is singular at the tolerance in force.
    That fail stands, and its witness t is singular when recomputed."""
    rng = np.random.default_rng(11)
    lam = rng.uniform(-3.0, 3.0)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    c = q @ (lam * np.eye(4) + np.eye(4, k=1)) @ q.T
    rep = verify_nonsingular(BilinearMap(4, 2, (c, np.eye(4))))
    assert rep.verdict == "fail"
    t = np.asarray(rep.witnesses[0]["t"])
    sv = np.linalg.svd(t[0] * c + t[1] * np.eye(4), compute_uv=False)
    assert sv[-1] <= 1e-10 * sv[0]


def _noisy_octonion(scale=0.1):
    """The octonion kp1 = 5 map plus Gaussian noise: the Gram test does not
    decide it, so verify_nonsingular samples it."""
    mats = np.stack(from_algebra("octonion", 5).mats)
    noise = np.random.default_rng(RNG_SEED).standard_normal(mats.shape)
    return BilinearMap(8, 5, tuple(mats + scale * noise))


def test_sampled_margin_never_increases_with_more_samples():
    a = _noisy_octonion()
    assert gram_enclosure(np.stack(a.mats))[0] == 0.0
    r1 = verify_nonsingular(a, samples=256, stream=SampleStream(seed=5))
    r2 = verify_nonsingular(a, samples=2560, stream=SampleStream(seed=5))
    assert r2.margin <= r1.margin + 1e-12
    assert r1.verdict == "evidence-only"  # sampling alone cannot certify


def test_sampled_worst_is_first_least_margin():
    """worst_t is the first sample of least sigma_min, also among ties."""
    mats = np.stack(from_algebra("octonion", 2).mats)
    ts = SampleStream(seed=7).unit_vectors(1024, 2)
    combos = np.einsum("sj,jab->sab", ts, mats)
    smin = np.linalg.svd(combos, compute_uv=False)[:, -1]
    assert np.sum(smin == smin.min()) > 1  # unit-norm combinations tie at 1
    rep = pencil_report("nonsingular", mats[None], ts, {},
                        lambda n, s: {"worst_t": ts[s].tolist()}, Tolerance.default())
    assert rep.details["worst_t"] == ts[np.argmin(smin)].tolist()
    assert rep.margin == smin.min()


def test_sampling_metadata_recorded():
    rep = verify_nonsingular(from_algebra("quaternion", 4), samples=64,
                             stream=SampleStream(seed=11, mode="low-discrepancy"))
    assert rep.sampling == {"seed": 11, "mode": "low-discrepancy", "count": 64}


# ---------------------------------------------------------------------------
# Gram certificate


def test_gram_matrix_quadratic_form():
    """|M(t) x|^2 = (t (x) x)^T S (t (x) x) on random pencils and (t, x),
    with S symmetric: a sign error in S's off-diagonal blocks breaks it."""
    rng = np.random.default_rng(RNG_SEED)
    for m, q in ((2, 2), (3, 4), (5, 8)):
        mats = rng.standard_normal((m, q, q))
        s = gram_matrix(mats)
        assert s.shape == (m * q, m * q) and np.array_equal(s, s.T)
        for _ in range(20):
            t, x = rng.standard_normal(m), rng.standard_normal(q)
            v = np.kron(t, x)
            direct = float(np.sum((np.einsum("j,jab->ab", t, mats) @ x) ** 2))
            assert abs(v @ s @ v - direct) <= 1e-12 * (np.abs(v) @ np.abs(s) @ np.abs(v))


@pytest.mark.parametrize(
    "a",
    [hurwitz_radon_family(4, 4), hurwitz_radon_family(8, 5), hurwitz_radon_family(8, 8),
     hurwitz_radon_family(16, 9), from_algebra("quaternion", 3), from_algebra("octonion", 5),
     from_algebra("octonion", 8)],
    ids=["hr-4-4", "hr-8-5", "hr-8-8", "hr-16-9", "quaternion-3", "octonion-5", "octonion-8"],
)
def test_gram_certifies_clifford_maps(a):
    """S = I for Hurwitz-Radon families, so [lo, hi] closes on 1 and
    verify_nonsingular passes without drawing a sample."""
    lo, hi, t = gram_enclosure(np.stack(a.mats))
    assert 1.0 - 1e-12 <= lo <= hi and abs(hi - 1.0) <= 1e-14
    assert abs(np.linalg.norm(t) - 1.0) <= 1e-15
    rep = verify_nonsingular(a, samples=64, stream=SampleStream(seed=3))
    assert rep.verdict == "pass" and rep.margin == hi
    assert rep.details["margin_exact"] is True and rep.details["certified_lower_bound"] == lo
    assert rep.sampling == {"seed": 3, "mode": "pseudo-random", "count": 64}


def test_gram_leaves_singular_and_indefinite_pencils_open():
    """A pencil with a singular combination and a nonsingular one whose S
    is indefinite both get lo = 0; the singular one fails at a unit axis
    although no sampled t finds it."""
    rot = np.array([[0.0, -4.0], [0.25, 0.0]])  # nonsingular with I, lambda_min(S) < 0
    assert gram_enclosure(np.stack([rot, np.eye(2)]))[0] == 0.0
    a = BilinearMap(4, 4, (np.zeros((4, 4)),) * 3 + (np.eye(4),))
    lo, hi, t = gram_enclosure(np.stack(a.mats))
    assert lo == 0.0 and hi == 0.0 and t.tolist() == [1.0, 0.0, 0.0, 0.0]
    rep = verify_nonsingular(a, samples=64)
    assert rep.verdict == "fail" and rep.margin == 0.0
    assert rep.witnesses == ({"t": [1.0, 0.0, 0.0, 0.0], "sigma_min": 0.0},)


def test_gram_enclosure_scales_large_pencils():
    """Entries near the overflow threshold are scaled by a power of two
    before S is formed: the bounds scale with them."""
    mats = np.stack(hurwitz_radon_family(8, 5).mats)
    lo, hi, _ = gram_enclosure(mats)
    big = gram_enclosure(mats * 2.0**1000)
    assert big[0] == lo * 2.0**1000 and big[1] == hi * 2.0**1000


def test_gram_split_keeps_indefinite_s_open():
    """(diag(1, 0), diag(0, 1), J2) has G = diag(1/2, 1/2, 1), positive
    definite, but S is indefinite and M(e_1) is singular: rho keeps lo at 0
    and the unit axis is the witness."""
    mats = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), J2])
    s = gram_matrix(mats)
    g = np.trace(s.reshape(3, 2, 3, 2), axis1=1, axis2=3) / 2
    assert np.array_equal(g, np.diag([0.5, 0.5, 1.0]))
    assert np.linalg.eigvalsh(s)[0] < -0.2
    lo, hi, t = gram_enclosure(mats)
    assert lo == 0.0 and hi == 0.0 and t.tolist() == [1.0, 0.0, 0.0]
    rep = verify_nonsingular(BilinearMap(2, 3, tuple(mats)), samples=64)
    assert rep.verdict == "fail"
    assert rep.witnesses == ({"t": [1.0, 0.0, 0.0], "sigma_min": 0.0},)


def test_gram_split_counts_rho_near_kronecker_pencils():
    """(diag(1, 1 - eps), J2) with eps = 1e-9 has S = G (x) I + E with
    |E|_F about 1.7 eps: small enough for the m x m path to close, and the
    attained sigma_min(M(e_1)) = 1 - eps lies below lambda_min(G)^(1/2),
    so lo stays under it only because rho is in the slack."""
    eps = 1e-9
    mats = np.stack([np.diag([1.0, 1.0 - eps]), J2])
    lo, hi, t = gram_enclosure(mats)
    assert hi == 1.0 - eps and t.tolist() == [1.0, 0.0]
    assert 0.0 < lo <= hi and hi - lo <= 2.0**-30 * hi


def _eigh_sizes(monkeypatch, mats) -> list[int]:
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    gram_enclosure(mats)
    monkeypatch.undo()
    return sizes


def test_gram_split_decides_the_eigh_size(monkeypatch):
    """HR(16, 9), S = G (x) I_16, is certified by one 9 x 9 eigh; the
    Glueck-Yang m = 3 skew pencil (C, I), far from that form, tries the
    2 x 2 eigh of G and, since its bounds do not close, the 12 x 12 eigh
    of S."""
    assert _eigh_sizes(monkeypatch, np.stack(hurwitz_radon_family(16, 9).mats)) == [9]
    c = gluck_yang_matrix(3)
    assert _eigh_sizes(monkeypatch, np.stack([c, np.eye(6)])) == [2, 12]


def _broadcast_gram(mats: np.ndarray) -> np.ndarray:
    """S from the broadcast formula (g + g transposed blockwise) / 2."""
    m, q = mats.shape[:2]
    a = mats.transpose(1, 0, 2).reshape(q, m * q)
    g = (a.T @ a).reshape(m, q, m, q)
    return ((g + g.transpose(0, 3, 2, 1)) / 2).reshape(m * q, m * q)


def _gram_test_pencils() -> list[np.ndarray]:
    """40 random (m, q, q) stacks, m <= 10 and q <= 16, at scales 2^-20 to
    2^20, and the pencils (C_1, ..., C_k, I) of the Clifford charts."""
    rng = np.random.default_rng(RNG_SEED)
    out = []
    for _ in range(40):
        m, q = int(rng.integers(1, 11)), int(rng.integers(1, 17))
        out.append(rng.standard_normal((m, q, q)) * 2.0 ** int(rng.integers(-20, 21)))
    charts = [builtin_chart("hopf7"), builtin_chart("hopf15")]
    charts += [from_bilinear(hurwitz_radon_family(q, r)) for q, r in ((8, 5), (16, 9))]
    charts += [from_bilinear(from_algebra(alg, kp1)) for alg, kp1 in (("quaternion", 3), ("octonion", 5))]
    return out + [np.concatenate([c.C, np.eye(c.q)[None]]) for c in charts]


def test_gram_pieces_equal_the_broadcast_formulas(monkeypatch):
    """gram_matrix forms S in one output and gram_enclosure forms
    E = S - G (x) I_q from a copy of S, subtracting G on the block
    diagonals only: S and rho = |E|_F equal the broadcast formulas bit for
    bit, so every bound and verdict stays as it was."""
    vdot = np.vdot
    seen = []

    def spy(a, b):
        seen.append(vdot(a, b))
        return seen[-1]

    monkeypatch.setattr(np, "vdot", spy)
    for mats in _gram_test_pencils():
        m, q = mats.shape[:2]
        assert gram_matrix(mats).tobytes() == _broadcast_gram(mats).tobytes()
        blocks = _broadcast_gram(pow2_scaled(mats)[0]).reshape(m, q, m, q)
        g = blocks.trace(axis1=1, axis2=3) / q
        rest = blocks - g[:, None, :, None] * np.eye(q)[:, None]
        seen.clear()
        gram_enclosure(mats)
        assert seen == [vdot(rest, rest)], (m, q)
