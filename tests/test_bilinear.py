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
    verify_nonsingular,
)
from skewfib.errors import InvalidInput
from skewfib.numeric import SampleStream

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
        sv = np.linalg.svd(a.matrix_at(t), compute_uv=False)
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


def test_bilinear_map_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput):
            BilinearMap(2, 2, (np.eye(2), np.array([[0.0, bad], [1.0, 0.0]])))


def test_matrix_at_and_apply():
    a = from_algebra("complex", 2)
    m = a.matrix_at(np.array([2.0, 3.0]))
    assert np.array_equal(m, 2.0 * np.eye(2) + 3.0 * J2)


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
        sv = np.linalg.svd(fam.matrix_at(t), compute_uv=False)
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
            sv = np.linalg.svd(a.matrix_at(t), compute_uv=False)
            assert sv[-1] <= 1e-7 * sv[0]


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
    """worst_t is the first sample of least sigma_min, also among ties.
    kp1 = 2 pencils are still sampled before their exact test."""
    a = from_algebra("octonion", 2)
    ts = SampleStream(seed=7).unit_vectors(1024, a.kp1)
    combos = np.einsum("sj,jab->sab", ts, np.stack(a.mats))
    smin = np.linalg.svd(combos, compute_uv=False)[:, -1]
    assert np.sum(smin == smin.min()) > 1  # unit-norm combinations tie at 1
    rep = verify_nonsingular(a, samples=1024, stream=SampleStream(seed=7))
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
