"""Nonsingular bilinear maps R^q x R^(k+1) -> R^q.

A bilinear map is stored as kp1 = k+1 square matrices M_j acting on the
first slot: A(y, t) = sum_j t_j M_j y.  Nonsingularity means every
nonzero t gives an invertible combination sum_j t_j M_j.  Generators:
left multiplication in the complex numbers, quaternions, and octonions,
and anticommuting orthogonal families of every admissible size built by
the tensor-product recursion behind the Hurwitz-Radon bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import report as rp
from .dims import rho
from .errors import InvalidInput
from .numeric import SampleStream, Tolerance, is_singular, overflow_is_invalid, real_eigenvalue_mask

# 2 x 2 generators: one complex structure and two anticommuting reflections.
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_P2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_Q2 = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class BilinearMap:
    q: int
    kp1: int
    mats: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.mats)
        object.__setattr__(self, "mats", mats)
        if self.q < 1 or self.kp1 < 1:
            raise InvalidInput(f"need q >= 1 and kp1 >= 1, got q={self.q} kp1={self.kp1}")
        if len(mats) != self.kp1:
            raise InvalidInput(f"expected {self.kp1} matrices, got {len(mats)}")
        for m in mats:
            if m.shape != (self.q, self.q):
                raise InvalidInput(f"matrix shape {m.shape} != ({self.q}, {self.q})")
            if not np.isfinite(m).all():
                raise InvalidInput("bilinear map matrices must be finite")

    def matrix_at(self, t: np.ndarray) -> np.ndarray:
        """The combination sum_j t_j M_j."""
        t = np.asarray(t, dtype=float)
        if t.shape != (self.kp1,):
            raise InvalidInput(f"t shape {t.shape} != ({self.kp1},)")
        return np.einsum("j,jab->ab", t, np.stack(self.mats))


def _conj(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[..., :1], -x[..., 1:]], axis=-1)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product along the last axis in the algebra of dimension 1, 2, 4 or 8
    (the reals, complex numbers, quaternions, octonions), each built from
    pairs of the one below by Cayley-Dickson doubling:
    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)).  Other axes broadcast."""
    h = x.shape[-1] // 2
    if not h:
        return x * y
    a, b, c, d = x[..., :h], x[..., h:], y[..., :h], y[..., h:]
    first = _product(a, c) - _product(_conj(d), b)
    return np.concatenate([first, _product(d, a) + _product(b, _conj(c))], axis=-1)


_ALGEBRAS = {"complex": 2, "quaternion": 4, "octonion": 8}


def _unit_matrices(dim: int) -> list[np.ndarray]:
    """Left-multiplication matrices of the basis units of the algebra of
    dimension dim, identity first: column j of unit u's is u e_j."""
    eye = np.eye(dim)
    return list(np.ascontiguousarray(_product(eye[:, None], eye).transpose(0, 2, 1)))


def algebra_unit_matrices(name: str) -> list[np.ndarray]:
    """Left-multiplication matrices of all basis units, identity first."""
    if name not in _ALGEBRAS:
        raise InvalidInput(f"unknown algebra {name!r}; expected one of {sorted(_ALGEBRAS)}")
    return _unit_matrices(_ALGEBRAS[name])


def from_algebra(name: str, kp1: int) -> BilinearMap:
    """Bilinear map from left multiplication by the first kp1 basis units.

    The unit order is 1 first, then the imaginary units.  Norm
    multiplicativity makes every unit combination orthogonal, so the map
    is nonsingular with margin exactly |t|.
    """
    if name not in _ALGEBRAS:
        raise InvalidInput(f"unknown algebra {name!r}; expected one of {sorted(_ALGEBRAS)}")
    dim = _ALGEBRAS[name]
    if not (1 <= kp1 <= dim):
        raise InvalidInput(f"need 1 <= kp1 <= {dim} for {name}, got {kp1}")
    return BilinearMap(dim, kp1, tuple(algebra_unit_matrices(name)[:kp1]))


def _anticommuting_family(p: int) -> list[np.ndarray]:
    """Pairwise anticommuting orthogonal complex structures on R^p,
    p a power of two, of the maximal size rho(p) - 1."""
    if p <= 8:
        # the imaginary units of the algebra of dimension p; complex i is J2
        return _unit_matrices(p)[1:]
    # Bott step: a family of size s on R^t yields size s + 8 on R^(16t).
    sub = _anticommuting_family(p // 16)
    t = p // 16
    oct_imag = _anticommuting_family(8)
    v16 = [np.kron(o, _Q2) for o in oct_imag] + [np.kron(np.eye(8), J2)]
    w16 = np.kron(np.eye(8), _P2)
    fam = [np.kron(a, w16) for a in sub]
    fam += [np.kron(np.eye(t), v) for v in v16]
    return fam


def hurwitz_radon_family(q: int, r: int) -> BilinearMap:
    """A size-r family: the identity plus r-1 pairwise anticommuting
    orthogonal complex structures on R^q.  Requires r <= rho(q)."""
    if q < 1 or r < 1:
        raise InvalidInput(f"need q >= 1 and r >= 1, got q={q} r={r}")
    bound = rho(q)
    if r > bound:
        raise InvalidInput(f"family of size {r} on R^{q} exceeds the bound rho({q}) = {bound}")
    pow2 = q & -q
    odd = q // pow2
    base = _anticommuting_family(pow2)[: r - 1]
    mats = [np.eye(q)] + [np.kron(np.eye(odd), f) for f in base]
    return BilinearMap(q, r, tuple(mats))


# An enclosure [lo, hi] of a pencil's margin closes it when hi - lo is at
# most this share of hi: 2^-30 is about 9.3e-10, finer than the relative
# 1e-9 to which the acceptance criteria and the benchmark's oracle compare
# margins with their closed forms.
MARGIN_SLACK = 2.0**-30
# Largest mq for which gram_first forms S: eigh takes O((mq)^3) time and S
# O((mq)^2) memory, 0.3 s and 8 MB at mq = 1,024 on one core, but S alone
# would take 3.3 GB for the skew pencil of HR(1024, 20) (mq = 20,480).
GRAM_MAX = 1024


def gram_matrix(mats: np.ndarray) -> np.ndarray:
    """The (mq) x (mq) matrix S of the pencil M(t) = sum_j t_j M_j of an
    (m, q, q) stack, with blocks Sym(M_i^T M_j) = (M_i^T M_j + M_j^T M_i)/2:
    |M(t) x|^2 = (t (x) x)^T S (t (x) x) for every t and x.  Each block is
    transposed on its own: averaging the whole A^T A, A = [M_1 ... M_m],
    with its transpose gives A^T A back, which has the same quadratic form
    on t (x) x but is singular for m >= 2."""
    m, q = mats.shape[:2]
    a = np.concatenate(mats, axis=1)
    g = (a.T @ a).reshape(m, q, m, q)
    return ((g + g.transpose(0, 3, 2, 1)) / 2).reshape(m * q, m * q)


def gram_enclosure(
    mats: np.ndarray, tol: Tolerance | None = None
) -> tuple[float, float, np.ndarray]:
    """Bounds lo <= sigma_min(M(t)) <= hi over unit t for the pencil
    M(t) = sum_j t_j M_j of the (m, q, q) stack mats, and the unit t of hi.

    |M(t) x|^2 lies between lambda_min(S) and lambda_max(S) times
    |t|^2 |x|^2 for S = gram_matrix(mats).  Rounding model: each entry of S
    is a length-q dot product and one halved sum, within gamma_(q+1) of
    |M|^T |M| (Higham, ch. 3), so S moves by at most gamma_(q+1) |M|_F^2
    in the 2-norm; eigvalsh is backward stable, and by Weyl its
    eigenvalues move by at most mq eps |S|_2 more.  delta is the sum of
    the two, and lo = sqrt(max(lambda_min - delta, 0)), or 0 when that
    does not clear tol's singularity threshold at sqrt(lambda_max + delta),
    the bound on every sigma_max(M(t)).  Both are computed on mats scaled
    by a power of two, which is exact, so that S cannot overflow; a
    product that underflows then errs by under q 2^-1074, far below
    delta.  hi is the least sigma_min(M(t)) over the unit axes and t*, the
    best rank-one factor of the bottom eigenvector of S.  For
    Hurwitz-Radon families S = I, and lo and hi are 1 to rounding.
    """
    tol = tol or Tolerance.default()
    m, q = mats.shape[:2]
    e = int(np.frexp(np.abs(mats).max())[1])
    scaled = np.ldexp(mats, -e)
    ev, vec = np.linalg.eigh(gram_matrix(scaled))
    u = (q + 1) * 2.0**-53
    delta = u / (1 - u) * float((scaled * scaled).sum())
    delta += m * q * 2.0**-52 * float(np.abs(ev).max())
    lo = np.ldexp(np.sqrt(max(ev[0] - delta, 0.0)), e)
    if not lo > tol.threshold(np.ldexp(np.sqrt(ev[-1] + delta), e)):
        lo = 0.0
    ts = np.vstack([np.eye(m), np.linalg.svd(vec[:, 0].reshape(m, q))[0][:, 0]])
    smin = np.linalg.svd(np.einsum("sj,jab->sab", ts, scaled), compute_uv=False)[:, -1]
    i = int(np.argmin(smin))
    return float(lo), float(np.ldexp(smin[i], e)), ts[i]


def gram_first(
    check: str,
    mats: np.ndarray,
    sampling: dict,
    details: Callable[[np.ndarray], dict],
    tol: Tolerance,
    sample: Callable[[], rp.VerificationReport],
    t_witness: bool = False,
) -> rp.VerificationReport:
    """The verdict on the constant pencil mats from gram_enclosure, else
    from sample(), the sampled search.

    lo > 0 proves the pencil nonsingular: the report records exact and
    certified_lower_bound = lo.  When [lo, hi] is also within MARGIN_SLACK,
    the margin is hi, an attained sigma_min, margin_exact is true, and no
    sample is drawn; details(t) gets the t of hi.  Otherwise sample()
    decides the margin and any witness, and with t_witness a clean sampled
    run still fails when M(t) at the t of hi is singular, since sampling
    misses a singular set of measure zero.  A pencil with mq > GRAM_MAX
    is only sampled.
    """
    if mats.shape[0] * mats.shape[1] > GRAM_MAX:
        return sample()
    lo, hi, t = gram_enclosure(mats, tol)
    cert = {"exact": True, "certified_lower_bound": lo}
    if lo > 0.0 and hi - lo <= MARGIN_SLACK * hi:
        cert["margin_exact"] = True
        return rp.VerificationReport(check, hi, (), sampling, {**details(t), **cert})
    rep = sample()
    if lo > 0.0:
        return replace(rep, details={**rep.details, **cert, "margin_exact": False})
    if t_witness and rep.ok and is_singular(
        np.linalg.svd(np.tensordot(t, mats, 1), compute_uv=False), tol
    ):
        witness = {"t": t.tolist(), "sigma_min": hi}
        return replace(rep, margin=hi, witnesses=(witness,), details={**rep.details, **details(t)})
    return rep


def _pencil_exact(
    a: BilinearMap, rep: rp.VerificationReport, tol: Tolerance
) -> rp.VerificationReport:
    """Exact nonsingularity for kp1 = 2, decided on top of the sampled
    report rep: the second matrix must be invertible and inv(M2) M1 must
    have no real eigenvalues."""
    m1, m2 = a.mats
    details = {**rep.details, "exact": True}
    if is_singular(np.linalg.svd(m2, compute_uv=False), tol):
        details["reason"] = "second matrix is singular"
        witness = {"t": [0.0, 1.0]}
        return replace(rep, margin=0.0, witnesses=(witness,), details=details)
    eig = np.linalg.eigvals(np.linalg.solve(m2, m1))
    details["pencil_eigenvalues"] = [complex(v) for v in eig]
    details["imag_margin"] = float(np.min(np.abs(eig.imag)))
    real_mask = real_eigenvalue_mask(eig, tol)
    if np.any(real_mask):
        lam = float(eig.real[real_mask][0])
        t = np.array([1.0, -lam])
        details["real_eigenvalue"] = lam
        witness = {"t": (t / np.linalg.norm(t)).tolist(), "eigenvalue": lam}
        return replace(rep, margin=0.0, witnesses=(witness,), details=details)
    details["sampled_margin"] = rep.margin
    return replace(rep, witnesses=(), details=details)


def pencil_report(
    check: str,
    slots: np.ndarray,
    ts: np.ndarray,
    sampling: dict,
    details: Callable[[int, int], dict],
    tol: Tolerance,
    ys: np.ndarray | None = None,
) -> rp.VerificationReport:
    """Sampled verdict on the pencils sum_j t_j M_j(y) at every chart point and t.

    slots is an (N, m, q, q) stack of the m pencil matrices at N points ys
    (N = 1 and no ys for a constant pencil), ts an (S, m) stack of unit t.
    A fail witness carries y (given ys), t and sigma_min; details(n, s) gets
    the point and t indices of the first sample of least sigma_min.

    Pencils at sampled chart points (ys given) go through
    report.screened_report: for two-column matrices, as the completion
    check of a smooth line chart on R^3 has, closed-form bounds on every
    sigma_min, widened by numeric.SCREEN_SLACK * sigma_max, leave only
    the samples that can hold the least sigma_min to LAPACK, and the
    report is the full stack's bit for bit.  A constant pencil (no ys)
    always sends its whole stack.
    """
    nt = len(ts)
    stack = np.einsum("sj,njab->nsab", ts, slots).reshape(-1, *slots.shape[2:])

    def witness(i: int, smin: float) -> dict:
        n, s = divmod(i, nt)
        at = {} if ys is None else {"y": ys[n].tolist()}
        return {**at, "t": ts[s].tolist(), "sigma_min": smin}

    report = rp.sampled_report if ys is None else rp.screened_report
    return report(check, stack, sampling, witness, lambda i: details(*divmod(i, nt)), tol)


@overflow_is_invalid
def verify_nonsingular(
    a: BilinearMap,
    samples: int = 256,
    stream: SampleStream | None = None,
    tol: Tolerance | None = None,
) -> rp.VerificationReport:
    """Search for a singular combination sum_j t_j M_j.

    For kp1 <= 2 an exact test decides the verdict, and margin is the
    smallest sigma_min over sampled unit t for kp1 = 2.  For kp1 >= 3
    gram_first tries the Gram certificate before any sample is drawn; a
    pencil it does not decide is sampled, and a clean sampled run is
    evidence-only, since sampling cannot certify nonsingularity.
    """
    tol = tol or Tolerance.default()
    stream = stream or SampleStream()
    sampling = stream.sampling(samples)

    if a.kp1 == 1:
        # t = +-1 only, so sigma_min(M_1) is the margin itself
        sv = np.linalg.svd(a.mats[0], compute_uv=False)
        witnesses = ({"t": [1.0]},) if is_singular(sv, tol) else ()
        details = {"exact": True, "margin_exact": True}
        return rp.VerificationReport("nonsingular", float(sv[-1]), witnesses, sampling, details)

    mats = np.stack(a.mats)

    def sample():
        ts = stream.unit_vectors(samples, a.kp1)
        return pencil_report(
            "nonsingular", mats[None], ts, sampling, lambda n, s: {"worst_t": ts[s].tolist()}, tol
        )

    if a.kp1 == 2:
        return _pencil_exact(a, sample(), tol)
    return gram_first(
        "nonsingular", mats, sampling, lambda t: {"worst_t": t.tolist()}, tol, sample,
        t_witness=True,
    )
