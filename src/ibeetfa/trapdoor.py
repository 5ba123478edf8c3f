"""Trapdoor lattices: generation and Gaussian preimage/basis sampling.

Trapdoor generation follows the gadget template: A = [Abar | G - Abar*Rbar]
with Rbar a random sign matrix and G the base-2 gadget.  The short basis
of the q-ary nullspace lattice of A is assembled from the gadget-block
columns [Rbar*S_G; S_G] (S_G the standard gadget basis, determinant q^n)
followed by the completion columns [I - Rbar*D; -D] with D the bit
decomposition of Abar.  Ordering the gadget block first keeps the
Gram-Schmidt norms of the completion block at 1 or below, so the whole
basis has Gram-Schmidt norm within a small constant of sqrt(n log q).

Preimage sampling is the randomized-nearest-plane walk of samplers.py.
For trapdoors carrying the gadget structure, coset representatives come
from the bit decomposition of the target (entries bounded by n*log q),
which keeps every intermediate tiny; otherwise a sparse mod-q solve is
used and the walk handles the large offset through its QR projections.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError, SamplingError, SingularMatrix
from .samplers import (
    PreparedBasis,
    RandomSource,
    klein_coefficients,
    prepare_basis,
    sample_z_gaussian_batch,
    slack_factor,
)
from .zqlinalg import (
    as_residues,
    center_rep,
    check_modulus,
    check_nullspace_basis,
    concat_cols,
    exact_int_matmul,
    gram_schmidt_norm,
    mat_mul,
    solve_mod,
)

#: Multiplier inside the trapdoor Gram-Schmidt bound; calibrated by
#: measurement over many generation runs (see tests), with headroom.
TRAPGEN_GS_CONSTANT = 7.0

#: Declared constant in the operator-norm bound s_R < C * sqrt(m) for
#: square sign matrices (and C * ell * sqrt(m) for their [-ell, ell] sums).
SIGN_OPNORM_CONSTANT = 2.2

#: How many extra preimages sample_basis_left/right draw beyond the
#: dimension, to survive the (vanishingly rare) dependent column.
_BASIS_OVERHEAD = 8


def trapgen_width(n: int, q: int) -> int:
    """Least lattice width m accepted by trap_gen: 6 * n * ceil(log2 q)."""
    return 6 * int(n) * gadget_length(q)


def gadget_length(q: int) -> int:
    """Bits per residue in the base-2 gadget: ceil(log2 q)."""
    return max(2, math.ceil(math.log2(int(q))))


def bound_gs(n: int, q: int) -> float:
    """Declared bound on the Gram-Schmidt norm of generated trapdoors."""
    return TRAPGEN_GS_CONSTANT * math.sqrt(int(n) * gadget_length(q))


@dataclass(frozen=True)
class GadgetAux:
    """Construction data enabling short coset representatives."""

    k: int
    m_bar: int
    r_bar: np.ndarray  # m_bar x n*k, small entries


@dataclass(frozen=True)
class TrapdoorPair:
    """Public matrix with a trapdoor for its q-ary nullspace lattice."""

    a: np.ndarray               # n x m residues
    trapdoor: TrapdoorBasis     # m x m basis, carrying the gadget shortcut

    @property
    def gs_norm(self) -> float:
        """Gram-Schmidt norm of the basis, computed on demand (nothing in sampling reads it)."""
        return gram_schmidt_norm(self.trapdoor.basis)


def _gadget_block(q: int, k: int) -> np.ndarray:
    """The k x k basis of the 1-D gadget lattice, determinant +-q."""
    s = np.zeros((k, k), dtype=np.int64)
    for j in range(k - 1):
        s[j, j] = 2
        s[j + 1, j] = -1
    s[:, k - 1] = [(q >> j) & 1 for j in range(k)]
    return s


def _bit_decompose(u: np.ndarray, k: int) -> np.ndarray:
    """Stack the k base-2 digits of every row of u (n x t -> n*k x t)."""
    u = np.asarray(u, dtype=np.int64)
    one = u.ndim == 1
    if one:
        u = u.reshape(-1, 1)
    n, t = u.shape
    out = np.zeros((n * k, t), dtype=np.int64)
    for j in range(k):
        out[j::k] = (u >> j) & 1
    # interleaving above put digit j of row i at position i*k + j
    return out[:, 0] if one else out


def _gadget_matrix(n: int, k: int) -> np.ndarray:
    g = np.zeros((n, n * k), dtype=np.int64)
    for i in range(n):
        g[i, i * k : (i + 1) * k] = 1 << np.arange(k, dtype=np.int64)
    return g


def trap_gen(q: int, n: int, m: int, rng: RandomSource) -> TrapdoorPair:
    """Generate a near-uniform matrix with a short nullspace basis.

    Requires m >= 6 * n * ceil(log2 q); the returned basis S satisfies
    A @ S == 0 (mod q), det S = +-q**n, and gs_norm <= bound_gs(n, q).
    """
    q = check_modulus(q)
    n = int(n)
    m = int(m)
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    k = gadget_length(q)
    if m < trapgen_width(n, q):
        raise ParameterError(
            f"m = {m} violates the width constraint m >= 6*n*ceil(log2 q) = {trapgen_width(n, q)}"
        )
    nk = n * k
    m_bar = m - nk
    a_bar = rng.integers(0, q, (n, m_bar))
    r_bar = rng.integers(0, 2, (m_bar, nk)) * 2 - 1
    g = _gadget_matrix(n, k)
    a_right = (g - mat_mul(a_bar, r_bar, q)) % q
    a = concat_cols([a_bar, a_right])

    s_k = _gadget_block(q, k)
    s_g = np.kron(np.eye(n, dtype=np.int64), s_k)
    d_bits = _bit_decompose(a_bar, k)
    # gadget block first, completion block second (keeps its GS norms <= 1)
    top_left = exact_int_matmul(r_bar, s_g)
    top_right = np.eye(m_bar, dtype=np.int64) - exact_int_matmul(r_bar, d_bits)
    s = np.block([[top_left, top_right], [s_g, -d_bits]])
    return TrapdoorPair(a, TrapdoorBasis(s, aux=GadgetAux(k, m_bar, r_bar)))


# ---------------------------------------------------------------------------
# Trapdoors that own their sampling data, and gadget-structure recovery
# ---------------------------------------------------------------------------

_UNDERIVED = object()


class TrapdoorBasis:
    """A short basis together with the sampling data built from it.

    The QR factorization, the gadget shortcut (derived from the public
    matrix on first use unless handed over) and a held preimage of one
    target are each built once and then kept by this object.  A lock
    guards every first use, so one instance may serve concurrent calls.
    """

    def __init__(self, basis, *, prep: PreparedBasis | None = None, aux=_UNDERIVED):
        self.basis = np.asarray(basis, dtype=np.int64)
        self._prep = prep
        self._aux = aux
        self.held_preimage: np.ndarray | None = None  # kept by preimage()
        self._lock = threading.RLock()

    def prepared(self) -> PreparedBasis:
        with self._lock:
            if self._prep is None:
                self._prep = prepare_basis(self.basis)
            return self._prep

    def gadget_aux(self, a: np.ndarray, q: int) -> GadgetAux | None:
        with self._lock:
            if self._aux is _UNDERIVED:
                self._aux = derive_gadget_aux(a, self.basis, q)
            return self._aux

    def preimage(self, a, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
        """A preimage of u under a: sampled by sample_pre on first use, then held.

        Every call checks the held preimage against (a, u) and samples a
        new one when it fails, so it is only used with the matrices it
        satisfies.
        """
        q = check_modulus(q)
        a = as_residues(a, q)
        u = as_residues(u, q)
        with self._lock:
            e = self.held_preimage
            if e is None or e.shape[0] != a.shape[1] or not np.array_equal(mat_mul(a, e, q), u):
                e = self.held_preimage = sample_pre(a, self, u, q, sigma, rng, enforce_sigma=enforce_sigma)
            return e


def _require_trapdoor(t) -> TrapdoorBasis:
    if not isinstance(t, TrapdoorBasis):
        raise TypeError(f"trapdoor must be a TrapdoorBasis, got {type(t).__name__}")
    return t


def derive_gadget_aux(a: np.ndarray, s: np.ndarray, q: int) -> GadgetAux | None:
    """Recover the gadget shortcut from (A, S) when S has our block layout."""
    n, m = a.shape
    k = gadget_length(q)
    nk = n * k
    m_bar = m - nk
    if m_bar < 1 or s.shape != (m, m):
        return None
    s_k = _gadget_block(q, k)
    if not np.array_equal(s[m_bar:, :nk], np.kron(np.eye(n, dtype=np.int64), s_k)):
        return None
    # Solve top = r_bar @ (I_n kron S_k) per gadget block.  Column j < k-1
    # of S_k is 2e_j - e_(j+1), so r_bar[.., j] = 2^j x - c_j with
    # c_(j+1) = 2 c_j + top[.., j]; the last column (the bits of q) then
    # gives q x = top[.., k-1] + sum_j bit_j(q) c_j.
    top = s[:m_bar, :nk].reshape(m_bar, n, k)
    c = np.zeros_like(top)
    for j in range(k - 1):
        c[..., j + 1] = 2 * c[..., j] + top[..., j]
    num = top[..., k - 1] + c @ s_k[:, k - 1]
    if np.any(num % q):
        return None
    r_bar = ((num // q)[..., None] * (1 << np.arange(k, dtype=np.int64)) - c).reshape(m_bar, nk)
    if np.abs(r_bar).max(initial=0) > (1 << 20):
        return None
    # definitive check: A @ [r_bar; I] must equal the gadget matrix mod q
    w = np.vstack([r_bar, np.eye(nk, dtype=np.int64)])
    if not np.array_equal(mat_mul(a, w, q), _gadget_matrix(n, k) % q):
        return None
    return GadgetAux(k, m_bar, r_bar)


# ---------------------------------------------------------------------------
# Preimage sampling
# ---------------------------------------------------------------------------


def _check_sigma(sigma: float, prep: PreparedBasis, total_dim: int, enforce: bool):
    if not sigma > 0:
        raise SamplingError(f"sigma must be positive, got {sigma}")
    if enforce and sigma < prep.gs_norm * slack_factor(total_dim):
        raise SamplingError(
            f"sigma = {sigma:.6g} is below the sampling threshold "
            f"{prep.gs_norm * slack_factor(total_dim):.6g} "
            f"(basis GS norm {prep.gs_norm:.6g} times slack {slack_factor(total_dim)})"
        )


def _coset_representatives(a: np.ndarray, aux: GadgetAux | None, targets: np.ndarray, q: int) -> np.ndarray:
    """Integer c with A @ c == targets (mod q), kept short when possible."""
    if aux is not None:
        d_bits = _bit_decompose(targets % q, aux.k)
        top = exact_int_matmul(aux.r_bar, d_bits)
        return np.vstack([top, d_bits]) if targets.ndim == 2 else np.concatenate([top, d_bits])
    return center_rep(solve_mod(a, targets, q), q)


def _preimage_batch(
    a: np.ndarray,
    td: TrapdoorBasis,
    targets: np.ndarray,
    q: int,
    sigma: float,
    rng: RandomSource,
) -> np.ndarray:
    from .samplers import TAIL_CUT

    prep = td.prepared()
    c = _coset_representatives(a, td.gadget_aux(a, q), targets, q)
    z = klein_coefficients(prep, sigma, c.astype(np.float64), rng)
    e = c - exact_int_matmul(prep.basis, z)
    # The walk leaves at most 1/2 + TAIL_CUT*sigma/gs_j per orthogonalized
    # direction, so anything far beyond this bound means numerical corruption.
    cap = 2.0 * math.sqrt(prep.dim) * (0.5 * prep.gs_norm + TAIL_CUT * sigma)
    if int(np.abs(e).max(initial=0)) > cap:
        raise SamplingError("preimage walk produced an implausibly long vector")
    return e


def _spot_check_columns(f: np.ndarray, e: np.ndarray, u: np.ndarray, q: int, limit: int = 48) -> bool:
    """Congruence check on an evenly spaced column subset (all, if few)."""
    cols = u.shape[1]
    if cols <= limit:
        return bool(np.array_equal(mat_mul(f, e, q), u))
    idx = np.linspace(0, cols - 1, limit).astype(np.int64)
    sub = mat_mul(f, np.ascontiguousarray(e[:, idx]), q)
    return bool(np.array_equal(sub, u[:, idx]))


def sample_pre(a, t: TrapdoorBasis, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
    """Gaussian preimage e with A @ e == u (mod q), sampled with trapdoor t.

    Every sampler takes its trapdoor as a TrapdoorBasis and raises
    TypeError on any other argument.

    ``u`` may be a vector or an n x t matrix (one preimage per column).
    With ``enforce_sigma=False`` the quality precondition on sigma is
    skipped: the walk still terminates and the congruence still holds,
    but the output is only nearest-plane-short rather than Gaussian.
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    u = as_residues(u, q)
    td = _require_trapdoor(t)
    prep = td.prepared()
    if a.ndim != 2 or a.shape[1] != prep.dim:
        raise DimensionMismatch(f"matrix {a.shape} does not match basis dimension {prep.dim}")
    _check_sigma(sigma, prep, prep.dim, enforce_sigma)
    e = _preimage_batch(a, td, u, q, sigma, rng)
    if np.any(mat_mul(a, e, q) != u):
        raise SamplingError("preimage congruence self-check failed")
    return e


def sample_left(a, m_block, t_a: TrapdoorBasis, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
    """Preimage E of U for the concatenation (A | M), using a trapdoor for A.

    The M-side coordinates are drawn independently Gaussian, then the
    A-side is completed by trapdoor preimage sampling of the residual
    target; columns of the result satisfy (A|M) @ E == U (mod q).
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    m_block = as_residues(m_block, q)
    u = as_residues(u, q)
    if a.ndim != 2 or m_block.ndim != 2 or a.shape[0] != m_block.shape[0]:
        raise DimensionMismatch(
            f"blocks must share a row count, got {a.shape} and {m_block.shape}"
        )
    u_mat = u if u.ndim == 2 else u.reshape(-1, 1)
    if u_mat.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"target has {u_mat.shape[0]} rows, expected {a.shape[0]}")
    td = _require_trapdoor(t_a)
    total = a.shape[1] + m_block.shape[1]
    _check_sigma(sigma, td.prepared(), total, enforce_sigma)
    n_cols = u_mat.shape[1]
    e_m = sample_z_gaussian_batch(
        sigma, np.zeros(m_block.shape[1] * n_cols), rng
    ).reshape(m_block.shape[1], n_cols)
    residual = (u_mat - mat_mul(m_block, e_m, q)) % q
    e_a = _preimage_batch(a, td, residual, q, sigma, rng)
    e = np.vstack([e_a, e_m])
    f1 = concat_cols([a, m_block])
    if not _spot_check_columns(f1, e, u_mat, q):
        raise SamplingError("sample_left congruence self-check failed")
    return e[:, 0] if u.ndim == 1 else e


def operator_norm(r, iters: int = 50) -> float:
    """Spectral norm estimate by power iteration with a fixed start."""
    rf = np.asarray(r, dtype=np.float64)
    probe = RandomSource(0x5EED)  # fixed internal seed keeps the estimate deterministic
    v = probe.normal(1.0, rf.shape[1])
    nrm = np.linalg.norm(v)
    if nrm == 0 or rf.size == 0:
        return 0.0
    v /= nrm
    for _ in range(iters):
        v = rf.T @ (rf @ v)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return 0.0
        v /= nrm
    return float(np.linalg.norm(rf @ v))


def sample_right(a, b, r, t_b: TrapdoorBasis, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
    """Preimage E of U for F2 = (A | A@R + B), using a trapdoor for B.

    Internally samples a preimage (f1, f2) for (B | A) and returns
    [f2 - R @ f1; f1], which satisfies F2 @ E == U (mod q).
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    b = as_residues(b, q)
    r = np.asarray(r, dtype=np.int64)
    u = as_residues(u, q)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"A and B must share rows, got {a.shape} and {b.shape}")
    if r.shape != (a.shape[1], b.shape[1]):
        raise DimensionMismatch(
            f"R must be {a.shape[1]} x {b.shape[1]}, got {r.shape}"
        )
    td = _require_trapdoor(t_b)
    if enforce_sigma:
        floor = td.prepared().gs_norm * operator_norm(r) * slack_factor(b.shape[1])
        if sigma < floor:
            raise SamplingError(f"sigma = {sigma:.6g} is below the sample_right threshold {floor:.6g}")
    swapped = sample_left(b, a, td, u, q, sigma, rng, enforce_sigma=False)
    one = swapped.ndim == 1
    sw = swapped.reshape(-1, 1) if one else swapped
    m_b = b.shape[1]
    f1, f2 = sw[:m_b], sw[m_b:]
    e = np.vstack([f2 - exact_int_matmul(r, f1), f1])
    f_mat = concat_cols([a, (mat_mul(a, r, q) + b) % q])
    u_mat = u if u.ndim == 2 else u.reshape(-1, 1)
    if not _spot_check_columns(f_mat, e, u_mat, q):
        raise SamplingError("sample_right congruence self-check failed")
    return e[:, 0] if one else e


def _full_rank_subset(vectors: np.ndarray, dim: int) -> np.ndarray | None:
    """Greedy selection of dim independent columns, exact mod-p ranks."""
    from .zqlinalg import _rank_mod_p  # rare fallback path

    p = 33554393
    chosen: list[int] = []
    for j in range(vectors.shape[1]):
        cand = chosen + [j]
        sub = np.ascontiguousarray(vectors[:, cand])
        if _rank_mod_p(sub, p) == len(cand):
            chosen.append(j)
            if len(chosen) == dim:
                return vectors[:, chosen]
    return None


def _basis_from_preimages(sampler, dim: int, q: int, retries: int = 4) -> TrapdoorBasis:
    """Assemble a nonsingular basis from Gaussian preimages of zero.

    The QR run doubles as the nonsingularity certificate and stays with
    the returned basis, so later sampling against it reuses it.
    """
    for _ in range(retries):
        batch = sampler(dim + _BASIS_OVERHEAD)
        cand = np.ascontiguousarray(batch[:, :dim])
        try:
            return TrapdoorBasis(cand, prep=prepare_basis(cand))
        except SingularMatrix:
            pass
        subset = _full_rank_subset(batch, dim)
        if subset is not None:
            subset = np.ascontiguousarray(subset)
            return TrapdoorBasis(subset, prep=prepare_basis(subset))
    raise SamplingError("could not assemble a full-rank basis from preimages")


def _nullspace_basis(f: np.ndarray, sampler, q: int) -> TrapdoorBasis:
    """Certified basis of the nullspace lattice of f: the tail of sample_basis_left/right.

    ``sampler(targets)`` returns preimages of the target columns under f.
    """
    zero = np.zeros((f.shape[0], 1), dtype=np.int64)
    basis = _basis_from_preimages(lambda count: sampler(np.repeat(zero, count, axis=1)), f.shape[1], q)
    if np.any(mat_mul(f, basis.basis, q)):
        raise SamplingError("basis columns left the nullspace lattice")
    return basis


def sample_basis_left(a, m_block, t_a: TrapdoorBasis, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> TrapdoorBasis:
    """Short basis of the nullspace lattice of (A | M) from a trapdoor for A.

    The basis is returned with the QR factorization that certified it.
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    m_block = as_residues(m_block, q)
    return _nullspace_basis(
        concat_cols([a, m_block]),
        lambda targets: sample_left(a, m_block, t_a, targets, q, sigma, rng, enforce_sigma=enforce_sigma),
        q,
    )


def sample_basis_right(a, b, r, t_b: TrapdoorBasis, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> TrapdoorBasis:
    """Short basis of the nullspace lattice of (A | A@R + B) from a trapdoor for B.

    The basis is returned with the QR factorization that certified it.
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    b = as_residues(b, q)
    return _nullspace_basis(
        concat_cols([a, (mat_mul(a, r, q) + b) % q]),
        lambda targets: sample_right(a, b, r, t_b, targets, q, sigma, rng, enforce_sigma=enforce_sigma),
        q,
    )


def verify_trapdoor(pair: TrapdoorPair, q: int) -> bool:
    """Full invariant check: nullspace membership plus rational rank."""
    return check_nullspace_basis(pair.a, pair.trapdoor.basis, q)
