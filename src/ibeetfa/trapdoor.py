"""Trapdoor lattices: generation, SampleLeft and basis delegation.

Trapdoor generation follows the gadget template: A = [Abar | G - Abar*Rbar]
with Rbar a random sign matrix and G the base-2 gadget.  The short basis
of the q-ary nullspace lattice of A is assembled from the gadget-block
columns [Rbar*S_G; S_G] (S_G the standard gadget basis, determinant q^n)
followed by the completion columns [I - Rbar*D; -D] with D the bit
decomposition of Abar.  Ordering the gadget block first keeps the
Gram-Schmidt norms of the completion block at 1 or below, so the whole
basis has Gram-Schmidt norm within a small constant of sqrt(n log q).

The scheme samples through two functions only: sample_left, which draws
preimages of an n x k target matrix under (A | M) with a trapdoor for A
and checks every column it returns, and sample_basis_left, which builds a
delegated basis (and preimages of U) from one sample_left batch.  The
A-side walk is the randomized nearest plane of samplers.py.  For
trapdoors carrying the gadget structure, coset representatives come
from the bit decomposition of the targets (entries bounded by n*log q),
which keeps every intermediate tiny; otherwise a sparse mod-q solve is
used and the walk handles the large offset through its QR projections.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError, SamplingError
from .samplers import (
    PreparedBasis,
    RandomSource,
    klein_coefficients,
    prepare_basis,
    sample_z_gaussian_batch,
    slack_factor,
)
from .zqlinalg import (
    _RANK_CHECK_PRIMES,
    _pivot_columns_mod_p,
    _qr_nonsingular_certificate,
    as_residues,
    center_rep,
    check_modulus,
    concat_cols,
    exact_int_matmul,
    mat_mul,
    solve_mod,
)

#: Multiplier inside the trapdoor Gram-Schmidt bound; calibrated by
#: measurement over many generation runs (see tests), with headroom.
TRAPGEN_GS_CONSTANT = 7.0

#: Declared constant in the operator-norm bound s_R < C * sqrt(m) for
#: square sign matrices (and C * ell * sqrt(m) for their [-ell, ell] sums).
SIGN_OPNORM_CONSTANT = 2.2

#: How many extra preimages sample_basis_left draws beyond the dimension,
#: to survive the (vanishingly rare) dependent column.
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
    n, t = u.shape
    out = np.zeros((n * k, t), dtype=np.int64)
    for j in range(k):
        out[j::k] = (u >> j) & 1
    # interleaving above put digit j of row i at position i*k + j
    return out


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

    The QR factorization (built on first use) and the gadget shortcut
    (derived from the public matrix on first use unless handed over) are
    each built once and then kept by this object.  A lock guards every
    first use, so one instance may serve concurrent calls.
    """

    def __init__(self, basis, *, aux=_UNDERIVED):
        self.basis = np.asarray(basis, dtype=np.int64)
        self._prep: PreparedBasis | None = None
        self._aux = aux
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


def _coset_representatives(a: np.ndarray, aux: GadgetAux | None, targets: np.ndarray, q: int) -> np.ndarray:
    """Integer c with A @ c == targets (mod q), kept short when possible."""
    if aux is not None:
        d_bits = _bit_decompose(targets % q, aux.k)
        top = exact_int_matmul(aux.r_bar, d_bits)
        return np.vstack([top, d_bits])
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


def sample_left(a, m_block, t_a: TrapdoorBasis, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
    """Preimages E of the n x k targets U for the concatenation (A | M), using a trapdoor for A.

    The M-side coordinates are drawn independently Gaussian, then the
    A-side is completed by trapdoor preimage sampling of the residual
    targets.  (A|M) @ E == U (mod q) is checked on every column before E
    is returned.  An empty M block gives plain preimages under A.
    With enforce_sigma, a sigma below the trapdoor's Gram-Schmidt norm
    times slack_factor raises SamplingError.
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    m_block = as_residues(m_block, q)
    u = as_residues(u, q)
    if a.ndim != 2 or m_block.ndim != 2 or a.shape[0] != m_block.shape[0]:
        raise DimensionMismatch(
            f"blocks must share a row count, got {a.shape} and {m_block.shape}"
        )
    if u.ndim != 2 or u.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"targets must be {a.shape[0]} x k, got shape {u.shape}")
    td = _require_trapdoor(t_a)
    if not sigma > 0:
        raise SamplingError(f"sigma must be positive, got {sigma}")
    gs, slack = td.prepared().gs_norm, slack_factor(a.shape[1] + m_block.shape[1])
    if enforce_sigma and sigma < gs * slack:
        raise SamplingError(
            f"sigma = {sigma:.6g} is below the sampling threshold {gs * slack:.6g} "
            f"(basis GS norm {gs:.6g} times slack {slack})"
        )
    n_cols = u.shape[1]
    e_m = sample_z_gaussian_batch(
        sigma, np.zeros(m_block.shape[1] * n_cols), rng
    ).reshape(m_block.shape[1], n_cols)
    residual = (u - mat_mul(m_block, e_m, q)) % q
    e_a = _preimage_batch(a, td, residual, q, sigma, rng)
    e = np.vstack([e_a, e_m])
    if not np.array_equal(mat_mul(concat_cols([a, m_block]), e, q), u):
        raise SamplingError("sample_left congruence self-check failed")
    return e


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


def _basis_from_preimages(sampler, dim: int, q: int, retries: int = 4) -> tuple[TrapdoorBasis, np.ndarray]:
    """Assemble a nonsingular basis from Gaussian preimages of zero.

    ``sampler(count)`` returns count preimages of zero, then any further
    columns, which come back untouched next to the basis.  The first dim
    columns are certified nonsingular by an R-only float QR
    (zqlinalg._qr_nonsingular_certificate, against the bound
    zqlinalg.qr_singularity_bound that prepare_basis enforces too).  When
    that fails, the first dim columns that raise the rank mod a prime are
    taken instead and certified the same way; a batch with no certified
    choice is drawn again.  The basis is returned without QR
    data: its owner factors it on first use.
    """
    count = dim + _BASIS_OVERHEAD
    for _ in range(retries):
        batch = sampler(count)
        # rest is copied so that it does not keep the whole batch alive
        zero, rest = batch[:, :count], batch[:, count:].copy()
        cand = np.ascontiguousarray(zero[:, :dim])
        if not _qr_nonsingular_certificate(cand):
            cols = _pivot_columns_mod_p(zero, _RANK_CHECK_PRIMES[0])
            if len(cols) < dim:
                continue
            cand = zero[:, cols]
            if not _qr_nonsingular_certificate(cand):
                continue
        return TrapdoorBasis(cand), rest
    raise SamplingError("could not assemble a full-rank basis from preimages")


def sample_basis_left(a, m_block, t_a: TrapdoorBasis, u, q: int, sigma: float,
                      rng: RandomSource) -> tuple[TrapdoorBasis, np.ndarray]:
    """Short basis of the nullspace lattice of F = (A | M) from a trapdoor for A,
    and preimages E of the columns of u (n x t) under F.

    One sample_left call per draw covers the zero targets the basis is
    assembled from and u's columns, so the preimages cost no walk of their
    own.  Returns (basis, E): the basis is certified nonsingular and
    carries no QR data yet (see _basis_from_preimages).  Both are columns
    of the sample_left batch, which checked F @ basis == 0 and
    F @ E == u (mod q) on every column.
    """
    q = check_modulus(q)
    a = as_residues(a, q)
    m_block = as_residues(m_block, q)
    u = as_residues(u, q)
    f = concat_cols([a, m_block])
    if u.ndim != 2 or u.shape[0] != f.shape[0]:
        raise DimensionMismatch(f"targets must be {f.shape[0]} x t, got shape {u.shape}")

    def sampler(count):
        targets = np.hstack([np.zeros((f.shape[0], count), dtype=np.int64), u])
        return sample_left(a, m_block, t_a, targets, q, sigma, rng)

    return _basis_from_preimages(sampler, f.shape[1], q)
