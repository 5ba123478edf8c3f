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
A-side walk is the randomized nearest plane of samplers.py, over the R
factor of the trapdoor basis only.  Every coset representative is
c = W @ y for a fixed per-basis map W of few columns (CosetMap): for
trapdoors carrying the gadget structure, y is the bit decomposition of
the targets and W = [Rbar; I], which keeps every intermediate tiny;
otherwise y is the mod-q solution on the n pivot columns of A and W
places it there.  The walk's projections Q^T c are then P @ y with
P = Q^T W computed once per basis, so no Q is ever formed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError, SamplingError, SingularMatrix
from .samplers import (
    TAIL_CUT,
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
    trapdoor: TrapdoorBasis     # m x m basis in the gadget layout


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
    return TrapdoorPair(a, TrapdoorBasis(s))


# ---------------------------------------------------------------------------
# Trapdoors that own their sampling data, and gadget-structure recovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetMap:
    """Short coset representatives under one public matrix A, as c = W @ y.

    On the gadget path (k > 0) y holds the k bits of every target entry and
    W = [Rbar; I]; otherwise y = center_rep(E @ targets mod q) with E the
    elimination solve_mod applies to A, and W puts y on solve_mod's pivot
    rows, so c is the centered solve_mod solution.  proj = Q^T W of the
    basis the map belongs to, which turns the walk's projections Q^T c
    into proj @ y.
    """

    a: np.ndarray            # the public matrix (residues) the map was derived for
    q: int
    k: int                   # bits per residue on the gadget path, 0 on the pivot path
    elim: np.ndarray | None  # n x n, E (pivot path only)
    w: np.ndarray            # d x width int64
    proj: np.ndarray         # d x width float64

    def coordinates(self, targets: np.ndarray) -> np.ndarray:
        """y with A @ (W @ y) == targets (mod q)."""
        if self.k:
            return _bit_decompose(targets % self.q, self.k)
        return center_rep(mat_mul(self.elim, targets, self.q), self.q)


def derive_coset_map(a: np.ndarray, prep: PreparedBasis, q: int) -> CosetMap:
    """The CosetMap of A for the basis behind prep; ParameterError if the
    basis is provably no trapdoor of A (see derive_gadget_aux)."""
    a = np.array(a, dtype=np.int64)
    a.setflags(write=False)
    aux = derive_gadget_aux(a, prep.basis, q)
    if aux is not None:
        w = np.vstack([aux.r_bar, np.eye(a.shape[0] * aux.k, dtype=np.int64)])
        return CosetMap(a, q, aux.k, None, w, prep.project(w))
    # solve_mod of the identity is E on the pivot rows and zero elsewhere
    x = solve_mod(a, np.eye(a.shape[0], dtype=np.int64), q)
    pivots = np.flatnonzero(x.any(axis=1))
    w = np.zeros((a.shape[1], pivots.size), dtype=np.int64)
    w[pivots, np.arange(pivots.size)] = 1
    return CosetMap(a, q, 0, x[pivots], w, prep.project(w))


class TrapdoorBasis:
    """A short basis together with the sampling data built from it.

    The R factor (PreparedBasis; handed over by whoever factored the basis
    already or loaded a checked one, else built on first use) and the
    CosetMap of the public matrix the basis is a trapdoor of (derived on
    first use) are each built once and then kept by this object.  The
    coset map belongs to the matrix it was derived for: a call with
    another matrix raises ParameterError.  A lock guards every first use,
    so one instance may serve concurrent calls.
    """

    def __init__(self, basis, *, prep: PreparedBasis | None = None):
        self.basis = np.asarray(basis, dtype=np.int64)
        self._prep = prep
        self._coset: CosetMap | None = None
        self._lock = threading.RLock()

    def prepared(self) -> PreparedBasis:
        with self._lock:
            if self._prep is None:
                self._prep = prepare_basis(self.basis)
            return self._prep

    def coset_map(self, a: np.ndarray, q: int) -> CosetMap:
        with self._lock:
            if self._coset is None:
                self._coset = derive_coset_map(a, self.prepared(), q)
            elif q != self._coset.q or not np.array_equal(a, self._coset.a):
                raise ParameterError("the trapdoor basis belongs to another public matrix")
            return self._coset


def _require_trapdoor(t) -> TrapdoorBasis:
    if not isinstance(t, TrapdoorBasis):
        raise TypeError(f"trapdoor must be a TrapdoorBasis, got {type(t).__name__}")
    return t


def derive_gadget_aux(a: np.ndarray, s: np.ndarray, q: int) -> GadgetAux | None:
    """Recover the gadget shortcut from (A, S) when S has our block layout.

    None when S lacks the layout, or has it without being the gadget
    trapdoor of A.  When S has the layout and A @ S != 0 (mod q), S is no
    trapdoor of A at all, and ParameterError is raised.
    """
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
        if np.any(mat_mul(a, s, q)):
            raise ParameterError("the trapdoor basis is no trapdoor of this public matrix")
        return None
    return GadgetAux(k, m_bar, r_bar)


# ---------------------------------------------------------------------------
# Preimage sampling
# ---------------------------------------------------------------------------


def _preimage_batch(
    a: np.ndarray,
    td: TrapdoorBasis,
    targets: np.ndarray,
    q: int,
    sigma: float,
    rng: RandomSource,
) -> np.ndarray:
    prep = td.prepared()
    cmap = td.coset_map(a, q)
    y = cmap.coordinates(targets)
    c = exact_int_matmul(cmap.w, y)
    z = klein_coefficients(prep, sigma, cmap.proj @ y, rng)
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


def _basis_candidates(zero: np.ndarray, dim: int):
    """The first dim columns of zero, then (only if asked for) the first dim
    columns that raise its rank mod a prime."""
    yield np.ascontiguousarray(zero[:, :dim])
    cols = _pivot_columns_mod_p(zero, _RANK_CHECK_PRIMES[0])
    if len(cols) == dim:
        yield zero[:, cols]


def _basis_from_preimages(sampler, dim: int, q: int, retries: int = 4) -> tuple[TrapdoorBasis, np.ndarray]:
    """Assemble a nonsingular basis from Gaussian preimages of zero.

    ``sampler(count)`` returns count preimages of zero, then any further
    columns, which come back untouched next to the basis.  The first dim
    columns are certified nonsingular by factoring them (prepare_basis,
    whose R-only QR must clear zqlinalg.qr_singularity_bound), and the
    basis keeps that factorization.  When that fails, the first dim
    columns that raise the rank mod a prime are taken instead and factored
    the same way; a batch with no certified choice is drawn again.
    """
    count = dim + _BASIS_OVERHEAD
    for _ in range(retries):
        batch = sampler(count)
        # rest is copied so that it does not keep the whole batch alive
        zero, rest = batch[:, :count], batch[:, count:].copy()
        for cand in _basis_candidates(zero, dim):
            try:
                return TrapdoorBasis(cand, prep=prepare_basis(cand)), rest
            except SingularMatrix:
                pass
    raise SamplingError("could not assemble a full-rank basis from preimages")


def sample_basis_left(a, m_block, t_a: TrapdoorBasis, u, q: int, sigma: float,
                      rng: RandomSource) -> tuple[TrapdoorBasis, np.ndarray]:
    """Short basis of the nullspace lattice of F = (A | M) from a trapdoor for A,
    and preimages E of the columns of u (n x t) under F.

    One sample_left call per draw covers the zero targets the basis is
    assembled from and u's columns, so the preimages cost no walk of their
    own.  Returns (basis, E): the basis is certified nonsingular by its
    own factorization, which it keeps (see _basis_from_preimages).  Both
    are columns of the sample_left batch, which checked F @ basis == 0
    and F @ E == u (mod q) on every column.
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
