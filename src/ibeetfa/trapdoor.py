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
a gadget trapdoor, which keeps the Rbar it was built from, y is the bit
decomposition of the targets and W = [Rbar; I], which keeps every
intermediate tiny; for any other basis y is the mod-q solution on the n
pivot columns of A and W places it there.  The walk's projections Q^T c
are then P @ y with P = Q^T W computed once per basis, so no Q is ever
formed.  A gadget trapdoor forms its preimages c - B @ z from Rbar and
the bottom nk rows of B, never from the whole m x m basis
(preimage_from_coefficients).  A user key's map is built at extract and shipped in the key
file; a loaded map is checked against the basis at load
(adopt_trapdoor) and bound to its public matrix on first use.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, KeyMismatch, ParameterError, SamplingError, SingularMatrix
from .samplers import (
    TAIL_CUT,
    PreparedBasis,
    RandomSource,
    adopt_r_factor,
    klein_coefficients,
    prepare_basis,
    sample_z_gaussian_batch,
    slack_factor,
)
from .zqlinalg import (
    _RANK_CHECK_PRIMES,
    _magnitude,
    _pivot_columns_mod_p,
    as_residues,
    center_rep,
    check_modulus,
    concat_cols,
    exact_int_matmul,
    int32_matrix,
    int_array,
    mat_mul,
    qr_singularity_bound,
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


def gadget_matrix(n: int, q: int) -> np.ndarray:
    """The n x nk gadget G (k = gadget_length(q)): row i holds
    1, 2, ..., 2^(k-1) in columns ik to ik + k - 1."""
    k = gadget_length(q)
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
    a_right = (gadget_matrix(n, q) - mat_mul(a_bar, r_bar, q)) % q
    a = concat_cols([a_bar, a_right])
    return TrapdoorPair(a, gadget_trapdoor(a_bar, r_bar, q))


def gadget_trapdoor(a_bar: np.ndarray, r_bar: np.ndarray, q: int) -> TrapdoorBasis:
    """The basis of A = [Abar | G - Abar*Rbar], a function of (Abar, Rbar), keeping Rbar."""
    return TrapdoorBasis(gadget_basis(a_bar, r_bar, q), r_bar=r_bar)


#: Rows of Rbar per block of the products gadget_basis writes out.
_GADGET_ROW_BLOCK = 256


def gadget_basis(a_bar: np.ndarray, r_bar: np.ndarray, q: int, dtype=np.int64,
                 what: str = "gadget basis") -> np.ndarray:
    """[[Rbar*S_G, I - Rbar*D], [S_G, -D]] as one dtype array, D the bits of Abar.

    The top rows are written a block of Rbar's rows at a time, so no
    full-size int64 product is staged for a narrower dtype; an entry the
    dtype cannot hold raises ParameterError naming what holds it.
    """
    n, m_bar = a_bar.shape
    k = gadget_length(q)
    nk = n * k
    s_g = np.kron(np.eye(n, dtype=np.int64), _gadget_block(q, k))
    d_bits = _bit_decompose(a_bar, k)
    info = np.iinfo(dtype)
    s = np.empty((m_bar + nk, m_bar + nk), dtype=dtype)
    # gadget block first, completion block second (keeps its GS norms <= 1)
    s[m_bar:, :nk] = s_g
    s[m_bar:, nk:] = -d_bits
    for lo in range(0, m_bar, _GADGET_ROW_BLOCK):
        hi = min(m_bar, lo + _GADGET_ROW_BLOCK)
        left = exact_int_matmul(r_bar[lo:hi], s_g)
        right = exact_int_matmul(r_bar[lo:hi], d_bits)
        np.negative(right, out=right)
        right[np.arange(hi - lo), np.arange(lo, hi)] += 1
        for part in (left, right):
            if part.min() < info.min or part.max() > info.max:
                raise ParameterError(f"{what} holds an entry outside {info.dtype.name}")
        s[lo:hi, :nk] = left
        s[lo:hi, nk:] = right
    return s


# ---------------------------------------------------------------------------
# Trapdoors that own their sampling data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetMap:
    """Short coset representatives under one public matrix A, as c = W @ y.

    On the gadget path (k > 0) y holds the k bits of every target entry and
    W = [Rbar; I]; otherwise y = center_rep(E @ targets mod q) with E the
    elimination solve_mod applies to A, and W puts y on solve_mod's pivot
    rows, so c is the centered solve_mod solution.  proj = Q^T W of the
    basis the map belongs to, which turns the walk's projections Q^T c
    into proj @ y.  A map read from a key file (adopt_trapdoor) holds no
    A until TrapdoorBasis.coset_map binds it (bound_to).
    """

    a: np.ndarray | None     # the public matrix (residues) the map is bound to; None if unbound
    q: int
    k: int                   # bits per residue on the gadget path, 0 on the pivot path
    elim: np.ndarray | None  # n x n, E (pivot path only)
    w: np.ndarray            # d x width int64
    proj: np.ndarray         # d x width float64

    @property
    def pivots(self) -> np.ndarray:
        """The row of W that each column of W puts its coordinate on (pivot path)."""
        return self.w.argmax(axis=0)

    def coordinates(self, targets: np.ndarray) -> np.ndarray:
        """y with A @ (W @ y) == targets (mod q)."""
        if self.k:
            return _bit_decompose(targets % self.q, self.k)
        return center_rep(mat_mul(self.elim, targets, self.q), self.q)

    def bound_to(self, a: np.ndarray, q: int) -> CosetMap:
        """This pivot-path map bound to A: KeyMismatch (a ParameterError) unless
        A[:, pivots] @ E == I (mod q), which makes every c = W @ y a solution."""
        a = np.array(a, dtype=np.int64)
        a.setflags(write=False)
        n = self.elim.shape[0]
        if q != self.q or a.shape != (n, self.w.shape[0]) or not np.array_equal(
            mat_mul(a[:, self.pivots], self.elim, q), np.eye(n, dtype=np.int64)
        ):
            raise KeyMismatch("the trapdoor basis belongs to another public matrix")
        return replace(self, a=a)


def require_gadget_trapdoor(a: np.ndarray, r_bar: np.ndarray, q: int) -> None:
    """KeyMismatch unless A @ [Rbar; I] == G (mod q): Rbar is a gadget trapdoor of A.

    Computed as Abar @ Rbar mod q plus A's last nk columns, one mat_mul
    with no factorization and no stacked copy of [Rbar; I].  mat_mul
    reduces as it goes, so a user key's R_ID (entries near 2**19, whose
    exact product with residues would pass int64) is checked as the
    master key's +-1 Rbar is.
    """
    m_bar = r_bar.shape[0]
    g = gadget_matrix(a.shape[0], q)
    if a.shape[1] != m_bar + g.shape[1] or not np.array_equal(
        (mat_mul(a[:, :m_bar], r_bar, q) + a[:, m_bar:]) % q, g
    ):
        raise KeyMismatch("the trapdoor basis is no trapdoor of this public matrix")


def _pivot_map(pivots: np.ndarray, d: int) -> np.ndarray:
    """The d x n matrix W that puts coordinate j on row pivots[j]."""
    w = np.zeros((d, pivots.size), dtype=np.int64)
    w[pivots, np.arange(pivots.size)] = 1
    return w


def derive_coset_map(a: np.ndarray, prep: PreparedBasis, q: int, r_bar: np.ndarray | None) -> CosetMap:
    """The CosetMap of A for the basis behind prep: the gadget path with its
    Rbar (ParameterError unless A @ [Rbar; I] == G mod q), else the pivot path."""
    a = np.array(a, dtype=np.int64)
    a.setflags(write=False)
    if r_bar is not None:
        require_gadget_trapdoor(a, r_bar, q)
        k = gadget_length(q)
        w = np.vstack([r_bar, np.eye(a.shape[0] * k, dtype=np.int64)])
        return CosetMap(a, q, k, None, w, prep.project(w))
    # solve_mod of the identity is E on the pivot rows and zero elsewhere
    x = solve_mod(a, np.eye(a.shape[0], dtype=np.int64), q)
    pivots = np.flatnonzero(x.any(axis=1))
    w = _pivot_map(pivots, a.shape[1])
    return CosetMap(a, q, 0, x[pivots], w, prep.project(w))


def adopt_trapdoor(basis, r_rows: np.ndarray, q: int, pivots: np.ndarray, elim: np.ndarray,
                   proj: np.ndarray) -> TrapdoorBasis:
    """A TrapdoorBasis from a basis and its sampling data computed elsewhere
    (a key file: the packed R rows, n pivots, n x n E, d x n proj), the R
    factor checked first (samplers.adopt_r_factor: SingularMatrix if it is
    not the basis's), then the pivot-path coset map (ParameterError if it is
    not the basis's).  The map is left unbound.

    The pivots must be n distinct rows of the basis and E a residue
    matrix.  proj must be Q^T W of this basis: B = QR gives
    R^T (Q^T W) = B^T W = B[pivots, :]^T.  A backward-stable QR returns the
    exact R factor of B + F with |F| at most qr_singularity_bound (the
    error adopt_r_factor allows), so for the exact Q of B + F each column
    of R^T Q^T W is off B[pivots[j], :] by at most |F| |w_j| = bound;
    computing Q^T W (PreparedBasis.project) and R^T proj in float64 adds
    less than another bound, which the tolerance allows.  The bound is
    taken from |R|_F = |B + F|_F.  R^T proj comes from the pass over R
    that checks R, so no block of R is built twice.  Which A the map
    solves for is checked when it is bound (CosetMap.bound_to).
    """
    prep, rt_proj = adopt_r_factor(basis, r_rows, proj)
    d, n = prep.dim, pivots.size
    if pivots.min() < 0 or pivots.max() >= d or np.unique(pivots).size != n:
        raise ParameterError(f"pivots must be {n} distinct rows in [0, {d})")
    if elim.min() < 0 or elim.max() >= q:
        raise ParameterError(f"E holds entries outside [0, {q})")
    gap = np.linalg.norm(rt_proj - prep.basis[pivots].T, axis=0)
    bound = qr_singularity_bound(float(np.linalg.norm(prep.r_rows)), d)
    # written so that a NaN fails it
    if not float(gap.max()) <= 2.0 * bound:
        raise ParameterError("projections are not Q^T W of this basis")
    coset = CosetMap(None, q, 0, elim, _pivot_map(pivots, d), proj)
    return TrapdoorBasis(prep.basis, prep=prep, coset=coset)


class TrapdoorBasis:
    """A short basis together with the sampling data built from it.

    The basis is held as given when it is int32 or int64, anything else as
    int64: a user key's E'_ID is int32, and its PreparedBasis holds the
    same array.  The R factor (PreparedBasis; handed over by whoever
    factored the basis already or loaded a checked one, else built on
    first use) and the CosetMap of the public matrix the basis is a
    trapdoor of (derived on first use, or handed over: extract builds
    E'_ID's, and a loaded key carries it unbound) are each built once and
    then kept by this object.  The coset map belongs to the matrix it was
    derived for or first bound to: a call with another matrix, or the
    binding of a handed-over map to a matrix it does not solve, raises
    KeyMismatch (a ParameterError).  A lock guards every first use and the
    binding, so one instance may serve concurrent calls.
    """

    def __init__(self, basis, *, prep: PreparedBasis | None = None, r_bar: np.ndarray | None = None,
                 coset: CosetMap | None = None):
        self.basis = int_array(basis)
        self.r_bar = r_bar  # a gadget trapdoor's Rbar, which selects the gadget path; else None
        self._prep = prep
        self._coset = coset
        self._lock = threading.RLock()

    @property
    def coset(self) -> CosetMap | None:
        """The coset map held so far, bound or not; None before first use."""
        return self._coset

    def prepared(self) -> PreparedBasis:
        with self._lock:
            if self._prep is None:
                self._prep = prepare_basis(self.basis)
            return self._prep

    def narrowed(self, what: str) -> TrapdoorBasis:
        """This trapdoor with its basis as int32 (zqlinalg.int32_matrix:
        ParameterError naming what if an entry does not fit): itself when the
        basis already is, else a new one holding the R factor and coset map
        built so far, its PreparedBasis over the same int32 array."""
        basis = int32_matrix(self.basis, what)
        if basis is self.basis:
            return self
        with self._lock:
            prep = self._prep and replace(self._prep, basis=basis)
            return TrapdoorBasis(basis, prep=prep, r_bar=self.r_bar, coset=self._coset)

    def coset_map(self, a: np.ndarray, q: int) -> CosetMap:
        with self._lock:
            if self._coset is None:
                self._coset = derive_coset_map(a, self.prepared(), q, self.r_bar)
            elif self._coset.a is None:
                self._coset = self._coset.bound_to(a, q)
            elif q != self._coset.q or not np.array_equal(a, self._coset.a):
                raise KeyMismatch("the trapdoor basis belongs to another public matrix")
            return self._coset


def _require_trapdoor(t) -> TrapdoorBasis:
    if not isinstance(t, TrapdoorBasis):
        raise TypeError(f"trapdoor must be a TrapdoorBasis, got {type(t).__name__}")
    return t


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
    z = klein_coefficients(prep, sigma, cmap.proj @ y, rng)
    e = preimage_from_coefficients(td, cmap, y, z)
    # The walk leaves at most 1/2 + TAIL_CUT*sigma/gs_j per orthogonalized
    # direction, so anything far beyond this bound means numerical corruption.
    cap = 2.0 * math.sqrt(prep.dim) * (0.5 * prep.gs_norm + TAIL_CUT * sigma)
    if _magnitude(e) > cap:
        raise SamplingError("preimage walk produced an implausibly long vector")
    return e


def preimage_from_coefficients(td: TrapdoorBasis, cmap: CosetMap, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The preimage c - B @ z, c = W @ y, of the walk's coefficients z.

    For a gadget trapdoor (one that keeps its Rbar) B = [[Rbar*S_G, I - Rbar*D],
    [S_G, -D]] and W = [Rbar; I], so with z = [z1; z2] (nk and m - nk rows)
    c - B @ z = [Rbar @ v - z2; v], v = y - [S_G, -D] @ z: the exact same
    integers from two products of nk-wide operands, the bottom nk rows of B
    and Rbar, instead of one with the m x m basis.  Any other basis takes
    the dense products.
    """
    basis = td.basis
    if td.r_bar is None:
        return exact_int_matmul(cmap.w, y) - exact_int_matmul(basis, z)
    m_bar = td.r_bar.shape[0]
    e = np.empty(z.shape, dtype=np.int64)
    v = np.subtract(y, exact_int_matmul(basis[m_bar:], z), out=e[m_bar:])
    np.subtract(exact_int_matmul(td.r_bar, v), z[basis.shape[0] - m_bar :], out=e[:m_bar])
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


def _basis_candidates(zero: np.ndarray, dim: int):
    """The first dim columns of zero, then (only if asked for) the first dim
    columns that raise its rank mod a prime."""
    yield np.ascontiguousarray(zero[:, :dim])
    cols = _pivot_columns_mod_p(zero, _RANK_CHECK_PRIMES[0])
    if len(cols) == dim:
        yield zero[:, cols]


def _basis_from_preimages(sampler, dim: int) -> tuple[TrapdoorBasis, np.ndarray]:
    """Assemble a nonsingular basis from one batch of Gaussian preimages of zero.

    ``sampler(count)`` returns count preimages of zero, then any further
    columns, which come back untouched next to the basis.  The first dim
    columns are certified nonsingular by factoring them (prepare_basis,
    whose R-only QR must clear zqlinalg.qr_singularity_bound), and the
    basis keeps that factorization.  When that fails, the first dim
    columns that raise the rank mod a prime are taken instead and factored
    the same way; a batch with no certified choice raises SamplingError
    (extract draws the whole key again).
    """
    count = dim + _BASIS_OVERHEAD
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

    One sample_left call covers the zero targets the basis is
    assembled from and u's columns, so the preimages cost no walk of their
    own.  Returns (basis, E): the basis is certified nonsingular by its
    own factorization, which it keeps (see _basis_from_preimages).  Both
    are columns of the sample_left batch, which checked F @ basis == 0
    and F @ E == u (mod q) on every column.  A batch with no certified
    basis raises SamplingError.
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

    return _basis_from_preimages(sampler, f.shape[1])
