"""Trapdoor lattices: generation, SampleLeft and basis delegation.

Trapdoor generation follows the gadget template: A = [Abar | G - Abar*Rbar]
with Rbar a random sign matrix and G the base-2 gadget, so
A @ [Rbar; I] == G (mod q).  The master trapdoor is (Rbar, q)
(GadgetTrapdoor), and its preimages come from Micciancio-Peikert SampleD:
a perturbation, then a preimage under G.  The trapdoor holds no basis and
no copy of Abar.  A basis of the q-ary nullspace lattice of [Abar | G -
Abar*R] for any integer R, the gadget-block columns [R*S_G; S_G] (S_G the
standard gadget basis, determinant q^n) followed by the completion
columns [I - R*D; -D] with D the bit decomposition of Abar, is
gadget_basis(Abar, R, q); the library builds one only for a user key's
E_ID (scheme.KeyPreimage.e_id), and no draw uses it.

The scheme samples through two functions only: sample_left, which draws
preimages of an n x k target matrix under (A | M) with a trapdoor for A
and checks every column it returns, and sample_basis_left, which builds a
delegated basis (and preimages of U) from one sample_left batch.  With a
short basis (TrapdoorBasis: a user key's E'_ID, and S_k inside SampleD)
the A-side is the randomized nearest plane of samplers.py, over the R
factor of the basis only.  Every coset representative c is the mod-q
solution y = center_rep(E @ targets) on the basis's n pivot rows (the
pivot columns of A, E the elimination solve_mod applies to them) and zero
elsewhere, so c = W @ y for the d x n 0/1 matrix W that puts y on the
pivots.  The walk's projections Q^T c are then P @ y with P = Q^T W
computed once per basis, by the same QR that gives its R
(samplers.prepare_basis), so no Q is ever formed, and W is built only as
that QR's input.  A TrapdoorBasis holds its R factor, pivots, E and P
next to the basis and is complete when it is made, fresh
(derive_trapdoor: extract builds E'_ID's with its certificate) or loaded
(adopt_trapdoor: a key file's R, pivots, E and P, checked against the
basis); sample_left checks it against the public matrix before every draw
(require).
"""

from __future__ import annotations

import math
import os
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
    _magnitude,
    as_residues,
    center_rep,
    check_modulus,
    concat_cols,
    exact_int_matmul,
    frozen_array,
    int32_matrix,
    int_array,
    mat_mul,
    qr_singularity_bound,
    read_only,
    solve_mod,
)

#: Multiplier inside the trapdoor Gram-Schmidt bound; calibrated by
#: measurement over many generation runs (see tests), with headroom.
TRAPGEN_GS_CONSTANT = 7.0

#: Declared constant in the operator-norm bound s_R < C * sqrt(m) for
#: square sign matrices (and C * ell * sqrt(m) for their [-ell, ell] sums).
SIGN_OPNORM_CONSTANT = 2.2

#: SampleD's margin: c = SAMPLE_D_MARGIN * (s_G * s1(W))^2 (GadgetTrapdoor).
SAMPLE_D_MARGIN = 1.2

#: A float64 sum of integers is exact while every partial sum stays below this.
_FLOAT_EXACT = 1 << 53


def trapgen_width(n: int, q: int) -> int:
    """Least lattice width m accepted by trap_gen: 6 * n * ceil(log2 q)."""
    return 6 * int(n) * gadget_length(q)


def gadget_length(q: int) -> int:
    """Bits per residue in the base-2 gadget: ceil(log2 q)."""
    return max(2, math.ceil(math.log2(int(q))))


def bound_gs(n: int, q: int) -> float:
    """Declared bound on the Gram-Schmidt norm of generated trapdoors."""
    return TRAPGEN_GS_CONSTANT * math.sqrt(int(n) * gadget_length(q))


def gadget_width(n: int, q: int) -> float:
    """s_G: sqrt(5), which bounds the Gram-Schmidt norm of S_G, times slack_factor(nk)."""
    return math.sqrt(5.0) * slack_factor(int(n) * gadget_length(q))


def sample_d_floor(width: float, slack: float) -> float:
    """Least sigma SampleD accepts for s_G * s1(W) = width: r = sqrt(sigma^2 - c) >= slack."""
    return math.sqrt(SAMPLE_D_MARGIN * width * width + slack * slack)


@dataclass(frozen=True)
class TrapdoorPair:
    """Public matrix with a trapdoor for its q-ary nullspace lattice."""

    a: np.ndarray               # n x m residues
    trapdoor: GadgetTrapdoor    # (Rbar, q)


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

    Requires m >= 6 * n * ceil(log2 q); the basis S = gadget_basis(Abar,
    Rbar, q) of A's first m - nk columns Abar and the trapdoor's Rbar
    satisfies A @ S == 0 (mod q), det S = +-q**n, and
    gs_norm <= bound_gs(n, q).
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
    return TrapdoorPair(a, GadgetTrapdoor(r_bar, q))


#: Rows of Rbar per block of the products gadget_basis writes out.
_GADGET_ROW_BLOCK = 256


def gadget_basis(a_bar: np.ndarray, r_bar: np.ndarray, q: int) -> np.ndarray:
    """[[Rbar*S_G, I - Rbar*D], [S_G, -D]] as one int32 array, D the bits of Abar.

    The top rows are written a block of Rbar's rows at a time, so no
    full-size int64 product is staged; an entry outside int32 raises
    ParameterError.
    """
    n, m_bar = a_bar.shape
    k = gadget_length(q)
    nk = n * k
    s_g = np.kron(np.eye(n, dtype=np.int64), _gadget_block(q, k))
    d_bits = _bit_decompose(a_bar, k)
    info = np.iinfo(np.int32)
    s = np.empty((m_bar + nk, m_bar + nk), dtype=np.int32)
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
                raise ParameterError("gadget basis holds an entry outside int32")
        s[lo:hi, :nk] = left
        s[lo:hi, nk:] = right
    return s


# ---------------------------------------------------------------------------
# Trapdoors that own their sampling data
# ---------------------------------------------------------------------------

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


def derive_trapdoor(a: np.ndarray, basis, q: int) -> TrapdoorBasis:
    """A fresh TrapdoorBasis of A: the R factor of the basis and its
    projections P = Q^T W, from one QR (samplers.prepare_basis:
    SingularMatrix unless it certifies the basis) of the basis narrowed
    to int32 first, as the TrapdoorBasis holds it."""
    basis = int32_matrix(basis, "trapdoor basis")
    # solve_mod of the identity is E on the pivot rows and zero elsewhere
    x = solve_mod(a, np.eye(a.shape[0], dtype=np.int64), q)
    pivots = np.flatnonzero(x.any(axis=1))
    w = np.zeros((a.shape[1], pivots.size))
    w[pivots, np.arange(pivots.size)] = 1.0
    prep, proj = prepare_basis(basis, w)
    return TrapdoorBasis(basis, prep, q, pivots, x[pivots], proj)


def adopt_trapdoor(basis, r: np.ndarray, q: int, pivots: np.ndarray, elim: np.ndarray,
                   proj: np.ndarray) -> TrapdoorBasis:
    """A TrapdoorBasis from a basis and its sampling data computed elsewhere
    (a key file: R's row blocks, n pivots, n x n E, d x n proj), the R
    factor checked first (samplers.adopt_r_factor: SingularMatrix if it is
    not the basis's), then the pivots, E and P (ParameterError if they are
    not the basis's).  Arrays of the right dtype are held as they are.

    The pivots must be n distinct rows of the basis and E a residue
    matrix.  proj must be Q^T W of this basis, W the d x n matrix that
    puts coordinate j on row pivots[j]: B = QR gives
    R^T (Q^T W) = B^T W = B[pivots, :]^T.  A backward-stable QR returns the
    exact R factor of B + F with |F| at most qr_singularity_bound (the
    error adopt_r_factor allows), so for the exact Q of B + F each column
    of R^T Q^T W is off B[pivots[j], :] by at most |F| |w_j| = bound;
    computing Q^T W (samplers.prepare_basis) and R^T proj in float64 adds
    less than another bound, which the tolerance allows.  The bound is
    taken from |R|_F = |B + F|_F.  R^T proj and |R|_F come from the pass
    over R that checks R, so no block of R is read twice, and no W is
    built.  Which A the pivots and E solve for is checked on every draw
    (TrapdoorBasis.require).
    """
    basis = int_array(basis)
    prep, rt_proj, r_norm = adopt_r_factor(basis, r, proj)
    d, n = prep.dim, pivots.size
    if pivots.min() < 0 or pivots.max() >= d or np.unique(pivots).size != n:
        raise ParameterError(f"pivots must be {n} distinct rows in [0, {d})")
    if elim.min() < 0 or elim.max() >= q:
        raise ParameterError(f"E holds entries outside [0, {q})")
    gap = np.linalg.norm(rt_proj - basis[pivots].T, axis=0)
    bound = qr_singularity_bound(r_norm, d)
    # written so that a NaN fails it
    if not float(gap.max()) <= 2.0 * bound:
        raise ParameterError("projections are not Q^T W of this basis")
    return TrapdoorBasis(basis, prep, q, pivots, elim, proj)


@dataclass(frozen=True, eq=False)
class TrapdoorBasis:
    """A short basis of the q-ary nullspace lattice of one public matrix A,
    with the sampling data built from it: its R factor, and the pivots, E
    and P = Q^T W of its coset representatives under A (module docstring).

    It is complete when it is made, in one of two ways: fresh
    (derive_trapdoor, one QR for the R factor and P) or loaded
    (adopt_trapdoor, a key file's R, pivots, E and P checked against the
    basis).  Nothing is written to it afterwards, so one instance may serve
    concurrent calls.  It holds its basis at int32 (zqlinalg.int32_matrix:
    ParameterError for an entry outside it, so a key dump cannot write
    never exists), and the basis, R, pivots, E and P as read-only views
    (zqlinalg.read_only).
    """

    basis: np.ndarray        # int32, d x d, columns are basis vectors
    prep: PreparedBasis      # its R factor
    q: int
    pivots: np.ndarray       # n distinct rows of the basis: A's pivot columns
    elim: np.ndarray         # n x n residues, E
    proj: np.ndarray         # d x n float64, P = Q^T W

    def __post_init__(self):
        object.__setattr__(self, "basis", read_only(int32_matrix(self.basis, "trapdoor basis")))
        for name in ("pivots", "elim", "proj"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        object.__setattr__(self, "prep", replace(
            self.prep, r=read_only(self.prep.r), gs_norms=read_only(self.prep.gs_norms)))

    def require(self, a: np.ndarray, q: int) -> None:
        """KeyMismatch (a ParameterError) unless this is a trapdoor of A for
        q; nothing is stored.  A[:, pivots] @ E == I (mod q) makes every
        coset representative a solution, and A @ b == 0 (mod q) for the
        basis's first column b: the pivot check alone passes another matrix
        with the same pivot columns, such as another identity's F'_ID under
        the same A'."""
        n = self.elim.shape[0]
        if q != self.q or a.shape != (n, self.basis.shape[0]) or not np.array_equal(
            mat_mul(a[:, self.pivots], self.elim, q), np.eye(n, dtype=np.int64)
        ) or mat_mul(a, self.basis[:, :1], q).any():
            raise KeyMismatch("the trapdoor basis belongs to another public matrix")

    def sigma_floor(self, slack: float) -> float:
        """The walk's threshold: the Gram-Schmidt norm times slack."""
        return self.prep.gs_norm * slack

    def preimages(self, a: np.ndarray, targets: np.ndarray, q: int, sigma: float,
                  rng: RandomSource) -> np.ndarray:
        """The walk's preimages c - B @ z of the n x k targets under A (which
        sample_left has checked, require): c holds y = center_rep(E @ targets)
        on the pivot rows, so y is added to -B @ z there.

        With more than one CPU, B @ z is formed while the walk runs, on a
        worker thread this call starts and joins before it returns or
        raises (_ProductBehindWalk); on one CPU, or when that product
        cannot be certified exact, after the walk by exact_int_matmul.
        The preimages are the same either way."""
        prep = self.prep
        y = center_rep(mat_mul(self.elim, targets, q), q)
        proj = self.proj @ y
        e = None
        if _cpus() > 1:
            product = _ProductBehindWalk(self.basis, proj.shape)
            try:
                z = klein_coefficients(prep, sigma, proj, rng, on_block=product.rows_done)
            except BaseException:
                product.abandon()
                raise
            e = product.result()
        else:
            z = klein_coefficients(prep, sigma, proj, rng)
        if e is None:
            e = exact_int_matmul(self.basis, z)
        np.negative(e, out=e)
        e[self.pivots] += y
        # The walk leaves at most 1/2 + TAIL_CUT*sigma/gs_j per orthogonalized
        # direction, so anything far beyond this bound means numerical corruption.
        cap = 2.0 * math.sqrt(prep.dim) * (0.5 * prep.gs_norm + TAIL_CUT * sigma)
        if _magnitude(e) > cap:
            raise SamplingError("preimage walk produced an implausibly long vector")
        return e


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        return os.cpu_count() or 1


class _ProductBehindWalk:
    """B @ z for a walk's coefficients z, formed on a worker thread while
    the walk (samplers.klein_coefficients, bottom-up) still draws z.

    rows_done is the walk's on_block hook: rows lo: of its float64 z are
    final.  The worker multiplies every row finished since its last chunk
    in one np.matmul into a buffer and adds that to the total.  Both
    buffers are allocated here, by the caller, and the worker calls numpy
    only, so nothing it runs is traced or allocates an output.  Each chunk
    is exact in float64 while max|B| * max|z_chunk| * rows, summed over the
    chunks, stays below 2**53: then every partial sum, in any order, is an
    integer of smaller magnitude.  A chunk past that stops the worker, and
    result() returns None for the caller to multiply exactly instead.
    """

    def __init__(self, basis: np.ndarray, shape: tuple):
        self._basis = basis
        self._total, self._part = np.zeros(shape), np.empty(shape)
        self._exact = True
        self._error = None
        self._cond = threading.Condition(threading.Lock())
        self._ready = shape[0]      # rows ready: ready..d-1
        self._z = None
        self._stop = False
        self._thread = threading.Thread(target=self._run, name="walk-product", daemon=True)
        self._thread.start()

    def rows_done(self, lo: int, z: np.ndarray) -> None:
        with self._cond:
            self._ready, self._z = lo, z
            self._cond.notify()

    def abandon(self) -> None:
        """Stop the worker (the walk raised) and wait for it."""
        with self._cond:
            self._stop = True
            self._cond.notify()
        self._thread.join()

    def result(self) -> np.ndarray | None:
        """Wait for the worker once the walk has returned: B @ z as int64, or
        None if the product could not be certified exact.  An exception
        raised on the worker is raised here."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._total.astype(np.int64) if self._exact else None

    def _run(self) -> None:
        try:
            b = self._basis
            b_max, bound = max(int(b.max()), -int(b.min())), 0
            done = self._total.shape[0]      # rows multiplied: done..d-1
            while done:
                with self._cond:
                    while self._ready == done and not self._stop:
                        self._cond.wait()
                    if self._stop:
                        return
                    lo, z = self._ready, self._z
                chunk = z[lo:done]
                bound += b_max * int(np.abs(chunk).max()) * (done - lo)
                if bound >= _FLOAT_EXACT:
                    self._exact = False
                    return
                np.matmul(b[:, lo:done], chunk, out=self._part)
                self._total += self._part
                done = lo
        except BaseException as exc:       # raised again on the caller's thread
            self._error = exc


class GadgetTrapdoor:
    """A master trapdoor (Rbar, q): A @ W == G (mod q) for
    A = [Abar | G - Abar*Rbar] and W = [Rbar; I], whatever Abar.

    It samples by SampleD (Micciancio-Peikert, EUROCRYPT 2012, 5.4): a
    preimage of u at width sigma is x = p + W @ z, p a continuous Gaussian
    with parameter matrix c*I - s_G^2 W W^T, c = SAMPLE_D_MARGIN *
    (s_G * s1(W))^2, rounded at width r = sqrt(sigma^2 - c) (Peikert,
    CRYPTO 2010), and z the walk's preimage of u - A @ p under G at width
    s_G over S_G = I_n (x) S_k.  G = I_n (x) g^T and S_G are block
    diagonal, so each of the n rows of u - A @ p is an independent walk
    over S_k under the gadget row g^T: the n blocks are walked as n times
    the lanes of one k-row walk over S_k, not as one nk-row walk.  The
    eigendecomposition of W^T W, and S_k's TrapdoorBasis of g^T (one
    k x k QR), are built here; nothing is built later, so there is no
    lock.  sample_left checks A before each draw (require).

    Rbar is held through zqlinalg.frozen_array: a loaded master key's as
    the read-only view of its file's bytes, any other as a read-only copy.
    G has n = nk / k rows for Rbar's width nk; a width that is no multiple
    of k raises ParameterError.
    """

    def __init__(self, r_bar, q: int):
        self.q = check_modulus(q)
        self.r_bar = frozen_array(r_bar)
        k, (m_bar, nk) = gadget_length(q), self.r_bar.shape
        if nk % k:
            raise ParameterError(f"Rbar's width {nk} is no multiple of k = {k}")
        self.dim = m_bar + nk
        self.width_g = gadget_width(nk // k, q)
        self._w = np.vstack([self.r_bar, np.eye(nk, dtype=np.int64)]).astype(np.float64)
        lam, vecs = np.linalg.eigh(self._w.T @ self._w)  # every eigenvalue >= 1
        self.s1 = math.sqrt(float(lam.max()))
        self.scale = SAMPLE_D_MARGIN * (self.width_g * self.s1) ** 2  # c
        # sqrt(c*I - s_G^2 W W^T) = sqrt(c)*I + W @ root @ W^T
        self._root = (vecs * ((np.sqrt(self.scale - self.width_g**2 * lam) - math.sqrt(self.scale)) / lam)) @ vecs.T
        self.g_row = gadget_matrix(1, q)
        self.g_trapdoor = derive_trapdoor(self.g_row, _gadget_block(q, k), q)

    def require(self, a: np.ndarray, q: int) -> None:
        """KeyMismatch unless this is a trapdoor of A for q."""
        if q != self.q:
            raise KeyMismatch(f"the trapdoor is for modulus {self.q}, not {q}")
        require_gadget_trapdoor(a, self.r_bar, q)

    def sigma_floor(self, slack: float) -> float:
        """SampleD's threshold (sample_d_floor)."""
        return sample_d_floor(self.width_g * self.s1, slack)

    def perturbation(self, g: np.ndarray) -> np.ndarray:
        """sqrt(c*I - s_G^2 W W^T) @ g for a dim x k float matrix g, in place of g."""
        h = self._w @ (self._root @ (self._w.T @ g))
        g *= math.sqrt(self.scale)
        g += h
        return g

    def g_preimages(self, v: np.ndarray, rng: RandomSource) -> np.ndarray:
        """The walk's preimages of the n x cols residues v under G at width
        s_G, in the walk's order: row i of v is G's block i, lanes i*cols to
        (i + 1)*cols - 1 of one walk over S_k under g^T, so columns i*cols
        to (i + 1)*cols - 1 of the k x n*cols result are rows i*k to
        i*k + k - 1 of the nk x cols preimage z under G."""
        return self.g_trapdoor.preimages(self.g_row, v.reshape(1, -1), self.q, self.width_g, rng)

    def preimages(self, a: np.ndarray, targets: np.ndarray, q: int, sigma: float,
                  rng: RandomSource) -> np.ndarray:
        """SampleD's preimages of the n x k targets under A, which sample_left
        has checked (require), sigma cleared."""
        p = self.perturbation(rng.normal(1.0 / math.sqrt(2.0 * math.pi), (self.dim, targets.shape[1])))
        x = sample_z_gaussian_batch(math.sqrt(sigma * sigma - self.scale), p.reshape(-1), rng).reshape(p.shape)
        del p
        z = self.g_preimages((targets - mat_mul(a, x, q)) % q, rng)
        # x += [Rbar; I] @ z as the walk left z: row j*n + i of
        # z.reshape(nk, cols) is row i*k + j of the preimage under G (digit
        # j of block i), so Rbar's columns are taken in that order, and x's
        # identity rows, viewed as (n, k, cols), add z viewed as (k, n, cols)
        (m_bar, nk), k, cols = self.r_bar.shape, z.shape[0], targets.shape[1]
        walk_order = np.arange(nk).reshape(-1, k).T.reshape(-1)
        x[:m_bar] += exact_int_matmul(self.r_bar[:, walk_order], z.reshape(nk, cols))
        identity_rows = x[m_bar:].reshape(-1, k, cols)
        identity_rows += z.reshape(k, -1, cols).transpose(1, 0, 2)
        return x


def _require_trapdoor(t) -> TrapdoorBasis | GadgetTrapdoor:
    if not isinstance(t, (TrapdoorBasis, GadgetTrapdoor)):
        raise TypeError(f"trapdoor must be a TrapdoorBasis or GadgetTrapdoor, got {type(t).__name__}")
    return t


# ---------------------------------------------------------------------------
# Preimage sampling
# ---------------------------------------------------------------------------


def sample_left(a, m_block, t_a, u, q: int, sigma: float, rng: RandomSource, *, enforce_sigma: bool = True) -> np.ndarray:
    """Preimages E of the n x k targets U for the concatenation (A | M), using a trapdoor for A.

    The M-side coordinates are drawn independently Gaussian, then the
    A-side is completed by trapdoor preimage sampling of the residual
    targets: SampleD for a GadgetTrapdoor, the walk for a TrapdoorBasis.
    (A|M) @ E == U (mod q) is checked on every column before E is
    returned.  An empty M block gives plain preimages under A.  A sigma
    below the trapdoor's threshold (its sigma_floor) raises SamplingError:
    SampleD's always, a basis's (its Gram-Schmidt norm times
    slack_factor) only with enforce_sigma.  A trapdoor of another matrix
    raises KeyMismatch before any draw.
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
    slack = slack_factor(a.shape[1] + m_block.shape[1])
    floor = td.sigma_floor(slack)
    if sigma < floor and (enforce_sigma or isinstance(td, GadgetTrapdoor)):
        raise SamplingError(f"sigma = {sigma:.6g} is below the sampling threshold {floor:.6g} (slack {slack})")
    td.require(a, q)
    n_cols = u.shape[1]
    e_m = sample_z_gaussian_batch(
        sigma, np.zeros(m_block.shape[1] * n_cols), rng
    ).reshape(m_block.shape[1], n_cols)
    residual = (u - mat_mul(m_block, e_m, q)) % q
    e = np.vstack([td.preimages(a, residual, q, sigma, rng), e_m])
    if not np.array_equal(mat_mul(concat_cols([a, m_block]), e, q), u):
        raise SamplingError("sample_left congruence self-check failed")
    return e


def _basis_from_preimages(sampler, f: np.ndarray, q: int) -> tuple[TrapdoorBasis, np.ndarray]:
    """Assemble a nonsingular basis from one batch of Gaussian preimages of
    zero under F (n x dim).

    ``sampler(dim)`` returns dim preimages of zero, then any further
    columns, which come back untouched next to the basis.  The dim
    columns are certified nonsingular by factoring them (derive_trapdoor,
    whose QR must clear zqlinalg.qr_singularity_bound), and the basis
    keeps that factorization with its pivots, E and P under F.  A batch
    that fails it raises SamplingError (extract draws the whole key again).
    """
    dim = f.shape[1]
    batch = sampler(dim)
    # both parts are copied, the basis at int32, and the batch dropped, so
    # that nothing keeps the whole batch alive through the QR
    basis, rest = int32_matrix(batch[:, :dim], "trapdoor basis"), batch[:, dim:].copy()
    del batch
    try:
        return derive_trapdoor(f, basis, q), rest
    except SingularMatrix:
        raise SamplingError("could not certify the preimages as a full-rank basis") from None


def sample_basis_left(a, m_block, t_a, u, q: int, sigma: float,
                      rng: RandomSource) -> tuple[TrapdoorBasis, np.ndarray]:
    """Short basis of the nullspace lattice of F = (A | M) from a trapdoor for A,
    and preimages E of the columns of u (n x t) under F.

    One sample_left call covers the zero targets the basis is
    assembled from and u's columns, so the preimages cost no draw of their
    own.  Returns (basis, E): the basis is certified nonsingular by its
    own factorization, which it keeps with its pivots, E and P under F (see
    _basis_from_preimages).  Both are columns of the sample_left batch,
    which checked F @ basis == 0 and F @ E == u (mod q) on every column.
    A batch with no certified basis raises SamplingError.
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

    return _basis_from_preimages(sampler, f, q)
