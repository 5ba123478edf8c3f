"""Randomness sources and the samplers beneath trapdoor.sample_left.

One-dimensional discrete Gaussians (sample_z_gaussian_batch) use a
bilateral-geometric rejection sampler with the tail cut at 12*sigma;
below sigma = 2 the support is so small that direct inverse-CDF
enumeration over the (at most ~50) candidate integers is both faster and
immune to the pathological rejection rates a geometric envelope has at
half-integer centers.  Lattice Gaussians are the randomized-nearest-plane
walk of klein_coefficients over the R factor that prepare_basis keeps of
a basis (or adopt_r_factor takes over, checked, from a key file); no Q
is ever formed.  A walk takes the projections Q^T t of its d x k targets
(one walk per column), which PreparedBasis.project computes from R and
the basis.  Encryption's noise and small matrices are drawn here too.

The density convention throughout is rho(x) = exp(-pi*|x - c|^2 / sigma^2),
so a 1-D sample has standard deviation about sigma/sqrt(2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SamplingError, SingularMatrix
from .zqlinalg import certified_r_factor, qr_singularity_bound

#: Rejection/enumeration tails are cut at TAIL_CUT * sigma; the discarded
#: mass is below 2**-100 for every sigma.
TAIL_CUT = 12.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def slack_factor(dim) -> int:
    """Concrete stand-in for the omega(sqrt(log dim)) slack: ceil(sqrt(log2 dim)) + 1."""
    dim = int(dim)
    if dim < 2:
        return 2
    return math.ceil(math.sqrt(math.log2(dim))) + 1


class RandomSource:
    """Seedable deterministic randomness for every sampler.

    A thin wrapper over numpy's PCG64 so that (params, seed) fully pins
    every artifact the library produces.  The seed is an int, a hex
    string or bytes.  Single-owner mutable state: use one source per
    execution context.
    """

    def __init__(self, seed):
        if isinstance(seed, str):
            seed = int.from_bytes(bytes.fromhex(seed), "big") if seed else 0
        elif isinstance(seed, (bytes, bytearray)):
            seed = int.from_bytes(bytes(seed), "big")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))

    def integers(self, low, high, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def random(self, size=None):
        return self._gen.random(size=size)

    def normal(self, scale, size=None):
        return self._gen.normal(0.0, scale, size=size)

    def bytes(self, n: int) -> bytes:
        return self._gen.bytes(n)


# ---------------------------------------------------------------------------
# 1-D discrete Gaussian
# ---------------------------------------------------------------------------


def _sample_z_enum(sigma: float, centers: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Inverse-CDF enumeration over round(c) + [-w, w]; exact for small sigma."""
    w = max(1, math.ceil(TAIL_CUT * sigma))
    base = np.rint(centers).astype(np.int64)
    offsets = np.arange(-w, w + 1, dtype=np.int64)
    # weights[i, j] = rho(base_j + offsets_i)
    dev = (base[None, :] + offsets[:, None]) - centers[None, :]
    logw = -(math.pi / (sigma * sigma)) * dev * dev
    logw -= logw.max(axis=0, keepdims=True)
    weights = np.exp(logw)
    cdf = np.cumsum(weights, axis=0)
    u = rng.random(centers.shape[0]) * cdf[-1]
    idx = (u[None, :] >= cdf).sum(axis=0)
    return base + offsets[idx]


def _propose(sigma: float, delta: np.ndarray, tries: int, rng: RandomSource):
    """``tries`` proposals per lane: (accepted?, first accepted offset) per lane.

    The three uniforms of a proposal are consecutive (tries, lanes) blocks
    of the stream, drawn as they are needed and dropped on return, so
    fewer lane-sized temporaries are alive at once.
    """
    log_r = -_SQRT_2PI / sigma
    # Envelope constant: sup over integers of target/proposal for |delta| <= 1/2
    # is exp(1/2 + sqrt(2*pi)/(2*sigma)) * 2; anything smaller clips acceptance.
    log_m = math.log(2.0) + 0.5 + _SQRT_2PI / (2.0 * sigma)
    k = np.floor(np.log(rng.random((tries, delta.size))) / log_r)
    x = np.where(rng.random(k.shape) < 0.5, k, -k)
    d = x - delta
    log_accept = (
        -(math.pi / (sigma * sigma)) * d * d - k * log_r - log_m
        - np.where(k > 0, math.log(0.5), 0.0)
    )
    del k
    ok = (np.log(rng.random(d.shape)) < log_accept) & (np.abs(d) <= TAIL_CUT * sigma)
    return ok.any(axis=0), x[ok.argmax(axis=0), np.arange(delta.size)]


def _sample_z_reject(sigma: float, centers: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Bilateral-geometric rejection around round(c), rate sqrt(2*pi)/sigma.

    Each round draws several proposals per still-pending lane at once,
    which keeps the number of numpy passes small even though single
    proposals are only accepted with probability ~1/2.
    """
    base = np.rint(centers).astype(np.int64)
    delta = centers - base
    out = np.zeros(centers.shape[0], dtype=np.int64)
    pending = np.arange(centers.shape[0])
    tries = 1  # one proposal per lane first, then oversample the stragglers
    while pending.size:
        hit, chosen = _propose(sigma, delta[pending], tries, rng)
        lanes = pending[hit]
        out[lanes] = base[lanes] + chosen[hit].astype(np.int64)
        pending = pending[~hit]
        tries = 6
    return out


def sample_z_gaussian_batch(sigma: float, centers, rng: RandomSource) -> np.ndarray:
    """Vector of independent D_{Z, sigma, c_i} samples, one per center."""
    if not sigma > 0:
        raise SamplingError(f"sigma must be positive, got {sigma}")
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    if sigma < 2.0:
        return _sample_z_enum(sigma, centers, rng)
    return _sample_z_reject(sigma, centers, rng)


# ---------------------------------------------------------------------------
# Lattice Gaussian (randomized nearest plane over a QR factorization)
# ---------------------------------------------------------------------------


#: Rows per block of the nearest-plane walk (see klein_coefficients) and of
#: PreparedBasis.project.
WALK_BLOCK = 64


@dataclass
class PreparedBasis:
    """The R factor of a column basis, reused across many sampling calls.

    No Q is formed or kept: a walk needs only R and the projections Q^T t
    of its targets, and project computes those from R and the basis.
    Only the upper triangle of R is kept, row after row, which halves its
    memory: a key holds this data for as long as it lives.
    """

    basis: np.ndarray          # int64, d x d, columns are basis vectors
    r_rows: np.ndarray         # float64, R[0, 0:], R[1, 1:], ... end to end
    gs_norms: np.ndarray       # |diag(R)|, the Gram-Schmidt norms

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def r_row(self, k: int) -> np.ndarray:
        """R[k, k:], a view into r_rows."""
        d = self.dim
        start = k * d - k * (k - 1) // 2
        return self.r_rows[start : start + d - k]

    @property
    def gs_norm(self) -> float:
        return float(self.gs_norms.max())

    def project(self, t) -> np.ndarray:
        """Q^T t = R^-T (B^T t) for a d x k matrix t, without Q.

        B^T t holds far larger entries than Q^T t whenever R has large
        entries above its diagonal, so the plain solve loses digits to
        cancellation; one correction step with the residual
        t - B R^-1 p (the corrected seminormal equations) leaves only the
        rounding error of the computed R itself, which an explicit Q
        carries too.
        """
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 2 or t.shape[0] != self.dim:
            raise DimensionMismatch(f"t must be {self.dim} x k, got shape {t.shape}")
        bf = self.basis.astype(np.float64)
        p = self._solve_rt(bf.T @ t)
        return p + self._solve_rt(bf.T @ (t - bf @ self._solve_r(p)))

    def _r_block(self, lo: int, hi: int) -> np.ndarray:
        """R[lo:hi, lo:], zeros below the diagonal."""
        rows = np.zeros((hi - lo, self.dim - lo))
        for i in range(hi - lo):
            rows[i, i:] = self.r_row(lo + i)
        return rows

    def _solve_rt(self, g: np.ndarray) -> np.ndarray:
        """R^-T g by forward substitution, blocked like the walk but top-down:
        the rows of a block are solved in order, then the block updates every
        row below it through one product R[lo:hi, hi:]^T @ p[lo:hi]."""
        d, p = self.dim, g.copy()
        for lo in range(0, d, WALK_BLOCK):
            hi = min(d, lo + WALK_BLOCK)
            rows = self._r_block(lo, hi)
            for i in range(hi - lo):
                p[lo + i] = (p[lo + i] - rows[:i, i] @ p[lo : lo + i]) / rows[i, i]
            if hi < d:
                p[hi:] -= rows[:, hi - lo :].T @ p[lo:hi]
        return p

    def _solve_r(self, p: np.ndarray) -> np.ndarray:
        """R^-1 p by back substitution, blocked bottom-up like the walk."""
        d, x = self.dim, p.copy()
        for hi in range(d, 0, -WALK_BLOCK):
            lo = max(0, hi - WALK_BLOCK)
            rows = self._r_block(lo, hi)
            if hi < d:
                x[lo:hi] -= rows[:, hi - lo :] @ x[hi:]
            for i in range(hi - lo - 1, -1, -1):
                x[lo + i] = (x[lo + i] - rows[i, i + 1 : hi - lo] @ x[lo + i + 1 : hi]) / rows[i, i]
        return x


def prepare_basis(basis) -> PreparedBasis:
    """Factor a nonsingular integer column basis for repeated sampling.

    R comes from zqlinalg.certified_r_factor, so a basis is factored
    exactly when it is certified nonsingular: SingularMatrix otherwise.
    """
    b = np.asarray(basis, dtype=np.int64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis must be square, got {b.shape}")
    r_factor = certified_r_factor(b)
    r_rows = np.concatenate([r_factor[k, k:] for k in range(b.shape[0])])
    return PreparedBasis(b, r_rows, np.abs(np.diag(r_factor)))


#: Seed of the fixed probes adopt_r_factor checks an R factor on, so the
#: check never draws from a caller's RandomSource.
_R_PROBE_SEED = 0x0B5E
_R_PROBES = 4


def adopt_r_factor(basis, r_rows) -> PreparedBasis:
    """A PreparedBasis from R rows factored elsewhere (packed as in
    PreparedBasis.r_rows), checked to belong to basis in O(d^2), not O(d^3).

    The check repeats the certificate of certified_r_factor on the given
    diagonal (every |R_kk| must exceed qr_singularity_bound), then compares
    |Bx| with |Rx| on a few fixed +-1 probes x, since B = QR gives
    |Bx| = |Rx| for every x.  A backward-stable QR returns the exact R
    factor of B + E with |E| at most the bound, so an honest R differs by
    at most bound * |x|; forming Bx and Rx in float64 adds less than
    another bound * |x|, which the tolerance allows.  An R from a QR run on
    another host (another LAPACK, another BLAS thread count) passes.
    B and R are read WALK_BLOCK rows at a time, so no d x d float copy of
    B is made.  Raises SingularMatrix when r_rows does not certify basis.
    """
    b = np.asarray(basis, dtype=np.int64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis must be square, got {b.shape}")
    d = b.shape[0]
    r_rows = np.asarray(r_rows, dtype=np.float64)
    if r_rows.shape != (d * (d + 1) // 2,):
        raise DimensionMismatch(f"r_rows must hold {d * (d + 1) // 2} entries, got {r_rows.shape}")
    k = np.arange(d)
    prep = PreparedBasis(b, r_rows, np.abs(r_rows[k * d - k * (k - 1) // 2]))
    x = RandomSource(_R_PROBE_SEED).integers(0, 2, (d, _R_PROBES)) * 2.0 - 1.0
    bx, rx, norm2 = np.empty(x.shape), np.empty(x.shape), 0.0
    for lo in range(0, d, WALK_BLOCK):
        hi = min(d, lo + WALK_BLOCK)
        rows = b[lo:hi].astype(np.float64)
        norm2 += float(np.einsum("ij,ij->", rows, rows))
        bx[lo:hi] = rows @ x
        rx[lo:hi] = prep._r_block(lo, hi) @ x[lo:]
    bound = qr_singularity_bound(math.sqrt(norm2), d)
    # both comparisons are written so that a NaN fails them
    if not float(prep.gs_norms.min()) > bound:
        raise SingularMatrix("R factor does not certify the basis nonsingular")
    gap = np.abs(np.linalg.norm(bx, axis=0) - np.linalg.norm(rx, axis=0))
    if not float(gap.max()) <= 2.0 * bound * math.sqrt(d):
        raise SingularMatrix("R factor is not the basis's: |Bx| and |Rx| differ")
    return prep


def klein_coefficients(prep: PreparedBasis, sigma: float, proj, rng: RandomSource) -> np.ndarray:
    """Integer coefficient matrix Z so B @ Z is a Gaussian lattice point near each target.

    proj is d x k, one column per walk: the projections Q^T t of the
    targets t onto the Gram-Schmidt directions (prep.project(t), or P @ y
    for a per-basis P = Q^T W when t = W @ y).  Column j of the result
    satisfies: B @ Z[:, j] ~ D_{L(B), sigma, t[:, j]} when sigma
    clears the Gram-Schmidt norm times the slack factor; below that the
    walk still terminates and stays lattice-exact, degrading smoothly
    toward deterministic nearest-plane rounding.

    The rows are walked bottom-up in blocks of WALK_BLOCK: the rows already
    sampled below a block enter its centers through one product
    R[lo:hi, hi:] @ Z[hi:], and inside the block each row subtracts the
    rows below it within the block.  The 1-D sampler calls, their order
    and the random stream are those of a row-by-row walk.
    """
    proj = np.asarray(proj, dtype=np.float64)
    d = prep.dim
    if proj.ndim != 2 or proj.shape[0] != d:
        raise DimensionMismatch(f"projections must be {d} x k, got shape {proj.shape}")
    # float64 holds the coefficients exactly (they stay far below 2**53)
    # and avoids an int-to-float copy of the tail on every step
    z = np.zeros((d, proj.shape[1]), dtype=np.float64)
    for hi in range(d, 0, -WALK_BLOCK):
        lo = max(0, hi - WALK_BLOCK)
        shifted = proj[lo:hi]
        if hi < d:
            r_below = np.stack([prep.r_row(k)[hi - k :] for k in range(lo, hi)])
            shifted = shifted - r_below @ z[hi:]
        for k in range(hi - 1, lo - 1, -1):
            r = prep.r_row(k)
            centers = (shifted[k - lo] - r[1 : hi - k] @ z[k + 1 : hi]) / r[0]
            z[k] = sample_z_gaussian_batch(sigma / abs(float(r[0])), centers, rng)
    return z.astype(np.int64)


# ---------------------------------------------------------------------------
# LWE noise and the small random matrices used by encryption
# ---------------------------------------------------------------------------


def sample_psi_bar(alpha: float, q: int, rng: RandomSource, size=None):
    """Rounded-Gaussian noise: round(q * X) mod q, X normal with sd alpha/sqrt(2*pi)."""
    if not 0.0 < alpha < 1.0:
        raise SamplingError(f"alpha must lie in (0, 1), got {alpha}")
    q = int(q)
    x = rng.normal(alpha / _SQRT_2PI, size=size)
    r = np.rint(q * x).astype(np.int64) % q
    return r if size is not None else int(r)


def sample_sign_matrix(m: int, rng: RandomSource) -> np.ndarray:
    """m x m matrix with i.i.d. uniform entries in {-1, +1}."""
    if m < 1:
        raise DimensionMismatch(f"m must be positive, got {m}")
    return rng.integers(0, 2, (m, m)) * 2 - 1


def sample_bounded_matrix(ell: int, m: int, rng: RandomSource) -> np.ndarray:
    """m x m matrix with i.i.d. uniform entries in [-ell, ell]."""
    if ell < 1 or m < 1:
        raise DimensionMismatch(f"need ell, m >= 1, got ell={ell} m={m}")
    return rng.integers(-ell, ell + 1, (m, m))


def sample_uniform_zq(rows: int, cols: int, q: int, rng: RandomSource) -> np.ndarray:
    """rows x cols matrix with i.i.d. uniform residues in [0, q)."""
    return rng.integers(0, int(q), (rows, cols))
