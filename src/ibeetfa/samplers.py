"""Randomness sources and the samplers beneath trapdoor.sample_left.

One-dimensional discrete Gaussians (sample_z_gaussian_batch) are exact
on the support cut at 12*sigma: below sigma = 2 by inverse-CDF
enumeration, from sigma = 2 on by rejection from a rounded, slightly
wider continuous Gaussian (_sample_z_reject), which keeps 0.57 of its
proposals at sigma = 2 and nearly all at the walks' sigmas.  Lattice
Gaussians are the randomized-nearest-plane walk of klein_coefficients
over the R factor that prepare_basis keeps of a basis (or adopt_r_factor
takes over, checked, from a key file); no Q is ever formed.  A walk
takes the projections Q^T t of its d x k targets (one walk per column),
which prepare_basis gives for coset representatives t = W @ y, W a d x n
0/1 matrix that puts y on n pivot rows, by applying the QR's Householder
reflectors to W once per basis (trapdoor.TrapdoorBasis keeps the result
P, not W).  The same QR's |R_kk| are the basis's Gram-Schmidt norms
(PreparedBasis.gs_norms; zqlinalg.gram_schmidt_norm takes their maximum
from the same certified QR).  Encryption's noise and small matrices are
drawn here too.

The density convention throughout is rho(x) = exp(-pi*|x - c|^2 / sigma^2),
so a 1-D sample has standard deviation about sigma/sqrt(2*pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SamplingError, SingularMatrix
from .zqlinalg import certified_r_factor, int_array, qr_singularity_bound

#: Both 1-D samplers draw D_{Z, sigma, c} exactly on |x - c| <= TAIL_CUT * sigma;
#: the discarded mass is below 2**-100 for every sigma.
TAIL_CUT = 12.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Bound on the sum of squares of one call's centers (see sample_z_gaussian_batch).
_CENTER_SQUARES = 2.0**104


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


@functools.lru_cache(maxsize=None)
def _enum_offsets(w: int) -> np.ndarray:
    """The column of offsets -w..w that _sample_z_enum adds to round(c),
    read-only.  w = ceil(TAIL_CUT * sigma) <= 24 below sigma = 2, so the
    cache holds at most 24 columns."""
    offsets = np.arange(-w, w + 1, dtype=np.float64)[:, None]
    offsets.setflags(write=False)
    return offsets


def _sample_z_enum(sigma: float, centers: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Inverse-CDF enumeration over round(c) + [-w, w]; exact for small sigma.

    The weights are rho(x)/rho(round(c)): round(c) is the integer nearest
    c, so no offset has a larger log-weight (a tie has the same one), and
    subtracting that row needs no reduction over the window.  The lane
    takes round(c) - w plus the number of partial sums at or below
    u = r * total, r < 1, so u < total and the last sum never counts.
    """
    w = max(1, math.ceil(TAIL_CUT * sigma))
    base = np.rint(centers)
    # base + offset in float64 rounds the exact sum once, as converting the
    # int64 sum did, so dev keeps its bits
    dev = (base + _enum_offsets(w)) - centers
    logw = -(math.pi / (sigma * sigma)) * dev * dev
    logw -= logw[w]
    weights = np.exp(logw)
    out = base.astype(np.int64) - w
    if w == 1:
        # three rows, half of a key basis's walk at toy: cumsum's two adds
        # and the count, row by row, cost less than the axis calls
        low = weights[0]
        mid = low + weights[1]
        u = rng.random(centers.shape[0]) * (mid + weights[2])
        return out + (u >= low) + (u >= mid)
    cdf = np.cumsum(weights, axis=0)
    u = rng.random(centers.shape[0]) * cdf[-1]
    return out + (u >= cdf[:-1]).sum(axis=0)


def _sample_z_reject(sigma: float, centers: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Rejection from a rounded continuous Gaussian, exact on the cut support.

    Per lane, with delta = c - round(c): v has density exp(-pi*v^2/sp2),
    sp2 = (1 + eps)*sigma^2, x = rint(delta + v) and d = x - delta.  As
    |d - v| <= 1/2, d^2/sigma^2 - v^2/sp2 >= -(d - v)^2/(eps*sigma^2) >= -1/(4*eps*sigma^2),
    so x is kept with probability exp(pi*v^2/sp2 - pi*d^2/sigma^2 - log_m) <= 1,
    log_m = pi/(4*eps*sigma^2) = sqrt(2*pi)/(4*sigma), if |d| <= TAIL_CUT*sigma;
    each integer's bin of v has length 1, so kept x are exact.  eps = sqrt(pi/2)/sigma
    maximizes the acceptance (1 + eps)^-1/2 * exp(-log_m): 0.57 at sigma = 2,
    above 0.999 from 2,700.  A round draws normals, then uniforms, per pending lane.

    The first round runs over every lane with no gather; only its refused
    lanes are gathered, and they alone take the later rounds.  No lanes
    draw nothing.
    """
    if not centers.size:
        return np.empty(0, dtype=np.int64)
    out, kept = _reject_round(sigma, centers, rng)
    pending = np.flatnonzero(~kept)
    while pending.size:
        drawn, kept = _reject_round(sigma, centers[pending], rng)
        out[pending[kept]] = drawn[kept]
        pending = pending[~kept]
    return out


def _reject_round(sigma: float, centers: np.ndarray, rng: RandomSource):
    """One round of _sample_z_reject over every lane of centers: (round(c) + x
    as int64, whether x is kept), in at most four 8-byte arrays a lane at a
    time besides centers.

    Each buffer is reused as soon as its value is spent, and every float is
    the one the plain expressions give: (inv_s2*|d|)*|d| equals
    (inv_s2*d)*d bit for bit, as a sign change is exact.
    """
    eps = math.sqrt(math.pi / 2.0) / sigma
    inv_s2, inv_sp2, log_m = math.pi / sigma**2, math.pi / ((1.0 + eps) * sigma**2), _SQRT_2PI / (4.0 * sigma)
    x = np.rint(centers)
    d = centers - x                                   # delta = c - round(c)
    out = x.astype(np.int64)
    v = rng.normal(sigma * math.sqrt(1.0 + eps) / _SQRT_2PI, centers.shape[0])
    np.add(d, v, out=x)
    np.rint(x, out=x)
    np.subtract(x, d, out=d)                          # d = x - delta
    np.add(out, x, out=out, dtype=np.int64, casting="unsafe")
    np.abs(d, out=d)
    kept = d <= TAIL_CUT * sigma
    np.multiply(v, inv_sp2, out=x)
    x *= v
    np.multiply(d, inv_s2, out=v)
    v *= d
    x -= v
    x -= log_m                                        # the log of the acceptance
    del v, d
    u = rng.random(centers.shape[0])
    kept &= np.log(u, out=u) < x
    return out, kept


def sample_z_gaussian_batch(sigma: float, centers, rng: RandomSource) -> np.ndarray:
    """Vector of independent D_{Z, sigma, c_i} samples, one per center."""
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    # one product checks every center: a sum of squares below 2**104 puts
    # each |c| below 2**52, where round(c) + offset is exact in float64 and
    # int64; a NaN or infinite center fails the comparison
    if not (0 < sigma < math.inf and centers.dot(centers) < _CENTER_SQUARES):
        raise SamplingError(f"sigma must be positive and finite and every |center| below 2**52, got sigma {sigma}")
    if sigma < 2.0:
        return _sample_z_enum(sigma, centers, rng)
    return _sample_z_reject(sigma, centers, rng)


# ---------------------------------------------------------------------------
# Lattice Gaussian (randomized nearest plane over a QR factorization)
# ---------------------------------------------------------------------------


#: Rows per block of the walk's back substitution (klein_coefficients)
#: and of the pass over R that checks a stored R factor (adopt_r_factor).
WALK_BLOCK = 64


@dataclass(frozen=True)
class PreparedBasis:
    """The R factor of a column basis, reused across many sampling calls.

    No Q is formed or kept: a walk needs only R and the projections Q^T t
    of its targets, which a trapdoor.TrapdoorBasis holds as P = Q^T W
    (prepare_basis).
    Only the upper triangle of R is kept, row after row, which halves its
    memory: a key holds this data for as long as it lives.  The basis
    itself is held by its trapdoor.TrapdoorBasis.
    """

    r_rows: np.ndarray         # float64, R[0, 0:], R[1, 1:], ... end to end
    gs_norms: np.ndarray       # |diag(R)|, the Gram-Schmidt norms

    @property
    def dim(self) -> int:
        return self.gs_norms.shape[0]

    def r_row(self, k: int) -> np.ndarray:
        """R[k, k:], a view into r_rows."""
        d = self.dim
        start = k * d - k * (k - 1) // 2
        return self.r_rows[start : start + d - k]

    @property
    def gs_norm(self) -> float:
        return float(self.gs_norms.max())

    def _r_block(self, lo: int, hi: int) -> np.ndarray:
        """R[lo:hi, lo:], zeros below the diagonal."""
        rows = np.zeros((hi - lo, self.dim - lo))
        for i in range(hi - lo):
            rows[i, i:] = self.r_row(lo + i)
        return rows


def prepare_basis(basis, w):
    """Factor a nonsingular integer column basis for repeated sampling:
    (PreparedBasis, Q^T w) for a d x k matrix w, both from one QR.

    R comes from zqlinalg.certified_r_factor, so a basis is factored
    exactly when it is certified nonsingular: SingularMatrix otherwise.
    An int32 basis is read as it is, not copied to int64.  Q^T w applies
    the QR's Householder reflectors to w, so it is as accurate as an
    explicit Q's product and no Q is formed.  (An R-only
    Q^T w = R^-T B^T w carries the error of the computed R, which on some
    bases is many times the explicit Q's.)
    """
    b = int_array(basis)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis must be square, got {b.shape}")
    d = b.shape[0]
    # h.T holds R on and above its diagonal and reflector j's tail below it
    h, tau = certified_r_factor(b)
    proj = np.array(w, dtype=np.float64)
    for j in range(d):
        v = h[j, j + 1 :]
        s = tau[j] * (proj[j] + v @ proj[j + 1 :])
        proj[j] -= s
        proj[j + 1 :] -= np.outer(v, s)
    return PreparedBasis(np.concatenate([h[k:, k] for k in range(d)]), np.abs(np.diag(h))), proj


#: Seed of the fixed probes adopt_r_factor checks an R factor on, so the
#: check never draws from a caller's RandomSource.
_R_PROBE_SEED = 0x0B5E
_R_PROBES = 4


def adopt_r_factor(basis, r_rows, proj):
    """(PreparedBasis, R^T proj) from R rows factored elsewhere (packed as in
    PreparedBasis.r_rows), checked to belong to basis in O(d^2), not O(d^3),
    and a d x k matrix proj (k may be 0).

    The check repeats the certificate of certified_r_factor on the given
    diagonal (every |R_kk| must exceed qr_singularity_bound), then compares
    |Bx| with |Rx| on a few fixed +-1 probes x, since B = QR gives
    |Bx| = |Rx| for every x.  A backward-stable QR returns the exact R
    factor of B + E with |E| at most the bound, so an honest R differs by
    at most bound * |x|; forming Bx and Rx in float64 adds less than
    another bound * |x|, which the tolerance allows.  An R from a QR run on
    another host (another LAPACK, another BLAS thread count) passes.
    B and R are read WALK_BLOCK rows at a time, so no d x d float copy of
    B is made, and an int32 basis is kept as it is.  Raises SingularMatrix
    when r_rows does not certify basis.  R^T proj is formed from the same
    blocks of R as the check, so a load that checks more against R
    (trapdoor.adopt_trapdoor) builds none of them again.
    """
    b = int_array(basis)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis must be square, got {b.shape}")
    d = b.shape[0]
    r_rows = np.asarray(r_rows, dtype=np.float64)
    if r_rows.shape != (d * (d + 1) // 2,):
        raise DimensionMismatch(f"r_rows must hold {d * (d + 1) // 2} entries, got {r_rows.shape}")
    k = np.arange(d)
    prep = PreparedBasis(r_rows, np.abs(r_rows[k * d - k * (k - 1) // 2]))
    x = RandomSource(_R_PROBE_SEED).integers(0, 2, (d, _R_PROBES)) * 2.0 - 1.0
    bx, rx, rt, norm2 = np.empty(x.shape), np.empty(x.shape), np.zeros((d, proj.shape[1])), 0.0
    for lo in range(0, d, WALK_BLOCK):
        hi = min(d, lo + WALK_BLOCK)
        rows = b[lo:hi].astype(np.float64)
        norm2 += float(np.einsum("ij,ij->", rows, rows))
        bx[lo:hi] = rows @ x
        r_block = prep._r_block(lo, hi)
        rx[lo:hi] = r_block @ x[lo:]
        rt[lo:] += r_block.T @ proj[lo:hi]
    bound = qr_singularity_bound(math.sqrt(norm2), d)
    # both comparisons are written so that a NaN fails them
    if not float(prep.gs_norms.min()) > bound:
        raise SingularMatrix("R factor does not certify the basis nonsingular")
    gap = np.abs(np.linalg.norm(bx, axis=0) - np.linalg.norm(rx, axis=0))
    if not float(gap.max()) <= 2.0 * bound * math.sqrt(d):
        raise SingularMatrix("R factor is not the basis's: |Bx| and |Rx| differ")
    return prep, rt


def klein_coefficients(prep: PreparedBasis, sigma: float, proj, rng: RandomSource) -> np.ndarray:
    """Integer coefficient matrix Z so B @ Z is a Gaussian lattice point near each target.

    proj is d x k, one column per walk: the projections Q^T t of the
    targets t onto the Gram-Schmidt directions (P @ y for a per-basis
    P = Q^T W when t = W @ y).  Column j of the result
    satisfies: B @ Z[:, j] ~ D_{L(B), sigma, t[:, j]} when sigma
    clears the Gram-Schmidt norm times the slack factor; below that the
    walk still terminates and stays lattice-exact, degrading smoothly
    toward deterministic nearest-plane rounding.

    The walk is a back substitution through R, bottom-up: Z[k] is drawn at
    sigma/|R_kk| around (proj[k] - R[k, k+1:] @ Z[k+1:]) / R_kk, one 1-D
    sampler call per row.  It is blocked by WALK_BLOCK rows, whose R rows
    are built once (PreparedBasis._r_block): the rows below a block enter
    its centers through one product R[lo:hi, hi:] @ Z[hi:].
    """
    proj = np.asarray(proj, dtype=np.float64)
    d = prep.dim
    if proj.ndim != 2 or proj.shape[0] != d:
        raise DimensionMismatch(f"projections must be {d} x k, got shape {proj.shape}")
    # row k draws at sigma/|R_kk|, taken for every row at once
    row_sigmas = (sigma / prep.gs_norms).tolist()
    # float64 holds a walk's coefficients exactly (they stay far below
    # 2**53) and avoids an int-to-float copy of the tail on every step
    z = np.zeros((d, proj.shape[1]), dtype=np.float64)
    for hi in range(d, 0, -WALK_BLOCK):
        lo = max(0, hi - WALK_BLOCK)
        rows = prep._r_block(lo, hi)
        shifted = proj[lo:hi]
        if hi < d:
            shifted = shifted - rows[:, hi - lo :] @ z[hi:]
        for i in range(hi - lo - 1, -1, -1):
            centers = (shifted[i] - rows[i, i + 1 : hi - lo] @ z[lo + i + 1 : hi]) / rows[i, i]
            z[lo + i] = sample_z_gaussian_batch(row_sigmas[lo + i], centers, rng)
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


#: Set bits of each byte value (numpy 1.24, the oldest numpy this package
#: supports, has no bitwise_count).
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def sample_sign_sum(ell: int, m: int, rng: RandomSource) -> np.ndarray:
    """m x m matrix whose entries are i.i.d. sums of ell uniform +-1 signs.

    Each entry is 2*popcount(b) - ell for ell uniform bits b, all taken
    from one rng.bytes draw of ceil(ell/8) byte planes; the last plane
    keeps its top ell - 8*(planes - 1) bits.
    """
    if ell < 1 or m < 1:
        raise DimensionMismatch(f"need ell, m >= 1, got ell={ell} m={m}")
    planes = np.frombuffer(rng.bytes(-(-ell // 8) * m * m), dtype=np.uint8).reshape(-1, m, m)
    ones = _POPCOUNT[planes[-1] >> (8 * planes.shape[0] - ell)]
    for plane in planes[:-1]:
        ones += _POPCOUNT[plane]
    ones *= 2
    ones -= ell
    return ones


def sample_bounded_matrix(ell: int, m: int, rng: RandomSource) -> np.ndarray:
    """m x m matrix with i.i.d. uniform entries in [-ell, ell]."""
    if ell < 1 or m < 1:
        raise DimensionMismatch(f"need ell, m >= 1, got ell={ell} m={m}")
    return rng.integers(-ell, ell + 1, (m, m))


def sample_uniform_zq(rows: int, cols: int, q: int, rng: RandomSource) -> np.ndarray:
    """rows x cols matrix with i.i.d. uniform residues in [0, q)."""
    return rng.integers(0, int(q), (rows, cols))
