"""Randomness sources and the samplers beneath trapdoor.sample_left.

One-dimensional discrete Gaussians (sample_z_gaussian_batch) are exact
on the support cut at 12*sigma: below sigma = 2 by inverse-CDF
enumeration, from sigma = 2 on by rejection from a rounded, slightly
wider continuous Gaussian (_sample_z_reject), which keeps 0.57 of its
proposals at sigma = 2 and nearly all at the walks' sigmas.  A rejection
round draws one normal for every pending lane, then one uniform for
every pending lane, and then tests them REJECT_CHUNK lanes at a time
(_reject_round), so that its arithmetic runs in cache; how the lanes are
chunked moves no output and no stream position.

Lattice Gaussians are the randomized-nearest-plane walk of
klein_coefficients over the R factor that prepare_basis keeps of a basis
(or adopt_r_factor takes over, checked, from a key file), held in the
row blocks the walk reads; no Q is ever formed.  A walk takes the
projections Q^T t of its d x k targets (one walk per column), which
prepare_basis gives for coset representatives t = W @ y, W a d x n 0/1
matrix that puts y on n pivot rows, by applying the QR's Householder
reflectors to W once per basis (trapdoor.TrapdoorBasis keeps the result
P, not W).  The same QR's |R_kk| are the basis's Gram-Schmidt norms
(PreparedBasis.gs_norms; zqlinalg.gram_schmidt_norm takes their maximum
from the same certified QR).  The walk's rows below sigma = 2 draw their
uniforms a run of rows at a time, and a row whose every lane lies within
a per-lane bound (_round_bounds) of round(c) takes round(c), which is
what the enumeration would return on those uniforms, without computing
a weight: every output and the stream position are those of one
sample_z_gaussian_batch call per row.  Encryption's noise and small
matrices are drawn here too.

The density convention throughout is rho(x) = exp(-pi*|x - c|^2 / sigma^2),
so a 1-D sample has standard deviation about sigma/sqrt(2*pi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


def _sample_z_enum(sigma: float, centers: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF enumeration over round(c) + [-w, w]; exact for small sigma.

    The weights are rho(x)/rho(round(c)): round(c) is the integer nearest
    c, so no offset has a larger log-weight (a tie has the same one), and
    subtracting that row needs no reduction over the window.  The lane
    takes round(c) - w plus the number of partial sums at or below
    u = r * total, r < 1 its entry of uniforms (drawn by the caller), so
    u < total and the last sum never counts.
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
        # three rows: cumsum's two adds and the count, row by row, cost
        # less than the axis calls
        low = weights[0]
        mid = low + weights[1]
        u = uniforms * (mid + weights[2])
        return out + (u >= low) + (u >= mid)
    # the ufuncs themselves: cumsum and sum are Python wrappers around them
    cdf = np.add.accumulate(weights, axis=0)
    u = uniforms * cdf[-1]
    return out + np.add.reduce(u >= cdf[:-1], axis=0)


#: Margins of _round_bounds: relative on g, absolute on the bound.
_ROUND_MARGIN = 1e-9


def _round_bounds(sigmas: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per lane of _sample_z_enum, rows of uniforms drawn at sigmas: a bound
    t such that |c - round(c)| <= t makes the lane return round(c).

    t = (1 + ln(g/w)/kappa)/2 - 1e-9, kappa = pi/sigma^2, w = ceil(12*sigma)
    (at least 1) and g = (1 - 1e-9) * min(r, (1/r - 1)/2) for the lane's
    uniform r.  With s = c - round(c), offset j != 0 has weight
    exp(-kappa*(j^2 - 2*j*s)) <= exp(-kappa*(1 - 2|s|)), so each side's mass
    L (below) and H (above) is at most w*exp(-kappa*(1 - 2|s|)) <= g against
    the center's weight 1.  Then u = r*(L + 1 + H) >= r >= g >= L, and
    u <= r*(1 + 2g) < 1 <= L + 1: u falls in the center's interval.  The
    margins cover the float error of the weights (below 1e-12 relative)
    and of u; c - round(c) itself is exact.  r = 0 gives t = -inf.
    """
    kappa = math.pi / (sigmas * sigmas)
    w = np.maximum(1.0, np.ceil(TAIL_CUT * sigmas))
    with np.errstate(divide="ignore"):
        g = np.reciprocal(uniforms)
        g -= 1.0
        g *= 0.5
        np.minimum(g, uniforms, out=g)
        g *= (1.0 - _ROUND_MARGIN) / w[:, None]
        t = np.log(g, out=g)
    t /= kappa[:, None]
    t += 1.0
    t *= 0.5
    t -= _ROUND_MARGIN
    return t


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


#: Lanes per pass of a rejection round (_reject_round): its arithmetic runs
#: over chunks of this many lanes through scratch buffers of this length,
#: which stay in cache from one pass to the next.
REJECT_CHUNK = 1 << 13


def _reject_round(sigma: float, centers: np.ndarray, rng: RandomSource):
    """One round of _sample_z_reject over every lane of centers: (round(c) + x
    as int64, whether x is kept).

    The round draws its normals for every lane, then its uniforms for every
    lane, and then works through REJECT_CHUNK lanes at a time: each of its
    passes reads what the one before it left in cache, in three float64
    scratch rows of a chunk's length.  Full-length arrays besides
    centers are the normals and the uniforms (both overwritten in place),
    the output and the kept flags.  Every float is the one the plain
    expressions give: (inv_s2*|d|)*|d| equals (inv_s2*d)*d bit for bit, as
    a sign change is exact.
    """
    lanes = centers.shape[0]
    eps = math.sqrt(math.pi / 2.0) / sigma
    inv_s2, inv_sp2, log_m = math.pi / sigma**2, math.pi / ((1.0 + eps) * sigma**2), _SQRT_2PI / (4.0 * sigma)
    cut = TAIL_CUT * sigma
    v = rng.normal(sigma * math.sqrt(1.0 + eps) / _SQRT_2PI, lanes)
    u = rng.random(lanes)
    out, kept = np.empty(lanes, dtype=np.int64), np.empty(lanes, dtype=bool)
    x, d, t = np.empty((3, min(lanes, REJECT_CHUNK)))
    for lo in range(0, lanes, REJECT_CHUNK):
        hi = min(lanes, lo + REJECT_CHUNK)
        if hi - lo < x.shape[0]:                      # the last chunk is shorter
            x, d, t = x[: hi - lo], d[: hi - lo], t[: hi - lo]
        c, vs, us, o, k = centers[lo:hi], v[lo:hi], u[lo:hi], out[lo:hi], kept[lo:hi]
        np.rint(c, out=x)
        np.subtract(c, x, out=d)                      # delta = c - round(c)
        np.copyto(o, x, casting="unsafe")
        np.add(d, vs, out=x)
        np.rint(x, out=x)                             # the proposal x
        np.subtract(x, d, out=d)                      # d = x - delta
        np.add(o, x, out=o, dtype=np.int64, casting="unsafe")
        np.abs(d, out=d)
        np.less_equal(d, cut, out=k)
        np.multiply(vs, inv_sp2, out=x)
        x *= vs
        np.multiply(d, inv_s2, out=t)
        t *= d
        x -= t
        x -= log_m                                    # the log of the acceptance
        k &= np.log(us, out=us) < x
    return out, kept


def sample_z_gaussian_batch(sigma: float, centers, rng: RandomSource) -> np.ndarray:
    """Vector of independent D_{Z, sigma, c_i} samples, one per center."""
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    _check_lanes(sigma, centers)
    if sigma < 2.0:
        return _sample_z_enum(sigma, centers, rng.random(centers.shape[0]))
    return _sample_z_reject(sigma, centers, rng)


def _check_lanes(sigma: float, centers: np.ndarray) -> None:
    """SamplingError unless sigma is positive and finite and every |center| below 2**52.

    One product checks every center: a sum of squares below 2**104 puts
    each |c| below 2**52, where round(c) + offset is exact in float64 and
    int64; a NaN or infinite center fails the comparison.
    """
    if not (0 < sigma < math.inf and centers.dot(centers) < _CENTER_SQUARES):
        raise SamplingError(f"sigma must be positive and finite and every |center| below 2**52, got sigma {sigma}")


# ---------------------------------------------------------------------------
# Lattice Gaussian (randomized nearest plane over a QR factorization)
# ---------------------------------------------------------------------------


#: Rows per block of R as PreparedBasis holds it: the walk's back
#: substitution (klein_coefficients) and the pass that checks a stored R
#: factor (adopt_r_factor) read it a block at a time.
WALK_BLOCK = 64


def _r_bounds(d: int) -> list[tuple[int, int]]:
    """(lo, hi) for R's row blocks R[lo:hi, lo:], top down: WALK_BLOCK rows
    each, counted from the bottom row, where the walk starts, so only the
    top block may be shorter."""
    return [(max(0, hi - WALK_BLOCK), hi) for hi in range(d, 0, -WALK_BLOCK)][::-1]


def r_factor_words(d: int) -> int:
    """float64 words of the buffer that holds a d x d R factor's row blocks
    (PreparedBasis.r): R's upper triangle and the zeros below each block's
    diagonal, 32 a row more than the triangle."""
    return sum((hi - lo) * (d - lo) for lo, hi in _r_bounds(d))


def _r_blocks(r: np.ndarray, d: int) -> list[tuple[int, int, np.ndarray]]:
    """(lo, hi, view) for R's row blocks, top down, each block R[lo:hi, lo:]
    a view into the one buffer r, block after block.  One buffer, not an
    array per block: a key holds R's blocks for as long as it lives, and
    with a separate array per block a process that extracts and ships
    `toy` keys peaked 14-20% higher in RSS (heap fragmentation;
    tracemalloc's peaks were equal)."""
    out, start = [], 0
    for lo, hi in _r_bounds(d):
        stop = start + (hi - lo) * (d - lo)
        out.append((lo, hi, r[start:stop].reshape(hi - lo, d - lo)))
        start = stop
    return out


@dataclass(frozen=True)
class PreparedBasis:
    """The R factor of a column basis, reused across many sampling calls.

    No Q is formed or kept: a walk needs only R and the projections Q^T t
    of its targets, which a trapdoor.TrapdoorBasis holds as P = Q^T W
    (prepare_basis).  R is held as the walk reads it: one float64 buffer r
    of r_factor_words(d) words, the row blocks R[lo:hi, lo:] one after
    another (_r_blocks), zeros below each block's diagonal, and blocks,
    views into r made here, so no walk copies any of R.  A key file stores
    r as it is.  The basis itself is held by its trapdoor.TrapdoorBasis.
    """

    r: np.ndarray              # float64 row blocks of R, top down
    gs_norms: np.ndarray       # |diag(R)|, the Gram-Schmidt norms
    blocks: tuple = field(init=False, repr=False, compare=False)   # views into r

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(block for _, _, block in _r_blocks(self.r, self.dim)))

    @property
    def dim(self) -> int:
        return self.gs_norms.shape[0]

    @property
    def gs_norm(self) -> float:
        return float(self.gs_norms.max())


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
        proj[j + 1 :] -= v[:, None] * s
    r = np.zeros(r_factor_words(d))
    for lo, hi, block in _r_blocks(r, d):
        block[...] = h[lo:, lo:hi].T
        block[np.tril_indices(hi - lo, -1)] = 0.0
    return PreparedBasis(r, np.abs(np.diag(h))), proj


#: Seed of the fixed probes adopt_r_factor checks an R factor on, so the
#: check never draws from a caller's RandomSource.
_R_PROBE_SEED = 0x0B5E
_R_PROBES = 4


def adopt_r_factor(basis, r, proj):
    """(PreparedBasis, R^T proj, |R|_F) from R's row blocks factored
    elsewhere (the buffer PreparedBasis.r holds, as a key file stores it),
    checked to belong to basis in O(d^2), not O(d^3), and a d x k matrix
    proj (k may be 0).

    The check first asks for zeros below each block's diagonal, then
    repeats the certificate of certified_r_factor on R's diagonal (every
    |R_kk| must exceed qr_singularity_bound), then compares |Bx| with |Rx|
    on a few fixed +-1 probes x, since B = QR gives |Bx| = |Rx| for every
    x.  A backward-stable QR returns the exact R factor of B + E with |E|
    at most the bound, so an honest R differs by at most bound * |x|;
    forming Bx and Rx in float64 adds less than another bound * |x|, which
    the tolerance allows.  An R from a QR run on another host (another
    LAPACK, another BLAS thread count) passes.  B and R are read a block
    of rows at a time, so no d x d float copy of B is made, and an int32
    basis is kept as it is.  Raises SingularMatrix when r does not
    certify basis.  The PreparedBasis holds r itself (a float64 r is not
    copied, so a read-only view of a file's bytes is kept as it is), and
    R^T proj and |R|_F are formed in the same pass over its blocks, so a
    load that checks more against R (trapdoor.adopt_trapdoor) reads none
    of them again.
    """
    b = int_array(basis)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"basis must be square, got {b.shape}")
    d = b.shape[0]
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (r_factor_words(d),):
        raise DimensionMismatch(f"R must hold {r_factor_words(d)} words, got {r.shape}")
    blocks = _r_blocks(r, d)
    gs_norms = np.abs(np.concatenate([np.diagonal(block) for _, _, block in blocks]))
    x = RandomSource(_R_PROBE_SEED).integers(0, 2, (d, _R_PROBES)) * 2.0 - 1.0
    bx, rx, rt = np.empty(x.shape), np.empty(x.shape), np.zeros((d, proj.shape[1]))
    norm2 = r_norm2 = 0.0
    for lo, hi, block in blocks:
        # written so that a NaN below the diagonal fails it
        if np.tril(block[:, : hi - lo], -1).any():
            raise SingularMatrix("R factor holds nonzeros below its diagonal")
        rows = b[lo:hi].astype(np.float64)
        norm2 += float(np.einsum("ij,ij->", rows, rows))
        r_norm2 += float(np.vdot(block, block))
        bx[lo:hi] = rows @ x
        rx[lo:hi] = block @ x[lo:]
        rt[lo:] += block.T @ proj[lo:hi]
    bound = qr_singularity_bound(math.sqrt(norm2), d)
    # both comparisons are written so that a NaN fails them
    if not float(gs_norms.min()) > bound:
        raise SingularMatrix("R factor does not certify the basis nonsingular")
    gap = np.abs(np.linalg.norm(bx, axis=0) - np.linalg.norm(rx, axis=0))
    if not float(gap.max()) <= 2.0 * bound * math.sqrt(d):
        raise SingularMatrix("R factor is not the basis's: |Bx| and |Rx| differ")
    return PreparedBasis(r, gs_norms), rt, math.sqrt(r_norm2)


def klein_coefficients(prep: PreparedBasis, sigma: float, proj, rng: RandomSource, *,
                       on_block=None) -> np.ndarray:
    """Integer coefficient matrix Z so B @ Z is a Gaussian lattice point near each target.

    proj is d x k, one column per walk: the projections Q^T t of the
    targets t onto the Gram-Schmidt directions (P @ y for a per-basis
    P = Q^T W when t = W @ y).  Column j of the result
    satisfies: B @ Z[:, j] ~ D_{L(B), sigma, t[:, j]} when sigma
    clears the Gram-Schmidt norm times the slack factor; below that the
    walk still terminates and stays lattice-exact, degrading smoothly
    toward deterministic nearest-plane rounding.

    The walk is a back substitution through R, bottom-up: Z[k] is drawn at
    sigma_k = sigma/|R_kk| around (proj[k] - R[k, k+1:] @ Z[k+1:]) / R_kk,
    over the blocks PreparedBasis holds: the rows below a block enter its
    centers through one product R[lo:hi, hi:] @ Z[hi:].  A row with
    sigma_k >= 2 is one sample_z_gaussian_batch call.  Each maximal run of
    rows below 2 draws its uniforms at once, k per row in walk order (the
    stream the per-row draws took), and gets every lane's bound from them
    in one pass (_round_bounds).  A row whose lanes all lie within their
    bounds takes round(c), which the enumeration would return, and
    computes no weight; any other row enumerates (_sample_z_enum) on its
    uniforms.  So every Z and the stream position after the walk are those
    of one sample_z_gaussian_batch call per row.  Every row's centers are
    checked as that call checks them; a walk that raises there may
    already have drawn the uniforms of its current run.

    on_block, if given, is called on the walk's thread after each block
    as on_block(lo, z): z is the walk's float64 d x k coefficient array
    (the values of Z), and its rows lo: are final, as no later step writes
    them; rows above lo are still being drawn.
    """
    proj = np.asarray(proj, dtype=np.float64)
    d = prep.dim
    if proj.ndim != 2 or proj.shape[0] != d:
        raise DimensionMismatch(f"projections must be {d} x k, got shape {proj.shape}")
    k = proj.shape[1]
    # row k draws at sigma/|R_kk|, taken for every row at once
    sigmas = sigma / prep.gs_norms
    row_sigmas = sigmas.tolist()
    rejects = np.flatnonzero(~(sigmas < 2.0))   # NaN rows too: their call raises
    # float64 holds a walk's coefficients exactly (they stay far below
    # 2**53) and avoids an int-to-float copy of the tail on every step
    z = np.zeros((d, k), dtype=np.float64)
    # each row's centers, written in place
    dot, centers, gap, outside = np.empty(k), np.empty(k), np.empty(k), np.empty(k, dtype=bool)
    top = bottom = d      # rows of the enumeration run being walked: bottom..top
    hi = d
    for block in reversed(prep.blocks):
        lo = hi - block.shape[0]
        shifted = proj[lo:hi]
        if hi < d:
            shifted = shifted - block[:, hi - lo :] @ z[hi:]
        diag = np.diagonal(block).tolist()
        for i in range(hi - lo - 1, -1, -1):
            row = lo + i
            np.matmul(block[i, i + 1 : hi - lo], z[row + 1 : hi], out=dot)
            np.subtract(shifted[i], dot, out=centers)
            np.divide(centers, diag[i], out=centers)
            row_sigma = row_sigmas[row]
            if not row_sigma < 2.0:
                z[row] = sample_z_gaussian_batch(row_sigma, centers, rng)
                continue
            if not (0.0 < row_sigma and centers.dot(centers) < _CENTER_SQUARES):
                _check_lanes(row_sigma, centers)    # raises its SamplingError
            if row < bottom:
                # a run starts: it reaches down to the next rejection row
                below = np.searchsorted(rejects, row)
                top, bottom = row, int(rejects[below - 1]) + 1 if below else 0
                uniforms = rng.random((top - bottom + 1, k))
                bounds = _round_bounds(sigmas[bottom : top + 1][::-1], uniforms)
            rounded = z[row]
            np.rint(centers, out=rounded)
            np.subtract(centers, rounded, out=gap)
            np.abs(gap, out=gap)
            if np.count_nonzero(np.greater(gap, bounds[top - row], out=outside)):
                rounded[:] = _sample_z_enum(row_sigma, centers, uniforms[top - row])
        hi = lo
        if on_block is not None:
            on_block(lo, z)
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
