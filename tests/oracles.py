"""Test oracles: checks that only the tests run, kept out of the package.

No scheme operation calls these; they judge what the package produces.
"""

import math
from fractions import Fraction

import numpy as np

from ibeetfa.errors import DimensionMismatch, SingularMatrix
from ibeetfa.samplers import TAIL_CUT, RandomSource, sample_z_gaussian_batch
from ibeetfa.trapdoor import _gadget_block, derive_trapdoor, gadget_basis, gadget_length, gadget_matrix
from ibeetfa.zqlinalg import as_residues, certified_r_factor, exact_int_matmul, mat_mul

# Primes just below 2**25, used for randomized exact rank checks.
_RANK_CHECK_PRIMES = (33554393, 33554383, 33554371)

#: Largest dimension is_nonsingular runs exact_gs_norm on.
GS_EXACT_DIM = 64


def exact_gs_norm(s) -> float:
    """Max Gram-Schmidt norm of the columns of s, from exact rational
    Gram-Schmidt; SingularMatrix if the columns are dependent."""
    done: list[list[Fraction]] = []
    norms2: list[Fraction] = []
    for j in range(s.shape[1]):
        w = [Fraction(int(x)) for x in s[:, j]]
        for u, n2 in zip(done, norms2):
            coeff = sum(a * b for a, b in zip(w, u)) / n2
            w = [a - coeff * b for a, b in zip(w, u)]
        n2 = sum(a * a for a in w)
        if n2 == 0:
            raise SingularMatrix("columns are linearly dependent over the rationals")
        done.append(w)
        norms2.append(n2)
    return float(max(norms2)) ** 0.5


def _pivot_columns_mod_p(s: np.ndarray, p: int) -> list[int]:
    """Columns of s that raise its rank over GF(p), in order: one elimination pass.

    Their count is the rank of s mod p.  p < 2**26 keeps every product
    below 2**52, exact in int64.
    """
    a = np.mod(s, p)
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        piv = rank + int(np.argmax(a[rank:, c] != 0))
        if a[piv, c] == 0:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, c]), p - 2, p)
        a[rank, c:] = a[rank, c:] * inv % p
        # rows below the pivot are zero left of column c
        rest = a[rank + 1 :, c:]
        rest -= np.outer(rest[:, 0], a[rank, c:])
        np.remainder(rest, p, out=rest)
        pivots.append(c)
    return pivots


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


def is_nonsingular(s) -> bool:
    """Nonsingularity over the rationals.

    Small matrices get exact rational Gram-Schmidt (exact_gs_norm).
    Large ones first try a rigorous float QR certificate, then fall back
    to rank checks modulo several 25-bit primes (a nonzero determinant
    mod any prime proves nonsingularity; vanishing mod all of them,
    combined with the failed certificate, is treated as singular).
    """
    s = np.asarray(s, dtype=np.int64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    d = s.shape[0]
    if d <= GS_EXACT_DIM:
        try:
            exact_gs_norm(s)
            return True
        except SingularMatrix:
            return False
    try:
        certified_r_factor(s)
        return True
    except SingularMatrix:
        return any(len(_pivot_columns_mod_p(s, p)) == d for p in _RANK_CHECK_PRIMES)


def check_nullspace_basis(f, s, q: int) -> bool:
    """True iff F @ S == 0 (mod q) and S is nonsingular over Q."""
    q = int(q)
    f = as_residues(f, q)
    s = np.asarray(s, dtype=np.int64)
    if f.ndim != 2 or s.ndim != 2:
        raise DimensionMismatch("expected matrices")
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"candidate basis must be square, got {s.shape}")
    if f.shape[1] != s.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {f.shape} by {s.shape}: inner dimensions differ"
        )
    if np.any(mat_mul(f, s, q)):
        return False
    return is_nonsingular(s)


def reject_round_reference(sigma: float, centers: np.ndarray, rng: RandomSource):
    """One round of the sigma >= 2 rejection sampler over every lane at once,
    as samplers._reject_round computed it before it worked in chunks:
    (round(c) + x as int64, whether x is kept), from one normal, then one
    uniform, per lane, each step a pass over the whole lane vector."""
    eps = math.sqrt(math.pi / 2.0) / sigma
    inv_s2, inv_sp2 = math.pi / sigma**2, math.pi / ((1.0 + eps) * sigma**2)
    log_m = math.sqrt(2.0 * math.pi) / (4.0 * sigma)
    x = np.rint(centers)
    d = centers - x
    out = x.astype(np.int64)
    v = rng.normal(sigma * math.sqrt(1.0 + eps) / math.sqrt(2.0 * math.pi), centers.shape[0])
    np.add(d, v, out=x)
    np.rint(x, out=x)
    np.subtract(x, d, out=d)
    np.add(out, x, out=out, dtype=np.int64, casting="unsafe")
    np.abs(d, out=d)
    kept = d <= TAIL_CUT * sigma
    np.multiply(v, inv_sp2, out=x)
    x *= v
    np.multiply(d, inv_s2, out=v)
    v *= d
    x -= v
    x -= log_m
    u = rng.random(centers.shape[0])
    kept &= np.log(u, out=u) < x
    return out, kept


def s_g_walk(td, v: np.ndarray, rng: RandomSource) -> np.ndarray:
    """A GadgetTrapdoor's G-step as one walk over the whole nk x nk basis
    S_G = I_n (x) S_k under G, nk rows deep, one lane per column of the
    n x cols residues v: the walk GadgetTrapdoor.g_preimages replaces by
    one over S_k with n times the lanes."""
    n = v.shape[0]
    g = gadget_matrix(n, td.q)
    s_g = np.kron(np.eye(n, dtype=np.int64), _gadget_block(td.q, gadget_length(td.q)))
    return derive_trapdoor(g, s_g, td.q).preimages(g, v, td.q, td.width_g, rng)


def master_basis(a, td) -> np.ndarray:
    """T_A, the m x m basis of A's nullspace lattice that A's gadget trapdoor
    td determines, from A's public first m - nk columns (trapdoor.gadget_basis)."""
    return gadget_basis(a[:, : td.r_bar.shape[0]], td.r_bar, td.q)


def sample_d_reference(td, a, targets, q: int, sigma: float, rng: RandomSource) -> np.ndarray:
    """GadgetTrapdoor.preimages with [Rbar; I] @ z added a gadget block of z
    at a time, as the walk leaves it (block i in columns i*cols to
    (i + 1)*cols - 1): the addition SampleD made before it took one product."""
    cols = targets.shape[1]
    p = td.perturbation(rng.normal(1.0 / math.sqrt(2.0 * math.pi), (td.dim, cols)))
    x = sample_z_gaussian_batch(math.sqrt(sigma * sigma - td.scale), p.reshape(-1), rng).reshape(p.shape)
    z = td.g_preimages((targets - mat_mul(a, x, q)) % q, rng)
    m_bar, k = td.r_bar.shape[0], z.shape[0]
    for i, lo in enumerate(range(0, td.r_bar.shape[1], k)):
        block = z[:, i * cols : (i + 1) * cols]
        x[:m_bar] += exact_int_matmul(td.r_bar[:, lo : lo + k], block)
        x[m_bar + lo : m_bar + lo + k] += block
    return x
