"""Exact modular and small-integer matrix arithmetic.

Residue matrices live in numpy int64 arrays with entries in [0, q);
signed integer matrices (trapdoor bases, Gaussian preimages) are int64
arrays whose magnitudes stay far below 2**62.  Every mod-q product is
exact: operands are split into 19-bit limbs, the limb products are
accumulated with float64 matmuls (whose partial sums stay below 2**53
for any inner dimension up to 2**14), and the limbs are recombined in
int64.  This caps the modulus at 2**38, which every supported parameter
set respects; the gain is that the hot paths run through BLAS instead
of arbitrary-precision integers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, ParameterError, SingularMatrix

#: Largest supported modulus is 2**MAX_MODULUS_BITS - 1.
MAX_MODULUS_BITS = 38

_LIMB_BITS = 19
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_MAX_INNER_DIM = 1 << 14

_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Primes just below 2**25, used for randomized exact rank checks.
_RANK_CHECK_PRIMES = (33554393, 33554383, 33554371)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    n = int(n)
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(q) -> int:
    """Validate q as an odd prime in [3, 2**38) and return it as int."""
    q = int(q)
    if q < 3:
        raise ParameterError(f"modulus {q} must be at least 3")
    if q % 2 == 0:
        raise ParameterError(f"modulus {q} must be odd")
    if q >> MAX_MODULUS_BITS:
        raise ParameterError(
            f"modulus {q} exceeds the {MAX_MODULUS_BITS}-bit implementation bound"
        )
    if not is_prime(q):
        raise ParameterError(f"modulus {q} must be prime")
    return q


def as_residues(a, q: int) -> np.ndarray:
    """Coerce to an int64 array of residues in [0, q)."""
    arr = np.asarray(a, dtype=np.int64)
    if arr.size and (arr.max(initial=0) >= q or arr.min(initial=0) < 0):
        arr = np.mod(arr, q)
    return arr


def center_rep(v, q: int) -> np.ndarray:
    """Map residues to the centered representative in (-q/2, q/2]."""
    arr = as_residues(v, q)
    return np.where(arr > (q - 1) // 2, arr - q, arr)


def mulmod(a, b, q: int) -> np.ndarray:
    """Exact elementwise (a * b) mod q for residues below 2**38.

    Broadcasts like ``a * b``.  Splits ``a`` into 19-bit limbs so that
    every intermediate stays below 2**60.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    a_hi = a >> _LIMB_BITS
    a_lo = a & _LIMB_MASK
    acc = (a_hi * b) % q
    acc = ((acc << _LIMB_BITS) + a_lo * b) % q
    return acc


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (a >> _LIMB_BITS).astype(np.float64), (a & _LIMB_MASK).astype(np.float64)


def mat_mul(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) mod q.

    ``b`` may be a residue matrix or a signed integer matrix; signed
    entries are reduced mod q first.  1-D operands are treated as
    column/row vectors the way ``@`` does.
    """
    q = int(q)
    a = as_residues(a, q)
    b = as_residues(b, q)
    b_vec = b.ndim == 1
    if b_vec:
        b = b.reshape(-1, 1)
    a_mat = a if a.ndim == 2 else a.reshape(1, -1)
    if a_mat.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {a_mat.shape} by {b.shape}: inner dimensions differ"
        )
    if a_mat.shape[1] > _MAX_INNER_DIM:
        raise DimensionMismatch(
            f"inner dimension {a_mat.shape[1]} exceeds exact-product limit {_MAX_INNER_DIM}"
        )
    a_hi, a_lo = _limbs(a_mat)
    b_hi, b_lo = _limbs(b)
    p_hh = (a_hi @ b_hi).astype(np.int64)
    p_mid = (a_hi @ b_lo + a_lo @ b_hi).astype(np.int64)
    p_ll = (a_lo @ b_lo).astype(np.int64)
    acc = p_hh % q
    acc = ((acc << _LIMB_BITS) + p_mid) % q
    acc = ((acc << _LIMB_BITS) + p_ll) % q
    out = acc
    if a.ndim == 1:
        out = out.reshape(-1)
    if b_vec:
        out = out.reshape(a_mat.shape[0]) if a.ndim == 2 else out.reshape(())
    return out


def concat_cols(parts) -> np.ndarray:
    """Column-wise concatenation of matrices sharing a row count."""
    parts = [np.asarray(p, dtype=np.int64) for p in parts]
    if not parts:
        raise DimensionMismatch("concat_cols needs at least one block")
    rows = parts[0].shape[0]
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise DimensionMismatch(
                f"blocks must be matrices with {rows} rows, got shape {p.shape}"
            )
    return np.hstack(parts)


def exact_int_matmul(a, b) -> np.ndarray:
    """Exact integer a @ b without any modulus.

    Chooses between a single float64 matmul and a limb-split pair of
    matmuls depending on magnitude bounds; raises if the true product
    cannot be certified to fit in int64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    b_vec = b.ndim == 1
    if b_vec:
        b = b.reshape(-1, 1)
    if a.shape[-1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    k = b.shape[0]
    amax = int(np.abs(a).max(initial=0)) or 1
    bmax = int(np.abs(b).max(initial=0)) or 1
    if amax * bmax * k >= 1 << 62:
        raise DimensionMismatch("integer product bound exceeds int64 range")
    if amax * bmax * k < 1 << 53:
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        # Split b so both partial products are float64-exact.
        shift = 52 - (amax * k).bit_length()
        if shift < 1:
            raise DimensionMismatch("operands too large for exact split product")
        b_hi = b >> shift
        b_lo = b & ((1 << shift) - 1)
        af = a.astype(np.float64)
        hi = (af @ b_hi.astype(np.float64)).astype(np.int64)
        lo = (af @ b_lo.astype(np.float64)).astype(np.int64)
        out = (hi << shift) + lo
    return out.reshape(-1) if b_vec else out


def exact_gram(b) -> np.ndarray:
    """Exact Gram matrix b.T @ b of an integer matrix, in int64."""
    b = np.asarray(b, dtype=np.int64)
    return exact_int_matmul(b.T, b)


def _gs_norms_fraction(s: np.ndarray) -> list[Fraction]:
    """Squared Gram-Schmidt norms of the columns, exact rationals."""
    cols = [[Fraction(int(x)) for x in s[:, j]] for j in range(s.shape[1])]
    basis: list[list[Fraction]] = []
    norms2: list[Fraction] = []
    for v in cols:
        w = list(v)
        for u, n2 in zip(basis, norms2):
            coeff = sum(a * b for a, b in zip(w, u)) / n2
            w = [a - coeff * b for a, b in zip(w, u)]
        n2 = sum(a * a for a in w)
        if n2 == 0:
            raise SingularMatrix("columns are linearly dependent over the rationals")
        basis.append(w)
        norms2.append(n2)
    return norms2


def _gs_norms_longdouble(s: np.ndarray) -> np.ndarray:
    """Squared GS norms via extended-precision Cholesky of the exact Gram."""
    gram = exact_gram(s).astype(np.longdouble)
    d = gram.shape[0]
    scale = np.longdouble(np.diag(gram).max(initial=1))
    tol = scale * np.finfo(np.longdouble).eps * d * 8
    low = np.zeros((d, d), dtype=np.longdouble)
    norms2 = np.zeros(d, dtype=np.longdouble)
    for j in range(d):
        v = gram[j, j] - low[j, :j] @ low[j, :j]
        if v <= tol:
            raise SingularMatrix("columns are (numerically) linearly dependent")
        norms2[j] = v
        low[j, j] = np.sqrt(v)
        if j + 1 < d:
            low[j + 1 :, j] = (gram[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return norms2


#: Dimension threshold below which Gram-Schmidt runs over exact rationals.
GS_EXACT_DIM = 64


def gram_schmidt_norm(s) -> float:
    """Max Euclidean norm of the Gram-Schmidt orthogonalized columns.

    Exact rational arithmetic up to GS_EXACT_DIM columns, extended
    precision Cholesky above that.
    """
    s = np.asarray(s, dtype=np.int64)
    if s.ndim != 2 or s.size == 0:
        raise DimensionMismatch("expected a nonempty matrix")
    if s.shape[1] > s.shape[0]:
        raise SingularMatrix("more columns than rows cannot be independent")
    if s.shape[1] <= GS_EXACT_DIM:
        norms2 = _gs_norms_fraction(s)
        return float(max(norms2)) ** 0.5
    return float(np.sqrt(_gs_norms_longdouble(s).max()))


def qr_singularity_bound(norm: float, d: int) -> float:
    """16*d*eps*norm, for the Frobenius norm of a d-column matrix sf: a
    float QR of sf certifies full rank only when every |R_kk| exceeds this.

    Backward-stable QR computes the exact factorization of sf + E with
    ||E|| <= c*d*eps*||sf||.  certified_r_factor, the package's one QR,
    judges against this bound, so the certificate that is_nonsingular and
    extract rely on and the factorization the walks sample with are the
    same computation.  samplers.adopt_r_factor checks an R factored
    elsewhere against the same bound.
    """
    return float(norm) * np.finfo(np.float64).eps * d * 16


def certified_r_factor(s) -> np.ndarray:
    """The R factor of a float QR of the square integer matrix s, without Q.

    Raises SingularMatrix unless every |R_kk| exceeds qr_singularity_bound,
    which certifies s nonsingular over the reals; a failure means
    "unknown", not "singular".
    """
    s = np.asarray(s, dtype=np.int64)
    bound = qr_singularity_bound(np.linalg.norm(s), s.shape[1])
    r = np.linalg.qr(s, mode="r")
    if not float(np.abs(np.diag(r)).min()) > bound:
        raise SingularMatrix("basis columns are (numerically) linearly dependent")
    return r


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


def is_nonsingular(s) -> bool:
    """Nonsingularity over the rationals.

    Small matrices get an exact rational elimination.  Large ones first
    try a rigorous float QR certificate, then fall back to rank checks
    modulo several 25-bit primes (a nonzero determinant mod any prime
    proves nonsingularity; vanishing mod all of them, combined with the
    failed certificate, is treated as singular).
    """
    s = np.asarray(s, dtype=np.int64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    d = s.shape[0]
    if d <= GS_EXACT_DIM:
        try:
            _gs_norms_fraction(s)
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


def solve_mod(a, b, q: int) -> np.ndarray:
    """One solution X of A @ X = B (mod q) for a full-row-rank A.

    A is n x m with n <= m; B is n x t (or a length-n vector).  The
    returned X is m x t with nonzeros only in the pivot rows.
    """
    q = int(q)
    a = as_residues(a, q)
    b = as_residues(b, q)
    b_vec = b.ndim == 1
    if b_vec:
        b = b.reshape(-1, 1)
    n, m = a.shape
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, expected {n}")
    aug = np.hstack([a, b]).astype(np.int64)
    piv_cols = []
    row = 0
    for col in range(m):
        if row == n:
            break
        hit = row + int(np.argmax(aug[row:, col] != 0))
        if aug[hit, col] == 0:
            continue
        if hit != row:
            aug[[row, hit]] = aug[[hit, row]]
        inv = pow(int(aug[row, col]), q - 2, q)
        aug[row] = mulmod(aug[row], np.int64(inv), q)
        others = aug[:, col] != 0
        others[row] = False
        if others.any():
            idx = np.nonzero(others)[0]
            aug[idx] = (aug[idx] - mulmod(aug[idx, col : col + 1], aug[row], q)) % q
        piv_cols.append(col)
        row += 1
    if row < n and np.any(aug[row:, m:]):
        raise SingularMatrix("system is inconsistent: coefficient matrix is rank-deficient")
    x = np.zeros((m, b.shape[1]), dtype=np.int64)
    x[piv_cols] = aug[:row, m:]
    return x.reshape(-1) if b_vec else x
