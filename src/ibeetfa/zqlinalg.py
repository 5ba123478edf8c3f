"""Exact modular and small-integer matrix arithmetic.

Residue matrices live in numpy int64 arrays with entries in [0, q);
signed integer matrices (trapdoor bases, Gaussian preimages) are int64
arrays whose magnitudes stay far below 2**62, or int32 ones: a user
key's matrices are held at the int32 width of its file (int32_matrix),
and the products and factorizations here read them as they are, without
an int64 copy, never multiplying two int32 entries in int32.  mat_mul
is the one mod-q product, and every mod-q product is exact: operands
are split into limbs, the limb products are accumulated with float64
matmuls whose partial sums stay below 2**53, and the limbs are
recombined in int64.  When the operand with more entries is a short
signed matrix, it enters the products as it is and only the other one
is reduced and split: into one limb, a single float64 product, when the
residues fit beside the short entries (a ciphertext's A @ R and R^T y),
into at most three otherwise.  Failing that, both are split into two
19-bit limbs, exact for any inner dimension up to 2**14.  This caps the
modulus at 2**38, which every supported parameter set respects; the
gain is that the hot paths run through BLAS instead of
arbitrary-precision integers.  exact_int_matmul is for integer results
(no modulus) only.  Gram-Schmidt norms come from one place, the
certified float QR the walks sample with
(certified_r_factor, gram_schmidt_norm).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ParameterError, SingularMatrix

#: Largest supported modulus is 2**MAX_MODULUS_BITS - 1.
MAX_MODULUS_BITS = 38

_LIMB_BITS = 19
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_MAX_INNER_DIM = 1 << 14

_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def int_array(a) -> np.ndarray:
    """a as a signed integer array: an int32 or int64 array as it is (no copy), anything else as int64."""
    arr = np.asarray(a)
    return arr if arr.dtype in (np.int32, np.int64) else arr.astype(np.int64)


def read_only(arr) -> np.ndarray:
    """A read-only view of arr, for an array the holder owns: no copy, and no
    write through the view."""
    out = np.asarray(arr).view()
    out.setflags(write=False)
    return out


def frozen_array(arr, dtype=np.int64) -> np.ndarray:
    """arr as a read-only array of dtype that later changes to the caller's
    array cannot reach: arr itself when it is a read-only array of dtype
    whose memory is a bytes object (a view of a file's bytes, which nothing
    can change), a read-only copy otherwise."""
    if (isinstance(arr, np.ndarray) and arr.dtype == dtype and not arr.flags.writeable
            and isinstance(_memory_owner(arr), bytes)):
        return arr
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _memory_owner(arr):
    """The object at the end of arr's chain of bases (a memoryview's exporter
    for a memoryview)."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def int32_matrix(a, what: str) -> np.ndarray:
    """a as a C-ordered int32 array (itself when it already is one).

    astype would wrap an entry outside int32 silently, so such an entry
    raises ParameterError naming what holds it instead.  Every key matrix
    is narrowed here.
    """
    arr = np.asarray(a)
    if arr.dtype != np.int32 and arr.size and (arr.min() < -(1 << 31) or arr.max() >= 1 << 31):
        raise ParameterError(f"{what} holds an entry outside int32")
    return np.ascontiguousarray(arr, dtype=np.int32)


def center_rep(v, q: int) -> np.ndarray:
    """Map residues to the centered representative in (-q/2, q/2]."""
    arr = as_residues(v, q)
    return np.where(arr > (q - 1) // 2, arr - q, arr)


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (a >> _LIMB_BITS).astype(np.float64), (a & _LIMB_MASK).astype(np.float64)


def _magnitude(a: np.ndarray) -> int:
    """max |a_ij| as a Python int (np.abs wraps the most negative entry: -2**63, or -2**31 in int32)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


#: Widest limb of a one-sided split into two limbs or more; wider limbs
#: would let acc << L pass 2**63.
_WIDE_LIMB_MAX = 24
#: Narrowest limb of the one-sided split, so a residue below 2**38 takes at most 3.
_WIDE_LIMB_MIN = 13


def _mod_product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q of two int64 matrices; a and b need not be reduced.

    When the operand with more entries (g) is short, g enters float64 as
    it is, and only the other operand is reduced to [0, q) and split into
    L-bit limbs, L = 53 - bitlen(max|g|) - bitlen(k) for inner dimension
    k: every product g @ limb is then exact in float64.  When
    L >= bitlen(q - 1) the residues are one limb, so the loop makes one
    float64 product and reduces it, with no shift.  With more limbs,
    acc = ((acc << L) + p) % q must stay below 2**38 * 2**24 + 2**53 <
    2**63, so L is capped at 24, and an L below 13 (more than three limbs)
    takes the other path: both operands reduced and split into two 19-bit
    limbs (four products).
    """
    k = a.shape[1]
    g_left = a.size > b.size
    g, other = (a, b) if g_left else (b, a)
    bits = (q - 1).bit_length()
    width = 53 - _magnitude(g).bit_length() - k.bit_length()
    if width < bits:
        width = min(_WIDE_LIMB_MAX, width)
    if width < min(bits, _WIDE_LIMB_MIN):
        a_hi, a_lo = _limbs(as_residues(a, q))
        b_hi, b_lo = _limbs(as_residues(b, q))
        acc = (a_hi @ b_hi).astype(np.int64) % q
        acc = ((acc << _LIMB_BITS) + (a_hi @ b_lo + a_lo @ b_hi).astype(np.int64)) % q
        return ((acc << _LIMB_BITS) + (a_lo @ b_lo).astype(np.int64)) % q
    gf = g.astype(np.float64)
    other = as_residues(other, q)
    acc = 0
    for shift in range((bits - 1) // width * width, -1, -width):
        limb = ((other >> shift) & ((1 << width) - 1)).astype(np.float64)
        acc = ((acc << width) + (gf @ limb if g_left else limb @ gf).astype(np.int64)) % q
    return acc


def mat_mul(a, b, q: int) -> np.ndarray:
    """Exact (a @ b) mod q.

    Either operand may be a residue matrix or a signed integer matrix
    (int32 or int64); the result is in [0, q).  1-D operands are treated
    as column/row vectors the way ``@`` does.
    """
    q = int(q)
    a = int_array(a)
    b = int_array(b)
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
    out = _mod_product(a_mat, b, q)
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


#: Rows of the left operand exact_int_matmul converts to float64 at a time.
_ROW_BLOCK = 256


def _float_product(a: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """a @ bf as int64 for an integer a and a float64 bf whose partial sums
    stay below 2**53 (so every sum is exact), a converted _ROW_BLOCK rows at
    a time: a 2m x 2m key basis gets no float64 copy."""
    if a.ndim == 1 or a.shape[0] <= _ROW_BLOCK:
        return (a.astype(np.float64) @ bf).astype(np.int64)
    out = np.empty((a.shape[0], bf.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[0], _ROW_BLOCK):
        out[lo : lo + _ROW_BLOCK] = a[lo : lo + _ROW_BLOCK].astype(np.float64) @ bf
    return out


def exact_int_matmul(a, b) -> np.ndarray:
    """Exact integer a @ b without any modulus.

    Chooses between a single float64 matmul and a limb-split pair of
    matmuls depending on magnitude bounds; raises if the true product
    cannot be certified to fit in int64.  int32 operands are read as they
    are, and a is converted to float64 a block of rows at a time
    (_float_product); the result is int64.
    """
    a = int_array(a)
    b = int_array(b)
    b_vec = b.ndim == 1
    if b_vec:
        b = b.reshape(-1, 1)
    if a.shape[-1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    k = b.shape[0]
    amax = _magnitude(a) or 1
    bmax = _magnitude(b) or 1
    if amax * bmax * k >= 1 << 62:
        raise DimensionMismatch("integer product bound exceeds int64 range")
    if amax * bmax * k < 1 << 53:
        out = _float_product(a, b.astype(np.float64))
    else:
        # Split b so both partial products are float64-exact (an int32 b
        # has bmax < 2**31, so its shift stays below 30 and the mask fits)
        shift = 52 - (amax * k).bit_length()
        if shift < 1:
            raise DimensionMismatch("operands too large for exact split product")
        hi = _float_product(a, (b >> shift).astype(np.float64))
        lo = _float_product(a, (b & ((1 << shift) - 1)).astype(np.float64))
        out = (hi << shift) + lo
    return out.reshape(-1) if b_vec else out


def qr_singularity_bound(norm: float, d: int) -> float:
    """16*d*eps*norm, for the Frobenius norm of a d-column matrix sf: a
    float QR of sf certifies full rank only when every |R_kk| exceeds this.

    Backward-stable QR computes the exact factorization of sf + E with
    ||E|| <= c*d*eps*||sf||.  certified_r_factor, the package's one QR,
    judges against this bound, so the certificate that extract relies on
    and the factorization the walks sample with are the same computation.
    samplers.adopt_r_factor checks an R factored elsewhere against the
    same bound.
    """
    return float(norm) * np.finfo(np.float64).eps * d * 16


def certified_r_factor(s):
    """A float QR of the integer matrix s (square for a basis, at least as
    many rows as columns) as numpy's raw output (h, tau): R = triu(h.T),
    and the Householder reflectors that make up Q (samplers.prepare_basis),
    which is never formed.

    Raises SingularMatrix unless every |R_kk| exceeds qr_singularity_bound,
    which certifies the columns of s independent over the reals; a failure
    means "unknown", not "singular".  An int32 s is read as it is.
    """
    s = int_array(s)
    bound = qr_singularity_bound(np.linalg.norm(s), s.shape[1])
    h, tau = np.linalg.qr(s, mode="raw")
    if not float(np.abs(np.diag(h)).min()) > bound:
        raise SingularMatrix("basis columns are (numerically) linearly dependent")
    return h, tau


def gram_schmidt_norm(s) -> float:
    """Max Euclidean norm of the Gram-Schmidt orthogonalized columns: the
    largest |R_kk| of certified_r_factor, the QR every walk samples with.

    Raises SingularMatrix when the columns outnumber the rows or the
    certificate fails.
    """
    s = int_array(s)
    if s.ndim != 2 or s.size == 0:
        raise DimensionMismatch("expected a nonempty matrix")
    if s.shape[1] > s.shape[0]:
        raise SingularMatrix("more columns than rows cannot be independent")
    h, _ = certified_r_factor(s)
    return float(np.abs(np.diag(h)).max())


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
        aug[row] = mat_mul([[inv]], aug[row : row + 1], q)[0]
        others = aug[:, col] != 0
        others[row] = False
        if others.any():
            idx = np.nonzero(others)[0]
            aug[idx] = (aug[idx] - mat_mul(aug[idx, col : col + 1], aug[row : row + 1], q)) % q
        piv_cols.append(col)
        row += 1
    if row < n and np.any(aug[row:, m:]):
        raise SingularMatrix("system is inconsistent: coefficient matrix is rank-deficient")
    x = np.zeros((m, b.shape[1]), dtype=np.int64)
    x[piv_cols] = aug[:row, m:]
    return x.reshape(-1) if b_vec else x
