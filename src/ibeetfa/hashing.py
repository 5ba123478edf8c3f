"""Collision-resistant hashes and the canonical ciphertext byte layout.

Both hash families are SHAKE-256 with fixed domain-separation prefixes,
truncated to the requested bit length.  Bit strings are numpy uint8
arrays of 0/1 values; within a byte, bit i is (byte >> i) & 1.

The integrity tag c5 = H'(R, c1..c4) hashes canonical_ct_bytes, which
writes each entry of the tag matrix R as one code R + ell of
tag_code_width(ell) bytes (1 byte at every preset, where R takes 17
values), not as a 64-bit residue.  An R entry outside [-ell, ell] has no
code: tag_in_range tells, and Ciphertext.intact rejects such a ciphertext
before hashing it.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import DimensionMismatch, ParameterError

_PREFIX_H = b"IBEETFA-H"
_PREFIX_HPRIME = b"IBEETFA-Hp"


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array little-endian within each byte, zero-padded."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def bytes_to_bits(data: bytes, nbits: int) -> np.ndarray:
    """First nbits of data, little-endian within each byte."""
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(arr, bitorder="little")
    if bits.size < nbits:
        raise DimensionMismatch(f"need {nbits} bits, got {bits.size}")
    return bits[:nbits].copy()


def _xof(prefix: bytes, data: bytes, nbits: int) -> np.ndarray:
    xof = hashlib.shake_256(prefix)
    xof.update(data)  # hashes prefix || data without joining them
    return bytes_to_bits(xof.digest((nbits + 7) // 8), nbits)


def hash_h(data: bytes, t: int) -> np.ndarray:
    """t-bit digest used for message fingerprints inside ciphertexts."""
    if t < 1:
        raise DimensionMismatch(f"digest length must be positive, got {t}")
    return _xof(_PREFIX_H, data, t)


def hash_hprime(data: bytes, lam: int) -> np.ndarray:
    """lam-bit digest used for ciphertext integrity tags."""
    if lam < 1:
        raise DimensionMismatch(f"digest length must be positive, got {lam}")
    return _xof(_PREFIX_HPRIME, data, lam)


def tag_code_width(ell: int) -> int:
    """Bytes per tag-matrix code R + ell: the least w of 1, 2, 4 with 2*ell < 256**w."""
    for w in (1, 2, 4):
        if 2 * ell < 256**w:
            return w
    raise ParameterError(f"ell = {ell} leaves tag codes wider than 4 bytes")


def tag_in_range(r_tag: np.ndarray, ell: int) -> bool:
    """Whether every entry of R lies in [-ell, ell].

    Tested with min and max: np.abs(-2**63) is -2**63, so an abs bound
    would pass that entry, whose code wraps onto the code of 0.
    """
    r_tag = np.asarray(r_tag)
    return r_tag.size == 0 or (int(r_tag.min()) >= -ell and int(r_tag.max()) <= ell)


def require_tag_in_range(r_tag: np.ndarray, ell: int) -> None:
    """ParameterError unless every entry of R lies in [-ell, ell] (tag_in_range)."""
    if not tag_in_range(r_tag, ell):
        raise ParameterError(f"tag matrix entries must lie in [-{ell}, {ell}]")


def canonical_ct_bytes(params, r_tag: np.ndarray, c1, c2, c3, c4) -> bytes:
    """Injective fixed-layout encoding of (R, c1, c2, c3, c4), the input of H'.

    Layout: header (q, n, m, t, ell as 64-bit little-endian), then the
    tag matrix R row-major, one unsigned little-endian code R + ell per
    entry, w = tag_code_width(ell) bytes each, then c1..c4 entries in
    order, each reduced mod q to a 64-bit little-endian residue.  Total
    length is 40 + w*m*m + 8*(2*t + 6*m) bytes (880,332 at toy).  An R
    entry outside [-ell, ell] raises ParameterError: a code never wraps.
    """
    m, t, q, ell = params.m, params.t, params.q, params.ell
    r_tag = np.asarray(r_tag, dtype=np.int64)
    c1 = np.asarray(c1, dtype=np.int64)
    c2 = np.asarray(c2, dtype=np.int64)
    c3 = np.asarray(c3, dtype=np.int64)
    c4 = np.asarray(c4, dtype=np.int64)
    if r_tag.shape != (m, m):
        raise DimensionMismatch(f"tag matrix must be {m} x {m}, got {r_tag.shape}")
    for name, vec, want in (("c1", c1, t), ("c2", c2, t), ("c3", c3, 3 * m), ("c4", c4, 3 * m)):
        if vec.shape != (want,):
            raise DimensionMismatch(f"{name} must have length {want}, got {vec.shape}")
    require_tag_in_range(r_tag, ell)
    # the cast keeps R mod 256**w and adding ell wraps it back, so every
    # entry in [-ell, ell] lands on its code without an int64 temporary
    codes = r_tag.astype(f"<u{tag_code_width(ell)}")
    codes += ell
    # residues in [0, q) have the same 8 bytes as int64 and as u64
    words = np.empty(2 * t + 6 * m, dtype="<i8")
    pos = 0
    for part in (c1, c2, c3, c4):
        # part mod q as part - q * floor(part / q): numpy divides by a scalar
        # several times faster than np.remainder reduces negative entries,
        # and where the product wraps, the sum wraps back to the residue
        out = words[pos : pos + part.size]
        np.floor_divide(part, q, out=out)
        out *= -q
        out += part
        pos += part.size
    header = struct.pack("<5Q", q, params.n, m, t, ell)
    return b"".join([header, memoryview(codes).cast("B"), memoryview(words).cast("B")])
