"""Collision-resistant hashes and the canonical ciphertext byte layout.

Both hash families are SHAKE-256 with fixed domain-separation prefixes,
truncated to the requested bit length.  Bit strings are numpy uint8
arrays of 0/1 values; within a byte, bit i is (byte >> i) & 1.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DimensionMismatch

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


def canonical_ct_bytes(params, r_tag: np.ndarray, c1, c2, c3, c4) -> bytes:
    """Injective fixed-layout encoding of (R, c1, c2, c3, c4).

    Layout: header (q, n, m, t, ell as 64-bit little-endian), then the
    tag matrix R with entries re-encoded mod q row-major as 64-bit
    little-endian residues, then c1..c4 entries in order.  Total length
    is 8 * (5 + m*m + 2*t + 6*m) bytes.  Every part is reduced straight
    into one word buffer, which is copied once into the returned bytes.
    """
    m, t, q = params.m, params.t, params.q
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
    # residues in [0, q) have the same 8 bytes as int64 and as u64
    words = np.empty(5 + m * m + 2 * t + 6 * m, dtype="<i8")
    words[:5] = (q, params.n, m, t, params.ell)
    pos = 5
    for part in (r_tag.reshape(-1), c1, c2, c3, c4):
        # part mod q as part - q * floor(part / q): numpy divides by a scalar
        # several times faster than np.remainder reduces negative entries,
        # and where the product wraps, the sum wraps back to the residue
        out = words[pos : pos + part.size]
        np.floor_divide(part, q, out=out)
        out *= -q
        out += part
        pos += part.size
    return words.tobytes()
