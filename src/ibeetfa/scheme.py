"""Core scheme: system setup, identity key extraction, encrypt, decrypt.

Every operation takes an explicit RandomSource, so a fixed seed pins
every produced artifact byte for byte.  Data objects are immutable apart
from the sampling data a key's TrapdoorBasis builds on first use (its QR
factorization, gadget shortcut and held preimage of U); a per-basis lock
makes that first use happen once.  Calls may therefore run concurrently,
sharing keys and trapdoors, as long as each call has a RandomSource of
its own: a RandomSource is single-owner state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError, SamplingError, SingularMatrix
from .hashing import bits_to_bytes, canonical_ct_bytes, hash_h, hash_hprime
from .params import ParamSet, require_valid
from .samplers import (
    RandomSource,
    sample_bounded_matrix,
    sample_psi_bar,
    sample_sign_matrix,
    sample_uniform_zq,
)
from .trapdoor import (
    TrapdoorBasis,
    TrapdoorPair,
    sample_basis_left,
    trap_gen,
)
from .zqlinalg import concat_cols, mat_mul, solve_mod

_SETUP_ATTEMPTS = 8
_EXTRACT_ATTEMPTS = 8


@dataclass(frozen=True)
class PublicParams:
    """System-wide public material: (A, A', A_1..A_ell, B, U) plus params."""

    params: ParamSet
    a: np.ndarray
    a_prime: np.ndarray
    a_list: tuple[np.ndarray, ...]
    b: np.ndarray
    u: np.ndarray

    def element_count(self) -> int:
        total = self.a.size + self.a_prime.size + self.b.size + self.u.size
        return total + sum(x.size for x in self.a_list)


@dataclass(frozen=True)
class MasterSecretKey:
    """The two trapdoor bases behind A and A'.

    Each basis keeps its QR factorization and gadget shortcut once built:
    setup hands over the bases trap_gen built, shortcut included; a loaded
    key derives the shortcut on first use.
    """

    trapdoor_a: TrapdoorBasis
    trapdoor_a_prime: TrapdoorBasis

    @property
    def t_a(self) -> np.ndarray:
        return self.trapdoor_a.basis

    @property
    def t_a_prime(self) -> np.ndarray:
        return self.trapdoor_a_prime.basis

    def element_count(self) -> int:
        return self.t_a.size + self.t_a_prime.size


@dataclass(frozen=True)
class Identity:
    """A +-1 vector of length ell."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits or any(b not in (-1, 1) for b in self.bits):
            raise ParameterError("identity entries must be +-1")

    @property
    def ell(self) -> int:
        return len(self.bits)

    def key(self) -> bytes:
        return bytes(1 if b > 0 else 0 for b in self.bits)


def identity_from_string(name: str, ell: int) -> Identity:
    """Canonical embedding of an arbitrary name into the +-1 identity space."""
    digest = hash_h(name.encode("utf-8"), ell)
    return Identity(tuple(2 * int(b) - 1 for b in digest))


def identity_from_bits(bits) -> Identity:
    return Identity(tuple(int(b) for b in bits))


@dataclass(frozen=True)
class UserSecretKey:
    """Per-identity key: two delegated bases, one for each public matrix.

    Each basis keeps its QR data (handed over by extract, built on first
    use after loading) and the key's preimage of U (see key_preimage).
    Carries its identity so decryption can rebuild the concatenated
    matrices without out-of-band context.
    """

    identity: Identity
    trapdoor: TrapdoorBasis
    trapdoor_prime: TrapdoorBasis

    @property
    def e_id(self) -> np.ndarray:
        return self.trapdoor.basis

    @property
    def e_id_prime(self) -> np.ndarray:
        return self.trapdoor_prime.basis

    def element_count(self) -> int:
        return self.e_id.size + self.e_id_prime.size


@dataclass(frozen=True)
class Ciphertext:
    """(R, c1, c2, c3, c4, c5): tag matrix, payloads, integrity digest."""

    r_tag: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray  # lambda bits

    def element_count(self) -> int:
        return self.r_tag.size + self.c1.size + self.c2.size + self.c3.size + self.c4.size


@dataclass(frozen=True)
class EncryptionRandomness:
    """Everything encrypt drew, exposed for exact-equation tests."""

    s1: np.ndarray
    s2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    r_list: tuple[np.ndarray, ...]
    r_id: np.ndarray
    r_tag: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    rr1: np.ndarray
    rr2: np.ndarray


def setup(params: ParamSet, rng: RandomSource) -> tuple[PublicParams, MasterSecretKey]:
    """Generate public parameters and the master secret key."""
    require_valid(params)
    q, n, m = params.q, params.n, params.m

    def gen_with_rank() -> TrapdoorPair:
        for _ in range(_SETUP_ATTEMPTS):
            pair = trap_gen(q, n, m, rng)
            # rank n over Z_q; the gadget construction guarantees it, but a
            # rank-deficient matrix would break every later sampling call
            try:
                solve_mod(pair.a, np.eye(n, dtype=np.int64), q)
                return pair
            except SingularMatrix:
                continue
        raise SamplingError("could not generate a full-rank public matrix")

    pair_a = gen_with_rank()
    pair_a_prime = gen_with_rank()
    a_list = tuple(sample_uniform_zq(n, m, q, rng) for _ in range(params.ell))
    b = sample_uniform_zq(n, m, q, rng)
    u = sample_uniform_zq(n, params.t, q, rng)
    pp = PublicParams(params, pair_a.a, pair_a_prime.a, a_list, b, u)
    return pp, MasterSecretKey(pair_a.trapdoor, pair_a_prime.trapdoor)


def compute_a_id(pp: PublicParams, ident: Identity) -> np.ndarray:
    """B plus the signed sum of the identity matrices, mod q."""
    if ident.ell != pp.params.ell:
        raise DimensionMismatch(
            f"identity has {ident.ell} bits, parameters specify {pp.params.ell}"
        )
    q = pp.params.q
    acc = pp.b.copy()
    for bit, a_i in zip(ident.bits, pp.a_list):
        acc = acc + bit * a_i
    return acc % q


def compute_f(pp: PublicParams, ident: Identity, which: str = "primary") -> np.ndarray:
    """The concatenated matrix (A | A_ID) or (A' | A_ID) for an identity."""
    a_id = compute_a_id(pp, ident)
    if which == "primary":
        return concat_cols([pp.a, a_id])
    if which == "prime":
        return concat_cols([pp.a_prime, a_id])
    raise ParameterError(f"which must be 'primary' or 'prime', got {which!r}")


def extract(pp: PublicParams, msk: MasterSecretKey, ident: Identity, rng: RandomSource) -> UserSecretKey:
    """Derive the identity's secret key: delegated bases for F_ID and F'_ID."""
    p = pp.params
    a_id = compute_a_id(pp, ident)
    last_err = None
    for _ in range(_EXTRACT_ATTEMPTS):
        try:
            basis = sample_basis_left(pp.a, a_id, msk.trapdoor_a, p.q, p.sigma, rng)
            basis_prime = sample_basis_left(pp.a_prime, a_id, msk.trapdoor_a_prime, p.q, p.sigma, rng)
            return UserSecretKey(ident, basis, basis_prime)
        except SamplingError as err:  # pragma: no cover - negligible probability
            last_err = err
    raise SamplingError(f"key extraction failed after {_EXTRACT_ATTEMPTS} attempts: {last_err}")


def _message_bits(msg, t: int) -> np.ndarray:
    bits = np.asarray(msg, dtype=np.uint8)
    if bits.shape != (t,) or bits.max(initial=0) > 1:
        raise DimensionMismatch(f"message must be {t} bits of 0/1")
    return bits


def encrypt_traced(
    pp: PublicParams,
    ident: Identity,
    msg,
    rng: RandomSource,
    *,
    zero_noise: bool = False,
) -> tuple[Ciphertext, EncryptionRandomness]:
    """Encrypt and also return the drawn randomness (for exact tests).

    ``zero_noise`` forces all noise vectors to zero so the ciphertext
    equals its closed form; never use it outside tests.
    """
    p = pp.params
    q, n, m, t, ell = p.q, p.n, p.m, p.t, p.ell
    bits = _message_bits(msg, t)
    half_q = q // 2

    s1 = rng.integers(0, q, n)
    s2 = rng.integers(0, q, n)
    if zero_noise:
        x1 = np.zeros(t, dtype=np.int64)
        x2 = np.zeros(t, dtype=np.int64)
        y1 = np.zeros(m, dtype=np.int64)
        y2 = np.zeros(m, dtype=np.int64)
    else:
        x1 = sample_psi_bar(p.alpha, q, rng, size=t)
        x2 = sample_psi_bar(p.alpha, q, rng, size=t)
        y1 = sample_psi_bar(p.alpha, q, rng, size=m)
        y2 = sample_psi_bar(p.alpha, q, rng, size=m)

    msg_digest = hash_h(bits_to_bytes(bits), t)
    c1 = (mat_mul(pp.u.T, s1, q) + x1 + bits.astype(np.int64) * half_q) % q
    c2 = (mat_mul(pp.u.T, s2, q) + x2 + msg_digest.astype(np.int64) * half_q) % q

    r_list = tuple(sample_sign_matrix(m, rng) for _ in range(ell))
    r_id = np.zeros((m, m), dtype=np.int64)
    for bit, r_i in zip(ident.bits, r_list):
        r_id += bit * r_i
    r_tag = sample_bounded_matrix(ell, m, rng)

    f_id = compute_f(pp, ident, "primary")
    f_id_prime = compute_f(pp, ident, "prime")
    ar = mat_mul(pp.a, r_tag, q)
    f1 = concat_cols([f_id, ar])
    f2 = concat_cols([f_id_prime, ar])

    z1 = mat_mul(r_id.T, y1, q)
    z2 = mat_mul(r_id.T, y2, q)
    rr1 = mat_mul(r_tag.T, y1, q)
    rr2 = mat_mul(r_tag.T, y2, q)

    c3 = (mat_mul(f1.T, s1, q) + np.concatenate([y1, z1, rr1])) % q
    c4 = (mat_mul(f2.T, s2, q) + np.concatenate([y2, z2, rr2])) % q
    c5 = hash_hprime(canonical_ct_bytes(p, r_tag, c1, c2, c3, c4), p.lambda_bits)

    ct = Ciphertext(r_tag, c1, c2, c3, c4, c5)
    trace = EncryptionRandomness(s1, s2, x1, x2, y1, y2, r_list, r_id, r_tag, z1, z2, rr1, rr2)
    return ct, trace


def encrypt(pp: PublicParams, ident: Identity, msg, rng: RandomSource) -> Ciphertext:
    """Encrypt a t-bit message under an identity."""
    ct, _ = encrypt_traced(pp, ident, msg, rng)
    return ct


def decode_bits(w, q: int) -> np.ndarray:
    """Per-coordinate threshold decoding: 1 iff |w_i - floor(q/2)| < floor(q/4).

    Distances are taken literally on representatives in [0, q); values
    wrapping around near q therefore decode to 0, matching the centered
    noise model.
    """
    w = np.asarray(w, dtype=np.int64) % q
    return (np.abs(w - q // 2) < q // 4).astype(np.uint8)


def decode_with_preimage(e, c_payload, c_mask, q: int) -> np.ndarray:
    """decode_bits(c_payload - e^T c_mask[:rows of e]): unmask one payload."""
    return decode_bits((c_payload - mat_mul(e.T, c_mask[: e.shape[0]], q)) % q, q)


def key_preimage(pp: PublicParams, trapdoor: TrapdoorBasis, ident: Identity, which: str,
                 rng: RandomSource) -> np.ndarray:
    """The key's preimage e_F (2m x t) of U under F_ID alone, held by its basis.

    A preimage of U under (F_ID | A@R) with zero A@R-side coordinates does
    not depend on the ciphertext (the Agrawal-Boneh-Boyen key shape), so
    it is sampled with rng on first use and reused; each call re-checks
    F_ID @ e_F == U for these public parameters.
    """
    p = pp.params
    # the delegated basis has a larger Gram-Schmidt profile than the global
    # sigma covers, so the quality precondition is waived here; the
    # congruence that correctness relies on is checked on every call
    f = compute_f(pp, ident, which)
    return trapdoor.preimage(f, pp.u, p.q, p.sigma, rng, enforce_sigma=False)


def ciphertext_integrity_ok(pp: PublicParams, ct: Ciphertext) -> bool:
    """Recompute the integrity digest and compare.

    Malformed shapes raise DimensionMismatch: c5 here, R and c1..c4 in
    canonical_ct_bytes.
    """
    p = pp.params
    c5 = np.asarray(ct.c5, dtype=np.uint8)
    if c5.shape != (p.lambda_bits,):
        raise DimensionMismatch(f"c5 must have {p.lambda_bits} bits")
    want = hash_hprime(canonical_ct_bytes(p, ct.r_tag, ct.c1, ct.c2, ct.c3, ct.c4), p.lambda_bits)
    return bool(np.array_equal(want, c5))


def decrypt(pp: PublicParams, sk: UserSecretKey, ct: Ciphertext, rng: RandomSource):
    """Recover the message, or None when the ciphertext fails its checks.

    None is a domain outcome (tampered or mismatched ciphertext), not an
    error; malformed shapes raise instead.
    """
    p = pp.params
    if not ciphertext_integrity_ok(pp, ct):
        return None

    e = key_preimage(pp, sk.trapdoor, sk.identity, "primary", rng)
    msg = decode_with_preimage(e, ct.c1, ct.c3, p.q)
    e_prime = key_preimage(pp, sk.trapdoor_prime, sk.identity, "prime", rng)
    h = decode_with_preimage(e_prime, ct.c2, ct.c4, p.q)

    if not np.array_equal(h, hash_h(bits_to_bytes(msg), p.t)):
        return None
    return msg
