"""Core scheme: system setup, identity key extraction, encrypt, decrypt.

Every operation takes an explicit RandomSource, so a fixed seed pins
every produced artifact on one host.  Across hosts, one thing can move:
the walks center on a float QR's R factor, whose last bits LAPACK rounds
differently under other BLAS thread counts, so the R block of a key file
differs and, at a rounding tie, so could a sampled coordinate.  A key
file carries the R extract certified E'_ID with, so a loaded key samples
with exactly the R of the host that extracted it.  Data objects are
immutable apart from what they build on first use.  A key's only lazy
state is the coset map (with projections) of E'_ID that td2 and td3_ct
build once under a per-basis lock; E'_ID's R factor comes from extract
or from the key file.  Decrypt and the type-1 tests read the key's
preimages of U, fixed at extract.  The other is the integrity tag a
Ciphertext keeps per parameter set, which two racing threads at worst
compute twice, with equal results.  Calls may therefore run
concurrently, sharing keys, trapdoors and ciphertexts, as long as each
call has a RandomSource of its own: a RandomSource is single-owner state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .zqlinalg import concat_cols, exact_int_matmul, mat_mul, solve_mod

_SETUP_ATTEMPTS = 8
_EXTRACT_ATTEMPTS = 8


def frozen_array(arr, dtype=np.int64) -> np.ndarray:
    """A read-only copy of arr, so later changes to the caller's array cannot reach it."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


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

    Each basis builds its R factor and the coset map of its public matrix
    (gadget shortcut and projections) on first use and keeps them; a
    basis asked to sample under another public matrix raises
    ParameterError.
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


@dataclass(frozen=True)
class UserSecretKey:
    """Per-identity key: two delegated bases and a preimage of U under each F.

    e_f (e_F, 2m x t) satisfies F_ID @ e_F == U and e_f_prime (e_F') does
    for F'_ID; extract samples both with the master trapdoor (the
    Agrawal-Boneh-Boyen key shape), and decrypt and the type-1 tests read
    them, so neither builds any sampling data.  Both are held as read-only
    copies.  Of the bases, only E'_ID is sampled with (by td2 and
    td3_ct): extract hands it the R factor it was certified with, the key
    file stores that R, and a loaded key adopts it once load has checked
    it (samplers.adopt_r_factor).  E_ID is carried and holds no sampling
    data.  Carries its identity so decryption can rebuild the concatenated
    matrices without out-of-band context.
    """

    identity: Identity
    trapdoor: TrapdoorBasis
    trapdoor_prime: TrapdoorBasis
    e_f: np.ndarray
    e_f_prime: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e_f", frozen_array(self.e_f))
        object.__setattr__(self, "e_f_prime", frozen_array(self.e_f_prime))

    @property
    def e_id(self) -> np.ndarray:
        return self.trapdoor.basis

    @property
    def e_id_prime(self) -> np.ndarray:
        return self.trapdoor_prime.basis

    def element_count(self) -> int:
        return self.e_id.size + self.e_id_prime.size + self.e_f.size + self.e_f_prime.size


@dataclass(frozen=True)
class Ciphertext:
    """(R, c1, c2, c3, c4, c5): tag matrix, payloads, integrity digest.

    Holds read-only copies of its arrays (int64; c5 as uint8 bits), so a
    later change to the caller's arrays cannot reach it, and keeps the
    integrity tag recomputed under each ParamSet (see intact).
    dataclasses.replace builds a new ciphertext that recomputes its tag.
    """

    r_tag: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray  # lambda bits
    _tags: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("r_tag", "c1", "c2", "c3", "c4", "c5"):
            arr = frozen_array(getattr(self, name), np.uint8 if name == "c5" else np.int64)
            object.__setattr__(self, name, arr)

    def element_count(self) -> int:
        return self.r_tag.size + self.c1.size + self.c2.size + self.c3.size + self.c4.size

    def intact(self, params: ParamSet) -> bool:
        """Whether c5 is the integrity tag H'(R, c1..c4) under params.

        The tag is hashed once per ParamSet and kept; later checks compare
        lambda bits.  Two threads that race store the same tag.  Malformed
        shapes raise DimensionMismatch: c5 here, R and c1..c4 in
        canonical_ct_bytes.
        """
        if self.c5.shape != (params.lambda_bits,):
            raise DimensionMismatch(f"c5 must have {params.lambda_bits} bits")
        tag = self._tags.get(params)
        if tag is None:
            data = canonical_ct_bytes(params, self.r_tag, self.c1, self.c2, self.c3, self.c4)
            tag = self._tags[params] = hash_hprime(data, params.lambda_bits)
        return bool(np.array_equal(tag, self.c5))


@dataclass(frozen=True)
class EncryptionRandomness:
    """Everything encrypt drew, exposed for exact-equation tests."""

    s1: np.ndarray
    s2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
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
    """Derive the identity's secret key: delegated bases and preimages of U for F_ID and F'_ID.

    Each basis and its preimage e_F of U come from one SampleLeft call
    with the master trapdoor, sigma enforced, and F @ e_F == U is checked
    on every column (sample_basis_left).  Each basis is certified by
    factoring it; E'_ID keeps that R factor for td2.  A master key whose
    bases are no trapdoors of pp's A and A' raises ParameterError.
    """
    p = pp.params
    a_id = compute_a_id(pp, ident)
    last_err = None
    for _ in range(_EXTRACT_ATTEMPTS):
        try:
            basis, e_f = sample_basis_left(pp.a, a_id, msk.trapdoor_a, pp.u, p.q, p.sigma, rng)
            # nothing samples with E_ID: drop its R factor before E'_ID is drawn
            basis = TrapdoorBasis(basis.basis)
            basis_prime, e_f_prime = sample_basis_left(
                pp.a_prime, a_id, msk.trapdoor_a_prime, pp.u, p.q, p.sigma, rng
            )
            return UserSecretKey(ident, basis, basis_prime, e_f, e_f_prime)
        except SamplingError as err:  # pragma: no cover - negligible probability
            last_err = err
    raise SamplingError(f"key extraction failed after {_EXTRACT_ATTEMPTS} attempts: {last_err}")


def _message_bits(msg, t: int) -> np.ndarray:
    bits = np.asarray(msg, dtype=np.uint8)
    if bits.shape != (t,) or bits.max(initial=0) > 1:
        raise DimensionMismatch(f"message must be {t} bits of 0/1")
    return bits


def tag_product(pp: PublicParams, r_tag) -> np.ndarray:
    """A @ R mod q for a ciphertext's tag matrix R.

    An R that encrypt draws has entries in [-ell, ell], and exact_int_matmul
    then gives the exact integer product (one float64 product at the
    presets) without mat_mul's per-entry reduction and limb split.  A
    loaded R is not range-checked, so one outside that range goes through
    mat_mul; the residues are the same either way.
    """
    q, ell = pp.params.q, pp.params.ell
    r_tag = np.asarray(r_tag, dtype=np.int64)
    if r_tag.max(initial=0) > ell or r_tag.min(initial=0) < -ell:
        return mat_mul(pp.a, r_tag, q)
    return exact_int_matmul(pp.a, r_tag) % q


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

    # R_ID = sum_i b_i R_i; each sign matrix R_i is dropped once it is added
    r_id = np.zeros((m, m), dtype=np.int64)
    for bit in ident.bits:
        r_id += bit * sample_sign_matrix(m, rng)
    r_tag = sample_bounded_matrix(ell, m, rng)

    # R and R_ID have entries in [-ell, ell], so exact_int_matmul gives the
    # exact integer products (one float64 product at the presets) and % q
    # the residues mat_mul would, without its per-entry reduction and limb split
    f_id = compute_f(pp, ident, "primary")
    f_id_prime = compute_f(pp, ident, "prime")
    ar = tag_product(pp, r_tag)
    f1 = concat_cols([f_id, ar])
    f2 = concat_cols([f_id_prime, ar])

    y = np.column_stack([y1, y2])
    z1, z2 = exact_int_matmul(r_id.T, y).T % q
    rr1, rr2 = exact_int_matmul(r_tag.T, y).T % q

    c3 = (mat_mul(f1.T, s1, q) + np.concatenate([y1, z1, rr1])) % q
    c4 = (mat_mul(f2.T, s2, q) + np.concatenate([y2, z2, rr2])) % q
    c5 = hash_hprime(canonical_ct_bytes(p, r_tag, c1, c2, c3, c4), p.lambda_bits)

    ct = Ciphertext(r_tag, c1, c2, c3, c4, c5)
    ct._tags[p] = ct.c5
    trace = EncryptionRandomness(s1, s2, x1, x2, y1, y2, r_id, r_tag, z1, z2, rr1, rr2)
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


def checked_preimage(pp: PublicParams, ident: Identity, which: str, e) -> np.ndarray:
    """e, once F_ID @ e == U (mod q) holds for these public parameters.

    A key preimage checked against public parameters other than its own,
    or against another identity's F_ID, raises ParameterError.
    """
    f = compute_f(pp, ident, which)
    if e.shape != (f.shape[1], pp.u.shape[1]) or not np.array_equal(mat_mul(f, e, pp.params.q), pp.u):
        raise ParameterError("key preimage does not solve F_ID @ e == U for these public parameters")
    return e


def ciphertext_integrity_ok(pp: PublicParams, ct: Ciphertext) -> bool:
    """Whether ct passes its integrity check under pp's parameters (Ciphertext.intact)."""
    return ct.intact(pp.params)


def decrypt(pp: PublicParams, sk: UserSecretKey, ct: Ciphertext, rng: RandomSource):
    """Recover the message, or None when the ciphertext fails its checks.

    None is a domain outcome (tampered or mismatched ciphertext), not an
    error; malformed shapes, and a key whose preimages do not solve
    F @ e == U for pp (ParameterError), raise instead.  rng is unused: the
    key's preimages were sampled at extract.
    """
    p = pp.params
    e = checked_preimage(pp, sk.identity, "primary", sk.e_f)
    e_prime = checked_preimage(pp, sk.identity, "prime", sk.e_f_prime)
    if not ciphertext_integrity_ok(pp, ct):
        return None

    msg = decode_with_preimage(e, ct.c1, ct.c3, p.q)
    h = decode_with_preimage(e_prime, ct.c2, ct.c4, p.q)

    if not np.array_equal(h, hash_h(bits_to_bytes(msg), p.t)):
        return None
    return msg
