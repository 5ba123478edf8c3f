"""Core scheme: system setup, identity key extraction, encrypt, decrypt.

Every operation takes an explicit RandomSource, so a fixed seed pins
every produced artifact on one host at one BLAS thread count.  Across
hosts or thread counts, one thing can move: the walks center on a float
QR's R factor, whose last bits LAPACK rounds differently under other BLAS
thread counts, so the R block of a key file differs and, at a rounding
tie, so could a sampled coordinate.  A key file carries the R extract
certified E'_ID with, so a loaded key samples with exactly the R of the
host that extracted it.  Data objects are immutable, their arrays
read-only, and every trapdoor is complete when it is made: a master
trapdoor builds everything SampleD needs, and a key's E'_ID holds its R
factor, pivots, E and projections from extract (or from the key file,
checked at load); sample_left checks either against the public matrix on
every draw and stores nothing.  A key's E_ID is rebuilt from its R_ID on
every access and kept by nobody.  Decrypt and the type-1 tests read the
key's preimages of U, fixed at extract.  The only lazy state is the
integrity tag a Ciphertext keeps per parameter set, which two racing
threads at worst compute twice, with equal results.  Calls may therefore run
concurrently, sharing keys, trapdoors and ciphertexts, as long as each
call has a RandomSource of its own: a RandomSource is single-owner state.
On a host with more than one CPU, a basis walk multiplies its output by
the basis on a worker thread that the call starts and joins
(trapdoor.TrapdoorBasis.preimages); nothing a call starts outlives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, KeyMismatch, ParameterError, SamplingError
from .hashing import (
    bits_to_bytes,
    canonical_ct_bytes,
    hash_h,
    hash_hprime,
)
from .params import ParamSet, require_valid
from .samplers import (
    RandomSource,
    sample_bounded_matrix,
    sample_psi_bar,
    sample_sign_sum,
    sample_uniform_zq,
)
from .trapdoor import (
    GadgetTrapdoor,
    TrapdoorBasis,
    gadget_basis,
    gadget_length,
    gadget_matrix,
    sample_basis_left,
    sample_left,
    trap_gen,
)
from .zqlinalg import concat_cols, frozen_array, int32_matrix, mat_mul, read_only

_EXTRACT_ATTEMPTS = 8


@dataclass(frozen=True)
class PublicParams:
    """System-wide public material: (A, A', A_1..A_ell, B, U) plus params,
    held as read-only views of the arrays setup or load built (read_only)."""

    params: ParamSet
    a: np.ndarray
    a_prime: np.ndarray
    a_list: tuple[np.ndarray, ...]
    b: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "u"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        object.__setattr__(self, "a_list", tuple(read_only(x) for x in self.a_list))

    def element_count(self) -> int:
        total = self.a.size + self.a_prime.size + self.b.size + self.u.size
        return total + sum(x.size for x in self.a_list)


@dataclass(frozen=True)
class MasterSecretKey:
    """The gadget trapdoors behind A and A': (Rbar, q) each, which every
    GadgetTrapdoor holds read-only (zqlinalg.frozen_array).

    A trapdoor asked to sample under a matrix A with A @ [Rbar; I] != G
    (mod q) raises KeyMismatch (a ParameterError).  No basis of A or A' is
    held or built; the element count is that of the two m x m bases T_A
    and T_A' the paper's master key publishes, from their dimensions.
    """

    trapdoor_a: GadgetTrapdoor
    trapdoor_a_prime: GadgetTrapdoor

    def element_count(self) -> int:
        return self.trapdoor_a.dim ** 2 + self.trapdoor_a_prime.dim ** 2


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
class KeyPreimage:
    """What decrypt, td1 and td3_basis use of a user secret key: its
    identity, its gadget trapdoor of F_ID and a preimage of U under F_ID and
    under F'_ID.  A UserSecretKey is this and a basis of F'_ID; a key file
    holds this part first, so it can be read alone
    (fileio.load_key_preimage).

    r_id (R_ID, (2m - nk) x nk; not the sign-matrix sum encrypt draws) is
    a gadget trapdoor of F_ID = (A | A_ID) in the Micciancio-Peikert
    sense: F_ID @ [R_ID; I] == G (mod q).  The key also holds F_ID's left
    2m - nk columns, a_bar_id (Abar_ID, public residues), so that E_ID
    can be rebuilt without the public parameters.
    e_f (e_F, 2m x t) satisfies F_ID @ e_F == U and e_f_prime (e_F') does
    for F'_ID; extract samples both with the master trapdoor (the
    Agrawal-Boneh-Boyen key shape), and decrypt and the type-1 tests read
    them, so neither builds any sampling data.
    Carries its identity so decryption can rebuild the concatenated
    matrices without out-of-band context.

    R_ID, e_F and e_F' are int32, fresh from extract or loaded, as the key
    file stores them: construction narrows each one
    (zqlinalg.int32_matrix, no copy of an int32 array), so an entry that
    does not fit raises ParameterError here, and a key that dump cannot
    write never exists.  They and Abar_ID are held read-only
    (frozen_array: a loaded section is a view of the file's bytes, any
    other array a copy).
    Arithmetic on these matrices goes through mat_mul, exact_int_matmul
    or an explicit float64 or int64 conversion, never int32 products.
    """

    identity: Identity
    r_id: np.ndarray
    a_bar_id: np.ndarray
    q: int
    e_f: np.ndarray
    e_f_prime: np.ndarray

    def __post_init__(self):
        for name, section in (("r_id", "R_ID"), ("e_f", "e_F"), ("e_f_prime", "e_F'")):
            arr = int32_matrix(getattr(self, name), f"user secret key: {section}")
            object.__setattr__(self, name, frozen_array(arr, np.int32))
        object.__setattr__(self, "a_bar_id", frozen_array(self.a_bar_id))

    @property
    def e_id(self) -> np.ndarray:
        """E_ID, the 2m x 2m basis of the whole lattice of F_ID that R_ID
        determines (trapdoor.gadget_basis), written straight into one int32
        array on each access and kept by nobody.  It is for checks, not for
        sampling: its smallest Gram-Schmidt norm lies far below the bound of
        the QR certificate, so trapdoor.derive_trapdoor refuses it.
        """
        return gadget_basis(self.a_bar_id, self.r_id, self.q)


@dataclass(frozen=True)
class UserSecretKey(KeyPreimage):
    """Per-identity key: a KeyPreimage (a gadget trapdoor of F_ID, a
    preimage of U under F_ID and under F'_ID) and a basis E'_ID of F'_ID.

    Only the basis E'_ID is sampled with (by td2 and td3_ct): extract hands
    it the R factor it was certified with and its pivots, E and P under
    F'_ID, the key file stores them, and a loaded key adopts them once
    load has checked them against E'_ID (trapdoor.adopt_trapdoor).  Either
    key holds no lazy state: its trapdoor is checked against F'_ID on
    every draw (TrapdoorBasis.require).

    E'_ID is int32 like the KeyPreimage's matrices: its TrapdoorBasis
    narrows it when it is made and holds it, its R buffer, pivots, E and
    P as read-only views, so the key holds that trapdoor as it is, with
    no second copy of the key's largest arrays.
    """

    trapdoor_prime: TrapdoorBasis

    @property
    def e_id_prime(self) -> np.ndarray:
        return self.trapdoor_prime.basis

    def element_count(self) -> int:
        return self.r_id.size + self.e_id_prime.size + self.e_f.size + self.e_f_prime.size


@dataclass(frozen=True)
class Ciphertext:
    """(R, c1, c2, c3, c4, c5): tag matrix, payloads, integrity digest.

    Holds its arrays read-only (int64; c5 as uint8 bits) through
    frozen_array, so a later change to the caller's arrays cannot reach
    it: a loaded one holds views of its file's bytes, any other copies.  It
    keeps the
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

        An R entry outside [-ell, ell] has no code in the input of H'
        (canonical_ct_bytes raises ParameterError, the one range check of
        R), and a c1..c4 word outside [0, q) is no residue, so such a
        ciphertext is not intact: False before any hashing, never a raise,
        so that a tampered file loads and is then rejected, and no word
        moved by q (or an R entry by 256, a wrap of its code) keeps the
        tag.  The tag is hashed once per ParamSet and kept; later checks
        compare lambda bits.  Two threads that race store the same tag.
        Malformed shapes raise DimensionMismatch: c5 here, R and c1..c4 in
        canonical_ct_bytes.
        """
        if self.c5.shape != (params.lambda_bits,):
            raise DimensionMismatch(f"c5 must have {params.lambda_bits} bits")
        tag = self._tags.get(params)
        if tag is None:
            payloads = (self.c1, self.c2, self.c3, self.c4)
            if any(c.size and (c.min() < 0 or c.max() >= params.q) for c in payloads):
                return False
            try:
                data = canonical_ct_bytes(params, self.r_tag, *payloads)
            except ParameterError:      # an R entry with no code
                return False
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
    # A @ [Rbar; I] == G (mod q) gives each matrix rank n for every q
    pair_a = trap_gen(q, n, m, rng)
    pair_a_prime = trap_gen(q, n, m, rng)
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
    """Derive the identity's secret key: a gadget trapdoor R_ID of F_ID, a
    delegated basis E'_ID of F'_ID, and preimages of U under both.

    Three draws with the master trapdoors, sigma enforced, each checked
    by sample_left on every column: R_ID, the preimages under (A | the
    first m - nk columns of A_ID) of G minus A_ID's last nk columns, so
    the check is F_ID @ [R_ID; I] == G (mod q); e_F, the preimages of U
    under F_ID; and E'_ID with e_F' from one sample_basis_left call.
    Every master draw is SampleD (trapdoor.GadgetTrapdoor).  E'_ID is
    certified by factoring it and keeps that R factor for td2, with the
    pivots, E and projections under F'_ID that td2 walks with, from the
    same QR.  A draw that fails (SamplingError) draws the whole key again,
    up to _EXTRACT_ATTEMPTS times.  A master key that is no trapdoor of
    pp's A and A' raises KeyMismatch (a ParameterError) on the first draw.
    """
    p = pp.params
    a_id = compute_a_id(pp, ident)
    # F_ID's last nk columns, the right end of A_ID, are its gadget block
    split = p.m - p.n * gadget_length(p.q)
    gadget_target = (gadget_matrix(p.n, p.q) - a_id[:, split:]) % p.q
    last_err = None
    for _ in range(_EXTRACT_ATTEMPTS):
        try:
            r_id = sample_left(pp.a, a_id[:, :split], msk.trapdoor_a, gadget_target, p.q, p.sigma, rng)
            e_f = sample_left(pp.a, a_id, msk.trapdoor_a, pp.u, p.q, p.sigma, rng)
            basis_prime, e_f_prime = sample_basis_left(
                pp.a_prime, a_id, msk.trapdoor_a_prime, pp.u, p.q, p.sigma, rng
            )
            a_bar_id = concat_cols([pp.a, a_id[:, :split]])
            return UserSecretKey(ident, r_id, a_bar_id, p.q, e_f, e_f_prime, basis_prime)
        except SamplingError as err:
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

    # R_ID = sum_i b_i R_i over independent uniform sign matrices R_i; each
    # b_i is +-1, so each b_i R_i is a uniform sign matrix too and R_ID's
    # entries are i.i.d. sums of ell uniform signs, drawn in one pass
    r_id = sample_sign_sum(ell, m, rng)
    r_tag = sample_bounded_matrix(ell, m, rng)

    f_id = compute_f(pp, ident, "primary")
    f_id_prime = compute_f(pp, ident, "prime")
    ar = mat_mul(pp.a, r_tag, q)
    f1 = concat_cols([f_id, ar])
    f2 = concat_cols([f_id_prime, ar])

    # y^T first keeps the m x m operand contiguous in the product
    y = np.column_stack([y1, y2])
    z1, z2 = mat_mul(y.T, r_id, q)
    rr1, rr2 = mat_mul(y.T, r_tag, q)

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
    or against another identity's F_ID, raises KeyMismatch (a
    ParameterError).
    """
    f = compute_f(pp, ident, which)
    if e.shape != (f.shape[1], pp.u.shape[1]) or not np.array_equal(mat_mul(f, e, pp.params.q), pp.u):
        raise KeyMismatch("key preimage does not solve F_ID @ e == U for these public parameters")
    return e


def ciphertext_integrity_ok(pp: PublicParams, ct: Ciphertext) -> bool:
    """Whether ct passes its integrity check under pp's parameters (Ciphertext.intact)."""
    return ct.intact(pp.params)


def decrypt(pp: PublicParams, sk: KeyPreimage, ct: Ciphertext, rng: RandomSource):
    """Recover the message, or None when the ciphertext fails its checks.

    None is a domain outcome (tampered or mismatched ciphertext), not an
    error; malformed shapes, and a key whose preimages do not solve
    F @ e == U for pp (KeyMismatch), raise instead.  rng is unused: the
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
