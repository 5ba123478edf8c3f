"""Flexible authorization: trapdoor generation and the three equality tests.

A type-1 trapdoor is the key's preimage e_F' of U under F'_ID, which
needs no ciphertext, so it lets the holder decode the digest of every
ciphertext of that identity and nothing more: it carries no basis, so it
cannot issue type-2 trapdoors.  A type-2 trapdoor is a preimage bound to
a single ciphertext, sampled afresh with the key basis E'_ID against
that ciphertext's tag matrix; type-3 wraps either side, so one party can
grant identity-wide comparison while the other grants a single
ciphertext.  Every test compares the decoded digests of the two sides
and never exposes message material.

None is the domain "reject" outcome throughout (failed integrity or
binding); malformed shapes raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterError
from .params import ParamSet
from .samplers import RandomSource
from .scheme import (
    Ciphertext,
    Identity,
    PublicParams,
    UserSecretKey,
    checked_preimage,
    ciphertext_integrity_ok,
    compute_f,
    decode_with_preimage,
    frozen_array,
    tag_product,
)
from .trapdoor import sample_left


@dataclass(frozen=True)
class TrapdoorT1:
    """Identity-wide comparison authority: the key's preimage e_F' (2m x t) of U.

    Held as a read-only copy.  Carries the identity because checking
    F'_ID @ e_F' == U requires it.
    """

    identity: Identity
    e_prime: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e_prime", frozen_array(self.e_prime))


@dataclass(frozen=True)
class TrapdoorT2:
    """Single-ciphertext comparison authority: a bound preimage.

    Carries the parameters it was issued under, so the test side can check
    the ciphertext's integrity without the public parameters.
    """

    identity: Identity
    ct_binding: np.ndarray  # lambda-bit digest of the bound ciphertext
    e_prime: np.ndarray     # 3m x t
    params: ParamSet


@dataclass(frozen=True)
class TrapdoorT3:
    """Either a type-1 or a type-2 payload, tagged by breadth."""

    payload: "TrapdoorT1 | TrapdoorT2"

    @property
    def is_basis_side(self) -> bool:
        return isinstance(self.payload, TrapdoorT1)


def td1(sk: UserSecretKey, ident: Identity) -> TrapdoorT1:
    """Identity-wide trapdoor from a secret key."""
    if ident.bits != sk.identity.bits:
        raise ParameterError("secret key belongs to a different identity")
    return TrapdoorT1(ident, sk.e_f_prime)


def td2(pp: PublicParams, sk: UserSecretKey, ident: Identity, ct: Ciphertext, rng: RandomSource):
    """Ciphertext-bound trapdoor, or None if the ciphertext fails integrity."""
    if ident.bits != sk.identity.bits:
        raise ParameterError("secret key belongs to a different identity")
    if not ciphertext_integrity_ok(pp, ct):
        return None
    p = pp.params
    ar = tag_product(pp, ct.r_tag)
    f_prime = compute_f(pp, ident, "prime")
    # Sampled afresh against this ciphertext's A@R, with a Gaussian A@R-side
    # block: the key's ciphertext-independent preimage of U would let the
    # holder decode every ciphertext of the identity (type-1 power).
    e_prime = sample_left(
        f_prime, ar, sk.trapdoor_prime, pp.u, p.q, p.sigma, rng, enforce_sigma=False
    )
    return TrapdoorT2(ident, ct.c5, e_prime, p)


def td3_basis(sk: UserSecretKey, ident: Identity) -> TrapdoorT3:
    """Type-3 trapdoor, identity-wide flavor."""
    return TrapdoorT3(td1(sk, ident))


def td3_ct(pp: PublicParams, sk: UserSecretKey, ident: Identity, ct: Ciphertext, rng: RandomSource):
    """Type-3 trapdoor bound to one ciphertext, or None on bad integrity."""
    inner = td2(pp, sk, ident, ct, rng)
    return None if inner is None else TrapdoorT3(inner)


def digest_from_basis(pp: PublicParams, td: TrapdoorT1, ct: Ciphertext, rng: RandomSource):
    """Decode the digest component of a ciphertext using a type-1 trapdoor.

    Checks F'_ID @ e_F' == U for pp (ParameterError if not), verifies
    integrity and thresholds c2 - e_F'^T c4[:2m].  Returns None on a
    tampered ciphertext.  rng is unused.
    """
    e_prime = checked_preimage(pp, td.identity, "prime", td.e_prime)
    if not ciphertext_integrity_ok(pp, ct):
        return None
    return decode_with_preimage(e_prime, ct.c2, ct.c4, pp.params.q)


def digest_from_e(td: TrapdoorT2, ct: Ciphertext, q: int):
    """Decode the digest component using a ciphertext-bound trapdoor.

    The trapdoor only applies to the ciphertext it was issued for: a
    binding mismatch, or a ciphertext that fails its integrity check under
    the trapdoor's parameters, returns None.  A q other than the
    trapdoor's raises ParameterError.  Deterministic given (td, ct).
    """
    if q != td.params.q:
        raise ParameterError(f"modulus {q} differs from the trapdoor's {td.params.q}")
    if not np.array_equal(td.ct_binding, ct.c5) or not ct.intact(td.params):
        return None
    if td.e_prime.shape[0] != ct.c4.shape[0]:
        raise DimensionMismatch(
            f"trapdoor preimage has {td.e_prime.shape[0]} rows, c4 has {ct.c4.shape[0]}"
        )
    return decode_with_preimage(td.e_prime, ct.c2, ct.c4, q)


def _compare(h_i, h_j):
    if h_i is None or h_j is None:
        return None
    return int(np.array_equal(h_i, h_j))


def _digest(pp: PublicParams, td, ct: Ciphertext, rng: RandomSource):
    """One side of an equality test: the decoded digest of ct, or None on reject.

    Calls the digest functions through their module-level names, which
    perfbench's tracer rebinds.
    """
    if isinstance(td, TrapdoorT3):
        td = td.payload
    if isinstance(td, TrapdoorT1):
        return digest_from_basis(pp, td, ct, rng)
    return digest_from_e(td, ct, pp.params.q)


def test1(td_i: TrapdoorT1, td_j: TrapdoorT1, ct_i: Ciphertext, ct_j: Ciphertext,
          pp: PublicParams, rng: RandomSource):
    """1 if the two ciphertexts hide the same message, 0 if not, None on reject."""
    return _compare(_digest(pp, td_i, ct_i, rng), _digest(pp, td_j, ct_j, rng))


def test2(td_i: TrapdoorT2, td_j: TrapdoorT2, ct_i: Ciphertext, ct_j: Ciphertext, q: int):
    """Equality test over two ciphertext-bound trapdoors."""
    h_i = digest_from_e(td_i, ct_i, q)
    h_j = digest_from_e(td_j, ct_j, q)
    return _compare(h_i, h_j)


def test3(td_i: TrapdoorT3, td_j: TrapdoorT3, ct_i: Ciphertext, ct_j: Ciphertext,
          pp: PublicParams, rng: RandomSource):
    """Equality test accepting any mix of identity-wide and bound trapdoors."""
    return _compare(_digest(pp, td_i, ct_i, rng), _digest(pp, td_j, ct_j, rng))
