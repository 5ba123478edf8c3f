"""Bit-exact binary file formats for keys, ciphertexts, and trapdoors.

Layout of every artifact:

  magic "IBFA" | version u16 | kind u8 | params fingerprint (32 bytes)
  parameter fields, 8 bytes each, little-endian
      (lambda, n, m, q, t, ell as u64; sigma, alpha as IEEE-754 binary64;
       Q_bound as u64)
  kind-specific payload

Residue matrices are stored row-major as u64 little-endian; signed
integer matrices as i64 two's-complement little-endian; bit strings are
packed little-endian within each byte.  Loads verify magic, version,
kind, exact payload length, and (when the caller supplies a reference
parameter set) the fingerprint, so mixed-parameter artifacts are always
rejected.  Writes are atomic: temp file in the same directory, then
rename.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .authz import TrapdoorT1, TrapdoorT2, TrapdoorT3
from .errors import FormatError
from .hashing import bits_to_bytes, bytes_to_bits, hash_hprime
from .params import ParamSet
from .scheme import Ciphertext, Identity, MasterSecretKey, PublicParams, UserSecretKey
from .trapdoor import TrapdoorBasis

MAGIC = b"IBFA"
VERSION = 1

KIND_PP = 1
KIND_MSK = 2
KIND_SK = 3
KIND_CT = 4
KIND_TD1 = 5
KIND_TD2 = 6
KIND_TD3 = 7

_KIND_NAMES = {
    KIND_PP: "public parameters",
    KIND_MSK: "master secret key",
    KIND_SK: "user secret key",
    KIND_CT: "ciphertext",
    KIND_TD1: "type-1 trapdoor",
    KIND_TD2: "type-2 trapdoor",
    KIND_TD3: "type-3 trapdoor",
}

_PARAMS_STRUCT = struct.Struct("<QQQQQQddQ")


def encode_params(p: ParamSet) -> bytes:
    return _PARAMS_STRUCT.pack(
        p.lambda_bits, p.n, p.m, p.q, p.t, p.ell, p.sigma, p.alpha, p.q_bound
    )


def decode_params(blob: bytes) -> ParamSet:
    vals = _PARAMS_STRUCT.unpack(blob)
    return ParamSet(
        lambda_bits=int(vals[0]), n=int(vals[1]), m=int(vals[2]), q=int(vals[3]),
        t=int(vals[4]), ell=int(vals[5]), sigma=float(vals[6]), alpha=float(vals[7]),
        q_bound=int(vals[8]),
    )


def params_fingerprint(p: ParamSet) -> bytes:
    return bits_to_bytes(hash_hprime(encode_params(p), 256))


def _residues(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.int64).astype("<u8").tobytes()


def _signed(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.int64).astype("<i8").tobytes()


class _Reader:
    def __init__(self, blob: bytes, what: str):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.what}: truncated (need {n} more bytes)")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def residues(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        raw = np.frombuffer(self.take(8 * count), dtype="<u8")
        return raw.astype(np.int64).reshape(shape)

    def signed(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        raw = np.frombuffer(self.take(8 * count), dtype="<i8")
        return raw.astype(np.int64).reshape(shape)

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def done(self):
        if self.pos != len(self.blob):
            raise FormatError(f"{self.what}: {len(self.blob) - self.pos} trailing bytes")


def _header(kind: int, p: ParamSet) -> bytes:
    return MAGIC + struct.pack("<HB", VERSION, kind) + params_fingerprint(p) + encode_params(p)


def _open(blob: bytes, expect_kind: int, reference: ParamSet | None):
    what = _KIND_NAMES.get(expect_kind, "artifact")
    rd = _Reader(blob, what)
    if rd.take(4) != MAGIC:
        raise FormatError(f"{what}: bad magic")
    version, kind = struct.unpack("<HB", rd.take(3))
    if version != VERSION:
        raise FormatError(f"{what}: unsupported version {version}")
    if kind != expect_kind:
        raise FormatError(
            f"expected {what}, file holds {_KIND_NAMES.get(kind, f'kind {kind}')}"
        )
    fingerprint = rd.take(32)
    params = decode_params(rd.take(_PARAMS_STRUCT.size))
    if fingerprint != params_fingerprint(params):
        raise FormatError(f"{what}: parameter fingerprint mismatch within file")
    if reference is not None and params != reference:
        raise FormatError(f"{what}: parameters differ from the other artifacts in use")
    return rd, params


# -- public parameters -------------------------------------------------------


def dump_public_params(pp: PublicParams) -> bytes:
    p = pp.params
    parts = [_header(KIND_PP, p), _residues(pp.a), _residues(pp.a_prime)]
    parts += [_residues(a_i) for a_i in pp.a_list]
    parts += [_residues(pp.b), _residues(pp.u)]
    return b"".join(parts)


def load_public_params(blob: bytes) -> PublicParams:
    rd, p = _open(blob, KIND_PP, None)
    a = rd.residues((p.n, p.m))
    a_prime = rd.residues((p.n, p.m))
    a_list = tuple(rd.residues((p.n, p.m)) for _ in range(p.ell))
    b = rd.residues((p.n, p.m))
    u = rd.residues((p.n, p.t))
    rd.done()
    for name, mat in (("A", a), ("A'", a_prime), ("B", b), ("U", u), *(("A_i", x) for x in a_list)):
        if mat.min() < 0 or mat.max() >= p.q:
            raise FormatError(f"public parameters: {name} holds out-of-range residues")
    return PublicParams(p, a, a_prime, a_list, b, u)


# -- master secret key -------------------------------------------------------


def dump_master_secret(msk: MasterSecretKey, p: ParamSet) -> bytes:
    return b"".join([_header(KIND_MSK, p), _signed(msk.t_a), _signed(msk.t_a_prime)])


def load_master_secret(blob: bytes, reference: ParamSet | None = None) -> MasterSecretKey:
    rd, p = _open(blob, KIND_MSK, reference)
    t_a = rd.signed((p.m, p.m))
    t_a_prime = rd.signed((p.m, p.m))
    rd.done()
    return MasterSecretKey(TrapdoorBasis(t_a), TrapdoorBasis(t_a_prime))


# -- user secret key ---------------------------------------------------------


def _dump_identity(ident: Identity) -> bytes:
    return _signed(np.asarray(ident.bits, dtype=np.int64))


def _load_identity(rd: _Reader, ell: int) -> Identity:
    bits = rd.signed((ell,))
    if not np.all(np.abs(bits) == 1):
        raise FormatError(f"{rd.what}: identity entries must be +-1")
    return Identity(tuple(int(b) for b in bits))


def dump_user_secret(sk: UserSecretKey, p: ParamSet) -> bytes:
    return b"".join(
        [_header(KIND_SK, p), _dump_identity(sk.identity), _signed(sk.e_id), _signed(sk.e_id_prime)]
    )


def load_user_secret(blob: bytes, reference: ParamSet | None = None) -> UserSecretKey:
    rd, p = _open(blob, KIND_SK, reference)
    ident = _load_identity(rd, p.ell)
    e_id = rd.signed((2 * p.m, 2 * p.m))
    e_id_prime = rd.signed((2 * p.m, 2 * p.m))
    rd.done()
    return UserSecretKey(ident, TrapdoorBasis(e_id), TrapdoorBasis(e_id_prime))


# -- ciphertext ---------------------------------------------------------------


def dump_ciphertext(ct: Ciphertext, p: ParamSet, msg_bitlen: int | None = None) -> bytes:
    msg_bitlen = p.t if msg_bitlen is None else int(msg_bitlen)
    return b"".join(
        [
            _header(KIND_CT, p),
            struct.pack("<Q", msg_bitlen),
            _signed(ct.r_tag),
            _residues(ct.c1),
            _residues(ct.c2),
            _residues(ct.c3),
            _residues(ct.c4),
            bits_to_bytes(ct.c5),
        ]
    )


def load_ciphertext(blob: bytes, reference: ParamSet | None = None) -> tuple[Ciphertext, int]:
    rd, p = _open(blob, KIND_CT, reference)
    msg_bitlen = rd.u64()
    if msg_bitlen > p.t:
        raise FormatError("ciphertext: recorded message length exceeds t")
    r_tag = rd.signed((p.m, p.m))
    c1 = rd.residues((p.t,))
    c2 = rd.residues((p.t,))
    c3 = rd.residues((3 * p.m,))
    c4 = rd.residues((3 * p.m,))
    c5 = bytes_to_bits(rd.take((p.lambda_bits + 7) // 8), p.lambda_bits)
    rd.done()
    # no value-range checks here: the integrity digest is the authority on
    # tampered content, and decryption must answer REJECT, not a load error
    return Ciphertext(r_tag, c1, c2, c3, c4, c5), int(msg_bitlen)


# -- trapdoors ----------------------------------------------------------------


def _dump_td1_payload(td: TrapdoorT1) -> list[bytes]:
    return [_dump_identity(td.identity), _signed(td.e_prime)]


def _load_td1_payload(rd: _Reader, p: ParamSet) -> TrapdoorT1:
    ident = _load_identity(rd, p.ell)
    return TrapdoorT1(ident, TrapdoorBasis(rd.signed((2 * p.m, 2 * p.m))))


def _dump_td2_payload(td: TrapdoorT2) -> list[bytes]:
    return [_dump_identity(td.identity), bits_to_bytes(td.ct_binding), _signed(td.e_prime)]


def _load_td2_payload(rd: _Reader, p: ParamSet) -> TrapdoorT2:
    ident = _load_identity(rd, p.ell)
    binding = bytes_to_bits(rd.take((p.lambda_bits + 7) // 8), p.lambda_bits)
    return TrapdoorT2(ident, binding, rd.signed((3 * p.m, p.t)))


def dump_td1(td: TrapdoorT1, p: ParamSet) -> bytes:
    return b"".join([_header(KIND_TD1, p), *_dump_td1_payload(td)])


def load_td1(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT1:
    rd, p = _open(blob, KIND_TD1, reference)
    td = _load_td1_payload(rd, p)
    rd.done()
    return td


def dump_td2(td: TrapdoorT2, p: ParamSet) -> bytes:
    return b"".join([_header(KIND_TD2, p), *_dump_td2_payload(td)])


def load_td2(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT2:
    rd, p = _open(blob, KIND_TD2, reference)
    td = _load_td2_payload(rd, p)
    rd.done()
    return td


# type-3 payload: variant byte (0 basis side, 1 ciphertext-bound), then the
# type-1 or type-2 payload
def dump_td3(td: TrapdoorT3, p: ParamSet) -> bytes:
    if td.is_basis_side:
        return b"".join([_header(KIND_TD3, p), b"\x00", *_dump_td1_payload(td.payload)])
    return b"".join([_header(KIND_TD3, p), b"\x01", *_dump_td2_payload(td.payload)])


def load_td3(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT3:
    rd, p = _open(blob, KIND_TD3, reference)
    variant = rd.take(1)[0]
    if variant not in (0, 1):
        raise FormatError(f"type-3 trapdoor: unknown variant {variant}")
    td = (_load_td2_payload if variant else _load_td1_payload)(rd, p)
    rd.done()
    return TrapdoorT3(td)


# -- atomic file helpers ------------------------------------------------------


def write_file(path: str, blob: bytes) -> None:
    """Write-then-rename so readers never observe a partial artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ibfa-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
