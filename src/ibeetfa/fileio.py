"""Bit-exact binary file formats for keys, ciphertexts, and trapdoors.

Layout of every artifact:

  magic "IBFA" | version u16 | kind u8 | params fingerprint (32 bytes)
  parameter fields, 8 bytes each, little-endian
      (lambda, n, m, q, t, ell as u64; sigma, alpha as IEEE-754 binary64;
       Q_bound as u64)
  kind-specific payload

Residue matrices are stored row-major as u64 little-endian; signed
integer matrices as i64 two's-complement little-endian; real factors as
IEEE-754 binary64 little-endian; bit strings are packed little-endian
within each byte.  Dumps join views of the arrays' own buffers, so each
blob is built in one copy.  Loads verify magic, version, kind, exact
payload length, and (when the caller supplies a reference parameter
set) the fingerprint, so mixed-parameter artifacts are always rejected.
Writes are atomic: temp file in the same directory, then rename.

Each kind is written and read at the format version in which its payload
last changed (_VERSIONS); a file of any other version is refused.
Version 2 gave the user secret key its preimages e_F and e_F' of U, and
made the type-1 payload (also the basis side of type 3) e_F' instead of
the basis E'_ID.  Version 3 (user secret key only) appends the R factor
extract certified E'_ID with, its upper triangle row after row
(2m(2m+1)/2 words, PreparedBasis.r_rows), so a loaded key factors
nothing; the load checks in O(m^2) that it is E'_ID's
(samplers.adopt_r_factor) and refuses the file otherwise.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .authz import TrapdoorT1, TrapdoorT2, TrapdoorT3
from .errors import FormatError, SingularMatrix
from .hashing import bits_to_bytes, bytes_to_bits, hash_hprime
from .params import ParamSet
from .samplers import adopt_r_factor
from .scheme import Ciphertext, Identity, MasterSecretKey, PublicParams, UserSecretKey
from .trapdoor import TrapdoorBasis

MAGIC = b"IBFA"

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

#: Format version of each kind whose payload changed; every other kind is at 1.
_VERSIONS = {KIND_SK: 3, KIND_TD1: 2, KIND_TD3: 2}

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


def _words(arr: np.ndarray) -> memoryview:
    """The 8-byte little-endian words of arr, as a view (no copy for C-ordered int64).

    Signed entries are written in two's complement, residues in [0, q)
    read back as u64: the bytes are the same.
    """
    return memoryview(np.ascontiguousarray(arr, dtype="<i8"))


class _Reader:
    def __init__(self, blob: bytes, what: str):
        self.blob = memoryview(blob)  # take() slices without copying
        self.pos = 0
        self.what = what

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.what}: truncated (need {n} more bytes)")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def words(self, shape) -> np.ndarray:
        """The next 8-byte words as an int64 array (the mirror of _words).

        A residue word of 2**63 or more reads back negative, which the
        range check of load_public_params rejects.
        """
        count = int(np.prod(shape))
        raw = np.frombuffer(self.take(8 * count), dtype="<i8")
        return raw.astype(np.int64).reshape(shape)

    def reals(self, count: int) -> np.ndarray:
        """The next count binary64 words, as a float64 array of its own."""
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def done(self):
        if self.pos != len(self.blob):
            raise FormatError(f"{self.what}: {len(self.blob) - self.pos} trailing bytes")


def _header(kind: int, p: ParamSet) -> bytes:
    version = _VERSIONS.get(kind, 1)
    return MAGIC + struct.pack("<HB", version, kind) + params_fingerprint(p) + encode_params(p)


def _open(blob: bytes, expect_kind: int, reference: ParamSet | None):
    what = _KIND_NAMES.get(expect_kind, "artifact")
    rd = _Reader(blob, what)
    if rd.take(4) != MAGIC:
        raise FormatError(f"{what}: bad magic")
    version, kind = struct.unpack("<HB", rd.take(3))
    if kind != expect_kind:
        raise FormatError(
            f"expected {what}, file holds {_KIND_NAMES.get(kind, f'kind {kind}')}"
        )
    if version != _VERSIONS.get(kind, 1):
        raise FormatError(f"{what}: unsupported format version {version}")
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
    parts = [_header(KIND_PP, p), _words(pp.a), _words(pp.a_prime)]
    parts += [_words(a_i) for a_i in pp.a_list]
    parts += [_words(pp.b), _words(pp.u)]
    return b"".join(parts)


def load_public_params(blob: bytes) -> PublicParams:
    rd, p = _open(blob, KIND_PP, None)
    a = rd.words((p.n, p.m))
    a_prime = rd.words((p.n, p.m))
    a_list = tuple(rd.words((p.n, p.m)) for _ in range(p.ell))
    b = rd.words((p.n, p.m))
    u = rd.words((p.n, p.t))
    rd.done()
    for name, mat in (("A", a), ("A'", a_prime), ("B", b), ("U", u), *(("A_i", x) for x in a_list)):
        if mat.min() < 0 or mat.max() >= p.q:
            raise FormatError(f"public parameters: {name} holds out-of-range residues")
    return PublicParams(p, a, a_prime, a_list, b, u)


# -- master secret key -------------------------------------------------------


def dump_master_secret(msk: MasterSecretKey, p: ParamSet) -> bytes:
    return b"".join([_header(KIND_MSK, p), _words(msk.t_a), _words(msk.t_a_prime)])


def load_master_secret(blob: bytes, reference: ParamSet | None = None) -> MasterSecretKey:
    rd, p = _open(blob, KIND_MSK, reference)
    t_a = rd.words((p.m, p.m))
    t_a_prime = rd.words((p.m, p.m))
    rd.done()
    return MasterSecretKey(TrapdoorBasis(t_a), TrapdoorBasis(t_a_prime))


# -- user secret key ---------------------------------------------------------


def _dump_identity(ident: Identity) -> memoryview:
    return _words(np.asarray(ident.bits, dtype=np.int64))


def _load_identity(rd: _Reader, ell: int) -> Identity:
    bits = rd.words((ell,))
    if not np.all(np.abs(bits) == 1):
        raise FormatError(f"{rd.what}: identity entries must be +-1")
    return Identity(tuple(int(b) for b in bits))


def dump_user_secret(sk: UserSecretKey, p: ParamSet) -> bytes:
    r_rows = sk.trapdoor_prime.prepared().r_rows
    return b"".join(
        [_header(KIND_SK, p), _dump_identity(sk.identity), _words(sk.e_id), _words(sk.e_id_prime),
         _words(sk.e_f), _words(sk.e_f_prime), memoryview(np.ascontiguousarray(r_rows, dtype="<f8"))]
    )


def load_user_secret(blob: bytes, reference: ParamSet | None = None) -> UserSecretKey:
    rd, p = _open(blob, KIND_SK, reference)
    ident = _load_identity(rd, p.ell)
    e_id = rd.words((2 * p.m, 2 * p.m))
    e_id_prime = rd.words((2 * p.m, 2 * p.m))
    e_f = rd.words((2 * p.m, p.t))
    e_f_prime = rd.words((2 * p.m, p.t))
    r_rows = rd.reals(p.m * (2 * p.m + 1))  # 2m(2m+1)/2
    rd.done()
    try:
        prep = adopt_r_factor(e_id_prime, r_rows)
    except SingularMatrix as err:
        raise FormatError(f"user secret key: stored R factor refused: {err}") from None
    return UserSecretKey(ident, TrapdoorBasis(e_id), TrapdoorBasis(e_id_prime, prep=prep),
                         e_f, e_f_prime)


# -- ciphertext ---------------------------------------------------------------


def dump_ciphertext(ct: Ciphertext, p: ParamSet, msg_bitlen: int | None = None) -> bytes:
    msg_bitlen = p.t if msg_bitlen is None else int(msg_bitlen)
    return b"".join(
        [
            _header(KIND_CT, p),
            struct.pack("<Q", msg_bitlen),
            _words(ct.r_tag),
            _words(ct.c1),
            _words(ct.c2),
            _words(ct.c3),
            _words(ct.c4),
            bits_to_bytes(ct.c5),
        ]
    )


def load_ciphertext(blob: bytes, reference: ParamSet | None = None) -> tuple[Ciphertext, int]:
    rd, p = _open(blob, KIND_CT, reference)
    msg_bitlen = rd.u64()
    if msg_bitlen > p.t:
        raise FormatError("ciphertext: recorded message length exceeds t")
    r_tag = rd.words((p.m, p.m))
    c1 = rd.words((p.t,))
    c2 = rd.words((p.t,))
    c3 = rd.words((3 * p.m,))
    c4 = rd.words((3 * p.m,))
    c5 = bytes_to_bits(rd.take((p.lambda_bits + 7) // 8), p.lambda_bits)
    rd.done()
    # no value-range checks here: the integrity digest is the authority on
    # tampered content, and decryption must answer REJECT, not a load error
    return Ciphertext(r_tag, c1, c2, c3, c4, c5), int(msg_bitlen)


# -- trapdoors ----------------------------------------------------------------


def _dump_td1_payload(td: TrapdoorT1) -> list:
    return [_dump_identity(td.identity), _words(td.e_prime)]


def _load_td1_payload(rd: _Reader, p: ParamSet) -> TrapdoorT1:
    ident = _load_identity(rd, p.ell)
    return TrapdoorT1(ident, rd.words((2 * p.m, p.t)))


def _dump_td2_payload(td: TrapdoorT2) -> list:
    return [_dump_identity(td.identity), bits_to_bytes(td.ct_binding), _words(td.e_prime)]


def _load_td2_payload(rd: _Reader, p: ParamSet) -> TrapdoorT2:
    ident = _load_identity(rd, p.ell)
    binding = bytes_to_bits(rd.take((p.lambda_bits + 7) // 8), p.lambda_bits)
    return TrapdoorT2(ident, binding, rd.words((3 * p.m, p.t)), p)


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
