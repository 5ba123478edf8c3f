"""Bit-exact binary file formats for keys, ciphertexts, and trapdoors.

Layout of every artifact:

  magic "IBFA" | version u16 | kind u8 | params fingerprint (32 bytes)
  parameter fields, 8 bytes each, little-endian
      (lambda, n, m, q, t, ell as u64; sigma, alpha as IEEE-754 binary64;
       Q_bound as u64)
  kind-specific payload

Residue matrices are stored row-major as u64 little-endian; signed
integer matrices as i64 two's-complement little-endian (the user secret
key's as i32, see below); real factors as
IEEE-754 binary64 little-endian; bit strings are packed little-endian
within each byte.  Dumps join views of the arrays' own buffers, so each
blob is built in one copy.  Loads verify magic, version, kind, the
header's fingerprint, that its parameter set passes
params.validate_params, the exact payload length, and (when the caller
supplies a reference parameter set) that the parameters are the
reference's, so mixed-parameter artifacts are always rejected.
Writes are atomic: temp file in the directory of the target (symlinks
resolved), then rename (a target that exists and is no regular file,
such as a FIFO, is written in place instead).

Each kind is written and read at the format version in which its payload
last changed (_VERSIONS); a file of any other version is refused.
Version 2 gave the user secret key its preimages e_F and e_F' of U, and
made the type-1 payload (also the basis side of type 3) e_F' instead of
the basis E'_ID.  Version 3 (user secret key only) appends the R factor
extract certified E'_ID with, its upper triangle row after row
(2m(2m+1)/2 words, PreparedBasis.r_rows), so a loaded key factors
nothing; the load checks in O(m^2) that it is E'_ID's
(samplers.adopt_r_factor) and refuses the file otherwise.  Version 4
(user secret key only) stores E_ID, E'_ID, e_F and e_F' as i32, the
width a key holds them at in memory too (scheme.UserSecretKey), so dump
writes them as they are and a load copies them without widening.  It
keeps the R block and appends the coset map extract built for E'_ID
under F'_ID: its n pivot rows (i64), the n x n elimination matrix E (u64
residues) and the 2m x n projections P = Q^T W (binary64), W the 0/1
matrix that puts a coordinate on each pivot row (neither the file nor
the key holds W).  The load checks the pivots, E's range and P against
E'_ID and R in O(m^2 n) (trapdoor.adopt_trapdoor), so a loaded key
derives nothing; each draw checks the map against F'_ID
(TrapdoorBasis.require).
Version 5 (user secret key only) replaces the 2m x 2m basis E_ID by the
key's gadget trapdoor R_ID ((2m - nk) x nk, i32) and appends the public
Abar_ID, the left 2m - nk columns of F_ID (u64 residues), from which a
key rebuilds E_ID (scheme.UserSecretKey.e_id); the R block and the coset
map stay as in version 4.
Version 2 of the master secret key holds only Rbar and Rbar' (entries
+-1), not T_A, T_A'.
Version 2 of the ciphertext keeps the version-1 layout, but its c5 is
H' over the coded tag matrix (hashing.canonical_ct_bytes), so a
version-1 ciphertext, whose c5 hashed R as 64-bit residues, is refused
rather than rejected as tampered.  Type-2 and type-3 trapdoors keep their
version: their binding is simply the new c5.
"""

from __future__ import annotations

import os
import stat
import struct
import tempfile

import numpy as np

from .authz import TrapdoorT1, TrapdoorT2, TrapdoorT3
from .errors import FormatError, IbeetfaError, ParameterError, SingularMatrix
from .hashing import bits_to_bytes, bytes_to_bits, hash_hprime
from .params import ParamSet, validate_params
from .scheme import Ciphertext, Identity, MasterSecretKey, PublicParams, UserSecretKey
from .trapdoor import GadgetTrapdoor, adopt_trapdoor, gadget_length, require_gadget_trapdoor

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
_VERSIONS = {KIND_MSK: 2, KIND_SK: 5, KIND_CT: 2, KIND_TD1: 2, KIND_TD3: 2}

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


def _reals(arr: np.ndarray) -> memoryview:
    """The IEEE-754 binary64 little-endian words of arr, as a view when it is C-ordered float64."""
    return memoryview(np.ascontiguousarray(arr, dtype="<f8"))


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

    def int32s(self, shape) -> np.ndarray:
        """The next 4-byte signed words, as an int32 array of its own (no int64 copy).

        The copy is aligned and does not keep the blob alive.
        """
        count = int(np.prod(shape))
        return np.frombuffer(self.take(4 * count), dtype="<i4").astype(np.int32).reshape(shape)

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
    violations = validate_params(params)
    if violations:
        raise FormatError(f"{what}: parameter set violates constraints: " + "; ".join(violations))
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
    """The msk file: Rbar and Rbar'."""
    return b"".join([_header(KIND_MSK, p), _words(msk.trapdoor_a.r_bar), _words(msk.trapdoor_a_prime.r_bar)])


def load_master_secret(blob: bytes, pp: PublicParams) -> MasterSecretKey:
    """The master key of pp: a GadgetTrapdoor of each Rbar and pp's Abar.

    Each Rbar must be a gadget trapdoor of pp's A or A' (require_gadget_trapdoor),
    so another system's master key is refused here, before any sampling.
    """
    rd, p = _open(blob, KIND_MSK, pp.params)
    m_bar = p.m - p.n * gadget_length(p.q)
    r_bar = rd.words((2, m_bar, p.m - m_bar))
    rd.done()
    if np.any(np.abs(r_bar) != 1):
        raise FormatError("master secret key: Rbar entries must be +-1")
    try:
        for a, r in zip((pp.a, pp.a_prime), r_bar):
            require_gadget_trapdoor(a, r, p.q)
    except ParameterError:
        raise FormatError("master secret key: Rbar is no trapdoor of these public parameters") from None
    return MasterSecretKey(GadgetTrapdoor(pp.a[:, :m_bar], r_bar[0], p.q),
                           GadgetTrapdoor(pp.a_prime[:, :m_bar], r_bar[1], p.q))


# -- user secret key ---------------------------------------------------------


def _dump_identity(ident: Identity) -> memoryview:
    return _words(np.asarray(ident.bits, dtype=np.int64))


def _load_identity(rd: _Reader, ell: int) -> Identity:
    bits = rd.words((ell,))
    if not np.all(np.abs(bits) == 1):
        raise FormatError(f"{rd.what}: identity entries must be +-1")
    return Identity(tuple(int(b) for b in bits))


def dump_user_secret(sk: UserSecretKey, p: ParamSet) -> bytes:
    """The sk file (version 5).  The key's integer matrices are int32
    (UserSecretKey narrows them), so they are written as they are."""
    td = sk.trapdoor_prime
    sections = [memoryview(np.ascontiguousarray(arr, dtype="<i4"))
                for arr in (sk.r_id, sk.e_id_prime, sk.e_f, sk.e_f_prime)]
    return b"".join(
        [_header(KIND_SK, p), _dump_identity(sk.identity), *sections, _words(sk.a_bar_id),
         *map(_reals, td.prep.rows()), _words(td.pivots), _words(td.elim), _reals(td.proj)]
    )


def load_user_secret(blob: bytes, reference: ParamSet | None = None) -> UserSecretKey:
    """The key in blob, E'_ID holding its stored R factor and coset map once
    both are checked against it; FormatError otherwise.

    Each int32 section is copied once, at its width; E'_ID is the only
    2m x 2m one.  An Abar_ID word outside [0, q) is refused.  R and the
    map are checked in that order (trapdoor.adopt_trapdoor), in one pass
    over R's blocks.
    """
    rd, p = _open(blob, KIND_SK, reference)
    d = 2 * p.m
    nk = p.n * gadget_length(p.q)
    ident = _load_identity(rd, p.ell)
    r_id = rd.int32s((d - nk, nk))
    e_id_prime = rd.int32s((d, d))
    e_f = rd.int32s((d, p.t))
    e_f_prime = rd.int32s((d, p.t))
    a_bar_id = rd.words((p.n, d - nk))
    # read in place: adopt_trapdoor copies R into its blocks and keeps no rows
    r_rows = np.frombuffer(rd.take(8 * (d * (d + 1) // 2)), dtype="<f8")
    pivots = rd.words((p.n,))
    elim = rd.words((p.n, p.n))
    proj = rd.reals(d * p.n).reshape(d, p.n)
    rd.done()
    if a_bar_id.min() < 0 or a_bar_id.max() >= p.q:
        raise FormatError("user secret key: Abar_ID holds out-of-range residues")
    try:
        td = adopt_trapdoor(e_id_prime, r_rows, p.q, pivots, elim, proj)
    except SingularMatrix as err:
        raise FormatError(f"user secret key: stored R factor refused: {err}") from None
    except ParameterError as err:
        raise FormatError(f"user secret key: stored coset map refused: {err}") from None
    return UserSecretKey(ident, r_id, a_bar_id, p.q, td, e_f, e_f_prime)


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
    # no value-range checks here: the integrity check (Ciphertext.intact,
    # which range-checks R) is the authority on tampered content, and
    # decryption must answer REJECT, not a load error
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
    """Write-then-rename so readers never observe a partial artifact.

    Symlinks are resolved first, so a link stays a link and its target
    gets the bytes.  A target that exists and is no regular file (a FIFO,
    a device) is written in place: a rename would replace it with a
    regular file.  An existing regular file keeps its permission bits; a
    new file is created 0600 whatever the umask, because master and user
    secret keys are written here too and this function does not know the
    kind.  A path that cannot be written raises IbeetfaError and leaves no
    temp file behind.
    """
    try:
        target = os.path.realpath(path)
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "wb") as fh:
                fh.write(blob)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ibfa-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            if os.path.exists(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as err:
        raise IbeetfaError(f"cannot write {path}: {err}") from None


def read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
