"""Bit-exact binary file formats for keys, ciphertexts, and trapdoors.

Layout of every artifact:

  magic "IBFA" | version u16 | kind u8 | reserved u8 (zero)
  params fingerprint (32 bytes)
  parameter fields, 8 bytes each, little-endian
      (lambda, n, m, q, t, ell as u64; sigma, alpha as IEEE-754 binary64;
       Q_bound as u64)
  kind-specific sections

The header is 112 bytes, and every section starts on an 8-byte boundary:
a section whose length is no multiple of 8 is followed by zero pad bytes
up to the next one, and the last section by none.  Residue matrices are
stored row-major as u64 little-endian; signed integer matrices as i64
two's-complement little-endian (the user secret key's as i32, see
below); real factors as IEEE-754 binary64 little-endian; bit strings are
packed little-endian within each byte.  Dumps join views of the arrays'
own buffers, so each blob is built in one copy.  Loads verify magic,
version, kind, the reserved byte and every pad byte (zero), the header's
fingerprint, that its parameter set passes params.validate_params, the
exact payload length, and (when the caller supplies a reference
parameter set) that the parameters are the reference's, so
mixed-parameter artifacts are always rejected.  A load holds its blob as
an immutable bytes object and reads each array section as a read-only
np.frombuffer view of it, aligned, with no copy: the loaded objects keep
those views (scheme.frozen_array), so they keep the blob alive.
Writes are atomic: temp file in the directory of the target (symlinks
resolved), then rename (a target that exists and is no regular file,
such as a FIFO, is written in place instead).

A user secret key file holds first its prefix (identity, R_ID, e_F,
e_F', Abar_ID), all that decrypt, td1 and td3_basis use, then E'_ID's
basis and sampling data (E'_ID, R, pivots, E, P), so read_key_preimage
reads the header and the prefix alone (a KeyPreimage), from a file whose
size it checks; load_user_secret reads and checks it all.

Each kind is written and read at the format version in which its layout
last changed (_VERSIONS); a file of any other version is refused.
Version 2 gave the user secret key its preimages e_F and e_F' of U, and
made the type-1 payload (also the basis side of type 3) e_F' instead of
the basis E'_ID.  Version 3 (user secret key only) appends the R factor
extract certified E'_ID with, its upper triangle row after row, so a
loaded key factors nothing; the load checks in O(m^2) that it is E'_ID's
(samplers.adopt_r_factor) and refuses the file otherwise.  Version 4
(user secret key only) stores E_ID, E'_ID, e_F and e_F' as i32, the
width a key holds them at in memory too (scheme.UserSecretKey), and
appends the coset map extract built for E'_ID under F'_ID: its n pivot
rows (i64), the n x n elimination matrix E (u64 residues) and the 2m x n
projections P = Q^T W (binary64), W the 0/1 matrix that puts a
coordinate on each pivot row (neither the file nor the key holds W).
The load checks the pivots, E's range and P against E'_ID and R in
O(m^2 n) (trapdoor.adopt_trapdoor), so a loaded key derives nothing;
each draw checks the map against F'_ID (TrapdoorBasis.require).
Version 5 (user secret key only) replaces the 2m x 2m basis E_ID by the
key's gadget trapdoor R_ID ((2m - nk) x nk, i32) and appends the public
Abar_ID, the left 2m - nk columns of F_ID (u64 residues), from which a
key rebuilds E_ID (scheme.KeyPreimage.e_id).
Version 2 of the master secret key holds only Rbar and Rbar' (entries
+-1), not T_A, T_A'.
Version 2 of the ciphertext keeps the version-1 layout, but its c5 is
H' over the coded tag matrix (hashing.canonical_ct_bytes), so a
version-1 ciphertext, whose c5 hashed R as 64-bit residues, is refused
rather than rejected as tampered.  Type-2 and type-3 trapdoors kept
their version then: their binding is simply the new c5.
The aligned layout moved every kind once: public parameters to version
2, master secret key 3, user secret key 6, ciphertext 3, type-1 trapdoor
3, type-2 2 and type-3 3.  It added the reserved header byte and the pad
bytes (a ciphertext has none: its file still ends with R, c1..c4 and
c5), and it reordered the user secret key into its prefix and the rest,
with R stored as the walk's row blocks (samplers.PreparedBasis.r, the
zeros below each block's diagonal included and checked) in place of the
packed upper triangle.
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
from .samplers import r_factor_words
from .scheme import Ciphertext, Identity, KeyPreimage, MasterSecretKey, PublicParams, UserSecretKey
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

#: Format version of each kind.
_VERSIONS = {KIND_PP: 2, KIND_MSK: 3, KIND_SK: 6, KIND_CT: 3, KIND_TD1: 3, KIND_TD2: 2, KIND_TD3: 3}

_PARAMS_STRUCT = struct.Struct("<QQQQQQddQ")

#: Bytes of the common header: magic, version, kind, reserved byte, fingerprint, parameters.
HEADER_SIZE = 4 + 2 + 1 + 1 + 32 + _PARAMS_STRUCT.size


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


def _section(arr, dtype: str) -> memoryview:
    """The words of arr at dtype ("<i8", "<i4" or "<f8"), as a view (no copy
    for a C-ordered array of that dtype).

    Signed entries are written in two's complement, residues in [0, q)
    read back as u64: the bytes are the same.
    """
    return memoryview(np.ascontiguousarray(arr, dtype=dtype))


def _words(arr) -> memoryview:
    """The 8-byte little-endian words of arr (_section)."""
    return _section(arr, "<i8")


def _pad(pos: int) -> int:
    """Zero bytes that take pos to the next 8-byte boundary."""
    return -pos % 8


def _join(parts) -> bytes:
    """The parts (bytes-like), each started on an 8-byte boundary by zero
    pad bytes, in one copy."""
    out, pos = [], 0
    for part in parts:
        pad = _pad(pos)
        out += [bytes(pad), part]
        pos += pad + memoryview(part).nbytes
    return b"".join(out)


def _size(sections) -> int:
    """The length of a file of these (dtype, shape) sections after the header."""
    pos = HEADER_SIZE
    for dtype, shape in sections:
        pos += _pad(pos) + np.dtype(dtype).itemsize * int(np.prod(shape))
    return pos


class _Reader:
    """The sections of one artifact, in order.  The blob is held as bytes
    (copied once if it is not), so the arrays read are views of memory
    nothing can change."""

    def __init__(self, blob: bytes, what: str):
        self.blob = memoryview(blob if type(blob) is bytes else bytes(blob))
        self.pos = 0
        self.what = what

    def take(self, n: int) -> memoryview:
        """The next n bytes, in place."""
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.what}: truncated (need {n} more bytes)")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def section(self, n: int) -> memoryview:
        """The next section's n bytes, after its pad bytes, which must be zero."""
        if any(self.take(_pad(self.pos))):
            raise FormatError(f"{self.what}: nonzero pad byte")
        return self.take(n)

    def array(self, dtype: str, shape) -> np.ndarray:
        """The next section as a read-only array of dtype: a view of the
        blob, aligned, with no copy (the mirror of _section)."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape))
        return np.frombuffer(self.section(dtype.itemsize * count), dtype=dtype).reshape(shape)

    def words(self, shape) -> np.ndarray:
        """The next 8-byte words as an int64 view.

        A residue word of 2**63 or more reads back negative, which the
        range check of load_public_params rejects.
        """
        return self.array("<i8", shape)

    def u64(self) -> int:
        return struct.unpack("<Q", self.section(8))[0]

    def done(self):
        if self.pos != len(self.blob):
            raise FormatError(f"{self.what}: {len(self.blob) - self.pos} trailing bytes")


def _header(kind: int, p: ParamSet) -> bytes:
    version = _VERSIONS[kind]
    return MAGIC + struct.pack("<HBB", version, kind, 0) + params_fingerprint(p) + encode_params(p)


def _open(blob: bytes, expect_kind: int, reference: ParamSet | None):
    what = _KIND_NAMES.get(expect_kind, "artifact")
    rd = _Reader(blob, what)
    if rd.take(4) != MAGIC:
        raise FormatError(f"{what}: bad magic")
    version, kind, reserved = struct.unpack("<HBB", rd.take(4))
    if kind != expect_kind:
        raise FormatError(
            f"expected {what}, file holds {_KIND_NAMES.get(kind, f'kind {kind}')}"
        )
    if version != _VERSIONS[kind]:
        raise FormatError(f"{what}: unsupported format version {version}")
    if reserved:
        raise FormatError(f"{what}: nonzero reserved header byte")
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
    return _join(parts)


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
    return _join([_header(KIND_MSK, p), _words(msk.trapdoor_a.r_bar), _words(msk.trapdoor_a_prime.r_bar)])


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


#: Sections of a user secret key file's prefix, the KeyPreimage.
_SK_PREFIX = 5


def _sk_sections(p: ParamSet) -> list[tuple[str, tuple]]:
    """(dtype, shape) of each section of a user secret key file, in order:
    the prefix (identity, R_ID, e_F, e_F', Abar_ID), then E'_ID, R's row
    blocks, the pivots, E and P."""
    d = 2 * p.m
    nk = p.n * gadget_length(p.q)
    return [("<i8", (p.ell,)), ("<i4", (d - nk, nk)), ("<i4", (d, p.t)), ("<i4", (d, p.t)),
            ("<i8", (p.n, d - nk)),
            ("<i4", (d, d)), ("<f8", (r_factor_words(d),)), ("<i8", (p.n,)), ("<i8", (p.n, p.n)),
            ("<f8", (d, p.n))]


def dump_user_secret(sk: UserSecretKey, p: ParamSet) -> bytes:
    """The sk file (version 6).  The key's integer matrices are int32
    (KeyPreimage narrows them) and its R one float64 buffer, so each is
    written as it is."""
    td = sk.trapdoor_prime
    arrays = (sk.identity.bits, sk.r_id, sk.e_f, sk.e_f_prime, sk.a_bar_id,
              td.basis, td.prep.r, td.pivots, td.elim, td.proj)
    return _join([_header(KIND_SK, p),
                  *(_section(arr, dtype) for arr, (dtype, _) in zip(arrays, _sk_sections(p)))])


def _load_key_prefix(rd: _Reader, p: ParamSet) -> tuple:
    """The KeyPreimage fields from a key file's prefix, as views of it."""
    ident = _load_identity(rd, p.ell)
    r_id, e_f, e_f_prime, a_bar_id = (rd.array(*s) for s in _sk_sections(p)[1:_SK_PREFIX])
    if a_bar_id.min() < 0 or a_bar_id.max() >= p.q:
        raise FormatError("user secret key: Abar_ID holds out-of-range residues")
    return ident, r_id, a_bar_id, p.q, e_f, e_f_prime


def load_key_preimage(blob: bytes, reference: ParamSet | None = None) -> KeyPreimage:
    """The KeyPreimage in blob, a user secret key file's header and prefix
    (and nothing after it; read_key_preimage reads those from a file).
    Every check load_user_secret runs on the prefix runs here."""
    rd, p = _open(blob, KIND_SK, reference)
    key = KeyPreimage(*_load_key_prefix(rd, p))
    rd.done()
    return key


def read_key_preimage(path: str, reference: ParamSet) -> KeyPreimage:
    """The KeyPreimage of the user secret key file at path, from its header
    and prefix alone (load_key_preimage, about 2 MB of a 29 MB key at
    `toy`), read through read_file, which refuses a file of any length but
    a whole key's at reference's parameters (truncated or extended)."""
    sections = _sk_sections(reference)
    blob = read_file(path, _size(sections[:_SK_PREFIX]), _size(sections))
    return load_key_preimage(blob, reference)


def load_user_secret(blob: bytes, reference: ParamSet | None = None) -> UserSecretKey:
    """The key in blob, E'_ID holding its stored R factor and coset map once
    both are checked against it; FormatError otherwise.

    Every section is a view of blob (no copy); E'_ID is the only 2m x 2m
    one.  An Abar_ID word outside [0, q) is refused.  R and the map are
    checked in that order (trapdoor.adopt_trapdoor), in one pass over R's
    blocks, which the key then holds in place.
    """
    rd, p = _open(blob, KIND_SK, reference)
    prefix = _load_key_prefix(rd, p)
    e_id_prime, r, pivots, elim, proj = (rd.array(*s) for s in _sk_sections(p)[_SK_PREFIX:])
    rd.done()
    try:
        td = adopt_trapdoor(e_id_prime, r, p.q, pivots, elim, proj)
    except SingularMatrix as err:
        raise FormatError(f"user secret key: stored R factor refused: {err}") from None
    except ParameterError as err:
        raise FormatError(f"user secret key: stored coset map refused: {err}") from None
    return UserSecretKey(*prefix, td)


# -- ciphertext ---------------------------------------------------------------


def dump_ciphertext(ct: Ciphertext, p: ParamSet, msg_bitlen: int | None = None) -> bytes:
    msg_bitlen = p.t if msg_bitlen is None else int(msg_bitlen)
    return _join(
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
    c5 = bytes_to_bits(rd.section((p.lambda_bits + 7) // 8), p.lambda_bits)
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
    binding = bytes_to_bits(rd.section((p.lambda_bits + 7) // 8), p.lambda_bits)
    return TrapdoorT2(ident, binding, rd.words((3 * p.m, p.t)), p)


def dump_td1(td: TrapdoorT1, p: ParamSet) -> bytes:
    return _join([_header(KIND_TD1, p), *_dump_td1_payload(td)])


def load_td1(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT1:
    rd, p = _open(blob, KIND_TD1, reference)
    td = _load_td1_payload(rd, p)
    rd.done()
    return td


def dump_td2(td: TrapdoorT2, p: ParamSet) -> bytes:
    return _join([_header(KIND_TD2, p), *_dump_td2_payload(td)])


def load_td2(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT2:
    rd, p = _open(blob, KIND_TD2, reference)
    td = _load_td2_payload(rd, p)
    rd.done()
    return td


# type-3 payload: variant byte (0 basis side, 1 ciphertext-bound), then the
# type-1 or type-2 payload
def dump_td3(td: TrapdoorT3, p: ParamSet) -> bytes:
    if td.is_basis_side:
        return _join([_header(KIND_TD3, p), b"\x00", *_dump_td1_payload(td.payload)])
    return _join([_header(KIND_TD3, p), b"\x01", *_dump_td2_payload(td.payload)])


def load_td3(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT3:
    rd, p = _open(blob, KIND_TD3, reference)
    variant = rd.section(1)[0]
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


def read_file(path: str, count: int | None = None, size: int | None = None) -> bytes:
    """The bytes of the file at path, or only its first count bytes, as one
    bytes object (what loads view).  With size, a file that does not hold
    exactly size bytes (fstat), truncated or extended, is refused before
    anything is read."""
    try:
        with open(path, "rb", buffering=0) as fh:
            if size is not None:
                have = os.fstat(fh.fileno()).st_size
                if have != size:
                    raise FormatError(f"{path}: the file holds {have} bytes, not {size}")
            return fh.read() if count is None else fh.read(count)
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
