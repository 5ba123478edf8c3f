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
up to the next one, and the last section by none.  _layout gives each
kind's sections, in order, as (dtype, shape): it is the one description
of every layout, which _dump writes and _load reads.

- public parameters: A, A', A_1..A_ell, B (n x m), U (n x t), residues
  as u64;
- master secret key: Rbar and Rbar' ((m - nk) x nk, entries +-1) as i64;
- user secret key: its prefix, the identity (ell words +-1), R_ID
  ((2m - nk) x nk), e_F and e_F' (2m x t) as i32 and Abar_ID (n x (2m -
  nk) residues), then E'_ID (2m x 2m, i32), R's row blocks as the walk
  holds them (samplers.PreparedBasis.r, binary64), the n pivot rows, the
  n x n elimination matrix E and the 2m x n projections P (binary64);
- ciphertext: the message's bit length (u64, at most t), R (m x m), c1
  and c2 (t), c3 and c4 (3m), then c5 (lambda bits);
- type-1 trapdoor: the identity and e_F' (2m x t);
- type-2 trapdoor: the identity, the binding H'(ct) (lambda bits) and
  the bound preimage (3m x t);
- type-3 trapdoor: a variant byte, 0 or 1, then a type-1 or a type-2
  trapdoor's sections.

Integer matrices are row-major, two's complement little-endian (a
residue in [0, q) has the same bytes as i64 and as u64); bit strings are
packed little-endian within each byte.  Dumps join views of the arrays'
own buffers, so each blob is built in one copy.  Loads verify magic,
version, kind, the reserved byte and every pad byte (zero), the header's
fingerprint, that its parameter set passes params.validate_params, the
exact length, and (when the caller supplies a reference parameter set)
that the parameters are the reference's, so mixed-parameter artifacts
are always rejected.  A load holds its blob as an immutable bytes object
and reads each section as a read-only np.frombuffer view of it, aligned,
with no copy: the loaded objects keep those views (zqlinalg.frozen_array),
so they keep the blob alive.  Writes are atomic: temp file in the
directory of the target (symlinks resolved), then rename (a target that
exists and is no regular file, such as a FIFO, is written in place
instead).

A user secret key file's prefix is all that decrypt, td1 and td3_basis
use, so read_key_preimage reads the header and the prefix alone (a
KeyPreimage), from a file whose size it checks; load_user_secret reads
and checks it all.

Each kind is written and read at the format version in which its layout
last changed (_VERSIONS); a file of any other version, every earlier
one included, is refused.
"""

from __future__ import annotations

import math
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


def _header(kind: int, p: ParamSet) -> bytes:
    return MAGIC + struct.pack("<HBB", _VERSIONS[kind], kind, 0) + params_fingerprint(p) + encode_params(p)


def _params(blob: bytes, kind: int, reference: ParamSet | None) -> ParamSet:
    """The parameter set of blob's header, once the header is one of kind's."""
    what = _KIND_NAMES[kind]
    if blob[:4] != MAGIC:
        raise FormatError(f"{what}: bad magic")
    if len(blob) < HEADER_SIZE:
        raise FormatError(f"{what}: truncated header")
    version, got, reserved = struct.unpack_from("<HBB", blob, 4)
    if got != kind:
        raise FormatError(f"expected {what}, file holds {_KIND_NAMES.get(got, f'kind {got}')}")
    if version != _VERSIONS[kind]:
        raise FormatError(f"{what}: unsupported format version {version}")
    if reserved:
        raise FormatError(f"{what}: nonzero reserved header byte")
    params = decode_params(blob[40:HEADER_SIZE])  # after 8 bytes of the above and the fingerprint
    if blob[8:40] != params_fingerprint(params):
        raise FormatError(f"{what}: parameter fingerprint mismatch within file")
    violations = validate_params(params)
    if violations:
        raise FormatError(f"{what}: parameter set violates constraints: " + "; ".join(violations))
    if reference is not None and params != reference:
        raise FormatError(f"{what}: parameters differ from the other artifacts in use")
    return params


def _layout(kind: int, p: ParamSet, variant: int = 0) -> list[tuple[str, tuple]]:
    """(dtype, shape) of each section of a file of kind after its header, in
    order: the one description of every kind's layout, which _dump writes
    and _load reads.  A type-3 trapdoor's first section is its variant
    byte, 0 before a type-1 payload's sections and 1 before a type-2
    one's; any other variant is refused."""
    d, nk = 2 * p.m, p.n * gadget_length(p.q)
    identity, binding = ("<i8", (p.ell,)), ("u1", ((p.lambda_bits + 7) // 8,))
    if kind == KIND_PP:  # A, A', A_1..A_ell, B (n x m residues), U (n x t)
        return [("<i8", (p.n, p.m))] * (p.ell + 3) + [("<i8", (p.n, p.t))]
    if kind == KIND_MSK:  # Rbar, Rbar'
        return [("<i8", (p.m - nk, nk))] * 2
    if kind == KIND_SK:  # identity, R_ID, e_F, e_F', Abar_ID; E'_ID, R's row blocks, pivots, E, P
        return [identity, ("<i4", (d - nk, nk)), ("<i4", (d, p.t)), ("<i4", (d, p.t)),
                ("<i8", (p.n, d - nk)),
                ("<i4", (d, d)), ("<f8", (r_factor_words(d),)), ("<i8", (p.n,)), ("<i8", (p.n, p.n)),
                ("<f8", (d, p.n))]
    if kind == KIND_CT:  # message bit length, R, c1, c2, c3, c4, c5
        return [("<u8", (1,)), ("<i8", (p.m, p.m)), ("<i8", (p.t,)), ("<i8", (p.t,)),
                ("<i8", (3 * p.m,)), ("<i8", (3 * p.m,)), binding]
    if kind == KIND_TD1:  # identity, e_F'
        return [identity, ("<i8", (d, p.t))]
    if kind == KIND_TD2:  # identity, the ciphertext binding, the bound preimage
        return [identity, binding, ("<i8", (3 * p.m, p.t))]
    if variant not in (0, 1):
        raise FormatError(f"type-3 trapdoor: unknown variant {variant}")
    return [("u1", (1,)), *_layout(KIND_TD2 if variant else KIND_TD1, p)]


#: Sections of a user secret key file's prefix, the KeyPreimage.
_SK_PREFIX = 5


def _size(layout) -> int:
    """The length of a file of these (dtype, shape) sections."""
    pos = HEADER_SIZE
    for dtype, shape in layout:
        pos += -pos % 8 + np.dtype(dtype).itemsize * math.prod(shape)
    return pos


def _dump(kind: int, p: ParamSet, *values) -> bytes:
    """The file of kind holding values, one per section of _layout (a
    type-3 trapdoor's first is its variant), in one copy: the header, then
    each value at its section's dtype and shape after zero pad bytes, as a
    view where the value is a C-ordered array of that dtype.  Signed
    entries are written in two's complement, so a residue in [0, q)
    written as "<i8" has the bytes of its u64."""
    layout = _layout(kind, p, values[0] if kind == KIND_TD3 else 0)
    parts, pos = [_header(kind, p)], HEADER_SIZE
    for value, (dtype, shape) in zip(values, layout, strict=True):
        pad, part = -pos % 8, memoryview(np.ascontiguousarray(value, dtype=dtype).reshape(shape))
        parts += [bytes(pad), part]
        pos += pad + part.nbytes
    return b"".join(parts)


def _load(blob: bytes, kind: int, reference: ParamSet | None, count: int | None = None):
    """The parameter set of the file of kind in blob and its first count
    sections (all by default), which must be all blob holds.  The header
    is checked (_params), then the exact length and every pad byte (zero).
    blob is held as bytes (copied once if it is not), and each section is
    a read-only view of it, aligned, with no copy."""
    blob = blob if type(blob) is bytes else bytes(blob)
    what = _KIND_NAMES[kind]
    p = _params(blob, kind, reference)
    # the byte after the header is a type-3 trapdoor's variant (no other kind reads it)
    layout = _layout(kind, p, int.from_bytes(blob[HEADER_SIZE : HEADER_SIZE + 1], "little"))[:count]
    size = _size(layout)
    if len(blob) != size:
        raise FormatError(f"{what}: {len(blob)} bytes where the layout needs {size}")
    sections, pos = [], HEADER_SIZE
    for dtype, shape in layout:
        pad = -pos % 8
        if any(blob[pos : pos + pad]):
            raise FormatError(f"{what}: nonzero pad byte")
        sections.append(np.frombuffer(blob, dtype, math.prod(shape), pos + pad).reshape(shape))
        pos += pad + sections[-1].nbytes
    return p, sections


def _identity(bits: np.ndarray, kind: int) -> Identity:
    if not np.all(np.abs(bits) == 1):
        raise FormatError(f"{_KIND_NAMES[kind]}: identity entries must be +-1")
    return Identity(tuple(int(b) for b in bits))


# -- public parameters -------------------------------------------------------


def dump_public_params(pp: PublicParams) -> bytes:
    return _dump(KIND_PP, pp.params, pp.a, pp.a_prime, *pp.a_list, pp.b, pp.u)


def load_public_params(blob: bytes) -> PublicParams:
    """The public parameters in blob.  A word of 2**63 or more reads back
    negative, so the range check refuses it too."""
    p, (a, a_prime, *a_list, b, u) = _load(blob, KIND_PP, None)
    for name, mat in (("A", a), ("A'", a_prime), ("B", b), ("U", u), *(("A_i", x) for x in a_list)):
        if mat.min() < 0 or mat.max() >= p.q:
            raise FormatError(f"public parameters: {name} holds out-of-range residues")
    return PublicParams(p, a, a_prime, tuple(a_list), b, u)


# -- master secret key -------------------------------------------------------


def dump_master_secret(msk: MasterSecretKey, p: ParamSet) -> bytes:
    """The msk file: Rbar and Rbar'."""
    return _dump(KIND_MSK, p, msk.trapdoor_a.r_bar, msk.trapdoor_a_prime.r_bar)


def load_master_secret(blob: bytes, pp: PublicParams) -> MasterSecretKey:
    """The master key of pp: a GadgetTrapdoor of each Rbar, which holds it
    as a read-only view of blob (zqlinalg.frozen_array).

    Each Rbar must be a gadget trapdoor of pp's A or A' (require_gadget_trapdoor),
    so another system's master key is refused here, before any sampling.
    """
    p, r_bars = _load(blob, KIND_MSK, pp.params)
    if any(np.any(np.abs(r_bar) != 1) for r_bar in r_bars):
        raise FormatError("master secret key: Rbar entries must be +-1")
    try:
        for a, r_bar in zip((pp.a, pp.a_prime), r_bars):
            require_gadget_trapdoor(a, r_bar, p.q)
    except ParameterError:
        raise FormatError("master secret key: Rbar is no trapdoor of these public parameters") from None
    return MasterSecretKey(*(GadgetTrapdoor(r_bar, p.q) for r_bar in r_bars))


# -- user secret key ---------------------------------------------------------


def dump_user_secret(sk: UserSecretKey, p: ParamSet) -> bytes:
    """The sk file (version 6).  The key's integer matrices are int32
    (KeyPreimage narrows them) and its R one float64 buffer, so each is
    written as it is."""
    td = sk.trapdoor_prime
    return _dump(KIND_SK, p, sk.identity.bits, sk.r_id, sk.e_f, sk.e_f_prime, sk.a_bar_id,
                 td.basis, td.prep.r, td.pivots, td.elim, td.proj)


def _key_prefix(p: ParamSet, sections: list) -> tuple:
    """The KeyPreimage fields of a key file's prefix sections, once checked."""
    ident, r_id, e_f, e_f_prime, a_bar_id = sections[:_SK_PREFIX]
    if a_bar_id.min() < 0 or a_bar_id.max() >= p.q:
        raise FormatError("user secret key: Abar_ID holds out-of-range residues")
    return _identity(ident, KIND_SK), r_id, a_bar_id, p.q, e_f, e_f_prime


def load_key_preimage(blob: bytes, reference: ParamSet | None = None) -> KeyPreimage:
    """The KeyPreimage in blob, a user secret key file's header and prefix
    (and nothing after it; read_key_preimage reads those from a file).
    Every check load_user_secret runs on the prefix runs here."""
    p, sections = _load(blob, KIND_SK, reference, _SK_PREFIX)
    return KeyPreimage(*_key_prefix(p, sections))


def read_key_preimage(path: str, reference: ParamSet) -> KeyPreimage:
    """The KeyPreimage of the user secret key file at path, from its header
    and prefix alone (load_key_preimage, about 2 MB of a 29 MB key at
    `toy`), read through read_file, which refuses a file of any length but
    a whole key's at reference's parameters (truncated or extended)."""
    layout = _layout(KIND_SK, reference)
    blob = read_file(path, _size(layout[:_SK_PREFIX]), _size(layout))
    return load_key_preimage(blob, reference)


def load_user_secret(blob: bytes, reference: ParamSet | None = None) -> UserSecretKey:
    """The key in blob, E'_ID holding its stored R factor and coset map once
    both are checked against it; FormatError otherwise.

    Every section is a view of blob (no copy); E'_ID is the only 2m x 2m
    one.  An Abar_ID word outside [0, q) is refused.  R and the map are
    checked in that order (trapdoor.adopt_trapdoor), in one pass over R's
    blocks, which the key then holds in place.
    """
    p, sections = _load(blob, KIND_SK, reference)
    e_id_prime, r, pivots, elim, proj = sections[_SK_PREFIX:]
    prefix = _key_prefix(p, sections)
    try:
        td = adopt_trapdoor(e_id_prime, r, p.q, pivots, elim, proj)
    except SingularMatrix as err:
        raise FormatError(f"user secret key: stored R factor refused: {err}") from None
    except ParameterError as err:
        raise FormatError(f"user secret key: stored coset map refused: {err}") from None
    return UserSecretKey(*prefix, td)


# -- ciphertext ---------------------------------------------------------------


def dump_ciphertext(ct: Ciphertext, p: ParamSet, msg_bitlen: int | None = None) -> bytes:
    """The ct file, recording msg_bitlen (t by default), which must lie in
    [0, t] as load_ciphertext requires; ParameterError otherwise."""
    msg_bitlen = p.t if msg_bitlen is None else int(msg_bitlen)
    if not 0 <= msg_bitlen <= p.t:
        raise ParameterError(f"message length {msg_bitlen} lies outside [0, t = {p.t}]")
    return _dump(KIND_CT, p, msg_bitlen, ct.r_tag, ct.c1, ct.c2, ct.c3, ct.c4, memoryview(bits_to_bytes(ct.c5)))


def load_ciphertext(blob: bytes, reference: ParamSet | None = None) -> tuple[Ciphertext, int]:
    p, (msg_bitlen, r_tag, c1, c2, c3, c4, c5) = _load(blob, KIND_CT, reference)
    if msg_bitlen[0] > p.t:
        raise FormatError("ciphertext: recorded message length exceeds t")
    # no value-range checks here: the integrity check (Ciphertext.intact,
    # which range-checks R) is the authority on tampered content, and
    # decryption must answer REJECT, not a load error
    return Ciphertext(r_tag, c1, c2, c3, c4, bytes_to_bits(c5, p.lambda_bits)), int(msg_bitlen[0])


# -- trapdoors ----------------------------------------------------------------


def _payload(td: TrapdoorT1 | TrapdoorT2) -> list:
    """The section values of a type-1 or type-2 trapdoor: its file's, and a
    type-3 trapdoor file's after the variant."""
    if isinstance(td, TrapdoorT2):
        return [td.identity.bits, memoryview(bits_to_bytes(td.ct_binding)), td.e_prime]
    return [td.identity.bits, td.e_prime]


def _trapdoor(p: ParamSet, kind: int, ident, *rest) -> TrapdoorT1 | TrapdoorT2:
    """The trapdoor of a payload's sections: a type-1 one's (identity, e_F')
    or a type-2 one's (identity, binding, preimage)."""
    if len(rest) == 1:
        return TrapdoorT1(_identity(ident, kind), *rest)
    binding, e_prime = rest
    return TrapdoorT2(_identity(ident, kind), bytes_to_bits(binding, p.lambda_bits), e_prime, p)


def dump_td1(td: TrapdoorT1, p: ParamSet) -> bytes:
    return _dump(KIND_TD1, p, *_payload(td))


def load_td1(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT1:
    p, sections = _load(blob, KIND_TD1, reference)
    return _trapdoor(p, KIND_TD1, *sections)


def dump_td2(td: TrapdoorT2, p: ParamSet) -> bytes:
    return _dump(KIND_TD2, p, *_payload(td))


def load_td2(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT2:
    p, sections = _load(blob, KIND_TD2, reference)
    return _trapdoor(p, KIND_TD2, *sections)


def dump_td3(td: TrapdoorT3, p: ParamSet) -> bytes:
    return _dump(KIND_TD3, p, 0 if td.is_basis_side else 1, *_payload(td.payload))


def load_td3(blob: bytes, reference: ParamSet | None = None) -> TrapdoorT3:
    p, (_, *sections) = _load(blob, KIND_TD3, reference)
    return TrapdoorT3(_trapdoor(p, KIND_TD3, *sections))


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
