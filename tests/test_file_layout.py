"""The aligned file layout: where each section lies, what a load holds, and
how many bytes of a key each CLI command reads.

Every artifact has a 112-byte header (a reserved zero byte after the kind)
and starts each section on an 8-byte boundary after zero pad bytes.  The
layout is checked here against an independent description of each kind,
at MINI, where only a type-3 trapdoor's variant byte needs a pad, and at
ODD, a validator-clean set with odd nk and lambda = 100, where R_ID in a
key and the binding in a type-2 trapdoor need one too.
"""

import json
import os
import struct

import numpy as np
import pytest

from ibeetfa import fileio
from ibeetfa.authz import td1, td2, td3_basis, td3_ct
from ibeetfa.cli import run_command
from ibeetfa.errors import FormatError
from ibeetfa.hashing import bits_to_bytes
from ibeetfa.params import ParamSet, validate_params
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import KeyPreimage, encrypt, extract, identity_from_string, setup
from ibeetfa.trapdoor import gadget_length

from conftest import HEADER, MINI, random_message, sk_sections

#: n = 1 and ceil(log2 q) = 33, so nk = 33 and R_ID ((2m - nk) x nk int32)
#: has an odd entry count; lambda = 100 gives a 13-byte binding.
ODD = ParamSet(lambda_bits=100, n=1, m=200, q=4_294_967_311, t=8, ell=3, sigma=15164.0,
               alpha=1.3e-8, q_bound=1 << 20)

#: Format version of each kind, by the name its dump_ and load_ functions carry.
VERSIONS = {"public_params": 2, "master_secret": 3, "user_secret": 6, "ciphertext": 3,
            "td1": 3, "td2": 2, "td3": 3}


def test_odd_set_is_valid_and_odd():
    assert validate_params(ODD) == []
    assert ODD.n * gadget_length(ODD.q) % 2 == 1 and ODD.lambda_bits % 64


def words(arr, dtype="<i8"):
    return np.ascontiguousarray(arr, dtype=dtype).tobytes()


def sections(kind, obj, p):
    """The bytes each section of obj's file must hold, in order (kind is the
    dump_/load_ name), written out from the format description alone."""
    if kind == "public_params":
        return [words(x) for x in (obj.a, obj.a_prime, *obj.a_list, obj.b, obj.u)]
    if kind == "master_secret":
        return [words(obj.trapdoor_a.r_bar), words(obj.trapdoor_a_prime.r_bar)]
    if kind == "user_secret":
        td = obj.trapdoor_prime
        return [words(obj.identity.bits), words(obj.r_id, "<i4"), words(obj.e_f, "<i4"),
                words(obj.e_f_prime, "<i4"), words(obj.a_bar_id), words(td.basis, "<i4"),
                words(td.prep.r, "<f8"), words(td.pivots), words(td.elim), words(td.proj, "<f8")]
    if kind == "ciphertext":
        return [struct.pack("<Q", p.t), *(words(x) for x in (obj.r_tag, obj.c1, obj.c2, obj.c3, obj.c4)),
                bits_to_bytes(obj.c5)]
    if kind == "td1":
        return [words(obj.identity.bits), words(obj.e_prime)]
    if kind == "td2":
        return [words(obj.identity.bits), bits_to_bytes(obj.ct_binding), words(obj.e_prime)]
    variant = b"\x00" if obj.is_basis_side else b"\x01"
    return [variant, *sections("td1" if obj.is_basis_side else "td2", obj.payload, p)]


def walk(blob, parts):
    """Check blob's sections against parts: each on an 8-byte boundary after
    zero pad bytes, none after the last.  Returns the pad lengths."""
    assert blob[:4] == fileio.MAGIC and blob[7] == 0
    pos, pads = HEADER, []
    for part in parts:
        pad = -pos % 8
        assert blob[pos : pos + pad] == bytes(pad)
        pos += pad
        pads.append(pad)
        assert blob[pos : pos + len(part)] == part
        pos += len(part)
    assert pos == len(blob)
    return pads


def make_artifacts(pp, msk, sk, ident, p):
    """(kind name, object, its file) for one object of each kind; "td3" twice."""
    ct = encrypt(pp, ident, random_message(p.t, 0x1A), RandomSource(0x1B))
    objects = [("public_params", pp), ("master_secret", msk), ("user_secret", sk), ("ciphertext", ct),
               ("td1", td1(sk, ident)), ("td2", td2(pp, sk, ident, ct, RandomSource(0x1C))),
               ("td3", td3_basis(sk, ident)), ("td3", td3_ct(pp, sk, ident, ct, RandomSource(0x1D)))]
    return [(kind, obj, dump(kind, obj, p)) for kind, obj in objects]


@pytest.fixture(scope="module")
def odd_system():
    pp, msk = setup(ODD, RandomSource(0x0DD1))
    ident = identity_from_string("odd", ODD.ell)
    return pp, msk, extract(pp, msk, ident, RandomSource(0x0DD2)), ident


@pytest.fixture(scope="module", params=["MINI", "ODD"])
def artifacts(request, mini_system, mini_key):
    if request.param == "MINI":
        pp, msk = mini_system
        ident, sk = mini_key
        return MINI, pp, make_artifacts(pp, msk, sk, ident, MINI)
    pp, msk, sk, ident = request.getfixturevalue("odd_system")
    return ODD, pp, make_artifacts(pp, msk, sk, ident, ODD)


def dump(kind, obj, p):
    if kind == "public_params":
        return fileio.dump_public_params(obj)
    return getattr(fileio, f"dump_{kind}")(obj, p)


def load(kind, blob, p, pp):
    if kind == "master_secret":
        return fileio.load_master_secret(blob, pp)
    if kind == "public_params":
        return fileio.load_public_params(blob)
    out = getattr(fileio, f"load_{kind}")(blob, p)
    return out[0] if kind == "ciphertext" else out


def held_arrays(kind, obj):
    """The arrays a loaded object holds that a load reads in place."""
    if kind == "public_params":
        return [obj.a, obj.a_prime, *obj.a_list, obj.b, obj.u]
    if kind == "user_secret":
        td = obj.trapdoor_prime
        return [obj.r_id, obj.e_f, obj.e_f_prime, obj.a_bar_id, td.basis, td.prep.r, td.pivots,
                td.elim, td.proj]
    if kind == "ciphertext":
        return [obj.r_tag, obj.c1, obj.c2, obj.c3, obj.c4]
    if kind == "td3":
        return [obj.payload.e_prime]
    if kind in ("td1", "td2"):
        return [obj.e_prime]
    return []        # a master key's GadgetTrapdoor copies Rbar


def offset_in(arr, blob):
    """Where arr's first byte lies in blob, or None if arr is no view of blob."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    if base is not blob:
        return None
    return arr.__array_interface__["data"][0] - np.frombuffer(blob, np.uint8).__array_interface__["data"][0]


class TestLayout:
    def test_header_is_112_bytes(self):
        assert HEADER == fileio.HEADER_SIZE == 112

    def test_every_section_is_aligned(self, artifacts):
        p, _, items = artifacts
        pads = {}
        for kind, obj, blob in items:
            pads.setdefault(kind, []).extend(walk(blob, sections(kind, obj, p)))
            assert blob[4:6] == struct.pack("<H", VERSIONS[kind])
        # the variant byte of a type-3 trapdoor is padded at every set; at
        # ODD, R_ID's odd entry count and the 13-byte binding are too
        assert max(pads["td3"]) == 7
        if p is ODD:
            assert pads["user_secret"][2] == 4 and pads["td2"][2] == 3
        else:
            assert not any(pads["user_secret"]) and not any(pads["td2"])

    def test_loads_hold_aligned_views_of_the_file(self, artifacts):
        p, pp, items = artifacts
        for kind, obj, blob in items:
            loaded = load(kind, blob, p, pp)
            for arr in held_arrays(kind, loaded):
                offset = offset_in(arr, blob)
                assert offset is not None and offset % 8 == 0, kind
                assert arr.flags.aligned and not arr.flags.writeable, kind
            assert dump(kind, loaded, p) == blob

    def test_key_preimage_is_the_files_prefix(self, artifacts):
        p, _, items = artifacts
        (_, sk, blob), = [item for item in items if item[0] == "user_secret"]
        prefix = blob[: sk_sections(p)["a_bar_id"].stop]
        key = fileio.load_key_preimage(prefix, p)
        assert type(key) is KeyPreimage
        for name in ("r_id", "e_f", "e_f_prime", "a_bar_id"):
            arr = getattr(key, name)
            assert np.array_equal(arr, getattr(sk, name)) and offset_in(arr, prefix) is not None
        assert key.identity == sk.identity and np.array_equal(key.e_id, sk.e_id)
        for bad in (blob, prefix[:-1]):
            with pytest.raises(FormatError):
                fileio.load_key_preimage(bad, p)

    def test_ciphertext_ends_with_its_payload(self, artifacts):
        # perfbench's tamper flips are placed by this count from the end
        p, _, items = artifacts
        for kind, ct, blob in items:
            if kind == "ciphertext":
                tail = 8 * (p.m * p.m + 2 * p.t + 6 * p.m) + (p.lambda_bits + 7) // 8
                want = b"".join(words(x) for x in (ct.r_tag, ct.c1, ct.c2, ct.c3, ct.c4)) + bits_to_bytes(ct.c5)
                assert blob[-tail:] == want and len(blob) == HEADER + 8 + tail


class TestRefused:
    """A nonzero reserved or pad byte, or any earlier version, is a load error."""

    def test_nonzero_reserved_byte(self, artifacts):
        p, pp, items = artifacts
        for kind, _, blob in items:
            bad = blob[:7] + b"\x01" + blob[8:]
            with pytest.raises(FormatError, match="nonzero reserved header byte"):
                load(kind, bad, p, pp)

    def test_nonzero_pad_byte(self, artifacts):
        p, pp, items = artifacts
        refused = set()
        for kind, obj, blob in items:
            pos = HEADER
            for part in sections(kind, obj, p):
                pad = -pos % 8
                for at in range(pos, pos + pad):
                    bad = blob[:at] + b"\x80" + blob[at + 1 :]
                    with pytest.raises(FormatError, match="nonzero pad byte"):
                        load(kind, bad, p, pp)
                    refused.add(kind)
                pos += pad + len(part)
        assert refused == ({"td3", "user_secret", "td2"} if p is ODD else {"td3"})

    def test_every_earlier_version(self, artifacts):
        p, pp, items = artifacts
        for kind, _, blob in items:
            for version in range(1, VERSIONS[kind]):
                bad = blob[:4] + struct.pack("<H", version) + blob[6:]
                with pytest.raises(FormatError, match=f"unsupported format version {version}"):
                    load(kind, bad, p, pp)


# -- the CLI --------------------------------------------------------------------


def params_json(p):
    return json.dumps({"lambda": p.lambda_bits, "n": p.n, "m": p.m, "q": p.q, "t": p.t, "ell": p.ell,
                       "sigma": p.sigma, "alpha": p.alpha, "q_bound": p.q_bound})


@pytest.fixture(scope="module")
def files(tmp_path_factory, odd_system):
    """Files of one system per set: pp, msk, a key, a ciphertext, trapdoors, params."""
    out = {}
    for name, p in (("MINI", MINI), ("ODD", ODD)):
        d = tmp_path_factory.mktemp(f"layout-{name}")
        paths = {k: str(d / k) for k in ("params", "pp", "msk", "sk", "ct", "msg")}
        with open(paths["params"], "w", encoding="utf-8") as fh:
            fh.write(params_json(p))
        with open(paths["msg"], "wb") as fh:
            fh.write(b"\x5a")
        assert run_command(["setup", "--params", paths["params"], "--seed", "31",
                            "--out-pp", paths["pp"], "--out-msk", paths["msk"]]) == 0
        assert run_command(["extract", "--pp", paths["pp"], "--msk", paths["msk"], "--id", "alice",
                            "--seed", "32", "--out", paths["sk"]]) == 0
        assert run_command(["encrypt", "--pp", paths["pp"], "--id", "alice", "--in", paths["msg"],
                            "--seed", "33", "--out", paths["ct"]]) == 0
        for kind, extra in (("td1", ["--type", "1"]), ("td2", ["--type", "2", "--ct", paths["ct"]]),
                            ("td3", ["--type", "3"]), ("td3c", ["--type", "3", "--ct", paths["ct"]])):
            paths[kind] = str(d / kind)
            assert run_command(["td", *extra, "--pp", paths["pp"], "--sk", paths["sk"], "--seed", "34",
                                "--out", paths[kind]]) == 0
        paths["dir"] = d
        out[name] = (p, paths)
    return out


class _Counted:
    """A file opened by fileio whose reads are counted, by path."""

    def __init__(self, fh, path, counts):
        self.fh, self.path, self.counts = fh, path, counts

    def read(self, *args):
        data = self.fh.read(*args)
        self.counts[self.path] = self.counts.get(self.path, 0) + len(data)
        return data

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def bytes_read(monkeypatch):
    """path -> bytes read through fileio, for the commands run in a test."""
    counts = {}

    def counted_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _Counted(fh, str(path), counts) if "r" in mode else fh

    monkeypatch.setattr(fileio, "open", counted_open, raising=False)
    return counts


@pytest.mark.parametrize("name", ["MINI", "ODD"])
class TestKeyBytesRead:
    """decrypt, td1 and td3 without --ct read the key's header and prefix
    only; td2 and td3 --ct read the whole key once."""

    def test_prefix_commands(self, files, name, bytes_read, tmp_path):
        p, paths = files[name]
        prefix = sk_sections(p)["a_bar_id"].stop
        size = os.path.getsize(paths["sk"])
        assert prefix < size // 4
        commands = {
            "decrypt": ["decrypt", "--ct", paths["ct"]],
            "td1": ["td", "--type", "1"],
            "td3": ["td", "--type", "3"],
        }
        for label, argv in commands.items():
            bytes_read.clear()
            out = str(tmp_path / label)
            assert run_command([argv[0], "--pp", paths["pp"], "--sk", paths["sk"], *argv[1:], "--out", out]) == 0
            assert bytes_read[paths["sk"]] == prefix, label
        with open(str(tmp_path / "decrypt"), "rb") as fh:
            assert fh.read() == b"\x5a"

    def test_sampling_commands_read_the_whole_key(self, files, name, bytes_read, tmp_path):
        p, paths = files[name]
        size = os.path.getsize(paths["sk"])
        for extra in (["--type", "2"], ["--type", "3"]):
            bytes_read.clear()
            assert run_command(["td", *extra, "--pp", paths["pp"], "--sk", paths["sk"], "--ct", paths["ct"],
                                "--seed", "35", "--out", str(tmp_path / "td")]) == 0
            assert bytes_read[paths["sk"]] == size

    def test_truncated_or_extended_key_refused(self, files, name, tmp_path, capsys):
        p, paths = files[name]
        with open(paths["sk"], "rb") as fh:
            blob = fh.read()
        for label, bad in (("truncated", blob[:-1]), ("short by a section", blob[: sk_sections(p)["proj"].start]),
                           ("extended", blob + bytes(8))):
            path = str(tmp_path / "bad.sk")
            with open(path, "wb") as fh:
                fh.write(bad)
            out = str(tmp_path / "never-written")
            for argv in (["decrypt", "--ct", paths["ct"]], ["td", "--type", "1"],
                         ["td", "--type", "2", "--ct", paths["ct"], "--seed", "36"]):
                capsys.readouterr()
                assert run_command([argv[0], "--pp", paths["pp"], "--sk", path, *argv[1:], "--out", out]) == 65, (
                    label, argv)
                assert "error:" in capsys.readouterr().err
            assert not os.path.exists(out)


class TestCliRefuses:
    """Every kind's file with a nonzero reserved byte, a nonzero pad byte, or
    the version before its current one exits 65 from the command that reads it."""

    @staticmethod
    def commands(paths, kind, path, out):
        """The command that reads a file of this kind, with path in its place."""
        pick = {k: paths[k] for k in ("pp", "msk", "sk", "ct", "td1", "td2", "td3")}
        pick[kind] = path
        if kind == "msk":
            return [["extract", "--pp", pick["pp"], "--msk", path, "--id", "eve", "--out", out]]
        if kind == "pp":
            return [["encrypt", "--pp", path, "--id", "eve", "--in", paths["msg"], "--out", out]]
        if kind in ("sk", "ct"):
            return [["decrypt", "--pp", pick["pp"], "--sk", pick["sk"], "--ct", pick["ct"], "--out", out],
                    ["td", "--type", "2", "--pp", pick["pp"], "--sk", pick["sk"], "--ct", pick["ct"],
                     "--out", out]]
        return [["test", "--type", kind[-1], "--pp", pick["pp"], "--td-i", path, "--td-j", paths[kind],
                 "--ct-i", pick["ct"], "--ct-j", pick["ct"]]]

    @pytest.mark.parametrize("name", ["MINI", "ODD"])
    @pytest.mark.parametrize("kind", ["pp", "msk", "sk", "ct", "td1", "td2", "td3"])
    def test_bad_header_or_pad_exits_65(self, files, name, kind, tmp_path):
        p, paths = files[name]
        with open(paths[kind], "rb") as fh:
            blob = fh.read()
        current = struct.unpack_from("<H", blob, 4)[0]
        bad = {"reserved": blob[:7] + b"\x01" + blob[8:],
               "version": blob[:4] + struct.pack("<H", current - 1) + blob[6:]}
        # the first pad byte of the file, if it has one: after a type-3
        # variant byte, and at ODD after R_ID and after a type-2 binding
        pad_at = {"td3": HEADER + 1, "sk": sk_sections(p)["r_id"].stop,
                  "td2": HEADER + 8 * p.ell + (p.lambda_bits + 7) // 8}.get(kind)
        if pad_at is not None and pad_at % 8:
            assert blob[pad_at] == 0
            bad["pad"] = blob[:pad_at] + b"\x01" + blob[pad_at + 1 :]
        for label, data in bad.items():
            path = str(tmp_path / f"bad-{label}")
            with open(path, "wb") as fh:
                fh.write(data)
            out = str(tmp_path / "never-written")
            for argv in self.commands(paths, kind, path, out):
                assert run_command(argv) == 65, (label, argv[0])
            assert not os.path.exists(out)
