"""CLI verbs, file formats, exit codes, and differential checks.

No test writes to a device: an output that must not be written is a
path in the test's own directory.
"""

import dataclasses
import json
import os
import stat
import struct
import threading

import numpy as np
import pytest

from ibeetfa import fileio
from ibeetfa.authz import td1, td2, td3_basis, td3_ct
from ibeetfa.cli import run_command
from ibeetfa.errors import FormatError, IbeetfaError, KeyMismatch, ParameterError
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import decrypt, encrypt, encrypt_traced, extract, identity_from_string, setup
from ibeetfa.trapdoor import gadget_length

from conftest import HEADER, MINI, r_block_words, r_diagonal_words, random_message, sk_sections
from oracles import master_basis


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.json"
    path.write_text(
        json.dumps(
            {
                "lambda": MINI.lambda_bits,
                "n": MINI.n,
                "m": MINI.m,
                "q": MINI.q,
                "t": MINI.t,
                "ell": MINI.ell,
                "sigma": MINI.sigma,
                "alpha": MINI.alpha,
                "q_bound": MINI.q_bound,
            }
        )
    )
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, params_file):
    """A populated working directory: keys for two users, three ciphertexts."""
    d = tmp_path_factory.mktemp("cliwork")
    paths = {
        "pp": str(d / "pp.ibfa"),
        "msk": str(d / "msk.ibfa"),
        "sk_a": str(d / "alice.sk"),
        "sk_b": str(d / "bob.sk"),
        "msg1": str(d / "m1.bin"),
        "msg2": str(d / "m2.bin"),
        "ct_a1": str(d / "ct_a1.ibfa"),
        "ct_b1": str(d / "ct_b1.ibfa"),
        "ct_b2": str(d / "ct_b2.ibfa"),
        "dir": d,
    }
    with open(paths["msg1"], "wb") as fh:
        fh.write(b"equal!!!")
    with open(paths["msg2"], "wb") as fh:
        fh.write(b"other...")
    assert run_command(["setup", "--params", params_file, "--seed", "01",
                        "--out-pp", paths["pp"], "--out-msk", paths["msk"]]) == 0
    assert run_command(["extract", "--pp", paths["pp"], "--msk", paths["msk"],
                        "--id", "alice", "--seed", "02", "--out", paths["sk_a"]]) == 0
    assert run_command(["extract", "--pp", paths["pp"], "--msk", paths["msk"],
                        "--id", "bob", "--seed", "03", "--out", paths["sk_b"]]) == 0
    assert run_command(["encrypt", "--pp", paths["pp"], "--id", "alice",
                        "--in", paths["msg1"], "--seed", "04", "--out", paths["ct_a1"]]) == 0
    assert run_command(["encrypt", "--pp", paths["pp"], "--id", "bob",
                        "--in", paths["msg1"], "--seed", "05", "--out", paths["ct_b1"]]) == 0
    assert run_command(["encrypt", "--pp", paths["pp"], "--id", "bob",
                        "--in", paths["msg2"], "--seed", "06", "--out", paths["ct_b2"]]) == 0
    return paths


#: A file of every kind, a type-3 trapdoor of either variant ("td3_ct" is bound).
EVERY_KIND = ("pp", "msk", "sk", "ct", "td1", "td2", "td3", "td3_ct")


@pytest.fixture(scope="module")
def every_kind(workspace):
    """kind -> (load, blob): a load at MINI that takes a file's bytes, and the
    bytes of the workspace's file of that kind."""
    files = {"pp": workspace["pp"], "msk": workspace["msk"], "sk": workspace["sk_a"], "ct": workspace["ct_a1"]}
    for kind, extra in (("td1", ["--type", "1"]), ("td2", ["--type", "2", "--ct", workspace["ct_a1"]]),
                        ("td3", ["--type", "3"]), ("td3_ct", ["--type", "3", "--ct", workspace["ct_a1"]])):
        files[kind] = str(workspace["dir"] / f"every-kind-{kind}.ibfa")
        assert run_command(["td", *extra, "--pp", workspace["pp"], "--sk", workspace["sk_a"], "--seed", "2a",
                            "--out", files[kind]]) == 0
    pp = fileio.load_public_params(fileio.read_file(files["pp"]))
    loads = {"pp": fileio.load_public_params, "msk": lambda blob: fileio.load_master_secret(blob, pp),
             "sk": lambda blob: fileio.load_user_secret(blob, MINI),
             "ct": lambda blob: fileio.load_ciphertext(blob, MINI),
             "td1": lambda blob: fileio.load_td1(blob, MINI), "td2": lambda blob: fileio.load_td2(blob, MINI),
             "td3": lambda blob: fileio.load_td3(blob, MINI), "td3_ct": lambda blob: fileio.load_td3(blob, MINI)}
    return {kind: (loads[kind], fileio.read_file(path)) for kind, path in files.items()}


@pytest.fixture
def unused(tmp_path):
    """A fresh --out path for one test's commands that must fail before
    writing it, so a command that wrongly succeeds fails only its own test."""
    return str(tmp_path / "never-written")


class TestRoundTrips:
    def test_decrypt_restores_exact_message(self, workspace):
        out = str(workspace["dir"] / "restored.bin")
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--seed", "07", "--out", out])
        assert code == 0
        with open(out, "rb") as fh:
            assert fh.read() == b"equal!!!"

    def test_short_message_padding_round_trip(self, workspace):
        msg = str(workspace["dir"] / "short.bin")
        ct = str(workspace["dir"] / "short.ibfa")
        out = str(workspace["dir"] / "short.out")
        with open(msg, "wb") as fh:
            fh.write(b"ab")
        assert run_command(["encrypt", "--pp", workspace["pp"], "--id", "alice",
                            "--in", msg, "--seed", "08", "--out", ct]) == 0
        assert run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", ct, "--seed", "09", "--out", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == b"ab"

    def test_oversized_message_rejected(self, workspace, unused):
        msg = str(workspace["dir"] / "long.bin")
        with open(msg, "wb") as fh:
            fh.write(b"x" * (MINI.t // 8 + 1))
        code = run_command(["encrypt", "--pp", workspace["pp"], "--id", "alice",
                            "--in", msg, "--seed", "0a", "--out", unused])
        assert code == 64


class TestEqualityVerbs:
    def test_type1_equal_and_not_equal(self, workspace):
        d = workspace["dir"]
        for who, sk in (("a", "sk_a"), ("b", "sk_b")):
            assert run_command(["td", "--type", "1", "--pp", workspace["pp"],
                                "--sk", workspace[sk], "--out", str(d / f"td1_{who}.ibfa")]) == 0
        equal = run_command(["test", "--type", "1", "--pp", workspace["pp"],
                             "--td-i", str(d / "td1_a.ibfa"), "--td-j", str(d / "td1_b.ibfa"),
                             "--ct-i", workspace["ct_a1"], "--ct-j", workspace["ct_b1"],
                             "--seed", "0b"])
        assert equal == 0
        differ = run_command(["test", "--type", "1", "--pp", workspace["pp"],
                              "--td-i", str(d / "td1_a.ibfa"), "--td-j", str(d / "td1_b.ibfa"),
                              "--ct-i", workspace["ct_a1"], "--ct-j", workspace["ct_b2"],
                              "--seed", "0c"])
        assert differ == 1

    def test_type2_flow(self, workspace):
        d = workspace["dir"]
        assert run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--seed", "0d",
                            "--out", str(d / "td2_a.ibfa")]) == 0
        assert run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", workspace["sk_b"],
                            "--ct", workspace["ct_b1"], "--seed", "0e",
                            "--out", str(d / "td2_b.ibfa")]) == 0
        assert run_command(["test", "--type", "2", "--pp", workspace["pp"],
                            "--td-i", str(d / "td2_a.ibfa"), "--td-j", str(d / "td2_b.ibfa"),
                            "--ct-i", workspace["ct_a1"], "--ct-j", workspace["ct_b1"]]) == 0

    def test_type3_mixed_flow(self, workspace):
        d = workspace["dir"]
        assert run_command(["td", "--type", "3", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--out", str(d / "td3_a.ibfa")]) == 0
        assert run_command(["td", "--type", "3", "--pp", workspace["pp"], "--sk", workspace["sk_b"],
                            "--ct", workspace["ct_b1"], "--seed", "0f",
                            "--out", str(d / "td3_b.ibfa")]) == 0
        assert run_command(["test", "--type", "3", "--pp", workspace["pp"],
                            "--td-i", str(d / "td3_a.ibfa"), "--td-j", str(d / "td3_b.ibfa"),
                            "--ct-i", workspace["ct_a1"], "--ct-j", workspace["ct_b1"],
                            "--seed", "10"]) == 0

    def test_type2_requires_ct(self, workspace, unused, monkeypatch):
        # the usage is checked before any file is opened: a missing pp file
        # read first would exit 65 ("cannot read ...")
        opened = []

        def counted_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(fileio, "open", counted_open, raising=False)
        for pp in (workspace["pp"], str(workspace["dir"] / "no-such-pp")):
            code = run_command(["td", "--type", "2", "--pp", pp, "--sk", workspace["sk_a"], "--out", unused])
            assert code == 64
        assert opened == []


class TestTamperingAndErrors:
    def test_bitflip_ciphertext_rejects(self, workspace, unused):
        blob = bytearray(fileio.read_file(workspace["ct_a1"]))
        blob[len(blob) // 2] ^= 0x04  # somewhere inside the payload
        bad = str(workspace["dir"] / "ct_bad.ibfa")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", bad, "--seed", "11", "--out", unused])
        assert code == 2

    def test_corrupted_magic_is_load_error(self, workspace, unused):
        blob = bytearray(fileio.read_file(workspace["pp"]))
        blob[0] ^= 0xFF
        bad = str(workspace["dir"] / "pp_bad.ibfa")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        code = run_command(["decrypt", "--pp", bad, "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65

    def test_kind_confusion_is_load_error(self, workspace, unused):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["pp"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65

    def test_missing_file_is_load_error(self, workspace, unused):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", str(workspace["dir"] / "nope.ibfa"), "--out", unused])
        assert code == 65

    def test_usage_error_code(self):
        assert run_command(["encrypt"]) == 64

    def test_fingerprint_mismatch_detected(self, workspace, tmp_path, params_file, unused):
        # artifacts from a different parameter set must be refused
        other = json.loads(open(params_file).read())
        other["q_bound"] = 2048
        other_file = tmp_path / "other.json"
        other_file.write_text(json.dumps(other))
        pp2 = str(tmp_path / "pp2.ibfa")
        msk2 = str(tmp_path / "msk2.ibfa")
        assert run_command(["setup", "--params", str(other_file), "--seed", "12",
                            "--out-pp", pp2, "--out-msk", msk2]) == 0
        code = run_command(["extract", "--pp", pp2, "--msk", workspace["msk"],
                            "--id", "eve", "--out", unused])
        assert code == 65


class TestHeaderParamsValidated:
    """A file whose header holds a parameter set that `params validate`
    refuses is a load error, for every kind, even with its fingerprint
    recomputed and a payload of the shapes that set gives."""

    # header edit -> the violation it names
    BAD = {
        "n=0": ({"n": 0}, "positive-sizes"),
        "t=0": ({"t": 0}, "positive-sizes"),
        "q=4": ({"q": 4}, "modulus-prime"),
        "m=1": ({"m": 1}, "trapgen-width"),
        "sigma=nan": ({"sigma": float("nan")}, "sigma-sampling"),
    }
    @staticmethod
    def reheaded(blob, p, payload=None):
        """blob under p's header: its own magic, version, kind and reserved
        byte, p's fingerprint and fields, then payload (blob's own by default)."""
        payload = blob[HEADER:] if payload is None else payload
        return blob[:8] + fileio.params_fingerprint(p) + fileio.encode_params(p) + payload

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_public_params_load_and_encrypt(self, workspace, case, tmp_path, capsys, unused):
        change, violation = self.BAD[case]
        p = dataclasses.replace(MINI, **change)
        # zero residues in the shapes p gives: A, A', A_1..A_ell, B, then U
        words = p.n * p.m * (p.ell + 3) + p.n * p.t
        blob = self.reheaded(fileio.read_file(workspace["pp"]), p, bytes(8 * words))
        with pytest.raises(FormatError, match=f"violates constraints: {violation}"):
            fileio.load_public_params(blob)
        bad = str(tmp_path / "pp.ibfa")
        fileio.write_file(bad, blob)
        code = run_command(["encrypt", "--pp", bad, "--id", "alice", "--in", workspace["msg1"],
                            "--seed", "04", "--out", unused])
        assert code == 65 and violation in capsys.readouterr().err
        assert not os.path.exists(unused)

    def test_every_kind(self, workspace, mini_system, mini_key):
        # sigma = NaN keeps every payload's shape, so only the header is wrong
        pp, msk = mini_system
        ident, sk = mini_key
        p = dataclasses.replace(MINI, sigma=float("nan"))
        ct = encrypt(pp, ident, random_message(MINI.t, 471), RandomSource(472))
        loads = {
            "pp": (fileio.dump_public_params(pp), fileio.load_public_params),
            "msk": (fileio.dump_master_secret(msk, MINI), lambda b: fileio.load_master_secret(b, pp)),
            "sk": (fileio.dump_user_secret(sk, MINI), fileio.load_user_secret),
            "ct": (fileio.dump_ciphertext(ct, MINI), fileio.load_ciphertext),
            "td1": (fileio.dump_td1(td1(sk, ident), MINI), fileio.load_td1),
            "td2": (fileio.dump_td2(td2(pp, sk, ident, ct, RandomSource(473)), MINI), fileio.load_td2),
            "td3": (fileio.dump_td3(td3_basis(sk, ident), MINI), fileio.load_td3),
        }
        for kind, (blob, load) in loads.items():
            load(blob)
            with pytest.raises(FormatError, match="violates constraints: sigma-sampling"):
                load(self.reheaded(blob, p))


class TestVersionOneFiles:
    """Version-1 keys and type-1/type-3 trapdoors carry a basis where version 2
    carries preimages of U, version-2 keys lack the R factor of E'_ID that
    version 3 appends, version-3 keys hold 64-bit integer words and lack
    the coset map of E'_ID that version 4 carries, version-4 keys hold the
    2m x 2m basis E_ID where version 5 holds the gadget trapdoor R_ID and
    Abar_ID, version-5 keys have the 111-byte header, R's packed upper
    triangle and no prefix order where version 6 has the aligned layout,
    version-1 master keys carry the bases T_A and
    T_A' where version 2 carries Rbar and Rbar', and a version-1
    ciphertext's c5 hashed R as 64-bit residues where version 2 hashes one
    code per entry: they are refused, never read as something else (a
    version-1 ciphertext never comes back as a misleading REJECT)."""

    #: The header before the aligned layout: no reserved byte.
    OLD_HEADER = HEADER - 1

    @classmethod
    def old_blob(cls, kind, version, *arrays, variant=b""):
        header = (fileio.MAGIC + struct.pack("<HB", version, kind) + fileio.params_fingerprint(MINI)
                  + fileio.encode_params(MINI))
        assert len(header) == cls.OLD_HEADER
        return header + variant + b"".join(np.ascontiguousarray(a, dtype="<i8").tobytes() for a in arrays)

    @staticmethod
    def with_version(blob, version):
        return blob[:4] + struct.pack("<H", version) + blob[6:]

    @staticmethod
    def packed_r(sk):
        """R's upper triangle row after row as binary64, the R block of key versions 3 to 5."""
        blocks = sk.trapdoor_prime.prep.blocks
        return np.concatenate([b[i, i:] for b in blocks for i in range(b.shape[0])]).astype("<f8").tobytes()

    @staticmethod
    def coset_map(sk):
        td = sk.trapdoor_prime
        return td.pivots.astype("<i8").tobytes() + td.elim.astype("<i8").tobytes() + td.proj.astype("<f8").tobytes()

    @pytest.fixture(scope="class")
    def v1_files(self, workspace):
        current = fileio.read_file(workspace["sk_a"])
        sk = fileio.load_user_secret(current, MINI)
        ident = np.asarray(sk.identity.bits, dtype=np.int64)
        pp = fileio.load_public_params(fileio.read_file(workspace["pp"]))
        msk = fileio.load_master_secret(fileio.read_file(workspace["msk"]), pp)
        bases = (sk.e_id, sk.e_id_prime, sk.e_f, sk.e_f_prime)

        def int32s(*arrays):
            return b"".join(np.ascontiguousarray(a, dtype="<i4").tobytes() for a in arrays)

        blobs = {
            "msk": (lambda blob, _: fileio.load_master_secret(blob, pp), 1,
                    self.old_blob(fileio.KIND_MSK, 1, master_basis(pp.a, msk.trapdoor_a),
                                  master_basis(pp.a_prime, msk.trapdoor_a_prime))),
            "sk": (fileio.load_user_secret, 1,
                   self.old_blob(fileio.KIND_SK, 1, ident, sk.e_id, sk.e_id_prime)),
            "sk_v2": (fileio.load_user_secret, 2, self.old_blob(fileio.KIND_SK, 2, ident, *bases)),
            "sk_v3": (fileio.load_user_secret, 3,
                      self.old_blob(fileio.KIND_SK, 3, ident, *bases) + self.packed_r(sk)),
            # version 4: E_ID in R_ID's place, as int32, no Abar_ID, then the R block and the map
            "sk_v4": (fileio.load_user_secret, 4,
                      self.old_blob(fileio.KIND_SK, 4, ident) + int32s(*bases)
                      + self.packed_r(sk) + self.coset_map(sk)),
            # version 5: R_ID and Abar_ID, unaligned, R packed
            "sk_v5": (fileio.load_user_secret, 5,
                      self.old_blob(fileio.KIND_SK, 5, ident)
                      + int32s(sk.r_id, sk.e_id_prime, sk.e_f, sk.e_f_prime)
                      + sk.a_bar_id.astype("<i8").tobytes() + self.packed_r(sk) + self.coset_map(sk)),
            "td1": (fileio.load_td1, 1, self.old_blob(fileio.KIND_TD1, 1, ident, sk.e_id_prime)),
            "td3": (fileio.load_td3, 1,
                    self.old_blob(fileio.KIND_TD3, 1, ident, sk.e_id_prime, variant=b"\x00")),
            # only the header and what c5 means changed
            "ct": (fileio.load_ciphertext, 1, self.with_version(fileio.read_file(workspace["ct_a1"]), 1)),
        }
        paths = {}
        for name, (load, version, blob) in blobs.items():
            with pytest.raises(FormatError, match=f"unsupported format version {version}"):
                load(blob, MINI)
            paths[name] = str(workspace["dir"] / f"old.{name}")
            fileio.write_file(paths[name], blob)
        return paths

    def test_v1_master_key_refused(self, workspace, v1_files, unused):
        code = run_command(["extract", "--pp", workspace["pp"], "--msk", v1_files["msk"],
                            "--id", "eve", "--out", unused])
        assert code == 65

    def test_v1_secret_key_refused(self, workspace, v1_files, unused):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65

    def test_v2_secret_key_refused(self, workspace, v1_files, unused):
        # a version-2 key is the version-3 payload without its R block
        v2, v3 = (fileio.read_file(v1_files[name]) for name in ("sk_v2", "sk_v3"))
        d = 2 * MINI.m
        assert v3[6:].startswith(v2[6:]) and len(v3) - len(v2) == 8 * d * (d + 1) // 2
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk_v2"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", v1_files["sk_v2"],
                            "--ct", workspace["ct_a1"], "--seed", "13", "--out", unused])
        assert code == 65

    def test_v3_secret_key_refused(self, workspace, v1_files, unused):
        # a version-3 key holds the version-4 integer sections as 64-bit words,
        # then the same R block, and no coset map
        v3, v4, v5 = (fileio.read_file(v1_files[name]) for name in ("sk_v3", "sk_v4", "sk_v5"))
        d = 2 * MINI.m
        r_block = 8 * d * (d + 1) // 2
        map_bytes = 8 * (MINI.n + MINI.n * MINI.n + d * MINI.n)
        assert v3[-r_block:] == v4[-r_block - map_bytes : -map_bytes] == v5[-r_block - map_bytes : -map_bytes]
        head = self.OLD_HEADER + 8 * MINI.ell
        int32_bytes = 4 * (2 * d * d + 2 * d * MINI.t)  # E_ID, E'_ID, e_F, e_F' in version 4
        assert len(v4) == head + int32_bytes + r_block + map_bytes
        assert len(v3) - r_block == head + 2 * int32_bytes
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk_v3"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", v1_files["sk_v3"],
                            "--ct", workspace["ct_a1"], "--seed", "13", "--out", unused])
        assert code == 65

    def test_v4_secret_key_refused(self, workspace, v1_files, unused):
        # a version-4 key holds E_ID (2m x 2m) where version 5 holds R_ID and
        # Abar_ID; the identity, E'_ID, e_F, e_F', the R block and the map are the same
        v4, v5 = (fileio.read_file(v1_files[name]) for name in ("sk_v4", "sk_v5"))
        d = 2 * MINI.m
        nk = MINI.n * gadget_length(MINI.q)
        head = self.OLD_HEADER + 8 * MINI.ell
        r_id, a_bar = 4 * (d - nk) * nk, 8 * MINI.n * (d - nk)
        middle = 4 * (d * d + 2 * d * MINI.t)  # E'_ID, e_F, e_F'
        assert v4[6:head] == v5[6:head]
        assert v4.endswith(v5[head + r_id : head + r_id + middle] + v5[head + r_id + middle + a_bar :])
        assert len(v4) - len(v5) == 4 * d * d - r_id - a_bar
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk_v4"],
                            "--ct", workspace["ct_a1"], "--out", unused])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", v1_files["sk_v4"],
                            "--ct", workspace["ct_a1"], "--seed", "13", "--out", unused])
        assert code == 65

    def test_v5_secret_key_refused(self, workspace, v1_files, unused):
        # a version-5 key holds the version-6 sections unaligned, in another
        # order, with R packed: the reserved byte and the zeros below R's
        # block diagonals are all that version 6 adds at MINI, which needs no pad
        v5, current = (fileio.read_file(path) for path in (v1_files["sk_v5"], workspace["sk_a"]))
        d = 2 * MINI.m
        assert len(current) - len(v5) == 1 + 8 * (r_block_words(d) - d * (d + 1) // 2)
        common = ["--pp", workspace["pp"], "--sk", v1_files["sk_v5"], "--out", unused]
        assert run_command(["decrypt", *common, "--ct", workspace["ct_a1"]]) == 65
        assert run_command(["td", "--type", "1", *common]) == 65
        assert run_command(["td", "--type", "2", *common, "--ct", workspace["ct_a1"], "--seed", "13"]) == 65

    def test_v1_ciphertext_refused(self, workspace, v1_files, unused):
        current = fileio.read_file(workspace["ct_a1"])
        assert self.with_version(current, 3) == current
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", v1_files["ct"], "--out", unused])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", v1_files["ct"], "--seed", "15", "--out", unused])
        assert code == 65

    @pytest.mark.parametrize("kind", ["td1", "td3"])
    def test_v1_type1_side_refused(self, workspace, v1_files, kind):
        d = workspace["dir"]
        assert run_command(["td", "--type", kind[-1], "--pp", workspace["pp"], "--sk", workspace["sk_b"],
                            "--out", str(d / f"v2_b.{kind}")]) == 0
        code = run_command(["test", "--type", kind[-1], "--pp", workspace["pp"],
                            "--td-i", v1_files[kind], "--td-j", str(d / f"v2_b.{kind}"),
                            "--ct-i", workspace["ct_a1"], "--ct-j", workspace["ct_b1"]])
        assert code == 65


class TestStoredRBlock:
    """A key file whose R block is not E'_ID's R factor is a load error of
    every command that reads it (td --type 2, td --type 3 --ct); decrypt
    reads the key's prefix only, which ends before the R block."""

    @pytest.fixture(scope="class")
    def bad_keys(self, workspace):
        blob = fileio.read_file(workspace["sk_a"])
        d = 2 * MINI.m
        span = sk_sections(MINI)["r"]
        start = span.start
        r = np.frombuffer(blob[span], dtype="<f8")
        diagonal = r_diagonal_words(d)
        off_diagonal = np.abs(r).copy()
        off_diagonal[diagonal] = 0
        flipped = bytearray(blob)
        flipped[start + 8 * int(np.argmax(off_diagonal)) + 7] ^= 0x80
        zeroed = bytearray(blob)
        word = start + 8 * diagonal[d // 2]
        zeroed[word : word + 8] = bytes(8)
        # R[1, 0], a zero below the top block's diagonal (the top block starts at row 0)
        below = bytearray(blob)
        word = start + 8 * d
        assert r[d] == 0
        below[word : word + 8] = struct.pack("<d", 1.0)
        swapped = blob[:start] + fileio.read_file(workspace["sk_b"])[span] + blob[span.stop :]
        paths = {}
        for name, bad in (("flipped", flipped), ("zeroed", zeroed), ("below", below), ("swapped", swapped)):
            assert bytes(bad) != blob
            with pytest.raises(FormatError, match="stored R factor refused"):
                fileio.load_user_secret(bytes(bad), MINI)
            paths[name] = str(workspace["dir"] / f"{name}.sk")
            fileio.write_file(paths[name], bytes(bad))
        return paths

    @pytest.mark.parametrize("name", ["flipped", "zeroed", "below", "swapped"])
    def test_bad_r_block_is_load_error(self, workspace, bad_keys, name, unused, capsys):
        out = str(workspace["dir"] / f"{name}.out")
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", bad_keys[name],
                            "--ct", workspace["ct_a1"], "--out", out])
        assert code == 0
        for extra in (["--type", "2"], ["--type", "3"]):
            capsys.readouterr()
            code = run_command(["td", *extra, "--pp", workspace["pp"], "--sk", bad_keys[name],
                                "--ct", workspace["ct_a1"], "--seed", "14", "--out", unused])
            assert code == 65
            assert "stored R factor refused" in capsys.readouterr().err
        assert not os.path.exists(unused)


class TestStoredCosetMap:
    """A key file whose coset map of E'_ID (pivots, E, projections) is not
    E'_ID's is a load error, before any sampling."""

    @pytest.fixture(scope="class")
    def bad_maps(self, workspace):
        blob = fileio.read_file(workspace["sk_a"])
        spans = sk_sections(MINI)
        proj = np.frombuffer(blob[spans["proj"]], dtype="<f8")
        pivots = np.frombuffer(blob[spans["pivots"]], dtype="<i8")
        moved = next(row for row in range(2 * MINI.m) if row not in pivots)
        assert max(moved, int(pivots[0])) < 256  # both fit in the word's low byte
        changes = {
            # the sign bit of the largest projection entry
            "proj_sign": (spans["proj"].start + 8 * int(np.argmax(np.abs(proj))) + 7, 0x80),
            # a pivot moved to a row that is no pivot, and one moved past the last row
            "pivot_moved": (spans["pivots"].start, int(pivots[0]) ^ moved),
            "pivot_range": (spans["pivots"].start + 2, 0x01),
            # the sign bit of an E word: no residue
            "elim_sign": (spans["elim"].start + 7, 0x80),
        }
        paths = {}
        for name, (byte, mask) in changes.items():
            bad = bytearray(blob)
            bad[byte] ^= mask
            assert bytes(bad) != blob
            paths[name] = str(workspace["dir"] / f"{name}.sk")
            fileio.write_file(paths[name], bytes(bad))
        return paths

    @pytest.mark.parametrize("name", ["proj_sign", "pivot_moved", "pivot_range", "elim_sign"])
    def test_bad_coset_map_is_load_error(self, workspace, bad_maps, name, capsys, unused):
        capsys.readouterr()
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", bad_maps[name],
                            "--ct", workspace["ct_a1"], "--seed", "16", "--out", unused])
        assert code == 65
        assert "stored coset map refused" in capsys.readouterr().err
        code = run_command(["td", "--type", "3", "--pp", workspace["pp"], "--sk", bad_maps[name],
                            "--ct", workspace["ct_a1"], "--seed", "16", "--out", unused])
        assert code == 65


class TestStoredAbar:
    """The Abar_ID words of a key file are residues: one outside [0, q) is a
    load error, from decrypt as from td, before the key is used."""

    @pytest.mark.parametrize("word", [MINI.q, -1])
    def test_out_of_range_word_exits_65(self, workspace, word, capsys, unused):
        blob = fileio.read_file(workspace["sk_a"])
        span = sk_sections(MINI)["a_bar_id"]
        words = np.frombuffer(blob[span], dtype="<i8").copy()
        words[5] = word
        path = str(workspace["dir"] / "abar_range.sk")
        fileio.write_file(path, blob[: span.start] + words.tobytes() + blob[span.stop :])
        common = ["--pp", workspace["pp"], "--sk", path, "--ct", workspace["ct_a1"], "--out", unused]
        for argv in (["decrypt", *common], ["td", "--type", "2", "--seed", "25", *common]):
            capsys.readouterr()
            assert run_command(argv) == 65
            assert "Abar_ID holds out-of-range residues" in capsys.readouterr().err
        assert not os.path.exists(unused)


class TestKeyBelongsToPublicParams:
    """decrypt and td check a loaded key against the pp given before using
    it: Abar_ID must be F_ID's first 2m - nk columns and F_ID @ [R_ID; I]
    == G.  A key file changed there within range loads (neither section is
    read by decrypt or td2), so only this check refuses it (65)."""

    @pytest.mark.parametrize("section, word, message", [
        ("r_id", 0, "no trapdoor of this public matrix"),
        ("r_id", -1, "no trapdoor of this public matrix"),
        ("a_bar_id", 5, "Abar_ID is not F_ID's"),
    ])
    def test_changed_word_exits_65(self, workspace, section, word, message, capsys, unused):
        blob = fileio.read_file(workspace["sk_a"])
        span = sk_sections(MINI)[section]
        if section == "r_id":  # int32 entries of R_ID, any value in range
            words = np.frombuffer(blob[span], dtype="<i4").copy()
            words[word] += 1
        else:  # residues, kept in [0, q)
            words = np.frombuffer(blob[span], dtype="<i8").copy()
            words[word] = (words[word] + 1) % MINI.q
        path = str(workspace["dir"] / f"{section}_in_range.sk")
        fileio.write_file(path, blob[: span.start] + words.tobytes() + blob[span.stop :])
        fileio.load_user_secret(fileio.read_file(path), MINI)  # the file itself is well formed
        common = ["--pp", workspace["pp"], "--sk", path, "--ct", workspace["ct_a1"], "--out", unused]
        for argv in (["decrypt", *common], ["td", "--type", "2", "--seed", "26", *common]):
            capsys.readouterr()
            assert run_command(argv) == 65
            assert message in capsys.readouterr().err
        assert not os.path.exists(unused)

    def test_untouched_key_still_works(self, workspace):
        out = str(workspace["dir"] / "checked.out")
        common = ["--pp", workspace["pp"], "--sk", workspace["sk_a"], "--ct", workspace["ct_a1"], "--out", out]
        assert run_command(["decrypt", *common]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == b"equal!!!"
        assert run_command(["td", "--type", "2", "--seed", "27", *common]) == 0


class TestForeignKey:
    """A key that does not belong to the public parameters given is a load
    error of the key (65), not a usage error: another system's key with
    the same parameters, or a key file whose E word was changed within
    [0, q), which only F'_ID can tell."""

    @pytest.fixture(scope="class")
    def other_system(self, workspace, params_file):
        d = workspace["dir"]
        paths = {"pp": str(d / "pp2.ibfa"), "msk": str(d / "msk2.ibfa"),
                 "ct": str(d / "ct2_a.ibfa"), "ct_b": str(d / "ct2_b.ibfa"), "td1": str(d / "foreign.td1")}
        assert run_command(["setup", "--params", params_file, "--seed", "02",
                            "--out-pp", paths["pp"], "--out-msk", paths["msk"]]) == 0
        for ct, who, seed in ((paths["ct"], "alice", "21"), (paths["ct_b"], "bob", "22")):
            assert run_command(["encrypt", "--pp", paths["pp"], "--id", who, "--in", workspace["msg1"],
                                "--seed", seed, "--out", ct]) == 0
        # the CLI checks the key against pp2 and issues nothing, so this
        # system's type-1 trapdoor reaches test1 as a file made by the library
        sk = fileio.load_user_secret(fileio.read_file(workspace["sk_a"]), MINI)
        fileio.write_file(paths["td1"], fileio.dump_td1(td1(sk, sk.identity), MINI))
        return paths

    def test_other_systems_key_exits_65(self, workspace, other_system, capsys, unused):
        pp, ct = other_system["pp"], other_system["ct"]
        commands = {
            "decrypt": ["decrypt", "--pp", pp, "--sk", workspace["sk_a"], "--ct", ct],
            "td1": ["td", "--type", "1", "--pp", pp, "--sk", workspace["sk_a"]],
            "td2": ["td", "--type", "2", "--pp", pp, "--sk", workspace["sk_a"], "--ct", ct, "--seed", "23"],
            "td3": ["td", "--type", "3", "--pp", pp, "--sk", workspace["sk_a"], "--ct", ct, "--seed", "23"],
            "test1": ["test", "--type", "1", "--pp", pp, "--td-i", other_system["td1"],
                      "--td-j", other_system["td1"], "--ct-i", ct, "--ct-j", other_system["ct_b"]],
        }
        messages = {"decrypt": "Abar_ID is not F_ID's", "td1": "Abar_ID is not F_ID's",
                    "td2": "Abar_ID is not F_ID's", "td3": "Abar_ID is not F_ID's", "test1": "key preimage"}
        for name, argv in commands.items():
            capsys.readouterr()
            out = [] if name == "test1" else ["--out", unused]
            assert run_command(argv + out) == 65, name
            assert messages[name] in capsys.readouterr().err, name
        assert not os.path.exists(unused)
        # behind the CLI's check, decrypt still refuses the key by its preimages
        pp2 = fileio.load_public_params(fileio.read_file(pp))
        sk = fileio.load_user_secret(fileio.read_file(workspace["sk_a"]), MINI)
        ct2, _ = fileio.load_ciphertext(fileio.read_file(ct), MINI)
        with pytest.raises(KeyMismatch, match="key preimage"):
            decrypt(pp2, sk, ct2, None)

    def test_elimination_word_in_range_exits_65(self, workspace, capsys, unused):
        blob = fileio.read_file(workspace["sk_a"])
        span = sk_sections(MINI)["elim"]
        words = np.frombuffer(blob[span], dtype="<i8").copy()
        words[0] = (words[0] + 1) % MINI.q
        path = str(workspace["dir"] / "elim_in_range.sk")
        fileio.write_file(path, blob[: span.start] + words.tobytes() + blob[span.stop :])
        capsys.readouterr()
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", path,
                            "--ct", workspace["ct_a1"], "--seed", "24", "--out", unused])
        assert code == 65
        assert "another public matrix" in capsys.readouterr().err

    def test_usage_errors_stay_64(self, workspace, unused):
        assert run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--out", unused]) == 64
        assert run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--seed", "zz", "--out", unused]) == 64


class TestMasterKeyFile:
    """A master key file holds Rbar and Rbar' after its header; the load
    rebuilds T_A and T_A' from them and refuses any entry other than +-1,
    and an Rbar that is no gadget trapdoor of the public parameters' A or
    A'.  A trapdoor that keeps no Rbar cannot be written."""

    def test_non_sign_entry_is_load_error(self, workspace, capsys, unused):
        blob = bytearray(fileio.read_file(workspace["msk"]))
        nk = MINI.n * gadget_length(MINI.q)
        start = len(blob) - 16 * (MINI.m - nk) * nk
        assert start == HEADER == fileio.HEADER_SIZE
        assert struct.unpack_from("<q", blob, start)[0] in (-1, 1)
        blob[start : start + 8] = struct.pack("<q", 2)
        path = str(workspace["dir"] / "bad_rbar.msk")
        fileio.write_file(path, bytes(blob))
        capsys.readouterr()
        code = run_command(["extract", "--pp", workspace["pp"], "--msk", path,
                            "--id", "eve", "--out", unused])
        assert code == 65
        assert "+-1" in capsys.readouterr().err

    def test_other_systems_master_key_is_load_error(self, workspace, params_file, tmp_path, capsys, unused):
        # same parameters, another seed: the fingerprints agree, the Rbar do not
        pp2, msk2 = str(tmp_path / "pp2.ibfa"), str(tmp_path / "msk2.ibfa")
        assert run_command(["setup", "--params", params_file, "--seed", "02",
                            "--out-pp", pp2, "--out-msk", msk2]) == 0
        capsys.readouterr()
        code = run_command(["extract", "--pp", workspace["pp"], "--msk", msk2,
                            "--id", "eve", "--out", unused])
        assert code == 65
        assert "no trapdoor of these public parameters" in capsys.readouterr().err


class TestParamsVerb:
    def test_preset_ok(self):
        assert run_command(["params", "validate", "--params", "toy"]) == 0

    def test_invalid_file_reports(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lambda": 128, "n": 4, "m": 10, "q": 4093,
                                   "t": 64, "ell": 8, "sigma": 1.0, "alpha": 0.5}))
        assert run_command(["params", "validate", "--params", str(bad)]) == 1

    @pytest.mark.parametrize("field, raw", [
        ("lambda", '{"lambda": "x", "n": 4, "m": 914, "q": 4093, "t": 64, "ell": 8, '
                   '"sigma": 1.0, "alpha": 0.5}'),
        (None, '[128, 4, 914]'),
        ("q_bound", '{"lambda": 128, "n": 4, "m": 914, "q": 4093, "t": 64, "ell": 8, '
                    '"sigma": 1.0, "alpha": 0.5, "q_bound": 1e400}'),
        # int() would read true as 1 and 4.9 as 4, float() true as 1.0
        ("lambda", '{"lambda": true, "n": 4, "m": 914, "q": 4093, "t": 64, "ell": 8, '
                   '"sigma": 1.0, "alpha": 0.5}'),
        ("n", '{"lambda": 128, "n": 4.9, "m": 914, "q": 4093, "t": 64, "ell": 8, '
              '"sigma": 1.0, "alpha": 0.5}'),
        ("sigma", '{"lambda": 128, "n": 4, "m": 914, "q": 4093, "t": 64, "ell": 8, '
                  '"sigma": true, "alpha": 0.5}'),
        ("alpha", '{"lambda": 128, "n": 4, "m": 914, "q": 4093, "t": 64, "ell": 8, '
                  '"sigma": 1.0, "alpha": "0.5"}'),
    ])
    def test_malformed_file_is_load_error(self, tmp_path, capsys, field, raw):
        # exit 1 would read as "violations found"; a malformed file is refused
        bad = tmp_path / "malformed.json"
        bad.write_text(raw)
        assert run_command(["params", "validate", "--params", str(bad)]) == 65
        err = capsys.readouterr().err
        assert str(bad) in err and (field is None or f"'{field}'" in err)
        assert "Traceback" not in err

    def test_integer_in_float_field_accepted(self, tmp_path):
        # the toy preset with sigma written as a JSON integer
        good = tmp_path / "toy_int_sigma.json"
        good.write_text('{"lambda": 128, "n": 4, "m": 914, "q": 259999999951, "t": 64, '
                        '"ell": 8, "sigma": 235000, "alpha": 2e-11}')
        assert run_command(["params", "validate", "--params", str(good)]) == 0


class TestDifferentialWithLibrary:
    def test_cli_encrypt_equals_library_encrypt(self, workspace):
        # same seed, same message -> byte-identical ciphertext artifact
        pp = fileio.load_public_params(fileio.read_file(workspace["pp"]))
        ident = identity_from_string("alice", MINI.ell)
        bits = np.zeros(MINI.t, dtype=np.uint8)
        raw = b"equal!!!"
        from ibeetfa.hashing import bytes_to_bits

        bits[: len(raw) * 8] = bytes_to_bits(raw, len(raw) * 8)
        ct, _ = encrypt_traced(pp, ident, bits, RandomSource("04"))
        want = fileio.dump_ciphertext(ct, pp.params, len(raw) * 8)
        assert fileio.read_file(workspace["ct_a1"]) == want

    def test_setup_files_reproducible(self, workspace, params_file, tmp_path):
        pp2 = str(tmp_path / "pp_again.ibfa")
        msk2 = str(tmp_path / "msk_again.ibfa")
        assert run_command(["setup", "--params", params_file, "--seed", "01",
                            "--out-pp", pp2, "--out-msk", msk2]) == 0
        assert fileio.read_file(pp2) == fileio.read_file(workspace["pp"])
        assert fileio.read_file(msk2) == fileio.read_file(workspace["msk"])


class TestSerializationUnits:
    def test_pp_round_trip_identity(self):
        rng = RandomSource(0xABCD)
        pp, msk = setup(MINI, rng)
        blob = fileio.dump_public_params(pp)
        back = fileio.load_public_params(blob)
        assert fileio.dump_public_params(back) == blob
        blob2 = fileio.dump_master_secret(msk, MINI)
        back2 = fileio.load_master_secret(blob2, pp)
        assert fileio.dump_master_secret(back2, MINI) == blob2
        for a, got, want in ((pp.a, back2.trapdoor_a, msk.trapdoor_a),
                             (pp.a_prime, back2.trapdoor_a_prime, msk.trapdoor_a_prime)):
            assert np.array_equal(master_basis(a, got), master_basis(a, want))

    def test_pp_out_of_range_residue_rejected(self, mini_system):
        # the last word of a pp blob is an entry of U; every word is read as
        # int64, so words at and above 2**63 come back negative
        pp, _ = mini_system
        blob = bytearray(fileio.dump_public_params(pp))
        for word in (MINI.q, 1 << 63, (1 << 64) - 1):
            blob[-8:] = struct.pack("<Q", word)
            with pytest.raises(FormatError, match="out-of-range"):
                fileio.load_public_params(bytes(blob))

    def test_trapdoor_round_trips(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        ct = encrypt(pp, ident, random_message(MINI.t, 600), RandomSource(0x7D))
        cases = [
            (fileio.dump_td1, fileio.load_td1, td1(sk, ident)),
            (fileio.dump_td2, fileio.load_td2, td2(pp, sk, ident, ct, RandomSource(0x7E))),
            (fileio.dump_td3, fileio.load_td3, td3_basis(sk, ident)),
            (fileio.dump_td3, fileio.load_td3, td3_ct(pp, sk, ident, ct, RandomSource(0x7F))),
        ]
        for dump, load, td in cases:
            blob = dump(td, MINI)
            assert dump(load(blob, MINI), MINI) == blob

    def test_unknown_td3_variant_rejected(self, mini_key):
        ident, sk = mini_key
        blob = bytearray(fileio.dump_td3(td3_basis(sk, ident), MINI))
        assert blob[HEADER] == 0
        blob[HEADER] = 2
        with pytest.raises(FormatError, match="unknown variant"):
            fileio.load_td3(bytes(blob), MINI)

    def test_ct_payload_length_formula(self, workspace):
        blob = fileio.read_file(workspace["ct_a1"])
        p = MINI
        want = HEADER + 8 + 8 * (p.m * p.m + 2 * p.t + 6 * p.m) + (p.lambda_bits + 7) // 8  # header, bit length, R..c5
        assert len(blob) == want

    def test_dump_ciphertext_refuses_a_length_its_load_refuses(self, workspace):
        ct, _ = fileio.load_ciphertext(fileio.read_file(workspace["ct_a1"]), MINI)
        for bitlen in (MINI.t + 1, -1):
            with pytest.raises(ParameterError, match="message length"):
                fileio.dump_ciphertext(ct, MINI, bitlen)
        for bitlen in (0, MINI.t):
            assert fileio.load_ciphertext(fileio.dump_ciphertext(ct, MINI, bitlen), MINI)[1] == bitlen

    @pytest.mark.parametrize("kind", EVERY_KIND)
    def test_truncated_file_rejected(self, every_kind, kind):
        load, blob = every_kind[kind]
        with pytest.raises(FormatError):
            load(blob[:-1])

    @pytest.mark.parametrize("kind", EVERY_KIND)
    def test_trailing_bytes_rejected(self, every_kind, kind):
        load, blob = every_kind[kind]
        with pytest.raises(FormatError):
            load(blob + b"\x00")


@pytest.mark.slow
class TestToyKeyFile:
    def test_loaded_key_grants_the_fresh_keys_bytes(self, tmp_path):
        # at toy, td --type 2 and td --type 3 --ct of a key read from its file
        # walk with the R extract certified E'_ID with: their files equal the
        # library's from the freshly extracted key
        files = {name: str(tmp_path / name) for name in ("pp", "msk", "sk", "m", "ct", "td2", "td3")}
        with open(files["m"], "wb") as fh:
            fh.write(b"toy key!")
        assert run_command(["setup", "--params", "toy", "--seed", "21",
                            "--out-pp", files["pp"], "--out-msk", files["msk"]]) == 0
        assert run_command(["extract", "--pp", files["pp"], "--msk", files["msk"],
                            "--id", "ivan", "--seed", "22", "--out", files["sk"]]) == 0
        assert run_command(["encrypt", "--pp", files["pp"], "--id", "ivan",
                            "--in", files["m"], "--seed", "23", "--out", files["ct"]]) == 0
        for kind, seed in (("2", "24"), ("3", "25")):
            assert run_command(["td", "--type", kind, "--pp", files["pp"], "--sk", files["sk"],
                                "--ct", files["ct"], "--seed", seed,
                                "--out", files[f"td{kind}"]]) == 0
        pp = fileio.load_public_params(fileio.read_file(files["pp"]))
        p = pp.params
        msk = fileio.load_master_secret(fileio.read_file(files["msk"]), pp)
        ident = identity_from_string("ivan", p.ell)
        sk = extract(pp, msk, ident, RandomSource("22"))
        assert fileio.read_file(files["sk"]) == fileio.dump_user_secret(sk, p)
        ct, _ = fileio.load_ciphertext(fileio.read_file(files["ct"]), p)
        want2 = fileio.dump_td2(td2(pp, sk, ident, ct, RandomSource("24")), p)
        want3 = fileio.dump_td3(td3_ct(pp, sk, ident, ct, RandomSource("25")), p)
        assert fileio.read_file(files["td2"]) == want2
        assert fileio.read_file(files["td3"]) == want3


class TestOutputPaths:
    """An output that cannot be written is a usage error (64) and leaves no
    temp file; a symlink is written through, an existing target that is no
    regular file is written in place, and an existing file keeps its mode."""

    def test_missing_directory_is_usage_error(self, params_file, tmp_path, capsys):
        out_pp = tmp_path / "missing" / "pp.ibfa"
        code = run_command(["setup", "--params", params_file, "--seed", "01",
                            "--out-pp", str(out_pp), "--out-msk", str(tmp_path / "msk.ibfa")])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_pp}") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, workspace, tmp_path, monkeypatch, capsys):
        # the temp file exists when the rename fails; decrypt's plaintext
        # goes through the same write as every artifact
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(fileio.os, "replace", refuse)
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--out", str(tmp_path / "restored.bin")])
        assert code == 64
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(IbeetfaError, match="cannot write"):
            fileio.write_file(str(tmp_path / "direct.bin"), b"x")
        assert list(tmp_path.iterdir()) == []

    def test_fifo_target_stays_a_fifo(self, tmp_path):
        fifo = tmp_path / "pipe"
        link = tmp_path / "link"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        for target, blob in ((fifo, b"first"), (link, b"second")):
            got = []
            reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
            reader.start()
            fileio.write_file(str(target), blob)
            reader.join(timeout=60)
            assert not reader.is_alive() and got == [blob]
            assert stat.S_ISFIFO(os.stat(fifo).st_mode) and link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, fifo]

    def test_symlink_stays_a_link(self, tmp_path):
        target = tmp_path / "target.bin"
        link = tmp_path / "link.bin"
        target.write_bytes(b"old")
        link.symlink_to(target)
        fileio.write_file(str(link), b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_existing_file_keeps_its_mode(self, tmp_path):
        # a new file is 0600 whatever the umask (keys are secrets); an
        # existing one keeps the permission bits it had
        old = tmp_path / "shared.bin"
        old.write_bytes(b"old")
        os.chmod(old, 0o644)
        fileio.write_file(str(old), b"new")
        assert old.read_bytes() == b"new" and stat.S_IMODE(os.stat(old).st_mode) == 0o644
        fileio.write_file(str(tmp_path / "fresh.bin"), b"new")
        assert stat.S_IMODE(os.stat(tmp_path / "fresh.bin").st_mode) == 0o600


class TestUnusedSeed:
    """decrypt and test accept --seed and draw nothing: two seeds, one output."""

    def test_decrypt_output_is_seed_free(self, workspace):
        outs = []
        for seed in ("1a", "2b"):
            out = str(workspace["dir"] / f"seeded_{seed}.bin")
            assert run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                                "--ct", workspace["ct_a1"], "--seed", seed, "--out", out]) == 0
            outs.append(fileio.read_file(out))
        assert outs == [b"equal!!!", b"equal!!!"]

    def test_test_outcome_is_seed_free(self, workspace, capsys):
        d = workspace["dir"]
        for who in ("a", "b"):
            assert run_command(["td", "--type", "1", "--pp", workspace["pp"],
                                "--sk", workspace[f"sk_{who}"], "--out", str(d / f"seedless_{who}.td1")]) == 0
        for ct_j, want in (("ct_b1", "EQUAL"), ("ct_b2", "NOT-EQUAL")):
            seen = set()
            for seed in ("1a", "2b"):
                capsys.readouterr()
                code = run_command(["test", "--type", "1", "--pp", workspace["pp"],
                                    "--td-i", str(d / "seedless_a.td1"), "--td-j", str(d / "seedless_b.td1"),
                                    "--ct-i", workspace["ct_a1"], "--ct-j", workspace[ct_j],
                                    "--seed", seed])
                seen.add((code, capsys.readouterr().out))
            assert seen == {(0 if want == "EQUAL" else 1, want + "\n")}
