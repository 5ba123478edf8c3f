"""CLI verbs, file formats, exit codes, and differential checks."""

import json
import struct

import numpy as np
import pytest

from ibeetfa import fileio
from ibeetfa.authz import td1, td2, td3_basis, td3_ct
from ibeetfa.cli import run_command
from ibeetfa.errors import FormatError
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import encrypt, encrypt_traced, extract, identity_from_string, setup

from conftest import MINI, random_message


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

    def test_oversized_message_rejected(self, workspace):
        msg = str(workspace["dir"] / "long.bin")
        with open(msg, "wb") as fh:
            fh.write(b"x" * (MINI.t // 8 + 1))
        code = run_command(["encrypt", "--pp", workspace["pp"], "--id", "alice",
                            "--in", msg, "--seed", "0a", "--out", "/dev/null"])
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

    def test_type2_requires_ct(self, workspace):
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"],
                            "--sk", workspace["sk_a"], "--out", "/dev/null"])
        assert code == 64


class TestTamperingAndErrors:
    def test_bitflip_ciphertext_rejects(self, workspace):
        blob = bytearray(fileio.read_file(workspace["ct_a1"]))
        blob[len(blob) // 2] ^= 0x04  # somewhere inside the payload
        bad = str(workspace["dir"] / "ct_bad.ibfa")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", bad, "--seed", "11", "--out", "/dev/null"])
        assert code == 2

    def test_corrupted_magic_is_load_error(self, workspace):
        blob = bytearray(fileio.read_file(workspace["pp"]))
        blob[0] ^= 0xFF
        bad = str(workspace["dir"] / "pp_bad.ibfa")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        code = run_command(["decrypt", "--pp", bad, "--sk", workspace["sk_a"],
                            "--ct", workspace["ct_a1"], "--out", "/dev/null"])
        assert code == 65

    def test_kind_confusion_is_load_error(self, workspace):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["pp"],
                            "--ct", workspace["ct_a1"], "--out", "/dev/null"])
        assert code == 65

    def test_missing_file_is_load_error(self, workspace):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", workspace["sk_a"],
                            "--ct", str(workspace["dir"] / "nope.ibfa"), "--out", "/dev/null"])
        assert code == 65

    def test_usage_error_code(self):
        assert run_command(["encrypt"]) == 64

    def test_fingerprint_mismatch_detected(self, workspace, tmp_path, params_file):
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
                            "--id", "eve", "--out", "/dev/null"])
        assert code == 65


class TestVersionOneFiles:
    """Version-1 keys and type-1/type-3 trapdoors carry a basis where version 2
    carries preimages of U, and version-2 keys lack the R factor of E'_ID that
    version 3 appends: they are refused, never read as something else."""

    @staticmethod
    def old_blob(kind, version, *arrays, variant=b""):
        header = (fileio.MAGIC + struct.pack("<HB", version, kind) + fileio.params_fingerprint(MINI)
                  + fileio.encode_params(MINI))
        return header + variant + b"".join(np.ascontiguousarray(a, dtype="<i8").tobytes() for a in arrays)

    @pytest.fixture(scope="class")
    def v1_files(self, workspace):
        sk = fileio.load_user_secret(fileio.read_file(workspace["sk_a"]), MINI)
        ident = np.asarray(sk.identity.bits, dtype=np.int64)
        blobs = {
            "sk": (fileio.load_user_secret, 1,
                   self.old_blob(fileio.KIND_SK, 1, ident, sk.e_id, sk.e_id_prime)),
            "sk_v2": (fileio.load_user_secret, 2,
                      self.old_blob(fileio.KIND_SK, 2, ident, sk.e_id, sk.e_id_prime, sk.e_f, sk.e_f_prime)),
            "td1": (fileio.load_td1, 1, self.old_blob(fileio.KIND_TD1, 1, ident, sk.e_id_prime)),
            "td3": (fileio.load_td3, 1,
                    self.old_blob(fileio.KIND_TD3, 1, ident, sk.e_id_prime, variant=b"\x00")),
        }
        paths = {}
        for name, (load, version, blob) in blobs.items():
            with pytest.raises(FormatError, match=f"unsupported format version {version}"):
                load(blob, MINI)
            paths[name] = str(workspace["dir"] / f"old.{name}")
            fileio.write_file(paths[name], blob)
        return paths

    def test_v1_secret_key_refused(self, workspace, v1_files):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk"],
                            "--ct", workspace["ct_a1"], "--out", "/dev/null"])
        assert code == 65

    def test_v2_secret_key_refused(self, workspace, v1_files):
        # a version-2 key is the version-3 payload without its R block
        current = fileio.read_file(workspace["sk_a"])
        with open(v1_files["sk_v2"], "rb") as fh:
            v2 = fh.read()
        d = 2 * MINI.m
        assert current[6:].startswith(v2[6:]) and len(current) - len(v2) == 8 * d * (d + 1) // 2
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", v1_files["sk_v2"],
                            "--ct", workspace["ct_a1"], "--out", "/dev/null"])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", v1_files["sk_v2"],
                            "--ct", workspace["ct_a1"], "--seed", "13", "--out", "/dev/null"])
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
    """A key file whose R block is not E'_ID's R factor is a load error."""

    @pytest.fixture(scope="class")
    def bad_keys(self, workspace):
        blob = fileio.read_file(workspace["sk_a"])
        d = 2 * MINI.m
        start = len(blob) - 8 * d * (d + 1) // 2
        r_rows = np.frombuffer(blob[start:], dtype="<f8")
        diagonal = [k * d - k * (k - 1) // 2 for k in range(d)]
        off_diagonal = np.abs(r_rows).copy()
        off_diagonal[diagonal] = 0
        flipped = bytearray(blob)
        flipped[start + 8 * int(np.argmax(off_diagonal)) + 7] ^= 0x80
        zeroed = bytearray(blob)
        word = start + 8 * diagonal[d // 2]
        zeroed[word : word + 8] = bytes(8)
        swapped = blob[:start] + fileio.read_file(workspace["sk_b"])[start:]
        paths = {}
        for name, bad in (("flipped", flipped), ("zeroed", zeroed), ("swapped", swapped)):
            paths[name] = str(workspace["dir"] / f"{name}.sk")
            fileio.write_file(paths[name], bytes(bad))
        return paths

    @pytest.mark.parametrize("name", ["flipped", "zeroed", "swapped"])
    def test_bad_r_block_is_load_error(self, workspace, bad_keys, name):
        code = run_command(["decrypt", "--pp", workspace["pp"], "--sk", bad_keys[name],
                            "--ct", workspace["ct_a1"], "--out", "/dev/null"])
        assert code == 65
        code = run_command(["td", "--type", "2", "--pp", workspace["pp"], "--sk", bad_keys[name],
                            "--ct", workspace["ct_a1"], "--seed", "14", "--out", "/dev/null"])
        assert code == 65


class TestParamsVerb:
    def test_preset_ok(self):
        assert run_command(["params", "validate", "--params", "toy"]) == 0

    def test_invalid_file_reports(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lambda": 128, "n": 4, "m": 10, "q": 4093,
                                   "t": 64, "ell": 8, "sigma": 1.0, "alpha": 0.5}))
        assert run_command(["params", "validate", "--params", str(bad)]) == 1


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
        back2 = fileio.load_master_secret(blob2, MINI)
        assert fileio.dump_master_secret(back2, MINI) == blob2

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
        header = 4 + 2 + 1 + 32 + 72  # magic/version/kind/fingerprint/params
        assert blob[header] == 0
        blob[header] = 2
        with pytest.raises(FormatError, match="unknown variant"):
            fileio.load_td3(bytes(blob), MINI)

    def test_ct_payload_length_formula(self, workspace):
        blob = fileio.read_file(workspace["ct_a1"])
        p = MINI
        header = 4 + 2 + 1 + 32 + 72 + 8  # magic/version/kind/fingerprint/params/bitlen
        want = header + 8 * (p.m * p.m + 2 * p.t + 6 * p.m) + (p.lambda_bits + 7) // 8
        assert len(blob) == want

    def test_truncated_file_rejected(self, workspace):
        blob = fileio.read_file(workspace["ct_a1"])
        with pytest.raises(FormatError):
            fileio.load_ciphertext(blob[:-5], MINI)

    def test_trailing_bytes_rejected(self, workspace):
        blob = fileio.read_file(workspace["ct_a1"]) + b"\x00"
        with pytest.raises(FormatError):
            fileio.load_ciphertext(blob, MINI)


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
        msk = fileio.load_master_secret(fileio.read_file(files["msk"]), p)
        ident = identity_from_string("ivan", p.ell)
        sk = extract(pp, msk, ident, RandomSource("22"))
        assert fileio.read_file(files["sk"]) == fileio.dump_user_secret(sk, p)
        ct, _ = fileio.load_ciphertext(fileio.read_file(files["ct"]), p)
        want2 = fileio.dump_td2(td2(pp, sk, ident, ct, RandomSource("24")), p)
        want3 = fileio.dump_td3(td3_ct(pp, sk, ident, ct, RandomSource("25")), p)
        assert fileio.read_file(files["td2"]) == want2
        assert fileio.read_file(files["td3"]) == want3
