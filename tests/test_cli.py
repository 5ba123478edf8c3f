"""CLI verbs, file formats, exit codes, and differential checks."""

import json

import numpy as np
import pytest

from ibeetfa import fileio
from ibeetfa.authz import td1, td2, td3_basis, td3_ct
from ibeetfa.cli import run_command
from ibeetfa.errors import FormatError
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import encrypt, encrypt_traced, identity_from_string, setup

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
