"""Ciphertexts are immutable and keep their integrity tag per parameter set.

Decrypt and every test recompute H'(R, c1..c4) in the paper; a ciphertext
hashes itself once per ParamSet and later checks compare the kept tag.
"""

import dataclasses
import hashlib
import os
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibeetfa import fileio, hashing, scheme, zqlinalg
from ibeetfa.authz import digest_from_basis, td1, td2, td3_basis, td3_ct
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test2 as eq_test2
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.cli import run_command
from ibeetfa.errors import DimensionMismatch
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import Ciphertext, ciphertext_integrity_ok, decrypt, encrypt

from conftest import MINI, CallCounter, random_message, sk_sections

FIELDS = ("r_tag", "c1", "c2", "c3", "c4", "c5")


@pytest.fixture
def hashes(monkeypatch):
    counter = CallCounter(scheme.canonical_ct_bytes)
    monkeypatch.setattr(scheme, "canonical_ct_bytes", counter)
    return counter


@pytest.fixture(scope="module")
def sent(mini_system, mini_key):
    """A ciphertext of alice as encrypt returns it, and its file image."""
    pp, _ = mini_system
    ident, _ = mini_key
    msg = random_message(MINI.t, 401)
    ct = encrypt(pp, ident, msg, RandomSource(402))
    return msg, ct, fileio.dump_ciphertext(ct, MINI)


def _load(blob):
    return fileio.load_ciphertext(blob, MINI)[0]


class TestImmutable:
    def test_arrays_are_read_only_copies(self, sent):
        _, ct, _ = sent
        source = {name: getattr(ct, name).copy() for name in FIELDS}
        built = Ciphertext(**source)
        for name in FIELDS:
            source[name].reshape(-1)[0] ^= 1
            arr = getattr(built, name)
            assert np.array_equal(arr, getattr(ct, name))
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 0
        assert built.c5.dtype == np.uint8 and built.r_tag.dtype == np.int64


    def test_only_views_of_bytes_are_kept(self):
        # a load's arrays are read-only views of the file's bytes, which
        # nothing can change, so frozen_array keeps them; it copies any other
        data = np.arange(6, dtype="<i8").tobytes()
        view = np.frombuffer(data, dtype="<i8").reshape(2, 3)
        row = view[1:]
        assert zqlinalg.frozen_array(view) is view and zqlinalg.frozen_array(row) is row
        shared = np.frombuffer(bytearray(data), dtype="<i8")
        locked = shared.view()
        locked.setflags(write=False)
        for arr, dtype in ((shared, np.int64), (locked, np.int64), (view, np.int32), (np.arange(6), np.int64)):
            out = zqlinalg.frozen_array(arr, dtype)
            assert out.dtype == dtype and not out.flags.writeable
            assert not np.shares_memory(out, arr) and np.array_equal(out.reshape(-1), arr.reshape(-1))

    def test_a_loaded_ciphertext_holds_its_file_bytes(self, sent):
        _, ct, blob = sent
        loaded = _load(blob)
        for name in FIELDS[:-1]:
            arr = getattr(loaded, name)
            assert np.array_equal(arr, getattr(ct, name)) and not arr.flags.writeable
            assert not arr.flags.owndata and Ciphertext(**{n: getattr(loaded, n) for n in FIELDS}).__dict__[name] is arr


class TestHashedOnce:
    def test_loaded_ciphertext_is_hashed_once(self, mini_system, mini_key, sent, hashes):
        pp, _ = mini_system
        ident, sk = mini_key
        msg, ct, blob = sent
        rx = _load(blob)
        rng = RandomSource(403)
        assert np.array_equal(decrypt(pp, sk, rx, rng), msg)
        t2 = td2(pp, sk, ident, rx, rng)
        t3 = td3_ct(pp, sk, ident, rx, rng)
        assert eq_test1(td1(sk, ident), td1(sk, ident), rx, ct, pp, rng) == 1
        assert eq_test2(t2, t2, rx, rx, MINI.q) == 1
        assert eq_test3(td3_basis(sk, ident), t3, ct, rx, pp, rng) == 1
        assert hashes.calls == 1

    def test_encrypted_ciphertext_is_not_hashed_again(self, mini_system, mini_key, hashes):
        pp, _ = mini_system
        ident, sk = mini_key
        msg = random_message(MINI.t, 404)
        rng = RandomSource(405)
        ct = encrypt(pp, ident, msg, rng)
        hashes.calls = 0
        assert np.array_equal(decrypt(pp, sk, ct, rng), msg)
        t2 = td2(pp, sk, ident, ct, rng)
        assert eq_test1(td1(sk, ident), td1(sk, ident), ct, ct, pp, rng) == 1
        assert eq_test2(t2, t2, ct, ct, MINI.q) == 1
        assert hashes.calls == 0

    def test_other_params_recompute(self, sent, hashes):
        _, ct, blob = sent
        rx = _load(blob)
        other = dataclasses.replace(MINI, sigma=2 * MINI.sigma)
        assert rx.intact(MINI) and rx.intact(other)
        assert hashes.calls == 2
        assert rx.intact(MINI) and rx.intact(other)
        assert hashes.calls == 2

    def test_replaced_copy_with_flipped_bit_rejected(self, mini_system, mini_key, sent):
        pp, _ = mini_system
        ident, sk = mini_key
        _, ct, _ = sent
        assert ciphertext_integrity_ok(pp, ct)
        c3 = ct.c3.copy()
        c3[7] ^= 1
        bad = dataclasses.replace(ct, c3=c3)
        assert not ciphertext_integrity_ok(pp, bad)
        assert decrypt(pp, sk, bad, RandomSource(406)) is None
        assert eq_test1(td1(sk, ident), td1(sk, ident), bad, ct, pp, RandomSource(407)) is None
        assert ciphertext_integrity_ok(pp, ct)

    def test_threads_share_a_fresh_loaded_ciphertext(self, mini_system, mini_key, sent, hashes):
        pp, _ = mini_system
        ident, sk = mini_key
        msg, ct, blob = sent
        rx = _load(blob)
        td = td1(sk, ident)
        start = threading.Barrier(2, timeout=60)

        def work(i):
            rng = RandomSource(410 + i)
            start.wait()
            if i == 0:
                return decrypt(pp, sk, rx, rng)
            return eq_test1(td, td, rx, ct, pp, rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, i) for i in range(2)]
                out, same = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, msg)
        assert same == 1
        # a race computes the tag at most twice, alike
        assert 1 <= hashes.calls <= 2
        assert rx.intact(MINI)


def _r_word_changes(blob):
    """(label, file) for each change to R that a ciphertext file can carry:
    every bit of the first, a middle and the last R word flipped, and the
    first zero entry moved by +256 (a wrap onto its own 1-byte code), by
    +q (an alias of R mod q) and to -2**63 (which np.abs leaves negative,
    and whose code wraps onto the code of 0)."""
    m, t = MINI.m, MINI.t
    r_start = len(blob) - (MINI.lambda_bits + 7) // 8 - 8 * (2 * t + 6 * m) - 8 * m * m
    for word in (0, m * m // 2, m * m - 1):
        pos = r_start + 8 * word
        for bit in range(64):
            out = bytearray(blob)
            out[pos + bit // 8] ^= 1 << (bit % 8)
            yield f"word {word} bit {bit}", bytes(out)
    r_words = np.frombuffer(blob, dtype="<i8", count=m * m, offset=r_start)
    pos = r_start + 8 * int(np.flatnonzero(r_words == 0)[0])
    for label, value in (("+256", 256), ("+q", MINI.q), ("-2**63", -(1 << 63))):
        out = bytearray(blob)
        struct.pack_into("<q", out, pos, value)
        yield f"zero entry {label}", bytes(out)


class TestTagRange:
    """Every changed R word is rejected, never refused at load: an entry that
    leaves [-ell, ell] fails the range check of Ciphertext.intact, one that
    stays in it changes its code and so the tag."""

    def test_each_change_is_rejected(self, mini_system, mini_key, sent):
        pp, _ = mini_system
        ident, sk = mini_key
        _, _, blob = sent
        rng = RandomSource(420)
        t1 = td1(sk, ident)
        changes = list(_r_word_changes(blob))
        assert len(changes) == 3 * 64 + 3
        for label, bad in changes:
            rx = _load(bad)
            assert not rx.intact(MINI), label
            assert decrypt(pp, sk, rx, rng) is None, label
            assert td2(pp, sk, ident, rx, rng) is None, label
            assert digest_from_basis(pp, t1, rx, rng) is None, label

    def test_cli_decrypt_exits_reject(self, mini_system, mini_key, sent, tmp_path):
        pp, _ = mini_system
        _, sk = mini_key
        _, _, blob = sent
        files = {"pp": fileio.dump_public_params(pp), "sk": fileio.dump_user_secret(sk, MINI), "ct": blob}
        paths = {name: str(tmp_path / name) for name in (*files, "out")}
        for name, data in files.items():
            fileio.write_file(paths[name], data)
        argv = ["decrypt", "--pp", paths["pp"], "--sk", paths["sk"], "--ct", paths["ct"], "--out", paths["out"]]
        assert run_command(argv) == 0
        os.remove(paths["out"])
        for label, bad in _r_word_changes(blob):
            fileio.write_file(paths["ct"], bad)
            assert run_command(argv) == 2, label
        assert not os.path.exists(paths["out"])


class TestRangeCheckedOnce:
    """Ciphertext.intact range-checks R once per tag: canonical_ct_bytes'
    check, whose ParameterError reads as not intact.  td2 and td3_ct ask
    intact first and take A @ R without checking R again."""

    @pytest.fixture
    def range_checks(self, monkeypatch):
        counter = CallCounter(hashing.tag_in_range)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "ibeetfa" and getattr(mod, "tag_in_range", None) is hashing.tag_in_range:
                monkeypatch.setattr(mod, "tag_in_range", counter)
        return counter

    def test_one_check_per_tag(self, sent, range_checks, hashes):
        _, _, blob = sent
        rx = _load(blob)
        assert rx.intact(MINI) and range_checks.calls == 1 and hashes.calls == 1
        assert rx.intact(MINI) and range_checks.calls == 1  # the kept tag
        out_of_range = dict(_r_word_changes(blob))["zero entry +256"]
        assert not _load(out_of_range).intact(MINI)
        assert range_checks.calls == hashes.calls == 2

    def test_td2_and_td3_ct_check_once(self, mini_system, mini_key, sent, range_checks, hashes):
        pp, _ = mini_system
        ident, sk = mini_key
        _, _, blob = sent
        for issue in (td2, td3_ct):
            range_checks.calls = hashes.calls = 0
            assert issue(pp, sk, ident, _load(blob), RandomSource(441)) is not None
            assert range_checks.calls == hashes.calls == 1, issue.__name__

    def test_malformed_r_still_raises(self, sent):
        _, ct, _ = sent
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(ct, r_tag=ct.r_tag[:-1]).intact(MINI)
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(ct, r_tag=np.full((MINI.m - 1, MINI.m), 99)).intact(MINI)


def _payload_word_changes(blob):
    """(label, file) for the first word of each of c1..c4 moved by +q (an
    alias mod q), set to -1 and set to -2**63."""
    m, t = MINI.m, MINI.t
    start = len(blob) - (MINI.lambda_bits + 7) // 8 - 8 * (2 * t + 6 * m)
    for name, size in (("c1", t), ("c2", t), ("c3", 3 * m), ("c4", 3 * m)):
        word = struct.unpack_from("<q", blob, start)[0]
        for label, value in (("+q", word + MINI.q), ("-1", -1), ("-2**63", -(1 << 63))):
            out = bytearray(blob)
            struct.pack_into("<q", out, start, value)
            yield f"{name}[0] {label}", bytes(out)
        start += 8 * size


class TestPayloadRange:
    """A c1..c4 word outside [0, q) is no residue: Ciphertext.intact is
    False before hashing, never a load error, so a word moved by q does not
    keep c5 (H' reduces c1..c4 mod q)."""

    def test_each_change_is_rejected_unhashed(self, mini_system, mini_key, sent, hashes):
        pp, _ = mini_system
        ident, sk = mini_key
        _, _, blob = sent
        rng = RandomSource(430)
        t1 = td1(sk, ident)
        changes = list(_payload_word_changes(blob))
        assert len(changes) == 4 * 3
        for label, bad in changes:
            rx = _load(bad)
            hashes.calls = 0
            assert not rx.intact(MINI), label
            assert hashes.calls == 0, label
            assert decrypt(pp, sk, rx, rng) is None, label
            assert td2(pp, sk, ident, rx, rng) is None, label
            assert digest_from_basis(pp, t1, rx, rng) is None, label

    def test_cli_decrypt_exits_reject(self, mini_system, mini_key, sent, tmp_path):
        pp, _ = mini_system
        _, sk = mini_key
        _, _, blob = sent
        files = {"pp": fileio.dump_public_params(pp), "sk": fileio.dump_user_secret(sk, MINI), "ct": blob}
        paths = {name: str(tmp_path / name) for name in (*files, "out")}
        for name, data in files.items():
            fileio.write_file(paths[name], data)
        argv = ["decrypt", "--pp", paths["pp"], "--sk", paths["sk"], "--ct", paths["ct"], "--out", paths["out"]]
        for label, bad in _payload_word_changes(blob):
            fileio.write_file(paths["ct"], bad)
            assert run_command(argv) == 2, label
        assert not os.path.exists(paths["out"])


class TestGoldenBytes:
    """SHA-256 of seeded artifacts at MINI.

    How encrypt computes its products, how a Ciphertext stores its arrays
    and how extract walks and certifies must not move a byte; only a
    deliberate change of the file format or of what extract, encrypt and
    td2 sample may change these values.  SK, TD1, TD2, TD3_BASIS and
    TD3_CT last changed when SampleD's G-step began walking S_k once over
    n times the lanes (the n blocks of S_G = I_n (x) S_k as lanes of one
    k-row walk under the gadget row) in place of one nk-row walk over S_G:
    the distribution is the same, but every master draw of extract takes
    its normals and uniforms in another order, so R_ID, e_F, e_F' and
    E'_ID moved (SK), e_F' is TD1 and TD3_BASIS, and td2 and td3_ct walk
    with the new E'_ID (TD2, TD3_CT).  Setup and encrypt draw nothing
    through a master trapdoor, so PP, MSK, CT and CT_BODY stayed; at n = 1,
    where S_G is S_k, every draw stayed.  The rejection rounds' work in
    chunks of lanes, landed just before, moved no byte.  Before that,
    every value changed with the aligned file layout (every kind's version
    moved once): a 112-byte header with a reserved zero byte, every section on an 8-byte boundary
    after zero pad bytes, and the user secret key's sections reordered
    into its prefix (identity, R_ID, e_F, e_F', Abar_ID) and the rest
    (E'_ID, R as the walk's row blocks, the coset map).  No sampled array
    moved: every key, ciphertext and trapdoor array of a seeded run at
    MINI and at `toy` was compared, fresh and loaded, before and after.
    Before that, SK, TD1, TD2, TD3_BASIS and TD3_CT changed when every master draw of extract became SampleD
    over Rbar (a perturbation rounded by the 1-D sampler, then a walk over
    S_G under G) in place of the walk over the basis T_A, and E'_ID's batch
    lost the 8 spare columns only a removed fallback read: R_ID, E'_ID,
    e_F and e_F' moved (SK), e_F' is TD1 and TD3_BASIS, and td2 and td3_ct
    walk with the new E'_ID (TD2, TD3_CT).  Setup and encrypt draw nothing
    through a master trapdoor, so PP, MSK, CT and CT_BODY stayed.  The
    values are the same at 1 and 2 BLAS threads.  Before that, CT,
    CT_BODY, TD2 and TD3_CT changed when encrypt began drawing its
    R_ID = sum_i b_i R_i in one pass, each entry a sum of ell uniform
    signs from one byte draw, in place of ell sign matrices: R_ID and the
    tag R drawn after it moved, so did c3, c4 and c5 (c1 and c2 are drawn
    before R_ID and stayed), and td2 and td3_ct bind to the ciphertext;
    setup and extract, which never draw R_ID, kept PP, MSK, SK, TD1 and
    TD3_BASIS.  SK, TD1 and TD3_BASIS changed before that when the 1-D
    sampler for sigma >= 2 became rejection from a rounded continuous
    Gaussian (one normal and one uniform per proposal, where the
    bilateral-geometric sampler before it drew three uniforms): every draw
    of extract, td2 and td3_ct goes through it, so every sampled key word
    and e_F' (TD1, TD3_BASIS) moved.  The change before that was the key's gadget
    trapdoor R_ID in place of the basis E_ID (sk format version 5).  SK
    pins the key file without its two binary64 sections, the R block and
    the projections P of E'_ID's coset map: LAPACK's QR rounds R's last
    bits differently under other BLAS thread counts, and P is computed
    from R, so those two are checked against the key's own R and P
    instead.  PP and MSK pin setup (MSK last changed when the master key
    file began storing Rbar and Rbar' in place of T_A and T_A', format
    version 2).  CT_BODY pins the ciphertext file without its version
    field and c5, which H' computes.
    """

    CT = "dace951db9efae96a09bc5e518428dbdf3c3190353ba455f5623a5303f84acf4"
    CT_BODY = "600add26b48e524db82305932effdaf1fa64452e7b117a57952f69f2db98d56c"
    TD2 = "13497ef2c15a8d7002d2c388ec88e104f4b20a8da0a4883bf850329172c4b626"
    SK = "a311f8f96726a0567eb96c9cdab31031d8032ebbdfcf87371960e1a37fd15148"
    PP = "45d8ba2c8c87a1cc90daa6b4dd8e2548b6215bfcbddc829e108b8fa3710fa088"
    MSK = "3429fc67961e7ab64f5d74d3c8e08436f2a8fed1e373c0932726f008c04e5243"
    TD1 = "1c8cf512529b87d470504f1d719ed565c2ca50d8f26912edf3bc0bd3abfe9673"
    TD3_BASIS = "da21f440d7c46f6503a657dc2b2ad95dcc5237440e4163b5807e65c63f67a9c4"
    TD3_CT = "efff17c363ade9b0826145c21baadbb32b61fb98d62ef8bc9539aed12f9e7a1b"

    def test_setup_bytes(self, mini_system):
        pp, msk = mini_system
        assert hashlib.sha256(fileio.dump_public_params(pp)).hexdigest() == self.PP
        assert hashlib.sha256(fileio.dump_master_secret(msk, MINI)).hexdigest() == self.MSK

    def test_type1_and_type3_bytes(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        assert hashlib.sha256(fileio.dump_td1(td1(sk, ident), MINI)).hexdigest() == self.TD1
        assert hashlib.sha256(fileio.dump_td3(td3_basis(sk, ident), MINI)).hexdigest() == self.TD3_BASIS
        ct = encrypt(pp, ident, random_message(MINI.t, 0x601D), RandomSource(0x601D))
        td = td3_ct(pp, sk, ident, ct, RandomSource(0x601F))
        assert hashlib.sha256(fileio.dump_td3(td, MINI)).hexdigest() == self.TD3_CT

    def test_ciphertext_and_td2_bytes(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        ct = encrypt(pp, ident, random_message(MINI.t, 0x601D), RandomSource(0x601D))
        blob = fileio.dump_ciphertext(ct, MINI)
        assert hashlib.sha256(blob).hexdigest() == self.CT
        c5_start = len(blob) - (MINI.lambda_bits + 7) // 8
        assert hashlib.sha256(blob[:4] + blob[6:c5_start]).hexdigest() == self.CT_BODY
        for source in (ct, _load(blob)):
            td = td2(pp, sk, ident, source, RandomSource(0x601E))
            assert hashlib.sha256(fileio.dump_td2(td, MINI)).hexdigest() == self.TD2

    def test_secret_key_bytes(self, mini_key):
        _, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        spans = sk_sections(MINI)
        r_block, proj = spans["r"], spans["proj"]
        assert len(blob) == proj.stop
        assert hashlib.sha256(blob[: r_block.start] + blob[r_block.stop : proj.start]).hexdigest() == self.SK
        assert blob[r_block] == sk.trapdoor_prime.prep.r.astype("<f8").tobytes()
        assert blob[proj] == sk.trapdoor_prime.proj.astype("<f8").tobytes()
