"""Per-key preimages of U and the sampling data keys own.

Extract samples a preimage e_F of U under F_ID alone (and e_F' under
F'_ID) with the master trapdoor, in the same SampleLeft call that draws
the delegated basis.  Decryption and the type-1 side of the equality
tests read these preimages and build no sampling data; only td2 and
td3_ct sample, against each ciphertext's tag matrix, with the basis
E'_ID.  Extract certifies each basis by factoring it, and E'_ID keeps
that R factor; the key file carries it, and a loaded key adopts it after
an O(d^2) check, so no key, fresh or loaded, factors a basis again.
"""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibeetfa import fileio, trapdoor
from ibeetfa.authz import digest_from_basis, td1, td2, td3_basis, td3_ct
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.errors import FormatError, ParameterError
from ibeetfa.hashing import bits_to_bytes, hash_h
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import compute_f, decrypt, encrypt, extract, identity_from_string, setup
from ibeetfa.zqlinalg import center_rep, concat_cols, mat_mul

from conftest import MINI, CallCounter, random_message


@pytest.fixture
def walks(monkeypatch):
    counter = CallCounter(trapdoor.klein_coefficients)
    monkeypatch.setattr(trapdoor, "klein_coefficients", counter)
    return counter


@pytest.fixture
def preps(monkeypatch):
    counter = CallCounter(trapdoor.prepare_basis)
    monkeypatch.setattr(trapdoor, "prepare_basis", counter)
    return counter


@pytest.fixture
def coset_maps(monkeypatch):
    counter = CallCounter(trapdoor.derive_coset_map)
    monkeypatch.setattr(trapdoor, "derive_coset_map", counter)
    return counter


@pytest.fixture(scope="module")
def fresh_key(mini_system):
    """A key no other test samples with, so its basis E'_ID has no QR data yet."""
    pp, msk = mini_system
    ident = identity_from_string("frank", MINI.ell)
    return ident, extract(pp, msk, ident, RandomSource(381))


class TestHeldPreimage:
    def test_repeat_decrypt_and_digest_run_no_walk(self, mini_system, mini_key_other, fresh_key,
                                                   walks, preps):
        # a fresh and a loaded key decrypt and serve both type-1 sides
        # with no QR and no walk
        pp, _ = mini_system
        ident, sk = fresh_key
        ident_o, sk_o = mini_key_other
        msg = random_message(MINI.t, 301)
        ct = encrypt(pp, ident, msg, RandomSource(302))
        ct_o = encrypt(pp, ident_o, msg, RandomSource(303))
        bound = td3_ct(pp, sk_o, ident_o, ct_o, RandomSource(304))
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        walks.calls = preps.calls = 0
        want = hash_h(bits_to_bytes(msg), MINI.t)
        for key in (sk, loaded):
            assert np.array_equal(decrypt(pp, key, ct, RandomSource(305)), msg)
            assert np.array_equal(digest_from_basis(pp, td1(key, ident), ct, RandomSource(306)), want)
            assert eq_test1(td1(key, ident), td1(sk_o, ident_o), ct, ct_o, pp, RandomSource(307)) == 1
            assert eq_test3(td3_basis(key, ident), bound, ct, ct_o, pp, RandomSource(308)) == 1
        assert walks.calls == 0
        assert preps.calls == 0

    def test_held_preimage_solves_f_alone_with_margin(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        q, m = MINI.q, MINI.m
        bound = MINI.sigma * math.sqrt(2 * m)
        for which, e in (("primary", sk.e_f), ("prime", sk.e_f_prime)):
            assert e.shape == (2 * m, MINI.t)
            assert not e.flags.writeable
            # exact on every column, and every column as short as a sigma-Gaussian
            # draw from the master trapdoor (one from a delegated basis is ~2.3x longer)
            assert np.array_equal(mat_mul(compute_f(pp, ident, which), e, q), pp.u)
            assert np.linalg.norm(e.astype(np.float64), axis=0).max() <= bound
        msg = random_message(MINI.t, 311)
        ct = encrypt(pp, ident, msg, RandomSource(312))
        w = (ct.c1 - mat_mul(sk.e_f.T, ct.c3[: 2 * m], q)) % q
        noise = center_rep((w - msg.astype(np.int64) * (q // 2)) % q, q)
        assert int(np.abs(noise).max()) < q // 4

    def test_other_public_params_raise(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        msg = random_message(MINI.t, 321)
        ct = encrypt(pp, ident, msg, RandomSource(322))
        other = dataclasses.replace(pp, u=RandomSource(323).integers(0, MINI.q, pp.u.shape))
        td = td1(sk, ident)
        with pytest.raises(ParameterError):
            decrypt(other, sk, ct, RandomSource(324))
        with pytest.raises(ParameterError):
            digest_from_basis(other, td, ct, RandomSource(325))
        with pytest.raises(ParameterError):
            eq_test1(td, td, ct, ct, other, RandomSource(326))
        # a key checked against another identity's matrices raises too
        stranger = identity_from_string("mallory", MINI.ell)
        with pytest.raises(ParameterError):
            digest_from_basis(pp, dataclasses.replace(td, identity=stranger), ct, RandomSource(327))
        assert np.array_equal(decrypt(pp, sk, ct, RandomSource(328)), msg)

    def test_td1_ships_the_prime_preimage(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        td = td1(sk, ident)
        assert np.array_equal(td.e_prime, sk.e_f_prime)
        assert td.e_prime.shape == (2 * MINI.m, MINI.t)
        blob = fileio.dump_td1(td, MINI)
        back = fileio.load_td1(blob, MINI)
        assert back.identity == ident and np.array_equal(back.e_prime, td.e_prime)
        assert fileio.dump_td1(back, MINI) == blob
        msg = random_message(MINI.t, 331)
        ct = encrypt(pp, ident, msg, RandomSource(332))
        want = hash_h(bits_to_bytes(msg), MINI.t)
        assert np.array_equal(digest_from_basis(pp, back, ct, RandomSource(333)), want)


class TestCiphertextBoundPreimages:
    def test_td2_stays_bound_to_each_ciphertext(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        q, m = MINI.q, MINI.m
        msg = random_message(MINI.t, 331)
        preimages = []
        for seed in (332, 333):
            ct = encrypt(pp, ident, msg, RandomSource(seed))
            e = td2(pp, sk, ident, ct, RandomSource(seed + 10)).e_prime
            f2 = concat_cols([compute_f(pp, ident, "prime"), mat_mul(pp.a, ct.r_tag, q)])
            assert np.array_equal(mat_mul(f2, e, q), pp.u)
            assert np.any(e[2 * m :])
            preimages.append(e)
        assert not np.array_equal(preimages[0], preimages[1])


class TestOwnership:
    def test_loaded_master_key_extracts_the_same_key(self, mini_system):
        pp, msk = mini_system
        loaded = fileio.load_master_secret(fileio.dump_master_secret(msk, MINI), MINI)
        ident = identity_from_string("dora", MINI.ell)
        a = extract(pp, msk, ident, RandomSource(341))
        b = extract(pp, loaded, ident, RandomSource(341))
        assert np.array_equal(a.e_id, b.e_id) and np.array_equal(a.e_id_prime, b.e_id_prime)
        assert np.array_equal(a.e_f, b.e_f) and np.array_equal(a.e_f_prime, b.e_f_prime)

    def test_master_key_refuses_other_public_params(self, mini_system):
        # a loaded master key asked to extract under another system's public
        # matrices raises at once and keeps nothing derived for them, so
        # the next extract under its own matrices is that of a clean load
        pp, msk = mini_system
        pp_other, _ = setup(MINI, RandomSource(0x0DD))
        ident = identity_from_string("heidi", MINI.ell)
        blob = fileio.dump_master_secret(msk, MINI)
        loaded = fileio.load_master_secret(blob, MINI)
        with pytest.raises(ParameterError):
            extract(pp_other, loaded, ident, RandomSource(411))
        got = extract(pp, loaded, ident, RandomSource(412))
        want = extract(pp, fileio.load_master_secret(blob, MINI), ident, RandomSource(412))
        assert fileio.dump_user_secret(got, MINI) == fileio.dump_user_secret(want, MINI)
        with pytest.raises(ParameterError):
            extract(pp_other, loaded, ident, RandomSource(413))

    def test_only_td2_factors_a_key_basis(self, mini_system, preps, monkeypatch):
        # extract factors each basis once, as its certificate; E'_ID keeps
        # that R and E_ID drops it.  The key file carries E'_ID's R, so a
        # loaded key factors nothing either: not with prepare_basis, not
        # with any QR.
        qr_calls = []
        qr = np.linalg.qr

        def qr_spy(a, mode="reduced"):
            qr_calls.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr_spy)
        pp, msk = mini_system
        for master in (msk.trapdoor_a, msk.trapdoor_a_prime):
            master.prepared()  # the master R is built once per master key
        preps.calls = 0
        ident = identity_from_string("grace", MINI.ell)
        sk = extract(pp, msk, ident, RandomSource(391))
        assert preps.calls == 2  # one certificate per basis
        assert sk.trapdoor._prep is None  # E_ID is carried, never sampled with
        msg = random_message(MINI.t, 392)
        ct = encrypt(pp, ident, msg, RandomSource(393))
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        preps.calls = 0
        qr_calls.clear()
        for key, builds in ((sk, 0), (loaded, 0)):
            assert np.array_equal(decrypt(pp, key, ct, RandomSource(394)), msg)
            assert preps.calls == 0
            assert td2(pp, key, ident, ct, RandomSource(395)) is not None
            assert preps.calls == builds
            assert td3_ct(pp, key, ident, ct, RandomSource(396)) is not None
            assert td2(pp, key, ident, ct, RandomSource(397)) is not None
            assert preps.calls == builds
            assert key.trapdoor._prep is None
        assert qr_calls == []

    def test_loaded_key_grants_the_fresh_keys_bytes(self, mini_system, mini_key):
        # td2 and td3_ct of a dumped-and-loaded key walk with the R extract
        # certified E'_ID with, so their bytes are those of the fresh key
        pp, _ = mini_system
        ident, sk = mini_key
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        ct = encrypt(pp, ident, random_message(MINI.t, 398), RandomSource(399))
        for grant, dump in ((td2, fileio.dump_td2), (td3_ct, fileio.dump_td3)):
            got = [dump(grant(pp, key, ident, ct, RandomSource(400)), MINI) for key in (sk, loaded)]
            assert got[0] == got[1]


    def test_threads_share_a_fresh_key(self, mini_system, preps, coset_maps):
        # a freshly loaded key: E'_ID carries its R but no coset map yet
        pp, msk = mini_system
        ident = identity_from_string("erin", MINI.ell)
        sk = extract(pp, msk, ident, RandomSource(351))
        sk = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        msgs = [random_message(MINI.t, 352 + i) for i in range(2)]
        cts = [encrypt(pp, ident, msg, RandomSource(354 + i)) for i, msg in enumerate(msgs)]
        preps.calls = coset_maps.calls = 0
        start = threading.Barrier(2, timeout=60)

        def work(i):
            rng = RandomSource(360 + i)
            start.wait()
            return td2(pp, sk, ident, cts[i], rng), decrypt(pp, sk, cts[i], rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, i) for i in range(2)]
                results = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        q = MINI.q
        f_prime = compute_f(pp, ident, "prime")
        for (bound, out), ct, msg in zip(results, cts, msgs):
            f2 = concat_cols([f_prime, mat_mul(pp.a, ct.r_tag, q)])
            assert np.array_equal(mat_mul(f2, bound.e_prime, q), pp.u)
            assert np.array_equal(out, msg)
        # E'_ID's coset map is derived once, however the two threads race,
        # and nothing is factored
        assert coset_maps.calls == 1
        assert preps.calls == 0


class TestStoredRFactor:
    """The R block of a key file is checked against E'_ID at load."""

    @staticmethod
    def r_block(blob):
        d = 2 * MINI.m
        return len(blob) - 8 * d * (d + 1) // 2

    @staticmethod
    def diagonal_word(k):
        d = 2 * MINI.m
        return k * d - k * (k - 1) // 2

    def test_r_block_is_the_certified_r(self, mini_key):
        _, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        start = self.r_block(blob)
        assert blob[start:] == sk.trapdoor_prime.prepared().r_rows.astype("<f8").tobytes()
        loaded = fileio.load_user_secret(blob, MINI)
        assert np.array_equal(loaded.trapdoor_prime.prepared().r_rows, sk.trapdoor_prime.prepared().r_rows)
        assert fileio.dump_user_secret(loaded, MINI) == blob

    def test_corrupted_r_block_refused(self, mini_key, mini_key_other):
        _, sk = mini_key
        _, other = mini_key_other
        blob = fileio.dump_user_secret(sk, MINI)
        start = self.r_block(blob)
        r_rows = sk.trapdoor_prime.prepared().r_rows
        off_diagonal = np.ones(r_rows.size, dtype=bool)
        off_diagonal[[self.diagonal_word(k) for k in range(2 * MINI.m)]] = False
        big = int(np.argmax(np.abs(r_rows) * off_diagonal))
        flipped = bytearray(blob)
        flipped[start + 8 * big + 7] ^= 0x80  # the sign bit of a little-endian binary64
        zeroed = bytearray(blob)
        word = start + 8 * self.diagonal_word(MINI.m)
        zeroed[word : word + 8] = bytes(8)
        swapped = blob[:start] + fileio.dump_user_secret(other, MINI)[start:]
        for bad in (flipped, zeroed, swapped):
            assert bytes(bad) != blob
            with pytest.raises(FormatError, match="stored R factor refused"):
                fileio.load_user_secret(bytes(bad), MINI)
        assert fileio.dump_user_secret(fileio.load_user_secret(blob, MINI), MINI) == blob
