"""Per-key preimages of U and the sampling data keys own.

Decryption and the type-1 side of the equality tests use a preimage e_F
of U under F_ID alone, sampled once per key basis; td2 and td3_ct keep
sampling against each ciphertext's tag matrix.
"""

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibeetfa import fileio, trapdoor
from ibeetfa.authz import digest_from_basis, td1, td2
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.hashing import bits_to_bytes, hash_h
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import compute_f, decrypt, encrypt, extract, identity_from_string, key_preimage
from ibeetfa.zqlinalg import center_rep, concat_cols, mat_mul

from conftest import MINI, CallCounter, random_message


@pytest.fixture
def walks(monkeypatch):
    counter = CallCounter(trapdoor.klein_coefficients)
    monkeypatch.setattr(trapdoor, "klein_coefficients", counter)
    return counter


class TestHeldPreimage:
    def test_repeat_decrypt_and_digest_run_no_walk(self, mini_system, mini_key, walks):
        pp, _ = mini_system
        ident, sk = mini_key
        msg = random_message(MINI.t, 301)
        ct = encrypt(pp, ident, msg, RandomSource(302))
        td = td1(sk, ident)
        assert np.array_equal(decrypt(pp, sk, ct, RandomSource(303)), msg)
        assert digest_from_basis(pp, td, ct, RandomSource(304)) is not None
        walks.calls = 0
        assert np.array_equal(decrypt(pp, sk, ct, RandomSource(305)), msg)
        want = hash_h(bits_to_bytes(msg), MINI.t)
        assert np.array_equal(digest_from_basis(pp, td, ct, RandomSource(306)), want)
        assert walks.calls == 0

    def test_held_preimage_solves_f_alone_with_margin(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        q = MINI.q
        msg = random_message(MINI.t, 311)
        ct = encrypt(pp, ident, msg, RandomSource(312))
        e = key_preimage(pp, sk.trapdoor, ident, "primary", RandomSource(313))
        assert e is sk.trapdoor.held_preimage
        assert e.shape == (2 * MINI.m, MINI.t)
        assert np.array_equal(mat_mul(compute_f(pp, ident, "primary"), e, q), pp.u)
        w = (ct.c1 - mat_mul(e.T, ct.c3[: 2 * MINI.m], q)) % q
        noise = center_rep((w - msg.astype(np.int64) * (q // 2)) % q, q)
        assert int(np.abs(noise).max()) < q // 4

    def test_other_public_params_get_their_own_preimage(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        q = MINI.q
        first = key_preimage(pp, sk.trapdoor_prime, ident, "prime", RandomSource(321))
        other = dataclasses.replace(pp, u=RandomSource(322).integers(0, q, pp.u.shape))
        e = key_preimage(other, sk.trapdoor_prime, ident, "prime", RandomSource(323))
        assert e is not first
        assert np.array_equal(mat_mul(compute_f(other, ident, "prime"), e, q), other.u)
        back = key_preimage(pp, sk.trapdoor_prime, ident, "prime", RandomSource(324))
        assert np.array_equal(mat_mul(compute_f(pp, ident, "prime"), back, q), pp.u)

    def test_td1_shares_the_key_basis(self, mini_key):
        ident, sk = mini_key
        assert td1(sk, ident).trapdoor is sk.trapdoor_prime


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

    def test_extract_and_first_decrypt_build_one_qr_per_basis(self, mini_system, monkeypatch):
        pp, msk = mini_system
        for master in (msk.trapdoor_a, msk.trapdoor_a_prime):
            master.prepared()  # the master QR is built once per master key
        preps = CallCounter(trapdoor.prepare_basis)
        monkeypatch.setattr(trapdoor, "prepare_basis", preps)
        ident = identity_from_string("frank", MINI.ell)
        sk = extract(pp, msk, ident, RandomSource(381))
        # extract certifies the delegated bases; a key that is only shipped
        # never factors them
        assert preps.calls == 0
        msg = random_message(MINI.t, 382)
        ct = encrypt(pp, ident, msg, RandomSource(383))
        assert np.array_equal(decrypt(pp, sk, ct, RandomSource(384)), msg)
        assert preps.calls == 2
        assert np.array_equal(decrypt(pp, sk, ct, RandomSource(385)), msg)
        assert preps.calls == 2

    def test_threads_share_a_fresh_key(self, mini_system, monkeypatch, walks):
        pp, msk = mini_system
        ident = identity_from_string("erin", MINI.ell)
        sk = extract(pp, msk, ident, RandomSource(351))
        td = td1(sk, ident)
        msgs = [random_message(MINI.t, 352 + i) for i in range(2)]
        cts = [encrypt(pp, ident, msg, RandomSource(354 + i)) for i, msg in enumerate(msgs)]
        preps = CallCounter(trapdoor.prepare_basis)
        monkeypatch.setattr(trapdoor, "prepare_basis", preps)
        walks.calls = 0
        start = threading.Barrier(2, timeout=60)

        def work(i):
            rng = RandomSource(360 + i)
            start.wait()
            return decrypt(pp, sk, cts[i], rng), eq_test1(td, td, cts[i], cts[1 - i], pp, rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(work, i) for i in range(2)]
                results = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (out, same), msg in zip(results, msgs):
            assert np.array_equal(out, msg)
            assert same == int(np.array_equal(msgs[0], msgs[1]))
        # one walk and one QR per basis, however the two threads race
        assert walks.calls == 2
        assert preps.calls == 2
        held = (sk.trapdoor.held_preimage, sk.trapdoor_prime.held_preimage)
        assert np.array_equal(decrypt(pp, sk, cts[0], RandomSource(370)), msgs[0])
        assert sk.trapdoor.held_preimage is held[0]
        assert sk.trapdoor_prime.held_preimage is held[1] is td.trapdoor.held_preimage
