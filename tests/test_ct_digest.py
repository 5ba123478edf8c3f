"""Ciphertexts are immutable and keep their integrity tag per parameter set.

Decrypt and every test recompute H'(R, c1..c4) in the paper; a ciphertext
hashes itself once per ParamSet and later checks compare the kept tag.
"""

import dataclasses
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibeetfa import fileio, scheme
from ibeetfa.authz import td1, td2, td3_basis, td3_ct
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test2 as eq_test2
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import Ciphertext, ciphertext_integrity_ok, decrypt, encrypt

from conftest import MINI, CallCounter, random_message

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


class TestGoldenBytes:
    """SHA-256 of seeded artifacts at MINI.

    How encrypt computes its products, how a Ciphertext stores its arrays
    and how extract walks and certifies must not move a byte; only a
    deliberate change of the file format or of what extract, encrypt and
    td2 sample may change these values.  TD2 last changed when extract
    began drawing the key's preimages of U in the same stream as the basis
    (format version 2).  SK pins the key file up to its R block (format
    version 3 appended it; the rest differs from version 2 only in the
    version field): LAPACK's QR rounds R's last bits differently under
    other BLAS thread counts, so the R block is checked against the key's
    own R instead.
    """

    CT = "cccc6473d8bf2d5f4075aa15a7442154276a6cb677785cb1781bacf120227f44"
    TD2 = "11beceaf9e464c053151b36efa43957db1707759af16e3e519310323f3c7d99d"
    SK = "2da4399181f9a1f42db19057b36fecb91efc72da4f8d994683b4f4b21f788e76"

    def test_ciphertext_and_td2_bytes(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        ct = encrypt(pp, ident, random_message(MINI.t, 0x601D), RandomSource(0x601D))
        blob = fileio.dump_ciphertext(ct, MINI)
        assert hashlib.sha256(blob).hexdigest() == self.CT
        for source in (ct, _load(blob)):
            td = td2(pp, sk, ident, source, RandomSource(0x601E))
            assert hashlib.sha256(fileio.dump_td2(td, MINI)).hexdigest() == self.TD2

    def test_secret_key_bytes(self, mini_key):
        _, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        d = 2 * MINI.m
        start = len(blob) - 8 * d * (d + 1) // 2
        assert hashlib.sha256(blob[:start]).hexdigest() == self.SK
        assert blob[start:] == sk.trapdoor_prime.prepared().r_rows.astype("<f8").tobytes()
