"""Per-key preimages of U, the key's gadget trapdoor, and the sampling data keys own.

Extract samples a preimage e_F of U under F_ID alone (and e_F' under
F'_ID) with the master trapdoor: e_F in a SampleLeft call of its own,
e_F' in the same call that draws the delegated basis E'_ID.  For F_ID
the key holds the gadget trapdoor R_ID, from which E_ID is rebuilt on
each access.  Decryption and the type-1 side of the equality tests read
the preimages and build no sampling data; only td2 and td3_ct sample,
against each ciphertext's tag matrix, with the basis E'_ID.  Extract
certifies E'_ID by factoring it, and E'_ID keeps that R factor; the key
file carries it, and a loaded key adopts it after an O(d^2) check, so no
key, fresh or loaded, factors a basis again.
"""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibeetfa import fileio, scheme, trapdoor
from ibeetfa.authz import digest_from_basis, td1, td2, td3_basis, td3_ct
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.errors import FormatError, KeyMismatch, ParameterError, SingularMatrix
from ibeetfa.hashing import bits_to_bytes, hash_h
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import compute_f, decrypt, encrypt, extract, identity_from_string, setup
from ibeetfa.zqlinalg import center_rep, concat_cols, mat_mul

from conftest import MINI, CallCounter, r_diagonal_words, random_message, sk_sections


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
def derivations(monkeypatch):
    counter = CallCounter(trapdoor.derive_trapdoor)
    monkeypatch.setattr(trapdoor, "derive_trapdoor", counter)
    return counter


@pytest.fixture(scope="module")
def fresh_key(mini_system):
    """A key fresh from extract, which no other test samples with."""
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
        loaded = fileio.load_master_secret(fileio.dump_master_secret(msk, MINI), pp)
        ident = identity_from_string("dora", MINI.ell)
        a = extract(pp, msk, ident, RandomSource(341))
        b = extract(pp, loaded, ident, RandomSource(341))
        assert np.array_equal(a.r_id, b.r_id) and np.array_equal(a.e_id_prime, b.e_id_prime)
        assert np.array_equal(a.e_f, b.e_f) and np.array_equal(a.e_f_prime, b.e_f_prime)

    def test_master_key_refuses_other_public_params(self, mini_system):
        # a loaded master key asked to extract under another system's public
        # matrices raises at once and keeps nothing derived for them, so
        # the next extract under its own matrices is that of a clean load
        pp, msk = mini_system
        pp_other, _ = setup(MINI, RandomSource(0x0DD))
        ident = identity_from_string("heidi", MINI.ell)
        blob = fileio.dump_master_secret(msk, MINI)
        loaded = fileio.load_master_secret(blob, pp)
        with pytest.raises(ParameterError):
            extract(pp_other, loaded, ident, RandomSource(411))
        got = extract(pp, loaded, ident, RandomSource(412))
        want = extract(pp, fileio.load_master_secret(blob, pp), ident, RandomSource(412))
        assert fileio.dump_user_secret(got, MINI) == fileio.dump_user_secret(want, MINI)
        with pytest.raises(ParameterError):
            extract(pp_other, loaded, ident, RandomSource(413))

    def test_only_td2_factors_a_key_basis(self, mini_system, preps, monkeypatch):
        # extract factors E'_ID once, as its certificate, and E'_ID keeps
        # that R; R_ID is no basis and is not factored.  The key file
        # carries E'_ID's R, so a loaded key factors nothing either: not
        # with prepare_basis, not with any QR.
        qr_calls = []
        qr = np.linalg.qr

        def qr_spy(a, mode="reduced"):
            qr_calls.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr_spy)
        pp, msk = mini_system
        preps.calls = 0
        ident = identity_from_string("grace", MINI.ell)
        sk = extract(pp, msk, ident, RandomSource(391))
        assert preps.calls == 1  # E'_ID's certificate
        assert type(sk.e_id) is np.ndarray  # E_ID is derived key data, never sampled with
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
            assert type(key.e_id) is np.ndarray
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


    def test_threads_share_a_fresh_key(self, mini_system, preps, derivations):
        # a key fresh from extract and the same key loaded: E'_ID is complete
        # when made, so concurrent draws derive, factor and write nothing
        pp, msk = mini_system
        ident = identity_from_string("erin", MINI.ell)
        fresh = extract(pp, msk, ident, RandomSource(351))
        loaded = fileio.load_user_secret(fileio.dump_user_secret(fresh, MINI), MINI)
        msgs = [random_message(MINI.t, 352 + i) for i in range(2)]
        cts = [encrypt(pp, ident, msg, RandomSource(354 + i)) for i, msg in enumerate(msgs)]
        q = MINI.q
        f_prime = compute_f(pp, ident, "prime")

        def draw_in_two_threads(sk):
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
                    return [f.result(timeout=300) for f in futures]
            finally:
                sys.setswitchinterval(interval)

        for sk in (fresh, loaded):
            held = dict(vars(sk.trapdoor_prime))
            preps.calls = derivations.calls = 0
            for (bound, out), ct, msg in zip(draw_in_two_threads(sk), cts, msgs):
                f2 = concat_cols([f_prime, mat_mul(pp.a, ct.r_tag, q)])
                assert np.array_equal(mat_mul(f2, bound.e_prime, q), pp.u)
                assert np.array_equal(out, msg)
            now = vars(sk.trapdoor_prime)
            assert now.keys() == held.keys() and all(now[k] is v for k, v in held.items())
            assert derivations.calls == 0
            assert preps.calls == 0


class TestStoredRFactor:
    """The R block of a key file is checked against E'_ID at load."""

    def test_r_block_is_the_certified_r(self, mini_key):
        _, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        assert blob[sk_sections(MINI)["r"]] == sk.trapdoor_prime.prep.r.astype("<f8").tobytes()
        loaded = fileio.load_user_secret(blob, MINI)
        assert np.array_equal(loaded.trapdoor_prime.prep.r, sk.trapdoor_prime.prep.r)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.trapdoor_prime.prep.blocks,
                                                        sk.trapdoor_prime.prep.blocks))
        assert fileio.dump_user_secret(loaded, MINI) == blob

    def test_corrupted_r_block_refused(self, mini_key, mini_key_other):
        _, sk = mini_key
        _, other = mini_key_other
        blob = fileio.dump_user_secret(sk, MINI)
        span = sk_sections(MINI)["r"]
        start, stop = span.start, span.stop
        d = 2 * MINI.m
        r = sk.trapdoor_prime.prep.r
        diagonal = r_diagonal_words(d)
        off_diagonal = np.ones(r.size, dtype=bool)
        off_diagonal[diagonal] = False
        big = int(np.argmax(np.abs(r) * off_diagonal))
        flipped = bytearray(blob)
        flipped[start + 8 * big + 7] ^= 0x80  # the sign bit of a little-endian binary64
        zeroed = bytearray(blob)
        word = start + 8 * diagonal[MINI.m]
        zeroed[word : word + 8] = bytes(8)
        below = bytearray(blob)  # R[1, 0], below the top block's diagonal
        below[start + 8 * d + 7] = 0x3F
        swapped = blob[:start] + fileio.dump_user_secret(other, MINI)[start:stop] + blob[stop:]
        for bad in (flipped, zeroed, below, swapped):
            assert bytes(bad) != blob
            with pytest.raises(FormatError, match="stored R factor refused"):
                fileio.load_user_secret(bytes(bad), MINI)
        assert fileio.dump_user_secret(fileio.load_user_secret(blob, MINI), MINI) == blob


class TestStoredCosetMap:
    """Extract builds E'_ID's coset map, the key file carries it, a loaded
    key checks it at load, and every draw checks it against F'_ID."""

    @staticmethod
    def with_word(blob, section, index, value, dtype="<i8"):
        span = sk_sections(MINI)[section]
        words = np.frombuffer(blob[span], dtype=dtype).copy()
        words[index] = value
        return blob[: span.start] + words.tobytes() + blob[span.stop :]

    def test_extract_binds_and_the_file_carries_the_map(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        key_td = sk.trapdoor_prime
        sk.trapdoor_prime.require(compute_f(pp, ident, "prime"), MINI.q)
        blob = fileio.dump_user_secret(sk, MINI)
        assert len(blob) == sk_sections(MINI)["proj"].stop
        loaded = fileio.load_user_secret(blob, MINI)
        held = loaded.trapdoor_prime
        loaded.trapdoor_prime.require(compute_f(pp, ident, "prime"), MINI.q)
        assert np.array_equal(held.pivots, key_td.pivots) and np.array_equal(held.elim, key_td.elim)
        assert held.proj.tobytes() == key_td.proj.tobytes()
        for name in ("r_id", "e_id_prime", "e_f", "e_f_prime"):
            assert getattr(loaded, name).dtype == getattr(sk, name).dtype == np.int32
            assert np.array_equal(getattr(loaded, name), getattr(sk, name))
        assert np.array_equal(loaded.a_bar_id, sk.a_bar_id)
        assert fileio.dump_user_secret(loaded, MINI) == blob

    def test_other_systems_public_params_raise_at_binding(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        pp_other, _ = setup(MINI, RandomSource(0x0DD))
        ct_other = encrypt(pp_other, ident, random_message(MINI.t, 421), RandomSource(422))
        # the fresh key's map solves for pp's F'_ID
        with pytest.raises(ParameterError, match="another public matrix"):
            td2(pp_other, sk, ident, ct_other, RandomSource(423))
        # so does the loaded key's, and a refused draw changes nothing: the
        # key still serves its own system
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        with pytest.raises(ParameterError, match="another public matrix"):
            td2(pp_other, loaded, ident, ct_other, RandomSource(424))
        ct = encrypt(pp, ident, random_message(MINI.t, 425), RandomSource(426))
        assert td2(pp, loaded, ident, ct, RandomSource(427)) is not None
        with pytest.raises(ParameterError, match="another public matrix"):
            td2(pp_other, loaded, ident, ct_other, RandomSource(428))

    def test_elimination_word_in_range_is_caught_at_binding(self, mini_system, mini_key):
        # E is checked against F'_ID, which the key file does not hold, on
        # every draw: before any walk
        pp, _ = mini_system
        ident, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        word = int(sk.trapdoor_prime.elim[0, 0])
        bad = fileio.load_user_secret(self.with_word(blob, "elim", 0, (word + 1) % MINI.q), MINI)
        ct = encrypt(pp, ident, random_message(MINI.t, 431), RandomSource(432))
        with pytest.raises(ParameterError, match="another public matrix"):
            td2(pp, bad, ident, ct, RandomSource(433))

    def test_another_identitys_matrix_raises_before_any_draw(self, mini_system, mini_key, mini_key_other):
        # another identity's F'_ID shares A', so it passes the pivot check;
        # the probe column refuses it for a fresh and a loaded key alike,
        # before anything is drawn, and the key keeps serving its own identity
        pp, _ = mini_system
        ident, sk = mini_key
        ident_o, _ = mini_key_other
        q = MINI.q
        ct = encrypt(pp, ident, random_message(MINI.t, 441), RandomSource(442))
        ar = mat_mul(pp.a, ct.r_tag, q)
        f_other = compute_f(pp, ident_o, "prime")
        key_td = sk.trapdoor_prime
        assert np.array_equal(mat_mul(f_other[:, key_td.pivots], key_td.elim, q), np.eye(MINI.n, dtype=np.int64))
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        for key in (sk, loaded):
            rng = RandomSource(443)
            with pytest.raises(KeyMismatch, match="another public matrix"):
                trapdoor.sample_left(f_other, ar, key.trapdoor_prime, pp.u, q, MINI.sigma, rng,
                                     enforce_sigma=False)
            assert rng.random() == RandomSource(443).random()
            assert td2(pp, key, ident, ct, RandomSource(444)) is not None

    def test_corrupted_map_refused_at_load(self, mini_key, mini_key_other):
        _, sk = mini_key
        _, other = mini_key_other
        blob = fileio.dump_user_secret(sk, MINI)
        key_td = sk.trapdoor_prime
        spans = sk_sections(MINI)
        proj = key_td.proj.reshape(-1)
        big = int(np.argmax(np.abs(proj)))
        free_row = next(row for row in range(2 * MINI.m) if row not in key_td.pivots)
        bad = {
            "proj sign": self.with_word(blob, "proj", big, -proj[big], "<f8"),
            "proj nan": self.with_word(blob, "proj", big, np.nan, "<f8"),
            "proj of another key": blob[: spans["proj"].start]
            + fileio.dump_user_secret(other, MINI)[spans["proj"]],
            "pivot moved": self.with_word(blob, "pivots", 0, free_row),
            "pivot repeated": self.with_word(blob, "pivots", 1, int(key_td.pivots[0])),
            "pivot past the last row": self.with_word(blob, "pivots", 0, 2 * MINI.m),
            "negative pivot": self.with_word(blob, "pivots", 0, -1),
            "E word q": self.with_word(blob, "elim", 0, MINI.q),
            "E word negative": self.with_word(blob, "elim", 0, -1),
        }
        for label, data in bad.items():
            assert data != blob and len(data) == len(blob), label
            with pytest.raises(FormatError, match="stored coset map refused"):
                fileio.load_user_secret(data, MINI)

    def test_key_refuses_what_dump_cannot_write(self, mini_key):
        # a key holds its integer matrices as int32, so an entry outside int32
        # is refused when the key is built (E'_ID's when its TrapdoorBasis
        # is), and one inside dumps to its word
        ident, sk = mini_key
        top = 1 << 31
        sections = {"r_id": "user secret key: R_ID", "e_id_prime": "trapdoor basis",
                    "e_f": "user secret key: e_F", "e_f_prime": "user secret key: e_F'"}
        for name, section in sections.items():
            for value, fits in ((top - 1, True), (-top, True), (top, False), (-top - 1, False)):
                arr = getattr(sk, name).astype(np.int64)
                arr[0, 0] = value

                def build():
                    if name == "e_id_prime":
                        return dataclasses.replace(
                            sk, trapdoor_prime=dataclasses.replace(sk.trapdoor_prime, basis=arr))
                    return dataclasses.replace(sk, **{name: arr})

                if fits:
                    key = build()
                    assert getattr(key, name).dtype == np.int32 and getattr(key, name)[0, 0] == value
                    blob = fileio.dump_user_secret(key, MINI)
                    assert int(np.frombuffer(blob[sk_sections(MINI)[name]], dtype="<i4")[0]) == value
                else:
                    with pytest.raises(ParameterError, match=re.escape(
                            f"{section} holds an entry outside int32")):
                        build()


class TestKeyWidth:
    """A key's integer matrices (R_ID, E'_ID, e_F, e_F') are int32 in memory,
    fresh or loaded, as the key file stores them, and so is the E_ID it
    derives."""

    def test_fresh_and_loaded_keys_hold_int32(self, mini_key):
        _, sk = mini_key
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        for key in (sk, loaded):
            for name in ("r_id", "e_id", "e_id_prime", "e_f", "e_f_prime"):
                assert getattr(key, name).dtype == np.int32, name

    def test_extract_refuses_a_basis_outside_int32(self, mini_system, monkeypatch):
        # R_ID (extract's first sample_left) is narrowed when the key is
        # built, E'_ID (the first columns of sample_basis_left's batch) when
        # its TrapdoorBasis is, before the QR
        pp, msk = mini_system
        ident = identity_from_string("ivan", MINI.ell)

        def spoiled(left):
            def call(*args):
                e = left(*args)
                e[0, 0] = 1 << 31
                return e
            return call

        for mod, section in ((scheme, "user secret key: R_ID"), (trapdoor, "trapdoor basis")):
            with monkeypatch.context() as patch:
                patch.setattr(mod, "sample_left", spoiled(mod.sample_left))
                with pytest.raises(ParameterError, match=re.escape(
                        f"{section} holds an entry outside int32")):
                    extract(pp, msk, ident, RandomSource(437))

    def test_load_peaks_near_the_file_size(self, mini_key):
        # the parent format's load widened E_ID and E'_ID to int64 (1.9 x the
        # file); at the file's width every section is held once
        _, sk = mini_key
        blob = fileio.dump_user_secret(sk, MINI)
        tracemalloc.start()
        try:
            loaded = fileio.load_user_secret(blob, MINI)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.identity == sk.identity
        assert peak <= 1.3 * len(blob), (peak, len(blob))


class TestDerivedKeyBasis:
    """E_ID is rebuilt from R_ID and Abar_ID on each access: the basis of the
    whole lattice of F_ID that trapdoor.gadget_basis builds, never kept,
    and never sampled with."""

    def test_e_id_is_the_gadget_basis_of_r_id(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        f_id = compute_f(pp, ident, "primary")
        nk = MINI.n * trapdoor.gadget_length(MINI.q)
        assert sk.r_id.shape == (2 * MINI.m - nk, nk)
        assert np.array_equal(sk.a_bar_id, f_id[:, : 2 * MINI.m - nk])
        want = trapdoor.gadget_basis(sk.a_bar_id, sk.r_id, MINI.q).astype(np.int32)
        e_id = sk.e_id
        assert e_id.dtype == np.int32 and np.array_equal(e_id, want)
        assert not np.any(mat_mul(f_id, e_id, MINI.q))
        assert sk.e_id is not e_id  # built per access, kept by nobody
        # its Gram-Schmidt norms fall far below the certificate's bound
        with pytest.raises(SingularMatrix):
            trapdoor.derive_trapdoor(f_id, e_id, MINI.q)

    def test_changed_r_id_entry_breaks_e_id(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        r_id = sk.r_id.copy()
        r_id[3, 1] += 1
        changed = dataclasses.replace(sk, r_id=r_id)
        assert not np.array_equal(changed.e_id, sk.e_id)
        assert np.any(mat_mul(compute_f(pp, ident, "primary"), changed.e_id, MINI.q))

    def test_loaded_key_derives_the_fresh_e_id(self, mini_key):
        _, sk = mini_key
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        assert np.array_equal(loaded.e_id, sk.e_id)

    def test_require_gadget_trapdoor_checks_a_key(self, mini_system, mini_key):
        # the check reduces mod q as it goes, so it also takes toy's R_ID,
        # whose exact product with residues would pass int64 (criterion 3)
        pp, _ = mini_system
        ident, sk = mini_key
        f_id = compute_f(pp, ident, "primary")
        trapdoor.require_gadget_trapdoor(f_id, sk.r_id, MINI.q)
        r_id = sk.r_id.copy()
        r_id[0, 0] -= 1
        with pytest.raises(ParameterError, match="no trapdoor of this public matrix"):
            trapdoor.require_gadget_trapdoor(f_id, r_id, MINI.q)
