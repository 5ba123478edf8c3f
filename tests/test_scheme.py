"""Setup, extraction, encryption, decryption."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibeetfa.errors import DimensionMismatch, ParameterError
from ibeetfa.hashing import bits_to_bytes, hash_h
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import (
    Identity,
    PublicParams,
    ciphertext_integrity_ok,
    compute_a_id,
    compute_f,
    decode_bits,
    decrypt,
    encrypt,
    encrypt_traced,
    extract,
    identity_from_string,
    setup,
    tag_product,
)
from ibeetfa.zqlinalg import check_nullspace_basis, mat_mul

from conftest import MINI, random_message


class TestSetup:
    def test_public_matrix_element_count(self, mini_system):
        pp, _ = mini_system
        p = pp.params
        assert pp.element_count() == (p.ell + 3) * p.m * p.n + p.n * p.t

    def test_master_key_element_count(self, mini_system):
        _, msk = mini_system
        assert msk.element_count() == 2 * MINI.m * MINI.m

    def test_trapdoors_match_matrices(self, mini_system):
        pp, msk = mini_system
        assert check_nullspace_basis(pp.a, msk.t_a, MINI.q)
        assert check_nullspace_basis(pp.a_prime, msk.t_a_prime, MINI.q)

    def test_deterministic_under_seed(self):
        pp1, msk1 = setup(MINI, RandomSource(99))
        pp2, msk2 = setup(MINI, RandomSource(99))
        assert np.array_equal(pp1.a, pp2.a)
        assert np.array_equal(pp1.u, pp2.u)
        assert np.array_equal(msk1.t_a, msk2.t_a)

    def test_rejects_invalid_params(self):
        bad = dataclasses.replace(MINI, m=10)
        with pytest.raises(ParameterError):
            setup(bad, RandomSource(1))


class TestIdentity:
    def test_from_string_is_pm_one(self):
        ident = identity_from_string("alice", 8)
        assert len(ident.bits) == 8
        assert all(b in (-1, 1) for b in ident.bits)

    def test_from_string_deterministic(self):
        assert identity_from_string("x", 8) == identity_from_string("x", 8)

    def test_rejects_bad_entries(self):
        with pytest.raises(ParameterError):
            Identity((1, 0, -1))


class TestComputeF:
    def test_zero_identity_matrices_give_b(self, mini_system):
        pp, _ = mini_system
        zeroed = PublicParams(
            pp.params,
            pp.a,
            pp.a_prime,
            tuple(np.zeros_like(x) for x in pp.a_list),
            pp.b,
            pp.u,
        )
        ident = identity_from_string("anyone", MINI.ell)
        assert np.array_equal(compute_a_id(zeroed, ident), pp.b)

    def test_two_bit_formula(self, mini_system):
        pp, _ = mini_system
        two = dataclasses.replace(MINI, ell=2)
        small_pp = PublicParams(two, pp.a, pp.a_prime, pp.a_list[:2], pp.b, pp.u)
        ident = Identity((1, -1))
        want = (pp.b + pp.a_list[0] - pp.a_list[1]) % MINI.q
        assert np.array_equal(compute_a_id(small_pp, ident), want)

    def test_single_bit_flip_changes_f(self, mini_system):
        pp, _ = mini_system
        bits = list(identity_from_string("alice", MINI.ell).bits)
        flipped = list(bits)
        flipped[3] = -flipped[3]
        f1 = compute_f(pp, Identity(tuple(bits)))
        f2 = compute_f(pp, Identity(tuple(flipped)))
        assert not np.array_equal(f1, f2)

    def test_prime_variant_swaps_left_block(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        f = compute_f(pp, ident, "primary")
        fp = compute_f(pp, ident, "prime")
        assert np.array_equal(f[:, : MINI.m], pp.a)
        assert np.array_equal(fp[:, : MINI.m], pp.a_prime)
        assert np.array_equal(f[:, MINI.m :], fp[:, MINI.m :])

    def test_unknown_variant(self, mini_system):
        pp, _ = mini_system
        with pytest.raises(ParameterError):
            compute_f(pp, identity_from_string("alice", MINI.ell), "other")


class TestExtract:
    def test_keys_satisfy_nullspace_invariants(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        assert check_nullspace_basis(compute_f(pp, ident, "primary"), sk.e_id, MINI.q)
        assert check_nullspace_basis(compute_f(pp, ident, "prime"), sk.e_id_prime, MINI.q)

    def test_key_element_count(self, mini_key):
        _, sk = mini_key
        # two (2m x 2m) bases and two (2m x t) preimages of U; the published
        # table lists 4m^2
        assert sk.element_count() == 8 * MINI.m * MINI.m + 4 * MINI.m * MINI.t

    def test_distinct_identities_distinct_keys(self, mini_system):
        pp, msk = mini_system
        sk1 = extract(pp, msk, identity_from_string("u1", MINI.ell), RandomSource(5))
        sk2 = extract(pp, msk, identity_from_string("u2", MINI.ell), RandomSource(5))
        assert not np.array_equal(sk1.e_id, sk2.e_id)

    def test_wrong_length_identity_rejected(self, mini_system):
        pp, msk = mini_system
        with pytest.raises(DimensionMismatch):
            extract(pp, msk, Identity((1, -1)), RandomSource(1))


class TestEncrypt:
    def test_component_counts(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        ct = encrypt(pp, ident, random_message(MINI.t, 1), RandomSource(2))
        p = pp.params
        assert ct.element_count() == p.m * p.m + 2 * p.t + 6 * p.m
        assert ct.c5.shape == (p.lambda_bits,)

    def test_zero_noise_c1_closed_form(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        msg = np.zeros(MINI.t, dtype=np.uint8)
        ct, tr = encrypt_traced(pp, ident, msg, RandomSource(3), zero_noise=True)
        assert np.array_equal(ct.c1, mat_mul(pp.u.T, tr.s1, MINI.q))

    def test_zero_noise_third_block_same_r(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        ct, tr = encrypt_traced(pp, ident, random_message(MINI.t, 4), RandomSource(5),
                                zero_noise=True)
        ar = mat_mul(pp.a, tr.r_tag, MINI.q)
        m = MINI.m
        assert np.array_equal(ct.c3[2 * m :], mat_mul(ar.T, tr.s1, MINI.q))
        assert np.array_equal(ct.c4[2 * m :], mat_mul(ar.T, tr.s2, MINI.q))

    def test_c5_recomputes(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        ct = encrypt(pp, ident, random_message(MINI.t, 6), RandomSource(7))
        assert ciphertext_integrity_ok(pp, ct)

    def test_tag_matrix_range(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        _, tr = encrypt_traced(pp, ident, random_message(MINI.t, 8), RandomSource(9))
        assert np.abs(tr.r_tag).max() <= MINI.ell
        assert np.abs(tr.r_id).max() <= MINI.ell

    def test_message_shape_enforced(self, mini_system):
        pp, _ = mini_system
        ident = identity_from_string("alice", MINI.ell)
        with pytest.raises(DimensionMismatch):
            encrypt(pp, ident, np.zeros(MINI.t - 1, dtype=np.uint8), RandomSource(1))

    def test_tag_product_matches_mat_mul(self, mini_system):
        pp, _ = mini_system
        m, ell = MINI.m, MINI.ell
        inside = RandomSource(10).integers(-ell, ell + 1, (m, m))
        # a loaded R is not range-checked: entries past ell, past q and at
        # the int64 extremes must reduce as mat_mul reduces them
        outside = inside.copy()
        outside[0, :4] = [ell + 1, -(ell + 1), 5 * MINI.q + 3, -(7 * MINI.q) - 1]
        outside[1, :2] = [np.iinfo(np.int64).max, np.iinfo(np.int64).min]
        for r in (inside, outside):
            assert np.array_equal(tag_product(pp, r), mat_mul(pp.a, r, MINI.q))


class TestDecodeBits:
    def test_frozen_examples_q4093(self):
        assert decode_bits(np.array([2046]), 4093)[0] == 1  # |2046-2046| = 0
        assert decode_bits(np.array([0]), 4093)[0] == 0     # distance 2046
        assert decode_bits(np.array([1023]), 4093)[0] == 0  # boundary: strict <

    @given(st.integers(min_value=0, max_value=4092))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_rule(self, w):
        q = 4093
        want = 1 if abs(w - q // 2) < q // 4 else 0
        assert decode_bits(np.array([w]), q)[0] == want


class TestDecrypt:
    def test_round_trips(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        rng = RandomSource(11)
        for i in range(5):
            msg = random_message(MINI.t, 100 + i)
            ct = encrypt(pp, ident, msg, rng)
            out = decrypt(pp, sk, ct, rng)
            assert out is not None and np.array_equal(out, msg)

    def test_tampered_c1_rejected(self, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        rng = RandomSource(13)
        ct = encrypt(pp, ident, random_message(MINI.t, 200), rng)
        bad_c1 = ct.c1.copy()
        bad_c1[0] = (bad_c1[0] + 1) % MINI.q
        tampered = dataclasses.replace(ct, c1=bad_c1)
        assert decrypt(pp, sk, tampered, rng) is None

    def test_wrong_identity_key_rejected(self, mini_system, mini_key, mini_key_other):
        pp, _ = mini_system
        ident, _ = mini_key
        _, sk_other = mini_key_other
        rng = RandomSource(17)
        rejected = 0
        for i in range(100):
            ct = encrypt(pp, ident, random_message(MINI.t, 300 + i), rng)
            if decrypt(pp, sk_other, ct, rng) is None:
                rejected += 1
        assert rejected == 100

    def test_malformed_shapes_raise(self, mini_system, mini_key):
        pp, _ = mini_system
        _, sk = mini_key
        ct = encrypt(pp, sk.identity, random_message(MINI.t, 400), RandomSource(19))
        bad = dataclasses.replace(ct, c3=ct.c3[:-1])
        with pytest.raises(DimensionMismatch):
            decrypt(pp, sk, bad, RandomSource(23))

    def test_digest_component_decodes_to_hash(self, mini_system, mini_key):
        # with the second basis, c2/c4 must decode to the message digest
        pp, _ = mini_system
        ident, sk = mini_key
        rng = RandomSource(29)
        msg = random_message(MINI.t, 500)
        ct = encrypt(pp, ident, msg, rng)
        out = decrypt(pp, sk, ct, rng)
        assert np.array_equal(
            hash_h(bits_to_bytes(out), MINI.t), hash_h(bits_to_bytes(msg), MINI.t)
        )
