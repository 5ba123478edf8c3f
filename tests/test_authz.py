"""Trapdoor issuance and the three equality-test types."""

import dataclasses

import numpy as np
import pytest

from ibeetfa.authz import digest_from_basis, digest_from_e, td1, td2, td3_basis, td3_ct
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test2 as eq_test2
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.errors import DimensionMismatch, ParameterError
from ibeetfa.hashing import bits_to_bytes, hash_h
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import compute_f, encrypt
from ibeetfa.zqlinalg import check_nullspace_basis, concat_cols, mat_mul

from conftest import MINI, random_message


@pytest.fixture(scope="module")
def pool(mini_system, mini_key, mini_key_other):
    """Two identities, two shared messages, ciphertexts for both."""
    pp, _ = mini_system
    ident_a, sk_a = mini_key
    ident_b, sk_b = mini_key_other
    rng = RandomSource(0xF00D)
    msg1 = random_message(MINI.t, 71)
    msg2 = random_message(MINI.t, 72)
    cts = {
        ("a", 1): encrypt(pp, ident_a, msg1, rng),
        ("b", 1): encrypt(pp, ident_b, msg1, rng),
        ("a", 2): encrypt(pp, ident_a, msg2, rng),
        ("b", 2): encrypt(pp, ident_b, msg2, rng),
    }
    return pp, (ident_a, sk_a), (ident_b, sk_b), (msg1, msg2), cts


class TestTd1:
    def test_payload_is_valid_basis(self, pool):
        pp, (ident_a, sk_a), _, _, _ = pool
        td = td1(sk_a, ident_a)
        f_prime = compute_f(pp, ident_a, "prime")
        assert check_nullspace_basis(f_prime, td.e_prime, MINI.q)

    def test_distinct_identities_distinct_trapdoors(self, pool):
        _, (ident_a, sk_a), (ident_b, sk_b), _, _ = pool
        assert not np.array_equal(td1(sk_a, ident_a).e_prime, td1(sk_b, ident_b).e_prime)

    def test_deterministic(self, pool):
        _, (ident_a, sk_a), _, _, _ = pool
        assert np.array_equal(td1(sk_a, ident_a).e_prime, td1(sk_a, ident_a).e_prime)

    def test_identity_mismatch_rejected(self, pool):
        _, (_, sk_a), (ident_b, _), _, _ = pool
        with pytest.raises(ParameterError):
            td1(sk_a, ident_b)


class TestTd2:
    def test_congruence(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ct = cts[("a", 1)]
        ar = mat_mul(pp.a, ct.r_tag, MINI.q)
        f2 = concat_cols([compute_f(pp, ident_a, "prime"), ar])
        good = 0
        for seed in range(50):
            td = td2(pp, sk_a, ident_a, ct, RandomSource(1000 + seed))
            good += int(np.array_equal(mat_mul(f2, td.e_prime, MINI.q), pp.u))
        assert good == 50

    def test_tampered_ciphertext_rejected(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ct = cts[("a", 1)]
        bad_c2 = ct.c2.copy()
        bad_c2[3] = (bad_c2[3] + 1) % MINI.q
        tampered = dataclasses.replace(ct, c2=bad_c2)
        assert td2(pp, sk_a, ident_a, tampered, RandomSource(1)) is None

    def test_two_seeds_differ_but_both_valid(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ct = cts[("a", 1)]
        t1 = td2(pp, sk_a, ident_a, ct, RandomSource(41))
        t2 = td2(pp, sk_a, ident_a, ct, RandomSource(42))
        assert not np.array_equal(t1.e_prime, t2.e_prime)
        ar = mat_mul(pp.a, ct.r_tag, MINI.q)
        f2 = concat_cols([compute_f(pp, ident_a, "prime"), ar])
        for td in (t1, t2):
            assert np.array_equal(mat_mul(f2, td.e_prime, MINI.q), pp.u)


class TestDigests:
    def test_basis_digest_equals_message_hash(self, pool):
        pp, (ident_a, sk_a), _, (msg1, _), cts = pool
        td = td1(sk_a, ident_a)
        h = digest_from_basis(pp, td, cts[("a", 1)], RandomSource(7))
        assert np.array_equal(h, hash_h(bits_to_bytes(msg1), MINI.t))

    def test_basis_digest_agrees_across_identities(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        rng = RandomSource(8)
        agreed = 0
        for _ in range(50):
            h_a = digest_from_basis(pp, td1(sk_a, ident_a), cts[("a", 1)], rng)
            h_b = digest_from_basis(pp, td1(sk_b, ident_b), cts[("b", 1)], rng)
            agreed += int(np.array_equal(h_a, h_b))
        assert agreed == 50

    def test_basis_digest_rejects_tamper(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ct = cts[("a", 1)]
        bad = dataclasses.replace(ct, c5=1 - np.asarray(ct.c5))
        assert digest_from_basis(pp, td1(sk_a, ident_a), bad, RandomSource(9)) is None

    def test_malformed_c5_raises(self, pool):
        # a wrong-length digest is a malformed shape, not a tampered ciphertext
        pp, (ident_a, sk_a), _, _, cts = pool
        bad = dataclasses.replace(cts[("a", 1)], c5=np.asarray(cts[("a", 1)].c5)[:-1])
        with pytest.raises(DimensionMismatch):
            td2(pp, sk_a, ident_a, bad, RandomSource(13))
        with pytest.raises(DimensionMismatch):
            digest_from_basis(pp, td1(sk_a, ident_a), bad, RandomSource(14))

    def test_e_digest_equals_message_hash(self, pool):
        pp, (ident_a, sk_a), _, (msg1, _), cts = pool
        ct = cts[("a", 1)]
        td = td2(pp, sk_a, ident_a, ct, RandomSource(10))
        h = digest_from_e(td, ct, MINI.q)
        assert np.array_equal(h, hash_h(bits_to_bytes(msg1), MINI.t))

    def test_e_digest_binding_mismatch(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        td = td2(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(11))
        assert digest_from_e(td, cts[("a", 2)], MINI.q) is None

    def test_e_digest_deterministic(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ct = cts[("a", 1)]
        td = td2(pp, sk_a, ident_a, ct, RandomSource(12))
        assert np.array_equal(digest_from_e(td, ct, MINI.q), digest_from_e(td, ct, MINI.q))


class TestType1:
    def test_same_message_different_identities(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        out = eq_test1(td1(sk_a, ident_a), td1(sk_b, ident_b),
                    cts[("a", 1)], cts[("b", 1)], pp, RandomSource(13))
        assert out == 1

    def test_different_messages(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        out = eq_test1(td1(sk_a, ident_a), td1(sk_b, ident_b),
                    cts[("a", 1)], cts[("b", 2)], pp, RandomSource(14))
        assert out == 0

    def test_reflexive(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        td = td1(sk_a, ident_a)
        assert eq_test1(td, td, cts[("a", 1)], cts[("a", 1)], pp, RandomSource(15)) == 1

    def test_reject_propagates(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ct = cts[("a", 1)]
        bad = dataclasses.replace(ct, c5=1 - np.asarray(ct.c5))
        out = eq_test1(td1(sk_a, ident_a), td1(sk_b, ident_b),
                    bad, cts[("b", 1)], pp, RandomSource(16))
        assert out is None

    def test_symmetry(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ta, tb = td1(sk_a, ident_a), td1(sk_b, ident_b)
        fwd = eq_test1(ta, tb, cts[("a", 1)], cts[("b", 2)], pp, RandomSource(17))
        rev = eq_test1(tb, ta, cts[("b", 2)], cts[("a", 1)], pp, RandomSource(18))
        assert fwd == rev == 0


class TestType2:
    def test_same_message(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ta = td2(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(19))
        tb = td2(pp, sk_b, ident_b, cts[("b", 1)], RandomSource(20))
        assert eq_test2(ta, tb, cts[("a", 1)], cts[("b", 1)], MINI.q) == 1

    def test_different_messages(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ta = td2(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(21))
        tb = td2(pp, sk_b, ident_b, cts[("b", 2)], RandomSource(22))
        assert eq_test2(ta, tb, cts[("a", 1)], cts[("b", 2)], MINI.q) == 0

    def test_reflexive(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        ta = td2(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(23))
        assert eq_test2(ta, ta, cts[("a", 1)], cts[("a", 1)], MINI.q) == 1

    def test_binding_reject(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ta = td2(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(24))
        tb = td2(pp, sk_b, ident_b, cts[("b", 1)], RandomSource(25))
        assert eq_test2(ta, tb, cts[("a", 1)], cts[("b", 2)], MINI.q) is None


class TestType3:
    def test_basis_and_ct_wrappers_delegate(self, pool):
        pp, (ident_a, sk_a), _, _, cts = pool
        t3 = td3_basis(sk_a, ident_a)
        assert t3.is_basis_side
        assert np.array_equal(t3.payload.e_prime, td1(sk_a, ident_a).e_prime)
        t3c = td3_ct(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(26))
        assert not t3c.is_basis_side

    def test_mixed_pair_same_message(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ti = td3_basis(sk_a, ident_a)
        tj = td3_ct(pp, sk_b, ident_b, cts[("b", 1)], RandomSource(27))
        assert eq_test3(ti, tj, cts[("a", 1)], cts[("b", 1)], pp, RandomSource(28)) == 1

    def test_mixed_pair_different_message(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ti = td3_basis(sk_a, ident_a)
        tj = td3_ct(pp, sk_b, ident_b, cts[("b", 2)], RandomSource(29))
        assert eq_test3(ti, tj, cts[("a", 1)], cts[("b", 2)], pp, RandomSource(30)) == 0

    def test_basis_basis_combination(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        out = eq_test3(td3_basis(sk_a, ident_a), td3_basis(sk_b, ident_b),
                    cts[("a", 2)], cts[("b", 2)], pp, RandomSource(31))
        assert out == 1

    def test_ct_ct_combination(self, pool):
        pp, (ident_a, sk_a), (ident_b, sk_b), _, cts = pool
        ti = td3_ct(pp, sk_a, ident_a, cts[("a", 1)], RandomSource(32))
        tj = td3_ct(pp, sk_b, ident_b, cts[("b", 1)], RandomSource(33))
        assert eq_test3(ti, tj, cts[("a", 1)], cts[("b", 1)], pp, RandomSource(34)) == 1


class TestOracleAgreement:
    def test_outcomes_match_message_equality(self, pool):
        # mixed sweep across types, identities, and equal/unequal messages
        pp, (ident_a, sk_a), (ident_b, sk_b), (msg1, msg2), cts = pool
        rng = RandomSource(35)
        t1a, t1b = td1(sk_a, ident_a), td1(sk_b, ident_b)
        hits = 0
        cases = [
            (("a", 1), ("b", 1), 1),
            (("a", 1), ("b", 2), 0),
            (("a", 2), ("b", 2), 1),
            (("a", 2), ("b", 1), 0),
            (("a", 1), ("a", 2), 0),
            (("b", 1), ("b", 1), 1),
        ]
        for ct_i_key, ct_j_key, want in cases:
            got = eq_test1(
                t1a if ct_i_key[0] == "a" else t1b,
                t1a if ct_j_key[0] == "a" else t1b,
                cts[ct_i_key], cts[ct_j_key], pp, rng,
            )
            hits += int(got == want)
        assert hits == len(cases)
