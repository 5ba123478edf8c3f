"""Digest functions and the canonical ciphertext encoding."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from ibeetfa.errors import DimensionMismatch, ParameterError
from ibeetfa.hashing import (
    bits_to_bytes,
    bytes_to_bits,
    canonical_ct_bytes,
    hash_h,
    hash_hprime,
    tag_code_width,
    tag_in_range,
)
from ibeetfa.params import ParamSet

TINY = ParamSet(
    lambda_bits=16, n=2, m=3, q=4093, t=8, ell=2, sigma=10.0, alpha=0.01, q_bound=4
)


def tiny_components(seed=0):
    rs = np.random.default_rng(seed)
    r = rs.integers(-TINY.ell, TINY.ell + 1, (TINY.m, TINY.m))
    c1 = rs.integers(0, TINY.q, TINY.t)
    c2 = rs.integers(0, TINY.q, TINY.t)
    c3 = rs.integers(0, TINY.q, 3 * TINY.m)
    c4 = rs.integers(0, TINY.q, 3 * TINY.m)
    return r, c1, c2, c3, c4


class TestHashH:
    def test_deterministic(self):
        assert np.array_equal(hash_h(b"abc", 64), hash_h(b"abc", 64))

    def test_no_collisions_in_random_sample(self):
        rs = np.random.default_rng(1)
        seen = set()
        for _ in range(10_000):
            data = rs.bytes(32)
            seen.add(bits_to_bytes(hash_h(data, 64)))
        assert len(seen) == 10_000

    def test_output_length(self):
        assert hash_h(b"x", 8).shape == (8,)
        assert hash_h(b"x", 13).shape == (13,)

    def test_bit_values(self):
        out = hash_h(b"data", 128)
        assert set(np.unique(out)) <= {0, 1}


class TestHashHprime:
    def test_deterministic(self):
        assert np.array_equal(hash_hprime(b"abc", 128), hash_hprime(b"abc", 128))

    def test_distinct_inputs_distinct_outputs(self):
        rs = np.random.default_rng(2)
        seen = set()
        for _ in range(10_000):
            seen.add(bits_to_bytes(hash_hprime(rs.bytes(32), 128)))
        assert len(seen) == 10_000

    def test_output_length(self):
        assert hash_hprime(b"x", 128).shape == (128,)

    def test_differs_from_hash_h(self):
        assert not np.array_equal(hash_h(b"same input", 64), hash_hprime(b"same input", 64))

    def test_monobit_balance(self):
        # one million output bits should be balanced within 1%
        total = 0
        ones = 0
        for i in range(2000):
            out = hash_hprime(i.to_bytes(4, "little"), 512)
            ones += int(out.sum())
            total += 512
        assert total >= 1_000_000
        assert abs(ones / total - 0.5) < 0.01


class TestCanonicalBytes:
    def test_deterministic(self):
        comps = tiny_components()
        assert canonical_ct_bytes(TINY, *comps) == canonical_ct_bytes(TINY, *comps)

    def test_single_entry_flip_changes_bytes(self):
        r, c1, c2, c3, c4 = tiny_components()
        base = canonical_ct_bytes(TINY, r, c1, c2, c3, c4)
        c3b = c3.copy()
        c3b[4] = (c3b[4] + 1) % TINY.q
        assert canonical_ct_bytes(TINY, r, c1, c2, c3b, c4) != base

    def test_each_component_bound(self):
        r, c1, c2, c3, c4 = tiny_components()
        base = canonical_ct_bytes(TINY, r, c1, c2, c3, c4)
        for mutate in range(5):
            rr, d1, d2, d3, d4 = (x.copy() for x in (r, c1, c2, c3, c4))
            part = [rr, d1, d2, d3, d4][mutate]
            # R moves within [-ell, ell]: any other R has no code
            part.flat[0] += -1 if mutate == 0 and part.flat[0] == TINY.ell else 1
            assert canonical_ct_bytes(TINY, rr, d1, d2, d3, d4) != base

    def test_layout_length(self):
        m, t = TINY.m, TINY.t
        blob = canonical_ct_bytes(TINY, *tiny_components())
        assert len(blob) == 40 + 1 * m * m + 8 * (2 * t + 6 * m)

    def test_negative_tag_entries_encode_as_codes(self):
        r, c1, c2, c3, c4 = tiny_components()
        r_neg = r.copy()
        r_neg[0, 0] = -1
        blob = canonical_ct_bytes(TINY, r_neg, c1, c2, c3, c4)
        # first tag code sits right after the 40-byte header: R + ell
        assert blob[40] == TINY.ell - 1

    def test_matches_reference_encoding_on_extreme_words(self):
        # the encoder reduces c1..c4 in place and codes R by a wrapping cast;
        # the reference codes each R entry with int arithmetic, reduces each
        # part with % q and joins the copies, as the layout is specified
        q, ell = TINY.q, TINY.ell
        extremes = np.array([-(1 << 63), (1 << 63) - 1, -q, -q - 1, -1, 0, q - 1, q, 2 * q + 5],
                            dtype=np.int64)
        r, c1, c2, c3, c4 = tiny_components(7)
        r.flat[:] = np.resize(np.arange(-ell, ell + 1), r.size)  # every code
        c3[: extremes.size] = extremes
        want = (struct.pack("<5Q", q, TINY.n, TINY.m, TINY.t, ell)
                + bytes(int(x) + ell for x in r.flat)
                + b"".join((x % q).astype("<u8").tobytes() for x in (c1, c2, c3, c4)))
        got = canonical_ct_bytes(TINY, r, c1, c2, c3, c4)
        assert got == want
        prefix_joined = hashlib.shake_256(b"IBEETFA-Hp" + got).digest(TINY.lambda_bits // 8)
        assert bits_to_bytes(hash_hprime(got, TINY.lambda_bits)) == prefix_joined
        # the extreme words have no code in R: each raises, none wraps
        # (ell + 256 and 256 - ell would wrap onto the codes of ell and -ell)
        outside = (*extremes.tolist(), -ell - 1, ell + 1, ell + 256, 256 - ell)
        for word in [x for x in outside if not -ell <= x <= ell]:
            bad = r.copy()
            bad[1, 1] = word
            assert not tag_in_range(bad, ell)
            with pytest.raises(ParameterError, match="tag matrix"):
                canonical_ct_bytes(TINY, bad, c1, c2, c3, c4)

    def test_code_width(self):
        assert [tag_code_width(ell) for ell in (1, 8, 127, 128, 32767, 32768)] == [1, 1, 1, 2, 2, 4]
        with pytest.raises(ParameterError):
            tag_code_width(1 << 31)
        # two-byte codes are little-endian: -200 + 200 = 0 and 200 + 200 = 400
        wide = dataclasses.replace(TINY, ell=200)
        r, c1, c2, c3, c4 = tiny_components(8)
        r[0, :2] = [-200, 200]
        blob = canonical_ct_bytes(wide, r, c1, c2, c3, c4)
        assert len(blob) == 40 + 2 * TINY.m ** 2 + 8 * (2 * TINY.t + 6 * TINY.m)
        assert blob[40:44] == struct.pack("<2H", 0, 400)
        assert blob[44 : 40 + 2 * TINY.m ** 2] == (r.reshape(-1)[2:] + 200).astype("<u2").tobytes()

    def test_dimension_mismatch(self):
        r, c1, c2, c3, c4 = tiny_components()
        with pytest.raises(DimensionMismatch):
            canonical_ct_bytes(TINY, r[:, :-1], c1, c2, c3, c4)
        with pytest.raises(DimensionMismatch):
            canonical_ct_bytes(TINY, r, c1[:-1], c2, c3, c4)


class TestBitPacking:
    def test_round_trip(self):
        rs = np.random.default_rng(3)
        for nbits in (1, 7, 8, 9, 64, 127):
            bits = rs.integers(0, 2, nbits).astype(np.uint8)
            assert np.array_equal(bytes_to_bits(bits_to_bytes(bits), nbits), bits)

    def test_little_endian_within_byte(self):
        bits = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        assert bits_to_bytes(bits) == b"\x01"
        bits[0], bits[7] = 0, 1
        assert bits_to_bytes(bits) == b"\x80"
