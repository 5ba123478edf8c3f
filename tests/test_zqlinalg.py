"""Exact modular linear algebra: examples, oracles, and properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibeetfa.errors import DimensionMismatch, ParameterError, SingularMatrix
from ibeetfa.zqlinalg import (
    center_rep,
    check_modulus,
    check_nullspace_basis,
    concat_cols,
    exact_int_matmul,
    gram_schmidt_norm,
    is_prime,
    mat_mul,
    mulmod,
    solve_mod,
)


def schoolbook_mod(a, b, q):
    """Independent reference multiplier in arbitrary-precision ints."""
    a = [[int(x) for x in row] for row in a]
    b = [[int(x) for x in row] for row in b]
    rows, inner, cols = len(a), len(b), len(b[0])
    return np.array(
        [
            [sum(a[i][k] * b[k][j] for k in range(inner)) % q for j in range(cols)]
            for i in range(rows)
        ],
        dtype=np.int64,
    )


def gs_norm_fraction_oracle(s):
    """Plain rational Gram-Schmidt over the columns, fully independent."""
    cols = [[Fraction(int(x)) for x in s[:, j]] for j in range(s.shape[1])]
    done = []
    best = Fraction(0)
    for v in cols:
        w = list(v)
        for u in done:
            n2 = sum(x * x for x in u)
            coeff = sum(x * y for x, y in zip(w, u)) / n2
            w = [x - coeff * y for x, y in zip(w, u)]
        done.append(w)
        best = max(best, sum(x * x for x in w))
    return float(best) ** 0.5


class TestModulus:
    def test_small_primes_accepted(self):
        for q in (3, 7, 4093, 1048583):
            assert check_modulus(q) == q

    def test_rejects_even_small_composite(self):
        for bad in (1, 2, 4, 9, 15, 4095):
            with pytest.raises(ParameterError):
                check_modulus(bad)

    def test_rejects_oversized(self):
        with pytest.raises(ParameterError):
            check_modulus((1 << 38) + 7)

    def test_is_prime_spot_checks(self):
        assert is_prime(2) and is_prime(4093) and is_prime(34359738421)
        assert not is_prime(4095) and not is_prime(1)


class TestMatMul:
    def test_identity_case(self):
        a = [[1, 2], [3, 4]]
        out = mat_mul(a, np.eye(2, dtype=np.int64), 7)
        assert np.array_equal(out, [[1, 2], [3, 4]])

    def test_scalar_reduction(self):
        assert mat_mul([[3]], [[5]], 7)[0, 0] == 1  # 15 mod 7

    def test_against_schoolbook_random(self):
        rs = np.random.default_rng(20240817)
        q = 4093
        for _ in range(20):
            a = rs.integers(0, q, (4, 4))
            b = rs.integers(0, q, (4, 4))
            assert np.array_equal(mat_mul(a, b, q), schoolbook_mod(a, b, q))

    def test_rational_inverse_round_trip(self):
        # random invertible 4x4, multiplied by its rounded rational inverse,
        # checked against the schoolbook reference on the same operands
        rs = np.random.default_rng(7)
        q = 4093
        while True:
            a = rs.integers(0, q, (4, 4))
            try:
                inv = np.linalg.inv(np.asarray(a, dtype=float))
            except np.linalg.LinAlgError:
                continue
            if abs(np.linalg.det(np.asarray(a, dtype=float))) > 1:
                break
        b = np.rint(inv * 4093 * 17).astype(np.int64) % q
        assert np.array_equal(mat_mul(a, b, q), schoolbook_mod(a, b % q, q))

    def test_large_modulus_exactness(self):
        # products near the 38-bit modulus would overflow a naive int64 path
        q = 137438953481  # prime just above 2**37
        rs = np.random.default_rng(3)
        a = rs.integers(0, q, (3, 5))
        b = rs.integers(0, q, (5, 2))
        assert np.array_equal(mat_mul(a, b, q), schoolbook_mod(a, b, q))

    def test_signed_right_operand(self):
        q = 101
        a = np.array([[2, 3]], dtype=np.int64)
        b = np.array([[-1], [5]], dtype=np.int64)
        assert mat_mul(a, b, q)[0, 0] == (-2 + 15) % q

    def test_vector_rhs(self):
        q = 97
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        v = np.array([5, 6], dtype=np.int64)
        assert np.array_equal(mat_mul(a, v, q), [17, 39])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_mul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 2), dtype=np.int64), 7)

    def test_associative_and_distributive_small(self):
        rs = np.random.default_rng(99)
        q = 251
        for _ in range(100):
            dims = rs.integers(1, 9, 4)
            a = rs.integers(0, q, (dims[0], dims[1]))
            b = rs.integers(0, q, (dims[1], dims[2]))
            c = rs.integers(0, q, (dims[2], dims[3]))
            d = rs.integers(0, q, (dims[1], dims[2]))
            left = mat_mul(mat_mul(a, b, q), c, q)
            right = mat_mul(a, mat_mul(b, c, q), q)
            assert np.array_equal(left, right)
            dist = mat_mul(a, (b + d) % q, q)
            assert np.array_equal(dist, (mat_mul(a, b, q) + mat_mul(a, d, q)) % q)


class TestConcat:
    def test_left_block_preserved(self):
        a = np.arange(6, dtype=np.int64).reshape(2, 3)
        b = np.arange(6, 12, dtype=np.int64).reshape(2, 3)
        out = concat_cols([a, b])
        assert out.shape == (2, 6)
        assert np.array_equal(out[:, :3], a)

    def test_three_blocks_shape(self):
        # the encryption pipeline stacks (n x 2m) with (n x m) into n x 3m
        n, m = 2, 4
        f = np.zeros((n, 2 * m), dtype=np.int64)
        ar = np.ones((n, m), dtype=np.int64)
        assert concat_cols([f, ar]).shape == (n, 3 * m)

    def test_singleton(self):
        a = np.ones((3, 2), dtype=np.int64)
        assert np.array_equal(concat_cols([a]), a)

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            concat_cols([np.zeros((2, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)])


class TestCenterRep:
    def test_frozen_examples(self):
        assert center_rep(np.array([6]), 7)[0] == -1
        assert center_rep(np.array([3]), 7)[0] == 3
        assert center_rep(np.array([2047]), 4093)[0] == -2046

    @given(st.integers(min_value=0, max_value=4092))
    @settings(max_examples=60, deadline=None)
    def test_congruent_and_bounded(self, x):
        q = 4093
        c = int(center_rep(np.array([x]), q)[0])
        assert c % q == x
        assert abs(c) <= q // 2


class TestNullspaceCheck:
    def test_hand_example_true(self):
        q = 7
        f = np.array([[1, 1]], dtype=np.int64)
        s = np.array([[q - 1, 0], [1, q]], dtype=np.int64)
        assert check_nullspace_basis(f, s, q)

    def test_identity_not_in_nullspace(self):
        f = np.array([[1, 0]], dtype=np.int64)
        assert not check_nullspace_basis(f, np.eye(2, dtype=np.int64), 7)

    def test_singular_candidate_rejected(self):
        q = 7
        f = np.array([[0, 0]], dtype=np.int64)
        s = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert not check_nullspace_basis(f, s, q)

    def test_zero_product_follows(self):
        q = 11
        f = np.array([[3, 5, 1]], dtype=np.int64)
        s = np.array([[q, 0, 1], [0, q, 1], [0, 0, 3]], dtype=np.int64)
        if check_nullspace_basis(f, s, q):
            assert not np.any(mat_mul(f, s, q))

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            check_nullspace_basis(np.zeros((1, 3), dtype=np.int64), np.eye(2, dtype=np.int64), 7)


class TestNonsingularityThreshold:
    def test_certificate_passes_exactly_when_prepare_basis_accepts(self):
        # The certificate is the factorization: _basis_from_preimages accepts
        # a batch exactly when prepare_basis factors it, and keeps that R; the
        # float branch of is_nonsingular draws the line at the same place.
        # The last column approaches 2**k times the first, which walks
        # |R_dd| / ||B|| through the bound.
        from ibeetfa import trapdoor
        from ibeetfa.errors import SamplingError
        from ibeetfa.samplers import prepare_basis
        from ibeetfa.zqlinalg import certified_r_factor

        d = 80
        rng = np.random.default_rng(5)
        base = rng.integers(-50, 51, (d, d)) + 200 * np.eye(d, dtype=np.int64)
        seen = set()
        for k in range(0, 52):
            b = base.copy()
            b[:, -1] = (1 << k) * base[:, 0] + rng.integers(-3, 4, d)
            try:
                prep = prepare_basis(b)
                accepted = True
            except SingularMatrix:
                accepted = False
            try:
                certified_r_factor(b)
                assert accepted, k
            except SingularMatrix:
                assert not accepted, k
            try:
                got, _ = trapdoor._basis_from_preimages(lambda count: b, d, 4093, retries=1)
                assert accepted, k
                assert np.array_equal(got.prepared().r_rows, prep.r_rows)
            except SamplingError:
                assert not accepted, k
            seen.add(accepted)
        assert seen == {True, False}


class TestGramSchmidtNorm:
    def test_orthonormal(self):
        assert gram_schmidt_norm(np.eye(3, dtype=np.int64)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert gram_schmidt_norm(np.diag([2, 3]).astype(np.int64)) == pytest.approx(3.0)

    def test_shear_columns(self):
        s = np.array([[1, 1], [0, 1]], dtype=np.int64)
        assert gram_schmidt_norm(s) == pytest.approx(1.0)

    def test_matches_fraction_oracle(self):
        rs = np.random.default_rng(5)
        for _ in range(10):
            s = rs.integers(-9, 10, (6, 6))
            if abs(np.linalg.det(s.astype(float))) < 0.5:
                continue
            assert gram_schmidt_norm(s) == pytest.approx(gs_norm_fraction_oracle(s), rel=1e-12)

    def test_large_path_agrees_with_oracle(self):
        # force the extended-precision path (more than 64 columns)
        rs = np.random.default_rng(11)
        s = rs.integers(-4, 5, (70, 70))
        s += np.eye(70, dtype=np.int64) * 20  # keep it comfortably nonsingular
        assert gram_schmidt_norm(s) == pytest.approx(gs_norm_fraction_oracle(s), rel=1e-9)

    def test_bounded_by_max_column_norm(self):
        rs = np.random.default_rng(13)
        for _ in range(10):
            s = rs.integers(-20, 21, (5, 5))
            if abs(np.linalg.det(s.astype(float))) < 0.5:
                continue
            colmax = max(np.linalg.norm(s[:, j]) for j in range(5))
            assert gram_schmidt_norm(s) <= colmax + 1e-9

    def test_rank_deficient_rejected(self):
        s = np.array([[1, 2], [2, 4]], dtype=np.int64)
        with pytest.raises(SingularMatrix):
            gram_schmidt_norm(s)


class TestHelpers:
    def test_mulmod_matches_python(self):
        q = 274877906899  # a 38-bit prime
        rs = np.random.default_rng(17)
        a = rs.integers(0, q, 50)
        b = rs.integers(0, q, 50)
        got = mulmod(a, b, q)
        want = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert got.tolist() == want

    def test_exact_int_matmul_split_path(self):
        rs = np.random.default_rng(19)
        a = rs.integers(-(1 << 25), 1 << 25, (8, 8))
        b = rs.integers(-(1 << 25), 1 << 25, (8, 8))
        want = np.array(
            [[sum(int(a[i, k]) * int(b[k, j]) for k in range(8)) for j in range(8)] for i in range(8)]
        )
        assert np.array_equal(exact_int_matmul(a, b), want)

    def test_solve_mod_solutions(self):
        q = 4093
        rs = np.random.default_rng(23)
        for _ in range(20):
            a = rs.integers(0, q, (3, 7))
            b = rs.integers(0, q, (3, 4))
            x = solve_mod(a, b, q)
            assert np.array_equal(mat_mul(a, x, q), b % q)
