"""Exact modular linear algebra: examples, oracles, and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibeetfa.errors import DimensionMismatch, ParameterError, SingularMatrix
from ibeetfa.samplers import RandomSource
from ibeetfa.trapdoor import derive_trapdoor, trap_gen, trapgen_width
from ibeetfa.zqlinalg import (
    center_rep,
    check_modulus,
    concat_cols,
    exact_int_matmul,
    gram_schmidt_norm,
    int32_matrix,
    is_prime,
    mat_mul,
    solve_mod,
)

from oracles import check_nullspace_basis, exact_gs_norm, master_basis


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


def _largest_prime_below(n):
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


#: 7, 4093, MINI's q, toy's q and the largest supported modulus
_SPLIT_MODULI = (7, 4093, 13_000_000_073, 259_999_999_951, _largest_prime_below(1 << 38))


#: The MINI modulus (tests/conftest.py), a prime above 2**33.
MINI_Q = 13_000_000_073


def _python_product(a, b, q):
    """(a @ b) mod q in Python ints (numpy object arrays), 1-D operands as @ treats them."""
    return np.asarray((np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % q, dtype=np.int64)


class TestOneSidedSplit:
    """mat_mul's one-sided split: the operand with more entries, when short,
    enters float64 as it is and only the other one is split into limbs."""

    @pytest.mark.parametrize("q", _SPLIT_MODULI)
    @pytest.mark.parametrize("k", [1, 7, 1 << 14])
    def test_against_python_ints(self, q, k):
        rs = np.random.default_rng(q % 1000 + k)
        for bits in (1, 10, 19, 26, 38):
            top = (1 << bits) - 1
            big = rs.integers(-top, top + 1, (k, 4))
            big[0, 0], big[-1, -1] = top, -top
            small = rs.integers(-top, top + 1, (3, k))
            small[0, 0] = -top
            residues = rs.integers(0, q, (3, k))
            for a, b in ((small, big), (residues, big), (big.T, small.T), (big.T, residues.T),
                         (residues[0], big), (big.T, residues[0])):
                assert np.array_equal(mat_mul(a, b, q), _python_product(a, b, q)), (bits, a.shape, b.shape)

    @pytest.mark.parametrize("q", _SPLIT_MODULI)
    def test_one_hot_operands(self, q):
        rs = np.random.default_rng(q % 997)
        k = 300
        one_hot = np.zeros((k, 5), dtype=np.int64)
        one_hot[rs.choice(k, 5, replace=False), np.arange(5)] = 1
        residues = rs.integers(0, q, (2, k))
        assert np.array_equal(mat_mul(residues, one_hot, q), _python_product(residues, one_hot, q))
        assert np.array_equal(mat_mul(one_hot.T, residues.T, q), _python_product(one_hot.T, residues.T, q))
        # one-hot rows pick columns, the way A[:, pivots] @ E does
        picks = np.eye(k, dtype=np.int64)[:3]
        wide = rs.integers(0, q, (k, 4))
        assert np.array_equal(mat_mul(picks, wide, q), wide[:3])

    @pytest.mark.parametrize("q", _SPLIT_MODULI)
    @pytest.mark.parametrize("below", [0, 1])
    def test_single_limb_boundary(self, q, below):
        # L = 53 - bitlen(max|g|) - bitlen(k) = bitlen(q - 1) - below: at
        # L = bitlen(q - 1) the residues are one limb (one float64 product,
        # no shift), one bit less takes more limbs or the two-sided split.
        # Every sum is at its extreme: a column of g at -max|g|, a row of
        # residues at q - 1
        bits, k = (q - 1).bit_length(), 300
        top = (1 << (53 - k.bit_length() - bits + below)) - 1
        rs = np.random.default_rng(q % 991 + below)
        g = rs.integers(-top, top + 1, (k, 5))
        g[:, 0] = -top
        residues = rs.integers(0, q, (3, k))
        residues[0] = q - 1
        for a, b in ((residues, g), (g.T, residues.T), (residues[0], g), (g.T, residues[0])):
            assert np.array_equal(mat_mul(a, b, q), _python_product(a, b, q)), (a.shape, b.shape)

    def test_limb_width_is_capped(self):
        # |g| <= 2**10 and k = 2**10 leave 53 - 11 - 11 = 31 bits for a limb;
        # acc << 31 with acc near 2**38 would overflow int64
        q = _SPLIT_MODULI[-1]
        k = 1 << 10
        rs = np.random.default_rng(1038)
        g = rs.integers(-(1 << 10), (1 << 10) + 1, (k, 6))
        g[:, 0] = 1 << 10
        other = np.full((2, k), q - 1, dtype=np.int64)
        other[1] = rs.integers(0, q, k)
        assert np.array_equal(mat_mul(other, g, q), _python_product(other, g, q))
        assert np.array_equal(mat_mul(g.T, other.T, q), _python_product(g.T, other.T, q))


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
        # |R_dd| / ||B|| through the bound.  A trapdoor basis is int32, so
        # _basis_from_preimages refuses a batch past int32 before its QR.
        from ibeetfa import trapdoor
        from ibeetfa.errors import ParameterError, SamplingError
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
                prep, _ = prepare_basis(b, np.zeros((d, 0)))
                accepted = True
            except SingularMatrix:
                accepted = False
            try:
                certified_r_factor(b)
                assert accepted, k
            except SingularMatrix:
                assert not accepted, k
            try:
                got, _ = trapdoor._basis_from_preimages(lambda count: b, np.ones((1, d), dtype=np.int64), 7)
                assert accepted, k
                assert np.array_equal(got.prep.r, prep.r)
            except SamplingError:
                assert not accepted, k
            except ParameterError:
                assert np.abs(b).max() >= 1 << 31, k
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
            assert gram_schmidt_norm(s) == pytest.approx(exact_gs_norm(s), rel=1e-12)

    def test_large_path_agrees_with_oracle(self):
        # a 70 x 70 matrix: the QR's norm keeps its tolerance at a larger size
        rs = np.random.default_rng(11)
        s = rs.integers(-4, 5, (70, 70))
        s += np.eye(70, dtype=np.int64) * 20  # keep it comfortably nonsingular
        assert gram_schmidt_norm(s) == pytest.approx(exact_gs_norm(s), rel=1e-9)

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

    def test_input_checks(self):
        with pytest.raises(DimensionMismatch):
            gram_schmidt_norm(np.zeros((0, 0), dtype=np.int64))
        with pytest.raises(SingularMatrix):
            gram_schmidt_norm(np.ones((2, 3), dtype=np.int64))

    def test_is_the_walks_gs_norm(self, mini_key):
        # the norm the walks sample with (the QR's |R_kk|), on a key basis
        # E'_ID and on a trap_gen basis T_A
        _, sk = mini_key
        assert gram_schmidt_norm(sk.e_id_prime) == sk.trapdoor_prime.prep.gs_norm
        q, n = 4093, 2
        pair = trap_gen(q, n, trapgen_width(n, q), RandomSource(71))
        t_a = master_basis(pair.a, pair.trapdoor)
        assert gram_schmidt_norm(t_a) == derive_trapdoor(pair.a, t_a, q).prep.gs_norm


class TestHelpers:
    def test_exact_int_matmul_split_path(self):
        rs = np.random.default_rng(19)
        a = rs.integers(-(1 << 25), 1 << 25, (8, 8))
        b = rs.integers(-(1 << 25), 1 << 25, (8, 8))
        want = np.array(
            [[sum(int(a[i, k]) * int(b[k, j]) for k in range(8)) for j in range(8)] for i in range(8)]
        )
        assert np.array_equal(exact_int_matmul(a, b), want)

    def test_exact_int_matmul_refuses_the_most_negative_word(self):
        # |-2**63| is no int64: np.abs returns -2**63, which once certified
        # a float product of -2**63 + 5 as -2**63
        for a in ([[-(2**63), 5]], [[5, -(2**63)]]):
            with pytest.raises(DimensionMismatch):
                exact_int_matmul(a, [[1], [1]])
            with pytest.raises(DimensionMismatch):
                exact_int_matmul([[1, 1]], np.array(a).T)
        assert np.array_equal(exact_int_matmul([[-(2**40), 5]], [[1], [1]]), [[-(2**40) + 5]])

    def test_int32_operands_at_the_most_negative_word(self):
        # |-2**31| is no int32 (np.abs returns -2**31), and an int32 product of
        # two 2**19 entries wraps: int32 operands must be read as they are,
        # with magnitudes from _magnitude and products in float64 or int64
        low = -(1 << 31)
        a = np.array([[low, 5, -7], [3, low, 1 << 19]], dtype=np.int32)
        cases = [
            (a, np.array([[1, -2], [1 << 19, 3], [1 << 19, 1]], dtype=np.int32)),  # one float64 product
            (a, np.array([[1 << 28, 1], [-(1 << 28), 7], [5, 1 << 27]], dtype=np.int64)),  # b split
            (np.array([[1 << 28, -(1 << 27)]], dtype=np.int64), np.array([[low], [low]], dtype=np.int32)),  # int32 b split
        ]
        for x, y in cases:
            want = np.asarray(x, dtype=object) @ np.asarray(y, dtype=object)
            got = exact_int_matmul(x, y)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert np.array_equal(mat_mul(x, y, MINI_Q), np.asarray(want % MINI_Q, dtype=np.int64))

    def test_int32_matrix_narrows_in_range_and_refuses_the_rest(self):
        top = 1 << 31
        for value in (top - 1, -top, 0):
            arr = np.array([[value, 1]], dtype=np.int64)
            got = int32_matrix(arr, "E_ID")
            assert got.dtype == np.int32 and got.flags.c_contiguous and got.tolist() == arr.tolist()
        for value in (top, -top - 1, 1 << 62):
            with pytest.raises(ParameterError, match="E_ID holds an entry outside int32"):
                int32_matrix(np.array([[1, value]], dtype=np.int64), "E_ID")
        held = np.arange(6, dtype=np.int32).reshape(2, 3)
        assert int32_matrix(held, "E_ID") is held
        assert int32_matrix(held.T, "E_ID").flags.c_contiguous
        assert int32_matrix(np.zeros((0, 3), dtype=np.int64), "E_ID").shape == (0, 3)

    def test_solve_mod_solutions(self):
        q = 4093
        rs = np.random.default_rng(23)
        for _ in range(20):
            a = rs.integers(0, q, (3, 7))
            b = rs.integers(0, q, (3, 4))
            x = solve_mod(a, b, q)
            assert np.array_equal(mat_mul(a, x, q), b % q)
