"""Trapdoor generation and preimage/basis sampling."""

import math

import numpy as np
import pytest

from ibeetfa.errors import ParameterError, SamplingError
from ibeetfa.samplers import RandomSource, slack_factor
from ibeetfa.trapdoor import (
    SIGN_OPNORM_CONSTANT,
    TrapdoorBasis,
    bound_gs,
    derive_gadget_aux,
    operator_norm,
    sample_basis_left,
    sample_basis_right,
    sample_left,
    sample_pre,
    sample_right,
    trap_gen,
    trapgen_width,
    verify_trapdoor,
)
from ibeetfa.zqlinalg import (
    check_nullspace_basis,
    concat_cols,
    gram_schmidt_norm,
    is_nonsingular,
    mat_mul,
)

Q_SMALL = 4093


def small_pair(seed=0, q=Q_SMALL, n=2):
    m = trapgen_width(n, q)
    return trap_gen(q, n, m, RandomSource(seed)), q, n, m


class TestTrapGen:
    def test_tiny_instance_is_valid_basis(self):
        pair = trap_gen(7, 1, 18, RandomSource(3))
        assert check_nullspace_basis(pair.a, pair.trapdoor.basis, 7)

    def test_gs_norm_within_declared_bound(self):
        q, n = Q_SMALL, 4
        m = trapgen_width(n, q)
        limit = bound_gs(n, q)
        for i in range(20):
            pair = trap_gen(q, n, m, RandomSource(100 + i))
            assert pair.gs_norm <= limit

    def test_width_constraint_enforced(self):
        with pytest.raises(ParameterError):
            trap_gen(7, 1, 2, RandomSource(0))

    def test_gs_norm_field_matches_recomputation(self):
        pair, q, _, _ = small_pair(5)
        assert pair.gs_norm == pytest.approx(gram_schmidt_norm(pair.trapdoor.basis), rel=1e-9)

    def test_deterministic_under_seed(self):
        a = trap_gen(Q_SMALL, 2, trapgen_width(2, Q_SMALL), RandomSource(7))
        b = trap_gen(Q_SMALL, 2, trapgen_width(2, Q_SMALL), RandomSource(7))
        assert np.array_equal(a.a, b.a) and np.array_equal(a.trapdoor.basis, b.trapdoor.basis)

    def test_matrix_statistics_roughly_uniform(self):
        pair, q, _, _ = small_pair(11)
        mean = pair.a.mean()
        assert abs(mean - (q - 1) / 2) < 0.05 * q

    def test_verify_trapdoor_full_check(self):
        pair, q, _, _ = small_pair(13)
        assert verify_trapdoor(pair, q)

    def test_aux_recoverable_from_matrices(self):
        pair, q, _, _ = small_pair(17)
        aux = derive_gadget_aux(pair.a, pair.trapdoor.basis, q)
        assert aux is not None
        assert np.array_equal(aux.r_bar, pair.trapdoor.gadget_aux(pair.a, q).r_bar)


class TestSamplePre:
    def test_zero_target_stays_in_lattice(self):
        pair, q, n, m = small_pair(19)
        rng = RandomSource(23)
        sigma = pair.gs_norm * slack_factor(m) * 1.05
        e = sample_pre(pair.a, pair.trapdoor, np.zeros(n, dtype=np.int64), q, sigma, rng)
        assert not np.any(mat_mul(pair.a, e, q))
        assert np.any(e)  # a lattice point, but not forced to be zero

    def test_random_targets_congruence(self):
        pair, q, n, m = small_pair(29)
        rng = RandomSource(31)
        sigma = pair.gs_norm * slack_factor(m) * 1.05
        targets = RandomSource(37).integers(0, q, (n, 1000))
        e = sample_pre(pair.a, pair.trapdoor, targets, q, sigma, rng)
        assert np.array_equal(mat_mul(pair.a, e, q), targets)

    def test_norm_tail(self):
        pair, q, n, m = small_pair(41)
        rng = RandomSource(43)
        sigma = pair.gs_norm * slack_factor(m) * 1.05
        targets = RandomSource(47).integers(0, q, (n, 1000))
        e = sample_pre(pair.a, pair.trapdoor, targets, q, sigma, rng)
        norms = np.linalg.norm(e.astype(float), axis=0)
        assert (norms <= 2 * sigma * math.sqrt(m)).mean() >= 0.99

    def test_sigma_floor_enforced(self):
        pair, q, n, m = small_pair(53)
        with pytest.raises(SamplingError):
            sample_pre(pair.a, pair.trapdoor, np.zeros(n, dtype=np.int64), q, 0.5, RandomSource(1))

    def test_generic_path_without_gadget_structure(self):
        # shuffle the basis columns so the gadget layout is unrecognizable;
        # the generic mod-q solve path must still produce valid preimages
        pair, q, n, m = small_pair(59)
        perm = RandomSource(61).integers(0, 1 << 30, m).argsort()
        shuffled = np.ascontiguousarray(pair.trapdoor.basis[:, perm])
        # reordering columns changes the Gram-Schmidt profile
        sigma = gram_schmidt_norm(shuffled) * slack_factor(m) * 1.05
        u = RandomSource(67).integers(0, q, (n, 8))
        e = sample_pre(pair.a, TrapdoorBasis(shuffled), u, q, sigma, RandomSource(71))
        assert np.array_equal(mat_mul(pair.a, e, q), u)


class TestSampleLeft:
    def test_zero_target(self):
        pair, q, n, m = small_pair(73)
        m1 = 8
        mblk = RandomSource(79).integers(0, q, (n, m1))
        sigma = pair.gs_norm * slack_factor(m + m1) * 1.05
        e = sample_left(pair.a, mblk, pair.trapdoor, np.zeros(n, dtype=np.int64), q, sigma, RandomSource(83))
        f1 = concat_cols([pair.a, mblk])
        assert not np.any(mat_mul(f1, e, q))

    def test_toy_instance_exhaustive_congruence(self):
        pair7 = trap_gen(7, 1, 18, RandomSource(87))
        mblk = RandomSource(89).integers(0, 7, (1, 4))
        sigma = pair7.gs_norm * slack_factor(22) * 1.05
        u = np.arange(7, dtype=np.int64).reshape(1, -1)  # every residue target
        e = sample_left(pair7.a, mblk, pair7.trapdoor, u, 7, sigma, RandomSource(97))
        f1 = concat_cols([pair7.a, mblk])
        assert np.array_equal(mat_mul(f1, e, 7), u)

    def test_column_norms(self):
        pair, q, n, m = small_pair(101)
        m1 = m
        mblk = RandomSource(103).integers(0, q, (n, m1))
        sigma = pair.gs_norm * slack_factor(m + m1) * 1.05
        u = RandomSource(107).integers(0, q, (n, 200))
        e = sample_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(109))
        norms = np.linalg.norm(e.astype(float), axis=0)
        assert (norms <= 2 * sigma * math.sqrt(m + m1)).mean() >= 0.99

    def test_vector_target(self):
        pair, q, n, m = small_pair(113)
        mblk = RandomSource(127).integers(0, q, (n, 6))
        sigma = pair.gs_norm * slack_factor(m + 6) * 1.05
        u = RandomSource(131).integers(0, q, n)
        e = sample_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(137))
        assert e.ndim == 1
        assert np.array_equal(mat_mul(concat_cols([pair.a, mblk]), e, q), u)


class TestSampleRight:
    def test_zero_and_random_targets(self):
        pairb, q, n, m = small_pair(139)
        a = RandomSource(149).integers(0, q, (n, m))
        r = RandomSource(151).integers(0, 2, (m, m)) * 2 - 1
        s_r = operator_norm(r)
        sigma = pairb.gs_norm * s_r * slack_factor(m) * 1.05
        f2 = concat_cols([a, (mat_mul(a, r, q) + pairb.a) % q])
        zero = np.zeros(n, dtype=np.int64)
        e0 = sample_right(a, pairb.a, r, pairb.trapdoor, zero, q, sigma, RandomSource(157))
        assert not np.any(mat_mul(f2, e0, q))
        u = RandomSource(163).integers(0, q, (n, 100))
        e = sample_right(a, pairb.a, r, pairb.trapdoor, u, q, sigma, RandomSource(167))
        assert np.array_equal(mat_mul(f2, e, q), u)

    def test_sign_matrix_operator_norm_constant(self):
        # measured spectral norms of square sign matrices against the
        # declared C * sqrt(m) bound
        for m in (64, 128, 256):
            for i in range(20 if m == 64 else 5):
                r = RandomSource(1000 * m + i).integers(0, 2, (m, m)) * 2 - 1
                assert operator_norm(r) < SIGN_OPNORM_CONSTANT * math.sqrt(m)

    def test_sigma_floor_uses_operator_norm(self):
        pairb, q, n, m = small_pair(173)
        a = RandomSource(179).integers(0, q, (n, m))
        r = RandomSource(181).integers(0, 2, (m, m)) * 2 - 1
        with pytest.raises(SamplingError):
            sample_right(a, pairb.a, r, pairb.trapdoor, np.zeros(n, dtype=np.int64), q,
                         pairb.gs_norm * 2, RandomSource(191))


class TestBasisSampling:
    def test_basis_left_many_trials_tiny_instance(self):
        # 50 independent bases on a minimal instance, all exact nullspace bases
        q, n = 4093, 1
        m = trapgen_width(n, q)
        pair = trap_gen(q, n, m, RandomSource(401))
        mblk = RandomSource(403).integers(0, q, (n, m))
        sigma = pair.gs_norm * slack_factor(2 * m) * 1.05
        f1 = concat_cols([pair.a, mblk])
        good = 0
        for i in range(50):
            basis = sample_basis_left(pair.a, mblk, pair.trapdoor, q, sigma, RandomSource(500 + i)).basis
            good += int(check_nullspace_basis(f1, basis, q))
        assert good == 50

    def test_basis_left_passes_nullspace_check(self):
        pair, q, n, m = small_pair(193)
        mblk = RandomSource(197).integers(0, q, (n, m))
        sigma = pair.gs_norm * slack_factor(2 * m) * 1.05
        for i in range(3):
            basis = sample_basis_left(pair.a, mblk, pair.trapdoor, q, sigma, RandomSource(199 + i)).basis
            f1 = concat_cols([pair.a, mblk])
            assert check_nullspace_basis(f1, basis, q)

    def test_basis_left_gs_norm_bounded(self):
        pair, q, n, m = small_pair(211)
        mblk = RandomSource(223).integers(0, q, (n, m))
        sigma = pair.gs_norm * slack_factor(2 * m) * 1.05
        basis = sample_basis_left(pair.a, mblk, pair.trapdoor, q, sigma, RandomSource(227)).basis
        assert gram_schmidt_norm(basis) <= 2 * sigma * math.sqrt(2 * m)

    def test_basis_left_full_rank(self):
        pair, q, n, m = small_pair(229)
        mblk = RandomSource(233).integers(0, q, (n, m))
        sigma = pair.gs_norm * slack_factor(2 * m) * 1.05
        basis = sample_basis_left(pair.a, mblk, pair.trapdoor, q, sigma, RandomSource(239)).basis
        assert basis.shape == (2 * m, 2 * m)
        assert is_nonsingular(basis)

    def test_basis_right_nullspace_and_rank(self):
        pairb, q, n, m = small_pair(241)
        a = RandomSource(251).integers(0, q, (n, m))
        r = RandomSource(257).integers(0, 2, (m, m)) * 2 - 1
        sigma = pairb.gs_norm * operator_norm(r) * slack_factor(2 * m) * 1.05
        basis = sample_basis_right(a, pairb.a, r, pairb.trapdoor, q, sigma, RandomSource(263)).basis
        f2 = concat_cols([a, (mat_mul(a, r, q) + pairb.a) % q])
        assert check_nullspace_basis(f2, basis, q)

    def test_basis_right_reproducible(self):
        pairb, q, n, m = small_pair(269)
        a = RandomSource(271).integers(0, q, (n, m))
        r = RandomSource(277).integers(0, 2, (m, m)) * 2 - 1
        sigma = pairb.gs_norm * operator_norm(r) * slack_factor(2 * m) * 1.05
        b1 = sample_basis_right(a, pairb.a, r, pairb.trapdoor, q, sigma, RandomSource(281))
        b2 = sample_basis_right(a, pairb.a, r, pairb.trapdoor, q, sigma, RandomSource(281))
        assert np.array_equal(b1.basis, b2.basis)

    def test_delegation_closure(self):
        # a basis from sample_basis_left serves as the trapdoor for a further
        # extension, and the congruence survives the second hop
        pair, q, n, m = small_pair(283)
        mblk = RandomSource(293).integers(0, q, (n, m))
        sigma = pair.gs_norm * slack_factor(2 * m) * 1.05
        basis = sample_basis_left(pair.a, mblk, pair.trapdoor, q, sigma, RandomSource(307))
        f1 = concat_cols([pair.a, mblk])
        ext = RandomSource(311).integers(0, q, (n, m))
        u = RandomSource(313).integers(0, q, (n, 5))
        e = sample_left(f1, ext, basis, u, q, sigma, RandomSource(317), enforce_sigma=False)
        assert np.array_equal(mat_mul(concat_cols([f1, ext]), e, q), u)


@pytest.mark.parametrize(
    "sampler", ["sample_pre", "sample_left", "sample_right", "sample_basis_left", "sample_basis_right"]
)
def test_raw_array_trapdoor_rejected(sampler):
    # every sampler takes a TrapdoorBasis; a bare basis array is not converted
    pair, q, n, m = small_pair(331)
    raw = pair.trapdoor.basis
    a = RandomSource(337).integers(0, q, (n, m))
    r = RandomSource(347).integers(0, 2, (m, m)) * 2 - 1
    u = np.zeros(n, dtype=np.int64)
    rng = RandomSource(349)
    calls = {
        "sample_pre": lambda: sample_pre(pair.a, raw, u, q, 1e6, rng),
        "sample_left": lambda: sample_left(pair.a, a, raw, u, q, 1e6, rng),
        "sample_right": lambda: sample_right(a, pair.a, r, raw, u, q, 1e6, rng),
        "sample_basis_left": lambda: sample_basis_left(pair.a, a, raw, q, 1e6, rng),
        "sample_basis_right": lambda: sample_basis_right(a, pair.a, r, raw, q, 1e6, rng),
    }
    with pytest.raises(TypeError):
        calls[sampler]()
