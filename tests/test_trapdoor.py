"""Trapdoor generation and preimage/basis sampling."""

import math

import numpy as np
import pytest

from ibeetfa import trapdoor
from ibeetfa.errors import DimensionMismatch, ParameterError, SamplingError
from ibeetfa.samplers import RandomSource, slack_factor
from ibeetfa.trapdoor import (
    SIGN_OPNORM_CONSTANT,
    TrapdoorBasis,
    bound_gs,
    derive_gadget_aux,
    operator_norm,
    sample_basis_left,
    sample_left,
    trap_gen,
    trapgen_width,
)
from ibeetfa.zqlinalg import (
    center_rep,
    check_nullspace_basis,
    concat_cols,
    gram_schmidt_norm,
    is_nonsingular,
    mat_mul,
    solve_mod,
)

from conftest import CallCounter

Q_SMALL = 4093


def small_pair(seed=0, q=Q_SMALL, n=2):
    m = trapgen_width(n, q)
    return trap_gen(q, n, m, RandomSource(seed)), q, n, m


def basis_gs_norm(pair):
    return gram_schmidt_norm(pair.trapdoor.basis)


def preimages_under_a(a, td, u, q, sigma, rng):
    """SamplePre: sample_left with an empty M block."""
    return sample_left(a, np.zeros((a.shape[0], 0), dtype=np.int64), td, u, q, sigma, rng)


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
            assert basis_gs_norm(pair) <= limit

    def test_width_constraint_enforced(self):
        with pytest.raises(ParameterError):
            trap_gen(7, 1, 2, RandomSource(0))

    def test_deterministic_under_seed(self):
        a = trap_gen(Q_SMALL, 2, trapgen_width(2, Q_SMALL), RandomSource(7))
        b = trap_gen(Q_SMALL, 2, trapgen_width(2, Q_SMALL), RandomSource(7))
        assert np.array_equal(a.a, b.a) and np.array_equal(a.trapdoor.basis, b.trapdoor.basis)

    def test_matrix_statistics_roughly_uniform(self):
        pair, q, _, _ = small_pair(11)
        mean = pair.a.mean()
        assert abs(mean - (q - 1) / 2) < 0.05 * q

    def test_full_nullspace_check(self):
        pair, q, _, _ = small_pair(13)
        assert check_nullspace_basis(pair.a, pair.trapdoor.basis, q)

    def test_aux_recoverable_from_matrices(self):
        # the basis's coset map takes the gadget path: W = [Rbar; I]
        pair, q, n, m = small_pair(17)
        aux = derive_gadget_aux(pair.a, pair.trapdoor.basis, q)
        assert aux is not None
        cmap = pair.trapdoor.coset_map(pair.a, q)
        assert cmap.k == aux.k and cmap.elim is None
        assert np.array_equal(cmap.w, np.vstack([aux.r_bar, np.eye(m - aux.m_bar, dtype=np.int64)]))


class TestSamplePre:
    """Preimages under A alone: sample_left with an empty M block."""

    def test_zero_target_stays_in_lattice(self):
        pair, q, n, m = small_pair(19)
        rng = RandomSource(23)
        sigma = basis_gs_norm(pair) * slack_factor(m) * 1.05
        e = preimages_under_a(pair.a, pair.trapdoor, np.zeros((n, 1), dtype=np.int64), q, sigma, rng)
        assert not np.any(mat_mul(pair.a, e, q))
        assert np.any(e)  # a lattice point, but not forced to be zero

    def test_random_targets_congruence(self):
        pair, q, n, m = small_pair(29)
        rng = RandomSource(31)
        sigma = basis_gs_norm(pair) * slack_factor(m) * 1.05
        targets = RandomSource(37).integers(0, q, (n, 1000))
        e = preimages_under_a(pair.a, pair.trapdoor, targets, q, sigma, rng)
        assert np.array_equal(mat_mul(pair.a, e, q), targets)

    def test_norm_tail(self):
        pair, q, n, m = small_pair(41)
        rng = RandomSource(43)
        sigma = basis_gs_norm(pair) * slack_factor(m) * 1.05
        targets = RandomSource(47).integers(0, q, (n, 1000))
        e = preimages_under_a(pair.a, pair.trapdoor, targets, q, sigma, rng)
        norms = np.linalg.norm(e.astype(float), axis=0)
        assert (norms <= 2 * sigma * math.sqrt(m)).mean() >= 0.99

    def test_sigma_floor_enforced(self):
        pair, q, n, m = small_pair(53)
        with pytest.raises(SamplingError):
            preimages_under_a(pair.a, pair.trapdoor, np.zeros((n, 1), dtype=np.int64), q, 0.5, RandomSource(1))

    def test_generic_path_without_gadget_structure(self):
        # shuffle the basis columns so the gadget layout is unrecognizable;
        # the generic mod-q solve path must still produce valid preimages
        pair, q, n, m = small_pair(59)
        perm = RandomSource(61).integers(0, 1 << 30, m).argsort()
        shuffled = np.ascontiguousarray(pair.trapdoor.basis[:, perm])
        # reordering columns changes the Gram-Schmidt profile
        sigma = gram_schmidt_norm(shuffled) * slack_factor(m) * 1.05
        u = RandomSource(67).integers(0, q, (n, 8))
        e = preimages_under_a(pair.a, TrapdoorBasis(shuffled), u, q, sigma, RandomSource(71))
        assert np.array_equal(mat_mul(pair.a, e, q), u)


class TestSampleLeft:
    def test_zero_target(self):
        pair, q, n, m = small_pair(73)
        m1 = 8
        mblk = RandomSource(79).integers(0, q, (n, m1))
        sigma = basis_gs_norm(pair) * slack_factor(m + m1) * 1.05
        e = sample_left(pair.a, mblk, pair.trapdoor, np.zeros((n, 1), dtype=np.int64), q, sigma, RandomSource(83))
        f1 = concat_cols([pair.a, mblk])
        assert not np.any(mat_mul(f1, e, q))

    def test_toy_instance_exhaustive_congruence(self):
        pair7 = trap_gen(7, 1, 18, RandomSource(87))
        mblk = RandomSource(89).integers(0, 7, (1, 4))
        sigma = basis_gs_norm(pair7) * slack_factor(22) * 1.05
        u = np.arange(7, dtype=np.int64).reshape(1, -1)  # every residue target
        e = sample_left(pair7.a, mblk, pair7.trapdoor, u, 7, sigma, RandomSource(97))
        f1 = concat_cols([pair7.a, mblk])
        assert np.array_equal(mat_mul(f1, e, 7), u)

    def test_column_norms(self):
        pair, q, n, m = small_pair(101)
        m1 = m
        mblk = RandomSource(103).integers(0, q, (n, m1))
        sigma = basis_gs_norm(pair) * slack_factor(m + m1) * 1.05
        u = RandomSource(107).integers(0, q, (n, 200))
        e = sample_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(109))
        norms = np.linalg.norm(e.astype(float), axis=0)
        assert (norms <= 2 * sigma * math.sqrt(m + m1)).mean() >= 0.99

    def test_every_column_checked(self, monkeypatch):
        # one wrong entry in any column of the draw is caught, not only in
        # an evenly spaced subset of the columns
        pair, q, n, m = small_pair(113)
        mblk = RandomSource(127).integers(0, q, (n, 6))
        sigma = basis_gs_norm(pair) * slack_factor(m + 6) * 1.05
        u = RandomSource(131).integers(0, q, (n, 64))
        draw = trapdoor._preimage_batch

        def corrupted(*args):
            e = draw(*args)
            e[0, 3] += 1
            return e

        monkeypatch.setattr(trapdoor, "_preimage_batch", corrupted)
        with pytest.raises(SamplingError):
            sample_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(137))

    def test_vector_target_rejected(self):
        pair, q, n, m = small_pair(139)
        mblk = RandomSource(149).integers(0, q, (n, 6))
        with pytest.raises(DimensionMismatch):
            sample_left(pair.a, mblk, pair.trapdoor, np.zeros(n, dtype=np.int64), q, 1e6, RandomSource(151))


class TestSampleRight:
    """The s_R bound on sign matrices behind the SampleRight term of the sigma floor in params."""

    def test_sign_matrix_operator_norm_constant(self):
        # measured spectral norms of square sign matrices against the
        # declared C * sqrt(m) bound
        for m in (64, 128, 256):
            for i in range(20 if m == 64 else 5):
                r = RandomSource(1000 * m + i).integers(0, 2, (m, m)) * 2 - 1
                assert operator_norm(r) < SIGN_OPNORM_CONSTANT * math.sqrt(m)


def basis_only(pair, mblk, q, sigma, seed):
    """The basis that sample_basis_left draws next to the preimage of one zero target."""
    u = np.zeros((mblk.shape[0], 1), dtype=np.int64)
    return sample_basis_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(seed))[0]


class TestBasisSampling:
    def test_basis_left_many_trials_tiny_instance(self):
        # 50 independent bases on a minimal instance, all exact nullspace bases
        q, n = 4093, 1
        m = trapgen_width(n, q)
        pair = trap_gen(q, n, m, RandomSource(401))
        mblk = RandomSource(403).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        f1 = concat_cols([pair.a, mblk])
        good = 0
        for i in range(50):
            basis = basis_only(pair, mblk, q, sigma, 500 + i).basis
            good += int(check_nullspace_basis(f1, basis, q))
        assert good == 50

    def test_basis_left_passes_nullspace_check(self):
        pair, q, n, m = small_pair(193)
        mblk = RandomSource(197).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        for i in range(3):
            basis = basis_only(pair, mblk, q, sigma, 199 + i).basis
            f1 = concat_cols([pair.a, mblk])
            assert check_nullspace_basis(f1, basis, q)

    def test_basis_left_gs_norm_bounded(self):
        pair, q, n, m = small_pair(211)
        mblk = RandomSource(223).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        basis = basis_only(pair, mblk, q, sigma, 227).basis
        assert gram_schmidt_norm(basis) <= 2 * sigma * math.sqrt(2 * m)

    def test_basis_left_full_rank(self):
        pair, q, n, m = small_pair(229)
        mblk = RandomSource(233).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        basis = basis_only(pair, mblk, q, sigma, 239).basis
        assert basis.shape == (2 * m, 2 * m)
        assert is_nonsingular(basis)

    def test_basis_left_with_targets(self):
        # the same draws give the basis and exact preimages of every target column
        pair, q, n, m = small_pair(241)
        mblk = RandomSource(251).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        u = RandomSource(257).integers(0, q, (n, 5))
        basis, e = sample_basis_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(263))
        f1 = concat_cols([pair.a, mblk])
        assert check_nullspace_basis(f1, basis.basis, q)
        assert e.shape == (2 * m, 5)
        assert np.array_equal(mat_mul(f1, e, q), u)
        assert (np.linalg.norm(e.astype(float), axis=0) <= sigma * math.sqrt(2 * m)).all()

    def test_delegation_closure(self):
        # a basis from sample_basis_left serves as the trapdoor for a further
        # extension, and the congruence survives the second hop
        pair, q, n, m = small_pair(283)
        mblk = RandomSource(293).integers(0, q, (n, m))
        sigma = basis_gs_norm(pair) * slack_factor(2 * m) * 1.05
        basis = basis_only(pair, mblk, q, sigma, 307)
        f1 = concat_cols([pair.a, mblk])
        ext = RandomSource(311).integers(0, q, (n, m))
        u = RandomSource(313).integers(0, q, (n, 5))
        e = sample_left(f1, ext, basis, u, q, sigma, RandomSource(317), enforce_sigma=False)
        assert np.array_equal(mat_mul(concat_cols([f1, ext]), e, q), u)


class TestBasisFromPreimages:
    """The certificate and the fallback of _basis_from_preimages, with stub samplers."""

    @staticmethod
    def stub(*batches):
        calls = []

        def sampler(count):
            calls.append(count)
            return batches[len(calls) - 1][:, :count]

        return sampler, calls

    def test_dependent_columns_skipped_in_order(self, monkeypatch):
        dim = 200
        batch = RandomSource(353).integers(-20, 21, (dim, dim + 8)) + 300 * np.eye(dim, dim + 8, dtype=np.int64)
        batch[:, 1] = batch[:, 0]
        batch[:, 5] = batch[:, 2] - 3 * batch[:, 4]
        sampler, calls = self.stub(batch)
        preps = CallCounter(trapdoor.prepare_basis)
        monkeypatch.setattr(trapdoor, "prepare_basis", preps)
        got, rest = trapdoor._basis_from_preimages(sampler, dim, 4093)
        keep = [j for j in range(dim + 2) if j not in (1, 5)]
        assert np.array_equal(got.basis, batch[:, keep])
        assert rest.shape == (dim, 0)
        assert calls == [dim + 8]
        # a certificate is a factorization: the first dim columns fail one,
        # the pivot columns pass one, and the basis keeps that R
        assert preps.calls == 2
        assert got._prep is not None and got.prepared().basis is got.basis

    def test_uncertified_subset_draws_again(self, monkeypatch):
        # full rank mod p, but 2**60 + 1 rounds to 2**60 in float64, so the
        # float certificate fails for the chosen subset as well
        big = 1 << 60
        bad = np.zeros((2, 10), dtype=np.int64)
        bad[:, :2] = [[big, big + 1], [big, big]]
        good = RandomSource(359).integers(-5, 6, (2, 10)) + 50 * np.eye(2, 10, dtype=np.int64)
        sampler, calls = self.stub(bad, good)
        preps = CallCounter(trapdoor.prepare_basis)
        monkeypatch.setattr(trapdoor, "prepare_basis", preps)
        got, _ = trapdoor._basis_from_preimages(sampler, 2, 4093)
        assert np.array_equal(got.basis, good[:, :2])
        assert len(calls) == 2
        assert preps.calls == 3  # two failed certificates, then the one kept
        sampler, calls = self.stub(*[bad] * 4)
        with pytest.raises(SamplingError):
            trapdoor._basis_from_preimages(sampler, 2, 4093)
        assert len(calls) == 4


class TestCosetMapBinding:
    """A basis's coset map belongs to the public matrix it was derived for."""

    def test_other_matrix_raises_after_first_use(self):
        pair, q, n, m = small_pair(361)
        other, _, _, _ = small_pair(367)
        sigma = basis_gs_norm(pair) * slack_factor(m) * 1.05
        u = RandomSource(373).integers(0, q, (n, 4))
        assert np.array_equal(mat_mul(pair.a, preimages_under_a(pair.a, pair.trapdoor, u, q, sigma,
                                                                RandomSource(379)), q), u)
        with pytest.raises(ParameterError):
            pair.trapdoor.coset_map(other.a, q)
        with pytest.raises(ParameterError):
            pair.trapdoor.coset_map(pair.a, 4091)
        assert pair.trapdoor.coset_map(pair.a.copy(), q) is pair.trapdoor.coset_map(pair.a, q)

    def test_gadget_basis_of_another_matrix_raises_before_binding(self):
        # a basis with the gadget layout that is no trapdoor of the matrix
        # is refused on first use, and nothing is kept for that matrix
        pair, q, n, m = small_pair(383)
        other, _, _, _ = small_pair(389)
        td = TrapdoorBasis(pair.trapdoor.basis)
        with pytest.raises(ParameterError):
            td.coset_map(other.a, q)
        assert td._coset is None
        assert td.coset_map(pair.a, q).k == pair.trapdoor.coset_map(pair.a, q).k

    def test_pivot_path_reproduces_solve_mod(self):
        # without the gadget layout, W @ y is the centered solve_mod solution
        pair, q, n, m = small_pair(397)
        perm = RandomSource(401).integers(0, 1 << 30, m).argsort()
        td = TrapdoorBasis(np.ascontiguousarray(pair.trapdoor.basis[:, perm]))
        cmap = td.coset_map(pair.a, q)
        assert cmap.k == 0 and cmap.w.shape == (m, n)
        targets = RandomSource(409).integers(0, q, (n, 12))
        got = cmap.w @ cmap.coordinates(targets)
        assert np.array_equal(got, center_rep(solve_mod(pair.a, targets, q), q))


@pytest.mark.parametrize("sampler", ["sample_left", "sample_basis_left"])
def test_raw_array_trapdoor_rejected(sampler):
    # every sampler takes a TrapdoorBasis; a bare basis array is not converted
    pair, q, n, m = small_pair(331)
    raw = pair.trapdoor.basis
    a = RandomSource(337).integers(0, q, (n, m))
    u = np.zeros((n, 1), dtype=np.int64)
    rng = RandomSource(349)
    calls = {
        "sample_left": lambda: sample_left(pair.a, a, raw, u, q, 1e6, rng),
        "sample_basis_left": lambda: sample_basis_left(pair.a, a, raw, u, q, 1e6, rng),
    }
    with pytest.raises(TypeError):
        calls[sampler]()
