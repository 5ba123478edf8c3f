"""Trapdoor generation and preimage/basis sampling."""

import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from ibeetfa import fileio, samplers, scheme, trapdoor, zqlinalg
from ibeetfa.authz import td2
from ibeetfa.errors import DimensionMismatch, KeyMismatch, ParameterError, SamplingError
from ibeetfa.params import preset
from ibeetfa.samplers import RandomSource, slack_factor
from ibeetfa.scheme import encrypt, identity_from_string
from ibeetfa.trapdoor import (
    SAMPLE_D_MARGIN,
    SIGN_OPNORM_CONSTANT,
    GadgetTrapdoor,
    TrapdoorBasis,
    bound_gs,
    derive_trapdoor,
    gadget_length,
    gadget_matrix,
    sample_basis_left,
    sample_left,
    trap_gen,
    trapgen_width,
)
from ibeetfa.zqlinalg import (
    center_rep,
    concat_cols,
    gram_schmidt_norm,
    mat_mul,
    solve_mod,
)

from conftest import MINI, CallCounter, random_message
from oracles import (
    check_nullspace_basis,
    is_nonsingular,
    master_basis,
    operator_norm,
    s_g_walk,
    sample_d_reference,
)
from test_file_layout import ODD

Q_SMALL = 4093
TOY = preset("toy")


def small_pair(seed=0, q=Q_SMALL, n=2):
    m = trapgen_width(n, q)
    return trap_gen(q, n, m, RandomSource(seed)), q, n, m


def basis_gs_norm(pair):
    return gram_schmidt_norm(master_basis(pair.a, pair.trapdoor))


def master_sigma(pair, width):
    """5% above the least sigma SampleD accepts from the pair's trapdoor in
    a sample_left of that many columns."""
    return pair.trapdoor.sigma_floor(slack_factor(width)) * 1.05


def preimages_under_a(a, td, u, q, sigma, rng):
    """SamplePre: sample_left with an empty M block."""
    return sample_left(a, np.zeros((a.shape[0], 0), dtype=np.int64), td, u, q, sigma, rng)


def preimages_under_a_waived(a, td, u, sigma, enforce):
    """preimages_under_a at MINI.q with enforce_sigma as given."""
    return sample_left(a, np.zeros((a.shape[0], 0), dtype=np.int64), td, u, MINI.q, sigma,
                       RandomSource(481), enforce_sigma=enforce)


class TestTrapGen:
    def test_tiny_instance_is_valid_basis(self):
        pair = trap_gen(7, 1, 18, RandomSource(3))
        assert check_nullspace_basis(pair.a, master_basis(pair.a, pair.trapdoor), 7)

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
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(master_basis(a.a, a.trapdoor), master_basis(b.a, b.trapdoor))

    def test_matrix_statistics_roughly_uniform(self):
        pair, q, _, _ = small_pair(11)
        mean = pair.a.mean()
        assert abs(mean - (q - 1) / 2) < 0.05 * q

    def test_full_nullspace_check(self):
        pair, q, _, _ = small_pair(13)
        assert check_nullspace_basis(pair.a, master_basis(pair.a, pair.trapdoor), q)

    def test_aux_recoverable_from_matrices(self):
        # the trapdoor is its Rbar, A @ [Rbar; I] == G (mod q), so A has
        # rank n for every q: setup draws each public matrix once; the basis
        # is a fixed function of (Abar, Rbar), and a trapdoor rebuilt from
        # Rbar alone is the same, which the master key file relies on
        for q, n in ((7, 1), (Q_SMALL, 2), (MINI.q, MINI.n), (TOY.q, TOY.n)):
            k = gadget_length(q)
            gadget = np.kron(np.eye(n, dtype=np.int64), 1 << np.arange(k, dtype=np.int64))
            for seed in range(5):
                m = trapgen_width(n, q)
                pair = trap_gen(q, n, m, RandomSource(17 + seed))
                r_bar = pair.trapdoor.r_bar
                assert r_bar.shape == (m - n * k, n * k)
                w = np.vstack([r_bar, np.eye(n * k, dtype=np.int64)])
                assert np.array_equal(mat_mul(pair.a, w, q), gadget % q), (q, seed)
                solve_mod(pair.a, np.eye(n, dtype=np.int64), q)
                rebuilt = GadgetTrapdoor(r_bar.copy(), q)
                assert np.array_equal(master_basis(pair.a.copy(), rebuilt),
                                      master_basis(pair.a, pair.trapdoor)), (q, seed)
        # SampleD's G-sampling walks S_k under the gadget row g^T, once for
        # all n blocks of G: its unit digit is the one pivot, so E = [1]
        g_td = pair.trapdoor.g_trapdoor
        g_td.require(gadget[:1, :k], q)
        assert g_td.basis.shape == (k, k)
        assert np.array_equal(g_td.pivots, [0])
        assert np.array_equal(g_td.elim, [[1]])


class TestSamplePre:
    """Preimages under A alone: sample_left with an empty M block."""

    def test_zero_target_stays_in_lattice(self):
        pair, q, n, m = small_pair(19)
        rng = RandomSource(23)
        sigma = master_sigma(pair, m)
        e = preimages_under_a(pair.a, pair.trapdoor, np.zeros((n, 1), dtype=np.int64), q, sigma, rng)
        assert not np.any(mat_mul(pair.a, e, q))
        assert np.any(e)  # a lattice point, but not forced to be zero

    def test_random_targets_congruence(self):
        pair, q, n, m = small_pair(29)
        rng = RandomSource(31)
        sigma = master_sigma(pair, m)
        targets = RandomSource(37).integers(0, q, (n, 1000))
        e = preimages_under_a(pair.a, pair.trapdoor, targets, q, sigma, rng)
        assert np.array_equal(mat_mul(pair.a, e, q), targets)

    def test_norm_tail(self):
        pair, q, n, m = small_pair(41)
        rng = RandomSource(43)
        sigma = master_sigma(pair, m)
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
        shuffled = np.ascontiguousarray(master_basis(pair.a, pair.trapdoor)[:, perm])
        # reordering columns changes the Gram-Schmidt profile
        sigma = gram_schmidt_norm(shuffled) * slack_factor(m) * 1.05
        u = RandomSource(67).integers(0, q, (n, 8))
        e = preimages_under_a(pair.a, derive_trapdoor(pair.a, shuffled, q), u, q, sigma, RandomSource(71))
        assert np.array_equal(mat_mul(pair.a, e, q), u)


class TestSampleLeft:
    def test_zero_target(self):
        pair, q, n, m = small_pair(73)
        m1 = 8
        mblk = RandomSource(79).integers(0, q, (n, m1))
        sigma = master_sigma(pair, m + m1)
        e = sample_left(pair.a, mblk, pair.trapdoor, np.zeros((n, 1), dtype=np.int64), q, sigma, RandomSource(83))
        f1 = concat_cols([pair.a, mblk])
        assert not np.any(mat_mul(f1, e, q))

    def test_toy_instance_exhaustive_congruence(self):
        pair7 = trap_gen(7, 1, 18, RandomSource(87))
        mblk = RandomSource(89).integers(0, 7, (1, 4))
        sigma = master_sigma(pair7, 22)
        u = np.arange(7, dtype=np.int64).reshape(1, -1)  # every residue target
        e = sample_left(pair7.a, mblk, pair7.trapdoor, u, 7, sigma, RandomSource(97))
        f1 = concat_cols([pair7.a, mblk])
        assert np.array_equal(mat_mul(f1, e, 7), u)

    def test_column_norms(self):
        pair, q, n, m = small_pair(101)
        m1 = m
        mblk = RandomSource(103).integers(0, q, (n, m1))
        sigma = master_sigma(pair, m + m1)
        u = RandomSource(107).integers(0, q, (n, 200))
        e = sample_left(pair.a, mblk, pair.trapdoor, u, q, sigma, RandomSource(109))
        norms = np.linalg.norm(e.astype(float), axis=0)
        assert (norms <= 2 * sigma * math.sqrt(m + m1)).mean() >= 0.99

    def test_every_column_checked(self, monkeypatch):
        # one wrong entry in any column of the draw is caught, not only in
        # an evenly spaced subset of the columns
        pair, q, n, m = small_pair(113)
        mblk = RandomSource(127).integers(0, q, (n, 6))
        sigma = master_sigma(pair, m + 6)
        u = RandomSource(131).integers(0, q, (n, 64))
        draw = TrapdoorBasis.preimages

        def corrupted(*args):
            e = draw(*args)
            e[0, 3] += 1
            return e

        monkeypatch.setattr(TrapdoorBasis, "preimages", corrupted)
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
        sigma = master_sigma(pair, 2 * m)
        f1 = concat_cols([pair.a, mblk])
        good = 0
        for i in range(50):
            basis = basis_only(pair, mblk, q, sigma, 500 + i).basis
            good += int(check_nullspace_basis(f1, basis, q))
        assert good == 50

    def test_basis_left_passes_nullspace_check(self):
        pair, q, n, m = small_pair(193)
        mblk = RandomSource(197).integers(0, q, (n, m))
        sigma = master_sigma(pair, 2 * m)
        for i in range(3):
            basis = basis_only(pair, mblk, q, sigma, 199 + i).basis
            f1 = concat_cols([pair.a, mblk])
            assert check_nullspace_basis(f1, basis, q)

    def test_basis_left_gs_norm_bounded(self):
        pair, q, n, m = small_pair(211)
        mblk = RandomSource(223).integers(0, q, (n, m))
        sigma = master_sigma(pair, 2 * m)
        basis = basis_only(pair, mblk, q, sigma, 227).basis
        assert gram_schmidt_norm(basis) <= 2 * sigma * math.sqrt(2 * m)

    def test_basis_left_full_rank(self):
        pair, q, n, m = small_pair(229)
        mblk = RandomSource(233).integers(0, q, (n, m))
        sigma = master_sigma(pair, 2 * m)
        basis = basis_only(pair, mblk, q, sigma, 239).basis
        assert basis.shape == (2 * m, 2 * m)
        assert is_nonsingular(basis)

    def test_basis_left_with_targets(self):
        # the same draws give the basis and exact preimages of every target column
        pair, q, n, m = small_pair(241)
        mblk = RandomSource(251).integers(0, q, (n, m))
        sigma = master_sigma(pair, 2 * m)
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
        sigma = master_sigma(pair, 2 * m)
        basis = basis_only(pair, mblk, q, sigma, 307)
        f1 = concat_cols([pair.a, mblk])
        ext = RandomSource(311).integers(0, q, (n, m))
        u = RandomSource(313).integers(0, q, (n, 5))
        e = sample_left(f1, ext, basis, u, q, sigma, RandomSource(317), enforce_sigma=False)
        assert np.array_equal(mat_mul(concat_cols([f1, ext]), e, q), u)


class TestBasisFromPreimages:
    """The certificate of _basis_from_preimages, and extract's retry around
    it (the only retry), with stub samplers."""

    @staticmethod
    def stub(*batches):
        calls = []

        def sampler(count):
            calls.append(count)
            return batches[len(calls) - 1][:, :count]

        return sampler, calls

    def test_uncertified_batch_raises_after_one_draw(self, monkeypatch):
        # consecutive Fibonacci numbers below 2**31: determinant -1, but
        # |R_22| = 1/|b_1| lies far below the bound, so the float certificate
        # fails; no other columns are tried and the batch is not drawn again
        # (extract's loop redraws the whole key)
        bad = np.zeros((2, 10), dtype=np.int64)
        bad[:, :2] = [[1_836_311_903, 1_134_903_170], [1_134_903_170, 701_408_733]]
        sampler, calls = self.stub(bad, bad)
        preps = CallCounter(trapdoor.prepare_basis)
        monkeypatch.setattr(trapdoor, "prepare_basis", preps)
        with pytest.raises(SamplingError):
            trapdoor._basis_from_preimages(sampler, np.array([[1, 0]]), 7)
        assert calls == [2]
        assert preps.calls == 1

    def test_batch_is_dropped_before_the_qr(self, mini_system, monkeypatch):
        # the basis and the other columns are copies: no reference to the
        # whole sample_left batch (1,828 x 1,956 int64 at toy) outlives them
        pp, msk = mini_system
        batches, alive = [], []
        real_left, real_derive = trapdoor.sample_left, trapdoor.derive_trapdoor

        def left(*args, **kwargs):
            batch = real_left(*args, **kwargs)
            batches.append(weakref.ref(batch))
            return batch

        def derive(*args):
            alive.append(batches[-1]() is not None)
            return real_derive(*args)

        monkeypatch.setattr(trapdoor, "sample_left", left)
        monkeypatch.setattr(trapdoor, "derive_trapdoor", derive)
        scheme.extract(pp, msk, identity_from_string("gina", MINI.ell), RandomSource(439))
        assert alive == [False]

    def test_extract_redraws_the_whole_key(self, mini_system, monkeypatch):
        # extract's loop is the only retry: a failed E'_ID draw draws R_ID and
        # e_F again
        pp, msk = mini_system
        ident = identity_from_string("heidi", MINI.ell)
        real_left, lefts = scheme.sample_left, []
        real, drawn = scheme.sample_basis_left, []

        def recorded_left(*args):
            lefts.append(real_left(*args))
            return lefts[-1]

        def fails_first(*args):
            if not drawn:
                drawn.append(None)
                raise SamplingError("stub: no certified basis")
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(scheme, "sample_left", recorded_left)
        monkeypatch.setattr(scheme, "sample_basis_left", fails_first)
        sk = scheme.extract(pp, msk, ident, RandomSource(419))
        assert len(lefts) == 4 and len(drawn) == 2
        # the key holds the last draws narrowed to int32; E'_ID keeps that
        # draw's own R factor, pivots, E and P, as views (no copy)
        assert sk.r_id.dtype == sk.e_id_prime.dtype == np.int32
        assert np.array_equal(sk.r_id, lefts[2]) and np.array_equal(sk.e_f, lefts[3])
        assert np.array_equal(sk.e_id_prime, drawn[1][0].basis)
        held, fresh = sk.trapdoor_prime, drawn[1][0]
        assert held.q == fresh.q and all(
            np.shares_memory(getattr(held, name), getattr(fresh, name)) for name in ("pivots", "elim", "proj"))
        assert len(held.prep.blocks) == len(fresh.prep.blocks) and all(
            np.shares_memory(a, b) for a, b in zip(held.prep.blocks, fresh.prep.blocks))
        assert np.shares_memory(held.prep.gs_norms, fresh.prep.gs_norms)
        trapdoor.require_gadget_trapdoor(scheme.compute_f(pp, ident, "primary"), sk.r_id, MINI.q)
        scheme.checked_preimage(pp, ident, "primary", sk.e_f)
        scheme.checked_preimage(pp, ident, "prime", sk.e_f_prime)

    def test_extract_gives_up_after_its_attempts(self, mini_system, monkeypatch):
        pp, msk = mini_system
        calls = []

        def always_fails(*args):
            calls.append(args)
            raise SamplingError("stub: no certified basis")

        monkeypatch.setattr(scheme, "sample_basis_left", always_fails)
        with pytest.raises(SamplingError, match=f"after {scheme._EXTRACT_ATTEMPTS} attempts"):
            scheme.extract(pp, msk, identity_from_string("ivan", MINI.ell), RandomSource(421))
        assert len(calls) == scheme._EXTRACT_ATTEMPTS

    def test_wrong_master_key_raises_on_the_first_attempt(self, mini_system, monkeypatch):
        # the first draw, R_ID's, finds the master trapdoor is not A's
        pp, _ = mini_system
        _, other_msk = scheme.setup(MINI, RandomSource(431))
        lefts = CallCounter(scheme.sample_left)
        counted = CallCounter(scheme.sample_basis_left)
        monkeypatch.setattr(scheme, "sample_left", lefts)
        monkeypatch.setattr(scheme, "sample_basis_left", counted)
        with pytest.raises(KeyMismatch):
            scheme.extract(pp, other_msk, identity_from_string("judy", MINI.ell), RandomSource(433))
        assert lefts.calls == 1 and counted.calls == 0


class TestGadgetPreimage:
    """A master draw never forms T_A: SampleD works from Rbar and S_G."""

    def test_no_master_draw_multiplies_by_the_basis(self, mini_system, monkeypatch):
        pp, msk = mini_system
        shapes, real = [], trapdoor.exact_int_matmul

        def spy(a, b):
            shapes.append(np.shape(a))
            return real(a, b)

        monkeypatch.setattr(trapdoor, "exact_int_matmul", spy)
        scheme.extract(pp, msk, identity_from_string("kate", MINI.ell), RandomSource(449))
        assert shapes and (MINI.m, MINI.m) not in shapes, shapes

    def test_narrow_basis_refuses_an_entry_outside_its_dtype(self):
        # gadget_basis writes int32: [[R*S_G, I - R*D], [S_G, -D]] as the
        # int64 blocks give it, and an R whose products leave int32 is refused
        pair, q, n, m = small_pair(457)
        r_bar = pair.trapdoor.r_bar
        a_bar = pair.a[:, : r_bar.shape[0]]
        k = gadget_length(q)
        s_g = np.kron(np.eye(n, dtype=np.int64), trapdoor._gadget_block(q, k))
        d_bits = trapdoor._bit_decompose(a_bar, k)
        wide = np.block([[r_bar @ s_g, np.eye(r_bar.shape[0], dtype=np.int64) - r_bar @ d_bits],
                         [s_g, -d_bits]])
        got = trapdoor.gadget_basis(a_bar, r_bar, q)
        assert got.dtype == np.int32 and np.array_equal(got, wide)
        assert np.abs(r_bar * (1 << 29) @ s_g).max() >= 1 << 31
        with pytest.raises(ParameterError, match="gadget basis holds an entry outside int32"):
            trapdoor.gadget_basis(a_bar, r_bar * (1 << 29), q)


#: Prints digests of the master-side draws of one seeded MINI extract.
_MASTER_DRAWS = """
import hashlib
from conftest import MINI
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import extract, identity_from_string, setup
pp, msk = setup(MINI, RandomSource(461))
sk = extract(pp, msk, identity_from_string("olga", MINI.ell), RandomSource(463))
for arr in (sk.r_id, sk.e_f, sk.e_f_prime, sk.e_id_prime):
    print(hashlib.sha256(arr.tobytes()).hexdigest())
"""


class TestSampleD:
    """The master trapdoor samples by SampleD from Rbar alone."""

    @pytest.mark.parametrize("p", [MINI, TOY, preset("small")], ids=["MINI", "toy", "small"])
    def test_perturbation_covariance_is_positive_semidefinite(self, p):
        # perturbation(I) is the square root of c*I - s_G^2 W W^T, whose
        # least eigenvalue is (SAMPLE_D_MARGIN - 1) * (s_G * s1(W))^2 > 0
        td = trap_gen(p.q, p.n, p.m, RandomSource(467)).trapdoor
        w = np.vstack([td.r_bar, np.eye(td.r_bar.shape[1])])
        assert td.s1 == pytest.approx(np.linalg.norm(w, 2), rel=1e-12)
        assert td.scale == pytest.approx(SAMPLE_D_MARGIN * (td.width_g * td.s1) ** 2, rel=1e-12)
        root = td.perturbation(np.eye(p.m))
        cov = root @ root.T
        want = td.scale * np.eye(p.m) - td.width_g**2 * (w @ w.T)
        assert np.allclose(cov, want, rtol=0, atol=1e-9 * td.scale)
        least = (SAMPLE_D_MARGIN - 1) * (td.width_g * td.s1) ** 2
        assert np.linalg.eigvalsh(cov).min() == pytest.approx(least, rel=1e-6)

    @pytest.mark.parametrize("cols", [64, 152, 1892])
    @pytest.mark.parametrize("p", [ODD, MINI, TOY], ids=["n=1", "MINI", "toy"])
    def test_one_product_adds_what_the_block_loop_added(self, p, cols):
        # [Rbar; I] @ z in one product with Rbar's columns in the walk's
        # order, against the gadget block at a time of oracles.sample_d_reference
        pair = trap_gen(p.q, p.n, p.m, RandomSource(571))
        u = RandomSource(577).integers(0, p.q, (p.n, cols))
        sigma = master_sigma(pair, p.m)
        r1, r2 = RandomSource(587), RandomSource(587)
        got = pair.trapdoor.preimages(pair.a, u, p.q, sigma, r1)
        want = sample_d_reference(pair.trapdoor, pair.a, u, p.q, sigma, r2)
        assert got.shape == (p.m, cols) and np.array_equal(got, want)
        assert r1.random() == r2.random()
        assert np.array_equal(mat_mul(pair.a, got, p.q), u)

    def test_sigma_below_the_threshold_raises_without_waiver(self, mini_system):
        pp, msk = mini_system
        td = msk.trapdoor_a
        u = RandomSource(479).integers(0, MINI.q, (MINI.n, 3))
        floor = td.sigma_floor(slack_factor(MINI.m))
        assert floor == pytest.approx(math.sqrt(td.scale + slack_factor(MINI.m) ** 2))
        for enforce in (True, False):
            with pytest.raises(SamplingError, match="below the sampling threshold"):
                preimages_under_a_waived(pp.a, td, u, floor * 0.999, enforce)
        e = preimages_under_a_waived(pp.a, td, u, floor * 1.001, False)
        assert np.array_equal(mat_mul(pp.a, e, MINI.q), u)

    def test_preimages_of_zero_have_covariance_sigma2_over_2pi(self, mini_system):
        # x ~ D_{Lambda^perp(A), sigma}: at sigma far above smoothing its
        # covariance is sigma^2/(2 pi) I.  The sample covariance of N draws
        # in dimension m has eigenvalues within (1 +- sqrt(m/N))^2 of that.
        pp, msk = mini_system
        m, count = MINI.m, 4000
        x = preimages_under_a(pp.a, msk.trapdoor_a, np.zeros((MINI.n, count), dtype=np.int64),
                              MINI.q, MINI.sigma, RandomSource(487)).astype(np.float64)
        assert not np.any(mat_mul(pp.a, x.astype(np.int64), MINI.q))
        cov = (x @ x.T) / count / (MINI.sigma**2 / (2 * math.pi))
        assert abs(float(x.mean())) < 4 * MINI.sigma / math.sqrt(2 * math.pi * m * count)
        assert abs(float(np.trace(cov)) / m - 1) < 0.01
        spread = math.sqrt(m / count)
        eig = np.linalg.eigvalsh(cov)
        assert (1 - spread) ** 2 - 0.1 < eig.min() and eig.max() < (1 + spread) ** 2 + 0.1, eig[[0, -1]]

    def test_load_and_extract_build_no_master_basis(self, mini_system, monkeypatch):
        pp, msk = mini_system
        built, prepared = [], []
        real_basis, real_prep = trapdoor.gadget_basis, trapdoor.prepare_basis

        def basis_spy(*args, **kwargs):
            built.append(np.shape(args[0]))
            return real_basis(*args, **kwargs)

        def prep_spy(basis, *args):
            prepared.append(np.shape(basis))
            return real_prep(basis, *args)

        for mod in (trapdoor, scheme):
            monkeypatch.setattr(mod, "gadget_basis", basis_spy)
        monkeypatch.setattr(trapdoor, "prepare_basis", prep_spy)
        loaded = fileio.load_master_secret(fileio.dump_master_secret(msk, MINI), pp)
        scheme.extract(pp, loaded, identity_from_string("nina", MINI.ell), RandomSource(491))
        assert loaded.element_count() == 2 * MINI.m**2
        k = gadget_length(MINI.q)
        assert built == []
        # S_k of each master trapdoor at load, then E'_ID's certificate
        assert prepared == [(k, k), (k, k), (2 * MINI.m, 2 * MINI.m)]

    def test_master_draws_do_not_follow_the_blas_thread_count(self):
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", _MASTER_DRAWS], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(out.stdout.split())
        assert len(digests[0]) == 4 and digests[0] == digests[1]


#: SHA-256 of R_ID, e_F, e_F' and E'_ID of one seeded n = 1 extract,
#: taken while SampleD's G-step was one walk over S_G under G.
_ODD_DRAWS = [
    "d7884fcde0f7b2bf45de130fcfaa9435faf870a6c01b2f0bffdf4527083eab5e",
    "274527f5dd79daaffb8dc9dc86db02c56530263635aa5c5afc183435d1c87b1f",
    "6cedd3fc570c094ee7c9e1cb44c387f25bf2807ed2b24a1659bfecccc8b8ae0d",
    "5d8c96fb7b25de96e17d22e6a1949c766cb0498e09c25122e646b4facb071073",
]


def g_order(z, n):
    """The k x n*cols walk output of GadgetTrapdoor.g_preimages in G's row
    order: block i's columns become rows i*k to i*k + k - 1."""
    k, cols = z.shape[0], z.shape[1] // n
    return z.reshape(k, n, cols).transpose(1, 0, 2).reshape(n * k, cols)


class TestGadgetStep:
    """SampleD's G-step walks S_k once, over n times the lanes
    (GadgetTrapdoor.g_preimages).  S_G = I_n (x) S_k is block diagonal, so
    its n blocks are independent walks over S_k: the nk-row walk over S_G
    (oracles.s_g_walk) in distribution, and at n = 1, where S_G is S_k,
    draw for draw."""

    @pytest.mark.parametrize("p", [ODD, MINI, TOY], ids=["n=1", "MINI", "toy"])
    def test_every_column_is_a_preimage(self, p):
        td = trap_gen(p.q, p.n, p.m, RandomSource(503)).trapdoor
        v = RandomSource(509).integers(0, p.q, (p.n, 40))
        v[:, :3] = [0, 1, p.q - 1]
        z = g_order(td.g_preimages(v, RandomSource(521)), p.n)
        assert z.shape == (p.n * gadget_length(p.q), 40) and z.dtype == np.int64
        assert np.array_equal(mat_mul(gadget_matrix(p.n, p.q), z, p.q), v)

    def test_one_block_draws_what_the_s_g_walk_drew(self):
        td = trap_gen(ODD.q, ODD.n, ODD.m, RandomSource(523)).trapdoor
        v = RandomSource(541).integers(0, ODD.q, (1, 64))
        r1, r2 = RandomSource(547), RandomSource(547)
        assert np.array_equal(td.g_preimages(v, r1), s_g_walk(td, v, r2))
        assert r1.random() == r2.random()

    def test_one_block_keys_did_not_move(self):
        pp, msk = scheme.setup(ODD, RandomSource(0x0DD1))
        sk = scheme.extract(pp, msk, identity_from_string("odd", ODD.ell), RandomSource(0x0DD3))
        digests = [hashlib.sha256(arr.tobytes()).hexdigest() for arr in (sk.r_id, sk.e_f, sk.e_f_prime, sk.e_id_prime)]
        assert digests == _ODD_DRAWS

    def test_moments_match_the_s_g_walk(self, mini_system):
        # per coordinate of z over 20,000 preimages of one target at MINI
        # (n = 2): the means differ by less than 5 standard errors and the
        # variances by less than 5 standard errors of their difference,
        # 2 var/sqrt(count) for a near-Gaussian coordinate
        _, msk = mini_system
        td, count = msk.trapdoor_a, 20_000
        v = np.repeat(RandomSource(557).integers(0, MINI.q, (MINI.n, 1)), count, axis=1)
        got = g_order(td.g_preimages(v, RandomSource(563)), MINI.n).astype(np.float64)
        want = s_g_walk(td, v, RandomSource(569)).astype(np.float64)
        assert got.shape == want.shape == (MINI.n * gadget_length(MINI.q), count)
        var_got, var_want = got.var(axis=1), want.var(axis=1)
        assert var_want.min() > 1.0
        gap = np.abs(got.mean(axis=1) - want.mean(axis=1))
        assert np.all(gap < 5 * np.sqrt((var_got + var_want) / count)), gap
        spread = np.maximum(var_got, var_want)
        assert np.all(np.abs(var_got - var_want) < 5 * 2 * spread / math.sqrt(count)), (var_got, var_want)


class TestCosetMapBinding:
    """A trapdoor is complete when it is made: sample_left checks it against
    the public matrix once, before any draw, and nothing is stored."""

    def test_other_matrix_raises_after_first_use(self):
        pair, q, n, m = small_pair(361)
        other, _, _, _ = small_pair(367)
        td = derive_trapdoor(pair.a, master_basis(pair.a, pair.trapdoor), q)
        sigma = basis_gs_norm(pair) * slack_factor(m) * 1.05
        u = RandomSource(373).integers(0, q, (n, 4))
        assert np.array_equal(mat_mul(pair.a, preimages_under_a(pair.a, td, u, q, sigma,
                                                                RandomSource(379)), q), u)
        with pytest.raises(KeyMismatch):
            td.require(other.a, q)
        with pytest.raises(KeyMismatch):
            td.require(pair.a, 4091)
        td.require(pair.a.copy(), q)

    def test_checked_once_before_any_draw(self, monkeypatch):
        # M-side included, for both trapdoor types; SampleD's own walk under
        # G is not checked again
        pair, q, n, m = small_pair(503)
        other, _, _, _ = small_pair(509)
        mblk = RandomSource(521).integers(0, q, (n, 6))
        u = RandomSource(523).integers(0, q, (n, 4))
        counts = {}
        for cls in (GadgetTrapdoor, TrapdoorBasis):
            counts[cls] = CallCounter(cls.require)
            monkeypatch.setattr(cls, "require", lambda td, a, modulus, c=counts[cls]: c(td, a, modulus))
        basis_td = derive_trapdoor(pair.a, master_basis(pair.a, pair.trapdoor), q)
        for td, sigma in ((pair.trapdoor, master_sigma(pair, m + 6)),
                          (basis_td, basis_td.sigma_floor(slack_factor(m + 6)) * 1.05)):
            for a, modulus in ((other.a, q), (pair.a, 4091)):
                rng = RandomSource(527)
                with pytest.raises(KeyMismatch):
                    sample_left(a, mblk, td, u, modulus, sigma, rng)
                assert rng.random() == RandomSource(527).random()
            for counter in counts.values():
                counter.calls = 0
            e = sample_left(pair.a, mblk, td, u, q, sigma, RandomSource(529))
            assert np.array_equal(mat_mul(concat_cols([pair.a, mblk]), e, q), u)
            assert {cls: c.calls for cls, c in counts.items()} == {
                GadgetTrapdoor: int(td is pair.trapdoor), TrapdoorBasis: int(td is basis_td)}

    def test_a_fresh_basis_is_factored_once(self, monkeypatch):
        # one QR gives a fresh basis its R factor and its coset map's
        # projections, and sampling with it factors nothing
        pair, q, n, m = small_pair(541)
        basis = master_basis(pair.a, pair.trapdoor)
        modes, qr = [], np.linalg.qr

        def spy(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        td = derive_trapdoor(pair.a, basis, q)
        assert modes == ["raw"]
        u = RandomSource(547).integers(0, q, (n, 4))
        e = preimages_under_a(pair.a, td, u, q, td.sigma_floor(slack_factor(m)) * 1.05, RandomSource(557))
        assert np.array_equal(mat_mul(pair.a, e, q), u)
        assert modes == ["raw"]

    def test_gadget_basis_of_another_matrix_raises_before_binding(self):
        # a master trapdoor whose Rbar does not give A @ [Rbar; I] == G is
        # refused before anything is drawn, and keeps nothing for that matrix
        pair, q, n, m = small_pair(383)
        other, _, _, _ = small_pair(389)
        td = GadgetTrapdoor(pair.trapdoor.r_bar, q)
        held = dict(vars(td))
        u = RandomSource(391).integers(0, q, (n, 4))
        for a, modulus in ((other.a, q), (pair.a, 4091)):
            rng = RandomSource(393)
            with pytest.raises(KeyMismatch):
                preimages_under_a(a, td, u, modulus, 1e6, rng)
            assert rng.random() == RandomSource(393).random()
        assert vars(td).keys() == held.keys() and all(vars(td)[k] is v for k, v in held.items())
        e = preimages_under_a(pair.a, td, u, q, master_sigma(pair, m), RandomSource(397))
        assert np.array_equal(mat_mul(pair.a, e, q), u)

    def test_pivot_path_reproduces_solve_mod(self):
        # a basis takes the pivot path, whatever its layout: y on the pivot
        # rows is the centered solve_mod solution
        pair, q, n, m = small_pair(397)
        perm = RandomSource(401).integers(0, 1 << 30, m).argsort()
        td = derive_trapdoor(pair.a, np.ascontiguousarray(master_basis(pair.a, pair.trapdoor)[:, perm]), q)
        assert td.pivots.shape == (n,) and td.proj.shape == (m, n)
        targets = RandomSource(409).integers(0, q, (n, 12))
        got = np.zeros((m, 12), dtype=np.int64)
        got[td.pivots] = center_rep(mat_mul(td.elim, targets, q), q)
        assert np.array_equal(got, center_rep(solve_mod(pair.a, targets, q), q))


def gadget_walk_basis(scale=0):
    """A TrapdoorBasis of MINI's gadget matrix over S_G (68 rows, two walk
    blocks), with N = scale times its column 1 added to column 0: the same
    lattice, with entries and coefficients about N times larger."""
    g = trapdoor.gadget_matrix(MINI.n, MINI.q)
    k = gadget_length(MINI.q)
    s_g = np.kron(np.eye(MINI.n, dtype=np.int64), trapdoor._gadget_block(MINI.q, k))
    s_g[:, 0] += scale * s_g[:, 1]
    return g, derive_trapdoor(g, s_g, MINI.q)


class _MaxRaises(np.ndarray):
    """An array whose max() raises: the worker reads max|B| first."""

    def max(self, *args, **kwargs):
        raise RuntimeError("stub: max|B|")


class TestProductBehindWalk:
    """TrapdoorBasis.preimages forms B @ z on a worker thread while the walk
    runs, and on one CPU after it; both give the same preimages."""

    @staticmethod
    def draw(monkeypatch, cpus, call):
        monkeypatch.setattr(trapdoor, "_cpus", lambda: cpus)
        before = threading.active_count()
        try:
            return call()
        finally:
            assert threading.active_count() == before

    @staticmethod
    def basis_products(monkeypatch, td):
        """Count the exact_int_matmul calls of preimages with td's basis."""
        shapes, real = [], trapdoor.exact_int_matmul

        def spy(a, b):
            if a is td.basis:
                shapes.append(np.shape(b))
            return real(a, b)

        monkeypatch.setattr(trapdoor, "exact_int_matmul", spy)
        return shapes

    def test_td2_is_the_same_on_one_cpu(self, monkeypatch, mini_system, mini_key):
        pp, _ = mini_system
        ident, sk = mini_key
        products = self.basis_products(monkeypatch, sk.trapdoor_prime)
        for seed in (0xD1, 0xD2):
            ct = encrypt(pp, ident, random_message(MINI.t, seed), RandomSource(seed))
            got = [self.draw(monkeypatch, cpus, lambda: fileio.dump_td2(
                td2(pp, sk, ident, ct, RandomSource(seed + 1)), MINI)) for cpus in (2, 1)]
            assert got[0] == got[1]
        # the worker formed every product: only the one-CPU draws multiplied after the walk
        assert products == [(2 * MINI.m, MINI.t)] * 2

    def test_multi_block_walk_is_the_same_on_one_cpu(self, monkeypatch):
        g, td = gadget_walk_basis()
        assert len(td.prep.blocks) == 2
        targets = RandomSource(467).integers(0, MINI.q, (MINI.n, 300))
        products = self.basis_products(monkeypatch, td)
        got = [self.draw(monkeypatch, cpus, lambda: td.preimages(
            g, targets, MINI.q, 9.0, RandomSource(469))) for cpus in (2, 1)]
        assert np.array_equal(got[0], got[1])
        assert products == [(td.basis.shape[0], 300)]

    def test_large_entries_take_the_exact_product(self, monkeypatch):
        # max|B| * max|z| * rows passes 2**53, so the worker's float sums
        # could be inexact: preimages multiplies after the walk instead
        g, td = gadget_walk_basis(1 << 10)
        targets = RandomSource(471).integers(0, MINI.q, (MINI.n, 40))
        products = self.basis_products(monkeypatch, td)
        walks, real = [], trapdoor.klein_coefficients

        def walk(*args, **kwargs):
            walks.append(real(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(trapdoor, "klein_coefficients", walk)
        got = [self.draw(monkeypatch, cpus, lambda: td.preimages(
            g, targets, MINI.q, 9.0, RandomSource(473))) for cpus in (2, 1)]
        assert np.array_equal(got[0], got[1])
        assert products == [(td.basis.shape[0], 40)] * 2
        assert int(np.abs(td.basis).max()) * int(np.abs(walks[0]).max()) * td.basis.shape[0] >= 2**53

    def test_a_failed_walk_stops_the_worker(self, monkeypatch):
        # NaN projections in the top block: the walk raises after it has
        # handed the lower block to the worker
        g, td = gadget_walk_basis()
        proj = td.proj.copy()
        proj[:2] = np.nan
        bad = dataclasses.replace(td, proj=proj)
        targets = RandomSource(479).integers(0, MINI.q, (MINI.n, 8))
        for cpus in (2, 1):
            with pytest.raises(SamplingError):
                self.draw(monkeypatch, cpus, lambda: bad.preimages(g, targets, MINI.q, 9.0, RandomSource(487)))

    def test_a_failed_product_raises_on_the_caller(self, monkeypatch):
        g, td = gadget_walk_basis()
        bad = dataclasses.replace(td)
        # past __post_init__, whose int32 narrowing gives a plain array
        object.__setattr__(bad, "basis", td.basis.view(_MaxRaises))
        targets = RandomSource(491).integers(0, MINI.q, (MINI.n, 8))
        with pytest.raises(RuntimeError, match="stub: max"):
            self.draw(monkeypatch, 2, lambda: bad.preimages(g, targets, MINI.q, 9.0, RandomSource(499)))

    def test_td2_calls_the_library_on_its_own_thread(self, monkeypatch, mini_system, mini_key):
        # the worker calls numpy only, so a tracer's span stack sees every
        # zqlinalg and samplers call on the thread that made the td2
        pp, _ = mini_system
        ident, sk = mini_key
        ct = encrypt(pp, ident, random_message(MINI.t, 503), RandomSource(503))
        threads, lock = [], threading.Lock()

        def recorded(fn):
            def call(*args, **kwargs):
                with lock:
                    threads.append((fn.__name__, threading.get_ident()))
                return fn(*args, **kwargs)
            return call

        homes = (zqlinalg.__name__, samplers.__name__)
        for name, mod in list(sys.modules.items()):
            if name == "ibeetfa" or name.startswith("ibeetfa."):
                for attr, val in list(vars(mod).items()):
                    if getattr(val, "__module__", None) in homes and callable(val) and not inspect.isclass(val):
                        monkeypatch.setattr(mod, attr, recorded(val))
        products = self.basis_products(monkeypatch, sk.trapdoor_prime)
        assert self.draw(monkeypatch, 2, lambda: td2(pp, sk, ident, ct, RandomSource(509))) is not None
        names = {name for name, _ in threads}
        assert {"mat_mul", "klein_coefficients", "sample_z_gaussian_batch"} <= names
        assert {ident for _, ident in threads} == {threading.get_ident()}
        assert products == []


@pytest.mark.parametrize("sampler", ["sample_left", "sample_basis_left"])
def test_raw_array_trapdoor_rejected(sampler):
    # every sampler takes a TrapdoorBasis; a bare basis array is not converted
    pair, q, n, m = small_pair(331)
    raw = master_basis(pair.a, pair.trapdoor)
    a = RandomSource(337).integers(0, q, (n, m))
    u = np.zeros((n, 1), dtype=np.int64)
    rng = RandomSource(349)
    calls = {
        "sample_left": lambda: sample_left(pair.a, a, raw, u, q, 1e6, rng),
        "sample_basis_left": lambda: sample_basis_left(pair.a, a, raw, u, q, 1e6, rng),
    }
    with pytest.raises(TypeError):
        calls[sampler]()
