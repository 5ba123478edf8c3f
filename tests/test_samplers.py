"""Distributional checks for every randomness source, and the R-only
projections the walk starts from against an explicit Q.

Monte-Carlo expectations are compared against exact mass functions
summed over the truncated support, which is the independent oracle for
all Gaussian-shaped distributions here.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from ibeetfa import fileio
from ibeetfa.authz import td2
from ibeetfa.errors import DimensionMismatch, SamplingError, SingularMatrix
from ibeetfa.samplers import (
    RandomSource,
    adopt_r_factor,
    klein_coefficients,
    prepare_basis,
    sample_bounded_matrix,
    sample_psi_bar,
    sample_sign_matrix,
    sample_uniform_zq,
    sample_z_gaussian_batch,
    slack_factor,
)
from ibeetfa.scheme import compute_f, encrypt
from ibeetfa.trapdoor import TrapdoorBasis, trap_gen, trapgen_width
from ibeetfa.zqlinalg import exact_gram, exact_int_matmul

from conftest import MINI, random_message


def gaussian_mass_moments(sigma, center, width=None):
    """Exact mean/variance of the discrete Gaussian restricted to +-width."""
    width = width if width is not None else math.ceil(12 * sigma) + 1
    lo, hi = math.floor(center) - width, math.ceil(center) + width
    xs = np.arange(lo, hi + 1, dtype=np.float64)
    w = np.exp(-math.pi * (xs - center) ** 2 / sigma**2)
    w /= w.sum()
    mean = float((xs * w).sum())
    var = float(((xs - mean) ** 2 * w).sum())
    return mean, var


def lattice_points(basis, sigma, center, count, rng):
    """count lattice points near center: one walk per column, as extract and td2 run it."""
    basis = np.asarray(basis, dtype=np.int64)
    targets = np.repeat(np.asarray(center, dtype=np.float64)[:, None], count, axis=1)
    prep = prepare_basis(basis)
    z = klein_coefficients(prep, sigma, prep.project(targets), rng)
    return (basis @ z).T


class TestRandomSource:
    def test_seed_reproducibility(self):
        a = RandomSource(1234).integers(0, 1 << 40, 32)
        b = RandomSource(1234).integers(0, 1 << 40, 32)
        assert np.array_equal(a, b)

    def test_hex_and_bytes_seeds(self):
        assert np.array_equal(
            RandomSource("deadbeef").integers(0, 100, 8),
            RandomSource(b"\xde\xad\xbe\xef").integers(0, 100, 8),
        )


class TestZGaussian:
    def test_tiny_sigma_concentrates(self):
        rng = RandomSource(42)
        out = sample_z_gaussian_batch(0.1, np.zeros(10_000), rng)
        assert (out == 0).mean() > 0.999

    def test_moments_match_oracle_sigma3(self):
        rng = RandomSource(314159)
        draws = sample_z_gaussian_batch(3.0, np.zeros(100_000), rng)
        mean, var = gaussian_mass_moments(3.0, 0.0)
        assert abs(draws.mean() - mean) < 0.05
        assert abs(draws.var() - var) < 0.05 * var

    def test_shifted_center(self):
        rng = RandomSource(2718281)
        draws = sample_z_gaussian_batch(3.0, np.full(100_000, 7.0), rng)
        mean, _ = gaussian_mass_moments(3.0, 7.0)
        assert abs(draws.mean() - mean) < 0.05

    def test_half_integer_center_small_sigma(self):
        # mass splits between the two neighbours; a naive envelope stalls here
        rng = RandomSource(99)
        draws = sample_z_gaussian_batch(0.2, np.full(4000, 0.5), rng)
        assert set(np.unique(draws)) <= {0, 1}
        assert abs((draws == 0).mean() - 0.5) < 0.05

    def test_moderate_sigma_histogram(self):
        rng = RandomSource(777)
        sigma = 2.5
        draws = sample_z_gaussian_batch(sigma, np.zeros(80_000), rng)
        width = 14
        xs = np.arange(-width, width + 1)
        w = np.exp(-math.pi * xs.astype(float) ** 2 / sigma**2)
        w /= w.sum()
        emp = np.array([(draws == x).mean() for x in xs])
        assert 0.5 * np.abs(emp - w).sum() < 0.02  # total variation

    def test_scalar_api_and_errors(self):
        rng = RandomSource(1)
        one = sample_z_gaussian_batch(1.5, 0.0, rng)  # a scalar center is one lane
        assert one.shape == (1,) and one.dtype == np.int64
        with pytest.raises(SamplingError):
            sample_z_gaussian_batch(0.0, [0.0], rng)
        with pytest.raises(SamplingError):
            sample_z_gaussian_batch(-2.0, [0.0], rng)


class TestLatticeGaussian:
    def test_identity_basis_coordinates_iid(self):
        rng = RandomSource(31337)
        basis = np.eye(4, dtype=np.int64)
        pts = lattice_points(basis, 4.0, np.zeros(4), 4000, rng)
        mean, var = gaussian_mass_moments(4.0, 0.0)
        flat = pts.reshape(-1).astype(float)
        assert abs(flat.mean() - mean) < 0.1
        assert abs(flat.var() - var) < 0.06 * var

    def test_scaled_lattice_membership(self):
        rng = RandomSource(4)
        basis = 2 * np.eye(3, dtype=np.int64)
        assert not np.any(lattice_points(basis, 6.0, np.zeros(3), 200, rng) % 2)

    def test_membership_via_rational_solve(self):
        rng = RandomSource(8)
        basis = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 2]], dtype=np.int64)
        inv = np.linalg.inv(basis.astype(float))
        x = inv @ lattice_points(basis, 30.0, np.zeros(3), 1000, rng).T
        assert np.allclose(x, np.rint(x), atol=1e-6)

    def test_dim2_total_variation(self):
        # exercise the real nearest-plane walk, batched over 1e5 targets
        rng = RandomSource(123456)
        basis = np.eye(2, dtype=np.int64)
        n = 100_000
        prep = prepare_basis(basis)
        coeffs = klein_coefficients(prep, 4.0, np.zeros((2, n)), rng)
        pts = coeffs.T  # identity basis: lattice point equals coefficients
        grid = np.arange(-20, 21)
        w1 = np.exp(-math.pi * grid.astype(float) ** 2 / 16.0)
        w1 /= w1.sum()
        joint = np.outer(w1, w1)
        hist = np.zeros_like(joint)
        inside = (np.abs(pts[:, 0]) <= 20) & (np.abs(pts[:, 1]) <= 20)
        np.add.at(hist, (pts[inside, 0] + 20, pts[inside, 1] + 20), 1.0)
        hist /= n
        tv = 0.5 * np.abs(hist - joint).sum() + 0.5 * (1 - inside.mean())
        assert tv < 0.02

    def test_norm_tail(self):
        rng = RandomSource(55)
        sigma, n = 5.0, 8
        draws = sample_z_gaussian_batch(sigma, np.zeros(10_000 * n), rng).reshape(-1, n)
        norms = np.linalg.norm(draws.astype(float), axis=1)
        assert (norms > 2 * sigma * math.sqrt(n)).mean() < 0.01

    def test_singular_basis_rejected(self):
        bad = np.array([[1, 2], [2, 4]], dtype=np.int64)
        with pytest.raises(SingularMatrix):
            prepare_basis(bad)

    def test_walk_takes_target_matrices_only(self):
        prep = prepare_basis(np.eye(3, dtype=np.int64))
        for bad in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(DimensionMismatch):
                klein_coefficients(prep, 5.0, bad, RandomSource(7))
            with pytest.raises(DimensionMismatch):
                prep.project(bad)

    def test_offset_center_tracks(self):
        rng = RandomSource(59)
        basis = np.eye(2, dtype=np.int64)
        center = np.array([100.25, -7.5])
        pts = lattice_points(basis, 3.0, center, 2000, rng)
        assert abs(pts[:, 0].mean() - 100.25) < 0.2
        assert abs(pts[:, 1].mean() + 7.5) < 0.2


class TestPsiBar:
    def test_vanishing_alpha_gives_zero(self):
        rng = RandomSource(61)
        out = sample_psi_bar(1e-9, 4093, rng, size=10_000)
        assert not np.any(out)

    def test_stddev_matches_formula(self):
        rng = RandomSource(67)
        q, alpha = 4093, 0.01
        out = sample_psi_bar(alpha, q, rng, size=100_000)
        centered = np.where(out > q // 2, out - q, out).astype(float)
        want = q * alpha / math.sqrt(2 * math.pi)  # ~16.33
        assert abs(centered.std() - want) < 0.05 * want

    def test_range_and_scalar(self):
        rng = RandomSource(71)
        out = sample_psi_bar(0.05, 4093, rng, size=5000)
        assert out.min() >= 0 and out.max() < 4093
        assert isinstance(sample_psi_bar(0.05, 4093, rng), int)

    def test_alpha_domain(self):
        rng = RandomSource(73)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(SamplingError):
                sample_psi_bar(bad, 4093, rng)


class TestSmallMatrices:
    def test_sign_matrix_entries(self):
        rng = RandomSource(79)
        r = sample_sign_matrix(20, rng)
        assert set(np.unique(r)) == {-1, 1}

    def test_sign_matrix_mean(self):
        rng = RandomSource(83)
        r = sample_sign_matrix(320, rng)  # ~1e5 entries
        assert abs(r.mean()) < 0.02

    def test_sign_matrix_seeds_differ(self):
        a = sample_sign_matrix(16, RandomSource(1))
        b = sample_sign_matrix(16, RandomSource(2))
        assert not np.array_equal(a, b)

    def test_bounded_matrix_support(self):
        rng = RandomSource(89)
        r = sample_bounded_matrix(1, 12, rng)
        assert set(np.unique(r)) <= {-1, 0, 1}

    def test_bounded_matrix_frequencies(self):
        rng = RandomSource(97)
        ell = 8
        r = sample_bounded_matrix(ell, 320, rng)
        counts = np.array([(r == v).mean() for v in range(-ell, ell + 1)])
        assert np.all(np.abs(counts - 1 / 17) < 0.2 / 17)

    def test_bounded_matrix_max(self):
        rng = RandomSource(101)
        assert np.abs(sample_bounded_matrix(5, 40, rng)).max() <= 5

    def test_uniform_zq_range_and_mean(self):
        rng = RandomSource(103)
        q = 4093
        u = sample_uniform_zq(320, 320, q, rng)
        assert u.min() >= 0 and u.max() < q
        assert abs(u.mean() - (q - 1) / 2) < 0.01 * q

    def test_uniform_zq_deterministic(self):
        q = 4093
        assert np.array_equal(
            sample_uniform_zq(5, 5, q, RandomSource(9)),
            sample_uniform_zq(5, 5, q, RandomSource(9)),
        )


class TestSlack:
    def test_values(self):
        assert slack_factor(2) == 2
        assert slack_factor(256) == math.ceil(math.sqrt(8)) + 1
        assert slack_factor(1828) == 5


class TestDeterminism:
    def test_z_gaussian_fixed_seed(self):
        a = sample_z_gaussian_batch(3.0, np.zeros(500), RandomSource(77))
        b = sample_z_gaussian_batch(3.0, np.zeros(500), RandomSource(77))
        assert np.array_equal(a, b)

    def test_psi_bar_fixed_seed(self):
        a = sample_psi_bar(0.01, 4093, RandomSource(78), size=500)
        b = sample_psi_bar(0.01, 4093, RandomSource(78), size=500)
        assert np.array_equal(a, b)

    def test_lattice_walk_fixed_seed(self):
        basis = np.array([[3, 1], [0, 2]], dtype=np.int64)
        a = lattice_points(basis, 9.0, np.zeros(2), 50, RandomSource(79))
        b = lattice_points(basis, 9.0, np.zeros(2), 50, RandomSource(79))
        assert np.array_equal(a, b)


def _reject_reference(sigma, centers, rng):
    """The rejection sampler drawing each round's uniforms as one block."""
    root = math.sqrt(2.0 * math.pi)
    base = np.rint(centers).astype(np.int64)
    delta = centers - base
    log_r = -root / sigma
    log_m = math.log(2.0) + 0.5 + root / (2.0 * sigma)
    out = np.zeros(centers.shape[0], dtype=np.int64)
    pending = np.arange(centers.shape[0])
    tries = 1
    while pending.size:
        sz = pending.size
        u = rng.random((3, tries, sz))
        k = np.floor(np.log(u[0]) / log_r)
        x = np.where(u[1] < 0.5, k, -k)
        d = x - delta[pending]
        log_accept = (
            -(math.pi / (sigma * sigma)) * d * d - k * log_r - log_m
            - np.where(k > 0, math.log(0.5), 0.0)
        )
        ok = (np.log(u[2]) < log_accept) & (np.abs(d) <= 12.0 * sigma)
        hit = ok.any(axis=0)
        chosen = x[ok.argmax(axis=0), np.arange(sz)]
        lanes = pending[hit]
        out[lanes] = base[lanes] + chosen[hit].astype(np.int64)
        pending = pending[~hit]
        tries = 6
    return out


def _walk_reference(basis, sigma, proj, rng):
    """The nearest-plane walk row by row over the full square R factor."""
    r = np.linalg.qr(basis.astype(np.float64), mode="r")
    d = basis.shape[0]
    z = np.zeros(proj.shape, dtype=np.float64)
    for k in range(d - 1, -1, -1):
        rest = r[k, k + 1 :] @ z[k + 1 :] if k + 1 < d else 0.0
        z[k] = sample_z_gaussian_batch(sigma / abs(float(r[k, k])), (proj[k] - rest) / r[k, k], rng)
    return z.astype(np.int64)


class TestReferenceAgreement:
    """The samplers keep their exact outputs and stream use across layouts."""

    @pytest.mark.parametrize("sigma", [2.0, 7.5, 1000.0, 235000.0])
    def test_rejection_sampler_matches_block_reference(self, sigma):
        centers = RandomSource(81).normal(40.0, 3000)
        r1, r2 = RandomSource(82), RandomSource(82)
        assert np.array_equal(sample_z_gaussian_batch(sigma, centers, r1),
                              _reject_reference(sigma, centers, r2))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("lanes", [1, 9])
    def test_walk_matches_full_r_reference(self, lanes):
        from ibeetfa.samplers import WALK_BLOCK

        # 40 rows fit in one block; 150 rows take two full blocks and a
        # partial one.  sigma 3 puts every row in the enumeration regime
        # (sigma/|r_kk| below 2), sigma 3000 every row in the rejection regime.
        # Both walks get the same projections: this pins the blocked row
        # order, not the projection (see TestProjection).
        assert 150 > 2 * WALK_BLOCK and 150 % WALK_BLOCK
        for dim in (40, 150):
            basis = RandomSource(83).integers(-50, 51, (dim, dim)) + 200 * np.eye(dim, dtype=np.int64)
            prep = prepare_basis(basis)
            proj = prep.project(RandomSource(84).normal(500.0, (dim, lanes)))
            for sigma, enum in ((3.0, True), (3000.0, False)):
                assert (sigma / prep.gs_norms < 2.0).all() if enum else (sigma / prep.gs_norms >= 2.0).all()
                r1, r2 = RandomSource(85), RandomSource(85)
                got = klein_coefficients(prep, sigma, proj, r1)
                assert np.array_equal(got, _walk_reference(basis, sigma, proj, r2))
                assert r1.random() == r2.random()


def _longdouble_projections(basis, t):
    """Q^T t in long double: Householder QR of [B | t], signs matched to numpy's R."""
    a = np.hstack([basis, t]).astype(np.longdouble)
    d = basis.shape[0]
    for j in range(d):
        x = a[j:, j]
        alpha = -np.sqrt(x @ x) if x[0] >= 0 else np.sqrt(x @ x)
        v = x.copy()
        v[0] -= alpha
        a[j:, j:] -= np.outer(v, (v @ a[j:, j:]) * (2 / (v @ v)))
    sign = np.sign(np.diag(a[:, :d])) * np.sign(np.diag(np.linalg.qr(basis.astype(np.float64), mode="r")))
    return a[:, d:] * sign[:, None]


@pytest.fixture(scope="module")
def coset_cases(mini_system, mini_key):
    """(name, basis, coset map, sigma) for the MINI master and key bases.

    The master basis has the gadget layout (W = [Rbar; I], 2n*log q
    columns); the key basis E'_ID takes the pivot path (W = n unit columns).
    """
    pp, msk = mini_system
    ident, sk = mini_key
    cases = []
    for name, basis, a in (("master", msk.t_a, pp.a),
                           ("key", sk.e_id_prime, compute_f(pp, ident, "prime"))):
        cmap = TrapdoorBasis(basis).coset_map(a, MINI.q)
        cases.append((name, basis, cmap, MINI.sigma))
    return cases


class TestProjection:
    """P = Q^T W from R alone (PreparedBasis.project) against an explicit Q."""

    def test_no_orthonormal_factor_is_held_or_formed(self, monkeypatch, mini_system, mini_key):
        modes = []
        qr = np.linalg.qr

        def spy(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        pp, _ = mini_system
        ident, sk = mini_key
        loaded = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
        ct = encrypt(pp, ident, random_message(MINI.t, 91), RandomSource(92))
        assert td2(pp, loaded, ident, ct, RandomSource(93)) is not None
        assert modes == []  # a loaded key adopts the R its file carries
        prep = TrapdoorBasis(loaded.e_id_prime).prepared()
        assert modes == ["r"]  # a basis without one factors it, R only
        d = prep.dim
        assert [f.name for f in fields(prep)] == ["basis", "r_rows", "gs_norms"]
        assert prep.r_rows.shape == (d * (d + 1) // 2,)

    @staticmethod
    def errors(basis, cmap, targets):
        """Max error of P @ y and of Q^T c against a long-double reference,
        in lattice units (divided by |R_kk|), for the coset representatives
        c = W @ y of targets that sample_left would form."""
        y = cmap.coordinates(targets)
        c = exact_int_matmul(cmap.w, y)
        gs = prepare_basis(basis).gs_norms[:, None]
        ref = _longdouble_projections(basis, c)
        q_factor = np.linalg.qr(basis.astype(np.float64))[0]
        err_p = float(np.max(np.abs(cmap.proj @ y - ref) / gs))
        err_q = float(np.max(np.abs(q_factor.T @ c.astype(np.float64) - ref) / gs))
        return err_p, err_q

    def test_matches_explicit_q_on_scheme_bases(self, coset_cases):
        # Both paths carry the rounding error of the computed R.  On gadget
        # bases (W = [Rbar; I]) the projection is the more accurate one,
        # 0.2-0.5x the Q path's error.  On key bases (pivot W, |y| up to q/2)
        # R-only projections reach 0.3-4.3x of it, still below 1e-8 of a
        # lattice step; the walk test below shows that changes no output.
        master, key = coset_cases
        targets = RandomSource(95).integers(0, MINI.q, (MINI.n, 16))
        err_p, err_q = self.errors(master[1], master[2], targets)
        assert err_p <= err_q, (err_p, err_q)
        err_p, err_q = self.errors(key[1], key[2], targets)
        assert err_p <= 5 * err_q and err_p < 1e-8, (err_p, err_q)

    def test_matches_explicit_q_on_small_gs_basis(self):
        # a trap_gen basis: Gram-Schmidt norms at most ~25 and W = [Rbar; I]
        q, n = 4093, 2
        pair = trap_gen(q, n, trapgen_width(n, q), RandomSource(96))
        cmap = TrapdoorBasis(pair.trapdoor.basis).coset_map(pair.a, q)
        err_p, err_q = self.errors(pair.trapdoor.basis, cmap, RandomSource(97).integers(0, q, (n, 16)))
        assert err_p <= err_q, (err_p, err_q)

    def test_walk_from_p_y_matches_q_path(self, coset_cases):
        # the reference walks from Q^T c with an explicit Q; walking from
        # P @ y must give the same coefficients and stream position
        for name, basis, cmap, sigma in coset_cases:
            prep = prepare_basis(basis)
            q_factor = np.linalg.qr(basis.astype(np.float64))[0]
            for seed in range(20):
                targets = RandomSource(1000 + seed).integers(0, MINI.q, (MINI.n, 4))
                y = cmap.coordinates(targets)
                c = exact_int_matmul(cmap.w, y).astype(np.float64)
                r1, r2 = RandomSource(2000 + seed), RandomSource(2000 + seed)
                got = klein_coefficients(prep, sigma, cmap.proj @ y, r1)
                want = klein_coefficients(prep, sigma, q_factor.T @ c, r2)
                assert np.array_equal(got, want), (name, seed)
                assert r1.random() == r2.random()


class TestAdoptRFactor:
    """adopt_r_factor takes a basis's R factor from elsewhere after an O(d^2) check."""

    @staticmethod
    def packed(r):
        return np.concatenate([r[k, k:] for k in range(r.shape[0])])

    def test_accepts_any_r_factor_of_the_basis(self, mini_key):
        _, sk = mini_key
        basis = sk.e_id_prime
        prep = sk.trapdoor_prime.prepared()
        got = adopt_r_factor(basis, prep.r_rows)
        assert np.array_equal(got.r_rows, prep.r_rows) and np.array_equal(got.gs_norms, prep.gs_norms)
        # other R factors of the same basis, rounded differently or with
        # other row signs, as another host's QR may return them
        cholesky = np.linalg.cholesky(exact_gram(basis).astype(np.float64)).T
        signs = np.where(RandomSource(98).integers(0, 2, basis.shape[0]) == 1, -1.0, 1.0)
        for r in (cholesky, signs[:, None] * cholesky):
            got = adopt_r_factor(basis, self.packed(r))
            assert np.allclose(got.gs_norms, prep.gs_norms, rtol=1e-9)

    def test_refuses_an_r_factor_of_another_basis(self, mini_key, mini_key_other):
        _, sk = mini_key
        _, other = mini_key_other
        r_rows = sk.trapdoor_prime.prepared().r_rows
        with pytest.raises(SingularMatrix):
            adopt_r_factor(sk.e_id_prime, other.trapdoor_prime.prepared().r_rows)
        for word, value in ((1, 2.0 * r_rows[1]), (0, 0.0), (5, np.nan), (7, np.inf)):
            bad = r_rows.copy()
            bad[word] = value
            with pytest.raises(SingularMatrix):
                adopt_r_factor(sk.e_id_prime, bad)
        with pytest.raises(DimensionMismatch):
            adopt_r_factor(sk.e_id_prime, r_rows[:-1])
