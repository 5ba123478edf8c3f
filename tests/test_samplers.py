"""Distributional checks for every randomness source, and the projections
the walk starts from against an explicit Q.

Monte-Carlo expectations are compared against exact mass functions
summed over the truncated support, which is the independent oracle for
all Gaussian-shaped distributions here.
"""

import math
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibeetfa import fileio, samplers
from ibeetfa.authz import td2
from ibeetfa.errors import DimensionMismatch, SamplingError, SingularMatrix
from ibeetfa.samplers import (
    RandomSource,
    _round_bounds,
    _sample_z_enum,
    adopt_r_factor,
    klein_coefficients,
    prepare_basis,
    sample_bounded_matrix,
    sample_psi_bar,
    sample_sign_sum,
    sample_uniform_zq,
    sample_z_gaussian_batch,
    slack_factor,
)
from ibeetfa.scheme import compute_f, encrypt
from ibeetfa.trapdoor import derive_trapdoor, trap_gen, trapgen_width
from ibeetfa.zqlinalg import center_rep, exact_int_matmul, mat_mul

from conftest import MINI, random_message
from oracles import master_basis, reject_round_reference


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


def r_factor(basis):
    """The PreparedBasis of a basis, with no projections asked for."""
    return prepare_basis(basis, np.zeros((len(basis), 0)))[0]


def explicit_projections(basis, t):
    """Q^T t with an explicit Q: numpy's QR of the basis, whose R prepare_basis keeps."""
    return np.linalg.qr(np.asarray(basis, dtype=np.float64))[0].T @ t


def lattice_points(basis, sigma, center, count, rng):
    """count lattice points near center: one walk per column, as extract and td2 run it."""
    basis = np.asarray(basis, dtype=np.int64)
    targets = np.repeat(np.asarray(center, dtype=np.float64)[:, None], count, axis=1)
    z = klein_coefficients(r_factor(basis), sigma, explicit_projections(basis, targets), rng)
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

    @pytest.mark.parametrize("sigma, centers", [
        (5.0, [0.0, math.nan]), (math.inf, [0.0]), (math.nan, [0.0]),
        (5.0, [math.inf]), (5.0, [0.0, -math.inf]), (1.5, [math.nan]),
    ])
    def test_non_finite_input_raises_at_once(self, sigma, centers):
        # no lane of a rejection loop could ever be accepted: the call must
        # raise up front, and a call that hangs fails here instead of
        # stalling the suite
        caught = []

        def call():
            try:
                sample_z_gaussian_batch(sigma, centers, RandomSource(1))
            except SamplingError as err:
                caught.append(err)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and len(caught) == 1

    @pytest.mark.parametrize("sigma", [0.3, 3.0])
    def test_largest_center_is_sampled_exactly(self, sigma):
        # below 2**52 round(c) + offset is exact on both paths
        center = 2**52 - 1
        draws = sample_z_gaussian_batch(sigma, [0.0, float(center)], RandomSource(91))
        assert abs(int(draws[0])) <= 12 * sigma and abs(int(draws[1]) - center) <= 12 * sigma

    @pytest.mark.parametrize("sigma", [0.3, 3.0])
    @pytest.mark.parametrize("center", [2.0**53, 1e19, -1e19, math.nan, math.inf])
    def test_huge_center_raises(self, sigma, center):
        # from 2**53 the enumeration's offsets are inexact, and from 2**63
        # both paths wrap in int64: such a call raises instead
        with pytest.raises(SamplingError, match="below 2"):
            sample_z_gaussian_batch(sigma, [0.0, center], RandomSource(92))

    def test_extract_sized_draw_peak(self):
        # the M-side draw of a toy key basis, 914 x 1,900 lanes at toy's
        # sigma, sets the peak memory of extract: the sampler's own arrays
        # must stay within 8 times the output's 8 bytes a lane
        lanes = 1_736_600
        centers = np.zeros(lanes)
        tracemalloc.start()
        try:
            sample_z_gaussian_batch(235000.0, centers, RandomSource(93))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * lanes, peak / (8 * lanes)


def exact_fit(draws, sigma, center):
    """(chi^2, degrees of freedom, total variation) of draws against the exact
    D_{Z, sigma, center} on |x - center| <= 12*sigma.  Bins expecting fewer
    than 10 draws are pooled into the two tail bins for chi^2; a draw off
    the support fails outright."""
    xs = np.arange(math.ceil(center - 12 * sigma), math.floor(center + 12 * sigma) + 1)
    p = np.exp(-math.pi * (xs - center) ** 2 / sigma**2)
    p /= p.sum()
    assert draws.min() >= xs[0] and draws.max() <= xs[-1]
    n = draws.size
    counts = np.bincount(draws - xs[0], minlength=xs.size).astype(np.float64)
    tv = 0.5 * float(np.abs(counts / n - p).sum())
    lo, hi = np.flatnonzero(n * p >= 10)[[0, -1]]
    obs = np.concatenate([[counts[: lo + 1].sum()], counts[lo + 1 : hi], [counts[hi:].sum()]])
    want = n * np.concatenate([[p[: lo + 1].sum()], p[lo + 1 : hi], [p[hi:].sum()]])
    return float(((obs - want) ** 2 / want).sum()), obs.size - 1, tv


class CountingSource(RandomSource):
    """A RandomSource that counts the normals drawn (one per proposal) and
    can hand out scripted normals and uniforms before its own stream."""

    def __init__(self, seed, normals=(), uniforms=()):
        super().__init__(seed)
        self.proposals = 0
        self.scripted = {"normal": list(normals), "random": list(uniforms)}

    def _scripted(self, kind, out):
        if self.scripted[kind]:
            head = np.asarray(self.scripted[kind].pop(0), dtype=np.float64)
            out[: head.size] = head
        return out

    def normal(self, scale, size=None):
        self.proposals += 1 if size is None else int(np.prod(size))
        return self._scripted("normal", super().normal(scale, size))

    def random(self, size=None):
        return self._scripted("random", super().random(size))


class TestExactness:
    """Both 1-D samplers are D_{Z, sigma, c} itself, not an approximation.

    The correction matters most at small sigma.  On these 2 M draws per
    case, plain rounding of a continuous Gaussian of width sigma (same
    seeds) scores chi^2 16,800-17,400 at sigma = 2 and 3,100-3,500 at
    sigma = 3, and TV 0.029-0.032 and 0.013-0.014, against bounds of 50
    and 0.003; this sampler scores chi^2 5.4-11.4 on 6-11 degrees of
    freedom and TV at most 0.0008.  With 11 or fewer degrees of freedom,
    chi^2 exceeds 50 with probability below 1e-6.
    """

    @pytest.mark.parametrize("sigma", [2.0, 3.0])
    @pytest.mark.parametrize("center", [0.0, 0.25, 0.5, 1e6 + 0.3])
    def test_matches_the_exact_mass_function(self, sigma, center):
        seed = 900 + int(10 * sigma) + int(100 * (center % 1))
        draws = sample_z_gaussian_batch(sigma, np.full(2_000_000, center), RandomSource(seed))
        chi2, dof, tv = exact_fit(draws, sigma, center)
        assert dof >= 6
        assert chi2 < 50 and tv < 0.003, (chi2, dof, tv)

    @pytest.mark.parametrize("sigma", [0.06, 0.5, 1.5])
    @pytest.mark.parametrize("center", [0.0, 0.25, 0.5])
    def test_enumeration_matches_the_exact_mass_function(self, sigma, center):
        # the same 2 M draws and bounds, below sigma = 2; at sigma 0.06 all
        # the mass sits on the one or two integers nearest the center, so
        # chi^2 has few degrees of freedom there and TV carries the check.
        # Drawn 100 k lanes a call, which keeps the 37-row window of
        # sigma 1.5 to a few tens of MB.
        rng = RandomSource(950 + int(100 * sigma) + int(100 * center))
        draws = np.concatenate([sample_z_gaussian_batch(sigma, np.full(100_000, center), rng)
                                for _ in range(20)])
        chi2, dof, tv = exact_fit(draws, sigma, center)
        assert chi2 < 50 and tv < 0.003, (chi2, dof, tv)

    @pytest.mark.parametrize("sigma", [2.0, 3.0, 235000.0])
    def test_no_draw_beyond_the_tail_cut(self, sigma):
        # the first round proposes past 12*sigma on both sides with u = 0,
        # which the correction alone would keep (log 0 = -inf); the tail
        # test must send those lanes back to the stream
        centers = np.array([0.0, 0.5, -0.25, 1e6 + 0.3])
        far = 12 * sigma + 1.0
        rng = CountingSource(5, normals=[[far, -far, 3 * far, -far]], uniforms=[np.zeros(4)])
        with np.errstate(divide="ignore"):
            draws = sample_z_gaussian_batch(sigma, centers, rng)
        assert np.all(np.abs(draws - centers) <= 12 * sigma)
        assert rng.proposals > centers.size

    @pytest.mark.parametrize("sigma, low, high", [(2.0, 1.70, 1 / 0.55), (235000.0, 1.0, 1.0 + 1e-4)])
    def test_proposals_per_lane(self, sigma, low, high):
        # acceptance (1 + eps)^-1/2 * exp(-pi/(4*eps*sigma^2)), eps = sqrt(pi/2)/sigma:
        # 0.573 at sigma = 2 (1.744 proposals per lane), 1 - 5e-6 at 235,000
        lanes = 400_000
        rng = CountingSource(6)
        sample_z_gaussian_batch(sigma, RandomSource(7).normal(100.0, lanes), rng)
        assert low <= rng.proposals / lanes <= high, rng.proposals / lanes


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
        prep = r_factor(basis)
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
            r_factor(bad)

    def test_walk_takes_target_matrices_only(self):
        prep = r_factor(np.eye(3, dtype=np.int64))
        for bad in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(DimensionMismatch):
                klein_coefficients(prep, 5.0, bad, RandomSource(7))

    @pytest.mark.parametrize("sigma", [1.0, 300.0, 3000.0])
    @pytest.mark.parametrize("bad", [math.nan, 2.0**53])
    def test_walk_checks_every_rows_centers(self, sigma, bad):
        # rows at sigma/|R_kk| = 0.005 (decided by rounding), 1.5 (they
        # enumerate) and 15 (rejection): a center that is not finite or not
        # below 2**52 raises, although rounding alone would take 2**53
        basis = 200 * np.eye(3, dtype=np.int64)
        proj = np.zeros((3, 2))
        proj[0, 1] = 200 * bad
        with pytest.raises(SamplingError, match="below 2"):
            klein_coefficients(r_factor(basis), sigma, proj, RandomSource(7))

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
    @pytest.mark.parametrize("ell", [1, 3, 8, 11, 16])
    def test_sign_sum_range_and_parity(self, ell):
        r = sample_sign_sum(ell, 40, RandomSource(79))
        assert r.shape == (40, 40) and r.dtype == np.int64
        assert np.abs(r).max() <= ell and not np.any((r + ell) % 2)

    @pytest.mark.parametrize("ell", [1, 8, 11])
    def test_sign_sum_matches_the_binomial(self, ell):
        # 2*Bin(ell, 1/2) - ell, the law of a sum of ell independent signs;
        # chi^2 on at most ell degrees of freedom exceeds 50 with
        # probability below 1e-6
        r = sample_sign_sum(ell, 320, RandomSource(83 + ell))
        want = r.size * np.array([math.comb(ell, j) for j in range(ell + 1)]) / 2.0**ell
        assert want.min() >= 10
        obs = np.bincount((r.ravel() + ell) // 2, minlength=ell + 1)
        chi2 = float(((obs - want) ** 2 / want).sum())
        assert chi2 < 50, chi2

    def test_sign_sum_seeds_differ(self):
        a = sample_sign_sum(8, 16, RandomSource(1))
        b = sample_sign_sum(8, 16, RandomSource(2))
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
    """The sigma >= 2 sampler in its plainest form: each round draws one
    normal of width sigma_p = sqrt(1 + eps)*sigma, then one uniform, for
    every pending lane, and keeps a lane by the test as written in the
    sampler's derivation."""
    eps = math.sqrt(math.pi / 2.0) / sigma
    sigma_p = sigma * math.sqrt(1.0 + eps)
    out = np.zeros(centers.shape[0], dtype=np.int64)
    pending = list(range(centers.shape[0]))
    while pending:
        v = rng.normal(sigma_p / math.sqrt(2.0 * math.pi), len(pending))
        u = rng.random(len(pending))
        left = []
        for lane, v_i, u_i in zip(pending, v, u):
            base = round(float(centers[lane]))
            delta = float(centers[lane]) - base
            d = float(np.rint(delta + v_i)) - delta
            bound = (-math.pi * d * d / sigma**2 + math.pi * v_i * v_i / sigma_p**2
                     - math.pi / (4.0 * eps * sigma**2))
            if math.log(u_i) < bound and abs(d) <= 12.0 * sigma:
                out[lane] = base + int(round(d + delta))
            else:
                left.append(lane)
        pending = left
    return out


def _enum_reference(sigma, centers, rng):
    """The sigma < 2 sampler as it was first written, with reductions over
    the window: its largest log-weight subtracted, one cumsum, one count."""
    w = max(1, math.ceil(12.0 * sigma))
    base = np.rint(centers).astype(np.int64)
    offsets = np.arange(-w, w + 1, dtype=np.int64)
    # weights[i, j] = rho(base_j + offsets_i)
    dev = (base[None, :] + offsets[:, None]) - centers[None, :]
    logw = -(math.pi / (sigma * sigma)) * dev * dev
    logw -= logw.max(axis=0, keepdims=True)
    weights = np.exp(logw)
    cdf = np.cumsum(weights, axis=0)
    u = rng.random(centers.shape[0]) * cdf[-1]
    idx = (u[None, :] >= cdf).sum(axis=0)
    return base + offsets[idx]


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

    @staticmethod
    def _agree(sigma, centers, script):
        """The sampler and _reject_reference on one scripted stream each:
        bit for bit, and the stream position after; returns the proposals."""
        r1, r2 = CountingSource(88, **script()), CountingSource(88, **script())
        got = sample_z_gaussian_batch(sigma, centers, r1)
        assert got.dtype == np.int64 and np.array_equal(got, _reject_reference(sigma, centers, r2))
        assert r1.proposals == r2.proposals and r1.random() == r2.random()
        return r1.proposals

    @pytest.mark.parametrize("sigma", [2.0, 235000.0])
    def test_rejection_sampler_with_no_lanes(self, sigma):
        assert self._agree(sigma, np.zeros(0), dict) == 0

    @pytest.mark.parametrize("sigma", [2.0, 50.0, 235000.0])
    def test_rejection_round_that_keeps_every_lane(self, sigma):
        # log(1e-300) = -690.8 lies below every log-acceptance inside the tail
        # cut (at least -pi*144 - log_m), so the first round keeps every lane
        centers = RandomSource(89).normal(40.0, 500)
        assert self._agree(sigma, centers, lambda: {"uniforms": [np.full(500, 1e-300)]}) == 500

    @pytest.mark.parametrize("sigma", [2.0, 50.0, 235000.0])
    def test_rejection_round_that_refuses_one_lane(self, sigma):
        # lane 3 proposes past the tail cut and alone goes back to the
        # stream, however small its uniform; every other lane is kept
        centers = RandomSource(90).normal(40.0, 500)
        normals = np.zeros(4)
        normals[3] = 12 * sigma + 5.0

        def script():
            return {"normals": [normals], "uniforms": [np.full(500, 1e-300)]}

        assert self._agree(sigma, centers, script) > 500

    @pytest.mark.parametrize("sigma", [0.057, 0.08, 0.2, 0.5, 1.2, 1.99])
    @pytest.mark.parametrize("lanes", [1, 64, 3000])
    def test_enumeration_matches_reduction_reference(self, sigma, lanes):
        # half-integer centers are ties between two neighbours; 1e6 + 0.5
        # is one far from zero
        specials = [0.5, -0.5, -3.5, 1e6 + 0.5, 0.0, -7.0, 2.25]
        centers = np.concatenate([specials, RandomSource(86).normal(40.0, 3000)])[:lanes]
        r1, r2 = RandomSource(87), RandomSource(87)
        assert np.array_equal(sample_z_gaussian_batch(sigma, centers, r1),
                              _enum_reference(sigma, centers, r2))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("lanes", [1, 9, 64])
    def test_walk_matches_full_r_reference(self, lanes):
        from ibeetfa.samplers import WALK_BLOCK

        # 40 rows fit in one block; 150 rows take two full blocks and a
        # partial one.  sigma 3 puts every row in the enumeration regime
        # (sigma/|r_kk| below 2), sigma 3000 every row in the rejection
        # regime, and twice the median |r_kk| some rows in each.  Both walks
        # get the same projections: this pins the blocked row order, not
        # the projection (see TestProjection).
        assert 150 > 2 * WALK_BLOCK and 150 % WALK_BLOCK
        for dim in (40, 150):
            basis = RandomSource(83).integers(-50, 51, (dim, dim)) + 200 * np.eye(dim, dtype=np.int64)
            prep = r_factor(basis)
            proj = explicit_projections(basis, RandomSource(84).normal(500.0, (dim, lanes)))
            mixed = 2.0 * float(np.median(prep.gs_norms))
            for sigma, regimes in ((3.0, {True}), (mixed, {True, False}), (3000.0, {False})):
                assert set((sigma / prep.gs_norms < 2.0).tolist()) == regimes
                r1, r2 = RandomSource(85), RandomSource(85)
                got = klein_coefficients(prep, sigma, proj, r1)
                assert np.array_equal(got, _walk_reference(basis, sigma, proj, r2))
                assert r1.random() == r2.random()


#: Lane counts around REJECT_CHUNK: none, one, either side of one chunk,
#: and several chunks and a remainder.
_CHUNK_LANES = [0, 1, samplers.REJECT_CHUNK - 1, samplers.REJECT_CHUNK, samplers.REJECT_CHUNK + 1,
                3 * samplers.REJECT_CHUNK + 77]


def _signed_centers(lanes, seed, bits=51):
    """lanes centers of both signs up to +-2**bits: half-integer ties, values
    a step either side of them, and random magnitudes from 1 to 2**bits."""
    rng = RandomSource(seed)
    top = 2.0**bits
    specials = np.array([0.0, 0.5, -0.5, 2.5, -3.5, top, -top, top - 0.5, -top + 0.5, 1e6 + 0.5, -1e6 - 0.5])
    specials = np.concatenate([specials, np.nextafter(specials, np.inf), np.nextafter(specials, -np.inf)])
    spread = np.exp2(rng.random(lanes) * bits) * (rng.integers(0, 2, lanes) * 2.0 - 1.0) + rng.random(lanes)
    return np.concatenate([specials, spread])[:lanes]


class TestChunkedRound:
    """A rejection round works through REJECT_CHUNK lanes at a time and
    gives, bit for bit, what one pass over every lane gave
    (oracles.reject_round_reference): every output, every kept flag, and
    the stream position after it."""

    @pytest.mark.parametrize("sigma", [2.0, 4.47, 2.3e5])
    @pytest.mark.parametrize("lanes", _CHUNK_LANES)
    def test_round_matches_the_unchunked_round(self, sigma, lanes):
        centers = _signed_centers(lanes, 95)
        r1, r2 = RandomSource(96), RandomSource(96)
        out, kept = samplers._reject_round(sigma, centers, r1)
        want_out, want_kept = reject_round_reference(sigma, centers, r2)
        assert out.dtype == np.int64 and kept.dtype == bool
        assert np.array_equal(kept, want_kept) and np.array_equal(out, want_out)
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("sigma", [2.0, 4.47, 2.3e5])
    @pytest.mark.parametrize("lanes", _CHUNK_LANES)
    def test_sampler_matches_the_unchunked_rounds(self, sigma, lanes, monkeypatch):
        # every round of a call, refused lanes included, against the same
        # call whose rounds are the reference's; centers up to 2**44 keep a
        # call's sum of squares below the 2**104 it accepts
        centers = _signed_centers(lanes, 97, bits=44)
        r1, r2 = RandomSource(98), RandomSource(98)
        got = sample_z_gaussian_batch(sigma, centers, r1)
        monkeypatch.setattr(samplers, "_reject_round", reject_round_reference)
        assert np.array_equal(got, sample_z_gaussian_batch(sigma, centers, r2))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("scale", [1e-3, 1.0 / math.sqrt(2 * math.pi), 4.47, 2.3e5])
    def test_normals_are_the_generators(self, scale):
        # RandomSource.normal(s) is numpy's Generator.normal(0, s) on the
        # same PCG64 stream, and so standard normals times s, bit for bit
        for size in (1, 5000):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(99)))
            std = np.random.Generator(np.random.PCG64(np.random.SeedSequence(99)))
            got = RandomSource(99).normal(scale, size)
            assert np.array_equal(got.view(np.uint64), gen.normal(0.0, scale, size).view(np.uint64))
            assert np.array_equal(got.view(np.uint64), (std.standard_normal(size) * scale).view(np.uint64))

    @pytest.mark.parametrize("sigma, centers", [
        (4.47, [0.0, math.nan]), (2.3e5, [math.nan]), (0.0, [0.0]), (-4.47, [1.0]), (-0.0, [0.0]),
    ])
    def test_lanes_are_still_checked(self, sigma, centers):
        with pytest.raises(SamplingError, match="sigma must be positive"):
            samplers._check_lanes(sigma, np.asarray(centers, dtype=np.float64))
        with pytest.raises(SamplingError, match="sigma must be positive"):
            sample_z_gaussian_batch(sigma, centers, RandomSource(100))


#: Uniforms at the edges of the bound: 0 (t = -inf), tiny ones, 1/2 (where
#: the two terms of g cross) and values either side, and the largest below 1.
_EDGE_UNIFORMS = [0.0, 1e-300, 2.0**-53, 1e-9, 1.0 / 3.0, 0.5, 0.75, 1 - 1e-9, 1 - 2.0**-52, 1 - 2.0**-53]


def _side_masses(sigma, centers):
    """(L, H) per lane: the enumeration's weights below and above round(c),
    computed as _sample_z_enum computes them (the weight of round(c) is 1)."""
    w = max(1, math.ceil(12 * sigma))
    base = np.rint(centers)
    dev = (base + np.arange(-w, w + 1.0)[:, None]) - centers
    logw = -(math.pi / sigma**2) * dev * dev
    weights = np.exp(logw - logw[w])
    return weights[:w].sum(axis=0), weights[w + 1 :].sum(axis=0)


def _bound_lanes(sigma, uniforms, base, shifts=()):
    """(centers, uniforms, bounds) of lanes that probe each uniform's bound t:
    fractional parts at t, one step inside and outside it (as floats, and at
    the center's own spacing near base), the ties +-0.5, 0 and any shifts."""
    u = np.asarray(uniforms, dtype=np.float64)
    t = _round_bounds(np.array([sigma]), u[None, :])[0]
    centers, lanes = [], []
    for j, tj in enumerate(t):
        fracs = [0.5, -0.5, 0.0, *shifts]
        if np.isfinite(tj):
            edge = [tj, np.nextafter(tj, 0.0), np.nextafter(tj, 1.0)]
            fracs += edge + [-f for f in edge]
        c = base + np.array(fracs)
        c = np.concatenate([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)])
        centers.append(c)
        lanes.append(np.full(c.size, j))
    lanes = np.concatenate(lanes)
    return np.concatenate(centers), u[lanes], t[lanes]


def _assert_bound_is_sound(sigma, centers, u, t):
    """Every lane with |c - round(c)| <= t gets round(c) from the enumeration
    on its uniform, and both its side masses are at most
    g = (1 - 1e-9) * min(u, (1/u - 1)/2); returns the lanes within."""
    rounded = np.rint(centers)
    within = np.abs(centers - rounded) <= t
    out = _sample_z_enum(sigma, centers, u)
    assert np.array_equal(out[within], rounded[within].astype(np.int64)), sigma
    with np.errstate(divide="ignore"):
        g = (1.0 - 1e-9) * np.minimum(u, (1.0 / u - 1.0) / 2.0)
    low, high = _side_masses(sigma, centers)
    assert np.all(low[within] <= g[within]) and np.all(high[within] <= g[within]), sigma
    return int(within.sum())


class TestRoundingBound:
    """The walk's shortcut is exact: a lane whose |c - round(c)| is within its
    bound (samplers._round_bounds) is round(c), which the enumeration itself
    returns on the same uniform, and its side masses are at most g, the
    premise of that proof.  Without the window width w in the bound, the
    masses exceed g from sigma 0.6 on (the outcomes survive on the slack of
    the proof's last step); without the (1/u - 1)/2 term of g, lanes whose
    u is near 1 get round(c) + 1 or round(c) - 1."""

    @given(sigma=st.floats(0.03, 1.999),
           uniforms=st.lists(st.one_of(st.sampled_from(_EDGE_UNIFORMS),
                                       st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)),
                             min_size=1, max_size=8),
           base=st.sampled_from([0.0, -3.0, 1e6, -1e6 + 1.0]),
           shifts=st.lists(st.floats(-0.5, 0.5), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_lanes_within_their_bound_take_round_c(self, sigma, uniforms, base, shifts):
        _assert_bound_is_sound(sigma, *_bound_lanes(sigma, uniforms, base, shifts))

    def test_sweep(self):
        # 400 sigmas across the enumeration regime, each with the edge
        # uniforms and 40 random ones, near 0 and near 1e6
        rng = RandomSource(140)
        within = lanes = 0
        for sigma in np.linspace(0.03, 1.999, 400):
            uniforms = np.concatenate([_EDGE_UNIFORMS, rng.random(40)])
            for base in (0.0, 1e6):
                centers, u, t = _bound_lanes(sigma, uniforms, base, rng.random(4) - 0.5)
                within += _assert_bound_is_sound(sigma, centers, u, t)
                lanes += centers.size
        assert within > lanes // 10, (within, lanes)

    def test_bound_is_minus_inf_at_u_zero(self):
        assert _round_bounds(np.array([0.05, 1.5]), np.zeros((2, 3))).max() == -np.inf

    def test_td2_rounds_every_row_it_may(self, monkeypatch, mini_system, mini_key):
        # one seeded td2 on the MINI key enumerates 500 of its 818
        # enumeration rows (0.60-0.64 over 12 seeds) and rounds the rest;
        # a bound that is tighter than it needs to be sends more rows to
        # the enumeration and fails the pinned share
        pp, _ = mini_system
        ident, sk = mini_key
        calls = []
        enum = samplers._sample_z_enum

        def counted(*args):
            calls.append(args[0])
            return enum(*args)

        monkeypatch.setattr(samplers, "_sample_z_enum", counted)
        ct = encrypt(pp, ident, random_message(MINI.t, 801), RandomSource(901))
        assert td2(pp, sk, ident, ct, RandomSource(1001)) is not None
        rows = int((MINI.sigma / sk.trapdoor_prime.prep.gs_norms < 2.0).sum())
        assert rows == 818
        assert len(calls) <= 0.68 * rows, len(calls) / rows


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


def coset_representatives(td, targets):
    """(y, c) for the n x k targets under a TrapdoorBasis's public matrix:
    y = center_rep(E @ targets), and c = W @ y holds y on the pivot rows."""
    y = center_rep(mat_mul(td.elim, targets, td.q), td.q)
    c = np.zeros((td.basis.shape[0], y.shape[1]), dtype=np.int64)
    c[td.pivots] = y
    return y, c


@pytest.fixture(scope="module")
def coset_cases(mini_system, mini_key):
    """(name, TrapdoorBasis, sigma) for the bases the MINI scheme walks.

    The master trapdoor's SampleD walks S_k under the gadget row g^T at its
    width s_G, one residue per lane on one pivot row; td2 walks the key
    basis E'_ID under F'_ID at sigma, n centered residues on n pivot rows
    (W = n unit columns).
    """
    pp, msk = mini_system
    ident, sk = mini_key
    master = msk.trapdoor_a
    cases = [("master", master.g_trapdoor, master.width_g),
             ("key", derive_trapdoor(compute_f(pp, ident, "prime"), sk.e_id_prime, MINI.q), MINI.sigma)]
    assert [case[1].pivots.size for case in cases] == [1, MINI.n]
    return cases


class TestProjection:
    """P = Q^T W from the QR's Householder reflectors (prepare_basis) against an explicit Q."""

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
        prep = derive_trapdoor(compute_f(pp, ident, "prime"), loaded.e_id_prime, MINI.q).prep
        assert modes == ["raw"]  # a fresh basis is factored once, without Q
        d = prep.dim
        assert [f.name for f in fields(prep) if f.init] == ["r", "gs_norms"]
        # R is held once, as the walk's row blocks R[lo:hi, lo:], counted
        # from the bottom row, views into one buffer, which the key file stores
        rows = [(max(0, hi - samplers.WALK_BLOCK), hi) for hi in range(d, 0, -samplers.WALK_BLOCK)]
        assert [b.shape for b in reversed(prep.blocks)] == [(hi - lo, d - lo) for lo, hi in rows]
        assert all(not np.tril(b, -1).any() for b in prep.blocks)
        assert prep.r.shape == (samplers.r_factor_words(d),) == (sum(b.size for b in prep.blocks),)
        assert all(np.shares_memory(b, prep.r) for b in prep.blocks)

    @staticmethod
    def errors(td, targets):
        """Max error of P @ y and of Q^T c against a long-double reference,
        in lattice units (divided by |R_kk|), for the coset representatives
        c = W @ y of targets that sample_left would form."""
        basis = td.basis
        y, c = coset_representatives(td, targets)
        gs = r_factor(basis).gs_norms[:, None]
        ref = _longdouble_projections(basis, c)
        q_factor = np.linalg.qr(basis.astype(np.float64))[0]
        err_p = float(np.max(np.abs(td.proj @ y - ref) / gs))
        err_q = float(np.max(np.abs(q_factor.T @ c.astype(np.float64) - ref) / gs))
        return err_p, err_q

    def test_matches_explicit_q_on_scheme_bases(self, coset_cases):
        # Both paths carry the rounding error of the computed QR.  Both maps
        # are pivot maps with |y| up to q/2.  P is the explicit Q's Q^T W to
        # a few units in the last place, so on S_k, whose steps are short
        # (|R_kk| <= sqrt(5)), its error is 1.0x the Q path's, below 1e-6 of
        # a lattice step, and on this key basis 0.95-1.02x at 1 and 2 BLAS
        # threads, below 1e-8 of a step.  The walk test below shows that
        # the remaining error changes no output.
        targets = RandomSource(95).integers(0, MINI.q, (MINI.n, 16))
        (_, master, _), (_, key, _) = coset_cases
        for td in (master, key):
            q_factor = np.linalg.qr(td.basis.astype(np.float64))[0]
            assert np.abs(td.proj - q_factor[td.pivots].T).max() < 1e-14
        # SampleD walks G's n rows as one row of n times the lanes
        err_p, err_q = self.errors(master, targets.reshape(1, -1))
        assert err_p <= 1.5 * err_q and err_p < 1e-5, (err_p, err_q)
        err_p, err_q = self.errors(key, targets)
        assert err_p <= 5 * err_q and err_p < 1e-8, (err_p, err_q)

    def test_matches_explicit_q_on_small_gs_basis(self):
        # a trap_gen basis: Gram-Schmidt norms at most ~25, pivot W.  P is
        # the explicit Q's Q^T W to a few units in the last place (5e-16),
        # so its error is the Q path's: 3.6e-11 of a lattice step, 1.003x
        q, n = 4093, 2
        pair = trap_gen(q, n, trapgen_width(n, q), RandomSource(96))
        td = derive_trapdoor(pair.a, master_basis(pair.a, pair.trapdoor), q)
        q_factor = np.linalg.qr(td.basis.astype(np.float64))[0]
        assert np.abs(td.proj - q_factor[td.pivots].T).max() < 1e-14
        err_p, err_q = self.errors(td, RandomSource(97).integers(0, q, (n, 16)))
        assert err_p < 1e-10, (err_p, err_q)

    def test_walk_from_p_y_matches_q_path(self, coset_cases):
        # the reference walks from Q^T c with an explicit Q; walking from
        # P @ y must give the same coefficients and stream position
        for name, td, sigma in coset_cases:
            prep = r_factor(td.basis)
            q_factor = np.linalg.qr(td.basis.astype(np.float64))[0]
            for seed in range(20):
                targets = RandomSource(1000 + seed).integers(0, MINI.q, (MINI.n, 4))
                # one row of n times the lanes for S_k, as SampleD walks it
                y, c = coset_representatives(td, targets.reshape(td.pivots.size, -1))
                r1, r2 = RandomSource(2000 + seed), RandomSource(2000 + seed)
                got = klein_coefficients(prep, sigma, td.proj @ y, r1)
                want = klein_coefficients(prep, sigma, q_factor.T @ c.astype(np.float64), r2)
                assert np.array_equal(got, want), (name, seed)
                assert r1.random() == r2.random()


class TestAdoptRFactor:
    """adopt_r_factor takes a basis's R factor from elsewhere after an O(d^2) check."""

    @staticmethod
    def bounds(d):
        return [(max(0, hi - samplers.WALK_BLOCK), hi) for hi in range(d, 0, -samplers.WALK_BLOCK)][::-1]

    @classmethod
    def blocked(cls, r):
        """A full upper-triangular R as its row blocks in one buffer, the layout PreparedBasis.r holds."""
        return np.concatenate([r[lo:hi, lo:].ravel() for lo, hi in cls.bounds(r.shape[0])])

    def test_accepts_any_r_factor_of_the_basis(self, mini_key):
        _, sk = mini_key
        basis = sk.e_id_prime
        prep = sk.trapdoor_prime.prep
        d = basis.shape[0]
        r_full = np.zeros((d, d))
        for (lo, hi), block in zip(self.bounds(d), prep.blocks):
            r_full[lo:hi, lo:] = block
        assert np.array_equal(self.blocked(r_full), prep.r)
        proj = np.linspace(-1.0, 1.0, 3 * d).reshape(d, 3)
        got, rt, r_norm = adopt_r_factor(basis, prep.r, proj)
        assert np.allclose(rt, r_full.T @ proj, rtol=0, atol=1e-9 * np.abs(r_full).sum())
        assert math.isclose(r_norm, np.linalg.norm(r_full), rel_tol=1e-12)
        none = np.zeros((d, 0))
        # the buffer is held as it is, not copied
        assert got.r is prep.r and np.array_equal(got.gs_norms, prep.gs_norms)
        # other R factors of the same basis, rounded differently or with
        # other row signs, as another host's QR may return them
        cholesky = np.linalg.cholesky(exact_int_matmul(basis.T, basis).astype(np.float64)).T
        signs = np.where(RandomSource(98).integers(0, 2, basis.shape[0]) == 1, -1.0, 1.0)
        for r in (cholesky, signs[:, None] * cholesky):
            got, _, _ = adopt_r_factor(basis, self.blocked(r), none)
            assert np.allclose(got.gs_norms, prep.gs_norms, rtol=1e-9)

    def test_refuses_an_r_factor_of_another_basis(self, mini_key, mini_key_other):
        _, sk = mini_key
        _, other = mini_key_other
        r = sk.trapdoor_prime.prep.r
        d = sk.e_id_prime.shape[0]
        none = np.zeros((d, 0))
        with pytest.raises(SingularMatrix):
            adopt_r_factor(sk.e_id_prime, other.trapdoor_prime.prep.r, none)
        # words 0, 1, 5 and 7 are R[0, 0], R[0, 1], R[0, 5] and R[0, 7]; word d
        # is R[1, 0], below the diagonal of the top block, which starts at row 0
        for word, value in ((1, 2.0 * r[1]), (0, 0.0), (5, np.nan), (7, np.inf), (d, 1e-300), (d, np.nan)):
            bad = r.copy()
            bad[word] = value
            with pytest.raises(SingularMatrix):
                adopt_r_factor(sk.e_id_prime, bad, none)
        with pytest.raises(DimensionMismatch):
            adopt_r_factor(sk.e_id_prime, r[:-1], none)
