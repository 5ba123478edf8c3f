"""Constraint validator cases and preset sanity."""

import dataclasses
import math

import pytest

from ibeetfa.errors import ParameterError
from ibeetfa.params import (
    DECRYPTION_MARGIN_K,
    preset,
    require_valid,
    validate_params,
)
from ibeetfa.samplers import slack_factor
from ibeetfa.trapdoor import SAMPLE_D_MARGIN, SIGN_OPNORM_CONSTANT, bound_gs, gadget_length


def base_valid():
    return preset("toy")


def with_changes(p, **kw):
    return dataclasses.replace(p, **kw)


def violation_names(p):
    return {v.split(":")[0] for v in validate_params(p)}


class TestWidthConstraint:
    def test_hand_computed_pass_fail(self):
        # ceil(log2 4093) = 12, so the threshold is 6*8*12 = 576
        p = with_changes(
            base_valid(), n=8, q=4093, m=577, sigma=1e9, alpha=1e-12, q_bound=1024
        )
        assert "trapgen-width" not in violation_names(p)
        p576 = with_changes(p, m=576)
        assert "trapgen-width" in violation_names(p576)


class TestSigmaConstraint:
    def test_floor_formula(self):
        # SampleD's condition on every master draw, with s1([Rbar; I]) at
        # most sqrt(1 + (C sqrt(m))^2) and s_G = sqrt(5) * slack(nk), and the
        # SampleRight term
        p = base_valid()
        s_g = math.sqrt(5) * slack_factor(p.n * gadget_length(p.q))
        s1 = math.sqrt(1 + SIGN_OPNORM_CONSTANT**2 * p.m)
        floor = max(
            math.sqrt(SAMPLE_D_MARGIN * (s_g * s1) ** 2 + slack_factor(2 * p.m) ** 2),
            bound_gs(p.n, p.q) * SIGN_OPNORM_CONSTANT * p.ell * math.sqrt(p.m) * slack_factor(p.m),
        )
        assert "sigma-sampling" in violation_names(with_changes(p, sigma=floor * 0.99))
        assert "sigma-sampling" not in violation_names(with_changes(p, sigma=floor * 1.01))


class TestLweConstraint:
    def test_hand_computed_case(self):
        # 2*sqrt(4)/0.5 = 8 > 7, so q = 7 fails
        p = with_changes(base_valid(), n=4, q=7, alpha=0.5)
        assert "lwe-reduction" in violation_names(p)

    def test_passing_case(self):
        p = base_valid()
        assert "lwe-reduction" not in violation_names(p)


class TestQueryBound:
    def test_violated_when_q_small(self):
        p = with_changes(base_valid(), q_bound=base_valid().q)  # 2*Q > q
        assert "query-bound" in violation_names(p)


class TestDecryptionMargin:
    def test_q_side(self):
        p = base_valid()
        huge_sigma = p.q / (DECRYPTION_MARGIN_K * p.m**1.5) * 1.5
        assert "decryption-margin" in violation_names(with_changes(p, sigma=huge_sigma))

    def test_alpha_side(self):
        p = base_valid()
        cap = 1.0 / (p.sigma * p.ell * p.m * slack_factor(p.m))
        assert "decryption-margin" in violation_names(with_changes(p, alpha=cap * 1.5))


class TestBasicChecks:
    def test_composite_modulus(self):
        assert "modulus-prime" in violation_names(with_changes(base_valid(), q=4095))

    def test_oversized_modulus(self):
        assert "modulus-width" in violation_names(
            with_changes(base_valid(), q=(1 << 38) + 7)
        )

    def test_alpha_out_of_range(self):
        assert "alpha-range" in violation_names(with_changes(base_valid(), alpha=1.5))

    def test_validator_is_pure_data(self):
        out = validate_params(with_changes(base_valid(), q=4095, alpha=2.0))
        assert isinstance(out, list) and all(isinstance(v, str) for v in out)


class TestPresets:
    def test_mini_fixture_set_validates(self):
        from conftest import MINI

        assert validate_params(MINI) == []

    def test_toy_validates(self):
        assert validate_params(preset("toy")) == []

    def test_small_validates(self):
        assert validate_params(preset("small")) == []

    def test_small_is_larger(self):
        toy, small = preset("toy"), preset("small")
        assert small.n > toy.n and small.m > toy.m and small.t > toy.t

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            preset("enormous")

    def test_require_valid_raises_with_names(self):
        bad = with_changes(base_valid(), m=10)
        with pytest.raises(ParameterError) as err:
            require_valid(bad)
        assert err.value.violations
