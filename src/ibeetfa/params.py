"""Parameter sets, the constraint validator, and named presets.

The five validated constraints (names returned by validate_params):

  trapgen-width      m > 6 * n * ceil(log2 q)
  sigma-sampling     sigma clears SampleD's threshold and the SampleRight term
  lwe-reduction      q > 2 * sqrt(n) / alpha
  query-bound        q > 2 * Q_bound
  decryption-margin  q >= K * sigma * m**1.5  and  alpha < 1/(sigma*ell*m*slack(m))

Presets are sized for correctness exercises only and provide no
cryptographic security; the CLI prints a warning whenever one is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .samplers import slack_factor
from .trapdoor import SIGN_OPNORM_CONSTANT, bound_gs, gadget_length, gadget_width, sample_d_floor
from .zqlinalg import MAX_MODULUS_BITS, is_prime

#: Multiplier in the decryption-margin constraint q >= K * sigma * m^(3/2).
DECRYPTION_MARGIN_K = 5.0


@dataclass(frozen=True)
class ParamSet:
    """Every public scalar the scheme depends on."""

    lambda_bits: int   # integrity-tag length
    n: int             # lattice dimension
    m: int             # lattice width
    q: int             # odd prime modulus
    t: int             # message bit length
    ell: int           # identity bit length
    sigma: float       # Gaussian sampling parameter
    alpha: float       # LWE noise rate, in (0, 1)
    q_bound: int       # assumed cap on identity-key queries


def validate_params(p: ParamSet) -> list[str]:
    """Named constraint violations; an empty list means the set is usable."""
    violations: list[str] = []
    if p.q < 3 or p.q % 2 == 0 or not is_prime(p.q):
        violations.append("modulus-prime: q must be an odd prime >= 3")
    if p.q >> MAX_MODULUS_BITS:
        violations.append(
            f"modulus-width: q must fit in {MAX_MODULUS_BITS} bits for exact arithmetic"
        )
    if min(p.lambda_bits, p.n, p.m, p.t, p.ell, p.q_bound) < 1:
        violations.append("positive-sizes: lambda, n, m, t, ell, Q_bound must be positive")
    if not 0.0 < p.alpha < 1.0:
        violations.append("alpha-range: alpha must lie in (0, 1)")
    if p.sigma <= 0:
        violations.append("sigma-positive: sigma must be positive")
    if violations:
        return violations

    width = 6 * p.n * gadget_length(p.q)
    if not p.m > width:
        violations.append(
            f"trapgen-width: m = {p.m} must exceed 6*n*ceil(log2 q) = {width}"
        )
    # SampleD's condition for every master draw (s1([Rbar; I])^2 = 1 + s1(Rbar)^2,
    # s1(Rbar) below the sign-matrix bound), and the SampleRight term of the proof
    s1_master = math.sqrt(1.0 + SIGN_OPNORM_CONSTANT**2 * p.m)
    s_rid = SIGN_OPNORM_CONSTANT * p.ell * math.sqrt(p.m)
    sigma_floor = max(sample_d_floor(gadget_width(p.n, p.q) * s1_master, slack_factor(2 * p.m)),
                      bound_gs(p.n, p.q) * s_rid * slack_factor(p.m))
    if not p.sigma > sigma_floor:
        violations.append(
            f"sigma-sampling: sigma = {p.sigma:.6g} must exceed {sigma_floor:.6g}"
        )
    if not p.q > 2.0 * math.sqrt(p.n) / p.alpha:
        violations.append(
            f"lwe-reduction: q = {p.q} must exceed 2*sqrt(n)/alpha = {2.0 * math.sqrt(p.n) / p.alpha:.6g}"
        )
    if not p.q > 2 * p.q_bound:
        violations.append(f"query-bound: q = {p.q} must exceed 2*Q_bound = {2 * p.q_bound}")
    margin_q = DECRYPTION_MARGIN_K * p.sigma * p.m**1.5
    alpha_cap = 1.0 / (p.sigma * p.ell * p.m * slack_factor(p.m))
    if not (p.q >= margin_q and p.alpha < alpha_cap):
        violations.append(
            f"decryption-margin: need q >= {margin_q:.6g} and alpha < {alpha_cap:.6g}"
        )
    return violations


_PRESETS = {
    # Correctness-scale set: full pipeline runs in seconds per operation.
    "toy": ParamSet(
        lambda_bits=128,
        n=4,
        m=914,
        q=259_999_999_951,
        t=64,
        ell=8,
        sigma=235_000.0,
        alpha=2.0e-11,
        q_bound=1 << 20,
    ),
    # One notch up in every dimension that costs something.
    "small": ParamSet(
        lambda_bits=192,
        n=5,
        m=1142,
        q=269_999_999_999,
        t=96,
        ell=8,
        sigma=295_000.0,
        alpha=2.0e-11,
        q_bound=1 << 20,
    ),
}


def preset(name: str) -> ParamSet:
    """Named parameter set; raises on unknown names."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None


def require_valid(p: ParamSet) -> ParamSet:
    violations = validate_params(p)
    if violations:
        raise ParameterError(
            "parameter set violates constraints: " + "; ".join(violations),
            violations=violations,
        )
    return p
