"""Lattice-based identity-based encryption with equality tests.

Public API re-exports; see the individual modules for details.
"""

from .errors import (
    DimensionMismatch,
    FormatError,
    IbeetfaError,
    KeyMismatch,
    ParameterError,
    SamplingError,
    SingularMatrix,
)
from .params import ParamSet, preset, validate_params
from .samplers import RandomSource
from .scheme import (
    Ciphertext,
    Identity,
    KeyPreimage,
    MasterSecretKey,
    PublicParams,
    UserSecretKey,
    decrypt,
    encrypt,
    extract,
    identity_from_string,
    setup,
)
from .authz import (
    TrapdoorT1,
    TrapdoorT2,
    TrapdoorT3,
    td1,
    td2,
    td3_basis,
    td3_ct,
    test1,
    test2,
    test3,
)

__all__ = [
    "Ciphertext",
    "DimensionMismatch",
    "FormatError",
    "IbeetfaError",
    "Identity",
    "KeyMismatch",
    "KeyPreimage",
    "MasterSecretKey",
    "ParamSet",
    "ParameterError",
    "PublicParams",
    "RandomSource",
    "SamplingError",
    "SingularMatrix",
    "TrapdoorT1",
    "TrapdoorT2",
    "TrapdoorT3",
    "UserSecretKey",
    "decrypt",
    "encrypt",
    "extract",
    "identity_from_string",
    "preset",
    "setup",
    "td1",
    "td2",
    "td3_basis",
    "td3_ct",
    "test1",
    "test2",
    "test3",
    "validate_params",
]
