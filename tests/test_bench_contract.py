"""The names perfbench traces must exist in the package it benchmarks.

perfbench/tracing.py wraps functions by module and name; a rename that
drops one of them would only surface when the benchmark runs.
"""

import importlib
import importlib.util
import os

from ibeetfa.authz import td3_basis, td3_ct
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import encrypt

from conftest import MINI, random_message

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    missing = []
    for modname, funcs in _load_tracing().TRACED.items():
        mod = importlib.import_module(f"ibeetfa.{modname}")
        missing += [f"{modname}.{f}" for f in funcs if not callable(getattr(mod, f, None))]
    assert not missing, f"traced names missing from ibeetfa: {missing}"


def test_type3_trapdoors_report_their_side(mini_system, mini_key):
    # perfbench checks td3_ct results through is_basis_side
    pp, _ = mini_system
    ident, sk = mini_key
    ct = encrypt(pp, ident, random_message(MINI.t, 700), RandomSource(0xBC))
    assert td3_ct(pp, sk, ident, ct, RandomSource(0xBD)).is_basis_side is False
    assert td3_basis(sk, ident).is_basis_side is True
