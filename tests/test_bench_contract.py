"""What perfbench reads of the package it benchmarks must keep existing.

perfbench/tracing.py wraps functions by module and name and counts their
work from the arguments, and the authority workload's oracle
(Authority._key_ok and _shipped_ok) reads a key's delegated bases; a
change that drops one of them, or changes an argument a counter reads,
would only surface when the benchmark runs.
"""

import importlib
import importlib.util
import os
import sys

import numpy as np

from ibeetfa import fileio, samplers, trapdoor
from ibeetfa.authz import td2, td3_basis, td3_ct
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import compute_f, encrypt
from ibeetfa.zqlinalg import mat_mul

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


def _record_calls(monkeypatch, home, name):
    """Record (args, kwargs, result) of every call of home.name, from any ibeetfa module."""
    orig, calls = getattr(home, name), []

    def recorder(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    for modname, mod in list(sys.modules.items()):
        if modname == "ibeetfa" or modname.startswith("ibeetfa."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, recorder)
    return calls


def test_work_counters_read_real_sampler_calls(monkeypatch, mini_system, mini_key):
    """The per-layer counters, fed the arguments of one td2's sampler calls.

    td2 runs sample_left with the key basis: a Gaussian M-side draw (the
    rejection sampler) and a walk whose rows mostly fall to enumeration.
    """
    tracing = _load_tracing()
    pp, _ = mini_system
    ident, sk = mini_key
    ct = encrypt(pp, ident, random_message(MINI.t, 701), RandomSource(0xBE))
    left = _record_calls(monkeypatch, trapdoor, "sample_left")
    walks = _record_calls(monkeypatch, samplers, "klein_coefficients")
    draws = _record_calls(monkeypatch, samplers, "sample_z_gaussian_batch")
    assert td2(pp, sk, ident, ct, RandomSource(0xBF)) is not None

    assert len(left) == 1 and len(walks) == 1
    args, kwargs, out = left[0]
    assert tracing._cols_of_target(args, kwargs, out) == (MINI.t, 0) == (out.shape[1], 0)
    args, kwargs, out = walks[0]
    assert tracing._klein_work(args, kwargs, out) == (2 * MINI.m, MINI.t) == out.shape
    kinds = set()
    for args, kwargs, out in draws:
        enum = args[0] < 2.0
        kinds.add(enum)
        assert tracing._sample_z_work(args, kwargs, out) == (out.size, out.size if enum else 0)
    assert kinds == {True, False}
    assert sum(out.size for _, _, out in draws) == (MINI.m + 2 * MINI.m) * MINI.t


def test_type3_trapdoors_report_their_side(mini_system, mini_key):
    # perfbench checks td3_ct results through is_basis_side
    pp, _ = mini_system
    ident, sk = mini_key
    ct = encrypt(pp, ident, random_message(MINI.t, 700), RandomSource(0xBC))
    assert td3_ct(pp, sk, ident, ct, RandomSource(0xBD)).is_basis_side is False
    assert td3_basis(sk, ident).is_basis_side is True


def test_keys_expose_the_bases_the_authority_oracle_reads(mini_system, mini_key):
    """sk.e_id and sk.e_id_prime, fresh and after dump/load, with F_ID @ E == 0.

    Decryption and the type-1 tests no longer read E_ID, but perfbench's
    authority oracle checks both bases of every issued and shipped key.
    Dropping E_ID (ROADMAP item 1(b)) therefore needs a benchmark change to
    that oracle first.
    """
    pp, _ = mini_system
    ident, sk = mini_key
    back = fileio.load_user_secret(fileio.dump_user_secret(sk, MINI), MINI)
    for key in (sk, back):
        assert key.identity == ident
        for which, e in (("primary", key.e_id), ("prime", key.e_id_prime)):
            assert e.shape == (2 * MINI.m, 2 * MINI.m)
            assert not np.any(mat_mul(compute_f(pp, ident, which), e, MINI.q))
    assert np.array_equal(back.e_id, sk.e_id) and np.array_equal(back.e_id_prime, sk.e_id_prime)
