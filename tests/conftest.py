"""Shared fixtures: a fast fully-valid parameter set and cached key material."""

import threading

import numpy as np
import pytest

from ibeetfa.params import ParamSet
from ibeetfa.samplers import RandomSource
from ibeetfa.scheme import extract, identity_from_string, setup

# Smallest set that clears every validator constraint; pipeline unit tests
# run against this, the acceptance suite runs against preset("toy").
MINI = ParamSet(
    lambda_bits=128,
    n=2,
    m=410,
    q=13_000_000_073,
    t=64,
    ell=8,
    sigma=86_000.0,
    alpha=2.5e-10,
    q_bound=1 << 20,
)


@pytest.fixture(scope="session")
def mini_system():
    rng = RandomSource(0xA11CE)
    pp, msk = setup(MINI, rng)
    return pp, msk


@pytest.fixture(scope="session")
def mini_key(mini_system):
    pp, msk = mini_system
    ident = identity_from_string("alice", MINI.ell)
    sk = extract(pp, msk, ident, RandomSource(0xB0B))
    return ident, sk


@pytest.fixture(scope="session")
def mini_key_other(mini_system):
    pp, msk = mini_system
    ident = identity_from_string("carol", MINI.ell)
    sk = extract(pp, msk, ident, RandomSource(0xCA201))
    return ident, sk


def random_message(t, seed):
    return RandomSource(seed).integers(0, 2, t).astype(np.uint8)


class CallCounter:
    """Counts calls of a wrapped function, from any thread."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        return self.fn(*args, **kwargs)
