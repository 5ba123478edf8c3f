"""Shared fixtures: a fast fully-valid parameter set and cached key material."""

import threading

import numpy as np
import pytest

from ibeetfa.params import ParamSet
from ibeetfa.samplers import WALK_BLOCK, RandomSource
from ibeetfa.scheme import extract, identity_from_string, setup
from ibeetfa.trapdoor import gadget_length

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


#: Bytes of the common header of every artifact: magic, version, kind, a
#: reserved zero byte, the parameter fingerprint and the nine parameter words.
HEADER = 4 + 2 + 1 + 1 + 32 + 72


def r_block_words(d):
    """float64 words of R's row blocks R[lo:hi, lo:], WALK_BLOCK rows each
    counted from the bottom row, as a key file stores them."""
    return sum(min(WALK_BLOCK, hi) * (d - max(0, hi - WALK_BLOCK)) for hi in range(d, 0, -WALK_BLOCK))


def r_diagonal_words(d):
    """Where each R[k, k] lies among those words, k = 0, 1, ..."""
    out, start = [], 0
    for hi in range(d % WALK_BLOCK or WALK_BLOCK, d + 1, WALK_BLOCK):
        lo = max(0, hi - WALK_BLOCK)
        out += [start + i * (d - lo) + i for i in range(hi - lo)]
        start += (hi - lo) * (d - lo)
    return out


def sk_sections(p):
    """Byte slices of the sections of a user secret key file (format version
    6), each started on an 8-byte boundary: the prefix (identity through
    Abar_ID), then E'_ID, R's row blocks and the coset map."""
    d = 2 * p.m
    nk = p.n * gadget_length(p.q)
    sizes = (("identity", 8 * p.ell), ("r_id", 4 * (d - nk) * nk), ("e_f", 4 * d * p.t),
             ("e_f_prime", 4 * d * p.t), ("a_bar_id", 8 * p.n * (d - nk)), ("e_id_prime", 4 * d * d),
             ("r", 8 * r_block_words(d)), ("pivots", 8 * p.n), ("elim", 8 * p.n * p.n), ("proj", 8 * d * p.n))
    spans, pos = {}, HEADER
    for name, size in sizes:
        pos += -pos % 8
        spans[name] = slice(pos, pos + size)
        pos += size
    return spans


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
