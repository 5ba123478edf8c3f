"""Acceptance suite: every exit criterion at the toy preset, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
result lines.  The whole module takes on the order of fifteen minutes on
one core; everything heavier than a digest is cached and reused across
criteria.
"""

import dataclasses
import math

import numpy as np
import pytest

from ibeetfa.authz import (
    digest_from_basis,
    td1,
    td2,
    td3_basis,
    td3_ct,
)
from ibeetfa.authz import test1 as eq_test1
from ibeetfa.authz import test2 as eq_test2
from ibeetfa.authz import test3 as eq_test3
from ibeetfa.params import preset, validate_params
from ibeetfa.samplers import RandomSource, sample_psi_bar, sample_z_gaussian_batch
from ibeetfa.scheme import (
    Identity,
    compute_f,
    decrypt,
    encrypt,
    encrypt_traced,
    extract,
    setup,
)
from ibeetfa.trapdoor import sample_left
from ibeetfa.zqlinalg import concat_cols, mat_mul

from conftest import random_message

pytestmark = pytest.mark.slow

TOY = preset("toy")
SEED = 0xACCE97


def report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="module")
def system():
    rng = RandomSource(SEED)
    pp, msk = setup(TOY, rng)
    return pp, msk


class _KeyCache:
    """Bounded extraction cache; a delegated key pair is ~50 MB at toy scale."""

    def __init__(self, pp, msk, maxsize=10):
        self.pp, self.msk = pp, msk
        self.maxsize = maxsize
        self.cache = {}

    def get(self, ident: Identity):
        k = ident.key()
        if k not in self.cache:
            seed = int.from_bytes(b"xk" + k, "big")
            self.cache[k] = extract(self.pp, self.msk, ident, RandomSource(seed))
            while len(self.cache) > self.maxsize:
                self.cache.pop(next(iter(self.cache)))
        return self.cache[k]


@pytest.fixture(scope="module")
def keys(system):
    pp, msk = system
    return _KeyCache(pp, msk)


def random_identity(rng) -> Identity:
    return Identity(tuple(int(2 * b - 1) for b in rng.integers(0, 2, TOY.ell)))


@pytest.fixture(scope="module")
def pool(system, keys):
    """Identities, messages, and ciphertexts shared by criteria 2 and 3."""
    pp, _ = system
    rng = RandomSource(SEED + 1)
    idents = []
    while len(idents) < 6:
        ident = random_identity(rng)
        if all(ident.bits != x.bits for x in idents):
            idents.append(ident)
    for ident in idents:
        keys.get(ident)
    msgs = [random_message(TOY.t, 9000 + j) for j in range(4)]
    cts = {}
    for i, ident in enumerate(idents):
        for j, msg in enumerate(msgs):
            for copy in range(2 if i < 2 else 1):
                cts[(i, j, copy)] = encrypt(pp, ident, msg, rng)
    return idents, msgs, cts


def test_criterion_1_round_trip(system, keys):
    """100/100 random (identity, message) pairs decrypt to the message."""
    pp, _ = system
    rng = RandomSource(SEED + 2)
    good = 0
    for trial in range(100):
        ident = random_identity(rng)
        sk = keys.get(ident)
        msg = random_message(TOY.t, 20_000 + trial)
        ct = encrypt(pp, ident, msg, rng)
        out = decrypt(pp, sk, ct, rng)
        good += int(out is not None and np.array_equal(out, msg))
    report("criterion-1", good == 100, f"decrypt round trips {good}/100")


def test_criterion_2_equality_tests(system, keys, pool):
    """For each test type: 100 equal pairs answer 1, 100 unequal answer 0."""
    pp, _ = system
    idents, msgs, cts = pool
    rng = RandomSource(SEED + 3)
    keyset = sorted(cts)

    def draw_pair(equal: bool):
        while True:
            ki = keyset[int(rng.integers(0, len(keyset)))]
            kj = keyset[int(rng.integers(0, len(keyset)))]
            if ki == kj:
                continue
            if (ki[1] == kj[1]) == equal:
                return ki, kj

    t1 = {i: td1(keys.get(ident), ident) for i, ident in enumerate(idents)}
    t2 = {k: td2(pp, keys.get(idents[k[0]]), idents[k[0]], cts[k], rng) for k in keyset}
    t3_basis_side = {i: td3_basis(keys.get(ident), ident) for i, ident in enumerate(idents)}
    t3_ct_side = {k: td3_ct(pp, keys.get(idents[k[0]]), idents[k[0]], cts[k], rng) for k in keyset}

    counts = {}
    for alpha in (1, 2, 3):
        ok_equal = 0
        ok_unequal = 0
        for want_equal in (True, False):
            for _ in range(100):
                ki, kj = draw_pair(want_equal)
                if alpha == 1:
                    out = eq_test1(t1[ki[0]], t1[kj[0]], cts[ki], cts[kj], pp, rng)
                elif alpha == 2:
                    out = eq_test2(t2[ki], t2[kj], cts[ki], cts[kj], TOY.q)
                else:
                    out = eq_test3(t3_basis_side[ki[0]], t3_ct_side[kj], cts[ki], cts[kj], pp, rng)
                if want_equal:
                    ok_equal += int(out == 1)
                else:
                    ok_unequal += int(out == 0)
        counts[alpha] = (ok_equal, ok_unequal)
    ok = all(v == (100, 100) for v in counts.values())
    detail = "; ".join(
        f"type-{a}: equal {c[0]}/100, unequal {c[1]}/100" for a, c in sorted(counts.items())
    )
    report("criterion-2", ok, detail)


def test_criterion_3_algebraic_invariants(system, keys, pool):
    """Key and preimage congruences hold exactly mod q."""
    pp, _ = system
    idents, _, cts = pool
    rng = RandomSource(SEED + 4)
    q = TOY.q

    key_ok = 0
    checked = []
    pool_of_ids = list(idents)
    while len(pool_of_ids) < 20:
        ident = random_identity(rng)
        if all(ident.bits != x.bits for x in pool_of_ids):
            pool_of_ids.append(ident)
    for ident in pool_of_ids[:20]:
        sk = keys.get(ident)
        f_id = compute_f(pp, ident, "primary")
        f_idp = compute_f(pp, ident, "prime")
        a = not np.any(mat_mul(f_id, sk.e_id, q))
        b = not np.any(mat_mul(f_idp, sk.e_id_prime, q))
        key_ok += int(a and b)
        checked.append(ident)

    # 50 preimages against F1 and 50 against F2, exact congruence each
    ident = checked[0]
    sk = keys.get(ident)
    ct = cts[(0, 0, 0)]
    ar = mat_mul(pp.a, ct.r_tag, q)
    f1 = concat_cols([compute_f(pp, ident, "primary"), ar])
    f2 = concat_cols([compute_f(pp, ident, "prime"), ar])
    e_ok = 0
    ep_ok = 0
    for i in range(50):
        u = RandomSource(7_000 + i).integers(0, q, (TOY.n, 1))
        e = sample_left(compute_f(pp, ident, "primary"), ar, sk.trapdoor, u, q, TOY.sigma,
                        rng, enforce_sigma=False)
        e_ok += int(np.array_equal(mat_mul(f1, e, q), u))
        ep = sample_left(compute_f(pp, ident, "prime"), ar, sk.trapdoor_prime, u, q, TOY.sigma,
                         rng, enforce_sigma=False)
        ep_ok += int(np.array_equal(mat_mul(f2, ep, q), u))
    ok = key_ok == 20 and e_ok == 50 and ep_ok == 50
    report(
        "criterion-3",
        ok,
        f"key nullspace {key_ok}/20, F1 preimages {e_ok}/50, F2 preimages {ep_ok}/50",
    )


def test_criterion_4_size_formulas(system, keys, pool):
    """Element counts match the published formulas (secret key measured)."""
    pp, msk = system
    idents, _, cts = pool
    p = TOY
    sk = keys.get(idents[0])
    ct = cts[(0, 0, 0)]
    pp_ok = pp.element_count() == (p.ell + 3) * p.m * p.n + p.n * p.t
    msk_ok = msk.element_count() == 2 * p.m**2
    ct_ok = ct.element_count() == p.m**2 + 2 * p.t + 6 * p.m and ct.c5.size == p.lambda_bits
    sk_measured = sk.element_count()
    sk_ok = sk_measured == 8 * p.m**2
    report(
        "criterion-4",
        pp_ok and msk_ok and ct_ok and sk_ok,
        f"PP={(p.ell + 3) * p.m * p.n + p.n * p.t}, MSK={2 * p.m ** 2}, "
        f"CT={p.m ** 2 + 2 * p.t + 6 * p.m}+{p.lambda_bits} bits; "
        f"secret key measured {sk_measured} = 8m^2 "
        f"(published table lists 4m^2; discrepancy reported, not matched)",
    )


def test_criterion_5_integrity(system, keys, pool):
    """100 single-bit tampers on (R, c1..c4) all yield reject everywhere."""
    pp, _ = system
    idents, _, cts = pool
    ident = idents[0]
    sk = keys.get(ident)
    ct = cts[(0, 0, 0)]
    rng = RandomSource(SEED + 5)
    q, m, t = TOY.q, TOY.m, TOY.t

    sizes = {"r": m * m, "c1": t, "c2": t, "c3": 3 * m, "c4": 3 * m}
    rejected = 0
    for _ in range(100):
        component = list(sizes)[int(rng.integers(0, 5))]
        idx = int(rng.integers(0, sizes[component]))
        bit = int(rng.integers(0, 64))
        fields = {
            "r": ct.r_tag.copy(), "c1": ct.c1.copy(), "c2": ct.c2.copy(),
            "c3": ct.c3.copy(), "c4": ct.c4.copy(),
        }
        flat = fields[component].reshape(-1)
        # flip within the 64-bit stored word (two's complement for signed)
        raw = (int(flat[idx]) & ((1 << 64) - 1)) ^ (1 << bit)
        flat[idx] = np.int64(raw - (1 << 64) if raw >= 1 << 63 else raw)
        tampered = dataclasses.replace(
            ct, r_tag=fields["r"], c1=fields["c1"], c2=fields["c2"],
            c3=fields["c3"], c4=fields["c4"],
        )
        a = decrypt(pp, sk, tampered, rng) is None
        b = td2(pp, sk, ident, tampered, rng) is None
        c = digest_from_basis(pp, td1(sk, ident), tampered, rng) is None
        rejected += int(a and b and c)
    report("criterion-5", rejected == 100, f"tamper rejections {rejected}/100")


def test_criterion_6_sampler_statistics():
    """Gaussian moments against the exact-mass oracle; noise stddev formula."""
    rng = RandomSource(SEED + 6)
    draws = sample_z_gaussian_batch(3.0, np.zeros(100_000), rng)
    width = 40
    xs = np.arange(-width, width + 1, dtype=np.float64)
    w = np.exp(-math.pi * xs**2 / 9.0)
    w /= w.sum()
    mean_oracle = float((xs * w).sum())
    var_oracle = float(((xs - mean_oracle) ** 2 * w).sum())
    mean_ok = abs(draws.mean() - mean_oracle) < 0.05
    var_ok = abs(draws.var() - var_oracle) < 0.05 * var_oracle

    q, alpha = 4093, 0.01
    noise = sample_psi_bar(alpha, q, rng, size=100_000)
    centered = np.where(noise > q // 2, noise - q, noise).astype(float)
    want_sd = q * alpha / math.sqrt(2 * math.pi)
    sd_ok = abs(centered.std() - want_sd) < 0.05 * want_sd
    report(
        "criterion-6",
        mean_ok and var_ok and sd_ok,
        f"gaussian mean {draws.mean():+.4f} (oracle {mean_oracle:+.4f}), "
        f"var {draws.var():.4f} (oracle {var_oracle:.4f}); "
        f"noise sd {centered.std():.2f} (formula {want_sd:.2f})",
    )


def test_criterion_7_parameter_validator():
    """Hand-computed pass/fail cases for each named constraint."""
    base = TOY
    cases = []

    def case(name, p, expect_violation):
        names = {v.split(":")[0] for v in validate_params(p)}
        cases.append((name, (name in names) == expect_violation))

    case("trapgen-width",
         dataclasses.replace(base, n=8, q=4093, m=576, sigma=1e9, alpha=1e-12, q_bound=512),
         True)
    case("trapgen-width",
         dataclasses.replace(base, n=8, q=4093, m=577, sigma=1e9, alpha=1e-12, q_bound=512),
         False)
    case("lwe-reduction", dataclasses.replace(base, n=4, q=7, alpha=0.5), True)
    case("lwe-reduction", base, False)
    case("sigma-sampling", dataclasses.replace(base, sigma=100.0), True)
    case("sigma-sampling", base, False)
    case("query-bound", dataclasses.replace(base, q_bound=base.q), True)
    case("query-bound", base, False)
    case("decryption-margin", dataclasses.replace(base, alpha=1e-5), True)
    case("decryption-margin", base, False)
    cases.append(("toy-preset-valid", validate_params(base) == []))
    bad = [name for name, ok in cases if not ok]
    report("criterion-7", not bad, f"{len(cases)} validator cases classified correctly"
           + (f"; failed: {bad}" if bad else ""))


def test_criterion_8_zero_noise_exactness(system):
    """With noise forced to zero, encryption equals its closed forms."""
    pp, _ = system
    rng = RandomSource(SEED + 7)
    ident = random_identity(rng)
    q, m = TOY.q, TOY.m

    msg0 = np.zeros(TOY.t, dtype=np.uint8)
    ct0, tr0 = encrypt_traced(pp, ident, msg0, rng, zero_noise=True)
    c1_exact = np.array_equal(ct0.c1, mat_mul(pp.u.T, tr0.s1, q))

    msg = random_message(TOY.t, 31_337)
    ct, tr = encrypt_traced(pp, ident, msg, rng, zero_noise=True)
    ar = mat_mul(pp.a, tr.r_tag, q)
    third_c3 = np.array_equal(ct.c3[2 * m :], mat_mul(ar.T, tr.s1, q))
    third_c4 = np.array_equal(ct.c4[2 * m :], mat_mul(ar.T, tr.s2, q))
    c1_form = np.array_equal(
        ct.c1, (mat_mul(pp.u.T, tr.s1, q) + msg.astype(np.int64) * (q // 2)) % q
    )
    ok = c1_exact and third_c3 and third_c4 and c1_form
    report("criterion-8", ok,
           "c1 = U^T s1 + m*floor(q/2) and shared-R third blocks are bit-exact")


def test_small_preset_round_trip():
    """The larger preset also validates and survives a full pipeline pass."""
    small = preset("small")
    assert validate_params(small) == []
    rng = RandomSource(0x5333)
    pp, msk = setup(small, rng)
    ident = Identity(tuple(int(2 * b - 1) for b in RandomSource(9).integers(0, 2, small.ell)))
    sk = extract(pp, msk, ident, rng)
    msg = random_message(small.t, 424242)
    ct = encrypt(pp, ident, msg, rng)
    out = decrypt(pp, sk, ct, rng)
    report("small-preset", out is not None and bool(np.array_equal(out, msg)),
           "validator clean and one full round trip at preset 'small'")


def test_criterion_9_determinism(system, tmp_path):
    """A fixed seed reproduces byte-identical artifacts across two runs."""
    from ibeetfa import fileio

    blobs = {}
    for run in range(2):
        rng = RandomSource(0xDE7E12)
        pp, msk = setup(TOY, rng)
        ident = Identity(tuple(int(2 * b - 1) for b in RandomSource(3).integers(0, 2, TOY.ell)))
        sk = extract(pp, msk, ident, RandomSource(0xE1))
        msg = random_message(TOY.t, 55)
        ct = encrypt(pp, ident, msg, RandomSource(0xE2))
        td_1 = td1(sk, ident)
        td_2 = td2(pp, sk, ident, ct, RandomSource(0xE3))
        td_3 = td3_ct(pp, sk, ident, ct, RandomSource(0xE4))
        blobs[run] = {
            "pp": fileio.dump_public_params(pp),
            "msk": fileio.dump_master_secret(msk, TOY),
            "sk": fileio.dump_user_secret(sk, TOY),
            "ct": fileio.dump_ciphertext(ct, TOY),
            "td1": fileio.dump_td1(td_1, TOY),
            "td2": fileio.dump_td2(td_2, TOY),
            "td3": fileio.dump_td3(td_3, TOY),
        }
    mismatched = [k for k in blobs[0] if blobs[0][k] != blobs[1][k]]
    report("criterion-9", not mismatched,
           "PP/MSK/SK/CT/TD1/TD2/TD3 byte-identical across two seeded runs"
           + (f"; mismatched: {mismatched}" if mismatched else ""))
