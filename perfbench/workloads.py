"""The three closed-loop workloads and the correctness oracle they share.

Every workload is one client that starts its next round only when the
previous one has finished.  The traffic (identities issued, messages, which
rounds carry a tampered ciphertext and which bit is flipped, the seeds of
the library's random sources) is derived from the run seed, and the
generator records the plaintext and the ground truth of every comparison,
so each decrypt, test and CLI exit code is checked against it.

The package is reached through its modules at call time (``self.ib.scheme``
and so on), never through names bound at import, so that wrappers the
tracer installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Messages are drawn from a pool this small so that EQUAL and NOT-EQUAL
#: comparisons both occur about half the time.
MESSAGE_POOL = 2
#: One round in TAMPER_EVERY sends a ciphertext with one flipped bit.  The
#: offset puts the first tampered round second, so even the short CLI runs
#: contain one.
TAMPER_EVERY, TAMPER_OFFSET = 8, 1

#: Seed of the standing system (public parameters, master key, the tester
#: workloads' user keys).  It is the same in every run, like one deployment
#: serving varied traffic: the walk cost depends on the key's Gram-Schmidt
#: profile, and two keys per run would otherwise make the run seed, not the
#: code, the largest source of run-to-run spread.  The run seed drives the
#: traffic: identities issued, messages, tampering and the library's
#: randomness during the timed rounds.
SYSTEM_SEED = 2010

FAILED = object()

#: Every op a workload may time, with the unit its latency is reported in.
OP_UNITS = {"extract": "s", "ship": "ms", "encrypt": "ms", "decrypt": "ms", "td2": "ms",
            "td3_ct": "ms", "test1": "ms", "test2": "ms", "test3": "ms", "reject": "ms"}


class OpLog:
    """Latency, attempt, exception and wrong-answer counts per op."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.wrong: dict[str, int] = {}

    def quiet(self):
        """Context in which oracle checks call the package untraced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def phase(self, name: str):
        """Span around one part of the set-up, so the traced table splits it."""
        return self.tracer.span("op.setup:" + name) if self.tracer else contextlib.nullcontext()

    def run(self, op: str, fn, check):
        """Time fn(); count it failed if it raises or check(result) is false."""
        self.attempted[op] = self.attempted.get(op, 0) + 1
        span = self.tracer.span("op." + op) if self.tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out = fn()
        except Exception:  # a failed op is counted and the run goes on
            self.raised[op] = self.raised.get(op, 0) + 1
            print(f"op {op} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return FAILED
        self.times.setdefault(op, []).append(perf_counter() - t0)
        with self.quiet():
            ok = check(out)
        if not ok:
            self.wrong[op] = self.wrong.get(op, 0) + 1
            print(f"op {op} gave a wrong answer", file=sys.stderr)
            return FAILED
        return out

    @property
    def error_rate(self) -> float:
        return self.total_failed / self.total_attempted if self.total_attempted else 0.0

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.raised.values()) + sum(self.wrong.values())


class Inputs:
    """Seeded inputs: the same seed gives the same names, messages and tampering."""

    def __init__(self, seed: int, params):
        self.seed = seed
        nbytes = params.t // 8
        rnd = random.Random(f"ibeetfa-bench:{seed}:pool")
        self.messages = [rnd.randbytes(nbytes) for _ in range(MESSAGE_POOL)]
        self.message_bits = [
            np.unpackbits(np.frombuffer(m, dtype=np.uint8), bitorder="little") for m in self.messages
        ]
        # the tamper region is the ciphertext payload (tag matrix, c1..c5),
        # so a flip reaches the integrity digest and not the file header
        m, t = params.m, params.t
        self.ct_payload = 8 * (m * m + 2 * t + 6 * m) + (params.lambda_bits + 7) // 8

    @staticmethod
    def identity(k: int) -> str:
        return f"user-{k}"

    def lib_seed(self, system: bool) -> int:
        return 2 * (SYSTEM_SEED if system else self.seed) + int(system)

    def cli_seed(self, counter: int, system: bool) -> str:
        return f"{int(system):02x}{(SYSTEM_SEED if system else self.seed) & 0xFFFFFFFF:08x}{counter:08x}"

    def round(self, r: int) -> tuple[int, bool, int]:
        """(message index, tampered?, bit to flip counted from the payload start)."""
        rnd = random.Random(f"ibeetfa-bench:{self.seed}:round:{r}")
        msg = rnd.randrange(MESSAGE_POOL)
        tampered = r % TAMPER_EVERY == TAMPER_OFFSET
        return msg, tampered, rnd.randrange(8 * self.ct_payload)

    def flip(self, blob: bytes, bit: int) -> bytes:
        out = bytearray(blob)
        pos = len(out) - self.ct_payload + bit // 8
        out[pos] ^= 1 << (bit % 8)
        return bytes(out)


@dataclass
class Sent:
    """The latest valid ciphertext of one identity, as the tester holds it."""

    ct: object
    msg: int
    td2: object
    td3_ct: object


class Workload:
    """One client: ``set_up`` builds the standing state, ``round(r)`` is one pass."""

    name = ""
    #: The bases the rounds walk over, for the environment record.
    working_set: dict = {}

    def __init__(self, ib, params, seed: int, log: OpLog, workdir: str):
        self.ib = ib
        self.params = params
        self.inputs = Inputs(seed, params)
        self.log = log
        self.workdir = workdir

    def tampered(self, r: int) -> bool:
        return self.inputs.round(r)[1]


class Authority(Workload):
    """Key issuance: the master-trapdoor walk does the work."""

    name = "authority"
    working_set = {"reused_bases": 2, "what": "the two master trapdoor bases; every round "
                   "adds two fresh delegated bases that are never used again"}

    def tampered(self, r: int) -> bool:
        return False

    def set_up(self):
        ib, p = self.ib, self.params
        rng = ib.RandomSource(self.inputs.lib_seed(system=True))
        with self.log.phase("system"):
            self.pp, self.msk = ib.scheme.setup(p, rng)
        # warm-up: fills the master QR and the gadget lookup
        with self.log.phase("keys"):
            ib.scheme.extract(self.pp, self.msk, ib.scheme.identity_from_string("warm-up", p.ell), rng)
        self.rng = ib.RandomSource(self.inputs.lib_seed(system=False))

    def round(self, r: int):
        ib, p = self.ib, self.params
        ident = ib.scheme.identity_from_string(f"key-{self.inputs.seed}-{r}", p.ell)
        sk = self.log.run("extract", lambda: ib.scheme.extract(self.pp, self.msk, ident, self.rng),
                          lambda sk: self._key_ok(ident, sk))
        if sk is FAILED:
            return
        self.log.run("ship", lambda: ib.fileio.dump_user_secret(sk, p),
                     lambda blob: self._shipped_ok(sk, blob))

    def _key_ok(self, ident, sk) -> bool:
        """Both delegated bases lie in the nullspace lattice of their F_ID."""
        ib, q = self.ib, self.params.q
        if sk.identity != ident:
            return False
        for which, e in (("primary", sk.e_id), ("prime", sk.e_id_prime)):
            f = ib.scheme.compute_f(self.pp, ident, which)
            if np.any(ib.zqlinalg.mat_mul(f, e, q)):
                return False
        return True

    def _shipped_ok(self, sk, blob) -> bool:
        back = self.ib.fileio.load_user_secret(blob, self.params)
        return (back.identity == sk.identity and np.array_equal(back.e_id, sk.e_id)
                and np.array_equal(back.e_id_prime, sk.e_id_prime))


class TesterResident(Workload):
    """A receiver and a tester that keep every key and trapdoor in memory."""

    name = "tester-resident"
    working_set = {"reused_bases": 4, "what": "two identities x two delegated bases, "
                   "held in memory and reused by every walk"}

    def set_up(self):
        ib, p = self.ib, self.params
        rng = ib.RandomSource(self.inputs.lib_seed(system=True))
        with self.log.phase("system"):
            self.pp, msk = ib.scheme.setup(p, rng)
        self.ids = [ib.scheme.identity_from_string(self.inputs.identity(k), p.ell) for k in (0, 1)]
        with self.log.phase("keys"):
            self.sks = [ib.scheme.extract(self.pp, msk, ident, rng) for ident in self.ids]
            self.td1s = [ib.authz.td1(sk, ident) for sk, ident in zip(self.sks, self.ids)]
            self.td3s = [ib.authz.td3_basis(sk, ident) for sk, ident in zip(self.sks, self.ids)]
        # a ciphertext of identity 1, the partner the first round tests against
        with self.log.phase("partners"):
            ct = ib.scheme.encrypt(self.pp, self.ids[1], self.inputs.message_bits[1], rng)
            self.last = [None, Sent(ct, 1, ib.authz.td2(self.pp, self.sks[1], self.ids[1], ct, rng),
                                    ib.authz.td3_ct(self.pp, self.sks[1], self.ids[1], ct, rng))]
        self.rng = ib.RandomSource(self.inputs.lib_seed(system=False))

    def round(self, r: int):
        ib, p, log, rng, pp = self.ib, self.params, self.log, self.rng, self.pp
        i, j = r % 2, 1 - r % 2
        msg, tampered, bit = self.inputs.round(r)
        bits = self.inputs.message_bits[msg]
        ct = log.run("encrypt", lambda: ib.scheme.encrypt(pp, self.ids[i], bits, rng),
                     lambda ct: ct is not None)
        if ct is FAILED:
            return

        def ship():
            blob = ib.fileio.dump_ciphertext(ct, p)
            if tampered:
                blob = self.inputs.flip(blob, bit)
            return ib.fileio.load_ciphertext(blob, p)[0]

        rx = log.run("ship", ship, lambda rx: tampered or np.array_equal(rx.c3, ct.c3))
        if rx is FAILED:
            return
        sk, ident, other = self.sks[i], self.ids[i], self.last[j]
        if other is None:  # only after the partner's own round failed
            return
        if tampered:
            # a trapdoor bound to another ciphertext: test2 must reject the binding
            mine = self.last[i] or other
            for fn in (lambda: ib.scheme.decrypt(pp, sk, rx, rng),
                       lambda: ib.authz.td2(pp, sk, ident, rx, rng),
                       lambda: ib.authz.td3_ct(pp, sk, ident, rx, rng),
                       lambda: ib.authz.test1(self.td1s[i], self.td1s[j], rx, other.ct, pp, rng),
                       lambda: ib.authz.test2(mine.td2, other.td2, rx, other.ct, p.q),
                       lambda: ib.authz.test3(self.td3s[i], other.td3_ct, rx, other.ct, pp, rng)):
                log.run("reject", fn, lambda out: out is None)
            return
        log.run("decrypt", lambda: ib.scheme.decrypt(pp, sk, rx, rng),
                lambda out: out is not None and np.array_equal(out, bits))
        td2 = log.run("td2", lambda: ib.authz.td2(pp, sk, ident, rx, rng),
                      lambda td: isinstance(td, ib.authz.TrapdoorT2))
        td3 = log.run("td3_ct", lambda: ib.authz.td3_ct(pp, sk, ident, rx, rng),
                      lambda td: isinstance(td, ib.authz.TrapdoorT3) and not td.is_basis_side)
        want = int(msg == other.msg)
        log.run("test1", lambda: ib.authz.test1(self.td1s[i], self.td1s[j], rx, other.ct, pp, rng),
                lambda out: out == want)
        if td2 is not FAILED:
            log.run("test2", lambda: ib.authz.test2(td2, other.td2, rx, other.ct, p.q),
                    lambda out: out == want)
        log.run("test3", lambda: ib.authz.test3(self.td3s[i], other.td3_ct, rx, other.ct, pp, rng),
                lambda out: out == want)
        if td2 is not FAILED and td3 is not FAILED:
            self.last[i] = Sent(rx, msg, td2, td3)


class CliSession(Workload):
    """The tester-resident round driven through the CLI over .ibfa files."""

    name = "cli-session"
    working_set = {"reused_bases": 4, "what": "two identities x two delegated bases, "
                   "reloaded from file by every command, so no walk finds its basis cached"}

    def __init__(self, *args):
        super().__init__(*args)
        self.counter = 0
        self.system = True  # set-up commands take their --seed from SYSTEM_SEED

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, *argv) -> int:
        """One in-process CLI invocation with a fresh --seed where it takes one."""
        self.counter += 1
        argv = list(argv)
        if argv[0] in ("setup", "extract", "encrypt", "decrypt", "td", "test"):
            argv += ["--seed", self.inputs.cli_seed(self.counter, self.system)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.ib.cli.run_command(argv)

    def must(self, *argv):
        rc = self.cli(*argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {rc}")

    def set_up(self):
        p, path = self.params, self.path
        self.counter, self.system = 0, True
        with open(path("params.json"), "w", encoding="utf-8") as fh:
            json.dump({"lambda": p.lambda_bits, "n": p.n, "m": p.m, "q": p.q, "t": p.t, "ell": p.ell,
                       "sigma": p.sigma, "alpha": p.alpha, "q_bound": p.q_bound}, fh)
        with self.log.phase("system"):
            self.must("setup", "--params", path("params.json"),
                      "--out-pp", path("pp.ibfa"), "--out-msk", path("msk.ibfa"))
        with self.log.phase("keys"):
            self._keys()
        with self.log.phase("partners"):
            self._partners()
        self.counter, self.system = 0, False

    def _keys(self):
        path, inp = self.path, self.inputs
        for k in (0, 1):
            sk = path(f"id{k}.sk")
            self.must("extract", "--pp", path("pp.ibfa"), "--msk", path("msk.ibfa"),
                      "--id", inp.identity(k), "--out", sk)
            self.must("td", "--type", "1", "--pp", path("pp.ibfa"), "--sk", sk, "--out", path(f"id{k}.td1"))
            self.must("td", "--type", "3", "--pp", path("pp.ibfa"), "--sk", sk, "--out", path(f"id{k}.td3"))

    def _partners(self):
        """A ciphertext of identity 1, the partner the first round tests against."""
        path, inp = self.path, self.inputs
        with open(path("init.msg"), "wb") as fh:
            fh.write(inp.messages[1])
        ct, td2, td3 = path("init.ct"), path("init.td2"), path("init.td3c")
        self.must("encrypt", "--pp", path("pp.ibfa"), "--id", inp.identity(1),
                  "--in", path("init.msg"), "--out", ct)
        self.must("td", "--type", "2", "--pp", path("pp.ibfa"), "--sk", path("id1.sk"),
                  "--ct", ct, "--out", td2)
        self.must("td", "--type", "3", "--pp", path("pp.ibfa"), "--sk", path("id1.sk"),
                  "--ct", ct, "--out", td3)
        self.last = [None, Sent(ct, 1, td2, td3)]

    def round(self, r: int):
        log, path, inp = self.log, self.path, self.inputs
        pp = path("pp.ibfa")
        i, j = r % 2, 1 - r % 2
        msg, tampered, bit = inp.round(r)
        sk, other = path(f"id{i}.sk"), self.last[j]
        if other is None:  # only after the partner's own round failed
            return
        msg_file, ct, out = path(f"r{r}.msg"), path(f"r{r}.ct"), path(f"r{r}.out")
        td2, td3 = path(f"r{r}.td2"), path(f"r{r}.td3c")
        with open(msg_file, "wb") as fh:
            fh.write(inp.messages[msg])
        enc = log.run("encrypt", lambda: self.cli("encrypt", "--pp", pp, "--id", inp.identity(i),
                                                  "--in", msg_file, "--out", ct),
                      lambda rc: rc == 0)
        if enc is FAILED:
            return
        if tampered:
            with open(ct, "rb") as fh:
                blob = fh.read()
            with open(ct, "wb") as fh:
                fh.write(inp.flip(blob, bit))
        test = ("test", "--pp", pp, "--ct-i", ct, "--ct-j", other.ct)
        # a trapdoor bound to another ciphertext: test2 must reject the binding
        mine_td2 = (self.last[i] or other).td2
        steps = [
            ("decrypt", ("decrypt", "--pp", pp, "--sk", sk, "--ct", ct, "--out", out), 0),
            ("td2", ("td", "--type", "2", "--pp", pp, "--sk", sk, "--ct", ct, "--out", td2), 0),
            ("td3_ct", ("td", "--type", "3", "--pp", pp, "--sk", sk, "--ct", ct, "--out", td3), 0),
        ]
        want = 0 if msg == other.msg else 1  # exit code of EQUAL / NOT-EQUAL
        td2_i = mine_td2 if tampered else td2
        steps += [
            ("test1", test + ("--type", "1", "--td-i", path(f"id{i}.td1"), "--td-j", path(f"id{j}.td1")), want),
            ("test2", test + ("--type", "2", "--td-i", td2_i, "--td-j", other.td2), want),
            ("test3", test + ("--type", "3", "--td-i", path(f"id{i}.td3"), "--td-j", other.td3_ct), want),
        ]
        ok = True
        for op, argv, rc_want in steps:
            if tampered:
                op, rc_want = "reject", 2
            check = (lambda rc, w=rc_want: rc == w)
            if op == "decrypt":
                check = (lambda rc: rc == 0 and self._read(out) == inp.messages[msg])
            ok &= log.run(op, lambda a=argv: self.cli(*a), check) is not FAILED
        for name in (msg_file, out):
            self._remove(name)
        if tampered or not ok:
            for name in (ct, td2, td3):
                self._remove(name)
            return
        old, self.last[i] = self.last[i], Sent(ct, msg, td2, td3)
        if old is not None:
            for name in (old.ct, old.td2, old.td3_ct):
                self._remove(name)

    @staticmethod
    def _read(name: str) -> bytes:
        with open(name, "rb") as fh:
            return fh.read()

    @staticmethod
    def _remove(name: str):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)


WORKLOADS = {w.name: w for w in (Authority, TesterResident, CliSession)}


def rounds_per_second(rounds: list[tuple[float, bool]]) -> float:
    """Closed-loop throughput at the declared mix of valid and tampered rounds.

    Median round time per kind, weighted 1 in TAMPER_EVERY, so that where the
    deadline falls relative to the rare tampered round does not move the
    figure.  Kinds absent from the sample are left out of the weighting.
    """
    kinds = [[d for d, t in rounds if not t], [d for d, t in rounds if t]]
    weights = [1.0 - 1.0 / TAMPER_EVERY, 1.0 / TAMPER_EVERY]
    pairs = [(w, statistics.median(k)) for w, k in zip(weights, kinds) if k]
    return sum(w for w, _ in pairs) / sum(w * m for w, m in pairs)


def percentile_summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile that has at least ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
            break
    return out

