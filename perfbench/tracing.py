"""Span tracing of the ibeetfa layers, installed from outside the package.

The tracer replaces chosen public functions with timing wrappers in every
ibeetfa module that binds them (``scheme.mat_mul`` as well as
``zqlinalg.mat_mul``), so calls between modules are seen too.  Each span
records its name, start, end, parent and up to two work counters computed
from the operand shapes.  Spans stay in memory until the run ends.  Nothing
is wrapped unless ``install`` is called, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from time import perf_counter

import numpy as np

# Counter functions: (args, kwargs, result) -> (n1, n2).  Sizes are computed
# from shapes (8 bytes per int64 element), not measured.


def _dims(x):
    shape = np.shape(x)
    return shape if len(shape) == 2 else (shape[0] if shape else 1, 1)


def _matmul_work(args, kwargs, out):
    a, b = _dims(args[0]), _dims(args[1])
    if len(np.shape(args[0])) == 1:  # a row vector times b
        a = (1, a[0])
    rows, inner, cols = a[0], a[1], b[1]
    return rows * inner * cols, 8 * (rows * inner + inner * cols + rows * cols)


def _klein_work(args, kwargs, out):
    return int(args[0].dim), _dims(args[2])[1]


def _sample_z_work(args, kwargs, out):
    lanes = int(np.size(args[1]))
    return lanes, lanes if float(args[0]) < 2.0 else 0


def _cols_of_target(args, kwargs, out):
    return _dims(args[3])[1], 0


def _result_len(args, kwargs, out):
    return len(out), 0


def _arg0_len(args, kwargs, out):
    return len(args[0]), 0


def _arg1_len(args, kwargs, out):
    return len(args[1]), 0


def _no_work(args, kwargs, out):
    return 0, 0


#: module -> {function name: counter}.  These are the layer boundaries the
#: benchmark reports on; names are public functions of each module.
TRACED = {
    "zqlinalg": {
        "mat_mul": _matmul_work,
        "exact_int_matmul": lambda a, k, o: (_matmul_work(a, k, o)[0], 0),
        "solve_mod": _no_work,
        "gram_schmidt_norm": _no_work,
    },
    "samplers": {
        "prepare_basis": _no_work,
        "klein_coefficients": _klein_work,
        "sample_z_gaussian_batch": _sample_z_work,
    },
    "trapdoor": {
        "trap_gen": _no_work,
        "sample_left": _cols_of_target,
        "sample_basis_left": _no_work,
    },
    "hashing": {
        "canonical_ct_bytes": _result_len,
        "hash_hprime": _arg0_len,
    },
    "scheme": {
        "setup": _no_work,
        "extract": _no_work,
        "encrypt": _no_work,
        "encrypt_traced": _no_work,
        "decrypt": _no_work,
        "ciphertext_integrity_ok": _no_work,
    },
    "authz": {
        "td2": _no_work,
        "td3_ct": _no_work,
        "digest_from_basis": _no_work,
        "digest_from_e": _no_work,
        "test1": _no_work,
        "test2": _no_work,
        "test3": _no_work,
    },
    "fileio": {
        **{f"dump_{k}": _result_len for k in (
            "public_params", "master_secret", "user_secret", "ciphertext", "td1", "td2", "td3")},
        **{f"load_{k}": _arg0_len for k in (
            "public_params", "master_secret", "user_secret", "ciphertext", "td1", "td2", "td3")},
        "write_file": _arg1_len,
        "read_file": _result_len,
    },
    "cli": {
        "run_command": _no_work,
    },
}

# span record fields
NAME, START, END, PARENT, N1, N2, FAILED = range(7)


class Tracer:
    """Collects nested spans from wrapped ibeetfa functions and benchmark ops."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ibeetfa module binds it."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")]
        for modname, funcs in TRACED.items():
            home = sys.modules[f"{self.package}.{modname}"]
            for fname, count in funcs.items():
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig, count)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        self.active = False

    @contextlib.contextmanager
    def paused(self):
        """Call through the wrappers without recording (oracle checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
                if done:
                    rec[N1], rec[N2] = count(args, kwargs, out)
                else:
                    rec[FAILED] = True

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around one of its ops."""
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START] - self.t0, "end": rec[END] - self.t0,
                    "parent": rec[PARENT], "n1": rec[N1], "n2": rec[N2], "failed": rec[FAILED],
                }) + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def segment(spans, start: int, stop: int | None = None) -> list[list]:
    """Copies of spans[start:stop] with parent indices rebased to the slice."""
    out = []
    for rec in spans[start:stop]:
        rec = list(rec)
        if rec[PARENT] >= 0:
            rec[PARENT] -= start
        out.append(rec)
    return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def roots(spans) -> list[int]:
    """Index of the outermost span above each span (parents come first)."""
    out = []
    for i, rec in enumerate(spans):
        out.append(i if rec[PARENT] < 0 else out[rec[PARENT]])
    return out


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, summed counters, failures."""
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = {}
    for rec, s in zip(spans, own):
        a = agg.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "n1": 0, "n2": 0, "failed": 0})
        a["calls"] += 1
        a["self_s"] += s
        a["n1"] += rec[N1]
        a["n2"] += rec[N2]
        a["failed"] += rec[FAILED]
    return agg


def _calls_inside(spans, child: str, ancestor: str) -> int:
    """How many ``child`` spans have an ``ancestor`` span somewhere above them."""
    inside = []
    count = 0
    for rec in spans:
        p = rec[PARENT]
        flag = p >= 0 and (inside[p] or spans[p][NAME] == ancestor)
        inside.append(flag)
        if flag and rec[NAME] == child:
            count += 1
    return count


#: Functions that only run while the workload is being set up; their
#: metrics are per set-up, every other per-layer metric is per timed round.
SETUP_ONLY = ("scheme.setup", "trapdoor.trap_gen", "zqlinalg.gram_schmidt_norm")


def layer_metrics(setup_spans, loop_spans, rounds: int, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (name -> (value, unit)) of one traced run."""
    su, lo = aggregate(setup_spans), aggregate(loop_spans)
    per_round = max(rounds, 1)
    zero = {"calls": 0, "self_s": 0.0, "n1": 0, "n2": 0, "failed": 0}
    out: dict[str, tuple[float, str]] = {}

    def put(key, short, fields):
        """fields: (metric suffix, aggregate field, unit) triples."""
        agg, div, per = (su, 1, "setup") if key in SETUP_ONLY else (lo, per_round, "round")
        a = agg.get(key, zero)
        for label, field, unit in fields:
            out[f"{short}.{label}"] = (a[field] / div, f"{unit}/{per}")

    calls, self_s = ("calls", "calls", "count"), ("self_s", "self_s", "s")
    put("zqlinalg.mat_mul", "mat_mul", [calls, self_s, ("madds", "n1", "madd"), ("bytes", "n2", "B")])
    put("zqlinalg.exact_int_matmul", "exact_int_matmul", [calls, self_s, ("madds", "n1", "madd")])
    put("zqlinalg.solve_mod", "solve_mod", [calls, self_s])
    put("zqlinalg.gram_schmidt_norm", "gram_schmidt_norm", [calls, self_s])
    put("samplers.prepare_basis", "prepare_basis", [calls, self_s, ("failed", "failed", "count")])
    put("samplers.klein_coefficients", "klein_coefficients",
        [calls, self_s, ("rows", "n1", "count"), ("lanes", "n2", "count")])
    put("samplers.sample_z_gaussian_batch", "sample_z_gaussian_batch",
        [calls, self_s, ("lanes", "n1", "count"), ("enum_lanes", "n2", "count")])
    put("trapdoor.trap_gen", "trap_gen", [calls, self_s])
    put("trapdoor.sample_left", "sample_left", [calls, self_s, ("cols", "n1", "count")])
    put("hashing.canonical_ct_bytes", "canonical_ct_bytes", [calls, self_s, ("bytes", "n1", "B")])
    put("hashing.hash_hprime", "hash_hprime", [calls, self_s, ("bytes", "n1", "B")])
    put("scheme.ciphertext_integrity_ok", "ciphertext_integrity_ok", [calls])

    for kind in ("dump", "load"):
        parts = [a for k, a in lo.items() if k.startswith(f"fileio.{kind}_")]
        out[f"{kind}.calls"] = (sum(a["calls"] for a in parts) / per_round, "count/round")
        out[f"{kind}.self_s"] = (sum(a["self_s"] for a in parts) / per_round, "s/round")
        out[f"{kind}.bytes"] = (sum(a["n1"] for a in parts) / per_round, "B/round")
    put("fileio.write_file", "write_file", [self_s, ("bytes", "n1", "B")])
    put("fileio.read_file", "read_file", [self_s, ("bytes", "n1", "B")])

    for key in ("scheme.setup", "scheme.extract", "scheme.encrypt", "scheme.decrypt", "authz.td2",
                "authz.digest_from_basis", "authz.digest_from_e", "cli.run_command"):
        put(key, key.split(".")[1], [self_s])
    # encrypt is reached through encrypt_traced on the CLI path: count both
    enc = out["encrypt.self_s"][0] + lo.get("scheme.encrypt_traced", zero)["self_s"] / per_round
    out["encrypt.self_s"] = (enc, "s/round")

    extracts = lo.get("scheme.extract", zero)["calls"]
    out["basis_attempts_per_key"] = (
        lo.get("trapdoor.sample_basis_left", zero)["calls"] / extracts if extracts else 0.0, "ratio")
    lefts = lo.get("trapdoor.sample_left", zero)["calls"]
    misses = _calls_inside(loop_spans, "samplers.prepare_basis", "trapdoor.sample_left")
    out["prep_miss_ratio"] = (misses / lefts if lefts else 0.0, "ratio")

    # share of the package's setup() call, not of the whole workload set-up
    setup_op = sum(r[END] - r[START] for r in setup_spans if r[NAME] == "scheme.setup")
    gsn = su.get("zqlinalg.gram_schmidt_norm", zero)["self_s"]
    out["gram_schmidt_norm.setup_share"] = (gsn / setup_op if setup_op else 0.0, "ratio")
    out["trace_overhead"] = (overhead, "ratio")
    return out


def layer_table(spans, top: int = 6) -> list[str]:
    """Per benchmark op: the functions ranked by self time as a share of the op."""
    own = self_times(spans)
    root = roots(spans)
    totals: dict[str, list[float]] = {}
    shares: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        op = spans[root[i]][NAME]
        if not op.startswith("op."):
            continue
        if root[i] == i:
            totals.setdefault(op, []).append(rec[END] - rec[START])
            name = "(benchmark glue)"
        else:
            name = rec[NAME]
        d = shares.setdefault(op, {})
        d[name] = d.get(name, 0.0) + own[i]
    lines = []
    for op in sorted(totals):
        total = sum(totals[op])
        n = len(totals[op])
        lines.append(f"{op[3:]}: {n} x median {statistics.median(totals[op]):.4f} s")
        ranked = sorted(shares[op].items(), key=lambda kv: -kv[1])[:top]
        for name, s in ranked:
            lines.append(f"    {100.0 * s / total:5.1f}%  {s / n:9.4f} s/op  {name}")
    return lines
