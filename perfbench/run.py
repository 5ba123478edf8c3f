"""Benchmark of the ibeetfa pipeline: one closed-loop workload per process.

    python3 perfbench/run.py --workload tester-resident --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures with no wrappers installed and reports the
end-to-end metrics.  ``--trace 1`` sets up once under tracing, runs half of
the time untraced and half traced, and reports the per-layer metrics, the
tracing overhead and a table of where each op spends its time; the spans
are written to ``.perfbench/``.  ``--smoke`` runs the same workload at a
tiny parameter set for a few rounds in both modes and checks that every
metric named in BENCHMARK.json is emitted and that no op failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# The BLAS thread count must be fixed before numpy is imported.  One client
# runs on one BLAS thread: with two, every product waits for the slower core,
# and on a shared host that made set-up times spread several times wider.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 2
#: Rounds per half in smoke mode.
SMOKE_ROUNDS = 3


def import_package():
    """Import ibeetfa from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ibeetfa", "__init__.py")):
        raise SystemExit(f"error: no ibeetfa package under {src}; run from a checkout")
    sys.path.insert(0, src)
    import ibeetfa
    import ibeetfa.cli
    import ibeetfa.fileio

    if not os.path.abspath(ibeetfa.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported ibeetfa from {ibeetfa.__file__}, not from {src}")
    return ibeetfa


def smoke_params(ib):
    """A copy of the unit tests' MINI set: the smallest one the validator accepts."""
    return ib.ParamSet(lambda_bits=128, n=2, m=410, q=13_000_000_073, t=64, ell=8,
                       sigma=86_000.0, alpha=2.5e-10, q_bound=1 << 20)


def environment(ib, params, seed: int, name: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "params": dataclasses.asdict(params),
        "prep_cache_size": getattr(ib.trapdoor, "_PREP_CACHE_SIZE", None),
        "working_set": workloads.WORKLOADS[name].working_set,
        "seed": seed,
    }


def closed_loop(wl, seconds: float, first: int, max_rounds: int | None) -> list[tuple[float, bool]]:
    """Run rounds back to back until the time is up; return (seconds, tampered) per round."""
    gc.collect()
    rounds = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds and (max_rounds is None or len(rounds) < max_rounds):
        r = first + len(rounds)
        start = perf_counter()
        wl.round(r)
        rounds.append((perf_counter() - start, wl.tampered(r)))
    if not rounds:
        raise RuntimeError("no round completed")
    return rounds


def describe(rounds) -> str:
    return f"{len(rounds)} rounds ({sum(t for _, t in rounds)} tampered) in {sum(d for d, _ in rounds):.3f} s"


def measure(ib, params, name: str, seed: int, seconds: float, trace: bool, max_rounds=None):
    """One run of one workload; returns (metrics, op log, report lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{name}-")
    tracer = tracing.Tracer("ibeetfa") if trace else None
    log = workloads.OpLog(tracer)
    wl = workloads.WORKLOADS[name](ib, params, seed, log, workdir)
    lines = []
    try:
        if not trace:
            setups = []
            for _ in range(SETUPS):
                t0 = perf_counter()
                wl.set_up()
                setups.append(perf_counter() - t0)
            rounds = closed_loop(wl, seconds, 0, max_rounds)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "rounds_per_s": (workloads.rounds_per_second(rounds), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            lines.append(f"set-ups: {', '.join(f'{s:.3f}' for s in setups)} s; "
                         f"timed loop: {describe(rounds)}")
        else:
            tracer.install()
            wl.set_up()
            tracer.uninstall()
            n_setup = len(tracer.spans)
            half = seconds / 2.0
            untraced = closed_loop(wl, half, 0, max_rounds)
            tracer.install()
            traced = closed_loop(wl, half, len(untraced), max_rounds)
            tracer.uninstall()
            # compare valid rounds only: the halves need not hold the same mix
            rps_u, rps_t = (workloads.rounds_per_second([x for x in h if not x[1]] or h)
                            for h in (untraced, traced))
            overhead = 1.0 - rps_t / rps_u
            setup_spans = tracing.segment(tracer.spans, 0, n_setup)
            loop_spans = tracing.segment(tracer.spans, n_setup)
            metrics = tracing.layer_metrics(setup_spans, loop_spans, len(traced), overhead)
            metrics["error_rate"] = (log.error_rate, "ratio")
            lines.append(f"valid rounds per second untraced {rps_u:.4f} ({describe(untraced)}), "
                         f"traced {rps_t:.4f} ({describe(traced)}): tracing overhead {100 * overhead:.1f}%")
            lines.append("where the time goes (self time by function, share of each op):")
            lines += tracing.layer_table(setup_spans) + tracing.layer_table(loop_spans)
            trace_file = os.path.join(OUT_DIR, f"trace-{name}-{seed}.jsonl")
            tracer.write(trace_file)
            lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(trace_file, ROOT)}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, log, lines


def op_report(log: workloads.OpLog) -> list[str]:
    """Per op: latency median and tail with sample count, attempts, failures."""
    lines = []
    for op in sorted(log.attempted):
        raised, wrong = log.raised.get(op, 0), log.wrong.get(op, 0)
        samples = log.times.get(op, [])
        counts = f"attempted {log.attempted[op]}, failed {raised}, wrong {wrong}"
        if not samples:
            lines.append(f"{op}: {counts}")
            continue
        unit = workloads.OP_UNITS[op]
        scale = 1000.0 if unit == "ms" else 1.0
        stats = workloads.percentile_summary(samples)
        tail = "".join(f", {k} {v * scale:.4g}" for k, v in stats.items() if k not in ("n", "p50"))
        lines.append(f"{op}_{unit}: median {stats['p50'] * scale:.4g}{tail} {unit} "
                     f"over n={stats['n']} ({counts})")
    lines.append(f"error_rate: {log.error_rate:.4g} ({log.total_failed} of {log.total_attempted} ops)")
    return lines


def declared_metrics(key: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def result_line(metrics, log) -> str:
    return json.dumps({
        "correct": log.total_failed == 0,
        "attempted": log.total_attempted,
        "failed": log.total_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke(ib, name: str, seed: int) -> int:
    """Both modes at the tiny set; fail if a declared metric is missing or an op failed."""
    params = smoke_params(ib)
    print("env " + json.dumps(environment(ib, params, seed, name)))
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, log, lines = measure(ib, params, name, seed, 1e9, trace, max_rounds=SMOKE_ROUNDS)
        print("\n".join(lines + op_report(log)))
        missing = [m for m in declared_metrics(key) if m not in metrics]
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        problems += [f"{key} metric {m} not emitted" for m in missing]
        problems += [f"{key} metric {m} is not finite" for m in bad]
        if log.total_failed:
            problems.append(f"{log.total_failed} ops failed with trace={int(trace)}")
        if "reject" not in log.attempted and name != "authority":
            problems.append("no tampered ciphertext was submitted")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke {name}: {'FAIL' if problems else 'OK'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny parameters, a few rounds, self-check")
    args = ap.parse_args(argv)
    ib = import_package()
    if args.smoke:
        return smoke(ib, args.workload, args.seed)
    params = ib.preset("toy")
    print("env " + json.dumps(environment(ib, params, args.seed, args.workload)))
    metrics, log, lines = measure(ib, params, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines + op_report(log)))
    print(result_line(metrics, log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
