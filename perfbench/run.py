#!/usr/bin/env python3
"""Benchmark of the elaa_doa package: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload farfield_sweep --seed 1 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.  A
run measures set-up in fresh processes, passes the noiseless oracle gate,
then repeats rounds of timed calls (see ``workloads.py``) until
``--seconds`` of calls are timed and the fixed block is done.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every round untraced and then traced, and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output is the
result; the line before it holds the details (environment stamp, tail
percentile, metrics CSV digest), which also go to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.  A traced run
also writes its spans and one line per operation next to that file.

Exit codes: 0 success, 2 bad invocation or no package source, 3 a
correctness check failed (no metrics are printed).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("farfield_sweep", "nearfield_localize")
SETUP_REPEATS = 5
# One BLAS thread: the matrices are small, and on a two-core host a second
# OpenBLAS thread only spins and takes cycles from the caller.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 200
TAIL_BEYOND = 10
TAIL_PERCENTILE = 100.0 * (1.0 - TAIL_BEYOND / MIN_SAMPLES)


def measure_setup(workload: str, seed: int, repeats: int) -> dict[str, list[float]]:
    """Set-up times of ``repeats`` fresh processes, in seconds."""
    samples: dict[str, list[float]] = {"setup_s": [], "import_s": [], "first_call_s": []}
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        marks = json.loads(proc.stdout.splitlines()[-1])
        samples["setup_s"].append(marks["ready"] - start)
        samples["import_s"].append(marks["imported"] - start)
        samples["first_call_s"].append(marks["ready"] - marks["built"])
    return samples


class OpRecord(NamedTuple):
    """One timed call: its round, whether it was traced, nanoseconds and trials."""

    round: int
    traced: bool
    ns: int
    trials: int
    failed: int
    hits: int


def run_rounds(workload, seconds: float, tracer=None) -> tuple[list[OpRecord], list]:
    """Rounds until ``seconds`` of calls are timed and the fixed block is done.

    Returns one record per call and the metrics rows of the fixed block.
    With a tracer, each round runs untraced and then again, on the same
    inputs, traced; the pair gives the tracing overhead, and the traced
    pass must reproduce the untraced pass's outputs.
    """
    from checks import BenchFailure

    clock = time.perf_counter_ns
    records, block_rows = [], []
    timed_ns, budget_ns, r = 0, int(seconds * 1e9), 0
    while r < workload.block_rounds or timed_ns < budget_ns:
        round_rows = {}
        for traced in (False, True) if tracer is not None else (False,):
            round_rows[traced] = []
            ops = workload.round_ops(r)
            with tracer.installed() if traced else contextlib.nullcontext():
                for op in ops:
                    if traced:
                        tracer.begin_op(op.label)
                    start = clock()
                    out = op.call()
                    ns = clock() - start
                    trials, failed, hits, rows = op.score(out)
                    records.append(OpRecord(r, traced, ns, trials, failed, hits))
                    round_rows[traced].append((trials, failed, hits, rows))
                    timed_ns += ns
        if round_rows.get(True, round_rows[False]) != round_rows[False]:
            raise BenchFailure(f"round {r}: traced outputs differ from untraced outputs")
        if r < workload.block_rounds:
            block_rows.extend(row for *_, rows in round_rows[False] for row in rows)
        r += 1
    return records, block_rows


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and tail of the per-trial latencies.

    The tail is the nearest-rank ``TAIL_PERCENTILE``: the highest
    percentile with ``TAIL_BEYOND`` samples beyond it in ``MIN_SAMPLES``
    samples, the fewest a run's fixed block holds.  It is fixed, so a faster commit,
    which collects more samples in its time, is compared at the same
    percentile, with at least ten samples beyond it.
    """
    ordered = sorted(samples_ms)
    n = len(ordered)
    rank = max(math.ceil(TAIL_PERCENTILE / 100.0 * n), 1)
    return {
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[rank - 1],
        "tail_percentile": TAIL_PERCENTILE,
        "samples": n,
        "beyond_tail": n - rank,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own ``.git`` directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _use_source() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _total(records: list[OpRecord], field: str) -> int:
    return sum(getattr(rec, field) for rec in records)


def bench(name: str, seed: int, seconds: float, trace: bool,
          setup_repeats: int = SETUP_REPEATS, workload_options: dict | None = None) -> dict:
    """One benchmark run; returns the metrics and their details."""
    setup = measure_setup(name, seed, setup_repeats)
    _use_source()
    from checks import oracle_gate
    from elaa_doa import harness
    from elaa_doa.scenarios import paper_array
    from workloads import WORKLOADS

    oracle_gate(paper_array())
    workload = WORKLOADS[name](seed, **(workload_options or {}))
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    records, block_rows = run_rounds(workload, seconds, tracer)
    block = [rec for rec in records if rec.round < workload.block_rounds and not rec.traced]
    block_trials = _total(block, "trials")
    hit_rate = _total(block, "hits") / block_trials
    failure_rate = _total(block, "failed") / block_trials
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "setup_samples_s": setup,
        "block": {"rounds": workload.block_rounds, "trials": block_trials,
                  "hit_rate": hit_rate, "failure_rate": failure_rate},
        "metrics_csv_sha256": hashlib.sha256(
            harness.render_metrics_csv(block_rows).encode()
        ).hexdigest() if block_rows else None,
    }
    plain = [rec for rec in records if not rec.traced]
    plain_ns, plain_trials = _total(plain, "ns"), _total(plain, "trials")
    if not trace:
        latency = latency_summary([rec.ns / rec.trials / 1e6 for rec in plain])
        details["latency"] = latency
        details["round_ms"] = [
            sum(rec.ns for rec in plain if rec.round == r) / 1e6
            for r in range(plain[-1].round + 1)
        ]
        metrics = {
            "trials_per_s": (plain_trials / plain_ns * 1e9, "1/s"),
            "trial_p50_ms": (latency["p50_ms"], "ms"),
            "trial_tail_ms": (latency["tail_ms"], "ms"),
            "setup_s": (statistics.median(setup["setup_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "hit_rate": (hit_rate, "fraction"),
        }
    else:
        traced = [rec for rec in records if rec.traced]
        traced_ns, traced_trials = _total(traced, "ns"), _total(traced, "trials")
        metrics = tracer.layer_metrics(traced_trials, traced_ns)
        metrics.update({
            "failure_rate": (failure_rate, "fraction"),
            "setup.import_s": (statistics.median(setup["import_s"]), "s"),
            "setup.first_call_s": (statistics.median(setup["first_call_s"]), "s"),
            "trace.overhead_frac": (
                1.0 - (traced_trials / traced_ns) / (plain_trials / plain_ns), "fraction"
            ),
        })
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"{name}-seed{seed}"), {i: rec.ns for i, rec in enumerate(traced)})
        details["traced"] = {"ops": len(traced), "trials": traced_trials, "spans": len(tracer.spans)}
    attempted = _total(records, "trials")
    return {
        "result": {
            "correct": True,
            "attempted": attempted,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "details": details,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "elaa_doa" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    _use_source()
    from checks import BenchFailure

    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**out["details"], **out["result"]}, indent=1) + "\n")
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
