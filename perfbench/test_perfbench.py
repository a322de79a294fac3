"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run._use_source()

import checks  # noqa: E402
from elaa_doa import harness, ss_music  # noqa: E402
from elaa_doa.scenarios import paper_array  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "farfield_sweep": {"trials_per_cell": 1, "block_rounds": 1},
    "nearfield_localize": {"block_rounds": 1},
}
# Spans cover the timed call except the entry and exit of the outer wrapper.
SELF_TIME_TOLERANCE = 0.05


def _small(name: str, seed: int = 5):
    return WORKLOADS[name](seed, **SMALL[name])


def test_benchmark_json_names_every_workload_with_a_reason():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(metric_names + names)) == len(metric_names) + len(names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_named_metric_with_its_unit(name, trace):
    out = run.bench(name, 3, 0.01, trace, setup_repeats=1, workload_options=SMALL[name])
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert out["details"]["environment"]["nproc"] >= 1


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_self_times_add_up_to_traced_call_time(name):
    tracer = Tracer()
    records, _ = run.run_rounds(_small(name), 0.01, tracer)
    traced_ns = sum(rec.ns for rec in records if rec.traced)
    covered = sum(tracer.self_times())
    assert (1 - SELF_TIME_TOLERANCE) * traced_ns <= covered <= traced_ns
    assert tracer.trials == sum(rec.trials for rec in records if rec.traced)


def test_trace_gives_each_harness_trial_its_own_id():
    tracer = Tracer()
    workload = WORKLOADS["farfield_sweep"](5, trials_per_cell=3, block_rounds=1)
    records, _ = run.run_rounds(workload, 0.0, tracer)
    assert tracer.trials == sum(rec.trials for rec in records if rec.traced)
    seeds_per_trial = {}
    for span in tracer.spans:
        if span[0] == "signal_model.snapshot":
            seeds_per_trial.setdefault(span[7], []).append(span[6])
    assert len(seeds_per_trial) == tracer.trials
    assert all(len(seeds) == 1 for seeds in seeds_per_trial.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_metrics_csv_digest_follows_the_seed(name):
    def digest(seed):
        _, rows = run.run_rounds(_small(name, seed), 0.0)
        return hashlib.sha256(harness.render_metrics_csv(rows).encode()).hexdigest()

    assert digest(5) == digest(5) != digest(6)


def test_latency_summary_takes_the_tail_with_ten_samples_beyond():
    summary = run.latency_summary([float(i) for i in range(1, run.MIN_SAMPLES + 1)])
    assert summary["beyond_tail"] == 10 and summary["tail_ms"] == run.MIN_SAMPLES - 10
    assert summary["p50_ms"] == (run.MIN_SAMPLES + 1) / 2
    longer = run.latency_summary([float(i) for i in range(1, 2 * run.MIN_SAMPLES + 1)])
    assert longer["beyond_tail"] == 20 and longer["tail_percentile"] == summary["tail_percentile"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_fixed_block_has_enough_samples_for_the_tail(name):
    workload = WORKLOADS[name](1)
    samples = workload.block_rounds * len(workload.round_ops(0))
    assert samples >= run.MIN_SAMPLES


def test_gate_rejects_a_wrong_estimate(monkeypatch):
    checks.oracle_gate(paper_array())
    original = ss_music.estimate_doa_music
    monkeypatch.setattr(ss_music, "estimate_doa_music", lambda *a, **kw: original(*a, **kw) + 1e-4)
    with pytest.raises(checks.BenchFailure):
        checks.oracle_gate(paper_array())


def test_row_check_rejects_a_non_finite_rmse():
    op = _small("farfield_sweep").round_ops(0)[-1]
    rows = op.call()
    op.score(rows)
    with pytest.raises(checks.BenchFailure):
        op.score([dataclasses.replace(rows[0], rmse=float("nan"))])


def test_run_without_package_source_exits_nonzero_without_a_result():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", "test_*.py"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nearfield_localize", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
