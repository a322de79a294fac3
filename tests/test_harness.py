import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from elaa_doa import harness
from elaa_doa.geometry import Target
from elaa_doa.harness import (
    METRICS_HEADER,
    MetricsRow,
    _run_cell,
    _splitmix64,
    derive_trial_seed,
    hit_rate,
    match_errors,
    render_metrics_csv,
    rmse,
    run_monte_carlo,
    write_csv,
)
from elaa_doa.errors import Unpaired
from elaa_doa.nf_localizer import LocalizedTarget, _pair_gate
from elaa_doa.scenarios import ScenarioSpec, builtin_scenarios, paper_array
from elaa_doa.signal_model import snapshot

GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_reference_sequence():
    # outputs of the published splitmix64 starting from state 0
    assert _splitmix64(0) == 16294208416658607535
    assert _splitmix64(GOLDEN) == 7960286522194355700
    assert _splitmix64((2 * GOLDEN) % 2**64) == 487617019471545679


def test_derive_trial_seed_frozen():
    assert derive_trial_seed(42, "ss_esprit", 0, 0) == 12532484259357960932
    assert derive_trial_seed(42, "ss_music_elaa", 3, 17) == 992190337278873212


def test_derive_trial_seed_distinct_axes():
    base = derive_trial_seed(7, "ss_esprit", 2, 5)
    assert derive_trial_seed(7, "ss_esprit", 2, 6) != base
    assert derive_trial_seed(7, "ss_esprit", 3, 5) != base
    assert derive_trial_seed(7, "ss_music_elaa", 2, 5) != base
    assert derive_trial_seed(8, "ss_esprit", 2, 5) != base


def test_match_errors_permutation():
    err = match_errors(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert err == pytest.approx([0.0, 0.0])
    err = match_errors(np.array([0.1, 0.9]), np.array([0.0, 1.0]))
    assert sorted(err) == pytest.approx([0.1, 0.1])


def test_match_errors_positions():
    est = np.array([[0.0, 6.1], [0.0, 3.8]])
    tru = np.array([[0.0, 4.0], [0.0, 6.0]])
    err = match_errors(est, tru)
    assert err == pytest.approx([0.2, 0.1])


def _brute_force_errors(est, tru):
    best = None
    for perm in itertools.permutations(range(len(tru))):
        diff = est[list(perm)] - tru
        dist = np.abs(diff) if diff.ndim == 1 else np.linalg.norm(diff, axis=1)
        cost = float(np.sum(dist * dist))
        if best is None or cost < best[0]:
            best = (cost, dist)
    return best[1]


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("shape", [(), (2,)])
def test_match_errors_against_all_permutations(k, shape):
    rng = np.random.default_rng(k)
    for _ in range(50):
        tru = rng.normal(size=(k, *shape))
        est = tru[rng.permutation(k)] + rng.normal(scale=0.8, size=(k, *shape))
        np.testing.assert_array_equal(match_errors(est, tru), _brute_force_errors(est, tru))


def _assignment_errors(est, tru):
    from scipy.optimize import linear_sum_assignment

    dist = np.abs(tru[:, None] - est[None, :])
    _, pick = linear_sum_assignment(dist * dist)
    return np.abs(est[pick] - tru)


@pytest.mark.parametrize("k", range(1, 9))
def test_match_errors_on_angles_equals_linear_assignment(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(50):
        tru = rng.uniform(-60.0, 60.0, size=k)
        est = tru[rng.permutation(k)] + rng.normal(scale=5.0, size=k)
        np.testing.assert_array_equal(match_errors(est, tru), _assignment_errors(est, tru))


def test_match_errors_on_many_angles_is_immediate():
    rng = np.random.default_rng(40)
    tru = rng.uniform(-60.0, 60.0, size=40)
    est = tru[rng.permutation(40)] + rng.normal(scale=2.0, size=40)
    start = time.perf_counter()
    err = match_errors(est, tru)
    assert time.perf_counter() - start < 0.5
    np.testing.assert_array_equal(err, _assignment_errors(est, tru))


def test_match_errors_shape_mismatch():
    with pytest.raises(ValueError):
        match_errors(np.array([1.0]), np.array([1.0, 2.0]))


def test_rmse_hand_case():
    truth = np.array([0.0, 1.0])
    est = np.array([0.3, 1.4])
    assert rmse([match_errors(est, truth)]) == pytest.approx(0.3535533905932738)


def test_rmse_excludes_failures():
    assert rmse([None, np.array([0.5])]) == pytest.approx(0.5)
    assert rmse([None, None]) is None


def test_hit_rate_inclusive_and_failures():
    trials = [np.array([0.5]), np.array([0.51]), None, np.array([0.2])]
    assert hit_rate(trials, 0.5) == pytest.approx(0.5)
    assert hit_rate([], 0.5) == 0.0


def test_each_trial_is_matched_once(monkeypatch):
    calls = []

    def counted(estimates, truth):
        calls.append(1)
        return match_errors(estimates, truth)

    monkeypatch.setattr(harness, "match_errors", counted)
    run_monte_carlo(_tiny_spec(n_trials=4, snr_grid_db=(30.0,)))
    assert len(calls) == 4


def test_metrics_csv_formatting():
    rows = [
        MetricsRow("ss_esprit", 10.0, 4, 0.125, 0.75, 0.25, "deg"),
        MetricsRow("nf_localize", 30.0, 4, None, 0.0, 1.0, "m"),
    ]
    text = render_metrics_csv(rows)
    lines = text.splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[1] == "ss_esprit,10.0,4,0.125,0.75,0.25,deg"
    assert lines[2] == "nf_localize,30.0,4,,0.0,1.0,m"
    assert text.endswith("\n")


def _tiny_spec(**overrides):
    kwargs = dict(
        name="tiny",
        array=paper_array(),
        targets=(Target(range=400.0, angle=math.radians(3.0)),),
        snr_grid_db=(20.0, 30.0),
        n_trials=3,
        algorithms=("ss_esprit",),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def test_run_monte_carlo_rows_and_determinism(tmp_path):
    spec = _tiny_spec()
    rows = run_monte_carlo(spec)
    assert [(r.algorithm, r.snr_db) for r in rows] == [
        ("ss_esprit", 20.0),
        ("ss_esprit", 30.0),
    ]
    assert all(r.n_trials == 3 and r.metric_unit == "deg" for r in rows)
    again = run_monte_carlo(spec)
    assert render_metrics_csv(rows) == render_metrics_csv(again)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, render_metrics_csv(rows))
    write_csv(p2, render_metrics_csv(again))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == render_metrics_csv(rows)


def test_run_monte_carlo_debug_csv(tmp_path):
    spec = _tiny_spec(snr_grid_db=(30.0,))
    debug = tmp_path / "trials.csv"
    run_monte_carlo(spec, debug_path=debug)
    lines = debug.read_text().splitlines()
    assert lines[0] == ",".join(harness.DEBUG_COLUMNS)
    # one target, three successful trials
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "ss_esprit"
    assert first[4] == "ok"
    assert float(first[6]) == pytest.approx(3.0)


def test_debug_csv_route_columns(tmp_path, monkeypatch):
    near = replace(builtin_scenarios()["fig4_near_a"], n_trials=2)
    debug = tmp_path / "near.csv"
    run_monte_carlo(near, debug_path=debug)
    header, *lines = debug.read_text().splitlines()
    assert header.endswith(",route,noise_ratio,x_true,y_true")
    column = {name: i for i, name in enumerate(header.split(","))}
    assert len(lines) == 4
    for line in lines:
        fields = line.split(",")
        assert len(fields) == len(header.split(","))
        assert fields[column["route"]] == "pair"
        assert float(fields[column["noise_ratio"]]) <= _pair_gate(near.array, 2)
    far = tmp_path / "far.csv"
    run_monte_carlo(_tiny_spec(snr_grid_db=(30.0,)), debug_path=far)
    for line in far.read_text().splitlines()[1:]:
        assert line.endswith(",,,,")
    monkeypatch.setattr(
        harness, "_run_cell", lambda algorithm, snaps, spec: [(None, "Unpaired", {})] * len(snaps)
    )
    failed = tmp_path / "failed.csv"
    run_monte_carlo(near, debug_path=failed)
    for line in failed.read_text().splitlines()[1:]:
        assert len(line.split(",")) == len(header.split(","))


def test_debug_rows_carry_the_estimate_matched_to_their_target(tmp_path):
    # MUSIC returns the tallest peak first and the localizer sorts by score,
    # so output order differs from truth order on some of these trials
    far = replace(
        builtin_scenarios()["fig3_small_sep"],
        n_trials=3,
        snr_grid_db=(30.0,),
        algorithms=("ss_music_elaa", "ss_esprit"),
    )
    near = replace(builtin_scenarios()["fig4_near_a"], n_trials=3)
    checked = 0
    for spec in (far, near):
        debug = tmp_path / f"{spec.name}.csv"
        run_monte_carlo(spec, debug_path=debug)
        header, *lines = debug.read_text().splitlines()
        column = {name: i for i, name in enumerate(header.split(","))}
        for line in lines:
            row = line.split(",")
            if row[column["status"]] != "ok":
                continue
            error = float(row[column["error"]])
            target = spec.targets[int(row[column["target_id"]])]
            if spec is far:
                truth = float(row[column["truth"]])
                assert truth == math.degrees(target.angle)
                assert abs(float(row[column["estimate"]]) - truth) == error
            else:
                assert row[column["truth"]] == ""
                x_true, y_true = float(row[column["x_true"]]), float(row[column["y_true"]])
                assert (x_true, y_true) == tuple(target.position)
                dx = float(row[column["x_hat"]]) - x_true
                dy = float(row[column["y_hat"]]) - y_true
                assert math.sqrt(dx * dx + dy * dy) == error
            checked += 1
    assert checked == 3 * 2 * 2 + 3 * 2


def test_package_imports_no_signal_optimize_or_stats():
    code = (
        "import sys, elaa_doa.cli, elaa_doa.harness\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("beyond", [False, True])
def test_hits_reach_the_unit_tolerance_inclusive(monkeypatch, beyond):
    # on boresight the truth is exact, so each error below is exactly its offset
    target = Target(range=5.0, angle=0.0)
    offsets = {"deg": 0.5, "m": 0.1}
    if beyond:
        offsets = {unit: math.nextafter(tol, math.inf) for unit, tol in offsets.items()}

    def at_the_tolerance(algorithm, snaps, spec):
        if harness.ESTIMATORS[algorithm][1] == "m":
            estimates = np.array([[offsets["m"], target.range]])
        else:
            estimates = np.array([offsets["deg"]])
        return [(estimates, "ok", {})] * len(snaps)

    monkeypatch.setattr(harness, "_run_cell", at_the_tolerance)
    spec = _tiny_spec(targets=(target,), algorithms=("nf_localize", "ss_esprit"))
    rows = run_monte_carlo(spec)
    assert [r.metric_unit for r in rows] == ["m", "m", "deg", "deg"]
    assert [r.rmse for r in rows] == pytest.approx([offsets[r.metric_unit] for r in rows])
    assert [r.hit_rate for r in rows] == [0.0 if beyond else 1.0] * 4
    assert all(r.failure_rate == 0.0 for r in rows)


def test_failed_trials_count_in_the_failure_rate_not_the_rmse(monkeypatch):
    monkeypatch.setattr(
        harness,
        "_run_cell",
        lambda algorithm, snaps, spec: [(None, "UnderResolved", {})] * len(snaps),
    )
    rows = run_monte_carlo(_tiny_spec(snr_grid_db=(30.0,)))
    assert (rows[0].rmse, rows[0].hit_rate, rows[0].failure_rate) == (None, 0.0, 1.0)


def test_csv_fields():
    rows = [("a", 1, np.float64(0.1), None, 2.5, float("nan"))]
    text = harness.render_csv([("name", "n", "x", "missing", "y", "z"), *rows])
    assert text == "name,n,x,missing,y,z\na,1,0.1,,2.5,nan\n"


@pytest.mark.parametrize(
    "scenario, algorithm",
    [
        ("fig3_small_sep", "ss_esprit"),
        ("fig3_small_sep", "ss_music_elaa"),
        ("fig3_small_sep", "ss_music_ula2"),
        ("fig4_near_a", "nf_localize"),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_snapshot_is_a_typed_failure(scenario, algorithm, bad):
    spec = builtin_scenarios()[scenario]
    snap = snapshot(spec.array, spec.targets, 30.0, seed=1)
    snap.y[20] = bad
    assert _run_cell(algorithm, [snap], spec) == [(None, "NonFiniteSnapshot", {})]


def test_an_unpaired_localization_is_a_typed_failure(monkeypatch):
    spec = builtin_scenarios()["fig4_near_a"]
    snap = snapshot(spec.array, spec.targets, 30.0, seed=1)
    paired = LocalizedTarget(position=np.array([0.5, 5.0]), score=0.9, pair=(0, 0))
    unpaired = LocalizedTarget(position=None, score=0.0, pair=None, error="Unpaired")
    result = SimpleNamespace(targets=(paired, unpaired))
    monkeypatch.setattr(harness, "localize", lambda *args, **kwargs: result)
    with pytest.raises(Unpaired, match="^1 of 2 targets have no position$"):
        harness._localize(snap, spec)
    assert _run_cell("nf_localize", [snap], spec) == [(None, "Unpaired", {})]
