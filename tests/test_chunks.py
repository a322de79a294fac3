"""Far-field cells run in chunks: every trial's outcome is its one-trial estimate."""

import math
from dataclasses import replace

import numpy as np
import pytest

from elaa_doa import harness, ss_music
from elaa_doa.errors import EstimationError
from elaa_doa.harness import CELL_CHUNK, derive_trial_seed, run_monte_carlo
from elaa_doa.scenarios import builtin_scenarios
from elaa_doa.ss_esprit import estimate_doa_esprit
from elaa_doa.ss_music import estimate_doa_music

FAR_FIELD = ("ss_esprit", "ss_music_elaa", "ss_music_ula1", "ss_music_ula2")
ULA = {"ss_music_elaa": None, "ss_music_ula1": 1, "ss_music_ula2": 2}
# two whole chunks and a partial one
TRIALS = 2 * CELL_CHUNK + 1


def _recorded_run(monkeypatch, spec):
    """Run ``spec``; return each trial's snapshot with its (estimates, status, extra)."""
    seen = []
    run_cell = harness._run_cell

    def recording(algorithm, ys, spec):
        out = run_cell(algorithm, ys, spec)
        assert len(ys) <= CELL_CHUNK
        seen.extend(zip(ys, out))
        return out

    monkeypatch.setattr(harness, "_run_cell", recording)
    run_monte_carlo(spec)
    monkeypatch.setattr(harness, "_run_cell", run_cell)
    return seen


def _one_trial(algorithm, snap, spec):
    """The one-trial estimator's (estimates, status, extra) for one snapshot."""
    k = len(spec.targets)
    try:
        if algorithm == "ss_esprit":
            angles, diag = estimate_doa_esprit(snap, spec.array, k)
            extra = {
                "pairing_quality": diag.pairing_quality,
                "dealias_margin_deg": math.degrees(min(r.margin for r in diag.reports)),
            }
        else:
            angles = estimate_doa_music(snap, spec.array, k, ula=ULA[algorithm])
            extra = {}
    except EstimationError as exc:
        return None, type(exc).__name__, {}
    return np.degrees(angles), "ok", extra


def _assert_same(got, want):
    (est, status, extra), (want_est, want_status, want_extra) = got, want
    assert (status, extra) == (want_status, want_extra)
    if want_est is None:
        assert est is None
    else:
        assert np.array_equal(est, want_est)


@pytest.mark.parametrize("algorithm", FAR_FIELD)
def test_chunked_trials_equal_one_trial_estimates(monkeypatch, algorithm):
    spec = replace(
        builtin_scenarios()["fig3_small_sep"],
        algorithms=(algorithm,),
        snr_grid_db=(0.0, 20.0, math.inf),
        n_trials=TRIALS,
    )
    seen = _recorded_run(monkeypatch, spec)
    assert len(seen) == 3 * TRIALS
    for snap, got in seen:
        _assert_same(got, _one_trial(algorithm, snap, spec))
    if algorithm == "ss_esprit":
        # failures inside a chunk match too: alias ties at 0 dB
        assert "AmbiguousDealias" in {status for _, (_, status, _) in seen}


@pytest.mark.parametrize("algorithm", FAR_FIELD)
def test_a_failed_trial_leaves_its_chunk_unchanged(monkeypatch, algorithm):
    # in the first chunk, trial 3 gets NaN samples and trial 7 an all-zero
    # snapshot, which MUSIC finds flat and ESPRIT finds rank deficient
    spec = replace(
        builtin_scenarios()["fig3_small_sep"],
        algorithms=(algorithm,),
        snr_grid_db=(20.0,),
        n_trials=TRIALS,
    )
    clean = _recorded_run(monkeypatch, spec)
    nan_seed, zero_seed = (derive_trial_seed(spec.base_seed, algorithm, 0, t) for t in (3, 7))
    draw = harness.snapshot

    def spoiled(cfg, targets, snr_db, seed, model=None):
        snap = draw(cfg, targets, snr_db, seed, model=model)
        if seed == nan_seed:
            snap[[3, 20]] = math.nan  # a sample in each sub-array
        elif seed == zero_seed:
            snap = np.zeros_like(snap)
        return snap

    monkeypatch.setattr(harness, "snapshot", spoiled)
    spoilt = _recorded_run(monkeypatch, spec)
    statuses = [status for _, (_, status, _) in spoilt]
    assert statuses[3] == "NonFiniteSnapshot"
    assert statuses[7] == ("IllConditioned" if algorithm == "ss_esprit" else "UnderResolved")
    for t, ((_, got), (snap, want)) in enumerate(zip(spoilt, clean)):
        if t not in (3, 7):
            _assert_same(got, want)
            _assert_same(got, _one_trial(algorithm, snap, spec))


@pytest.mark.parametrize("name", ["fig3_small_sep", "fig3_large_sep"])
def test_every_music_trial_makes_one_fine_pass(monkeypatch, name):
    # the floor is the fine surface's own value at the coarse pick, so the
    # floored pick never falls short for want of a last bit
    calls = []
    fine = ss_music._fine_surface

    def counting(*args):
        calls.append(1)
        return fine(*args)

    monkeypatch.setattr(ss_music, "_fine_surface", counting)
    spec = replace(
        builtin_scenarios()[name],
        algorithms=("ss_music_elaa", "ss_music_ula1", "ss_music_ula2"),
        n_trials=200,
    )
    rows = run_monte_carlo(spec)
    assert all(row.failure_rate == 0.0 for row in rows)
    assert len(calls) == sum(row.n_trials for row in rows) == 3 * 9 * 200
