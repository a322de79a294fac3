"""Correctness checks: the noiseless oracle gate and the per-output checks.

The gate repeats the noiseless cases of acceptance criterion 1 before any
timing starts.  The output checks run on every result a timed operation
returns.  Either one failing raises :class:`BenchFailure`, which ends the
run with a non-zero exit and no metrics.
"""

from __future__ import annotations

import math

import numpy as np

from elaa_doa import harness, nf_localizer, ss_esprit, ss_music
from elaa_doa.geometry import Target, field_regions
from elaa_doa.signal_model import snapshot

ANGLE_TOL_DEG = 1e-3
POSITION_TOL_M = 1e-3
FAR_CASES_DEG = ([3.17], [-5.03, 4.96])
NEAR_CASES = ([(0.2, 5.0)], [(-10.0, 5.0), (10.0, 5.0)], [(0.0, 4.0), (0.0, 6.0)])


class BenchFailure(Exception):
    """An output of the package is wrong; the run reports no metrics."""


def check_angles(angles, k: int, what: str) -> np.ndarray:
    """A DOA estimate must be ``k`` finite angles within +-90 degrees."""
    est = np.asarray(angles)
    if est.shape != (k,) or not np.all(np.isfinite(est)):
        raise BenchFailure(f"{what}: expected {k} finite angles, got {est!r}")
    if np.any(np.abs(est) > math.pi / 2 + 1e-9):
        raise BenchFailure(f"{what}: angle outside the visible region: {est!r}")
    return est


def check_positions(result, k: int) -> None:
    """A localization result has ``k`` entries; every position is finite (2,)."""
    if len(result.targets) != k:
        raise BenchFailure(f"localize: expected {k} targets, got {len(result.targets)}")
    for t in result.targets:
        if t.position is None:
            continue
        pos = np.asarray(t.position)
        if pos.shape != (2,) or not np.all(np.isfinite(pos)):
            raise BenchFailure(f"localize: bad position {pos!r}")


def check_rows(rows, spec) -> tuple[int, int, int]:
    """Validate the metrics of a one-cell Monte Carlo run.

    Returns (trials, failed trials, hit trials).  A non-finite estimate
    would make the RMSE non-finite, and a mis-shaped one makes the
    harness's matching raise, so the row stands in for every estimate of
    the cell.
    """
    (algorithm,), (snr_db,), n = spec.algorithms, spec.snr_grid_db, spec.n_trials
    if len(rows) != 1:
        raise BenchFailure(f"{spec.name}: expected one metrics row, got {len(rows)}")
    row = rows[0]
    if (row.algorithm, row.snr_db, row.n_trials) != (algorithm, snr_db, n):
        raise BenchFailure(f"{spec.name}: row does not match its cell: {row!r}")
    failed, hits = row.failure_rate * n, row.hit_rate * n
    if abs(failed - round(failed)) > 1e-6 or abs(hits - round(hits)) > 1e-6:
        raise BenchFailure(f"{spec.name}: rates are not trial counts: {row!r}")
    failed, hits = round(failed), round(hits)
    if not 0 <= hits <= n - failed:
        raise BenchFailure(f"{spec.name}: rates out of range: {row!r}")
    if (row.rmse is None) != (failed == n):
        raise BenchFailure(f"{spec.name}: rmse presence disagrees with failures: {row!r}")
    if row.rmse is not None and not (math.isfinite(row.rmse) and row.rmse >= 0.0):
        raise BenchFailure(f"{spec.name}: rmse is not a finite distance: {row!r}")
    return n, failed, hits


def oracle_gate(cfg) -> None:
    """Noiseless truths must come back within 1e-3 degrees and 1 mm."""
    far_range = 1.5 * field_regions(cfg).fraunhofer
    for angles_deg in FAR_CASES_DEG:
        k = len(angles_deg)
        targets = [Target(range=far_range, angle=math.radians(a)) for a in angles_deg]
        snap = snapshot(cfg, targets, math.inf, seed=101 + k)
        found = {"ss_esprit": ss_esprit.estimate_doa_esprit(snap, cfg, k)[0]}
        for ula in (None, 1, 2):
            found[f"ss_music ula={ula}"] = ss_music.estimate_doa_music(snap, cfg, k, ula=ula)
        for what, est in found.items():
            err = np.abs(np.degrees(np.sort(check_angles(est, k, what))) - angles_deg)
            if np.any(err > ANGLE_TOL_DEG):
                raise BenchFailure(f"oracle {what} at {angles_deg} deg: errors {err} deg")
    for case in NEAR_CASES:
        targets = [Target(range=r, angle=math.radians(a)) for a, r in case]
        truth = np.array([t.position for t in targets])
        snap = snapshot(cfg, targets, math.inf, seed=200 + len(case))
        result = nf_localizer.localize(snap, cfg, len(case))
        check_positions(result, len(case))
        if any(t.position is None for t in result.targets):
            raise BenchFailure(f"oracle localize at {case}: unpaired target")
        positions = np.array([t.position for t in result.targets])
        err = harness.match_errors(positions, truth)
        if np.any(err >= POSITION_TOL_M):
            raise BenchFailure(f"oracle localize at {case}: errors {err} m")
