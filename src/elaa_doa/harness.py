"""Monte Carlo driver: seeded trials, matching, RMSE / hit / failure rates.

``ESTIMATORS`` is the one table of algorithm names.  Each trial draws its
own seeded snapshot, and a cell's trials reach the estimator in chunks of
``CELL_CHUNK``: the far-field estimators run a chunk as one stack (one
SVD, one coarse scan, one set of rotations), with results bit-identical
to one trial at a time, and a failure stays with its own trial.  Each
trial's estimates are matched to the truth once, and a cell's RMSE and
hit rate come from those errors, a hit being an error within the fixed
``HIT_TOLERANCE`` of the metric's unit.  Every CSV the package writes,
the metrics and debug tables and the ``spectrum`` and ``array-factor``
exports, goes through :func:`write_csv`; the debug CSV has the columns
``DEBUG_COLUMNS``.

Seeding is reproducible and documented bit-exactly: the per-trial seed is

    seed = splitmix64(splitmix64(splitmix64(base_seed ^ algo_hash)
                                 ^ snr_index) ^ trial_index)

where ``algo_hash`` is the first 8 bytes (big endian) of the BLAKE2b
digest of the algorithm name and ``splitmix64`` is the standard 64-bit
mixer.  Identical scenario specs therefore produce byte-identical result
tables, and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import sys
from dataclasses import astuple, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import EstimationError, Unpaired
from .nf_localizer import localize
from .signal_model import snapshot
from .ss_esprit import esprit_chunk
from .ss_music import music_chunk

if TYPE_CHECKING:
    from .scenarios import ScenarioSpec

_MASK64 = (1 << 64) - 1
FAILURE_EXIT_THRESHOLD = 0.5
# Trials per estimator call: enough to spread the per-call overhead of the
# stacked steps, few enough that a chunk's arrays stay small.
CELL_CHUNK = 16


@dataclass(frozen=True)
class MetricsRow:
    """Aggregate metrics for one (algorithm, SNR) cell, its fields the metrics CSV's columns."""

    algorithm: str
    snr_db: float
    n_trials: int
    rmse: float | None
    hit_rate: float
    failure_rate: float
    metric_unit: str


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(base_seed: int, algorithm: str, snr_index: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed; see the module docstring for the mix."""
    algo_hash = int.from_bytes(
        hashlib.blake2b(algorithm.encode(), digest_size=8).digest(), "big"
    )
    x = _splitmix64((base_seed & _MASK64) ^ algo_hash)
    x = _splitmix64(x ^ (snr_index & _MASK64))
    x = _splitmix64(x ^ (trial_index & _MASK64))
    return x


def _matched(estimates: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The estimate paired with each truth, and its error magnitude.

    The pairing minimizes the summed squared error.  For angles, shape
    (K,), the sorted pairing does: it is the unique optimum when the
    values are distinct, and a tie changes no error.  Positions, shape
    (K, 2), are paired by searching every permutation.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tru.shape}")
    if est.ndim == 1:
        matched = np.empty_like(est)
        matched[np.argsort(tru)] = np.sort(est)
        return matched, np.abs(matched - tru)
    points = est.tolist()
    cost = [[math.dist(t, e) ** 2 for e in points] for t in tru.tolist()]
    perms = itertools.permutations(range(len(tru)))
    pick = min(perms, key=lambda perm: sum(row[j] for row, j in zip(cost, perm)))
    matched = est[list(pick)]
    return matched, np.linalg.norm(matched - tru, axis=1)


def match_errors(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-target error magnitudes under the best estimate-truth pairing.

    Entry ``t`` is the error of the estimate paired with truth ``t`` (see
    :func:`_matched`), for angles or positions alike.
    """
    return _matched(estimates, truth)[1]


def rmse(trial_errors: list[np.ndarray | None]) -> float | None:
    """Root mean squared matched error over trials' per-target errors.

    Failed trials (``None``) are excluded; they count in the failure rate.
    With nothing to average the RMSE is absent (``None``), not zero.
    """
    squares = []
    for err in trial_errors:
        if err is not None:
            squares.extend(float(e * e) for e in err)
    if not squares:
        return None
    return math.sqrt(sum(squares) / len(squares))


def hit_rate(trial_errors: list[np.ndarray | None], tol: float) -> float:
    """Fraction of trials with every matched error within ``tol`` (inclusive).

    Failed trials (``None``) count as misses.
    """
    if not trial_errors:
        return 0.0
    hits = sum(err is not None and bool(np.all(err <= tol)) for err in trial_errors)
    return hits / len(trial_errors)


@dataclass
class _TrialRecord:
    trial: int
    seed: int
    status: str
    estimates: np.ndarray | None
    errors: np.ndarray | None
    extra: dict


def _failed(exc: EstimationError) -> tuple[None, str, dict]:
    return None, type(exc).__name__, {}


def _esprit(ys, spec: ScenarioSpec):
    out = []
    for outcome in esprit_chunk(ys, spec.array, len(spec.targets)):
        if isinstance(outcome, EstimationError):
            out.append(_failed(outcome))
            continue
        angles, diag = outcome
        extra = {
            "pairing_quality": diag.pairing_quality,
            "dealias_margin_deg": math.degrees(min(r.margin for r in diag.reports)),
        }
        out.append((np.degrees(angles), "ok", extra))
    return out


def _music(ys, spec: ScenarioSpec, ula: int | None):
    outcomes = music_chunk(ys, spec.array, len(spec.targets), ula=ula)
    return [
        _failed(out) if isinstance(out, EstimationError) else (np.degrees(out), "ok", {})
        for out in outcomes
    ]


def _localize(y, spec: ScenarioSpec):
    result = localize(y, spec.array, len(spec.targets))
    failed = sum(t.position is None for t in result.targets)
    if failed:
        raise Unpaired(f"{failed} of {len(result.targets)} targets have no position")
    positions = np.array([t.position for t in result.targets])
    extra = {
        "residual": result.residual,
        "score": min(t.score for t in result.targets),
        "route": result.route,
        "noise_ratio": result.noise_ratio,
    }
    return positions, "ok", extra


def _localize_each(ys, spec: ScenarioSpec):
    out = []
    for y in ys:
        try:
            out.append(_localize(y, spec))
        except EstimationError as exc:
            out.append(_failed(exc))
    return out


# Algorithm name -> (cell function, metric unit).  A cell function takes a
# chunk of observations, one per row, and returns one (estimates, status,
# extra) per trial; estimator failures become their class name as the
# status, with no estimates.  ``extra`` keys are debug column names.  Cell
# functions reach the estimators through this module's globals at call
# time, so rebinding an estimator here (as a tracer or a test does)
# reaches every trial.
ESTIMATORS = {
    "nf_localize": (_localize_each, "m"),
    "ss_esprit": (_esprit, "deg"),
    "ss_music_elaa": (functools.partial(_music, ula=None), "deg"),
    "ss_music_ula1": (functools.partial(_music, ula=1), "deg"),
    "ss_music_ula2": (functools.partial(_music, ula=2), "deg"),
}
# Metric unit -> the largest matched error that counts as a hit.
HIT_TOLERANCE = {"deg": 0.5, "m": 0.1}


def _run_cell(algorithm: str, ys, spec: ScenarioSpec) -> list[tuple]:
    """One (estimates, status, extra) per observation of a chunk of a cell."""
    run, _ = ESTIMATORS[algorithm]
    return run(ys, spec)


def run_monte_carlo(
    spec: ScenarioSpec, debug_path=None, progress: bool = False
) -> list[MetricsRow]:
    """Run every (algorithm, SNR, trial) cell of a scenario.

    Rows come back sorted by (algorithm, snr_db).  A cell's RMSE leaves
    out its failed trials, which count in its failure rate instead, and
    its hit rate takes the tolerance ``HIT_TOLERANCE`` gives its unit.
    """
    rows: list[MetricsRow] = []
    debug_text: list[str] = []
    for algorithm in sorted(spec.algorithms):
        _, unit = ESTIMATORS[algorithm]
        if unit == "m":
            truth = np.array([t.position for t in spec.targets])
        else:
            truth = np.array([math.degrees(t.angle) for t in spec.targets])
        for snr_index, snr_db in enumerate(spec.snr_grid_db):
            records: list[_TrialRecord] = []
            for start in range(0, spec.n_trials, CELL_CHUNK):
                trials = range(start, min(start + CELL_CHUNK, spec.n_trials))
                seeds = [derive_trial_seed(spec.base_seed, algorithm, snr_index, t) for t in trials]
                ys = np.stack([
                    snapshot(spec.array, spec.targets, snr_db, seed, model=spec.steering_model)
                    for seed in seeds
                ])
                results = _run_cell(algorithm, ys, spec)
                for trial, seed, (estimates, status, extra) in zip(trials, seeds, results):
                    errors = None if estimates is None else match_errors(estimates, truth)
                    records.append(_TrialRecord(trial, seed, status, estimates, errors, extra))
            trial_errors = [r.errors for r in records]
            row = MetricsRow(
                algorithm=algorithm,
                snr_db=float(snr_db),
                n_trials=spec.n_trials,
                rmse=rmse(trial_errors),
                hit_rate=hit_rate(trial_errors, HIT_TOLERANCE[unit]),
                failure_rate=sum(err is None for err in trial_errors) / spec.n_trials,
                metric_unit=unit,
            )
            rows.append(row)
            if progress:
                print(
                    f"{spec.name}: {algorithm} @ {snr_db} dB: "
                    f"rmse={row.rmse} hit={row.hit_rate:.3f} fail={row.failure_rate:.3f}",
                    file=sys.stderr,
                )
            if debug_path is not None:
                debug_rows = _debug_rows(algorithm, snr_db, records, truth, unit)
                debug_text.append(render_csv(debug_rows))
    rows.sort(key=lambda r: (r.algorithm, r.snr_db))
    if debug_path is not None:
        write_csv(debug_path, render_csv([DEBUG_COLUMNS]), *debug_text)
    return rows


DEBUG_COLUMNS = (
    "algorithm", "snr_db", "trial", "seed", "status", "target_id", "truth", "estimate",
    "error", "x_hat", "y_hat", "residual", "score", "pairing_quality", "dealias_margin_deg",
    "route", "noise_ratio", "x_true", "y_true",
)


def _debug_rows(algorithm, snr_db, records, truth, unit) -> list[list]:
    """One row per target of each trial, with the estimate matched to that target.

    A failed trial gets one row with its status and no target.  The
    record's ``trial``, ``seed`` and ``status`` fields and the run
    functions' ``extra`` keys are column names.
    """
    rows = []
    for rec in records:
        head = {"algorithm": algorithm, "snr_db": snr_db, **vars(rec)}
        if rec.estimates is None:
            rows.append(head)
            continue
        matched = _matched(rec.estimates, truth)[0]
        for tid in range(len(truth)):
            row = {**head, **rec.extra, "target_id": tid, "error": rec.errors[tid]}
            if unit == "m":
                row["x_hat"], row["y_hat"] = matched[tid]
                row["x_true"], row["y_true"] = truth[tid]
            else:
                row["truth"], row["estimate"] = truth[tid], matched[tid]
            rows.append(row)
    return [[row.get(name) for name in DEBUG_COLUMNS] for row in rows]


def _cell(value) -> str:
    """A CSV field: empty when missing, text and ints as they are, floats by ``repr``."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return repr(float(value))


def render_csv(rows) -> str:
    """CSV lines, one per row of fields, each field by :func:`_cell`.

    A table's first row is its column names.  Identical rows give
    byte-identical text.
    """
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def write_csv(path, *texts: str) -> None:
    """Write CSV text made by :func:`render_csv` to ``path``, its pieces in order."""
    with open(path, "w") as fh:
        fh.writelines(texts)


METRICS_COLUMNS = tuple(field.name for field in fields(MetricsRow))
METRICS_HEADER = ",".join(METRICS_COLUMNS)


def render_metrics_csv(rows: list[MetricsRow]) -> str:
    """Deterministic CSV text for a metrics table, header ``METRICS_HEADER``."""
    return render_csv([METRICS_COLUMNS, *map(astuple, rows)])
