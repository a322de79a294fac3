"""Command line front end.

Subcommands: ``run`` (Monte Carlo sweep), ``spectrum`` (dump one fused
pseudospectrum), ``array-factor`` (beam-pattern diagnostic).  Exit codes:
0 on success, 2 on configuration errors and on unreadable or unwritable
files, 3 when any (algorithm, SNR) cell of a run fails in more than half
of its trials.  Every output path is checked before any work starts: it
must open for writing, and no two outputs, nor an output and the
scenario file, may name one file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ScenarioError
from .harness import (
    FAILURE_EXIT_THRESHOLD,
    render_csv,
    render_metrics_csv,
    run_monte_carlo,
    write_csv,
)
from .scenarios import ScenarioSpec, _as_floats, _as_list, builtin_scenarios, load_scenario
from .signal_model import array_factor, snapshot
from .ss_music import default_grid, fused_spectrum

MAX_SNR_POINTS = 10_000


def _resolve_scenario(ref: str) -> ScenarioSpec:
    builtins = builtin_scenarios()
    if ref in builtins:
        return builtins[ref]
    if os.path.exists(ref):
        return load_scenario(ref)
    raise ScenarioError(
        f"{ref!r} is neither a scenario file nor a builtin "
        f"({', '.join(sorted(builtins))})"
    )


def _check_outputs(scenario: str, outputs: dict[str, str | None]) -> None:
    """Raise ScenarioError unless each output path opens for writing; creates no file.

    ``outputs`` maps each output option to its path (None when not given),
    and ``scenario`` is the ``--scenario`` argument, a file unless it names
    a builtin.  No two of these paths may resolve to one file: one output
    would overwrite the other, or the scenario.
    """
    seen = {}
    if scenario not in builtin_scenarios():
        seen[os.path.realpath(scenario)] = "--scenario"
    for option, path in outputs.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ScenarioError(f"{seen[real]} and {option} name the same file {path}")
        seen[real] = option
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from None
        if not existed:
            os.remove(path)


def _parse_snr(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"bad --snr range {text!r}, expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ScenarioError(f"bad --snr range {text!r}") from exc
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ScenarioError(f"--snr range {text!r} needs finite start, stop and step")
        if step <= 0:
            raise ScenarioError("--snr step must be positive")
        count = (stop - start) / step + 1e-9
        if not math.isfinite(count):
            raise ScenarioError(f"--snr range {text!r} has no finite number of points")
        n = int(math.floor(count)) + 1
        if n < 1:
            raise ScenarioError("--snr range is empty")
        if n > MAX_SNR_POINTS:
            raise ScenarioError(f"--snr range {text!r} gives {n} points; at most {MAX_SNR_POINTS}")
        return tuple(start + i * step for i in range(n))
    return _as_floats("--snr", text)


def _cmd_run(args) -> int:
    overrides = dict(
        n_trials=args.trials,
        snr_grid_db=None if args.snr is None else _parse_snr(args.snr),
        algorithms=None if args.algos is None else _as_list("--algos", args.algos),
        base_seed=args.seed,
    )
    spec = replace(
        _resolve_scenario(args.scenario),
        **{key: value for key, value in overrides.items() if value is not None},
    )
    _check_outputs(args.scenario, {"--out": args.out, "--debug-out": args.debug_out})
    rows = run_monte_carlo(spec, debug_path=args.debug_out, progress=not args.quiet)
    write_csv(args.out, render_metrics_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    if any(r.failure_rate > FAILURE_EXIT_THRESHOLD for r in rows):
        worst = max(rows, key=lambda r: r.failure_rate)
        print(
            f"warning: {worst.algorithm} @ {worst.snr_db} dB failed in "
            f"{worst.failure_rate:.0%} of trials",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_spectrum(args) -> int:
    # the snapshot's generator takes non-negative seeds only; run masks its
    # base seed to 64 bits instead
    if args.seed < 0:
        raise ScenarioError(f"--seed must be a non-negative integer, got {args.seed}")
    spec = replace(_resolve_scenario(args.scenario), snr_grid_db=(args.snr,))
    _check_outputs(args.scenario, {"--out": args.out})
    y = snapshot(
        spec.array, spec.targets, spec.snr_grid_db[0], args.seed, model=spec.steering_model
    )
    surface = fused_spectrum(y, spec.array, len(spec.targets))
    table = zip(np.rad2deg(surface.grid), surface.values)
    write_csv(args.out, render_csv([("angle_deg", "value"), *table]))
    print(f"wrote spectrum ({len(surface.grid)} angles) to {args.out}")
    return 0


def _cmd_array_factor(args) -> int:
    spec = _resolve_scenario(args.scenario)
    _check_outputs(args.scenario, {"--out": args.out})
    grid = default_grid()
    elaa = array_factor(spec.array, grid, aperture="elaa")
    ula = array_factor(spec.array, grid, aperture="ula")
    table = zip(np.rad2deg(grid), elaa, ula)
    write_csv(args.out, render_csv([("angle_deg", "elaa_db", "ula_db"), *table]))
    print(f"wrote array factor ({len(grid)} angles) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elaa-doa",
        description="Single-snapshot DOA estimation with sparse two-module arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo scenario sweep")
    run.add_argument("--scenario", required=True, help="scenario file or builtin name")
    run.add_argument("--trials", type=int, default=None, help="trials per SNR point")
    run.add_argument("--snr", default=None, help="SNR grid: start:stop:step or list")
    run.add_argument("--algos", default=None, help="comma list of algorithms")
    run.add_argument("--seed", type=int, default=None, help="base seed override")
    run.add_argument("--out", default="results.csv", help="metrics CSV path")
    run.add_argument("--debug-out", default=None, help="per-trial debug CSV path")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    run.set_defaults(func=_cmd_run)

    spectrum = sub.add_parser("spectrum", help="export one fused pseudospectrum")
    spectrum.add_argument("--scenario", required=True)
    spectrum.add_argument("--snr", type=float, required=True, help="per-element SNR, dB")
    spectrum.add_argument("--seed", type=int, required=True)
    spectrum.add_argument("--out", default="spectrum.csv")
    spectrum.set_defaults(func=_cmd_spectrum)

    af = sub.add_parser("array-factor", help="export beam-pattern diagnostic")
    af.add_argument("--scenario", required=True)
    af.add_argument("--out", default="array_factor.csv")
    af.set_defaults(func=_cmd_array_factor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
