"""Experiment scenarios: specification type, file format, builtins.

Scenario files are flat ``key = value`` text with dotted key sections,
``#`` comments and blank lines.  Distances are meters, angles degrees.
Array keys accept either SI values (``array.gap_m``) or wavelength
multiples (``array.gap_wavelengths``) for exact carrier-relative setups.
Every other key sets the :class:`ScenarioSpec` field of its name.  Names
and modes are checked against ``harness.ESTIMATORS`` and ``ss_music.FUSION_MODES``.

Example::

    name = two_close_targets
    array.elements_per_ula = 16
    array.carrier_freq_hz = 76e9
    array.gap_wavelengths = 150
    target.1.range_m = 250.0
    target.1.angle_deg = -0.2
    target.2.range_m = 250.0
    target.2.angle_deg = 0.2
    snr_grid_db = 0, 5, 10
    n_trials = 500
    algorithms = ss_music_elaa, ss_esprit
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .errors import ScenarioError
from .geometry import SPEED_OF_LIGHT, ArrayConfig, Target
from .harness import ESTIMATORS
from .signal_model import SteeringModel, noise_variance
from .ss_music import FUSION_MODES, grid_points
from .subspace import default_pencil


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one Monte Carlo experiment."""

    name: str
    array: ArrayConfig
    targets: tuple[Target, ...]
    snr_grid_db: tuple[float, ...]
    n_trials: int = 500
    algorithms: tuple[str, ...] = ("ss_music_elaa", "ss_esprit")
    fusion_mode: str = "product"
    grid_step_deg: float = 0.01
    pencil: int | None = None
    hit_tolerance_deg: float = 0.5
    hit_tolerance_m: float = 0.1
    base_seed: int = 42
    steering_model: SteeringModel | None = None

    def __post_init__(self) -> None:
        if not self.targets:
            raise ScenarioError("scenario needs at least one target")
        if not self.snr_grid_db:
            raise ScenarioError("scenario needs at least one SNR point")
        for snr_db in self.snr_grid_db:
            # +inf is the noiseless snapshot; NaN and -inf have no noise level
            if math.isnan(snr_db) or snr_db == -math.inf:
                raise ScenarioError(
                    f"SNR point {snr_db!r} dB is invalid; give a finite value, or inf for no noise"
                )
            try:
                noise_variance(snr_db)
            except OverflowError:
                raise ScenarioError(
                    f"SNR point {snr_db!r} dB is too low: its noise variance overflows"
                ) from None
        if self.n_trials < 1:
            raise ScenarioError("n_trials must be at least 1")
        if not self.algorithms:
            raise ScenarioError("scenario needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ESTIMATORS:
                raise ScenarioError(f"unknown algorithm {algo!r}; known: {', '.join(ESTIMATORS)}")
        if self.fusion_mode not in FUSION_MODES:
            raise ScenarioError(f"fusion_mode must be one of {tuple(FUSION_MODES)}")
        try:
            grid_points(self.grid_step_deg)
        except ValueError as exc:
            raise ScenarioError(f"grid_step_deg: {exc}") from None
        for tol in (self.hit_tolerance_deg, self.hit_tolerance_m):
            if not (math.isfinite(tol) and tol > 0):
                raise ScenarioError(f"hit tolerances must be finite and positive, got {tol!r}")
        m = self.array.elements_per_ula
        pencil = default_pencil(m) if self.pencil is None else self.pencil
        if not 1 <= pencil < m:
            raise ScenarioError(f"pencil must be in [1, {m - 1}], got {pencil}")
        # each sub-array's (pencil + 1) x (m - pencil) Hankel matrix must
        # keep a noise dimension after the signal subspace
        limit = min(pencil + 1, m - pencil)
        if len(self.targets) >= limit:
            raise ScenarioError(
                f"{len(self.targets)} targets; a pencil of {pencil} on "
                f"{m}-element sub-arrays resolves at most {limit - 1}"
            )


def paper_array() -> ArrayConfig:
    """The 76 GHz automotive-radar configuration used by the builtins."""
    lam = SPEED_OF_LIGHT / 76e9
    return ArrayConfig(elements_per_ula=16, gap=150.0 * lam, carrier_freq=76e9)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """Named reference scenarios.

    * ``fig3_small_sep``: two far-field targets 0.4 degrees apart, below
      the resolution of one sub-array alone.
    * ``fig3_large_sep``: two far-field targets 10 degrees apart.
    * ``fig4_near_a``: two near-field targets at 5 m, +-10 degrees.
    * ``fig4_near_b``: two near-field targets stacked on boresight at
      4 m and 6 m.
    """
    cfg = paper_array()
    farfield_algos = ("ss_music_elaa", "ss_music_ula1", "ss_music_ula2", "ss_esprit")
    snr_sweep = tuple(float(s) for s in range(0, 45, 5))

    def far(name: str, sep_deg: float) -> ScenarioSpec:
        half = math.radians(sep_deg / 2.0)
        targets = (Target(250.0, -half), Target(250.0, half))
        return ScenarioSpec(name, cfg, targets, snr_sweep, algorithms=farfield_algos)

    def near(name: str, *targets: Target) -> ScenarioSpec:
        return ScenarioSpec(name, cfg, targets, (30.0,), algorithms=("nf_localize",))

    specs = (
        far("fig3_small_sep", 0.4),
        far("fig3_large_sep", 10.0),
        near("fig4_near_a", Target(5.0, math.radians(-10.0)), Target(5.0, math.radians(10.0))),
        near("fig4_near_b", Target(4.0, 0.0), Target(6.0, 0.0)),
    )
    return {spec.name: spec for spec in specs}


def _parse_kv(text: str) -> dict[str, tuple[int, str]]:
    table: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioError(f"line {lineno}: empty key or value")
        if key in table:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        table[key] = (lineno, value)
    return table


def _pop(table, key):
    return table.pop(key, (None, None))


def _as_float(key: str, lineno: int, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {key} must be a number, got {value!r}") from exc


def _as_int(key: str, lineno: int, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {key} must be an integer, got {value!r}") from exc


def _as_text(key: str, lineno: int, value: str) -> str:
    return value


def _as_list(key: str, lineno: int, value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _as_floats(key: str, lineno: int, value: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in _as_list(key, lineno, value))
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: bad {key} {value!r}") from exc


def _as_model(key: str, lineno: int, value: str) -> SteeringModel | None:
    if value == "auto":
        return None
    try:
        return SteeringModel(value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: unknown {key} {value!r}") from exc


# ScenarioSpec field -> parser of its scenario-file value, for every key
# outside the array and target sections
_SPEC_KEYS = {
    "name": _as_text,
    "snr_grid_db": _as_floats,
    "n_trials": _as_int,
    "algorithms": _as_list,
    "fusion_mode": _as_text,
    "grid_step_deg": _as_float,
    "pencil": _as_int,
    "hit_tolerance_deg": _as_float,
    "hit_tolerance_m": _as_float,
    "base_seed": _as_int,
    "steering_model": _as_model,
}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text; raises :class:`ScenarioError` with line numbers."""
    table = _parse_kv(text)

    lineno, value = _pop(table, "array.elements_per_ula")
    if value is None:
        raise ScenarioError("missing key array.elements_per_ula")
    elements = _as_int("array.elements_per_ula", lineno, value)

    freq_ln, freq_v = _pop(table, "array.carrier_freq_hz")
    wl_ln, wl_v = _pop(table, "array.wavelength_m")
    if (freq_v is None) == (wl_v is None):
        raise ScenarioError(
            "give exactly one of array.carrier_freq_hz and array.wavelength_m"
        )
    if freq_v is not None:
        freq = _as_float("array.carrier_freq_hz", freq_ln, freq_v)
        if not (math.isfinite(freq) and freq > 0):
            raise ScenarioError(
                f"line {freq_ln}: array.carrier_freq_hz must be finite and positive, got {freq!r}"
            )
        wavelength = SPEED_OF_LIGHT / freq
    else:
        wavelength = _as_float("array.wavelength_m", wl_ln, wl_v)

    def length_key(base: str) -> float | None:
        si_ln, si_v = _pop(table, f"{base}_m")
        wl_ln2, wl_v2 = _pop(table, f"{base}_wavelengths")
        if si_v is not None and wl_v2 is not None:
            raise ScenarioError(f"give only one of {base}_m and {base}_wavelengths")
        if si_v is not None:
            return _as_float(f"{base}_m", si_ln, si_v)
        if wl_v2 is not None:
            return _as_float(f"{base}_wavelengths", wl_ln2, wl_v2) * wavelength
        return None

    gap = length_key("array.gap")
    if gap is None:
        raise ScenarioError("missing key array.gap_m (or array.gap_wavelengths)")
    spacing = length_key("array.spacing")

    try:
        array = ArrayConfig(
            elements_per_ula=elements, gap=gap, wavelength=wavelength, spacing=spacing
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    targets = []
    for index in itertools.count(1):
        r_ln, r_v = _pop(table, f"target.{index}.range_m")
        a_ln, a_v = _pop(table, f"target.{index}.angle_deg")
        if r_v is None and a_v is None:
            break
        if r_v is None or a_v is None:
            raise ScenarioError(f"target.{index} needs both range_m and angle_deg")
        try:
            targets.append(
                Target(
                    range=_as_float(f"target.{index}.range_m", r_ln, r_v),
                    angle=math.radians(_as_float(f"target.{index}.angle_deg", a_ln, a_v)),
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"target.{index}: {exc}") from exc
    if not targets:
        raise ScenarioError("scenario needs target.1.range_m and target.1.angle_deg")

    if "snr_grid_db" not in table:
        raise ScenarioError("missing key snr_grid_db")
    kwargs = {"name": "scenario"}
    for key, parse in _SPEC_KEYS.items():
        lineno, value = _pop(table, key)
        if value is not None:
            kwargs[key] = parse(key, lineno, value)

    if table:
        key, (lineno, _) = next(iter(table.items()))
        raise ScenarioError(f"line {lineno}: unknown key {key!r}")

    return ScenarioSpec(array=array, targets=tuple(targets), **kwargs)


def load_scenario(path) -> ScenarioSpec:
    with open(path) as fh:
        return parse_scenario(fh.read())


def with_overrides(
    spec: ScenarioSpec,
    n_trials: int | None = None,
    snr_grid_db: tuple[float, ...] | None = None,
    algorithms: tuple[str, ...] | None = None,
    base_seed: int | None = None,
) -> ScenarioSpec:
    """Copy a spec with the given (not None) CLI-style overrides applied."""
    given = dict(
        n_trials=n_trials, snr_grid_db=snr_grid_db, algorithms=algorithms, base_seed=base_seed
    )
    kwargs = {key: value for key, value in given.items() if value is not None}
    return replace(spec, **kwargs) if kwargs else spec
