"""Experiment scenarios: specification type, file format, builtins.

Scenario files are flat ``key = value`` text with dotted key sections,
``#`` comments and blank lines.  Distances are meters, angles degrees.
Array keys accept either SI values (``array.gap_m``) or wavelength
multiples (``array.gap_wavelengths``) for exact carrier-relative setups.
Every other key sets the :class:`ScenarioSpec` field of its name.  Algorithm
names are checked against ``harness.ESTIMATORS``.

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
from .nf_localizer import MAX_SOURCES
from .signal_model import SteeringModel, noise_variance
from .subspace import max_sources


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one Monte Carlo experiment."""

    name: str
    array: ArrayConfig
    targets: tuple[Target, ...]
    snr_grid_db: tuple[float, ...]
    n_trials: int = 500
    algorithms: tuple[str, ...] = ("ss_music_elaa", "ss_esprit")
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
        for i, algo in enumerate(self.algorithms):
            if algo not in ESTIMATORS:
                raise ScenarioError(f"unknown algorithm {algo!r}; known: {', '.join(ESTIMATORS)}")
            if algo in self.algorithms[:i]:
                raise ScenarioError(f"algorithm {algo!r} is listed twice")
        m = self.array.elements_per_ula
        if len(self.targets) > max_sources(m):
            raise ScenarioError(
                f"{len(self.targets)} targets; the default pencil on {m}-element"
                f" sub-arrays resolves at most {max_sources(m)}"
            )
        if "nf_localize" in self.algorithms and len(self.targets) > MAX_SOURCES:
            raise ScenarioError(
                f"{len(self.targets)} targets; nf_localize takes at most {MAX_SOURCES},"
                f" as its association scores all {len(self.targets)}! DOA matchings"
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


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {value!r}") from None


def _as_positive(key: str, value: str) -> float:
    number = _as_float(key, value)
    if not (math.isfinite(number) and number > 0):
        raise ScenarioError(f"{key} must be finite and positive, got {number!r}")
    return number


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {value!r}") from None


def _as_elements(key: str, value: str) -> int:
    number = _as_int(key, value)
    if number < 2:
        raise ScenarioError(f"{key} must be at least 2, got {number}")
    return number


def _as_text(key: str, value: str) -> str:
    return value


def _as_list(key: str, value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _as_floats(key: str, value: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in _as_list(key, value))
    except ValueError:
        raise ScenarioError(f"{key} must be a comma list of numbers, got {value!r}") from None


def _as_model(key: str, value: str) -> SteeringModel | None:
    if value == "auto":
        return None
    try:
        return SteeringModel(value)
    except ValueError:
        raise ScenarioError(f"unknown {key} {value!r}") from None


def _parsed(table, key: str, parse):
    """Remove and parse ``key``'s value (None when absent); errors name its line."""
    lineno, value = table.pop(key, (None, None))
    if value is None:
        return None
    try:
        return parse(key, value)
    except ScenarioError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


# ScenarioSpec field -> parser of its scenario-file value, for every key
# outside the array and target sections
_SPEC_KEYS = {
    "name": _as_text,
    "snr_grid_db": _as_floats,
    "n_trials": _as_int,
    "algorithms": _as_list,
    "base_seed": _as_int,
    "steering_model": _as_model,
}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text; raises :class:`ScenarioError` with line numbers."""
    table = _parse_kv(text)

    elements = _parsed(table, "array.elements_per_ula", _as_elements)
    if elements is None:
        raise ScenarioError("missing key array.elements_per_ula")

    if ("array.carrier_freq_hz" in table) == ("array.wavelength_m" in table):
        raise ScenarioError(
            "give exactly one of array.carrier_freq_hz and array.wavelength_m"
        )
    if "array.carrier_freq_hz" in table:
        wavelength = SPEED_OF_LIGHT / _parsed(table, "array.carrier_freq_hz", _as_positive)
    else:
        wavelength = _parsed(table, "array.wavelength_m", _as_positive)

    def length_key(base: str, at_most: float = math.inf) -> float | None:
        """``base``'s length in meters, from its ``_m`` or ``_wavelengths`` key.

        Errors name the key and its line.  Only the spacing has a limit,
        ``at_most``: half the wavelength, as wider modules have grating lobes.
        """
        keys = [key for key in (f"{base}_m", f"{base}_wavelengths") if key in table]
        if len(keys) == 2:
            raise ScenarioError(f"give only one of {base}_m and {base}_wavelengths")
        if not keys:
            return None
        key = keys[0]
        lineno = table[key][0]
        length = _parsed(table, key, _as_positive)
        if key.endswith("_wavelengths"):
            length *= wavelength
        if length > at_most:
            raise ScenarioError(
                f"line {lineno}: {key} gives {length!r} m, more than half the wavelength"
                f" {at_most!r} m; wider modules have grating lobes"
            )
        return length

    gap = length_key("array.gap")
    if gap is None:
        raise ScenarioError("missing key array.gap_m (or array.gap_wavelengths)")
    spacing = length_key("array.spacing", at_most=wavelength / 2.0)

    try:
        array = ArrayConfig(
            elements_per_ula=elements, gap=gap, wavelength=wavelength, spacing=spacing
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    targets = []
    for index in itertools.count(1):
        range_m = _parsed(table, f"target.{index}.range_m", _as_float)
        angle_deg = _parsed(table, f"target.{index}.angle_deg", _as_float)
        if range_m is None and angle_deg is None:
            break
        if range_m is None or angle_deg is None:
            raise ScenarioError(f"target.{index} needs both range_m and angle_deg")
        try:
            targets.append(Target(range=range_m, angle=math.radians(angle_deg)))
        except ValueError as exc:
            raise ScenarioError(f"target.{index}: {exc}") from exc
    if not targets:
        raise ScenarioError("scenario needs target.1.range_m and target.1.angle_deg")

    if "snr_grid_db" not in table:
        raise ScenarioError("missing key snr_grid_db")
    kwargs = {"name": "scenario"}
    for key, parse in _SPEC_KEYS.items():
        if key in table:
            kwargs[key] = _parsed(table, key, parse)

    if table:
        key, (lineno, _) = next(iter(table.items()))
        raise ScenarioError(f"line {lineno}: unknown key {key!r}")

    return ScenarioSpec(array=array, targets=tuple(targets), **kwargs)


def load_scenario(path) -> ScenarioSpec:
    """Parse a UTF-8 scenario file; an unreadable file raises :class:`ScenarioError` too."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"scenario file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_scenario(text)


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
