"""Experiment scenarios: specification type, file format, builtins.

Scenario files are flat ``key = value`` text with dotted key sections,
``#`` comments and blank lines.  Target ranges are meters, angles
degrees.  The array is given by its carrier in Hz, and its gap and
element spacing in wavelengths of that carrier.  Every other key sets
the :class:`ScenarioSpec` field of its name.  Algorithm
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
import re
from dataclasses import dataclass

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


# A position error is about its target's range when the localizer misses,
# and a cell's RMSE sums its square over every trial: one square overflows
# past 1.3e154 m, a cell's sum sooner.  At 1e100 m no trial count reaches
# overflow, and no physical scene is that deep.
MAX_RANGE_M = 1e100


def paper_array() -> ArrayConfig:
    """The 76 GHz automotive-radar configuration used by the builtins."""
    lam = SPEED_OF_LIGHT / 76e9
    return ArrayConfig(elements_per_ula=16, gap=150.0 * lam, wavelength=lam)


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


_ARRAY_AND_TARGET_KEYS = re.compile(
    r"array\.(elements_per_ula|carrier_freq_hz|gap_wavelengths|spacing_wavelengths)"
    r"|target\.[1-9][0-9]*\.(range_m|angle_deg)"
)


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
        # refused at its line before any key is found missing: a retired key, say
        if not (key in _SPEC_KEYS or _ARRAY_AND_TARGET_KEYS.fullmatch(key)):
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
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


def _as_wavelength(key: str, value: str) -> float:
    """The wavelength in meters of a carrier frequency in Hz."""
    wavelength = SPEED_OF_LIGHT / _as_positive(key, value)
    if not math.isfinite(wavelength):
        raise ScenarioError(
            f"{key} gives wavelength {wavelength!r} m; the wavelength must be finite"
        )
    return wavelength


def _as_range(key: str, value: str) -> float:
    """A target range in meters, finite, positive and at most ``MAX_RANGE_M``."""
    number = _as_positive(key, value)
    if number > MAX_RANGE_M:
        raise ScenarioError(
            f"{key} is {number!r} m, more than {MAX_RANGE_M!r} m; position errors that"
            " large overflow when squared"
        )
    return number


def _as_angle(key: str, value: str) -> float:
    """A target angle given in degrees, in radians inside (-pi/2, pi/2) as a target takes it."""
    number = _as_float(key, value)
    if not -math.pi / 2 < math.radians(number) < math.pi / 2:
        raise ScenarioError(f"{key} must lie in (-90, 90) degrees, got {number!r}")
    return math.radians(number)


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


def _parsed(table, key: str, parse, required: bool = False):
    """Remove and parse ``key``'s value (None if absent and optional); errors name its line."""
    lineno, value = table.pop(key, (None, None))
    if value is None:
        if required:
            raise ScenarioError(f"missing key {key}")
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

    elements = _parsed(table, "array.elements_per_ula", _as_elements, required=True)
    wavelength = _parsed(table, "array.carrier_freq_hz", _as_wavelength, required=True)

    def in_wavelengths(key: str, value: str) -> float:
        """``value`` wavelengths in meters.

        A spacing is at most half a wavelength, as wider modules have
        grating lobes.
        """
        length = _as_positive(key, value) * wavelength
        if not (math.isfinite(length) and length > 0):
            raise ScenarioError(f"{key} gives {length!r} m; a length must be finite and positive")
        if key == "array.spacing_wavelengths" and length > wavelength / 2.0:
            raise ScenarioError(
                f"{key} gives {length!r} m, more than half the wavelength"
                f" {wavelength / 2.0!r} m; wider modules have grating lobes"
            )
        return length

    gap_line = table.get("array.gap_wavelengths", (None,))[0]
    gap = _parsed(table, "array.gap_wavelengths", in_wavelengths, required=True)
    spacing = _parsed(table, "array.spacing_wavelengths", in_wavelengths)
    try:
        array = ArrayConfig(elements, gap, wavelength, spacing)
    except ValueError as exc:
        # every value is checked at its key, which leaves the aperture's
        # Fraunhofer distance, and the gap is what makes it overflow
        raise ScenarioError(f"line {gap_line}: array.gap_wavelengths: {exc}") from None

    targets = []
    for index in itertools.count(1):
        range_m = _parsed(table, f"target.{index}.range_m", _as_range, required=index == 1)
        angle = _parsed(table, f"target.{index}.angle_deg", _as_angle)
        if range_m is None and angle is None:
            break
        if range_m is None or angle is None:
            raise ScenarioError(f"target.{index} needs both range_m and angle_deg")
        targets.append(Target(range=range_m, angle=angle))
    for key, (lineno, _) in table.items():
        # targets are numbered 1, 2, ... without a gap, so a target key left
        # here is numbered past target.{index}; any other key is unknown
        if re.fullmatch(r"target\.[1-9][0-9]*\.(range_m|angle_deg)", key):
            raise ScenarioError(f"line {lineno}: {key} follows a missing target.{index}")

    kwargs = {"name": "scenario"}
    for key, parse in _SPEC_KEYS.items():
        if key in table or key == "snr_grid_db":
            kwargs[key] = _parsed(table, key, parse, required=True)

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
