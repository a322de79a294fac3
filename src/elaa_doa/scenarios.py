"""Experiment scenarios: specification type, file format, builtins.

Scenario files are flat ``key = value`` text with dotted key sections,
``#`` comments and blank lines.  Distances are meters, angles degrees.
Array keys accept either SI values (``array.gap_m``) or wavelength
multiples (``array.gap_wavelengths``) for exact carrier-relative setups.

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

import math
from dataclasses import dataclass, replace

from .errors import ScenarioError
from .geometry import SPEED_OF_LIGHT, ArrayConfig, Target
from .signal_model import SteeringModel, noise_variance
from .ss_music import grid_points
from .subspace import default_pencil

KNOWN_ALGORITHMS = (
    "nf_localize",
    "ss_esprit",
    "ss_music_elaa",
    "ss_music_ula1",
    "ss_music_ula2",
)
FUSION_MODES = ("product", "max")
DEFAULT_BASE_SEED = 42


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
    base_seed: int = DEFAULT_BASE_SEED
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
            if algo not in KNOWN_ALGORITHMS:
                raise ScenarioError(
                    f"unknown algorithm {algo!r}; known: {', '.join(KNOWN_ALGORITHMS)}"
                )
        if self.fusion_mode not in FUSION_MODES:
            raise ScenarioError(f"fusion_mode must be one of {FUSION_MODES}")
        try:
            grid_points(self.grid_step_deg)
        except ValueError as exc:
            raise ScenarioError(f"grid_step_deg: {exc}") from None
        if self.hit_tolerance_deg <= 0 or self.hit_tolerance_m <= 0:
            raise ScenarioError("hit tolerances must be positive")
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
        return ScenarioSpec(
            name=name,
            array=cfg,
            targets=(Target(250.0, -half), Target(250.0, half)),
            snr_grid_db=snr_sweep,
            algorithms=farfield_algos,
        )

    near_a = ScenarioSpec(
        name="fig4_near_a",
        array=cfg,
        targets=(Target(5.0, math.radians(-10.0)), Target(5.0, math.radians(10.0))),
        snr_grid_db=(30.0,),
        algorithms=("nf_localize",),
    )
    near_b = ScenarioSpec(
        name="fig4_near_b",
        array=cfg,
        targets=(Target(4.0, 0.0), Target(6.0, 0.0)),
        snr_grid_db=(30.0,),
        algorithms=("nf_localize",),
    )
    return {
        "fig3_small_sep": far("fig3_small_sep", 0.4),
        "fig3_large_sep": far("fig3_large_sep", 10.0),
        "fig4_near_a": near_a,
        "fig4_near_b": near_b,
    }


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
        wavelength = SPEED_OF_LIGHT / _as_float("array.carrier_freq_hz", freq_ln, freq_v)
    else:
        wavelength = _as_float("array.wavelength_m", wl_ln, wl_v)

    def length_key(base: str, default: float | None) -> float | None:
        si_ln, si_v = _pop(table, f"{base}_m")
        wl_ln2, wl_v2 = _pop(table, f"{base}_wavelengths")
        if si_v is not None and wl_v2 is not None:
            raise ScenarioError(f"give only one of {base}_m and {base}_wavelengths")
        if si_v is not None:
            return _as_float(f"{base}_m", si_ln, si_v)
        if wl_v2 is not None:
            return _as_float(f"{base}_wavelengths", wl_ln2, wl_v2) * wavelength
        return default

    gap = length_key("array.gap", None)
    if gap is None:
        raise ScenarioError("missing key array.gap_m (or array.gap_wavelengths)")
    spacing = length_key("array.spacing", None)

    try:
        array = ArrayConfig(
            elements_per_ula=elements, gap=gap, wavelength=wavelength, spacing=spacing
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    targets = []
    index = 1
    while True:
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
        index += 1
    if not targets:
        raise ScenarioError("scenario needs target.1.range_m and target.1.angle_deg")

    kwargs: dict = {}

    ln, v = _pop(table, "name")
    kwargs["name"] = v if v is not None else "scenario"

    ln, v = _pop(table, "snr_grid_db")
    if v is None:
        raise ScenarioError("missing key snr_grid_db")
    try:
        kwargs["snr_grid_db"] = tuple(float(p.strip()) for p in v.split(",") if p.strip())
    except ValueError as exc:
        raise ScenarioError(f"line {ln}: bad snr_grid_db {v!r}") from exc

    ln, v = _pop(table, "n_trials")
    if v is not None:
        kwargs["n_trials"] = _as_int("n_trials", ln, v)
    ln, v = _pop(table, "algorithms")
    if v is not None:
        kwargs["algorithms"] = tuple(p.strip() for p in v.split(",") if p.strip())
    ln, v = _pop(table, "fusion_mode")
    if v is not None:
        kwargs["fusion_mode"] = v
    ln, v = _pop(table, "grid_step_deg")
    if v is not None:
        kwargs["grid_step_deg"] = _as_float("grid_step_deg", ln, v)
    ln, v = _pop(table, "pencil")
    if v is not None:
        kwargs["pencil"] = _as_int("pencil", ln, v)
    ln, v = _pop(table, "hit_tolerance_deg")
    if v is not None:
        kwargs["hit_tolerance_deg"] = _as_float("hit_tolerance_deg", ln, v)
    ln, v = _pop(table, "hit_tolerance_m")
    if v is not None:
        kwargs["hit_tolerance_m"] = _as_float("hit_tolerance_m", ln, v)
    ln, v = _pop(table, "base_seed")
    if v is not None:
        kwargs["base_seed"] = _as_int("base_seed", ln, v)
    ln, v = _pop(table, "steering_model")
    if v is not None and v != "auto":
        try:
            kwargs["steering_model"] = SteeringModel(v)
        except ValueError as exc:
            raise ScenarioError(f"line {ln}: unknown steering_model {v!r}") from exc

    if table:
        key, (lineno, _) = next(iter(table.items()))
        raise ScenarioError(f"line {lineno}: unknown key {key!r}")

    try:
        return ScenarioSpec(array=array, targets=tuple(targets), **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


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
    """Copy a spec with CLI-style overrides applied."""
    kwargs = {}
    if n_trials is not None:
        kwargs["n_trials"] = n_trials
    if snr_grid_db is not None:
        kwargs["snr_grid_db"] = snr_grid_db
    if algorithms is not None:
        kwargs["algorithms"] = algorithms
    if base_seed is not None:
        kwargs["base_seed"] = base_seed
    return replace(spec, **kwargs) if kwargs else spec
