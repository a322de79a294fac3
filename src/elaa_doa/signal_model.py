"""Steering vectors, single-snapshot observations and array factors.

Three wavefront models are available, from most exact to most idealized:

* ``EXACT``: per-element Euclidean propagation phase.
* ``NF_LOCAL_PLANAR``: spherical reference phase per sub-array, planar
  wavefront with a sub-array-local DOA inside each sub-array.
* ``FAR_FIELD``: a single plane wave across the whole aperture, common
  range phase dropped.

``snapshot`` auto-selects the model per target from the range thresholds
in :func:`elaa_doa.geometry.field_regions`; every generator is also
directly callable so tests can mix models deliberately.

The locally planar model comes from one atom builder, in one layout,
:func:`sub_array_atoms`, and the near-field localizer fits those atoms:
a noiseless ``NF_LOCAL_PLANAR`` snapshot is its atom at the target.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    ArrayConfig,
    Target,
    element_positions,
    field_regions,
    reference_positions,
)


class SteeringModel(enum.Enum):
    EXACT = "exact"
    FAR_FIELD = "farfield"
    NF_LOCAL_PLANAR = "nf_local_planar"


@dataclass(frozen=True)
class Snapshot:
    """A single array observation ``y`` plus its generation provenance."""

    y: np.ndarray
    snr_db: float
    seed: int
    truth: tuple[Target, ...]
    amplitudes: np.ndarray


def split_ulas(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split stacked observations into the two per-sub-array halves, along the last axis."""
    m = y.shape[-1] // 2
    return y[..., :m], y[..., m:]


def steering_exact(cfg: ArrayConfig, target: Target) -> np.ndarray:
    """Exact spherical-wave steering vector, ``exp(-j*2*pi*dist/lambda)``."""
    pos = element_positions(cfg)
    p = target.position
    dist = np.hypot(p[0] - pos, p[1])
    if np.any(dist < 1e-12):
        raise ValueError("target coincides with an array element")
    k = 2.0 * math.pi / cfg.wavelength
    return np.exp(-1j * k * dist)


def steering_farfield(cfg: ArrayConfig, angle: float) -> np.ndarray:
    """Plane-wave steering vector ``exp(+j*2*pi*x*sin(angle)/lambda)``.

    The common range phase is omitted; only the per-element progressive
    phase along the aperture is kept.
    """
    pos = element_positions(cfg)
    k = 2.0 * math.pi / cfg.wavelength
    return np.exp(1j * k * pos * math.sin(angle))


class NearfieldLayout(NamedTuple):
    """An array's constants for the near-field atom builder, resolved once per array."""

    k: float  # wavenumber
    kd: float  # phase step per element of a unit direction sine, k*d
    m: int  # elements per sub-array
    ramp: np.ndarray  # one sub-array's ramp rates k*d*m, read-only
    refs: tuple[float, float]  # the reference elements' x


@functools.lru_cache(maxsize=8)
def nearfield_layout(cfg: ArrayConfig) -> NearfieldLayout:
    """The array's :class:`NearfieldLayout`, built once per array and shared."""
    k = 2.0 * math.pi / cfg.wavelength
    kd = k * cfg.spacing
    ramp = kd * np.arange(cfg.elements_per_ula)
    ramp.setflags(write=False)
    x1, x2 = (float(v) for v in reference_positions(cfg))
    return NearfieldLayout(k, kd, cfg.elements_per_ula, ramp, (x1, x2))


def sub_array_atoms(layout: NearfieldLayout, sins, rhos) -> np.ndarray:
    """Locally planar atoms from each sub-array's direction sine and range.

    Element ``m`` of sub-array ``n`` is ``exp(-j*k*rho_n) * z_n**m`` with
    ``z_n = exp(j*k*d*sin_n)``: the exact propagation phase to the
    reference element times a linear ramp.  The powers are a running
    product, so each sub-array costs two exponentials.  ``sins`` and
    ``rhos`` hold the two sub-arrays along their first axis, and the
    sub-array blocks come back stacked along the first axis of the
    result, one atom per trailing index.
    """
    sins = np.asarray(sins, dtype=float)
    # the exponentials of a whole grid run on one contiguous array,
    # not on a strided view of the blocks
    heads = np.zeros((2,) + sins.shape, dtype=complex)
    np.multiply(rhos, -layout.k, out=heads.imag[0])
    np.multiply(sins, layout.kd, out=heads.imag[1])
    np.exp(heads, out=heads)
    blocks = np.empty((2, layout.m) + sins.shape[1:], dtype=complex)
    blocks[:, 0] = heads[0]
    blocks[:, 1:] = heads[1][:, None]
    np.multiply.accumulate(blocks, axis=1, out=blocks)
    return blocks.reshape((2 * layout.m,) + sins.shape[1:])


def nearfield_atoms(cfg: ArrayConfig, xs, ys) -> np.ndarray:
    """Locally planar atoms for many positions ``(x, y)`` at once, one per column."""
    dx = np.asarray(xs, dtype=float).reshape(1, -1) - reference_positions(cfg)[:, None]
    rho = np.hypot(dx, np.asarray(ys, dtype=float).reshape(1, -1))
    return sub_array_atoms(nearfield_layout(cfg), dx / rho, rho)


def select_model(cfg: ArrayConfig, target_range: float) -> SteeringModel:
    """Most idealized wavefront model that is valid at the given range."""
    reg = field_regions(cfg)
    if target_range >= reg.fraunhofer:
        return SteeringModel.FAR_FIELD
    if target_range >= reg.local_farfield:
        return SteeringModel.NF_LOCAL_PLANAR
    return SteeringModel.EXACT


def steering(
    cfg: ArrayConfig, target: Target, model: SteeringModel | None = None
) -> np.ndarray:
    """Steering vector under an explicit or range-auto-selected model."""
    if model is None:
        model = select_model(cfg, target.range)
    if model is SteeringModel.EXACT:
        return steering_exact(cfg, target)
    if model is SteeringModel.FAR_FIELD:
        return steering_farfield(cfg, target.angle)
    if model is SteeringModel.NF_LOCAL_PLANAR:
        x, y = target.position
        return nearfield_atoms(cfg, x, y)[:, 0]
    raise ValueError(f"unknown steering model {model!r}")


@functools.lru_cache(maxsize=32)
def _steering_entries(
    cfg: ArrayConfig, target: Target, model: SteeringModel | None
) -> np.ndarray:
    """A target's steering entries, built once per (array, target, model), read-only.

    A Monte Carlo cell draws every trial from the same targets, so their
    steering is shared rather than rebuilt per snapshot.
    """
    entries = steering(cfg, target, model=model)
    entries.setflags(write=False)
    return entries


def noise_variance(snr_db: float) -> float:
    """Per-element noise variance ``10**(-snr_db/10)`` of a unit-magnitude source.

    Raises OverflowError for SNR points below about -3083 dB.
    """
    return 10.0 ** (-snr_db / 10.0)


def snapshot(
    cfg: ArrayConfig,
    targets: tuple[Target, ...] | list[Target],
    snr_db: float,
    seed: int,
    model: SteeringModel | None = None,
) -> Snapshot:
    """Generate one observation ``y = sum_k s_k a_k + n``.

    Each source amplitude ``s_k`` has unit magnitude and an independent
    uniform phase, drawn from ``seed`` first.  The noise is circularly
    symmetric complex Gaussian with per-element variance
    ``10**(-snr_db/10)``, so ``snr_db`` is the per-element SNR of each
    source.  ``snr_db = math.inf`` disables the noise exactly; a noiseless
    zero-phase observation is the sum of the targets' :func:`steering`.
    Identical arguments give bitwise-identical output.  Each target's
    steering entries are built once per (array, target, model) and reused
    by later calls.
    """
    targets = tuple(targets)
    rng = np.random.default_rng(seed)
    n = cfg.n_elements
    amps = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(targets)))
    y = np.zeros(n, dtype=complex)
    for t, s in zip(targets, amps):
        y = y + s * _steering_entries(cfg, t, model)
    sigma2 = noise_variance(snr_db)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(sigma2 / 2.0)
    return Snapshot(y=y + noise, snr_db=snr_db, seed=seed, truth=targets, amplitudes=amps)


def array_factor(cfg: ArrayConfig, grid: np.ndarray, aperture: str = "elaa") -> np.ndarray:
    """Normalized magnitude array factor in dB over a broadside-angle grid.

    ``aperture="elaa"`` uses all elements, ``"ula"`` a single sub-array
    (the magnitude is identical for either sub-array).  Peak value is
    0 dB at broadside.
    """
    pos = element_positions(cfg)
    if aperture == "ula":
        pos = pos[: cfg.elements_per_ula]
    elif aperture != "elaa":
        raise ValueError("aperture must be 'elaa' or 'ula'")
    k = 2.0 * math.pi / cfg.wavelength
    u = np.sin(np.asarray(grid, dtype=float))
    af = np.abs(np.exp(1j * k * np.outer(pos, u)).sum(axis=0)) / len(pos)
    return 20.0 * np.log10(np.maximum(af, 1e-300))
