"""Geometry of a sparse aperture built from two widely separated ULAs.

The array lives on the x axis.  Two identical uniform linear arrays of
``elements_per_ula`` elements each, with intra-array spacing ``spacing``,
sit symmetrically about the origin with an edge-to-edge gap of ``gap``
between them.  Angles are referenced to broadside (the y axis): a target
at broadside angle ``theta`` and range ``r`` sits at Cartesian
``(r * sin(theta), r * cos(theta))``, so the direction cosine along the
array axis is ``sin(theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Two equal ULAs on the x axis separated by a wide gap.

    Parameters
    ----------
    elements_per_ula : int
        Number of elements in each of the two sub-arrays (at least 2).
    gap : float
        Edge-to-edge separation between the sub-arrays, meters.
    carrier_freq : float, optional
        Carrier frequency in Hz.  Exactly one of ``carrier_freq`` and
        ``wavelength`` must be given; the other is derived.
    wavelength : float, optional
        Carrier wavelength in meters.
    spacing : float, optional
        Intra-ULA element spacing in meters, at most half a wavelength.
        Defaults to half a wavelength.
    """

    elements_per_ula: int
    gap: float
    carrier_freq: float | None = None
    wavelength: float | None = None
    spacing: float | None = None

    def __post_init__(self) -> None:
        if (self.carrier_freq is None) == (self.wavelength is None):
            raise ValueError("give exactly one of carrier_freq and wavelength")
        if self.carrier_freq is not None:
            _require_finite_positive("carrier_freq", self.carrier_freq)
            object.__setattr__(self, "wavelength", SPEED_OF_LIGHT / self.carrier_freq)
        else:
            _require_finite_positive("wavelength", self.wavelength)
            object.__setattr__(self, "carrier_freq", SPEED_OF_LIGHT / self.wavelength)
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        if self.elements_per_ula < 2:
            raise ValueError("need at least 2 elements per ULA")
        # the derived carrier or wavelength overflows for subnormal inputs
        for name in ("carrier_freq", "wavelength", "spacing", "gap"):
            _require_finite_positive(name, getattr(self, name))
        # wider spacings put a grating lobe of some direction inside the
        # visible region, and one snapshot cannot tell the two apart
        if self.spacing > self.wavelength / 2.0:
            raise ValueError(
                f"spacing {self.spacing!r} m exceeds half the wavelength "
                f"{self.wavelength!r} m; wider modules have grating lobes"
            )

    @property
    def n_elements(self) -> int:
        """Total element count across both sub-arrays."""
        return 2 * self.elements_per_ula

    @property
    def sub_aperture(self) -> float:
        """Aperture of one sub-array, ``(elements_per_ula - 1) * spacing``."""
        return (self.elements_per_ula - 1) * self.spacing

    @property
    def total_aperture(self) -> float:
        """End-to-end aperture of the whole sparse array."""
        return self.gap + 2.0 * self.sub_aperture

    @property
    def center_separation(self) -> float:
        """Distance between the two sub-array centers (also between the
        corresponding elements of the two sub-arrays)."""
        return self.gap + self.sub_aperture


@dataclass(frozen=True)
class Target:
    """A point source in the array plane.

    ``range`` is the distance from the array center in meters, ``angle``
    the broadside-referenced DOA in radians, restricted to the open
    interval (-pi/2, pi/2) so the target lies in front of the array.
    Every source has unit magnitude; a snapshot draws its phase
    (:func:`elaa_doa.signal_model.snapshot`).
    """

    range: float
    angle: float

    def __post_init__(self) -> None:
        _require_finite_positive("range", self.range)
        if not -math.pi / 2 < self.angle < math.pi / 2:
            raise ValueError("angle must lie in (-pi/2, pi/2)")

    @property
    def position(self) -> np.ndarray:
        """Cartesian position ``(x, y)`` in meters."""
        return np.array(
            [self.range * math.sin(self.angle), self.range * math.cos(self.angle)]
        )

    @classmethod
    def from_position(cls, x: float, y: float) -> "Target":
        if y <= 0:
            raise ValueError("target must lie in the y > 0 half plane")
        return cls(range=math.hypot(x, y), angle=math.atan2(x, y))


@dataclass(frozen=True)
class FieldRegions:
    """Range thresholds separating the wavefront-model regimes (meters).

    Below ``local_farfield`` the exact model holds, from there to
    ``fraunhofer`` the locally planar one, and beyond it the far field.
    """

    fraunhofer: float
    local_farfield: float


@dataclass(frozen=True)
class LocalGeometry:
    """Per-sub-array view of a target.

    ``ranges[n]`` is the distance from sub-array ``n``'s reference (first)
    element to the target; ``angles[n]`` the broadside DOA seen from that
    reference element, radians.
    """

    ranges: np.ndarray
    angles: np.ndarray


def element_positions(cfg: ArrayConfig) -> np.ndarray:
    """x coordinates of all ``2 * elements_per_ula`` elements, meters.

    Ordered first sub-array then second, each left to right.  The layout is
    antisymmetric about the origin.
    """
    m = np.arange(cfg.elements_per_ula)
    local = (m - (cfg.elements_per_ula - 1) / 2.0) * cfg.spacing
    shift = cfg.center_separation / 2.0
    return np.concatenate([local - shift, local + shift])


def reference_positions(cfg: ArrayConfig) -> np.ndarray:
    """x coordinates of the two reference (first) elements.

    Note the asymmetry: the first element of the left sub-array is its outer
    edge, the first element of the right sub-array its inner edge.
    """
    x10 = -cfg.sub_aperture - cfg.gap / 2.0
    x20 = cfg.gap / 2.0
    return np.array([x10, x20])


def field_regions(cfg: ArrayConfig) -> FieldRegions:
    """Range thresholds for the wavefront models.

    * ``fraunhofer``: ``2 * total_aperture**2 / wavelength``; beyond it a
      single plane wave describes the whole array.
    * ``local_farfield``: ``2 * sub_aperture**2 / wavelength``; beyond it
      each sub-array individually sees a locally planar wavefront.
    """
    lam = cfg.wavelength
    d_a = cfg.total_aperture
    return FieldRegions(
        fraunhofer=2.0 * d_a * d_a / lam, local_farfield=2.0 * cfg.sub_aperture**2 / lam
    )


def local_geometry(cfg: ArrayConfig, target: Target) -> LocalGeometry:
    """Reference-element ranges and local DOAs for a target.

    Pure trigonometry: with the reference element at ``x0`` and the target
    at direction cosine ``u = sin(angle)`` and range ``r`` from the origin,
    the reference range is ``sqrt(r**2 - 2*r*x0*u + x0**2)`` and the local
    direction cosine ``(r*u - x0) / range``.
    """
    refs = reference_positions(cfg)
    r = target.range
    u = math.sin(target.angle)
    ranges = np.sqrt(r * r - 2.0 * r * refs * u + refs * refs)
    if np.any(ranges < 1e-12):
        raise ValueError("target coincides with a reference element")
    local_u = np.clip((r * u - refs) / ranges, -1.0, 1.0)
    return LocalGeometry(ranges=ranges, angles=np.arcsin(local_u))
