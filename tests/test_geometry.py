"""Geometry oracles.

The frozen numbers below were computed by hand from the layout
definition (two M-element half-wavelength ULAs with an edge-to-edge gap,
antisymmetric about the origin) before the module was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elaa_doa.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Target,
    element_positions,
    field_regions,
    local_geometry,
    reference_positions,
)

LAM_76GHZ = 0.003944637605263158


def test_wavelength_from_carrier(paper_cfg):
    assert paper_cfg.wavelength == pytest.approx(LAM_76GHZ, rel=0, abs=1e-18)
    assert paper_cfg.spacing == pytest.approx(LAM_76GHZ / 2.0)


def test_paper_array_geometry_bits(paper_cfg):
    # the builtins' array, bit for bit: every length is a multiple of the
    # 76 GHz wavelength, whose float is SPEED_OF_LIGHT / 76e9
    assert paper_cfg.wavelength == SPEED_OF_LIGHT / 76e9
    assert paper_cfg.gap == 150.0 * paper_cfg.wavelength
    assert paper_cfg.spacing == paper_cfg.wavelength / 2


def test_aperture_chain(paper_cfg):
    lam = paper_cfg.wavelength
    assert paper_cfg.sub_aperture == pytest.approx(7.5 * lam)
    assert paper_cfg.center_separation == pytest.approx(157.5 * lam)
    assert paper_cfg.total_aperture == pytest.approx(165.0 * lam)
    assert paper_cfg.n_elements == 32


def test_reference_positions_frozen(paper_cfg):
    # x10 = -(sub aperture + gap/2) = -82.5 lam, x20 = gap/2 = 75 lam
    refs = reference_positions(paper_cfg)
    assert refs[0] == pytest.approx(-0.32543260243421057, abs=1e-15)
    assert refs[1] == pytest.approx(0.29584782039473684, abs=1e-15)


def test_element_positions_hand_case():
    # M=2, d=1, gap=4: left pair at -3,-2 and right pair at 2,3
    cfg = ArrayConfig(elements_per_ula=2, gap=4.0, wavelength=2.0, spacing=1.0)
    assert np.allclose(element_positions(cfg), [-3.0, -2.0, 2.0, 3.0])


def test_element_positions_antisymmetric(paper_cfg):
    pos = element_positions(paper_cfg)
    assert np.allclose(pos, -pos[::-1])


def test_field_regions_frozen(paper_cfg):
    reg = field_regions(paper_cfg)
    # 2*(165 lam)^2/lam and 2*(7.5 lam)^2/lam
    assert reg.fraunhofer == pytest.approx(214.78551760657896, rel=1e-12)
    assert reg.local_farfield == pytest.approx(0.4437717305921053, rel=1e-12)


def test_local_geometry_hand_case():
    # ref at x0=-3, target at r=5 from origin with sin(angle)=0.6:
    # range = sqrt(25 - 2*5*(-3)*0.6 + 9) = sqrt(52)
    cfg = ArrayConfig(elements_per_ula=2, gap=4.0, wavelength=2.0, spacing=1.0)
    lg = local_geometry(cfg, Target(range=5.0, angle=math.asin(0.6)))
    assert lg.ranges[0] == pytest.approx(7.211102550927978, rel=1e-15)
    # local direction cosine (r*u - x0)/range = (3+3)/sqrt(52)
    assert math.sin(lg.angles[0]) == pytest.approx(6.0 / math.sqrt(52.0), rel=1e-15)


@given(
    r=st.floats(1.0, 500.0),
    angle=st.floats(-1.4, 1.4),
)
def test_local_geometry_matches_cartesian(r, angle):
    cfg = ArrayConfig(elements_per_ula=4, gap=0.5, wavelength=LAM_76GHZ)
    lg = local_geometry(cfg, Target(range=r, angle=angle))
    refs = reference_positions(cfg)
    x, y = r * math.sin(angle), r * math.cos(angle)
    for n in range(2):
        assert lg.ranges[n] == pytest.approx(math.hypot(x - refs[n], y), rel=1e-9)
        assert math.sin(lg.angles[n]) == pytest.approx(
            (x - refs[n]) / lg.ranges[n], abs=1e-9
        )


def test_target_validation():
    with pytest.raises(ValueError):
        Target(range=-1.0, angle=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="range must be finite and positive"):
            Target(range=bad, angle=0.0)
    with pytest.raises(ValueError):
        Target(range=1.0, angle=math.pi / 2)
    with pytest.raises(ValueError):
        Target.from_position(0.0, -1.0)


def test_target_position_roundtrip():
    t = Target.from_position(1.5, 4.0)
    assert t.position == pytest.approx([1.5, 4.0])
    assert t.range == pytest.approx(math.hypot(1.5, 4.0))


def test_config_validation():
    with pytest.raises(TypeError):
        ArrayConfig(elements_per_ula=16, gap=1.0)  # no wavelength
    with pytest.raises(ValueError):
        ArrayConfig(elements_per_ula=1, gap=1.0, wavelength=LAM_76GHZ)
    with pytest.raises(ValueError):
        ArrayConfig(elements_per_ula=16, gap=-1.0, wavelength=LAM_76GHZ)
    # half a wavelength (spacing=1.0 here) is the widest without grating lobes
    message = r"^spacing 1\.0000001 m exceeds half the wavelength 2\.0 m"
    with pytest.raises(ValueError, match=message):
        ArrayConfig(elements_per_ula=2, gap=4.0, wavelength=2.0, spacing=1.0000001)
    for kwargs, name in [
        (dict(gap=math.nan, wavelength=LAM_76GHZ), "gap"),
        (dict(gap=math.inf, wavelength=LAM_76GHZ), "gap"),
        (dict(gap=1.0, wavelength=LAM_76GHZ, spacing=math.nan), "spacing"),
        (dict(gap=1.0, wavelength=math.nan), "wavelength"),
        (dict(gap=1.0, wavelength=math.inf), "wavelength"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            ArrayConfig(elements_per_ula=16, **kwargs)


def test_config_takes_no_carrier():
    # an array is given by its wavelength alone
    with pytest.raises(TypeError):
        ArrayConfig(elements_per_ula=16, gap=1.0, carrier_freq=76e9)


@pytest.mark.parametrize(
    "gap, wavelength",
    [(1e308 * LAM_76GHZ, LAM_76GHZ), (1.0, 1e-320), (1e160, 1.0)],
    ids=["wide_gap", "subnormal_wavelength", "far_gap"],
)
def test_config_refuses_an_overflowing_fraunhofer_distance(gap, wavelength):
    # every wavefront model is chosen by 2 * total_aperture**2 / wavelength
    with pytest.raises(ValueError, match=r"^the Fraunhofer distance .* overflows$"):
        ArrayConfig(elements_per_ula=16, gap=gap, wavelength=wavelength)


def test_speed_of_light_si():
    assert SPEED_OF_LIGHT == 299792458.0
