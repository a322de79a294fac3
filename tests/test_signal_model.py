import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elaa_doa.geometry import SPEED_OF_LIGHT, ArrayConfig, Target, field_regions
from elaa_doa.signal_model import (
    SteeringModel,
    _steering_entries,
    array_factor,
    nearfield_atoms,
    select_model,
    snapshot,
    split_ulas,
    steering,
    steering_exact,
    steering_farfield,
)

angles = st.floats(-1.4, 1.4)


def _phases(seed: int, k: int) -> np.ndarray:
    """The unit source amplitudes of a snapshot, redrawn from its seed as snapshot documents."""
    return np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, k))


@given(angle=angles)
def test_steering_unit_modulus_farfield(paper_cfg, angle):
    v = steering_farfield(paper_cfg, angle)
    assert np.allclose(np.abs(v), 1.0)


@given(r=st.floats(0.5, 400.0), angle=angles)
def test_steering_unit_modulus_exact_and_nearfield(paper_cfg, r, angle):
    t = Target(range=r, angle=angle)
    assert np.allclose(np.abs(steering_exact(paper_cfg, t)), 1.0)
    planar = steering(paper_cfg, t, model=SteeringModel.NF_LOCAL_PLANAR)
    assert np.allclose(np.abs(planar), 1.0)


def _planar_phase_error(cfg, r, angle):
    """Worst per-element phase gap between exact and plane-wave steering.

    The common range phase is removed before comparing, since the
    far-field model drops it by construction.
    """
    t = Target(range=r, angle=angle)
    exact = steering_exact(cfg, t) * np.exp(2j * math.pi * r / cfg.wavelength)
    planar = steering_farfield(cfg, angle)
    return float(np.max(np.abs(np.angle(exact * np.conj(planar)))))


def test_fraunhofer_phase_error_criterion(paper_cfg):
    # The classical bound: at the 2 D^2 / lambda distance the quadratic
    # phase error across the aperture is pi/8.  Well beyond it the error
    # must be small, well inside it the bound must be violated.
    r_f = field_regions(paper_cfg).fraunhofer
    assert _planar_phase_error(paper_cfg, 10.0 * r_f, 0.0) < math.pi / 8.0
    assert _planar_phase_error(paper_cfg, 0.2 * r_f, 0.0) > math.pi / 8.0


def test_model_selection_ladder(paper_cfg):
    reg = field_regions(paper_cfg)
    assert select_model(paper_cfg, reg.fraunhofer * 1.01) is SteeringModel.FAR_FIELD
    assert select_model(paper_cfg, 5.0) is SteeringModel.NF_LOCAL_PLANAR
    assert select_model(paper_cfg, reg.local_farfield * 0.5) is SteeringModel.EXACT


def test_locally_planar_up_to_fraunhofer_on_a_narrow_gap():
    # a gap of 10 wavelengths, under two module apertures (15): the global
    # DOA of a target at 1000-1250 wavelengths is close enough to both
    # modules' local ones that a shared-DOA model once took those ranges;
    # auto selection must keep the locally planar model up to Fraunhofer
    lam = SPEED_OF_LIGHT / 76e9
    cfg = ArrayConfig(elements_per_ula=16, gap=10.0 * lam, wavelength=lam)
    reg = field_regions(cfg)
    assert reg.fraunhofer == pytest.approx(1250.0 * lam)
    assert reg.local_farfield == pytest.approx(112.5 * lam)
    for r in np.geomspace(reg.local_farfield, reg.fraunhofer, 41)[:-1]:
        assert select_model(cfg, r) is SteeringModel.NF_LOCAL_PLANAR, r
    assert select_model(cfg, reg.local_farfield * 0.99) is SteeringModel.EXACT
    assert select_model(cfg, reg.fraunhofer) is SteeringModel.FAR_FIELD
    t = Target(range=1100.0 * lam, angle=0.3)
    assert np.array_equal(steering(cfg, t), nearfield_atoms(cfg, *t.position)[:, 0])


def test_steering_dispatch(paper_cfg):
    t = Target(range=100.0, angle=0.1)
    v = steering(paper_cfg, t)
    assert select_model(paper_cfg, t.range) is SteeringModel.NF_LOCAL_PLANAR
    assert np.array_equal(v, nearfield_atoms(paper_cfg, *t.position)[:, 0])
    forced = steering(paper_cfg, t, model=SteeringModel.FAR_FIELD)
    assert np.allclose(forced, steering_farfield(paper_cfg, t.angle))
    far_target = Target(range=250.0, angle=0.1)
    far = steering(paper_cfg, far_target)
    assert select_model(paper_cfg, far_target.range) is SteeringModel.FAR_FIELD
    assert np.array_equal(far, steering_farfield(paper_cfg, far_target.angle))


def test_snapshot_noiseless_is_exact_sum(paper_cfg):
    t = [Target(range=250.0, angle=0.05), Target(range=250.0, angle=-0.02)]
    snap = snapshot(paper_cfg, t, math.inf, seed=3)
    # the noiseless zero-phase data is the steering sum; a snapshot turns each term by its phase
    expected = sum(s * steering(paper_cfg, target) for s, target in zip(_phases(3, 2), t))
    assert np.array_equal(snap, expected)
    assert snap.shape == (paper_cfg.n_elements,) and snap.dtype == complex


def test_snapshot_deterministic(paper_cfg):
    t = [Target(range=250.0, angle=0.05), Target(range=250.0, angle=-0.02)]
    a = snapshot(paper_cfg, t, 10.0, seed=1234)
    b = snapshot(paper_cfg, t, 10.0, seed=1234)
    assert np.array_equal(a, b)
    c = snapshot(paper_cfg, t, 10.0, seed=1235)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("model", [None, *SteeringModel])
def test_snapshot_reuses_read_only_steering(paper_cfg, model):
    t = Target(range=7.0, angle=0.2)
    entries = _steering_entries(paper_cfg, t, model)
    assert _steering_entries(paper_cfg, t, model) is entries
    assert not entries.flags.writeable
    assert np.array_equal(entries, steering(paper_cfg, t, model=model))
    # every later snapshot sums the shared entries, bit for bit a fresh build
    snap = snapshot(paper_cfg, [t], math.inf, seed=2, model=model)
    fresh = _phases(2, 1)[0] * steering(paper_cfg, t, model=model)
    assert np.array_equal(snap, fresh)


def test_snapshot_noise_power_matches_snr(paper_cfg):
    # average over elements and seeds: per-element noise variance 10^(-snr/10)
    t = Target(range=250.0, angle=0.0)
    clean = steering(paper_cfg, t)
    snr_db = 7.0
    total = 0.0
    n_seeds = 200
    for seed in range(n_seeds):
        noisy = snapshot(paper_cfg, [t], snr_db, seed=seed)
        total += float(np.mean(np.abs(noisy - _phases(seed, 1)[0] * clean) ** 2))
    measured = total / n_seeds
    assert measured == pytest.approx(10.0 ** (-snr_db / 10.0), rel=0.05)


def test_snapshot_random_phase_changes_amplitudes(paper_cfg):
    t = [Target(range=250.0, angle=0.05)]
    a = snapshot(paper_cfg, t, math.inf, seed=5)
    b = snapshot(paper_cfg, t, math.inf, seed=6)
    entries = steering(paper_cfg, t[0])
    # a noiseless one-target snapshot is the steering turned by its seed's phase
    phase_a, phase_b = a[0] / entries[0], b[0] / entries[0]
    assert phase_a == pytest.approx(_phases(5, 1)[0])
    assert abs(phase_a) == pytest.approx(1.0)
    assert phase_a != pytest.approx(phase_b)


def test_split_ulas_roundtrip(paper_cfg):
    y = np.arange(32, dtype=complex)
    y1, y2 = split_ulas(y)
    assert len(y1) == len(y2) == 16
    assert np.array_equal(np.concatenate([y1, y2]), y)


def test_array_factor_peak_at_broadside(paper_cfg):
    grid = np.radians(np.linspace(-60.0, 60.0, 2001))
    af = array_factor(paper_cfg, grid)
    mid = np.argmin(np.abs(grid))
    assert af[mid] == pytest.approx(0.0, abs=1e-9)
    assert np.all(af <= 1e-9)
    ula = array_factor(paper_cfg, grid, aperture="ula")

    # contiguous half-power run around broadside; the total count would be
    # wrong for the sparse pattern, whose grating comb re-crosses -3 dB on
    # every crest under the module envelope
    def main_lobe_width(v):
        above = 10.0 ** (v / 20.0) >= 10.0 ** (-3.0 / 20.0)
        lo = hi = mid
        while lo > 0 and above[lo - 1]:
            lo -= 1
        while hi < len(v) - 1 and above[hi + 1]:
            hi += 1
        return hi - lo + 1

    assert main_lobe_width(af) < main_lobe_width(ula) / 10
