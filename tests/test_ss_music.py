import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elaa_doa.errors import UnderResolved
from elaa_doa.geometry import Target, field_regions
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_music import (
    DENOMINATOR_FLOOR,
    MAX_GRID_POINTS,
    PEAK_SEPARATION_DEG,
    Spectrum,
    _peak_distance,
    default_grid,
    estimate_doa_music,
    fuse,
    grid_points,
    hankel_steering_matrix,
    peak_pick,
    pseudospectrum,
    write_spectrum_csv,
)
from elaa_doa.subspace import SubspacePair, hankel, split_subspaces


def _far_snapshot(cfg, angles_deg, snr_db=math.inf, seed=0):
    r = 1.5 * field_regions(cfg).fraunhofer
    targets = [Target(range=r, angle=math.radians(a)) for a in angles_deg]
    return snapshot(cfg, targets, snr_db, seed=seed)


def test_default_grid_shape():
    grid = default_grid(0.5)
    assert len(grid) == 360
    assert grid[0] == pytest.approx(math.radians(-90.0))
    assert grid[-1] == pytest.approx(math.radians(89.5))
    assert len(default_grid(60.0)) == 3
    assert grid_points(0.001) == MAX_GRID_POINTS
    for bad in (0.0, -1.0, math.nan, math.inf, 72.0, 1e9, 0.000999, 1e-300, 1e-310):
        with pytest.raises(ValueError, match="grid step"):
            default_grid(bad)


def test_hankel_steering_matrix_rows():
    grid = np.array([0.0, math.asin(0.5)])
    a = hankel_steering_matrix(3, 0.5, 1.0, grid)
    assert a.shape == (3, 2)
    assert np.allclose(a[:, 0], 1.0)
    # spacing/wavelength = 0.5 and sin = 0.5 give a quarter-turn per row
    assert np.allclose(a[:, 1], np.exp(1j * np.pi * 0.5 * np.arange(3)))


def test_pseudospectrum_null_at_truth(paper_cfg):
    snap = _far_snapshot(paper_cfg, [4.0])
    y1, _ = split_ulas(snap.y)
    sub = split_subspaces(hankel(y1, 8), 1)
    grid = default_grid(0.01)
    a = hankel_steering_matrix(9, paper_cfg.spacing, paper_cfg.wavelength, grid)
    spec = pseudospectrum(sub, grid, a)
    peak = grid[np.argmax(spec.values)]
    assert math.degrees(peak) == pytest.approx(4.0, abs=0.01)


def _projection_reference(sub, a):
    """The direct MUSIC surface ``||a|| / ||U_noise^H a||``, floored."""
    num = np.linalg.norm(a, axis=0)
    den = np.linalg.norm(sub.noise.conj().T @ a, axis=0)
    return num / np.maximum(den, DENOMINATOR_FLOOR * num), den / num


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_pseudospectrum_polynomial_matches_projection(seed, pencil, data):
    n = pencil + 1
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    sub = SubspacePair(signal=basis[:, :k], noise=basis[:, k:], singular_values=np.ones(n))
    grid = default_grid(0.05)
    a = hankel_steering_matrix(n, 0.5, 1.0 + rng.uniform(), grid)
    want, relative_den = _projection_reference(sub, a)
    got = pseudospectrum(sub, grid, a).values
    away = relative_den > 1e-2
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got[away] / want[away] - 1.0)) < 1e-9


@pytest.mark.parametrize("pencil", [2, 5, 8])
def test_pseudospectrum_finite_at_noiseless_null(pencil):
    n = pencil + 1
    grid = default_grid(0.05)
    a = hankel_steering_matrix(n, 0.5, 1.0, grid)
    null = 1234
    basis, _ = np.linalg.qr(np.column_stack([a[:, null], np.eye(n)[:, : n - 1]]))
    sub = SubspacePair(signal=basis[:, :1], noise=basis[:, 1:], singular_values=np.ones(n))
    values = pseudospectrum(sub, grid, a).values
    assert np.all(np.isfinite(values))
    assert int(np.argmax(values)) == null
    assert values[null] > 1e6


def test_pseudospectrum_shape_checks(paper_cfg):
    snap = _far_snapshot(paper_cfg, [4.0])
    y1, _ = split_ulas(snap.y)
    sub = split_subspaces(hankel(y1, 8), 1)
    grid = default_grid(1.0)
    with pytest.raises(ValueError):
        pseudospectrum(sub, grid, np.ones((4, len(grid))))


def test_fuse_modes():
    grid = np.array([0.0, 0.1, 0.2])
    s1 = Spectrum(grid=grid, values=np.array([1.0, 2.0, 3.0]))
    s2 = Spectrum(grid=grid, values=np.array([3.0, 2.0, 1.0]))
    assert np.allclose(fuse(s1, s2).values, [3.0, 4.0, 3.0])
    assert np.allclose(fuse(s1, s2, "max").values, [3.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fuse(s1, s2, "mean")
    other = Spectrum(grid=grid + 1.0, values=s2.values)
    with pytest.raises(ValueError):
        fuse(s1, other)


def test_peak_pick_orders_by_height():
    grid = np.linspace(-1.0, 1.0, 201)
    values = np.ones_like(grid)
    values[50] = 5.0
    values[150] = 9.0
    picks = peak_pick(Spectrum(grid=grid, values=values), 2)
    assert picks[0] == pytest.approx(grid[150], abs=1e-12)
    assert picks[1] == pytest.approx(grid[50], abs=1e-12)


def test_peak_pick_under_resolved():
    grid = np.linspace(-1.0, 1.0, 101)
    values = np.ones_like(grid)
    values[30] = 2.0
    with pytest.raises(UnderResolved):
        peak_pick(Spectrum(grid=grid, values=values), 2)


def test_peak_pick_separation_floor():
    # two maxima one grid step apart collapse to the taller one when the
    # separation floor spans several steps
    grid = np.radians(np.linspace(-1.0, 1.0, 201))
    values = np.ones_like(grid)
    values[100] = 9.0
    values[102] = 8.0
    values[160] = 5.0
    picks = peak_pick(Spectrum(grid=grid, values=values), 2, min_separation_deg=0.1)
    assert picks[0] == pytest.approx(grid[100])
    assert picks[1] == pytest.approx(grid[160])


def _median_step_distance(grid, min_separation_deg):
    step = float(np.median(np.diff(grid)))
    return max(1, int(round(math.radians(min_separation_deg) / step)))


@given(st.floats(min_value=0.005, max_value=1.0))
def test_peak_distance_from_mean_step(step_deg):
    # the mean step rounds to the same sample count as the per-step median
    # unless the separation is an exact half-integer number of steps, where
    # either count is a rounding tie
    ratio = PEAK_SEPARATION_DEG / step_deg
    assume(abs(ratio - math.floor(ratio) - 0.5) > 1e-6)
    grid = default_grid(step_deg)
    assert _peak_distance(grid, PEAK_SEPARATION_DEG) == _median_step_distance(
        grid, PEAK_SEPARATION_DEG
    )
    assert _peak_distance(grid, None) is None


def test_music_noiseless_single(paper_cfg):
    snap = _far_snapshot(paper_cfg, [3.17])
    est = estimate_doa_music(snap, paper_cfg, 1)
    assert math.degrees(est[0]) == pytest.approx(3.17, abs=1e-3)


def test_music_noiseless_two_source_all_variants(paper_cfg):
    snap = _far_snapshot(paper_cfg, [-5.03, 4.96])
    for ula in (None, 1, 2):
        est = np.degrees(np.sort(estimate_doa_music(snap, paper_cfg, 2, ula=ula)))
        assert est == pytest.approx([-5.03, 4.96], abs=1e-3)


def test_music_fused_resolves_below_module_beamwidth(paper_cfg):
    # 0.4 degrees is far below one module's beamwidth; the noiseless
    # fused surface still has exact nulls at both angles
    snap = _far_snapshot(paper_cfg, [-0.2, 0.2])
    est = np.degrees(np.sort(estimate_doa_music(snap, paper_cfg, 2)))
    assert est == pytest.approx([-0.2, 0.2], abs=1e-3)


def test_music_rejects_bad_ula(paper_cfg):
    snap = _far_snapshot(paper_cfg, [2.0])
    with pytest.raises(ValueError):
        estimate_doa_music(snap, paper_cfg, 1, ula=3)


def test_spectrum_csv(tmp_path):
    grid = np.radians(np.array([-1.0, 0.0, 1.0]))
    spec = Spectrum(grid=grid, values=np.array([1.0, 2.0, 1.5]))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "angle_deg,value"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == 2.0


def test_spectrum_rejects_a_non_increasing_grid():
    with pytest.raises(ValueError):
        Spectrum(grid=np.array([0.0, 0.2, 0.2]), values=np.ones(3))
    with pytest.raises(ValueError):
        Spectrum(grid=np.array([0.0, 0.2, 0.1]), values=np.ones(3))
