import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elaa_doa import nf_localizer, ss_music
from elaa_doa.errors import UnderResolved
from elaa_doa.geometry import Target, field_regions
from elaa_doa.harness import derive_trial_seed
from elaa_doa.scenarios import builtin_scenarios
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_music import (
    DENOMINATOR_FLOOR,
    MAX_GRID_POINTS,
    PEAK_SEPARATION_DEG,
    Spectrum,
    _cached_steering,
    _peak_distance,
    _peaks,
    _refine_peak,
    default_grid,
    estimate_doa_music,
    fused_spectrum,
    grid_points,
    hankel_steering_matrix,
    module_subspace,
    peak_pick,
    pick_doas,
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


def test_fused_spectrum_is_the_product_of_the_module_spectra():
    spec = builtin_scenarios()["fig3_small_sep"]
    k = len(spec.targets)
    snap = snapshot(spec.array, spec.targets, 20.0, seed=1)
    modules = [module_subspace(y, spec.array, k, 0.01, None) for y in split_ulas(snap.y)]
    scan = modules[0][1]
    v1, v2 = (pseudospectrum(sub, scan.grid, scan.steering).values for sub, _ in modules)
    got = fused_spectrum(snap.y, spec.array, k, 0.01, None)
    np.testing.assert_array_equal(got.grid, scan.grid)
    np.testing.assert_array_equal(got.values, v1 * v2)


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


# runs of repeated levels: plateaus, plateaus at either end, and single samples
_RUNS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 3).map(float), st.floats(allow_nan=True)),
        st.integers(1, 4),
    ),
    max_size=24,
)


@given(_RUNS)
@settings(max_examples=400)
def test_peaks_match_scipy_find_peaks(runs):
    import scipy.signal

    values = np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(float)
    np.testing.assert_array_equal(_peaks(values), scipy.signal.find_peaks(values)[0])


def _median_step_distance(grid, min_separation_deg):
    step = float(np.median(np.diff(grid)))
    return max(1, int(round(math.radians(min_separation_deg) / step)))


@pytest.mark.parametrize("h", [0.01, 0.05, 1e-4])
def test_refine_peak_clamps_like_np_clip(h):
    # the null surface 1/values**2 is the parabola (x - vertex)**2 + 1, so
    # the three-point vertex is exact; beyond +-h the step is clamped
    center = 0.3
    grid = center + h * np.arange(-1.0, 2.0)
    for offset in (0.0, 0.3, -0.7, 0.999, 1.0, -1.0, 1.5, -2.5, 40.0, -40.0):
        vertex = center + offset * h
        values = 1.0 / np.sqrt((grid - vertex) ** 2 + 1.0)
        q = 1.0 / values**2
        half = (grid[2] - grid[0]) / 2.0
        delta = 0.5 * half * (q[0] - q[2]) / (q[0] - 2.0 * q[1] + q[2])
        expected = float(grid[1] + float(np.clip(delta, -half, half)))
        got = _refine_peak(grid, values, 1)
        assert got == expected, offset
        assert got == pytest.approx(center + max(-h, min(offset * h, h)), rel=0, abs=1e-9)


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


def test_peak_pick_windows_need_both_neighbours():
    # samples 10-14 and 20-24 of a uniform grid: 14 and 20 stand at a gap
    # and 12 is the only maximum with both neighbours present
    index = np.array([10, 11, 12, 13, 14, 20, 21, 22, 23, 24])
    grid = np.radians(0.01 * index)
    values = np.array([1.0, 2.0, 3.0, 2.0, 9.0, 9.0, 1.0, 0.5, 0.4, 0.3])
    spectrum = Spectrum(grid=grid, values=values)
    assert peak_pick(spectrum, 1, index=index) == pytest.approx(grid[2])
    with pytest.raises(UnderResolved, match="found 1 peaks"):
        peak_pick(spectrum, 2, index=index)


def test_peak_pick_windows_count_separation_on_the_whole_grid():
    # maxima at samples 100 and 119 of a 0.01 degree grid are 19 steps
    # apart, inside the 20-step separation floor, though only 6 samples
    # lie between them in the windowed spectrum
    index = np.concatenate([np.arange(97, 104), np.arange(116, 123)])
    grid = np.radians(0.01 * index)
    values = np.ones(len(index))
    values[3], values[10] = 5.0, 4.0
    spectrum = Spectrum(grid=grid, values=values)
    with pytest.raises(UnderResolved):
        peak_pick(spectrum, 2, index=index)
    assert peak_pick(spectrum, 2, min_separation_deg=0.19, index=index) == pytest.approx(
        grid[[3, 10]]
    )


@pytest.mark.parametrize("step_deg, stride", [(0.01, 5), (0.007, 7), (0.05, 1), (0.5, 1)])
def test_coarse_subgrid_stride(step_deg, stride):
    scan = _cached_steering(9, 0.5, 1.0, step_deg)
    assert scan.stride == stride
    assert np.array_equal(scan.coarse_grid, scan.grid[::stride])
    assert np.array_equal(scan.coarse_steering, scan.steering[:, ::stride])
    assert scan.coarse_steering.flags.c_contiguous
    for array in scan[:2] + scan[3:]:
        assert not array.flags.writeable


def _full_grid_pick(subs, scan, num_peaks):
    """The pick over the whole grid, the reference the windowed pick must equal."""
    values = [ss_music.pseudospectrum(sub, scan.grid, scan.steering).values for sub in subs]
    return peak_pick(Spectrum(grid=scan.grid, values=np.prod(values, axis=0)), num_peaks)


def _outcome(pick, *args):
    try:
        return pick(*args)
    except UnderResolved:
        return None


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["fig3_small_sep", "fig3_large_sep", "fig4_near_a", "fig4_near_b"]),
    st.one_of(st.floats(min_value=0.0, max_value=40.0), st.just(math.inf)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(0, 1), (0,), (1,)]),
    st.sampled_from([0.01, 0.007, 0.05]),
)
def test_windowed_pick_matches_the_full_grid(name, snr_db, seed, modules, step_deg):
    spec = builtin_scenarios()[name]
    k = len(spec.targets)
    snap = snapshot(spec.array, spec.targets, snr_db, seed, model=spec.steering_model)
    halves = split_ulas(snap.y)
    split = [module_subspace(halves[m], spec.array, k, step_deg, spec.pencil) for m in modules]
    subs, scan = [sub for sub, _ in split], split[0][1]
    want = _outcome(_full_grid_pick, subs, scan, k)
    got = _outcome(pick_doas, subs, scan, k)
    assert (got is None) == (want is None)
    if want is not None:
        if math.isinf(snr_db):
            # noiseless nulls reach rounding level, where the window products
            # and the full product may rank two equal peaks either way
            got, want = np.sort(got), np.sort(want)
        assert np.max(np.abs(got - want)) < 1e-9


def test_a_module_window_finds_a_fused_peak_no_fused_coarse_maximum_is_near():
    # trial 346 of fig3_small_sep's 15 dB point at base seed 42: the fused
    # surface has a shallow maximum at 0.123 degrees on the flank of the
    # peak at -0.096; the fused coarse samples fall across it, and only the
    # window around module 2's own coarse maximum at 0.2 degrees covers it
    spec = builtin_scenarios()["fig3_small_sep"]
    seed = derive_trial_seed(42, "ss_music_elaa", 3, 346)
    snap = snapshot(spec.array, spec.targets, spec.snr_grid_db[3], seed)
    split = [module_subspace(y, spec.array, 2, 0.01, None) for y in split_ulas(snap.y)]
    subs, scan = [sub for sub, _ in split], split[0][1]
    picks = pick_doas(subs, scan, 2)
    assert np.degrees(picks) == pytest.approx([-0.096, 0.123], abs=1e-3)
    assert np.max(np.abs(picks - _full_grid_pick(subs, scan, 2))) < 1e-9
    m1, m2 = (pseudospectrum(sub, scan.coarse_grid, scan.coarse_steering).values for sub in subs)
    at = np.flatnonzero(np.isclose(np.degrees(scan.coarse_grid), 0.05))[0]
    assert np.all(np.diff((m1 * m2)[at : at + 3]) < 0)  # 0.05, 0.10, 0.15 degrees
    assert m2[at + 3] > max(m2[at + 2], m2[at + 4])  # module 2 peaks at 0.2 degrees


def _fake_surface(monkeypatch, scan, surface):
    """Make every evaluation read ``surface`` at the grid angles asked for; count them."""
    evaluated = []

    def fake_pseudospectrum(sub, grid, steering):
        evaluated.append(len(grid))
        return Spectrum(grid=grid, values=surface[np.searchsorted(scan.grid, grid)])

    monkeypatch.setattr(ss_music, "pseudospectrum", fake_pseudospectrum)
    return evaluated


def test_window_peaking_on_its_edge_widens_to_the_next_coarse_maximum(monkeypatch):
    # one surface on the 0.01 degree grid (coarse stride 5, windows of 10
    # samples either side): a small peak at sample 9000, then a ramp from
    # 9010 up to a summit at 9100, with a bump at 9052 that no coarse
    # sample sees.  The window around 9000 tops out on its edge, and only
    # widening it along the ramp finds the bump, the second-tallest maximum
    scan = _cached_steering(9, 0.5, 1.0, 0.01)
    surface = 1.0 + 1e-6 * np.arange(len(scan.grid))
    surface[8996:9005] = 2.0 - 0.1 * np.abs(np.arange(-4, 5))
    surface[9010:9101] = np.linspace(2.5, 5.0, 91)
    surface[9101:9200] = np.linspace(4.9, 1.1, 99)
    surface[9052] += 0.05
    evaluated = _fake_surface(monkeypatch, scan, surface)
    picks = pick_doas([None], scan, 2)
    assert picks == pytest.approx(scan.grid[[9100, 9052]], abs=math.radians(0.005))
    # the ramp is filled once; the summit, a coarse maximum, widens nothing
    assert len(evaluated) == 3 and sum(evaluated) < 3600 + 300
    assert np.array_equal(picks, _full_grid_pick([None], scan, 2))


def test_flat_topped_peak_and_a_peak_in_the_partial_last_cell(monkeypatch):
    # at 0.007 degrees the grid has 25 714 points and the stride is 7, so
    # the last coarse sample is 25 711 and the cell after it holds only
    # three samples; a peak at 25 712 is seen only by counting the last
    # coarse sample as a maximum.  The flat top spans two coarse samples.
    scan = _cached_steering(9, 0.5, 1.0, 0.007)
    assert (len(scan.grid), scan.stride) == (25_714, 7)
    surface = 1.0 - 1e-6 * np.arange(len(scan.grid))
    surface[25_700:25_713] = np.linspace(1.5, 2.7, 13)
    surface[25_712] = 3.0
    surface[5_000:5_040] = 1.0 + 0.05 * np.arange(40)
    surface[5_040:5_055] = 3.5
    surface[5_055:5_080] = np.linspace(3.0, 1.1, 25)
    evaluated = _fake_surface(monkeypatch, scan, surface)
    picks = pick_doas([None], scan, 2)
    assert picks == pytest.approx(scan.grid[[5_047, 25_712]], abs=math.radians(0.004))
    assert sum(evaluated) < len(scan.coarse_grid) + 200
    assert np.array_equal(picks, _full_grid_pick([None], scan, 2))


def _recorder(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def test_every_evaluation_and_pick_goes_through_the_module_globals(monkeypatch):
    spec = builtin_scenarios()["fig3_small_sep"]
    snap = snapshot(spec.array, spec.targets, 20.0, 1)
    evaluated = _recorder(monkeypatch, ss_music, "pseudospectrum")
    picked = _recorder(monkeypatch, ss_music, "peak_pick")
    estimate_doa_music(snap, spec.array, 2)
    # coarse then windows, for each module; one pick on the fused windows
    assert len(evaluated) == 4 and len(picked) == 1
    for sub, grid, steering in evaluated:
        assert steering.shape == (sub.noise.shape[0], len(grid))
    assert len(evaluated[0][1]) == len(evaluated[1][1]) == 3600
    assert len(evaluated[2][1]) == len(evaluated[3][1]) < 500
    assert np.array_equal(picked[0][0].grid, evaluated[2][1])
    evaluated.clear()
    picked.clear()
    nf_localizer.local_doas(snap, spec.array, 2)
    assert len(evaluated) == 4 and len(picked) == 2

    def under_resolved(*args, **kwargs):
        raise UnderResolved("stub")

    monkeypatch.setattr(ss_music, "peak_pick", under_resolved)
    with pytest.raises(UnderResolved, match="stub"):
        estimate_doa_music(snap, spec.array, 2)
    with pytest.raises(UnderResolved, match="stub"):
        nf_localizer.local_doas(snap, spec.array, 2)
