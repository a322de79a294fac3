import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from elaa_doa import nf_localizer, ss_music
from elaa_doa.errors import NonFiniteSnapshot, UnderResolved, unwrap
from elaa_doa.geometry import Target, field_regions
from elaa_doa.harness import derive_trial_seed, render_csv, write_csv
from elaa_doa.scenarios import builtin_scenarios
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_music import (
    BLOCK,
    DENOMINATOR_FLOOR,
    PEAK_SEPARATION_DEG,
    Spectrum,
    _cached_steering,
    _coarse_cells,
    _coarse_nulls,
    _peak_distance,
    _peaks,
    _refine_peak,
    _surface,
    default_grid,
    estimate_doa_music,
    fused_spectrum,
    hankel_steering_matrix,
    module_subspace,
    peak_pick,
    pick_chunk,
    pseudospectrum,
)
from elaa_doa.subspace import SubspacePair, hankel, split_subspaces


def _chunk(*trials):
    """Each trial's module subspaces, stacked as one chunk with axes (trial, module)."""
    fields = dataclasses.fields(SubspacePair)
    return SubspacePair(
        *(np.array([[getattr(s, f.name) for s in subs] for subs in trials]) for f in fields)
    )


def pick_doas(subs, scan, num_peaks):
    """The peaks of one trial's fused surface over the modules ``subs``."""
    return unwrap(pick_chunk(_chunk(subs), scan, num_peaks)[0])


def _far_snapshot(cfg, angles_deg, snr_db=math.inf, seed=0):
    r = 1.5 * field_regions(cfg).fraunhofer
    targets = [Target(range=r, angle=math.radians(a)) for a in angles_deg]
    return snapshot(cfg, targets, snr_db, seed=seed)


def _uniform_grid(step_deg):
    """A uniform angle grid [-90, 90) degrees of ``step_deg``, in radians."""
    return np.deg2rad(-90.0 + step_deg * np.arange(int(round(180.0 / step_deg))))


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 18_000 == 1_125 * BLOCK
    assert grid[0] == math.radians(-90.0)
    assert grid[-1] == pytest.approx(math.radians(89.99))
    np.testing.assert_array_equal(grid, _uniform_grid(0.01))


def test_hankel_steering_matrix_rows():
    grid = np.array([0.0, math.asin(0.5)])
    a = hankel_steering_matrix(3, 0.5, 1.0, grid)
    assert a.shape == (3, 2)
    assert np.allclose(a[:, 0], 1.0)
    # spacing/wavelength = 0.5 and sin = 0.5 give a quarter-turn per row
    assert np.allclose(a[:, 1], np.exp(1j * np.pi * 0.5 * np.arange(3)))


def test_pseudospectrum_null_at_truth(paper_cfg):
    snap = _far_snapshot(paper_cfg, [4.0])
    y1, _ = split_ulas(snap)
    sub = split_subspaces(hankel(y1, 8), 1)
    grid = default_grid()
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
    grid = _uniform_grid(0.05)
    a = hankel_steering_matrix(n, 0.5, 1.0 + rng.uniform(), grid)
    want, relative_den = _projection_reference(sub, a)
    got = pseudospectrum(sub, grid, a).values
    away = relative_den > 1e-2
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got[away] / want[away] - 1.0)) < 1e-9


@pytest.mark.parametrize("pencil", [2, 5, 8])
def test_pseudospectrum_finite_at_noiseless_null(pencil):
    n = pencil + 1
    grid = _uniform_grid(0.05)
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
    y1, _ = split_ulas(snap)
    sub = split_subspaces(hankel(y1, 8), 1)
    grid = _uniform_grid(1.0)
    with pytest.raises(ValueError):
        pseudospectrum(sub, grid, np.ones((4, len(grid))))


def test_fused_spectrum_is_the_product_of_the_module_spectra():
    spec = builtin_scenarios()["fig3_small_sep"]
    k = len(spec.targets)
    snap = snapshot(spec.array, spec.targets, 20.0, seed=1)
    modules = [module_subspace(y, spec.array, k) for y in split_ulas(snap)]
    scan = modules[0][1]
    v1, v2 = (pseudospectrum(sub, scan.grid, scan.steering).values for sub, _ in modules)
    got = fused_spectrum(snap, spec.array, k)
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
    # on a 0.01 degree grid the 0.2 degree floor spans 20 steps: a maximum
    # 19 steps from a taller one collapses into it, one 20 steps away does not
    grid = np.radians(np.linspace(-1.0, 1.0, 201))
    values = np.ones_like(grid)
    values[100] = 9.0
    values[119] = 8.0
    values[160] = 5.0
    picks = peak_pick(Spectrum(grid=grid, values=values), 2)
    assert picks[0] == pytest.approx(grid[100])
    assert picks[1] == pytest.approx(grid[160])
    values[119], values[120] = 1.0, 8.0
    picks = peak_pick(Spectrum(grid=grid, values=values), 2)
    assert picks == pytest.approx(grid[[100, 120]])


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
    grid = _uniform_grid(step_deg)
    assert _peak_distance(grid) == _median_step_distance(
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
    write_csv(path, render_csv([("angle_deg", "value"), *zip(np.rad2deg(spec.grid), spec.values)]))
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
    # a floor leaves out the maxima below it: on a whole 0.1 degree grid the
    # plateau 4-5 is a maximum (at 4) and 2 a lower one, two steps apart, the
    # separation floor; the default floor of 0 keeps both
    whole = Spectrum(grid=np.radians(0.1 * np.arange(10)), values=values)
    assert np.array_equal(peak_pick(whole, 2), peak_pick(whole, 2, floor=0.0))
    assert np.degrees(peak_pick(whole, 2)) == pytest.approx([0.4, 0.2], abs=0.05)
    assert np.array_equal(peak_pick(whole, 1, floor=9.0), peak_pick(whole, 1))
    assert np.array_equal(peak_pick(whole, 1, floor=3.0), peak_pick(whole, 1))
    with pytest.raises(UnderResolved, match="found 1 peaks"):
        peak_pick(whole, 2, floor=3.5)
    with pytest.raises(UnderResolved, match="found 0 peaks"):
        peak_pick(whole, 1, floor=9.5)
    assert peak_pick(spectrum, 1, index=index, floor=3.0) == pytest.approx(grid[2])
    with pytest.raises(UnderResolved, match="found 0 peaks"):
        peak_pick(spectrum, 1, index=index, floor=3.5)


def test_peak_pick_windows_count_separation_on_the_whole_grid():
    # maxima at samples 100 and 119 of a 0.01 degree grid are 19 steps
    # apart, inside the 20-step separation floor, though only 6 samples
    # lie between them in the windowed spectrum; at 100 and 120 they are
    # 20 steps apart across the same gap, and both are picked
    for second, found in ((119, 1), (120, 2)):
        index = np.concatenate([np.arange(97, 104), np.arange(second - 3, second + 4)])
        grid = np.radians(0.01 * index)
        values = np.ones(len(index))
        values[3], values[10] = 5.0, 4.0
        spectrum = Spectrum(grid=grid, values=values)
        if found == 1:
            with pytest.raises(UnderResolved, match="found 1 peaks"):
                peak_pick(spectrum, 2, index=index)
        else:
            assert peak_pick(spectrum, 2, index=index) == pytest.approx(grid[[3, 10]])


@pytest.mark.parametrize("name", ["fig3_small_sep", "fig4_near_b"])
@pytest.mark.parametrize("snr_db", [0.0, 20.0, math.inf])
def test_coarse_nulls_are_the_nulls_up_to_rounding(name, snr_db):
    # the coarse scan's real product against the complex one of the fine
    # pass and the whole grid: it only chooses cells and the floor sample
    subs, scan = _subspaces(name, snr_db, 3, (0, 1))
    sums = _chunk(subs).projector_sums
    n = sums.shape[-1]
    want = n / _surface(sums, scan.steering[:, :: scan.stride]) ** 2
    got = _coarse_nulls(sums, scan)
    assert got.shape == want.shape == (1, 2, 3600)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert got.min() >= (DENOMINATOR_FLOOR * math.sqrt(n)) ** 2


def test_coarse_subgrid_stride():
    scan = _cached_steering(9, 0.5, 1.0)
    assert scan.stride == 5
    assert np.array_equal(scan.coarse_grid, scan.grid[::5])
    coarse = scan.steering[:, ::5]
    assert np.array_equal(scan.coarse_trig, np.vstack([coarse[:1].real, coarse[1:].real, coarse[1:].imag]))
    assert scan.coarse_trig.flags.c_contiguous and scan.coarse_trig.dtype == float
    # the fine pass reads whole blocks of the steering matrix as a view
    assert scan.steering.flags.c_contiguous
    for array in scan[:2] + scan[3:5]:
        assert not array.flags.writeable
    # spacing / wavelength = 0.5: the top harmonic of nine rows is 8*pi*sin
    assert scan.coarse_step == pytest.approx(math.radians(0.05), rel=1e-9)
    assert scan.harmonic_step == pytest.approx(8 * math.pi * scan.coarse_step, rel=1e-12)


def _subspaces(name, snr_db, seed, modules):
    """The chosen modules' subspaces of one snapshot of a builtin, and their scan."""
    spec = builtin_scenarios()[name]
    snap = snapshot(spec.array, spec.targets, snr_db, seed, model=spec.steering_model)
    halves = split_ulas(snap)
    k = len(spec.targets)
    split = [module_subspace(halves[m], spec.array, k) for m in modules]
    return [sub for sub, _ in split], split[0][1]


def _whole_grid(subs, scan):
    """The surface over the whole grid: one module's, or the modules' product."""
    return np.prod([pseudospectrum(sub, scan.grid, scan.steering).values for sub in subs], axis=0)


def _full_grid_pick(subs, scan, num_peaks):
    """The pick over the whole grid, the reference the windowed pick must equal."""
    return peak_pick(Spectrum(grid=scan.grid, values=_whole_grid(subs, scan)), num_peaks)


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
)
def test_windowed_pick_matches_the_full_grid(name, snr_db, seed, modules):
    subs, scan = _subspaces(name, snr_db, seed, modules)
    k = len(builtin_scenarios()[name].targets)
    want = _outcome(_full_grid_pick, subs, scan, k)
    got = _outcome(pick_doas, subs, scan, k)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


def _music_trial(name, base_seed, snr_index, trial, algorithm="ss_music_elaa"):
    """The module subspaces and scan of one harness trial of a MUSIC algorithm."""
    spec = builtin_scenarios()[name]
    seed = derive_trial_seed(base_seed, algorithm, snr_index, trial)
    modules = {"ss_music_elaa": (0, 1), "ss_music_ula1": (0,), "ss_music_ula2": (1,)}[algorithm]
    return _subspaces(name, spec.snr_grid_db[snr_index], seed, modules)


@pytest.mark.parametrize(
    "name, base_seed, algorithm, snr_index, trial, want_deg",
    [
        ("fig3_small_sep", 7, "ss_music_elaa", 8, 35, [0.025, -2.111]),
        ("fig3_large_sep", 42, "ss_music_elaa", 2, 395, [-5.624, -5.224]),
        ("fig3_small_sep", 7, "ss_music_ula1", 7, 143, [-0.908, 0.340]),
    ],
)
def test_maxima_off_the_coarse_windows_are_picked_as_on_the_full_grid(
    name, base_seed, algorithm, snr_index, trial, want_deg
):
    # harness trials whose whole-grid picks windows around coarse maxima
    # missed (they gave -25.16, 4.846 and 24.07 degrees for the second pick)
    subs, scan = _music_trial(name, base_seed, snr_index, trial, algorithm)
    picks = pick_doas(subs, scan, 2)
    assert np.degrees(picks) == pytest.approx(want_deg, abs=1e-3)
    assert np.array_equal(picks, _full_grid_pick(subs, scan, 2))


def test_trial_346_shallow_maximum_the_fused_coarse_samples_fall_across():
    # trial 346 of fig3_small_sep's 15 dB point at base seed 42: the fused
    # surface has a shallow maximum at 0.123 degrees on the flank of the
    # peak at -0.096, and the fused coarse samples fall across it
    subs, scan = _music_trial("fig3_small_sep", 42, 3, 346)
    picks = pick_doas(subs, scan, 2)
    assert np.degrees(picks) == pytest.approx([-0.096, 0.123], abs=1e-3)
    assert np.array_equal(picks, _full_grid_pick(subs, scan, 2))
    q = _coarse_cells(_chunk(subs), scan)[0][0]
    at = np.flatnonzero(np.isclose(np.degrees(scan.coarse_grid), 0.05))[0]
    assert np.all(np.diff(q[at : at + 3]) > 0)  # 0.05, 0.10, 0.15 degrees


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["fig3_small_sep", "fig3_large_sep", "fig4_near_a", "fig4_near_b"]),
    st.one_of(st.floats(min_value=0.0, max_value=40.0), st.just(math.inf)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(0, 1), (0,), (1,)]),
)
def test_cell_bounds_hold_on_real_surfaces(name, snr_db, seed, modules):
    # every fine sample of a coarse cell is at or above the cell's least
    # value, so a cell whose least value is above a level holds no sample
    # that reaches it; and every whole-grid maximum lies in a cell that can
    # turn (on a coarse sample, in one of the two cells it ends), or in the
    # partial cell past the last coarse sample
    subs, scan = _subspaces(name, snr_db, seed, modules)
    _, turning, least = (rows[0] for rows in _coarse_cells(_chunk(subs), scan))
    values = _whole_grid(subs, scan)
    q = 1.0 / (values * values)
    stride, cells = scan.stride, len(least)
    full = q[: cells * stride].reshape(cells, stride)
    ends = q[stride : (cells + 1) * stride : stride]
    assert np.all(np.minimum(full.min(axis=1), ends) >= least)
    for i in _peaks(values).tolist():
        j, offset = divmod(i, stride)
        assert j >= cells or turning[j] or (offset == 0 and turning[j - 1]), i


def test_a_maximum_in_the_partial_last_cell_is_picked(paper_cfg):
    # the last coarse sample is 17 995, and the cell after it holds the
    # grid's last four samples; the noiseless target at sample 17 998 has
    # its maximum there
    grid = default_grid()
    snap = _far_snapshot(paper_cfg, [math.degrees(grid[17_998]), 0.0])
    split = [module_subspace(y, paper_cfg, 2) for y in split_ulas(snap)]
    subs, scan = [sub for sub, _ in split], split[0][1]
    assert (scan.stride, len(scan.coarse_grid)) == (5, 3_600)
    picks = pick_doas(subs, scan, 2)
    assert np.array_equal(picks, _full_grid_pick(subs, scan, 2))
    values = _whole_grid(subs, scan)
    assert 17_998 in _peaks(values)
    # refined within half a step of the sample
    assert np.sort(np.degrees(picks)) == pytest.approx([0.0, 89.98385], abs=1e-5)


def test_maxima_at_the_denominator_floor_tie_as_on_the_full_grid(paper_cfg):
    # noiseless targets on grid angles: both modules' nulls reach the
    # floor, so both fused maxima are (1 / DENOMINATOR_FLOOR)**2 and the
    # tie goes to the lower angle, as on the whole grid
    grid = default_grid()
    snap = _far_snapshot(paper_cfg, np.degrees(grid[[9554, 9954]]))
    split = [module_subspace(y, paper_cfg, 2) for y in split_ulas(snap)]
    subs, scan = [sub for sub, _ in split], split[0][1]
    values = _whole_grid(subs, scan)
    assert values[9554] == values[9954] == DENOMINATOR_FLOOR**-2
    picks = pick_doas(subs, scan, 2)
    assert np.array_equal(picks, _full_grid_pick(subs, scan, 2))
    assert picks == pytest.approx(grid[[9554, 9954]], abs=1e-5)


def _two_null_module(scan, nulls):
    """A noiseless one-module subspace whose surface has exact nulls at ``nulls``."""
    basis, _ = np.linalg.qr(np.column_stack([scan.steering[:, nulls], np.eye(9)]))
    return SubspacePair(signal=basis[:, :2], noise=basis[:, 2:], singular_values=np.ones(8))


def test_coarse_picks_that_merge_on_the_fine_grid_fall_back_to_every_turning_cell(monkeypatch):
    # nulls at samples 10 001 and 10 020 of the 0.01 degree grid: the coarse
    # maxima at 10 000 and 10 020 are four coarse steps apart, the floor, but
    # the fine maxima are 19 steps apart and collapse into one pick; the
    # second pick must come from below the coarse floor
    scan = _cached_steering(9, 0.5, 1.0)
    subs = [_two_null_module(scan, [10_001, 10_020])]
    evaluated = _recorder(monkeypatch, ss_music, "_coarse_nulls")
    fine = _recorder(monkeypatch, ss_music, "_fine_surface")
    picked = _recorder(monkeypatch, ss_music, "peak_pick")
    picks = pick_doas(subs, scan, 2)
    # coarse, then the floored cells and a floored pick that falls short,
    # then every turning cell and an unfloored pick
    assert len(evaluated) == 1 and len(fine) == 2 and len(picked) == 2
    assert np.count_nonzero(fine[1]["blocks"]) > np.count_nonzero(fine[0]["blocks"])
    assert picked[0]["floor"] > 0.0 and picked[1]["floor"] == 0.0
    assert len(picked[1]["spectrum"].grid) > len(picked[0]["spectrum"].grid)
    assert np.array_equal(picks, _full_grid_pick(subs, scan, 2))
    assert np.min(np.abs(picks[0] - scan.grid[[10_001, 10_020]])) < 1e-4
    # a surface of degree 8 has at most 8 maxima: with fewer coarse maxima
    # than requested peaks there is no floor from the start
    evaluated.clear()
    fine.clear()
    picked.clear()
    assert _outcome(pick_doas, subs, scan, 9) is None
    assert len(evaluated) == len(fine) == len(picked) == 1
    assert picked[0]["floor"] == 0.0
    assert _outcome(_full_grid_pick, subs, scan, 9) is None


def test_a_fallback_trial_in_a_chunk_is_picked_as_on_its_own(monkeypatch):
    # one chunk of real one-module trials of fig3_small_sep, the two-null
    # trial whose floored pick falls short, and a trial with a NaN sample:
    # each outcome is its chunk-of-one outcome and its whole-grid pick
    spec = builtin_scenarios()["fig3_small_sep"]
    ys = [snapshot(spec.array, spec.targets, snr, seed) for snr, seed in ((20.0, 1), (0.0, 2))]
    ys.insert(1, ys[0].copy())
    ys[1][3] = np.nan
    real, scan = module_subspace(split_ulas(np.stack(ys))[0][:, None], spec.array, 2)
    rows = [
        [SubspacePair(*(getattr(real, f.name)[t, 0] for f in dataclasses.fields(real)))]
        for t in range(len(ys))
    ]
    rows.insert(2, [_two_null_module(scan, [10_001, 10_020])])
    fine = _recorder(monkeypatch, ss_music, "_fine_surface")
    got = pick_chunk(_chunk(*rows), scan, 2)
    # the two-null trial, and it alone, takes the second pass
    assert len(fine) == len(rows)
    assert np.array_equal(fine[1]["sums"], fine[2]["sums"])
    assert np.count_nonzero(fine[2]["blocks"]) > np.count_nonzero(fine[1]["blocks"])
    assert isinstance(got[1], NonFiniteSnapshot)
    assert isinstance(pick_chunk(_chunk(rows[1]), scan, 2)[0], NonFiniteSnapshot)
    for t in (0, 2, 3):
        alone = pick_chunk(_chunk(rows[t]), scan, 2)[0]
        assert np.array_equal(got[t], alone)
        assert np.array_equal(got[t], _full_grid_pick(rows[t], scan, 2))


def _recorder(monkeypatch, module, name):
    """Patch ``module.name`` to record each call's arguments, by name, defaults included."""
    calls = []
    original = getattr(module, name)
    signature = inspect.signature(original)

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def test_every_evaluation_and_pick_goes_through_the_module_globals(monkeypatch):
    spec = builtin_scenarios()["fig3_small_sep"]
    snap = snapshot(spec.array, spec.targets, 20.0, 1)
    evaluated = _recorder(monkeypatch, ss_music, "_coarse_nulls")
    fine = _recorder(monkeypatch, ss_music, "_fine_surface")
    picked = _recorder(monkeypatch, ss_music, "peak_pick")
    estimate_doa_music(snap, spec.array, 2)
    # the coarse scan of both modules at once, then one pass over the
    # trial's chosen blocks of both modules and one floored pick
    assert len(evaluated) == len(fine) == len(picked) == 1
    ((sums, scan),) = (call.values() for call in evaluated)
    assert sums.shape == (1, 2, 9) and scan.coarse_trig.shape == (17, 3600)
    ((trial_sums, fine_scan, blocks),) = (call.values() for call in fine)
    assert np.array_equal(trial_sums, sums[0]) and fine_scan is scan
    assert 0 < np.count_nonzero(blocks) < 32
    ((spectrum, num_peaks, index, floor),) = (call.values() for call in picked)
    assert num_peaks == 2 and floor > 0.0 and len(index) < 500
    assert np.array_equal(spectrum.grid, scan.grid[index])
    # the floor is the fine surface's own value at a coarse sample
    assert floor in spectrum.values[index % scan.stride == 0]
    evaluated.clear()
    fine.clear()
    picked.clear()
    nf_localizer.local_doas(snap, spec.array, 2)
    # one coarse scan of both sub-arrays; a pass over each one's chosen
    # cells and one pick each
    assert len(evaluated) == 1 and len(fine) == len(picked) == 2

    def under_resolved(*args, **kwargs):
        raise UnderResolved("stub")

    monkeypatch.setattr(ss_music, "peak_pick", under_resolved)
    with pytest.raises(UnderResolved, match="stub"):
        estimate_doa_music(snap, spec.array, 2)
    with pytest.raises(UnderResolved, match="stub"):
        nf_localizer.local_doas(snap, spec.array, 2)
