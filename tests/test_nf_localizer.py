import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elaa_doa import nf_localizer, signal_model, ss_music
from elaa_doa.errors import BehindArray, ParallelBearings
from elaa_doa.geometry import Target, local_geometry, reference_positions
from elaa_doa.harness import derive_trial_seed, run_monte_carlo
from elaa_doa.nf_localizer import (
    COMB_LADDER,
    FIELD_EDGE_U,
    PAIR_NOISE_GATE,
    POLISH_COST_TOL,
    POLISH_LOG_R_CAP,
    POLISH_MAX_STEPS,
    RANGE_SCAN_POINTS,
    Association,
    _comb_grid,
    _envelope_grid,
    _grid_positions,
    _pair_gate,
    _intersections,
    _matched_responses,
    _polar_atom,
    _polish,
    _project_residual,
    _range_band,
    _range_ladder,
    _range_split_positions,
    _ridge_spacing_u,
    associate,
    local_doas,
    localize,
    triangulate,
)
from elaa_doa.scenarios import builtin_scenarios
from elaa_doa.signal_model import (
    SteeringModel,
    nearfield_atoms,
    nearfield_layout,
    snapshot,
    steering,
)


def _match(positions, truths):
    # best one-to-one assignment, returns worst matched distance
    import itertools

    best = math.inf
    for perm in itertools.permutations(range(len(truths))):
        worst = max(
            float(np.linalg.norm(positions[i] - truths[perm[i]]))
            for i in range(len(truths))
        )
        best = min(best, worst)
    return best


def test_triangulate_hand_case(paper_cfg):
    # bearings at +-45 degrees from the two reference elements meet above
    # their midpoint, half their separation away
    quarter = math.pi / 4.0
    left, right = reference_positions(paper_cfg)
    point = triangulate((quarter, -quarter), paper_cfg)
    assert point == pytest.approx([(left + right) / 2.0, (right - left) / 2.0], abs=1e-12)


def test_triangulate_parallel_raises(paper_cfg):
    with pytest.raises(ParallelBearings):
        triangulate((0.3, 0.3), paper_cfg)


def test_triangulate_behind_array_raises(paper_cfg):
    quarter = math.pi / 4.0
    with pytest.raises(BehindArray):
        triangulate((-quarter, quarter), paper_cfg)


@given(
    st.floats(min_value=1.0, max_value=100.0),
    st.floats(min_value=-0.8, max_value=0.8),
)
def test_triangulate_exact(r, angle):
    from elaa_doa.scenarios import paper_array

    cfg = paper_array()
    target = Target(range=r, angle=angle)
    geo = local_geometry(cfg, target)
    point = triangulate((float(geo.angles[0]), float(geo.angles[1])), cfg)
    assert point == pytest.approx(list(target.position), rel=1e-9, abs=1e-9)


def _triangulate_alone(angles, cfg):
    """One pair's intersection from its own 2x2 solve, the stack's reference."""
    refs = reference_positions(cfg)
    d1, d2 = (np.array([math.sin(a), math.cos(a)]) for a in angles)
    ranges = np.linalg.solve(np.column_stack([d1, -d2]), [refs[1] - refs[0], 0.0])
    p1 = np.array([refs[0], 0.0]) + ranges[0] * d1
    p2 = np.array([refs[1], 0.0]) + ranges[1] * d2
    return (p1 + p2) / 2.0


def test_intersections_stack_gives_each_pair_its_own_bits(paper_cfg):
    # the local bearings of targets in front of the array, crossed
    rng = np.random.default_rng(4)
    targets = [
        Target(range=r, angle=a)
        for r, a in zip(rng.uniform(2.0, 50.0, 4), rng.uniform(-0.6, 0.6, 4))
    ]
    bearings = [local_geometry(paper_cfg, t).angles for t in targets]
    angles1 = [float(b1[0]) for b1 in bearings for _ in bearings]
    angles2 = [float(b2[1]) for _ in bearings for b2 in bearings]
    # a parallel pair and one that meets behind the array, mid-stack
    angles1[1] = angles2[1] = 0.3
    angles1[2], angles2[2] = -math.pi / 4.0, math.pi / 4.0
    points, errors = _intersections(angles1, angles2, paper_cfg)
    assert isinstance(errors[1], ParallelBearings)
    assert isinstance(errors[2], BehindArray)
    for n, (a1, a2) in enumerate(zip(angles1, angles2)):
        if errors[n] is None:
            assert np.array_equal(points[n], _triangulate_alone((a1, a2), paper_cfg)), n
            assert np.array_equal(points[n], triangulate((a1, a2), paper_cfg)), n
    # every target's own pair meets at the target
    for n, target in enumerate(targets):
        assert points[5 * n] == pytest.approx(list(target.position), rel=1e-9)


def test_matched_responses_are_each_positions_own(paper_cfg):
    positions = list(_grid_positions(np.array([-0.2, 0.0, 0.3]), np.array([4.0, 6.0])))
    rng = np.random.default_rng(6)
    y = rng.normal(size=paper_cfg.n_elements) + 1j * rng.normal(size=paper_cfg.n_elements)
    responses = _matched_responses(y, paper_cfg, positions)
    assert len(responses) == len(positions)
    for pos, response in zip(positions, responses):
        atom = nearfield_atoms(paper_cfg, pos[0], pos[1])[:, 0]
        assert response == float(abs(np.vdot(atom, y))) / math.sqrt(len(atom))
    assert _matched_responses(y, paper_cfg, []) == []


def _band_corners(cfg):
    """Points at both ends of the scanned range band, at +-FIELD_EDGE_U and 0."""
    return _grid_positions(
        np.array([-FIELD_EDGE_U, 0.0, FIELD_EDGE_U]), np.array(_range_band(cfg))
    )


def test_atoms_match_steering(paper_cfg):
    # the builder, through the locally planar model, against the
    # per-element formula from local_geometry: exp(-j k r_n) *
    # exp(j k m d sin(theta_n)) on sub-array n
    points = [(0.5, 4.0), (-2.0, 7.3), (10.0, 60.0)]
    points += [tuple(p) for p in _band_corners(paper_cfg)]
    k = 2.0 * math.pi / paper_cfg.wavelength
    m = np.arange(paper_cfg.elements_per_ula)
    for x, y in points:
        target = Target.from_position(x, y)
        geo = local_geometry(paper_cfg, target)
        expected = np.concatenate([
            np.exp(-1j * k * r) * np.exp(1j * k * m * paper_cfg.spacing * math.sin(a))
            for r, a in zip(geo.ranges, geo.angles)
        ])
        # the snapshot model's steering and the localizer's atom at the point
        for entries in (
            steering(paper_cfg, target, model=SteeringModel.NF_LOCAL_PLANAR),
            nearfield_atoms(paper_cfg, x, y)[:, 0],
        ):
            assert np.allclose(entries, expected, rtol=0.0, atol=1e-10), (x, y)


def test_snapshot_entries_are_the_localizer_atom(paper_cfg):
    # the noiseless zero-phase data, the steering itself, is the localizer's
    # atom bit for bit, and a noiseless snapshot is that atom turned by its phase
    targets = [Target(5.0, math.radians(-10.0)), Target(4.0, 0.0), Target(60.0, 0.3)]
    targets += [Target.from_position(*p) for p in _band_corners(paper_cfg)]
    # the source phase is the seed's first draw, as snapshot documents
    phase = np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 1))[0]
    for target in targets:
        atom = nearfield_atoms(paper_cfg, *target.position)[:, 0]
        entries = steering(paper_cfg, target, model=SteeringModel.NF_LOCAL_PLANAR)
        assert np.array_equal(entries, atom), target
        snap = snapshot(paper_cfg, [target], math.inf, seed=0, model=SteeringModel.NF_LOCAL_PLANAR)
        assert np.array_equal(snap, phase * atom), target


def test_atoms_batch_matches_single_points(paper_cfg):
    xs = np.array([0.5, -2.0, 10.0])
    ys = np.array([4.0, 7.3, 60.0])
    batch = nearfield_atoms(paper_cfg, xs, ys)
    assert batch.shape == (paper_cfg.n_elements, 3)
    for col, (x, y) in enumerate(zip(xs, ys)):
        assert np.allclose(batch[:, col], nearfield_atoms(paper_cfg, x, y)[:, 0], atol=1e-10)


def test_atoms_jacobian_matches_central_differences(paper_cfg):
    lo, hi = _range_band(paper_cfg)
    h = 1e-8
    y = np.arange(paper_cfg.n_elements) * (1.0 - 0.5j)
    points = [
        (u, log_r)
        for u in (-FIELD_EDGE_U, -0.3, 0.0, 0.17, FIELD_EDGE_U)
        for log_r in (math.log(lo), 0.0, math.log(5.0), math.log(60.0), math.log(hi))
    ]
    # the same points one at a time and as one two-atom call
    groups = [[p] for p in points] + [list(pair) for pair in zip(points, points[::-1])]
    layout = nearfield_layout(paper_cfg)
    for group in groups:
        us, log_rs = [u for u, _ in group], [s for _, s in group]
        n_atoms = len(group)
        rows = _polar_atom(layout, us, log_rs, y)
        assert rows.shape == (3 * n_atoms + 1, paper_cfg.n_elements)
        assert np.array_equal(rows[-1], y)
        for i, (u, log_r) in enumerate(group):
            r, root = math.exp(log_r), math.sqrt(1.0 - u * u)
            atom = nearfield_atoms(paper_cfg, r * u, r * root)[:, 0]
            assert np.allclose(rows[i], atom, atol=1e-10)
            for row, (eu, es) in ((rows[n_atoms + i], (h, 0.0)), (rows[2 * n_atoms + i], (0.0, h))):
                numeric = (
                    _polar_atom(layout, [u + eu], [log_r + es], y)[0]
                    - _polar_atom(layout, [u - eu], [log_r - es], y)[0]
                ) / (2.0 * h)
                assert np.max(np.abs(numeric - row)) < 1e-5 * np.max(np.abs(row)), (u, log_r)


def test_polar_atom_rows_of_a_pair_are_its_one_atom_rows(paper_cfg):
    # the atom-major buffer: a two-atom call's rows are, bit for bit, the
    # rows the two one-atom calls build for each atom alone
    layout = nearfield_layout(paper_cfg)
    y = np.arange(paper_cfg.n_elements) * (0.3 + 1.0j)
    for (u0, s0), (u1, s1) in [((0.0, math.log(4.0)), (0.0, math.log(6.0))),
                               ((-0.4, math.log(2.5)), (0.31, math.log(40.0)))]:
        pair = _polar_atom(layout, [u0, u1], [s0, s1], y)
        first = _polar_atom(layout, [u0], [s0], y)
        second = _polar_atom(layout, [u1], [s1], y)
        for kind in range(3):
            assert np.array_equal(pair[2 * kind], first[kind])
            assert np.array_equal(pair[2 * kind + 1], second[kind])
        assert np.array_equal(pair[-1], y)


def _polar(r, deg):
    return np.array([r * math.sin(math.radians(deg)), r * math.cos(math.radians(deg))])


def _within_crest(cfg, p, du_frac, dlog_r):
    """``p`` moved by a fraction of the comb spacing in sine and in log range."""
    r = float(np.hypot(*p))
    u = p[0] / r + du_frac * _ridge_spacing_u(cfg)
    r *= math.exp(dlog_r)
    return np.array([r * u, r * math.sqrt(1.0 - u * u)])


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_polish_reaches_noiseless_truth(paper_cfg, n_atoms):
    truths = [_polar(5.0, 10.0), _polar(5.0, -10.0), _polar(7.0, 25.0)][:n_atoms]
    pts = np.array(truths)
    amps = np.array([1.0, 0.7 * np.exp(1.1j), 0.5 * np.exp(-2.0j)])[:n_atoms]
    y = nearfield_atoms(paper_cfg, pts[:, 0], pts[:, 1]) @ amps
    for du_frac, dlog_r in ((0.1, 0.02), (-0.15, -0.03), (0.05, 0.0)):
        seeds = [_within_crest(paper_cfg, p, du_frac, dlog_r) for p in truths]
        found, residual = _polish(y, paper_cfg, seeds)
        assert len(found) == n_atoms
        for p, truth in zip(found, truths):
            assert np.linalg.norm(p - truth) < 1e-6, (du_frac, dlog_r)
        assert residual < 1e-6 * np.linalg.norm(y)


def test_polish_moves_a_boresight_pair_jointly(paper_cfg):
    # two returns stacked on one bearing: both atoms move in one descent
    truths = [np.array([0.0, 4.0]), np.array([0.0, 6.0])]
    pts = np.array(truths)
    y = nearfield_atoms(paper_cfg, pts[:, 0], pts[:, 1]) @ np.array([1.0, 0.8 * np.exp(0.4j)])
    seeds = [
        _within_crest(paper_cfg, truths[0], 0.1, 0.02),
        _within_crest(paper_cfg, truths[1], -0.1, -0.02),
    ]
    found, _ = _polish(y, paper_cfg, seeds)
    for p, truth in zip(found, truths):
        assert np.linalg.norm(p - truth) < 1e-6


def _record_points(monkeypatch):
    """Record every (u..., log r...) point the polish evaluates."""
    points = []
    polar_atom = nf_localizer._polar_atom

    def recording(cfg, us, log_rs, y):
        points.append(np.array(list(us) + list(log_rs)))
        return polar_atom(cfg, us, log_rs, y)

    monkeypatch.setattr(nf_localizer, "_polar_atom", recording)
    return points


def test_polish_shrinks_the_whole_step(paper_cfg, monkeypatch):
    # seeds far out in range ask for a first step beyond the caps; it is
    # shrunk as one vector, so exactly one component lands on its cap
    truths = [_polar(5.0, 10.0), _polar(5.0, -10.0)]
    pts = np.array(truths)
    y = nearfield_atoms(paper_cfg, pts[:, 0], pts[:, 1]) @ np.array([1.0, 0.7 * np.exp(1.1j)])
    seeds = [
        _within_crest(paper_cfg, truths[0], 0.0, 0.3),
        _within_crest(paper_cfg, truths[1], 0.0, 0.1),
    ]
    points = _record_points(monkeypatch)
    _polish(y, paper_cfg, seeds)
    caps = np.repeat([0.2 * _ridge_spacing_u(paper_cfg), 0.05], 2)
    ratios = np.abs(points[1] - points[0]) / caps
    assert ratios.max() == pytest.approx(1.0, rel=1e-9)
    assert np.sum(ratios > 1.0 - 1e-9) == 1, ratios


def test_polish_never_lowers_the_matched_response(paper_cfg):
    rng = np.random.default_rng(23)
    truth = _polar(5.0, 10.0)
    clean = nearfield_atoms(paper_cfg, truth[0], truth[1])[:, 0]
    n = paper_cfg.n_elements
    for _ in range(20):
        y = clean + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        seed = _within_crest(
            paper_cfg, truth, rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)
        )
        (found,), _ = _polish(y, paper_cfg, [seed])
        # a polish that takes no step returns its seed up to rounding
        before, after = _matched_responses(y, paper_cfg, [seed, found])
        assert after >= before * (1.0 - 1e-12)


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_polish_residual_is_the_fit_of_its_positions(paper_cfg, monkeypatch, n_atoms):
    points = _record_points(monkeypatch)
    rng = np.random.default_rng(40 + n_atoms)
    lo, hi = _range_band(paper_cfg)
    n = paper_cfg.n_elements
    for _ in range(10):
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        seeds = list(
            _grid_positions(rng.uniform(-0.8, 0.8, n_atoms), np.ones(1))
            * np.exp(rng.uniform(math.log(lo), math.log(hi), (n_atoms, 1)))
        )
        points.clear()
        found, residual = _polish(y, paper_cfg, seeds)
        _, before = _project_residual(y, seeds, paper_cfg)
        _, after = _project_residual(y, found, paper_cfg)
        assert residual <= before * (1.0 + 1e-12)
        assert residual == pytest.approx(after, rel=1e-9)
        # descent only: no point the polish looked at fits better
        for theta in points:
            us, rs = theta[:n_atoms], np.exp(theta[n_atoms:])
            at = list(np.column_stack([rs * us, rs * np.sqrt(1.0 - us * us)]))
            assert residual <= _project_residual(y, at, paper_cfg)[1] * (1.0 + 1e-9)


def test_polish_ends_inside_the_range_band(paper_cfg):
    rng = np.random.default_rng(31)
    lo, hi = _range_band(paper_cfg)
    n = paper_cfg.n_elements
    # targets beyond both ends of the band pull the polish toward its edges
    pulls = _grid_positions(np.array([-0.4, 0.1]), np.array([0.2, 5.0, 2000.0]))
    seeds = list(_band_corners(paper_cfg)) + list(
        _grid_positions(rng.uniform(-0.8, 0.8, 6), np.geomspace(lo, hi, 5))
    )
    for i, seed in enumerate(seeds):
        picks = pulls[rng.choice(len(pulls), size=2, replace=False)]
        y = nearfield_atoms(paper_cfg, picks[:, 0], picks[:, 1]) @ rng.normal(size=2)
        y = y + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        # every third seed moves jointly with a second atom on a pull
        group = [seed, pulls[i % len(pulls)]] if i % 3 == 0 else [seed]
        found, _ = _polish(y, paper_cfg, group)
        for p in found:
            r = float(np.hypot(*p))
            assert lo * (1.0 - 1e-12) <= r <= hi * (1.0 + 1e-12), (i, r)


def _count_fits(monkeypatch):
    """Count the polish's objective evaluations through the shared atom builder.

    The builder lives in ``signal_model``; the localizer calls it as its
    own module global, so the count is patched in there.
    """
    fits = []
    atoms = signal_model.sub_array_atoms

    def counting(*args):
        fits.append(1)
        return atoms(*args)

    monkeypatch.setattr(nf_localizer, "sub_array_atoms", counting)
    return fits


def test_polish_takes_seeds_on_the_band_ends(paper_cfg, monkeypatch):
    # comb seeds on the band's ends, as the scans place them; the polar
    # round trip puts some of them an ulp outside the band
    lo, hi = _range_band(paper_cfg)
    seeds = _grid_positions(np.linspace(-FIELD_EDGE_U, FIELD_EDGE_U, 21), np.array([lo, hi]))
    assert any(math.log(float(np.hypot(*p))) < math.log(lo) for p in seeds)
    truth = _polar(5.0, 10.0)
    y = nearfield_atoms(paper_cfg, truth[0], truth[1])[:, 0]
    fits = _count_fits(monkeypatch)
    for seed in seeds:
        fits.clear()
        _polish(y, paper_cfg, [seed])
        assert fits, seed


def test_polish_stops_at_the_band_top(paper_cfg, monkeypatch):
    # a far plane-like wave: the residual keeps falling with range
    far = _polar(1e6, 6.0)
    y = nearfield_atoms(paper_cfg, far[0], far[1])[:, 0]
    fits = _count_fits(monkeypatch)
    (found,), _ = _polish(y, paper_cfg, [_polar(100.0, 6.0)])
    assert float(np.hypot(*found)) == pytest.approx(_range_band(paper_cfg)[1], rel=1e-4)
    assert len(fits) < POLISH_MAX_STEPS // 3


def test_polish_cost_stop_saves_evaluations_not_fit(monkeypatch):
    # fig4_near_b's first 200 trials, polished from the truth, from a
    # perturbed truth and from one boresight pick between the targets
    spec = builtin_scenarios()["fig4_near_b"]
    cfg = spec.array
    truth = [t.position for t in spec.targets]
    perturbed = [
        _within_crest(cfg, truth[0], 0.05, 0.02),
        _within_crest(cfg, truth[1], -0.05, -0.02),
    ]
    starts = (truth, perturbed, [np.array([0.0, 4.0])])
    ys = [
        snapshot(
            cfg,
            spec.targets,
            30.0,
            derive_trial_seed(spec.base_seed, "nf_localize", 0, trial),
            model=spec.steering_model,
        ).astype(complex)
        for trial in range(200)
    ]
    points = _record_points(monkeypatch)

    def polish_all(cost_tol):
        monkeypatch.setattr(nf_localizer, "POLISH_COST_TOL", cost_tol)
        points.clear()
        residuals = [_polish(y, cfg, list(seeds))[1] for y in ys for seeds in starts]
        return len(points), np.array(residuals)

    crawl_fits, crawl_residuals = polish_all(0.0)
    fits, residuals = polish_all(POLISH_COST_TOL)
    assert fits <= 0.75 * crawl_fits, (fits, crawl_fits)
    change = np.abs(residuals - crawl_residuals) / crawl_residuals
    assert np.median(change) < 1e-8, np.median(change)


def _theta_positions(theta):
    n_atoms = len(theta) // 2
    us, rs = theta[:n_atoms], np.exp(theta[n_atoms:])
    return list(np.column_stack([rs * us, rs * np.sqrt(1.0 - us * us)]))


def _leash_distances(theta, leash):
    """Each atom's log-range distance from its leash position at the point ``theta``."""
    return [
        abs(math.log(math.hypot(*p) / math.hypot(*q)))
        for p, q in zip(_theta_positions(theta), leash)
    ]


def test_leashed_polish_stops_at_the_first_accepted_step_off_its_leash(
    paper_cfg, monkeypatch
):
    truths = [_polar(5.0, 10.0), _polar(5.0, -10.0)]
    pts = np.array(truths)
    y = nearfield_atoms(paper_cfg, pts[:, 0], pts[:, 1]) @ np.array([1.0, 0.7 * np.exp(1.1j)])
    # the first seed sits three capped steps out in range, and its leash
    # half a capped step in: the start and the first capped step land half
    # a cap inside the leash, the second half a cap beyond it, so no
    # decision hangs on rounding
    seeds = [_within_crest(paper_cfg, truths[0], 0.0, 0.15), truths[1]]
    leash = [seeds[0] * math.exp(-0.5 * POLISH_LOG_R_CAP), seeds[1]]
    points = _record_points(monkeypatch)
    fits = _count_fits(monkeypatch)
    found, _ = _polish(y, paper_cfg, seeds)
    assert np.linalg.norm(found[0] - truths[0]) < 1e-6
    free_points, free_fits = list(points), len(fits)
    points.clear()
    fits.clear()
    stopped, residual = _polish(y, paper_cfg, seeds, leash=leash)
    assert stopped is None
    # the same descent, cut short
    assert len(fits) == len(points) < free_fits
    assert all(np.array_equal(a, b) for a, b in zip(points, free_points))
    # accepted points lower the residual; only the last one is off the leash
    fit_of = [_project_residual(y, _theta_positions(theta), paper_cfg)[1] for theta in points]
    accepted = [0] + [i for i in range(1, len(points)) if fit_of[i] < min(fit_of[:i])]
    assert accepted[-1] == len(points) - 1
    assert len(accepted) > 2, accepted
    distances = [max(_leash_distances(points[i], leash)) for i in accepted]
    assert all(abs(d - POLISH_LOG_R_CAP) > 0.4 * POLISH_LOG_R_CAP for d in distances)
    off = [d > POLISH_LOG_R_CAP for d in distances]
    assert off == [False] * (len(accepted) - 1) + [True]
    assert residual == pytest.approx(fit_of[-1], rel=1e-9)


def test_leashed_polish_within_its_leash_matches_the_free_one(paper_cfg):
    truths = [_polar(5.0, 10.0), _polar(5.0, -10.0)]
    pts = np.array(truths)
    y = nearfield_atoms(paper_cfg, pts[:, 0], pts[:, 1]) @ np.array([1.0, 0.7 * np.exp(1.1j)])
    seeds = [_within_crest(paper_cfg, p, 0.1, 0.02) for p in truths]
    free = _polish(y, paper_cfg, seeds)
    leashed = _polish(y, paper_cfg, seeds, leash=seeds)
    assert leashed[1] == free[1]
    assert all(np.array_equal(a, b) for a, b in zip(leashed[0], free[0]))
    # a start already off the leash stops before any step
    far = [p * math.exp(1.5 * POLISH_LOG_R_CAP) for p in seeds]
    stopped, residual = _polish(y, paper_cfg, seeds, leash=far)
    assert stopped is None
    assert residual == pytest.approx(_project_residual(y, seeds, paper_cfg)[1], rel=1e-9)


def test_polish_coincident_barrier(paper_cfg):
    p = _polar(5.0, 10.0)
    y = nearfield_atoms(paper_cfg, p[0], p[1])[:, 0]
    # two seeds on one point are barred, so the polish returns them as they are
    found, residual = _polish(y, paper_cfg, [p, p.copy()])
    assert all(np.array_equal(q, p) for q in found)
    assert residual == _project_residual(y, [p, p], paper_cfg)[1]


def test_range_split_skips_picks_on_the_band_edge(paper_cfg, monkeypatch):
    # a greedy pick that ran to the band's top carries no range, so only
    # the interior pick's bearing anchors the range-split ladder
    lo, hi = _range_band(paper_cfg)
    edge, interior = _grid_positions(np.array([-0.3, 0.1]), np.array([hi, 5.0]))[[0, 3]]
    assert float(np.hypot(*edge)) == pytest.approx(hi)
    assert float(np.hypot(*interior)) == pytest.approx(5.0)
    picks = iter([edge, interior])
    monkeypatch.setattr(nf_localizer, "_pick_position", lambda res, cfg: next(picks))
    anchors = []

    def split(y, cfg, u_center):
        anchors.append(u_center)
        return None, math.inf

    monkeypatch.setattr(nf_localizer, "_range_split_positions", split)
    rng = np.random.default_rng(5)
    n = paper_cfg.n_elements
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    nf_localizer._matched_filter_positions(y, paper_cfg, 2, floor=0.0)
    assert anchors == [pytest.approx(0.1)]


@pytest.mark.parametrize("floor, ladders", [(0.5, 0), (0.2, 1), (0.0, 2)])
def test_deflation_ladders_stop_at_the_noise_floor(paper_cfg, monkeypatch, floor, ladders):
    # two in-band picks on distinct bearings; the joint polish leaves a
    # squared residual of 0.25 and the first ladder's polish 0.16, so a
    # floor between them stops the search after one ladder.  The second
    # ladder's raw pair fits better than the first's, so it is polished
    picks = iter(_grid_positions(np.array([-0.3, 0.1]), np.array([5.0])))
    monkeypatch.setattr(nf_localizer, "_pick_position", lambda res, cfg: next(picks))
    fits = iter([0.5, 0.4, 0.3])
    monkeypatch.setattr(
        nf_localizer, "_polish", lambda y, cfg, seeds: (list(seeds), next(fits))
    )
    anchors = []
    raws = iter([0.9, 0.8])

    def split(y, cfg, u_center):
        anchors.append(u_center)
        return [np.array([0.0, 4.0]), np.array([0.0, 6.0])], next(raws)

    monkeypatch.setattr(nf_localizer, "_range_split_positions", split)
    # a signal-level residual, far above the skip fraction of the snapshot
    y = np.full(paper_cfg.n_elements, 0.1 + 0j)
    _, residual = nf_localizer._matched_filter_positions(y, paper_cfg, 2, floor)
    assert anchors == [pytest.approx(-0.3), pytest.approx(0.1)][:ladders]
    assert residual == [0.5, 0.4, 0.3][ladders]


@pytest.mark.parametrize("second_raw, polishes", [(0.9, 2), (1.0, 2), (0.8, 3)])
def test_deflation_polishes_a_ladder_only_when_its_raw_pair_fits_better(
    paper_cfg, monkeypatch, second_raw, polishes
):
    # the first ladder's raw pair leaves 0.9; a second ladder whose raw
    # pair leaves as much or more is split but not polished, and one that
    # leaves less is polished and wins with its smaller polished residual
    picks = iter(_grid_positions(np.array([-0.3, 0.1]), np.array([5.0])))
    monkeypatch.setattr(nf_localizer, "_pick_position", lambda res, cfg: next(picks))
    fits = iter([0.5, 0.4, 0.3])
    monkeypatch.setattr(
        nf_localizer, "_polish", lambda y, cfg, seeds: (list(seeds), next(fits))
    )
    first = [np.array([0.0, 4.0]), np.array([0.0, 6.0])]
    second = [np.array([0.5, 4.0]), np.array([0.5, 6.0])]
    splits = iter([(first, 0.9), (second, second_raw)])
    anchors = []

    def split(y, cfg, u_center):
        anchors.append(u_center)
        return next(splits)

    monkeypatch.setattr(nf_localizer, "_range_split_positions", split)
    polished = _record_calls(monkeypatch, nf_localizer, "_polish")
    y = np.full(paper_cfg.n_elements, 0.1 + 0j)
    positions, residual = nf_localizer._matched_filter_positions(y, paper_cfg, 2, 0.0)
    assert anchors == [pytest.approx(-0.3), pytest.approx(0.1)]
    assert len(polished) == polishes
    assert residual == [0.5, 0.4, 0.3][polishes - 1]
    winner = second if polishes == 3 else first
    assert all(np.array_equal(p, q) for p, q in zip(positions, winner))


def test_deflation_floor_saves_ladders_not_hits(monkeypatch):
    # fig4_near_b's first 200 trials, every one with the deflation search
    # stopped at the pair gate's floor and again with a floor of zero
    spec = dataclasses.replace(builtin_scenarios()["fig4_near_b"], n_trials=200)
    ladders = _record_calls(monkeypatch, nf_localizer, "_range_split_positions")
    (row,) = run_monte_carlo(spec)
    floored = len(ladders)
    search = nf_localizer._matched_filter_positions
    monkeypatch.setattr(
        nf_localizer,
        "_matched_filter_positions",
        lambda y, cfg, num_sources, floor: search(y, cfg, num_sources, 0.0),
    )
    ladders.clear()
    (unfloored,) = run_monte_carlo(spec)
    assert floored <= 0.75 * len(ladders), (floored, len(ladders))
    assert row.hit_rate == unfloored.hit_rate


def test_ridge_spacing(paper_cfg):
    assert _ridge_spacing_u(paper_cfg) == pytest.approx(
        paper_cfg.wavelength / paper_cfg.center_separation
    )


def test_local_doas_near_field(paper_cfg):
    targets = [
        Target.from_position(5.0 * math.sin(math.radians(a)), 5.0 * math.cos(math.radians(a)))
        for a in (-10.0, 10.0)
    ]
    snap = snapshot(paper_cfg, targets, math.inf, seed=2)
    doas1, doas2, _ = local_doas(snap, paper_cfg, 2)
    expect1 = sorted(float(local_geometry(paper_cfg, t).angles[0]) for t in targets)
    expect2 = sorted(float(local_geometry(paper_cfg, t).angles[1]) for t in targets)
    assert np.degrees(doas1) == pytest.approx(np.degrees(expect1), abs=0.05)
    assert np.degrees(doas2) == pytest.approx(np.degrees(expect2), abs=0.05)


def test_associate_identity_pairing(paper_cfg):
    targets = [
        Target.from_position(5.0 * math.sin(math.radians(a)), 5.0 * math.cos(math.radians(a)))
        for a in (-10.0, 10.0)
    ]
    snap = snapshot(paper_cfg, targets, math.inf, seed=2)
    doas1, doas2, _ = local_doas(snap, paper_cfg, 2)
    assoc = associate(doas1, doas2, snap, paper_cfg)
    assert set(assoc.pairs) == {(0, 0), (1, 1)}


def test_associate_validates_lengths(paper_cfg):
    snap = snapshot(paper_cfg, [Target(range=5.0, angle=0.1)], math.inf, seed=0)
    with pytest.raises(ValueError):
        associate(np.array([0.1]), np.array([0.1, 0.2]), snap, paper_cfg)
    with pytest.raises(ValueError):
        associate(np.array([]), np.array([]), snap, paper_cfg)


def test_range_split_recovers_ladder(paper_cfg):
    truths = [np.array([0.0, 4.0]), np.array([0.0, 6.0])]
    targets = [Target.from_position(p[0], p[1]) for p in truths]
    # noiseless zero-phase data: the steering sum
    y = sum(steering(paper_cfg, target) for target in targets)
    pair, raw = _range_split_positions(y, paper_cfg, 0.0)
    assert pair is not None
    # the raw residual is the squared residual of the pair's joint fit
    assert raw == pytest.approx(_project_residual(y, pair, paper_cfg)[1] ** 2, rel=1e-6)
    # each split range is one of the two ladder rungs around its truth
    ladder = _range_ladder(*_range_band(paper_cfg))[0]
    ranges = sorted(float(np.hypot(p[0], p[1])) for p in pair)
    for r, truth in zip(ranges, (4.0, 6.0)):
        above = int(np.searchsorted(ladder, truth))
        assert r in (ladder[above - 1], ladder[above]), (r, truth)
    # and one joint polish from the split reaches both truths
    polished, _ = _polish(y, paper_cfg, pair)
    assert _match(polished, truths) < 1e-6


def _range_split_rung_by_rung(y, cfg, u_center):
    """The range split's best pair and raw residual, one rung at a time."""
    spacing = _ridge_spacing_u(cfg)
    ranges, ii, jj, flat = _range_ladder(*_range_band(cfg))
    y_sq = float(np.vdot(y, y).real)
    best = None
    for q in range(-COMB_LADDER, COMB_LADDER + 1):
        u = u_center + q * spacing
        if not -FIELD_EDGE_U < u < FIELD_EDGE_U:
            continue
        root = math.sqrt(1.0 - u * u)
        atoms = nearfield_atoms(cfg, ranges * u, ranges * root)
        filters = atoms.conj()
        b = filters.T @ y
        gram = filters.T @ atoms
        diag = gram.diagonal().real
        gii, gjj, gij = diag.take(ii), diag.take(jj), gram.take(flat)
        det = gii * gjj - np.abs(gij) ** 2
        b_sq = np.abs(b) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = (
                gjj * b_sq.take(ii)
                + gii * b_sq.take(jj)
                - 2.0 * np.real(gij * np.conj(b.take(ii)) * b.take(jj))
            ) / det
        quad[~(det > nf_localizer.COINCIDENT_GRAM * gii * gjj)] = -np.inf
        k = int(np.argmax(quad))
        if quad[k] > -np.inf and (best is None or y_sq - float(quad[k]) < best[0]):
            best = (y_sq - float(quad[k]), u, int(ii[k]), int(jj[k]))
    raw, u, i, j = best
    root = math.sqrt(1.0 - u * u)
    return [ranges[i] * np.array([u, root]), ranges[j] * np.array([u, root])], raw


@pytest.mark.parametrize("u_center", [0.0, 0.31, -0.8])
def test_range_split_stacked_rungs_give_each_rungs_own_bits(paper_cfg, u_center):
    # all rungs go through stacked products and one pass of pair algebra;
    # each rung's products and pairs keep the bits of that rung alone
    rng = np.random.default_rng(17)
    n = paper_cfg.n_elements
    for _ in range(10):
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        pair, raw = _range_split_positions(y, paper_cfg, u_center)
        alone, raw_alone = _range_split_rung_by_rung(y, paper_cfg, u_center)
        assert raw == raw_alone
        assert all(np.array_equal(p, q) for p, q in zip(pair, alone))


def test_localize_noiseless_split_bearings(paper_cfg):
    truths = [
        np.array([5.0 * math.sin(math.radians(a)), 5.0 * math.cos(math.radians(a))])
        for a in (-10.0, 10.0)
    ]
    snap = snapshot(paper_cfg, [Target.from_position(*p) for p in truths], math.inf, seed=8)
    result = localize(snap, paper_cfg, 2)
    assert len(result.targets) == 2
    positions = [t.position for t in result.targets]
    assert all(p is not None for p in positions)
    assert _match(positions, truths) < 1e-3


def test_localize_noiseless_shared_bearing(paper_cfg):
    truths = [np.array([0.0, 4.0]), np.array([0.0, 6.0])]
    snap = snapshot(paper_cfg, [Target.from_position(*p) for p in truths], math.inf, seed=9)
    result = localize(snap, paper_cfg, 2)
    positions = [t.position for t in result.targets]
    assert all(p is not None for p in positions)
    assert _match(positions, truths) < 1e-3


def test_localize_single_target(paper_cfg):
    truth = np.array([5.0 * math.sin(0.2), 5.0 * math.cos(0.2)])
    snap = snapshot(paper_cfg, [Target.from_position(*truth)], math.inf, seed=10)
    result = localize(snap, paper_cfg, 1)
    assert len(result.targets) == 1
    assert result.targets[0].position == pytest.approx(list(truth), abs=1e-3)


def test_localize_scores_descending(paper_cfg):
    targets = [Target(range=5.0, angle=-0.2), Target(range=5.0, angle=0.15)]
    snap = snapshot(paper_cfg, targets, 20.0, seed=12)
    result = localize(snap, paper_cfg, 2)
    scores = [t.score for t in result.targets]
    assert scores == sorted(scores, reverse=True)
    assert all(0.0 < s <= 1.0 + 1e-9 for s in scores)


def _fig4_near_a_snapshot(snr_db, seed):
    spec = builtin_scenarios()["fig4_near_a"]
    return spec.array, snapshot(spec.array, spec.targets, snr_db, seed=seed)


def _record_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_localize_pair_route_skips_deflation_at_the_noise_floor(monkeypatch):
    cfg, snap = _fig4_near_a_snapshot(30.0, seed=3)

    def deflation(*args):
        raise AssertionError("deflation ran although the pair fit reached the noise floor")

    monkeypatch.setattr(nf_localizer, "_matched_filter_positions", deflation)
    result = localize(snap, cfg, 2)
    assert result.route == "pair"
    assert result.noise_ratio <= _pair_gate(cfg, 2)
    assert all(t.pair is not None and t.position is not None for t in result.targets)
    assert sorted(t.pair for t in result.targets) == sorted(result.association.pairs)
    # the residual is the fit of the polished pairs the result reports
    reported = [t.position for t in result.targets]
    y = snap.astype(complex)
    assert result.residual == pytest.approx(_project_residual(y, reported, cfg)[1], rel=1e-9)


def test_localize_noiseless_snapshot_runs_deflation(monkeypatch):
    cfg, snap = _fig4_near_a_snapshot(math.inf, seed=3)
    calls = _record_calls(monkeypatch, nf_localizer, "_matched_filter_positions")
    result = localize(snap, cfg, 2)
    assert len(calls) == 1
    # no noise to reach: the reference is roundoff, far below any fit residual
    assert result.noise_ratio > _pair_gate(cfg, 2)


def test_localize_unpaired_source_runs_deflation(monkeypatch):
    cfg, snap = _fig4_near_a_snapshot(30.0, seed=3)
    original = nf_localizer.associate

    def one_pair(*args):
        full = original(*args)
        return Association(
            pairs=full.pairs[:1],
            positions=full.positions[:1],
            residual=full.residual,
        )

    monkeypatch.setattr(nf_localizer, "associate", one_pair)
    calls = _record_calls(monkeypatch, nf_localizer, "_matched_filter_positions")
    result = localize(snap, cfg, 2)
    assert len(calls) == 1
    assert result.noise_ratio is None
    assert result.route == "deflation"


def test_localize_noise_ratio_from_the_two_scan_svds(monkeypatch):
    cfg, snap = _fig4_near_a_snapshot(30.0, seed=3)
    subs = _record_calls(monkeypatch, ss_music, "split_subspaces")
    fits = _record_calls(monkeypatch, nf_localizer, "_polish")
    result = localize(snap, cfg, 2)
    # one SVD call decomposes both sub-arrays' liftings
    (sub,) = subs
    assert sub.singular_values.shape == (2, 1, 8)
    noise_ref = sum(float(np.sum(s[2:] ** 2)) for s in sub.singular_values[:, 0])
    (_, pair_res), = fits
    assert result.noise_ratio == pytest.approx(pair_res**2 / noise_ref, rel=1e-12)


def test_pair_gate_from_degrees_of_freedom(paper_cfg):
    # 16-element sub-arrays, default pencil 8: (9, 8) Hankel matrices
    assert _pair_gate(paper_cfg, 2) == pytest.approx(PAIR_NOISE_GATE * 28 / 84)
    assert _pair_gate(paper_cfg, 1) == pytest.approx(PAIR_NOISE_GATE * 30 / 112)
    assert _pair_gate(paper_cfg, 3) == pytest.approx(PAIR_NOISE_GATE * 26 / 60)
    # at the source limit, 7, each (9, 8) Hankel matrix keeps a 2 x 1 noise block
    assert _pair_gate(paper_cfg, 7) == pytest.approx(PAIR_NOISE_GATE * 18 / 4)


@pytest.mark.parametrize("steps, deflates", [(0.9, False), (1.1, True)])
def test_localize_pair_the_polish_walks_runs_deflation(monkeypatch, steps, deflates):
    cfg, snap = _fig4_near_a_snapshot(30.0, seed=3)
    y = snap.astype(complex)
    full = associate(*local_doas(snap, cfg, 2)[:2], snap, cfg)
    best, _ = _polish(y, cfg, list(full.positions))
    # triangulation put the first atom ``steps`` capped log-range steps
    # beyond where the fit is best, so the polish has to walk it back
    moved = (best[0] * math.exp(steps * POLISH_LOG_R_CAP), best[1])
    monkeypatch.setattr(
        nf_localizer, "associate", lambda *args: dataclasses.replace(full, positions=moved)
    )
    fits = _record_calls(monkeypatch, nf_localizer, "_polish")
    calls = _record_calls(monkeypatch, nf_localizer, "_matched_filter_positions")
    result = localize(snap, cfg, 2)
    # the fit reached the noise floor either way: the range alone decides
    assert result.noise_ratio <= _pair_gate(cfg, 2)
    assert len(calls) == int(deflates)
    polished, _ = fits[0]
    assert (polished is None) == deflates
    if not deflates:
        assert result.route == "pair"
        reported = sorted(tuple(t.position) for t in result.targets)
        assert np.allclose(reported, sorted(tuple(p) for p in best), rtol=0.0, atol=1e-6)


def test_localize_pins_fig4_near_b_trials():
    # positions and routes recorded before the pair polish was leashed and
    # the scan grids cached; neither changes a digit on these trials.  The
    # deflation trials are recorded again since snapshots take their
    # near-field entries from the localizer's atom builder, which moves
    # them by a few nanometres, and again since the search reads one
    # range ladder and polishes one comb start per pick (up to 1.3e-5 m)
    spec = builtin_scenarios()["fig4_near_b"]
    pinned = [
        (42, 2, "deflation", [(2.4631760529013398e-05, 4.014110952122057),
                              (3.58996705509823e-05, 6.0598815391215135)]),
        (42, 3, "deflation", [(6.4655345810394685e-06, 4.066207780879484),
                              (7.861003982692109e-05, 6.14175421063719)]),
        (42, 4, "deflation", [(4.9318876944016716e-05, 5.8024766737374724),
                              (-4.008890302515818e-05, 3.9499229811751477)]),
        (42, 323, "pair", [(0.1389648108940638, 4.837636809062943),
                           (-0.14581894967151224, 5.063166052191361)]),
        (7, 350, "pair", [(-0.1466565055459237, 4.304783464450319),
                          (0.12945954544489302, 4.49140360296933)]),
    ]
    for base_seed, trial, route, positions in pinned:
        seed = derive_trial_seed(base_seed, "nf_localize", 0, trial)
        snap = snapshot(spec.array, spec.targets, 30.0, seed, model=spec.steering_model)
        result = localize(snap, spec.array, 2)
        assert result.route == route, (base_seed, trial)
        for t, expected in zip(result.targets, positions):
            assert tuple(t.position) == pytest.approx(expected, rel=0, abs=1e-9), (
                base_seed,
                trial,
            )


def test_range_split_is_anchored_on_a_greedy_pick_bearing(monkeypatch):
    # the range split centres its whole-crest rungs on the bearing of a
    # greedy pick, not on the envelope direction the comb scan starts from
    spec = builtin_scenarios()["fig4_near_b"]
    picks = _record_calls(monkeypatch, nf_localizer, "_pick_position")
    envelopes = _record_calls(monkeypatch, nf_localizer, "_envelope_direction")
    anchors = []
    split = nf_localizer._range_split_positions

    def recorded(y, cfg, u_center):
        anchors.append((u_center, list(picks), list(envelopes)))
        return split(y, cfg, u_center)

    monkeypatch.setattr(nf_localizer, "_range_split_positions", recorded)
    for trial in (2, 3, 4):
        seed = derive_trial_seed(42, "nf_localize", 0, trial)
        snap = snapshot(spec.array, spec.targets, 30.0, seed, model=spec.steering_model)
        assert localize(snap, spec.array, 2).route == "deflation"
    assert len(anchors) >= 3
    for u_center, picked, scanned in anchors:
        assert u_center in [float(p[0] / math.hypot(p[0], p[1])) for p in picked[-2:]]
        assert u_center not in scanned


def test_localize_fallback_weighs_deflation_against_the_triangulated_pairs(monkeypatch):
    cfg, snap = _fig4_near_a_snapshot(30.0, seed=3)
    assoc = associate(*local_doas(snap, cfg, 2)[:2], snap, cfg)
    _, pair_res = nf_localizer._polish(snap.astype(complex), cfg, list(assoc.positions))
    assert pair_res < assoc.residual
    monkeypatch.setattr(nf_localizer, "_pair_gate", lambda *args: -1.0)
    far = [np.array([-20.0, 100.0]), np.array([20.0, 100.0])]
    # deflation beats the triangulated pairs, though not the polished ones
    between = 0.5 * (pair_res + assoc.residual)
    monkeypatch.setattr(nf_localizer, "_matched_filter_positions", lambda *a: (far, between))
    result = localize(snap, cfg, 2)
    assert result.route == "deflation"
    assert all(t.pair is None for t in result.targets)
    assert result.residual == between
    # the triangulated pairs win and are reported as triangulated
    above = 1.01 * assoc.residual
    monkeypatch.setattr(nf_localizer, "_matched_filter_positions", lambda *a: (far, above))
    result = localize(snap, cfg, 2)
    assert result.route == "pair"
    reported = sorted(tuple(t.position) for t in result.targets)
    assert reported == sorted(tuple(p) for p in assoc.positions)
    assert result.residual == assoc.residual


def test_range_split_zero_width_band_has_no_pair(paper_cfg, monkeypatch):
    # one range repeated: every same-bearing pair is one atom twice
    monkeypatch.setattr(nf_localizer, "_range_band", lambda cfg: (5.0, 5.0))
    truth = _polar(5.0, 0.0)
    y = nearfield_atoms(paper_cfg, truth[0], truth[1])[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _range_split_positions(y, paper_cfg, 0.0) == (None, math.inf)


def test_range_split_beyond_the_field_edge_has_no_pair(paper_cfg):
    # a polished pick can end beyond the scanned field, where every rung
    # of its ladder is cut
    y = np.ones(paper_cfg.n_elements, dtype=complex)
    u_center = FIELD_EDGE_U + (COMB_LADDER + 1) * _ridge_spacing_u(paper_cfg)
    assert _range_split_positions(y, paper_cfg, u_center) == (None, math.inf)


def test_comb_grid_is_built_once_and_read_only(paper_cfg):
    spacing = _ridge_spacing_u(paper_cfg)
    lo, hi = _range_band(paper_cfg)
    us = _envelope_grid(paper_cfg)[0]
    for u_center in (float(us[0]), float(us[60]), float(us[-1])):
        pts, filters = _comb_grid(paper_cfg, u_center)
        assert _comb_grid(paper_cfg, u_center)[1] is filters
        assert not pts.flags.writeable and not filters.flags.writeable
        ladder = u_center + np.arange(-2 * COMB_LADDER, 2 * COMB_LADDER + 1) * (spacing / 2.0)
        fresh = _grid_positions(
            ladder[np.abs(ladder) < FIELD_EDGE_U], np.geomspace(lo, hi, RANGE_SCAN_POINTS)
        )
        assert np.array_equal(pts, fresh)
        assert np.array_equal(filters, nearfield_atoms(paper_cfg, fresh[:, 0], fresh[:, 1]).conj())


def test_comb_grid_keeps_eight_envelope_directions(paper_cfg):
    assert _comb_grid.cache_info().maxsize == 8
    us = _envelope_grid(paper_cfg)[0]
    _comb_grid.cache_clear()
    for u_center in us[:8]:
        _comb_grid(paper_cfg, float(u_center))
    # the first of eight directions is still held
    _comb_grid(paper_cfg, float(us[0]))
    info = _comb_grid.cache_info()
    assert (info.hits, info.misses) == (1, 8)
    # a pick whose envelope direction repeats reads the grid it built
    rng = np.random.default_rng(11)
    y = rng.normal(size=paper_cfg.n_elements) + 1j * rng.normal(size=paper_cfg.n_elements)
    _comb_grid.cache_clear()
    first = nf_localizer._pick_position(y, paper_cfg)
    again = nf_localizer._pick_position(y, paper_cfg)
    info = _comb_grid.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert np.array_equal(first, again)


def test_comb_grid_and_range_split_read_one_range_ladder(paper_cfg, monkeypatch):
    lo, hi = _range_band(paper_cfg)
    ladder = _range_ladder(lo, hi)
    assert _range_ladder(lo, hi)[0] is ladder[0]
    assert not any(arr.flags.writeable for arr in ladder)
    ranges, ii, jj, flat = ladder
    assert np.array_equal(ranges, np.geomspace(lo, hi, RANGE_SCAN_POINTS))
    fresh_ii, fresh_jj = np.triu_indices(RANGE_SCAN_POINTS, k=1)
    assert np.array_equal(ii, fresh_ii) and np.array_equal(jj, fresh_jj)
    square = np.arange(RANGE_SCAN_POINTS**2).reshape(RANGE_SCAN_POINTS, -1)
    assert np.array_equal(square.take(flat), square[fresh_ii, fresh_jj])
    # both scans of one trial get that same array
    read = _record_calls(monkeypatch, nf_localizer, "_range_ladder")
    _comb_grid.cache_clear()
    rng = np.random.default_rng(3)
    y = rng.normal(size=paper_cfg.n_elements) + 1j * rng.normal(size=paper_cfg.n_elements)
    nf_localizer._pick_position(y, paper_cfg)
    pair, _ = _range_split_positions(y, paper_cfg, 0.0)
    assert pair is not None
    assert len(read) == 2
    assert all(out[0] is ranges for out in read)
