"""Acceptance gate: one test per shipped-behavior criterion.

Each ``test_criterion_*`` function asserts a complete criterion with its
stated tolerances and wall-clock budget, so a verbose run prints one
pass/fail line per criterion.  The Monte Carlo sweeps behind criteria 2
and 3 run once per session in fixtures.

Criterion 3 is expected to fail on the stacked-boresight scenario and is
left failing on purpose: at that noise level the joint position
uncertainty floor sits above the pass threshold (details in the
assertion message), so a green result there would mean the metric is
broken, not that the estimator is good.
"""

import cmath
import math
import time

import numpy as np
import pytest

from elaa_doa.geometry import ArrayConfig, Target, field_regions, local_geometry
from elaa_doa.harness import (
    _run_cell,
    derive_trial_seed,
    hit_rate,
    match_errors,
    render_metrics_csv,
    rmse,
    run_monte_carlo,
)
from elaa_doa.nf_localizer import _polish, localize, triangulate
from elaa_doa.scenarios import ScenarioSpec, builtin_scenarios
from elaa_doa.signal_model import (
    SteeringModel,
    snapshot,
    split_ulas,
    steering,
    steering_exact,
    steering_farfield,
)
from elaa_doa.ss_esprit import (
    alias_rungs,
    estimate_doa_esprit,
    pair_eigenvalues,
)
from elaa_doa.ss_music import estimate_doa_music
from elaa_doa.subspace import hankel, split_subspaces, stacked_subspace

ANGLE_TOL_DEG = 1e-3
POSITION_TOL_M = 1e-3


@pytest.fixture(scope="session")
def fig3_rows():
    """Full far-field sweeps: 4 algorithms x 9 SNR points x 500 trials."""
    specs = builtin_scenarios()
    start = time.monotonic()
    rows = {
        name: run_monte_carlo(specs[name])
        for name in ("fig3_small_sep", "fig3_large_sep")
    }
    return rows, time.monotonic() - start


@pytest.fixture(scope="session")
def fig4_trials():
    """Near-field localization trials with per-trial estimates kept.

    Replays exactly the harness seeding so the aggregate numbers match a
    CLI run, but keeps each trial's estimate so association correctness
    can be scored alongside the hit rate.
    """
    out = {}
    start = time.monotonic()
    for name in ("fig4_near_a", "fig4_near_b"):
        spec = builtin_scenarios()[name]
        truth = np.array([t.position for t in spec.targets])
        estimates = []
        for trial in range(spec.n_trials):
            seed = derive_trial_seed(spec.base_seed, "nf_localize", 0, trial)
            snap = snapshot(
                spec.array, spec.targets, spec.snr_grid_db[0], seed, model=spec.steering_model
            )
            ((est, _, _),) = _run_cell("nf_localize", [snap], spec)
            estimates.append(est)
        out[name] = (estimates, truth)
    return out, time.monotonic() - start


def _far_range(cfg):
    return 1.5 * field_regions(cfg).fraunhofer


def test_criterion_1_noiseless_oracles(paper_cfg):
    """Every estimator reproduces noiseless truths to 1e-3 deg / 1 mm."""
    start = time.monotonic()
    r = _far_range(paper_cfg)
    for angles_deg in ([3.17], [-5.03, 4.96]):
        k = len(angles_deg)
        targets = [Target(range=r, angle=math.radians(a)) for a in angles_deg]
        snap = snapshot(paper_cfg, targets, math.inf, seed=101 + k)
        est, _ = estimate_doa_esprit(snap, paper_cfg, k)
        assert np.degrees(est) == pytest.approx(angles_deg, abs=ANGLE_TOL_DEG)
        for ula in (None, 1, 2):
            est = estimate_doa_music(snap, paper_cfg, k, ula=ula)
            assert np.degrees(np.sort(est)) == pytest.approx(
                angles_deg, abs=ANGLE_TOL_DEG
            ), f"music ula={ula} at {angles_deg}"

    near_cases = [
        [(0.2, 5.0)],
        [(-10.0, 5.0), (10.0, 5.0)],
        [(0.0, 4.0), (0.0, 6.0)],
    ]
    for case in near_cases:
        targets = [Target(range=rr, angle=math.radians(a)) for a, rr in case]
        truth = np.array([t.position for t in targets])
        snap = snapshot(paper_cfg, targets, math.inf, seed=200 + len(case))
        result = localize(snap, paper_cfg, len(case))
        positions = np.array([t.position for t in result.targets])
        assert np.all(match_errors(positions, truth) < POSITION_TOL_M), case
    assert time.monotonic() - start < 10.0


def _curve(rows, algorithm):
    pts = sorted((r for r in rows if r.algorithm == algorithm), key=lambda r: r.snr_db)
    assert all(r.rmse is not None for r in pts)
    return pts


def _upward_steps(pts, n_targets):
    """(significant inversions, worst upward ratio) along an RMSE curve.

    An upward step only counts as an inversion when it clears two
    standard errors; the SE of an RMSE over N matched errors is taken as
    rmse / sqrt(2 N) (normal-theory delta method, within ~15% of
    bootstrap values for these curves).  Sub-noise wiggles on flat
    failed-regime plateaus are thereby ignored, but every upward step,
    significant or not, stays bounded by the 10% magnitude cap asserted
    by the caller.
    """
    significant = 0
    worst_ratio = 1.0
    for a, b in zip(pts, pts[1:]):
        if b.rmse <= a.rmse:
            continue
        worst_ratio = max(worst_ratio, b.rmse / a.rmse)

        def se(row):
            n = n_targets * row.n_trials * (1.0 - row.failure_rate)
            return row.rmse / math.sqrt(max(2.0 * n, 1.0))

        z = (b.rmse - a.rmse) / math.hypot(se(a), se(b))
        if z > 2.0:
            significant += 1
    return significant, worst_ratio


def test_criterion_2_farfield_trends(fig3_rows):
    """Resolution and accuracy trends across the far-field SNR sweeps."""
    rows, elapsed = fig3_rows
    assert elapsed < 600.0, f"far-field sweeps took {elapsed:.0f} s"
    small, large = rows["fig3_small_sep"], rows["fig3_large_sep"]

    # (a) the long-baseline rotation beats the fused spectrum on the
    #     0.4 degree pair at and above 20 dB, by >= 10 points at 30 dB
    esprit = {r.snr_db: r.hit_rate for r in _curve(small, "ss_esprit")}
    music = {r.snr_db: r.hit_rate for r in _curve(small, "ss_music_elaa")}
    for snr in (20.0, 25.0, 30.0, 35.0, 40.0):
        assert esprit[snr] >= music[snr], (
            f"hit rate at {snr} dB: esprit {esprit[snr]:.3f} < music {music[snr]:.3f}"
        )
    assert esprit[30.0] - music[30.0] >= 0.10, (
        f"30 dB hit-rate gap {esprit[30.0] - music[30.0]:.3f} below 0.10"
    )

    # (b) the 10 degree pair is easy for everyone at and above 20 dB
    for algo in ("ss_esprit", "ss_music_elaa", "ss_music_ula1", "ss_music_ula2"):
        for r in _curve(large, algo):
            if r.snr_db >= 20.0:
                assert r.hit_rate >= 0.99, (
                    f"{algo} at {r.snr_db} dB: hit {r.hit_rate:.3f}"
                )

    # (c) RMSE falls with SNR: per curve at most one significant
    #     inversion, and no upward step beyond 10%
    for name, scenario_rows in rows.items():
        for algo in ("ss_esprit", "ss_music_elaa", "ss_music_ula1", "ss_music_ula2"):
            pts = _curve(scenario_rows, algo)
            significant, worst = _upward_steps(pts, n_targets=2)
            assert significant <= 1, (
                f"{name}/{algo}: {significant} significant RMSE inversions"
            )
            assert worst <= 1.10, f"{name}/{algo}: upward RMSE step x{worst:.3f}"


def _association_rate(estimates, truth):
    # correct association: every estimate lands in its own target's bin,
    # gated at half the smallest inter-target distance
    gaps = [
        float(np.linalg.norm(truth[i] - truth[j]))
        for i in range(len(truth))
        for j in range(i + 1, len(truth))
    ]
    gate = 0.5 * min(gaps)
    good = sum(
        1
        for est in estimates
        if est is not None and bool(np.all(match_errors(est, truth) <= gate))
    )
    return good / len(estimates)


def test_criterion_3_nearfield_hit_rates(fig4_trials):
    """Both near-field targets within 0.1 m, correctly associated, 95%."""
    trials, elapsed = fig4_trials
    assert elapsed < 120.0, f"near-field trials took {elapsed:.0f} s"

    results = {}
    for name, (estimates, truth) in trials.items():
        errors = [None if est is None else match_errors(est, truth) for est in estimates]
        results[name] = (hit_rate(errors, 0.1), _association_rate(estimates, truth))

    hit_a, assoc_a = results["fig4_near_a"]
    assert hit_a >= 0.95, f"fig4_near_a hit rate {hit_a:.3f}"
    assert assoc_a >= 0.95, f"fig4_near_a association rate {assoc_a:.3f}"

    hit_b, assoc_b = results["fig4_near_b"]
    assert hit_b >= 0.95 and assoc_b >= 0.95, (
        f"fig4_near_b: hit rate {hit_b:.3f}, association rate {assoc_b:.3f}, "
        "threshold 0.95 each. This is a statistical floor, not an estimator "
        "bug: with both returns stacked on boresight at 30 dB per-element "
        "SNR, the joint position uncertainty (Cramer-Rao, median over "
        "nuisance phases) is 0.12 m for the 4 m target and 0.26 m for the "
        "6 m target, and a maximum-likelihood polish initialized at the "
        "true positions lands both inside 0.1 m in only 20% of trials "
        "(101 of 500, test_truth_seeded_polish_hits_a_fifth_of_fig4_near_b). "
        "The criterion is asserted as stated and left honestly red."
    )


def test_truth_seeded_polish_hits_a_fifth_of_fig4_near_b():
    """The maximum-likelihood reference behind criterion 3's message.

    The joint polish, started at the true positions of every trial of
    ``fig4_near_b`` (the criterion's seeds), places both targets within
    0.1 m in about a fifth of the trials: the snapshot, not the search,
    limits the hit rate.
    """
    spec = builtin_scenarios()["fig4_near_b"]
    truth = np.array([t.position for t in spec.targets])
    hits = 0
    for trial in range(spec.n_trials):
        seed = derive_trial_seed(spec.base_seed, "nf_localize", 0, trial)
        snap = snapshot(
            spec.array, spec.targets, spec.snr_grid_db[0], seed, model=spec.steering_model
        )
        found, _ = _polish(snap.y.astype(complex), spec.array, list(truth))
        hits += bool(np.all(match_errors(np.array(found), truth) <= 0.1))
    assert (spec.n_trials, spec.base_seed) == (500, 42)
    assert abs(hits - 101) <= 5, hits


def test_criterion_4_property_checks(paper_cfg):
    """Deterministic spot checks of the model/algorithm invariants."""
    # steering vectors are unit modulus in every wavefront model
    t_near = Target(range=5.0, angle=0.3)
    t_far = Target(range=_far_range(paper_cfg), angle=-0.7)
    for entries in (
        steering_exact(paper_cfg, t_near),
        steering(paper_cfg, t_near, model=SteeringModel.NF_LOCAL_PLANAR),
        steering_farfield(paper_cfg, t_far.angle),
        steering(paper_cfg, t_far),
    ):
        assert np.abs(entries) == pytest.approx(1.0, abs=1e-12)

    # locally planar phase error under pi/8 at 10x the far-field boundary
    r10 = 10.0 * field_regions(paper_cfg).fraunhofer
    tgt = Target(range=r10, angle=0.2)
    exact = steering_exact(paper_cfg, tgt)
    planar = steering(paper_cfg, tgt, model=SteeringModel.NF_LOCAL_PLANAR)
    mismatch = exact * np.conj(planar)
    mismatch *= np.conj(mismatch[0] / abs(mismatch[0]))
    assert np.max(np.abs(np.angle(mismatch))) < math.pi / 8.0

    # Hankel lifting is linear and exact rank K on K-source snapshots
    rng = np.random.default_rng(3)
    y1 = rng.normal(size=16) + 1j * rng.normal(size=16)
    y2 = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.allclose(
        hankel(2.0 * y1 + 3.0 * y2, 8), 2.0 * hankel(y1, 8) + 3.0 * hankel(y2, 8)
    )
    for k, angles in ((1, [4.0]), (2, [-3.0, 2.0]), (3, [-6.0, 1.0, 5.0])):
        targets = [
            Target(range=_far_range(paper_cfg), angle=math.radians(a)) for a in angles
        ]
        snap = snapshot(paper_cfg, targets, math.inf, seed=40 + k)
        s = np.linalg.svd(hankel(split_ulas(snap.y)[0], 8), compute_uv=False)
        assert s[k - 1] > 1e6 * s[k], f"rank defect for K={k}"
        assert np.all(s[k:] < 1e-10 * s[0]), f"rank excess for K={k}"

    # subspace bases are orthonormal and mutually orthogonal
    sub = split_subspaces(hankel(split_ulas(snap.y)[0], 8), 3)
    eye_s = sub.signal.conj().T @ sub.signal
    eye_n = sub.noise.conj().T @ sub.noise
    assert np.allclose(eye_s, np.eye(eye_s.shape[0]), atol=1e-10)
    assert np.allclose(eye_n, np.eye(eye_n.shape[0]), atol=1e-10)
    assert np.linalg.norm(sub.signal.conj().T @ sub.noise) < 1e-10

    # both shift-invariance rotations have unit-modulus eigenvalues on
    # noiseless data
    two = snapshot(
        paper_cfg,
        [Target(range=_far_range(paper_cfg), angle=a) for a in (-0.05, 0.12)],
        math.inf,
        seed=47,
    )
    ya, yb = split_ulas(two.y)
    basis = stacked_subspace(ya, yb, 8, 2).signal
    coarse, fine, _ = pair_eigenvalues(basis)
    assert np.abs(coarse) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(fine) == pytest.approx(1.0, abs=1e-9)

    # half-wavelength baseline: one candidate, exact; long baseline:
    # floor(2 * delta / wavelength) candidates give or take one (the q
    # windows reach past either end of each lattice)
    for u in (-0.9, -0.33, 0.0, 0.51):
        eig = cmath.exp(1j * math.pi * u)
        ((_, angle),) = alias_rungs(eig, 0.5, -2, 2)
        assert angle == pytest.approx(math.asin(u), abs=1e-12)
    for nu in (0.0, 0.25, 0.37, 0.5):
        eig = cmath.exp(2j * math.pi * nu)
        assert abs(len(alias_rungs(eig, 165.0, -167, 167)) - 330) <= 1

    # triangulation inverts the local-bearing geometry exactly
    for r, ang in ((2.0, -0.4), (5.0, 0.0), (40.0, 0.7)):
        geo = local_geometry(paper_cfg, Target(range=r, angle=ang))
        point = triangulate((float(geo.angles[0]), float(geo.angles[1])), paper_cfg)
        assert point == pytest.approx(
            [r * math.sin(ang), r * math.cos(ang)], rel=1e-9, abs=1e-9
        )

    # metric hand cases
    truth = np.array([0.0, 1.0])
    assert rmse([match_errors(np.array([0.3, 1.4]), truth)]) == pytest.approx(0.3535533905932738)
    assert rmse([None, None]) is None
    assert hit_rate([match_errors(np.array([0.5, 1.0]), truth), None], 0.5) == pytest.approx(0.5)

    # identical runs render byte-identical result tables
    spec = ScenarioSpec(
        name="repeat",
        array=paper_cfg,
        targets=(Target(range=_far_range(paper_cfg), angle=0.02),),
        snr_grid_db=(15.0,),
        n_trials=3,
        algorithms=("ss_esprit",),
    )
    assert render_metrics_csv(run_monte_carlo(spec)) == render_metrics_csv(
        run_monte_carlo(spec)
    )


def test_criterion_5_dealias_stress(paper_cfg):
    """1000 random bearings at 40 dB: the alias rung choice is reliable.

    Correct means the direction-sine error stays under half the alias
    rung spacing, wavelength / (2 * center separation); a miss must be
    accounted for, either flagged as an ambiguity failure or carrying a
    coarse estimate that was itself off by more than half a rung.
    """
    n = 1000
    r = _far_range(paper_cfg)
    half_rung = paper_cfg.wavelength / (2.0 * paper_cfg.center_separation)
    rng = np.random.default_rng(61)
    angles = np.radians(rng.uniform(-60.0, 60.0, size=n))
    correct = 0
    untraceable = []
    for i, truth in enumerate(angles):
        seed = derive_trial_seed(20250814, "dealias_stress", 0, i)
        snap = snapshot(paper_cfg, [Target(range=r, angle=float(truth))], 40.0, seed)
        try:
            est, diag = estimate_doa_esprit(snap, paper_cfg, 1)
        except Exception as exc:  # flagged failures are acceptable
            assert type(exc).__name__ == "AmbiguousDealias", exc
            continue
        if abs(math.sin(est[0]) - math.sin(truth)) < half_rung:
            correct += 1
        elif abs(math.sin(diag.coarse_angles[0]) - math.sin(truth)) <= half_rung:
            untraceable.append(i)
    assert not untraceable, f"silent wrong-rung picks at trials {untraceable}"
    assert correct / n >= 0.995, f"correct rung rate {correct / n:.4f}"


def test_criterion_6_geometry_identities():
    """Pinned layout numbers, plus the doubled-spacing reading of them.

    The quoted companion values (a 165-wavelength fine baseline, a
    255.7 m far-field boundary) follow from taking the element spacing
    as a full wavelength, which doubles each module's aperture to 15
    wavelengths.  The as-built half-wavelength numbers are asserted
    exactly alongside them, so this test is the record of the mismatch:
    the package keeps the half-wavelength layout, and the quoted values
    hold only under the doubled-spacing reading.
    """
    lam = 299792458.0 / 76e9
    cfg = ArrayConfig(elements_per_ula=16, gap=150.0 * lam, carrier_freq=76e9)

    assert cfg.gap == pytest.approx(0.5917, rel=0.01)
    assert cfg.sub_aperture == pytest.approx(7.5 * lam)
    assert cfg.center_separation == pytest.approx(157.5 * lam)
    assert cfg.total_aperture == pytest.approx(165.0 * lam)

    reg = field_regions(cfg)
    assert reg.fraunhofer == pytest.approx(2.0 * (165.0 * lam) ** 2 / lam)
    assert reg.fraunhofer == pytest.approx(214.93, rel=1e-3)

    # doubled-spacing reading: 15-wavelength modules make the center
    # separation 150 + 15 = 165 wavelengths and the end-to-end aperture
    # 180, whose Fraunhofer distance is the quoted 255.7 m
    doubled_sub = (cfg.elements_per_ula - 1) * lam
    assert doubled_sub == pytest.approx(15.0 * lam)
    assert 150.0 * lam + doubled_sub == pytest.approx(165.0 * lam)
    alt_fraunhofer = 2.0 * (150.0 * lam + 2.0 * doubled_sub) ** 2 / lam
    assert alt_fraunhofer == pytest.approx(64800.0 * lam)
    assert alt_fraunhofer == pytest.approx(255.7, rel=1e-3)
