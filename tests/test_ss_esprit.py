import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elaa_doa import ss_esprit
from elaa_doa.errors import AmbiguousDealias, IllConditioned
from elaa_doa.geometry import SPEED_OF_LIGHT, ArrayConfig, Target, field_regions
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_esprit import (
    ASIN_CLAMP,
    TIE_FRACTION,
    DealiasReport,
    _coarse_angle,
    alias_rungs,
    dealias,
    estimate_doa_esprit,
    pair_eigenvalues,
    solve_psi,
)
from elaa_doa.subspace import stacked_subspace


def _all_rungs(xi, ratio):
    """Reference: every visible rung, from a q window wider than the lattice."""
    reach = math.ceil(ratio) + 1
    return alias_rungs(xi, ratio, -reach, reach)


def _eig(nu):
    return cmath.exp(2j * math.pi * nu)


def test_shift_rows(paper_cfg, monkeypatch):
    # label each row of a one-column basis by its index and record the
    # row selections handed to the rotation solver
    seen = []

    def recording_solve(ua, ub):
        # one trial: a chunk of one
        seen.append((tuple(ua[0, :, 0].real.astype(int)), tuple(ub[0, :, 0].real.astype(int))))
        return solve_psi(ua, ub)

    monkeypatch.setattr(ss_esprit, "solve_psi", recording_solve)
    pair_eigenvalues(np.arange(8, dtype=complex)[:, None])
    (coarse_a, coarse_b), (fine_a, fine_b) = seen
    assert coarse_a == (0, 1, 2, 4, 5, 6)
    assert coarse_b == (1, 2, 3, 5, 6, 7)
    assert fine_a == (0, 1, 2, 3)
    assert fine_b == (4, 5, 6, 7)


def test_shift_baselines(paper_cfg):
    # the coarse shift spans one element spacing, the fine one the
    # sub-array center separation
    theta = math.radians(2.0)
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [2.0]), math.inf, seed=4)
    y1, y2 = split_ulas(snap)
    coarse, fine, _ = pair_eigenvalues(stacked_subspace(y1, y2, 3, 1).signal)
    for eig, delta in ((coarse, paper_cfg.spacing), (fine, paper_cfg.center_separation)):
        expected = cmath.exp(2j * math.pi * delta / paper_cfg.wavelength * math.sin(theta))
        assert abs(np.angle(eig[0] / expected)) < 1e-9


def test_solve_psi_recovers_rotation():
    rng = np.random.default_rng(7)
    top = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    phi = np.diag(np.exp(1j * np.array([0.4, -1.1])))
    basis = np.vstack([top, top @ phi])
    psi, ill = solve_psi(basis[:4], basis[4:])
    assert not ill
    assert np.allclose(psi, phi, atol=1e-12)


def _far_targets(cfg, angles_deg):
    r = 1.5 * field_regions(cfg).fraunhofer
    return [Target(range=r, angle=math.radians(a)) for a in angles_deg]


def test_eigenvalues_unit_modulus_noiseless(paper_cfg):
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [-3.0, 7.5]), math.inf, seed=5)
    y1, y2 = split_ulas(snap)
    sub = stacked_subspace(y1, y2, 8, 2)
    coarse, fine, quality = pair_eigenvalues(sub.signal)
    assert np.abs(coarse) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(fine) == pytest.approx(1.0, abs=1e-9)
    assert quality < 1e-18


@given(st.floats(min_value=-0.999, max_value=0.999))
def test_coarse_candidate_unique_at_half_wavelength(u):
    # one spacing of half a wavelength leaves a single visible candidate,
    # and it reproduces the direction exactly
    ((_, angle),) = _all_rungs(_eig(0.5 * u), 0.5)
    assert angle == pytest.approx(math.asin(u), abs=1e-12)


@given(st.floats(min_value=-0.5, max_value=0.5))
def test_candidate_count_law(nu):
    # baseline of 165 wavelengths: the alias lattice has floor(2 * 165)
    # visible points, give or take one depending on the phase
    eig = _eig(nu)
    rungs = _all_rungs(eig, 165.0)
    phase = float(np.angle(eig)) / (2.0 * math.pi)
    q_lo, q_hi = math.ceil(-165.0 - phase), math.floor(165.0 - phase)
    assert len(rungs) == q_hi - q_lo + 1
    assert abs(len(rungs) - 330) <= 1
    assert [q for q, _ in rungs] == list(range(q_lo, q_hi + 1))
    assert np.all(np.diff([angle for _, angle in rungs]) > 0)


def test_candidate_count_actual_center_separation(paper_cfg):
    ratio = paper_cfg.center_separation / paper_cfg.wavelength
    assert ratio == pytest.approx(157.5)
    assert abs(len(_all_rungs(cmath.exp(1j * 0.77), ratio)) - 315) <= 1


def test_alias_rungs_rejects_zero():
    with pytest.raises(ValueError):
        alias_rungs(0.0 + 0.0j, 0.5, -1, 1)


def test_dealias_picks_nearest():
    # ten wavelengths, zero phase: rungs at sin = q / 10
    picked, reports = dealias(np.array([0.1]), np.array([_eig(0.0)]), 10.0)
    assert picked[0] == math.asin(0.1)
    assert reports[0].alias_index == 1
    assert reports[0].disagreement == pytest.approx(math.asin(0.1) - 0.1)
    # the runner-up is rung 0 at broadside, 0.1 rad away
    assert reports[0].margin == pytest.approx(0.2 - math.asin(0.1))


def test_dealias_tie_raises():
    midway = 0.5 * (math.asin(0.1) + math.asin(0.2))
    with pytest.raises(AmbiguousDealias, match="alias tie"):
        dealias(np.array([midway]), np.array([_eig(0.0)]), 10.0)


def test_dealias_single_candidate_margin():
    picked, reports = dealias(np.array([0.3]), np.array([_eig(0.14)]), 0.5)
    assert picked[0] == pytest.approx(math.asin(0.28))
    assert math.isinf(reports[0].margin)


def test_dealias_empty_lattice_raises():
    # a tenth of a wavelength cannot explain a phase fraction of 0.3
    assert _all_rungs(_eig(0.3), 0.1) == []
    with pytest.raises(AmbiguousDealias, match="no visible-region candidate"):
        dealias(np.array([0.0]), np.array([_eig(0.3)]), 0.1)


def test_dealias_length_mismatch():
    with pytest.raises(ValueError):
        dealias(np.array([0.1, 0.2]), np.array([_eig(0.0)]), 10.0)


def _full_lattice_dealias(theta_c, xi, ratio, tie_fraction):
    """Reference: nearest rung by a scan of every visible rung."""
    rungs = _all_rungs(xi, ratio)
    if not rungs:
        raise AmbiguousDealias("no visible-region candidate for eigenvalue")
    angles = np.array([angle for _, angle in rungs])
    dist = np.abs(angles - theta_c)
    order = np.argsort(dist, kind="stable")
    best = int(order[0])
    if len(angles) > 1:
        second = int(order[1])
        spacing = float(np.min(np.abs(np.delete(angles, best) - angles[best])))
        margin = float(dist[second] - dist[best])
        if margin < tie_fraction * spacing:
            raise AmbiguousDealias(
                f"alias tie: margin {margin:.3e} rad below "
                f"{tie_fraction:.0%} of spacing {spacing:.3e} rad"
            )
    else:
        margin = math.inf
    report = DealiasReport(
        alias_index=rungs[best][0], disagreement=float(dist[best]), margin=margin
    )
    return float(angles[best]), report


def _outcome(fn, error=AmbiguousDealias):
    try:
        return fn()
    except error as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def _dealias_case(draw):
    ratio = draw(st.sampled_from([157.5, 165.0, 10.0, 3.7, 1.25, 0.5, 0.1]))
    edge = ratio % 1.0
    nu = draw(
        st.one_of(
            st.floats(min_value=-0.5, max_value=0.5),
            # the top or bottom rung within ASIN_CLAMP of the arcsine edge
            st.floats(min_value=-ASIN_CLAMP, max_value=ASIN_CLAMP).map(lambda e: edge + e),
            st.floats(min_value=-ASIN_CLAMP, max_value=ASIN_CLAMP).map(lambda e: -edge + e),
        )
    )
    xi = _eig(nu)
    angles = [angle for _, angle in _all_rungs(xi, ratio)]
    half_pi = math.pi / 2.0
    options = [
        st.floats(min_value=-half_pi, max_value=half_pi),
        st.sampled_from([-half_pi, half_pi]),
        st.floats(min_value=0.0, max_value=1e-6).map(lambda d: half_pi - d),
        st.floats(min_value=0.0, max_value=1e-6).map(lambda d: d - half_pi),
    ]
    if angles:
        # on a rung, and midway between two (an exact alias tie)
        options.append(st.sampled_from(angles))
    if len(angles) > 1:
        options.append(
            st.integers(0, len(angles) - 2).map(lambda i: 0.5 * (angles[i] + angles[i + 1]))
        )
    theta_c = draw(st.one_of(options))
    tie_fraction = draw(st.sampled_from([0.0, TIE_FRACTION, 0.1, 0.5]))
    return theta_c, xi, ratio, tie_fraction


@settings(max_examples=400, deadline=None)
@given(_dealias_case())
def test_bracketed_dealias_matches_full_lattice(case):
    theta_c, xi, ratio, tie_fraction = case
    with mock.patch.object(ss_esprit, "TIE_FRACTION", tie_fraction):
        got = _outcome(lambda: dealias(np.array([theta_c]), np.array([xi]), ratio))
    want = _outcome(lambda: _full_lattice_dealias(theta_c, xi, ratio, tie_fraction))
    if want[0] == "AmbiguousDealias":
        assert got == want
    else:
        (angle,), (report,) = got
        assert (angle, report) == want


def _nearest_broadside(xi, ratio):
    """Reference: the whole lattice's rung nearest broadside, lower on a tie."""
    rungs = _all_rungs(xi, ratio)
    if not rungs:
        raise IllConditioned("coarse eigenvalue has no visible candidate")
    return min((abs(angle), angle) for _, angle in rungs)[1]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 0.75, 1.3, 2.0]),
    st.one_of(
        st.floats(min_value=-0.5, max_value=0.5).map(_eig),
        # phase fraction exactly +0.5 and -0.5: rungs at +-0.5 / ratio tie
        st.sampled_from([complex(-1.0, 0.0), complex(-1.0, -0.0)]),
    ),
)
@example(0.3, complex(-1.0, 0.0))
@example(1.3, complex(-1.0, -0.0))
def test_bracketed_coarse_pick_matches_full_lattice(ratio, xi):
    got = _outcome(lambda: _coarse_angle(xi, ratio), IllConditioned)
    assert got == _outcome(lambda: _nearest_broadside(xi, ratio), IllConditioned)
    if abs(np.angle(xi)) == math.pi:
        # an exact +-tie keeps the lower angle; 0.3 wavelengths cannot
        # explain a phase fraction of 0.5
        if ratio >= 0.5:
            assert got == -math.asin(0.5 / ratio)
        else:
            assert got == ("IllConditioned", "coarse eigenvalue has no visible candidate")


def test_esprit_noiseless_two_sources(paper_cfg):
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [-1.2, 1.2]), math.inf, seed=3)
    angles, diag = estimate_doa_esprit(snap, paper_cfg, 2)
    assert np.degrees(angles) == pytest.approx([-1.2, 1.2], abs=1e-7)
    assert np.degrees(diag.coarse_angles) == pytest.approx(
        sorted([-1.2, 1.2]), abs=0.5
    )
    assert len(diag.reports) == 2
    assert diag.pairing_quality < 1e-12


def test_esprit_close_pair_noiseless(paper_cfg):
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [-0.2, 0.2]), math.inf, seed=11)
    angles, _ = estimate_doa_esprit(snap, paper_cfg, 2)
    assert np.degrees(angles) == pytest.approx([-0.2, 0.2], abs=1e-6)


def test_esprit_source_count_validation(paper_cfg):
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [1.0]), math.inf, seed=1)
    with pytest.raises(ValueError):
        estimate_doa_esprit(snap, paper_cfg, 0)
    with pytest.raises(ValueError):
        estimate_doa_esprit(snap, paper_cfg, 9)
    # the reference pencil of 8 leaves 8 Hankel columns: at most 7 sources
    with pytest.raises(ValueError, match=r"\[1, 7\]"):
        estimate_doa_esprit(snap, paper_cfg, 8)


def test_esprit_wide_spacing_array_is_rejected():
    # above half a wavelength some directions have a grating lobe inside
    # the visible region: with a 1.3-wavelength spacing a 40 degree target
    # would fold onto the coarse rung near -7.26 degrees, so no such
    # array is built
    lam = SPEED_OF_LIGHT / 76e9
    with pytest.raises(ValueError, match="exceeds half the wavelength"):
        ArrayConfig(16, 150.0 * lam, wavelength=lam, spacing=1.3 * lam)
