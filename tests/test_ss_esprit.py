import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elaa_doa.errors import AmbiguousDealias
from elaa_doa.geometry import Target, field_regions
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_esprit import (
    ASIN_CLAMP,
    TIE_FRACTION,
    DealiasReport,
    alias_lattices,
    dealias,
    estimate_doa_esprit,
    pair_eigenvalues,
    selection_pairs,
    solve_psi,
)
from elaa_doa.subspace import stacked_subspace


def test_selection_pairs_rows(paper_cfg):
    pairs = selection_pairs(paper_cfg, 3)
    assert pairs.coarse.rows_a == (0, 1, 2, 4, 5, 6)
    assert pairs.coarse.rows_b == (1, 2, 3, 5, 6, 7)
    assert pairs.fine.rows_a == (0, 1, 2, 3)
    assert pairs.fine.rows_b == (4, 5, 6, 7)
    assert pairs.coarse.delta == paper_cfg.spacing
    assert pairs.fine.delta == paper_cfg.center_separation
    with pytest.raises(ValueError):
        selection_pairs(paper_cfg, 0)


def test_solve_psi_recovers_rotation(paper_cfg):
    rng = np.random.default_rng(7)
    top = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    phi = np.diag(np.exp(1j * np.array([0.4, -1.1])))
    basis = np.vstack([top, top @ phi])
    pair = selection_pairs(paper_cfg, 3).fine
    psi = solve_psi(basis, pair)
    assert np.allclose(psi, phi, atol=1e-12)


def _far_targets(cfg, angles_deg):
    r = 1.5 * field_regions(cfg).fraunhofer
    return [Target(range=r, angle=math.radians(a)) for a in angles_deg]


def test_eigenvalues_unit_modulus_noiseless(paper_cfg):
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, [-3.0, 7.5]), math.inf, seed=5)
    y1, y2 = split_ulas(snap.y)
    sub = stacked_subspace(y1, y2, 8, 2)
    pairs = selection_pairs(paper_cfg, 8)
    coarse, fine, quality = pair_eigenvalues(sub.signal, pairs.coarse, pairs.fine)
    assert np.abs(coarse) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(fine) == pytest.approx(1.0, abs=1e-9)
    assert quality < 1e-18


@given(st.floats(min_value=-0.999, max_value=0.999))
def test_coarse_candidate_unique_at_half_wavelength(u):
    # one spacing of half a wavelength leaves a single visible candidate,
    # and it reproduces the direction exactly
    eig = cmath.exp(1j * 2.0 * math.pi * 0.5 * u)
    (lat,) = alias_lattices(np.array([eig]), 0.5, 1.0)
    ((_, angle),) = lat.rungs(lat.q_lo, lat.q_hi)
    assert angle == pytest.approx(math.asin(u), abs=1e-12)


@given(st.floats(min_value=-0.5, max_value=0.5))
def test_candidate_count_law(nu):
    # baseline of 165 wavelengths: the alias lattice has floor(2 * 165)
    # visible points, give or take one depending on the phase
    eig = cmath.exp(1j * 2.0 * math.pi * nu)
    (lat,) = alias_lattices(np.array([eig]), 165.0, 1.0)
    rungs = lat.rungs(lat.q_lo, lat.q_hi)
    assert len(rungs) == lat.q_hi - lat.q_lo + 1
    assert abs(len(rungs) - 330) <= 1
    assert [q for q, _ in rungs] == list(range(lat.q_lo, lat.q_hi + 1))
    assert np.all(np.diff([angle for _, angle in rungs]) > 0)


def test_candidate_count_actual_center_separation(paper_cfg):
    ratio = paper_cfg.center_separation / paper_cfg.wavelength
    assert ratio == pytest.approx(157.5)
    eig = cmath.exp(1j * 0.77)
    (lat,) = alias_lattices(np.array([eig]), paper_cfg.center_separation, paper_cfg.wavelength)
    assert abs(len(lat.rungs(lat.q_lo, lat.q_hi)) - 315) <= 1


def test_alias_lattices_rejects_zero():
    with pytest.raises(ValueError):
        alias_lattices(np.array([0.0 + 0.0j]), 0.5, 1.0)


def _lattice(ratio, nu=0.0):
    (lat,) = alias_lattices(np.array([cmath.exp(2j * math.pi * nu)]), ratio, 1.0)
    return lat


def test_dealias_picks_nearest():
    # ten wavelengths, zero phase: rungs at sin = q / 10
    picked, reports = dealias(np.array([0.1]), [_lattice(10.0)])
    assert picked[0] == math.asin(0.1)
    assert reports[0].alias_index == 1
    assert reports[0].disagreement == pytest.approx(math.asin(0.1) - 0.1)
    # the runner-up is rung 0 at broadside, 0.1 rad away
    assert reports[0].margin == pytest.approx(0.2 - math.asin(0.1))


def test_dealias_tie_raises():
    midway = 0.5 * (math.asin(0.1) + math.asin(0.2))
    with pytest.raises(AmbiguousDealias, match="alias tie"):
        dealias(np.array([midway]), [_lattice(10.0)])


def test_dealias_single_candidate_margin():
    picked, reports = dealias(np.array([0.3]), [_lattice(0.5, 0.14)])
    assert picked[0] == pytest.approx(math.asin(0.28))
    assert math.isinf(reports[0].margin)


def test_dealias_empty_lattice_raises():
    # a tenth of a wavelength cannot explain a phase fraction of 0.3
    lat = _lattice(0.1, 0.3)
    assert lat.q_lo > lat.q_hi
    with pytest.raises(AmbiguousDealias, match="no visible-region candidate"):
        dealias(np.array([0.0]), [lat])


def test_dealias_length_mismatch():
    with pytest.raises(ValueError):
        dealias(np.array([0.1, 0.2]), [_lattice(10.0)])


def _full_lattice_dealias(theta_c, lattice, tie_fraction):
    """Reference: nearest rung by a scan of every visible rung."""
    rungs = lattice.rungs(lattice.q_lo, lattice.q_hi)
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


def _outcome(fn):
    try:
        return fn()
    except AmbiguousDealias as exc:
        return ("AmbiguousDealias", str(exc))


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
    lattice = _lattice(ratio, nu)
    angles = [angle for _, angle in lattice.rungs(lattice.q_lo, lattice.q_hi)]
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
    return theta_c, lattice, tie_fraction


@settings(max_examples=400, deadline=None)
@given(_dealias_case())
def test_bracketed_dealias_matches_full_lattice(case):
    theta_c, lattice, tie_fraction = case
    got = _outcome(lambda: dealias(np.array([theta_c]), [lattice], tie_fraction))
    want = _outcome(lambda: _full_lattice_dealias(theta_c, lattice, tie_fraction))
    if want[0] == "AmbiguousDealias":
        assert got == want
    else:
        (angle,), (report,) = got
        assert (angle, report) == want


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


def test_esprit_resolves_pencil_plus_one_sources(paper_cfg):
    angles = [-20.0, 0.0, 20.0]
    snap = snapshot(paper_cfg, _far_targets(paper_cfg, angles), math.inf, seed=5)
    found, _ = estimate_doa_esprit(snap, paper_cfg, 3, pencil=2)
    assert np.degrees(found) == pytest.approx(angles, abs=1e-7)
