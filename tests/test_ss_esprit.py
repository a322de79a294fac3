import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elaa_doa.errors import AmbiguousDealias
from elaa_doa.geometry import Target, field_regions
from elaa_doa.signal_model import snapshot, split_ulas
from elaa_doa.ss_esprit import (
    Candidate,
    CandidateSet,
    angles_from_eigenvalues,
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
    (cs,) = angles_from_eigenvalues(np.array([eig]), 0.5, 1.0)
    assert len(cs.candidates) == 1
    assert cs.candidates[0].angle == pytest.approx(math.asin(u), abs=1e-12)


@given(st.floats(min_value=-0.5, max_value=0.5))
def test_candidate_count_law(nu):
    # baseline of 165 wavelengths: the alias lattice has floor(2 * 165)
    # visible points, give or take one depending on the phase
    eig = cmath.exp(1j * 2.0 * math.pi * nu)
    (cs,) = angles_from_eigenvalues(np.array([eig]), 165.0, 1.0)
    assert abs(len(cs.candidates) - 330) <= 1
    sines = np.sort([math.sin(c.angle) for c in cs.candidates])
    assert np.all(np.abs(sines) <= 1.0 + 1e-12)


def test_candidate_count_actual_center_separation(paper_cfg):
    ratio = paper_cfg.center_separation / paper_cfg.wavelength
    assert ratio == pytest.approx(157.5)
    eig = cmath.exp(1j * 0.77)
    (cs,) = angles_from_eigenvalues(
        np.array([eig]), paper_cfg.center_separation, paper_cfg.wavelength
    )
    assert abs(len(cs.candidates) - 315) <= 1


def test_angles_from_eigenvalues_rejects_zero():
    with pytest.raises(ValueError):
        angles_from_eigenvalues(np.array([0.0 + 0.0j]), 0.5, 1.0)


def _cand_set(angles):
    return CandidateSet(
        eigenvalue=1.0 + 0.0j,
        delta=1.0,
        candidates=tuple(Candidate(angle=a, alias_index=i) for i, a in enumerate(angles)),
    )


def test_dealias_picks_nearest():
    picked, reports = dealias(np.array([0.1]), [_cand_set([0.05, 0.1004, 0.15])])
    assert picked[0] == pytest.approx(0.1004)
    assert reports[0].alias_index == 1
    assert reports[0].disagreement == pytest.approx(0.0004)


def test_dealias_tie_raises():
    with pytest.raises(AmbiguousDealias):
        dealias(np.array([0.1]), [_cand_set([0.05, 0.15])])


def test_dealias_single_candidate_margin():
    picked, reports = dealias(np.array([0.3]), [_cand_set([0.28])])
    assert picked[0] == pytest.approx(0.28)
    assert math.isinf(reports[0].margin)


def test_dealias_length_mismatch():
    with pytest.raises(ValueError):
        dealias(np.array([0.1, 0.2]), [_cand_set([0.1])])


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
