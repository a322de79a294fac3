"""Near-field localization by per-sub-array DOAs and triangulation.

Between the sub-array far-field boundary and the full-array Fraunhofer
distance, each sub-array sees its own locally planar wavefront with its
own DOA.  Running the Hankel MUSIC estimator separately per sub-array
gives two DOA lists; an association pass matches entries across the
lists by testing complete one-to-one matchings against the snapshot
(each tentative pair contributes the locally planar steering vector of
its implied intersection as an atom); matched bearings are then
triangulated.

When targets share nearly the same bearing, the per-sub-array scans
cannot separate them and the pair/triangulate route collapses.  The
range information is still in the snapshot: the two sub-arrays sit at
different offsets, so the spherical path difference between their
reference elements varies with target range.  A second strategy
exploits it directly: greedy matched-filter picks over position space
with residual deflation, followed by a joint refinement of all picks.
``localize`` polishes the pairs first and answers with them alone when
their fit residual is down at the noise floor of the per-sub-array
Hankel matrices and the polish kept every range where triangulation
put it (the polish stops as soon as it does not); only otherwise does
it run the deflation search, and then it keeps whichever of deflation
and the triangulated pairs reconstructs the snapshot with the smaller
least-squares residual.  The deflation search stops at the same noise
floor: it runs no more range-split ladders once its best fit is down
there.

Every local refinement is one routine, ``_polish``: one
Levenberg-Marquardt descent on the (sine of bearing, log range) of all
its atoms at once, with every linear amplitude eliminated in closed
form (variable projection, Golub & Pereyra 1973, with Kaufman's
Jacobian) and the analytic derivatives of the locally planar atom.  A
single pick is its one-atom case.  All atoms, for scans and for the
polish alike, come from the snapshot model's one near-field builder,
:func:`elaa_doa.signal_model.sub_array_atoms`, in its one layout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindArray, EstimationError, ParallelBearings, unwrap
from .geometry import ArrayConfig, field_regions, reference_positions
from .signal_model import (
    NearfieldLayout,
    nearfield_atoms,
    nearfield_layout,
    split_ulas,
    sub_array_atoms,
)
from .ss_music import module_subspace, pick_chunk
from .subspace import default_pencil

PARALLEL_TOL = 1e-6
ENVELOPE_U_POINTS = 120
ENVELOPE_R_POINTS = 12
RANGE_SCAN_POINTS = 40
COMB_LADDER = 8
FIELD_EDGE_U = 0.866
RANGE_SPLIT_SKIP_FRACTION = 0.03
U_LIMIT = 0.999999
POLISH_STEP_TOL = 2e-6
POLISH_COST_TOL = 1e-6
POLISH_MAX_STEPS = 150
COINCIDENT_GRAM = 1e-9
POLISH_LOG_R_CAP = 0.05
PAIR_NOISE_GATE = 1.5
# associate scores all K! matchings of the local DOAs: 5 040 at this limit,
# the reference array's own source limit
MAX_SOURCES = 7


@dataclass(frozen=True)
class Association:
    """The chosen one-to-one matching of DOA indices across sub-arrays.

    ``positions`` are the pairs' triangulations, and ``residual`` is the
    norm of the least-squares residual of the snapshot on their atoms.
    """

    pairs: tuple[tuple[int, int], ...]
    positions: tuple[np.ndarray, ...]
    residual: float


@dataclass(frozen=True)
class LocalizedTarget:
    position: np.ndarray | None
    score: float
    pair: tuple[int, int] | None
    error: str | None = None


@dataclass(frozen=True)
class LocalizationResult:
    """The reported targets and how they were reached.

    ``route`` is ``pair`` or ``deflation``, the route whose entries are
    reported; pair entries are the polished pairs when they answered
    alone and the triangulated ones otherwise.  ``noise_ratio`` is the
    polished pairs' squared residual over the Hankel noise reference
    (see :func:`localize`), None when the association pass did not pair
    every source.  When the pair polish stopped because a range left
    its leash, it is the squared residual at the step where it stopped.
    ``residual`` is the norm of the snapshot's least-squares residual on
    the reported positions' atoms, as the route that answered fitted it.
    """

    targets: tuple[LocalizedTarget, ...]
    doas_ula1: np.ndarray
    doas_ula2: np.ndarray
    association: Association
    route: str
    noise_ratio: float | None
    residual: float


def triangulate(angles: tuple[float, float], cfg: ArrayConfig) -> np.ndarray:
    """Intersection of a (ULA1, ULA2) local-DOA pair's bearings.

    The one-pair case of :func:`_intersections`: raises its
    ``ParallelBearings`` or ``BehindArray`` when the pair has no
    intersection in front of the array.
    """
    points, errors = _intersections([angles[0]], [angles[1]], cfg)
    if errors[0] is not None:
        raise errors[0]
    return points[0]


def _intersections(
    angles1: list[float], angles2: list[float], cfg: ArrayConfig
) -> tuple[np.ndarray, list[EstimationError | None]]:
    """Intersections of many (ULA1, ULA2) bearing pairs, and why each failed.

    Each bearing is a ray from its sub-array's reference element.  The
    ranges along the rays solve the 2x2 system that makes their points
    meet; in the plane non-parallel lines always do, and the midpoint of
    the two points is the pair's row of the returned ``(N, 2)`` array.
    All systems are one stacked solve, one LAPACK ``gesv`` per system as
    for a system alone.  A pair's error is ``ParallelBearings`` or
    ``BehindArray`` when it has no intersection in front of the array
    (its row is then meaningless), and None otherwise.
    """
    refs = reference_positions(cfg)
    d1, d2 = (
        np.array([(math.sin(a), math.cos(a)) for a in angles]) for angles in (angles1, angles2)
    )
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    parallel = np.abs(cross) < PARALLEL_TOL
    systems = np.stack([d1, -d2], axis=2)
    # parallel pairs solve a stand-in system; their rows are never used
    systems[parallel] = np.eye(2)
    rhs = np.tile([refs[1] - refs[0], 0.0], (len(d1), 1))
    ranges = np.linalg.solve(systems, rhs[..., None])[..., 0]
    p1 = np.array([refs[0], 0.0]) + ranges[:, :1] * d1
    p2 = np.array([refs[1], 0.0]) + ranges[:, 1:] * d2
    errors: list[EstimationError | None] = []
    for c, (r1, r2), flat in zip(cross.tolist(), ranges.tolist(), parallel.tolist()):
        if flat:
            errors.append(ParallelBearings(f"|sin| of bearing angle difference {abs(c):.2e}"))
        elif r1 <= 0 or r2 <= 0:
            errors.append(BehindArray(f"intersection ranges {r1:.3g}, {r2:.3g}"))
        else:
            errors.append(None)
    return (p1 + p2) / 2.0, errors


def local_doas(
    y: np.ndarray, cfg: ArrayConfig, num_sources: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-sub-array DOA estimates, each sorted ascending, and the noise reference.

    The sub-arrays are scanned independently, so the two lists are not
    yet associated with each other.  The noise reference is the sum,
    over both sub-arrays, of the squared Hankel singular values beyond
    the first ``num_sources``: the energy the signal subspaces leave
    out, read off the SVDs the scans already run.
    """
    # the two modules are two one-module trials of one chunk
    modules = np.stack(split_ulas(np.asarray(y)))[:, None]
    sub, scan = module_subspace(modules, cfg, num_sources)
    doas1, doas2 = (np.sort(unwrap(out)) for out in pick_chunk(sub, scan, num_sources))
    noise_ref = 0.0
    for values in sub.singular_values[:, 0]:
        noise_ref += float(np.sum(values[num_sources:] ** 2))
    return doas1, doas2, noise_ref


def associate(
    doas1: np.ndarray, doas2: np.ndarray, y: np.ndarray, cfg: ArrayConfig
) -> Association:
    """Pair per-sub-array DOAs by joint least-squares reconstruction.

    Every feasible (i, j) pair is triangulated and the local-planar
    steering vector of its intersection becomes a candidate atom, the
    same wavefront family the per-sub-array DOA scan assumes.  Each
    complete one-to-one matching is then scored by fitting the snapshot
    on its atoms in the least-squares sense; the matching with the
    smallest reconstruction residual wins.  Joint fitting matters because
    atoms of nearby targets are strongly correlated, so a greedy
    one-atom-at-a-time pick can prefer a phantom intersection lying
    between two real targets.  Pairs whose triangulation fails contribute
    no atom, so a matching forced through them is penalized by its larger
    residual and the result may hold fewer pairs than sources.
    """
    if len(doas1) != len(doas2):
        raise ValueError("per-sub-array DOA lists must have equal length")
    k = len(doas1)
    if k == 0:
        raise ValueError("per-sub-array DOA lists are empty")
    y = np.asarray(y, dtype=complex)
    candidates = list(itertools.product(range(k), repeat=2))
    xy, errors = _intersections(
        [float(doas1[i]) for i, _ in candidates], [float(doas2[j]) for _, j in candidates], cfg
    )
    points = {
        p: pos for p, pos, err in zip(candidates, xy, errors) if err is None and pos[1] > 0.0
    }
    best: tuple[float, tuple[int, ...], tuple[tuple[int, int], ...]] | None = None
    for perm in itertools.permutations(range(k)):
        pairs = tuple((i, perm[i]) for i in range(k) if (i, perm[i]) in points)
        residual = _project_residual(y, [points[p] for p in pairs], cfg)[1]
        key = (residual, perm, pairs)
        if best is None or key[:2] < best[:2]:
            best = key
    residual, _, chosen = best
    return Association(
        pairs=chosen, positions=tuple(points[p] for p in chosen), residual=residual
    )


def _polar_atom(layout: NearfieldLayout, us, log_rs, y: np.ndarray) -> np.ndarray:
    """Atoms at (sine of bearing, log range), their derivatives, and ``y``.

    For ``K`` atoms the ``3K + 1`` rows are the atoms, their derivatives
    in ``u``, their derivatives in ``log r`` and last ``y``, so one Gram
    product gives every inner product the polish needs.  Each
    sub-array's sine and range and their derivatives are Python scalars;
    an element's phase derivative is ``k*d*m*dsin_n - k*drho_n``, so
    ``da = 1j * atom * dphase``.  The rows are one buffer: the builder's
    atoms, then one broadcast product for the derivative rows.
    """
    k, _, m, ramp, refs = layout
    n_atoms = len(us)
    # the position is (x, z) = r (u, root), so dx/du = r, dz/du = -x/root,
    # dx/dlog r = x and dz/dlog r = z; per atom and sub-array: sine, range,
    # then (dsin, -k*drho) for u and for log r
    geo = []
    for u, log_r in zip(us, log_rs):
        r = math.exp(log_r)
        root = math.sqrt(1.0 - u * u)
        x, z = r * u, r * root
        for ref in refs:
            dx = x - ref
            rho = math.hypot(dx, z)
            s, c = dx / rho, z / rho
            bend = c / rho
            geo.append((
                s,
                rho,
                bend * (c * r + s * x / root),
                -k * (s * r - c * x / root),
                bend * (c * x - s * z),
                -k * (s * x + c * z),
            ))
    geo = np.array(geo).reshape(n_atoms, 2, 6).transpose(2, 0, 1)
    # zeroed, so each derivative row starts as 1j * dphase with no cast
    rows = np.zeros((3 * n_atoms + 1, 2 * m), dtype=complex)
    rows[:n_atoms] = sub_array_atoms(layout, geo[0].T, geo[1].T).T
    atoms = rows[:n_atoms].reshape(n_atoms, 2, m)
    derivs = rows[n_atoms:-1].reshape(2, n_atoms, 2, m)
    dphase = derivs.imag
    np.multiply(geo[2::2, ..., None], ramp, out=dphase)
    np.add(dphase, geo[3::2, ..., None], out=dphase)
    np.multiply(derivs, atoms, out=derivs)
    rows[-1] = y
    return rows


def _matched_responses(
    res: np.ndarray, cfg: ArrayConfig, positions: list[np.ndarray]
) -> list[float]:
    """``|<atom, res>| / sqrt(n)`` at each position, from one atom build.

    Each atom is a contiguous row, so its product gives the bits of an
    atom built alone.
    """
    if not positions:
        return []
    xy = np.array(positions)
    atoms = np.ascontiguousarray(nearfield_atoms(cfg, xy[:, 0], xy[:, 1]).T)
    return [float(abs(np.vdot(atom, res))) / math.sqrt(len(atom)) for atom in atoms]


def _project_residual(
    y: np.ndarray, positions: list[np.ndarray], cfg: ArrayConfig
) -> tuple[np.ndarray, float]:
    """Residual of the least-squares fit of ``y`` on the position atoms."""
    if not positions:
        return y, float(np.linalg.norm(y))
    xy = np.array(positions)
    basis = nearfield_atoms(cfg, xy[:, 0], xy[:, 1])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    res = y - basis @ coef
    return res, float(np.linalg.norm(res))


def _ridge_spacing_u(cfg: ArrayConfig) -> float:
    """Cross-range period of the matched-filter comb, in sine units.

    The inter-sub-array path difference advances one wavelength when the
    direction sine moves by ``wavelength / center_separation``, the same
    ambiguity spacing the two-element interferometer has in the far
    field.  The matched-filter surface is a comb of crests at this
    spacing under a sub-array beamwidth envelope.
    """
    return cfg.wavelength / cfg.center_separation


def _polish(
    y: np.ndarray,
    cfg: ArrayConfig,
    seeds: list[np.ndarray],
    leash: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray] | None, float]:
    """Move the atoms from ``seeds`` to minimize the joint fit residual of ``y``.

    Variable projection: the amplitudes ``c`` of all ``K`` atoms are
    eliminated in closed form, so the squared residual is a function of
    the ``2K`` parameters (sine of bearing, log range) alone, and one
    Levenberg-Marquardt descent moves every atom at once.  With ``A``
    the atoms and ``P`` the projector off their span, the residual
    Jacobian column of a parameter of atom ``i`` is Kaufman's
    ``-P (da_i/dtheta) c_i``.  With one atom this climbs the matched
    response.  Returns the positions and the residual norm.

    One evaluation is one Gram product of :func:`_polar_atom`'s rows,
    Gaussian elimination of its ``K x K`` atom block in numpy (which
    leaves ``[da, y]^H P [da, y]`` in the trailing block and the
    amplitudes by back substitution), and one weighted product for the
    gradient and the Gauss-Newton matrix; the ``2K x 2K`` damped step is
    a Cholesky solve on Python floats.  The array's constants are
    resolved once per call, not once per evaluation.

    With ``leash`` (one position per seed), the descent stops at the
    first point it accepts, the start included, where some atom's range
    is more than ``POLISH_LOG_R_CAP`` in log range from its leash
    position's; it then returns None for the positions and the residual
    norm at that point.

    Guards: each step is shrunk as a whole until it moves no sine by
    more than a fifth of the comb spacing and no log range by more than
    ``POLISH_LOG_R_CAP``, so each atom stays on the crest it starts on
    (crest choices belong to the global scans).  The parameter box is
    the closed range band that every scan searches, ``_range_band``;
    the seeds' ranges are first clipped to it, and steps leaving it are
    rejected, so a residual that keeps falling with range ends at the
    band's edge.
    Points where the atoms are nearly dependent (Gram determinant at
    most ``COINCIDENT_GRAM`` times the product of its diagonal, or a
    pivot that is not positive) are rejected too, so two estimates never
    park on one point; seeds that are already such a point come back as
    they are.  A damped matrix with no Cholesky factor ends the descent.
    Only steps that lower the residual are taken.  The search stops after
    an accepted step that lowers the squared residual by at most
    ``POLISH_COST_TOL`` of itself (MINPACK's ``ftol``; the accepted point
    is kept), after a step under ``POLISH_STEP_TOL``, or after
    ``POLISH_MAX_STEPS`` steps.
    """
    n_atoms = len(seeds)
    layout = nearfield_layout(cfg)
    log_lo, log_hi = (math.log(v) for v in _range_band(cfg))
    leash_ranges = None if leash is None else [math.hypot(*q) for q in leash]

    def off_leash(theta: list[float]) -> bool:
        """Some atom's range is beyond the cap from its leash position's.

        The range is the one of the position the polish would return,
        so the test is the same expression on the same floats as a test
        of the returned positions.
        """
        if leash_ranges is None:
            return False
        for u, log_r, r_leash in zip(theta[:n_atoms], theta[n_atoms:], leash_ranges):
            r = math.exp(log_r)
            r_polished = math.hypot(r * u, r * math.sqrt(1.0 - u * u))
            if abs(math.log(r_polished / r_leash)) > POLISH_LOG_R_CAP:
                return True
        return False

    # each derivative row belongs to atom ``owner``
    owner = list(range(n_atoms)) * 2

    def fit(theta: list[float]):
        """Squared residual, gradient, Gauss-Newton matrix, atoms and amplitudes."""
        us, log_rs = theta[:n_atoms], theta[n_atoms:]
        for u, v in zip(us, log_rs):
            if not (-U_LIMIT < u < U_LIMIT and log_lo <= v <= log_hi):
                return None
        rows = _polar_atom(layout, us, log_rs, y)
        gram = rows.conj() @ rows.T
        diagonal = gram.diagonal().real.tolist()
        # Gaussian elimination of the atom block: its pivots are the squared
        # Cholesky diagonal, so det G over the product of its diagonal is
        # the product of pivot over diagonal, and the trailing block becomes
        # [da, y]^H P [da, y]
        pivots = []
        for i in range(n_atoms):
            pivot = float(gram[i, i].real)
            if not pivot > 0.0:
                return None
            pivots.append(pivot)
            gram[i + 1 :, i + 1 :] -= gram[i + 1 :, i, None] * (gram[i, i + 1 :] / pivot)
        if math.prod(p / g for p, g in zip(pivots, diagonal)) <= COINCIDENT_GRAM:
            return None
        # back substitution on the eliminated atom rows: c = G^-1 A^H y
        upper = gram[:n_atoms].tolist()
        amp = [0j] * n_atoms
        for i in range(n_atoms - 1, -1, -1):
            row = upper[i]
            acc = row[-1]
            for j in range(i + 1, n_atoms):
                acc -= row[j] * amp[j]
            amp[i] = acc / pivots[i]
        # the corner is |P y|^2, the squared residual; P y is orthogonal
        # to every atom, so with J = -P da c the gradient J^H P y is
        # -conj(c) da^H P y and J^H J is conj(c_i) c_j da_i^H P da_j.  One
        # product weighs row a and column b of the block by conj(w_a) and
        # w_b, with w the derivative rows' amplitudes and -1 for y.
        weights = np.array([amp[i] for i in owner] + [-1.0])
        scaled = ((weights.conj()[:, None] * gram[n_atoms:, n_atoms:]) * weights).real.tolist()
        corner = scaled.pop()
        return corner[-1], [row.pop() for row in scaled], scaled, rows[:n_atoms], amp

    polar = np.array([(p[0], math.hypot(p[0], p[1])) for p in seeds], dtype=float)
    theta = np.concatenate(
        [polar[:, 0] / polar[:, 1], np.clip(np.log(polar[:, 1]), log_lo, log_hi)]
    ).tolist()
    current = fit(theta)
    if current is None:
        seeds = [np.array(p, dtype=float) for p in seeds]
        return seeds, _project_residual(y, seeds, cfg)[1]
    caps = [0.2 * _ridge_spacing_u(cfg)] * n_atoms + [POLISH_LOG_R_CAP] * n_atoms
    damping = 1e-3
    for _ in range(POLISH_MAX_STEPS):
        if off_leash(theta):
            break
        cost, grad, gn = current[:3]
        # Marquardt's damping scales the diagonal
        step = _damped_newton_step(gn, grad, 1.0 + damping)
        if step is None:
            break
        shrink, largest = 1.0, 0.0
        for cap, v in zip(caps, step):
            size = abs(v)
            if size > largest:
                largest = size
            if size > 1e-300 and cap / size < shrink:
                shrink = cap / size
        moved = [t + v * shrink for t, v in zip(theta, step)]
        trial = fit(moved)
        if trial is not None and trial[0] < cost:
            theta, current = moved, trial
            damping = max(damping / 10.0, 1e-9)
            if cost - trial[0] <= POLISH_COST_TOL * cost:
                break
        else:
            damping *= 10.0
        if largest * shrink < POLISH_STEP_TOL:
            break
    atoms, amp = current[3:]
    residual = float(np.linalg.norm(y - np.array(amp) @ atoms))
    if off_leash(theta):
        return None, residual
    positions = [
        math.exp(log_r) * np.array([u, math.sqrt(1.0 - u * u)])
        for u, log_r in zip(theta[:n_atoms], theta[n_atoms:])
    ]
    return positions, residual


def _damped_newton_step(gn: list[list[float]], grad: list[float], scale: float):
    """Solve ``(gn with its diagonal times scale) step = -grad`` by Cholesky.

    ``gn`` is symmetric and only its upper triangle is read.  The system
    has a few unknowns, so the factor is built from Python floats, with
    the forward substitution fused into it.  Returns None when the
    damped matrix is not positive definite.
    """
    n = len(grad)
    low: list[list[float]] = []
    z: list[float] = []
    for i in range(n):
        row = []
        for j in range(i):
            lj = low[j]
            acc = gn[j][i]
            for t in range(j):
                acc -= row[t] * lj[t]
            row.append(acc / lj[j])
        square = gn[i][i] * scale
        rhs = -grad[i]
        for t in range(i):
            a = row[t]
            square -= a * a
            rhs -= a * z[t]
        if not square > 0.0:
            return None
        pivot = math.sqrt(square)
        row.append(pivot)
        low.append(row)
        z.append(rhs / pivot)
    # back substitution with the transposed factor, in place
    for i in range(n - 1, -1, -1):
        acc = z[i]
        for j in range(i + 1, n):
            acc -= low[j][i] * z[j]
        z[i] = acc / low[i][i]
    return z


@functools.lru_cache(maxsize=8)
def _range_band(cfg: ArrayConfig) -> tuple[float, float]:
    reg = field_regions(cfg)
    return max(reg.local_farfield, 10.0 * cfg.wavelength), reg.fraunhofer


def _grid_positions(us: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Cartesian points for every (direction sine, range) combination."""
    uu = np.repeat(us, len(ranges))
    rr = np.tile(ranges, len(us))
    return np.column_stack([rr * uu, rr * np.sqrt(1.0 - uu * uu)])


@functools.lru_cache(maxsize=8)
def _envelope_grid(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direction sines of the envelope scan and its per-sub-array filters.

    The grid depends on the array alone, so its atoms are built once per
    layout: conjugated, one row per (sine, range) point, one block per
    sub-array.  The arrays are shared by every caller and read-only.
    """
    us = np.linspace(-FIELD_EDGE_U, FIELD_EDGE_U, ENVELOPE_U_POINTS)
    lo, hi = _range_band(cfg)
    pts = _grid_positions(us, np.geomspace(lo, hi, ENVELOPE_R_POINTS))
    atoms = nearfield_atoms(cfg, pts[:, 0], pts[:, 1])
    half = atoms.shape[0] // 2
    out = (us, atoms[:half].conj().T.copy(), atoms[half:].conj().T.copy())
    for arr in out:
        arr.setflags(write=False)
    return out


def _envelope_direction(res: np.ndarray, cfg: ArrayConfig) -> float:
    """Direction sine of the strongest beam-envelope bump.

    Summing the two per-sub-array matched-filter magnitudes discards the
    inter-sub-array phase, leaving the smooth product of the sub-array
    beams; a coarse global grid cannot miss its beamwidth-scale maxima.
    The strongest interior local maximum wins, the first of equals; with
    none, the envelope's maximum.
    """
    us, filters1, filters2 = _envelope_grid(cfg)
    half = filters1.shape[1]
    env = np.abs(filters1 @ res[:half]) + np.abs(filters2 @ res[half:])
    env_u = env.reshape(len(us), ENVELOPE_R_POINTS).max(axis=1)
    interior = (env_u[1:-1] >= env_u[:-2]) & (env_u[1:-1] >= env_u[2:])
    peaks = np.flatnonzero(interior) + 1
    best = peaks[np.argmax(env_u[peaks])] if len(peaks) else np.argmax(env_u)
    return float(us[best])


@functools.lru_cache(maxsize=8)
def _range_ladder(lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """The near-field search's one range ladder over a band, and its pairs.

    Returns the ``RANGE_SCAN_POINTS`` log-spaced ranges, the pair
    indices ``i < j`` and their flat indices ``i * RANGE_SCAN_POINTS +
    j`` into a Gram matrix.  The comb scan and the range split both read
    it, shared read-only.
    """
    ranges = np.geomspace(lo, hi, RANGE_SCAN_POINTS)
    ii, jj = np.triu_indices(RANGE_SCAN_POINTS, k=1)
    out = (ranges, ii, jj, ii * RANGE_SCAN_POINTS + jj)
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _comb_grid(cfg: ArrayConfig, u_center: float) -> tuple[np.ndarray, np.ndarray]:
    """The comb scan's grid points around ``u_center`` and their conjugated atoms.

    The grid crosses a ladder of direction sines at half comb-crest
    spacing, so no crest falls between grid lines, with the range
    ladder.  ``u_center`` is one of the envelope scan's fixed
    directions, so the few grids a trial's picks need are built once and
    shared read-only.
    """
    spacing = _ridge_spacing_u(cfg)
    qs = np.arange(-2 * COMB_LADDER, 2 * COMB_LADDER + 1) * (spacing / 2.0)
    us = u_center + qs
    us = us[np.abs(us) < FIELD_EDGE_U]
    pts = _grid_positions(us, _range_ladder(*_range_band(cfg))[0])
    filters = nearfield_atoms(cfg, pts[:, 0], pts[:, 1])
    # in place: no second atom-sized array to count in peak memory
    out = (pts, np.conjugate(filters, out=filters))
    for arr in out:
        arr.setflags(write=False)
    return out


def _pick_position(res: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Best single-target position explaining a residual.

    Envelope scan for the bearing, comb scan for the crest and range,
    and a local polish of the comb's strongest point.
    """
    pts, filters = _comb_grid(cfg, _envelope_direction(res, cfg))
    start = pts[np.argsort(np.abs(filters.T @ res))[-1]]
    return _polish(res, cfg, [start])[0][0]


def _range_split_positions(
    y: np.ndarray, cfg: ArrayConfig, u_center: float
) -> tuple[list[np.ndarray] | None, float]:
    """Best two same-bearing atoms at different ranges, jointly fitted.

    Targets that share a bearing are invisible to every per-sub-array
    scan and to greedy single-atom picks, which settle on blends between
    the true ranges.  Restricted to one bearing, the two-atom fit is
    cheap in closed form (2x2 Gram solve per range pair), so all pairs
    of the comb scan's range ladder are tested exhaustively; the bearing
    itself is swept over a ladder of whole comb-crest offsets around
    ``u_center``, a greedy pick's own bearing, because the pick may sit
    on the wrong crest.
    Returns the best pair and its raw squared residual, the snapshot's
    energy less the pair's fitted energy; with no well-conditioned pair,
    None and infinity.
    """
    spacing = _ridge_spacing_u(cfg)
    ranges, ii, jj, flat = _range_ladder(*_range_band(cfg))
    us = [u_center + q * spacing for q in range(-COMB_LADDER, COMB_LADDER + 1)]
    us = [u for u in us if -FIELD_EDGE_U < u < FIELD_EDGE_U]
    if not us:
        return None, math.inf
    roots = [math.sqrt(1.0 - u * u) for u in us]
    # every rung's atoms from one call, copied so that each rung is one
    # contiguous block: the stacked products then make, rung by rung, the
    # BLAS calls of a rung built alone, and give its bits
    n_ranges = len(ranges)
    atoms = np.ascontiguousarray(
        nearfield_atoms(cfg, np.outer(us, ranges), np.outer(roots, ranges))
        .reshape(cfg.n_elements, len(us), n_ranges)
        .transpose(1, 0, 2)
    )
    filters = atoms.conj().transpose(0, 2, 1)
    b = filters @ y
    gram = (filters @ atoms).reshape(len(us), -1)
    # the pair algebra runs on every rung at once, in place where it can,
    # with only the Gram entries it reads kept alive: a small peak memory
    del atoms, filters
    diag = gram[:, :: n_ranges + 1].real.copy()
    gij = gram.take(flat, axis=1)
    del gram
    y_sq = float(np.vdot(y, y).real)
    # every pair of every rung is computed, then those the polish would
    # call coincident are barred
    with np.errstate(divide="ignore", invalid="ignore"):
        b_sq = np.abs(b) ** 2
        gii = diag.take(ii, axis=1)
        gjj = diag.take(jj, axis=1)
        det = gii * gjj
        det -= np.abs(gij) ** 2
        cross = gij * np.conj(b).take(ii, axis=1)
        del gij
        cross *= b.take(jj, axis=1)
        quad = gjj * b_sq.take(ii, axis=1)
        quad += gii * b_sq.take(jj, axis=1)
        quad -= 2.0 * cross.real
        del cross
        quad /= det
        quad[~(det > COINCIDENT_GRAM * gii * gjj)] = -np.inf
    picks = np.argmax(quad, axis=1)
    tops = quad[np.arange(len(us)), picks]
    best: tuple[float, float, int, int] | None = None
    for u, top, k in zip(us, tops.tolist(), picks.tolist()):
        if top == -math.inf:
            continue
        residual_sq = y_sq - top
        if best is None or residual_sq < best[0]:
            best = (residual_sq, u, int(ii[k]), int(jj[k]))
    if best is None:
        return None, math.inf
    raw, u, i, j = best
    root = math.sqrt(1.0 - u * u)
    return [
        np.array([ranges[i] * u, ranges[i] * root]),
        np.array([ranges[j] * u, ranges[j] * root]),
    ], raw


def _matched_filter_positions(
    y: np.ndarray, cfg: ArrayConfig, num_sources: int, floor: float
) -> tuple[list[np.ndarray], float]:
    """Matched-filter position estimates by the better of two routes.

    Route one is greedy with deflation: pick the strongest atom of the
    current residual, remove the joint fit, repeat.  It handles targets
    on distinct bearings but blends targets that share one.  Route two
    handles that shared-bearing case head-on for two sources: an
    exhaustive same-bearing range-pair fit around each greedy bearing,
    except the bearings of picks that ran to either end of the range
    band.  Route two is skipped when route one already explains the
    snapshot down to a small fraction of its energy, since a blend
    leaves behind a signal-level residual no matter the noise.  Both
    routes end with one joint polish of their atoms, and the smaller
    joint residual wins.  A ladder's pair is polished only when its raw
    (unpolished) fit is better than every earlier ladder's: a ladder
    that fits no better is split but not polished.  No further ladder
    runs once the best fit so far has a squared residual of at most
    ``floor``, the noise a correct model leaves behind.  Returns the
    positions and that residual norm.
    """
    picks: list[np.ndarray] = []
    for _ in range(num_sources):
        res, _ = _project_residual(y, picks, cfg)
        picks.append(_pick_position(res, cfg))
    best = _polish(y, cfg, picks)
    if num_sources == 2 and best[1] > RANGE_SPLIT_SKIP_FRACTION * float(
        np.linalg.norm(y)
    ):
        spacing = _ridge_spacing_u(cfg)
        log_lo, log_hi = (math.log(v) for v in _range_band(cfg))
        half_cell = 0.5 * (log_hi - log_lo) / (RANGE_SCAN_POINTS - 1)
        tried: list[float] = []
        best_raw = math.inf
        for p in picks:
            if best[1] ** 2 <= floor:
                break
            r = math.hypot(p[0], p[1])
            # a pick in the end cell of the comb's range grid ran to the
            # band's edge: a plane-wave fit whose bearing has no range
            # information to anchor the ladder on
            if not log_lo + half_cell < math.log(r) < log_hi - half_cell:
                continue
            u = float(p[0] / r)
            if any(abs(u - t) < 0.3 * spacing for t in tried):
                continue
            tried.append(u)
            split, raw = _range_split_positions(y, cfg, u)
            # a ladder with no pair (raw is infinite) or no better raw fit
            if not raw < best_raw:
                continue
            best_raw = raw
            candidate = _polish(y, cfg, split)
            if candidate[1] < best[1]:
                best = candidate
    return best


def _pair_gate(cfg: ArrayConfig, num_sources: int) -> float:
    """The largest noise ratio with which the polished pairs answer alone.

    Under a correct model the polished residual holds the noise of
    ``n - 2K`` complex degrees of freedom of the ``n``-sample snapshot
    (each atom fits a complex amplitude and two real parameters), and an
    ``(L, M)`` sub-array Hankel matrix holds it in about ``(L - K)(M -
    K)`` outside its signal subspace.  Their quotient is the ratio's
    expected value, and the gate is ``PAIR_NOISE_GATE`` times it; with
    two 16-element sub-arrays, the default pencil and two sources that
    is ``1.5 * 28 / (2 * 7 * 6) = 0.5``.  Up to
    :func:`~elaa_doa.subspace.max_sources` sources, both factors are
    positive.
    """
    m = cfg.elements_per_ula
    rows = default_pencil(m) + 1
    noise_dof = 2 * (rows - num_sources) * (m - rows + 1 - num_sources)
    return PAIR_NOISE_GATE * (2 * m - 2 * num_sources) / noise_dof


def localize(y: np.ndarray, cfg: ArrayConfig, num_sources: int) -> LocalizationResult:
    """Estimate target positions from one observation ``y``.

    The pair route goes first: the associated per-sub-array DOA pairs
    are triangulated and, when every source is paired, their positions
    are polished jointly.  The polished pairs are reported at once when
    two things hold.  Their squared residual is at most
    :func:`_pair_gate` times the Hankel noise reference of
    :func:`local_doas` (a correct model sits near a third of it with
    two sources), and the polish moved no range by more than one capped
    step, ``POLISH_LOG_R_CAP`` in log range, from its triangulation.
    The range condition is the polish's leash, checked on every step it
    accepts: the polish stops at the first step that breaks it, the
    pairs do not answer, and the noise ratio is the one at that step.  A
    blend of two targets leaves signal-level energy behind, a noiseless
    snapshot has only roundoff as its reference, and a pair the polish
    has to walk away was not where its bearings put it, so none of these
    passes.  Otherwise the matched-filter deflation search runs, and
    whichever of it and the triangulated (unpolished) pairs fits the
    snapshot with the smaller least-squares residual is reported.  The
    search runs no more range-split ladders once its fit is down at the
    same floor, the gate times the noise reference.
    Entries come back in descending score order.  On the pair route each
    entry carries its pair, and sources the association pass could not
    pair appear as flagged placeholders with
    no position, so the result always has ``num_sources`` entries;
    deflation entries carry ``pair=None``.
    """
    y = np.asarray(y, dtype=complex)
    doas1, doas2, noise_ref = local_doas(y, cfg, num_sources)
    assoc = associate(doas1, doas2, y, cfg)
    y_norm = float(np.linalg.norm(y))
    positions, pairs, route = list(assoc.positions), assoc.pairs, "pair"
    residual = assoc.residual
    gate = _pair_gate(cfg, num_sources)
    noise_ratio, answered = None, False
    if len(positions) == num_sources:
        polished, pair_res = _polish(y, cfg, positions, leash=positions)
        noise_ratio = pair_res**2 / noise_ref if noise_ref > 0.0 else math.inf
        answered = polished is not None and noise_ratio <= gate
        if answered:
            positions, residual = polished, pair_res
    if not answered:
        defl_positions, defl_res = _matched_filter_positions(
            y, cfg, num_sources, gate * noise_ref
        )
        if defl_res < assoc.residual:
            positions, route, residual = defl_positions, "deflation", defl_res
            pairs = (None,) * num_sources
    entries = [
        LocalizedTarget(position=p, score=response / y_norm, pair=pair)
        for p, response, pair in zip(positions, _matched_responses(y, cfg, positions), pairs)
    ]
    unpaired = LocalizedTarget(position=None, score=0.0, pair=None, error="Unpaired")
    entries += [unpaired] * (num_sources - len(entries))
    entries.sort(key=lambda t: -t.score)
    return LocalizationResult(
        targets=tuple(entries),
        doas_ula1=doas1,
        doas_ula2=doas2,
        association=assoc,
        route=route,
        noise_ratio=noise_ratio,
        residual=residual,
    )
