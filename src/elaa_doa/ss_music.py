"""Single-snapshot MUSIC on Hankel-lifted sub-array data.

Each sub-array observation is lifted to a Hankel matrix; the noise
subspace of that matrix is orthogonal to a short exponential steering
vector whose length equals the Hankel row count.  Scanning that steering
vector over a DOA grid gives a per-sub-array pseudospectrum.  The scan does
not project every steering vector: the null ``a^H U_n U_n^H a`` of a
Vandermonde steering vector is a real trigonometric polynomial in the
electrical angle, the one root-MUSIC roots (Rao & Hari 1989), so the
surface is that polynomial evaluated on the grid from the noise
projector's diagonal sums.  Far-field estimation fuses the two sub-array
spectra non-coherently, as their product, and picks peaks from the fused
surface; the near-field localizer picks peaks from each sub-array
spectrum on its own.

Estimates never evaluate the whole grid (:func:`pick_chunk`).  The
polynomial's degree bounds how far it bends between samples of a coarse
subgrid (every fifth angle of the 0.01 degree grid), so the fine grid is
evaluated only in blocks of ``BLOCK`` angles around the coarse cells
that can hold a maximum tall enough to be picked, and the pick is the
whole grid's bit for bit.  Only :func:`fused_spectrum` evaluates it all.

Estimates take a chunk of trials at once, each with one or two modules:
one stacked SVD, whose factors are bit-identical to one trial's own, and
one coarse scan for the chunk, whose last bits only choose cells; then
one fine pass and one pick per trial.  A one-trial estimate is the chunk
of one (:func:`estimate_doa_music`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnderResolved, unwrap
from .geometry import ArrayConfig
from .signal_model import split_ulas
from .subspace import SubspacePair, default_pencil, hankel, split_subspaces

DENOMINATOR_FLOOR = 1e-12
PEAK_SEPARATION_DEG = 0.2
BOUND_MARGIN = 1e-9  # slack on pick_chunk's cell bounds, in units of values**-2
BLOCK = 16  # grid angles per block of the fine pass; the grid is 1 125 blocks


@dataclass(frozen=True)
class Spectrum:
    """A pseudospectrum sampled on a monotone broadside-angle grid (radians).

    ``values`` may carry leading axes, one surface per entry, before the
    grid axis.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape[-1:]:
            raise ValueError("values must end in the grid's axis")
        if (self.grid[1:] <= self.grid[:-1]).any():
            raise ValueError("grid must be strictly increasing")


def default_grid() -> np.ndarray:
    """Uniform 0.01 degree angle grid [-90, 90) degrees, returned in radians."""
    return np.deg2rad(-90.0 + 0.01 * np.arange(18_000))


def hankel_steering_matrix(
    n_rows: int, spacing: float, wavelength: float, grid: np.ndarray
) -> np.ndarray:
    """Short exponential steering vectors, one column per grid angle.

    Row ``i`` carries the phase ``exp(+j*2*pi*i*spacing*sin(angle)/
    wavelength)``: the signature of a sub-array sample window in the
    Hankel row space.
    """
    k = 2.0 * math.pi * spacing / wavelength
    return np.exp(1j * k * np.outer(np.arange(n_rows), np.sin(grid)))


def _trig(steering: np.ndarray) -> np.ndarray:
    """Steering columns in real form, the rows ``1``, ``cos(m*w)`` and ``sin(m*w)``, ``m >= 1``."""
    return np.concatenate((steering[:1].real, steering[1:].real, steering[1:].imag))


class Scan(NamedTuple):
    """A default grid, its real steering table, and the coarse subgrid scanned first.

    ``trig`` holds each grid angle's steering column in real form
    (:func:`_trig`), and ``coarse_trig`` a contiguous copy of the columns
    of the coarse subgrid, every ``stride``-th grid angle from the first.
    Over its largest step, ``coarse_step`` radians, the top harmonic's
    phase moves by at most ``harmonic_step`` (see :func:`pick_chunk`).
    """

    grid: np.ndarray
    trig: np.ndarray
    stride: int
    coarse_grid: np.ndarray
    coarse_trig: np.ndarray
    coarse_step: float
    harmonic_step: float


@functools.lru_cache(maxsize=8)
def _cached_steering(n_rows: int, spacing: float, wavelength: float) -> Scan:
    """Default grid, steering table and coarse subgrid, shared read-only by every caller.

    The stride is a quarter of the peak separation in grid steps, 5, so
    the separation floor spans four coarse steps.
    """
    grid = default_grid()
    trig = _trig(hankel_steering_matrix(n_rows, spacing, wavelength, grid))
    stride = max(1, _peak_distance(grid) // 4)
    coarse_grid = np.ascontiguousarray(grid[::stride])
    h = float(np.max(np.diff(coarse_grid)))
    rate = (n_rows - 1) * 2.0 * math.pi * spacing / wavelength
    scan = Scan(grid, trig, stride, coarse_grid, trig[:, ::stride].copy(), h, rate * h)
    for array in scan[:2] + scan[3:5]:
        array.setflags(write=False)
    return scan


def pseudospectrum(sub: SubspacePair, grid: np.ndarray, steering: np.ndarray) -> Spectrum:
    """MUSIC surfaces ``||a|| / ||U_noise^H a||`` over the grid, one per noise basis.

    ``steering`` holds the Vandermonde steering vector of each grid angle
    as a column, row ``m`` being ``exp(j*m*w)`` (see
    :func:`hankel_steering_matrix`), so ``||a|| = sqrt(n)``.  With the noise
    projector ``P = U_noise U_noise^H`` and its diagonal sums
    ``c_m = trace(P, offset=m)``, the squared projection norm is the real
    trigonometric polynomial ``a^H P a = c_0 + 2*Re(sum_m c_m exp(j*m*w))``,
    evaluated by :func:`_nulls` on the steering columns' real form.  It is
    floored at ``(1e-12 * ||a||)**2`` so noiseless nulls stay finite.
    Noise bases stacked along leading axes of ``sub`` give surfaces with
    those leading axes.
    """
    noise = sub.noise
    if noise.shape[-1] == 0:
        raise ValueError("noise subspace is empty; reduce the source count")
    if np.shape(steering) != (noise.shape[-2], len(grid)):
        raise ValueError("steering matrix shape does not match subspace/grid")
    values = _surface(sub.projector_sums, _trig(np.asarray(steering)))
    return Spectrum(grid=np.asarray(grid, dtype=float), values=values)


def _nulls(sums: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """The floored nulls ``a^H P a`` on a real table's columns (:func:`_trig`), from projector sums.

    ``a^H P a = c_0 + 2*Re(c_m)*cos(m*w) - 2*Im(c_m)*sin(m*w)`` summed over
    ``m``: one real product of the coefficients against ``trig``.  The
    shape of ``sums`` sets the product's layout: ``(B, n)`` sums make one
    ``(B, k) @ (k, G)`` product, whose last bits may vary with ``B`` and
    the BLAS threads; ``(..., 1, n)`` sums make one ``(1, k) @ (k, G)``
    product per basis, whose columns are bit-identical to a lone basis's.
    """
    re, im = sums.real, sums.imag
    coef = np.concatenate((re[..., :1], 2.0 * re[..., 1:], -2.0 * im[..., 1:]), axis=-1)
    den2 = coef @ trig
    return np.maximum(den2, (DENOMINATOR_FLOOR * math.sqrt(sums.shape[-1])) ** 2, out=den2)


def _surface(sums: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """``||a|| / ||U_noise^H a||`` on the table's columns, one product per basis in ``sums``."""
    return math.sqrt(sums.shape[-1]) / np.sqrt(_nulls(sums[..., None, :], trig)[..., 0, :])


def _product(values: np.ndarray) -> np.ndarray:
    """One module's surface, or the product of the modules' surfaces along axis -2."""
    fused = values[..., 0, :]
    for module in range(1, values.shape[-2]):
        fused = fused * values[..., module, :]
    return fused


def module_subspace(
    y_half: np.ndarray, cfg: ArrayConfig, num_sources: int
) -> tuple[SubspacePair, Scan]:
    """Signal and noise subspaces of sub-array samples, with the scan they use.

    ``y_half`` holds one sub-array's samples along its last axis; leading
    axes (trials, modules) stay leading axes of the subspaces.  The
    samples are lifted with the default pencil, half the sub-array
    length, and split; the scan, on the 0.01 degree grid, is cached per
    array.
    """
    pencil = default_pencil(cfg.elements_per_ula)
    scan = _cached_steering(pencil + 1, cfg.spacing, cfg.wavelength)
    return split_subspaces(hankel(y_half, pencil), num_sources), scan


def _refine_peak(grid: np.ndarray, values: np.ndarray, idx: int) -> float:
    """Sub-grid position of the maximum at inner sample ``idx``, from a parabola.

    The null surface ``1 / values**2`` is locally quadratic around a true
    DOA, so the vertex of a three-point parabola through it recovers the
    off-grid minimum accurately even when the peak itself is a near
    singularity.
    """
    q0, q1, q2 = (1.0 / (v * v) for v in values[idx - 1 : idx + 2].tolist())
    denom = q0 - 2.0 * q1 + q2
    before, at, after = grid[idx - 1 : idx + 2].tolist()
    if denom <= 0.0:
        return at
    h = (after - before) / 2.0
    delta = 0.5 * h * (q0 - q2) / denom
    return at + min(max(delta, -h), h)


def _peak_distance(grid: np.ndarray, index: np.ndarray | None = None) -> int:
    """``PEAK_SEPARATION_DEG`` in samples of the grid's mean step, at least one.

    With ``index``, ``grid`` holds the samples at those positions of a
    uniform grid, and the step is that grid's.
    """
    span = len(grid) - 1 if index is None else int(index[-1] - index[0])
    step = float(grid[-1] - grid[0]) / span
    return max(1, int(round(math.radians(PEAK_SEPARATION_DEG) / step)))


def _greedy(heights: list, positions: list, distance: int, count: int) -> list[int]:
    """Up to ``count`` entries, tallest first, each ``distance`` or more from those kept before.

    Ties go to the lower position.
    """
    keep: list[int] = []
    for _, at, i in sorted(zip([-h for h in heights], positions, range(len(heights)))):
        if all(abs(at - positions[k]) >= distance for k in keep):
            keep.append(i)
            if len(keep) == count:
                break
    return keep


def peak_pick(
    spectrum: Spectrum, num_peaks: int, index: np.ndarray | None = None, floor: float = 0.0
) -> np.ndarray:
    """Angles of the ``num_peaks`` tallest local maxima, tallest first.

    Maxima (:func:`_peaks`) closer than ``PEAK_SEPARATION_DEG`` collapse to
    the tallest of the cluster.  When two fused factor surfaces place
    their nulls a few hundredths of a degree apart, one target's peak
    splits into two countable maxima that can crowd out a genuine second
    target; genuine targets closer than the separation floor are below the
    aperture's resolution limit anyway.  Ties are broken toward the lower
    angle.  Each pick is refined off-grid by three-point parabolic
    interpolation of the reciprocal squared surface.

    ``index`` gives each sample's position on the uniform grid the
    spectrum was cut from, when it covers only parts of that grid
    (None: the spectrum is the whole grid).  A sample is then a maximum
    only if both its grid neighbours are in the spectrum, and separations
    are counted in steps of the uniform grid.  A nonzero ``floor``
    leaves out the maxima below it.  Raises :class:`UnderResolved` when
    the surface has fewer qualifying maxima than requested.
    """
    if num_peaks < 1:
        raise ValueError("num_peaks must be at least 1")
    values = spectrum.values
    idx = _peaks(values)
    if index is not None:
        idx = idx[index[idx + 1] - index[idx - 1] == 2]
    if floor:
        idx = idx[values[idx] >= floor]
    position = idx if index is None else index[idx]
    distance = _peak_distance(spectrum.grid, index)
    keep = _greedy(values[idx].tolist(), position.tolist(), distance, num_peaks)
    idx = idx.tolist()
    if len(keep) < num_peaks:
        raise UnderResolved(f"found {len(keep)} peaks, need {num_peaks}")
    return np.array([_refine_peak(spectrum.grid, values, idx[i]) for i in keep])


def _peaks(values: np.ndarray) -> np.ndarray:
    """Indices of a surface's local maxima.

    A maximum is a strict rise, an optional plateau of equal samples,
    then a strict fall; a plateau reports its middle sample, rounded
    down.  The first and last samples are never maxima.
    """
    if (values[1:] == values[:-1]).any():
        # plateaus: the maxima of the runs' levels, which have no equal neighbours
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        top = _peaks(values[starts])
        return (starts[top] + starts[top + 1] - 1) // 2
    inner = values[1:-1]
    return np.flatnonzero((inner > values[:-2]) & (inner > values[2:])) + 1


def _blocks(scan: Scan, cells: np.ndarray) -> np.ndarray:
    """Per row of coarse cell marks, the marks of the aligned blocks the fine pass takes.

    Cell ``j`` spans grid indices ``j * stride`` to ``(j + 1) * stride``,
    and one more either side; a block of ``BLOCK`` grid angles is marked
    when it holds a sample of a marked cell's window, and so is every
    block from the last coarse sample on, which covers the partial cell
    past the last.
    """
    rows, starts = np.divmod(np.flatnonzero(cells), cells.shape[-1])
    starts *= scan.stride
    marked = np.zeros((len(cells), len(scan.grid) // BLOCK), dtype=bool)
    marked[:, cells.shape[-1] * scan.stride // BLOCK :] = True
    # each window's end blocks (cell 0's -1 marks the last block, taken anyway)
    marked[rows, (starts - 1) // BLOCK] = True
    marked[rows, (starts + scan.stride + 1) // BLOCK] = True
    return marked


def _fine_surface(sums: np.ndarray, scan: Scan, blocks: np.ndarray) -> tuple[np.ndarray, Spectrum]:
    """Grid indices and fused spectrum of one trial on the blocks it marks.

    ``sums`` holds the trial's modules' projector sums
    (:attr:`~elaa_doa.subspace.SubspacePair.projector_sums`), and
    ``blocks`` one mark per aligned block of ``BLOCK`` grid angles
    (:func:`_blocks`).  The pass evaluates the trial's
    :func:`pseudospectrum` polynomial on the marked blocks' table
    columns.  Each column then keeps its place modulo ``BLOCK`` in a
    product whose width is a multiple of ``BLOCK``, so its value is the
    whole grid's bit for bit, at any number of BLAS threads.
    """
    taken = np.flatnonzero(blocks)
    index = (taken[:, None] * BLOCK + np.arange(BLOCK)).ravel()
    rows = len(scan.trig)
    trig = np.take(scan.trig.reshape(rows, -1, BLOCK), taken, axis=1).reshape(rows, -1)
    return index, Spectrum(grid=scan.grid[index], values=_product(_surface(sums, trig)))


def _coarse_cells(sub: SubspacePair, scan: Scan) -> tuple[np.ndarray, ...]:
    """Coarse ``Q``; per coarse cell, whether it can turn and its least value.

    ``sub`` has axes (trial, module); every result has a row per trial.
    ``Q`` is the product of the modules' :func:`_nulls` over ``n``, from
    one product for the whole chunk.  These are the ``n / values**2`` of
    :func:`_surface` in another layout; :func:`pick_chunk` is correct only
    while the two agree to far less than ``BOUND_MARGIN`` (they differ by
    at most 1.3e-14 on the builtins, against 1e-9).
    """
    sums = sub.projector_sums
    n = sums.shape[-1]
    nulls = _nulls(sums.reshape(-1, n), scan.coarse_trig).reshape(sums.shape[:-1] + (-1,))
    q = _product(nulls) * float(n) ** -sums.shape[-2]
    u = sums.shape[-2] * scan.harmonic_step
    bend = (u * u + u * scan.coarse_step) / 2.0  # M * h**2
    turning = np.abs(q[:, 1:] - q[:, :-1]) <= bend / 2.0 + BOUND_MARGIN
    least = np.minimum(q[:, 1:], q[:, :-1]) - (bend / 8.0 + BOUND_MARGIN)
    return q, turning, least


def pick_chunk(sub: SubspacePair, scan: Scan, num_peaks: int) -> list:
    """Peaks of each trial's MUSIC surface, one module's or two modules' fused surface.

    ``sub`` has axes (trial, module); the result holds one outcome per
    trial, its peaks or the :class:`~elaa_doa.errors.EstimationError` that
    ends it (:class:`~elaa_doa.errors.NonFiniteSnapshot`,
    :class:`UnderResolved`).  The coarse scan and its cell tests run once
    for the whole chunk, on ``Q`` itself (:func:`_coarse_cells`), and so
    does the block marking (:func:`_blocks`).  Each trial then gets one
    fine pass over the blocks it chose (:func:`_fine_surface`) and one
    :func:`peak_pick` floored at the fine surface's own value at its
    coarse pick; only a trial whose floored pick falls short gets a
    second pass, over every cell that can turn, and an unfloored pick.

    Each trial is picked as :func:`peak_pick` on the whole grid would,
    bit for bit, evaluating only part of it.  The coarse values' last
    bits may vary with the chunk and the number of BLAS threads; they
    only choose the cells and the floor's sample, and the fine values the
    pick reads, the floor among them, are the whole grid's
    (:func:`_fine_surface`).  ``Q = values**-2`` is the
    product of ``L`` normalised nulls ``a^H P a / n``, each a
    trigonometric polynomial of degree ``n - 1`` in ``w = k*d*sin(angle)``
    with values in [0, 1].
    Bernstein's inequality on ``Q - 1/2``, of degree ``N = L*(n - 1)``,
    bounds ``|dQ/dw|`` by ``N/2`` and ``|d2Q/dw2|`` by ``N**2/2``, so
    ``|d2Q/dangle2| <= M = (N**2*(k*d)**2 + N*k*d) / 2``.  On a coarse cell
    of width ``h``, ends that differ by more than ``M*h**2/2`` leave no
    turning point, and no sample reaches a height ``T`` unless
    ``min(ends) - M*h**2/8 <= 1/T**2``.

    The fine grid is evaluated on the cells that pass both tests, each
    widened by a sample either way so that a maximum on a coarse sample
    has both neighbours, and on the partial cell past the last coarse
    sample.  With ``T`` the ``num_peaks``-th greedy pick among the coarse
    maxima, the fine maxima of height ``T`` or more are the whole grid's,
    and a greedy pick depends only on the maxima at or above it, so the
    pick floored at ``T`` is the whole grid's; if it gives fewer than
    ``num_peaks`` picks, or the coarse maxima do, every cell that can turn
    is evaluated and the pick has no floor.  The block that holds the
    pick's own sample is always taken, so ``T`` is read off the fine pass.

    Both tests carry ``BOUND_MARGIN`` for rounding (1.2e-15 in ``Q`` per
    module against a long-double evaluation, and at most 1.8e-15 between
    the chunk-wide coarse product and the per-basis one on the builtins) and
    the 1e-24 floor: rounding turns a monotone run over only where the
    slope is below it, which the turning test admits with
    ``2*(stride + 1)`` times the rounding.  The margin is negligible
    against ``M*h**2/8`` (3e-5 for one module on a 0.05 degree cell).
    """
    q, turning, least = _coarse_cells(sub, scan)
    # the coarse maxima, Q's strict minima at inner samples, by trial; -Q ranks them
    inner = q[:, 1:-1]
    rows, top = np.divmod(np.flatnonzero((inner < q[:, :-2]) & (inner < q[:, 2:])), inner.shape[1])
    top += 1
    heights = (-q[rows, top]).tolist()
    ends = np.searchsorted(rows, np.arange(1, len(q) + 1)).tolist()
    top = top.tolist()
    distance = _peak_distance(scan.coarse_grid)
    out = sub.failures()
    at = [None] * len(out)  # grid index of each trial's floor sample, if it has a floor
    level = np.full(len(out), math.inf)  # 1 / T**2, Q at that sample
    for t, (start, end) in enumerate(zip([0] + ends, ends)):
        if out[t] is not None:
            continue
        keep = _greedy(heights[start:end], top[start:end], distance, num_peaks)
        if len(keep) == num_peaks:
            sample = top[start + keep[-1]]
            at[t], level[t] = sample * scan.stride, q[t, sample]
    first = _blocks(scan, turning & (least <= level[:, None]))
    floored = [t for t, i in enumerate(at) if i is not None]
    first[floored, [at[t] // BLOCK for t in floored]] = True
    sums = sub.projector_sums
    for t, failure in enumerate(out):
        if failure is not None:
            continue
        out[t] = _fine_pick(sums[t], scan, first[t], num_peaks, at[t])
        if at[t] is not None and isinstance(out[t], UnderResolved):
            # the floored pick fell short: every cell that can turn, and no floor
            out[t] = _fine_pick(sums[t], scan, _blocks(scan, turning[t : t + 1])[0], num_peaks)
    return out


def _fine_pick(
    sums: np.ndarray, scan: Scan, blocks: np.ndarray, num_peaks: int, at: int | None = None
):
    """One trial's :func:`peak_pick` on the blocks it marks, or its :class:`UnderResolved`.

    With grid index ``at``, the pick is floored at the fine surface's
    value there.
    """
    index, spectrum = _fine_surface(sums, scan, blocks)
    floor = 0.0 if at is None else float(spectrum.values[np.searchsorted(index, at)])
    try:
        return peak_pick(spectrum, num_peaks, index=index, floor=floor)
    except UnderResolved as exc:
        return exc


def fused_spectrum(y: np.ndarray, cfg: ArrayConfig, num_sources: int) -> Spectrum:
    """The fused MUSIC pseudospectrum of a snapshot's two sub-arrays on the whole grid."""
    sub, scan = module_subspace(np.stack(split_ulas(y)), cfg, num_sources)
    for failure in sub.failures():
        unwrap(failure)
    return Spectrum(grid=scan.grid, values=_product(_surface(sub.projector_sums, scan.trig)))


def music_chunk(
    ys: np.ndarray, cfg: ArrayConfig, num_sources: int, ula: int | None = None
) -> list:
    """Far-field DOAs of a chunk of snapshots, radians, tallest peak first.

    ``ys`` holds one observation per row.  Returns one outcome per
    trial, as :func:`pick_chunk`.  ``ula=1`` or ``ula=2`` scans a single
    sub-array instead of fusing both, which is the narrow-aperture
    baseline the sparse array improves upon.
    """
    if ula not in (None, 1, 2):
        raise ValueError("ula must be None, 1 or 2")
    halves = np.stack(split_ulas(np.asarray(ys)), axis=-2)
    modules = halves if ula is None else halves[..., ula - 1 : ula, :]
    sub, scan = module_subspace(modules, cfg, num_sources)
    return pick_chunk(sub, scan, num_sources)


def estimate_doa_music(
    y: np.ndarray, cfg: ArrayConfig, num_sources: int, ula: int | None = None
) -> np.ndarray:
    """Far-field DOAs from one observation ``y``, radians, tallest peak first.

    The one-trial case of :func:`music_chunk`; a failure is raised.
    """
    return unwrap(music_chunk(np.asarray(y)[None], cfg, num_sources, ula)[0])
