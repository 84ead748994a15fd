"""Detection/localization algorithms: joint grid search, SSR and SIC.

SSR (successive space removal) declares the grid argmax, then deletes
every cell sharing a range bin with it from the candidate set.  SIC
(successive interference cancellation) keeps the whole grid but
subtracts the declared target's per-path log-likelihood contribution
from the objective, rescaling the threshold by the number of paths
still alive at each cell.  The joint search maximizes the concentrated
joint likelihood exhaustively: the field argmax for one target, else one
batched LDL^H solve per path over the gap-ok cell tuples.  Its cost grows
exponentially with the target count, so it has a tuple budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import AntennaLayout, Grid, Position2D, Scene
from .likelihood import (SINGULARITY_TOL_SAMPLES, ObjectiveField,
                         ReplicaCache, map_paths, objective_field)
from .signal import (NoiseModel, WaveformSet, path_echoes,
                     synthesize_observation, white_sigma_sq, whiten)
from .streams import TAG_CALIBRATION, substream

# most cell tuples the joint search accepts: all pairs of a 50 x 50 grid
JOINT_MAX_TUPLES = math.comb(2500, 2)
# tuples per scored block: joint_path_statistic makes a few dozen
# block-length temporaries, and at 4096 tuples (64 kB per complex one) they
# stay in cache; every tuple's value is elementwise, so the block size
# changes no bits
JOINT_CHUNK = 4096


@dataclass(frozen=True)
class ThresholdConfig:
    """Calibrated detection threshold for the full-path-set objective."""

    lambda_prime: float
    pfa: float
    path_weights: np.ndarray | None = None
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.lambda_prime < 0:
            raise ValueError("lambda_prime must be nonnegative")
        if self.path_weights is not None:
            w = np.asarray(self.path_weights, dtype=float)
            if np.any(w < 0) or w.sum() <= 0:
                raise ValueError("path weights must be nonnegative with "
                                 "positive sum")

    def weights(self, n_paths: int) -> np.ndarray:
        if self.path_weights is None:
            return np.ones(n_paths)
        w = np.asarray(self.path_weights, dtype=float)
        if len(w) != n_paths:
            raise ValueError("path weight count does not match paths")
        return w


@dataclass(frozen=True)
class EstimatorConfig:
    g_max: int = 5
    early_stop: bool = True

    def __post_init__(self):
        if self.g_max < 1:
            raise ValueError("g_max must be at least 1")


@dataclass(frozen=True)
class Detection:
    iteration: int
    cell: int
    location: Position2D
    value: float              # objective at declaration time
    threshold: float          # governing threshold at declaration time
    alphas: np.ndarray | None = None      # (n_paths,) complex


@dataclass
class DetectionReport:
    algorithm: str
    detections: list[Detection] = field(default_factory=list)
    lambda_prime: float = 0.0
    accumulated_objective: float = 0.0

    @property
    def g_hat(self) -> int:
        return len(self.detections)

    def locations(self) -> list[Position2D]:
        return [d.location for d in self.detections]

    def to_text(self) -> str:
        lines = [f"# algorithm: {self.algorithm}",
                 f"# g_hat: {self.g_hat}",
                 f"# lambda_prime: {float(self.lambda_prime)!r}",
                 f"# accumulated_objective: "
                 f"{float(self.accumulated_objective)!r}",
                 "iteration,x_m,y_m,objective,threshold"]
        for d in self.detections:
            lines.append(f"{d.iteration},{float(d.location.x)!r},"
                         f"{float(d.location.y)!r},{float(d.value)!r},"
                         f"{float(d.threshold)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DetectionReport":
        header = {}
        detections = []
        for line in text.strip().splitlines():
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            elif line and not line.startswith("iteration"):
                it, x, y, val, thr = line.split(",")
                detections.append(Detection(
                    iteration=int(it), cell=-1,
                    location=Position2D(float(x), float(y)),
                    value=float(val), threshold=float(thr)))
        return cls(algorithm=header.get("algorithm", "?"),
                   detections=detections,
                   lambda_prime=float(header.get("lambda_prime", 0.0)),
                   accumulated_objective=float(
                       header.get("accumulated_objective", 0.0)))


def h0_objective_peaks(waveforms: WaveformSet, layout: AntennaLayout,
                       grid: Grid, noise: NoiseModel, trials: int, seed: int,
                       cache: ReplicaCache,
                       tag: int = TAG_CALIBRATION) -> np.ndarray:
    """Grid peaks of the objective under the noise-only hypothesis.  The
    cache must be built with this noise model."""
    if not (noise.clutter == cache.noise.clutter
            and np.array_equal(noise.sigma_sq, cache.noise.sigma_sq)):
        raise ValueError("noise differs from the noise model of the cache")
    empty = Scene(layout=layout, targets=(), region=grid.region)
    peaks = np.empty(trials)
    for t in range(trials):
        segments = trial_segments(cache, empty, seed, tag, t)
        peaks[t] = objective_field(segments, cache).combined.max()
    return peaks


def trial_segments(cache: ReplicaCache, scene: Scene, seed: int, tag: int,
                   trial: int) -> np.ndarray:
    """Segment matrix (cache.blocks_of) of one trial of a scene on the
    cache's layout, whitened against the cache's noise model, path p's
    noise drawn from stream (seed, tag, trial, p).  Each path's segment
    (cache.segment_slices) is filled in a zeroed buffer of block_span[p]
    samples, then copied into the path's overlap-save blocks.  White
    noise: whitened noise is i.i.d. CN(0, 1), drawn straight into the
    segment; then each target's echo (signal.path_echoes, the spans
    synthesize_observation adds) over sigma_p is added where it overlaps
    the segment.  Clutter: the whole window is synthesized and whitened
    (R^-1 r), and its segment copied in.  Samples outside a segment reach
    no gather, so the field is that of the whitened full window on the
    same samples.  Paths run on worker threads for large windows
    (map_paths); the bytes do not change."""
    noise, waveforms = cache.noise, cache.waveforms
    segments = np.zeros((int(cache.path_blocks[-1]), cache.nfft),
                        dtype=complex)

    def fill(p):
        (row, window), shift = cache.segment_slices[p], cache.lag_start[p]
        segment = np.zeros(cache.block_span[p], dtype=complex)
        rng = substream(seed, tag, trial, p)
        if not noise.is_white:
            segment[row] = whiten(synthesize_observation(
                scene, waveforms, noise, p, rng), noise).r[window]
        else:
            sigma = np.sqrt(white_sigma_sq(noise, p))   # whiten's refusal
            draw = segment[row].view(float)
            rng.standard_normal(out=draw)
            draw *= np.sqrt(0.5)
            for start, echo in path_echoes(scene, waveforms, p):
                a, b = max(start, window.start), min(start + len(echo),
                                                     window.stop)
                if a < b:
                    segment[a - shift: b - shift] += (
                        echo[a - start: b - start] / sigma)
        segments[cache.path_blocks[p]: cache.path_blocks[p + 1]] = (
            cache.blocks_of(p, segment))
    map_paths(fill, len(cache.segment), waveforms.n_samples)
    return segments


def peak_quantile(peaks: np.ndarray, pfa: float) -> float:
    """Empirical (1 - pfa)-quantile using the lower order statistic, so the
    endpoint pfa -> 1 returns the minimum observed peak."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie strictly between 0 and 1")
    return float(np.quantile(peaks, 1.0 - pfa, method="lower"))


def calibrate_threshold(waveforms: WaveformSet, layout: AntennaLayout,
                        grid: Grid, noise: NoiseModel, pfa: float,
                        trials: int, seed: int,
                        cache: ReplicaCache) -> ThresholdConfig:
    """Monte Carlo threshold calibration against the grid-peak false-alarm
    rate: lambda' is the empirical (1-pfa)-quantile of the H0 peak."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie strictly between 0 and 1")
    if trials < 100:
        raise ValueError("calibration needs at least 100 trials")
    peaks = h0_objective_peaks(waveforms, layout, grid, noise, trials, seed,
                               cache=cache)
    lam = peak_quantile(peaks, pfa)
    return ThresholdConfig(lambda_prime=lam, pfa=pfa, path_weights=None,
                           trials=trials, seed=seed)


# --- SSR -------------------------------------------------------------------

def ssr_run(fld: ObjectiveField, thresholds: ThresholdConfig,
            config: EstimatorConfig) -> DetectionReport:
    """Successive space removal (candidate set shrinks, field untouched)."""
    lam = thresholds.lambda_prime
    report = DetectionReport(algorithm="ssr", lambda_prime=lam)
    candidates = fld.combined > lam
    for g in range(1, config.g_max + 1):
        if not candidates.any():
            break
        cell = fld.argmax_cell(candidates)
        value = float(fld.combined[cell])
        report.detections.append(Detection(
            iteration=g, cell=cell, location=fld.grid.cell_center(cell),
            value=value, threshold=lam, alphas=fld.alphas_at(cell)))
        report.accumulated_objective += value
        candidates &= ~fld.footprint_of_cell(cell).any(axis=0)
    return report


# --- SIC -------------------------------------------------------------------

def sic_modified_term(fld: ObjectiveField, cell: int) -> np.ndarray:
    """Subtract the declared cell's footprint contribution from the field.

    Per path, the subtraction covers the cells of the cell's range-bin
    footprint that were not already cancelled by earlier detections, so
    each (cell, path) pair is subtracted at most once over the run.
    Returns the per-path, per-cell amounts removed.
    """
    new_mask = fld.footprint_of_cell(cell) & ~fld.subtracted
    amounts = fld.per_path_ll * new_mask
    fld.mark_subtracted(new_mask)
    return amounts


def sic_threshold(fld: ObjectiveField, cell: int,
                  thresholds: ThresholdConfig) -> float:
    """Threshold rescaled by the weight of paths still alive at the cell."""
    w = thresholds.weights(fld.n_paths)
    total = w.sum()
    cancelled = w[fld.subtracted[:, cell]].sum()
    return thresholds.lambda_prime * (total - cancelled) / total


def sic_run(fld: ObjectiveField, thresholds: ThresholdConfig,
            config: EstimatorConfig) -> DetectionReport:
    """Successive interference cancellation (field mutates, grid intact).

    The candidate's threshold is computed from the cancellation state
    left by the previous iterations (its own footprint is subtracted
    afterwards either way; rejected candidates are not restored).  The
    run ends when the argmax cell has no alive-path weight left: every
    path there is cancelled, so nothing remains to declare.
    """
    report = DetectionReport(algorithm="sic",
                             lambda_prime=thresholds.lambda_prime)
    w = thresholds.weights(fld.n_paths)
    for g in range(1, config.g_max + 1):
        cell = fld.argmax_cell()
        if w[~fld.subtracted[:, cell]].sum() == 0:
            break
        value = float(fld.combined[cell])
        thr = sic_threshold(fld, cell, thresholds)
        alphas = fld.alphas_at(cell)
        sic_modified_term(fld, cell)
        if value >= thr:
            report.detections.append(Detection(
                iteration=g, cell=cell, location=fld.grid.cell_center(cell),
                value=value, threshold=thr, alphas=alphas))
            report.accumulated_objective += value
        elif config.early_stop:
            break
    return report


# --- joint exhaustive search ----------------------------------------------

def joint_search(segments: np.ndarray, cache: ReplicaCache, n_targets: int,
                 threshold: float) -> DetectionReport:
    """Exhaustive maximization of the joint concentrated log-likelihood
    over unordered tuples of the cache's grid cells (the objective is
    symmetric under permutation, so ordered tuples add nothing), from one
    trial's segment matrix (trial_segments), which objective_field
    overwrites.

    Only the tuples of gap_ok_tuples are scored, path by path: one path's
    Gram at a time, its tuples in blocks of JOINT_CHUNK whose temporaries
    stay cache-resident, each block's values added to the running totals
    elementwise (the bits do not depend on the block size).  For
    G = n_targets >= 2, a search whose enumeration may hold more than
    JOINT_MAX_TUPLES tuples at some stage (up to
    C(n_cells, min(G, n_cells // 2))) is refused before any work.  The
    tuple is declared only when the summed statistic reaches the
    threshold.  White noise only: the Gram's off-diagonal inner products
    are not weighted by R^-1, so a cache built with clutter is refused.
    """
    if n_targets < 1:
        raise ValueError(f"n_targets must be >= 1, got {n_targets}")
    n_cells = cache.grid.n_cells
    largest = math.comb(n_cells, min(n_targets, n_cells // 2))
    if n_targets > 1 and largest > JOINT_MAX_TUPLES:
        raise ValueError(
            f"joint search for {n_targets} targets on {n_cells} cells "
            f"may hold {largest} cell tuples at once, over its budget of "
            f"{JOINT_MAX_TUPLES}; use fewer targets or a coarser grid")
    if not cache.noise.is_white:
        raise ValueError("joint search needs white noise; this cache was "
                         "built with clutter")
    fld = objective_field(segments, cache)
    report = DetectionReport(algorithm="joint", lambda_prime=threshold)

    if n_targets == 1:
        cell = fld.argmax_cell()
        best, total = (cell,), float(fld.combined[cell])
    else:
        tuples = gap_ok_tuples(cache, n_targets)
        if len(tuples) == 0:
            return report
        # path-outer, block-inner: one path's Gram at a time
        totals = np.zeros(len(tuples))
        for p in range(fld.n_paths):
            gram = cache.gram(p, np.arange(n_cells))
            for lo in range(0, len(tuples), JOINT_CHUNK):
                totals[lo: lo + JOINT_CHUNK] += joint_path_statistic(
                    gram, fld.cross[p], tuples[lo: lo + JOINT_CHUNK])[0]
            del gram        # freed before the next path's Gram is built
        i = int(np.argmax(totals))
        best, total = tuple(int(c) for c in tuples[i]), float(totals[i])
    if total < threshold:
        return report

    # order declarations by single-target objective, strongest first
    cells = np.array(sorted(best, key=lambda c: (-fld.combined[c], c)))
    if n_targets == 1:
        alphas = fld.alphas_at(cells[0])[:, None]
    else:
        order = np.arange(n_targets)[None, :]
        alphas = np.stack([
            joint_path_statistic(cache.gram(p, cells),
                                 fld.cross[p, cells], order, alphas=True)[1][0]
            for p in range(fld.n_paths)])
    for i, cell in enumerate(cells.tolist(), start=1):
        report.detections.append(Detection(
            iteration=i, cell=cell, location=fld.grid.cell_center(cell),
            value=total, threshold=threshold, alphas=alphas[:, i - 1]))
    report.accumulated_objective = total
    return report


def gap_ok_tuples(cache: ReplicaCache, n_targets: int) -> np.ndarray:
    """The cell tuples the joint search scores, shape (T, n_targets), in
    lexicographic order: cells in the window on every path whose delays
    lie SINGULARITY_TOL_SAMPLES or more apart on every path (closer pairs'
    reflection coefficients are unidentifiable)."""
    usable = ~cache.out_of_window.any(axis=0)
    tol = SINGULARITY_TOL_SAMPLES * cache.waveforms.Ts
    # ok[a, b]: a < b may share a tuple
    ok = np.triu(usable[:, None] & usable[None, :], k=1)
    for d in cache.delays:
        ok &= np.abs(d[None, :] - d[:, None]) >= tol
    tuples = np.flatnonzero(usable)[:, None]
    for _ in range(n_targets - 1):
        # cells that may join every member: one (T, C) mask, member by member
        fits = ok[tuples[:, 0]]
        for member in tuples.T[1:]:
            fits &= ok[member]
        rows, cells = np.nonzero(fits)
        tuples = np.column_stack([tuples[rows], cells])
    return tuples


def joint_path_statistic(gram: np.ndarray, cross: np.ndarray,
                         tuples: np.ndarray, alphas: bool = False):
    """One path's joint concentrated log-likelihood 0.5 x^H A^-1 x for each
    cell tuple t (rows of tuples), A = gram[t][:, t], x = cross[t] (the
    products s~^H r).  An unpivoted LDL^H factorization A = L D L^H runs
    vectorized over the tuples: with L y = x, the value is
    0.5 sum_j |y_j|^2 / D_j, elementwise per tuple, so joint_search can
    pass any block of tuples.  Reads only the diagonal and gram[t_i, t_j],
    i > j, each as one flat take from gram.ravel() (a copy when gram is not
    C-contiguous), and x as a take from cross.  Returns (values, None), or
    with alphas=True (values, A^-1 x), the joint reflection-coefficient
    MLEs by back substitution.
    """
    t = np.ascontiguousarray(tuples.T)
    g_n, n = len(t), gram.shape[1]
    flat = gram.ravel()
    low, d, y = {}, [], []        # L[i, j] (i > j), D, y
    values = np.zeros(t.shape[1])
    for j in range(g_n):
        w = [np.conj(low[j, k]) * d[k] for k in range(j)]   # conj(L_jk) D_k
        d.append(flat.take(t[j] * (n + 1)).real
                 - sum((low[j, k] * w[k]).real for k in range(j)))
        y.append(cross.take(t[j]) - sum(low[j, k] * y[k] for k in range(j)))
        for i in range(j + 1, g_n):
            low[i, j] = (flat.take(t[i] * n + t[j])
                         - sum(low[i, k] * w[k] for k in range(j))) / d[j]
        values += 0.5 * (y[j].real ** 2 + y[j].imag ** 2) / d[j]
    if not alphas:
        return values, None
    a = [None] * g_n
    for j in reversed(range(g_n)):
        a[j] = y[j] / d[j] - sum(np.conj(low[k, j]) * a[k]
                                 for k in range(j + 1, g_n))
    return values, np.stack(a, axis=-1)
