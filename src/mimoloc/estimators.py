"""Detection/localization algorithms: joint grid search, SSR and SIC.

SSR (successive space removal) declares the grid argmax, then deletes
every cell sharing a range bin with it from the candidate set.  SIC
(successive interference cancellation) keeps the whole grid but
subtracts the declared target's per-path log-likelihood contribution
from the objective, rescaling the threshold by the number of paths
still alive at each cell.  The joint search maximizes the concentrated
joint likelihood exhaustively: the field argmax for one target, else, per
path, one row-oriented LDL^H over the prefix tree of the gap-ok cell
tuples, which factors each shared prefix once.  Its cost grows
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
# last-level tree nodes per scored block: their LDL^H row (_ldl_row) makes
# a few dozen block-length temporaries, and at 4096 nodes (64 kB per complex
# one) they stay in cache; every node's value is elementwise, so the block
# size changes no bits
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

    Only the tuples of the gap-ok prefix tree (gap_ok_tree) are scored.
    The cache keeps one tree per G in cache.joint_trees, built by the
    first search that needs it.  Scoring runs path by path, one path's
    Gram at a time: joint_path_values factors each shared prefix of the
    tree once and adds every leaf's value to the running totals (the bits
    do not depend on the sharing or on JOINT_CHUNK).  For G = n_targets
    >= 2, a search whose enumeration may hold more than JOINT_MAX_TUPLES
    tuples at some level (up to C(n_cells, min(G, n_cells // 2))) is
    refused before any work.  The tuple is declared only when the summed
    statistic reaches the threshold; its alphas come from
    joint_path_alphas.  White noise only: the Gram's off-diagonal inner
    products are not weighted by R^-1, so a cache built with clutter is
    refused.
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
        tree = cache.joint_trees.get(n_targets)
        if tree is None:
            tree = cache.joint_trees[n_targets] = gap_ok_tree(cache,
                                                              n_targets)
        n_leaves = len(tree[-1][1])
        if n_leaves == 0:
            return report
        totals = np.zeros(n_leaves)
        for p in range(fld.n_paths):
            # each path's Gram is freed before the next one is built
            joint_path_values(cache.gram(p, np.arange(n_cells)),
                              fld.cross[p], tree, totals)
        i = int(np.argmax(totals))
        best = tuple(_tuples_of(tree, [i])[0].tolist())
        total = float(totals[i])
    if total < threshold:
        return report

    # order declarations by single-target objective, strongest first
    cells = np.array(sorted(best, key=lambda c: (-fld.combined[c], c)))
    if n_targets == 1:
        alphas = fld.alphas_at(cells[0])[:, None]
    else:
        alphas = np.stack([joint_path_alphas(cache.gram(p, cells),
                                             fld.cross[p, cells])
                           for p in range(fld.n_paths)])
    for i, cell in enumerate(cells.tolist(), start=1):
        report.detections.append(Detection(
            iteration=i, cell=cell, location=fld.grid.cell_center(cell),
            value=total, threshold=threshold, alphas=alphas[:, i - 1]))
    report.accumulated_objective = total
    return report


def gap_ok_tree(cache: ReplicaCache, n_targets: int) -> tuple:
    """The cell tuples the joint search scores, as a prefix tree: one
    (parent, cell) pair of read-only int32 arrays per tuple member.  Level
    0 holds the usable cells (in the window on every path), every parent
    0 (one root).  A node of level k + 1 extends its parent's tuple at
    level k by one larger cell whose delays lie SINGULARITY_TOL_SAMPLES or
    more from each member's on every path (closer pairs' reflection
    coefficients are unidentifiable).  Nodes follow their parents, each
    parent's in cell order, so the last level holds the tuples in
    lexicographic order (gap_ok_tuples)."""
    usable = ~cache.out_of_window.any(axis=0)
    tol = SINGULARITY_TOL_SAMPLES * cache.waveforms.Ts
    # ok[a, b]: a < b may share a tuple
    ok = np.triu(usable[:, None] & usable[None, :], k=1)
    for d in cache.delays:
        ok &= np.abs(d[None, :] - d[:, None]) >= tol
    cells = np.flatnonzero(usable)
    levels = [(np.zeros(len(cells), dtype=np.int32), cells)]
    fits = ok[cells]          # fits[i, c]: cell c may join node i's tuple
    for k in range(1, n_targets):
        parent, cells = np.nonzero(fits)
        levels.append((parent, cells))
        if k + 1 < n_targets:
            fits = fits[parent] & ok[cells]
    tree = tuple(tuple(a.astype(np.int32) for a in level) for level in levels)
    for level in tree:
        for a in level:
            a.flags.writeable = False
    return tree


def gap_ok_tuples(cache: ReplicaCache, n_targets: int) -> np.ndarray:
    """The leaves of gap_ok_tree as cell tuples, shape (T, n_targets), in
    lexicographic order."""
    tree = gap_ok_tree(cache, n_targets)
    return _tuples_of(tree, np.arange(len(tree[-1][1])))


def _tuples_of(tree: tuple, leaves) -> np.ndarray:
    """The cell tuples of the given last-level nodes of a tree, one row
    each."""
    members = []
    for parent, cell in reversed(tree):
        members.append(cell[leaves])
        leaves = parent[leaves]
    return np.stack(members[::-1], axis=1)


# the LDL^H state above level 0: no rows yet, running value 0
_ROOT = ([], [], [], [], np.zeros(1))


def _ldl_row(flat: np.ndarray, n: int, cross: np.ndarray, state: tuple,
             parent: np.ndarray, cells: np.ndarray):
    """One row of an unpivoted, row-oriented ("up-looking") LDL^H
    factorization A = L D L^H with L y = x, for each node of a tree level:
    node i's tuple is node parent[i]'s extended by cells[i], A[a, b] =
    flat[a * n + b] and x = cross.  state holds each parent's rows j
    (cells t_j, D_j, y_j, w_j[m] = conj(L_jm) D_m for m < j, and the
    running value 0.5 sum_j |y_j|^2 / D_j), read here by take.  Returns
    the nodes' state, rows j included, and their row of L.  Each entry is
    the expression a column-by-column LDL^H computes, summed in the same
    order from Python sum's leading 0, so its bits do not depend on which
    tuples share the rows above."""
    t, d, y, w, value = state
    t, d, y = ([a.take(parent) for a in rows] for rows in (t, d, y))
    w = [[a.take(parent) for a in row] for row in w]
    i = len(t)
    low = []                                              # L[i, j], j < i
    for j in range(i):
        low.append((flat.take(cells * n + t[j])
                    - sum(low[k] * w[j][k] for k in range(j))) / d[j])
    w_i = [np.conj(low[k]) * d[k] for k in range(i)]
    d_i = (flat.take(cells * (n + 1)).real
           - sum((low[k] * w_i[k]).real for k in range(i)))
    y_i = cross.take(cells) - sum(low[k] * y[k] for k in range(i))
    value = value.take(parent) + 0.5 * (y_i.real ** 2
                                        + y_i.imag ** 2) / d_i
    return (t + [cells], d + [d_i], y + [y_i], w + [w_i], value), low


def joint_path_values(gram: np.ndarray, cross: np.ndarray, tree: tuple,
                      totals: np.ndarray) -> None:
    """Add one path's joint concentrated log-likelihood 0.5 x^H A^-1 x of
    each leaf tuple t of tree (gap_ok_tree) to totals, A = gram[t][:, t],
    x = cross[t] (the products s~^H r).  _ldl_row runs every level but
    the last whole, so each shared prefix is factored once, and the last
    in blocks of JOINT_CHUNK nodes whose temporaries stay cache-resident.
    Reads gram by flat take from gram.ravel() (a copy when gram is not
    C-contiguous)."""
    flat, n = gram.ravel(), gram.shape[1]
    state = _ROOT
    for parent, cells in tree[:-1]:
        state = _ldl_row(flat, n, cross, state, parent, cells)[0]
    parent, cells = tree[-1]
    for lo in range(0, len(cells), JOINT_CHUNK):
        block = slice(lo, lo + JOINT_CHUNK)
        totals[block] += _ldl_row(flat, n, cross, state, parent[block],
                                  cells[block])[0][-1]


def joint_path_alphas(gram: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """One path's joint reflection-coefficient MLEs A^-1 x of the tuple of
    all of gram's cells, A = gram, x = cross: _ldl_row down the one-leaf
    tree of that tuple, then back substitution L^H a = D^-1 y."""
    flat, n = gram.ravel(), gram.shape[1]
    state, low, root = _ROOT, [], np.zeros(1, dtype=np.int32)
    for j in range(n):
        state, row = _ldl_row(flat, n, cross, state, root,
                              np.array([j], dtype=np.int32))
        low.append(row)
    _, d, y, _, _ = state
    a = [None] * n
    for j in reversed(range(n)):
        a[j] = y[j] / d[j] - sum(np.conj(low[k][j]) * a[k]
                                 for k in range(j + 1, n))
    return np.concatenate(a)
