"""Detection/localization algorithms: joint grid search, SSR and SIC.

SSR (successive space removal) declares the grid argmax, then deletes
every cell sharing a range bin with it from the candidate set.  SIC
(successive interference cancellation) keeps the whole grid but
subtracts the declared target's per-path log-likelihood contribution
from the objective, rescaling the threshold by the number of paths
still alive at each cell.  The joint search maximizes the concentrated
joint likelihood over cell tuples exhaustively and is only feasible for
a handful of targets.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geometry import AntennaLayout, Grid, Position2D, Scene
from .likelihood import ObjectiveField, ReplicaCache, objective_field
from .signal import (NoiseModel, WaveformSet, synthesize_observation,
                     whiten)
from .streams import TAG_CALIBRATION, substream

JOINT_MAX_TARGETS = 3


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
    algorithm: str = "ssr"
    early_stop: bool = True
    singularity_tol_samples: float = 1.0

    def __post_init__(self):
        if self.g_max < 1:
            raise ValueError("g_max must be at least 1")
        if self.algorithm not in ("ssr", "sic", "joint"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass(frozen=True)
class Detection:
    iteration: int
    cell: int
    location: Position2D
    value: float              # objective at declaration time
    threshold: float          # governing threshold at declaration time
    footprint: np.ndarray | None = None   # (n_paths, n_cells) bool
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
                       cache: ReplicaCache | None = None,
                       tag: int = TAG_CALIBRATION) -> np.ndarray:
    """Grid peaks of the objective under the noise-only hypothesis."""
    if cache is None:
        cache = ReplicaCache(waveforms, layout, grid)
    empty = Scene(layout=layout, targets=(), region=grid.region)
    peaks = np.empty(trials)
    for t in range(trials):
        obs = [whiten(synthesize_observation(
                   empty, waveforms, noise, p, substream(seed, tag, t, p)),
                   noise)
               for p in range(layout.n_paths)]
        fld = objective_field(obs, waveforms, layout, grid, cache=cache)
        peaks[t] = fld.combined.max()
    return peaks


def peak_quantile(peaks: np.ndarray, pfa: float) -> float:
    """Empirical (1 - pfa)-quantile using the lower order statistic, so the
    endpoint pfa -> 1 returns the minimum observed peak."""
    if not 0.0 < pfa < 1.0:
        raise ValueError("pfa must lie strictly between 0 and 1")
    return float(np.quantile(peaks, 1.0 - pfa, method="lower"))


def calibrate_threshold(waveforms: WaveformSet, layout: AntennaLayout,
                        grid: Grid, noise: NoiseModel, pfa: float,
                        trials: int, seed: int,
                        cache: ReplicaCache | None = None) -> ThresholdConfig:
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
        footprint = fld.footprint_of_cell(cell)
        report.detections.append(Detection(
            iteration=g, cell=cell, location=fld.grid.cell_center(cell),
            value=value, threshold=lam, footprint=footprint,
            alphas=fld.alphas_at(cell)))
        report.accumulated_objective += value
        candidates &= ~footprint.any(axis=0)
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
        footprint = fld.footprint_of_cell(cell)
        alphas = fld.alphas_at(cell)
        sic_modified_term(fld, cell)
        if value >= thr:
            report.detections.append(Detection(
                iteration=g, cell=cell, location=fld.grid.cell_center(cell),
                value=value, threshold=thr, footprint=footprint,
                alphas=alphas))
            report.accumulated_objective += value
        elif config.early_stop:
            break
    return report


# --- joint exhaustive search ----------------------------------------------

def joint_search(observations, waveforms: WaveformSet, layout: AntennaLayout,
                 grid: Grid, n_targets: int, threshold: float,
                 cache: ReplicaCache | None = None,
                 config: EstimatorConfig | None = None) -> DetectionReport:
    """Exhaustive maximization of the joint concentrated log-likelihood
    over unordered tuples of grid cells (the objective is symmetric under
    permutation, so ordered tuples add nothing).

    Tuples containing a delay pair closer than the singularity tolerance
    on any path are excluded from the search.  The tuple is declared only
    when the summed statistic reaches the threshold.
    """
    if config is None:
        config = EstimatorConfig(g_max=max(n_targets, 1), algorithm="joint")
    if not 1 <= n_targets <= JOINT_MAX_TARGETS:
        raise ValueError(
            f"joint search limited to small G (1..{JOINT_MAX_TARGETS}); "
            "its complexity grows exponentially with the target count")
    if n_targets >= 2 and grid.n_cells > 2500:
        raise ValueError(
            "joint search enumerates all cell tuples; use a coarser grid "
            f"(got {grid.n_cells} cells, limit 2500 for G >= 2)")
    if cache is None:
        cache = ReplicaCache(waveforms, layout, grid)
    fld = objective_field(observations, waveforms, layout, grid, cache=cache)
    report = DetectionReport(algorithm="joint", lambda_prime=threshold)

    if n_targets == 1:
        cell = fld.argmax_cell()
        total = float(fld.combined[cell])
        best = (cell,)
    else:
        best, total = _joint_search_multi(fld, cache, n_targets,
                                          config.singularity_tol_samples)
        if best is None:
            return report
    if total < threshold:
        return report

    # order declarations by single-target objective, strongest first
    cells = sorted(best, key=lambda c: (-fld.combined[c], c))
    alphas = _joint_alphas(fld, cache, cells, config.singularity_tol_samples)
    for i, cell in enumerate(cells, start=1):
        report.detections.append(Detection(
            iteration=i, cell=cell, location=fld.grid.cell_center(cell),
            value=total, threshold=threshold,
            footprint=fld.footprint_of_cell(cell), alphas=alphas[:, i - 1]))
    report.accumulated_objective = total
    return report


def _joint_search_multi(fld: ObjectiveField, cache: ReplicaCache,
                        n_targets: int, tol_samples: float):
    n_paths, n_cells = fld.per_path_ll.shape
    ts = cache.waveforms.Ts
    cross = fld.cross
    energy = fld.energy
    c = np.arange(n_cells)
    grams = np.stack([cache.inner_products(p, c[:, None], c[None, :])
                      for p in range(n_paths)])
    # collision mask: delay gap under the tolerance on any path
    gap_ok = np.ones((n_cells, n_cells), dtype=bool)
    for p in range(n_paths):
        d = cache.delays[p]
        gap_ok &= np.abs(d[None, :] - d[:, None]) >= tol_samples * ts
    usable = ~fld.out_of_window.any(axis=0)

    if n_targets == 2:
        i1, i2 = np.triu_indices(n_cells, k=1)
        keep = gap_ok[i1, i2] & usable[i1] & usable[i2]
        i1, i2 = i1[keep], i2[keep]
        if len(i1) == 0:
            return None, -np.inf
        total = np.zeros(len(i1))
        for p in range(n_paths):
            e1, e2 = energy[p, i1], energy[p, i2]
            x1, x2 = cross[p, i1], cross[p, i2]
            g = grams[p, i1, i2]
            det = e1 * e2 - np.abs(g) ** 2
            q = (e2 * np.abs(x1) ** 2 + e1 * np.abs(x2) ** 2
                 - 2.0 * np.real(g * np.conj(x1) * x2)) / det
            total += 0.5 * q
        best = int(np.argmax(total))
        return (int(i1[best]), int(i2[best])), float(total[best])

    # G = 3: chunked batched solves
    cells = np.flatnonzero(usable)
    combos = np.array(list(itertools.combinations(cells.tolist(), 3)),
                      dtype=np.int64)
    if len(combos) == 0:
        return None, -np.inf
    ok = (gap_ok[combos[:, 0], combos[:, 1]]
          & gap_ok[combos[:, 0], combos[:, 2]]
          & gap_ok[combos[:, 1], combos[:, 2]])
    combos = combos[ok]
    if len(combos) == 0:
        return None, -np.inf
    best_val, best_combo = -np.inf, None
    chunk = 200_000
    for lo in range(0, len(combos), chunk):
        part = combos[lo: lo + chunk]
        total = np.zeros(len(part))
        for p in range(n_paths):
            g = grams[p][part[:, :, None], part[:, None, :]]  # (B, 3, 3)
            idx = np.arange(3)
            g[:, idx, idx] = energy[p, part]
            x = cross[p, part]                                # (B, 3)
            sol = np.linalg.solve(g, x[..., None])[..., 0]
            total += 0.5 * np.real(np.einsum("bi,bi->b", np.conj(x), sol))
        i = int(np.argmax(total))
        if total[i] > best_val:
            best_val = float(total[i])
            best_combo = tuple(int(c) for c in part[i])
    return best_combo, best_val


def _joint_alphas(fld: ObjectiveField, cache: ReplicaCache, cells,
                  tol_samples: float) -> np.ndarray:
    """Per-path joint reflection-coefficient estimates for the declared
    tuple, shape (n_paths, G); NaN on paths where the tuple is singular."""
    n_paths = fld.per_path_ll.shape[0]
    idx = np.asarray(cells)
    g_n = len(idx)
    out = np.full((n_paths, g_n), np.nan + 0j, dtype=complex)
    ts = cache.waveforms.Ts
    for p in range(n_paths):
        d = cache.delays[p, idx]
        if g_n > 1 and np.min(np.abs(d[:, None] - d[None, :])
                              [~np.eye(g_n, dtype=bool)]) < tol_samples * ts:
            continue
        gram = cache.inner_products(p, idx[:, None], idx[None, :])
        x = fld.cross[p, idx]
        try:
            out[p] = np.linalg.solve(gram, x)
        except np.linalg.LinAlgError:
            continue
    return out
