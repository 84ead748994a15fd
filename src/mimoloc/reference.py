"""Per-point oracles: each quantity of the trial path computed directly,
one candidate location at a time, from full N-sample replicas or dense
N x N matrices.  The tests hold the trial modules to them; no trial
reaches them, and they import from the trial modules, never the reverse.
The likelihood routes take R = I: white noise only, and they refuse an
observation whitened against clutter.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentDelayError, NoiseCovarianceError,
                     ObservationWindowError)
from .geometry import (AntennaLayout, Grid, Position2D, Scene, bistatic_delay,
                       delay_bin, grid_delays, path_delay)
from .likelihood import SINGULARITY_TOL_SAMPLES
from .signal import NoiseModel, PathObservation, WaveformSet, _replica_window

ISOLATED = "isolated"
PARTIALLY_SEPARABLE = "partially_separable"
COMPLETELY_ISOLATED = "completely_isolated"
MIXED = "mixed"
EMPTY = "empty"

SINGULARITY_CONDITION = 1e8


@dataclass(frozen=True)
class SeparabilityReport:
    """Pairwise/per-path separability classification of a scene.

    per_pair_per_path[g, j, l, k] is True when targets g and j are
    separable over the lk-th path (symmetric in g, j; the diagonal is
    False: a target is never separable from itself).
    """

    per_pair_per_path: np.ndarray
    target_class: tuple[str, ...]
    scene_class: str


def pair_separable(tau_g: float, tau_j: float, tau_c: float) -> bool:
    """Strict inequality: equal-to-one-pulse-width delay gaps do not separate."""
    if not tau_c > 0:
        raise ValueError("tau_c must be positive")
    return bool(abs(tau_g - tau_j) > tau_c)


def classify_scene(scene: Scene, tau_c: float) -> SeparabilityReport:
    G = scene.n_targets
    layout = scene.layout
    M, N = layout.n_rx, layout.n_tx
    sep = np.zeros((G, G, M, N), dtype=bool)
    taus = np.empty((G, M, N))
    for g, t in enumerate(scene.targets):
        for _, l, k in layout.paths():
            taus[g, l, k] = path_delay(layout, t.position, l, k)
    for g, j in itertools.combinations(range(G), 2):
        for _, l, k in layout.paths():
            s = pair_separable(taus[g, l, k], taus[j, l, k], tau_c)
            sep[g, j, l, k] = sep[j, g, l, k] = s

    classes = []
    for g in range(G):
        others = [j for j in range(G) if j != g]
        if all(sep[g, j].all() for j in others):
            classes.append(ISOLATED)
        else:
            classes.append(PARTIALLY_SEPARABLE)

    if G == 0:
        scene_class = EMPTY
    elif all(c == ISOLATED for c in classes):
        scene_class = COMPLETELY_ISOLATED
    else:
        scene_class = MIXED
    return SeparabilityReport(per_pair_per_path=sep,
                              target_class=tuple(classes),
                              scene_class=scene_class)


def bin_membership(theta: Position2D, theta_hat: Position2D, tx: Position2D,
                   rx: Position2D, tau_c: float) -> bool:
    """True when theta falls within one range bin of theta_hat on this path.

    The one-bin margin absorbs estimation error; the absolute value makes
    it symmetric in the sign of that error.
    """
    if not tau_c > 0:
        raise ValueError("tau_c must be positive")
    b = delay_bin(bistatic_delay(theta, tx, rx), tau_c)
    b_hat = delay_bin(bistatic_delay(theta_hat, tx, rx), tau_c)
    return bool(abs(b - b_hat) <= 1)


def footprint(theta_hat: Position2D, grid: Grid, layout: AntennaLayout,
              tau_c: float, delays: np.ndarray | None = None):
    """Range-bin footprint of an estimate on the grid.

    Returns (per_path, union): per_path[p, c] is True when cell c shares
    a range bin (within the one-bin margin) with theta_hat on path p;
    union is the logical OR over paths.  The estimate's own cell belongs
    to every per-path mask.
    """
    if delays is None:
        delays = grid_delays(grid, layout)
    bins = delay_bin(delays, tau_c)
    hat_bins = np.empty(layout.n_paths, dtype=np.int64)
    for p, l, k in layout.paths():
        hat_bins[p] = delay_bin(path_delay(layout, theta_hat, l, k), tau_c)
    per_path = np.abs(bins - hat_bins[:, None]) <= 1
    return per_path, per_path.any(axis=0)


def exp_clutter_cov(n_samples: int, rho: float, power: float) -> np.ndarray:
    """Exponentially correlated clutter covariance, C[i, j] = p * rho^|i-j|."""
    idx = np.arange(n_samples)
    return power * rho ** np.abs(idx[:, None] - idx[None, :]) + 0j


def covariance(noise: NoiseModel, n_samples: int, path: int = 0) -> np.ndarray:
    """Dense R = sigma^2 I + C of one path."""
    r = noise.path_sigma_sq(path) * np.eye(n_samples, dtype=complex)
    if noise.clutter is not None:
        r = r + exp_clutter_cov(n_samples, *noise.clutter)
    return r


def whitening_matrix(noise: NoiseModel, n_samples: int,
                     path: int = 0) -> np.ndarray:
    """Hermitian inverse square root of the noise-plus-clutter covariance."""
    r = covariance(noise, n_samples, path)
    if not np.allclose(r, r.conj().T):
        raise NoiseCovarianceError("invalid noise covariance: not Hermitian")
    vals, vecs = np.linalg.eigh(r)
    if np.min(vals) <= 0:
        raise NoiseCovarianceError(
            "invalid noise covariance: not positive definite")
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T


def delayed_replica(waveforms: WaveformSet, k: int, tau: float) -> np.ndarray:
    """Waveform k delayed by tau seconds, zero before arrival.

    tau + tau_c must stay inside the observation window so the full pulse
    is captured.
    """
    start, win = _replica_window(waveforms, k, tau)
    out = np.zeros(waveforms.n_samples, dtype=complex)
    out[start: start + len(win)] = win
    return out


def steering_vector(waveforms: WaveformSet, path: int, theta: Position2D,
                    layout: AntennaLayout) -> np.ndarray:
    """Delayed replica of the path's transmit waveform for a candidate
    location (the signal a unit target at theta would return)."""
    l, k = divmod(path, layout.n_tx)
    return delayed_replica(waveforms, k, path_delay(layout, theta, l, k))


@dataclass(frozen=True)
class GramMatrix:
    """Replica inner products s~_g^H s~_j for one path (whitened)."""

    values: np.ndarray          # (G, G) complex Hermitian
    condition: float
    delays: tuple[float, ...]   # per-target path delays, seconds
    sample_interval: float

    @property
    def min_gap_samples(self) -> float:
        d = np.asarray(self.delays)
        if len(d) < 2:
            return np.inf
        gaps = np.abs(d[:, None] - d[None, :])[~np.eye(len(d), dtype=bool)]
        return float(gaps.min() / self.sample_interval)


def _check_white(obs: PathObservation) -> None:
    """These routes take R = I: the observation must be whitened, and not
    against clutter (R^-1 r would need s^H R^-1 s, which they lack)."""
    if not obs.whitened:
        raise ValueError("observation must be whitened")
    if obs.noise is not None and not obs.noise.is_white:
        raise ValueError("the direct likelihood routes need white noise; "
                         "this observation was whitened against clutter")


def path_loglik(theta: Position2D, obs: PathObservation,
                waveforms: WaveformSet, layout: AntennaLayout,
                path: int) -> float:
    """Single-path concentrated log-likelihood 0.5 |s~^H r|^2 / (s~^H s~).

    Out-of-window or zero-energy replicas yield 0 with a warning rather
    than an error so grid scans stay total.
    """
    _check_white(obs)
    try:
        s = steering_vector(waveforms, path, theta, layout)
    except ObservationWindowError:
        warnings.warn("candidate location outside observation window; "
                      "log-likelihood defined as 0", stacklevel=2)
        return 0.0
    e = float(np.vdot(s, s).real)
    if e <= 0.0:
        warnings.warn("zero-energy replica; log-likelihood defined as 0",
                      stacklevel=2)
        return 0.0
    return 0.5 * abs(np.vdot(s, obs.r)) ** 2 / e


def gram_matrix(thetas, path: int, waveforms: WaveformSet,
                layout: AntennaLayout) -> GramMatrix:
    """Replica Gram matrix for a tuple of candidate locations on one path.

    Singularity is reported through the condition estimate (and the
    delay gaps), never raised here.
    """
    l, k = divmod(path, layout.n_tx)
    delays = tuple(path_delay(layout, th, l, k) for th in thetas)
    reps = [steering_vector(waveforms, path, th, layout) for th in thetas]
    g = len(reps)
    values = np.empty((g, g), dtype=complex)
    for i in range(g):
        for j in range(i, g):
            v = np.vdot(reps[i], reps[j])
            values[i, j] = v
            values[j, i] = np.conj(v)
    cond = float(np.linalg.cond(values))
    return GramMatrix(values=values, condition=cond, delays=delays,
                      sample_interval=waveforms.Ts)


def alpha_mle_joint(gram: GramMatrix, cross: np.ndarray) -> np.ndarray:
    """Joint reflection-coefficient MLE: solve the normal equations
    (S~^H S~) alpha = S~^H r.

    Raises CoincidentDelayError when a delay pair collides within one
    sample or the Gram matrix is numerically singular.
    """
    if (gram.min_gap_samples < SINGULARITY_TOL_SAMPLES
            or not np.isfinite(gram.condition)
            or gram.condition > SINGULARITY_CONDITION):
        raise CoincidentDelayError(
            "coincident delays; reflection coefficients unidentifiable "
            f"(min gap {gram.min_gap_samples:.3g} samples, condition "
            f"{gram.condition:.3g})")
    alpha = np.linalg.solve(gram.values, cross)
    denom = np.linalg.norm(cross)
    if denom > 0:
        residual = np.linalg.norm(gram.values @ alpha - cross) / denom
        if residual > 1e-8:
            raise CoincidentDelayError(
                f"normal-equation residual {residual:.3g} exceeds 1e-8")
    return alpha


def alpha_mle_isolated(theta: Position2D, obs: PathObservation,
                       waveforms: WaveformSet, layout: AntennaLayout,
                       path: int) -> complex:
    """Closed-form single-target MLE (s~^H r) / (s~^H s~)."""
    _check_white(obs)
    s = steering_vector(waveforms, path, theta, layout)
    e = float(np.vdot(s, s).real)
    if e <= 0.0:
        raise ValueError("zero-energy replica")
    return complex(np.vdot(s, obs.r) / e)


def joint_path_loglik(thetas, obs: PathObservation, waveforms: WaveformSet,
                      layout: AntennaLayout, path: int) -> float:
    """Concentrated joint log-likelihood: half the squared norm of the
    projection of r onto the span of the candidate replicas."""
    _check_white(obs)
    gram = gram_matrix(thetas, path, waveforms, layout)
    reps = np.stack([steering_vector(waveforms, path, th, layout)
                     for th in thetas], axis=1)
    cross = reps.conj().T @ obs.r
    alpha = alpha_mle_joint(gram, cross)
    return float(0.5 * np.real(np.vdot(cross, alpha)))
