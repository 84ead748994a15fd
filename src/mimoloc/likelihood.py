"""Concentrated log-likelihoods, Gram matrices and the gridded objective.

All likelihood evaluation happens after whitening (signal.whiten).  With
white noise the whitened noise covariance is the identity and the
replica energies are s^H s.  With AR(1) clutter the observations arrive
as R^-1 r and the ReplicaCache built with that noise model holds the
energies s^H R^-1 s, so the objective field is the GLRT
|s^H R^-1 r|^2 / (2 s^H R^-1 s) and its alphas the colored-noise MLEs.
The direct routes (path_loglik, gram_matrix, joint_path_loglik, the
replica inner products and so the joint search) take R = I: white noise
only.

Two evaluation routes exist on purpose.  path_loglik materialises the
delayed replica and takes inner products directly; objective_field
reaches the same numbers through one FFT cross-correlation per path
plus the fractional-delay interpolation weights, which turns the
per-cell work into an 8-tap gather (the hot kernel).  The tests hold
the two routes to each other.
"""
from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import as_strided

_FFT_WORKERS = min(4, os.cpu_count() or 1)

from . import _kernels
from .errors import CoincidentDelayError, ObservationWindowError
from .geometry import AntennaLayout, Grid, Position2D, delay_bin, grid_delays, path_delay
from .signal import (KERNEL_TAPS, NoiseModel, PathObservation, WaveformSet,
                     delayed_replica, interp_taps, steering_vector)

SINGULARITY_CONDITION = 1e8
# grid tuples whose delays collide within one sample on some path are
# excluded from the joint search
SINGULARITY_TOL_SAMPLES = 1.0


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


class ObjectiveField:
    """Per-cell, per-path log-likelihood cache and the summed objective.

    combined always equals per_path_ll summed over paths not yet
    subtracted at each cell; interference cancellation mutates the field
    through mark_subtracted so every (cell, path) pair is subtracted at
    most once.
    """

    def __init__(self, grid: Grid, per_path_ll: np.ndarray,
                 cross: np.ndarray, energy: np.ndarray, bins: np.ndarray,
                 out_of_window: np.ndarray, tau_c: float):
        self.grid = grid
        self.per_path_ll = per_path_ll
        self.cross = cross
        self.energy = energy
        self.bins = bins
        self.out_of_window = out_of_window
        self.tau_c = tau_c
        self.subtracted = np.zeros_like(per_path_ll, dtype=bool)
        self.combined = per_path_ll.sum(axis=0)

    @property
    def n_paths(self) -> int:
        return self.per_path_ll.shape[0]

    def argmax_cell(self, mask: np.ndarray | None = None) -> int:
        """Row-major-first argmax of the current objective (deterministic
        tie-break: lowest flat index)."""
        if mask is None:
            return int(np.argmax(self.combined))
        vals = np.where(mask, self.combined, -np.inf)
        return int(np.argmax(vals))

    def footprint_of_cell(self, cell: int) -> np.ndarray:
        """Per-path range-bin footprint masks of a declared cell,
        shape (n_paths, n_cells)."""
        return np.abs(self.bins - self.bins[:, cell][:, None]) <= 1

    def mark_subtracted(self, mask: np.ndarray) -> None:
        """Cancel the masked (path, cell) log-likelihood contributions (a
        pair is cancelled at most once) and re-sum combined over the pairs
        still alive, so a fully cancelled cell is exactly 0."""
        self.subtracted |= mask
        self.combined = (self.per_path_ll * ~self.subtracted).sum(axis=0)

    def alphas_at(self, cell: int) -> np.ndarray:
        """Per-path isolated-target reflection-coefficient MLEs at a cell."""
        e = self.energy[:, cell]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = self.cross[:, cell] / e
        a[~(e > 0)] = 0.0
        return a


class ReplicaCache:
    """Per-scenario precomputation shared by every trial.

    Geometry (delays, range bins), interpolation weights and replica
    energies depend only on (waveforms, layout, grid, noise), so they are
    built once; per-trial work reduces to one FFT correlation per path
    plus the tap gather.  noise (default white) sets the energies: s^H s
    for white noise, s^H R^-1 s with clutter.
    """

    def __init__(self, waveforms: WaveformSet, layout: AntennaLayout,
                 grid: Grid, noise: NoiseModel = NoiseModel()):
        self.waveforms = waveforms
        self.layout = layout
        self.grid = grid
        self.noise = noise
        self.delays = grid_delays(grid, layout)          # (P, C)
        self.bins = delay_bin(self.delays, waveforms.tau_c)
        self.out_of_window = (self.delays + waveforms.tau_c > waveforms.T)

        d = self.delays / waveforms.Ts
        n0 = np.floor(d).astype(np.int64)
        mu = d - n0
        self.tap_offsets, taps = interp_taps(mu)         # (P, C, 8)
        first = int(self.tap_offsets[0])                 # -3 for 8 taps
        # gather base index into the lag-extended correlation array
        self.gather_base = (n0 + first + KERNEL_TAPS).astype(np.int32)
        taps = np.ascontiguousarray(taps)
        taps[self.out_of_window] = 0.0
        self.gather_base[self.out_of_window] = 0
        self.taps = taps

        self.path_tx = np.array([k for _, _, k in layout.paths()])
        if self.noise.is_white:
            self.energy = self._energies(n0)
        else:
            self.energy = self._clutter_energies(n0)
        self.energy[self.out_of_window] = 0.0

        n_t, p = waveforms.n_samples, waveforms.pulse_samples
        self.nfft = scipy.fft.next_fast_len(n_t + p + 2 * KERNEL_TAPS)
        self.wave_fft_conj = np.conj(
            scipy.fft.fft(waveforms.samples, self.nfft, axis=1))
        self.path_fft_conj = np.ascontiguousarray(
            self.wave_fft_conj[self.path_tx])

    def _energies(self, n0):
        # each cell paired with itself (offset 0), exact while the shifted
        # pulse (plus kernel support) stays inside the window
        paths = np.arange(len(self.delays))[:, None]
        energy = self._tap_form(paths, self.taps, self.taps,
                                np.zeros_like(paths)).real
        # cells whose kernel support clips the window edge: evaluate directly
        wf = self.waveforms
        interior_lo = -int(self.tap_offsets[0])
        interior_hi = (wf.n_samples - wf.pulse_samples
                       - int(self.tap_offsets[-1]))
        edge = (~self.out_of_window) & ((n0 < interior_lo) | (n0 > interior_hi))
        for pth, c in zip(*np.nonzero(edge)):
            rep = delayed_replica(wf, int(self.path_tx[pth]),
                                  float(self.delays[pth, c]))
            energy[pth, c] = np.vdot(rep, rep).real
        return energy

    def _clutter_energies(self, n0):
        # each in-window replica as its span (taps times the shifted pulse)
        # through the path's innovations recursion
        wf = self.waveforms
        p = wf.pulse_samples
        shifted = np.zeros((wf.n_waveforms, p + KERNEL_TAPS - 1, KERNEL_TAPS),
                           dtype=complex)      # [k, j, t] = s_k[j - t]
        for t in range(KERNEL_TAPS):
            shifted[:, t: t + p, t] = wf.samples[:, :p]
        start = n0 + int(self.tap_offsets[0])
        energy = np.zeros(self.delays.shape)
        for path, k in enumerate(self.path_tx):
            cells = np.flatnonzero(~self.out_of_window[path])
            energy[path, cells] = self.noise.clutter_filter(
                wf.n_samples, path).energies(
                    shifted[k] @ self.taps[path, cells].T, start[path, cells])
        return energy

    def inner_products(self, paths, a, b) -> np.ndarray:
        """Replica inner products s~_a^H s~_b of cells a and b on the given
        paths (integer arrays, broadcast together), e.g.
        inner_products(p, cells[:, None], cells[None, :]) is one path's
        Gram matrix of the cells.  Exact while both replicas' kernel
        support stays inside the window (gram_matrix is the oracle).
        Unweighted: white noise only."""
        return self._tap_form(
            paths, self.taps[paths, a], self.taps[paths, b],
            self.gather_base[paths, a] - self.gather_base[paths, b])

    def _tap_form(self, paths, taps_a, taps_b, delta) -> np.ndarray:
        """sum_t sum_u h_t(a) h_u(b) ac(delta + t - u): the inner product
        of two replicas on a path from their interpolation taps h (trailing
        axis) and the offset delta = n_a - n_b of their gather bases; ac is
        the autocorrelation ac(d) = sum_m conj(s[m]) s[m + d] of the path's
        pulse, evaluated only at the lags the pairs reach."""
        wf = self.waveforms
        p = wf.pulse_samples
        n = taps_a.shape[-1]
        k = self.path_tx[paths]
        d_min = int(np.min(delta))
        lo, hi = d_min - (n - 1), int(np.max(delta)) + (n - 1)
        ac = np.zeros((wf.n_waveforms, hi - lo + 1), dtype=complex)
        for kk in np.unique(k):
            s = wf.samples[kk, :p]
            for d in range(max(lo, 1 - p), min(hi, p - 1) + 1):
                ac[kk, d - lo] = np.vdot(s[max(0, -d): p - max(0, d)],
                                         s[max(0, d): p + min(0, d)])
        # win[..., j] = ac(delta - (n - 1) + j), read as the Toeplitz matrix
        # [..., t, u] -> win[..., n - 1 + t - u] without copying
        win = ac.ravel()[(k * ac.shape[1] + delta - d_min)[..., None]
                         + np.arange(2 * n - 1)]
        step = win.strides[-1]
        toeplitz = as_strided(win[..., n - 1:],
                              shape=win.shape[:-1] + (n, n),
                              strides=win.strides[:-1] + (step, -step),
                              writeable=False)
        return np.einsum("...t,...u,...tu->...", taps_a, taps_b, toeplitz)

    def correlate(self, obs: PathObservation) -> np.ndarray:
        """Cross-correlation of an observation with its path's waveform at
        all integer lags, extended by KERNEL_TAPS negative lags in front."""
        k = int(self.path_tx[obs.path])
        spec = scipy.fft.fft(obs.r, self.nfft) * self.wave_fft_conj[k]
        corr = scipy.fft.ifft(spec)
        return np.concatenate([corr[-KERNEL_TAPS:], corr])

    def correlate_all(self, obs_matrix: np.ndarray) -> np.ndarray:
        """Batched correlate over all paths: obs_matrix is (n_paths, N_T)
        ordered by flat path index; returns (n_paths, nfft + KERNEL_TAPS)."""
        spec = scipy.fft.fft(obs_matrix, self.nfft, axis=1,
                             workers=_FFT_WORKERS)
        spec *= self.path_fft_conj
        corr = scipy.fft.ifft(spec, axis=1, workers=_FFT_WORKERS,
                              overwrite_x=True)
        return np.concatenate([corr[:, -KERNEL_TAPS:], corr], axis=1)


def path_loglik(theta: Position2D, obs: PathObservation,
                waveforms: WaveformSet, layout: AntennaLayout,
                path: int) -> float:
    """Single-path concentrated log-likelihood 0.5 |s~^H r|^2 / (s~^H s~).

    Out-of-window or zero-energy replicas yield 0 with a warning rather
    than an error so grid scans stay total.
    """
    if not obs.whitened:
        raise ValueError("observation must be whitened")
    try:
        sv = steering_vector(waveforms, path, theta, layout)
    except ObservationWindowError:
        warnings.warn("candidate location outside observation window; "
                      "log-likelihood defined as 0", stacklevel=2)
        return 0.0
    e = sv.energy()
    if e <= 0.0:
        warnings.warn("zero-energy replica; log-likelihood defined as 0",
                      stacklevel=2)
        return 0.0
    return 0.5 * abs(np.vdot(sv.samples, obs.r)) ** 2 / e


def objective_field(observations, waveforms: WaveformSet,
                    layout: AntennaLayout, grid: Grid,
                    cache: ReplicaCache | None = None) -> ObjectiveField:
    """Evaluate every path's log-likelihood on every grid cell and sum.

    observations: iterable of whitened PathObservation covering every
    path exactly once.  Without a cache the noise is taken to be white;
    under clutter pass the cache built with the noise model.
    """
    if cache is None:
        cache = ReplicaCache(waveforms, layout, grid)
    obs_by_path = {}
    for o in observations:
        if not o.whitened:
            raise ValueError("all observations must be whitened")
        if o.path in obs_by_path:
            raise ValueError(f"duplicate observation for path {o.path}")
        obs_by_path[o.path] = o
    if sorted(obs_by_path) != list(range(layout.n_paths)):
        raise ValueError("need exactly one observation per path")

    n_paths, n_cells = layout.n_paths, grid.n_cells
    per_path_ll = np.empty((n_paths, n_cells))
    cross = np.empty((n_paths, n_cells), dtype=complex)
    obs_matrix = np.stack([obs_by_path[p].r for p in range(n_paths)])
    corr = cache.correlate_all(obs_matrix)
    for p in range(n_paths):
        _kernels.path_objective(np.ascontiguousarray(corr[p]),
                                cache.gather_base[p], cache.taps[p],
                                cache.energy[p], cross[p], per_path_ll[p])
    return ObjectiveField(grid=grid, per_path_ll=per_path_ll, cross=cross,
                          energy=cache.energy.copy(), bins=cache.bins,
                          out_of_window=cache.out_of_window,
                          tau_c=waveforms.tau_c)


def gram_matrix(thetas, path: int, waveforms: WaveformSet,
                layout: AntennaLayout) -> GramMatrix:
    """Replica Gram matrix for a tuple of candidate locations on one path.

    Singularity is reported through the condition estimate (and the
    delay gaps), never raised here.
    """
    l, k = divmod(path, layout.n_tx)
    delays = tuple(path_delay(layout, th, l, k) for th in thetas)
    reps = [steering_vector(waveforms, path, th, layout).samples
            for th in thetas]
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
    if not obs.whitened:
        raise ValueError("observation must be whitened")
    sv = steering_vector(waveforms, path, theta, layout)
    e = sv.energy()
    if e <= 0.0:
        raise ValueError("zero-energy replica")
    return complex(np.vdot(sv.samples, obs.r) / e)


def joint_path_loglik(thetas, obs: PathObservation, waveforms: WaveformSet,
                      layout: AntennaLayout, path: int) -> float:
    """Concentrated joint log-likelihood: half the squared norm of the
    projection of r onto the span of the candidate replicas."""
    if not obs.whitened:
        raise ValueError("observation must be whitened")
    gram = gram_matrix(thetas, path, waveforms, layout)
    reps = np.stack([steering_vector(waveforms, path, th, layout).samples
                     for th in thetas], axis=1)
    cross = reps.conj().T @ obs.r
    alpha = alpha_mle_joint(gram, cross)
    return float(0.5 * np.real(np.vdot(cross, alpha)))


# --- gridmap export -------------------------------------------------------

GRIDMAP_MAGIC = b"MIMOGRD1"
COMBINED_FIELD_ID = -1


def save_gridmap_csv(values: np.ndarray, grid: Grid, path) -> None:
    """Cell-centre x, y and value, one row per cell in row-major order."""
    x, y = grid.centers()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x_m,y_m,value\n")
        for xi, yi, vi in zip(x, y, np.asarray(values, dtype=float)):
            fh.write(f"{float(xi)!r},{float(yi)!r},{float(vi)!r}\n")


def save_gridmap_binary(values: np.ndarray, grid: Grid, path_id: int,
                        path) -> None:
    """Binary layout (documented, bit-exact):

    bytes 0-7   magic "MIMOGRD1"
    bytes 8-11  uint32 little-endian nx
    bytes 12-15 uint32 little-endian ny
    bytes 16-19 int32 little-endian path id (-1 = combined field)
    bytes 20-31 zero padding
    bytes 32-   nx*ny float64 little-endian values, row-major
                (value of cell (ix, iy) at offset 32 + 8*(iy*nx + ix))
    """
    header = GRIDMAP_MAGIC + struct.pack("<IIi", grid.nx, grid.ny,
                                         path_id) + b"\x00" * 12
    data = np.ascontiguousarray(values, dtype="<f8")
    if data.size != grid.n_cells:
        raise ValueError("value count does not match the grid")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_gridmap_binary(path):
    """Inverse of save_gridmap_binary: returns (values, nx, ny, path_id)."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if header[:8] != GRIDMAP_MAGIC:
            raise ValueError("not a gridmap file")
        nx, ny, path_id = struct.unpack("<IIi", header[8:20])
        values = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
    return values, nx, ny, path_id
