"""The replica cache and the gridded objective.

All likelihood evaluation reads whitened observations.  With white
noise the whitened noise covariance is the identity and the replica
energies are s^H s; white trials draw their whitened samples directly
and never call signal.whiten.  With AR(1) clutter the observations are
whitened to R^-1 r (signal.whiten) and the ReplicaCache built with that
noise model holds the energies s^H R^-1 s, so the objective field is the
GLRT |s^H R^-1 r|^2 / (2 s^H R^-1 s) and its alphas the colored-noise
MLEs.
The replica inner products, and so the joint search, take R = I: white
noise only.  The field and the joint search take the cache alone: it is
the one description of the scenario (waveforms, layout, grid, noise).

Every replica inner product reads one table of the cache, each pulse's
autocorrelation ac(d): s~_a^H s~_b = sum_t sum_u h_t(a) h_u(b)
ac(n_a - n_b + t - u) from the taps h and gather bases n, an 8 x 8
Toeplitz form for the energies, and for a path's Gram matrix one sparse
product of two band operators (_kernels.band_operator), the taps against
the autocorrelation convolved with each cell's taps.

objective_field evaluates every cell through the FFT cross-correlation
of each path plus the fractional-delay interpolation weights, which turns
the per-cell work into an 8-tap gather (the hot kernel).  The tests hold
it to the per-point oracles of mimoloc.reference.

The correlation covers only the lags a path's gathers reach: each path's
segment of the observation (gather span plus pulse) is cut into
overlap-save blocks of nfft samples, rows of the matrix every trial
fills, all transformed in place in one batched FFT; the cache's gather
indices read the result.  A trial's noise is drawn once
(estimators.trial_noise) and every SNR point and target subset of that
trial builds its matrix from the one draw (estimators.trial_segments):
white trials add the whitened echoes to a copy of each path's drawn
segment and copy that into its blocks (blocks_of); clutter trials add
the echoes to the drawn window, whiten it and copy its segment in.  On
windows of at least THREAD_MIN_SAMPLES samples the per-path work of a
trial (the draw, the segment fill, the gather) runs as one block of
paths per worker thread (map_paths); numpy and scipy release the GIL in
the draws, the copies and the sparse gather, and every path's result
depends on that path alone, so the bytes do not depend on the thread
count.
"""
from __future__ import annotations

import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.fft

# FFT workers, and the worker threads of map_paths
_FFT_WORKERS = min(4, os.cpu_count() or 1)
# samples per path from which map_paths hands paths to threads: below it
# each hand-off costs more GIL traffic than the path's work saves
THREAD_MIN_SAMPLES = 1 << 14
# (path, cell) entries per interp_taps call while building the cache
TAP_BLOCK = 1 << 14
# longest overlap-save block, in pulses: longer segments are correlated
# in blocks of about this length (ReplicaCache.nfft)
BLOCK_PULSES = 16
_pool = None                 # map_paths' worker threads, made on first use
_pool_lock = threading.Lock()

from . import _kernels
from .geometry import AntennaLayout, Grid, delay_bin, grid_delays
from .signal import (KERNEL_TAPS, NoiseModel, WaveformSet, _replica_window,
                     interp_taps)

# grid tuples whose delays collide within one sample on some path are
# excluded from the joint search
SINGULARITY_TOL_SAMPLES = 1.0


class ObjectiveField:
    """Per-cell, per-path log-likelihood cache and the summed objective.

    combined always equals per_path_ll summed over paths not yet
    subtracted at each cell; interference cancellation mutates the field
    through mark_subtracted so every (cell, path) pair is subtracted at
    most once.
    """

    def __init__(self, grid: Grid, per_path_ll: np.ndarray,
                 cross: np.ndarray, energy: np.ndarray, bins: np.ndarray):
        self.grid = grid
        self.per_path_ll = per_path_ll
        self.cross = cross
        self.energy = energy
        self.bins = bins
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
    built once; per-trial work reduces to the FFT correlation of each
    path's blocks plus the tap gather.  noise (default white) sets the
    energies: s^H s for white noise, s^H R^-1 s with clutter.  The arrays
    are read-only once built: every objective field of the scenario
    shares them.

    Path p's in-window gathers read the correlation lags lag_start[p]
    onwards, which depend on the observation samples lag_start[p] ..
    lag_start[p] + segment[p] - 1 (samples outside the window are 0);
    segment_slices[p] is the (row, window) slice pair that puts them in a
    zeroed segment buffer of block_span[p] samples.  gather_base[p, c] is
    the first lag cell c reads, counted from lag_start[p].  The segments
    are correlated by overlap-save: nfft = L, the block length, is the
    fast FFT length of the longest segment but at most about BLOCK_PULSES
    pulses.  Path p's blocks are rows path_blocks[p] .. path_blocks[p + 1]
    - 1 of the (path_blocks[-1], L) input of correlate_all (blocks_of):
    block k holds buffer samples k * block_step .. k * block_step + L - 1
    and yields the L - p + 1 lags from k * block_step on unwrapped, and
    block_step = L - p + 1 - (KERNEL_TAPS - 1) lets each cell's taps lie
    inside one block.  gather_index[p, c] is cell c's first lag as a flat
    index into the path's blocks, raveled; a path whose segment fits in L
    samples has one block, and there gather_index equals gather_base.
    Out-of-window cells have zero taps, energy, base and index.
    autocorr[k, p - 1 + d] = ac_k(d) = sum_m conj(s_k[m]) s_k[m + d] over
    waveform k's p-sample pulse: the one table of the inner products
    (energy, and gram, the joint search's per-path Gram matrices).
    pulse_fft_conj[k] is the conjugate L-point spectrum of pulse k, shared
    by the blocks of the n_rx paths that transmit it.

    One member is built on first use, not here: joint_trees maps G to the
    joint search's gap-ok prefix tree (estimators.gap_ok_tree), filled by
    the first G-target joint_search on the cache and then reused.
    """

    def __init__(self, waveforms: WaveformSet, layout: AntennaLayout,
                 grid: Grid, noise: NoiseModel = NoiseModel()):
        self.waveforms = waveforms
        self.layout = layout
        self.grid = grid
        self.noise = noise
        self.delays = grid_delays(grid, layout)          # (P, C)
        # int32: bins stay far below 2^31 (at most 587 on the shipped
        # scenes), and the footprints of SSR and SIC are made from them
        self.bins = delay_bin(self.delays, waveforms.tau_c).astype(np.int32)
        self.out_of_window = (self.delays + waveforms.tau_c > waveforms.T)
        inside = ~self.out_of_window

        d = self.delays / waveforms.Ts
        n0 = np.floor(d).astype(np.int64)
        # interp_taps in blocks: its temporaries are several times the taps
        mu = (d - n0).ravel()
        taps = np.empty(mu.shape + (KERNEL_TAPS,))
        for s in range(0, len(mu), TAP_BLOCK):
            self.tap_offsets, taps[s: s + TAP_BLOCK] = interp_taps(
                mu[s: s + TAP_BLOCK])
        taps = taps.reshape(d.shape + (KERNEL_TAPS,))
        taps[self.out_of_window] = 0.0
        self.taps = taps

        # the lags each path's in-window gathers reach
        lag0 = n0 + int(self.tap_offsets[0])             # first lag read
        big = np.iinfo(np.int64).max
        lo = np.where(inside, lag0, big).min(axis=1)
        hi = np.where(inside, lag0, -big).max(axis=1) + KERNEL_TAPS
        unused = ~inside.any(axis=1)
        lo[unused], hi[unused] = 0, KERNEL_TAPS
        self.lag_start = lo
        self.segment = hi - lo + waveforms.pulse_samples - 1
        self.segment_slices = [
            (slice(a - s, b - s), slice(a, b)) for s, a, b in zip(
                lo, np.maximum(lo, 0),
                np.minimum(lo + self.segment, waveforms.n_samples))]
        self.gather_base = np.where(inside, lag0 - lo[:, None],
                                    0).astype(np.int32)

        self.path_tx = np.array([k for _, _, k in layout.paths()])
        pulses = waveforms.samples[:, :waveforms.pulse_samples]
        self.autocorr = np.array([np.correlate(s, s, "full") for s in pulses])
        if self.noise.is_white:
            self.energy = self._energies(n0)
        else:
            self.energy = self._clutter_energies(n0)
        self.energy[self.out_of_window] = 0.0

        # overlap-save: a block of L samples against the pulse of p samples
        # reaches L - p + 1 unwrapped lags, and a path's blocks start
        # block_step apart, so each cell's taps lie inside one block
        p = waveforms.pulse_samples
        self.nfft = scipy.fft.next_fast_len(
            int(min(self.segment.max(), BLOCK_PULSES * p)))
        self.block_step = self.nfft - p + 1 - (KERNEL_TAPS - 1)
        block = self.gather_base // self.block_step
        n_blocks = block.max(axis=1) + 1
        self.path_blocks = np.concatenate(([0], np.cumsum(n_blocks))).astype(
            np.int32)
        self.block_span = (n_blocks - 1) * self.block_step + self.nfft
        self.gather_index = self.gather_base + block * (self.nfft
                                                        - self.block_step)
        self.pulse_fft_conj = np.conj(scipy.fft.fft(pulses, self.nfft,
                                                    axis=1))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.joint_trees = {}

    def _energies(self, n0):
        # each cell paired with itself: sum_t sum_u h_t h_u ac(t - u), exact
        # while the shifted pulse (plus kernel support) stays inside the window
        n, p = KERNEL_TAPS, self.waveforms.pulse_samples
        t = np.arange(n)
        ac = np.pad(self.autocorr, ((0, 0), (n, n)))      # ac(d) = 0, |d| >= p
        toeplitz = ac[:, n + p - 1 + t[:, None] - t]      # [k, t, u]
        energy = np.einsum("...t,...u,...tu->...", self.taps, self.taps,
                           toeplitz[self.path_tx, None]).real.copy()
        # cells whose kernel support clips the window edge: sum their span
        wf = self.waveforms
        interior_lo = -int(self.tap_offsets[0])
        interior_hi = (wf.n_samples - wf.pulse_samples
                       - int(self.tap_offsets[-1]))
        edge = (~self.out_of_window) & ((n0 < interior_lo) | (n0 > interior_hi))
        for pth, c in zip(*np.nonzero(edge)):
            _, win = _replica_window(wf, int(self.path_tx[pth]),
                                     float(self.delays[pth, c]))
            energy[pth, c] = np.vdot(win, win).real
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

    def gram(self, path: int, cells: np.ndarray) -> np.ndarray:
        """One path's replica Gram matrix G[i, j] = s~_a^H s~_b of the
        (distinct) cells a = cells[i], b = cells[j]: sum_t h_t(a)
        Q_b(n_a - n_b + t), with Q_b(m) = sum_u h_u(b) ac(m - u), as the
        product H Q^T of two band operators, H's row a the taps at n_a +
        p - 1 + t and Q's row b the Q_b(m) at n_b + m + p - 1.  The
        diagonal is the cached energy; other pairs are exact while both
        replicas' kernel support stays inside the window.  Unweighted:
        white noise only."""
        n, p = KERNEL_TAPS, self.waveforms.pulse_samples
        taps, base = self.taps[path, cells], self.gather_base[path, cells]
        q = np.zeros((len(cells), 2 * p - 1 + n - 1), dtype=complex)
        ac = self.autocorr[self.path_tx[path]]
        for u in range(n):                 # h_u(b) ac(d) lands at m = d + u
            q[:, u: u + 2 * p - 1] += taps[:, u, None] * ac
        n_cols = int(base.max()) + q.shape[1]
        gram = (_kernels.band_operator(base + (p - 1), taps, n_cols)
                @ _kernels.band_operator(base, q, n_cols).T).toarray()
        np.fill_diagonal(gram, self.energy[path, cells])
        return gram

    def blocks_of(self, path: int, segment: np.ndarray) -> np.ndarray:
        """Path p's overlap-save blocks: the read-only (n, nfft) view of
        segment, a buffer of block_span[p] samples (the path's segment,
        zero past it), whose block k is segment[k * block_step: k *
        block_step + nfft]; rows path_blocks[p] .. path_blocks[p + 1] - 1
        of the segment matrix hold them.  With one block it is the buffer.
        segment must be C-contiguous."""
        if (segment.shape != (self.block_span[path],)
                or segment.dtype != complex):
            raise ValueError(f"path {path} needs a complex segment buffer "
                             f"of {self.block_span[path]} samples, got "
                             f"shape {segment.shape} of {segment.dtype}")
        n = self.path_blocks[path + 1] - self.path_blocks[path]
        # the ndarray constructor takes ~1 us, as_strided ~10 us: a path of
        # a small scene pays it on every trial
        blocks = np.ndarray((n, self.nfft), complex, segment, 0,
                            (self.block_step * segment.itemsize,
                             segment.itemsize))
        blocks.flags.writeable = False
        return blocks

    def correlate_all(self, obs_matrix: np.ndarray) -> np.ndarray:
        """Cross-correlation of each path's observation with its pulse at
        the lags its gathers reach, every block of every path in one
        batched FFT, in place on obs_matrix, the (path_blocks[-1], nfft)
        segment matrix (blocks_of) ordered by flat path index; returns it
        with row path_blocks[p] + k holding corr[lag_start[p] + k *
        block_step + j] at j <= nfft - pulse_samples, corr[m] = sum_n
        conj(s[n - m]) r[n]: gather_index[p] indexes the path's rows,
        raveled, at each cell's first lag."""
        spec = scipy.fft.fft(obs_matrix, axis=1, workers=_FFT_WORKERS,
                             overwrite_x=True)
        # each path's blocks correlate with its transmitter's pulse
        for p, k in enumerate(self.path_tx):
            spec[self.path_blocks[p]: self.path_blocks[p + 1]] *= (
                self.pulse_fft_conj[k])
        return scipy.fft.ifft(spec, axis=1, workers=_FFT_WORKERS,
                              overwrite_x=True)


def map_paths(fn, n_paths: int, n_samples: int) -> list:
    """[fn(p) for p in range(n_paths)].  With windows of at least
    THREAD_MIN_SAMPLES samples, the paths run as one contiguous block per
    worker thread (_FFT_WORKERS of them, this thread taking the first),
    so fn must touch nothing another path writes."""
    workers = min(_FFT_WORKERS, n_paths)
    if workers < 2 or n_samples < THREAD_MIN_SAMPLES:
        return [fn(p) for p in range(n_paths)]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_FFT_WORKERS - 1,
                                       thread_name_prefix="mimoloc-path")
    size = -(-n_paths // workers)
    blocks = [range(s, min(s + size, n_paths))
              for s in range(0, n_paths, size)]
    rest = [_pool.submit(lambda block: [fn(p) for p in block], block)
            for block in blocks[1:]]
    try:
        out = [fn(p) for p in blocks[0]]
    finally:
        wait(rest)          # no block still runs once this call returns
    for future in rest:
        out += future.result()
    return out


def objective_field(segments: np.ndarray,
                    cache: ReplicaCache) -> ObjectiveField:
    """Evaluate every path's log-likelihood on every grid cell and sum.

    segments: one trial's (path_blocks[-1], nfft) segment matrix
    (cache.blocks_of, estimators.trial_segments), whitened against the
    cache's noise model; it is overwritten.  The cache supplies the
    replica energies; the field shares its energy and bins arrays.
    """
    n_paths, n_cells = cache.energy.shape
    shape = (int(cache.path_blocks[-1]), cache.nfft)
    if np.shape(segments) != shape:
        raise ValueError(f"need the {shape} segment matrix, got shape "
                         f"{np.shape(segments)}")
    corr = cache.correlate_all(segments)

    per_path_ll = np.empty((n_paths, n_cells))
    cross = np.empty((n_paths, n_cells), dtype=complex)

    def gather(p):
        blocks = corr[cache.path_blocks[p]: cache.path_blocks[p + 1]]
        _kernels.path_objective(blocks.ravel(), cache.gather_index[p],
                                cache.taps[p], cache.energy[p], cross[p],
                                per_path_ll[p])

    map_paths(gather, n_paths, cache.waveforms.n_samples)
    return ObjectiveField(grid=cache.grid, per_path_ll=per_path_ll,
                          cross=cross, energy=cache.energy, bins=cache.bins)


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
