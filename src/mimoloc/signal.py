"""Waveforms, delayed replicas, echo synthesis, noise and whitening.

The transmit set is a family of unit-energy pulses sharing one envelope
(rectangular with a short raised-cosine edge taper) and distinct integer
multiples of 1/Tp as frequency offsets, which makes them orthogonal at
zero lag and keeps all-lag cross-correlations below the construction
bound.  The effective correlation duration tau_c equals the pulse width.

Fractional delays are applied by band-limited interpolation with an
8-tap Kaiser-windowed sinc kernel; the edge taper keeps the sampled
pulses within the band the kernel can track.

Noise is white CN(0, sigma^2) per sample, optionally plus AR(1) clutter
with covariance C[i, j] = power * rho^|i-j|.  The noise covariance is
then R = sigma^2 I + C, no longer a multiple of the identity, and
whitening hands the detectors R^-1 r (white noise: r / sigma).  Nothing
dense is built for it: C^-1 is tridiagonal (Kac-Murdock-Szego), so
R = L F L^T has a first-order innovations (Kalman) form, set up once per
(N, sigma^2, rho, power) in O(N), and every draw, solve and replica
energy is a first-order recursion.  The dense small-N oracle of these
routes is in mimoloc.reference.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import BandwidthError, NoiseCovarianceError, ObservationWindowError
from .geometry import AntennaLayout, Position2D, Scene, TargetTruth, path_delay

ORTH_BOUND = 0.05
# minimal offset spacing whose worst-lag cross-correlation ~ 1/(pi*spacing)
# sits below ORTH_BOUND
OFFSET_SPACING = 7
MAX_BAND_FRACTION = 0.25  # of the sampling rate; interpolation accuracy limit

KERNEL_TAPS = 8
KERNEL_BETA = 8.0
TAPER_ALPHA = 0.2


@dataclass(frozen=True)
class WaveformSet:
    """Sampled lowpass transmit signals plus timing metadata."""

    samples: np.ndarray        # (N, N_T) complex, unit energy each
    T: float                   # observation window, s
    Ts: float                  # sampling interval, s
    n_samples: int             # N_T
    tau_c: float               # effective correlation duration, s
    orth_bound: float          # measured max |xcorr| over pairs and lags
    offsets: tuple[int, ...]   # frequency offsets in multiples of 1/pulse
    pulse_width: float

    @property
    def n_waveforms(self) -> int:
        return self.samples.shape[0]

    @property
    def pulse_samples(self) -> int:
        return int(np.ceil(self.pulse_width / self.Ts))


@dataclass(frozen=True)
class NoiseModel:
    """Per-path thermal noise power plus optional AR(1) clutter.

    sigma_sq may be a scalar (homogeneous paths) or an (n_paths,) array.
    clutter is (rho, power), the same for every path: C[i, j] =
    power * rho^|i-j|, with |rho| < 1 and power > 0; None for a white
    background.
    """

    sigma_sq: float | np.ndarray = 1.0
    clutter: tuple[float, float] | None = None

    def path_sigma_sq(self, path: int) -> float:
        if np.isscalar(self.sigma_sq):
            return float(self.sigma_sq)
        return float(np.asarray(self.sigma_sq)[path])

    @property
    def is_white(self) -> bool:
        return self.clutter is None

    def clutter_filter(self, n_samples: int, path: int = 0) -> ClutterFilter:
        """The innovations form of the path's R (cached per parameters)."""
        return _clutter_filter(n_samples, self.path_sigma_sq(path),
                               *self.clutter)

    def sample(self, n_samples: int, path: int, rng: np.random.Generator,
               size: tuple = ()) -> np.ndarray:
        """One path's noise draw, shape size + (n_samples,): white
        CN(0, sigma^2), then clutter by the AR(1) recursion
        c[0] = sqrt(power) u[0],
        c[i] = rho c[i-1] + sqrt(power (1 - rho^2)) u[i]
        (stationary, so Cov(c) = C exactly)."""
        shape = tuple(size) + (n_samples,)
        sigma_sq = self.path_sigma_sq(path)
        sigma = np.sqrt(sigma_sq)
        if sigma > 0:
            out = sigma * (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        else:
            out = np.zeros(shape, dtype=complex)
        if self.clutter is not None:
            rho, power = _check_clutter(sigma_sq, *self.clutter)
            scale = np.full(n_samples, np.sqrt(power * (1.0 - rho * rho)))
            scale[0] = np.sqrt(power)
            u = (rng.standard_normal(shape)
                 + 1j * rng.standard_normal(shape)) / np.sqrt(2)
            out += _linear_recursion(np.full(n_samples, rho), scale * u)
        return out


def _linear_recursion(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x[..., i] = a[i] x[..., i-1] + b[..., i] along the last axis, with
    x[..., -1] = 0, by a doubling scan: log2(N) vectorized passes, each
    composing the affine maps of adjacent runs of length s."""
    x = np.array(b, dtype=np.result_type(a, b))
    a = np.array(a, dtype=float)
    s = 1
    while s < x.shape[-1]:
        x[..., s:] += a[s:] * x[..., :-s]
        a[s:] *= a[:-s]
        s *= 2
    return x


@dataclass(frozen=True, eq=False)
class ClutterFilter:
    """R = sigma^2 I + C for AR(1) clutter as R = L F L^T, L unit lower
    triangular, F diagonal: the Kalman filter of the AR(1) state seen in
    white noise.  L^-1 r is the innovation sequence e[i] = r[i] - h[i] of
    the prediction h[i + 1] = gain[i] h[i] + inject[i] r[i], h[0] = 0,
    and F = 1 / inv_var its variances; tail[i] is the sum over m >= i of
    inv_var[m] prod_{i <= j < m} gain[j]^2 (tail[N] = 0).
    """

    gain: np.ndarray        # (N,) rho sigma^2 / F
    inject: np.ndarray      # (N,) rho P / F, P the predicted clutter power
    inv_var: np.ndarray     # (N,) 1 / F
    tail: np.ndarray        # (N + 1,)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """R^-1 r = L^-T F^-1 L^-1 r along the last axis: one forward and
        one backward recursion."""
        x = _linear_recursion(self.gain, self.inject * r)   # x[i] = h[i + 1]
        v = np.array(r, dtype=complex)
        v[..., 1:] -= x[..., :-1]
        v *= self.inv_var
        # t[i] = v[i] + gain[i] t[i + 1], then
        # (L^-T v)[i] = v[i] - inject[i] t[i + 1]
        t = _linear_recursion(self.gain[::-1], v[..., ::-1])[..., ::-1]
        v[..., :-1] -= self.inject[:-1] * t[..., 1:]
        return v

    def energies(self, spans: np.ndarray, start: np.ndarray) -> np.ndarray:
        """s^H R^-1 s = sum_i |e_i|^2 / F_i for M replicas s, replica m
        equal to spans[:, m] (shape (W, M)) on samples start[m] ..
        start[m] + W - 1 and zero elsewhere; samples outside [0, N) are
        dropped.  The recursion runs over each span only: past it s = 0,
        the prediction decays by gain, and the rest of the sum is |h|^2
        times the tail."""
        n = len(self.inv_var)
        w, m = spans.shape
        # coefficients padded with W zeros in front and W + 1 behind: a
        # sample outside [0, N) then adds nothing and leaves h = 0
        idx = np.clip(np.asarray(start), -w, n) + w
        at = idx + np.arange(w)[:, None]                # (W, M)
        gain, inject, inv_var = (
            np.take(np.concatenate([np.zeros(w), v, np.zeros(w + 1)]), at)
            for v in (self.gain, self.inject, self.inv_var))
        h = np.zeros(m, dtype=complex)
        total = np.zeros(m)
        for j in range(w):
            e = spans[j] - h
            total += (e.real ** 2 + e.imag ** 2) * inv_var[j]
            h = gain[j] * h + inject[j] * spans[j]
        tail = np.concatenate([np.zeros(w), self.tail, np.zeros(w)])
        return total + (h.real ** 2 + h.imag ** 2) * tail[idx + w]


def _check_clutter(sigma_sq: float, rho: float, power: float):
    """(rho, power) as floats, or NoiseCovarianceError unless R is
    positive definite."""
    rho, power = float(rho), float(power)
    if not (math.isfinite(rho) and abs(rho) < 1.0
            and math.isfinite(power) and power > 0.0
            and math.isfinite(sigma_sq) and sigma_sq >= 0.0):
        raise NoiseCovarianceError(
            f"invalid noise covariance: AR(1) clutter needs |rho| < 1 and "
            f"power > 0 (got rho={rho!r}, power={power!r}) and a "
            f"non-negative noise power (got {sigma_sq!r})")
    return rho, power


@functools.lru_cache(maxsize=8)
def _clutter_filter(n: int, sigma_sq: float, rho: float,
                    power: float) -> ClutterFilter:
    rho, power = _check_clutter(sigma_sq, rho, power)
    innov = power * (1.0 - rho * rho)
    pred = np.empty(n)                 # predicted clutter power P[i]
    p = power
    for i in range(n):
        pred[i] = p
        nxt = rho * rho * p * sigma_sq / (p + sigma_sq) + innov
        if nxt == p:                   # a fixed point of the Riccati map:
            pred[i + 1:] = p           # every later P[i] equals it
            break
        p = nxt
    var = pred + sigma_sq
    gain = rho * sigma_sq / var
    tail = np.zeros(n + 1)
    tail[:n] = _linear_recursion(gain[::-1] ** 2, 1.0 / var[::-1])[::-1]
    return ClutterFilter(gain=gain, inject=rho * pred / var,
                         inv_var=1.0 / var, tail=tail)


@dataclass(frozen=True)
class PathObservation:
    path: int                  # flat (l, k) index
    r: np.ndarray              # (N_T,) complex
    whitened: bool = False
    noise: NoiseModel | None = None   # what whiten whitened against


def _tukey(n: int, alpha: float) -> np.ndarray:
    w = np.ones(n)
    edge = int(np.floor(alpha * (n - 1) / 2))
    if edge > 0:
        t = np.arange(edge + 1) / (alpha * (n - 1) / 2)
        w[: edge + 1] = 0.5 * (1 + np.cos(np.pi * (t - 1)))
        w[n - 1 - edge:] = w[: edge + 1][::-1]
    return w


def _max_crosscorr(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a) + len(b)
    nfft = 1 << int(np.ceil(np.log2(n)))
    c = np.fft.ifft(np.fft.fft(a, nfft) * np.conj(np.fft.fft(b, nfft)))
    return float(np.max(np.abs(c)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def build_waveform_set(n_waveforms: int, T: float, n_samples: int,
                       pulse_width: float,
                       taper_alpha: float = TAPER_ALPHA) -> WaveformSet:
    """Construct the orthogonal transmit set and verify its bound.

    Offsets are spaced OFFSET_SPACING/pulse_width apart, centred on zero.
    Raises BandwidthError when the offsets would not fit the sampled band
    or the measured cross-correlation exceeds ORTH_BOUND.
    """
    if n_waveforms < 1:
        raise ValueError("need at least one waveform")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if pulse_width > T:
        raise ValueError("pulse longer than the observation window")
    Ts = T / (n_samples - 1)
    offsets = tuple(OFFSET_SPACING * (k - n_waveforms // 2)
                    for k in range(n_waveforms))
    max_f = max((abs(m) for m in offsets), default=0) / pulse_width
    if max_f * Ts > MAX_BAND_FRACTION:
        raise BandwidthError(
            f"insufficient bandwidth-time product: {n_waveforms} offsets at "
            f"spacing {OFFSET_SPACING}/Tp need {max_f:.3g} Hz, sampling rate "
            f"is {1 / Ts:.3g} Hz")

    p = int(np.ceil(pulse_width / Ts))
    t = np.arange(p) * Ts
    env = _tukey(p, taper_alpha)
    samples = np.zeros((n_waveforms, n_samples), dtype=complex)
    for i, m in enumerate(offsets):
        pulse = env * np.exp(2j * np.pi * m * t / pulse_width)
        samples[i, :p] = pulse / np.linalg.norm(pulse)

    bound = 0.0
    for i in range(n_waveforms):
        for j in range(i + 1, n_waveforms):
            bound = max(bound, _max_crosscorr(samples[i, :p],
                                              samples[j, :p]))
    if bound > ORTH_BOUND:
        raise BandwidthError(
            f"insufficient bandwidth-time product: measured cross-correlation "
            f"{bound:.4f} exceeds {ORTH_BOUND}")
    return WaveformSet(samples=samples, T=T, Ts=Ts, n_samples=n_samples,
                       tau_c=pulse_width, orth_bound=bound, offsets=offsets,
                       pulse_width=pulse_width)


def interp_taps(mu, n_taps: int = KERNEL_TAPS, beta: float = KERNEL_BETA):
    """Kaiser-windowed sinc weights for fractional sample offsets mu in [0, 1).

    Returns (tap_offsets, weights) where weights[..., t] multiplies the
    sample at floor(delay) + tap_offsets[t]; delayed[n] = sum_t w_t *
    s[n - n0 - tap_offsets[t]].
    """
    mu = np.asarray(mu, dtype=float)
    j = np.arange(-(n_taps // 2 - 1), n_taps // 2 + 1)
    x = mu[..., None] - j
    half = n_taps / 2
    inside = np.clip(1 - (x / half) ** 2, 0.0, None)
    w = scipy.special.i0(beta * np.sqrt(inside)) / scipy.special.i0(beta)
    core = np.sinc(x)
    # snap integer arguments so whole-sample delays shift exactly
    on_lattice = x == np.round(x)
    core = np.where(on_lattice, (x == 0.0).astype(float), core)
    return j, core * w


def _replica_window(waveforms: WaveformSet, k: int, tau: float):
    """Nonzero span of the delayed replica: (start_index, samples).

    The stored pulse occupies [0, P); each interpolation tap contributes
    a shifted copy, so the result spans at most P + n_taps samples.
    """
    if tau < 0 or tau + waveforms.tau_c > waveforms.T:
        raise ObservationWindowError(
            f"target outside observation window: delay {tau:.3e} s with "
            f"pulse {waveforms.tau_c:.3e} s exceeds window {waveforms.T:.3e} s")
    s = waveforms.samples[k]
    n = waveforms.n_samples
    p = waveforms.pulse_samples
    d = tau / waveforms.Ts
    n0 = int(np.floor(d))
    mu = d - n0
    offs, w = interp_taps(mu)
    span0 = n0 + int(offs[0])
    width = p + len(offs) - 1
    win = np.zeros(width, dtype=complex)
    for i, wt in enumerate(w):
        if wt != 0.0:
            win[i: i + p] += wt * s[:p]
    # clip to the observation window
    lo = max(0, -span0)
    hi = min(width, n - span0)
    return span0 + lo, win[lo:hi]


def echo_spans(waveforms: WaveformSet, layout: AntennaLayout,
               position: Position2D) -> tuple:
    """A target's unit-alpha echo on every path, in flat path order, as
    read-only (start, samples): the nonzero span of its delayed replica
    (_replica_window).  A run keeps them per configured target, since only
    the reflection coefficients change between its trials."""
    spans = []
    for _, l, k in layout.paths():
        start, win = _replica_window(waveforms, k,
                                     path_delay(layout, position, l, k))
        win.flags.writeable = False
        spans.append((start, win))
    return tuple(spans)


def path_echoes(scene: Scene, waveforms: WaveformSet, path: int,
                spans=None):
    """Each target's echo on one path as (start, samples): its reflection
    coefficient (1 when the target has none) times its unit-alpha span.
    spans[g] holds target g's echo_spans when the caller keeps them;
    otherwise each span is computed here (_replica_window), with the same
    bytes."""
    l, k = divmod(path, scene.layout.n_tx)
    for g, t in enumerate(scene.targets):
        alpha = 1.0 + 0j
        if t.per_path_alpha is not None:
            alpha = t.per_path_alpha[l, k]
        if spans is None:
            start, win = _replica_window(
                waveforms, k, path_delay(scene.layout, t.position, l, k))
        else:
            start, win = spans[g][path]
        yield start, alpha * win


def synthesize_observation(scene: Scene, waveforms: WaveformSet,
                           noise: NoiseModel, path: int,
                           rng: np.random.Generator) -> PathObservation:
    """One path's raw echo: superposition of target replicas plus
    circular complex Gaussian noise and clutter (NoiseModel.sample from
    rng)."""
    return raw_observation(scene, waveforms, path,
                           noise.sample(waveforms.n_samples, path, rng))


def raw_observation(scene: Scene, waveforms: WaveformSet, path: int,
                    noise_draw: np.ndarray, spans=None) -> PathObservation:
    """One path's raw window from a noise draw of the whole window: the
    targets' echoes (path_echoes, spans as there) summed into zeros, then
    the draw added."""
    r = np.zeros(waveforms.n_samples, dtype=complex)
    for start, echo in path_echoes(scene, waveforms, path, spans):
        r[start: start + len(echo)] += echo
    r += noise_draw
    return PathObservation(path=path, r=r, whitened=False)


def white_sigma_sq(noise: NoiseModel, path: int) -> float:
    """A path's white noise power, refused unless positive."""
    if (sigma_sq := noise.path_sigma_sq(path)) <= 0:
        raise NoiseCovarianceError(
            "invalid noise covariance: non-positive noise power")
    return sigma_sq


def whiten(obs: PathObservation, noise: NoiseModel) -> PathObservation:
    """Prepare an observation for the matched filter.  White noise: r /
    sigma, unit-covariance noise, matched with the plain replica energy
    s^H s.  Clutter: R^-1 r, matched with s^H R^-1 s (ReplicaCache,
    reference_energies).  Either way |s^H r|^2 / energy is the GLRT
    statistic |s^H R^-1 r|^2 / (s^H R^-1 s)."""
    if obs.whitened:
        raise ValueError("observation already whitened")
    if noise.is_white:
        sigma_sq = white_sigma_sq(noise, obs.path)
        return PathObservation(path=obs.path, r=obs.r / np.sqrt(sigma_sq),
                               whitened=True, noise=noise)
    r = noise.clutter_filter(len(obs.r), obs.path).solve(obs.r)
    return PathObservation(path=obs.path, r=r, whitened=True, noise=noise)


def reference_energies(waveforms: WaveformSet, layout: AntennaLayout,
                       noise: NoiseModel, position: Position2D) -> np.ndarray:
    """Replica energy s^H R^-1 s of one location on every path, shape
    (M, N)."""
    out = np.empty((layout.n_rx, layout.n_tx))
    for (p, l, k), (start, win) in zip(
            layout.paths(), echo_spans(waveforms, layout, position)):
        if noise.is_white:
            out[l, k] = np.vdot(win, win).real / noise.path_sigma_sq(p)
        else:
            out[l, k] = noise.clutter_filter(waveforms.n_samples, p).energies(
                win[:, None], np.array([start]))[0]
    return out


def scale_alphas_for_snr(scene: Scene, waveforms: WaveformSet,
                         noise: NoiseModel, snr_db: float,
                         proportions, phase_rngs,
                         ref_position: Position2D | None = None,
                         ref_proportion: float | None = None,
                         ref_energy: np.ndarray | None = None) -> Scene:
    """Set per-path reflection coefficients for a Monte Carlo trial.

    The strongest target's post-whitening matched-filter SNR
    |alpha|^2 (s~^H R^-1 s~) equals 10^(snr_db/10) on every path; the
    other targets' |alpha|^2 follow their proportion of the square
    modulus.  Phases are drawn uniformly per (target, path) from the
    per-target streams in phase_rngs.

    ref_position/ref_proportion pin the reference outside the scene
    (single-target benchmark runs keep the strength each target had in
    the full scene); by default the strongest target in the scene is
    the reference.
    """
    proportions = np.asarray(proportions, dtype=float)
    if len(proportions) != scene.n_targets:
        raise ValueError("one proportion per target required")
    if scene.n_targets == 0:
        return scene
    if np.any(proportions <= 0):
        raise ValueError("proportions must be positive")
    snr = 10.0 ** (snr_db / 10.0)
    if ref_position is None:
        ref = int(np.argmax(proportions))
        ref_position = scene.targets[ref].position
        ref_proportion = proportions[ref]
    elif ref_proportion is None:
        raise ValueError("ref_proportion required with ref_position")
    layout = scene.layout
    m, n = layout.n_rx, layout.n_tx
    if ref_energy is None:
        ref_energy = reference_energies(waveforms, layout, noise, ref_position)

    targets = []
    for g, t in enumerate(scene.targets):
        mag = np.sqrt(snr * proportions[g] / ref_proportion / ref_energy)
        phases = phase_rngs[g].uniform(0.0, 2.0 * np.pi, size=(m, n))
        alpha = mag * np.exp(1j * phases)
        targets.append(TargetTruth(position=t.position,
                                   amplitude_sq=float(proportions[g]),
                                   per_path_alpha=alpha))
    return Scene(layout=layout, targets=tuple(targets), region=scene.region)
