"""Objective-field hot loop: the per-cell 8-tap gather over one path's
matched-filter correlation, in numpy."""
import numpy as np

BACKEND = "numpy"


def path_objective(corr, n0, taps, energy, cross_out, ll_out):
    """Per-cell matched-filter output and log-likelihood for one path.

    corr:    full cross-correlation of the path observation with the
             transmit waveform at integer lags, corr[m] = sum_n
             conj(s[n-m]) r[n], length >= max(n0) + taps.shape[1].
    n0:      (n_cells,) integer part of each cell's delay in samples.
    taps:    (n_cells, n_taps) fractional-delay interpolation weights.
    energy:  (n_cells,) replica energies s~^H s~.
    cross_out, ll_out: (n_cells,) outputs; cross = s~^H r and
             ll = 0.5 |cross|^2 / energy (0 where energy is 0).
    """
    n_taps = taps.shape[1]
    idx = n0[:, None] + np.arange(n_taps)[None, :]
    gathered = corr[idx]  # (n_cells, n_taps)
    np.einsum("ct,ct->c", taps.astype(gathered.dtype), gathered,
              out=cross_out)
    np.multiply(cross_out.real, cross_out.real, out=ll_out)
    ll_out += cross_out.imag * cross_out.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_out *= 0.5 / energy
    ll_out[~(energy > 0)] = 0.0
    return cross_out, ll_out
