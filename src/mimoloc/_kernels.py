"""Objective-field hot loop: the per-cell 8-tap gather over one path's
matched-filter correlation, in numpy."""
import numpy as np

BACKEND = "numpy"


def path_objective(corr, n0, taps, energy, cross_out, ll_out):
    """Per-cell matched-filter output and log-likelihood for one path.

    corr:    cross-correlation sum_n conj(s[n-m]) r[n] of the path
             observation with the transmit waveform at consecutive
             integer lags m, from some first lag on; length >= max(n0) +
             taps.shape[1].
    n0:      (n_cells,) index into corr of each cell's first tap.
    taps:    (n_cells, n_taps) fractional-delay interpolation weights.
    energy:  (n_cells,) replica energies s~^H s~.
    cross_out, ll_out: (n_cells,) outputs; cross = s~^H r and
             ll = 0.5 |cross|^2 / energy (0 where energy is 0).
    """
    cross_out[:] = 0
    for t in range(taps.shape[1]):     # corr[t:][n0] is corr[n0 + t]
        cross_out += taps[:, t] * corr[t:][n0]
    np.multiply(cross_out.real, cross_out.real, out=ll_out)
    ll_out += cross_out.imag * cross_out.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_out *= 0.5 / energy
    ll_out[~(energy > 0)] = 0.0
    return cross_out, ll_out
