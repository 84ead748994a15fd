"""Objective-field hot loop: the per-cell 8-tap gather over one path's
matched-filter correlation, as one CSR sparse product (numpy, scipy)."""
import numpy as np
import scipy.sparse

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
    # row c holds taps[c] at columns n0[c] + t; the product sums in tap order
    cols = n0[:, None] + np.arange(taps.shape[1], dtype=np.int32)
    rows = np.arange(0, taps.size + 1, taps.shape[1], dtype=np.int32)
    op = scipy.sparse.csr_matrix((taps.ravel(), cols.ravel(), rows),
                                 shape=(len(n0), len(corr)))
    cross_out.view(float).reshape(-1, 2)[:] = op @ corr.view(float).reshape(
        -1, 2)
    np.multiply(cross_out.real, cross_out.real, out=ll_out)
    ll_out += cross_out.imag * cross_out.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_out *= 0.5 / energy
    ll_out[~(energy > 0)] = 0.0
    return cross_out, ll_out
