"""Banded tap operators as CSR sparse matrices (numpy, scipy): the per-cell
8-tap gather over one path's matched-filter correlation (the hot loop),
and the replica Gram matrix, are each one sparse product over them."""
import numpy as np
import scipy.sparse

BACKEND = "numpy"


def band_operator(base, weights, n_cols):
    """(n_rows x n_cols) CSR matrix whose row c holds weights[c] at columns
    base[c] + arange(weights.shape[1]); a product with it sums each row's
    terms from zero in column order."""
    cols = base[:, None] + np.arange(weights.shape[1], dtype=np.int32)
    rows = np.arange(0, weights.size + 1, weights.shape[1], dtype=np.int32)
    return scipy.sparse.csr_matrix((weights.ravel(), cols.ravel(), rows),
                                   shape=(len(base), n_cols))


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
    op = band_operator(n0, taps, len(corr))
    cross_out.view(float).reshape(-1, 2)[:] = op @ corr.view(float).reshape(
        -1, 2)
    np.multiply(cross_out.real, cross_out.real, out=ll_out)
    ll_out += cross_out.imag * cross_out.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        ll_out *= 0.5 / energy
    ll_out[~(energy > 0)] = 0.0
    return cross_out, ll_out
