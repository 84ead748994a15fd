import numpy as np
import pytest
import scipy.sparse

from mimoloc import KERNEL_BACKEND, _kernels


def random_inputs(rng, n_cells=300, n_lags=2000, n_taps=8):
    corr = (rng.standard_normal(n_lags)
            + 1j * rng.standard_normal(n_lags)).astype(complex)
    n0 = rng.integers(0, n_lags - n_taps, size=n_cells).astype(np.int32)
    taps = rng.standard_normal((n_cells, n_taps))
    energy = rng.uniform(0.5, 2.0, size=n_cells)
    energy[::17] = 0.0  # exercise the zero-energy branch
    return corr, n0, np.ascontiguousarray(taps), energy


def run(corr, n0, taps, energy):
    cross = np.empty(len(n0), dtype=complex)
    ll = np.empty(len(n0))
    _kernels.path_objective(corr, n0, taps, energy, cross, ll)
    return cross, ll


def test_numpy_kernel_matches_direct_sum(rng):
    corr, n0, taps, energy = random_inputs(rng)
    cross, ll = run(corr, n0, taps, energy)
    for c in (0, 5, 17, 123, 299):
        direct = sum(taps[c, t] * corr[n0[c] + t] for t in range(8))
        assert cross[c] == pytest.approx(direct, rel=1e-12)
        want = 0.5 * abs(direct) ** 2 / energy[c] if energy[c] > 0 else 0.0
        assert ll[c] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_csr_product_bytes_match_tap_loop(rng):
    # the 8-step loop the CSR product replaced, on zero-energy cells and
    # zero-tap rows (out-of-window cells) too
    corr, n0, taps, energy = random_inputs(rng, n_cells=2000)
    taps[::13] = 0.0
    cross, ll = run(corr, n0, taps, energy)
    want = np.zeros(len(n0), dtype=complex)
    for t in range(taps.shape[1]):
        want += taps[:, t] * corr[t:][n0]
    want_ll = want.real * want.real + want.imag * want.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        want_ll *= 0.5 / energy
    want_ll[~(energy > 0)] = 0.0
    assert cross.tobytes() == want.tobytes()
    assert ll.tobytes() == want_ll.tobytes()
    assert not np.any(cross[::13]) and not np.any(ll[::17])


def test_operator_shares_the_taps(rng):
    # one path's rows of a (paths, cells, taps) stack, as the gather reads
    # the cache's taps: the operator's data is a view of them, not a copy,
    # and the product has the bytes of the constructor-built operator's
    corr, n0, taps, energy = random_inputs(rng, n_cells=2000)
    stack = np.stack([2.0 * taps, taps, 0.5 * taps])
    op = _kernels.band_operator(n0, stack[1], len(corr))
    assert np.shares_memory(op.data, stack[1])
    cols = n0[:, None] + np.arange(taps.shape[1], dtype=np.int32)
    rows = np.arange(0, taps.size + 1, taps.shape[1], dtype=np.int32)
    built = scipy.sparse.csr_matrix((taps.ravel(), cols.ravel(), rows),
                                    shape=op.shape)
    pairs = corr.view(float).reshape(-1, 2)
    assert (op @ pairs).tobytes() == (built @ pairs).tobytes()
    assert run(corr, n0, stack[1], energy)[0].tobytes() == (
        run(corr, n0, taps, energy)[0].tobytes())


def test_backend_reported():
    assert KERNEL_BACKEND == _kernels.BACKEND == "numpy"
