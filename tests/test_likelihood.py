import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft

from mimoloc import _kernels, likelihood
from mimoloc.errors import CoincidentDelayError
from mimoloc.estimators import h0_objective_peaks
from mimoloc.geometry import AntennaLayout, Grid, Position2D, Rect
from mimoloc.likelihood import (COMBINED_FIELD_ID, ReplicaCache,
                                load_gridmap_binary, objective_field,
                                save_gridmap_binary, save_gridmap_csv)
from mimoloc.reference import (alpha_mle_isolated, alpha_mle_joint,
                               covariance, delayed_replica, gram_matrix,
                               joint_path_loglik, path_loglik,
                               steering_vector)
from mimoloc.signal import (NoiseModel, PathObservation, WaveformSet,
                            build_waveform_set, synthesize_observation, whiten)

from conftest import pack


def wobs(path, r):
    return PathObservation(path=path, r=np.asarray(r, dtype=complex),
                           whitened=True)


def noise_free_observations(setup, scene):
    quiet = NoiseModel(sigma_sq=1e-300)
    out = []
    for p in range(setup.layout.n_paths):
        raw = synthesize_observation(scene, setup.waveforms, quiet, p,
                                     np.random.default_rng(0))
        out.append(PathObservation(path=p, r=raw.r, whitened=True))
    return out


def noisy_observations(setup, scene, rng, sigma_sq=1.0):
    noise = NoiseModel(sigma_sq=sigma_sq)
    return [whiten(synthesize_observation(scene, setup.waveforms, noise, p,
                                          rng), noise)
            for p in range(setup.layout.n_paths)]


class TestPathLoglik:
    def test_zero_observation(self, small):
        theta = small.grid.cell_center(10)
        obs = wobs(0, np.zeros(small.waveforms.n_samples))
        assert path_loglik(theta, obs, small.waveforms, small.layout, 0) == 0.0

    def test_orthogonal_observation(self, small):
        theta = small.grid.cell_center(10)
        sv = steering_vector(small.waveforms, 0, theta, small.layout)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(len(sv)) * (1 + 0j)
        r -= sv * (np.vdot(sv, r) / np.vdot(sv, sv).real)
        obs = wobs(0, r)
        val = path_loglik(theta, obs, small.waveforms, small.layout, 0)
        assert val == pytest.approx(0.0, abs=1e-16 * np.vdot(r, r).real)

    def test_matched_observation_hand_value(self):
        # |alpha| = 2 against a replica of energy 10: 0.5 * 4 * 10 = 20
        base = build_waveform_set(1, 4e-5, 5121, 5e-7)
        wf = WaveformSet(samples=base.samples * np.sqrt(10.0), T=base.T,
                         Ts=base.Ts, n_samples=base.n_samples,
                         tau_c=base.tau_c, orth_bound=base.orth_bound,
                         offsets=base.offsets, pulse_width=base.pulse_width)
        layout = AntennaLayout(tx=(Position2D(0.0, 0.0),),
                               rx=(Position2D(0.0, 0.0),))
        theta = Position2D(0.0, 0.0)  # zero delay: replica equals waveform
        alpha = 2.0 * np.exp(0.7j)
        obs = wobs(0, alpha * wf.samples[0])
        val = path_loglik(theta, obs, wf, layout, 0)
        assert val == pytest.approx(20.0, rel=1e-12)

    def test_phase_invariance(self, small, rng):
        theta = small.grid.cell_center(77)
        r = rng.standard_normal(small.waveforms.n_samples) + \
            1j * rng.standard_normal(small.waveforms.n_samples)
        base = path_loglik(theta, wobs(2, r), small.waveforms, small.layout, 2)
        for phi in (0.3, 1.7, -2.2):
            rot = path_loglik(theta, wobs(2, np.exp(1j * phi) * r),
                              small.waveforms, small.layout, 2)
            assert rot == pytest.approx(base, rel=1e-12)

    def test_scaling_covariance(self, small, rng):
        theta = small.grid.cell_center(42)
        r = rng.standard_normal(small.waveforms.n_samples) + \
            1j * rng.standard_normal(small.waveforms.n_samples)
        base = path_loglik(theta, wobs(1, r), small.waveforms, small.layout, 1)
        for a in (2.0, 0.3, 5.5):
            scaled = path_loglik(theta, wobs(1, a * r), small.waveforms,
                                 small.layout, 1)
            assert scaled == pytest.approx(a * a * base, rel=1e-12)

    def test_out_of_window_is_zero_with_warning(self, small):
        # a location far outside the window for a tiny waveform set
        wf = build_waveform_set(1, 1e-6, 257, 5e-7)
        layout = AntennaLayout(tx=(Position2D(0.0, 0.0),),
                               rx=(Position2D(0.0, 0.0),))
        obs = wobs(0, np.zeros(wf.n_samples))
        with pytest.warns(UserWarning):
            val = path_loglik(Position2D(0.0, 9e5), obs, wf, layout, 0)
        assert val == 0.0

    def test_requires_whitened(self, small):
        obs = PathObservation(path=0,
                              r=np.zeros(small.waveforms.n_samples,
                                         dtype=complex), whitened=False)
        with pytest.raises(ValueError):
            path_loglik(small.grid.cell_center(0), obs, small.waveforms,
                        small.layout, 0)


class TestObjectiveField:
    def test_zero_observations(self, small):
        obs = [wobs(p, np.zeros(small.waveforms.n_samples))
               for p in range(small.layout.n_paths)]
        fld = objective_field(pack(obs, small.cache), small.cache)
        assert np.all(fld.combined == 0.0)
        assert np.all(fld.per_path_ll >= 0.0)

    def test_shares_read_only_cache_arrays(self, small):
        # the field reads the cache's energies and bins without copying
        # them, so no trial can alter the scenario's arrays
        obs = [wobs(p, np.zeros(small.waveforms.n_samples))
               for p in range(small.layout.n_paths)]
        fld = objective_field(pack(obs, small.cache), small.cache)
        assert fld.energy is small.cache.energy
        assert fld.bins is small.cache.bins
        assert fld.grid is small.cache.grid
        for name in ("energy", "bins", "taps", "gather_base", "delays",
                     "out_of_window", "pulse_fft_conj"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(small.cache, name)[0, 0] = 0

    def test_energy_is_own_float_array(self, small, tiny):
        # the energies are a C-contiguous float64 array of their own, not
        # a strided real view pinning a complex array twice their size
        clutter = ReplicaCache(tiny.waveforms, tiny.layout, tiny.grid,
                               NoiseModel(sigma_sq=1.0, clutter=(0.6, 1.0)))
        for cache in (small.cache, tiny.cache, clutter):
            energy = cache.energy
            assert energy.dtype == np.float64
            assert energy.flags.c_contiguous
            assert energy.base is None or energy.base.dtype == np.float64

    def test_noise_free_single_target_peaks_at_cell(self, small):
        cell = 5 * small.grid.nx + 7
        scene = small.scene([(small.grid.cell_center(cell).x,
                              small.grid.cell_center(cell).y)])
        obs = noise_free_observations(small, scene)
        fld = objective_field(pack(obs, small.cache), small.cache)
        assert fld.argmax_cell() == cell

    def test_two_isolated_targets_dominate_background(self):
        # sparse setup (2 transceivers) so the footprint union leaves
        # background cells to compare against
        from mimoloc.geometry import AntennaLayout, Grid, Rect, Scene, \
            TargetTruth, Position2D
        from mimoloc.likelihood import ReplicaCache
        from mimoloc.signal import build_waveform_set
        layout = AntennaLayout.transceivers([(-1000.0, -1000.0),
                                             (7000.0, 3000.0)])
        region = Rect(0.0, 6000.0, 0.0, 6000.0)
        grid = Grid(region, 500.0)
        wf = build_waveform_set(2, 8.0e-5, 2049, 2.5e-6)
        cache = ReplicaCache(wf, layout, grid)
        c1 = 3 * grid.nx + 2
        c2 = 9 * grid.nx + 9
        targets = tuple(TargetTruth(grid.cell_center(c)) for c in (c1, c2))
        scene = Scene(layout, targets, region)
        quiet = NoiseModel(sigma_sq=1e-300)
        obs = [PathObservation(
                   path=p,
                   r=synthesize_observation(scene, wf, quiet, p,
                                            np.random.default_rng(0)).r,
                   whitened=True)
               for p in range(layout.n_paths)]
        fld = objective_field(pack(obs, cache), cache)
        fp1 = fld.footprint_of_cell(c1).any(axis=0)
        fp2 = fld.footprint_of_cell(c2).any(axis=0)
        outside = ~(fp1 | fp2)
        assert outside.sum() > 0
        assert fld.combined[c1] > fld.combined[outside].max()
        assert fld.combined[c2] > fld.combined[outside].max()

    def test_matches_direct_route(self, small, rng):
        # the FFT/tap evaluation equals the materialized-replica route
        scene = small.scene([(1750.0, 2250.0), (4250.0, 4750.0)])
        obs = noisy_observations(small, scene, np.random.default_rng(11))
        fld = objective_field(pack(obs, small.cache), small.cache)
        for p in (0, 5, 13):
            for c in range(0, small.grid.n_cells, 11):
                direct = path_loglik(small.grid.cell_center(c), obs[p],
                                     small.waveforms, small.layout, p)
                assert fld.per_path_ll[p, c] == pytest.approx(
                    direct, rel=1e-9, abs=1e-12)

    def test_nonnegative(self, small):
        scene = small.scene([(2750.0, 3250.0)])
        obs = noisy_observations(small, scene, np.random.default_rng(5))
        fld = objective_field(pack(obs, small.cache), small.cache)
        assert np.all(fld.per_path_ll >= 0.0)
        assert np.all(fld.combined >= 0.0)

    def test_validation(self, small, monkeypatch):
        # a matrix of any other shape than (blocks, nfft) is refused before
        # any FFT: a missing block, a cut or padded block, one row per
        # path, the whole windows, one row, a stack of trials
        cache = small.cache
        n_paths, nfft = cache.energy.shape[0], cache.nfft
        n_blocks = cache.path_blocks[-1]
        assert nfft != small.waveforms.n_samples
        assert n_blocks != n_paths

        def never(*args, **kwargs):
            raise AssertionError("a misshapen segment matrix was correlated")
        monkeypatch.setattr(ReplicaCache, "correlate_all", never)
        for shape in [(n_blocks - 1, nfft), (n_blocks, nfft - 1),
                      (n_blocks, nfft + 1), (nfft, n_blocks),
                      (n_paths, nfft), (n_blocks, small.waveforms.n_samples),
                      (n_paths, small.waveforms.n_samples), (nfft,),
                      (1, n_blocks, nfft)]:
            with pytest.raises(ValueError, match="segment matrix"):
                objective_field(np.zeros(shape, dtype=complex), cache)
        # nor are whole-window observations: the segments come packed
        obs = [wobs(p, np.zeros(small.waveforms.n_samples))
               for p in range(n_paths)]
        with pytest.raises(ValueError, match="segment matrix"):
            objective_field(obs, cache)
        # blocks_of takes only a complex buffer of block_span samples: its
        # view reads the buffer's bytes as complex
        span = cache.block_span[0]
        for buffer in [np.zeros(span - 1, dtype=complex),
                       np.zeros(span + 1, dtype=complex),
                       np.zeros((1, span), dtype=complex),
                       np.zeros(span), np.zeros(2 * span)]:
            with pytest.raises(ValueError, match="segment buffer"):
                cache.blocks_of(0, buffer)

    def test_footprint_matches_geometry_route(self, small):
        # the field's cached-bin footprint equals the geometry module's
        from mimoloc.reference import footprint
        obs = [wobs(p, np.zeros(small.waveforms.n_samples))
               for p in range(small.layout.n_paths)]
        fld = objective_field(pack(obs, small.cache), small.cache)
        for cell in (0, 1234, small.grid.n_cells - 1):
            per_path, union = footprint(small.grid.cell_center(cell),
                                        small.grid, small.layout,
                                        small.waveforms.tau_c)
            fast = fld.footprint_of_cell(cell)
            assert np.array_equal(fast, per_path)
            assert np.array_equal(fast.any(axis=0), union)

    def test_cancellation_bookkeeping(self, small):
        scene = small.scene([(2750.0, 3250.0), (4250.0, 1250.0)])
        obs = noisy_observations(small, scene, np.random.default_rng(9))
        fld = objective_field(pack(obs, small.cache), small.cache)
        original = fld.per_path_ll.copy()
        cell = fld.argmax_cell()
        mask = fld.footprint_of_cell(cell)
        fld.mark_subtracted(mask)
        fld.mark_subtracted(mask)  # idempotent: nothing subtracted twice
        assert fld.combined[cell] == 0.0  # fully cancelled, no residue
        expect = (original * ~mask).sum(axis=0)
        assert np.allclose(fld.combined, np.clip(expect, 0.0, None),
                           atol=1e-9)


class TestReplicaInnerProducts:
    """The cache's band-operator Gram against the materialized replicas of
    gram_matrix."""

    @pytest.mark.parametrize("setup_name", ["coarse", "two_antenna", "tiny"])
    def test_random_pairs_match_gram_matrix(self, setup_name, request):
        # every pair of the cells whose kernel support lies inside the
        # window on every path, the diagonal included
        setup = request.getfixturevalue(setup_name)
        cache, wf = setup.cache, setup.waveforms
        n0 = np.floor(cache.delays / wf.Ts).astype(int)
        usable = np.flatnonzero(
            ((n0 + cache.tap_offsets[0] >= 0)
             & (n0 + cache.tap_offsets[-1] + wf.pulse_samples
                <= wf.n_samples)).all(axis=0))
        thetas = [setup.grid.cell_center(c) for c in usable]
        for p in range(setup.layout.n_paths):
            want = gram_matrix(thetas, p, setup.waveforms,
                               setup.layout).values
            np.testing.assert_allclose(cache.gram(p, usable), want, rtol=0,
                                       atol=1e-13)
        # a pair whose gather bases lie pulse + 8 taps apart reads exactly 0
        base = cache.gather_base[0, usable]
        a, b = usable[np.argmin(base)], usable[np.argmax(base)]
        assert base.max() - base.min() >= wf.pulse_samples + 8
        assert cache.gram(0, np.array([a, b]))[0, 1] == 0.0

    def test_diagonal_is_cached_energy(self, coarse, tiny):
        # tiny: the replicas the window end clips included
        for setup in (coarse, tiny):
            cells = np.arange(setup.grid.n_cells)
            for p in range(setup.layout.n_paths):
                e = setup.cache.gram(p, cells).diagonal()
                inside = ~setup.cache.out_of_window[p]
                assert np.array_equal(e.real[inside],
                                      setup.cache.energy[p, inside])


class TestReachableLags:
    """The field correlates only the lags each path's gathers reach, in
    overlap-save blocks of nfft samples, all in one batched FFT."""

    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_block_layout(self, setup_name, request):
        setup = request.getfixturevalue(setup_name)
        cache = setup.cache
        p, n = setup.waveforms.pulse_samples, setup.waveforms.n_samples
        L, step = cache.nfft, cache.block_step
        # the block length: the longest segment, up to 16 pulses
        assert L == scipy.fft.next_fast_len(
            int(min(cache.segment.max(), 16 * p)))
        assert step == L - p + 1 - 7
        n_blocks = np.diff(cache.path_blocks)
        for path, (base, index, oow, seg) in enumerate(zip(
                cache.gather_base, cache.gather_index, cache.out_of_window,
                cache.segment)):
            # every in-window gather, pulse included, stays inside its
            # segment
            assert base[~oow].min() == 0
            assert base[~oow].max() + 8 + p - 1 == seg
            # each cell's 8 taps lie among one block's L - p + 1 valid lags,
            # at the cell's lag from the segment start
            block, lag = np.divmod(index[~oow], L)
            assert np.all(lag + 8 <= L - p + 1)
            assert np.array_equal(block * step + lag, base[~oow])
            # the blocks cover the segment, and its last gathers read the
            # last block
            assert cache.block_span[path] == (n_blocks[path] - 1) * step + L
            assert cache.block_span[path] >= seg
            assert block.max() == n_blocks[path] - 1
            # one block exactly when the segment fits in one
            assert (n_blocks[path] == 1) == (seg <= L)
        if setup_name == "small":
            assert n_blocks.max() == 8 and n_blocks.min() > 1
        else:           # one block, its segment clipped by the window end
            assert np.all(n_blocks == 1)
            assert np.all(cache.lag_start + cache.segment > n)

    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_blocks_match_whole_row_correlation(self, setup_name, request):
        # the field against each path's whole segment correlated in one
        # FFT of the longest segment's fast length: to 1e-12 of the field's
        # largest value, and byte for byte where every path has one block
        # of that length (tiny)
        setup = request.getfixturevalue(setup_name)
        cache = setup.cache
        scene = setup.scene([(setup.grid.cell_center(c).x,
                              setup.grid.cell_center(c).y)
                             for c in (0, setup.grid.n_cells // 2)])
        obs = noisy_observations(setup, scene, np.random.default_rng(3))
        blocked = objective_field(pack(obs, cache), cache).per_path_ll
        nfft = scipy.fft.next_fast_len(int(cache.segment.max()))
        rows = np.zeros((len(obs), nfft), dtype=complex)
        for o, (row, window), out in zip(obs, cache.segment_slices, rows):
            out[row] = o.r[window]
        pulses = setup.waveforms.samples[:, :setup.waveforms.pulse_samples]
        spec = scipy.fft.fft(rows, axis=1)
        spec *= np.conj(scipy.fft.fft(pulses, nfft, axis=1))[cache.path_tx]
        corr = scipy.fft.ifft(spec, axis=1)
        whole = np.empty_like(blocked)
        cross = np.empty(blocked.shape, dtype=complex)
        for p in range(len(obs)):
            _kernels.path_objective(corr[p], cache.gather_base[p],
                                    cache.taps[p], cache.energy[p], cross[p],
                                    whole[p])
        assert np.abs(blocked - whole).max() <= 1e-12 * whole.max()
        one_block = cache.path_blocks[-1] == len(obs)
        assert one_block == (setup_name == "tiny")
        if one_block:
            assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_extreme_bases_match_direct_route(self, setup_name, request):
        # each path's lowest- and highest-base in-window cell against the
        # materialized replica (tiny: window-clipped replicas, and cells
        # out of the window)
        setup = request.getfixturevalue(setup_name)
        cache = setup.cache
        scene = setup.scene([(setup.grid.cell_center(c).x,
                              setup.grid.cell_center(c).y)
                             for c in (0, setup.grid.n_cells // 2)])
        obs = noisy_observations(setup, scene, np.random.default_rng(21))
        fld = objective_field(pack(obs, cache), cache)
        for p in range(setup.layout.n_paths):
            cells = np.flatnonzero(~cache.out_of_window[p])
            base = cache.gather_base[p, cells]
            for c in (cells[np.argmin(base)], cells[np.argmax(base)]):
                direct = path_loglik(setup.grid.cell_center(c), obs[p],
                                     setup.waveforms, setup.layout, p)
                assert fld.per_path_ll[p, c] == pytest.approx(
                    direct, rel=1e-9, abs=1e-12)
        assert cache.out_of_window.any() == (setup_name == "tiny")


class TestThreadedPaths:
    """With the thread threshold at 0 the per-path work runs on worker
    threads and gives the serial bytes."""

    @pytest.fixture
    def threaded(self, monkeypatch):
        monkeypatch.setattr(likelihood, "THREAD_MIN_SAMPLES", 0)
        monkeypatch.setattr(likelihood, "_FFT_WORKERS", 3)

    def test_paths_run_on_several_threads(self, threaded):
        idents = likelihood.map_paths(lambda p: threading.get_ident(), 16, 1)
        assert len(set(idents)) > 1
        assert likelihood.map_paths(lambda p: p, 16, 1) == list(range(16))

    def test_small_windows_stay_serial(self, monkeypatch):
        monkeypatch.setattr(likelihood, "_FFT_WORKERS", 3)
        n = likelihood.THREAD_MIN_SAMPLES - 1
        idents = likelihood.map_paths(lambda p: threading.get_ident(), 16, n)
        assert set(idents) == {threading.get_ident()}

    def test_objective_field_bytes(self, small, monkeypatch):
        # eight blocks on the worker pool and a short switch interval, so
        # the threads interleave often while they write the field rows
        scene = small.scene([(2750.0, 3250.0), (4250.0, 1250.0)])
        obs = noisy_observations(small, scene, np.random.default_rng(3))
        serial = objective_field(pack(obs, small.cache), small.cache)
        monkeypatch.setattr(likelihood, "THREAD_MIN_SAMPLES", 0)
        monkeypatch.setattr(likelihood, "_FFT_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fields = [objective_field(pack(obs, small.cache), small.cache)
                      for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for threaded in fields:
            assert (threaded.per_path_ll.tobytes()
                    == serial.per_path_ll.tobytes())
            assert threaded.cross.tobytes() == serial.cross.tobytes()

    def test_error_surfaces_after_every_block(self, threaded):
        # path 0 fails on the calling thread; the call still waits for the
        # worker blocks, so none writes after it has raised
        done = []

        def fn(p):
            if p == 0:
                raise RuntimeError("path 0")
            time.sleep(0.01)
            done.append(p)

        with pytest.raises(RuntimeError, match="path 0"):
            likelihood.map_paths(fn, 16, 1)
        assert sorted(done) == list(range(6, 16))

    def test_h0_peaks_bytes(self, small, monkeypatch):
        args = (small.waveforms, small.layout, small.grid, small.noise, 3, 5)
        serial = h0_objective_peaks(*args, cache=small.cache)
        monkeypatch.setattr(likelihood, "THREAD_MIN_SAMPLES", 0)
        monkeypatch.setattr(likelihood, "_FFT_WORKERS", 3)
        threaded = h0_objective_peaks(*args, cache=small.cache)
        assert threaded.tobytes() == serial.tobytes()


class TestClutterGLRT:
    """Under AR(1) clutter the cache's energies are s^H R^-1 s and the
    field is the GLRT |s^H R^-1 r|^2 / (2 s^H R^-1 s); dense oracle."""

    @staticmethod
    def dense_terms(setup, path, r_inv, y):
        """(cells, s^H R^-1 s, s^H y) over the path's in-window cells."""
        k = int(setup.cache.path_tx[path])
        cells = np.flatnonzero(~setup.cache.out_of_window[path])
        reps = [delayed_replica(setup.waveforms, k,
                                float(setup.cache.delays[path, c]))
                for c in cells]
        return (cells, np.array([np.vdot(s, r_inv @ s).real for s in reps]),
                np.array([np.vdot(s, y) for s in reps]))

    @pytest.mark.parametrize("rho", [0.0, 0.6, 0.95])
    def test_energies_match_dense(self, tiny, rho):
        noise = NoiseModel(sigma_sq=0.7, clutter=(rho, 1.3))
        cache = ReplicaCache(tiny.waveforms, tiny.layout, tiny.grid, noise)
        r_inv = np.linalg.inv(covariance(noise, tiny.waveforms.n_samples))
        cells, energy, _ = self.dense_terms(tiny, 0, r_inv, np.zeros(64))
        np.testing.assert_allclose(cache.energy[0, cells], energy,
                                   rtol=1e-10)
        assert np.all(cache.energy[cache.out_of_window] == 0.0)

    def test_field_is_glrt(self, two_antenna):
        setup = two_antenna
        noise = NoiseModel(sigma_sq=0.8, clutter=(0.9, 1.0))
        cache = ReplicaCache(setup.waveforms, setup.layout, setup.grid, noise)
        scene = setup.scene([(4000.0, 5000.0), (9000.0, 3000.0)])
        raw = [synthesize_observation(scene, setup.waveforms, noise, p,
                                      np.random.default_rng(10 + p))
               for p in range(setup.layout.n_paths)]
        fld = objective_field(pack([whiten(o, noise) for o in raw], cache),
                              cache)
        r_inv = np.linalg.inv(covariance(noise, setup.waveforms.n_samples))
        for p, obs in enumerate(raw):
            cells, energy, cross = self.dense_terms(setup, p, r_inv,
                                                    r_inv @ obs.r)
            glrt = 0.5 * np.abs(cross) ** 2 / energy
            np.testing.assert_allclose(fld.per_path_ll[p, cells], glrt,
                                       rtol=1e-8, atol=1e-10 * glrt.max())
            np.testing.assert_allclose(fld.cross[p, cells], cross,
                                       rtol=1e-8,
                                       atol=1e-10 * np.abs(cross).max())

    def test_direct_routes_refuse_clutter(self, two_antenna):
        # on R^-1 r the white statistics are not the GLRT the field reads
        setup = two_antenna
        noise = NoiseModel(sigma_sq=0.8, clutter=(0.9, 1.0))
        scene = setup.scene([(4000.0, 5000.0)])
        theta = setup.grid.cell_center(0)
        for p in range(setup.layout.n_paths):
            obs = whiten(synthesize_observation(
                scene, setup.waveforms, noise, p,
                np.random.default_rng(10 + p)), noise)
            args = (obs, setup.waveforms, setup.layout, p)
            for route in (path_loglik, alpha_mle_isolated):
                with pytest.raises(ValueError, match="clutter"):
                    route(theta, *args)
            with pytest.raises(ValueError, match="clutter"):
                joint_path_loglik([theta, setup.grid.cell_center(99)], *args)


class TestGram:
    def test_single_location(self, small):
        theta = small.grid.cell_center(50)
        g = gram_matrix([theta], 0, small.waveforms, small.layout)
        assert g.values.shape == (1, 1)
        assert g.values[0, 0].real > 0
        assert g.values[0, 0].imag == pytest.approx(0.0, abs=1e-12)

    def test_equal_delays_rank_one(self, small):
        # two locations mirrored across a monostatic path's antenna have
        # identical delays: every entry equal, condition blows up
        ant = small.layout.tx[0]  # (-1000, -1000), path 0 is monostatic
        t1 = Position2D(ant.x + 3000.0, ant.y + 4000.0)
        t2 = Position2D(ant.x + 4000.0, ant.y + 3000.0)
        g = gram_matrix([t1, t2], 0, small.waveforms, small.layout)
        assert np.allclose(g.values, g.values[0, 0], rtol=1e-9)
        assert g.condition > 1e8
        assert g.min_gap_samples < 1.0

    def test_far_delays_nearly_orthogonal(self, small):
        t1 = small.grid.cell_center(0)
        t2 = small.grid.cell_center(small.grid.n_cells - 1)
        g = gram_matrix([t1, t2], 0, small.waveforms, small.layout)
        e = np.sqrt(g.values[0, 0].real * g.values[1, 1].real)
        assert abs(g.values[0, 1]) <= 1e-3 * e

    def test_hermitian(self, small):
        thetas = [small.grid.cell_center(c) for c in (30, 31, 45)]
        g = gram_matrix(thetas, 2, small.waveforms, small.layout)
        assert np.allclose(g.values, g.values.conj().T)


class TestAlphaMLE:
    def replica(self, small, cell, path):
        return steering_vector(small.waveforms, path,
                               small.grid.cell_center(cell),
                               small.layout)

    def test_single_target_noise_free_exact(self, small):
        alpha = 1.5 - 2.5j
        s = self.replica(small, 60, 0)
        theta = small.grid.cell_center(60)
        g = gram_matrix([theta], 0, small.waveforms, small.layout)
        got = alpha_mle_joint(g, np.array([np.vdot(s, alpha * s)]))
        assert got[0] == pytest.approx(alpha, rel=1e-12)

    def test_orthogonal_pair_decouples(self, small):
        # diagonal Gram: the joint solve reduces to per-target projections
        c1, c2 = 0, small.grid.n_cells - 1
        s1, s2 = self.replica(small, c1, 0), self.replica(small, c2, 0)
        r = (0.8 + 0.1j) * s1 + (2.0 - 1.0j) * s2
        thetas = [small.grid.cell_center(c) for c in (c1, c2)]
        g = gram_matrix(thetas, 0, small.waveforms, small.layout)
        cross = np.array([np.vdot(s1, r), np.vdot(s2, r)])
        joint = alpha_mle_joint(g, cross)
        iso = cross / np.array([np.vdot(s1, s1), np.vdot(s2, s2)])
        assert np.allclose(joint, iso, rtol=1e-3)

    def test_overlapping_pair_recovers_truth(self, small):
        # adjacent cells overlap heavily; noise-free joint solve is exact
        c1 = 40
        c2 = 41
        alpha = np.array([1.0 + 1.0j, 2.0 - 1.0j])
        s1, s2 = self.replica(small, c1, 1), self.replica(small, c2, 1)
        r = alpha[0] * s1 + alpha[1] * s2
        thetas = [small.grid.cell_center(c) for c in (c1, c2)]
        g = gram_matrix(thetas, 1, small.waveforms, small.layout)
        assert abs(g.values[0, 1]) > 0.1 * abs(g.values[0, 0])  # overlapping
        got = alpha_mle_joint(g, np.array([np.vdot(s1, r), np.vdot(s2, r)]))
        assert np.allclose(got, alpha, rtol=1e-9)

    def test_coincident_delays_raise(self, small):
        ant = small.layout.tx[0]
        t1 = Position2D(ant.x + 3000.0, ant.y + 4000.0)
        t2 = Position2D(ant.x + 4000.0, ant.y + 3000.0)
        g = gram_matrix([t1, t2], 0, small.waveforms, small.layout)
        with pytest.raises(CoincidentDelayError):
            alpha_mle_joint(g, np.array([1.0 + 0j, 1.0 + 0j]))

    def test_normal_equation_residual(self, small, rng):
        for _ in range(25):
            cells = rng.choice(small.grid.n_cells, size=3, replace=False)
            thetas = [small.grid.cell_center(int(c)) for c in cells]
            g = gram_matrix(thetas, 0, small.waveforms, small.layout)
            if g.min_gap_samples < 1.0 or g.condition > 1e8:
                continue
            cross = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            alpha = alpha_mle_joint(g, cross)
            res = np.linalg.norm(g.values @ alpha - cross) \
                / np.linalg.norm(cross)
            assert res <= 1e-8

    def test_isolated_matches_direct_formula(self, small, rng):
        theta = small.grid.cell_center(33)
        s = steering_vector(small.waveforms, 2, theta, small.layout)
        r = rng.standard_normal(len(s)) + 1j * rng.standard_normal(len(s))
        got = alpha_mle_isolated(theta, wobs(2, r), small.waveforms,
                                 small.layout, 2)
        want = np.vdot(s, r) / np.vdot(s, s)
        assert got == pytest.approx(complex(want), rel=1e-12)

    def test_isolated_trivials(self, small):
        theta = small.grid.cell_center(33)
        s = steering_vector(small.waveforms, 2, theta, small.layout)
        alpha = -0.3 + 1.9j
        got = alpha_mle_isolated(theta, wobs(2, alpha * s), small.waveforms,
                                 small.layout, 2)
        assert got == pytest.approx(alpha, rel=1e-12)
        perp = np.zeros_like(s)
        perp[-1] = 1.0  # beyond the pulse support: orthogonal
        got = alpha_mle_isolated(theta, wobs(2, perp), small.waveforms,
                                 small.layout, 2)
        assert got == pytest.approx(0.0, abs=1e-12)


class TestJointPathLoglik:
    def test_collapses_to_single_target(self, small, rng):
        theta = small.grid.cell_center(88)
        r = rng.standard_normal(small.waveforms.n_samples) + \
            1j * rng.standard_normal(small.waveforms.n_samples)
        obs = wobs(0, r)
        single = path_loglik(theta, obs, small.waveforms, small.layout, 0)
        joint = joint_path_loglik([theta], obs, small.waveforms,
                                  small.layout, 0)
        assert joint == pytest.approx(single, rel=1e-12)

    def test_in_span_noise_free(self, small):
        c1, c2 = 40, 42
        s1 = steering_vector(small.waveforms, 1,
                             small.grid.cell_center(c1),
                             small.layout)
        s2 = steering_vector(small.waveforms, 1,
                             small.grid.cell_center(c2),
                             small.layout)
        r = (1.0 - 0.5j) * s1 + (0.3 + 0.4j) * s2
        got = joint_path_loglik([small.grid.cell_center(c1),
                                 small.grid.cell_center(c2)],
                                wobs(1, r), small.waveforms, small.layout, 1)
        assert got == pytest.approx(0.5 * np.vdot(r, r).real, rel=1e-9)

    def test_matches_qr_projector_oracle(self, small, rng):
        # independent route: project r onto an orthonormal basis of the span
        c1, c2 = 40, 41
        thetas = [small.grid.cell_center(c) for c in (c1, c2)]
        reps = np.stack(
            [steering_vector(small.waveforms, 1, th, small.layout)
             for th in thetas], axis=1)
        for _ in range(5):
            r = rng.standard_normal(len(reps)) + \
                1j * rng.standard_normal(len(reps))
            q, _ = np.linalg.qr(reps)
            oracle = 0.5 * np.linalg.norm(q.conj().T @ r) ** 2
            got = joint_path_loglik(thetas, wobs(1, r), small.waveforms,
                                    small.layout, 1)
            assert got == pytest.approx(oracle, rel=1e-9)

    def test_projection_dominance(self, small, rng):
        thetas = [small.grid.cell_center(c) for c in (17, 18, 40)]
        for _ in range(10):
            r = rng.standard_normal(small.waveforms.n_samples) + \
                1j * rng.standard_normal(small.waveforms.n_samples)
            got = joint_path_loglik(thetas, wobs(0, r), small.waveforms,
                                    small.layout, 0)
            assert got <= 0.5 * np.vdot(r, r).real * (1 + 1e-12)

    def test_diagonal_collapse(self, small, rng):
        # nearly orthogonal replicas: joint ~ sum of single-target values
        c1, c2 = 0, small.grid.n_cells - 1
        thetas = [small.grid.cell_center(c) for c in (c1, c2)]
        g = gram_matrix(thetas, 0, small.waveforms, small.layout)
        e = np.sqrt(g.values[0, 0].real * g.values[1, 1].real)
        assert abs(g.values[0, 1]) / e < 1e-3
        r = rng.standard_normal(small.waveforms.n_samples) + \
            1j * rng.standard_normal(small.waveforms.n_samples)
        obs = wobs(0, r)
        joint = joint_path_loglik(thetas, obs, small.waveforms,
                                  small.layout, 0)
        split = sum(path_loglik(th, obs, small.waveforms, small.layout, 0)
                    for th in thetas)
        assert joint == pytest.approx(split, rel=1e-4)


class TestGridmapExport:
    def test_csv_layout(self, small, tmp_path):
        values = np.arange(small.grid.n_cells, dtype=float)
        path = tmp_path / "field.csv"
        save_gridmap_csv(values, small.grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,value"
        assert len(lines) == small.grid.n_cells + 1
        x, y, v = lines[1].split(",")
        c0 = small.grid.cell_center(0)
        assert float(x) == c0.x and float(y) == c0.y and float(v) == 0.0

    def test_binary_header_and_roundtrip(self, small, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(small.grid.n_cells)
        path = tmp_path / "field.bin"
        save_gridmap_binary(values, small.grid, COMBINED_FIELD_ID, path)
        raw = path.read_bytes()
        assert raw[:8] == b"MIMOGRD1"
        assert len(raw) == 32 + 8 * small.grid.n_cells
        assert raw[8:12] == small.grid.nx.to_bytes(4, "little")
        assert raw[12:16] == small.grid.ny.to_bytes(4, "little")
        assert raw[16:20] == (COMBINED_FIELD_ID).to_bytes(4, "little",
                                                          signed=True)
        assert raw[20:32] == b"\x00" * 12
        got, nx, ny, pid = load_gridmap_binary(path)
        assert (nx, ny, pid) == (small.grid.nx, small.grid.ny,
                                 COMBINED_FIELD_ID)
        assert np.array_equal(got, values)
