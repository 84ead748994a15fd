import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimoloc import estimators
from mimoloc.errors import NoiseCovarianceError
from mimoloc.estimators import (DetectionReport, EstimatorConfig,
                                ThresholdConfig, calibrate_threshold,
                                gap_ok_tree, gap_ok_tuples,
                                h0_objective_peaks, joint_path_alphas,
                                joint_path_values, joint_search,
                                peak_quantile, sic_modified_term, sic_run,
                                sic_threshold, ssr_run, trial_noise,
                                trial_segments)
from mimoloc.geometry import Grid, Rect
from mimoloc.harness import RunContext, load_scenario
from mimoloc.likelihood import ObjectiveField, ReplicaCache, objective_field
from mimoloc.reference import (alpha_mle_joint, gram_matrix,
                               joint_path_loglik, steering_vector)
from mimoloc.signal import (NoiseModel, PathObservation, echo_spans,
                            scale_alphas_for_snr, synthesize_observation,
                            whiten)
from mimoloc.streams import TAG_CALIBRATION, TAG_SCENE, substream

from conftest import pack, unpack


def scene_observations(setup, scene, snr_db=None, seed=0, sigma_sq=1.0):
    """Whitened observations; snr_db None synthesizes noise-free echoes
    with unit coefficients."""
    if snr_db is not None:
        props = [t.amplitude_sq for t in scene.targets]
        rngs = [substream(seed, TAG_SCENE, 1, g)
                for g in range(scene.n_targets)]
        scene = scale_alphas_for_snr(scene, setup.waveforms, setup.noise,
                                     snr_db, props, rngs)
        noise = setup.noise
    else:
        noise = NoiseModel(sigma_sq=1e-300)
    out = []
    for p in range(setup.layout.n_paths):
        rng = substream(seed, TAG_SCENE, 2, p)
        raw = synthesize_observation(scene, setup.waveforms, noise, p, rng)
        if snr_db is None:
            out.append(PathObservation(path=p, r=raw.r, whitened=True))
        else:
            out.append(whiten(raw, noise))
    return out


def field_for(setup, scene, snr_db=None, seed=0):
    obs = scene_observations(setup, scene, snr_db, seed)
    return objective_field(pack(obs, setup.cache), setup.cache)


@pytest.fixture(scope="module")
def thresholds(small):
    return calibrate_threshold(small.waveforms, small.layout, small.grid,
                               small.noise, 0.1, 200, 99, cache=small.cache)


class TestCalibration:
    def test_quantile_endpoint_near_one(self):
        peaks = np.array([5.0, 7.0, 3.0, 9.0, 4.0])
        assert peak_quantile(peaks, 0.999) == 3.0  # every run alarms

    def test_quantile_rejects_bad_pfa(self):
        with pytest.raises(ValueError):
            peak_quantile(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            peak_quantile(np.array([1.0]), 1.0)

    def test_calibrate_validation(self, small):
        with pytest.raises(ValueError):
            calibrate_threshold(small.waveforms, small.layout, small.grid,
                                small.noise, 0.1, 50, 1, cache=small.cache)
        with pytest.raises(ValueError):
            calibrate_threshold(small.waveforms, small.layout, small.grid,
                                small.noise, 1.5, 200, 1, cache=small.cache)

    def test_holdout_rate_near_pfa(self, small, thresholds):
        peaks = h0_objective_peaks(small.waveforms, small.layout, small.grid,
                                   small.noise, 250, 12345,
                                   cache=small.cache)
        rate = np.mean(peaks > thresholds.lambda_prime)
        assert abs(rate - 0.1) <= 0.08

    def test_scaling_covariance_paired_runs(self, small):
        # the same noise draws scaled by sqrt(2) double every peak, hence
        # the calibrated threshold doubles exactly
        peaks = h0_objective_peaks(small.waveforms, small.layout, small.grid,
                                   small.noise, 120, 7, cache=small.cache)
        lam1 = peak_quantile(peaks, 0.1)
        lam2 = peak_quantile(2.0 * peaks, 0.1)
        assert lam2 == pytest.approx(2.0 * lam1, rel=1e-9)

    def test_clutter_h0_field_is_half_chi2(self, two_antenna):
        # under H0 each in-window (path, cell) GLRT value is |z|^2 / 2,
        # z ~ CN(0, 1) (mean 1/2, P(> x) = exp(-2x)), as with white noise
        s = two_antenna
        noise = NoiseModel(sigma_sq=0.8, clutter=(0.9, 1.0))
        cache = ReplicaCache(s.waveforms, s.layout, s.grid, noise)
        values = []
        for t in range(40):
            obs = [whiten(synthesize_observation(
                       s.scene([]), s.waveforms, noise, p,
                       substream(5, TAG_SCENE, t, p)), noise)
                   for p in range(s.layout.n_paths)]
            fld = objective_field(pack(obs, cache), cache)
            values.append(fld.per_path_ll[~cache.out_of_window])
        values = np.concatenate(values)
        assert np.mean(values) == pytest.approx(0.5, abs=0.04)
        assert np.mean(values > 1.0) == pytest.approx(np.exp(-2.0), abs=0.03)

    def test_white_h0_field_is_half_chi2(self, two_antenna):
        # the white twin: segments drawn straight from the trial streams
        # give |z|^2 / 2 per in-window (path, cell), z ~ CN(0, 1)
        cache = two_antenna.cache
        empty = two_antenna.scene([])
        values = [objective_field(trial_segments(
                                      cache, empty,
                                      trial_noise(cache, 5, TAG_SCENE, t),
                                      ()),
                                  cache).per_path_ll[~cache.out_of_window]
                  for t in range(40)]
        values = np.concatenate(values)
        assert np.mean(values) == pytest.approx(0.5, abs=0.04)
        assert np.mean(values > 1.0) == pytest.approx(np.exp(-2.0), abs=0.03)

    def test_noise_must_match_cache(self, tiny):
        # a cache built for another noise model is refused, not used
        clutter = NoiseModel(sigma_sq=1.0, clutter=(0.9, 1.0))
        cache = ReplicaCache(tiny.waveforms, tiny.layout, tiny.grid, clutter)
        args = (tiny.waveforms, tiny.layout, tiny.grid)
        for noise, built in ((tiny.noise, cache), (clutter, tiny.cache),
                             (NoiseModel(sigma_sq=np.array([2.0])),
                              tiny.cache)):
            with pytest.raises(ValueError, match="noise model of the cache"):
                h0_objective_peaks(*args, noise, 2, 1, cache=built)
            with pytest.raises(ValueError, match="noise model of the cache"):
                calibrate_threshold(*args, noise, 0.1, 100, 1, cache=built)
        # an equal per-path power array in another object is the same model
        arrays = ReplicaCache(*args, NoiseModel(sigma_sq=np.array([2.0])))
        h0_objective_peaks(*args, NoiseModel(sigma_sq=np.array([2.0])), 2, 1,
                           cache=arrays)

    def test_non_positive_noise_power_refused(self, tiny):
        noise = NoiseModel(sigma_sq=0.0)
        cache = ReplicaCache(tiny.waveforms, tiny.layout, tiny.grid, noise)
        with pytest.raises(NoiseCovarianceError, match="non-positive"):
            h0_objective_peaks(tiny.waveforms, tiny.layout, tiny.grid, noise,
                               2, 1, cache=cache)

    def test_weights_default_to_ones(self, thresholds, small):
        w = thresholds.weights(small.layout.n_paths)
        assert np.all(w == 1.0)


def trial_scene(setup, positions, snr_db=12.0):
    """A scene with the per-path reflection coefficients of one trial."""
    scene = setup.scene(positions)
    rngs = [substream(3, TAG_SCENE, 4, g) for g in range(len(positions))]
    return scale_alphas_for_snr(scene, setup.waveforms, setup.noise, snr_db,
                                [1.0] * len(positions), rngs)


def spans_of(cache, scene):
    # the scene's targets' echo spans, as a run keeps them
    return [echo_spans(cache.waveforms, scene.layout, t.position)
            for t in scene.targets]


def whitened_echo(setup, scene, noise, p):
    """Path p's noise-free echo over the whole window, whitened."""
    quiet = NoiseModel(sigma_sq=0.0)
    r = synthesize_observation(scene, setup.waveforms, quiet, p, None).r
    return r / np.sqrt(noise.path_sigma_sq(p))


# a scene per setup: small's third target, at the region's corner, echoes
# across the edge of most paths' segments; tiny's target echoes into the
# window end, where its one segment is clipped
WHITE_SCENES = {"small": [(1250.0, 1250.0), (4750.0, 4250.0),
                          (12000.0, 0.0)],
                "tiny": [(780.0, 100.0)]}


class TestWhiteH0Segments:
    """White trials draw only the segment samples the field reads, noise
    and echo; the same samples in a whole whitened window give its bytes,
    and the whole window's other samples do not change the field."""

    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_same_samples_same_field(self, setup_name, request):
        setup = request.getfixturevalue(setup_name)
        cache = setup.cache
        n = setup.waveforms.n_samples
        peaks = h0_objective_peaks(setup.waveforms, setup.layout, setup.grid,
                                   setup.noise, 3, 5, cache=cache)
        empty = setup.scene([])
        scene = trial_scene(setup, WHITE_SCENES[setup_name])
        for t in range(3):
            draw = trial_noise(cache, 5, TAG_CALIBRATION, t)
            noise = trial_segments(cache, empty, draw, ())
            drawn = trial_segments(cache, scene, draw,
                                   spans_of(cache, scene))
            # H0: the segment samples in a whole window, zeros elsewhere
            obs = []
            for p, (row, window) in enumerate(cache.segment_slices):
                for segments in (noise, drawn):
                    span = np.arange(cache.block_span[p])
                    assert not np.any(np.delete(unpack(segments, cache, p),
                                                span[row]))
                r = np.zeros(n, dtype=complex)
                r[window] = unpack(noise, cache, p)[row]
                obs.append(PathObservation(path=p, r=r, whitened=True))
            peak = objective_field(pack(obs, cache), cache).combined.max()
            assert peak.tobytes() == peaks[t].tobytes()
            # with targets: the segment's noise, other noise elsewhere in
            # the window, and every target's whole whitened echo
            rng = np.random.default_rng(t)
            obs = []
            for p, (row, window) in enumerate(cache.segment_slices):
                r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                r[window] = unpack(noise, cache, p)[row]
                r += whitened_echo(setup, scene, setup.noise, p)
                obs.append(PathObservation(path=p, r=r, whitened=True))
            whole = objective_field(pack(obs, cache), cache).per_path_ll
            np.testing.assert_allclose(
                objective_field(drawn, cache).per_path_ll, whole, rtol=0,
                atol=1e-10 * whole.max())
        # tiny's one segment runs past the window end and is clipped
        clipped = cache.lag_start + cache.segment > n
        assert clipped.any() == (setup_name == "tiny")

    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_echo_is_whole_window_echo(self, setup_name, request):
        # the signal trial minus the noise-only trial of the same stream is
        # each target's whitened echo, clipped to the segment; per-path
        # noise powers scale it
        setup = request.getfixturevalue(setup_name)
        n_paths = setup.layout.n_paths
        noise = NoiseModel(sigma_sq=0.5 + np.arange(n_paths))
        cache = ReplicaCache(setup.waveforms, setup.layout, setup.grid, noise)
        scene = trial_scene(setup, WHITE_SCENES[setup_name])
        draw = trial_noise(cache, 9, TAG_CALIBRATION, 2)
        diff = (trial_segments(cache, scene, draw, spans_of(cache, scene))
                - trial_segments(cache, setup.scene([]), draw, ()))
        for p, (row, window) in enumerate(cache.segment_slices):
            echo = whitened_echo(setup, scene, noise, p)[window]
            assert np.abs(echo).max() > 0
            segment = unpack(diff, cache, p)
            err = np.abs(segment[row] - echo).max()
            assert err <= 1e-12 * np.abs(echo).max()
            assert not np.any(np.delete(segment,
                                        np.arange(cache.block_span[p])[row]))


class TestTrialNoise:
    """A trial's draw is its streams' noise, read-only, and every scene of
    the trial reads it without changing it."""

    @pytest.mark.parametrize("clutter", [None, (0.9, 1.0)],
                             ids=["white", "clutter"])
    def test_draw_is_the_streams_noise(self, small, clutter):
        noise = NoiseModel(sigma_sq=0.8, clutter=clutter)
        cache = ReplicaCache(small.waveforms, small.layout, small.grid, noise)
        draw = trial_noise(cache, 9, TAG_CALIBRATION, 2)
        assert len(draw) == small.layout.n_paths
        for p, (row, window) in enumerate(cache.segment_slices):
            rng = substream(9, TAG_CALIBRATION, 2, p)
            if clutter is None:      # whitened: CN(0, 1) in the segment
                n = window.stop - window.start
                want = np.zeros(cache.block_span[p], dtype=complex)
                want[row] = (rng.standard_normal(2 * n)
                             * np.sqrt(0.5)).view(complex)
            else:                    # raw: the whole window
                want = noise.sample(small.waveforms.n_samples, p, rng)
            assert draw[p].tobytes() == want.tobytes()
            assert not draw[p].flags.writeable
        # a signal scene reads the draw and leaves it intact
        scene = trial_scene(small, WHITE_SCENES["small"])
        before = [d.tobytes() for d in draw]
        trial_segments(cache, scene, draw, spans_of(cache, scene))
        assert [d.tobytes() for d in draw] == before


class TestClutterSegments:
    @pytest.mark.parametrize("setup_name", ["small", "tiny"])
    def test_rows_are_whole_window_segments(self, setup_name, request):
        # under clutter each row is the segment of the path's whole window,
        # synthesized and whitened from the same stream, byte for byte, and
        # zero past it (tiny: the segment clipped by the window end)
        setup = request.getfixturevalue(setup_name)
        noise = NoiseModel(sigma_sq=0.8, clutter=(0.9, 1.0))
        cache = ReplicaCache(setup.waveforms, setup.layout, setup.grid, noise)
        scene = trial_scene(setup, WHITE_SCENES[setup_name])
        segments = trial_segments(cache, scene,
                                  trial_noise(cache, 9, TAG_CALIBRATION, 2),
                                  spans_of(cache, scene))
        assert segments.shape == (cache.path_blocks[-1], cache.nfft)
        for p, (row, window) in enumerate(cache.segment_slices):
            whole = whiten(synthesize_observation(
                scene, setup.waveforms, noise, p,
                substream(9, TAG_CALIBRATION, 2, p)), noise)
            segment = unpack(segments, cache, p)
            assert segment[row].tobytes() == whole.r[window].tobytes()
            assert not np.any(np.delete(segment,
                                        np.arange(cache.block_span[p])[row]))


class TestSSR:
    def test_h0_below_threshold_declares_nothing(self, small, thresholds):
        fld = field_for(small, small.scene([]), snr_db=5.0, seed=3)
        if fld.combined.max() > thresholds.lambda_prime:
            pytest.skip("unlucky noise draw crossed the threshold")
        report = ssr_run(fld, thresholds, EstimatorConfig(g_max=4))
        assert report.g_hat == 0

    def test_two_isolated_targets_noise_free(self, small):
        c1, c2 = small.isolated_cells(2)
        scene = small.scene([(small.grid.cell_center(c).x,
                              small.grid.cell_center(c).y)
                             for c in (c1, c2)])
        fld = field_for(small, scene)
        thr = ThresholdConfig(lambda_prime=1e-6, pfa=0.1)
        report = ssr_run(fld, thr, EstimatorConfig(g_max=2))
        assert {d.cell for d in report.detections} == {c1, c2}

    def test_declared_values_non_increasing(self, small, thresholds):
        scene = small.scene([(1250.0, 1250.0), (4750.0, 4250.0)],
                            [1.0, 0.6])
        fld = field_for(small, scene, snr_db=14.0, seed=5)
        report = ssr_run(fld, thresholds, EstimatorConfig(g_max=4))
        values = [d.value for d in report.detections]
        assert values == sorted(values, reverse=True)

    def test_candidates_shrink_by_footprints(self, small, thresholds):
        # independent set-algebra oracle for the surviving candidate set
        scene = small.scene([(1250.0, 1250.0), (4750.0, 4250.0)])
        fld = field_for(small, scene, snr_db=12.0, seed=6)
        report = ssr_run(fld, thresholds, EstimatorConfig(g_max=3))
        survivors = fld.combined > thresholds.lambda_prime
        removed_sets = []
        for det in report.detections:
            footprint = fld.footprint_of_cell(det.cell).any(axis=0)
            removed_sets.append(survivors & footprint)
            survivors &= ~footprint
        for det in report.detections:
            # every declared cell was removed from the final candidate set
            assert not survivors[det.cell]
        # successive removal sets are pairwise disjoint
        for i, a in enumerate(removed_sets):
            for b in removed_sets[i + 1:]:
                assert not (a & b).any()
        assert report.g_hat >= 2

    def test_detections_beat_threshold(self, small, thresholds):
        scene = small.scene([(2250.0, 2750.0)])
        fld = field_for(small, scene, snr_db=12.0, seed=8)
        report = ssr_run(fld, thresholds, EstimatorConfig(g_max=5))
        for det in report.detections:
            assert det.value > thresholds.lambda_prime
        assert report.accumulated_objective == pytest.approx(
            sum(d.value for d in report.detections))

    def test_field_not_mutated(self, small, thresholds):
        scene = small.scene([(2250.0, 2750.0)])
        fld = field_for(small, scene, snr_db=12.0, seed=8)
        before = fld.combined.copy()
        ssr_run(fld, thresholds, EstimatorConfig(g_max=5))
        assert np.array_equal(fld.combined, before)
        assert not fld.subtracted.any()


def toy_field():
    """3-cell, 2-path field with hand-set values and bins."""
    grid = Grid(Rect(0.0, 300.0, 0.0, 100.0), 100.0)  # 3 x 1 cells
    ll = np.array([[4.0, 1.0, 0.5],
                   [2.0, 3.0, 0.25]])
    # bins chosen so cell footprints overlap on path 0 only between 0 and 1
    bins = np.array([[10, 11, 30],
                     [20, 40, 60]])
    fld = ObjectiveField(grid=grid, per_path_ll=ll.copy(),
                         cross=np.zeros((2, 3), dtype=complex),
                         energy=np.ones((2, 3)),
                         bins=bins)
    return fld, ll


class TestSICModifiedTerm:
    def test_first_detection_subtracts_full_footprint(self):
        fld, ll = toy_field()
        amounts = sic_modified_term(fld, 0)
        # path 0: cells 0, 1 share bins 10/11; path 1: only cell 0
        assert np.array_equal(amounts > 0, np.array([[True, True, False],
                                                     [True, False, False]]))
        assert fld.combined[0] == 0.0
        assert fld.combined[1] == pytest.approx(3.0)  # lost path 0 only

    def test_overlap_subtracted_once(self):
        fld, ll = toy_field()
        sic_modified_term(fld, 0)
        amounts2 = sic_modified_term(fld, 1)
        # cell 1 path 0 was already cancelled by the first detection
        assert amounts2[0, 1] == 0.0
        assert amounts2[1, 1] == pytest.approx(3.0)
        # per (cell, path) cumulative subtraction never exceeds ll
        total = np.zeros_like(ll)
        fld2, _ = toy_field()
        total += sic_modified_term(fld2, 0)
        total += sic_modified_term(fld2, 1)
        total += sic_modified_term(fld2, 2)
        assert np.all(total <= ll + 1e-12)
        assert np.all(fld2.combined >= -1e-12)

    def test_set_algebra_oracle(self):
        # reference: combined = original minus each path's ll wherever the
        # union of declared footprints covers the cell on that path
        fld, ll = toy_field()
        declared = [0, 2]
        masks = [fld.footprint_of_cell(c) for c in declared]
        for c in declared:
            sic_modified_term(fld, c)
        union = masks[0] | masks[1]
        expect = (ll * ~union).sum(axis=0)
        assert np.allclose(fld.combined, expect)


class TestSICThreshold:
    def make(self, n_paths, lam=10.0):
        grid = Grid(Rect(0.0, 100.0, 0.0, 100.0), 100.0)
        fld = ObjectiveField(grid=grid,
                             per_path_ll=np.ones((n_paths, 1)),
                             cross=np.zeros((n_paths, 1), dtype=complex),
                             energy=np.ones((n_paths, 1)),
                             bins=np.arange(n_paths)[:, None] * 10)
        return fld, ThresholdConfig(lambda_prime=lam, pfa=0.1)

    def test_no_cancellations(self):
        fld, thr = self.make(25)
        assert sic_threshold(fld, 0, thr) == thr.lambda_prime

    def test_all_cancelled(self):
        fld, thr = self.make(25)
        fld.subtracted[:, 0] = True
        assert sic_threshold(fld, 0, thr) == 0.0

    def test_five_of_twentyfive(self):
        fld, thr = self.make(25)
        fld.subtracted[:5, 0] = True
        assert sic_threshold(fld, 0, thr) == pytest.approx(
            0.8 * thr.lambda_prime)

    def test_weighted_paths(self):
        fld, thr = self.make(4)
        thr = ThresholdConfig(lambda_prime=10.0, pfa=0.1,
                              path_weights=np.array([3.0, 1.0, 1.0, 1.0]))
        fld.subtracted[0, 0] = True
        assert sic_threshold(fld, 0, thr) == pytest.approx(10.0 * 3.0 / 6.0)


class TestSICRun:
    def test_h0_first_argmax_rejected(self, small, thresholds):
        fld = field_for(small, small.scene([]), snr_db=5.0, seed=3)
        if fld.combined.max() >= thresholds.lambda_prime:
            pytest.skip("unlucky noise draw crossed the threshold")
        report = sic_run(fld, thresholds, EstimatorConfig(g_max=4))
        assert report.g_hat == 0

    def test_isolated_targets_match_ssr(self, small, thresholds):
        # completely isolated, high SNR: the two algorithms agree exactly
        cells = small.isolated_cells(2)
        scene = small.scene([(small.grid.cell_center(c).x,
                              small.grid.cell_center(c).y) for c in cells],
                            [1.0, 0.7])
        fld1 = field_for(small, scene, snr_db=15.0, seed=21)
        fld2 = field_for(small, scene, snr_db=15.0, seed=21)
        cfg = EstimatorConfig(g_max=2)
        rep_ssr = ssr_run(fld1, thresholds, cfg)
        rep_sic = sic_run(fld2, thresholds, cfg)
        assert [d.cell for d in rep_ssr.detections] == \
            [d.cell for d in rep_sic.detections]

    def test_early_stop_configurable(self, small, thresholds):
        fld = field_for(small, small.scene([]), snr_db=5.0, seed=3)
        full = sic_run(field_for(small, small.scene([]), snr_db=5.0, seed=3),
                       thresholds,
                       EstimatorConfig(g_max=4, early_stop=False))
        # without early stop the loop always runs to g_max (subtracting),
        # declaring only candidates above their thresholds
        assert full.g_hat <= 4

    def test_rejected_candidate_not_restored(self, small, thresholds):
        fld = field_for(small, small.scene([(2250.0, 2750.0)]),
                        snr_db=12.0, seed=8)
        report = sic_run(fld, thresholds, EstimatorConfig(g_max=5))
        # every declared detection passed its (rescaled) threshold
        for det in report.detections:
            assert det.value >= det.threshold
        # the field keeps the cancellations of rejected candidates too
        assert fld.subtracted.any()

    def test_determinism(self, small, thresholds):
        scene = small.scene([(1250.0, 1250.0), (4750.0, 4250.0)])
        a = sic_run(field_for(small, scene, snr_db=10.0, seed=4),
                    thresholds, EstimatorConfig(g_max=3))
        b = sic_run(field_for(small, scene, snr_db=10.0, seed=4),
                    thresholds, EstimatorConfig(g_max=3))
        assert a.to_text() == b.to_text()


class TestProposition1:
    def test_sic_accumulates_at_least_ssr(self, small):
        # vanishing noise, g_max = G, thresholds zero: the SIC total
        # objective dominates SSR's on every random scene
        rng = np.random.default_rng(17)
        zero_thr = ThresholdConfig(lambda_prime=0.0, pfa=0.1)
        for trial in range(20):
            g = int(rng.integers(2, 4))
            close = trial % 2 == 0
            pts = []
            base = rng.uniform(2000.0, 10000.0, 2)
            for i in range(g):
                if close and i > 0:
                    pts.append(tuple(np.clip(base + rng.uniform(-400, 400, 2),
                                             300.0, 11700.0)))
                else:
                    pts.append(tuple(rng.uniform(500.0, 11500.0, 2)))
            scene = small.scene(pts)
            obs = scene_observations(small, scene, snr_db=None,
                                     seed=1000 + trial)
            # vanishing noise: add a deterministic tiny perturbation
            rng2 = np.random.default_rng(trial)
            obs = [PathObservation(
                       path=o.path,
                       r=o.r + 1e-6 * (rng2.standard_normal(len(o.r))
                                       + 1j * rng2.standard_normal(len(o.r))),
                       whitened=True)
                   for o in obs]
            make = lambda: objective_field(pack(obs, small.cache), small.cache)
            cfg = EstimatorConfig(g_max=g, early_stop=False)
            rep_ssr = ssr_run(make(), zero_thr, cfg)
            rep_sic = sic_run(make(), zero_thr, cfg)
            lhs = rep_sic.accumulated_objective
            rhs = rep_ssr.accumulated_objective
            assert lhs >= rhs - 1e-9 * abs(rhs)


class TestJointSearch:
    def test_single_target_equals_argmax(self, coarse):
        scene = coarse.scene([(2250.0, 2750.0)])
        obs = scene_observations(coarse, scene, snr_db=12.0, seed=31)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 1, 1.0)
        assert report.g_hat == 1
        assert report.detections[0].cell == fld.argmax_cell()

    def test_two_targets_matches_brute_oracle(self, coarse):
        # independent oracle: exhaustive pair scan through QR projectors
        c1, c2 = coarse.separated_cells(2, min_gap_samples=4.0,
                                        min_dist=4000.0)
        scene = coarse.scene([(coarse.grid.cell_center(c).x,
                               coarse.grid.cell_center(c).y)
                              for c in (c1, c2)])
        obs = scene_observations(coarse, scene, seed=77)  # noise-free
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 2, 0.0)
        assert {d.cell for d in report.detections} == {c1, c2}

        # oracle over a thinned candidate set that includes the truth
        rng = np.random.default_rng(4)
        cand = sorted(set(rng.choice(coarse.grid.n_cells, 20,
                                     replace=False).tolist()) | {c1, c2})
        reps = {c: [steering_vector(coarse.waveforms, p,
                                    coarse.grid.cell_center(c),
                                    coarse.layout)
                    for p in range(coarse.layout.n_paths)]
                for c in cand}
        ts = coarse.waveforms.Ts
        best, best_val = None, -np.inf
        for i, a in enumerate(cand):
            for b in cand[i + 1:]:
                gap = min(abs(coarse.cache.delays[p, a]
                              - coarse.cache.delays[p, b])
                          for p in range(coarse.layout.n_paths))
                if gap < ts:
                    continue
                total = 0.0
                for p in range(coarse.layout.n_paths):
                    s = np.stack([reps[a][p], reps[b][p]], axis=1)
                    q, _ = np.linalg.qr(s)
                    total += 0.5 * np.linalg.norm(q.conj().T @ obs[p].r) ** 2
                if total > best_val:
                    best, best_val = (a, b), total
        assert set(best) == {c1, c2}
        assert report.accumulated_objective == pytest.approx(best_val,
                                                             rel=1e-6)

    def test_full_grid_brute_force_12x12(self, two_antenna):
        # every cell pair of the 12x12 grid, checked against a QR-projector
        # oracle independent of the cached-gram search path
        setup = two_antenna
        c1, c2 = setup.isolated_pairs(min_gap=2)[5]
        scene = setup.scene([(setup.grid.cell_center(c).x,
                              setup.grid.cell_center(c).y)
                             for c in (c1, c2)])
        obs = scene_observations(setup, scene, seed=55)  # noise-free
        report = joint_search(pack(obs, setup.cache), setup.cache, 2, 0.0)
        assert {d.cell for d in report.detections} == {c1, c2}

        n = setup.grid.n_cells
        reps = [np.stack([steering_vector(setup.waveforms, p,
                                          setup.grid.cell_center(c),
                                          setup.layout)
                          for p in range(setup.layout.n_paths)])
                for c in range(n)]
        ts = setup.waveforms.Ts
        d = setup.cache.delays
        best, best_val = None, -np.inf
        for a in range(n):
            for b in range(a + 1, n):
                if np.min(np.abs(d[:, a] - d[:, b])) < ts:
                    continue
                total = 0.0
                for p in range(setup.layout.n_paths):
                    s = np.stack([reps[a][p], reps[b][p]], axis=1)
                    q, _ = np.linalg.qr(s)
                    total += 0.5 * np.linalg.norm(q.conj().T @ obs[p].r) ** 2
                if total > best_val:
                    best, best_val = (a, b), total
        assert set(best) == {c1, c2}
        assert report.accumulated_objective == pytest.approx(best_val,
                                                             rel=1e-6)

    def test_equal_delay_tuple_excluded(self, coarse):
        # find a cell pair whose delays collide within one sample on some
        # path: the pair must never enter the search
        d = coarse.cache.delays
        ts = coarse.waveforms.Ts
        hit = None
        n = coarse.grid.n_cells
        for c1 in range(n):
            gaps = np.abs(d[:, c1 + 1:] - d[:, [c1]])
            p, c2off = np.unravel_index(np.argmin(gaps), gaps.shape)
            if gaps[p, c2off] < ts:
                hit = (c1, c1 + 1 + int(c2off))
                break
        if hit is None:
            pytest.skip("no delay-coincident cell pair on this grid")
        c1, c2 = hit
        scene = coarse.scene([(coarse.grid.cell_center(c1).x,
                               coarse.grid.cell_center(c1).y)])
        obs = scene_observations(coarse, scene, seed=78)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 2, 0.0)
        assert {det.cell for det in report.detections} != {c1, c2}

    def test_threshold_gates_declaration(self, coarse):
        scene = coarse.scene([(2250.0, 2750.0)])
        obs = scene_observations(coarse, scene, snr_db=12.0, seed=31)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 1, 1e12)
        assert report.g_hat == 0

    def test_large_g_rejected(self, coarse):
        scene = coarse.scene([(2250.0, 2750.0)])
        obs = scene_observations(coarse, scene, snr_db=12.0, seed=31)
        with pytest.raises(ValueError):
            joint_search(pack(obs, coarse.cache), coarse.cache, 4, 0.0)

    def test_fine_grid_rejected_for_pairs(self, small):
        scene = small.scene([(2250.0, 2750.0)])
        obs = scene_observations(small, scene, snr_db=12.0, seed=31)
        with pytest.raises(ValueError):
            joint_search(pack(obs, small.cache), small.cache, 2, 0.0)

    def test_three_targets_coarse_grid(self, coarse):
        cells = coarse.separated_cells(3, min_gap_samples=4.0,
                                       min_dist=3000.0)
        scene = coarse.scene([(coarse.grid.cell_center(c).x,
                               coarse.grid.cell_center(c).y) for c in cells])
        obs = scene_observations(coarse, scene, seed=79)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 3, 0.0)
        assert {d.cell for d in report.detections} == set(cells)

    def test_declared_alphas_match_gram_oracle(self, coarse):
        cells = coarse.separated_cells(3, min_gap_samples=4.0,
                                       min_dist=3000.0)
        scene = coarse.scene([(coarse.grid.cell_center(c).x,
                               coarse.grid.cell_center(c).y) for c in cells])
        obs = scene_observations(coarse, scene, snr_db=15.0, seed=80)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 3, 0.0)
        assert {d.cell for d in report.detections} == set(cells)
        thetas = [d.location for d in report.detections]
        for p in range(coarse.layout.n_paths):
            reps = np.stack([steering_vector(coarse.waveforms, p, th,
                                             coarse.layout)
                             for th in thetas], axis=1)
            want = alpha_mle_joint(
                gram_matrix(thetas, p, coarse.waveforms, coarse.layout),
                reps.conj().T @ obs[p].r)
            got = [d.alphas[p] for d in report.detections]
            assert np.allclose(got, want, rtol=1e-9, atol=0)

    def test_tuple_budget_checked_before_any_work(self, coarse, monkeypatch):
        # refused before the objective field or the tuples are built:
        # C(400, 3) ~ 1.06e7 tuples on a 20 x 20 grid; on the 144-cell grid,
        # 142 or 145 targets, whose enumeration passes through the 72-cell
        # stage of up to C(144, 72) tuples although C(144, 142) is small
        # and C(144, 145) is 0
        grid = Grid(coarse.region, 600.0)
        assert grid.n_cells == 400
        fine = ReplicaCache(coarse.waveforms, coarse.layout, grid)
        n = coarse.grid.n_cells

        def never(*args, **kwargs):
            raise AssertionError("joint search started work over budget")
        monkeypatch.setattr(estimators, "objective_field", never)
        monkeypatch.setattr(estimators, "gap_ok_tree", never)
        for cache, n_targets in [(fine, 3), (coarse.cache, n - 2),
                                 (coarse.cache, n + 1)]:
            with pytest.raises(ValueError, match="budget"):
                joint_search([], cache, n_targets, 0.0)
        with pytest.raises(ValueError, match="n_targets"):
            joint_search([], coarse.cache, 0, 0.0)

    def test_clutter_cache_refused(self, coarse, monkeypatch):
        # the Gram's off-diagonal products are not R^-1 weighted, so a
        # cache built with clutter is refused before the field is built
        cache = ReplicaCache(coarse.waveforms, coarse.layout, coarse.grid,
                             NoiseModel(sigma_sq=1.0, clutter=(0.9, 1.0)))

        def never(*args, **kwargs):
            raise AssertionError("joint search built a field under clutter")
        monkeypatch.setattr(estimators, "objective_field", never)
        for n_targets in (1, 2):
            with pytest.raises(ValueError, match="white noise"):
                joint_search([], cache, n_targets, 0.0)

    def test_single_target_has_no_tuple_budget(self, coarse, monkeypatch):
        # one target is the field argmax and enumerates no tuples, so it
        # runs on a grid with more cells than the budget allows tuples
        monkeypatch.setattr(estimators, "JOINT_MAX_TUPLES",
                            coarse.grid.n_cells - 1)
        scene = coarse.scene([(2250.0, 2750.0)])
        obs = scene_observations(coarse, scene, snr_db=12.0, seed=31)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        report = joint_search(pack(obs, coarse.cache), coarse.cache, 1, 0.0)
        assert [d.cell for d in report.detections] == [fld.argmax_cell()]
        with pytest.raises(ValueError, match="budget"):
            joint_search(pack(obs, coarse.cache), coarse.cache, 2, 0.0)

    def test_small_blocks_match_one_block(self, coarse, monkeypatch):
        # every tuple's value is elementwise, so scoring the tuples in
        # blocks of 1, 64 or 4099 (no divisor of the tuple count) declares
        # the same cells and the same total bits as one block holding every
        # tuple; G = 3 skips blocks of one tuple (16 x 358 360 calls)
        scene = coarse.scene([(2250.0, 2750.0), (8500.0, 4500.0)])
        obs = scene_observations(coarse, scene, snr_db=10.0, seed=82)
        for n_targets, chunks in ((2, (1, 64, 4099)), (3, (64, 4099))):
            n_tuples = len(gap_ok_tuples(coarse.cache, n_targets))
            monkeypatch.setattr(estimators, "JOINT_CHUNK", n_tuples)
            want = joint_search(pack(obs, coarse.cache), coarse.cache,
                                n_targets, 0.0)
            assert len(want.detections) == n_targets
            assert n_tuples % 4099
            for chunk in chunks:
                monkeypatch.setattr(estimators, "JOINT_CHUNK", chunk)
                got = joint_search(pack(obs, coarse.cache), coarse.cache,
                                   n_targets, 0.0)
                assert ([d.cell for d in got.detections]
                        == [d.cell for d in want.detections])
                assert got.accumulated_objective == want.accumulated_objective

    def test_noisy_search_matches_materialized_gram(self, coarse,
                                                    monkeypatch):
        # off-grid targets in noise: the search over the cache's Gram
        # declares the cells and total of the same search over the Gram
        # of the materialized replicas
        cases = [(2, snr, seed) for snr in (0.0, 10.0) for seed in (1, 2, 3)]
        cases += [(3, snr, seed) for snr in (0.0, 10.0) for seed in (1, 2)]
        found = []
        for n_targets, snr_db, seed in cases:
            rng = np.random.default_rng(100 * n_targets + seed)
            centers = [coarse.grid.cell_center(c) for c in rng.choice(
                coarse.grid.n_cells, n_targets, replace=False)]
            offsets = rng.uniform(-400.0, 400.0, (n_targets, 2))
            scene = coarse.scene([(c.x + dx, c.y + dy)
                                  for c, (dx, dy) in zip(centers, offsets)])
            obs = scene_observations(coarse, scene, snr_db, seed)
            found.append((n_targets, obs,
                          joint_search(pack(obs, coarse.cache), coarse.cache,
                                       n_targets, 0.0)))

        grams = {}

        def materialized(cache, path, cells):
            key = (path, tuple(cells))
            if key not in grams:
                thetas = [cache.grid.cell_center(c) for c in cells]
                grams[key] = gram_matrix(thetas, path, cache.waveforms,
                                         cache.layout).values
            return grams[key]
        monkeypatch.setattr(ReplicaCache, "gram", materialized)
        for n_targets, obs, want in found:
            got = joint_search(pack(obs, coarse.cache), coarse.cache,
                               n_targets, 0.0)
            assert ([d.cell for d in got.detections]
                    == [d.cell for d in want.detections])
            assert got.accumulated_objective == pytest.approx(
                want.accumulated_objective, rel=1e-13)

    @pytest.mark.parametrize("n_targets", [2, 3])
    def test_gap_ok_tuples_are_filtered_combinations(self, coarse,
                                                     n_targets):
        # the enumerator yields the gap-ok tuples of usable cells in
        # itertools.combinations order
        cache = coarse.cache
        usable = np.flatnonzero(~cache.out_of_window.any(axis=0))
        combos = np.array(list(itertools.combinations(usable.tolist(),
                                                      n_targets)))
        keep = np.ones(len(combos), dtype=bool)
        for i, j in itertools.combinations(range(n_targets), 2):
            gap = np.abs(cache.delays[:, combos[:, i]]
                         - cache.delays[:, combos[:, j]]).min(axis=0)
            keep &= gap >= coarse.waveforms.Ts
        np.testing.assert_array_equal(gap_ok_tuples(cache, n_targets),
                                      combos[keep])


def flat_path_statistic(gram, cross, tuples, alphas=False):
    """Oracle: one path's joint statistic 0.5 x^H A^-1 x for each row t of
    tuples on its own, A = gram[t][:, t], x = cross[t], by an unpivoted
    column-by-column LDL^H run vectorized over the tuples (the joint
    search's scoring before its prefix tree); with alphas=True also A^-1 x
    by back substitution."""
    t = np.ascontiguousarray(tuples.T)
    g_n, n = len(t), gram.shape[1]
    flat = gram.ravel()
    low, d, y = {}, [], []        # L[i, j] (i > j), D, y
    values = np.zeros(t.shape[1])
    for j in range(g_n):
        w = [np.conj(low[j, k]) * d[k] for k in range(j)]   # conj(L_jk) D_k
        d.append(flat.take(t[j] * (n + 1)).real
                 - sum((low[j, k] * w[k]).real for k in range(j)))
        y.append(cross.take(t[j]) - sum(low[j, k] * y[k] for k in range(j)))
        for i in range(j + 1, g_n):
            low[i, j] = (flat.take(t[i] * n + t[j])
                         - sum(low[i, k] * w[k] for k in range(j))) / d[j]
        values += 0.5 * (y[j].real ** 2 + y[j].imag ** 2) / d[j]
    if not alphas:
        return values, None
    a = [None] * g_n
    for j in reversed(range(g_n)):
        a[j] = y[j] / d[j] - sum(np.conj(low[k, j]) * a[k]
                                 for k in range(j + 1, g_n))
    return values, np.stack(a, axis=-1)


def chain_tree(tuples):
    """A prefix tree whose leaves are the rows of tuples, sharing no
    prefix: level j holds each row's first j + 1 cells."""
    rows = np.arange(len(tuples), dtype=np.int32)
    return tuple((rows if j else np.zeros_like(rows),
                  tuples[:, j].astype(np.int32))
                 for j in range(tuples.shape[1]))


def joint_coarse_cache(coarse):
    """The perfbench joint_coarse scene's cache: the coarse layout and
    waveforms on a 9 x 9 km region of 1 km cells (81 cells, 16 paths)."""
    return ReplicaCache(coarse.waveforms, coarse.layout,
                        Grid(Rect(0.0, 9000.0, 0.0, 9000.0), 1000.0))


def bits(a):
    """The raw bits of a float or complex array, as int64."""
    return np.ascontiguousarray(a).view(np.int64)


class TestJointPathStatistic:
    @pytest.mark.parametrize("n_targets", [1, 2, 3, 4])
    def test_matches_gram_oracle(self, coarse, n_targets):
        # per-path value and alphas of random gap-ok tuples against the
        # materialized-replica oracles
        scene = coarse.scene([(2250.0, 2750.0), (8500.0, 4500.0)])
        obs = scene_observations(coarse, scene, snr_db=10.0, seed=81)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        cache, ts = coarse.cache, coarse.waveforms.Ts
        rng = np.random.default_rng(n_targets)
        tuples = []
        while len(tuples) < 6:
            t = np.sort(rng.choice(coarse.grid.n_cells, n_targets,
                                   replace=False))
            d = cache.delays[:, t]
            gaps = np.abs(d[:, :, None] - d[:, None, :])
            if (np.all(gaps[:, ~np.eye(n_targets, dtype=bool)] >= ts)
                    and not cache.out_of_window[:, t].any()):
                tuples.append(t)
        tuples = np.array(tuples)
        cells = np.arange(coarse.grid.n_cells)
        for p in range(coarse.layout.n_paths):
            values = np.zeros(len(tuples))
            joint_path_values(cache.gram(p, cells), fld.cross[p],
                              chain_tree(tuples), values)
            for t, value in zip(tuples, values):
                alpha = joint_path_alphas(cache.gram(p, t), fld.cross[p, t])
                thetas = [coarse.grid.cell_center(c) for c in t]
                reps = np.stack([steering_vector(coarse.waveforms, p, th,
                                                 coarse.layout)
                                 for th in thetas], axis=1)
                want_alpha = alpha_mle_joint(
                    gram_matrix(thetas, p, coarse.waveforms, coarse.layout),
                    reps.conj().T @ obs[p].r)
                want = joint_path_loglik(thetas, obs[p], coarse.waveforms,
                                         coarse.layout, p)
                assert value == pytest.approx(want, rel=1e-9)
                assert np.allclose(alpha, want_alpha, rtol=1e-9, atol=0)

    def test_fortran_order_gram_matches_c_order(self, coarse):
        # the flat Gram reads accept a gram that is not C-contiguous and
        # return the same bits as from a C-order copy
        scene = coarse.scene([(2250.0, 2750.0), (8500.0, 4500.0)])
        obs = scene_observations(coarse, scene, snr_db=10.0, seed=82)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        cells = np.arange(coarse.grid.n_cells)
        tree = gap_ok_tree(coarse.cache, 3)
        declared = gap_ok_tuples(coarse.cache, 3)[::9973]
        for p in range(coarse.layout.n_paths):
            gram = np.asfortranarray(coarse.cache.gram(p, cells))
            assert not gram.flags.c_contiguous
            got, want = np.zeros((2, len(tree[-1][1])))
            joint_path_values(gram, fld.cross[p], tree, got)
            joint_path_values(np.ascontiguousarray(gram), fld.cross[p], tree,
                              want)
            np.testing.assert_array_equal(got, want)
            for t in declared:
                small = np.asfortranarray(coarse.cache.gram(p, t))
                assert not small.flags.c_contiguous
                np.testing.assert_array_equal(
                    joint_path_alphas(small, fld.cross[p, t]),
                    joint_path_alphas(np.ascontiguousarray(small),
                                      fld.cross[p, t]))

    @pytest.mark.parametrize("n_targets", [2, 3])
    def test_tree_totals_match_flat_oracle_bits(self, coarse, n_targets):
        # every gap-ok tuple's total over the 16 paths, and the alphas of
        # a few tuples, keep the bits of the tuple-by-tuple LDL^H: the tree
        # shares each prefix's rows but computes every entry alike
        scene = coarse.scene([(2250.0, 2750.0), (8500.0, 4500.0)])
        obs = scene_observations(coarse, scene, snr_db=0.0, seed=83)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        tree = gap_ok_tree(coarse.cache, n_targets)
        tuples = gap_ok_tuples(coarse.cache, n_targets)
        cells = np.arange(coarse.grid.n_cells)
        got, want = np.zeros((2, len(tuples)))
        for p in range(coarse.layout.n_paths):
            gram = coarse.cache.gram(p, cells)
            joint_path_values(gram, fld.cross[p], tree, got)
            for lo in range(0, len(tuples), 4096):
                want[lo: lo + 4096] += flat_path_statistic(
                    gram, fld.cross[p], tuples[lo: lo + 4096])[0]
            for t in tuples[::len(tuples) // 5]:
                small = coarse.cache.gram(p, t)
                order = np.arange(n_targets)[None, :]
                assert np.array_equal(
                    bits(joint_path_alphas(small, fld.cross[p, t])),
                    bits(flat_path_statistic(small, fld.cross[p, t], order,
                                             alphas=True)[1][0]))
        assert np.array_equal(bits(got), bits(want))

    def test_four_targets_match_flat_oracle_bits(self, coarse):
        # G = 4 on the joint_coarse cache (693 292 tuples), two paths
        cache = joint_coarse_cache(coarse)
        rng = np.random.default_rng(84)
        segments = np.zeros((cache.path_blocks[-1], cache.nfft),
                            dtype=complex)
        rng.standard_normal(out=segments.view(float))
        fld = objective_field(segments, cache)
        tree = gap_ok_tree(cache, 4)
        tuples = gap_ok_tuples(cache, 4)
        cells = np.arange(cache.grid.n_cells)
        for p in (0, 11):
            gram = cache.gram(p, cells)
            got, want = np.zeros((2, len(tuples)))
            joint_path_values(gram, fld.cross[p], tree, got)
            for lo in range(0, len(tuples), 4096):
                want[lo: lo + 4096] += flat_path_statistic(
                    gram, fld.cross[p], tuples[lo: lo + 4096])[0]
            assert np.array_equal(bits(got), bits(want))


class TestGapOkTree:
    def test_built_once_per_cache_and_g(self, coarse, tmp_path,
                                        monkeypatch):
        # the tree is built by the first joint search for each G on a
        # cache, not by RunContext, and then reused; int32 and read-only
        built = []

        def counting(cache, n_targets):
            built.append(n_targets)
            return gap_ok_tree(cache, n_targets)
        monkeypatch.setattr(estimators, "gap_ok_tree", counting)
        cfg = {"name": "tree", "seed": 5,
               "layout": {"transceivers_km": [[-1.0, -1.0], [13.0, -2.0],
                                              [-2.0, 13.0], [14.0, 14.0]]},
               "region_km": [0.0, 9.0, 0.0, 9.0], "grid_cell_m": 1000.0,
               "targets": [{"x_km": 5.5, "y_km": 1.5, "proportion": 1.0}],
               "waveforms": {"window_s": 1.4e-4, "samples": 1793,
                             "pulse_width_s": 5e-6},
               "noise": {"sigma_sq": 1.0}, "snr_db": [20], "pfa": 0.1,
               "trials": 1, "calibration_trials": 100, "g_max": 3,
               "algorithm": "joint", "single_target_benchmark": False,
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "tree.cfg"
        path.write_text(json.dumps(cfg))
        ctx = RunContext(load_scenario(str(path)))
        cache = ctx.cache
        assert built == [] and cache.joint_trees == {}

        scene = coarse.scene([(5500.0, 1500.0), (1500.0, 2500.0)])
        for n_targets in (2, 3, 2, 3):
            segments = trial_segments(cache, scene,
                                      trial_noise(cache, 5, TAG_SCENE, 0),
                                      spans_of(cache, scene))
            reports = [joint_search(segments.copy(), cache, n_targets, 0.0)
                       for _ in range(2)]
            assert reports[0].to_text() == reports[1].to_text()
        assert built == [2, 3]
        assert sorted(cache.joint_trees) == [2, 3]
        for n_targets, tree in cache.joint_trees.items():
            assert len(tree) == n_targets
            for level in tree:
                for a in level:
                    assert a.dtype == np.int32 and not a.flags.writeable
            np.testing.assert_array_equal(
                estimators._tuples_of(tree, np.arange(len(tree[-1][1]))),
                gap_ok_tuples(cache, n_targets))
        assert cache.joint_trees[2][0][1] is not cache.joint_trees[3][0][1]

    def test_empty_level_declares_nothing(self, coarse):
        # a 2 x 2 grid has no tuple of 5 cells, so the tree for G = 5 ends
        # in an empty level: the search returns an empty report, objective
        # 0, and raises nothing
        grid = Grid(Rect(4000.0, 6000.0, 4000.0, 6000.0), 1000.0)
        cache = ReplicaCache(coarse.waveforms, coarse.layout, grid)
        assert grid.n_cells == 4
        tree = gap_ok_tree(cache, 5)
        assert [len(cell) for _, cell in tree][-1] == 0
        scene = coarse.scene([(4500.0, 4500.0)])
        report = joint_search(trial_segments(
                                  cache, scene,
                                  trial_noise(cache, 1, TAG_SCENE, 0),
                                  spans_of(cache, scene)),
                              cache, 5, 0.0)
        assert report.g_hat == 0
        assert report.accumulated_objective == 0.0
        assert gap_ok_tuples(cache, 5).shape == (0, 5)


def coarse_scene(coarse, seed, n_targets):
    """Scene of n_targets random cells of the coarse grid (n_targets = 0:
    empty)."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(coarse.grid.n_cells, n_targets, replace=False)
    return coarse.scene([(coarse.grid.cell_center(c).x,
                          coarse.grid.cell_center(c).y) for c in cells])


def coarse_field(coarse, seed, n_targets):
    """Objective field of n_targets random cells at 10 dB on the coarse
    grid (n_targets = 0: noise only)."""
    return field_for(coarse, coarse_scene(coarse, seed, n_targets),
                     snr_db=10.0, seed=seed)


class TestDetectorProperties:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(lam=st.floats(0.0, 30.0), g_max=st.integers(1, 144),
           seed=st.integers(0, 2 ** 16), n_targets=st.integers(0, 3))
    @example(lam=1e-3, g_max=144, seed=0, n_targets=0)
    def test_distinct_cells_at_or_above_threshold(self, coarse, lam, g_max,
                                                  seed, n_targets):
        # SSR and SIC never declare a cell twice, and every declared value
        # reaches the threshold it was declared against
        thr = ThresholdConfig(lambda_prime=lam, pfa=0.1)
        cfg = EstimatorConfig(g_max=g_max)
        for run in (ssr_run, sic_run):
            report = run(coarse_field(coarse, seed, n_targets), thr, cfg)
            cells = [d.cell for d in report.detections]
            assert len(cells) == len(set(cells)), run.__name__
            for d in report.detections:
                assert d.value >= d.threshold, run.__name__

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2 ** 16), n_targets=st.integers(0, 3))
    def test_joint_search_matches_field_and_oracle(self, coarse, seed,
                                                    n_targets):
        # G = 1 declares the field argmax; G = 2 declares a total equal to
        # the summed per-path joint log-likelihood of the declared pair
        obs = scene_observations(coarse, coarse_scene(coarse, seed,
                                                      n_targets),
                                 snr_db=10.0, seed=seed)
        fld = objective_field(pack(obs, coarse.cache), coarse.cache)
        one = joint_search(pack(obs, coarse.cache), coarse.cache, 1, 0.0)
        assert [d.cell for d in one.detections] == [fld.argmax_cell()]
        two = joint_search(pack(obs, coarse.cache), coarse.cache, 2, 0.0)
        assert two.g_hat == 2
        thetas = two.locations()
        want = sum(joint_path_loglik(thetas, obs[p], coarse.waveforms,
                                     coarse.layout, p)
                   for p in range(coarse.layout.n_paths))
        assert two.accumulated_objective == pytest.approx(want, rel=1e-9)


class TestReportSerialization:
    def test_round_trip(self, small, thresholds):
        scene = small.scene([(1250.0, 1250.0), (4750.0, 4250.0)])
        report = ssr_run(field_for(small, scene, snr_db=12.0, seed=4),
                         thresholds, EstimatorConfig(g_max=3))
        text = report.to_text()
        back = DetectionReport.from_text(text)
        assert back.algorithm == report.algorithm
        assert back.g_hat == report.g_hat
        for a, b in zip(report.detections, back.detections):
            assert (a.iteration, a.location.x, a.location.y,
                    a.value, a.threshold) == \
                (b.iteration, b.location.x, b.location.y,
                 b.value, b.threshold)
