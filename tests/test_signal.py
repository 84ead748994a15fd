import numpy as np
import pytest

from mimoloc.errors import (BandwidthError, NoiseCovarianceError,
                            ObservationWindowError)
from mimoloc.geometry import AntennaLayout, Position2D, Rect, Scene, TargetTruth
from mimoloc.reference import (covariance, delayed_replica, exp_clutter_cov,
                               steering_vector, whitening_matrix)
from mimoloc.signal import (NoiseModel, PathObservation, build_waveform_set,
                            interp_taps, reference_energies,
                            scale_alphas_for_snr, synthesize_observation,
                            whiten)


def max_xcorr_all_lags(a, b):
    """Independent correlation oracle: normalized |cross-correlation| at
    every integer lag via a zero-padded FFT."""
    nfft = 1 << int(np.ceil(np.log2(len(a) + len(b))))
    c = np.fft.ifft(np.fft.fft(a, nfft) * np.conj(np.fft.fft(b, nfft)))
    return np.max(np.abs(c)) / (np.linalg.norm(a) * np.linalg.norm(b))


def oversample_reference(sig, delay_samples, ov=64):
    """64x zero-padded-FFT oversampling, then picking the shifted lattice
    points: the dense band-limited resampling oracle."""
    n = len(sig)
    nf = n * ov
    spec = np.fft.fft(sig)
    fine_spec = np.zeros(nf, dtype=complex)
    half = n // 2
    fine_spec[:half] = spec[:half]
    fine_spec[-half:] = spec[-half:]
    if n % 2 == 0:
        fine_spec[half] = spec[half] / 2
        fine_spec[-half] = spec[half] / 2
    fine = np.fft.ifft(fine_spec) * ov
    idx = np.arange(n) * ov - int(round(delay_samples * ov))
    out = np.where((idx >= 0) & (idx < nf), fine[np.clip(idx, 0, nf - 1)], 0)
    return out


@pytest.fixture(scope="module")
def production_waveforms():
    # the shipped five-transmitter set
    return build_waveform_set(5, 1.55e-4, 39681, 5e-7)


class TestBuildWaveformSet:
    def test_single_waveform_vacuous_bound(self):
        wf = build_waveform_set(1, 4e-5, 5121, 5e-7)
        assert wf.orth_bound == 0.0
        assert wf.tau_c == 5e-7
        assert np.isclose(np.linalg.norm(wf.samples[0]), 1.0)

    def test_two_waveforms_near_orthogonal(self):
        wf = build_waveform_set(2, 4e-5, 5121, 5e-7)
        zero_lag = abs(np.vdot(wf.samples[0], wf.samples[1]))
        assert zero_lag < 0.05
        assert max_xcorr_all_lags(wf.samples[0], wf.samples[1]) <= 0.05

    def test_five_waveforms_exhaustive_pairs(self, production_waveforms):
        wf = production_waveforms
        worst = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                worst = max(worst,
                            max_xcorr_all_lags(wf.samples[i], wf.samples[j]))
        assert worst <= 0.05
        assert wf.orth_bound <= 0.05
        assert wf.orth_bound == pytest.approx(worst, rel=1e-6)

    def test_insufficient_bandwidth_rejected(self):
        # 5 offsets at spacing 7/Tp do not fit 20 samples per pulse
        with pytest.raises(BandwidthError):
            build_waveform_set(5, 1e-5, 41, 5e-6)

    def test_sampling_metadata(self):
        wf = build_waveform_set(2, 4e-5, 5121, 5e-7)
        assert wf.Ts == pytest.approx(4e-5 / 5120)
        assert wf.n_samples == 5121
        assert wf.pulse_samples == 64


class TestSteeringVector:
    LAYOUT = AntennaLayout(tx=(Position2D(500.0, 500.0),),
                           rx=(Position2D(500.0, 500.0),))

    def test_zero_delay_is_exact_copy(self):
        wf = build_waveform_set(1, 4e-5, 5121, 5e-7)
        sv = steering_vector(wf, 0, Position2D(500.0, 500.0), self.LAYOUT)
        assert np.array_equal(sv, wf.samples[0])

    def test_integer_shift(self):
        wf = build_waveform_set(1, 4e-5, 5121, 5e-7)
        tau = 7 * wf.Ts
        rep = delayed_replica(wf, 0, tau)
        assert np.allclose(rep[7:], wf.samples[0][:-7], atol=1e-15)
        assert np.allclose(rep[:7], 0.0)

    def test_half_sample_shift_matches_oversampled_reference(self):
        wf = build_waveform_set(5, 1e-5, 2561, 5e-7)  # P = 128, fast build
        for k in range(wf.n_waveforms):
            rep = delayed_replica(wf, k, 7.5 * wf.Ts)
            ref = oversample_reference(wf.samples[k], 7.5)
            err = (np.linalg.norm(rep - ref) ** 2
                   / np.linalg.norm(ref) ** 2)
            assert err <= 1e-3

    def test_energy_invariant_under_delay(self):
        wf = build_waveform_set(5, 1e-5, 2561, 5e-7)
        for k in range(wf.n_waveforms):
            for d in (0.0, 13.0, 100.25, 800.77, 1503.5):
                rep = delayed_replica(wf, k, d * wf.Ts)
                assert abs(np.vdot(rep, rep).real - 1.0) <= 1e-3

    def test_out_of_window_rejected(self):
        wf = build_waveform_set(1, 4e-5, 5121, 5e-7)
        with pytest.raises(ObservationWindowError):
            delayed_replica(wf, 0, 4e-5)
        with pytest.raises(ObservationWindowError):
            delayed_replica(wf, 0, -1e-9)

    def test_interp_taps_sum_to_one_at_integers(self):
        offs, w = interp_taps(0.0)
        assert w[offs == 0] == pytest.approx(1.0)
        assert np.allclose(w[offs != 0], 0.0, atol=1e-15)


def toy_scene(alphas):
    layout = AntennaLayout.transceivers([(0.0, 0.0), (9000.0, 0.0)])
    region = Rect(2000.0, 8000.0, 500.0, 6000.0)
    targets = []
    for (x, y), a in alphas:
        targets.append(TargetTruth(Position2D(x, y), amplitude_sq=1.0,
                                   per_path_alpha=np.full((2, 2), a)))
    return Scene(layout, tuple(targets), region)


class TestSynthesize:
    WF = build_waveform_set(2, 6e-5, 7681, 5e-7)

    def test_empty_scene_no_noise_is_zero(self):
        scene = toy_scene([])
        obs = synthesize_observation(scene, self.WF, NoiseModel(1.0), 0,
                                     np.random.default_rng(0))
        # noise power 1 still draws; zero-noise case via sigma -> tiny
        scene = toy_scene([])
        quiet = NoiseModel(sigma_sq=1e-300)
        obs = synthesize_observation(scene, self.WF, quiet, 0,
                                     np.random.default_rng(0))
        assert np.allclose(obs.r, 0.0, atol=1e-140)

    def test_single_target_scaled_replica(self):
        scene = toy_scene([((4000.0, 3000.0), 2.0 + 0j)])
        quiet = NoiseModel(sigma_sq=1e-300)
        obs = synthesize_observation(scene, self.WF, quiet, 1,
                                     np.random.default_rng(0))
        sv = steering_vector(self.WF, 1, Position2D(4000.0, 3000.0),
                             scene.layout)
        assert np.allclose(obs.r, 2.0 * sv, atol=1e-12)

    def test_superposition(self):
        a1, a2 = 1.3 - 0.4j, -0.7 + 2.2j
        quiet = NoiseModel(sigma_sq=1e-300)
        both = synthesize_observation(
            toy_scene([((4000.0, 3000.0), a1), ((6500.0, 4200.0), a2)]),
            self.WF, quiet, 2, np.random.default_rng(0))
        one = synthesize_observation(
            toy_scene([((4000.0, 3000.0), a1)]), self.WF, quiet, 2,
            np.random.default_rng(0))
        two = synthesize_observation(
            toy_scene([((6500.0, 4200.0), a2)]), self.WF, quiet, 2,
            np.random.default_rng(0))
        assert np.allclose(both.r, one.r + two.r, atol=1e-12)


class TestWhiten:
    def obs(self, r):
        return PathObservation(path=0, r=np.asarray(r, dtype=complex))

    def test_identity_covariance(self):
        r = np.array([1 + 2j, -3j, 0.5])
        out = whiten(self.obs(r), NoiseModel(sigma_sq=1.0))
        assert np.array_equal(out.r, r)
        assert out.whitened

    def test_scalar_covariance(self):
        r = np.array([2.0 + 0j, -4.0j])
        out = whiten(self.obs(r), NoiseModel(sigma_sq=4.0))
        assert np.allclose(out.r, r / 2.0)

    def test_2x2_eigendecomposition_oracle(self):
        # R = [[3, 1], [1, 3]]: sigma^2 = 1 plus AR(1) clutter, power 2,
        # rho 0.5; R = V diag(4, 2) V^T with V = [[1, 1], [1, -1]] / sqrt(2)
        noise = NoiseModel(sigma_sq=1.0, clutter=(0.5, 2.0))
        out = whiten(self.obs([1.0, 0.0]), noise)
        # R^-1 e_0 = V diag(1/4, 1/2) V^T e_0
        assert out.r[0] == pytest.approx(0.375, rel=1e-12)
        assert out.r[1] == pytest.approx(-0.125, rel=1e-12)

    def test_double_whitening_rejected(self):
        out = whiten(self.obs([1.0]), NoiseModel(1.0))
        with pytest.raises(ValueError):
            whiten(out, NoiseModel(1.0))

    def test_non_positive_definite_rejected(self):
        for clutter in [(0.5, -3.0), (1.5, 1.0), (-1.0, 1.0), (np.nan, 1.0)]:
            bad = NoiseModel(sigma_sq=1.0, clutter=clutter)
            with pytest.raises(NoiseCovarianceError):
                whiten(self.obs([1.0, 1.0]), bad)
            with pytest.raises(NoiseCovarianceError):
                bad.sample(2, 0, np.random.default_rng(0))

    def test_whitened_noise_covariance_near_identity(self):
        # correlated clutter drawn by the AR(1) recursion, then the dense
        # whitening oracle: sample covariance ~ identity; and whitening to
        # R^-1 n: E[(R^-1 n) n^H] ~ identity
        n, draws = 8, 20000
        noise = NoiseModel(sigma_sq=1.0, clutter=(0.7, 2.0))
        samples = noise.sample(n, 0, np.random.default_rng(7), size=(draws,))
        white = samples @ whitening_matrix(noise, n).T
        cov = white.conj().T @ white / draws
        err = np.linalg.norm(cov - np.eye(n)) / np.linalg.norm(np.eye(n))
        assert err <= 0.05
        solved = noise.clutter_filter(n).solve(samples)
        cross = solved.T @ samples.conj() / draws
        err = np.linalg.norm(cross - np.eye(n)) / np.linalg.norm(np.eye(n))
        assert err <= 0.05


class TestClutterOracle:
    """The O(N) AR(1) routes against the dense covariance at N = 64."""

    RHOS = [0.0, 0.6, 0.95]

    @staticmethod
    def noise(rho):
        return NoiseModel(sigma_sq=0.7, clutter=(rho, 1.3))

    @pytest.mark.parametrize("rho", RHOS)
    def test_whiten_is_dense_solve(self, rho):
        n = 64
        noise = self.noise(rho)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = whiten(PathObservation(path=0, r=r), noise)
        ref = np.linalg.solve(covariance(noise, n), r)
        assert out.whitened
        assert np.linalg.norm(out.r - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("rho", RHOS)
    def test_energies_clip_to_window(self, rho):
        # spans reaching past either end of the window, or wholly outside
        n, w = 64, 10
        noise = self.noise(rho)
        rng = np.random.default_rng(4)
        start = np.array([-15, -4, 0, 5, 27, 54, 60, 63, 70])
        win = (rng.standard_normal((len(start), w))
               + 1j * rng.standard_normal((len(start), w)))
        got = noise.clutter_filter(n).energies(win.T, start)
        r_inv = np.linalg.inv(covariance(noise, n))
        pad = 2 * w
        for m in range(len(start)):
            s = np.zeros(n + 2 * pad, dtype=complex)
            s[pad + start[m]: pad + start[m] + w] = win[m]
            s = s[pad: pad + n]
            assert got[m] == pytest.approx(np.vdot(s, r_inv @ s).real,
                                           rel=1e-10, abs=1e-300)

    # rho None: white noise, no clutter
    @pytest.mark.parametrize("rho", RHOS + [None])
    def test_reference_energies_are_dense_quadratic_form(self, tiny, rho):
        noise = NoiseModel(sigma_sq=0.7) if rho is None else self.noise(rho)
        r_inv = np.linalg.inv(covariance(noise, tiny.waveforms.n_samples))
        for c in np.flatnonzero(~tiny.cache.out_of_window[0]):
            pos = tiny.grid.cell_center(int(c))
            s = steering_vector(tiny.waveforms, 0, pos, tiny.layout)
            got = reference_energies(tiny.waveforms, tiny.layout, noise, pos)
            assert got[0, 0] == pytest.approx(np.vdot(s, r_inv @ s).real,
                                              rel=1e-10)
            # the white cache, window-clipped replicas included
            assert tiny.cache.energy[0, c] == pytest.approx(
                np.vdot(s, s).real, rel=1e-12)

    @pytest.mark.parametrize("rho", RHOS)
    def test_ar1_draw_covariance(self, rho):
        n, draws = 16, 40000
        noise = NoiseModel(sigma_sq=0.0, clutter=(rho, 1.3))
        c = noise.sample(n, 0, np.random.default_rng(5), size=(draws,))
        cov = c.T @ c.conj() / draws
        ref = exp_clutter_cov(n, rho, 1.3)
        assert np.linalg.norm(cov - ref) <= 0.05 * np.linalg.norm(ref)

    def test_white_noise_draw_unchanged(self):
        # white noise alone draws exactly what it always did
        noise = NoiseModel(sigma_sq=2.0)
        got = noise.sample(32, 0, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        ref = np.sqrt(2.0) * (rng.standard_normal(32)
                              + 1j * rng.standard_normal(32)) / np.sqrt(2)
        assert np.array_equal(got, ref)


class TestScaleAlphas:
    WF = build_waveform_set(2, 6e-5, 7681, 5e-7)

    def scene(self):
        return toy_scene([((4000.0, 3000.0), 1.0), ((6500.0, 4200.0), 1.0),
                          ((3000.0, 5000.0), 1.0)])

    def test_reference_snr_definitional(self):
        noise = NoiseModel(sigma_sq=2.0)
        scene = self.scene()
        rngs = [np.random.default_rng(i) for i in range(3)]
        scaled = scale_alphas_for_snr(scene, self.WF, noise, 7.0,
                                      [1.0, 0.65, 0.5], rngs)
        snr = 10 ** 0.7
        energies = reference_energies(self.WF, scene.layout, noise,
                                      scene.targets[0].position)
        got = np.abs(scaled.targets[0].per_path_alpha) ** 2 * energies
        assert np.allclose(got, snr, rtol=1e-12)

    def test_proportions(self):
        # relative square modulus 1 : 0.65 : 0.5
        scene = self.scene()
        rngs = [np.random.default_rng(i) for i in range(3)]
        scaled = scale_alphas_for_snr(scene, self.WF, NoiseModel(1.0), 0.0,
                                      [1.0, 0.65, 0.5], rngs)
        a = [t.per_path_alpha for t in scaled.targets]
        assert np.allclose(np.abs(a[1]) ** 2 / np.abs(a[0]) ** 2, 0.65)
        assert np.allclose(np.abs(a[2]) ** 2 / np.abs(a[0]) ** 2, 0.5)

    def test_phases_uniform_and_per_path(self):
        scene = self.scene()
        rngs = [np.random.default_rng(i) for i in range(3)]
        scaled = scale_alphas_for_snr(scene, self.WF, NoiseModel(1.0), 0.0,
                                      [1.0, 1.0, 1.0], rngs)
        phases = np.angle(scaled.targets[0].per_path_alpha)
        assert len(np.unique(phases)) == phases.size  # distinct per path

    def test_external_reference(self):
        # a single-target subset keeps its full-scene strength
        scene = self.scene()
        rngs = [np.random.default_rng(i) for i in range(3)]
        full = scale_alphas_for_snr(scene, self.WF, NoiseModel(1.0), 5.0,
                                    [1.0, 0.65, 0.5], rngs)
        sub = toy_scene([((6500.0, 4200.0), 1.0)])
        ref = scene.targets[0].position
        alone = scale_alphas_for_snr(sub, self.WF, NoiseModel(1.0), 5.0,
                                     [0.65], [np.random.default_rng(1)],
                                     ref_position=ref, ref_proportion=1.0)
        assert np.allclose(np.abs(alone.targets[0].per_path_alpha),
                           np.abs(full.targets[1].per_path_alpha))
