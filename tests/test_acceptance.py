"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The shipped scenario
configurations and their seeds make every number here reproducible
bit-for-bit.
"""
import time

import numpy as np
import pytest

from mimoloc import cli
from mimoloc.errors import CoincidentDelayError
from mimoloc.estimators import (EstimatorConfig, ThresholdConfig,
                                calibrate_threshold, joint_search,
                                sic_run, ssr_run)
from mimoloc.geometry import Position2D, Scene, TargetTruth
from mimoloc.harness import (RunContext, h0_alarm_rate, load_scenario,
                             run_trial)
from mimoloc.likelihood import (GramMatrix, alpha_mle_joint, gram_matrix,
                                objective_field)
from mimoloc.signal import (NoiseModel, PathObservation, build_waveform_set,
                            delayed_replica, synthesize_observation, whiten,
                            whitening_matrix)

from conftest import SmallSetup, config_path


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- shared expensive contexts ---------------------------------------------

@pytest.fixture(scope="module")
def scen_a():
    cfg = load_scenario(config_path("scenario_a.cfg"))
    ctx = RunContext(cfg)
    t0 = time.perf_counter()
    thresholds = ctx.calibrate()
    return cfg, ctx, thresholds, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scen_b():
    cfg = load_scenario(config_path("scenario_b.cfg"))
    ctx = RunContext(cfg)
    return cfg, ctx, ctx.calibrate()


@pytest.fixture(scope="module")
def scen_c():
    cfg = load_scenario(config_path("scenario_c.cfg"))
    ctx = RunContext(cfg)
    return cfg, ctx, ctx.calibrate()


def pd_counts(ctx, thresholds, snr_db, trials, algorithm,
              target_indices=None, collect_errors=False):
    cfg = ctx.cfg
    indices = target_indices or list(range(cfg.n_targets))
    valid = {g: 0 for g in indices}
    errors = {g: [] for g in indices}
    for t in range(trials):
        report_, assignment, idx = run_trial(ctx, snr_db, t, thresholds,
                                             algorithm=algorithm,
                                             target_indices=target_indices)
        for det, a in zip(report_.detections, assignment):
            if a is None:
                continue
            g = idx[a]
            valid[g] += 1
            if collect_errors:
                errors[g].append(
                    (det.location.x - cfg.target_positions[g].x,
                     det.location.y - cfg.target_positions[g].y))
    pd = {g: valid[g] / trials for g in indices}
    return (pd, errors) if collect_errors else pd


@pytest.fixture(scope="module")
def scen_a_ssr(scen_a):
    """SSR Pd on the full scenario_a scene at 5 and 10 dB, 200 trials."""
    cfg, ctx, thresholds, _ = scen_a
    t0 = time.perf_counter()
    out = {snr: pd_counts(ctx, thresholds, snr, 200, "ssr")
           for snr in (5.0, 10.0)}
    return out, time.perf_counter() - t0


class TestCriterion1:
    def test_isolated_scene_detection(self, scen_a, scen_a_ssr):
        cfg, ctx, thresholds, cal_seconds = scen_a
        results, sweep_seconds = scen_a_ssr
        pd10 = results[10.0]
        # the 10 dB half of the sweep is roughly half its runtime
        runtime = cal_seconds + sweep_seconds / 2
        ok = all(pd10[g] >= 0.95 for g in pd10) and runtime <= 600.0
        report(1, "isolated-scene detection",
               ok, f"Pd@10dB={[round(pd10[g], 3) for g in sorted(pd10)]}, "
                   f"runtime={runtime:.0f}s (limit 600s)")


class TestCriterion2:
    def test_single_target_benchmark_match(self, scen_a, scen_a_ssr):
        cfg, ctx, thresholds, _ = scen_a
        multi, _ = scen_a_ssr
        worst = 0.0
        detail = []
        for snr in (5.0, 10.0):
            for g in range(cfg.n_targets):
                single = pd_counts(ctx, thresholds, snr, 200, "ssr",
                                   target_indices=[g])
                diff = abs(multi[snr][g] - single[g])
                worst = max(worst, diff)
                detail.append(f"t{g + 1}@{snr:g}dB:{diff:.3f}")
        report(2, "single-target benchmark match", worst <= 0.05,
               f"max |dPd|={worst:.3f} [{', '.join(detail)}]")


class TestCriterion3:
    def test_ssr_failure_sic_rescue(self, scen_b):
        cfg, ctx, thresholds = scen_b
        pd_ssr = pd_counts(ctx, thresholds, 10.0, 200, "ssr")
        pd_sic = pd_counts(ctx, thresholds, 10.0, 200, "sic")
        gain = pd_sic[2] - pd_ssr[2]
        ok = gain >= 0.2 and pd_sic[2] >= 0.9
        report(3, "SSR failure / SIC rescue", ok,
               f"Pd(SIC,t3)={pd_sic[2]:.3f}, Pd(SSR,t3)={pd_ssr[2]:.3f}, "
               f"gain={gain:.3f}")


class TestCriterion4:
    def test_six_target_sic_accuracy(self, scen_c):
        cfg, ctx, thresholds = scen_c
        pd, errors = pd_counts(ctx, thresholds, 10.0, 100, "sic",
                               collect_errors=True)
        rmse = {}
        for g, errs in errors.items():
            e = np.asarray(errs)
            rmse[g] = (float(np.sqrt(np.mean(e[:, 0] ** 2))),
                       float(np.sqrt(np.mean(e[:, 1] ** 2))))
        ok = (all(pd[g] >= 0.9 for g in pd)
              and all(max(rmse[g]) <= 150.0 for g in rmse))
        # grid quantization bounds the error from below: per dimension the
        # RMSE cannot beat the truth's offset from the nearest cell centre
        grid = ctx.grid
        floor_ok = True
        for g in pd:
            truth = cfg.target_positions[g]
            near = grid.cell_center(grid.nearest_cell(truth))
            for dim, off in enumerate((abs(truth.x - near.x),
                                       abs(truth.y - near.y))):
                if rmse[g][dim] < off - 1e-6:
                    floor_ok = False
        report(4, "six-target SIC accuracy", ok and floor_ok,
               f"Pd={[round(pd[g], 2) for g in sorted(pd)]}, "
               f"maxRMSE={max(max(v) for v in rmse.values()):.1f}m, "
               f"quantization floor respected={floor_ok}")


class TestCriterion5:
    def test_sic_accumulated_dominates_ssr(self):
        setup = SmallSetup()
        zero_thr = ThresholdConfig(lambda_prime=0.0, pfa=0.1)
        rng = np.random.default_rng(55)
        wins, isolated_count, mixed_count = 0, 0, 0
        from mimoloc.geometry import classify_scene, COMPLETELY_ISOLATED
        for trial in range(100):
            g = int(rng.integers(2, 4))
            pts = []
            base = rng.uniform(2000.0, 10000.0, 2)
            close = trial % 2 == 0
            for i in range(g):
                if close and i > 0:
                    pts.append(tuple(np.clip(
                        base + rng.uniform(-400, 400, 2), 300.0, 11700.0)))
                else:
                    pts.append(tuple(rng.uniform(500.0, 11500.0, 2)))
            scene = setup.scene(pts)
            if classify_scene(scene, setup.waveforms.tau_c).scene_class \
                    == COMPLETELY_ISOLATED:
                isolated_count += 1
            else:
                mixed_count += 1
            quiet = NoiseModel(sigma_sq=1e-300)
            rng2 = np.random.default_rng(1000 + trial)
            obs = []
            for p in range(setup.layout.n_paths):
                raw = synthesize_observation(scene, setup.waveforms, quiet,
                                             p, rng2)
                r = raw.r + 1e-6 * (
                    rng2.standard_normal(len(raw.r))
                    + 1j * rng2.standard_normal(len(raw.r)))
                obs.append(PathObservation(path=p, r=r, whitened=True))
            make = lambda: objective_field(obs, setup.cache)
            est = EstimatorConfig(g_max=g, early_stop=False)
            acc_ssr = ssr_run(make(), zero_thr, est).accumulated_objective
            acc_sic = sic_run(make(), zero_thr, est).accumulated_objective
            if acc_sic >= acc_ssr - 1e-9 * abs(acc_ssr):
                wins += 1
        ok = wins == 100 and isolated_count > 0 and mixed_count > 0
        report(5, "SIC upper-bounds SSR objective", ok,
               f"{wins}/100 scenes ({isolated_count} isolated, "
               f"{mixed_count} with shared bins)")


# --- criterion 6 setup: 12x12 grid, two transceivers ------------------------

def cell_observations(setup, cells, snr_db=None, seed=0):
    """Whitened observations of unit targets at the given cells; noise-free
    when snr_db is None."""
    targets = tuple(TargetTruth(setup.grid.cell_center(c), amplitude_sq=1.0)
                    for c in cells)
    scene = Scene(setup.layout, targets, setup.region)
    if snr_db is None:
        quiet = NoiseModel(sigma_sq=1e-300)
        rng = np.random.default_rng(seed)
        return [PathObservation(
                    path=p,
                    r=synthesize_observation(scene, setup.waveforms, quiet,
                                             p, rng).r,
                    whitened=True)
                for p in range(setup.layout.n_paths)]
    from mimoloc.signal import scale_alphas_for_snr
    rng = np.random.default_rng(seed)
    scene = scale_alphas_for_snr(
        scene, setup.waveforms, setup.noise, snr_db, [1.0] * len(cells),
        [np.random.default_rng(seed * 97 + g) for g in range(len(cells))])
    return [whiten(synthesize_observation(scene, setup.waveforms,
                                          setup.noise, p, rng), setup.noise)
            for p in range(setup.layout.n_paths)]


class TestCriterion6:
    def run_all_three(self, setup, obs, thresholds, joint_lam):
        fld1 = objective_field(obs, setup.cache)
        fld2 = objective_field(obs, setup.cache)
        est = EstimatorConfig(g_max=2)
        rep_j = joint_search(obs, setup.cache, 2, joint_lam)
        rep_s = ssr_run(fld1, thresholds, est)
        rep_c = sic_run(fld2, thresholds, est)
        return rep_j, rep_s, rep_c

    def test_oracle_equivalence(self, two_antenna):
        setup = two_antenna
        pairs = setup.isolated_pairs(min_gap=2)
        assert len(pairs) >= 20
        rng = np.random.default_rng(66)
        tiny = ThresholdConfig(lambda_prime=1e-9, pfa=0.1)

        exact = 0
        for i in range(50):
            pair = pairs[int(rng.integers(len(pairs)))]
            obs = cell_observations(setup, pair, seed=300 + i)
            rep_j, rep_s, rep_c = self.run_all_three(setup, obs, tiny, 0.0)
            sets = [frozenset(d.cell for d in r.detections)
                    for r in (rep_j, rep_s, rep_c)]
            if sets[0] == sets[1] == sets[2] == frozenset(pair):
                exact += 1
        noise_free_ok = exact == 50

        thresholds = calibrate_threshold(
            setup.waveforms, setup.layout, setup.grid, setup.noise,
            0.1, 200, 606, cache=setup.cache)
        agree = 0
        cell = setup.grid.cell
        for i in range(100):
            pair = pairs[int(rng.integers(len(pairs)))]
            obs = cell_observations(setup, pair, snr_db=15.0, seed=800 + i)
            rep_j, rep_s, rep_c = self.run_all_three(
                setup, obs, thresholds, thresholds.lambda_prime)
            if not (rep_j.g_hat == rep_s.g_hat == rep_c.g_hat == 2):
                continue
            ref = [(d.location.x, d.location.y) for d in rep_j.detections]

            def within_one_cell(rep):
                locs = [(d.location.x, d.location.y) for d in rep.detections]
                for perm in (locs, locs[::-1]):
                    if all(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                           <= cell + 1e-9 for a, b in zip(ref, perm)):
                        return True
                return False

            if within_one_cell(rep_s) and within_one_cell(rep_c):
                agree += 1
        noisy_ok = agree >= 90
        report(6, "oracle equivalence of the three algorithms",
               noise_free_ok and noisy_ok,
               f"noise-free {exact}/50 exact, 15dB {agree}/100 within one "
               f"cell")


class TestCriterion7:
    def test_normal_equation_residual(self):
        ts = 1e-8
        n_t = 64
        wf = build_waveform_set(1, ts * (n_t - 1), n_t, 1e-7)  # P = 10
        rng = np.random.default_rng(777)
        max_tau = wf.T - wf.tau_c
        checked = errors_declared = 0
        for i in range(1000):
            g = int(rng.integers(1, 4))
            while True:
                taus = np.sort(rng.uniform(0.0, max_tau, g))
                gaps = np.diff(taus) / ts
                if g == 1 or np.all((gaps < 0.98) | (gaps > 1.02)):
                    break
            if g >= 2 and rng.random() < 0.25:
                # force a sub-sample collision
                taus[1] = taus[0] + rng.uniform(0.0, 0.9) * ts
                taus = np.sort(taus)
            reps = np.stack([delayed_replica(wf, 0, t) for t in taus],
                            axis=1)
            values = reps.conj().T @ reps
            gram = GramMatrix(values=values,
                              condition=float(np.linalg.cond(values)),
                              delays=tuple(taus), sample_interval=ts)
            r = rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t)
            cross = reps.conj().T @ r
            coincident = g >= 2 and np.min(np.diff(taus)) < ts
            try:
                alpha = alpha_mle_joint(gram, cross)
            except CoincidentDelayError:
                errors_declared += 1
                assert coincident, \
                    f"instance {i}: spurious coincident-delay error"
                continue
            assert not coincident, \
                f"instance {i}: sub-sample pair not declared"
            res = np.linalg.norm(values @ alpha - cross) \
                / np.linalg.norm(cross)
            assert res <= 1e-8, f"instance {i}: residual {res}"
            checked += 1
        report(7, "normal-equation residual",
               checked + errors_declared == 1000,
               f"{checked} solves within 1e-8, {errors_declared} declared "
               f"coincident")


class TestCriterion8:
    def test_calibration_accuracy(self, scen_a):
        cfg, ctx, thresholds, _ = scen_a
        rate = h0_alarm_rate(ctx, thresholds, 1000)
        rate_ok = abs(rate - cfg.pfa) <= 0.03

        # noise plus AR(1) clutter as synthesis draws it, whitened by the
        # dense oracle R^-1/2: sample covariance ~ identity
        n = 16
        noise = NoiseModel(sigma_sq=1.0, clutter=(0.6, 1.5))
        w = whitening_matrix(noise, n)
        rng = np.random.default_rng(88)
        draws = 100_000
        cov = np.zeros((n, n), dtype=complex)
        for _ in range(10):
            s = noise.sample(n, 0, rng, size=(draws // 10,)) @ w.T
            cov += s.conj().T @ s
        cov /= draws
        cov_err = np.linalg.norm(cov - np.eye(n)) / np.linalg.norm(np.eye(n))
        cov_ok = cov_err <= 0.05
        report(8, "calibration accuracy", rate_ok and cov_ok,
               f"H0 alarm rate {rate:.3f} (target 0.1 +/- 0.03), whitened "
               f"covariance error {cov_err:.3f} (limit 0.05)")


class TestCriterion9:
    def test_singularity_handling(self, two_antenna):
        setup = two_antenna
        # two locations mirrored across the monostatic path's antenna:
        # equal delays on path 0
        ant = setup.layout.tx[0]
        t1 = Position2D(ant.x + 6000.0, ant.y + 8000.0)
        t2 = Position2D(ant.x + 8000.0, ant.y + 6000.0)
        gram = gram_matrix([t1, t2], 0, setup.waveforms, setup.layout)
        rank_deficient = (gram.condition > 1e8
                          and gram.min_gap_samples < 1.0)
        with pytest.raises(CoincidentDelayError):
            alpha_mle_joint(gram, np.ones(2, dtype=complex))
        # the joint search on observations of one of them completes and
        # never declares the singular tuple
        c1 = setup.grid.nearest_cell(t1)
        c2 = setup.grid.nearest_cell(t2)
        obs = cell_observations(setup, [c1], seed=22)
        rep = joint_search(obs, setup.cache, 2, 0.0)
        gap = np.abs(setup.cache.delays[:, c1]
                     - setup.cache.delays[:, c2]).min()
        excluded = (gap >= setup.waveforms.Ts
                    or {d.cell for d in rep.detections} != {c1, c2})
        report(9, "equal-delay singularity handling",
               rank_deficient and excluded,
               f"condition={gram.condition:.2e}, min gap="
               f"{gram.min_gap_samples:.2e} samples, search completed with "
               f"{rep.g_hat} detections")


class TestCriterion10:
    def test_sweep_determinism(self, tmp_path):
        import json as _json
        cfg = {
            "name": "det", "seed": 4242,
            "layout": {"transceivers_km": [[-1.0, -1.0], [13.0, -2.0],
                                           [-2.0, 13.0], [14.0, 14.0]]},
            "region_km": [0.0, 12.0, 0.0, 12.0],
            "grid_cell_m": 200.0,
            "targets": [{"x_km": 0.1, "y_km": 1.1, "proportion": 1.0},
                        {"x_km": 11.3, "y_km": 1.9, "proportion": 0.7}],
            "waveforms": {"window_s": 1.4e-4, "samples": 8961,
                          "pulse_width_s": 1.0e-6},
            "noise": {"sigma_sq": 1.0},
            "snr_db": [0.0, 10.0], "pfa": 0.1, "trials": 5,
            "calibration_trials": 100, "g_max": 3, "algorithm": "sic",
            "single_target_benchmark": False, "output_dir": "unused",
        }
        path = tmp_path / "det.cfg"
        path.write_text(_json.dumps(cfg))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["sweep", str(path), "--out", str(out1)]) == 0
        assert cli.main(["sweep", str(path), "--out", str(out2)]) == 0
        metrics_same = (out1 / "metrics.csv").read_bytes() \
            == (out2 / "metrics.csv").read_bytes()
        trials_same = (out1 / "trial_records.csv").read_bytes() \
            == (out2 / "trial_records.csv").read_bytes()
        report(10, "sweep determinism", metrics_same and trials_same,
               "metrics.csv and trial_records.csv byte-identical")
