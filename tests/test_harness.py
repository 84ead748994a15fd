import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mimoloc.errors import ConfigError
from mimoloc.estimators import Detection, DetectionReport
from mimoloc.geometry import Position2D
from mimoloc.harness import (METRICS_HEADER, MetricsRecord, RunContext,
                             associate, export_csv, h0_alarm_rate,
                             load_scenario, read_metrics_csv, run_sweep,
                             run_trial, valid_detection)
from mimoloc import cli

from conftest import config_path


MINI = {
    "name": "mini",
    "seed": 77,
    "layout": {"transceivers_km": [[-1.0, -1.0], [13.0, -2.0],
                                   [-2.0, 13.0], [14.0, 14.0]]},
    "region_km": [0.0, 12.0, 0.0, 12.0],
    "grid_cell_m": 200.0,
    "targets": [
        {"x_km": 0.1, "y_km": 1.1, "proportion": 1.0},
        {"x_km": 11.3, "y_km": 1.9, "proportion": 0.7},
    ],
    "waveforms": {"window_s": 1.4e-4, "samples": 8961,
                  "pulse_width_s": 1.0e-6},
    "noise": {"sigma_sq": 1.0},
    "snr_db": [10.0],
    "pfa": 0.1,
    "trials": 3,
    "calibration_trials": 100,
    "g_max": 3,
    "algorithm": "ssr",
    "single_target_benchmark": False,
    "output_dir": "out/mini",
}


CLUTTER = {"sigma_sq": 1.0, "clutter": {"rho": 0.9, "power": 1.0}}


def leaves(node, at=()):
    """Key paths of every scalar in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        return [at]
    return [leaf for key, child in items
            for leaf in leaves(child, at + (key,))]


# a valid config with every kind of field, clutter included
FUZZ_BASE = dict(MINI, noise=CLUTTER, algorithm="sic")
FUZZ_LEAVES = leaves(FUZZ_BASE)
# the edge values as a branch of their own, so that each is drawn often
JSON_EDGES = st.sampled_from([None, True, False, "", 0, 1, -1, 0.5, 1e-300,
                              5e-324, 1e306, -1e306, 1.7976931348623157e308,
                              10 ** 400, -10 ** 400, [], {}])
JSON_VALUES = st.one_of(JSON_EDGES, st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(-10 ** 400, 10 ** 400)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6))


def write_mini(tmp_path, **overrides):
    cfg = json.loads(json.dumps(MINI))
    for key, val in overrides.items():
        cfg[key] = val
    path = tmp_path / "mini.cfg"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def mini_ctx(tmp_path_factory):
    path = write_mini(tmp_path_factory.mktemp("cfg"))
    cfg = load_scenario(path)
    ctx = RunContext(cfg)
    thresholds = ctx.calibrate()
    return cfg, ctx, thresholds


class TestLoadScenario:
    def test_scenario_a_values(self):
        cfg = load_scenario(config_path("scenario_a.cfg"))
        assert cfg.name == "scenario_a"
        assert [(p.x, p.y) for p in cfg.target_positions] == [
            (13500.0, 13500.0), (17000.0, 18000.0), (15000.0, 16000.0)]
        assert cfg.proportions == (1.0, 0.65, 0.5)
        assert cfg.g_max == 5
        assert cfg.layout.n_paths == 25
        assert cfg.pfa == 0.1

    def test_scenario_b_values(self):
        cfg = load_scenario(config_path("scenario_b.cfg"))
        assert (cfg.target_positions[2].x, cfg.target_positions[2].y) == \
            (13360.0, 16480.0)
        assert cfg.algorithm == "sic"

    def test_scenario_c_values(self):
        cfg = load_scenario(config_path("scenario_c.cfg"))
        assert cfg.n_targets == 6
        assert (cfg.target_positions[3].x, cfg.target_positions[3].y) == \
            (14490.0, 16580.0)
        assert cfg.proportions == (0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
        assert cfg.g_max == 6

    def test_unknown_key_rejected(self, tmp_path):
        path = write_mini(tmp_path, frobnicate=1)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(MINI))
        cfg["targets"][0]["speed"] = 3.0
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(str(path))

    def test_missing_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(MINI))
        del cfg["pfa"]
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="pfa"):
            load_scenario(str(path))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text('{\n  "name": "x",\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_scenario(str(path))

    def test_target_outside_region(self, tmp_path):
        path = write_mini(tmp_path, targets=[
            {"x_km": 40.0, "y_km": 2.0, "proportion": 1.0}])
        with pytest.raises(ConfigError, match="outside region"):
            load_scenario(path)

    def test_bad_pfa(self, tmp_path):
        path = write_mini(tmp_path, pfa=1.5)
        with pytest.raises(ConfigError, match="pfa"):
            load_scenario(path)

    def test_bad_algorithm(self, tmp_path):
        path = write_mini(tmp_path, algorithm="magic")
        with pytest.raises(ConfigError, match="algorithm"):
            load_scenario(path)

    def test_grid_must_tile(self, tmp_path):
        path = write_mini(tmp_path, grid_cell_m=700.0)
        with pytest.raises(ConfigError, match="tile"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value", [
        ("trials", "ten"),
        ("trials", 2.5),
        ("g_max", "2.5"),
        ("g_max", 0),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", -1),
        ("grid_cell_m", "big"),
        ("grid_cell_m", -5),
        ("grid_cell_m", 0),
        ("calibration_trials", 50),
        ("calibration_trials", True),
        ("noise", {"sigma_sq": 1.0, "clutter": {"rho": 1.5, "power": 1.0}}),
        ("noise", {"sigma_sq": 1.0, "clutter": {"rho": 0.5, "power": -1.0}}),
        ("noise", {"sigma_sq": 1.0,
                   "clutter": {"rho": float("nan"), "power": 1.0}}),
        ("noise", {"sigma_sq": 1.0, "clutter": {"rho": "x", "power": 1.0}}),
        ("noise", {"sigma_sq": 1.0,
                   "clutter": {"rho": 0.5, "power": float("inf")}}),
        ("noise", {"sigma_sq": 1.0, "clutter": {"rho": 0.5, "power": True}}),
        ("noise", {"sigma_sq": float("nan")}),
        ("noise", {"sigma_sq": float("inf")}),
        ("targets", [{"x_km": 0.1, "y_km": 1.1,
                      "proportion": float("nan")}]),
        ("targets", [{"x_km": "x", "y_km": 1.1, "proportion": 1.0}]),
        ("snr_db", [float("nan")]),
        ("snr_db", "x"),
        ("waveforms", dict(MINI["waveforms"], samples=1793.7)),
        ("waveforms", dict(MINI["waveforms"], samples=1)),
        ("waveforms", dict(MINI["waveforms"], pulse_width_s=-1e-6)),
        ("waveforms", dict(MINI["waveforms"], pulse_width_s=1.0)),
        ("waveforms", dict(MINI["waveforms"], window_s="x")),
        ("pfa", "x"),
        ("region_km", [0.0, "x", 0.0, 12.0]),
        ("region_km", [0.0, 12.0, float("nan"), 12.0]),
        ("layout", {"transceivers_km": [[float("nan"), -1.0], [13.0, -2.0]]}),
        ("targets", 5),
        ("noise", 5),
        ("waveforms", []),
        ("layout", {"transceivers_km": 5}),
        ("targets", [5]),
        ("targets", [[0.1, 1.1, 1.0]]),
        ("layout", 5),
        ("noise", {"sigma_sq": 1.0, "clutter": [0.5, 1.0]}),
        ("single_target_benchmark", "false"),
        ("single_target_benchmark", 0),
        ("name", None),
        ("name", 5),
        ("output_dir", None),
        ("output_dir", 5),
        ("layout", {"transceivers_km": [[-1.0, -1.0], [-1.0, -1.0]]}),
        ("layout", {"transceivers_km": []}),
        ("layout", {"tx_km": [], "rx_km": [[-1.0, -1.0]]}),
        ("layout", {"tx_km": [[0.0, 0.0]],
                    "rx_km": [[1.0, 1.0], [1.0, 1.0]]}),
        # the targets' echoes end after the window
        ("waveforms", dict(MINI["waveforms"], window_s=5e-5, samples=3201)),
        # four pulses need more bandwidth than 40 samples give
        ("waveforms", dict(MINI["waveforms"], samples=40)),
        # finite in km, infinite in metres
        ("targets", [{"x_km": 1e306, "y_km": 1.1, "proportion": 1.0}]),
        ("layout", {"transceivers_km": [[1e306, 0.0], [13.0, -2.0]]}),
        ("region_km", [0.0, 1e306, 0.0, 10.0]),
        # infinitely many cells, or none
        ("grid_cell_m", 5e-324),
        ("grid_cell_m", 1e308),
    ])
    def test_bad_value_fails_at_load(self, tmp_path, key, value):
        path = write_mini(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=key) as exc:
            load_scenario(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("section, value, missing", [
        ("layout", {"tx_km": [[0.0, 0.0]]}, "rx_km"),
        ("waveforms", {"samples": 8961, "pulse_width_s": 1.0e-6},
         "window_s"),
        ("waveforms", {"window_s": 1.4e-4, "pulse_width_s": 1.0e-6},
         "samples"),
        ("noise", {}, "sigma_sq"),
        ("noise", {"sigma_sq": 1.0, "clutter": {"power": 1.0}}, "rho"),
    ])
    def test_missing_section_key_names_the_file(self, tmp_path, section,
                                                value, missing):
        path = write_mini(tmp_path, **{section: value})
        with pytest.raises(ConfigError, match=f"missing required key "
                           f"'{missing}'") as exc:
            load_scenario(path)
        assert str(exc.value).startswith(f"{path}: {section}")

    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(leaf=st.sampled_from(FUZZ_LEAVES), value=JSON_VALUES)
    def test_one_leaf_fuzz_loads_or_config_error(self, tmp_path, leaf, value):
        # a valid sample count allocates the waveform set at load, so
        # counts above 10^5 are left out (10^12 raises MemoryError)
        assume(leaf[-1] != "samples" or isinstance(value, bool)
               or not isinstance(value, (int, float)) or value <= 1e5)
        cfg = json.loads(json.dumps(FUZZ_BASE))
        node = cfg
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
        path = tmp_path / "fuzz.cfg"
        path.write_text(json.dumps(cfg))
        try:
            load_scenario(str(path))
        except ConfigError:
            pass

    def test_joint_with_clutter_fails_at_load(self, tmp_path):
        path = write_mini(tmp_path, algorithm="joint", noise=CLUTTER)
        with pytest.raises(ConfigError, match="white noise"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.cfg")


class TestValidDetection:
    def test_inside_both_dimensions(self):
        assert valid_detection(Position2D(1150.0, 1190.0),
                               Position2D(1000.0, 1000.0))

    def test_x_exceeds(self):
        assert not valid_detection(Position2D(1250.0, 1000.0),
                                   Position2D(1000.0, 1000.0))

    def test_exact_match(self):
        assert valid_detection(Position2D(0.0, 0.0), Position2D(0.0, 0.0))


def report_at(points):
    report = DetectionReport(algorithm="ssr")
    for i, (x, y) in enumerate(points, start=1):
        report.detections.append(Detection(
            iteration=i, cell=0, location=Position2D(x, y), value=1.0,
            threshold=0.0))
    return report


class TestAssociate:
    def test_single_match(self):
        out = associate(report_at([(100.0, 100.0)]),
                        [Position2D(50.0, 60.0)])
        assert out == [0]

    def test_second_detection_unmatched(self):
        out = associate(report_at([(100.0, 100.0), (110.0, 90.0)]),
                        [Position2D(50.0, 60.0)])
        assert out == [0, None]

    def test_equidistant_claims_lower_index(self):
        truths = [Position2D(0.0, 0.0), Position2D(100.0, 0.0)]
        out = associate(report_at([(50.0, 0.0)]), truths)
        assert out == [0]

    def test_far_detection_is_false_declaration(self):
        out = associate(report_at([(900.0, 900.0)]),
                        [Position2D(0.0, 0.0)])
        assert out == [None]


class TestRunTrial:
    def test_high_snr_all_valid(self, mini_ctx):
        cfg, ctx, thr = mini_ctx
        report, assignment, _ = run_trial(ctx, 30.0, 0, thr)
        assert sorted(a for a in assignment if a is not None) == [0, 1]

    def test_determinism(self, mini_ctx):
        cfg, ctx, thr = mini_ctx
        a, _, _ = run_trial(ctx, 10.0, 3, thr)
        b, _, _ = run_trial(ctx, 10.0, 3, thr)
        assert a.to_text() == b.to_text()

    @pytest.mark.parametrize("noise", ["white", "clutter"])
    def test_threaded_observations_bytes(self, noise, mini_ctx, monkeypatch,
                                         tmp_path):
        # the mini window (8961 samples) is serial by default; on worker
        # threads every path's noise and echoes keep their bytes, drawn
        # into its row or, under clutter, synthesized, whitened and copied
        # into the one shared matrix
        from mimoloc import likelihood
        from mimoloc.harness import trial_observations
        cfg, ctx, thr = mini_ctx
        if noise == "clutter":
            ctx = RunContext(load_scenario(write_mini(
                tmp_path, noise=CLUTTER, algorithm="sic")))
            assert not ctx.noise.is_white
        serial, _ = trial_observations(ctx, 10.0, 4)
        monkeypatch.setattr(likelihood, "THREAD_MIN_SAMPLES", 0)
        monkeypatch.setattr(likelihood, "_FFT_WORKERS", 3)
        threaded, _ = trial_observations(ctx, 10.0, 4)
        assert cfg.n_targets == 2
        assert threaded.shape == (ctx.layout.n_paths, ctx.cache.nfft)
        assert serial.tobytes() == threaded.tobytes()

    def test_benchmark_subset_pairs_with_full_run(self, mini_ctx):
        # the single-target run sees exactly the alpha the target had in
        # the full scene (same phase stream, same reference) and the same
        # noise: on every path, full - solo - other is minus the trial's
        # noise-only segments, to rounding
        from mimoloc.estimators import trial_segments
        from mimoloc.geometry import Scene
        from mimoloc.harness import trial_observations
        from mimoloc.streams import TAG_NOISE
        cfg, ctx, thr = mini_ctx
        full, _ = trial_observations(ctx, 10.0, 5)
        solo, _ = trial_observations(ctx, 10.0, 5, target_indices=[1])
        other, _ = trial_observations(ctx, 10.0, 5, target_indices=[0])
        empty = Scene(layout=ctx.layout, targets=(), region=cfg.region)
        noise = trial_segments(ctx.cache, empty, cfg.seed, TAG_NOISE, 5)
        residual = full - solo - other + noise
        assert np.abs(solo - noise).max() > 0.1
        assert np.abs(other - noise).max() > 0.1
        assert np.abs(residual).max() <= 1e-12 * np.abs(full).max()

    @pytest.mark.parametrize("algorithm", ["ssr", "sic", "joint"])
    def test_white_trials_synthesize_no_window(self, algorithm, mini_ctx,
                                               monkeypatch, tmp_path):
        # white signal trials draw their segments; no path is synthesized
        # or whitened over the whole window
        from mimoloc import estimators, signal

        def refuse(*args, **kwargs):
            raise AssertionError("a white trial synthesized a window")
        for module in (signal, estimators):
            monkeypatch.setattr(module, "synthesize_observation", refuse)
            monkeypatch.setattr(module, "whiten", refuse)
        cfg, ctx, thr = mini_ctx
        if algorithm == "joint":
            # 144 cells: the pairs stay inside the tuple budget
            ctx = RunContext(load_scenario(write_mini(
                tmp_path, grid_cell_m=1000.0, algorithm="joint")))
        report, assignment, _ = run_trial(ctx, 30.0, 0, thr,
                                          algorithm=algorithm)
        assert report.algorithm == algorithm
        if algorithm != "joint":     # the coarse cells miss the targets
            assert sorted(a for a in assignment if a is not None) == [0, 1]

    def test_joint_algorithm_guard(self, mini_ctx):
        cfg, ctx, thr = mini_ctx
        with pytest.raises(ValueError):
            run_trial(ctx, 10.0, 0, thr, algorithm="joint")

    @pytest.mark.parametrize("algorithm", ["magic", "SSR", "ssr-single"])
    def test_unknown_algorithm_refused_before_draw(self, algorithm, mini_ctx,
                                                   monkeypatch):
        # refused by name before the trial is drawn: no other name reaches
        # SIC
        from mimoloc import harness

        def never(*args, **kwargs):
            raise AssertionError("a trial was drawn for an unknown algorithm")
        monkeypatch.setattr(harness, "trial_observations", never)
        monkeypatch.setattr(harness, "trial_segments", never)
        cfg, ctx, thr = mini_ctx
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_trial(ctx, 10.0, 0, thr, algorithm=algorithm)


class TestClutter:
    def test_sic_finds_both_targets(self, mini_ctx, tmp_path):
        # the GLRT has the white field's H0 law, so the white threshold
        # applies
        _, _, thr = mini_ctx
        ctx = RunContext(load_scenario(write_mini(
            tmp_path, noise=CLUTTER, algorithm="sic")))
        assert not ctx.noise.is_white
        for trial in range(3):
            report, assignment, _ = run_trial(ctx, 20.0, trial, thr)
            assert sorted(a for a in assignment if a is not None) == [0, 1]

    def test_scenario_b_scale_without_dense_algebra(self, tmp_path):
        # scenario_b geometry (N = 39 681, 25 paths, 10 000 cells) under
        # AR(1) clutter: set-up and one SIC trial in seconds, without
        # importing a dense solver
        raw = json.loads(open(config_path("scenario_b.cfg")).read())
        raw["noise"] = CLUTTER
        path = tmp_path / "clutter_b.cfg"
        path.write_text(json.dumps(raw))
        script = (
            "import json, sys, time\n"
            "from mimoloc.estimators import ThresholdConfig\n"
            "from mimoloc.harness import (RunContext, load_scenario,\n"
            "                             run_trial)\n"
            "t0 = time.perf_counter()\n"
            f"ctx = RunContext(load_scenario({str(path)!r}))\n"
            "thr = ThresholdConfig(lambda_prime=30.0, pfa=0.1)\n"
            "report, assignment, _ = run_trial(ctx, 15.0, 0, thr)\n"
            "print(json.dumps({'seconds': time.perf_counter() - t0,\n"
            "    'found': [a for a in assignment if a is not None],\n"
            "    'dense': sorted(m for m in sys.modules if m.startswith(\n"
            "        ('scipy.linalg', 'scipy.signal')))}))\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert out["dense"] == []
        assert 0 in out["found"]
        assert out["seconds"] < 30.0


class TestTrialCounts:
    @pytest.mark.parametrize("trials", [0, -3, 2.5, "2"])
    def test_sweep_rejects_bad_count(self, mini_ctx, tmp_path, trials):
        cfg, ctx, thr = mini_ctx
        with pytest.raises(ConfigError, match="trials"):
            run_sweep(cfg, out_dir=str(tmp_path / "out"), thresholds=thr,
                      trials=trials, ctx=ctx)
        assert not (tmp_path / "out").exists()

    def test_sweep_default_and_explicit_count(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        default = run_sweep(cfg, out_dir=str(tmp_path / "a"), thresholds=thr,
                            ctx=ctx)
        assert {r.trials for r in default} == {cfg.trials}
        one = run_sweep(cfg, out_dir=str(tmp_path / "b"), thresholds=thr,
                        trials=1, ctx=ctx)
        assert {r.trials for r in one} == {1}

    @pytest.mark.parametrize("trials", [0, -3, 99, 150.5])
    def test_calibrate_rejects_bad_count(self, mini_ctx, trials):
        _, ctx, _ = mini_ctx
        with pytest.raises(ConfigError, match="calibration trials"):
            ctx.calibrate(trials)

    def test_calibrate_default_count(self, mini_ctx):
        cfg, ctx, thr = mini_ctx
        assert thr.trials == cfg.calibration_trials


class TestSweep:
    def test_metrics_and_determinism(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        rec1 = run_sweep(cfg, out_dir=str(out1), thresholds=thr, ctx=ctx)
        rec2 = run_sweep(cfg, out_dir=str(out2), thresholds=thr, ctx=ctx)
        assert rec1 == rec2
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()
        got = read_metrics_csv(out1 / "metrics.csv")
        assert got == rec1
        targets = {r.target for r in rec1}
        assert targets == {1, 2}

    def test_resume_by_trial_index(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        out = tmp_path / "resume"
        run_sweep(cfg, out_dir=str(out), thresholds=thr, trials=2, ctx=ctx)
        partial = (out / "trial_records.csv").read_text()
        rec_resumed = run_sweep(cfg, out_dir=str(out), thresholds=thr,
                                trials=3, ctx=ctx)
        fresh = tmp_path / "fresh"
        rec_fresh = run_sweep(cfg, out_dir=str(fresh), thresholds=thr,
                              trials=3, ctx=ctx)
        assert rec_resumed == rec_fresh
        # the first two trials were reused, not recomputed
        resumed_text = (out / "trial_records.csv").read_text()
        assert resumed_text.startswith(partial)
        assert (out / "metrics.csv").read_bytes() == \
            (fresh / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("cut", ["torn_line", "newline", "partial_trial"])
    def test_resume_repairs_interrupted_file(self, mini_ctx, tmp_path, cut):
        # an interrupted append leaves a torn last line (cut inside it or
        # just before its newline) or a trial with only some of its target
        # rows; resuming re-runs that trial, so both files end byte-equal
        # to an uninterrupted sweep
        cfg, ctx, thr = mini_ctx
        fresh, out = tmp_path / "fresh", tmp_path / "resumed"
        run_sweep(cfg, "sic", out_dir=str(fresh), thresholds=thr, trials=3,
                  ctx=ctx)
        full = (fresh / "trial_records.csv").read_bytes()
        last = full.rstrip(b"\n").rsplit(b"\n", 1)[1]
        assert last.startswith(b"sic,10.0,2,2,")
        drop = {"torn_line": len(last) // 2, "newline": 1,
                "partial_trial": len(last) + 1}[cut]
        out.mkdir()
        (out / "trial_records.csv").write_bytes(full[:-drop])
        run_sweep(cfg, "sic", out_dir=str(out), thresholds=thr, trials=3,
                  ctx=ctx)
        for name in ("trial_records.csv", "metrics.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_resume_after_torn_header(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        fresh, out = tmp_path / "fresh", tmp_path / "resumed"
        run_sweep(cfg, out_dir=str(fresh), thresholds=thr, trials=1, ctx=ctx)
        out.mkdir()
        (out / "trial_records.csv").write_text("algorithm,snr")
        run_sweep(cfg, out_dir=str(out), thresholds=thr, trials=1, ctx=ctx)
        for name in ("trial_records.csv", "metrics.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_single_target_benchmark_rows(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        from dataclasses import replace
        cfg2 = replace(cfg, single_target_benchmark=True)
        rec = run_sweep(cfg2, out_dir=str(tmp_path / "bench"),
                        thresholds=thr, trials=2, ctx=ctx)
        algos = {r.algorithm for r in rec}
        assert algos == {"ssr", "ssr-single"}
        single = [r for r in rec if r.algorithm == "ssr-single"]
        assert {r.target for r in single} == {1, 2}

    def test_pd_monotone_in_snr(self, mini_ctx, tmp_path):
        cfg, ctx, thr = mini_ctx
        pds = []
        for snr in (-12.0, 2.0, 16.0):
            valid = 0
            for t in range(20):
                _, assignment, _ = run_trial(ctx, snr, t, thr)
                valid += sum(a is not None for a in assignment)
            pds.append(valid / (20 * cfg.n_targets))
        assert pds[1] >= pds[0] - 0.1
        assert pds[2] >= pds[1] - 0.1
        assert pds[2] > pds[0]

    def test_h0_alarm_rate_near_pfa(self, mini_ctx):
        cfg, ctx, thr = mini_ctx
        rate = h0_alarm_rate(ctx, thr, 150)
        assert abs(rate - cfg.pfa) <= 0.09


class TestExportCsv:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "m.csv"
        export_csv([], path)
        assert path.read_text() == METRICS_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        rec = MetricsRecord(algorithm="sic", snr_db=10.0, target=1, pd=0.5,
                            rmse_x=12.5, rmse_y=30.0, g_hat_mean=1.5,
                            trials=10)
        export_csv([rec], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == METRICS_HEADER

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = [MetricsRecord("ssr", 5.0, 1, 0.925, 38.124, 41.0, 2.05, 200),
                MetricsRecord("ssr", 5.0, 2, float("nan") and 0.0, 1e-3,
                              float("inf") and 9.9, 0.0, 0),
                MetricsRecord("sic", -5.0, 1, 0.0, float("nan"),
                              float("nan"), 0.0, 7)]
        export_csv(recs, path)
        got = read_metrics_csv(path)
        for a, b in zip(got, recs):
            assert a.algorithm == b.algorithm
            assert a.snr_db == b.snr_db and a.target == b.target
            assert a.pd == b.pd and a.trials == b.trials
            for x, y in ((a.rmse_x, b.rmse_x), (a.rmse_y, b.rmse_y)):
                assert (np.isnan(x) and np.isnan(y)) or x == y


class TestCli:
    def test_calibrate_writes_thresholds(self, tmp_path, capsys):
        path = write_mini(tmp_path)
        out_file = tmp_path / "thr.json"
        code = cli.main(["calibrate", path, "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["lambda_prime"] > 0
        assert data["pfa"] == 0.1

    def test_run_prints_report(self, tmp_path, capsys):
        path = write_mini(tmp_path)
        out_file = tmp_path / "thr.json"
        assert cli.main(["calibrate", path, "--out", str(out_file)]) == 0
        capsys.readouterr()
        code = cli.main(["run", path, "--snr", "20", "--trial", "0",
                         "--thresholds", str(out_file)])
        assert code == 0
        text = capsys.readouterr().out
        assert "# algorithm: ssr" in text
        assert "iteration,x_m,y_m,objective,threshold" in text

    def test_sweep_writes_metrics(self, tmp_path, capsys):
        path = write_mini(tmp_path, trials=2)
        out_dir = tmp_path / "sweep_out"
        code = cli.main(["sweep", path, "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3  # header + 2 targets at one SNR

    def test_gridmap_outputs(self, tmp_path, capsys):
        path = write_mini(tmp_path)
        out_dir = tmp_path / "maps"
        code = cli.main(["gridmap", path, "--snr", "10", "--trial", "0",
                         "--after-cancel", "1", "--out", str(out_dir)])
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith(".bin") for f in files)
        bin_file = next(f for f in files if f.endswith(".bin"))
        raw = (out_dir / bin_file).read_bytes()
        assert raw[:8] == b"MIMOGRD1"

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["sweep", "/nonexistent.cfg"]) == 1

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--seed", "-1"],
        ["run", "--snr", "10", "--trial", "0", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["sweep", "--trials", "0"],
        ["sweep", "--trials", "-3"],
        ["run", "--snr", "10", "--trial", "-1"],
        ["gridmap", "--snr", "10", "--trial", "-2"],
        ["gridmap", "--snr", "10", "--trial", "0", "--after-cancel", "-3"],
        ["run", "--snr", "nan", "--trial", "0"],
    ])
    def test_bad_override_fails_at_load(self, tmp_path, capsys, monkeypatch,
                                        argv):
        # --seed/--trials pass the config's own checks, --snr must be
        # finite, --trial and --after-cancel >= 0: exit 1, nothing written
        path = write_mini(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli.main([argv[0], path] + argv[1:]) == 1
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mini.cfg"]

    @pytest.mark.parametrize("argv", [
        ["run", "--snr", "10", "--trial", "0", "--algo", "joint"],
        ["sweep", "--algo", "joint"],
    ])
    def test_joint_on_clutter_fails_at_load(self, tmp_path, capsys,
                                            monkeypatch, argv):
        path = write_mini(tmp_path, noise=CLUTTER)
        monkeypatch.chdir(tmp_path)
        assert cli.main([argv[0], path] + argv[1:]) == 1
        assert "white noise" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mini.cfg"]

    def test_trials_override_sets_trial_count(self, tmp_path, capsys):
        path = write_mini(tmp_path, trials=3)
        out_dir = tmp_path / "sweep_out"
        assert cli.main(["sweep", path, "--trials", "1",
                         "--out", str(out_dir)]) == 0
        assert {r.trials for r in read_metrics_csv(out_dir / "metrics.csv")} \
            == {1}

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        path = write_mini(tmp_path)
        # a joint search over the mini grid's 3600 cells exceeds the tuple
        # budget once the run has started
        assert cli.main(["run", path, "--snr", "10", "--trial", "0",
                         "--algo", "joint"]) == 2
        assert "budget" in capsys.readouterr().err
