"""Scenario configuration, Monte Carlo experiments and metrics.

Scenario files are UTF-8 JSON (conventionally *.cfg).  Schema, all keys
required unless marked optional, unknown keys rejected:

    name                     str, experiment label
    seed                     int >= 0, master seed
    layout.transceivers_km   [[x, y], ...] antennas that both transmit
                             and receive (alternatively layout.tx_km and
                             layout.rx_km as separate lists); nonempty,
                             positions pairwise distinct within a list
    region_km                [xmin, xmax, ymin, ymax] search rectangle
    grid_cell_m              float, cell size in metres; at least one cell
                             each way, tiling the region exactly
    targets                  [{x_km, y_km, proportion}, ...] truth list;
                             proportion is the relative square modulus of
                             the reflection amplitudes; every path's echo
                             (delay + pulse_width_s) must end in window_s
    waveforms                {window_s, samples, pulse_width_s}, with the
                             bandwidth for one orthogonal pulse per tx
    noise                    {sigma_sq} with optional {clutter: {rho, power}},
                             AR(1) clutter power * rho^|i-j|: finite rho
                             with |rho| < 1, finite power > 0; not with
                             algorithm "joint" (white noise only)
    snr_db                   [floats], sweep points
    pfa                      float in (0, 1)
    trials                   int >= 1, Monte Carlo trials per SNR
    calibration_trials       int >= 100 (optional, default 1000)
    g_max                    int >= 1, declared-target cap
    algorithm                "ssr" | "sic" | "joint"
    single_target_benchmark  bool (optional, default false): additionally
                             re-run each target alone with the same seeds
    output_dir               str (optional, default "out")

SNR is the strongest target's per-path post-whitening matched-filter
SNR; per-trial randomness is keyed by (seed, tag, trial, path/target),
so trials are independent of execution order and of the SNR point
(phases and noise pair across the sweep).  A sweep draws each trial
index's noise once and runs every job and SNR point of it on that draw.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimators import (DetectionReport, EstimatorConfig, ThresholdConfig,
                         calibrate_threshold, h0_objective_peaks,
                         joint_search, sic_run, ssr_run, trial_noise,
                         trial_segments)
from .geometry import (AntennaLayout, Grid, Position2D, Rect, Scene,
                       TargetTruth, path_delay)
from .likelihood import ReplicaCache, objective_field
from .signal import (NoiseModel, build_waveform_set, echo_spans,
                     reference_energies, scale_alphas_for_snr)
from .streams import TAG_HOLDOUT, TAG_NOISE, TAG_PHASE, substream

VALID_RADIUS_M = 200.0
ALGORITHMS = ("ssr", "sic", "joint")
METRICS_HEADER = "algorithm,snr_db,target,pd,rmse_x_m,rmse_y_m,g_hat_mean,trials"


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    layout: AntennaLayout
    region: Rect
    grid_cell: float
    target_positions: tuple[Position2D, ...]
    proportions: tuple[float, ...]
    window: float
    n_samples: int
    pulse_width: float
    sigma_sq: float
    clutter: tuple[float, float] | None   # (rho, power) or None
    snr_db: tuple[float, ...]
    pfa: float
    trials: int
    calibration_trials: int
    g_max: int
    algorithm: str
    single_target_benchmark: bool
    output_dir: str

    @property
    def n_targets(self) -> int:
        return len(self.target_positions)


@dataclass(frozen=True)
class MetricsRecord:
    algorithm: str
    snr_db: float
    target: int               # 1-based truth index
    pd: float
    rmse_x: float
    rmse_y: float
    g_hat_mean: float
    trials: int


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed, where: str):
    """mapping must be a JSON object with no keys outside allowed."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object, got {mapping!r}")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def check_int(value, where: str, minimum: int) -> int:
    """A JSON integer (a float with no fractional part passes) of at
    least minimum."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return int(value)


def check_number(value, where: str, positive: bool = False) -> float:
    """A finite JSON number (not a bool); above 0 when positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:             # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number) or (positive and not number > 0.0):
        kind = "a finite positive" if positive else "a finite"
        raise ConfigError(f"{where} must be {kind} number, got {value!r}")
    return number


def _check_km(value, where: str) -> float:
    """A JSON number of kilometres, in metres; finite in metres too."""
    metres = check_number(value, where) * 1e3
    if not math.isfinite(metres):
        raise ConfigError(f"{where} must be a finite distance, got "
                          f"{value!r} km")
    return metres


def check_white_for_joint(algorithm: str, clutter, where: str) -> None:
    """The joint search runs on white noise only."""
    if algorithm == "joint" and clutter is not None:
        raise ConfigError(f"{where}: the joint search needs white noise, "
                          "but the scenario has noise.clutter")


def check_str(value, where: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _positions_km(entries, where: str):
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: expected a list of [x_km, y_km]")
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ConfigError(f"{where}[{i}]: expected [x_km, y_km]")
        out.append(Position2D(*(_check_km(v, f"{where}[{i}]") for v in e)))
    return out


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; all errors raise ConfigError
    with file/field context."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    allowed = {"name", "seed", "layout", "region_km", "grid_cell_m",
               "targets", "waveforms", "noise", "snr_db", "pfa", "trials",
               "calibration_trials", "g_max", "algorithm",
               "single_target_benchmark", "output_dir"}
    _reject_unknown(raw, allowed, path)

    lay = _require(raw, "layout", path)
    _reject_unknown(lay, {"transceivers_km", "tx_km", "rx_km"},
                    f"{path}: layout")
    if "transceivers_km" in lay:
        tx = rx = _positions_km(lay["transceivers_km"],
                                f"{path}: layout.transceivers_km")
    else:
        tx, rx = (_positions_km(_require(lay, key, f"{path}: layout"),
                                f"{path}: layout.{key}")
                  for key in ("tx_km", "rx_km"))
    try:
        layout = AntennaLayout(tx=tuple(tx), rx=tuple(rx))
    except ValueError as exc:        # empty or repeated positions
        raise ConfigError(f"{path}: layout: {exc}") from exc

    reg = _require(raw, "region_km", path)
    if not (isinstance(reg, list) and len(reg) == 4):
        raise ConfigError(f"{path}: region_km must be "
                          "[xmin, xmax, ymin, ymax]")
    xmin, xmax, ymin, ymax = (_check_km(v, f"{path}: region_km")
                              for v in reg)
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError(f"{path}: region_km must have xmin < xmax and "
                          "ymin < ymax")
    region = Rect(xmin, xmax, ymin, ymax)

    targets_raw = _require(raw, "targets", path)
    if not isinstance(targets_raw, list):
        raise ConfigError(f"{path}: targets must be a list of objects")
    targets = []
    proportions = []
    for i, t in enumerate(targets_raw):
        where = f"{path}: targets[{i}]"
        _reject_unknown(t, {"x_km", "y_km", "proportion"}, where)
        p = Position2D(*(_check_km(_require(t, key, where), f"{where}: {key}")
                         for key in ("x_km", "y_km")))
        if not region.contains(p):
            raise ConfigError(f"{where}: target outside region")
        prop = check_number(_require(t, "proportion", where),
                            f"{where}: proportion", positive=True)
        targets.append(p)
        proportions.append(prop)

    wf = _require(raw, "waveforms", path)
    _reject_unknown(wf, {"window_s", "samples", "pulse_width_s"},
                    f"{path}: waveforms")
    window, pulse_width = (
        check_number(_require(wf, key, f"{path}: waveforms"),
                     f"{path}: waveforms.{key}", positive=True)
        for key in ("window_s", "pulse_width_s"))
    if pulse_width > window:
        raise ConfigError(f"{path}: waveforms.pulse_width_s must not exceed "
                          "window_s")
    noise_raw = _require(raw, "noise", path)
    _reject_unknown(noise_raw, {"sigma_sq", "clutter"}, f"{path}: noise")
    clutter = None
    if noise_raw.get("clutter") is not None:
        cl = noise_raw["clutter"]
        _reject_unknown(cl, {"rho", "power"}, f"{path}: noise.clutter")
        rho, power = (check_number(_require(cl, key,
                                            f"{path}: noise.clutter"),
                                   f"{path}: noise.clutter.{key}",
                                   positive=key == "power")
                      for key in ("rho", "power"))
        if not abs(rho) < 1.0:
            raise ConfigError(f"{path}: noise.clutter.rho must have "
                              f"|rho| < 1, got {rho!r}")
        clutter = (rho, power)

    snr = _require(raw, "snr_db", path)
    if not (isinstance(snr, list) and snr):
        raise ConfigError(f"{path}: snr_db must be a nonempty list")
    snr = [check_number(v, f"{path}: snr_db") for v in snr]
    trials = check_int(_require(raw, "trials", path), f"{path}: trials", 1)
    pfa = check_number(_require(raw, "pfa", path), f"{path}: pfa")
    if not 0.0 < pfa < 1.0:
        raise ConfigError(f"{path}: pfa must lie in (0, 1)")
    seed = check_int(_require(raw, "seed", path), f"{path}: seed", 0)
    algorithm = _require(raw, "algorithm", path)
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"{path}: algorithm must be ssr, sic or joint")
    check_white_for_joint(algorithm, clutter, f"{path}: algorithm")
    g_max = check_int(_require(raw, "g_max", path), f"{path}: g_max", 1)
    grid_cell = check_number(_require(raw, "grid_cell_m", path),
                             f"{path}: grid_cell_m", positive=True)
    single = raw.get("single_target_benchmark", False)
    if not isinstance(single, bool):
        raise ConfigError(f"{path}: single_target_benchmark must be true "
                          f"or false, got {single!r}")

    cfg = ScenarioConfig(
        name=check_str(_require(raw, "name", path), f"{path}: name"),
        seed=seed,
        layout=layout,
        region=region,
        grid_cell=grid_cell,
        target_positions=tuple(targets),
        proportions=tuple(proportions),
        window=window,
        n_samples=check_int(_require(wf, "samples", f"{path}: waveforms"),
                            f"{path}: waveforms.samples", 2),
        pulse_width=pulse_width,
        sigma_sq=check_number(_require(noise_raw, "sigma_sq",
                                       f"{path}: noise"),
                              f"{path}: noise.sigma_sq", positive=True),
        clutter=clutter,
        snr_db=tuple(snr),
        pfa=pfa,
        trials=trials,
        calibration_trials=check_int(raw.get("calibration_trials", 1000),
                                     f"{path}: calibration_trials", 100),
        g_max=g_max,
        algorithm=algorithm,
        single_target_benchmark=single,
        output_dir=check_str(raw.get("output_dir", "out"),
                             f"{path}: output_dir"),
    )
    # semantic checks that need the assembled pieces
    try:
        Grid(cfg.region, cfg.grid_cell)
    except ValueError as exc:
        raise ConfigError(f"{path}: grid_cell_m: {exc}") from exc
    try:
        build_waveform_set(layout.n_tx, window, cfg.n_samples, pulse_width)
    except ValueError as exc:        # BandwidthError
        raise ConfigError(f"{path}: waveforms: {exc}") from exc
    for i, p in enumerate(cfg.target_positions):
        for flat, l, k in layout.paths():
            end = path_delay(layout, p, l, k) + pulse_width
            if end > window:
                raise ConfigError(
                    f"{path}: targets[{i}]: its echo on path {flat} ends at "
                    f"{end:.4g} s, after waveforms.window_s {window!r}")
    return cfg


class RunContext:
    """Everything reusable across the trials of one scenario: the replica
    cache, the truth scene, the reference energies of the SNR scaling and
    each configured target's unit-alpha echo spans (echo_spans)."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.layout = cfg.layout
        self.grid = Grid(cfg.region, cfg.grid_cell)
        self.waveforms = build_waveform_set(
            cfg.layout.n_tx, cfg.window, cfg.n_samples, cfg.pulse_width)
        self.noise = NoiseModel(sigma_sq=cfg.sigma_sq, clutter=cfg.clutter)
        self.cache = ReplicaCache(self.waveforms, self.layout, self.grid,
                                  self.noise)
        self.scene = Scene(
            layout=self.layout,
            targets=tuple(TargetTruth(position=p, amplitude_sq=prop)
                          for p, prop in zip(cfg.target_positions,
                                             cfg.proportions)),
            region=cfg.region)
        self.ref_energy = None
        if cfg.proportions:
            ref_g = int(np.argmax(cfg.proportions))
            self.ref_energy = reference_energies(
                self.waveforms, self.layout, self.noise,
                cfg.target_positions[ref_g])

    @functools.cached_property
    def echo_spans(self) -> tuple:
        """signal.echo_spans of each configured target, in config order: a
        trial only scales them by its alphas.  Built by the first trial
        that needs them, so set-up and calibration do no span work."""
        return tuple(echo_spans(self.waveforms, self.layout, p)
                     for p in self.cfg.target_positions)

    def calibrate(self, trials: int | None = None) -> ThresholdConfig:
        """lambda' from trials H0 trials (default: the config's
        calibration_trials; at least 100)."""
        if trials is None:
            trials = self.cfg.calibration_trials
        return calibrate_threshold(
            self.waveforms, self.layout, self.grid, self.noise,
            self.cfg.pfa, check_int(trials, "calibration trials", 100),
            self.cfg.seed, cache=self.cache)


def valid_detection(estimate: Position2D, truth: Position2D) -> bool:
    """Within 200 m of the truth in both dimensions."""
    return (abs(estimate.x - truth.x) <= VALID_RADIUS_M
            and abs(estimate.y - truth.y) <= VALID_RADIUS_M)


def associate(report: DetectionReport, truths) -> list[int | None]:
    """Greedy assignment in declaration order: each detection claims the
    nearest unclaimed truth it is a valid detection of (ties go to the
    lower truth index).  Returns, per detection, the claimed truth index
    or None for a false declaration."""
    claimed: set[int] = set()
    out: list[int | None] = []
    for det in report.detections:
        best, best_d = None, np.inf
        for i, truth in enumerate(truths):
            if i in claimed or not valid_detection(det.location, truth):
                continue
            d = math.hypot(det.location.x - truth.x, det.location.y - truth.y)
            if d < best_d:
                best, best_d = i, d
        if best is not None:
            claimed.add(best)
        out.append(best)
    return out


def trial_observations(ctx: RunContext, snr_db: float, trial: int,
                       target_indices=None, draw=None):
    """Every path's whitened echo plus noise for one trial, as the filled
    (blocks, nfft) segment matrix of estimators.trial_segments that
    objective_field and joint_search take.

    draw is the trial's noise (estimators.trial_noise with the config's
    seed and TAG_NOISE), which every SNR point and target subset of the
    trial shares; without it the same noise is drawn here.
    target_indices selects a subset of the configured targets (used by
    the single-target benchmark); phase streams stay keyed by the
    original target index and the reference strength stays the full
    scene's strongest target, so subsetting changes nothing else.  The
    echoes are the context's echo spans scaled by the trial's alphas.
    """
    cfg = ctx.cfg
    if target_indices is None:
        target_indices = list(range(cfg.n_targets))
    scene = Scene(
        layout=ctx.layout,
        targets=tuple(ctx.scene.targets[g] for g in target_indices),
        region=cfg.region)
    if target_indices:
        props = [cfg.proportions[g] for g in target_indices]
        phase_rngs = [substream(cfg.seed, TAG_PHASE, trial, g)
                      for g in target_indices]
        ref_g = int(np.argmax(cfg.proportions))
        scene = scale_alphas_for_snr(
            scene, ctx.waveforms, ctx.noise, snr_db, props, phase_rngs,
            ref_position=cfg.target_positions[ref_g],
            ref_proportion=max(cfg.proportions),
            ref_energy=ctx.ref_energy)
    if draw is None:
        draw = trial_noise(ctx.cache, cfg.seed, TAG_NOISE, trial)
    spans = [ctx.echo_spans[g] for g in target_indices]
    return trial_segments(ctx.cache, scene, draw, spans), target_indices


def run_trial(ctx: RunContext, snr_db: float, trial: int,
              thresholds: ThresholdConfig, algorithm: str | None = None,
              target_indices=None, draw=None):
    """One deterministic Monte Carlo trial: build the whitened
    observations (trial_observations) from the trial's noise draw (drawn
    here unless given; the same noise either way), evaluate the
    objective, run the selected algorithm and associate detections with
    the truth.  SSR and SIC run after the segment matrix is freed.  An
    unknown algorithm is refused before the trial is drawn."""
    cfg = ctx.cfg
    algorithm = algorithm or cfg.algorithm
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    segments, target_indices = trial_observations(
        ctx, snr_db, trial, target_indices, draw)
    if algorithm == "joint":
        report = joint_search(segments, ctx.cache, len(target_indices),
                              thresholds.lambda_prime)
    else:
        fld = objective_field(segments, ctx.cache)
        del segments          # the field holds all that SSR and SIC read
        run = ssr_run if algorithm == "ssr" else sic_run
        report = run(fld, thresholds, EstimatorConfig(g_max=cfg.g_max))

    truths = [cfg.target_positions[g] for g in target_indices]
    assignment = associate(report, truths)
    return report, assignment, target_indices


def _trial_rows(cfg, algorithm, snr_db, trial, report, assignment,
                target_indices):
    """Per-(trial, target) rows: valid flag, per-dimension errors, g_hat."""
    rows = []
    err = {g: (np.nan, np.nan) for g in target_indices}
    valid = {g: 0 for g in target_indices}
    for det, truth_pos in zip(report.detections, assignment):
        if truth_pos is None:
            continue
        g = target_indices[truth_pos]
        valid[g] = 1
        err[g] = (det.location.x - cfg.target_positions[g].x,
                  det.location.y - cfg.target_positions[g].y)
    for g in target_indices:
        rows.append({"algorithm": algorithm, "snr_db": snr_db,
                     "trial": trial, "target": g + 1, "valid": valid[g],
                     "err_x_m": err[g][0], "err_y_m": err[g][1],
                     "g_hat": report.g_hat})
    return rows


TRIAL_HEADER = "algorithm,snr_db,trial,target,valid,err_x_m,err_y_m,g_hat"


def _append_trial_rows(path, rows):
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        if new_file:
            fh.write(TRIAL_HEADER + "\n")
        for r in rows:
            fh.write(f"{r['algorithm']},{float(r['snr_db'])!r},{r['trial']},"
                     f"{r['target']},{r['valid']},{float(r['err_x_m'])!r},"
                     f"{float(r['err_y_m'])!r},{r['g_hat']}\n")
        fh.flush()


def _load_trial_rows(path, expected):
    """The complete trials of a trial file, in file order.

    Rows are appended trial by trial, so an interrupted sweep can leave a
    torn last line or a last trial with only some of its rows (expected
    maps an algorithm to its rows per trial).  The file is cut back to
    its last complete trial, so the sweep re-runs the rest.
    """
    rows, trial = [], []
    if not os.path.exists(path):
        return rows
    with open(path, "rb") as fh:
        header = fh.readline()
        if (not header.endswith(b"\n")
                and (TRIAL_HEADER + "\n").encode().startswith(header)):
            header = b""            # torn header: the file starts afresh
        elif header.strip() != TRIAL_HEADER.encode():
            raise ConfigError(f"{path}: unexpected trial file header")
        keep = end = len(header)
        for line in fh:
            end += len(line)
            try:
                a, snr, tr, tg, v, ex, ey, gh = line.decode().split(",")
                row = {"algorithm": a, "snr_db": float(snr),
                       "trial": int(tr), "target": int(tg),
                       "valid": int(v), "err_x_m": float(ex),
                       "err_y_m": float(ey), "g_hat": int(gh)}
            except ValueError:
                break
            key = (a, row["snr_db"], row["trial"])
            if not line.endswith(b"\n") or (trial and key != trial_key):
                break
            trial.append(row)
            trial_key = key
            if len(trial) >= expected.get(a, 1):
                rows += trial
                trial, keep = [], end
    if keep < os.path.getsize(path):
        os.truncate(path, keep)
    return rows


def aggregate(rows, algorithm, snr_db, targets, trials) -> list[MetricsRecord]:
    records = []
    sel = [r for r in rows
           if r["algorithm"] == algorithm and r["snr_db"] == snr_db]
    for g in targets:
        tg = [r for r in sel if r["target"] == g]
        n = len(tg)
        pd = sum(r["valid"] for r in tg) / n if n else 0.0
        ex = np.array([r["err_x_m"] for r in tg if r["valid"]])
        ey = np.array([r["err_y_m"] for r in tg if r["valid"]])
        rmse_x = float(np.sqrt(np.mean(ex ** 2))) if len(ex) else float("nan")
        rmse_y = float(np.sqrt(np.mean(ey ** 2))) if len(ey) else float("nan")
        g_hat = float(np.mean([r["g_hat"] for r in tg])) if tg else 0.0
        records.append(MetricsRecord(algorithm=algorithm, snr_db=snr_db,
                                     target=g, pd=pd, rmse_x=rmse_x,
                                     rmse_y=rmse_y, g_hat_mean=g_hat,
                                     trials=n))
    return records


def run_sweep(cfg: ScenarioConfig, algorithm: str | None = None,
              out_dir: str | None = None,
              thresholds: ThresholdConfig | None = None,
              trials: int | None = None, snr_list=None,
              ctx: RunContext | None = None) -> list[MetricsRecord]:
    """Full Monte Carlo experiment: calibrate (unless given thresholds),
    run every (trial, job, snr), aggregate Pd/RMSE per target, write
    CSVs.  The jobs are the full scene, then each target alone when the
    single-target benchmark is on.

    The loop is trial-major: each trial index's noise is drawn once
    (trial_noise) and shared by all its jobs and SNR points, which is the
    noise each run_trial would draw on its own.  Per-trial rows are
    appended (and flushed) to trial_records.csv as they complete, in
    (trial, job, snr) order, and existing rows are reused on restart: an
    interrupted sweep runs each (trial, job, snr) whose rows are missing,
    each single-target job told apart by its target, and a trial index
    with nothing left to run is not drawn.  So a resumed sweep writes the
    bytes of a fresh one.
    """
    algorithm = algorithm or cfg.algorithm
    out_dir = out_dir or cfg.output_dir
    trials = check_int(cfg.trials if trials is None else trials, "trials", 1)
    snr_list = list(snr_list if snr_list is not None else cfg.snr_db)
    os.makedirs(out_dir, exist_ok=True)
    if ctx is None:
        ctx = RunContext(cfg)
    if thresholds is None:
        thresholds = ctx.calibrate()

    trial_path = os.path.join(out_dir, "trial_records.csv")
    existing = _load_trial_rows(trial_path, {algorithm: cfg.n_targets,
                                             f"{algorithm}-single": 1})
    # a job's run of (snr, trial) is done when all its targets' rows are
    done = {(r["algorithm"], r["snr_db"], r["trial"], r["target"])
            for r in existing}
    rows = list(existing)

    # (name, target indices for run_trial, 1-based targets of its rows)
    jobs = [(algorithm, None, range(1, cfg.n_targets + 1))]
    if cfg.single_target_benchmark and algorithm != "joint":
        jobs += [(f"{algorithm}-single", [g], [g + 1])
                 for g in range(cfg.n_targets)]

    for t in range(trials):
        todo = [(name, indices, snr) for name, indices, targets in jobs
                for snr in snr_list
                if any((name, snr, t, g) not in done for g in targets)]
        if not todo:
            continue
        draw = trial_noise(ctx.cache, cfg.seed, TAG_NOISE, t)
        for name, indices, snr in todo:
            report, assignment, idx = run_trial(
                ctx, snr, t, thresholds, algorithm=name.split("-")[0],
                target_indices=indices, draw=draw)
            new_rows = _trial_rows(cfg, name, snr, t, report, assignment,
                                   idx)
            _append_trial_rows(trial_path, new_rows)
            rows.extend(new_rows)

    records = []
    for name, _, targets in jobs:
        for snr in snr_list:
            records.extend(aggregate(rows, name, snr, targets, trials))
    export_csv(records, os.path.join(out_dir, "metrics.csv"))
    return records


def export_csv(records, path) -> None:
    """Deterministic metrics file, one row per (algorithm, snr, target)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(f"{r.algorithm},{float(r.snr_db)!r},{r.target},"
                     f"{float(r.pd)!r},{float(r.rmse_x)!r},"
                     f"{float(r.rmse_y)!r},{float(r.g_hat_mean)!r},"
                     f"{r.trials}\n")


def read_metrics_csv(path) -> list[MetricsRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise ConfigError(f"{path}: unexpected metrics header")
        for line in fh:
            a, snr, tg, pd, rx, ry, gh, n = line.strip().split(",")
            records.append(MetricsRecord(
                algorithm=a, snr_db=float(snr), target=int(tg),
                pd=float(pd), rmse_x=float(rx), rmse_y=float(ry),
                g_hat_mean=float(gh), trials=int(n)))
    return records


def h0_alarm_rate(ctx: RunContext, thresholds: ThresholdConfig,
                  trials: int) -> float:
    """Hold-out false-alarm rate: fraction of noise-only trials whose grid
    peak crosses the calibrated threshold (exactly when the detectors
    declare at least one target)."""
    peaks = h0_objective_peaks(ctx.waveforms, ctx.layout, ctx.grid,
                               ctx.noise, trials, ctx.cfg.seed,
                               cache=ctx.cache, tag=TAG_HOLDOUT)
    return float(np.mean(peaks > thresholds.lambda_prime))
