"""Command-line interface.

    mimoloc calibrate <config> [--out FILE] [--seed N]
    mimoloc run <config> --snr DB --trial N [--algo A] [--thresholds F]
    mimoloc sweep <config> [--algo ssr|sic|joint] [--seed N] [--out DIR]
                  [--trials N] [--thresholds F]
    mimoloc gridmap <config> --snr DB --trial N [--after-cancel G]
                  [--out DIR]

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError
from .estimators import ThresholdConfig, sic_modified_term
from .harness import (RunContext, check_int, check_number,
                      check_white_for_joint, load_scenario, run_sweep,
                      run_trial, trial_observations)
from .likelihood import (COMBINED_FIELD_ID, objective_field,
                         save_gridmap_binary, save_gridmap_csv)


def _thresholds_to_json(thr: ThresholdConfig, path: str) -> None:
    data = {"lambda_prime": thr.lambda_prime, "pfa": thr.pfa,
            "trials": thr.trials, "seed": thr.seed,
            "path_weights": (None if thr.path_weights is None
                             else list(map(float, thr.path_weights)))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _thresholds_from_json(path: str) -> ThresholdConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        weights = data.get("path_weights")
        return ThresholdConfig(
            lambda_prime=float(data["lambda_prime"]), pfa=float(data["pfa"]),
            path_weights=None if weights is None else np.asarray(weights),
            trials=int(data.get("trials", 0)), seed=int(data.get("seed", 0)))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: invalid threshold file: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoloc",
        description="Multi-target detection and localization simulator for "
                    "noncoherent widely-separated MIMO radar")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="Monte Carlo threshold calibration")
    cal.add_argument("config")
    cal.add_argument("--out", default=None, help="threshold file to write")
    cal.add_argument("--seed", type=int, default=None)

    run = sub.add_parser("run", help="single trial, prints the report")
    run.add_argument("config")
    run.add_argument("--snr", type=float, required=True)
    run.add_argument("--trial", type=int, required=True)
    run.add_argument("--algo", choices=["ssr", "sic", "joint"], default=None)
    run.add_argument("--thresholds", default=None)
    run.add_argument("--seed", type=int, default=None)

    sweep = sub.add_parser("sweep", help="full experiment, CSV out")
    sweep.add_argument("config")
    sweep.add_argument("--algo", choices=["ssr", "sic", "joint"],
                       default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--thresholds", default=None)

    gmap = sub.add_parser("gridmap", help="objective-field dump for heatmaps")
    gmap.add_argument("config")
    gmap.add_argument("--snr", type=float, required=True)
    gmap.add_argument("--trial", type=int, required=True)
    gmap.add_argument("--after-cancel", type=int, default=0, metavar="G",
                      help="subtract the first G detected targets first")
    gmap.add_argument("--out", default=None)
    return parser


def _load(args):
    """The scenario, with --seed/--trials/--algo checked as its own fields
    are, --snr as a finite number and --trial/--after-cancel as counts
    (>= 0)."""
    cfg = load_scenario(args.config)
    check_white_for_joint(getattr(args, "algo", None), cfg.clutter, "--algo")
    if getattr(args, "snr", None) is not None:
        check_number(args.snr, "--snr")
    for key in ("trial", "after_cancel"):
        if getattr(args, key, None) is not None:
            check_int(getattr(args, key), "--" + key.replace("_", "-"), 0)
    overrides = {key: check_int(getattr(args, key), f"--{key}", low)
                 for key, low in (("seed", 0), ("trials", 1))
                 if getattr(args, key, None) is not None}
    return replace(cfg, **overrides)


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    thr = ctx.calibrate()
    out = args.out
    if out is None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = os.path.join(cfg.output_dir, f"thresholds_{cfg.name}.json")
    _thresholds_to_json(thr, out)
    print(f"lambda_prime={thr.lambda_prime!r} pfa={thr.pfa} "
          f"trials={thr.trials} -> {out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    thr = (_thresholds_from_json(args.thresholds) if args.thresholds
           else ctx.calibrate())
    report, assignment, _ = run_trial(ctx, args.snr, args.trial, thr,
                                      algorithm=args.algo)
    sys.stdout.write(report.to_text())
    matched = sum(1 for a in assignment if a is not None)
    print(f"# valid_detections: {matched} of {cfg.n_targets} targets")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    thr = _thresholds_from_json(args.thresholds) if args.thresholds else None
    records = run_sweep(cfg, algorithm=args.algo, out_dir=args.out,
                        thresholds=thr)
    out_dir = args.out or cfg.output_dir
    for r in records:
        print(f"{r.algorithm} snr={r.snr_db:+.1f} dB target {r.target}: "
              f"pd={r.pd:.3f} rmse=({r.rmse_x:.1f}, {r.rmse_y:.1f}) m "
              f"g_hat={r.g_hat_mean:.2f} [{r.trials} trials]")
    print(f"metrics -> {os.path.join(out_dir, 'metrics.csv')}")
    return 0


def _cmd_gridmap(args) -> int:
    cfg = _load(args)
    ctx = RunContext(cfg)
    observations, _ = trial_observations(ctx, args.snr, args.trial)
    fld = objective_field(observations, ctx.cache)
    # optionally subtract the first G argmax targets the way SIC would
    for _ in range(args.after_cancel):
        sic_modified_term(fld, fld.argmax_cell())

    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    tag = (f"{cfg.name}_snr{args.snr:+g}_trial{args.trial}"
           + (f"_cancel{args.after_cancel}" if args.after_cancel else ""))
    csv_path = os.path.join(out_dir, f"gridmap_{tag}.csv")
    bin_path = os.path.join(out_dir, f"gridmap_{tag}.bin")
    save_gridmap_csv(fld.combined, ctx.grid, csv_path)
    save_gridmap_binary(fld.combined, ctx.grid, COMBINED_FIELD_ID, bin_path)
    print(f"gridmap -> {csv_path}, {bin_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"calibrate": _cmd_calibrate, "run": _cmd_run,
                "sweep": _cmd_sweep, "gridmap": _cmd_gridmap}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
