"""Regenerate the reference data the benchmark ships in perfbench/data/.

    python3 perfbench/make_reference.py [NAME ...]

Writes, for each workload that runs detectors on a fixed threshold, the
threshold file calibrated from the scene's own config (seed and
calibration_trials), in the format `mimoloc calibrate --out` writes; and
for calib_c a sample of noise-only grid peaks of scenario_c drawn under a
seed no benchmark run uses, against which a run's lambda' is checked.

NAME limits the run to those workloads.  All of them take about ten
minutes on two cores.  Rerun it only when the program's
objective is meant to change; the sweep workloads' outputs depend on the
thresholds.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mimoloc  # noqa: E402
from mimoloc.estimators import h0_objective_peaks  # noqa: E402

# Workload name -> scenario file whose calibrated threshold it ships.
THRESHOLD_SCENES = {
    "sweep_b": "configs/scenario_b.cfg",
    "joint_coarse": "perfbench/scenes/joint_coarse.cfg",
    "clutter_small": "perfbench/scenes/clutter_small.cfg",
}
H0_SCENE = "configs/scenario_c.cfg"
H0_REFERENCE_SEED = 900_000_001
H0_REFERENCE_TRIALS = 600


def write_json(name, data):
    with open(os.path.join(HERE, "data", name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main(names):
    for workload, scene in THRESHOLD_SCENES.items():
        if names and workload not in names:
            continue
        cfg = mimoloc.load_scenario(os.path.join(ROOT, scene))
        thr = mimoloc.RunContext(cfg).calibrate()
        write_json(f"thresholds_{workload}.json",
                   {"lambda_prime": thr.lambda_prime, "pfa": thr.pfa,
                    "trials": thr.trials, "seed": thr.seed,
                    "path_weights": None})
        print(f"{workload}: lambda' = {thr.lambda_prime!r}", flush=True)

    if names and "calib_c" not in names:
        return
    cfg = mimoloc.load_scenario(os.path.join(ROOT, H0_SCENE))
    ctx = mimoloc.RunContext(cfg)
    peaks = h0_objective_peaks(ctx.waveforms, ctx.layout, ctx.grid, ctx.noise,
                               H0_REFERENCE_TRIALS, H0_REFERENCE_SEED,
                               cache=ctx.cache)
    write_json("h0_peaks_calib_c.json",
               {"scene": H0_SCENE, "seed": H0_REFERENCE_SEED,
                "pfa": cfg.pfa, "peaks": sorted(map(float, peaks))})
    print(f"calib_c: {len(peaks)} reference H0 peaks", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
