"""Monte Carlo trial benchmark for mimoloc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ./src through
its public API (load_scenario, RunContext, calibrate_threshold, run_sweep),
in this one process, with no worker pool.

A run sets up the workload's scene several times (load_scenario plus
RunContext) and reports the median as setup_s.  It then runs passes of a
fixed size, all with the same inputs, until S seconds have passed: one
calibrate_threshold of CALIBRATION_TRIALS noise-only trials, or one
run_sweep per algorithm with SWEEP_TRIALS trials per SNR point, each into
a fresh, empty output directory.  A trial clock (one time stamp per trial
boundary, in every run) gives the per-trial wall times.  The outputs are
then checked; a failed check or a trial that raised makes the run exit 1.

--trace 1 repeats set-up and the timed phase with every layer call wrapped
(see layers.py) and reports per-layer metrics, the tracing overhead
(traced minus untraced trials_per_s) and the time per trial no layer span
covers.

Stdout ends with one JSON line: correct, attempted and failed trials, and
the metrics BENCHMARK.json names (end-to-end with --trace 0, per-layer with
--trace 1).  Everything else -- the metrics that do not apply to every
workload, check details, the behaviour fingerprint and the run manifest --
goes to the report above it and to perfbench/out/<workload>-trace<t>/
results.json, with the spans of a traced run in spans.jsonl beside it.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback

import numpy as np
import scipy

from layers import HOOKS, LAYER_CALLS, PER_LAYER, per_layer_metrics
from recorder import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")

CALIBRATION_TRIALS = 100   # the least calibrate_threshold accepts
SWEEP_TRIALS = 1           # trials per SNR point in one sweep pass
SETUP_REPS = 3             # set-ups per run, at least ...
SETUP_MIN_S = 1.0          # ... and until this much set-up time has passed
P90_TAIL = 10              # samples that must lie beyond a reported p90
LAMBDA_CI_ALPHA = 1e-4     # two-sided miss rate of the calib_c lambda' check


@dataclasses.dataclass(frozen=True)
class Workload:
    scene: str                      # scenario file, from the repository root
    algorithms: tuple = ()          # sweep algorithms; () calibrates instead
    thresholds: str | None = None   # shipped threshold file in perfbench/data
    truths_at_top_snr: str | None = None  # algorithm that must find them all


WORKLOADS = {
    # H0 calibration on the largest grid: 40 000 cells, 25 paths,
    # N = 79 361.  Largest FFT and gather; the detectors do no work.
    "calib_c": Workload("configs/scenario_c.cfg"),
    # The paper's SSR-vs-SIC comparison: synthesis, both successive
    # detectors, single-target re-runs, association and CSV output.
    "sweep_b": Workload("configs/scenario_b.cfg", ("ssr", "sic"),
                        "thresholds_sweep_b.json", "sic"),
    # Joint search, G = 3, on 81 cells and 16 paths (85 320 tuples): the
    # estimators do nearly all the work, FFT and gather almost none.
    "joint_coarse": Workload("perfbench/scenes/joint_coarse.cfg", ("joint",),
                             "thresholds_joint_coarse.json", "joint"),
    # AR(1) clutter, 4 paths, 576 cells, N = 401: the colored-noise branch
    # of signal (dense eigh in synthesis and whitening).
    "clutter_small": Workload("perfbench/scenes/clutter_small.cfg", ("sic",),
                              "thresholds_clutter_small.json"),
}

# End-to-end metrics: name -> unit.  The first four apply to every workload
# and are the ones BENCHMARK.json bounds; the rest are None ("n/a") where
# they do not apply, or 0 on every passing run, and are reported in the
# text and results.json only.
END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_ms_p90": "ms",
    "pd_mean": "fraction",
    "false_decl_per_trial": "count/trial",
    "error_frac": "fraction",
}


def import_program():
    """Import mimoloc from ./src, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mimoloc", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {src}; run "
                         "from the repository root")
    sys.path.insert(0, src)
    import mimoloc
    if not os.path.abspath(mimoloc.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported mimoloc from {mimoloc.__file__}"
                         f", not from {src}")
    return mimoloc


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass
class Pass:
    trials: int            # trials the pass runs
    fingerprint: str       # sha256 of its output bytes
    seconds: float = 0.0
    rows: list = dataclasses.field(default_factory=list)
    records: list = dataclasses.field(default_factory=list)
    row_count_ok: bool = True
    lambda_prime: float | None = None


class Bench:
    def __init__(self, mimoloc, name: str, seed: int, out_dir: str):
        self.m = mimoloc
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.out_dir = out_dir
        self.scene = os.path.join(ROOT, self.spec.scene)
        self.thresholds = None
        if self.spec.thresholds:
            with open(os.path.join(DATA, self.spec.thresholds),
                      encoding="utf-8") as fh:
                t = json.load(fh)
            self.thresholds = mimoloc.ThresholdConfig(
                lambda_prime=float(t["lambda_prime"]), pfa=float(t["pfa"]),
                trials=int(t["trials"]), seed=int(t["seed"]))

    def setup(self):
        cfg = self.m.load_scenario(self.scene)
        return self.m.RunContext(dataclasses.replace(cfg, seed=self.seed))

    def timed_setups(self):
        """Median set-up seconds and the last context built."""
        times, ctx, start = [], None, time.perf_counter()
        while (len(times) < SETUP_REPS
               or time.perf_counter() - start < SETUP_MIN_S):
            ctx = None  # free the previous context before building the next
            t0 = time.perf_counter()
            ctx = self.setup()
            times.append(time.perf_counter() - t0)
        return statistics.median(times), len(times), ctx

    def run_pass(self, ctx, label: str) -> Pass:
        if not self.spec.algorithms:
            thr = self.m.calibrate_threshold(
                ctx.waveforms, ctx.layout, ctx.grid, ctx.noise, ctx.cfg.pfa,
                CALIBRATION_TRIALS, ctx.cfg.seed, cache=ctx.cache)
            lam = struct.pack("<d", thr.lambda_prime)
            return Pass(trials=CALIBRATION_TRIALS,
                        fingerprint=hashlib.sha256(lam).hexdigest(),
                        lambda_prime=thr.lambda_prime)
        cfg = ctx.cfg
        digest = hashlib.sha256()
        result = Pass(trials=0, fingerprint="")
        for algo in self.spec.algorithms:
            out = os.path.join(self.out_dir, label, algo)
            if os.path.exists(out):
                raise RuntimeError(f"sweep output directory {out} exists")
            result.records += self.m.run_sweep(
                cfg, algorithm=algo, out_dir=out, thresholds=self.thresholds,
                trials=SWEEP_TRIALS, ctx=ctx)
            with open(os.path.join(out, "trial_records.csv"), "rb") as fh:
                data = fh.read()
            digest.update(data)
            lines = data.decode("utf-8").splitlines()[1:]
            singles = cfg.single_target_benchmark and algo != "joint"
            trials = len(cfg.snr_db) * SWEEP_TRIALS * (
                1 + (cfg.n_targets if singles else 0))
            rows = cfg.n_targets * len(cfg.snr_db) * SWEEP_TRIALS * (
                2 if singles else 1)
            result.trials += trials
            result.row_count_ok &= len(lines) == rows
            for line in lines:
                a, snr, tr, tg, v, _, _, gh = line.split(",")
                result.rows.append((a, float(snr), int(tr), int(tg), int(v),
                                    int(gh)))
        result.fingerprint = digest.hexdigest()
        return result

    def timed_phase(self, ctx, rec, seconds: float, tag: str):
        """Passes until `seconds` have elapsed (at least one).  Returns the
        passes; a trial that raises propagates."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            rec.start_pass()
            t0 = time.perf_counter()
            p = self.run_pass(ctx, f"{tag}{len(passes):03d}")
            p.seconds = time.perf_counter() - t0
            passes.append(p)
        return passes


# --- checks ----------------------------------------------------------------

def lambda_interval(n: int, pfa: float):
    """Interval that holds lambda' from n H0 trials with probability
    1 - LAMBDA_CI_ALPHA: the binomial (order-statistic) interval of the
    rank calibrate_threshold picks, mapped through the shipped reference
    peaks and widened by the reference's own 3-sigma error."""
    # imported here, after peak_rss_mb is read: scipy.stats adds ~40 MB
    from scipy.stats import beta
    with open(os.path.join(DATA, "h0_peaks_calib_c.json"),
              encoding="utf-8") as fh:
        peaks = np.asarray(json.load(fh)["peaks"])
    k = int(np.floor((1.0 - pfa) * (n - 1))) + 1   # 1-based rank of lambda'
    lo, hi = beta.ppf([LAMBDA_CI_ALPHA / 2, 1 - LAMBDA_CI_ALPHA / 2],
                      k, n + 1 - k)
    widen = 3.0 * np.sqrt(pfa * (1.0 - pfa) / len(peaks))
    return (float(np.quantile(peaks, max(lo - widen, 0.0))),
            float(np.quantile(peaks, min(hi + widen, 1.0))))


def check_passes(bench, ctx, passes, rec, reference_fingerprint):
    """(name, ok, detail) for every check on the passes of one phase."""
    spec = bench.spec
    first = passes[0]
    checks = []
    stamped = len(rec.windows) == sum(p.trials for p in passes)
    checks.append(("trial count", stamped,
                   f"{len(rec.windows)} trials timed, "
                   f"{sum(p.trials for p in passes)} expected"))
    same = all(p.fingerprint == reference_fingerprint for p in passes)
    checks.append(("byte-identical output on every pass", same,
                   f"{len(passes)} passes, sha256 {reference_fingerprint}"))
    if not spec.algorithms:
        lo, hi = lambda_interval(CALIBRATION_TRIALS, ctx.cfg.pfa)
        lam = first.lambda_prime
        checks.append(("lambda' inside reference binomial interval",
                       lo <= lam <= hi, f"{lam!r} in [{lo!r}, {hi!r}]"))
        return checks
    checks.append(("trial_records.csv row count",
                   all(p.row_count_ok for p in passes),
                   f"{len(first.rows)} rows per pass"))
    if spec.truths_at_top_snr:
        top = max(ctx.cfg.snr_db)
        hits = [r for r in first.rows
                if r[0] == spec.truths_at_top_snr and r[1] == top]
        ok = (len(hits) == ctx.cfg.n_targets * SWEEP_TRIALS
              and all(r[4] == 1 for r in hits))
        checks.append((f"{spec.truths_at_top_snr} finds every target at "
                       f"{top:g} dB", ok,
                       f"{sum(r[4] for r in hits)} of {len(hits)} found"))
    return checks


def quality(bench, first: Pass):
    """pd_mean and false_decl_per_trial from the first pass (the same
    inputs for a given seed, so deterministic), or None for n/a."""
    if not bench.spec.algorithms:
        return None, None
    pd = [r.pd for r in first.records if "-single" not in r.algorithm]
    per_trial = {}
    for a, snr, trial, target, valid, g_hat in first.rows:
        # each single-target re-run is its own trial
        key = (a, snr, trial, target if "-single" in a else 0)
        found, _ = per_trial.get(key, (0, g_hat))
        per_trial[key] = (found + valid, g_hat)
    false = [g_hat - found for found, g_hat in per_trial.values()]
    return statistics.fmean(pd), statistics.fmean(false)


def percentile_or_none(samples, q: float):
    """Nearest-rank percentile, or None unless P90_TAIL samples lie above
    it."""
    s = sorted(samples)
    rank = -(-len(s) * q // 100)  # ceil
    if len(s) - rank < P90_TAIL:
        return None
    return s[int(rank) - 1]


def manifest(mimoloc, bench, args):
    return {
        "workload": bench.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scene": bench.spec.scene,
        "config_sha256": sha256_file(bench.scene),
        "thresholds_sha256": (sha256_file(os.path.join(DATA,
                                                       bench.spec.thresholds))
                              if bench.spec.thresholds else None),
        "kernel_backend": mimoloc.KERNEL_BACKEND,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "fft_workers": getattr(mimoloc.likelihood, "_FFT_WORKERS", None),
    }


# --- main ------------------------------------------------------------------

def measure(mimoloc, bench, args):
    boundary = ("harness.run_trial" if bench.spec.algorithms
                else "likelihood.objective_field")
    result = {"manifest": manifest(mimoloc, bench, args), "checks": [],
              "end_to_end": {}, "per_layer": {}, "notes": {}}
    e2e = result["end_to_end"]
    failed = 0

    setup_s, reps, ctx = bench.timed_setups()
    clock = Recorder(boundary, LAYER_CALLS)
    try:
        with clock:
            passes = bench.timed_phase(ctx, clock, args.seconds, "pass")
    except Exception:
        traceback.print_exc()
        failed = 1
        passes = None
    attempted = len(clock.windows) + failed
    if passes is None:
        result["checks"].append(("no trial raised", False, "see stderr"))
        return result, attempted, failed

    wall = sum(p.seconds for p in passes)
    samples = clock.trial_ms()
    pd_mean, false_decl = quality(bench, passes[0])
    e2e.update({
        "trials_per_s": len(samples) / wall,
        "trial_ms_p50": statistics.median(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "trial_ms_p90": percentile_or_none(samples, 90),
        "pd_mean": pd_mean,
        "false_decl_per_trial": false_decl,
        "error_frac": failed / attempted,
    })
    result["notes"].update({
        "trial_samples": len(samples), "trial_ms": samples,
        "passes": len(passes),
        "setup_reps": reps, "fingerprint": passes[0].fingerprint,
        "lambda_prime": passes[0].lambda_prime})
    result["checks"].append(("no trial raised", True, f"{attempted} trials"))
    result["checks"] += check_passes(bench, ctx, passes, clock,
                                     passes[0].fingerprint)

    if args.trace:
        ctx = None
        tracer = Recorder(boundary, LAYER_CALLS, HOOKS, trace=True)
        origin = time.perf_counter()
        try:
            with tracer:
                ctx = bench.setup()
                traced = bench.timed_phase(ctx, tracer, args.seconds,
                                           "traced")
        except Exception:
            traceback.print_exc()
            result["checks"].append(("no traced trial raised", False,
                                     "see stderr"))
            return result, attempted + len(tracer.windows) + 1, failed + 1
        attempted += len(tracer.windows)
        result["checks"] += [
            (f"traced: {name}", ok, detail) for name, ok, detail in
            check_passes(bench, ctx, traced, tracer, passes[0].fingerprint)]
        traced_tps = len(tracer.windows) / sum(p.seconds for p in traced)
        result["per_layer"] = per_layer_metrics(
            tracer, ctx.cache, traced_tps, e2e["trials_per_s"])
        result["notes"]["traced_trial_samples"] = len(tracer.windows)
        tracer.write_spans(os.path.join(bench.out_dir, "spans.jsonl"), origin)
    return result, attempted, failed


def report(bench, result, args):
    n = result["notes"]
    print(f"workload {bench.name}  seed {args.seed}  trace {args.trace}  "
          f"backend {result['manifest']['kernel_backend']}")
    extra = {"trial_ms_p50": f"(n={n.get('trial_samples')})",
             "trial_ms_p90": f"(n={n.get('trial_samples')}, "
                             f"needs {P90_TAIL} beyond)",
             "setup_s": f"(median of {n.get('setup_reps')})"}
    for name, unit in END_TO_END.items():
        v = result["end_to_end"].get(name)
        shown = "n/a" if v is None else f"{v:.6g} {unit}"
        print(f"  {name:<32} {shown:<22} {extra.get(name, '')}")
    for name, (unit, source) in PER_LAYER.items():
        if name in result["per_layer"]:
            print(f"  {name:<32} {result['per_layer'][name]:.6g} {unit}"
                  f"  [{source}]")
    for name, ok, detail in result["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    if "fingerprint" in n:
        print(f"  fingerprint sha256 {n['fingerprint']} (informational)")
    print(f"  results {os.path.relpath(bench.out_dir, ROOT)}/results.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    mimoloc = import_program()
    out_dir = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    bench = Bench(mimoloc, args.workload, args.seed, out_dir)
    result, attempted, failed = measure(mimoloc, bench, args)
    correct = failed == 0 and all(ok for _, ok, _ in result["checks"])

    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "correct": correct, "attempted": attempted,
                   "failed": failed,
                   "units": {**END_TO_END,
                             **{k: u for k, (u, _) in PER_LAYER.items()}},
                   "sources": {k: s for k, (_, s) in PER_LAYER.items()}},
                  fh, indent=1)
        fh.write("\n")
    report(bench, result, args)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.trace:
        values, units = result["per_layer"], {k: u for k, (u, _)
                                              in PER_LAYER.items()}
        names = [m["name"] for m in declared["per_layer"]]
    else:
        values, units = result["end_to_end"], END_TO_END
        names = [m["name"] for m in declared["end_to_end"]]
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in names if values.get(k) is not None}
    correct = correct and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
