"""Layer calls the traced run wraps, and the per-layer metrics made from
their spans and counts.

Layers are the mimoloc modules that do measurable work: geometry, signal,
likelihood, _kernels, estimators and harness.  The _kernels metrics are
named kernels.*, because a metric name must start with a letter or digit.
Each metric is timed around calls into a module's functions, counted from
their arguments or results, or computed from array shapes (source
"computed").  Per-trial metrics divide by the trials of the traced phase;
*_s setup metrics are one traced load_scenario + RunContext.
"""
from __future__ import annotations

import math

import numpy as np

# (span name, module, attribute) of every wrapped call.
LAYER_CALLS = (
    ("geometry.grid_delays", "geometry", "grid_delays"),
    ("signal.reference_energies", "signal", "reference_energies"),
    ("signal.scale_alphas_for_snr", "signal", "scale_alphas_for_snr"),
    ("signal.synthesize_observation", "signal", "synthesize_observation"),
    ("signal.whiten", "signal", "whiten"),
    ("likelihood.ReplicaCache", "likelihood", "ReplicaCache.__init__"),
    ("likelihood.correlate_all", "likelihood", "ReplicaCache.correlate_all"),
    ("likelihood.objective_field", "likelihood", "objective_field"),
    ("_kernels.path_objective", "_kernels", "path_objective"),
    ("estimators.calibrate_threshold", "estimators", "calibrate_threshold"),
    ("estimators.h0_objective_peaks", "estimators", "h0_objective_peaks"),
    ("estimators.ssr_run", "estimators", "ssr_run"),
    ("estimators.sic_run", "estimators", "sic_run"),
    ("estimators.sic_modified_term", "estimators", "sic_modified_term"),
    ("estimators.joint_search", "estimators", "joint_search"),
    ("harness.run_trial", "harness", "run_trial"),
    ("harness.associate", "harness", "associate"),
    ("harness.append_trial_rows", "harness", "_append_trial_rows"),
    ("harness.export_csv", "harness", "export_csv"),
)

# Calls that enclose whole trials; the time they cover is not counted as
# attributed to a layer.
ENVELOPES = frozenset({"harness.run_trial", "estimators.calibrate_threshold"})

# Per-layer metrics in report order: name -> (unit, source).
PER_LAYER = {
    "signal.synth_ms": ("ms/trial", "timed"),
    "signal.synth_calls": ("count/trial", "counted"),
    "signal.whiten_ms": ("ms/trial", "timed"),
    "signal.whiten_calls": ("count/trial", "counted"),
    "signal.reference_energies_s": ("s", "timed"),
    "estimators.h0_noise_ms": ("ms/trial", "timed"),
    "likelihood.objective_field_ms": ("ms/trial", "timed"),
    "likelihood.correlate_ms": ("ms/trial", "timed"),
    "likelihood.field_self_ms": ("ms/trial", "timed"),
    "likelihood.fft_points": ("count/trial", "computed"),
    "likelihood.lag_use_frac": ("fraction", "computed"),
    "likelihood.replica_cache_s": ("s", "timed"),
    "geometry.grid_delays_s": ("s", "timed"),
    "kernels.gather_ms": ("ms/trial", "timed"),
    "kernels.gather_cells": ("count/trial", "counted"),
    "kernels.gather_bytes": ("B/trial", "computed"),
    "kernels.gather_share": ("fraction", "timed"),
    "estimators.ssr_ms": ("ms/trial", "timed"),
    "estimators.sic_ms": ("ms/trial", "timed"),
    "estimators.iterations": ("count/trial", "counted"),
    "estimators.declarations": ("count/trial", "counted"),
    "estimators.cancelled_pairs": ("count/trial", "counted"),
    "estimators.joint_ms": ("ms/trial", "timed"),
    "estimators.joint_tuples": ("count/trial", "computed"),
    "estimators.joint_keep_frac": ("fraction", "computed"),
    "estimators.calibrate_s": ("s", "timed"),
    "harness.run_trial_ms": ("ms/trial", "timed"),
    "harness.associate_ms": ("ms/trial", "timed"),
    "harness.io_ms": ("ms/trial", "timed"),
    "tracing.overhead_trials_per_s": ("1/s", "timed"),
    "tracing.unattributed_ms": ("ms/trial", "timed"),
}


# --- hooks: counts taken at the call boundary ------------------------------

def _gather(args, out, counts):
    n_cells, n_taps = args["taps"].shape
    per_cell = (n_taps * (args["taps"].itemsize + args["corr"].itemsize)
                + args["n0"].itemsize + args["energy"].itemsize
                + args["cross_out"].itemsize + args["ll_out"].itemsize)
    counts["gather_cells"] += n_cells
    counts["gather_bytes"] += n_cells * per_cell


def _correlate(args, out, counts):
    counts["fft_points"] += args["obs_matrix"].shape[0] * args["self"].nfft


def _ssr(args, out, counts):
    # every SSR iteration declares; the loop ends on an empty candidate set
    counts["iterations"] += out.g_hat
    counts["declarations"] += out.g_hat


def _sic(args, out, counts):
    counts["declarations"] += out.g_hat
    counts["cancelled_pairs"] += int(args["fld"].subtracted.sum())


def _sic_iteration(args, out, counts):
    counts["iterations"] += 1


def _joint(args, out, counts):
    counts["declarations"] += out.g_hat
    enumerated, kept = joint_tuple_counts(args["cache"], args["n_targets"])
    counts["joint_tuples"] += enumerated
    counts["joint_kept"] += kept


HOOKS = {
    "_kernels.path_objective": _gather,
    "likelihood.correlate_all": _correlate,
    "estimators.ssr_run": _ssr,
    "estimators.sic_run": _sic,
    "estimators.sic_modified_term": _sic_iteration,
    "estimators.joint_search": _joint,
}

def joint_tuple_counts(cache, n_targets: int, tol_samples: float = 1.0):
    """(tuples the joint search enumerates, tuples left after its
    delay-gap mask) for one call: C(usable cells, G), and the G-cliques
    of the pairwise gap-ok graph on those cells."""
    usable = ~cache.out_of_window.any(axis=0)
    n = int(usable.sum())
    tol = tol_samples * cache.waveforms.Ts
    ok = np.ones((n, n), dtype=bool)
    for row in cache.delays[:, usable]:
        ok &= np.abs(row[None, :] - row[:, None]) >= tol
    np.fill_diagonal(ok, False)
    a = ok.astype(np.int64)
    if n_targets == 1:
        kept = n
    elif n_targets == 2:
        kept = int(a.sum()) // 2
    else:
        kept = int(np.trace(a @ a @ a)) // 6
    return math.comb(n, n_targets), kept


def lag_use_frac(cache) -> float:
    """Mean over paths of the lag span the grid's gathers reach, as a share
    of the correlation length correlate_all computes."""
    taps = cache.taps.shape[-1]
    fracs = []
    for base, oow in zip(cache.gather_base, cache.out_of_window):
        b = base[~oow]
        if len(b):
            fracs.append((int(b.max()) + taps - int(b.min()))
                         / (cache.nfft + taps))
    return float(np.mean(fracs)) if fracs else 0.0


def per_layer_metrics(rec, cache, traced_tps: float,
                      untraced_tps: float) -> dict[str, float]:
    """Per-layer values from a tracing Recorder after its timed phase."""
    trials = len(rec.windows)
    run = rec.totals("trials")
    setup = rec.totals("setup")
    counts = rec.counts

    def ms(name, col=1):
        return run[name][col] * 1e3 / trials if name in run else 0.0

    def calls(name):
        return run[name][0] / trials if name in run else 0.0

    trial_ms = float(np.mean(rec.trial_ms()))
    calib = run.get("estimators.calibrate_threshold")
    return {
        "signal.synth_ms": ms("signal.synthesize_observation"),
        "signal.synth_calls": calls("signal.synthesize_observation"),
        "signal.whiten_ms": ms("signal.whiten"),
        "signal.whiten_calls": calls("signal.whiten"),
        "signal.reference_energies_s": setup["signal.reference_energies"][1],
        "estimators.h0_noise_ms": ms("estimators.h0_objective_peaks", 2),
        "likelihood.objective_field_ms": ms("likelihood.objective_field"),
        "likelihood.correlate_ms": ms("likelihood.correlate_all"),
        "likelihood.field_self_ms": ms("likelihood.objective_field", 2),
        "likelihood.fft_points": counts["fft_points"] / trials,
        "likelihood.lag_use_frac": lag_use_frac(cache),
        "likelihood.replica_cache_s": setup["likelihood.ReplicaCache"][1],
        "geometry.grid_delays_s": setup["geometry.grid_delays"][1],
        "kernels.gather_ms": ms("_kernels.path_objective"),
        "kernels.gather_cells": counts["gather_cells"] / trials,
        "kernels.gather_bytes": counts["gather_bytes"] / trials,
        "kernels.gather_share": ms("_kernels.path_objective") / trial_ms,
        "estimators.ssr_ms": ms("estimators.ssr_run"),
        "estimators.sic_ms": ms("estimators.sic_run"),
        "estimators.iterations": counts["iterations"] / trials,
        "estimators.declarations": counts["declarations"] / trials,
        "estimators.cancelled_pairs": counts["cancelled_pairs"] / trials,
        "estimators.joint_ms": ms("estimators.joint_search"),
        "estimators.joint_tuples": counts["joint_tuples"] / trials,
        "estimators.joint_keep_frac":
            (counts["joint_kept"] / counts["joint_tuples"]
             if counts["joint_tuples"] else 0.0),
        "estimators.calibrate_s": calib[1] / calib[0] if calib else 0.0,
        "harness.run_trial_ms": ms("harness.run_trial"),
        "harness.associate_ms": ms("harness.associate"),
        "harness.io_ms": ms("harness.append_trial_rows")
                         + ms("harness.export_csv"),
        "tracing.overhead_trials_per_s": traced_tps - untraced_tps,
        "tracing.unattributed_ms": float(np.mean(rec.uncovered_ms(ENVELOPES))),
    }
