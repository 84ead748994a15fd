"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py    # the same, under pytest

Runs every workload once, traced, at the shortest length (one pass), and
asserts that the run passes its checks and reports every end-to-end and
per-layer metric, each with a unit.  Also asserts that in a directory
holding only BENCHMARK.json and perfbench/ the benchmark fails without
printing a result.  Takes about two minutes on two cores.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_workload_reports_every_metric():
    spec = declared()
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        proc = bench(ROOT, w, 1)
        assert proc.returncode == 0, (w, proc.stdout, proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, (w, last)
        assert set(last["metrics"]) == per_layer, w
        for name, m in last["metrics"].items():
            assert isinstance(m["value"], (int, float)), (w, name)
            assert m["unit"], (w, name)
        with open(os.path.join(HERE, "out", f"{w}-trace1", "results.json"),
                  encoding="utf-8") as fh:
            results = json.load(fh)
        assert set(results["end_to_end"]) == set(END_TO_END), w
        for name in END_TO_END:
            assert results["units"][name], (w, name)
        for m in spec["end_to_end"]:
            assert results["end_to_end"][m["name"]] > 0, (w, m["name"])
            assert results["units"][m["name"]] == m["unit"], (w, m["name"])


def test_fails_without_the_program():
    bare = os.path.join(HERE, "out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(bare, declared()["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    test_fails_without_the_program()
    test_every_workload_reports_every_metric()
    print("perfbench smoke: ok")
