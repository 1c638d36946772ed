"""Self-test of the benchmark on a two-slot m = 20 smoke configuration.

    python3 bench/selftest.py

Checks that every named metric is emitted with its unit in both modes, that
set-up probes top up the set-up samples, that the package's names are
restored after a run, that a planted infeasible decision counts as a failed
slot, and that ``run.py`` fails without printing a result in a directory
holding only the benchmark.  Exits 0 when all hold.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

from run import pin_blas_threads

pin_blas_threads()

import numpy as np  # noqa: E402

import harness  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(metrics: dict, expected: dict) -> None:
    check(list(metrics) == list(expected), f"metric names {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        check(metrics[name]["unit"] == unit, f"{name} has unit {metrics[name]['unit']!r}")
        check(math.isfinite(metrics[name]["value"]), f"{name} is not finite")


def bindings() -> dict:
    return {(mod.__name__, attr): id(value)
            for mod in harness.package_modules() for attr, value in vars(mod).items()}


def main() -> int:
    smoke = harness.SMOKE
    run = harness.run_workload(smoke, seed=0, seconds=0.0, trace=False)
    plain = run["result"]
    check(plain["correct"] and plain["failed"] == 0, f"clean smoke run failed: {plain}")
    check(plain["attempted"] == 2 * smoke.num_steps, "two horizons of two slots")
    check(run["detail"]["setup_samples"] >= harness.SETUP_SAMPLES, "set-up probes top up samples")
    check_metrics(plain["metrics"], harness.END_TO_END)
    check(plain["metrics"]["slot_ok_share"]["value"] == 1.0, "clean run has ok share 1")

    before = bindings()
    traced = harness.run_workload(smoke, seed=0, seconds=0.0, trace=True)["result"]
    check(bindings() == before, "a traced run left a package name rebound")
    check(traced["correct"], f"traced smoke run failed: {traced}")
    check_metrics(traced["metrics"], harness.PER_LAYER)
    check(traced["metrics"]["solvers.solve_bruteforce.calls_per_slot"]["value"] == 1.0,
          "one oracle call per slot")

    def plant(results):
        bad = dataclasses.replace(results[0], alpha=np.ones(smoke.m))
        return [bad] + list(results[1:])

    planted = harness.run_workload(smoke, seed=0, seconds=0.0, trace=False, plant=plant)
    result = planted["result"]
    check(not result["correct"], "a planted infeasible decision went unnoticed")
    check(result["failed"] == 2, f"expected slot 1 of both horizons to fail, got {result['failed']}")
    check("slot 1: applied decision breaks" in planted["detail"]["first_failure"],
          f"wrong failure reason {planted['detail']['first_failure']!r}")
    check(result["metrics"]["slot_ok_share"]["value"] == 0.5, "ok share counts the planted slots")

    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracle_tu_m20",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py succeeded without the package source")
    check(not proc.stdout.strip(), f"run.py printed a result without the source: {proc.stdout!r}")

    print(json.dumps({"selftest": "ok", "smoke_metrics": plain["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
