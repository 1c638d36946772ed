"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload horizon_tu_m100 --seed 0 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the workload, the seed and the environment.  A run
with tracing also writes its spans to ``bench/.work/``.
"""

import argparse
import json
import os
import sys

PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread for this process; numpy reads this at import."""
    for var in PINS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    pin_blas_threads()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        out = harness.run_workload(
            harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    values = [m["value"] for m in result["metrics"].values()]
    if not all(v == v and abs(v) != float("inf") for v in values):
        print(f"error: no horizon completed: {out['detail']['first_failure']}", file=sys.stderr)
        return 1
    if out["detail"]["first_failure"]:
        print(f"failed {out['detail']['first_failure']}", file=sys.stderr)
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
