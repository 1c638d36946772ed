"""Repeat benchmark runs over seeds, summarize them, and compare two trees.

Summary of this checkout, one run per seed and workload, plus one traced run
per workload, written as a trajectory point:

    python3 bench/collect.py --seeds 0-9 --out bench/BENCH_2.json

Paired comparison against a parent checkout that holds an identical copy of
``bench/`` (the change is this checkout); the order alternates per pair:

    python3 bench/collect.py --seeds 0-9 --parent ../parent-checkout

A comparison flags a regression when a change run fails a slot that its
parent pair passes, or when a decision-quality metric, which repeats exactly
for a seed, is worse than the parent on any seed; either one blocks every
gain on that workload.  Runs are sequential, one process at a time, each for
``run_seconds`` of ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SECONDS = SPEC["run_seconds"]
# Decision-quality metrics that repeat exactly for a given seed: compared per seed.
EXACT = ("comfort_gain_share", "rho_post_mean", "oracle_ratio_min")


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"detail": json.loads(detail_line), "result": json.loads(result_line)}


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0, "values": values}


def summarize(runs: list) -> dict:
    names = runs[0]["result"]["metrics"]
    return {
        name: dict(quartiles([r["result"]["metrics"][name]["value"] for r in runs]),
                   unit=runs[0]["result"]["metrics"][name]["unit"])
        for name in names
    }


def collect(args, workloads: list) -> dict:
    out = {"seeds": args.seeds, "seconds": SECONDS, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(ROOT, workload, seed, 0))
            print(f"{workload} seed {seed}: {runs[-1]['result']['metrics']['slot_ms_p50']['value']:.2f} ms p50",
                  file=sys.stderr)
        entry = {
            "runs": len(runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": summarize(runs),
        }
        traced = run_once(ROOT, workload, args.seeds[0], 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out["workloads"][workload] = entry
        out["environment"] = runs[-1]["detail"]["environment"]
    return out


def worse_share(name: str, parent: float, change: float) -> float:
    delta = (change - parent) / abs(parent) if parent else 0.0
    return delta if BETTER[name] == "lower" else -delta


def gate_check(seeds: list, sides: dict) -> dict:
    """Per-seed comparison of the correctness gate and of the exact metrics."""
    worse = []
    for seed, p, c in zip(seeds, sides["parent"], sides["change"]):
        p, c = p["result"], c["result"]
        if c["failed"] > p["failed"] or (p["correct"] and not c["correct"]):
            worse.append(f"seed {seed}: {c['failed']} failed slots, parent {p['failed']}")
        for name in EXACT:
            a, b = p["metrics"][name]["value"], c["metrics"][name]["value"]
            if worse_share(name, a, b) > 1e-9:
                worse.append(f"seed {seed}: {name} {b!r}, parent {a!r}")
    out = {side: {"failed": sum(r["result"]["failed"] for r in runs),
                  "attempted": sum(r["result"]["attempted"] for r in runs)}
           for side, runs in sides.items()}
    out["worse_seeds"] = worse
    out["regression"] = bool(worse)
    return out


def compare(args, workloads: list) -> dict:
    parent_root = Path(args.parent).resolve()
    for path in sorted(BENCH_DIR.glob("*.py")):
        other = parent_root / "bench" / path.name
        if not other.is_file() or other.read_bytes() != path.read_bytes():
            raise SystemExit(f"{other} differs from {path}: both sides need the same benchmark")
    out = {"seeds": args.seeds, "seconds": SECONDS, "workloads": {}}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = [("parent", parent_root), ("change", ROOT)]
            for side, root in order if i % 2 == 0 else order[::-1]:
                sides[side].append(run_once(root, workload, seed, 0))
        gate = gate_check(args.seeds, sides)
        for line in gate["worse_seeds"]:
            print(f"{workload:28s} REGRESSION {line}", file=sys.stderr)
        rows = {}
        for name in sides["parent"][0]["result"]["metrics"]:
            p = [r["result"]["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["result"]["metrics"][name]["value"] for r in sides["change"]]
            wins = sum(worse_share(name, a, b) < 0 for a, b in zip(p, c))
            losses = sum(worse_share(name, a, b) > 0 for a, b in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            gain = (not gate["regression"] and wins >= 0.9 * len(p)
                    and abs(cq["median"] - pq["median"]) > pq["q3"] - pq["q1"])
            worse = worse_share(name, pq["median"], cq["median"])
            rows[name] = {
                "parent": pq, "change": cq, "wins": wins, "losses": losses, "pairs": len(p),
                "gain": gain,
                "median_worse_share": worse,
                "regression": name in BOUND and worse > BOUND[name],
            }
            print(f"{workload:28s} {name:18s} parent {pq['median']:.6g} change {cq['median']:.6g} "
                  f"wins {wins}/{len(p)}{'  GAIN' if gain else ''}"
                  f"{'  REGRESSION' if rows[name]['regression'] else ''}", file=sys.stderr)
        out["workloads"][workload] = {"gate": gate, "metrics": rows}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--parent", help="parent checkout for a paired comparison")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    started = time.time()
    doc = compare(args, workloads) if args.parent else collect(args, workloads)
    doc["wall_s"] = round(time.time() - started, 1)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
