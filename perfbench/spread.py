"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload scan_cnn --seeds 0-9 [--trace 0]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure BENCHMARK.json's bounds are set against.  Each run is a separate
process, as it is for the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run
from record_refs import _seed_range


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seed_range, default=range(10))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall={wall:.1f}s "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        note = f" bound {bound}" if bound is not None else ""
        print(f"{name:<40} median {median:.6g} spread {spread:.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
