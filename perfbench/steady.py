"""Steadiness of the end-to-end metrics across repeated runs.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --seconds 45 [--workloads advect,...]

Runs every workload ``--runs`` times, each in a fresh process with its own
seed, rotating the workload order from round to round.  For each
(workload, metric) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (interquartile
distance over the median) and the smallest bound that keeps the spread
below a third of it.  The bounds in ``BENCHMARK.json`` are derived from
this table; the raw results go to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT_DIR

#: the workloads BENCHMARK.json gates on; add serve_mixed with --workloads
WORKLOADS = ("advect", "solve_bulk")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound_3x": 3 * spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[: r % len(workloads)]
        for w in order:
            t0 = time.perf_counter()
            res = run_once(w, args.first_seed + r, args.seconds)
            results[w].append(res)
            print(f"run {r} {w:12s} seed {args.first_seed + r} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} ({time.perf_counter() - t0:.0f} s)",
                  flush=True)
    table = {}
    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'3xspread':>8s}")
    for w, runs in results.items():
        table[w] = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            s = table[w][metric] = summarize(values)
            print(f"{w:12s} {metric:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {s['bound_3x']:8.4f}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{w:12s} failed share per run: {sorted(shares)}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps({"results": results, "table": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
