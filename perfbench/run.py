"""The benchmark's one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload advect --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --quick       # all workloads at tiny sizes + self-test
    python3 perfbench/run.py --selftest    # each check rejects a corrupted output

``--trace 0`` measures one workload and prints its end-to-end metrics.
``--trace 1`` is the layer run: layer probes, then a traced pass of every
workload (the selected one for ``--seconds``), printing every per-layer
metric; the spans go to ``.perfbench/spans-<workload>-<seed>.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Without the program's
source under ``src/`` the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    FULL,
    OUT_DIR,
    TINY,
    program_available,
    stop_resource_tracker,
    use_program,
)

#: ``serve_mixed`` is not in BENCHMARK.json (its figures follow the shared
#: host's drift too closely to gate on; see README.md), but it still runs
#: as the service pass of every traced run and on request
WORKLOADS = ("advect", "solve_bulk", "serve_mixed")

END_TO_END = ("setup_s", "glups", "peak_rss_mb")

PER_LAYER = (
    "evaluator.eval_s", "advection.transpose_s", "builder.step_solve_s",
    *(
        f"kbatched.{stage}_{kind}.{solver}"
        for kind in ("s", "gbs")
        for stage in ("q_solve", "lambda_corner", "delta_getrs", "beta_corner")
        for solver in ("pttrs", "gbtrs")
    ),
    "builder.solve_gbs.pttrs", "builder.solve_gbs.gbtrs",
    "builder.solve_memcpy_frac.pttrs", "builder.solve_memcpy_frac.gbtrs",
    "host.memcpy_gbs",
    "engine.bulk_block_s", "builder.copy_solve_block_s",
    "sharded.solve_p50_ms", "worker.shard_solve_p50_ms", "shm.lease_mb",
    "sharded.requeued_shards",
    "plan_cache.factorizations", "plan_cache.hit_ratio",
    "service.ping_ms", "engine.batch_solve_p50_ms", "coalescer.batch_cols_mean",
    "engine.batches_dispatched", "engine.request_retries", "service.throttled",
    "protocol.encode_request_gbs", "protocol.decode_request_gbs",
    "protocol.encode_result_gbs", "protocol.decode_result_gbs",
    "engine.solve_large_ms", "service.large_overhead_ms",
)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        # a metric left without samples: every operation of its kind failed
        correct = False
        metrics = {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_untraced(workload: str, seed: int, seconds: float, sizes) -> str:
    from workloads import RUNNERS

    out = RUNNERS[workload](sizes, seed, seconds)
    for line in out.notes:
        print(f"# {line}")
    metrics = {name: out.metrics[name] for name in END_TO_END}
    return _result(out.failed == 0 and out.attempted > 0, out.attempted, out.failed, metrics)


def run_traced(workload: str, seed: int, seconds: float, sizes) -> str:
    """Layer probes, then every workload with spans around its layer calls."""
    from layers import probe_kernels, probe_large_payload
    from spans import Tracer
    from workloads import RUNNERS

    tracer = Tracer()
    layer = {}
    layer.update(probe_kernels(sizes, seed, tracer))
    layer.update(probe_large_payload(sizes, seed, tracer))
    attempted = failed = 0
    plan = [0, 0, 0]  # factorized, hits, misses over the engine-backed passes
    for name in WORKLOADS:
        pass_s = seconds if name == workload else sizes.traced_short_s
        out = RUNNERS[name](sizes, seed, pass_s, tracer=tracer, setup_reps=1)
        for line in out.notes:
            print(f"# traced {line}")
        if name == workload:
            glups = out.metrics["glups"][0]
            print(f"# traced {name}: glups {glups:.6g} over {pass_s:g} s")
        attempted += out.attempted
        failed += out.failed
        counts = out.layer.pop("_plan_cache", (0, 0, 0))
        plan = [a + b for a, b in zip(plan, counts)]
        if "_large_alone_ms" in out.layer:
            alone = out.layer.pop("_large_alone_ms")
            layer["service.large_overhead_ms"] = (
                alone - layer["engine.solve_large_ms"][0], "ms"
            )
        layer.update(out.layer)
    lookups = plan[1] + plan[2]
    layer["plan_cache.factorizations"] = (float(plan[0]), "count")
    layer["plan_cache.hit_ratio"] = (plan[1] / lookups if lookups else 0.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.json")
    for name, count, total, own in tracer.summary():
        print(f"# span {name:32s} n={count:6d} total={total:9.4f}s self={own:9.4f}s")
    metrics = {name: layer[name] for name in PER_LAYER}
    return _result(failed == 0 and attempted > 0, attempted, failed, metrics)


def run_quick(seed: int) -> int:
    """Every workload at tiny sizes in its own process, then the self-test."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            good = bool(result and result["correct"] and result["failed"] == 0)
            ok &= good
            print(f"quick {workload:12s} trace={trace} {'ok' if good else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s)")
            if not good:
                print(proc.stdout[-2000:], proc.stderr[-4000:], sep="\n")
    from selftest import main as selftest

    return 0 if selftest() == 0 and ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not program_available():
        print("perfbench: the program's source (src/repro) is not in this "
              "checkout; nothing to measure", file=sys.stderr)
        return 2
    use_program()
    if args.quick:
        return run_quick(args.seed)
    if args.selftest:
        from selftest import main as selftest

        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    sizes = TINY if args.size == "tiny" else FULL
    run = run_traced if args.trace else run_untraced
    try:
        print(run(args.workload, args.seed, args.seconds, sizes))
    finally:
        stop_resource_tracker()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
