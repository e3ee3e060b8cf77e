"""The three workloads: ``advect``, ``solve_bulk`` and ``serve_mixed``.

Each runner makes its inputs from the seed, times its set-up several times
(:class:`SetupClock`), then attempts whole rounds of the same operations
until ``seconds`` have passed, checking every operation against the
independent references of :mod:`refs`.  A check that fails marks its
operation failed; nothing stops the run early.  Timings are medians over
the operations after the first round, so a slow spell of the shared host
that covers less than half a run does not move them.  With a
:class:`~spans.Tracer` the same loop also records spans around the calls
into each layer and returns that layer's metrics.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import time

import numpy as np

from common import BENCH_DIR, child_pids, median, peak_rss_mb, quantile
from refs import (
    CollocationReference,
    FourierField,
    bitwise_equal,
    mass_tolerance,
)

perf = time.perf_counter

#: worker threads or processes behind every engine: the host has two cores
NUM_WORKERS = 2


class Outcome:
    """What one workload run measured and how its operations fared."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}  # end-to-end: name -> (value, unit)
        self.layer: dict = {}  # per-layer (traced passes only)
        self.notes: list = []
        self.references: list = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def note_references(self) -> None:
        for label, ref in self.references:
            self.note(
                f"{label}: kappa_inf={ref.kappa:.4g} bound={ref.bound:.3g} "
                f"worst backward error/bound={ref.worst_ratio:.3g}"
            )


#: leading operations of a run that fill caches and pools; they are checked
#: and counted but left out of the timing statistics
WARMUP_OPS = 1


class SetupClock:
    """Times a workload's set-up, repeated ``reps`` times.

    Host speed drifts over seconds, so the repetitions are split: the first
    half runs before the timed phase (the last of them is kept for it), the
    rest after it, and ``setup_s`` is the median of all of them.
    """

    def __init__(self, reps: int, make, teardown) -> None:
        self.reps, self.make, self.teardown = reps, make, teardown
        self.times: list = []

    def _one(self):
        t0 = perf()
        made = self.make()
        self.times.append(perf() - t0)
        return made

    def before(self):
        made = self._one()
        for _ in range((self.reps + 1) // 2 - 1):
            self.teardown(made)
            made = self._one()
        return made

    def after(self) -> None:
        for _ in range(self.reps // 2):
            self.teardown(self._one())

    @property
    def seconds(self) -> float:
        return median(self.times)

    def note(self) -> str:
        return "setup repetitions (s): " + " ".join(f"{t:.3f}" for t in self.times)


# -- advect ------------------------------------------------------------------


def advect_errors(field, x, velocities, dt, steps, f, cols, mass0) -> tuple:
    """Max error of columns *cols* against ``f0(x − v·t)``, and the largest
    relative change of any column's discrete mass."""
    exact = field(x[None, :] - (steps * dt) * velocities[cols, None])
    err = float(np.abs(f[cols] - exact).max())
    mass_err = float(np.max(np.abs(f.sum(axis=1) - mass0) / np.abs(mass0)))
    return err, mass_err


def run_advect(sizes, seed: int, seconds: float, tracer=None, setup_reps=None) -> Outcome:
    """Algorithm 2 on a uniform periodic cubic mesh, direct builder, no engine."""
    from repro import BSplineSpec, SplineBuilder
    from repro.advection import BatchedAdvection1D, semilag

    out = Outcome()
    nx, nv = sizes.adv_nx, sizes.adv_nv
    rng = np.random.default_rng(seed)
    field = FourierField(rng)
    velocities = rng.uniform(-1.0, 1.0, nv)
    dt = 0.37 / nx  # a fraction of a cell, so every foot falls between nodes
    spec = BSplineSpec(degree=3, n_points=nx, uniform=True)

    def make():
        builder = SplineBuilder(spec, version=2)
        return BatchedAdvection1D(builder, velocities, dt)

    setup = SetupClock(setup_reps or sizes.adv_setup_reps, make, lambda adv: None)
    adv = setup.before()
    x = adv.builder.interpolation_points()
    f = np.tile(field(x), (nv, 1))
    mass0 = f.sum(axis=1)
    check_rng = np.random.default_rng(seed + 1)

    step_traces = []
    if tracer is not None:
        tracer.wrap(semilag, "transpose_to_x_major", "advection.transpose")
        tracer.wrap(semilag, "transpose_to_batch_major", "advection.transpose")
        tracer.wrap(adv.evaluator, "eval_batched", "evaluator.eval")
        tracer.wrap(adv.builder, "solve", "builder.solve")
    steps, good_ms = 0, []
    start = perf()
    try:
        while steps <= WARMUP_OPS or perf() - start < seconds:
            t0 = perf()
            if tracer is not None:
                trace = tracer.new_trace()
                step_traces.append(trace)
                with tracer.span("advect.step", trace):
                    f = adv.step(f)
            else:
                f = adv.step(f)
            step_ms = (perf() - t0) * 1e3
            steps += 1
            cols = check_rng.choice(nv, size=sizes.adv_check_cols, replace=False)
            err, mass_err = advect_errors(field, x, velocities, dt, steps, f, cols, mass0)
            ok = err <= field.error_bound(1.0 / nx, steps) and mass_err <= mass_tolerance(nx, steps)
            out.op(ok)
            if ok and steps > WARMUP_OPS:
                good_ms.append(step_ms)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    setup.after()
    out.note(
        f"advect: {steps} steps of {nx}x{nv}; last analytic error {err:.3g} "
        f"(bound {field.error_bound(1.0 / nx, steps):.3g}), mass error {mass_err:.3g}"
    )
    out.note(f"advect: {setup.note()}")
    out.metric("setup_s", setup.seconds, "s")
    out.metric("glups", nx * nv * 1e-6 / median(good_ms), "GLUPS")
    out.metric("peak_rss_mb", peak_rss_mb([os.getpid()]), "MB")
    if tracer is not None:
        out.layer = {
            "evaluator.eval_s": (median(tracer.per_trace("evaluator.eval", step_traces)), "s"),
            "advection.transpose_s": (median(tracer.per_trace("advection.transpose", step_traces)), "s"),
            "builder.step_solve_s": (median(tracer.per_trace("builder.solve", step_traces)), "s"),
        }
    return out


# -- solve_bulk ----------------------------------------------------------------


def bulk_specs(n: int) -> dict:
    """The two matrix types, keyed by the Table I solver of their Q block."""
    from repro import BSplineSpec

    return {
        "pttrs": BSplineSpec(degree=3, n_points=n, uniform=True),
        "gbtrs": BSplineSpec(degree=5, n_points=n, uniform=False),
    }


def run_solve_bulk(sizes, seed: int, seconds: float, tracer=None, setup_reps=None) -> Outcome:
    """Bulk blocks through ``map_batches`` on the process-sharded executor."""
    from repro import SplineBuilder
    from repro.runtime import EngineConfig, SolveEngine

    out = Outcome()
    n, cols = sizes.bulk_n, sizes.bulk_cols
    rng = np.random.default_rng(seed)
    specs = bulk_specs(n)
    blocks = {k: rng.standard_normal((n, cols)) for k in specs}
    warm = {k: rng.standard_normal((n, 2)) for k in specs}
    refs = {k: CollocationReference(spec) for k, spec in specs.items()}
    direct = {k: SplineBuilder(spec, version=2) for k, spec in specs.items()}
    out.references = [(f"solve_bulk {k}", r) for k, r in refs.items()]
    check_rng = np.random.default_rng(seed + 1)

    def make():
        engine = SolveEngine(EngineConfig(executor="processes", num_workers=NUM_WORKERS))
        for k, spec in specs.items():  # factorize in the engine and every worker
            engine.map_batches(spec, [warm[k]])
        return engine

    setup = SetupClock(setup_reps or sizes.setup_reps, make, lambda e: e.shutdown())
    engine = setup.before()
    round_ms = []
    block_traces = []
    try:
        start = perf()
        rounds = 0
        while rounds <= WARMUP_OPS or perf() - start < seconds:
            this_round, round_ok = [], True
            for k, spec in specs.items():
                t0 = perf()
                if tracer is not None:
                    trace = tracer.new_trace()
                    block_traces.append(trace)
                    with tracer.span("engine.map_batches", trace):
                        x = engine.map_batches(spec, [blocks[k]])[0]
                else:
                    x = engine.map_batches(spec, [blocks[k]])[0]
                this_round.append((perf() - t0) * 1e3)
                sample = np.sort(check_rng.choice(cols, size=sizes.sample_cols, replace=False))
                b = blocks[k][:, sample]
                ok = refs[k].accepts(x[:, sample], b) and bitwise_equal(
                    x[:, sample], direct[k].solve(b)
                )
                out.op(ok)
                round_ok &= ok
                del x
                if tracer is not None:
                    with tracer.span("builder.copy_solve", trace):
                        direct[k].solve(blocks[k])
            rounds += 1
            if round_ok and rounds > WARMUP_OPS:
                round_ms.append(sum(this_round))
        pids = [os.getpid(), *child_pids(os.getpid())]
        out.metric("peak_rss_mb", peak_rss_mb(pids), "MB")
        if tracer is not None:
            with tracer.span("engine.telemetry_snapshot"):
                snap = engine.telemetry_snapshot()
            # merged worker series lose their quantiles; read each worker's
            with tracer.span("sharded.worker_snapshots"):
                workers = engine._sharded.worker_snapshots()
            out.layer = _bulk_layer(tracer, snap, workers)
    finally:
        engine.shutdown()
    setup.after()
    out.note(f"solve_bulk: {setup.note()}")
    out.note(f"solve_bulk: {out.attempted} blocks of {n}x{cols} in {rounds} rounds")
    out.note_references()
    out.metric("setup_s", setup.seconds, "s")
    out.metric("glups", n * cols * len(specs) * 1e-6 / median(round_ms), "GLUPS")
    return out


def _series(snap: dict, name: str, field: str, default=float("nan")) -> float:
    return float(snap.get("series", {}).get(name, {}).get(field, default))


def _bulk_layer(tracer, snap: dict, workers: list) -> dict:
    counters = snap.get("counters", {})
    shard_p50 = [_series(w, "worker.shard_solve.seconds", "p50") for w in workers]
    return {
        "engine.bulk_block_s": (median([s.seconds for s in tracer.named("engine.map_batches")]), "s"),
        "builder.copy_solve_block_s": (median([s.seconds for s in tracer.named("builder.copy_solve")]), "s"),
        "sharded.solve_p50_ms": (_series(snap, "sharded.solve.seconds", "p50") * 1e3, "ms"),
        "worker.shard_solve_p50_ms": (median([p for p in shard_p50 if p == p]) * 1e3, "ms"),
        "shm.lease_mb": (_series(snap, "shm.lease_bytes", "max", 0.0) / 1e6, "MB"),
        "sharded.requeued_shards": (float(counters.get("sharded.requeued_shards", 0)), "count"),
        "_plan_cache": _plan_counts(counters),
    }


def _plan_counts(counters: dict) -> tuple:
    return tuple(int(counters.get(f"plan_cache.{c}", 0)) for c in ("factorized", "hits", "misses"))


# -- serve_mixed ----------------------------------------------------------------

TENANTS = ("tenant-a", "tenant-b")


def start_server():
    """The solve service in its own process; returns ``(process, port)``."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "server_proc.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline().strip()
    if not line.isdigit():
        stop_server(proc)
        raise RuntimeError(f"solve service did not start (said {line!r})")
    return proc, int(line)


def stop_server(proc) -> None:
    """Close the server's stdin (its stop signal) and wait for it to exit."""
    try:
        proc.stdin.close()
        proc.wait(timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
    proc.stdout.close()


def run_serve_mixed(sizes, seed: int, seconds: float, tracer=None, setup_reps=None) -> Outcome:
    """One client, closed loop with a fixed window, two tenants alternating."""
    from repro import BSplineSpec, SplineBuilder
    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceError

    out = Outcome()
    n = sizes.srv_n
    spec = BSplineSpec(degree=3, n_points=n, uniform=True)
    rng = np.random.default_rng(seed)
    large_at = sizes.round_len // 2
    rhs = [
        rng.standard_normal((n, sizes.large_cols if i == large_at else sizes.small_cols))
        for i in range(sizes.round_len)
    ]
    warm = rng.standard_normal((n, 1))
    ref = CollocationReference(spec)
    out.references = [("serve_mixed", ref)]
    direct = SplineBuilder(spec, version=2)
    expected = [direct.solve(b) for b in rhs]
    check_rng = np.random.default_rng(seed + 1)

    def make():
        proc, port = start_server()
        client = ServiceClient("127.0.0.1", port, hedge_delay=0)
        client.solve(spec, warm, tenant=TENANTS[0])  # connect + factorize
        return proc, client

    def teardown(made):
        made[1].close()
        stop_server(made[0])

    setup = SetupClock(setup_reps or sizes.setup_reps, make, teardown)
    proc, client = setup.before()
    layer = {}
    try:
        if tracer is not None:
            layer.update(_serve_quiet_probes(tracer, client, spec, rhs[large_at]))
            tracer.wrap(protocol, "encode_request", "protocol.encode_request")
            tracer.wrap(protocol, "decode_result", "protocol.decode_result")
        done: queue.Queue = queue.Queue()
        small_ms, large_ms = [], []
        round_end, round_cols = {}, {}
        sent, inflight = 0, 0
        start = perf()
        sending = True
        while sending or inflight:
            while sending and inflight < sizes.window:
                seq = sent
                b = rhs[seq % sizes.round_len]
                t0 = perf()
                if tracer is not None:
                    trace = tracer.new_trace()
                    with tracer.span("client.submit", trace):
                        fut = client.submit(spec, b, tenant=TENANTS[seq % 2])
                else:
                    trace = None
                    fut = client.submit(spec, b, tenant=TENANTS[seq % 2])
                fut.add_done_callback(
                    lambda f, seq=seq, t0=t0, trace=trace: done.put((seq, t0, perf(), trace, f))
                )
                sent += 1
                inflight += 1
                rounds = sent // sizes.round_len
                if sent % sizes.round_len == 0 and rounds > WARMUP_OPS and perf() - start >= seconds:
                    sending = False
            seq, t0, t1, trace, fut = done.get(timeout=120)
            inflight -= 1
            i, r = seq % sizes.round_len, seq // sizes.round_len
            round_end[r] = max(round_end.get(r, t1), t1)
            if tracer is not None:
                tracer.record("client.request", t0, t1, trace)
            try:
                x = fut.result()
            except (ServiceError, ConnectionError) as exc:
                out.note(f"serve_mixed: request failed: {exc}")
                out.op(False)
                continue
            if i == large_at:
                sample = np.sort(check_rng.choice(x.shape[1], size=sizes.sample_cols, replace=False))
                ok = ref.accepts(x[:, sample], rhs[i][:, sample])
            else:
                ok = ref.accepts(x, rhs[i])
            ok = ok and bitwise_equal(x, expected[i])
            out.op(ok)
            round_cols[r] = round_cols.get(r, 0) + (x.shape[1] if ok else 0)
            if ok and r >= WARMUP_OPS:
                (large_ms if i == large_at else small_ms).append((t1 - t0) * 1e3)
        if tracer is not None:
            tracer.unwrap_all()
            with tracer.span("service.telemetry"):
                tel = client.telemetry()
            layer.update(_serve_layer(tel))
        client_mb = peak_rss_mb([os.getpid()])
        server_mb = peak_rss_mb([proc.pid, *child_pids(proc.pid)])
        out.metric("peak_rss_mb", client_mb + server_mb, "MB")
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        teardown((proc, client))
    setup.after()
    out.note(f"serve_mixed: {setup.note()}")
    segments = _segments(small_ms)
    beyond = min(sum(1 for v in seg if v > quantile(seg, 0.99)) for seg in segments)
    out.note(
        f"serve_mixed: {sent} requests in {sent // sizes.round_len} rounds; "
        f"{len(small_ms)} small samples in {len(segments)} segments (at least {beyond} "
        f"beyond each segment's p99), {len(large_ms)} large samples"
    )
    rates = _round_rates(start, round_end, round_cols, n)[WARMUP_OPS:]
    out.note(
        f"serve_mixed: per-round GLUPS min {min(rates):.4g} median {median(rates):.4g} "
        f"max {max(rates):.4g}; peak RSS client {client_mb:.1f} MB, server {server_mb:.1f} MB"
    )
    out.note_references()
    out.metric("setup_s", setup.seconds, "s")
    out.metric("glups", median(rates), "GLUPS")
    out.note(
        f"serve_mixed: small requests p50 {median([quantile(seg, 0.5) for seg in segments]):.4g} ms, "
        f"p99 {median([quantile(seg, 0.99) for seg in segments]):.4g} ms "
        f"(medians over segments); large requests p50 {median(large_ms):.4g} ms"
    )
    out.layer = layer
    return out


#: small-request latencies per segment: enough for ten samples beyond p99
SEGMENT = 1000


def _segments(samples: list) -> list:
    """Consecutive slices of at least :data:`SEGMENT` samples (one slice
    when there are fewer).  Latency quantiles are taken per slice and their
    median reported, so a slow spell of the host that covers less than half
    the run does not move them."""
    count = max(1, len(samples) // SEGMENT)
    bounds = [len(samples) * k // count for k in range(count + 1)]
    return [samples[a:b] for a, b in zip(bounds, bounds[1:])]


def _round_rates(start: float, round_end: dict, round_cols: dict, n: int) -> list:
    """GLUPS of each round: its correct columns over the time since the
    previous round's last reply."""
    rates, prev = [], start
    for r in sorted(round_end):
        rates.append(n * round_cols.get(r, 0) * 1e-9 / (round_end[r] - prev))
        prev = round_end[r]
    return rates


def _serve_quiet_probes(tracer, client, spec, large) -> dict:
    """Ping and lone large requests on the idle service, before the load."""
    pings = []
    for _ in range(50):
        with tracer.span("service.ping") as span:
            client.ping()
        pings.append(span.seconds)
    lone = []
    for _ in range(5):
        with tracer.span("service.large") as span:
            client.solve(spec, large, tenant=TENANTS[0])
        lone.append(span.seconds)
    return {"service.ping_ms": (median(pings) * 1e3, "ms"), "_large_alone_ms": median(lone) * 1e3}


def _serve_layer(tel: dict) -> dict:
    counters = tel.get("counters", {})
    return {
        "engine.batch_solve_p50_ms": (_series(tel, "engine.batch_solve.seconds", "p50") * 1e3, "ms"),
        "coalescer.batch_cols_mean": (_series(tel, "coalescer.batch_cols", "mean"), "cols"),
        "engine.batches_dispatched": (float(counters.get("engine.batches_dispatched", 0)), "count"),
        "engine.request_retries": (float(counters.get("engine.request_retries", 0)), "count"),
        "service.throttled": (float(counters.get("service.throttled", 0)), "count"),
        "_plan_cache": _plan_counts(counters),
    }


RUNNERS = {
    "advect": run_advect,
    "solve_bulk": run_solve_bulk,
    "serve_mixed": run_serve_mixed,
}
