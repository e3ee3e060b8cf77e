"""Layer probes of the traced run: kernel stages, builder, memcpy, protocol.

Bandwidth arrays are at least four times the L3 the kernel reports, so
every sweep streams from memory.  Bytes moved are *computed* by
``repro.perfmodel.counters`` from array sizes, not measured.  Each probe
is a span around one call into the layer's public function; its metric is
the median over ``sizes.probe_reps`` calls.
"""

from __future__ import annotations

import numpy as np

from common import median, probe_bytes
from workloads import NUM_WORKERS, bulk_specs

STAGES = ("q_solve", "lambda_corner", "delta_getrs", "beta_corner")


def _timed(tracer, name: str, reps: int, call) -> float:
    times = []
    for _ in range(reps):
        with tracer.span(name) as span:
            call()
        times.append(span.seconds)
    return median(times)


def _fill(buf: np.ndarray, rng: np.random.Generator) -> None:
    """Seeded values, tiled from one small block at memcpy speed."""
    base = rng.standard_normal((buf.shape[0], min(4096, buf.shape[1])))
    for lo in range(0, buf.shape[1], base.shape[1]):
        hi = min(lo + base.shape[1], buf.shape[1])
        buf[:, lo:hi] = base[:, : hi - lo]


def probe_kernels(sizes, seed: int, tracer) -> dict:
    """Algorithm 1 stages and the whole builder solve on a large block."""
    from repro import SplineBuilder
    from repro.kbatched import coo_spmm
    from repro.perfmodel import counters

    n = sizes.bulk_n
    cols = -(-probe_bytes(sizes) // (n * 8))
    rng = np.random.default_rng(seed)
    reps = sizes.probe_reps
    out = {}
    buf = np.empty((n, cols))
    _fill(buf, rng)
    dst = np.empty_like(buf)
    memcpy_s = _timed(tracer, "host.memcpy", reps, lambda: np.copyto(dst, buf))
    del dst
    memcpy_gbs = 2.0 * buf.nbytes / memcpy_s / 1e9
    out["host.memcpy_gbs"] = (memcpy_gbs, "GB/s")
    for label, spec in bulk_specs(n).items():
        builder = SplineBuilder(spec, version=2)
        s = builder.solver
        b0, b1 = buf[: s.m], buf[s.m :]
        nnz = s.corner_nnz
        stage_calls = {
            "q_solve": lambda: s.q_plan.solve(b0),
            "lambda_corner": lambda: coo_spmm(-1.0, s.lam_coo, b0, b1),
            "delta_getrs": lambda: s.delta_plan.solve(b1),
            "beta_corner": lambda: coo_spmm(-1.0, s.beta_coo, b1, b0),
        }
        stage_bytes = {
            "q_solve": counters.solver_traffic(s.m, cols, label, spec.degree),
            "lambda_corner": counters.sparse_corner_traffic(cols, nnz["lambda"], 0),
            "delta_getrs": counters.solver_traffic(n - s.m, cols, "getrs"),
            "beta_corner": counters.sparse_corner_traffic(cols, 0, nnz["beta"]),
        }
        stage_s = {stage: [] for stage in STAGES}
        for _ in range(reps):  # the stages in Algorithm 1 order, repeatedly
            for stage in STAGES:
                with tracer.span(f"kbatched.{stage}") as span:
                    stage_calls[stage]()
                stage_s[stage].append(span.seconds)
        for stage in STAGES:
            seconds = median(stage_s[stage])
            out[f"kbatched.{stage}_s.{label}"] = (seconds, "s")
            out[f"kbatched.{stage}_gbs.{label}"] = (
                stage_bytes[stage].total_bytes / seconds / 1e9, "GB/s"
            )
        solve_s = _timed(
            tracer, "builder.solve", reps, lambda: builder.solve(buf, in_place=True)
        )
        traffic = counters.version_traffic(
            n, cols, 2, label, spec.degree, nnz["lambda"], nnz["beta"]
        )
        gbs = traffic.total_bytes / solve_s / 1e9
        out[f"builder.solve_gbs.{label}"] = (gbs, "GB/s")
        out[f"builder.solve_memcpy_frac.{label}"] = (gbs / memcpy_gbs, "ratio")
    return out


def probe_large_payload(sizes, seed: int, tracer) -> dict:
    """Protocol encode/decode and the in-process engine on one large request."""
    from repro import BSplineSpec
    from repro.runtime import EngineConfig, SolveEngine
    from repro.service import protocol

    n = sizes.srv_n
    spec = BSplineSpec(degree=3, n_points=n, uniform=True)
    large = np.random.default_rng(seed).standard_normal((n, sizes.large_cols))
    reps = max(5, sizes.probe_reps)
    out = {}
    req = protocol.Request(id=1, spec=spec, rhs=large)
    frame = protocol.encode_request(req)
    payload = frame[protocol.HEADER_SIZE :]
    result = protocol.encode_result(1, large)[protocol.HEADER_SIZE :]
    calls = {
        "encode_request": lambda: protocol.encode_request(req),
        "decode_request": lambda: protocol.decode_request(payload),
        "encode_result": lambda: protocol.encode_result(1, large),
        "decode_result": lambda: protocol.decode_result(result),
    }
    for name, call in calls.items():
        seconds = _timed(tracer, f"protocol.{name}", reps, call)
        out[f"protocol.{name}_gbs"] = (large.nbytes / seconds / 1e9, "GB/s")
    with SolveEngine(EngineConfig(executor="threads", num_workers=NUM_WORKERS)) as engine:
        engine.solve(spec, large)  # factorize outside the timing
        seconds = _timed(tracer, "engine.solve", reps, lambda: engine.solve(spec, large))
    out["engine.solve_large_ms"] = (seconds * 1e3, "ms")
    return out
