"""Shared pieces of the benchmark: paths, problem sizes, process memory.

Every module of the benchmark imports the program from ``src/`` of the
checkout it runs in; :func:`program_available` is the guard that makes the
benchmark refuse to run (without a result) where that source is missing.
"""

from __future__ import annotations

import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: run artefacts (span dumps, steadiness tables, temp files); gitignored
OUT_DIR = ROOT / ".perfbench"


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Put the checkout's ``src`` first on the import path (this process
    and every child it starts) and keep temp files inside the checkout."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.environ.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark profile."""

    # advect: Algorithm 2 on a uniform periodic cubic mesh
    adv_nx: int
    adv_nv: int
    adv_check_cols: int  #: columns compared with the analytic solution per step
    adv_setup_reps: int  #: more than the others: one advect set-up is short
    # solve_bulk: (n, cols) blocks through map_batches on 2 worker processes
    bulk_n: int
    bulk_cols: int
    # serve_mixed: one client, closed loop, fixed window
    srv_n: int
    small_cols: int
    large_cols: int
    window: int
    round_len: int  #: requests per round; exactly one of them is large
    # all workloads
    sample_cols: int  #: seeded columns per block/reply for the backward error
    setup_reps: int
    # traced run: layer probes
    probe_min_bytes: int  #: kernel/bandwidth arrays are at least this big
    probe_reps: int
    traced_short_s: float  #: traced pass of the workloads not selected


FULL = Sizes(
    adv_nx=1024, adv_nv=2048, adv_check_cols=16, adv_setup_reps=21,
    bulk_n=1000, bulk_cols=16384,
    srv_n=1000, small_cols=8, large_cols=2048, window=16, round_len=128,
    sample_cols=8, setup_reps=7,
    probe_min_bytes=0, probe_reps=3, traced_short_s=3.0,
)

TINY = Sizes(
    adv_nx=64, adv_nv=32, adv_check_cols=4, adv_setup_reps=2,
    bulk_n=64, bulk_cols=256,
    srv_n=64, small_cols=8, large_cols=64, window=4, round_len=16,
    sample_cols=4, setup_reps=2,
    probe_min_bytes=4 << 20, probe_reps=2, traced_short_s=0.2,
)


def l3_bytes() -> int:
    """Last-level cache size as the kernel reports it (what ``lscpu`` shows)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            text = (index / "size").read_text().strip().upper()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        return int(text.rstrip("KMG")) * scale
    return 32 << 20


def probe_bytes(sizes: Sizes) -> int:
    """Bandwidth arrays are four times the L3, unless the profile pins them."""
    return sizes.probe_min_bytes or 4 * l3_bytes()


def vm_hwm_kb(pid) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> list:
    """Direct children of *pid*, from ``/proc/*/stat``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # comm may hold spaces; the fields after the closing paren are fixed
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident sets of *pids*, in MB (1e6 bytes)."""
    return sum(vm_hwm_kb(p) for p in pids) * 1024 / 1e6


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    The program's shared-memory transport starts that helper process on
    first use and leaves it to exit after this one; stopping it here means
    a run leaves no process of its own behind.  It uses the tracker's
    private ``_stop``, which exists on every supported Python.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of *values* (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
