"""The benchmark's self-test: every check rejects a deliberately wrong output.

Runs in a few seconds at tiny sizes: ``python3 perfbench/run.py --selftest``.
Each case feeds one check a correct output (it must pass) and a corrupted
copy (it must fail): a flipped coefficient for the backward error, a
one-ulp change for bitwise parity, a mass-preserving local error for the
analytic advection check and a uniform offset for the mass check.
"""

from __future__ import annotations

import numpy as np

from refs import CollocationReference, FourierField, bitwise_equal, mass_tolerance
from workloads import advect_errors, bulk_specs


def _cases():
    from repro import BSplineSpec, SplineBuilder
    from repro.advection import BatchedAdvection1D

    rng = np.random.default_rng(7)
    for label, spec in bulk_specs(64).items():
        ref = CollocationReference(spec)
        yield f"reference {label}: partition of unity", np.allclose(
            ref.matrix @ np.ones(ref.n), 1.0, rtol=0, atol=1e-14
        ), True
        b = rng.standard_normal((ref.n, 4))
        x = SplineBuilder(spec, version=2).solve(b)
        flipped = x.copy()
        flipped[ref.n // 2, 1] *= -1.0
        yield f"backward error {label}: solved", ref.accepts(x, b), True
        yield f"backward error {label}: flipped coefficient", ref.accepts(flipped, b), False
        nudged = x.copy()
        nudged[3, 2] = np.nextafter(nudged[3, 2], np.inf)
        yield f"bitwise {label}: same bits", bitwise_equal(x, x.copy()), True
        yield f"bitwise {label}: one ulp", bitwise_equal(x, nudged), False

    nx, nv, steps = 64, 8, 3
    field = FourierField(rng)
    velocities = rng.uniform(-1.0, 1.0, nv)
    dt = 0.37 / nx
    adv = BatchedAdvection1D(
        SplineBuilder(BSplineSpec(degree=3, n_points=nx), version=2), velocities, dt
    )
    x = adv.builder.interpolation_points()
    f = np.tile(field(x), (nv, 1))
    mass0 = f.sum(axis=1)
    f = adv.run(f, steps)
    cols = np.arange(nv)
    bound, mass_tol = field.error_bound(1.0 / nx, steps), mass_tolerance(nx, steps)

    def verdicts(g):
        err, mass_err = advect_errors(field, x, velocities, dt, steps, g, cols, mass0)
        return err <= bound, mass_err <= mass_tol

    analytic_ok, mass_ok = verdicts(f)
    yield "advect analytic: correct field", analytic_ok, True
    yield "advect mass: correct field", mass_ok, True
    local = f.copy()
    local[2, 5] += 1e-2  # moves mass from one node to the next: mass stays
    local[2, 6] -= 1e-2
    analytic_ok, mass_ok = verdicts(local)
    yield "advect analytic: local error", analytic_ok, False
    yield "advect mass: local error keeps mass", mass_ok, True
    offset = f.copy()
    offset[4] += 1e-9  # far inside the analytic bound, but a wrong mass
    analytic_ok, mass_ok = verdicts(offset)
    yield "advect analytic: tiny offset within bound", analytic_ok, True
    yield "advect mass: wrong mass", mass_ok, False


def main() -> int:
    failures = 0
    for name, got, want in _cases():
        good = bool(got) == want
        failures += not good
        print(f"selftest {'ok  ' if good else 'FAIL'} {name} "
              f"({'accepted' if got else 'rejected'})")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0
