"""Independent correctness references the benchmark checks outputs against.

* :class:`CollocationReference` assembles the periodic collocation matrix
  with ``scipy.interpolate.BSpline.design_matrix`` over the program's
  breakpoints (folded periodically) and judges solved coefficients by
  their normwise backward error, against the bound ``c · κ∞ · eps`` with
  the condition number computed here from the dense reference matrix and
  ``c = n``, the order of Wilkinson's ``γ_n`` bound for elimination.  A
  tighter ``c`` is not used because the program's own matrix entries carry
  an O(n · eps) error (see ``CHANGES.md``); the worst ratio seen is
  printed with every run, so a drift towards the bound stays visible.
* :class:`FourierField` is the advect workload's initial field, a seeded
  sum of Fourier modes, whose exact solution ``f0(x − v·t)`` and a
  rigorous error bound for the periodic cubic spline scheme are known.
* :func:`bitwise_equal` is the program's bitwise-parity guarantee: an
  executor or the service must return exactly what a direct
  ``SplineBuilder.solve`` of the same columns returns.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def periodic_design_matrix(breaks: np.ndarray, degree: int, x: np.ndarray):
    """Sparse ``(len(x), n)`` periodic collocation matrix over *breaks*.

    The plain B-splines of the periodically extended knot vector
    ``t_{-d} .. t_{n+d}`` are evaluated by scipy; plain spline ``i`` starts
    at ``t_{i-d}`` and is periodic basis function ``(i - d) mod n``.
    """
    from scipy.interpolate import BSpline
    from scipy.sparse import coo_array

    breaks = np.asarray(breaks, dtype=np.float64)
    n = breaks.size - 1
    period = breaks[-1] - breaks[0]
    idx = np.arange(-degree, n + degree + 1)
    knots = breaks[idx % n] + period * np.floor_divide(idx, n)
    plain = BSpline.design_matrix(np.asarray(x, dtype=np.float64), knots, degree)
    plain = plain.tocoo()
    folded = coo_array(
        (plain.data, (plain.row, (plain.col - degree) % n)), shape=(len(x), n)
    )
    return folded.tocsr()  # duplicate (row, col) pairs are summed


class CollocationReference:
    """Backward-error judge for one spline configuration."""

    def __init__(self, spec) -> None:
        space = spec.make_space()
        self.n = space.nbasis
        self.points = np.asarray(space.greville, dtype=np.float64)
        self.matrix = periodic_design_matrix(space.breaks, spec.degree, self.points)
        dense = self.matrix.toarray()
        self.norm_inf = float(np.abs(dense).sum(axis=1).max())
        self.kappa = float(np.linalg.cond(dense, np.inf))
        self.bound = self.n * self.kappa * EPS
        #: worst backward error / bound seen by :meth:`accepts`
        self.worst_ratio = 0.0

    def backward_error(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-column ``‖A x − b‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)``."""
        x = np.asarray(x, dtype=np.float64).reshape(self.n, -1)
        b = np.asarray(b, dtype=np.float64).reshape(self.n, -1)
        r = self.matrix @ x - b
        scale = self.norm_inf * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
        return np.abs(r).max(axis=0) / scale

    def accepts(self, x: np.ndarray, b: np.ndarray) -> bool:
        err = self.backward_error(x, b)
        if not np.all(np.isfinite(err)):
            return False
        self.worst_ratio = max(self.worst_ratio, float(err.max()) / self.bound)
        return bool(np.all(err <= self.bound))


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when both arrays hold the very same float64 bit patterns."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != np.float64 or b.dtype != np.float64:
        return False
    return bool(np.array_equal(a.view(np.int64), b.view(np.int64)))


class FourierField:
    """``f0(x) = a0 + Σ a_k sin(2π k x + φ_k)`` on the unit period."""

    def __init__(self, rng: np.random.Generator, modes: int = 3, kmax: int = 4):
        self.a0 = 1.0
        self.k = rng.choice(np.arange(1, kmax + 1), size=modes, replace=False)
        self.amp = rng.uniform(0.1, 0.5, size=modes)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=modes)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.full(x.shape, self.a0)
        for k, a, p in zip(self.k, self.amp, self.phase):
            out += a * np.sin(2.0 * np.pi * k * x + p)
        return out

    def error_bound(self, h: float, steps: int) -> float:
        """Max-norm error bound after *steps* periodic cubic-spline shifts.

        One shift of Fourier mode ``k`` multiplies it by a factor ``g`` with
        ``|g| ≤ 1`` that differs from the exact phase by at most the cubic
        spline interpolation error ``(5/384) h⁴ (2πk)⁴``; the differences
        telescope, so ``steps`` shifts err by at most ``steps`` times that.
        Round-off adds ``steps · 64 · eps`` times the field's magnitude.
        """
        interp = (5.0 / 384.0) * h**4 * float(np.sum(self.amp * (2.0 * np.pi * self.k) ** 4))
        magnitude = self.a0 + float(np.sum(self.amp))
        return steps * (interp + 64.0 * EPS * magnitude)


def mass_tolerance(nx: int, steps: int) -> float:
    """Relative round-off allowed in a column's discrete mass after *steps*."""
    return max(1, steps) * nx * EPS
