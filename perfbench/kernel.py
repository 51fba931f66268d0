"""Frozen reference kernel used to cancel machine-speed drift.

The benchmark runs this kernel before the first op and after every op, and
scales the run's op times by ``NOMINAL_S / mean kernel time``.  On a shared
machine the speed changes between runs and within a run, on a scale shorter
than one op, and it does not change alike for every kind of work: a loop of
numpy micro-calls slows down more than scipy solver steps or plain Python.
So the kernel is made of the three kinds of work the ops do, each in about
the share it has in them:

* scalar adaptive Simpson quadrature of a sweep-phase-like integrand
  (``math`` calls, Python recursion), as in the protocol layer;
* scipy ``solve_ivp`` (RK45) on a 3-D oscillator with a small-numpy
  right-hand side, restarted once, as in the trajectory layer;
* float formatting of small dataclass records into CSV text, as in the
  tables and CLI layers.

This module must import nothing from ``ndspin``: a change to the program
may not move the yardstick.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

#: Nominal kernel duration (s).  A corrected time is the op time the
#: machine would give if the kernel took exactly this long.
NOMINAL_S = 0.02


def _simpson(f, a: float, b: float, tol: float) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
                + rec(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))

    m = 0.5 * (a + b)
    return rec(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 40)


def quadrature_kernel() -> float:
    total = 0.0
    for a in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45):
        def rate(u: float, a=a, d=1.0) -> float:
            s = a * (1.0 - math.cos(u))
            if not 0.0 <= s < d:
                raise ValueError("separation out of range")
            return 2.0 * s * s / (d * (d * d - s * s))

        total += _simpson(rate, 0.0, 2.0 * math.pi, 1e-11)
    return total


_OMEGA2 = np.array([1.0, 0.25, 0.25])


def _oscillator_rhs(_t, y, sign=1.0):
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("non-finite state")
    q = y[:3]
    J = np.diag(-_OMEGA2) * (1.0 + 0.01 * math.cos(float(q[0])))
    mu = sign * np.array([1.0, 0.0, 0.0]) + 0.1 * q
    return np.concatenate((y[3:], J @ q + 1e-3 * mu))


def ivp_kernel() -> float:
    y = np.array([1.0, 0.5, -0.25, 0.0, 0.1, 0.0])
    bounds = np.linspace(0.0, 4.0, 3)
    for k, (t0, t1) in enumerate(zip(bounds[:-1], bounds[1:])):
        sign = 1.0 if k % 2 == 0 else -1.0
        sol = solve_ivp(_oscillator_rhs, (t0, t1), y, method="RK45", rtol=1e-9,
                        atol=1e-12, dense_output=True, args=(sign,))
        y = sol.y[:, -1]
        sol.sol(np.linspace(t0, t1, 5))
    return float(y[0])


@dataclass(frozen=True)
class _Row:
    t: float
    x: float
    p: float


def tables_kernel() -> float:
    buf = io.StringIO()
    total = 0.0
    for i in range(600):
        t = 0.001 * i
        row = _Row(t=t, x=math.cos(t) * 1e-7, p=math.sin(t) * 1e-21)
        total += row.x
        buf.write(",".join(format(v, ".17g") for v in (row.t, row.x, row.p)) + "\n")
    return total + len(buf.getvalue())


def reference_kernel() -> float:
    """Run the kernel once; return a checksum so no work can be skipped."""
    return quadrature_kernel() + ivp_kernel() + tables_kernel()


def time_kernel() -> float:
    """Wall time (s) of one kernel run."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
