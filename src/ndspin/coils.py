"""Exact static fields and gradients of circular loops and anti-Helmholtz
assemblies.

Each loop is reduced to four numbers (B_x, t, u, w) at the field point,
functions of the axial offset s = x - x_c and of rho^2 = y^2 + z^2 only.
Field and gradient are both built from them,

    B = (B_x, t y, t z),
    J = [[-2t - w rho^2, u y, u z],
         [u y, t + w y^2, w y z],
         [u z, w y z, t + w z^2]],

so J is symmetric and traceless by construction (curl- and divergence-free)
and nothing divides by rho on the axis.  Here t = B_rho / rho,
u = dt/ds = 2 dB_x/d(rho^2) and w = 2 dt/d(rho^2).

Away from the axis the four numbers come from the Biot-Savart closed form
with complete elliptic integrals K(m), E(m) and its analytic derivatives
(Simpson, Lane, Immer & Youngquist, NASA TM 2001): with r^2 = s^2 + rho^2,
a^2 = r_c^2 + r^2 - 2 r_c rho, b^2 = r_c^2 + r^2 + 2 r_c rho, m = 1 - a^2/b^2
and c = mu0 F / (2 pi a^2 b),

    B_x = c [(r_c^2 - r^2) E + a^2 K],
    t   = c s [(r_c^2 + r^2) E - a^2 K] / rho^2,
    g   = dB_x/ds = c s [(r^4 - 7 r_c^4 + 6 r_c^2 (rho^2 - s^2)) E
                         + a^2 (r_c^2 - r^2) K] / (a^2 b^2),
    u   = c [(a^2 b^2 (r_c^2 + rho^2 + 4 s^2) - 4 s^2 (r_c^2 + r^2)^2) E
             + a^2 (s^2 (r_c^2 + r^2) - a^2 b^2) K] / (a^2 b^2 rho^2),
    w   = (-g - 2t) / rho^2.

a is the distance to the wire circle, so a -> 0 flags the singular points.
Near the axis the same numbers come from the axial multipole series in the
k-th axial derivatives b_k of the on-axis field:
B_x = b0 - rho^2 b2/4, t = -b1/2 + rho^2 b3/16, u = -b2/2, w = b3/8.

Fields are treated as exactly static (no retardation), valid for coil sizes
far below the driving wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ellipe, ellipk

from .core import CONSTANTS, PhysicalConstants

__all__ = [
    "LoopSource",
    "CoilAssembly",
    "FieldSample",
    "UniformGradientField",
    "complete_elliptic_KE",
    "loop_field",
    "assembly_field",
    "field_jacobian",
    "field_map",
]

#: Switch-over to the near-axis series, as a fraction of the loop radius.
#: The closed form loses digits to cancellation as (r_c/rho)^2 and the
#: series to truncation as (rho/r_c)^4; they agree best here.  Worst error
#: against a line-integral Biot-Savart gradient (600 points, rho
#: log-uniform in 1e-5..3e-3 r_c, |x| <= 12 mm, 3 cm / 564 At anti-Helmholtz
#: pair), J relative to max|J| and B relative to mu0 F / (2 r_c):
#: switch at 1e-4 r_c: 6.4e-9 and 6.3e-13; at 5e-4 r_c: 2.1e-10 and 1.8e-13;
#: at 1e-3 r_c: 2.1e-9 and 6.4e-13.
_RHO_SERIES_FACTOR = 5e-4
#: Rejection radius around the wire circle, as a fraction of the loop radius.
_WIRE_EPS_FACTOR = 1e-9


@dataclass(frozen=True)
class LoopSource:
    """One circular loop: radius r_c, axial center x_c, magnetomotive force
    mmf (signed, ampere-turns)."""

    r_c: float
    x_c: float
    mmf: float

    def __post_init__(self) -> None:
        if not self.r_c > 0.0:
            raise ValueError("loop radius r_c must be > 0")


@dataclass(frozen=True)
class CoilAssembly:
    """Two coaxial loops; the anti-Helmholtz constructor enforces equal and
    opposite magnetomotive forces at symmetric axial positions +-d_c/2."""

    loops: tuple[LoopSource, LoopSource]

    @classmethod
    def anti_helmholtz(cls, r_c: float, d_c: float, mmf: float) -> "CoilAssembly":
        if not d_c > 0.0:
            raise ValueError("coil separation d_c must be > 0")
        # +mmf on the +x loop yields a positive central gradient dBx/dx.
        return cls(loops=(LoopSource(r_c=r_c, x_c=+0.5 * d_c, mmf=+mmf),
                          LoopSource(r_c=r_c, x_c=-0.5 * d_c, mmf=-mmf)))

    @property
    def d_c(self) -> float:
        return abs(self.loops[0].x_c - self.loops[1].x_c)

    def field_at(self, p: Sequence[float],
                 constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        return assembly_field(p, self, constants)

    def jacobian_at(self, p: Sequence[float],
                    constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        return field_jacobian(p, self, constants)


@dataclass(frozen=True)
class FieldSample:
    """One sampled point: position (x, y, z) in m and field (Bx, By, Bz) in T."""

    position: tuple[float, float, float]
    B: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (*self.position, *self.B)):
            raise ValueError("field sample has non-finite components")


class UniformGradientField:
    """Idealized trap field B = B' (x, -y/2, -z/2): divergence- and curl-free
    with a uniform axial gradient.  The small-bore limit of the assembly;
    used as the analytically solvable reference in the trajectory tests."""

    def __init__(self, Bprime: float):
        if not Bprime > 0.0:
            raise ValueError("Bprime must be > 0")
        self.Bprime = Bprime

    def field_at(self, p: Sequence[float],
                 constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        x, y, z = p
        return self.Bprime * np.array([x, -0.5 * y, -0.5 * z])

    def jacobian_at(self, p: Sequence[float],
                    constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        return self.Bprime * np.diag([1.0, -0.5, -0.5])


def complete_elliptic_KE(k2: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(k^2), E(k^2)) of squared modulus
    m = k^2 in [0, 1)."""
    if not (0.0 <= k2 < 1.0):
        raise ValueError("k2 must lie in [0, 1)")
    return float(ellipk(k2)), float(ellipe(k2))


def _loop_btuw(
    x: float, y: float, z: float, loop: LoopSource, mu0: float
) -> tuple[float, float, float, float]:
    """(B_x, t, u, w) of one loop at (x, y, z); see the module docstring."""
    s = x - loop.x_c
    s2 = s * s
    rho2 = y * y + z * z
    rho = math.sqrt(rho2)
    rc = loop.r_c
    rc2 = rc * rc

    if rho < _RHO_SERIES_FACTOR * rc:
        # On-axis field b0 = mu0 F r_c^2 / (2 q^{3/2}), q = r_c^2 + s^2, and
        # its first three axial derivatives.
        A = 0.5 * mu0 * loop.mmf * rc2
        q = rc2 + s2
        q5 = q ** 2.5
        b0 = A / (q * math.sqrt(q))
        b1 = -3.0 * A * s / q5
        b2 = -3.0 * A * (rc2 - 4.0 * s2) / (q5 * q)
        b3 = -15.0 * A * s * (4.0 * s2 - 3.0 * rc2) / (q5 * q * q)
        return (b0 - 0.25 * rho2 * b2, -0.5 * b1 + rho2 * b3 / 16.0,
                -0.5 * b2, 0.125 * b3)

    r2 = s2 + rho2
    a2 = rc2 + r2 - 2.0 * rc * rho  # squared distance to the wire circle
    b2 = rc2 + r2 + 2.0 * rc * rho
    if a2 <= (_WIRE_EPS_FACTOR * rc) ** 2:
        raise ValueError("field evaluation on (or too close to) the wire circle")
    K, E = complete_elliptic_KE(1.0 - a2 / b2)
    c = mu0 * loop.mmf / (2.0 * math.pi * a2 * math.sqrt(b2))
    ab = a2 * b2
    sum2 = rc2 + r2
    bx = c * ((rc2 - r2) * E + a2 * K)
    t = c * s * (sum2 * E - a2 * K) / rho2
    g = c * s * ((r2 * r2 - 7.0 * rc2 * rc2 + 6.0 * rc2 * (rho2 - s2)) * E
                 + a2 * (rc2 - r2) * K) / ab
    u = c * ((ab * (rc2 + rho2 + 4.0 * s2) - 4.0 * s2 * sum2 * sum2) * E
             + a2 * (s2 * sum2 - ab) * K) / (ab * rho2)
    return bx, t, u, (-g - 2.0 * t) / rho2


def loop_field(
    p: Sequence[float],
    loop: LoopSource,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Magnetic field vector (T) of a single loop at point p = (x, y, z)."""
    x, y, z = (float(v) for v in p)
    bx, t, _, _ = _loop_btuw(x, y, z, loop, constants.mu0)
    return np.array([bx, t * y, t * z])


def assembly_field(
    p: Sequence[float],
    coil: CoilAssembly,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Superposed field of both loops of the assembly."""
    x, y, z = (float(v) for v in p)
    bx = t = 0.0
    for loop in coil.loops:
        lbx, lt, _, _ = _loop_btuw(x, y, z, loop, constants.mu0)
        bx += lbx
        t += lt
    return np.array([bx, t * y, t * z])


def field_jacobian(
    p: Sequence[float],
    coil: CoilAssembly,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """3x3 gradient matrix J_ij = dB_i/dx_j of the assembly, analytic."""
    x, y, z = (float(v) for v in p)
    t = u = w = 0.0
    for loop in coil.loops:
        _, lt, lu, lw = _loop_btuw(x, y, z, loop, constants.mu0)
        t += lt
        u += lu
        w += lw
    uy, uz, wyz = u * y, u * z, w * y * z
    return np.array([[-2.0 * t - w * (y * y + z * z), uy, uz],
                     [uy, t + w * y * y, wyz],
                     [uz, wyz, t + w * z * z]])


def field_map(
    coil: CoilAssembly,
    z: float,
    x_values: Iterable[float],
    y_values: Iterable[float],
    constants: PhysicalConstants = CONSTANTS,
) -> list[FieldSample]:
    """Row-major sample table of a z = const plane (rows over x, columns y)."""
    samples: list[FieldSample] = []
    for x in x_values:
        for y in y_values:
            B = assembly_field((x, y, z), coil, constants)
            samples.append(FieldSample(position=(float(x), float(y), float(z)),
                                       B=(B[0], B[1], B[2])))
    return samples
