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

The kernel is array-valued: one pass evaluates every loop at a batch of
points into one (4, n_loops, n) array, summed over the loops once, each
point taking the series or the closed form by a mask.  The loop constants
that do not depend on the point (b_amp = mu0 F r_c^2 / 2, 3 r_c^2, the
series-zone radius) are computed once per assembly, and so are the four
numbers at the origin, where the trajectory engine takes the harmonic
centre of every stack it integrates.  A field source is
anything that exposes the summed four numbers as ``btuw``;
:func:`field_and_jacobian` builds B and J from them for every source, and
the trajectory force is taken from them directly, without forming J, with
the rho^2 that the kernel pass took from the force's caller.

Fields are treated as exactly static (no retardation), valid for coil sizes
far below the driving wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import CONSTANTS, PhysicalConstants

__all__ = [
    "LoopSource",
    "CoilAssembly",
    "UniformGradientField",
    "complete_elliptic_KE",
    "field_and_jacobian",
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
#: Batches of up to this many points take the loop constants tiled to their
#: size, cached per assembly: numpy's ufuncs run faster on small arrays when
#: no operand broadcasts.  A trajectory stack has at most 2 x 16 x 16 rows
#: (both spins of every shell start).  Larger batches broadcast the
#: (n_loops, 1) columns.
_TILED_POINTS = 512


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
    """Coaxial loops, their fields superposed; a single loop is
    ``CoilAssembly(loops=(loop,))``.  The anti-Helmholtz constructor builds
    a pair of equal and opposite magnetomotive forces at symmetric axial
    positions +-d_c/2; by default the 3 cm, 564 At design pair."""

    loops: tuple[LoopSource, ...]

    def __post_init__(self) -> None:
        if not self.loops:
            raise ValueError("a coil assembly needs at least one loop")

    @classmethod
    def anti_helmholtz(cls, r_c: float = 0.03, d_c: float = 0.03,
                       mmf: float = 564.0) -> "CoilAssembly":
        if not d_c > 0.0:
            raise ValueError("coil separation d_c must be > 0")
        # +mmf on the +x loop yields a positive central gradient dBx/dx.
        return cls(loops=(LoopSource(r_c=r_c, x_c=+0.5 * d_c, mmf=+mmf),
                          LoopSource(r_c=r_c, x_c=-0.5 * d_c, mmf=-mmf)))

    @cached_property
    def _params(self) -> dict:
        """The kernel's loop constants (:func:`_loop_params`), by mu0 and
        the number of points they are tiled to."""
        return {}

    @cached_property
    def _origin(self) -> dict:
        """The kernel's (B_x, t, u, w) at the origin, shape (4, 1), by mu0."""
        return {}

    def btuw(self, q: np.ndarray, constants: PhysicalConstants = CONSTANTS,
             rho2: Optional[np.ndarray] = None) -> np.ndarray:
        """(B_x, t, u, w), shape (4, n), summed over the loops at the rows
        of q, shape (n, 3), from one pass of the loop kernel.  ``rho2``,
        the rows' y^2 + z^2, is formed here unless the caller has it.  A
        batch of the origin alone takes a copy of the numbers that the first
        such pass made."""
        q = np.asarray(q, dtype=float)
        origin = len(q) == 1 and not q.any()
        if origin and constants.mu0 in self._origin:
            return self._origin[constants.mu0].copy()
        key = (constants.mu0, len(q) if len(q) <= _TILED_POINTS else 1)
        params = self._params.get(key)
        if params is None:
            params = self._params[key] = _loop_params(self.loops, *key)
        out = _btuw(q, _rho2(q) if rho2 is None else rho2, params)
        if origin:
            self._origin[constants.mu0] = out.copy()
        return out

    def field_at(self, p: Sequence[float],
                 constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        """Field vector (T) at one point p = (x, y, z)."""
        return field_and_jacobian(self, _point(p), constants)[0][0]

    def jacobian_at(self, p: Sequence[float],
                    constants: PhysicalConstants = CONSTANTS) -> np.ndarray:
        """Gradient J_ij = dB_i/dx_j (T/m) at one point p = (x, y, z)."""
        return field_jacobian(p, self, constants)


class UniformGradientField:
    """Idealized trap field B = B' (x, -y/2, -z/2): divergence- and curl-free
    with a uniform axial gradient.  The small-bore limit of the assembly;
    used as the analytically solvable reference in the trajectory tests."""

    def __init__(self, Bprime: float):
        if not Bprime > 0.0:
            raise ValueError("Bprime must be > 0")
        self.Bprime = Bprime

    def btuw(self, q: np.ndarray, constants: PhysicalConstants = CONSTANTS,
             rho2: Optional[np.ndarray] = None) -> np.ndarray:
        """(B_x, t, u, w) = (B' x, -B'/2, 0, 0), shape (4, n), at the rows
        of q, shape (n, 3); ``rho2`` is not needed."""
        q = np.asarray(q, dtype=float)
        n = len(q)
        return np.array((self.Bprime * q[:, 0], np.full(n, -0.5 * self.Bprime),
                         np.zeros(n), np.zeros(n)))


def complete_elliptic_KE(k2):
    """Complete elliptic integrals (K(k^2), E(k^2)) of squared modulus
    m = k^2 in [0, 1); broadcasts over arrays.  scipy.special is imported
    at the first call, so only field points off the near-axis zone load
    scipy."""
    from scipy.special import ellipe, ellipk

    k2 = np.asarray(k2, dtype=float)
    if not ((0.0 <= k2) & (k2 < 1.0)).all():
        raise ValueError("k2 must lie in [0, 1)")
    return ellipk(k2), ellipe(k2)


#: The series' numeric factors as 0-d arrays, which numpy's ufuncs take
#: without converting a Python float at every call.
_HALF, _THREE_HALVES, _FOUR, _MINUS_FIVE_QUARTERS = map(
    np.array, (0.5, 1.5, 4.0, -1.25))


def _series_btuw(s, rho2, rc2, three_rc2, b_amp, out):
    """(B_x, t, u, w) from the near-axis series, written into ``out``,
    shape (4,) + s.shape.  With q = r_c^2 + s^2 and b_amp = mu0 F r_c^2 / 2:
    b0 = b_amp / q^{3/2}, -b1/2 = s h with h = 1.5 b0 / q,
    u = -b2/2 = (r_c^2 - 4 s^2) h / q and
    w = b3/8 = -1.25 s (4 s^2 - 3 r_c^2) h / q^2."""
    s2 = s * s
    iq = np.reciprocal(rc2 + s2)
    b0 = np.multiply(b_amp * iq, np.sqrt(iq), out=out[0])
    h = _THREE_HALVES * b0 * iq
    np.multiply(s, h, out=out[1])
    hq = h * iq
    s4 = _FOUR * s2
    np.multiply(rc2 - s4, hq, out=out[2])
    np.multiply(_MINUS_FIVE_QUARTERS * s * (s4 - three_rc2) * hq, iq,
                out=out[3])
    # Tiled to the shape of s once; (B_x, t) = (b0, s h) + rho^2 / 2 (u, w).
    half_rho2 = np.multiply(_HALF, rho2, out=np.empty(s.shape))
    out[:2] += half_rho2 * out[2:]


def _elliptic_btuw(s, rho2, rc, mu0_mmf):
    """(B_x, t, u, w) from the elliptic closed form; see the module
    docstring."""
    rho = np.sqrt(rho2)
    rc2 = rc * rc
    s2 = s * s
    r2 = s2 + rho2
    a2 = rc2 + r2 - 2.0 * rc * rho  # squared distance to the wire circle
    b2 = rc2 + r2 + 2.0 * rc * rho
    if np.any(a2 <= (_WIRE_EPS_FACTOR * rc) ** 2):
        raise ValueError("field evaluation on (or too close to) the wire circle")
    K, E = complete_elliptic_KE(1.0 - a2 / b2)
    c = mu0_mmf / (2.0 * math.pi * a2 * np.sqrt(b2))
    ab = a2 * b2
    sum2 = rc2 + r2
    t = c * s * (sum2 * E - a2 * K) / rho2
    g = c * s * ((r2 * r2 - 7.0 * rc2 * rc2 + 6.0 * rc2 * (rho2 - s2)) * E
                 + a2 * (rc2 - r2) * K) / ab
    u = c * ((ab * (rc2 + rho2 + 4.0 * s2) - 4.0 * s2 * sum2 * sum2) * E
             + a2 * (s2 * sum2 - ab) * K) / (ab * rho2)
    return (c * ((rc2 - r2) * E + a2 * K), t, u, (-g - 2.0 * t) / rho2)


def _loop_params(loops: Sequence[LoopSource], mu0: float, n: int) -> tuple:
    """The point-independent constants of :func:`_btuw`: per loop, each
    shape (n_loops, n), x_c, r_c, r_c^2, 3 r_c^2, b_amp = mu0 mmf r_c^2 / 2,
    mu0 mmf and the squared series-zone radius, tiled over n points; last,
    the smallest of those radii, a float."""
    cols = np.array([
        (lp.x_c, lp.r_c, lp.r_c ** 2, 3.0 * lp.r_c ** 2,
         mu0 * (0.5 * lp.mmf * lp.r_c ** 2), mu0 * lp.mmf,
         (_RHO_SERIES_FACTOR * lp.r_c) ** 2) for lp in loops]).T
    return (*np.repeat(cols[:, :, None], n, axis=2), float(cols[-1].min()))


def _rho2(q: np.ndarray) -> np.ndarray:
    """rho^2 = y^2 + z^2 of the rows of q, shape (n, 3)."""
    qq = q * q
    return qq[:, 1] + qq[:, 2]


def _btuw(q: np.ndarray, rho2: np.ndarray, loop_params: tuple) -> np.ndarray:
    """(B_x, t, u, w) summed over the loops of ``loop_params`` (from
    :func:`_loop_params`) at the rows of q, shape (n, 3), whose rho^2 is
    ``rho2``, shape (n,); returns shape (4, n).

    Every loop and point is evaluated in one pass over (loop, point) arrays
    into one (4, n_loops, n) array, summed over the loops at the end.
    Points within _RHO_SERIES_FACTOR r_c of a loop's axis take the series,
    the rest the elliptic closed form.
    """
    x_c, rc, rc2, three_rc2, b_amp, mu0_mmf, zone2, zone2_min = loop_params
    s = q[:, 0] - x_c
    out = np.empty((4,) + s.shape)
    if not rho2.size or np.maximum.reduce(rho2) < zone2_min:
        _series_btuw(s, rho2, rc2, three_rc2, b_amp, out)
        return np.add.reduce(out, axis=1)
    series = rho2 < zone2
    if series.any():
        part = np.empty((4, np.count_nonzero(series)))
        _series_btuw(*(np.broadcast_to(a, s.shape)[series]
                       for a in (s, rho2, rc2, three_rc2, b_amp)), part)
        out[:, series] = part
    ell = ~series
    out[:, ell] = _elliptic_btuw(
        *(np.broadcast_to(a, s.shape)[ell] for a in (s, rho2, rc, mu0_mmf)))
    return np.add.reduce(out, axis=1)


#: J per row is (t, u y, u z, w y^2, w z^2, w y z) times this basis; its
#: rows are the flattened 3x3 matrices.
_JACOBIAN_BASIS = np.array([
    [-2, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0],
    [-1, 0, 0, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 1, 0],
], dtype=float)


def _field(q: np.ndarray, bx: np.ndarray, t: np.ndarray) -> np.ndarray:
    """B = (B_x, t y, t z), shape (n, 3), at the rows of q."""
    return np.array((bx, t * q[:, 1], t * q[:, 2])).T


def field_and_jacobian(source, q: np.ndarray,
                       constants: PhysicalConstants = CONSTANTS
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Field B, shape (n, 3), and gradient J, shape (n, 3, 3), symmetric
    and traceless, at the rows of q, shape (n, 3), from one ``btuw`` call of
    the field source."""
    q = np.asarray(q, dtype=float)
    bx, t, u, w = source.btuw(q, constants)
    y, z = q[:, 1], q[:, 2]
    wy, wz = w * y, w * z
    cols = np.array((t, u * y, u * z, wy * y, wz * z, wy * z)).T
    return _field(q, bx, t), (cols @ _JACOBIAN_BASIS).reshape(-1, 3, 3)


def _point(p: Sequence[float]) -> np.ndarray:
    """One field point as a (1, 3) batch."""
    return np.asarray(p, dtype=float).reshape(1, 3)


def field_jacobian(
    p: Sequence[float],
    coil: CoilAssembly,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """3x3 gradient matrix J_ij = dB_i/dx_j of the assembly, analytic."""
    return field_and_jacobian(coil, _point(p), constants)[1][0]


def field_map(
    coil: CoilAssembly,
    z: float,
    x_values: Iterable[float],
    y_values: Iterable[float],
    constants: PhysicalConstants = CONSTANTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions q and fields B, each shape (n_x n_y, 3), of a z = const
    plane, row-major (rows over x, columns y), from one kernel pass over the
    whole plane.  Values that are not finite are returned as they are:
    the ``fieldmap`` verb checks its columns before it writes any."""
    xs = np.asarray(list(x_values), dtype=float)
    ys = np.asarray(list(y_values), dtype=float)
    q = np.stack((np.repeat(xs, len(ys)), np.tile(ys, len(xs)),
                  np.full(len(xs) * len(ys), float(z))), axis=1)
    bx, t, _u, _w = coil.btuw(q, constants)
    return q, _field(q, bx, t)
