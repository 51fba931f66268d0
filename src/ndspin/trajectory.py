"""Integration of the nanodiamond translational dynamics.

The rigid-body center of mass obeys

    m dv/dt = (mu . grad) B,     dq/dt = v,

with the magnetic moment the superposition of the induced diamagnetic part
chi V B / mu0 (chi signed negative; the trap confines toward the field
minimum) and a permanent spin part -s hbar gamma_e along the free axis, the
moment of the analytic branch model.  Gravity is excluded: the trap is
taken to compensate it.

Decoupling flips are instantaneous events.  The spin sign reverses at every
multiple of 2 pi / omega_DD and the coil current sign follows after the
phase lag delta / omega_DD.  The force depends only on the product s of the
two signs, so a spin flip and a current flip at the same instant cancel:
a trajectory's effective flips are the times in exactly one of its two
flip lists; a synchronized schedule (delta = 0) has none.

Near the trap centre the acceleration is -K q + s c + R(q, s) (Encke's
split): K and c come in closed form from the kernel's (B_x, t, u, w) at the
origin (:func:`harmonic_centre`), and R is O((q / r_c)^2) of the force.
With s piecewise constant the harmonic part has a closed form, the reference
q_ref (see :class:`_Reference`), and only the residual e = q - q_ref,
driven by R, is left.  The residual obeys e'' = -K e + R; its harmonic
part is solved exactly too (variation of constants): per axis e is carried
as the amplitudes (a, b) of e = a cos(omega tau) + (b / omega)
sin(omega tau), in the reference's rotating frame, and only R moves them,
a' = -(sin(omega tau) / omega) R and b' = cos(omega tau) R.

R is a small perturbation of the reference, so the amplitudes come by
quadrature, with no stepper (Picard iteration on the variation-of-constants
integral, as Bai & Junkins, J. Astronaut. Sci. 58 (2011) 583, do for
perturbed Kepler orbits).  The breakpoints of a stack are its samples, its
effective flips and the run's ends, with every interval between them split
into equal parts no longer than a fixed share of the x period,
:data:`_CAP_PER_PERIOD`.  Each interval holds two Gauss-Legendre nodes, so
no node lies on a flip.  A pass takes R at q_ref + e_k on every row and
node in one kernel pass, whose rho^2 the force shares (:class:`_Residual`),
and cumulative sums over the intervals give the next amplitudes e_{k+1} at
the breakpoints; a two-node collocation gives them at the nodes.  Pass 1
takes R on the reference itself (e_0 = 0).  The passes stop when no
amplitude changes by more than its row's tolerance; a window where they do
not within :data:`_PASSES` passes is halved, and each window's passes start
from the amplitudes at its start, the reference re-anchored there
(:func:`solve_ivp`).  The reference's x range must stay inside the nearest
loop plane on either side of the centre, beyond which the pair does not
confine along x.  The harmonic centre is a
precondition: a source without one (a single loop, or a stiffness that
underflows) raises FloatingPointError before any pass.

The trajectories of one scan (every shell start with both spins, or the
synchronized run with every flip lag) are integrated together as one
stack, synchronized and lagged rows alike, with the force J mu taken in
closed form from the kernel's (B_x, t, u, w) (see :mod:`ndspin.coils`).
The position tolerances hold a and the velocity tolerances b, each divided
by sqrt(n) on an n-row stack.  The residual is far smaller than the
motion, so ``rtol`` reaches each row through the absolute tolerance, times
the largest |q| (or |v|) of its reference; the stack's ``rtol`` must not
fall below :data:`RTOL_FLOOR`, 100 machine epsilons, near which rounding
alone would move the amplitudes between passes by about that much.
:func:`integrate` is the n = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coils import _rho2
from .core import CONSTANTS, NanodiamondParams, PhysicalConstants

__all__ = [
    "TrajectoryState",
    "IntegratorConfig",
    "FlipSchedule",
    "Trajectory",
    "IntegrationError",
    "magnetic_moment",
    "force",
    "harmonic_centre",
    "integrate",
    "sensitivity_scan",
    "delta_scan",
]


@dataclass(frozen=True)
class TrajectoryState:
    """Translational state: time, position (m) and velocity (m/s)."""

    t: float
    q: tuple[float, float, float]
    v: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.t, *self.q, *self.v)):
            raise ValueError("trajectory state has non-finite components")


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the trapped engine: the stop of its Picard passes.

    Absolute floors are split between position and velocity; periods of
    hundreds of seconds with nanometer amplitudes need both.  The passes
    over a stack stop when no residual amplitude moves by more than its
    row's tolerance, abs_tol + rel_tol times the largest |q| (or |v|) of
    the row's reference, divided by sqrt(n) on an n-row stack (see the
    module docstring).  An n-row stack's ``stack_rtol(n)`` must be at
    least :data:`RTOL_FLOOR`.
    """

    rel_tol: float = 1e-9
    abs_tol_pos: float = 1e-12
    abs_tol_vel: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol_pos > 0.0 and self.abs_tol_vel > 0.0):
            raise ValueError("tolerances must be > 0")

    def stack_rtol(self, n: int) -> float:
        """The relative tolerance of an n-row stack, rel_tol / sqrt(n) (see
        the module docstring); the engine refuses one below
        :data:`RTOL_FLOOR`."""
        return 1.0 / math.sqrt(n) * self.rel_tol


@dataclass(frozen=True)
class FlipSchedule:
    """Decoupling drive for the trajectory model.

    Spin flips at multiples of 2 pi / omega_dd; the coil current flips at the
    same times shifted by delta / omega_dd (delta in [0, pi)).  omega_dd
    must be finite and positive.
    """

    omega_dd: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_dd < math.inf:
            raise ValueError("omega_dd must be finite and > 0")
        if not (0.0 <= self.delta < math.pi):
            raise ValueError("delta must lie in [0, pi)")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, positions (n,3), velocities (n,3), spin signs."""

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    spin: np.ndarray
    flip_times: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def x(self) -> np.ndarray:
        return self.q[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.q[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.q[:, 2]


class IntegrationError(RuntimeError):
    """Integrator failure; carries the last valid state."""

    def __init__(self, message: str, last_state: TrajectoryState):
        super().__init__(message)
        self.last_state = last_state


def magnetic_moment(
    B: Sequence[float],
    spin_sign,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """Total magnetic moment (A m^2): diamagnetic response plus the spin
    moment -s hbar gamma_e, which is nonzero only along x.

    Broadcasts over rows: ``B`` of shape (3,) or (n, 3) with ``spin_sign``
    a scalar or one sign per row.
    """
    mu = _chi_coefficient(nd, constants) * np.asarray(B, dtype=float)
    mu[..., 0] += _spin_moment(spin_sign, constants)
    return mu


def _chi_coefficient(nd: NanodiamondParams, constants: PhysicalConstants) -> float:
    """Induced moment per unit field, -chi V / mu0 (A m^2 / T)."""
    return -nd.chi_magnitude * nd.volume / constants.mu0


def _spin_moment(spin_sign, constants: PhysicalConstants):
    """Spin moment along x (A m^2), -s hbar gamma_e for each sign s of
    ``spin_sign`` (from the Zeeman energy +hbar gamma_e S_x B); the signs are
    checked here."""
    spin_sign = np.asarray(spin_sign)
    if not (np.abs(spin_sign) == 1).all():
        raise ValueError("spin_sign must be -1 or +1")
    return spin_sign * (-constants.hbar * constants.gamma_e)


def force(
    q: Sequence[float],
    spin_sign,
    source,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
    field_sign=1.0,
) -> np.ndarray:
    """Magnetic force (mu . grad) B at position q (N).

    ``source`` is any field source exposing ``btuw`` (a coil assembly or the
    idealized uniform-gradient field); ``field_sign`` = -1 models the
    reversed coil current during decoupling.  Broadcasts over rows: ``q`` of
    shape (3,) or (n, 3), with ``spin_sign`` and ``field_sign`` (each +-1)
    scalars or one value per row.

    Reversing the current negates B and J together.  The diamagnetic force,
    even in B, is unchanged and the spin force flips, so the force is J
    times the moment at spin sign ``spin_sign * field_sign``.  Sign flips
    are exact, so this equals negating B and J term by term.
    """
    q = np.asarray(q, dtype=float)
    rows = q.reshape(-1, 3)
    rho2 = _rho2(rows)
    mu_spin = _spin_moment(np.multiply(spin_sign, field_sign), constants)
    return _force(rows, rho2, source.btuw(rows, constants, rho2),
                  _chi_coefficient(nd, constants), mu_spin).reshape(q.shape)


def _force(q: np.ndarray, rho2: np.ndarray, btuw: np.ndarray, a: float,
           mu_spin, out: Optional[np.ndarray] = None) -> np.ndarray:
    """J mu per row, shape (n, 3), in closed form from the kernel's
    (B_x, t, u, w) at the rows of q, whose y^2 + z^2 is ``rho2``, for the
    moment mu = a B + mu_spin e_x; written into ``out`` if given.

    With mu_x = a B_x + mu_spin, the J and B of :mod:`ndspin.coils` give
    F = (-(2t + w rho^2) mu_x + a t u rho^2, y G, z G) with
    G = u mu_x + a t (t + w rho^2).  The force is linear in (a, mu_spin),
    so scaling both by 1/m gives the acceleration.
    """
    bx, t, u, w = btuw[0], btuw[1], btuw[2], btuw[3]
    mu_x = a * bx + mu_spin
    at = a * t
    w_rho2 = w * rho2
    g = u * mu_x + at * (t + w_rho2)
    if out is None:
        out = np.empty(q.shape)
    # t + t is 2t, without converting a Python float.
    np.subtract(at * u * rho2, (t + t + w_rho2) * mu_x, out=out[:, 0])
    np.multiply(q[:, 1:], g[:, None], out=out[:, 1:])
    return out


def _flip_times(schedule: Optional[FlipSchedule], t_end: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(spin flip times, field flip times) inside (0, t_end), two fresh
    arrays.  A flip within rounding of t_end (see :func:`_with_slack`) is
    dropped: it would only start a segment a few ulps long.  Without a lag
    the field flips equal the spin flips."""
    if schedule is None:
        return np.empty(0), np.empty(0)
    dt = 2.0 * math.pi / schedule.omega_dd
    # The flips kept are a prefix of each list: only its last few can lie
    # within rounding of t_end.
    n = int(math.floor(t_end / dt + 1e-12))
    while n > 0 and _with_slack(dt * n) >= t_end:
        n -= 1
    spin_flips = dt * np.arange(1, n + 1)
    lag = schedule.delta / schedule.omega_dd
    while n > 0 and _with_slack(dt * n + lag) >= t_end:
        n -= 1
    return spin_flips, spin_flips[:n] + lag


def _flip_segments(spins: Sequence[int],
                   schedules: Sequence[Optional[FlipSchedule]], t0: float,
                   t_end: float) -> tuple[np.ndarray, np.ndarray, list, list]:
    """The segments of a stack's run over [t0, t_end] and every row's sign
    spin * current on them: (edges, signs, spin_flips, row_schedule), with
    ``signs`` shape (n, n_seg), ``spin_flips`` the spin flip times of each
    distinct schedule and ``row_schedule`` each row's index into them.

    The force follows the sign spin * current alone, so a spin flip and a
    current flip at the same instant cancel: each row's sign changes only
    at the times found in exactly one of its two flip lists, none on a
    synchronized schedule.  Both lists are sorted and unique; the edges are
    t0, t_end and every such time after t0.
    """
    # Rows that share a schedule share its flips and signs.
    distinct = list(dict.fromkeys(schedules))
    row_schedule = [distinct.index(sched) for sched in schedules]
    flips = [_flip_times(sched, t_end) for sched in distinct]
    effective = [np.setxor1d(sf, ff, assume_unique=True) for sf, ff in flips]
    # Every flip lies before t_end.
    inner = np.unique(np.concatenate(effective))
    edges = np.concatenate(((t0,), inner[inner > t0], (t_end,)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    # (-1)^(flips before each segment's middle), by its parity.
    pattern = np.ones((len(distinct), len(mids)), dtype=int)
    for row, ef in zip(pattern, effective):
        row -= 2 * (ef.searchsorted(mids, side="right") & 1)
    return (edges, np.array(spins)[:, None] * pattern[row_schedule],
            [sf for sf, _ff in flips], row_schedule)


def harmonic_centre(
    source,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(K, c), each shape (3,), of the acceleration -K q + s c near the
    origin, or None where the origin is no harmonic trap.

    At the origin the kernel gives B = (B_x, 0, 0) and J = diag(-2t, t, t),
    so with a = -chi V / mu0 and the spin moment mu_s at s = +1,
    K = -a J^2 / m = (-a / m) t^2 (4, 1, 1) and c = mu_s J e_x / m =
    (-2 t mu_s / m, 0, 0), in closed form.  The origin is a trap when the
    spin-free force a J B / m vanishes there (B_x = 0 exactly, as on any
    symmetric pair) and every entry of K is a finite, normal positive
    number.
    """
    bx, t = source.btuw(np.zeros((1, 3)), constants)[:2, 0].tolist()
    # K_y = K_z, and K_x = 4 K_y is the largest.
    k_y = (-_chi_coefficient(nd, constants) / nd.mass * t) * t
    if not (bx == 0.0 and np.finfo(float).tiny <= k_y
            and 4.0 * k_y < math.inf):
        return None
    mu_s = _spin_moment(1, constants)
    return (np.array((4.0 * k_y, k_y, k_y)),
            np.array((-2.0 * t * mu_s / nd.mass, 0.0, 0.0)))


class _Reference:
    """Harmonic reference motion q_ref of every row of a stack, with
    q_ref'' = -K q_ref + s c on each segment of ``edges`` (the row's sign s
    is ``signs[:, k]`` on segment k), starting from the rows' states ``y0``,
    shape (n, 6), at ``edges[0]``.

    Per axis, z = x + i v / omega is x*_k + W_k exp(-i omega tau) on segment
    k, with x*_k = s_k c / omega^2 and tau = t - edges[0].  z is continuous
    at each boundary tau_j, so W_k = W_0 + sum_{0<j<=k} (x*_{j-1} - x*_j)
    exp(i omega tau_j): one cumulative sum over the flips.  c lies along x,
    so only x keeps per-segment arrays, shape (n, n_seg); y and z oscillate
    freely with their starting W.  ``centre`` is the (K, c) of
    :func:`harmonic_centre`.  Arrays over times are laid out (axis, row,
    time).
    """

    def __init__(self, centre, edges: np.ndarray, signs: np.ndarray,
                 y0: np.ndarray):
        self.edges = edges
        n, n_seg = signs.shape
        self.omega2, c = centre
        self.omega = np.sqrt(self.omega2)
        self.minus_i_omega = -1j * self.omega
        self.xstar = signs * (c[0] / self.omega2[0])
        z0 = y0[:, :3] + 1j * y0[:, 3:] / self.omega
        self.wx = np.empty((n, n_seg), dtype=complex)
        self.wx[:, 0] = z0[:, 0] - self.xstar[:, 0]
        self.wx[:, 1:] = (self.xstar[:, :-1] - self.xstar[:, 1:]) * np.exp(
            1j * self.omega[0] * (edges[1:-1] - edges[0]))
        np.cumsum(self.wx, axis=1, out=self.wx)
        self.wyz = z0[:, 1:]

    def segments(self, t: np.ndarray) -> np.ndarray:
        """The segment of each time t (at or after edges[0]): how many of
        the inner edges lie at or before it."""
        return self.edges[1:-1].searchsorted(t, side="right")

    def phasor(self, t: np.ndarray) -> np.ndarray:
        """exp(-i omega tau) per axis (axis 0) and time (axis 1), with
        tau = t - edges[0]: cos(omega tau) - i sin(omega tau)."""
        return np.exp(self.minus_i_omega[:, None] * (t - self.edges[0]))

    def offsets(self, k: np.ndarray, phasor: np.ndarray,
                ab: Optional[np.ndarray] = None) -> np.ndarray:
        """z - (x*_k, 0, 0) of every row at the times of ``phasor`` (see
        :meth:`phasor`) on segments k, shape (3, n, len(k)): z_ref's, plus
        the residual's where its harmonic amplitudes ``ab``, shape
        (6, n, len(k)), are given.  Per axis the residual (a, b) adds
        a + i b / omega to z's amplitude (see :class:`_Residual`), so the
        one phasor turns both into states."""
        w = np.empty((3, len(self.wyz), len(k)), dtype=complex)
        w[0] = self.wx[:, k]
        w[1:] = self.wyz.T[:, :, None]
        if ab is not None:
            w.real += ab[:3]
            w.imag += ab[3:] / self.omega[:, None, None]
        w *= phasor[:, None]
        return w

    def state(self, t: np.ndarray, ab: Optional[np.ndarray] = None
              ) -> np.ndarray:
        """(q, v) of every row at times t, shape (6, n, len(t)): the
        reference's, or the states of the rows whose residual amplitudes
        ``ab``, shape (6, n, len(t)), are given.  x* is added to the real
        part of :meth:`offsets` in x, and v is omega times its imaginary
        part."""
        k = self.segments(t)
        w = self.offsets(k, self.phasor(t), ab)
        states = np.empty((6,) + w.shape[1:])
        np.add(w.real[0], self.xstar[:, k], out=states[0])
        states[1:3] = w.real[1:]
        np.multiply(self.omega[:, None, None], w.imag, out=states[3:])
        return states

    def envelope(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Per row, the largest |q_ref| and |v_ref| components, shape (n,)
        each; and the x range that q_ref reaches."""
        ax, ayz = np.abs(self.wx), np.abs(self.wyz)
        return (np.maximum((np.abs(self.xstar) + ax).max(axis=1), ayz.max(axis=1)),
                np.maximum(self.omega[0] * ax.max(axis=1),
                           (self.omega[1:] * ayz).max(axis=1)),
                ((self.xstar - ax).min(), (self.xstar + ax).max()))


class _Residual:
    """A stack's residual e = y - y_ref, shape (n, 6), carried as its
    harmonic amplitudes (a, b) per axis about the reference ``ref``.

    e'' = -K e + R, and the harmonic part is solved exactly (variation of
    constants): e = a cos(omega tau) + (b / omega) sin(omega tau) and
    e_v = -a omega sin(omega tau) + b cos(omega tau), with tau = t -
    edges[0] and the reference's omega per axis, so that (a, b) = (e, e_v)
    at tau = 0 and only R drives them: a' = -(sin(omega tau) / omega) R,
    b' = cos(omega tau) R.  R = F(q) / m + K (off + e) with q = q_ref + e,
    where off = q_ref - x* e_x is the reference offset.  Constant
    amplitudes are free harmonic motion, so the reference plus the
    amplitudes at some time is the reference re-anchored there.

    :meth:`at` takes the reference at a window's nodes in one array call
    and keeps each node's reference offset, its cos(omega tau) and
    -sin(omega tau) / omega (from the phasor that forms the offset), x* and
    spin moment.  A call then gives (a', b') at every row and node from one
    kernel pass that shares rho^2 with the force.
    """

    def __init__(self, ref: _Reference, source, constants: PhysicalConstants,
                 a_mass: float, mu_spin: np.ndarray):
        self.ref, self.btuw, self.constants = ref, source.btuw, constants
        self.a_mass, self.mu_spin = a_mass, mu_spin

    def at(self, times: np.ndarray) -> None:
        """Keep the reference's numbers at ``times``, the nodes."""
        ref = self.ref
        k = ref.segments(times)
        phasor = ref.phasor(times)
        self.off = ref.offsets(k, phasor).real
        self.cos = phasor.real[:, None]
        # -sin / omega, since the phasor's imaginary part is -sin.
        self.sin_w = (phasor.imag / ref.omega[:, None])[:, None]
        self.xstar, self.mu = ref.xstar[:, k], self.mu_spin[:, k].ravel()

    def __call__(self, ab: np.ndarray) -> np.ndarray:
        """(a', b'), shape (6, n, len(times)), at the times of :meth:`at`
        for the amplitudes ``ab`` there, of the same shape."""
        q = self.off + (ab[:3] * self.cos - ab[3:] * self.sin_w)
        k_q = self.ref.omega2[:, None, None] * q
        q[0] += self.xstar
        # The kernel takes the points as rows: views of the (axis, point)
        # arrays.
        points = q.reshape(3, -1).T
        rho2 = _rho2(points)
        r = np.empty_like(q)
        _force(points, rho2, self.btuw(points, self.constants, rho2),
               self.a_mass, self.mu, out=r.reshape(3, -1).T)
        r += k_q
        d = np.empty((6,) + q.shape[1:])
        np.multiply(r, self.sin_w, out=d[:3])
        np.multiply(r, self.cos, out=d[3:])
        return d


#: Intervals between breakpoints are split into equal parts no longer than
#: the x period 2 pi / omega_x over this.
_CAP_PER_PERIOD = 64
#: The two Gauss-Legendre nodes on [-1, 1] (weights 1 and 1), and the
#: matrix that takes a derivative's values at them to its integral from -1
#: to each node, that of the line through the two values.
_NODES = np.array([-1.0, 1.0]) / math.sqrt(3.0)
_TO_NODES = 0.5 + np.array([[0.0, -1.0], [1.0, 0.0]]) / math.sqrt(3.0)
#: Picard passes in a window before it is halved.
_PASSES = 4
#: Rows times nodes in one window at most, which bounds a pass's memory.
_WINDOW_NODES = 2 ** 16
#: The smallest relative tolerance the engine takes: 100 machine epsilons.
RTOL_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class _Solution:
    """One stack's run: ``nfev`` RHS evaluations of the stack, the node
    times of every pass of every window tried."""

    nfev: int


def _passes(fun: _Residual, t: np.ndarray, ab0: np.ndarray, tol: np.ndarray
            ) -> tuple[Optional[np.ndarray], int]:
    """Picard passes over one window, with breakpoints t and the amplitudes
    ``ab0``, shape (6, n), at its start: the amplitudes at t, shape
    (6, n, len(t)), or None where no pass met the tolerance ``tol``, shape
    (6, n, 1); and the passes made."""
    half = 0.5 * np.diff(t)
    # Node j of interval i is node j N + i of the window, N the intervals.
    fun.at((t[:-1] + half + half * _NODES[:, None]).ravel())
    n = ab0.shape[1]
    # Pass 1 takes the amplitudes at their start everywhere.
    ab = np.broadcast_to(ab0[:, :, None], (6, n, len(t)))
    at_nodes = np.broadcast_to(ab0[:, :, None], (6, n, 2 * len(half)))
    for k in range(1, _PASSES + 1):
        d = fun(at_nodes).reshape(6, n, 2, -1)
        d *= half
        new = np.empty(ab.shape)
        new[:, :, 0] = ab0
        np.cumsum(d[:, :, 0] + d[:, :, 1], axis=2, out=new[:, :, 1:])
        new[:, :, 1:] += ab0[:, :, None]
        # A NaN or an infinity reaches the end of the cumulative sums.
        if not np.isfinite(new[:, :, -1]).all():
            raise FloatingPointError("non-finite state during integration")
        if (np.abs(new - ab) <= tol).all():
            return new, k
        ab = new
        at_nodes = (new[:, :, None, :-1] + _TO_NODES @ d).reshape(6, n, -1)
    return None, _PASSES


def solve_ivp(fun: _Residual, t: np.ndarray, atol: np.ndarray,
              samples: np.ndarray, out: np.ndarray) -> _Solution:
    """Picard passes over the stacked residual ``fun`` on the breakpoints
    ``t`` (sorted and distinct, from the reference's start to the run's
    end), each stopped at the tolerance ``atol``, shape (n, 6); the states
    at the breakpoints ``samples`` (sorted indices into t) go into ``out``,
    shape (n, len(samples), 6).

    The first window holds every interval, up to _WINDOW_NODES rows times
    nodes.  A window whose passes do not stop within _PASSES is halved; one
    that stops is followed by one twice its length, which starts from the
    amplitudes at its end, the reference re-anchored there.  A single
    interval that does not stop raises :class:`IntegrationError` with the
    first row's state at its start.
    """
    n_int, tol = len(t) - 1, atol.T[:, :, None]
    most = max(1, _WINDOW_NODES // (2 * len(atol)))
    ab0 = np.zeros((6, len(atol)))
    i0, size, nfev, filled = 0, most, 0, 0
    while i0 < n_int:
        i1 = min(i0 + size, n_int)
        ab, passes = _passes(fun, t[i0:i1 + 1], ab0, tol)
        nfev += passes * 2 * (i1 - i0)
        if ab is None:
            if i1 - i0 == 1:
                y = fun.ref.state(t[i0:i1], ab0[:, :, None])[:, 0, 0].tolist()
                raise IntegrationError(
                    f"integration failed in [{t[i0]:g}, {t[i1]:g}] s: the "
                    f"Picard passes did not converge in {_PASSES}",
                    TrajectoryState(t=float(t[i0]), q=tuple(y[:3]),
                                    v=tuple(y[3:])))
            size = (i1 - i0) // 2
            continue
        stop = samples.searchsorted(i1, side="right")
        idx = samples[filled:stop]
        out[:, filled:stop] = fun.ref.state(
            t[idx], ab[:, :, idx - i0]).transpose(1, 2, 0)
        filled, ab0 = stop, ab[:, :, -1]
        i0, size = i1, min(2 * size, most)
    return _Solution(nfev)


def _breakpoints(edges: np.ndarray, t_eval: np.ndarray, cap: float
                 ) -> np.ndarray:
    """The edges and samples, sorted and distinct, with every interval
    between them longer than ``cap`` split into equal parts no longer than
    it (to rounding)."""
    t = np.unique(np.concatenate((edges, t_eval)))
    gaps = np.diff(t)
    parts = np.ceil(gaps / cap).astype(int)
    first = np.repeat(np.cumsum(parts) - parts, parts)
    step = np.repeat(gaps / parts, parts)
    return np.append(np.repeat(t[:-1], parts)
                     + (np.arange(len(first)) - first) * step, t[-1])


@np.errstate(over="raise", invalid="raise", divide="raise")
def _integrate_stack(
    starts: Sequence[TrajectoryState],
    spins: Sequence[int],
    schedules: Sequence[Optional[FlipSchedule]],
    source,
    nd: NanodiamondParams,
    t_end: float,
    cfg: IntegratorConfig,
    t_eval: Optional[Sequence[float]],
    constants: PhysicalConstants,
) -> list[Trajectory]:
    """Integrate n trajectories (one per start, initial spin and flip
    schedule), all starting at ``starts[0].t``, as one stacked residual
    about the harmonic reference; see the module docstring.  ``t_end``
    must be finite and ``t_eval`` sorted and inside [starts[0].t, t_end],
    NaN nowhere, and the stack's rtol at least :data:`RTOL_FLOOR`
    (ValueError otherwise); each trajectory's q and v are views of one
    stacked (n, len(t_eval), 6) sample array.
    A source without a harmonic centre raises FloatingPointError before
    anything else.  Passes that do not converge raise
    :class:`IntegrationError` with the first row's last state; an overflow
    or an invalid operation raises FloatingPointError where it happens, and
    so does a reference that reaches a loop plane.

    The set-up is one pass: the flips and segments of every distinct
    schedule (:func:`_flip_segments`), the reference and its envelope, the
    tolerances and the breakpoints.  Outside :func:`solve_ivp`, which it
    calls once, it makes one kernel pass, at the origin for the harmonic
    centre; inside, each Picard pass makes one."""
    centre = harmonic_centre(source, nd, constants)
    if centre is None:
        raise FloatingPointError(
            "the trap stiffness at the coil centre is not a positive normal "
            "number, so there is no trap period to integrate over")
    t0 = starts[0].t
    if not t0 < t_end < math.inf:
        raise ValueError("t_end must be finite and exceed the initial time")
    if any(s not in (-1, 1) for s in spins):
        raise ValueError("spin_initial must be -1 or +1")
    if t_eval is None:
        t_eval = np.linspace(t0, t_end, 1000)
    t_eval = np.asarray(t_eval, dtype=float)
    # Every comparison with NaN is false, so a NaN anywhere fails one.
    if t_eval.size and not (t0 <= t_eval[0] and t_eval[-1] <= t_end
                            and (t_eval[1:] >= t_eval[:-1]).all()):
        raise ValueError("t_eval must be sorted and lie within "
                         "[initial.t, t_end]")
    n = len(starts)
    rtol = cfg.stack_rtol(n)
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol = {rtol:g} is below the engine's floor "
                         f"100 eps = {RTOL_FLOOR:g}")

    # The sign spin * current of each row (axis 0) on each segment (axis 1).
    edges, signs, spin_flips, row_schedule = _flip_segments(
        spins, schedules, t0, t_end)
    # The RHS takes the acceleration from _force with both moment terms
    # divided by the mass: the spin moment at each sign (exact, so the
    # signs, from spins checked above, scale the one moment), and
    # -chi V / mu0.
    mu_spin = signs * (_spin_moment(1, constants) / nd.mass)
    a_mass = _chi_coefficient(nd, constants) / nd.mass
    y0 = np.array([[*st.q, *st.v] for st in starts], dtype=float)
    ref = _Reference(centre, edges, signs, y0)

    # rtol reaches each row through atol, times the largest |q| and |v| of
    # its reference, and both are divided by sqrt(n).
    pos, vel, x_range = ref.envelope()
    _check_confined(source, x_range)
    atol = np.empty((n, 6))
    atol[:, :3] = (cfg.abs_tol_pos + cfg.rel_tol * pos)[:, None]
    atol[:, 3:] = (cfg.abs_tol_vel + cfg.rel_tol * vel)[:, None]
    atol *= 1.0 / math.sqrt(n)
    t = _breakpoints(edges, t_eval,
                     2.0 * math.pi / (_CAP_PER_PERIOD * ref.omega[0]))
    samples = np.empty((n, len(t_eval), 6))
    solve_ivp(_Residual(ref, source, constants, a_mass, mu_spin), t, atol,
              t.searchsorted(t_eval), samples)

    # A sample within rounding of a spin flip keeps the sign before it:
    # (-1)^(spin flips before each sample), by its parity.
    spin_patterns = [1 - 2 * (_with_slack(sf).searchsorted(t_eval) & 1)
                     for sf in spin_flips]
    return [Trajectory(t=t_eval.copy(), q=samples[i, :, :3],
                       v=samples[i, :, 3:],
                       spin=spins[i] * spin_patterns[j],
                       flip_times=spin_flips[j].copy())
            for i, j in enumerate(row_schedule)]


def _check_confined(source, x_range: tuple) -> None:
    """Raise FloatingPointError where the reference's x range reaches the
    nearest loop plane on either side of the centre: beyond it the pair
    does not confine along x.  A source without loops has no plane."""
    planes = [lp.x_c for lp in getattr(source, "loops", ())]
    ahead = [x for x in planes if x > 0.0]
    behind = [x for x in planes if x < 0.0]
    if ((ahead and x_range[1] >= min(ahead))
            or (behind and x_range[0] <= max(behind))):
        raise FloatingPointError(
            f"the harmonic reference spans x in [{x_range[0]:.3g}, "
            f"{x_range[1]:.3g}] m, past a loop plane of the source: the "
            "trap does not hold the particle")


def _with_slack(times):
    """Each time plus 1e-15 max(1, t): a sample at or below it is taken as
    before the event, so one landing on a flip keeps the pre-flip sign.
    Takes an array or a float."""
    return times + 1e-15 * np.maximum(1.0, times)


def integrate(
    initial: TrajectoryState,
    spin_initial: int,
    source,
    nd: NanodiamondParams,
    schedule: Optional[FlipSchedule],
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    t_eval: Optional[Sequence[float]] = None,
    constants: PhysicalConstants = CONSTANTS,
) -> Trajectory:
    """Integrate the translational dynamics from ``initial`` to ``t_end``.

    Samples are produced at ``t_eval`` (default: 1000 uniform times), which
    must be sorted and lie within [initial.t, t_end], and ``t_end`` must be
    finite: a decreasing ``t_eval``, one with a NaN or outside that span,
    or an infinite or NaN ``t_end`` raises ValueError.  The residual
    comes by Picard passes over the breakpoints, the samples and the
    effective flips among them (see the module docstring), stopped at the
    tolerances of ``cfg``.  The source must have a harmonic centre
    (:func:`harmonic_centre`); one without raises FloatingPointError before
    any pass.
    """
    return _integrate_stack([initial], [spin_initial], [schedule], source, nd,
                            t_end, cfg, t_eval, constants)[0]


def sensitivity_scan(
    r: float,
    theta_values: Sequence[float],
    phi_values: Sequence[float],
    source,
    nd: NanodiamondParams,
    schedule: Optional[FlipSchedule],
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_samples: int = 400,
    constants: PhysicalConstants = CONSTANTS,
) -> list[dict]:
    """Trajectories for both spins from starts on a spherical shell.

    Starts are (r sin(theta) cos(phi), r sin(theta) sin(phi), r cos(theta))
    with the angles on the first octant.  Each record carries the transverse
    spin-overlap metrics (normalized by the shell radius, or absolutely for
    r = 0) and the maximum x-channel spin separation.  Every start and both
    spins are integrated as one stack.
    """
    if any(not (0.0 <= a <= math.pi / 2.0 + 1e-12)
           for a in (*theta_values, *phi_values)):
        raise ValueError("angular coordinates must lie in [0, pi/2]")
    if r < 0.0:
        raise ValueError("shell radius must be >= 0")
    t_eval = np.linspace(0.0, t_end, n_samples)
    norm = r if r > 0.0 else 1.0
    thetas = list(theta_values) if r > 0.0 else [0.0]
    phis = list(phi_values) if r > 0.0 else [0.0]
    angles = [(theta, phi) for theta in thetas for phi in phis]
    starts = [(r * math.sin(theta) * math.cos(phi),
               r * math.sin(theta) * math.sin(phi),
               r * math.cos(theta)) for theta, phi in angles]
    # One stacked run: rows (start 0, +1), (start 0, -1), (start 1, +1), ...
    spins = (1, -1)
    states = [TrajectoryState(t=0.0, q=q0, v=(0.0, 0.0, 0.0)) for q0 in starts]
    trajs = _integrate_stack(
        [state for state in states for _ in spins],
        spins * len(starts), [schedule] * (2 * len(starts)), source, nd,
        t_end, cfg, t_eval, constants)
    records: list[dict] = []
    for i, ((theta, phi), q0) in enumerate(zip(angles, starts)):
        up, down = trajs[2 * i], trajs[2 * i + 1]
        records.append({
            "theta": theta,
            "phi": phi,
            "start": q0,
            "y_overlap": np.abs(up.y - down.y).max() / norm,
            "z_overlap": np.abs(up.z - down.z).max() / norm,
            "x_separation_max": np.abs(up.x - down.x).max(),
            "trajectories": {1: up, -1: down},
        })
    return records


def delta_scan(
    delta_values: Sequence[float],
    source,
    nd: NanodiamondParams,
    n_flip: int,
    omega: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_samples: int = 800,
    constants: PhysicalConstants = CONSTANTS,
) -> list[dict]:
    """Deviation of the spin +1 trajectory from the synchronized one.

    For each phase shift delta between the spin flip and the current flip,
    integrates one full motion period from the origin and reports
    max |x_delta(t) - x_0(t)| / dx_max against the delta = 0 reference,
    with dx_max = 2 max |x_0(t)|.  The reference and every distinct lag are
    integrated as one stack.
    """
    if any(not (0.0 <= d < math.pi) for d in delta_values):
        raise ValueError("deltas must lie in [0, pi)")
    period = 2.0 * math.pi / omega
    t_eval = np.linspace(0.0, period, n_samples)
    start = TrajectoryState(t=0.0, q=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0))
    omega_dd = n_flip * omega
    # One stacked run: the synchronized reference, then each distinct lag.
    lags = [0.0] + sorted({float(d) for d in delta_values} - {0.0})
    trajs = _integrate_stack(
        [start] * len(lags), [1] * len(lags),
        [FlipSchedule(omega_dd=omega_dd, delta=d) for d in lags],
        source, nd, period, cfg, t_eval, constants)
    x = {d: tr.x for d, tr in zip(lags, trajs)}
    x_ref = x[0.0]
    dx_max = float(np.abs(x_ref).max() * 2.0)
    return [{"delta": float(delta),
             "deviation": float(np.abs(x[float(delta)] - x_ref).max() / dx_max)}
            for delta in delta_values]
