"""Adaptive integration of the nanodiamond translational dynamics.

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
driven by R, is integrated.  The residual obeys e'' = -K e + R; its
harmonic part is solved exactly too (variation of constants): per axis e
is carried as the amplitudes (a, b) of e = a cos(omega tau) + (b / omega)
sin(omega tau), in the reference's rotating frame, and only R moves them
(:class:`_Residual`).  With no -K e left in the stepped equation, RK45's
stability along the imaginary axis sets no cap; the step is held to half
an x oscillation, pi / omega_x, for the quartic dense output between the
step ends.  Each solver run starts at that cap, or at the run's span if
shorter: the residual starts at zero, where the initial-step rule would
start at 1e-6 s and take several steps to grow to the cap.  The error
control accepts or rejects every step, the first included.  The
reference's x range must stay inside the nearest loop plane on either
side of the centre, beyond which the pair does not confine along x.

A flip makes R jump by 2 (mu_s J(q) e_x / m - c): tiny near the centre, so
one solver call steps across every flip.  Per scan the jump is bounded on
the reference's (x, rho) envelope; where a step of min(pi / omega_x, span)
could lose more than the tolerance to it (:func:`_crosses_flips`), the
solver restarts at every effective flip instead, so no step straddles one.
The harmonic centre is a precondition: a source without one (a single
loop, or a stiffness that underflows) raises FloatingPointError before any
flip or solver call.

The trajectories of one scan (every shell start with both spins, or the
synchronized run with every flip lag) are integrated together as one stacked
(n, 6) residual state with the Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980) 19), one array-valued kernel evaluation per
right-hand side call, with the force J mu taken in closed form from the
kernel's (B_x, t, u, w) (see :mod:`ndspin.coils`).  The stepper,
:func:`solve_ivp`, repeats scipy 1.17's RK45 operation for operation, so
its steps and samples are scipy's bit for bit, and it is fused with the
stacked residual (:class:`_Residual`): each step computes its stage bases
once, in one array call over its five distinct stage times (every row's
reference offset, the phasor's cos and sin per axis, x* and the spin
moment); each right-hand side call then makes one kernel pass whose rho^2
the force shares and writes its stage derivative into its stage array,
and the dense output goes into the samples, which one pass through the
phasor then maps back to states.
The error norm is an RMS over the whole state, so ``rtol`` and ``atol``
are divided by sqrt(n): the stack's norm is then sqrt(sum_i norm_i^2) >=
max_i norm_i, and every trajectory is held at least as tightly as it
would be alone.  The position tolerances hold a and the velocity
tolerances b.  The residual is far smaller than the motion, so ``rtol``
reaches each row through the absolute tolerance, times the largest |q|
(or |v|) of its reference; the stack's ``rtol`` must not fall below
:data:`RTOL_FLOOR`, 100 machine epsilons.
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
    """Adaptive embedded Runge-Kutta pair: Dormand-Prince 5(4), stepped as
    scipy's RK45 steps it by :func:`solve_ivp`.

    Absolute floors are split between position and velocity; periods of
    hundreds of seconds with nanometer amplitudes need both.  The error
    control accepts or rejects every step; the only cap is half an x
    oscillation, pi / omega_x, which serves the dense output, not the
    stability of the residual integration, and is also the first step of
    each run (see the module docstring).  An n-row stack integrates at
    ``stack_rtol(n)``, which must be at least :data:`RTOL_FLOOR`.
    """

    rel_tol: float = 1e-9
    abs_tol_pos: float = 1e-12
    abs_tol_vel: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol_pos > 0.0 and self.abs_tol_vel > 0.0):
            raise ValueError("tolerances must be > 0")

    def stack_rtol(self, n: int) -> float:
        """The relative tolerance of an n-row stack, rel_tol / sqrt(n) (see
        the module docstring); the stepper refuses one below
        :data:`RTOL_FLOOR`."""
        return 1.0 / math.sqrt(n) * self.rel_tol


@dataclass(frozen=True)
class FlipSchedule:
    """Decoupling drive for the trajectory model.

    Spin flips at multiples of 2 pi / omega_dd; the coil current flips at the
    same times shifted by delta / omega_dd (delta in [0, pi)).
    """

    omega_dd: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega_dd > 0.0:
            raise ValueError("omega_dd must be > 0")
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
    """(spin flip times, field flip times) inside (0, t_end).  A flip within
    rounding of t_end (see :func:`_with_slack`) is dropped: it would only
    start a segment a few ulps long."""
    if schedule is None:
        return np.empty(0), np.empty(0)
    dt = 2.0 * math.pi / schedule.omega_dd
    n = int(math.floor(t_end / dt + 1e-12))
    spin_flips = dt * np.arange(1, n + 1)
    spin_flips = spin_flips[_with_slack(spin_flips) < t_end]
    field_flips = spin_flips + schedule.delta / schedule.omega_dd
    return spin_flips, field_flips[_with_slack(field_flips) < t_end]


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
    bx, t, _u, _w = source.btuw(np.zeros((1, 3)), constants)[:, 0]
    stiffness = ((-_chi_coefficient(nd, constants) / nd.mass * t) * t
                 * np.array((4.0, 1.0, 1.0)))
    if not (bx == 0.0 and np.all((stiffness >= np.finfo(float).tiny)
                                 & (stiffness < np.inf))):
        return None
    mu_s = _spin_moment(1, constants)
    return stiffness, np.array((-2.0 * t * mu_s / nd.mass, 0.0, 0.0))


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
    :func:`harmonic_centre`.
    """

    def __init__(self, centre, edges: np.ndarray, signs: np.ndarray,
                 y0: np.ndarray):
        self.edges = edges
        n, n_seg = signs.shape
        self.omega2, c = centre
        self.omega = np.sqrt(self.omega2)
        self.xstar = signs * (c[0] / self.omega2[0])
        z0 = y0[:, :3] + 1j * y0[:, 3:] / self.omega
        self.wx = np.empty((n, n_seg), dtype=complex)
        self.wx[:, 0] = z0[:, 0] - self.xstar[:, 0]
        self.wx[:, 1:] = (self.xstar[:, :-1] - self.xstar[:, 1:]) * np.exp(
            1j * self.omega[0] * (edges[1:-1] - edges[0]))
        np.cumsum(self.wx, axis=1, out=self.wx)
        self.wyz = z0[:, 1:]

    def segments(self, t: np.ndarray, hi: int) -> np.ndarray:
        """The segment of each time t of a solver run whose last segment is
        hi (every t at or after the run's start)."""
        return np.minimum(self.edges.searchsorted(t, side="right") - 1, hi)

    def phasor(self, t: np.ndarray) -> np.ndarray:
        """exp(-i omega tau) per time (axis 0) and axis (axis 1), with
        tau = t - edges[0]: cos(omega tau) - i sin(omega tau)."""
        return np.exp(-1j * self.omega * (t - self.edges[0])[:, None])

    def offsets(self, t: np.ndarray, k: np.ndarray, phasor: np.ndarray,
                ab: Optional[np.ndarray] = None) -> np.ndarray:
        """z - (x*_k, 0, 0) of every row at times t on segments k, shape
        (len(t), n, 3), with ``phasor`` the :meth:`phasor` of t: z_ref's,
        plus the residual's where its harmonic amplitudes ``ab``, shape
        (len(t), n, 6), are given.  Per axis the residual (a, b) adds
        a + i b / omega to z's amplitude (see :class:`_Residual`), so the
        one phasor turns both into states."""
        w = np.empty((len(t), len(self.wyz), 3), dtype=complex)
        w[..., 0] = self.wx[:, k].T
        w[..., 1:] = self.wyz
        if ab is not None:
            w.real += ab[..., :3]
            w.imag += ab[..., 3:] / self.omega
        w *= phasor[:, None]
        return w

    def state(self, t: np.ndarray, hi: int, ab: Optional[np.ndarray] = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """q and v, each shape (n, len(t), 3), at times t of a solver run
        whose last segment is hi: q_ref and v_ref, or the states of the
        rows whose residual amplitudes ``ab``, shape (n, len(t), 6), are
        given."""
        k = self.segments(t, hi)
        if ab is not None:
            ab = ab.transpose(1, 0, 2)
        off = self.offsets(t, k, self.phasor(t), ab).transpose(1, 0, 2)
        q = off.real
        q[..., 0] += self.xstar[:, k]
        return q, self.omega * off.imag

    def envelope(self) -> tuple[np.ndarray, np.ndarray, tuple, float]:
        """Per row, the largest |q_ref| and |v_ref| components, shape (n,)
        each; the x range and the largest rho that q_ref reaches."""
        ax, ayz = np.abs(self.wx), np.abs(self.wyz)
        return (np.maximum((np.abs(self.xstar) + ax).max(axis=1), ayz.max(axis=1)),
                np.maximum(self.omega[0] * ax.max(axis=1),
                           (self.omega[1:] * ayz).max(axis=1)),
                ((self.xstar - ax).min(), (self.xstar + ax).max()),
                float(np.hypot(ayz[:, 0], ayz[:, 1]).max()))


#: Points per side of the (x, rho) grid on which R's jump is bounded, and
#: the safety factor on that bound, for the grid's spacing and for the
#: residual, which moves q off the reference's envelope.
_JUMP_GRID = 9
_JUMP_MARGIN = 2.0


def _crosses_flips(source, nd: NanodiamondParams, constants: PhysicalConstants,
                   c: np.ndarray, x_range: tuple, rho_max: float,
                   span: float, omega: np.ndarray, atol: np.ndarray) -> bool:
    """Whether one solver call may step across the flips.

    At a flip R jumps by 2 |mu_s J(q) e_x / m - c|, a function of (x, rho)
    alone, since J e_x = (-2t - w rho^2, u y, u z).  Its largest value on a
    _JUMP_GRID-square grid over the reference's envelope (x in ``x_range``,
    rho <= ``rho_max``; one kernel pass), times _JUMP_MARGIN, is the bound
    D.  The residual's amplitudes move as b' = cos(omega tau) R and
    a' = -(sin(omega tau) / omega) R (see :class:`_Residual`), so a step of
    length h that straddles flips can lose at most D h of b and D h / omega
    of a to them, with the smallest of the axes' ``omega`` (twice the
    jump's integral over the step, for the exact flow and for the
    stepper's stages); the solver crosses flips if that stays within every
    absolute tolerance for h = ``span``, the longest step allowed.
    """
    x, rho = (g.ravel() for g in np.meshgrid(
        np.linspace(*x_range, _JUMP_GRID), np.linspace(0.0, rho_max, _JUMP_GRID)))
    _bx, t, u, w = source.btuw(np.stack((x, rho, np.zeros_like(x)), axis=1),
                               constants)
    mu_s = _spin_moment(1, constants) / nd.mass
    jump = _JUMP_MARGIN * 2.0 * np.max(np.hypot(
        (-2.0 * t - w * rho * rho) * mu_s - c[0], u * rho * mu_s))
    return bool(jump * span <= atol[:, 3:].min()
                and jump * span / omega.min() <= atol[:, :3].min())


#: Dormand & Prince's RK5(4)7M pair with Shampine's quartic dense output,
#: as scipy's RK45 holds it: stage times C, stage weights A, the fifth-order
#: weights B, the error weights E (fifth- minus fourth-order, the FSAL stage
#: included) and the interpolant's coefficients P.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
#: The step-size controller: safety factor, the bounds of one change and
#: the exponent -1 / (error order + 1).
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
#: The smallest relative tolerance the stepper takes: 100 machine epsilons.
RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    """RMS norm of a state-sized array, as ``np.linalg.norm(x) / sqrt(x.size)``
    computes it."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


@dataclass(frozen=True)
class _Solution:
    """One solver run, with the fields of scipy's result that the engine,
    the tests and the benchmark's tracer read: the accepted step times
    ``t``, the states ``y``, shape (6 n, len(t)), the RHS calls ``nfev``,
    and ``success`` with its ``message``."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


class _Residual:
    """Right-hand side of a stack's residual e = y - y_ref, shape (n, 6),
    carried as its harmonic amplitudes (a, b) per axis, on a solver run
    whose last segment is ``hi``.

    e'' = -K e + R, and the harmonic part is solved exactly (variation of
    constants): e = a cos(omega tau) + (b / omega) sin(omega tau) and
    e_v = -a omega sin(omega tau) + b cos(omega tau), with tau = t -
    edges[0] and the reference's omega per axis, so that (a, b) = (e, e_v)
    at tau = 0 and only R drives them: a' = -(sin(omega tau) / omega) R,
    b' = cos(omega tau) R.  R = F(q) / m + K (off + e) with q = q_ref + e,
    where off = q_ref - x* e_x is the reference offset.

    :meth:`at` takes the reference at a batch of times in one array call
    (the initial derivative, or a step's five distinct stage times) and
    keeps each time's reference offset, its cos(omega tau) and
    -sin(omega tau) / omega (both from the phasor that forms the offset),
    x* and spin moment, one row per time.  A call then writes (a', b') at
    the j-th of those times into a stage row, shape (n, 6), from one
    kernel pass that shares rho^2 with the force.
    """

    def __init__(self, ref: _Reference, source, constants: PhysicalConstants,
                 a_mass: float, mu_spin: np.ndarray):
        self.ref, self.btuw, self.constants = ref, source.btuw, constants
        # A 0-d array, which numpy's ufuncs take without converting a
        # Python float at every call.
        self.a_mass = np.array(a_mass)
        # x* and the spin moment per segment (axis 0) and row (axis 1).
        self.seg_xstar, self.seg_mu = ref.xstar.T.copy(), mu_spin.T.copy()
        self.hi = 0

    def at(self, times: np.ndarray) -> None:
        k = self.ref.segments(times, self.hi)
        phasor = self.ref.phasor(times)
        self.off = self.ref.offsets(times, k, phasor).real
        self.cos = phasor.real
        # -sin / omega, since the phasor's imaginary part is -sin.
        self.sin_w = phasor.imag / self.ref.omega
        self.xstar, self.mu = self.seg_xstar[k], self.seg_mu[k]

    def __call__(self, j: int, ab: np.ndarray, out: np.ndarray) -> None:
        if not np.isfinite(ab).all():
            raise FloatingPointError("non-finite state during integration")
        ab = ab.reshape(out.shape)
        cos, sin_w = self.cos[j], self.sin_w[j]
        # (off + e) + x*, in this order: a base off + x* formed once per
        # step would round differently.  K (off + e) is taken before x* is
        # added.
        q = self.off[j] + (ab[:, :3] * cos - ab[:, 3:] * sin_w)
        k_q = self.ref.omega2 * q
        q[:, 0] += self.xstar[j]
        rho2 = _rho2(q)
        r = _force(q, rho2, self.btuw(q, self.constants, rho2), self.a_mass,
                   self.mu[j], out=out[:, 3:])
        r += k_q
        np.multiply(r, sin_w, out=out[:, :3])
        r *= cos


def solve_ivp(fun: _Residual, t_span: tuple, y0: np.ndarray, rtol: float,
              atol: np.ndarray, max_step: float, t_eval: np.ndarray,
              out: np.ndarray) -> _Solution:
    """Dormand-Prince 5(4) over ``t_span`` on the stacked residual ``fun``
    from ``y0``, shape (6 n,), stepped as scipy 1.17's RK45 steps it with
    ``first_step=min(max_step, span)``, operation for operation: the
    tableau, the minimum step of ten ulps of t, the controller, the RMS
    error norm over atol + rtol max(|y|, |y_new|) and the quartic dense
    output, which a sample at a step's end takes from the step before it.
    The samples ``t_eval`` (sorted, inside ``t_span``) are written into
    ``out``, shape (n, len(t_eval), 6).  An rtol below :data:`RTOL_FLOOR`
    raises ValueError.
    """
    t, t_bound = map(float, t_span)
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol = {rtol:g} is below the stepper's floor "
                         f"100 eps = {RTOL_FLOOR:g}")
    y = np.asarray(y0, dtype=float)
    # The stages, one row each; row 0 holds the derivative at the step's
    # start, row 6 the one at its end (FSAL: first same as last).
    k = np.empty((7, y.size))
    rows = k.reshape(7, -1, 6)
    fun.at(np.array([t]))
    fun(0, y, rows[0])
    nfev = 1
    h_abs = min(max_step, t_bound - t)
    ts, ys = [t], [y]
    done = 0
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return _Solution(np.array(ts), np.array(ys).T, nfev, False,
                                 "Required step size is less than spacing "
                                 "between numbers.")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            # The five distinct stage times; the last is also the FSAL
            # evaluation's.
            fun.at(t + _C[1:] * h)
            for s in range(1, 6):
                dy = np.dot(k[:s].T, _A[s, :s]) * h
                fun(s - 1, y + dy, rows[s])
            y_new = y + h * np.dot(k[:-1].T, _B)
            fun(4, y_new, rows[6])
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(k.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        if done < len(t_eval) and t_eval[done] <= t_new:
            stop = np.searchsorted(t_eval, t_new, side="right")
            # Powers x, x^2, x^3, x^4 of the step fraction, as cumprod
            # forms them.
            powers = np.empty((4, stop - done))
            powers[0] = (t_eval[done:stop] - t) / h
            for i in range(1, 4):
                np.multiply(powers[i - 1], powers[0], out=powers[i])
            dense = h * np.dot(k.T.dot(_P), powers)
            dense += y[:, None]
            out[:, done:stop] = dense.reshape(len(out), 6, -1).transpose(0, 2, 1)
            done = stop
        t, y = t_new, y_new
        k[0] = k[6]
        ts.append(t)
        ys.append(y)
        if t - t_bound >= 0:
            return _Solution(np.array(ts), np.array(ys).T, nfev, True,
                             "The solver successfully reached the end of the "
                             "integration interval.")


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
    schedule), all starting at ``starts[0].t``, as one stacked (n, 6)
    residual state about the harmonic reference; see the module docstring.
    A source without a harmonic centre raises FloatingPointError before
    anything else.  A failure raises :class:`IntegrationError` with the
    first row's last state; an overflow or an invalid operation raises
    FloatingPointError where it happens, and so does a reference that
    reaches a loop plane."""
    centre = harmonic_centre(source, nd, constants)
    if centre is None:
        raise FloatingPointError(
            "the trap stiffness at the coil centre is not a positive normal "
            "number, so there is no trap period to integrate over")
    t0 = starts[0].t
    if not t_end > t0:
        raise ValueError("t_end must exceed the initial time")
    if any(s not in (-1, 1) for s in spins):
        raise ValueError("spin_initial must be -1 or +1")
    if t_eval is None:
        t_eval = np.linspace(t0, t_end, 1000)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t0) or np.any(t_eval > t_end):
        raise ValueError("t_eval must lie within [initial.t, t_end]")

    n = len(starts)
    # Rows that share a schedule share its flips and signs.
    distinct = list(dict.fromkeys(schedules))
    row_schedule = [distinct.index(sched) for sched in schedules]
    flips = [_flip_times(sched, t_end) for sched in distinct]
    # The force follows the sign spin * current alone, so a spin flip and a
    # current flip at the same instant cancel; each row's sign changes only
    # at the times found in exactly one of its two flip lists.
    effective = [np.setxor1d(sf, ff) for sf, ff in flips]
    edges = np.unique(np.concatenate([[t0, t_end], *effective]))
    edges = edges[(edges >= t0) & (edges <= t_end)]
    n_seg = len(edges) - 1
    mids = 0.5 * (edges[:-1] + edges[1:])
    # The sign spin * current of each row (axis 0) on each segment (axis 1).
    signs = np.array(spins)[:, None] * np.array(
        [(-1) ** np.searchsorted(ef, mids, side="right") for ef in effective]
    )[row_schedule]
    # The RHS takes the acceleration from _force with both moment terms
    # divided by the mass: the spin moment at each sign, and -chi V / mu0.
    mu_spin = _spin_moment(signs, constants) / nd.mass
    a_mass = _chi_coefficient(nd, constants) / nd.mass
    y0 = np.array([[*st.q, *st.v] for st in starts], dtype=float)
    ref = _Reference(centre, edges, signs, y0)

    # The error norm is an RMS over the whole flattened state; dividing
    # both tolerances by sqrt(n) turns it into sqrt(sum_i norm_i^2) over the
    # rows, which bounds every row's own norm.  rtol reaches each row
    # through atol, times the largest |q| and |v| of its reference.
    pos, vel, x_range, rho_max = ref.envelope()
    _check_confined(source, x_range)
    scale = 1.0 / math.sqrt(n)
    atol = scale * np.repeat(np.stack((cfg.abs_tol_pos + cfg.rel_tol * pos,
                                       cfg.abs_tol_vel + cfg.rel_tol * vel),
                                      axis=1), 3, axis=1).ravel()
    rtol = cfg.stack_rtol(n)
    # The harmonic amplitudes leave no linear term for a step to amplify;
    # the cap of half an x oscillation serves the quartic dense output
    # (see the module docstring).
    max_step = math.pi / ref.omega[0]
    # One solver call steps across every flip, unless R's jumps could break
    # the tolerance: then it restarts at every effective flip.
    if n_seg == 1 or _crosses_flips(
            source, nd, constants, centre[1], x_range, rho_max,
            min(max_step, t_end - t0), ref.omega, atol.reshape(n, 6)):
        runs = [(0, n_seg - 1)]
    else:
        runs = [(k, k) for k in range(n_seg)]

    order = np.argsort(t_eval, kind="stable")
    t_sorted = t_eval[order]
    # A sample within rounding of a restart or a spin flip belongs to the
    # time before it.
    ends = np.searchsorted(t_sorted, _with_slack(edges[[hi + 1 for _lo, hi in runs]]),
                           side="right")
    # The samples in time order; each run writes its residual amplitudes
    # into its own, which become states at the end of the run.
    samples = np.empty((n, len(t_eval), 6))

    q_ref, v_ref = ref.state(edges[:1], 0)
    state = (y0 - np.concatenate((q_ref[:, 0], v_ref[:, 0]), axis=1)).ravel()
    residual = _Residual(ref, source, constants, a_mass, mu_spin)
    filled = 0
    for (lo, hi), last in zip(runs, ends):
        ta, tb = edges[lo], edges[hi + 1]
        residual.hi = hi
        seg_t = np.clip(t_sorted[filled:last], ta, tb)
        sol = solve_ivp(residual, (ta, tb), state, rtol, atol, max_step,
                        seg_t, samples[:, filled:last])
        if not sol.success:
            q, v = ref.state(sol.t[-1:], hi, sol.y[:, -1].reshape(n, 1, 6))
            raise IntegrationError(
                f"integration failed in [{ta:g}, {tb:g}] s: {sol.message}",
                TrajectoryState(t=float(sol.t[-1]), q=tuple(q[0, 0]),
                                v=tuple(v[0, 0])))
        if last > filled:
            run = samples[:, filled:last]
            run[..., :3], run[..., 3:] = ref.state(seg_t, hi, run)
            filled = last
        state = sol.y[:, -1]

    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    spin_patterns = [(-1) ** np.searchsorted(_with_slack(sf), t_eval, side="left")
                     for sf, _ff in flips]
    return [Trajectory(t=t_eval.copy(), q=samples[i, rank, :3],
                       v=samples[i, rank, 3:],
                       spin=spins[i] * spin_patterns[j],
                       flip_times=flips[j][0].copy())
            for i, j in enumerate(row_schedule)]


def _check_confined(source, x_range: tuple) -> None:
    """Raise FloatingPointError where the reference's x range reaches the
    nearest loop plane on either side of the centre: beyond it the pair
    does not confine along x.  A source without loops has no plane."""
    planes = np.array([lp.x_c for lp in getattr(source, "loops", ())])
    ahead, behind = planes[planes > 0.0], planes[planes < 0.0]
    if ((ahead.size and x_range[1] >= ahead.min())
            or (behind.size and x_range[0] <= behind.max())):
        raise FloatingPointError(
            f"the harmonic reference spans x in [{x_range[0]:.3g}, "
            f"{x_range[1]:.3g}] m, past a loop plane of the source: the "
            "trap does not hold the particle")


def _with_slack(times: np.ndarray) -> np.ndarray:
    """Each time plus 1e-15 max(1, t): a sample at or below it is taken as
    before the event, so one landing on a flip keeps the pre-flip sign."""
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

    Samples are produced at ``t_eval`` (default: 1000 uniform times).  The
    solver steps across the effective flips (see the module docstring), or
    restarts at each where their jump in R could break the tolerance.  The
    source must have a harmonic centre (:func:`harmonic_centre`); one
    without raises FloatingPointError before any solver call.
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
    trajs = _integrate_stack(
        [TrajectoryState(t=0.0, q=q0, v=(0.0, 0.0, 0.0))
         for q0 in starts for _ in spins],
        spins * len(starts), [schedule] * (2 * len(starts)), source, nd,
        t_end, cfg, t_eval, constants)
    records: list[dict] = []
    for i, ((theta, phi), q0) in enumerate(zip(angles, starts)):
        up, down = trajs[2 * i], trajs[2 * i + 1]
        records.append({
            "theta": theta,
            "phi": phi,
            "start": q0,
            "y_overlap": np.max(np.abs(up.y - down.y)) / norm,
            "z_overlap": np.max(np.abs(up.z - down.z)) / norm,
            "x_separation_max": np.max(np.abs(up.x - down.x)),
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
    dx_max = float(np.max(np.abs(x_ref)) * 2.0)
    return [{"delta": float(delta),
             "deviation": float(np.max(np.abs(x[float(delta)] - x_ref)) / dx_max)}
            for delta in delta_values]
