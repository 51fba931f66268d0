"""Adaptive integration of the nanodiamond translational dynamics.

The rigid-body center of mass obeys

    m dv/dt = (mu . grad) B,     dq/dt = v,

with the magnetic moment the superposition of the induced diamagnetic part
chi V B / mu0 (chi signed negative; the trap confines toward the field
minimum) and a permanent spin part along the free axis.  The spin-moment
magnitude defaults to hbar gamma_e, consistent with the analytic branch
model; a switch selects the bare Bohr-magneton convention instead.  Gravity
is excluded: the trap is taken to compensate it.

Decoupling flips are instantaneous events.  The spin sign reverses at every
multiple of 2 pi / omega_DD and the coil current sign follows after the
phase lag delta / omega_DD.  The force depends only on the product of the
two signs, so a spin flip and a current flip at the same instant cancel:
a trajectory's effective flips are the times in exactly one of its two
flip lists.  Each effective flip is an exact step boundary (the
integrator restarts there), so no sign change of the force is ever
straddled by a step; a synchronized schedule (delta = 0) has none.

The trajectories of one scan (every shell start with both spins, or the
synchronized run with every flip lag) are integrated together as one stacked
(n, 6) state: one ``solve_ivp`` call (scipy's Dormand-Prince 5(4) pair,
RK45) per segment of the union of their effective flips, one array-valued
kernel evaluation per right-hand side call, with the force J mu taken in
closed form from the kernel's (B_x, t, u, w) (see :mod:`ndspin.coils`).  Each
segment starts from the step size the controller proposed at the end of the
one before (the larger of its proposals before and after that final step,
which is cut short at the boundary), so no segment probes for a step again
and none is held below the controller's natural step; the error test still
accepts or rejects every step.  scipy's error norm is an RMS over the whole
state, so ``rtol`` and ``atol`` are divided by sqrt(n): the stack's norm is
then sqrt(sum_i norm_i^2) >= max_i norm_i, and every trajectory is held at
least as tightly as it would be alone.
:func:`integrate` is the n = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import RK45, solve_ivp

from .core import CONSTANTS, NanodiamondParams, PhysicalConstants

__all__ = [
    "TrajectoryState",
    "IntegratorConfig",
    "FlipSchedule",
    "Trajectory",
    "IntegrationError",
    "magnetic_moment",
    "force",
    "integrate",
    "sensitivity_scan",
    "delta_scan",
]

#: Spin-moment conventions: "gamma_e" reproduces the analytic equilibria
#: (moment -s hbar gamma_e along x, from the Zeeman energy +hbar gamma_e S_x B);
#: "mu_B" is the bare-Bohr-magneton force model +s mu_B.
SPIN_MOMENT_CONVENTIONS = ("gamma_e", "mu_B")

#: The most steps a ``max_step`` may force on one integration: a scan
#: needs tens to hundreds of steps per period, and a smaller ``max_step``
#: would run for hours.
MAX_STEPS = 10**6


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
    """Adaptive embedded Runge-Kutta pair: Dormand-Prince 5(4) (scipy RK45).

    Absolute floors are split between position and velocity; periods of
    hundreds of seconds with nanometer amplitudes need both.
    """

    rel_tol: float = 1e-9
    abs_tol_pos: float = 1e-12
    abs_tol_vel: float = 1e-12
    max_step: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol_pos > 0.0 and self.abs_tol_vel > 0.0):
            raise ValueError("tolerances must be > 0")
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValueError("max_step must be > 0")


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
    spin_moment: str = "gamma_e",
) -> np.ndarray:
    """Total magnetic moment (A m^2): diamagnetic response plus the spin
    moment, which is nonzero only along x.

    Broadcasts over rows: ``B`` of shape (3,) or (n, 3) with ``spin_sign``
    a scalar or one sign per row.
    """
    mu = _chi_coefficient(nd, constants) * np.asarray(B, dtype=float)
    mu[..., 0] += _spin_moment(spin_sign, constants, spin_moment)
    return mu


def _chi_coefficient(nd: NanodiamondParams, constants: PhysicalConstants) -> float:
    """Induced moment per unit field, -chi V / mu0 (A m^2 / T)."""
    return -nd.chi_magnitude * nd.volume / constants.mu0


def _spin_moment(spin_sign, constants: PhysicalConstants, spin_moment: str):
    """Spin moment along x (A m^2) for each sign of ``spin_sign``, in the
    convention ``spin_moment``; both are checked here."""
    if spin_moment not in SPIN_MOMENT_CONVENTIONS:
        raise ValueError(f"spin_moment must be one of {SPIN_MOMENT_CONVENTIONS}")
    spin_sign = np.asarray(spin_sign)
    if not (np.abs(spin_sign) == 1).all():
        raise ValueError("spin_sign must be -1 or +1")
    if spin_moment == "gamma_e":
        return spin_sign * (-constants.hbar * constants.gamma_e)
    return spin_sign * constants.mu_B


def force(
    q: Sequence[float],
    spin_sign,
    source,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
    spin_moment: str = "gamma_e",
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
    mu_spin = _spin_moment(np.multiply(spin_sign, field_sign), constants,
                           spin_moment)
    return _force(rows, source.btuw(rows, constants),
                  _chi_coefficient(nd, constants), mu_spin).reshape(q.shape)


def _force(q: np.ndarray, btuw: np.ndarray, a: float, mu_spin) -> np.ndarray:
    """J mu per row, shape (n, 3), in closed form from the kernel's
    (B_x, t, u, w) at the rows of q, for the moment mu = a B + mu_spin e_x.

    With rho^2 = y^2 + z^2 and mu_x = a B_x + mu_spin, the J and B of
    :mod:`ndspin.coils` give
    F = (-(2t + w rho^2) mu_x + a t u rho^2, y G, z G) with
    G = u mu_x + a t (t + w rho^2).  The force is linear in (a, mu_spin),
    so scaling both by 1/m gives the acceleration.
    """
    bx, t, u, w = btuw
    y, z = q[:, 1], q[:, 2]
    rho2 = y * y + z * z
    mu_x = a * bx + mu_spin
    at = a * t
    w_rho2 = w * rho2
    g = u * mu_x + at * (t + w_rho2)
    return np.array((at * u * rho2 - (2.0 * t + w_rho2) * mu_x, y * g, z * g)).T


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


class _CarriedRK45(RK45):
    """scipy's RK45, started from the step size held in ``carry[0]``
    (``None``: scipy's own initial-step probe); after each step it leaves
    there the larger of the controller's proposal before the step (uncut by
    the end of the span) and after it."""

    def __init__(self, fun, t0, y0, t_bound, carry, **options):
        if carry[0] is not None:
            options["first_step"] = min(carry[0], abs(t_bound - t0))
        super().__init__(fun, t0, y0, t_bound, **options)
        if carry[0] is not None:
            self.h_abs = carry[0]
        self._carry = carry

    def _step_impl(self):
        proposed = self.h_abs
        result = super()._step_impl()
        self._carry[0] = max(proposed, self.h_abs)
        return result


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
    spin_moment: str,
) -> list[Trajectory]:
    """Integrate n trajectories (one per start, initial spin and flip
    schedule), all starting at ``starts[0].t``, as one stacked (n, 6)
    state; see the module docstring.  A failure raises
    :class:`IntegrationError` with the first row's last state."""
    t0 = starts[0].t
    if not t_end > t0:
        raise ValueError("t_end must exceed the initial time")
    if cfg.max_step is not None and (t_end - t0) / cfg.max_step > MAX_STEPS:
        raise ValueError(
            f"max_step {cfg.max_step:g} s needs more than {MAX_STEPS:.0e} "
            f"steps over [{t0:g}, {t_end:g}] s")
    if any(s not in (-1, 1) for s in spins):
        raise ValueError("spin_initial must be -1 or +1")
    if t_eval is None:
        t_eval = np.linspace(t0, t_end, 1000)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t0) or np.any(t_eval > t_end):
        raise ValueError("t_eval must lie within [initial.t, t_end]")

    n = len(starts)
    flips = [_flip_times(sched, t_end) for sched in schedules]
    # The force follows the sign spin * current alone, so a spin flip and a
    # current flip at the same instant cancel; each row restarts only at
    # the times found in exactly one of its two flip lists.
    effective = [np.setxor1d(sf, ff) for sf, ff in flips]
    boundaries = np.unique(np.concatenate([[t0, t_end], *effective]))
    boundaries = boundaries[(boundaries >= t0) & (boundaries <= t_end)]
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    # The RHS takes the acceleration from _force with both moment terms
    # divided by the mass: the spin moment of each row (axis 0) on each
    # segment (axis 1), at the sign spin * current, and -chi V / mu0.
    mu_spin = _spin_moment(
        np.array(spins)[:, None] * np.array(
            [(-1) ** np.searchsorted(ef, mids, side="right") for ef in effective]),
        constants, spin_moment) / nd.mass
    a_mass = _chi_coefficient(nd, constants) / nd.mass

    # scipy's error norm is an RMS over the whole flattened state; dividing
    # both tolerances by sqrt(n) turns it into sqrt(sum_i norm_i^2) over the
    # rows, which bounds every row's own norm.
    scale = 1.0 / math.sqrt(n)
    atol = scale * np.tile([cfg.abs_tol_pos] * 3 + [cfg.abs_tol_vel] * 3, n)
    rtol = scale * cfg.rel_tol
    max_step = cfg.max_step if cfg.max_step is not None else np.inf

    order = np.argsort(t_eval, kind="stable")
    t_sorted = t_eval[order]
    # A sample within rounding of a boundary or a spin flip belongs to the
    # time before it.
    ends = np.searchsorted(t_sorted, _with_slack(boundaries[1:]), side="right")
    out = np.empty((n, 6, len(t_eval)))

    state = np.array([[*st.q, *st.v] for st in starts], dtype=float).ravel()
    carry = [None]
    filled = 0
    for k, hi in enumerate(ends):
        ta, tb = boundaries[k], boundaries[k + 1]

        def rhs(_t, y, mu_spin=mu_spin[:, k]):
            if not np.isfinite(y).all():
                raise FloatingPointError("non-finite state during integration")
            y = y.reshape(n, 6)
            q = y[:, :3]
            acc = _force(q, source.btuw(q, constants), a_mass, mu_spin)
            return np.concatenate((y[:, 3:], acc), axis=1).ravel()

        sol = solve_ivp(rhs, (ta, tb), state, method=_CarriedRK45,
                        carry=carry, rtol=rtol, atol=atol, max_step=max_step,
                        dense_output=hi > filled)
        if not sol.success:
            last = TrajectoryState(t=float(sol.t[-1]) if sol.t.size else ta,
                                   q=tuple(sol.y[:3, -1]) if sol.t.size else starts[0].q,
                                   v=tuple(sol.y[3:6, -1]) if sol.t.size else starts[0].v)
            raise IntegrationError(
                f"integration failed in [{ta:g}, {tb:g}] s: {sol.message}", last)
        if hi > filled:
            seg_eval = np.clip(t_sorted[filled:hi], ta, tb)
            out[:, :, order[filled:hi]] = sol.sol(seg_eval).reshape(n, 6, -1)
            filled = hi
        state = sol.y[:, -1]

    return [Trajectory(t=t_eval.copy(), q=out[i, :3].T.copy(),
                       v=out[i, 3:].T.copy(),
                       spin=spins[i] * (-1) ** np.searchsorted(
                           _with_slack(sf), t_eval, side="left"),
                       flip_times=sf)
            for i, (sf, _ff) in enumerate(flips)]


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
    spin_moment: str = "gamma_e",
) -> Trajectory:
    """Integrate the translational dynamics from ``initial`` to ``t_end``.

    Samples are produced at ``t_eval`` (default: 1000 uniform times).  The
    effective flips (see the module docstring) partition the integration
    into restart segments.
    """
    return _integrate_stack([initial], [spin_initial], [schedule], source, nd,
                            t_end, cfg, t_eval, constants, spin_moment)[0]


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
    spin_moment: str = "gamma_e",
) -> list[dict]:
    """Trajectories for both spins from starts on a spherical shell.

    Starts are (r sin(theta) cos(phi), r sin(theta) sin(phi), r cos(theta))
    with the angles on the first octant.  Each record carries the transverse
    spin-overlap metrics (normalized by the shell radius, or absolutely for
    r = 0) and the maximum x-channel spin separation.  ``spin_moment`` is
    the convention of :func:`magnetic_moment`.  Every start and both spins
    are integrated as one stack.
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
        t_end, cfg, t_eval, constants, spin_moment)
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
    dx_max: Optional[float] = None,
    spin_moment: str = "gamma_e",
) -> list[dict]:
    """Deviation of the spin +1 trajectory from the synchronized one.

    For each phase shift delta between the spin flip and the current flip,
    integrates one full motion period from the origin and reports
    max |x_delta(t) - x_0(t)| / dx_max against the delta = 0 reference.
    ``spin_moment`` is the convention of :func:`magnetic_moment`.  The
    reference and every distinct lag are integrated as one stack.
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
        source, nd, period, cfg, t_eval, constants, spin_moment)
    x = {d: tr.x for d, tr in zip(lags, trajs)}
    x_ref = x[0.0]
    if dx_max is None:
        dx_max = float(np.max(np.abs(x_ref)) * 2.0)
    return [{"delta": float(delta),
             "deviation": float(np.max(np.abs(x[float(delta)] - x_ref)) / dx_max)}
            for delta in delta_values]
