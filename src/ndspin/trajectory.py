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
phase lag delta / omega_DD; each flip is an exact step boundary (the
integrator restarts there), so no event is ever straddled by a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

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
    """Adaptive embedded 4(5) pair (Dormand-Prince, scipy RK45).

    Absolute floors are split between position and velocity; periods of
    hundreds of seconds with nanometer amplitudes need both.
    """

    rel_tol: float = 1e-9
    abs_tol_pos: float = 1e-12
    abs_tol_vel: float = 1e-12
    max_step: Optional[float] = None
    method: str = "RK45"

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
    spin_initial: int = 1

    def __post_init__(self) -> None:
        if not self.omega_dd > 0.0:
            raise ValueError("omega_dd must be > 0")
        if not (0.0 <= self.delta < math.pi):
            raise ValueError("delta must lie in [0, pi)")
        if self.spin_initial not in (-1, 1):
            raise ValueError("spin_initial must be -1 or +1")


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
    spin_sign: int,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
    spin_moment: str = "gamma_e",
) -> np.ndarray:
    """Total magnetic moment (A m^2): diamagnetic response plus the spin
    moment, which is nonzero only along x."""
    if spin_moment not in SPIN_MOMENT_CONVENTIONS:
        raise ValueError(f"spin_moment must be one of {SPIN_MOMENT_CONVENTIONS}")
    if spin_sign not in (-1, 1):
        raise ValueError("spin_sign must be -1 or +1")
    mu = (-nd.chi_magnitude * nd.volume / constants.mu0) * np.asarray(B, dtype=float)
    if spin_moment == "gamma_e":
        mu_spin = -spin_sign * constants.hbar * constants.gamma_e
    else:
        mu_spin = +spin_sign * constants.mu_B
    mu[0] += mu_spin
    return mu


def force(
    q: Sequence[float],
    spin_sign: int,
    source,
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
    spin_moment: str = "gamma_e",
    field_sign: float = 1.0,
) -> np.ndarray:
    """Magnetic force (mu . grad) B at position q (N).

    ``source`` is any field source exposing ``field_at`` and ``jacobian_at``
    (a coil assembly or the idealized uniform-gradient field);
    ``field_sign`` models the reversed coil current during decoupling.
    """
    B = field_sign * source.field_at(q, constants)
    J = field_sign * source.jacobian_at(q, constants)
    mu = magnetic_moment(B, spin_sign, nd, constants, spin_moment)
    return J @ mu


def _flip_times(schedule: Optional[FlipSchedule], t_end: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """(spin flip times, field flip times) inside (0, t_end)."""
    if schedule is None:
        return np.empty(0), np.empty(0)
    dt = 2.0 * math.pi / schedule.omega_dd
    n = int(math.floor(t_end / dt + 1e-12))
    spin_flips = dt * np.arange(1, n + 1)
    spin_flips = spin_flips[spin_flips < t_end]
    lag = schedule.delta / schedule.omega_dd
    field_flips = spin_flips + lag
    field_flips = field_flips[field_flips < t_end]
    return spin_flips, field_flips


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

    Samples are produced at ``t_eval`` (default: 1000 uniform times).  Flip
    events partition the integration into restart segments.
    """
    if not t_end > initial.t:
        raise ValueError("t_end must exceed the initial time")
    if spin_initial not in (-1, 1):
        raise ValueError("spin_initial must be -1 or +1")
    if t_eval is None:
        t_eval = np.linspace(initial.t, t_end, 1000)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < initial.t) or np.any(t_eval > t_end):
        raise ValueError("t_eval must lie within [initial.t, t_end]")

    spin_flips, field_flips = _flip_times(schedule, t_end)
    boundaries = np.unique(np.concatenate(
        ([initial.t, t_end], spin_flips, field_flips)))
    boundaries = boundaries[(boundaries >= initial.t) & (boundaries <= t_end)]

    mass = nd.mass
    atol = np.array([cfg.abs_tol_pos] * 3 + [cfg.abs_tol_vel] * 3)
    max_step = cfg.max_step if cfg.max_step is not None else np.inf

    order = np.argsort(t_eval, kind="stable")
    t_sorted = t_eval[order]
    out_q = np.empty((len(t_eval), 3))
    out_v = np.empty((len(t_eval), 3))
    out_spin = np.empty(len(t_eval), dtype=int)

    state = np.array([*initial.q, *initial.v], dtype=float)
    filled = 0
    for k in range(len(boundaries) - 1):
        t0, t1 = boundaries[k], boundaries[k + 1]
        mid = 0.5 * (t0 + t1)
        spin_sign = spin_initial * (-1) ** int(np.sum(spin_flips <= mid))
        field_sign = (-1.0) ** int(np.sum(field_flips <= mid))

        def rhs(_t, y, s=spin_sign, fs=field_sign):
            if not np.all(np.isfinite(y)):
                raise FloatingPointError("non-finite state during integration")
            f = force(y[:3], s, source, nd, constants, spin_moment, fs)
            return np.concatenate((y[3:], f / mass))

        hi = filled
        while hi < len(t_sorted) and t_sorted[hi] <= t1 + 1e-15 * max(1.0, t1):
            hi += 1

        sol = solve_ivp(rhs, (t0, t1), state, method=cfg.method,
                        rtol=cfg.rel_tol, atol=atol, max_step=max_step,
                        dense_output=True)
        if not sol.success:
            last = TrajectoryState(t=float(sol.t[-1]) if sol.t.size else t0,
                                   q=tuple(sol.y[:3, -1]) if sol.t.size else initial.q,
                                   v=tuple(sol.y[3:, -1]) if sol.t.size else initial.v)
            raise IntegrationError(
                f"integration failed in [{t0:g}, {t1:g}] s: {sol.message}", last)
        if hi > filled:
            seg_eval = np.clip(t_sorted[filled:hi], t0, t1)
            vals = sol.sol(seg_eval)
            idx = order[filled:hi]
            out_q[idx] = vals[:3].T
            out_v[idx] = vals[3:].T
            out_spin[idx] = spin_sign
            filled = hi
        state = sol.y[:, -1]

    return Trajectory(t=t_eval.copy(), q=out_q, v=out_v, spin=out_spin,
                      flip_times=spin_flips)


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
    the convention of :func:`magnetic_moment`.
    """
    if any(not (0.0 <= a <= math.pi / 2.0 + 1e-12)
           for a in (*theta_values, *phi_values)):
        raise ValueError("angular coordinates must lie in [0, pi/2]")
    if r < 0.0:
        raise ValueError("shell radius must be >= 0")
    t_eval = np.linspace(0.0, t_end, n_samples)
    norm = r if r > 0.0 else 1.0
    records: list[dict] = []
    thetas = list(theta_values) if r > 0.0 else [0.0]
    phis = list(phi_values) if r > 0.0 else [0.0]
    for theta in thetas:
        for phi in phis:
            q0 = (r * math.sin(theta) * math.cos(phi),
                  r * math.sin(theta) * math.sin(phi),
                  r * math.cos(theta))
            start = TrajectoryState(t=0.0, q=q0, v=(0.0, 0.0, 0.0))
            trajs = {
                spin: integrate(start, spin, source, nd, schedule, t_end, cfg,
                                t_eval, constants, spin_moment)
                for spin in (1, -1)
            }
            dy = np.max(np.abs(trajs[1].y - trajs[-1].y))
            dz = np.max(np.abs(trajs[1].z - trajs[-1].z))
            dx = np.max(np.abs(trajs[1].x - trajs[-1].x))
            records.append({
                "theta": theta,
                "phi": phi,
                "start": q0,
                "y_overlap": dy / norm,
                "z_overlap": dz / norm,
                "x_separation_max": dx,
                "trajectories": trajs,
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
    ``spin_moment`` is the convention of :func:`magnetic_moment`.
    """
    if any(not (0.0 <= d < math.pi) for d in delta_values):
        raise ValueError("deltas must lie in [0, pi)")
    period = 2.0 * math.pi / omega
    t_eval = np.linspace(0.0, period, n_samples)
    start = TrajectoryState(t=0.0, q=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0))
    omega_dd = n_flip * omega

    def run(delta: float) -> np.ndarray:
        sched = FlipSchedule(omega_dd=omega_dd, delta=delta, spin_initial=1)
        return integrate(start, 1, source, nd, sched, period, cfg, t_eval,
                         constants, spin_moment).x

    x_ref = run(0.0)
    if dx_max is None:
        dx_max = float(np.max(np.abs(x_ref)) * 2.0)
    results = []
    for delta in delta_values:
        x = x_ref if delta == 0.0 else run(delta)
        results.append({
            "delta": float(delta),
            "deviation": float(np.max(np.abs(x - x_ref)) / dx_max),
        })
    return results
