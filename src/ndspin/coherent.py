"""Closed-form branch dynamics without dynamical decoupling.

Starting from the spin superposition (|-1> + |+1>)/sqrt(2) tensored with the
oscillator ground state, each spin branch evolves as a displaced coherent
state.  With the bias coupling lambda0 kept explicit, the amplitudes live in
the laboratory frame directly:

    alpha_s(t) = (lambda_s / omega) (e^{i omega t} - 1),
    theta_s(t) = (D s^2 + gamma_e B0 s - lambda_s^2 / omega) t
                 + (lambda_s / omega)^2 sin(omega t),

with lambda_s = lambda0 + lambda s.  Expectation values follow the classical
trajectory x_s(t) = x0_s (1 - cos omega t).

Phasor convention: amplitudes use e^{+i omega t}.  Under this convention the
momentum quadrature is <p> = -2 p_zpf Im(alpha); the sign is fixed by
matching the classical m dx/dt and is verified against the trajectory
integrator in the tests.

Every function of time broadcasts over an array of times and derives the
oscillator once per call.  Phases are accumulated as plain reals, never
wrapped modulo 2 pi.  The oscillatory factors are evaluated with the time
argument reduced by the oscillation period, so that branch closure after
exactly one period is resolved far below the magnitude of the accumulated
phases themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    OscillatorParams,
    PhysicalConstants,
    derive_oscillator,
    equilibrium_positions,
)

__all__ = [
    "BranchState",
    "classical_position",
    "branch_state",
    "branch_phase_difference",
    "ramsey_phase",
]


@dataclass(frozen=True)
class BranchState:
    """Coherent amplitude and accumulated phase of one spin branch.

    ``alpha`` and ``theta`` have the shape of ``t``: scalars for one time,
    arrays for an array of times.
    """

    t: float | np.ndarray
    spin: int
    alpha: complex | np.ndarray
    theta: float | np.ndarray


def _reduced_angle(t, omega: float):
    """omega*t reduced modulo one period before the multiply.

    Reducing t/T first keeps sin/cos accurate for large accumulated angles
    and makes t = n*T land on an exact zero of the reduced argument.
    """
    period = 2.0 * math.pi / omega
    u = np.asarray(t, dtype=float) / period
    return 2.0 * math.pi * (u - np.floor(u))


def _swing(t, omega: float):
    """1 - cos(omega t): a branch's excursion x_s(t) / x0_s."""
    return 1.0 - np.cos(_reduced_angle(t, omega))


def _phasor(angle):
    """e^{+i angle}, with cos and sin as its exact real and imaginary parts."""
    return np.cos(angle) + 1j * np.sin(angle)


def classical_position(
    t,
    spin: int,
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
):
    """Classical branch trajectory x_s(t) = x0_s (1 - cos omega t), lab frame."""
    osc = derive_oscillator(nd, fld, constants)
    x0_plus, x0_minus = equilibrium_positions(nd, fld, constants)
    if spin == 1:
        x0 = x0_plus
    elif spin == -1:
        x0 = x0_minus
    elif spin == 0:
        x0 = -fld.B0 / fld.Bprime
    else:
        raise ValueError("spin eigenvalue must be -1, 0 or +1")
    return x0 * _swing(t, osc.omega)


def _zeeman_zfs_rate(spin: int, fld: FieldConfig, constants: PhysicalConstants) -> float:
    """Spin-dependent constant part of the phase rate, D s^2 + gamma_e B0 s."""
    return constants.D_zfs * spin * spin + constants.gamma_e * fld.B0 * spin


def branch_state(
    t,
    spin: int,
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
    osc: Optional[OscillatorParams] = None,
) -> BranchState:
    """Coherent-state amplitude and phase of one spin branch at time(s) t.

    Valid for spin eigenvalues -1, 0 and +1; the protocol only ever
    populates +-1, the 0 block is kept for completeness.
    """
    if osc is None:
        osc = derive_oscillator(nd, fld, constants)
    lam_s = osc.lambda_j(spin)
    chi = lam_s / osc.omega
    times = np.asarray(t, dtype=float)  # a list of times, too
    angle = _reduced_angle(times, osc.omega)
    alpha = chi * (_phasor(angle) - 1.0)
    theta = (
        (_zeeman_zfs_rate(spin, fld, constants) - lam_s**2 / osc.omega) * times
        + chi**2 * np.sin(angle)
    )
    return BranchState(t=t, spin=spin, alpha=alpha, theta=theta)


def branch_phase_difference(
    t,
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """theta_plus(t) - theta_minus(t) via its algebraically reduced form.

    The linear parts cancel identically because 4 lambda0 lambda / omega
    equals 2 gamma_e B0, leaving

        theta_+ - theta_- = (2 gamma_e B0 / omega) sin(omega t),

    which vanishes at every full period (interferometer closure).  Direct
    subtraction of the two accumulated phases would lose this to
    cancellation, since each phase is dominated by the huge D t term.
    """
    osc = derive_oscillator(nd, fld, constants)
    return (2.0 * constants.gamma_e * fld.B0 / osc.omega) * np.sin(
        _reduced_angle(t, osc.omega))


def expectation_xp(
    state: BranchState,
    osc: OscillatorParams,
):
    """Lab-frame (<x>, <p>) of a branch state, each shaped like ``state.t``.

    <x> = 2 x_zpf Re(alpha); <p> = -2 p_zpf Im(alpha) in the e^{+i omega t}
    convention (sign fixed by the classical limit).
    """
    return (2.0 * osc.x_zpf * np.real(state.alpha),
            -2.0 * osc.p_zpf * np.imag(state.alpha))


def ramsey_phase(
    theta_g: float,
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Branch phase difference after one period in a tilted interferometer.

    Returns -8 pi lambda_g lambda / omega^2, identically equal to
    -4 pi (mu0 m / (|chi| V))^{3/2} gamma_e g sin(theta_g) / B'^2.  Both
    expressions are evaluated and must agree to 1e-12 relative; the sign
    follows the closing form of the derivation (the overall physical sign
    convention is a known ambiguity, the magnitude is not).
    """
    if not (0.0 <= theta_g < math.pi / 2.0):
        raise ValueError("theta_g must lie in [0, pi/2)")
    fld_tilted = FieldConfig(B0=fld.B0, Bprime=fld.Bprime, tilt_theta_g=theta_g)
    osc = derive_oscillator(nd, fld_tilted, constants)

    from_couplings = -8.0 * math.pi * osc.lambda_g * osc.lam / osc.omega**2
    ratio = constants.mu0 * nd.mass / (nd.chi_magnitude * nd.volume)
    closed_form = (
        -4.0 * math.pi * ratio**1.5 * constants.gamma_e * constants.g_earth
        * math.sin(theta_g) / fld.Bprime**2
    )
    if theta_g > 0.0:
        rel = abs(from_couplings - closed_form) / abs(closed_form)
        if rel > 1e-12:
            raise ArithmeticError(
                f"Ramsey dual-path identity violated: relative gap {rel:.3e}")
    return from_couplings
