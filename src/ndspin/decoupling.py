"""Branch evolution under dynamical decoupling, in closed form.

Spin flips at omega_DD = N omega are idealized as instantaneous, and only
the gradient B' follows the spin.  That is equivalent to the bias B0 alone
flipping sign at the start of every interval [j Dt, (j+1) Dt),
Dt = 2 pi / omega_DD, so each branch hops between two shifted oscillators
with coupling lambda^{(j)} = (-1)^j lambda0 + s lambda.  (Were B0 to flip
with B' as well, the Hamiltonian would be invariant and the plain evolution
of :mod:`ndspin.coherent` would apply.)

Within segment j (local time tau, chi_j = lambda^{(j)} / omega):

    alpha(tau) = -chi_j + (A_j + chi_j) e^{+i omega tau},
    Q(tau)     = Q_j + zeta_j tau + chi_j^2 sin(omega tau)
                 - chi_j Im[A_j (1 - e^{+i omega tau})],
    zeta_j     = D s^2 + gamma_e B0 (-1)^j s - (lambda^{(j)})^2 / omega,

which reduces to the no-decoupling evolution on segment 0.  The segment
starts follow from A_0 = Q_0 = 0, A_{j+1} = alpha(Dt), Q_{j+1} = Q(Dt).
With r = e^{i omega Dt} = e^{2 pi i / N} that recursion is a sum of
geometric series,

    A_j = (s lambda / omega)(r^j - 1) + (lambda0 / omega) g (r^j - (-1)^j),
    g   = (r - 1) / (r + 1) = i tan(pi / N),

and Q_j sums series in r, -r and -1 (see :func:`_segment_starts`), so any
time is evaluated directly, with no walk over the segments before it.
r^j is built from the exactly reduced angle 2 pi (j mod N) / N.  N = 1
(r = 1, g = 0) and N = 2 (r = -1, where A_j grows linearly in j) take their
limit sums.  The e^{+i omega t} phasor convention matches the plain branch
evolution; expectation values are checked against an independent piecewise
classical integration rather than trusting either phasor sign in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coherent import BranchState, _phasor, branch_state, expectation_xp
from .core import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    OscillatorParams,
    PhysicalConstants,
    derive_oscillator,
    max_separation,
)

__all__ = [
    "DDConfig",
    "dd_branch_state",
    "dd_expectation",
    "dd_mirror_defect",
    "sampled_mirror_defect",
    "excursion_bias_defect",
]


@dataclass(frozen=True)
class DDConfig:
    """Decoupling drive: omega_DD = n * omega."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("DD frequency multiplier n must be >= 1")


def _segment_starts(j, spin: int, osc: OscillatorParams, n: int,
                    chi: np.ndarray, zeta: np.ndarray):
    """A_j and Q_j at the start of segment(s) j, in closed form.

    ``chi`` and ``zeta`` hold the (even, odd) segment constants.  With
    a = s lambda / omega, b = lambda0 / omega, chi_k = a + (-1)^k b and
    e_j = j mod 2,

        Q_j = sum_{k<j} [zeta_k Dt + chi_k^2 sin(omega Dt)] - X_j,
        X_j = Im[(1 - r) sum_{k<j} chi_k A_k]
            = Im[(a + b g) (a (1 - r^j) - b g (1 - (-1)^j r^j))
                 - (1 - r) ((a^2 + b^2 g) j + a b (1 + g) e_j)].

    At N = 2 every A_k is real, A_j = a ((-1)^j - 1) + 2 j b (-1)^j, and
    X_j = 0.
    """
    a = spin * osc.lam / osc.omega
    b = osc.lambda0 / osc.omega
    e = j % 2
    sign = 1.0 - 2.0 * e
    r = _phasor(2.0 * math.pi * (1 % n) / n)
    if n == 2:
        alpha = a * (sign - 1.0) + 2.0 * j * b * sign
        cross = 0.0
    else:
        r_j = _phasor(2.0 * math.pi * (j % n) / n)
        g = 0.0 if n == 1 else 1j * math.tan(math.pi / n)
        alpha = a * (r_j - 1.0) + b * g * (r_j - sign)
        cross = ((a + b * g) * (a * (1.0 - r_j) - b * g * (1.0 - sign * r_j))
                 - (1.0 - r) * ((a * a + b * b * g) * j
                                + a * b * (1.0 + g) * e)).imag
    n_odd = j // 2
    n_even = j - n_odd
    phase = ((n_even * zeta[0] + n_odd * zeta[1]) * (osc.period / n)
             + (n_even * chi[0] ** 2 + n_odd * chi[1] ** 2) * r.imag
             - cross)
    return alpha, phase


def dd_branch_state(
    times,
    spin: int,
    nd: NanodiamondParams,
    fld: FieldConfig,
    dd: DDConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> BranchState:
    """Branch state at time(s) ``times`` under gradient-only decoupling.

    ``alpha`` and ``theta`` have the shape of ``times``.
    """
    if spin not in (-1, 0, 1):
        raise ValueError("spin eigenvalue must be -1, 0 or +1")
    shape = np.shape(times)
    # A scalar goes through the same vector loops as an array: numpy's scalar
    # complex arithmetic rounds differently (no fused multiply-add).
    t = np.asarray(times, dtype=float).reshape(-1)
    if np.any(t < 0.0):
        raise ValueError("times must be >= 0")
    osc = derive_oscillator(nd, fld, constants)
    omega = osc.omega
    seg = osc.period / dd.n  # 2 pi / omega_DD
    j = np.floor(t / seg)
    tau = t - j * seg

    # Segment constants, indexed by the parity of j.
    flip = np.array([1.0, -1.0])
    lam = flip * osc.lambda0 + spin * osc.lam
    chi = lam / omega
    zeta = (constants.D_zfs * spin * spin
            + flip * constants.gamma_e * fld.B0 * spin - lam**2 / omega)
    parity = (j % 2).astype(np.intp)
    chi_j, zeta_j = chi[parity], zeta[parity]

    a_start, q_start = _segment_starts(j, spin, osc, dd.n, chi, zeta)
    rot = _phasor(omega * tau)
    alpha = -chi_j + (a_start + chi_j) * rot
    theta = (q_start + zeta_j * tau + chi_j**2 * np.sin(omega * tau)
             - chi_j * np.imag(a_start * (1.0 - rot)))
    return BranchState(t=times, spin=spin, alpha=alpha.reshape(shape)[()],
                       theta=theta.reshape(shape)[()])


def dd_expectation(
    times: Sequence[float],
    spin: int,
    nd: NanodiamondParams,
    fld: FieldConfig,
    dd: Optional[DDConfig] = None,
    constants: PhysicalConstants = CONSTANTS,
) -> np.ndarray:
    """(<x>, <p>) samples, shape (len(times), 2), of one branch decoupled by
    ``dd`` or, for None, evolving without decoupling."""
    osc = derive_oscillator(nd, fld, constants)
    if dd is None:
        state = branch_state(times, spin, nd, fld, constants, osc)
    else:
        state = dd_branch_state(times, spin, nd, fld, dd, constants)
    return np.column_stack(expectation_xp(state, osc))


def dd_mirror_defect(
    x_plus: Sequence[float],
    x_minus: Sequence[float],
    dx_max: float,
) -> float:
    """Pointwise origin-symmetry defect max_t |x_+(t) + x_-(t)| / dx_max.

    Zero iff the branch pair is mirror-symmetric through the origin at every
    instant, which is how the bias immunity of the decoupled dynamics shows
    up in phase space; decays with the flip multiplier.
    """
    xp = np.asarray(x_plus, dtype=float)
    xm = np.asarray(x_minus, dtype=float)
    return float(np.max(np.abs(xp + xm)) / dx_max)


def sampled_mirror_defect(
    nd: NanodiamondParams,
    fld: FieldConfig,
    dd: Optional[DDConfig],
    n_samples: int = 4096,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Origin-symmetry defect over one period, from the closed-form evolution.

    ``dd=None`` evaluates the undecoupled dynamics (the biased baseline).
    """
    times = np.linspace(0.0, derive_oscillator(nd, fld, constants).period,
                        n_samples)
    x_plus, x_minus = (dd_expectation(times, s, nd, fld, dd, constants)[:, 0]
                       for s in (1, -1))
    return dd_mirror_defect(x_plus, x_minus, max_separation(nd, fld, constants))


def excursion_bias_defect(
    nd: NanodiamondParams,
    fld: FieldConfig,
    dd: Optional[DDConfig],
    n_samples: int = 4096,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Bias immunity: excursion mismatch against the unbiased branch,

        | max|x(B0)| - max|x(B0 = 0)| | / dx_max,

    for the spin +1 branch over one period.  Large without decoupling,
    shrinking with the flip multiplier as the dynamics forgets the bias.
    """
    times = np.linspace(0.0, derive_oscillator(nd, fld, constants).period,
                        n_samples)
    fld0 = FieldConfig(B0=0.0, Bprime=fld.Bprime, tilt_theta_g=fld.tilt_theta_g)
    x_ref = dd_expectation(times, 1, nd, fld0, None, constants)[:, 0]
    x = dd_expectation(times, 1, nd, fld, dd, constants)[:, 0]
    dx = max_separation(nd, fld, constants)
    return float(abs(np.max(np.abs(x)) - np.max(np.abs(x_ref))) / dx)
