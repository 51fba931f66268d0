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

and Q_j sums series in r, -r and -1 (see :func:`_segment_phase`), so any
time is evaluated directly, with no walk over the segments before it.
r^j is built from the exactly reduced angle 2 pi (j mod N) / N.  N = 1
(r = 1, g = 0) and N = 2 (r = -1, where A_j grows linearly in j) take their
limit sums.  The e^{+i omega t} phasor convention matches the plain branch
evolution; expectation values are checked against an independent piecewise
classical integration rather than trusting either phasor sign in isolation.

Everything but s lambda in A_j and chi_j is the same for every branch: j,
tau, r^j and e^{i omega tau} are formed once per time array and N
(:func:`_flips`), and one formula gives each branch's alpha from them
(:func:`_amplitude`).  :func:`dd_branch_state` adds the phase.  The
phase-space samples need alpha alone: :func:`dd_expectation` and the ``dd``
verb both read them off one pass per N over all branches
(:func:`_phase_space`), which forms no phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .coherent import BranchState, _phasor, _reduced_angle
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


#: (-1)^j, indexed by the parity of the segment index j.
_FLIP = np.array([1.0, -1.0])


class _Flips(NamedTuple):
    """The spin-free terms of a flip drive omega_DD = N omega at times t.

    j is the segment index, tau the time into the segment, ``sign``
    (-1)^j, ``r_j`` r^j (None at N = 2, which never needs it) and ``rot``
    e^{i omega tau}.  A branch's segment start is A_j = a unit + bias, with
    a = s lambda / omega and b = lambda0 / omega: unit = r^j - 1 and
    bias = b g (r^j - (-1)^j), or at N = 2, where every A_j is real,
    unit = (-1)^j - 1 and bias = 2 j b (-1)^j.
    """

    n: int
    j: np.ndarray
    tau: np.ndarray
    parity: np.ndarray
    sign: np.ndarray
    g: complex
    r_j: Optional[np.ndarray]
    unit: np.ndarray
    bias: np.ndarray
    rot: np.ndarray


def _flips(t: np.ndarray, osc: OscillatorParams, n: int) -> _Flips:
    """The terms every branch shares at the times ``t`` (a 1-D array).

    A negative or non-finite time raises ValueError.  A flip interval that
    is not a positive finite number (a trap frequency that overflows)
    raises FloatingPointError.  Either way the segment index of a time
    would not be a number.
    """
    if np.any(t < 0.0):
        raise ValueError("times must be >= 0")
    seg = osc.period / n  # 2 pi / omega_DD
    if not 0.0 < seg < math.inf:
        raise FloatingPointError(
            f"the flip interval 2 pi / omega_DD = {seg:g} s is not a positive "
            "finite number")
    with np.errstate(over="ignore"):  # a time past 1.8e308 flip intervals
        j = np.floor(t / seg)
    if not np.isfinite(j).all():
        raise ValueError("times must be finite and >= 0")
    tau = t - j * seg
    # j >= 0, where fmod is exact and equals %, at a third of its cost
    parity = np.fmod(j, 2).astype(np.intp)
    sign = _FLIP[parity]
    b = osc.lambda0 / osc.omega
    if n == 2:
        g, r_j = 0.0, None
        unit = sign - 1.0
        bias = 2.0 * j * b * sign
    else:
        g = 0.0 if n == 1 else 1j * math.tan(math.pi / n)
        r_j = _phasor(2.0 * math.pi * np.fmod(j, n) / n)
        unit = r_j - 1.0
        bias = b * g * (r_j - sign)
    return _Flips(n, j, tau, parity, sign, g, r_j, unit, bias,
                  _phasor(osc.omega * tau))


def _amplitude(spin: int, osc: OscillatorParams, fl: _Flips):
    """alpha = -chi_j + (A_j + chi_j) e^{i omega tau} of one branch at the
    times of ``fl``, with A_j and chi_j."""
    chi_j = ((_FLIP * osc.lambda0 + spin * osc.lam) / osc.omega)[fl.parity]
    a_start = spin * osc.lam / osc.omega * fl.unit + fl.bias
    return -chi_j + (a_start + chi_j) * fl.rot, a_start, chi_j


def _segment_phase(spin: int, osc: OscillatorParams, fl: _Flips,
                   chi: np.ndarray, zeta: np.ndarray):
    """Q_j at the start of each segment j of ``fl``, in closed form.

    ``chi`` and ``zeta`` hold the (even, odd) segment constants.  With
    a = s lambda / omega, b = lambda0 / omega, chi_k = a + (-1)^k b and
    e_j = j mod 2,

        Q_j = sum_{k<j} [zeta_k Dt + chi_k^2 sin(omega Dt)] - X_j,
        X_j = Im[(1 - r) sum_{k<j} chi_k A_k]
            = Im[(a + b g) (a (1 - r^j) - b g (1 - (-1)^j r^j))
                 - (1 - r) ((a^2 + b^2 g) j + a b (1 + g) e_j)].

    At N = 2 every A_k is real and X_j = 0.
    """
    n, j, g, r_j = fl.n, fl.j, fl.g, fl.r_j
    a = spin * osc.lam / osc.omega
    b = osc.lambda0 / osc.omega
    r = _phasor(2.0 * math.pi * (1 % n) / n)
    if n == 2:
        cross = 0.0
    else:
        cross = ((a + b * g) * (a * (1.0 - r_j) - b * g * (1.0 - fl.sign * r_j))
                 - (1.0 - r) * ((a * a + b * b * g) * j
                                + a * b * (1.0 + g) * (j % 2))).imag
    n_odd = j // 2
    n_even = j - n_odd
    return ((n_even * zeta[0] + n_odd * zeta[1]) * (osc.period / n)
            + (n_even * chi[0] ** 2 + n_odd * chi[1] ** 2) * r.imag
            - cross)


def _phase_space(times, ns, spins, osc: OscillatorParams) -> np.ndarray:
    """(<x>, <p>) rows, shape (len(ns) * len(spins) * len(times), 2), of the
    families (N, s) in turn, N slowest and time fastest: decoupled at
    omega_DD = N omega, or without decoupling for N = 0.

    Each N forms the terms its branches share once, and each branch only
    its amplitude; no branch phase is formed.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    xp = np.empty((len(ns), len(spins), t.size, 2))
    x_scale, p_scale = 2.0 * osc.x_zpf, -2.0 * osc.p_zpf
    for rows, n in zip(xp, ns):
        if n:
            fl = _flips(t, osc, n)
            alphas = (_amplitude(spin, osc, fl)[0] for spin in spins)
        else:
            # the plain evolution of coherent.branch_state
            swing = _phasor(_reduced_angle(t, osc.omega)) - 1.0
            alphas = (osc.lambda_j(spin) / osc.omega * swing for spin in spins)
        for out, alpha in zip(rows, alphas):
            np.multiply(x_scale, alpha.real, out=out[:, 0])
            np.multiply(p_scale, alpha.imag, out=out[:, 1])
    return xp.reshape(-1, 2)


def dd_branch_state(
    times,
    spin: int,
    nd: NanodiamondParams,
    fld: FieldConfig,
    dd: DDConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> BranchState:
    """Branch state at time(s) ``times`` under gradient-only decoupling.

    ``alpha`` and ``theta`` have the shape of ``times``.  A negative or
    non-finite time raises ValueError.  A flip interval that is not a
    positive finite number (a trap frequency that overflows) raises
    FloatingPointError: the segment index of a time would not be a number.
    """
    if spin not in (-1, 0, 1):
        raise ValueError("spin eigenvalue must be -1, 0 or +1")
    shape = np.shape(times)
    # A scalar goes through the same vector loops as an array: numpy's scalar
    # complex arithmetic rounds differently (no fused multiply-add).
    t = np.asarray(times, dtype=float).reshape(-1)
    osc = derive_oscillator(nd, fld, constants)
    fl = _flips(t, osc, dd.n)
    alpha, a_start, chi_j = _amplitude(spin, osc, fl)

    # Segment constants, indexed by the parity of j.
    omega = osc.omega
    lam = _FLIP * osc.lambda0 + spin * osc.lam
    zeta = (constants.D_zfs * spin * spin
            + _FLIP * constants.gamma_e * fld.B0 * spin - lam**2 / omega)
    q_start = _segment_phase(spin, osc, fl, lam / omega, zeta)
    theta = (q_start + zeta[fl.parity] * fl.tau
             + chi_j**2 * np.sin(omega * fl.tau)
             - chi_j * np.imag(a_start * (1.0 - fl.rot)))
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
    ``dd`` or, for None, evolving without decoupling.

    With ``dd``, a negative or non-finite time raises ValueError, as in
    :func:`dd_branch_state`.
    """
    if spin not in (-1, 0, 1):
        raise ValueError("spin eigenvalue must be -1, 0 or +1")
    osc = derive_oscillator(nd, fld, constants)
    return _phase_space(times, (dd.n if dd else 0,), (spin,), osc)


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
