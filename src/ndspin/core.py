"""Physical constants, nanodiamond/field descriptions and derived trap quantities.

Everything downstream (branch dynamics, decoupling, the entanglement
protocol, coil fields and trajectory integration) is parameterized by the
three immutable records defined here:

* :class:`PhysicalConstants` -- one shared table of SI constants,
* :class:`NanodiamondParams` -- a homogeneous spherical diamond particle,
* :class:`FieldConfig` -- bias field, gradient and interferometer tilt,

plus :class:`OscillatorParams`, the derived magneto-mechanical oscillator
(frequency, zero-point scales and all spin/bias/gravity coupling rates).

Sign convention for the susceptibility: diamond is diamagnetic (chi < 0),
but the trap formulas are written with the confining magnitude |chi| so
that the oscillation frequency comes out real.  ``chi_magnitude`` therefore
stores |chi|; the trajectory integrator reinstates the negative sign and
interprets the trap through the field-magnitude minimum, which yields the
same restoring force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "PhysicalConstants",
    "NanodiamondParams",
    "FieldConfig",
    "OscillatorParams",
    "CONSTANTS",
    "derive_oscillator",
    "equilibrium_positions",
    "max_separation",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants shared by every module (CODATA 2018 values)."""

    hbar: float = 1.054571817e-34        # J s
    mu0: float = 1.25663706212e-6        # T m / A
    c: float = 299792458.0               # m / s
    G: float = 6.67430e-11               # m^3 / (kg s^2)
    gamma_e: float = 1.76085963023e11    # rad / (s T), magnitude
    g_earth: float = 9.80665             # m / s^2
    D_zfs: float = 2.0 * math.pi * 2.87e9  # rad / s

    def __post_init__(self) -> None:
        for name in ("hbar", "mu0", "c", "G", "gamma_e", "g_earth", "D_zfs"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")

    def with_overrides(self, **kwargs: float) -> "PhysicalConstants":
        return replace(self, **kwargs)


#: Default constants table; modules accept an explicit table but share this one.
CONSTANTS = PhysicalConstants()

#: Material defaults: diamond density, |chi| (SI volume susceptibility) and
#: dielectric constant.  |chi| is configurable; 2.2e-5 is the value of bulk
#: diamond and the one all quoted protocol optima assume.
DIAMOND_DENSITY = 3550.0
DIAMOND_CHI_MAGNITUDE = 2.2e-5
DIAMOND_EPSILON = 5.7


@dataclass(frozen=True)
class NanodiamondParams:
    """One levitated nanodiamond, modeled as a homogeneous sphere.

    Parameters
    ----------
    diameter : float
        Sphere diameter in m (> 0).
    density : float
        Mass density in kg/m^3.
    chi_magnitude : float
        Magnitude of the (diamagnetic) volume susceptibility, dimensionless.
    epsilon : float
        Relative dielectric constant (> 1), used by the Casimir-Polder bound.
    """

    diameter: float = 250e-9
    density: float = DIAMOND_DENSITY
    chi_magnitude: float = DIAMOND_CHI_MAGNITUDE
    epsilon: float = DIAMOND_EPSILON

    def __post_init__(self) -> None:
        if not self.diameter > 0.0:
            raise ValueError("diameter must be > 0")
        if not self.density > 0.0:
            raise ValueError("density must be > 0")
        if not self.chi_magnitude > 0.0:
            raise ValueError("chi_magnitude must be > 0")
        if not self.epsilon > 1.0:
            raise ValueError("epsilon must be > 1")

    @property
    def volume(self) -> float:
        """Sphere volume in m^3."""
        return math.pi / 6.0 * self.diameter**3

    @property
    def mass(self) -> float:
        """Mass in kg, fixed by density x volume."""
        return self.density * self.volume

    @classmethod
    def from_mass(
        cls,
        mass: float,
        density: float = DIAMOND_DENSITY,
        chi_magnitude: float = DIAMOND_CHI_MAGNITUDE,
        epsilon: float = DIAMOND_EPSILON,
    ) -> "NanodiamondParams":
        """Build the particle from its mass instead of its diameter."""
        if not mass > 0.0:
            raise ValueError("mass must be > 0")
        diameter = (6.0 * mass / (math.pi * density)) ** (1.0 / 3.0)
        return cls(diameter=diameter, density=density,
                   chi_magnitude=chi_magnitude, epsilon=epsilon)


@dataclass(frozen=True)
class FieldConfig:
    """Applied magnetic field along the free axis.

    Parameters
    ----------
    B0 : float
        Bias field in T; may be zero or negative.
    Bprime : float
        Field gradient dB/dx in T/m, strictly positive.
    tilt_theta_g : float
        Interferometer tilt in the x-z plane, rad, in [0, pi/2).
    """

    B0: float = 0.0
    Bprime: float = 1.0e3
    tilt_theta_g: float = 0.0

    def __post_init__(self) -> None:
        if not self.Bprime > 0.0:
            raise ValueError("Bprime must be > 0 (trap frequency undefined otherwise)")
        if not (0.0 <= self.tilt_theta_g < math.pi / 2.0):
            raise ValueError("tilt_theta_g must lie in [0, pi/2)")


@dataclass(frozen=True)
class OscillatorParams:
    """Derived magneto-mechanical oscillator quantities.

    :meth:`lambda_j` gives the spin-branch coupling rates lambda0 + s lambda;
    ``lambda_g`` is the gravity rate that appears when the interferometer is
    tilted.  All coupling rates are in rad/s.
    """

    omega: float
    x_zpf: float
    p_zpf: float
    lam: float
    lambda0: float
    lambda_g: float

    @property
    def period(self) -> float:
        """Oscillation period 2 pi / omega in s."""
        return 2.0 * math.pi / self.omega

    def lambda_j(self, spin: int) -> float:
        """Coupling rate lambda0 + lambda * s for spin eigenvalue s in {0, +-1}."""
        if spin not in (-1, 0, 1):
            raise ValueError("spin eigenvalue must be -1, 0 or +1")
        return self.lambda0 + self.lam * spin


def derive_oscillator(
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> OscillatorParams:
    """Derive all oscillator quantities for one particle in one field.

    omega   = B' sqrt(|chi| V / (mu0 m))
    x_zpf   = sqrt(hbar / (2 m omega)),  p_zpf = sqrt(hbar m omega / 2)
    lambda  = gamma_e B' x_zpf
    lambda0 = (B0 / B') sqrt(m omega^3 / (2 hbar))   (signed with B0)
    lambda_g = (m g x_zpf / hbar) sin(theta_g)
    """
    m = nd.mass
    V = nd.volume
    if not V > 0.0:
        raise ValueError("nanodiamond volume must be > 0")
    omega = fld.Bprime * math.sqrt(nd.chi_magnitude * V / (constants.mu0 * m))
    x_zpf = math.sqrt(constants.hbar / (2.0 * m * omega))
    p_zpf = math.sqrt(constants.hbar * m * omega / 2.0)
    lam = constants.gamma_e * fld.Bprime * x_zpf
    lambda0 = (fld.B0 / fld.Bprime) * math.sqrt(m * omega**3 / (2.0 * constants.hbar))
    lambda_g = (m * constants.g_earth * x_zpf / constants.hbar) * math.sin(fld.tilt_theta_g)
    return OscillatorParams(omega=omega, x_zpf=x_zpf, p_zpf=p_zpf,
                            lam=lam, lambda0=lambda0, lambda_g=lambda_g)


def equilibrium_positions(
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> tuple[float, float]:
    """Laboratory-frame equilibrium positions (x0_plus, x0_minus) of the two
    spin branches,

        x0_(+/-) = -(|chi| V B0 +/- hbar gamma_e mu0) / (|chi| V B').

    For B0 = 0 the two equilibria are mirror images through the origin.
    """
    chiV = nd.chi_magnitude * nd.volume
    denom = chiV * fld.Bprime
    x0_plus = -(chiV * fld.B0 + constants.hbar * constants.gamma_e * constants.mu0) / denom
    x0_minus = -(chiV * fld.B0 - constants.hbar * constants.gamma_e * constants.mu0) / denom
    return x0_plus, x0_minus


def max_separation(
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Maximum spatial separation between the two spin branches,

        dx_max = 4 hbar gamma_e mu0 / (|chi| V B'),

    reached half an oscillation period after release.  Independent of B0.
    """
    return 4.0 * constants.hbar * constants.gamma_e * constants.mu0 / (
        nd.chi_magnitude * nd.volume * fld.Bprime)
