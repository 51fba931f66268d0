"""Desk-scale simulation and optimization toolkit for a levitated-nanodiamond
spin interferometer: branch dynamics of a spin-coupled magnetic trap,
dynamical-decoupling evolution, tilt (Ramsey) phases, gravity-induced
entanglement timing with Casimir-Polder constraints, exact coil
magnetostatics, and adaptive trajectory integration."""

__version__ = "0.1.0"

from .core import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    OscillatorParams,
    PhysicalConstants,
    derive_oscillator,
    equilibrium_positions,
    max_separation,
)
from .coherent import (
    BranchState,
    branch_phase_difference,
    branch_state,
    classical_position,
    expectation_xp,
    ramsey_phase,
)
from .decoupling import (
    DDConfig,
    dd_branch_state,
    dd_expectation,
)
from .coils import (
    CoilAssembly,
    LoopSource,
    UniformGradientField,
    complete_elliptic_KE,
    field_and_jacobian,
    field_jacobian,
    field_map,
)
from .protocol import (
    OptimizeResult,
    ProtocolConfig,
    ProtocolResult,
    Scenario,
    TwoQubitState,
    casimir_polder_separation,
    delta_phi_bd,
    delta_phi_rate,
    final_state,
    gravity_phases,
    min_distance,
    negativity,
    optimize_tmin,
    protocol_duration,
)
from .trajectory import (
    FlipSchedule,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    TrajectoryState,
    delta_scan,
    force,
    harmonic_centre,
    integrate,
    magnetic_moment,
    sensitivity_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
