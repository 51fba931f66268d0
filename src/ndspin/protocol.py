"""Two-nanodiamond gravity-phase bookkeeping and protocol-time optimization.

The protocol runs on two identical particles held a distance d apart in the
same trap: (b) the gradient splits each into a spin superposition over half
an oscillation period, (c) the gradient is off and the branches hold at the
maximum separation, (d) half a period recombines them.  Gravity acts purely
as a phase on otherwise frozen branch positions; with the instantaneous
branch separation s, the entangling phase accumulates at

    d(dphi)/dt = (G m^2 / hbar) (1/(d-s) + 1/(d+s) - 2/d).

The minimum center distance is d_min = dx_max + Delta_CP, where Delta_CP
keeps the Casimir-Polder attraction of the closest branch pair an order of
magnitude below their gravitational interaction.

Scenario split: ``HOLD_ONLY`` counts phase only during the hold (c);
``FULL_CYCLE`` also integrates it through the separation/recombination
sweep, where s(t) = dx_max (1 - cos omega t)/2 over the full cycle; that
integral has a closed form (:func:`delta_phi_bd`).  Either way the
interferometer must close, so t_total is never below one period.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .core import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    PhysicalConstants,
    derive_oscillator,  # unused here; perfbench binds protocol.derive_oscillator
    max_separation,
)

__all__ = [
    "Scenario",
    "ProtocolConfig",
    "ProtocolResult",
    "TwoQubitState",
    "OptimizeResult",
    "casimir_polder_separation",
    "min_distance",
    "delta_phi_rate",
    "delta_phi_bd",
    "protocol_duration",
    "optimize_tmin",
    "final_state",
    "gravity_phases",
    "partial_transpose",
    "negativity",
    "SURFACE_CSV_HEADER",
]


class Scenario(enum.Enum):
    HOLD_ONLY = "hold-only"
    FULL_CYCLE = "full-cycle"


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol target and geometry.

    ``distance=None`` selects Auto, i.e. the minimum distance d_min.  A
    manual distance below d_min is rejected unless ``allow_close`` is set,
    in which case a warning is emitted (the Casimir-Polder bound is then
    violated by construction).
    """

    target_delta_phi: float = 0.01 * math.pi
    scenario: Scenario = Scenario.HOLD_ONLY
    distance: Optional[float] = None
    allow_close: bool = False

    def __post_init__(self) -> None:
        if not self.target_delta_phi > 0.0:
            raise ValueError("target_delta_phi must be > 0")
        if self.distance is not None and not self.distance > 0.0:
            raise ValueError("distance must be > 0 (or None for Auto)")


@dataclass(frozen=True)
class ProtocolResult:
    t_total: float
    t_hold: float
    period: float
    delta_phi_bd: float
    delta_phi_hold: float
    d_used: float
    dx_max: float
    delta_cp: float


def casimir_polder_separation(
    nd: NanodiamondParams,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Extra separation at which V_CP drops to 0.1 V_G for the closest pair:

        Delta_CP = (2.01413/2) (c hbar V^2 (eps-1)^2 / (G m^2 (2+eps)^2))^{1/6}.

    At fixed density the ratio V/m is constant, so this depends only on
    the material, not the particle mass; it is taken as one ratio, so no
    power of V or m overflows.
    """
    eps = nd.epsilon
    arg = (constants.c * constants.hbar * (nd.volume / nd.mass) ** 2
           * (eps - 1.0) ** 2 / (constants.G * (2.0 + eps) ** 2))
    return (2.01413 / 2.0) * arg ** (1.0 / 6.0)


def min_distance(
    nd: NanodiamondParams,
    fld: FieldConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Minimum center-to-center distance d_min = dx_max + Delta_CP.

    For a particle so light that dx_max outgrows Delta_CP by 2^53 the sum
    rounds onto dx_max, and the branches would reach the partner: that
    raises ``ArithmeticError``.
    """
    dx = max_separation(nd, fld, constants)
    d_min = dx + casimir_polder_separation(nd, constants)
    if d_min == dx:
        raise ArithmeticError(
            f"d_min = dx_max + Delta_CP rounds onto dx_max = {dx:.6e} m "
            f"for m = {nd.mass:.6e} kg, B' = {fld.Bprime:.6e} T/m")
    return d_min


def delta_phi_rate(
    d: float,
    s: float,
    m_nd: float,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Instantaneous entangling-phase rate at branch separation s (rad/s).

    Evaluated as 2 s^2 / (d (d^2 - s^2)) times G m^2 / hbar, which is the
    cancellation-free form of 1/(d-s) + 1/(d+s) - 2/d.  Broadcasts over
    arrays of d, s and m_nd.
    """
    if not np.logical_and(0.0 <= s, s < d).all():
        raise ValueError("separation must satisfy 0 <= s < d "
                         "(branches may not cross the partner particle)")
    return (constants.G * m_nd**2 / constants.hbar) * (
        2.0 * s * s / (d * (d * d - s * s)))


def delta_phi_bd(
    nd: NanodiamondParams,
    fld: FieldConfig,
    d: float,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Entangling phase accumulated over one full separation/recombination
    cycle along s(t) = dx_max (1 - cos omega t)/2.

    Since int_0^{2 pi} du / (d - a + a cos u) = 2 pi / sqrt(d (d - 2a)), the
    rate integrates to

        (G m^2/hbar)(2 pi/omega) [1/sqrt(d(d-dx)) + 1/sqrt(d(d+dx)) - 2/d].
    """
    cfg = ProtocolConfig(scenario=Scenario.FULL_CYCLE, distance=d)
    return float(_timing(nd.mass, fld.Bprime, nd, cfg, constants,
                         casimir_polder_separation(nd, constants)).delta_phi_bd)


def _sweep_bracket(dx, d):
    """1/sqrt(d(d-dx)) + 1/sqrt(d(d+dx)) - 2/d, evaluated as
    e^2 (4 - 2/(1+C)) / (C (A + B + 2C)) / d with e = dx/d, A = sqrt(1-e),
    B = sqrt(1+e) and C = sqrt(1-e^2), which has no cancellation even where
    dx << d.  Broadcasts over arrays."""
    e = dx / d
    e2 = e * e
    a, b, c = np.sqrt(1.0 - e), np.sqrt(1.0 + e), np.sqrt(1.0 - e2)
    return e2 * (4.0 - 2.0 / (1.0 + c)) / (c * (a + b + 2.0 * c)) / d


def _timing(m, bprime, nd: NanodiamondParams, cfg: ProtocolConfig,
            constants: PhysicalConstants, delta_cp: float) -> ProtocolResult:
    """Protocol timing for particles of mass ``m`` and the material of ``nd``
    at gradient ``bprime``, broadcast over arrays of both; the fields of the
    returned record have the broadcast shape (``delta_cp`` is a scalar,
    ``delta_phi_bd`` too in HOLD_ONLY).  ``cfg.distance`` is used as given:
    the caller checks it against d_min.  ``delta_cp`` is
    :func:`casimir_polder_separation` of ``nd``, which the caller computes
    once for the material.
    """
    chi_v = nd.chi_magnitude * m / nd.density
    # derive_oscillator's period and max_separation's dx_max, on arrays
    period = 2.0 * math.pi / (bprime * np.sqrt(chi_v / (constants.mu0 * m)))
    dx = 4.0 * constants.hbar * constants.gamma_e * constants.mu0 / (chi_v * bprime)
    d = dx + delta_cp if cfg.distance is None else cfg.distance
    hold_rate = delta_phi_rate(d, dx, m, constants)
    if cfg.scenario is Scenario.FULL_CYCLE:
        phi_bd = constants.G * m**2 / constants.hbar * period * _sweep_bracket(dx, d)
    else:
        phi_bd = 0.0
    t_hold = np.maximum(0.0, (cfg.target_delta_phi - phi_bd) / hold_rate)
    return ProtocolResult(t_total=period + t_hold, t_hold=t_hold, period=period,
                          delta_phi_bd=phi_bd, delta_phi_hold=t_hold * hold_rate,
                          d_used=d, dx_max=dx, delta_cp=delta_cp)


def protocol_duration(
    nd: NanodiamondParams,
    fld: FieldConfig,
    cfg: ProtocolConfig,
    constants: PhysicalConstants = CONSTANTS,
) -> ProtocolResult:
    """Total protocol time for one (particle, field, scenario) choice.

    The hold stretches until the phase target is met; if the sweep phase
    already overshoots the target (FULL_CYCLE only), the hold collapses to
    zero and the total stays at one full period, since the interferometer
    still has to close.  A particle whose d_min rounds onto dx_max raises
    ``ArithmeticError`` (:func:`min_distance`), with a manual distance too,
    since no distance can be checked against it.
    """
    d_min = min_distance(nd, fld, constants)
    if cfg.distance is not None and cfg.distance < d_min:
        if not cfg.allow_close:
            raise ValueError(
                f"distance {cfg.distance:.6e} m is below d_min {d_min:.6e} m; "
                "set allow_close to override")
        warnings.warn(
            f"distance {cfg.distance:.6e} m below d_min {d_min:.6e} m: "
            "Casimir-Polder interaction exceeds a tenth of gravity",
            stacklevel=2)
    res = _timing(nd.mass, fld.Bprime, nd, cfg, constants,
                  casimir_polder_separation(nd, constants))
    return ProtocolResult(*(float(getattr(res, f.name))
                            for f in fields(ProtocolResult)))


SURFACE_CSV_HEADER = ("m_kg", "Bprime_T_per_m", "t_total_s", "t_hold_s",
                      "period_s", "delta_phi_bd_rad", "d_min_m")


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Optimum of :func:`optimize_tmin` and the scanned surface.

    ``grid`` holds every :class:`ProtocolResult` field as an (n_m, n_b)
    array over the axes ``m_values`` and ``b_values``.  Equality is
    identity: the record holds arrays.
    """

    m_opt: float
    Bprime_opt: float
    t_min: float
    result: ProtocolResult
    on_mass_boundary: bool
    on_gradient_boundary: bool
    m_values: np.ndarray
    b_values: np.ndarray
    grid: ProtocolResult

    def surface_columns(self) -> tuple[np.ndarray, ...]:
        """Flat columns matching :data:`SURFACE_CSV_HEADER`, row-major over
        ascending (m, B')."""
        m, b = np.meshgrid(self.m_values, self.b_values, indexing="ij")
        g = self.grid
        return tuple(a.ravel() for a in (m, b, g.t_total, g.t_hold, g.period,
                                         g.delta_phi_bd, g.d_used))

    @property
    def surface(self) -> list[tuple[float, float, ProtocolResult]]:
        """One (m, B', cell) record per grid cell, built on demand."""
        m, b = self.surface_columns()[:2]
        cells = zip(*(getattr(self.grid, f.name).ravel().tolist()
                      for f in fields(ProtocolResult)))
        return [(mi, bj, ProtocolResult(*cell))
                for mi, bj, cell in zip(m.tolist(), b.tolist(), cells)]

    def surface_rows(self) -> list[tuple[float, ...]]:
        """Rows matching :data:`SURFACE_CSV_HEADER`, built on demand."""
        return list(zip(*(c.tolist() for c in self.surface_columns())))


_ZOOM = 17  # points per axis of each zoom grid
_TIE_REL = 1e-13  # relative spread of t_total that counts as a tie
_REL_TOL = 1e-3  # relative resolution at which the zoom ends


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced points from lo to hi, with both ends exact.

    Equal to ``np.logspace(log10(lo), log10(hi), n)`` with its ends set to
    lo and hi: the same arithmetic, 10**(start + k step) with the last
    exponent set to log10(hi), formed in place without its wrappers.
    """
    start, stop = math.log10(lo), math.log10(hi)
    axis = np.arange(n, dtype=float)
    axis *= (stop - start) / (n - 1)
    axis += start
    axis[-1] = stop
    np.power(10.0, axis, out=axis)
    axis[0], axis[-1] = lo, hi
    return axis


def optimize_tmin(
    scenario: Scenario,
    mass_range: tuple[float, float],
    bprime_range: tuple[float, float],
    grid_shape: tuple[int, int] = (60, 60),
    refine: bool = True,
    template: Optional[NanodiamondParams] = None,
    target_delta_phi: float = 0.01 * math.pi,
    constants: PhysicalConstants = CONSTANTS,
) -> OptimizeResult:
    """Minimize the protocol time over a log-log (mass, gradient) grid.

    One zoom loop whose first grid is the ``grid_shape`` scan of the ranges.
    Each grid is one array evaluation on log-spaced axes that end exactly
    on its box's ends (:func:`_axis`, equal to ``np.logspace`` with the ends
    set); Delta_CP, which depends only on the material, is computed once.
    One min and one max of a grid's protocol times decide that it is finite
    (a NaN propagates through both) and give the tie threshold: its best
    cell is the last within ``_TIE_REL`` of its minimum in row-major
    (m, B') order, and the next box is that cell's neighbours, on a
    ``_ZOOM``-point grid.  ``refine=False`` stops after the scan; otherwise
    the loop stops once the box spans at most a quarter of ``_REL_TOL`` on
    both axes, and the last best point, evaluated by
    :func:`protocol_duration`, replaces the scan's if it is no slower.  A
    minimizer in an axis's end cell is flagged, not treated as a failure.
    A grid with a protocol time that is not finite, or one so light that
    d_min = dx_max + Delta_CP rounds onto dx_max, raises ``ArithmeticError``.
    """
    if template is None:
        template = NanodiamondParams()
    if not (mass_range[0] > 0.0 and mass_range[0] < mass_range[1]):
        raise ValueError("mass_range must be increasing and positive")
    if not (bprime_range[0] > 0.0 and bprime_range[0] < bprime_range[1]):
        raise ValueError("bprime_range must be increasing and positive")
    n_m, n_b = grid_shape
    if not (n_m >= 2 and n_b >= 2):
        raise ValueError("grid_shape needs at least 2 points per axis")
    cfg = ProtocolConfig(target_delta_phi=target_delta_phi, scenario=scenario)
    delta_cp = casimir_polder_separation(template, constants)

    # A box spans at most its grid and the neighbours of a 17-point grid's
    # cell 1/8 of it, so even the widest float range (632 decades) shrinks
    # below the 1.1e-4-decade end within 8 zoom passes.
    box_end = (1.0 + _REL_TOL) ** 0.25
    (m_lo, m_hi), (b_lo, b_hi) = mass_range, bprime_range
    scan = None
    # the finiteness check is the only report of an overflow
    with np.errstate(all="ignore"):
        while True:
            m_axis, b_axis = _axis(m_lo, m_hi, n_m), _axis(b_lo, b_hi, n_b)
            try:
                cells = _timing(m_axis[:, None], b_axis[None, :], template,
                                cfg, constants, delta_cp)
            except ValueError as exc:
                # the distance is Auto, so only rounding puts dx_max on d
                raise ArithmeticError(
                    "d_min = dx_max + Delta_CP rounds onto dx_max for "
                    + _box_text(m_lo, m_hi, b_lo, b_hi)) from exc
            t_total = cells.t_total
            t_lo, t_hi = float(t_total.min()), float(t_total.max())
            if not (-math.inf < t_lo and t_hi < math.inf):
                raise ArithmeticError("protocol time is not finite for "
                                      + _box_text(m_lo, m_hi, b_lo, b_hi))
            # the last cell within rounding of the minimum: where the sweep
            # alone meets the target, t_total is one period at every mass,
            # and the largest mass leaves the most room to raise B'
            near = np.flatnonzero(t_total <= t_lo * (1.0 + _TIE_REL))
            i, j = divmod(int(near[-1]), n_b)
            if scan is None:
                scan = m_axis, b_axis, cells, i, j
            m_lo, m_hi = m_axis[max(i - 1, 0)], m_axis[min(i + 1, n_m - 1)]
            b_lo, b_hi = b_axis[max(j - 1, 0)], b_axis[min(j + 1, n_b - 1)]
            if not refine or (m_hi <= m_lo * box_end
                              and b_hi <= b_lo * box_end):
                break
            n_m = n_b = _ZOOM

    m_values, b_values, cells, i_s, j_s = scan
    names = [f.name for f in fields(ProtocolResult)]
    grid = ProtocolResult(*(_grid_field(getattr(cells, name),
                                        (m_values.size, b_values.size))
                            for name in names))
    m_best, b_best = float(m_values[i_s]), float(b_values[j_s])
    res_best = ProtocolResult(*(float(getattr(grid, name)[i_s, j_s])
                                for name in names))
    if refine:
        m_ref, b_ref = float(m_axis[i]), float(b_axis[j])
        nd = NanodiamondParams.from_mass(m_ref, density=template.density,
                                         chi_magnitude=template.chi_magnitude,
                                         epsilon=template.epsilon)
        cand = protocol_duration(nd, FieldConfig(B0=0.0, Bprime=b_ref), cfg,
                                 constants)
        if cand.t_total <= res_best.t_total:
            m_best, b_best, res_best = m_ref, b_ref, cand

    return OptimizeResult(
        m_opt=m_best, Bprime_opt=b_best, t_min=res_best.t_total,
        result=res_best,
        on_mass_boundary=not m_values[1] < m_best < m_values[-2],
        on_gradient_boundary=not b_values[1] < b_best < b_values[-2],
        m_values=m_values, b_values=b_values, grid=grid)


def _box_text(m_lo, m_hi, b_lo, b_hi) -> str:
    return (f"m in [{m_lo:.6e}, {m_hi:.6e}] kg, "
            f"B' in [{b_lo:.6e}, {b_hi:.6e}] T/m")


def _grid_field(value, shape: tuple[int, int]) -> np.ndarray:
    """A read-only (n_m, n_b) array of one field of the scan: a view of a
    grid-shaped array, a broadcast of a scalar."""
    if getattr(value, "shape", None) != shape:
        return np.broadcast_to(value, shape)
    view = value.view()
    view.flags.writeable = False
    return view


# --- final two-qubit state and entanglement measure -------------------------

@dataclass(frozen=True)
class TwoQubitState:
    """State on the ordered basis (|-1,-1>, |-1,+1>, |+1,-1>, |+1,+1>)."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        norm = math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes))
        if abs(norm - 1.0) > 1e-14:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-14")

    def density_matrix(self) -> np.ndarray:
        psi = np.asarray(self.amplitudes, dtype=complex)
        return np.outer(psi, psi.conj())


def final_state(phi_plus: float, phi_minus: float) -> TwoQubitState:
    """Protocol output state (1, e^{-i phi_+}, e^{i phi_-}, 1)/2."""
    amps = (
        0.5 + 0.0j,
        0.5 * complex(math.cos(phi_plus), -math.sin(phi_plus)),
        0.5 * complex(math.cos(phi_minus), math.sin(phi_minus)),
        0.5 + 0.0j,
    )
    return TwoQubitState(amplitudes=amps)


def gravity_phases(
    d: float,
    dx: float,
    m_nd: float,
    t: float,
    constants: PhysicalConstants = CONSTANTS,
) -> tuple[float, float]:
    """Individual branch-pair phases (phi_plus, phi_minus) under the literal
    reading phi_+- = +-(G m^2/hbar)(1/d - 1/(d +- dx)) t.

    Convention-sensitive in overall sign; their difference phi_- - phi_+ is
    the unambiguous entangling phase used everywhere else.
    """
    if not 0.0 <= dx < d:
        raise ValueError("dx must satisfy 0 <= dx < d")
    k = constants.G * m_nd**2 / constants.hbar
    phi_plus = k * (1.0 / d - 1.0 / (d + dx)) * t
    phi_minus = -k * (1.0 / d - 1.0 / (d - dx)) * t
    return phi_plus, phi_minus


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit of a 4x4 density matrix."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return rho.transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(state: "TwoQubitState | Sequence[complex]") -> float:
    """Entanglement negativity: |sum of negative eigenvalues| of the partial
    transpose.  For a pure state psi that sum is -|psi_0 psi_3 - psi_1 psi_2|
    (the partial transpose's eigenvalues are the squared Schmidt
    coefficients and +-their product), so no eigensolver is needed.

    Accepts a :class:`TwoQubitState` or a raw length-4 amplitude vector;
    the latter is rejected if its norm deviates from 1 beyond 1e-10.
    """
    if isinstance(state, TwoQubitState):
        state = state.amplitudes
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError("expected 4 amplitudes")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond 1e-10")
    return float(abs(psi[0] * psi[3] - psi[1] * psi[2]))
