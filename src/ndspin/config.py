"""JSON scenario configuration: one document drives every CLI command.

All physical quantities carry SI units in their key names.  Validation is
strict: unknown keys are rejected with their full path, and every failure
names the offending field.  Nothing is computed until the whole document
has validated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Optional

from .core import CONSTANTS, FieldConfig, NanodiamondParams, PhysicalConstants
from .coils import CoilAssembly
from .protocol import ProtocolConfig, Scenario
from .trajectory import IntegratorConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Validation failure; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    return obj


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _number(obj: dict, key: str, path: str, default=None, positive=False,
            nonnegative=False) -> Optional[float]:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", "expected a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}", "must be finite")
    if positive and not v > 0.0:
        raise ConfigError(f"{path}.{key}", "must be > 0")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{path}.{key}", "must be >= 0")
    return v


def _integer(obj: dict, key: str, path: str, default=None, minimum=None) -> Optional[int]:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", "expected an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}")
    return v


def _number_list(obj: dict, key: str, path: str, default=None) -> Optional[list[float]]:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ConfigError(f"{path}.{key}", "expected a list of numbers")
    v = [float(x) for x in v]
    if not all(math.isfinite(x) for x in v):
        raise ConfigError(f"{path}.{key}", "entries must be finite")
    return v


_CONSTANT_KEYS = {
    "hbar_J_s": "hbar",
    "mu0_T_m_per_A": "mu0",
    "c_m_per_s": "c",
    "G_m3_per_kg_s2": "G",
    "gamma_e_rad_per_s_T": "gamma_e",
    "mu_B_J_per_T": "mu_B",
    "g_earth_m_per_s2": "g_earth",
    "D_zfs_rad_per_s": "D_zfs",
}


@dataclass
class ScenarioConfig:
    """Fully validated scenario; carries every section a command may need."""

    constants: PhysicalConstants
    nanodiamond: NanodiamondParams
    field: FieldConfig
    dd_n_values: list[int] = dc_field(default_factory=lambda: [4, 20, 200])
    dd_n_samples: int = 1024
    protocol: ProtocolConfig = dc_field(default_factory=ProtocolConfig)
    mass_range: tuple[float, float] = (1e-17, 1e-12)
    bprime_range: tuple[float, float] = (0.1, 10.0)
    grid_shape: tuple[int, int] = (60, 60)
    refine: bool = True
    coil: Optional[CoilAssembly] = None
    integrator: IntegratorConfig = dc_field(default_factory=IntegratorConfig)
    trajectory_B0_values: list[float] = dc_field(default_factory=lambda: [0.0])
    trajectory_n_samples: int = 400
    ramsey_theta_values: list[float] = dc_field(
        default_factory=lambda: [i * math.pi / 36.0 for i in range(0, 13)])
    fieldmap_z: float = 0.0
    fieldmap_x: tuple[float, float, int] = (-1e-3, 1e-3, 41)
    fieldmap_y: tuple[float, float, int] = (-1e-3, 1e-3, 41)
    sensitivity_radius: float = 5e-7
    sensitivity_theta: list[float] = dc_field(
        default_factory=lambda: [0.0, math.pi / 4.0, math.pi / 2.0])
    sensitivity_phi: list[float] = dc_field(
        default_factory=lambda: [0.0, math.pi / 4.0, math.pi / 2.0])
    sensitivity_delta: list[float] = dc_field(
        default_factory=lambda: [0.0, math.pi / 45.0, math.pi / 25.0,
                                 math.pi / 15.0, math.pi / 5.0])
    sensitivity_n_flip: int = 200
    sensitivity_n_samples: int = 400
    spin_moment: str = "gamma_e"


_TOP_KEYS = {"version", "constants", "nanodiamond", "field", "dd", "protocol",
             "coil", "integrator", "trajectory", "ramsey", "fieldmap",
             "sensitivity"}


def parse_config(doc: Any) -> ScenarioConfig:
    root = _require_mapping(doc, "$")
    _check_keys(root, _TOP_KEYS, "$")
    version = _integer(root, "version", "$")
    if version != SCHEMA_VERSION:
        raise ConfigError("$.version", f"expected {SCHEMA_VERSION}, got {version!r}")

    constants = CONSTANTS
    if "constants" in root:
        sec = _require_mapping(root["constants"], "$.constants")
        _check_keys(sec, set(_CONSTANT_KEYS), "$.constants")
        overrides = {}
        for key, attr in _CONSTANT_KEYS.items():
            v = _number(sec, key, "$.constants", positive=True)
            if v is not None:
                overrides[attr] = v
        if overrides:
            constants = CONSTANTS.with_overrides(**overrides)

    nd_sec = _require_mapping(root.get("nanodiamond", {}), "$.nanodiamond")
    _check_keys(nd_sec, {"diameter_m", "mass_kg", "density_kg_per_m3",
                         "chi_magnitude", "epsilon"}, "$.nanodiamond")
    if "diameter_m" in nd_sec and "mass_kg" in nd_sec:
        raise ConfigError("$.nanodiamond.mass_kg",
                          "give either diameter_m or mass_kg, not both")
    density = _number(nd_sec, "density_kg_per_m3", "$.nanodiamond", 3550.0,
                      positive=True)
    chi = _number(nd_sec, "chi_magnitude", "$.nanodiamond", 2.2e-5, positive=True)
    epsilon = _number(nd_sec, "epsilon", "$.nanodiamond", 5.7)
    if not epsilon > 1.0:
        raise ConfigError("$.nanodiamond.epsilon", "must be > 1")
    try:
        if "mass_kg" in nd_sec:
            mass = _number(nd_sec, "mass_kg", "$.nanodiamond", positive=True)
            nd = NanodiamondParams.from_mass(mass, density, chi, epsilon)
        else:
            diameter = _number(nd_sec, "diameter_m", "$.nanodiamond", 250e-9,
                               positive=True)
            nd = NanodiamondParams(diameter, density, chi, epsilon)
    except ValueError as exc:
        raise ConfigError("$.nanodiamond", str(exc)) from exc

    fld_sec = _require_mapping(root.get("field", {}), "$.field")
    _check_keys(fld_sec, {"B0_T", "Bprime_T_per_m", "tilt_theta_g_rad"}, "$.field")
    B0 = _number(fld_sec, "B0_T", "$.field", 0.0)
    bprime = _number(fld_sec, "Bprime_T_per_m", "$.field", 1.0e3)
    tilt = _number(fld_sec, "tilt_theta_g_rad", "$.field", 0.0)
    if not bprime > 0.0:
        raise ConfigError("$.field.Bprime_T_per_m", "must be > 0")
    try:
        fld = FieldConfig(B0=B0, Bprime=bprime, tilt_theta_g=tilt)
    except ValueError as exc:
        raise ConfigError("$.field", str(exc)) from exc

    cfg = ScenarioConfig(constants=constants, nanodiamond=nd, field=fld)

    if "dd" in root:
        sec = _require_mapping(root["dd"], "$.dd")
        _check_keys(sec, {"n_flip", "n_values", "n_samples"}, "$.dd")
        # Accepted for existing scenario files and validated, but no verb
        # reads a single flip multiplier: `dd` renders every n in n_values.
        _integer(sec, "n_flip", "$.dd", minimum=1)
        n_values = sec.get("n_values")
        if n_values is not None:
            if (not isinstance(n_values, list) or not n_values
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               and x >= 1 for x in n_values)):
                raise ConfigError("$.dd.n_values",
                                  "expected a non-empty list of integers >= 1")
            cfg.dd_n_values = list(n_values)
        cfg.dd_n_samples = _integer(sec, "n_samples", "$.dd", cfg.dd_n_samples,
                                    minimum=2)

    if "protocol" in root:
        sec = _require_mapping(root["protocol"], "$.protocol")
        _check_keys(sec, {"target_delta_phi_rad", "scenario", "distance_m",
                          "allow_close", "mass_range_kg", "Bprime_range_T_per_m",
                          "grid_shape", "refine"}, "$.protocol")
        target = _number(sec, "target_delta_phi_rad", "$.protocol",
                         0.01 * math.pi, positive=True)
        scen_name = sec.get("scenario", "hold-only")
        try:
            scenario = Scenario(scen_name)
        except ValueError:
            raise ConfigError("$.protocol.scenario",
                              f"unknown scenario {scen_name!r}") from None
        distance = sec.get("distance_m", "auto")
        if distance == "auto":
            distance_val = None
        elif isinstance(distance, (int, float)) and not isinstance(distance, bool):
            distance_val = float(distance)
            if not 0.0 < distance_val < math.inf:
                raise ConfigError("$.protocol.distance_m",
                                  "must be finite and > 0, or 'auto'")
        else:
            raise ConfigError("$.protocol.distance_m",
                              "expected a number or 'auto'")
        allow_close = sec.get("allow_close", False)
        if not isinstance(allow_close, bool):
            raise ConfigError("$.protocol.allow_close", "expected a boolean")
        cfg.protocol = ProtocolConfig(target_delta_phi=target, scenario=scenario,
                                      distance=distance_val, allow_close=allow_close)
        mass_range = _number_list(sec, "mass_range_kg", "$.protocol",
                                  list(cfg.mass_range))
        bprime_range = _number_list(sec, "Bprime_range_T_per_m", "$.protocol",
                                    list(cfg.bprime_range))
        for name, rng in (("mass_range_kg", mass_range),
                          ("Bprime_range_T_per_m", bprime_range)):
            if len(rng) != 2 or not (0.0 < rng[0] < rng[1]):
                raise ConfigError(f"$.protocol.{name}",
                                  "expected [low, high] with 0 < low < high")
        cfg.mass_range = (mass_range[0], mass_range[1])
        cfg.bprime_range = (bprime_range[0], bprime_range[1])
        grid = sec.get("grid_shape", list(cfg.grid_shape))
        if (not isinstance(grid, list) or len(grid) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           and x >= 2 for x in grid)):
            raise ConfigError("$.protocol.grid_shape",
                              "expected [n_mass, n_gradient] with entries >= 2")
        cfg.grid_shape = (grid[0], grid[1])
        refine = sec.get("refine", True)
        if not isinstance(refine, bool):
            raise ConfigError("$.protocol.refine", "expected a boolean")
        cfg.refine = refine

    if "coil" in root:
        sec = _require_mapping(root["coil"], "$.coil")
        _check_keys(sec, {"radius_m", "separation_m", "mmf_At"}, "$.coil")
        r_c = _number(sec, "radius_m", "$.coil", 0.03, positive=True)
        d_c = _number(sec, "separation_m", "$.coil", 0.03, positive=True)
        mmf = _number(sec, "mmf_At", "$.coil", 564.0)
        cfg.coil = CoilAssembly.anti_helmholtz(r_c=r_c, d_c=d_c, mmf=mmf)

    if "integrator" in root:
        sec = _require_mapping(root["integrator"], "$.integrator")
        _check_keys(sec, {"rel_tol", "abs_tol_pos_m", "abs_tol_vel_m_per_s",
                          "max_step_s", "method"}, "$.integrator")
        rel = _number(sec, "rel_tol", "$.integrator", 1e-9, positive=True)
        ap = _number(sec, "abs_tol_pos_m", "$.integrator", 1e-12, positive=True)
        av = _number(sec, "abs_tol_vel_m_per_s", "$.integrator", 1e-12,
                     positive=True)
        ms = _number(sec, "max_step_s", "$.integrator", None, positive=True)
        method = sec.get("method", "RK45")
        if method not in ("RK45", "DOP853"):
            raise ConfigError("$.integrator.method",
                              "expected 'RK45' or 'DOP853'")
        cfg.integrator = IntegratorConfig(rel_tol=rel, abs_tol_pos=ap,
                                          abs_tol_vel=av, max_step=ms,
                                          method=method)

    if "trajectory" in root:
        sec = _require_mapping(root["trajectory"], "$.trajectory")
        _check_keys(sec, {"B0_values_T", "n_samples"}, "$.trajectory")
        values = _number_list(sec, "B0_values_T", "$.trajectory",
                              cfg.trajectory_B0_values)
        if not values:
            raise ConfigError("$.trajectory.B0_values_T", "must be non-empty")
        cfg.trajectory_B0_values = values
        cfg.trajectory_n_samples = _integer(sec, "n_samples", "$.trajectory",
                                            cfg.trajectory_n_samples, minimum=2)

    if "ramsey" in root:
        sec = _require_mapping(root["ramsey"], "$.ramsey")
        _check_keys(sec, {"theta_g_values_rad"}, "$.ramsey")
        values = _number_list(sec, "theta_g_values_rad", "$.ramsey",
                              cfg.ramsey_theta_values)
        if not values:
            raise ConfigError("$.ramsey.theta_g_values_rad", "must be non-empty")
        for v in values:
            if not (0.0 <= v < math.pi / 2.0):
                raise ConfigError("$.ramsey.theta_g_values_rad",
                                  "angles must lie in [0, pi/2)")
        cfg.ramsey_theta_values = values

    if "fieldmap" in root:
        sec = _require_mapping(root["fieldmap"], "$.fieldmap")
        _check_keys(sec, {"z_m", "x_min_m", "x_max_m", "nx", "y_min_m",
                          "y_max_m", "ny"}, "$.fieldmap")
        z = _number(sec, "z_m", "$.fieldmap", cfg.fieldmap_z)
        x0 = _number(sec, "x_min_m", "$.fieldmap", cfg.fieldmap_x[0])
        x1 = _number(sec, "x_max_m", "$.fieldmap", cfg.fieldmap_x[1])
        nx = _integer(sec, "nx", "$.fieldmap", cfg.fieldmap_x[2], minimum=1)
        y0 = _number(sec, "y_min_m", "$.fieldmap", cfg.fieldmap_y[0])
        y1 = _number(sec, "y_max_m", "$.fieldmap", cfg.fieldmap_y[1])
        ny = _integer(sec, "ny", "$.fieldmap", cfg.fieldmap_y[2], minimum=1)
        if not x0 <= x1:
            raise ConfigError("$.fieldmap.x_max_m", "must be >= x_min_m")
        if not y0 <= y1:
            raise ConfigError("$.fieldmap.y_max_m", "must be >= y_min_m")
        cfg.fieldmap_z = z
        cfg.fieldmap_x = (x0, x1, nx)
        cfg.fieldmap_y = (y0, y1, ny)

    if "sensitivity" in root:
        sec = _require_mapping(root["sensitivity"], "$.sensitivity")
        _check_keys(sec, {"radius_m", "theta_values_rad", "phi_values_rad",
                          "delta_values_rad", "n_flip", "n_samples",
                          "spin_moment"}, "$.sensitivity")
        cfg.sensitivity_radius = _number(sec, "radius_m", "$.sensitivity",
                                         cfg.sensitivity_radius, nonnegative=True)
        cfg.sensitivity_theta = _number_list(sec, "theta_values_rad",
                                             "$.sensitivity", cfg.sensitivity_theta)
        cfg.sensitivity_phi = _number_list(sec, "phi_values_rad",
                                           "$.sensitivity", cfg.sensitivity_phi)
        cfg.sensitivity_delta = _number_list(sec, "delta_values_rad",
                                             "$.sensitivity", cfg.sensitivity_delta)
        for name, values in (("theta_values_rad", cfg.sensitivity_theta),
                             ("phi_values_rad", cfg.sensitivity_phi)):
            if not values or any(not (0.0 <= v <= math.pi / 2.0) for v in values):
                raise ConfigError(f"$.sensitivity.{name}",
                                  "angles must lie in [0, pi/2]")
        if not cfg.sensitivity_delta or any(
                not (0.0 <= v < math.pi) for v in cfg.sensitivity_delta):
            raise ConfigError("$.sensitivity.delta_values_rad",
                              "shifts must lie in [0, pi)")
        cfg.sensitivity_n_flip = _integer(sec, "n_flip", "$.sensitivity",
                                          cfg.sensitivity_n_flip, minimum=1)
        cfg.sensitivity_n_samples = _integer(sec, "n_samples", "$.sensitivity",
                                             cfg.sensitivity_n_samples, minimum=2)
        spin_moment = sec.get("spin_moment", "gamma_e")
        if spin_moment not in ("gamma_e", "mu_B"):
            raise ConfigError("$.sensitivity.spin_moment",
                              "expected 'gamma_e' or 'mu_B'")
        cfg.spin_moment = spin_moment

    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return parse_config(doc)
