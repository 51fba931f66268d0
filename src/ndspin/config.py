"""JSON scenario configuration: one document drives every CLI command.

All physical quantities carry SI units in their key names.  Each section
is read through one key table: JSON key -> (the field it sets, a reader
that checks the value's type, finiteness, bound and list shape).  A key
the document leaves out is not passed on, so it takes the default of the
record its section builds, or of :class:`ScenarioConfig`.  Validation is
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
from .trajectory import RTOL_FLOOR, IntegratorConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1

#: Caps on the counts that size an array or a loop: samples per curve,
#: grid points per axis (``protocol-opt`` keeps one result per cell), spin
#: flips per period (each one a segment of the reference), entries of a
#: family or sensitivity list (a table holds a block of rows per family
#: value, a shell scan stacks every theta-phi pair, and the delta scan's
#: per-segment arrays grow as the square of its lags), the samples of a
#: sensitivity stack summed over its trajectories (the scans keep 48 bytes
#: per trajectory and sample, beside Picard windows of bounded size) and
#: the rows of the family tables of ``dd`` (n_samples per spin and n_flip,
#: the undecoupled 0 included) and ``trajectory`` (n_samples per B0
#: value), whose columns the verb holds in memory; the CSV writer adds one
#: block of 4096 rows, about 5 MB of peak RSS for 10^6 rows.  With these
#: caps no table exceeds 10^6 rows.
#: Each flip multiplier of ``dd`` (a closed form, whatever the count) stays
#: within 2^53, so its flip index floor(t / seg) is an exact float and its
#: ``n_flip`` column an integer one; the inert ``$.dd.n_flip`` has the same
#: cap.
MAX_SAMPLES = 10**6
MAX_GRID = 10**3
MAX_FLIPS = 10**4
MAX_DD_FLIPS = 2**53
MAX_SCAN_VALUES = 16
MAX_STACK_SAMPLES = 2 * 10**6
MAX_TABLE_ROWS = 10**6


class ConfigError(ValueError):
    """Validation failure; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# --- readers: (JSON value, path) -> parsed value, or ConfigError at path ---

def _number(check=None, bound=""):
    """A finite number; ``check`` tests the key's bound, which ``bound``
    states."""
    def read(v, path):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(path, "expected a number")
        try:
            v = float(v)
        except OverflowError:  # an integer literal past the float range
            v = math.inf
        if not math.isfinite(v):
            raise ConfigError(path, "must be finite")
        if check is not None and not check(v):
            raise ConfigError(path, f"must be {bound}")
        return v
    return read


def _integer(minimum, maximum):
    """An integer in [minimum, maximum]; every cap lies within the float
    range, in whose arithmetic the counts enter the model."""
    def read(v, path):
        if type(v) is not int:
            raise ConfigError(path, "expected an integer")
        if v < minimum:
            raise ConfigError(path, f"must be >= {minimum}")
        if v > maximum:
            raise ConfigError(path, f"must be <= {maximum}")
        return v
    return read


def _list(item, length=None, maximum=None):
    """A non-empty list read entry by entry; with ``length``, a tuple of
    exactly that many entries; with ``maximum``, at most that many."""
    def read(v, path):
        if not isinstance(v, list) or not v or length not in (None, len(v)):
            raise ConfigError(path, f"expected a list of {length or 'one or more'} "
                                    "entries")
        if maximum is not None and len(v) > maximum:
            raise ConfigError(path, f"expected at most {maximum} entries")
        entries = [item(x, path) for x in v]
        return entries if length is None else tuple(entries)
    return read


def _choice(allowed, convert=str):
    def read(v, path):
        if not (isinstance(v, str) and v in allowed):
            raise ConfigError(path, "expected one of " + ", ".join(map(repr, allowed)))
        return convert(v)
    return read


def _boolean(v, path):
    if not isinstance(v, bool):
        raise ConfigError(path, "expected a boolean")
    return v


_FINITE = _number()
_POSITIVE = _number(lambda v: v > 0.0, "> 0")
_POSITIVE_PAIR = _list(_POSITIVE, 2)
_QUARTER_TURN = _list(_number(lambda v: 0.0 <= v <= math.pi / 2.0, "in [0, pi/2]"),
                      maximum=MAX_SCAN_VALUES)


def _range(v, path):
    low, high = _POSITIVE_PAIR(v, path)
    if not low < high:
        raise ConfigError(path, "expected [low, high] with 0 < low < high")
    return low, high


def _distance(v, path):
    return None if v == "auto" else _POSITIVE(v, path)


def _nanodiamond(mass=None, **kwargs) -> NanodiamondParams:
    if mass is None:
        return NanodiamondParams(**kwargs)
    return NanodiamondParams.from_mass(mass, **kwargs)


@dataclass
class ScenarioConfig:
    """Fully validated scenario; carries every section a command may need."""

    constants: PhysicalConstants = CONSTANTS
    nanodiamond: NanodiamondParams = dc_field(default_factory=NanodiamondParams)
    field: FieldConfig = dc_field(default_factory=FieldConfig)
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
    fieldmap_x_min: float = -1e-3
    fieldmap_x_max: float = 1e-3
    fieldmap_nx: int = 41
    fieldmap_y_min: float = -1e-3
    fieldmap_y_max: float = 1e-3
    fieldmap_ny: int = 41
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


#: Sections that build one record, held in the ScenarioConfig field of the
#: section's name: the record's constructor, and JSON key -> (argument,
#: reader).
_RECORDS = {
    "constants": (CONSTANTS.with_overrides, {
        "hbar_J_s": ("hbar", _POSITIVE),
        "mu0_T_m_per_A": ("mu0", _POSITIVE),
        "c_m_per_s": ("c", _POSITIVE),
        "G_m3_per_kg_s2": ("G", _POSITIVE),
        "gamma_e_rad_per_s_T": ("gamma_e", _POSITIVE),
        "g_earth_m_per_s2": ("g_earth", _POSITIVE),
        "D_zfs_rad_per_s": ("D_zfs", _POSITIVE),
    }),
    "nanodiamond": (_nanodiamond, {
        "diameter_m": ("diameter", _POSITIVE),
        "mass_kg": ("mass", _POSITIVE),
        "density_kg_per_m3": ("density", _POSITIVE),
        "chi_magnitude": ("chi_magnitude", _POSITIVE),
        "epsilon": ("epsilon", _number(lambda v: v > 1.0, "> 1")),
    }),
    "field": (FieldConfig, {
        "B0_T": ("B0", _FINITE),
        "Bprime_T_per_m": ("Bprime", _POSITIVE),
        "tilt_theta_g_rad": ("tilt_theta_g", _FINITE),
    }),
    "protocol": (ProtocolConfig, {
        "target_delta_phi_rad": ("target_delta_phi", _POSITIVE),
        "scenario": ("scenario", _choice([s.value for s in Scenario], Scenario)),
        "distance_m": ("distance", _distance),
        "allow_close": ("allow_close", _boolean),
    }),
    "coil": (CoilAssembly.anti_helmholtz, {
        "radius_m": ("r_c", _POSITIVE),
        "separation_m": ("d_c", _POSITIVE),
        "mmf_At": ("mmf", _FINITE),
    }),
    "integrator": (IntegratorConfig, {
        "rel_tol": ("rel_tol", _POSITIVE),
        "abs_tol_pos_m": ("abs_tol_pos", _POSITIVE),
        "abs_tol_vel_m_per_s": ("abs_tol_vel", _POSITIVE),
    }),
}

#: Keys that set a ScenarioConfig field directly: section -> JSON key ->
#: (field, reader).
_FIELDS = {
    "dd": {
        # Validated for existing scenario files, but no verb reads a single
        # flip multiplier: `dd` renders every n in n_values.
        "n_flip": (None, _integer(1, MAX_DD_FLIPS)),
        "n_values": ("dd_n_values", _list(_integer(1, MAX_DD_FLIPS),
                                          maximum=MAX_SCAN_VALUES)),
        "n_samples": ("dd_n_samples", _integer(2, MAX_SAMPLES)),
    },
    "protocol": {
        "mass_range_kg": ("mass_range", _range),
        "Bprime_range_T_per_m": ("bprime_range", _range),
        "grid_shape": ("grid_shape", _list(_integer(2, MAX_GRID), 2)),
        "refine": ("refine", _boolean),
    },
    "trajectory": {
        "B0_values_T": ("trajectory_B0_values", _list(_FINITE, maximum=MAX_SCAN_VALUES)),
        "n_samples": ("trajectory_n_samples", _integer(2, MAX_SAMPLES)),
    },
    "ramsey": {
        "theta_g_values_rad": ("ramsey_theta_values", _list(
            _number(lambda v: 0.0 <= v < math.pi / 2.0, "in [0, pi/2)"),
            maximum=MAX_SAMPLES)),
    },
    "fieldmap": {
        "z_m": ("fieldmap_z", _FINITE),
        "x_min_m": ("fieldmap_x_min", _FINITE),
        "x_max_m": ("fieldmap_x_max", _FINITE),
        "nx": ("fieldmap_nx", _integer(1, MAX_GRID)),
        "y_min_m": ("fieldmap_y_min", _FINITE),
        "y_max_m": ("fieldmap_y_max", _FINITE),
        "ny": ("fieldmap_ny", _integer(1, MAX_GRID)),
    },
    "sensitivity": {
        "radius_m": ("sensitivity_radius", _number(lambda v: v >= 0.0, ">= 0")),
        "theta_values_rad": ("sensitivity_theta", _QUARTER_TURN),
        "phi_values_rad": ("sensitivity_phi", _QUARTER_TURN),
        "delta_values_rad": ("sensitivity_delta", _list(_number(
            lambda v: 0.0 <= v < math.pi, "in [0, pi)"), maximum=MAX_SCAN_VALUES)),
        "n_flip": ("sensitivity_n_flip", _integer(1, MAX_FLIPS)),
        "n_samples": ("sensitivity_n_samples", _integer(2, MAX_SAMPLES)),
    },
}

_TOP_KEYS = {"version"} | _RECORDS.keys() | _FIELDS.keys()


def _object(obj: Any, path: str, keys) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    unknown = obj.keys() - keys
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    return obj


def _read(sec: dict, path: str, table: dict) -> dict:
    """The values of the keys in ``table`` that ``sec`` gives, by field."""
    return {name: read(sec[key], f"{path}.{key}")
            for key, (name, read) in table.items() if key in sec}


def parse_config(doc: Any) -> ScenarioConfig:
    root = _object(doc, "$", _TOP_KEYS)
    version = root.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError("$.version", f"expected {SCHEMA_VERSION}, got {version!r}")
    nd = root.get("nanodiamond")
    if isinstance(nd, dict) and "diameter_m" in nd and "mass_kg" in nd:
        raise ConfigError("$.nanodiamond.mass_kg",
                          "give either diameter_m or mass_kg, not both")

    fields = {}
    for name, sec in root.items():
        if name == "version":
            continue
        path = f"$.{name}"
        build, arg_table = _RECORDS.get(name, (None, {}))
        field_table = _FIELDS.get(name, {})
        sec = _object(sec, path, arg_table.keys() | field_table.keys())
        fields.update(_read(sec, path, field_table))
        if build is not None:
            args = _read(sec, path, arg_table)
            try:
                fields[name] = build(**args)
            except ValueError as exc:
                raise ConfigError(path, str(exc)) from exc
    fields.pop(None, None)  # the inert $.dd.n_flip

    cfg = ScenarioConfig(**fields)
    if not cfg.fieldmap_x_min <= cfg.fieldmap_x_max:
        raise ConfigError("$.fieldmap.x_max_m", "must be >= x_min_m")
    if not cfg.fieldmap_y_min <= cfg.fieldmap_y_max:
        raise ConfigError("$.fieldmap.y_max_m", "must be >= y_min_m")
    rows = _stack_rows(cfg)
    if rows * cfg.sensitivity_n_samples > MAX_STACK_SAMPLES:
        raise ConfigError("$.sensitivity.n_samples",
                          f"times the {rows} trajectories of the largest "
                          f"sensitivity stack must be <= {MAX_STACK_SAMPLES}")
    if not cfg.integrator.stack_rtol(rows) >= RTOL_FLOOR:
        raise ConfigError("$.integrator.rel_tol",
                          f"divided by sqrt({rows}) for the {rows} trajectories "
                          "of the largest sensitivity stack must be >= 100 "
                          f"machine epsilons ({RTOL_FLOOR:.3g})")
    for path, families, what, n_samples in (
            ("$.dd.n_samples", 2 * (1 + len(cfg.dd_n_values)),
             "spin and n_flip families", cfg.dd_n_samples),
            ("$.trajectory.n_samples", len(cfg.trajectory_B0_values),
             "B0 values", cfg.trajectory_n_samples)):
        if families * n_samples > MAX_TABLE_ROWS:
            raise ConfigError(path, f"times the {families} {what} of its table "
                                    f"must be <= {MAX_TABLE_ROWS} rows")
    return cfg


def _stack_rows(cfg: ScenarioConfig) -> int:
    """Trajectories in the larger of the two stacks ``sensitivity``
    integrates: both spins of every shell start (one start at radius 0),
    or the delta scan's reference and distinct lags."""
    starts = (len(cfg.sensitivity_theta) * len(cfg.sensitivity_phi)
              if cfg.sensitivity_radius > 0.0 else 1)
    return max(2 * starts, 1 + len(set(cfg.sensitivity_delta) - {0.0}))


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return parse_config(doc)
