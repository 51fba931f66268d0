"""Batch command-line front end.

Every verb reads one JSON scenario config and writes deterministic CSV/JSON
artifacts into the output directory; plots are left to external tools, so
each figure-style command also emits a small manifest describing its axes.
A verb computes all of its artifacts before it writes any: a value that is
not finite, in a table or a record, is a numerical failure, and nothing is
written.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .coherent import _swing, ramsey_phase
from .config import ConfigError, ScenarioConfig, load_config
from .core import (FieldConfig, derive_oscillator, equilibrium_positions,
                   max_separation)
from .decoupling import _phase_space
from .coils import field_jacobian, field_map
from .protocol import (
    SURFACE_CSV_HEADER,
    casimir_polder_separation,
    min_distance,
    optimize_tmin,
    protocol_duration,
)
from .tables import write_csv, write_json
from .trajectory import (FlipSchedule, IntegrationError, delta_scan,
                         sensitivity_scan)

TRAJECTORY_CSV_HEADER = ("t_s", "x_m", "y_m", "z_m", "vx_mps", "vy_mps",
                         "vz_mps", "spin")


def _write(args, tables: dict, records: dict) -> dict:
    """Write ``tables`` (file name -> (header, columns)) as CSV and
    ``records`` (file name -> payload) as JSON into the output directory,
    and return each record's JSON text by file name.  Every column and
    record is checked first: a value that is not finite raises
    FloatingPointError before any file is written."""
    for name, (header, columns) in tables.items():
        for label, column in zip(header, columns):
            if not np.isfinite(np.asarray(column, dtype=float)).all():
                raise FloatingPointError(
                    f"{name}: column {label} has values that are not finite")
    texts = {name: _json_text(name, payload)
             for name, payload in records.items()}
    for name, (header, columns) in tables.items():
        write_csv(os.path.join(args.out, name), header, columns)
    for name, text in texts.items():
        write_json(os.path.join(args.out, name), text)
    return texts


def _json_text(name: str, payload: dict) -> str:
    """``payload`` as the JSON the artifacts hold; a value that is not
    finite raises FloatingPointError."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise FloatingPointError(
            f"{name}: a value is not finite") from None


def cmd_derive(cfg: ScenarioConfig, args) -> int:
    osc = derive_oscillator(cfg.nanodiamond, cfg.field, cfg.constants)
    x0p, x0m = equilibrium_positions(cfg.nanodiamond, cfg.field, cfg.constants)
    report = {
        "mass_kg": cfg.nanodiamond.mass,
        "volume_m3": cfg.nanodiamond.volume,
        "omega_rad_per_s": osc.omega,
        "period_s": osc.period,
        "x_zpf_m": osc.x_zpf,
        "p_zpf_kg_m_per_s": osc.p_zpf,
        "lambda_rad_per_s": osc.lam,
        "lambda0_rad_per_s": osc.lambda0,
        "lambda_g_rad_per_s": osc.lambda_g,
        "x0_plus_m": x0p,
        "x0_minus_m": x0m,
        "delta_x_max_m": max_separation(cfg.nanodiamond, cfg.field, cfg.constants),
        "delta_cp_m": casimir_polder_separation(cfg.nanodiamond, cfg.constants),
        "d_min_m": min_distance(cfg.nanodiamond, cfg.field, cfg.constants),
    }
    print(_write(args, {}, {"derive.json": report})["derive.json"])
    return 0


def cmd_trajectory(cfg: ScenarioConfig, args) -> int:
    osc = derive_oscillator(cfg.nanodiamond, cfg.field, cfg.constants)
    times = np.linspace(0.0, osc.period, cfg.trajectory_n_samples)
    b0s = cfg.trajectory_B0_values
    # omega does not depend on B0, so every family is a branch's equilibrium
    # position times one swing, as in classical_position
    swing = _swing(times, osc.omega)
    x0 = np.array([equilibrium_positions(cfg.nanodiamond, replace(cfg.field, B0=b0),
                                         cfg.constants) for b0 in b0s])
    x_plus, x_minus = np.multiply.outer(x0.T, swing).reshape(2, -1)
    _write(args, {"trajectory.csv": (
        ("B0_T", "t_s", "x_plus_m", "x_minus_m"),
        (np.repeat(b0s, times.size), np.tile(times, len(b0s)), x_plus,
         x_minus))}, {
        "trajectory_manifest.json": {
            "generated_by": "ndspin trajectory",
            "x_axis": "t_s",
            "y_axis": ["x_plus_m", "x_minus_m"],
            "family_axis": "B0_T",
            "description": "one oscillation period of both spin branches per "
                           "bias value",
        }})
    return 0


def cmd_dd(cfg: ScenarioConfig, args) -> int:
    osc = derive_oscillator(cfg.nanodiamond, cfg.field, cfg.constants)
    times = np.linspace(0.0, osc.period, cfg.dd_n_samples)
    ns = (0, *cfg.dd_n_values)
    xp = _phase_space(times, ns, (1, -1), osc)
    _write(args, {"dd_phase_space.csv": (
        ("n_flip", "spin", "t_s", "x_m", "p_kg_m_per_s"),
        (np.repeat(ns, 2 * times.size),
         np.tile(np.repeat((1, -1), times.size), len(ns)),
         np.tile(times, 2 * len(ns)), *xp.T))}, {
        "dd_manifest.json": {
            "generated_by": "ndspin dd",
            "x_axis": "x_m",
            "y_axis": "p_kg_m_per_s",
            "family_axis": ["n_flip", "spin"],
            "note": "n_flip = 0 rows are the undecoupled reference",
        }})
    return 0


def cmd_ramsey(cfg: ScenarioConfig, args) -> int:
    thetas = cfg.ramsey_theta_values
    _write(args, {"ramsey.csv": (
        ("theta_g_rad", "delta_theta_rad"),
        (thetas, [ramsey_phase(theta, cfg.nanodiamond, cfg.field,
                               cfg.constants) for theta in thetas]))}, {
        "ramsey_manifest.json": {
            "generated_by": "ndspin ramsey",
            "x_axis": "theta_g_rad",
            "y_axis": "delta_theta_rad",
            "description": "branch phase difference after one period vs tilt "
                           "angle",
        }})
    return 0


def cmd_fieldmap(cfg: ScenarioConfig, args) -> int:
    if cfg.coil is None:
        raise ConfigError("$.coil", "fieldmap requires a coil section")
    nx, ny = cfg.fieldmap_nx, cfg.fieldmap_ny
    xs = np.linspace(cfg.fieldmap_x_min, cfg.fieldmap_x_max, nx)
    ys = np.linspace(cfg.fieldmap_y_min, cfg.fieldmap_y_max, ny)
    q, B = field_map(cfg.coil, cfg.fieldmap_z, xs, ys, cfg.constants)
    grad = field_jacobian((0.0, 0.0, 0.0), cfg.coil, constants=cfg.constants)
    _write(args, {"fieldmap.csv": (
        ("x_m", "y_m", "z_m", "Bx_T", "By_T", "Bz_T"), (*q.T, *B.T))}, {
        "fieldmap_manifest.json": {
            "generated_by": "ndspin fieldmap",
            "plane_z_m": cfg.fieldmap_z,
            "grid": {"nx": nx, "ny": ny},
            "central_gradient_T_per_m": float(grad[0, 0]),
            "description": "field components on a z = const plane, row-major "
                           "in x then y",
        }})
    return 0


def cmd_sensitivity(cfg: ScenarioConfig, args) -> int:
    if cfg.coil is None:
        raise ConfigError("$.coil", "sensitivity requires a coil section")
    grad = field_jacobian((0.0, 0.0, 0.0), cfg.coil, constants=cfg.constants)
    if grad[0, 0] == 0.0:
        raise ConfigError("$.coil.mmf_At", "the coil's central gradient is "
                          "zero, so there is no trap to integrate in")
    if not np.isfinite(grad[0, 0]):
        raise FloatingPointError("the coil's central gradient is not finite")
    # A reversed current negates J and traps alike: the trap frequency
    # follows |J_xx|.
    osc = derive_oscillator(cfg.nanodiamond,
                            FieldConfig(Bprime=abs(grad[0, 0])), cfg.constants)
    omega_eff, period = osc.omega, osc.period
    schedule = FlipSchedule(omega_dd=cfg.sensitivity_n_flip * omega_eff)
    records = sensitivity_scan(
        cfg.sensitivity_radius, cfg.sensitivity_theta, cfg.sensitivity_phi,
        cfg.coil, cfg.nanodiamond, schedule, period, cfg.integrator,
        cfg.sensitivity_n_samples, cfg.constants)
    tables, summary = {}, []
    for i, rec in enumerate(records):
        for spin, traj in rec["trajectories"].items():
            name = f"sensitivity_start{i:02d}_spin{'p' if spin > 0 else 'm'}.csv"
            tables[name] = (TRAJECTORY_CSV_HEADER,
                            (traj.t, *traj.q.T, *traj.v.T, traj.spin))
        summary.append({
            "theta_rad": rec["theta"], "phi_rad": rec["phi"],
            "start_m": list(rec["start"]),
            "y_overlap_rel": rec["y_overlap"],
            "z_overlap_rel": rec["z_overlap"],
            "x_separation_max_m": rec["x_separation_max"],
        })
    deltas = delta_scan(cfg.sensitivity_delta, cfg.coil, cfg.nanodiamond,
                        cfg.sensitivity_n_flip, omega_eff, cfg.integrator,
                        cfg.sensitivity_n_samples, cfg.constants)
    _write(args, tables, {"sensitivity_summary.json": {
        "generated_by": "ndspin sensitivity",
        "omega_rad_per_s": float(omega_eff),
        "period_s": float(period),
        "shell_radius_m": cfg.sensitivity_radius,
        "starts": summary,
        "delta_scan": deltas,
    }})
    return 0


def cmd_protocol_opt(cfg: ScenarioConfig, args) -> int:
    result = optimize_tmin(
        cfg.protocol.scenario, cfg.mass_range, cfg.bprime_range,
        grid_shape=cfg.grid_shape, refine=cfg.refine,
        template=cfg.nanodiamond, target_delta_phi=cfg.protocol.target_delta_phi,
        constants=cfg.constants)
    summary = protocol_duration(cfg.nanodiamond, cfg.field, cfg.protocol,
                                cfg.constants)
    _write(args, {"protocol_surface.csv": (SURFACE_CSV_HEADER,
                                           result.surface_columns())}, {
        "protocol_opt.json": {
            "generated_by": "ndspin protocol-opt",
            "scenario": cfg.protocol.scenario.value,
            "m_opt_kg": result.m_opt,
            "Bprime_opt_T_per_m": result.Bprime_opt,
            "t_min_s": result.t_min,
            "t_hold_s": result.result.t_hold,
            "period_s": result.result.period,
            "delta_phi_bd_rad": result.result.delta_phi_bd,
            "d_min_m": result.result.d_used,
            "on_mass_boundary": result.on_mass_boundary,
            "on_gradient_boundary": result.on_gradient_boundary,
        },
        "protocol_point.json": {
            "generated_by": "ndspin protocol-opt",
            "note": "protocol timing at the configured (nanodiamond, field) "
                    "point",
            "t_total_s": summary.t_total,
            "t_hold_s": summary.t_hold,
            "period_s": summary.period,
            "delta_phi_bd_rad": summary.delta_phi_bd,
            "delta_phi_hold_rad": summary.delta_phi_hold,
            "d_used_m": summary.d_used,
        }})
    return 0


_COMMANDS = {
    "derive": cmd_derive,
    "trajectory": cmd_trajectory,
    "dd": cmd_dd,
    "ramsey": cmd_ramsey,
    "fieldmap": cmd_fieldmap,
    "sensitivity": cmd_sensitivity,
    "protocol-opt": cmd_protocol_opt,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    most verbs' own work."""
    parser = argparse.ArgumentParser(
        prog="ndspin",
        description="nanodiamond spin-interferometer simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # A value that is not finite is reported once, by the verb's check
        # of its outputs, not as numpy warnings on the way.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg, args)
    except (IntegrationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
