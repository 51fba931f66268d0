import contextlib
import copy
import json
import math
import re
import signal
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndspin import cli
from ndspin.cli import _COMMANDS, main
from ndspin.coherent import classical_position
from ndspin.coils import CoilAssembly
from ndspin.config import (MAX_DD_FLIPS, MAX_SAMPLES, MAX_STACK_SAMPLES,
                           MAX_TABLE_ROWS, ConfigError, ScenarioConfig,
                           load_config, parse_config)
from ndspin.core import (CONSTANTS, FieldConfig, NanodiamondParams,
                         derive_oscillator)
from ndspin.decoupling import DDConfig, dd_expectation
from ndspin.protocol import ProtocolConfig, casimir_polder_separation
from ndspin.trajectory import IntegratorConfig
from ndspin.tables import write_csv
from test_coherent import _skewed_lambda_g


def _write_config(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {
    "version": 1,
    "nanodiamond": {"diameter_m": 250e-9},
    "field": {"B0_T": 0.0, "Bprime_T_per_m": 1000.0},
}


def test_parse_defaults():
    cfg = parse_config(BASE)
    assert cfg.nanodiamond.diameter == 250e-9
    assert cfg.field.Bprime == 1000.0
    assert cfg.protocol.target_delta_phi == pytest.approx(0.01 * math.pi)


_SECTIONS = ("constants", "nanodiamond", "field", "dd", "protocol", "coil",
             "integrator", "trajectory", "ramsey", "fieldmap", "sensitivity")


@pytest.mark.parametrize("empty_sections", [False, True])
def test_left_out_keys_take_the_record_defaults(empty_sections):
    doc = {"version": 1}
    if empty_sections:
        doc.update({name: {} for name in _SECTIONS})
    cfg = parse_config(doc)
    assert cfg.constants == CONSTANTS
    assert cfg.nanodiamond == NanodiamondParams()
    assert cfg.field == FieldConfig()
    assert cfg.protocol == ProtocolConfig()
    assert cfg.integrator == IntegratorConfig()
    # an empty coil section builds the constructor's default pair
    coil = CoilAssembly.anti_helmholtz() if empty_sections else None
    assert cfg == ScenarioConfig(coil=coil)


def test_readme_example_scenario_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"Example scenario.*?```json\n(.*?)```", readme, re.S)
    cfg = parse_config(json.loads(block.group(1)))
    assert cfg.coil is not None and cfg.field.B0 > 0.0


def test_readme_library_quick_tour_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick tour.*?```python\n(.*?)```", readme,
                      re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert round(float(lines[0]), 1) == 282.8
    assert lines[2] == "(60, 60)"


def test_unknown_keys_rejected_with_path():
    doc = dict(BASE)
    doc["field"] = {"Bprime_T_per_m": 1.0, "Bprime_mT": 5}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "$.field.Bprime_mT" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config({**BASE, "extras": {}})
    assert "$.extras" in str(err.value)

    # retired keys: the integrator method, the step cap, the spin-moment
    # convention and the Bohr magneton it read
    for section, key, value in (("integrator", "method", "RK45"),
                                ("integrator", "max_step_s", 1e-3),
                                ("sensitivity", "spin_moment", "gamma_e"),
                                ("constants", "mu_B_J_per_T", 9.27e-24)):
        with pytest.raises(ConfigError) as err:
            parse_config({**BASE, section: {key: value}})
        assert str(err.value) == f"$.{section}.{key}: unknown key"


def test_version_required():
    with pytest.raises(ConfigError) as err:
        parse_config({"nanodiamond": {}})
    assert "$.version" in str(err.value)


def test_invalid_gradient_names_field():
    doc = {"version": 1, "field": {"Bprime_T_per_m": 0.0}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "Bprime_T_per_m" in str(err.value)


def test_mass_and_diameter_are_exclusive():
    doc = {"version": 1,
           "nanodiamond": {"diameter_m": 1e-7, "mass_kg": 1e-13}}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_scenario_and_distance_parsing():
    doc = {**BASE,
           "protocol": {"scenario": "full-cycle", "distance_m": "auto"}}
    cfg = parse_config(doc)
    assert cfg.protocol.distance is None
    from ndspin import Scenario

    assert cfg.protocol.scenario is Scenario.FULL_CYCLE
    with pytest.raises(ConfigError):
        parse_config({**BASE, "protocol": {"scenario": "warp"}})


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["derive", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_derive(tmp_path, capsys):
    path = _write_config(tmp_path, BASE)
    code = main(["derive", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("omega_rad_per_s", "delta_x_max_m", "delta_cp_m", "d_min_m",
                "period_s"):
        assert math.isfinite(report[key])
    assert (tmp_path / "derive.json").exists()


def test_cmd_derive_rejects_bad_gradient(tmp_path, capsys):
    path = _write_config(tmp_path, {"version": 1,
                                    "field": {"Bprime_T_per_m": 0.0}})
    code = main(["derive", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "Bprime_T_per_m" in capsys.readouterr().err


def test_cmd_trajectory_writes_one_period_per_bias(tmp_path):
    doc = {**BASE, "trajectory": {"B0_values_T": [0.0, 5e-4], "n_samples": 32}}
    path = _write_config(tmp_path, doc)
    assert main(["trajectory", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "B0_T,t_s,x_plus_m,x_minus_m"
    assert len(lines) == 1 + 2 * 32


def _tables_of(verb, doc, tmp_path, monkeypatch):
    """The tables ``verb`` hands to the writer, by file name."""
    tables = {}

    def capture(args, verb_tables, records):
        tables.update(verb_tables)
        return {name: "" for name in records}

    monkeypatch.setattr(cli, "_write", capture)
    assert main([verb, "--config", _write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    return tables


def _same_bits(got, want):
    """Equal bit patterns, and so equal signs of zero, and equal dtypes."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


def test_trajectory_columns_repeat_classical_position(tmp_path, monkeypatch):
    doc = {**BASE, "field": {"B0_T": 5e-4, "Bprime_T_per_m": 0.663},
           "trajectory": {"B0_values_T": [0.0, -7e-4, 5e-4, 3e-2],
                          "n_samples": 301}}
    cfg = parse_config(doc)
    (header, columns), = _tables_of("trajectory", doc, tmp_path,
                                    monkeypatch).values()
    assert header == ("B0_T", "t_s", "x_plus_m", "x_minus_m")
    times = np.linspace(0.0, derive_oscillator(cfg.nanodiamond,
                                               cfg.field).period, 301)
    b0s = cfg.trajectory_B0_values
    want = [np.concatenate([classical_position(
        times, spin, cfg.nanodiamond, replace(cfg.field, B0=b0))
        for b0 in b0s]) for spin in (1, -1)]
    grid = [g.ravel() for g in np.meshgrid(b0s, times, indexing="ij")]
    for got, expected in zip(columns, (*grid, *want)):
        assert _same_bits(got, expected)


def test_dd_columns_repeat_dd_expectation(tmp_path, monkeypatch):
    # N = 1 and N = 2 take the limit sums
    ns = [1, 2, 3, 4, 7, 20, 200]
    doc = {**BASE, "field": {"B0_T": -3e-4, "Bprime_T_per_m": 0.663},
           "dd": {"n_values": ns, "n_samples": 401}}
    cfg = parse_config(doc)
    (header, columns), = _tables_of("dd", doc, tmp_path, monkeypatch).values()
    assert header == ("n_flip", "spin", "t_s", "x_m", "p_kg_m_per_s")
    times = np.linspace(0.0, derive_oscillator(cfg.nanodiamond,
                                               cfg.field).period, 401)
    want = np.concatenate([
        dd_expectation(times, spin, cfg.nanodiamond, cfg.field,
                       DDConfig(n=n) if n else None)
        for n in (0, *ns) for spin in (1, -1)])
    grid = [g.ravel() for g in np.meshgrid((0, *ns), (1, -1), times,
                                           indexing="ij")]
    for got, expected in zip(columns, (*grid, *want.T)):
        assert _same_bits(got, expected)


def test_cmd_dd_writes_phase_space(tmp_path):
    doc = {**BASE,
           "field": {"B0_T": 5e-4, "Bprime_T_per_m": 1000.0},
           "dd": {"n_flip": 8, "n_values": [4, 8], "n_samples": 64}}
    path = _write_config(tmp_path, doc)
    assert main(["dd", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dd_phase_space.csv").read_text().splitlines()
    assert lines[0] == "n_flip,spin,t_s,x_m,p_kg_m_per_s"
    # undecoupled rows plus one block per n value, both spins
    assert len(lines) == 1 + 3 * 2 * 64
    # the n_flip and spin columns hold integer literals, never 4.0 or 1.0
    cells = [line.split(",")[:2] for line in lines[1:]]
    assert all(re.fullmatch(r"-?\d+", c) for row in cells for c in row)
    assert {row[0] for row in cells} == {"0", "4", "8"}
    assert {row[1] for row in cells} == {"1", "-1"}


#: One small scenario that every verb can render.
SMALL = {
    "version": 1,
    "nanodiamond": {"mass_kg": 5.6e-14},
    "field": {"B0_T": 5e-4, "Bprime_T_per_m": 1000.0},
    "dd": {"n_values": [1, 2, 7, 200], "n_samples": 64},
    "protocol": {"scenario": "hold-only", "mass_range_kg": [1e-14, 1e-12],
                 "Bprime_range_T_per_m": [0.2, 2.0], "grid_shape": [8, 8]},
    "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0},
    "integrator": {"rel_tol": 1e-8, "abs_tol_pos_m": 1e-15,
                   "abs_tol_vel_m_per_s": 1e-15},
    "trajectory": {"B0_values_T": [0.0, 5e-4], "n_samples": 32},
    "ramsey": {"theta_g_values_rad": [0.0, 0.3]},
    "fieldmap": {"nx": 7, "ny": 5},
    "sensitivity": {"radius_m": 5e-7, "theta_values_rad": [0.0, 0.7853],
                    "phi_values_rad": [0.7853], "delta_values_rad": [0.0, 0.2],
                    "n_flip": 20, "n_samples": 40},
}


@pytest.mark.parametrize("verb", sorted(_COMMANDS))
def test_every_verb_is_deterministic(tmp_path, verb):
    path = _write_config(tmp_path, SMALL)
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([verb, "--config", path, "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("section, path", [
    ({"trajectory": {"B0_values_T": [math.nan]}}, "$.trajectory.B0_values_T"),
    ({"protocol": {"distance_m": math.inf, "grid_shape": [4, 4]}},
     "$.protocol.distance_m"),
    ({"protocol": {"mass_range_kg": [1e-17, math.inf]}},
     "$.protocol.mass_range_kg"),
    ({"version": True}, "$.version"),
    ({"version": 1.0}, "$.version"),
    ({"field": {"B0_T": 10**400}}, "$.field.B0_T"),
], ids=["B0_nan", "distance_inf", "mass_range_inf", "version_true",
        "version_float", "B0_past_float_range"])
def test_non_finite_or_non_integer_numbers_exit_2(tmp_path, capsys, section,
                                                  path):
    verb = "protocol-opt" if "protocol" in section else "trajectory"
    config = _write_config(tmp_path, {**BASE, **section})
    out = tmp_path / "out"
    assert main([verb, "--config", config, "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, section, key, value", [
    ("dd", "dd", "n_samples", 10**15),
    ("trajectory", "trajectory", "n_samples", 10**15),
    ("sensitivity", "sensitivity", "n_samples", 10**15),
    ("sensitivity", "sensitivity", "n_flip", 10**15),
    ("fieldmap", "fieldmap", "nx", 10**15),
    ("fieldmap", "fieldmap", "ny", 10**15),
    ("protocol-opt", "protocol", "grid_shape", [10**15, 4]),
    ("protocol-opt", "protocol", "grid_shape", [4, 10**15]),
    ("sensitivity", "sensitivity", "theta_values_rad", [0.5] * 17),
    ("sensitivity", "sensitivity", "phi_values_rad", [0.5] * 17),
    ("sensitivity", "sensitivity", "delta_values_rad", [0.5] * 17),
    ("dd", "dd", "n_values", [4] * 17),
    ("trajectory", "trajectory", "B0_values_T", [0.0] * 17),
    ("ramsey", "ramsey", "theta_g_values_rad", [0.5] * (MAX_SAMPLES + 1)),
], ids=["dd_n_samples", "trajectory_n_samples", "sensitivity_n_samples",
        "sensitivity_n_flip", "fieldmap_nx", "fieldmap_ny", "grid_n_mass",
        "grid_n_gradient", "sensitivity_theta", "sensitivity_phi",
        "sensitivity_delta", "dd_n_values", "trajectory_B0_values",
        "ramsey_theta_values"])
def test_count_over_its_cap_exits_2(tmp_path, capsys, verb, section, key,
                                    value):
    doc = copy.deepcopy(SMALL)
    doc[section][key] = value
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    assert f"$.{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sensitivity, rows", [
    ({"theta_values_rad": [0.5] * 16, "phi_values_rad": [0.5] * 16}, 512),
    ({"radius_m": 0.0, "theta_values_rad": [0.5] * 16,
      "delta_values_rad": [0.1 * k for k in range(16)]}, 16),
], ids=["shell", "lags"])
def test_sensitivity_stack_over_its_cap_exits_2(tmp_path, capsys, sensitivity,
                                                 rows):
    # Parsed only: at the cap itself the scan would hold about 0.5 GB.
    fits = MAX_STACK_SAMPLES // rows
    doc = {**BASE, "sensitivity": {**sensitivity, "n_samples": fits}}
    assert parse_config(doc).sensitivity_n_samples == fits
    doc["sensitivity"]["n_samples"] = fits + 1
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "$.sensitivity.n_samples" in err and f"the {rows} trajectories" in err
    assert not out.exists()


@pytest.mark.parametrize("verb, section, families", [
    ("dd", {"n_values": [4, 20, 200]}, 8),
    ("trajectory", {"B0_values_T": [0.0] * 16}, 16),
], ids=["dd", "trajectory"])
def test_family_table_over_its_cap_exits_2(tmp_path, capsys, verb, section,
                                           families):
    # Parsed only: at the cap itself the table is 10^6 rows.
    fits = MAX_TABLE_ROWS // families
    doc = {**BASE, verb: {**section, "n_samples": fits}}
    assert getattr(parse_config(doc), f"{verb}_n_samples") == fits
    doc[verb]["n_samples"] = fits + 1
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"$.{verb}.n_samples" in err and f"the {families} " in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("scheme", "full-flip"),
                                        ("n_periods", 3)])
def test_dd_removed_keys_exit_2(tmp_path, capsys, key, value):
    doc = {**BASE, "dd": {"n_flip": 7, key: value}}
    path = _write_config(tmp_path, doc)
    assert main(["dd", "--config", path, "--out", str(tmp_path)]) == 2
    assert f"$.dd.{key}" in capsys.readouterr().err


def test_dd_n_flip_still_validated(tmp_path, capsys):
    assert parse_config({**BASE, "dd": {"n_flip": 7}}).dd_n_values == [4, 20, 200]
    path = _write_config(tmp_path, {**BASE, "dd": {"n_flip": 0}})
    assert main(["dd", "--config", path, "--out", str(tmp_path)]) == 2
    assert "$.dd.n_flip" in capsys.readouterr().err


def test_dd_n_values_past_float_range_exits_2(tmp_path, capsys):
    # an entry past the float range is over the 2^53 cap of every entry
    path = _write_config(tmp_path, {**BASE, "dd": {"n_values": [4, 10**400]}})
    out = tmp_path / "out"
    assert main(["dd", "--config", path, "--out", str(out)]) == 2
    assert "$.dd.n_values" in capsys.readouterr().err
    assert not out.exists()
    assert parse_config({**BASE, "dd": {"n_values": [10**15]}}).dd_n_values == [
        10**15]


def test_dd_n_values_entry_over_its_cap_exits_2(tmp_path, capsys):
    # past 2^53 the flip index floor(t / seg) is no longer exact, and past
    # 2^63 the n_flip column would turn from integers to floats
    path = _write_config(tmp_path, {**BASE, "dd": {"n_values": [4, 2**53],
                                                   "n_samples": 4}})
    out = tmp_path / "out"
    assert main(["dd", "--config", path, "--out", str(out)]) == 0
    n_flip = [row.split(",")[0] for row in
              (out / "dd_phase_space.csv").read_text().splitlines()[1:]]
    assert n_flip == ["0"] * 8 + ["4"] * 8 + [str(2**53)] * 8
    for entry in (MAX_DD_FLIPS + 1, 2**63, 10**20):
        path = _write_config(tmp_path, {**BASE, "dd": {"n_values": [entry]}})
        out = tmp_path / "bad"
        assert main(["dd", "--config", path, "--out", str(out)]) == 2
        assert "$.dd.n_values" in capsys.readouterr().err
        assert not out.exists()


def test_protocol_time_overflow_exits_3(tmp_path, capsys):
    # a valid mass range at which G m^2/hbar overflows
    doc = {"version": 1, "protocol": {"mass_range_kg": [1e200, 1e300],
                                      "grid_shape": [4, 4]}}
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    # the non-finite check is the only report: no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["protocol-opt", "--config", path, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m_lo", [1e-200, 1e-32, 5e-324])
def test_protocol_light_mass_range_exits_3(tmp_path, capsys, m_lo):
    # below about 1e-32 kg, dx_max outgrows Delta_CP by 2^53 and
    # d_min = dx_max + Delta_CP rounds onto dx_max: one numerical failure
    # line that names the ranges, no warning, and no file
    doc = {"version": 1, "protocol": {"mass_range_kg": [m_lo, 1e-12],
                                      "grid_shape": [4, 4]}}
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["protocol-opt", "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: d_min")
    assert f"m in [{m_lo:.6e}, 1.000000e-12] kg" in captured.err
    assert "B' in [1.000000e-01, 1.000000e+01] T/m" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("verb", ["derive", "protocol-opt"])
def test_light_particle_min_distance_exits_3(tmp_path, capsys, verb):
    # at 1e-40 kg d_min = dx_max + Delta_CP rounds onto dx_max: derive
    # would report d_min equal to dx_max, and protocol-opt's point summary
    # would refuse the Auto distance as a config error; both are one
    # numerical failure line, with no warning and no file
    doc = {"version": 1, "nanodiamond": {"mass_kg": 1e-40},
           "protocol": {"grid_shape": [4, 4]}}
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "numerical failure: d_min = dx_max + Delta_CP rounds onto dx_max = "
        "1.506178e+17 m for m = 1.000000e-40 kg, B' = 1.000000e+03 T/m\n")
    assert not captured.out and not out.exists()


def test_cmd_ramsey(tmp_path):
    doc = {**BASE, "ramsey": {"theta_g_values_rad": [0.0, 0.3, 0.6]}}
    path = _write_config(tmp_path, doc)
    assert main(["ramsey", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ramsey.csv").read_text().splitlines()
    assert lines[0] == "theta_g_rad,delta_theta_rad"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 0.0


def test_cmd_ramsey_identity_failure_exits_3(tmp_path, monkeypatch):
    _skewed_lambda_g(monkeypatch)
    doc = {**BASE, "ramsey": {"theta_g_values_rad": [0.3]}}
    path = _write_config(tmp_path, doc)
    assert main(["ramsey", "--config", path, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "ramsey.csv").exists()


def test_cmd_fieldmap_axis_row(tmp_path):
    doc = {**BASE,
           "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0},
           "fieldmap": {"z_m": 0.0, "x_min_m": -1e-3, "x_max_m": 1e-3,
                        "nx": 5, "y_min_m": 0.0, "y_max_m": 0.0, "ny": 1}}
    path = _write_config(tmp_path, doc)
    assert main(["fieldmap", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fieldmap.csv").read_text().splitlines()
    assert lines[0] == "x_m,y_m,z_m,Bx_T,By_T,Bz_T"
    for row in lines[1:]:
        cols = row.split(",")
        assert float(cols[4]) == 0.0 and float(cols[5]) == 0.0


def test_cmd_fieldmap_empty_grid_is_exit_2(tmp_path, capsys):
    doc = {**BASE,
           "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0},
           "fieldmap": {"nx": 0}}
    path = _write_config(tmp_path, doc)
    assert main(["fieldmap", "--config", path, "--out", str(tmp_path)]) == 2
    assert "nx" in capsys.readouterr().err


def test_cmd_fieldmap_requires_coil(tmp_path, capsys):
    path = _write_config(tmp_path, BASE)
    assert main(["fieldmap", "--config", path, "--out", str(tmp_path)]) == 2
    assert "coil" in capsys.readouterr().err


def test_cmd_protocol_opt(tmp_path):
    doc = {**BASE,
           "protocol": {"scenario": "hold-only",
                        "mass_range_kg": [1e-14, 1e-12],
                        "Bprime_range_T_per_m": [0.2, 2.0],
                        "grid_shape": [8, 8], "refine": False}}
    path = _write_config(tmp_path, doc)
    assert main(["protocol-opt", "--config", path, "--out", str(tmp_path)]) == 0
    surface = (tmp_path / "protocol_surface.csv").read_text().splitlines()
    assert surface[0] == "m_kg,Bprime_T_per_m,t_total_s,t_hold_s," \
        "period_s,delta_phi_bd_rad,d_min_m"
    assert len(surface) == 1 + 64
    summary = json.loads((tmp_path / "protocol_opt.json").read_text())
    assert summary["t_min_s"] > 0.0


def test_cmd_sensitivity_small(tmp_path):
    doc = {**BASE,
           "nanodiamond": {"mass_kg": 5.6e-14},
           "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0},
           "integrator": {"rel_tol": 1e-8, "abs_tol_pos_m": 1e-15,
                          "abs_tol_vel_m_per_s": 1e-15},
           "sensitivity": {"radius_m": 5e-7, "theta_values_rad": [0.7853],
                           "phi_values_rad": [0.7853],
                           "delta_values_rad": [0.0, 0.2],
                           "n_flip": 20, "n_samples": 40}}
    path = _write_config(tmp_path, doc)
    assert main(["sensitivity", "--config", path, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sensitivity_summary.json").read_text())
    assert len(summary["starts"]) == 1
    assert summary["delta_scan"][0]["deviation"] == 0.0
    csv_files = list(tmp_path.glob("sensitivity_start*_spin*.csv"))
    assert len(csv_files) == 2
    header = csv_files[0].read_text().splitlines()[0]
    assert header == "t_s,x_m,y_m,z_m,vx_mps,vy_mps,vz_mps,spin"


def test_cmd_sensitivity_coil_without_current_exits_2(tmp_path, capsys):
    # zero central gradient: rejected at the coil's current, before any
    # division by it
    path = _write_config(tmp_path, {**BASE, "coil": {"mmf_At": 0.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sensitivity", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error: $.coil.mmf_At: " in capsys.readouterr().err


def test_cmd_sensitivity_reversed_current_is_the_same_trap(tmp_path):
    # J_xx < 0 on a reversed pair: the trap frequency follows |J_xx|, and
    # the delta scan, which compares spin +1 rows, sees the same deviations
    summaries = {}
    for mmf in (564.0, -564.0):
        path = _write_config(tmp_path, {
            "version": 1, "nanodiamond": {"mass_kg": 5.6e-14},
            "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": mmf},
            "sensitivity": {"theta_values_rad": [0.5], "phi_values_rad": [0.5],
                            "delta_values_rad": [0.0, 0.6], "n_samples": 50}})
        out = tmp_path / f"out{mmf:+g}"
        assert main(["sensitivity", "--config", path, "--out", str(out)]) == 0
        summaries[mmf] = json.loads(
            (out / "sensitivity_summary.json").read_text())
    for key in ("omega_rad_per_s", "period_s", "delta_scan"):
        assert summaries[-564.0][key] == summaries[564.0][key]


def test_cmd_protocol_opt_full_cycle(tmp_path):
    doc = {**BASE,
           "protocol": {"scenario": "full-cycle",
                        "mass_range_kg": [1e-14, 1e-12],
                        "Bprime_range_T_per_m": [0.3, 1.0],
                        "grid_shape": [6, 6], "refine": False}}
    path = _write_config(tmp_path, doc)
    assert main(["protocol-opt", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "protocol_surface.csv").read_text().splitlines()[1:]
    phases = [float(r.split(",")[5]) for r in rows]
    assert all(p > 0.0 for p in phases)  # sweep phase recorded per cell


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("section, codes, text", [
    # the central gradient is 1e-303 T/m: its stiffness underflows to zero,
    # and the trajectory engine refuses a source with no harmonic centre
    ({"coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 1e-300}},
     (3,), "numerical failure: the trap stiffness at the coil centre is not "
           "a positive normal number"),
    # the spin force drives the particle 1e279 m out: the field overflows
    ({"nanodiamond": {"mass_kg": 1e-300},
      "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0}},
     (2, 3), ""),
], ids=["section0", "section1"])
def test_sensitivity_absurd_magnitudes_exit_promptly(tmp_path, capsys,
                                                     section, codes, text):
    path = _write_config(tmp_path, {"version": 1, **section})
    out = tmp_path / "out"
    with _time_limit(5.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sensitivity", "--config", path, "--out", str(out)])
    assert code in codes
    err = capsys.readouterr().err
    assert text in err and "Warning" not in err


@pytest.mark.parametrize("mass", [1e-30, 1e-22])
def test_sensitivity_particle_the_pair_cannot_trap_exits_3(tmp_path, capsys,
                                                          mass):
    # the branch offset c / omega_x^2 scales as 1 / m: at these masses the
    # harmonic reference from the origin reaches past the 3 cm pair's loop
    # planes at +-15 mm, where the pair no longer confines along x
    path = _write_config(tmp_path, {
        "version": 1, "nanodiamond": {"mass_kg": mass},
        "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0}})
    out = tmp_path / "out"
    with _time_limit(5.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sensitivity", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "loop plane" in err
    assert not out.exists()


@pytest.mark.parametrize("verb, section", [
    ("dd", {"field": {"B0_T": 1e300},
            "dd": {"n_samples": 8, "n_values": [1, 2, 3]}}),
    ("derive", {"field": {"B0_T": 1e300}}),
    ("fieldmap", {"coil": {"mmf_At": 1e308}}),
    ("sensitivity", {"coil": {"mmf_At": 1e308}}),
    ("fieldmap", {"coil": {}, "fieldmap": {"x_min_m": -1e300,
                                          "x_max_m": 1e300}}),
])
def test_non_finite_artifact_exits_3(tmp_path, capsys, verb, section):
    # B0 = 1e300 T is a finite setting whose phases and frequencies are not;
    # at 1e308 At the default pair's field overflows, and J_xx(0) is NaN
    # (the near-axis series multiplies an exact 0 by an overflowed factor);
    # at x = 1e300 m the distances to the loops overflow, and the elliptic
    # modulus is NaN: one numerical failure line, no warning, and no file
    path = _write_config(tmp_path, {"version": 1, **section})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure")
    assert "Warning" not in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("coil", [{"radius_m": 1e300},
                                  {"separation_m": 1e300}],
                         ids=["radius", "separation"])
@pytest.mark.parametrize("verb", ["fieldmap", "sensitivity"])
def test_coil_whose_size_overflows_exits_2(tmp_path, capsys, coil, verb):
    # the kernel squares each loop's radius and its distance from the
    # points near the centre: a coil whose squares overflow is refused at
    # $.coil before anything is computed (it exited 3, or 2 naming no key)
    path = _write_config(tmp_path, {"version": 1, "coil": coil})
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: $.coil: loop radius r_c and "
                            "position x_c must square to finite numbers\n")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("verb", sorted(_COMMANDS))
def test_diameter_whose_volume_rounds_to_zero_exits_2(tmp_path, capsys, verb):
    # (pi / 6) 1e-360 m^3 rounds to 0: every verb refuses the particle at
    # $.nanodiamond before it computes anything
    path = _write_config(tmp_path, {
        "version": 1, "nanodiamond": {"diameter_m": 1e-120}, "coil": {}})
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: $.nanodiamond: nanodiamond volume "
                            "must be > 0\n")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("verb", sorted(_COMMANDS))
def test_mass_that_rounds_to_zero_exits_2(tmp_path, capsys, verb):
    # the volume (pi / 6) 1e-30 m^3 is fine, but times 1e-300 kg/m^3 the
    # mass underflows to 0, by which the trap divides: every verb refuses
    # the particle at $.nanodiamond before it computes anything
    path = _write_config(tmp_path, {
        "version": 1,
        "nanodiamond": {"diameter_m": 1e-10, "density_kg_per_m3": 1e-300},
        "coil": {}})
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: $.nanodiamond: nanodiamond mass "
                            "must be > 0\n")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("nanodiamond, quantity", [
    ({"mass_kg": 1e308}, "volume"),
    ({"mass_kg": 5.6e-14, "density_kg_per_m3": 5e-324}, "volume"),
    ({"diameter_m": 1e100, "density_kg_per_m3": 1e300}, "mass"),
    ({"diameter_m": 1e300}, "volume"),  # diameter**3 overflows
], ids=["heavy", "rarefied", "dense", "huge"])
@pytest.mark.parametrize("verb", sorted(_COMMANDS))
def test_particle_whose_size_overflows_exits_2(tmp_path, capsys, nanodiamond,
                                               quantity, verb):
    # the diameter from the mass, or the mass from the volume, overflows to
    # inf: every verb refuses the particle at $.nanodiamond before it
    # computes anything (dd once cast the NaN flip index of an infinite
    # period to an integer and raised IndexError)
    path = _write_config(tmp_path, {"version": 1, "nanodiamond": nanodiamond,
                                    "coil": {}})
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: $.nanodiamond: nanodiamond "
                            f"{quantity} must be finite\n")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("rel_tol, sensitivity, ok", [
    (1e-16, {}, False),
    (5e-14, {}, False),           # 18 rows divide it below 100 eps
    (5e-14, {"theta_values_rad": [0.5], "phi_values_rad": [0.5]}, True),
], ids=["alone", "stack", "small_stack"])
def test_rel_tol_below_the_stepper_floor_exits_2(tmp_path, capsys, rel_tol,
                                                 sensitivity, ok):
    doc = {**BASE, "integrator": {"rel_tol": rel_tol},
           "sensitivity": sensitivity}
    if ok:
        assert parse_config(doc).integrator.rel_tol == rel_tol
        return
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["derive", "--config", path, "--out", str(out)]) == 2
    assert "$.integrator.rel_tol" in capsys.readouterr().err
    assert not out.exists()


def test_derive_huge_particle_keeps_casimir_polder_finite(tmp_path):
    # V / m is taken before squaring, so neither V^2 nor m^2 overflows
    path = _write_config(tmp_path, {"version": 1,
                                    "nanodiamond": {"mass_kg": 1e200}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["derive", "--config", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "derive.json").read_text())
    assert report["delta_cp_m"] == pytest.approx(casimir_polder_separation(
        NanodiamondParams.from_mass(1e-14)), rel=1e-12)


#: A small scenario every verb renders quickly: the base of the mutations.
FUZZ_BASE = {
    "version": 1,
    "nanodiamond": {"mass_kg": 5.6e-14},
    "field": {"B0_T": 5e-4, "Bprime_T_per_m": 1000.0},
    "dd": {"n_values": [4], "n_samples": 16},
    "protocol": {"scenario": "full-cycle", "mass_range_kg": [1e-14, 1e-12],
                 "Bprime_range_T_per_m": [0.2, 2.0], "grid_shape": [4, 4]},
    "coil": {"radius_m": 0.03, "separation_m": 0.03, "mmf_At": 564.0},
    "integrator": {"rel_tol": 1e-8, "abs_tol_pos_m": 1e-15,
                   "abs_tol_vel_m_per_s": 1e-15},
    "trajectory": {"B0_values_T": [0.0, 5e-4], "n_samples": 8},
    "ramsey": {"theta_g_values_rad": [0.0, 0.3]},
    "fieldmap": {"nx": 3, "ny": 2},
    "sensitivity": {"radius_m": 5e-7, "theta_values_rad": [0.7853],
                    "phi_values_rad": [0.7853], "delta_values_rad": [0.0, 0.2],
                    "n_flip": 4, "n_samples": 16},
}
_FUZZ_SECTIONS = [(s,) for s in FUZZ_BASE]
_FUZZ_KEYS = [(s, k) for s, v in FUZZ_BASE.items() if isinstance(v, dict)
              for k in v]
#: Wrong types, empty containers, and huge, tiny and signed magnitudes,
#: among them a count far over every cap and an integer past the float range.
_FUZZ_VALUES = [None, True, "x", [], {}, [0.1, "x"], [[1.0]], [1e300], 0, -1,
                0.0, 3, 2.5, -1e300, 1e300, 1e-300, 5e-324, 10**15, 10**400]

#: A section or a key inside one, as a path from the root: half of each.
_fuzz_path = st.one_of(st.sampled_from(_FUZZ_SECTIONS),
                       st.sampled_from(_FUZZ_KEYS))
_mutation = st.one_of(
    st.tuples(st.just("set"), _fuzz_path, st.sampled_from(_FUZZ_VALUES)),
    st.tuples(st.just("delete"), _fuzz_path, st.none()),
    st.tuples(st.just("move"), st.sampled_from(_FUZZ_KEYS),
              st.sampled_from([()] + _FUZZ_SECTIONS)),
)


def _mutate(doc, mutation):
    """Apply one mutation: set a value, delete a key, or move a key (with
    its value) into another section or to the root."""
    op, path, arg = mutation
    parent = doc
    for key in path[:-1]:
        if not isinstance(parent.get(key), dict):
            return
        parent = parent[key]
    if path[-1] not in parent:
        return
    if op == "set":
        parent[path[-1]] = arg
    elif op == "delete":
        del parent[path[-1]]
    else:
        target = doc
        for key in arg:
            if not isinstance(target.get(key), dict):
                return
            target = target[key]
        target[path[-1]] = parent.pop(path[-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_mutation, min_size=1, max_size=3))
def test_mutated_config_never_raises(mutations):
    # every verb exits 0, 2 (config error) or 3 (numerical failure) on a
    # mutated scenario: never a traceback, and never without end
    doc = copy.deepcopy(FUZZ_BASE)
    for mutation in mutations:
        _mutate(doc, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/scenario.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for verb in sorted(_COMMANDS):
            with _time_limit(60.0), contextlib.redirect_stdout(None), \
                    contextlib.redirect_stderr(None):
                code = main([verb, "--config", path, "--out", f"{tmp}/{verb}"])
            assert code in (0, 2, 3), (verb, doc)


#: A one-key sweep of extreme values over the particle's keys, on the small
#: scenario of the mutations with the particle given by its mass or by its
#: diameter.
_EXTREMES = [0, -0.0, -1, 5e-324, 2.2e-308, 1e-300, 1e-30, 1e-15, 0.5, 3,
             1e30, 1e300, 1e308]
_PARTICLE_KEYS = [(given, key) for given in ("mass_kg", "diameter_m")
                  for key in (given, "density_kg_per_m3", "chi_magnitude",
                              "epsilon")]


@pytest.mark.parametrize("given, key", _PARTICLE_KEYS,
                         ids=[f"{g}-{k}" for g, k in _PARTICLE_KEYS])
def test_extreme_particle_values_never_raise(tmp_path, given, key):
    # every verb exits 0, 2 (config error) or 3 (numerical failure) at
    # every extreme value of every particle key: never a traceback
    base = copy.deepcopy(FUZZ_BASE)
    base["nanodiamond"] = {given: 5.6e-14 if given == "mass_kg" else 3.1e-7}
    for value in _EXTREMES:
        doc = copy.deepcopy(base)
        doc["nanodiamond"][key] = value
        path = _write_config(tmp_path, doc)
        for verb in sorted(_COMMANDS):
            with _time_limit(60.0), contextlib.redirect_stdout(None), \
                    contextlib.redirect_stderr(None):
                code = main([verb, "--config", path,
                             "--out", str(tmp_path / verb)])
            assert code in (0, 2, 3), (verb, key, value)


def test_float_format_round_trips(tmp_path):
    floats = [0.1, 1.0 / 3.0, 2.83e-29, -1.5637e-4, 188.36231831088523,
              0.0, -0.0, 5e-324, 1e308]
    ints = np.resize([4, -1], len(floats))
    path = tmp_path / "t.csv"
    write_csv(str(path), ("x", "n"), (np.array(floats), ints))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n"
    cells = [line.split(",") for line in lines[1:]]
    back = [float(x) for x, _ in cells]
    assert back == floats
    assert [math.copysign(1.0, x) for x in back] == [
        math.copysign(1.0, x) for x in floats]
    assert [n for _, n in cells] == ["4", "-1"] * 4 + ["4"]
    with pytest.raises(ValueError):
        write_csv(str(path), ("x", "n"), (np.array(floats), ints[:-1]))


def test_protocol_point_repeats_derive_for_the_same_particle(tmp_path):
    # a seeded sweep of particles and gradients: the protocol point's
    # period and distance are derive's period and d_min bit for bit, both
    # from |chi| V of the particle (the point once formed |chi| m / rho,
    # which differs in the last bit for some particles)
    rng = np.random.default_rng(20261021)
    for i in range(40):
        doc = {"version": 1,
               "nanodiamond": {"diameter_m": float(10 ** rng.uniform(-8, -6)),
                               "density_kg_per_m3": float(rng.uniform(2e3, 5e3)),
                               "chi_magnitude": float(10 ** rng.uniform(-6, -4))},
               "field": {"B0_T": 0.0,
                         "Bprime_T_per_m": float(10 ** rng.uniform(-1, 3))},
               "protocol": {"grid_shape": [4, 4], "refine": False}}
        path = _write_config(tmp_path, doc)
        out = tmp_path / f"out{i}"
        assert main(["derive", "--config", path, "--out", str(out)]) == 0
        assert main(["protocol-opt", "--config", path, "--out", str(out)]) == 0
        derived = json.loads((out / "derive.json").read_text())
        point = json.loads((out / "protocol_point.json").read_text())
        assert point["period_s"] == derived["period_s"], doc
        assert point["d_used_m"] == derived["d_min_m"], doc
