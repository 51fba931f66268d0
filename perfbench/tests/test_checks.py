"""Each independent check passes on today's output and rejects a perturbed
copy of it."""

import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from workloads import Artifacts, DesignScan, TrapDynamics


@pytest.fixture(scope="module")
def design():
    wl = DesignScan(seed=11, workdir="unused")
    case = wl.round_cases(0)[0]
    return wl, case, wl.run(case)


def test_design_scan_accepts_todays_output(design):
    wl, case, out = design
    assert wl.check(case, out) == []


def test_design_scan_rejects_perturbed_t_min(design):
    wl, case, out = design
    bad = dataclasses.replace(out, t_min=out.t_min * (1.0 + 1e-6))
    assert any("closed form" in p for p in wl.check(case, bad))


def test_design_scan_rejects_optimum_above_a_cell(design):
    wl, case, out = design
    worst = max(r.t_total for _m, _b, r in out.surface)
    assert wl.check(case, dataclasses.replace(out, t_min=worst * 1.01))


@pytest.fixture(scope="module")
def trap():
    wl = TrapDynamics(seed=5, workdir="unused")
    case = wl.round_cases(0)[0]
    return wl, case, wl.run(case)


def test_trap_dynamics_accepts_todays_output(trap):
    wl, case, out = trap
    assert wl.check(case, out, deep=True) == []


def test_trap_dynamics_rejects_moved_sample(trap):
    wl, case, out = trap
    omega, records, deltas = out
    records = copy.deepcopy(records)
    rec = records[0]
    for spin in (1, -1):  # whichever spin the check re-integrates
        tr = rec["trajectories"][spin]
        tol = wl.tolerance(case[1], float(np.max(np.abs(tr.q))))
        tr.q[len(tr.t) // 2, 0] += 10.0 * tol
    problems = wl.check(case, (omega, records, deltas), deep=True)
    assert any("off DOP853" in p for p in problems)


def test_trap_dynamics_rejects_perturbed_delta_deviation(trap):
    wl, case, out = trap
    omega, records, deltas = out
    deltas = copy.deepcopy(deltas)
    deltas[1]["deviation"] *= 1.01
    problems = wl.check(case, (omega, records, deltas), deep=True)
    assert any("delta deviation" in p for p in problems)


@pytest.fixture()
def artifacts(tmp_path):
    wl = Artifacts(seed=7, workdir=str(tmp_path))
    case = wl.round_cases(0)[0]
    return wl, case, wl.run(case)


def _edit_csv(path, row, col, factor):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) * factor, ".17g")
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_artifacts_accept_todays_output(artifacts):
    wl, case, out_dir = artifacts
    assert wl.check(case, out_dir) == []


def test_artifacts_reject_edited_trajectory_value(artifacts):
    wl, case, out_dir = artifacts
    _edit_csv(os.path.join(out_dir, "trajectory.csv"), 150, 2, 1.0 + 1e-6)
    assert any(p.startswith("trajectory") for p in wl.check(case, out_dir))


def test_artifacts_reject_edited_axis_field(artifacts):
    wl, case, out_dir = artifacts
    path = os.path.join(out_dir, "fieldmap.csv")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    row = 1 + int(np.flatnonzero(np.abs(rows[:, 1]) <= 1e-15)[3])
    _edit_csv(path, row, 3, 1.0 + 1e-6)
    assert any("on-axis Bx" in p for p in wl.check(case, out_dir))


def test_artifacts_reject_edited_protocol_optimum(artifacts):
    wl, case, out_dir = artifacts
    path = os.path.join(out_dir, "protocol_opt.json")
    with open(path) as fh:
        opt = json.load(fh)
    opt["t_min_s"] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(opt, fh)
    assert any("protocol-opt t_min" in p for p in wl.check(case, out_dir))


def test_artifacts_renderings_are_byte_identical(artifacts):
    wl, case, out_dir = artifacts
    first = wl.fingerprint(out_dir)
    assert wl.fingerprint(wl.run(case)) == first
    _edit_csv(os.path.join(out_dir, "dd_phase_space.csv"), 10, 3, 1.0 + 1e-12)
    assert wl.fingerprint(out_dir) != first
