import math

import numpy as np
import pytest

from ndspin import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    UniformGradientField,
    TrajectoryState,
    derive_oscillator,
    equilibrium_positions,
    integrate,
    max_separation,
)
from conftest import random_valid_config


def test_constants_positive_and_frozen():
    assert CONSTANTS.hbar > 0 and CONSTANTS.mu0 > 0 and CONSTANTS.G > 0
    with pytest.raises(Exception):
        CONSTANTS.hbar = 1.0
    with pytest.raises(ValueError):
        CONSTANTS.with_overrides(gamma_e=-1.0)


def test_mass_volume_sphere():
    nd = NanodiamondParams(diameter=250e-9, density=3550.0)
    assert nd.volume == pytest.approx(math.pi / 6.0 * (250e-9) ** 3, rel=1e-15)
    assert nd.mass == pytest.approx(3550.0 * nd.volume, rel=1e-15)
    nd2 = NanodiamondParams.from_mass(1e-12)
    assert nd2.mass == pytest.approx(1e-12, rel=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        NanodiamondParams(diameter=0.0)
    with pytest.raises(ValueError):
        NanodiamondParams(chi_magnitude=-1e-5)
    with pytest.raises(ValueError):
        NanodiamondParams(epsilon=0.9)
    with pytest.raises(ValueError):
        NanodiamondParams.from_mass(0.0)
    with pytest.raises(ValueError):
        FieldConfig(Bprime=0.0)
    with pytest.raises(ValueError):
        FieldConfig(Bprime=1.0, tilt_theta_g=math.pi / 2.0)


def test_omega_fig2_value_and_rk45_period(nd_250nm, field_fig2):
    osc = derive_oscillator(nd_250nm, field_fig2)
    # frozen closed-form evaluation for d=250 nm, B' = 1e3 T/m
    assert osc.omega == pytest.approx(70.22507824308454, rel=1e-12)
    # oracle: the adaptive integration of the classical dynamics must return
    # to the start after one period
    src = UniformGradientField(field_fig2.Bprime)
    period = osc.period
    start = TrajectoryState(t=0.0, q=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0))
    traj = integrate(start, 1, src, nd_250nm, None, period,
                     t_eval=[period / 2.0, period])
    x0_plus, _ = equilibrium_positions(nd_250nm, field_fig2)
    assert traj.x[0] == pytest.approx(2.0 * x0_plus, rel=1e-3)
    assert abs(traj.x[1]) < 1e-3 * abs(2.0 * x0_plus)


def test_omega_yellow_optimum_point(nd_1pg, field_yellow):
    osc = derive_oscillator(nd_1pg, field_yellow)
    assert osc.omega == pytest.approx(3.33e-2, rel=2e-3)
    assert osc.period == pytest.approx(189.0, rel=5e-3)
    assert osc.period == pytest.approx(188.36231831088523, rel=1e-12)


def test_zero_tilt_means_zero_gravity_coupling(nd_250nm):
    osc = derive_oscillator(nd_250nm, FieldConfig(Bprime=1e3, tilt_theta_g=0.0))
    assert osc.lambda_g == 0.0


def test_zpf_product_is_half_hbar(rng):
    for _ in range(50):
        nd, fld = random_valid_config(rng)
        osc = derive_oscillator(nd, fld)
        assert osc.omega > 0 and osc.x_zpf > 0 and osc.p_zpf > 0
        assert osc.x_zpf * osc.p_zpf == pytest.approx(CONSTANTS.hbar / 2.0,
                                                      rel=1e-14)


def test_coupling_identities_exact(rng):
    for _ in range(50):
        nd, fld = random_valid_config(rng)
        osc = derive_oscillator(nd, fld)
        # identities hold to representation accuracy of the larger addend
        ulp = 8.0 * np.spacing(max(abs(osc.lambda0), abs(osc.lam),
                                   abs(osc.lambda_g)))
        assert abs(osc.lambda_j(1) - osc.lambda_j(-1) - 2.0 * osc.lam) <= ulp


def test_equilibria_symmetric_without_bias(nd_250nm, field_fig2):
    x0p, x0m = equilibrium_positions(nd_250nm, field_fig2)
    assert x0p + x0m == 0.0
    assert x0p < 0.0 < x0m


def test_bias_shifts_both_equilibria_identically(nd_250nm):
    x0p_0, x0m_0 = equilibrium_positions(nd_250nm, FieldConfig(Bprime=1e3))
    x0p_b, x0m_b = equilibrium_positions(
        nd_250nm, FieldConfig(B0=5e-4, Bprime=1e3))
    shift_p = x0p_b - x0p_0
    shift_m = x0m_b - x0m_0
    assert shift_p == pytest.approx(-5e-4 / 1e3, rel=1e-12)
    assert shift_p == pytest.approx(shift_m, rel=1e-12)


def test_equilibrium_gap_is_half_max_separation(nd_1pg, field_yellow):
    x0p, x0m = equilibrium_positions(nd_1pg, field_yellow)
    dx = max_separation(nd_1pg, field_yellow)
    assert abs(x0p - x0m) == pytest.approx(dx / 2.0, rel=1e-14)
    assert abs(x0p - x0m) == pytest.approx(1.6e-8, rel=2e-2)


def test_max_separation_value_and_scaling(nd_1pg, field_yellow):
    dx = max_separation(nd_1pg, field_yellow)
    assert dx == pytest.approx(3.2e-8, rel=1e-2)
    doubled = max_separation(nd_1pg, FieldConfig(Bprime=2 * 0.475))
    assert doubled == pytest.approx(dx / 2.0, rel=1e-14)


def test_max_separation_bias_independent(nd_250nm):
    values = [max_separation(nd_250nm, FieldConfig(B0=b0, Bprime=1e3))
              for b0 in (0.0, 5e-4, 3e-3, -1e-3)]
    assert all(v == values[0] for v in values)
