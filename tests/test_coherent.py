import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from ndspin import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    branch_phase_difference,
    branch_state,
    classical_position,
    dd_expectation,
    derive_oscillator,
    equilibrium_positions,
    expectation_xp,
    max_separation,
    ramsey_phase,
)
import ndspin.coherent
from conftest import random_valid_config


def test_rest_start_and_period_closure_positions(nd_250nm, field_fig2):
    osc = derive_oscillator(nd_250nm, field_fig2)
    for spin in (1, -1):
        assert classical_position(0.0, spin, nd_250nm, field_fig2) == 0.0
        assert abs(classical_position(osc.period, spin, nd_250nm, field_fig2)) \
            < 1e-20


def test_branch_state_initial_conditions(nd_250nm, field_biased):
    for spin in (1, -1, 0):
        st = branch_state(0.0, spin, nd_250nm, field_biased)
        assert st.alpha == 0.0
        assert st.theta == 0.0


def test_amplitude_circle_bound(nd_250nm, field_biased, rng):
    osc = derive_oscillator(nd_250nm, field_biased)
    bound = 2.0 * max(abs(osc.lambda_j(1)), abs(osc.lambda_j(-1))) / osc.omega
    for t in rng.uniform(0.0, 3.0 * osc.period, 200):
        for spin in (1, -1):
            st = branch_state(float(t), spin, nd_250nm, field_biased)
            assert abs(st.alpha) <= bound * (1.0 + 1e-12)


def test_interferometer_closure_at_one_period(rng):
    # both the reduced form and the direct (relative) comparison
    for _ in range(50):
        nd, fld = random_valid_config(rng)
        osc = derive_oscillator(nd, fld)
        assert abs(branch_phase_difference(osc.period, nd, fld)) < 1e-9
        bp = branch_state(osc.period, 1, nd, fld)
        bm = branch_state(osc.period, -1, nd, fld)
        assert abs(bp.theta - bm.theta) < 1e-9 * abs(bp.theta)


def test_antisymmetric_amplitudes_without_bias(nd_250nm, field_fig2):
    osc = derive_oscillator(nd_250nm, field_fig2)
    t = math.pi / osc.omega
    ap = branch_state(t, 1, nd_250nm, field_fig2).alpha
    am = branch_state(t, -1, nd_250nm, field_fig2).alpha
    assert ap == pytest.approx(-am, rel=1e-12)


def test_coherent_state_normalization(nd_250nm, field_fig2):
    # Fock-basis norm of |alpha>: exp(-|a|^2) sum |a|^{2n}/n! == 1
    osc = derive_oscillator(nd_250nm, field_fig2)
    st = branch_state(0.31 * osc.period, 1, nd_250nm, field_fig2)
    a2 = min(abs(st.alpha) ** 2, 30.0)  # truncation-friendly, same identity
    total = 0.0
    term = math.exp(-a2)
    for n in range(1, 400):
        total += term
        term *= a2 / n
    assert total == pytest.approx(1.0, abs=1e-12)


def test_classical_quantum_equivalence(rng):
    for _ in range(25):
        nd, fld = random_valid_config(rng)
        osc = derive_oscillator(nd, fld)
        dx = max_separation(nd, fld)
        times = np.linspace(0.0, osc.period, 90)
        for spin in (1, -1):
            for t in times:
                st = branch_state(float(t), spin, nd, fld, osc=osc)
                xq = 2.0 * osc.x_zpf * st.alpha.real
                xc = classical_position(float(t), spin, nd, fld)
                assert abs(xq - xc) < 1e-12 * dx


def test_amplitude_periodicity(nd_1pg, field_yellow):
    osc = derive_oscillator(nd_1pg, field_yellow)
    for frac in (0.13, 0.5, 0.77):
        a1 = branch_state(frac * osc.period, 1, nd_1pg, field_yellow).alpha
        a2 = branch_state((1.0 + frac) * osc.period, 1, nd_1pg,
                          field_yellow).alpha
        assert abs(a1 - a2) < 1e-12


def _one_period(n_samples, nd, fld):
    return np.linspace(0.0, derive_oscillator(nd, fld).period, n_samples)


def test_phase_space_point_symmetry_without_bias(nd_250nm, field_fig2):
    times = _one_period(128, nd_250nm, field_fig2)
    cp = dd_expectation(times, 1, nd_250nm, field_fig2)
    cm = dd_expectation(times, -1, nd_250nm, field_fig2)
    x_scale, p_scale = np.max(np.abs(cp), axis=0)
    assert np.max(np.abs(cp[:, 0] + cm[:, 0])) <= 1e-12 * x_scale
    assert np.max(np.abs(cp[:, 1] + cm[:, 1])) <= 1e-12 * p_scale


def test_phase_space_centers_shift_identically_with_bias(nd_250nm):
    def center(b0, spin):
        fld = FieldConfig(B0=b0, Bprime=1e3)
        curve = dd_expectation(_one_period(4096, nd_250nm, fld), spin,
                               nd_250nm, fld)
        return float(np.mean(curve[:, 0]))

    shift_p = center(5e-4, 1) - center(0.0, 1)
    shift_m = center(5e-4, -1) - center(0.0, -1)
    assert shift_p == pytest.approx(-5e-4 / 1e3, rel=1e-3)
    assert shift_p == pytest.approx(shift_m, rel=1e-6)


def test_separation_profile_matches_branch_difference(nd_250nm):
    # one-period family: bias shifts the curves but not their separation
    osc = derive_oscillator(nd_250nm, FieldConfig(Bprime=1e3))
    times = np.linspace(0.0, osc.period, 65)  # odd count puts T/2 on the grid
    seps = []
    for b0 in (0.0, 1e-3, 3e-3):
        fld = FieldConfig(B0=b0, Bprime=1e3)
        sep = [classical_position(float(t), 1, nd_250nm, fld)
               - classical_position(float(t), -1, nd_250nm, fld)
               for t in times]
        seps.append(sep)
    for other in seps[1:]:
        assert np.allclose(other, seps[0], rtol=1e-12, atol=0.0)
    assert np.max(np.abs(seps[0])) == pytest.approx(
        max_separation(nd_250nm, FieldConfig(Bprime=1e3)), rel=1e-12)


def test_ramsey_zero_tilt_and_sine_scaling(nd_250nm, field_fig2):
    assert ramsey_phase(0.0, nd_250nm, field_fig2) == 0.0
    v1 = ramsey_phase(math.pi / 6.0, nd_250nm, field_fig2)
    v2 = ramsey_phase(math.pi / 3.0, nd_250nm, field_fig2)
    assert v1 / v2 == pytest.approx(
        math.sin(math.pi / 6.0) / math.sin(math.pi / 3.0), rel=1e-12)
    assert v1 < 0.0  # sign convention of the closing form


def _ramsey_oracle_mpmath(theta_g, nd, fld):
    """High-precision quadrature of the tilted phase-accumulation rates over
    one period, then subtraction; independent of the reduced closed form."""
    with mp.workdps(50):
        hbar = mp.mpf(CONSTANTS.hbar)
        m = mp.mpf(nd.density) * mp.pi / 6 * mp.mpf(nd.diameter) ** 3
        V = mp.pi / 6 * mp.mpf(nd.diameter) ** 3
        omega = mp.mpf(fld.Bprime) * mp.sqrt(
            mp.mpf(nd.chi_magnitude) * V / (mp.mpf(CONSTANTS.mu0) * m))
        x_zpf = mp.sqrt(hbar / (2 * m * omega))
        lam = mp.mpf(CONSTANTS.gamma_e) * mp.mpf(fld.Bprime) * x_zpf
        lam0 = mp.mpf(fld.B0) / mp.mpf(fld.Bprime) * mp.sqrt(m * omega**3 / (2 * hbar))
        lam_g = m * mp.mpf(CONSTANTS.g_earth) * x_zpf / hbar * mp.sin(mp.mpf(theta_g))
        t1 = 2 * mp.pi / omega

        def rate(s, t):
            Lam = lam0 + lam_g + s * lam
            Phi = s * mp.mpf(CONSTANTS.gamma_e) * mp.mpf(fld.B0) \
                + mp.mpf(CONSTANTS.D_zfs) - Lam**2 / omega
            return Phi + (Lam / omega) ** 2 * omega * mp.cos(omega * t)

        vp = mp.quad(lambda t: rate(1, t), [0, t1])
        vm = mp.quad(lambda t: rate(-1, t), [0, t1])
        return float(vp - vm)


def test_ramsey_value_against_quadrature_oracle(nd_250nm, field_fig2):
    got = ramsey_phase(math.pi / 6.0, nd_250nm, field_fig2)
    want = _ramsey_oracle_mpmath(math.pi / 6.0, nd_250nm, field_fig2)
    assert abs(got) == pytest.approx(abs(want), rel=1e-10)


def _skewed_lambda_g(monkeypatch):
    """Make derive_oscillator return lambda_g off by 1e-9 relative, so the
    two Ramsey routes disagree."""
    derive = ndspin.coherent.derive_oscillator

    def skewed(*args, **kwargs):
        osc = derive(*args, **kwargs)
        return dataclasses.replace(osc, lambda_g=osc.lambda_g * (1.0 + 1e-9))

    monkeypatch.setattr(ndspin.coherent, "derive_oscillator", skewed)


def test_ramsey_identity_failure_is_arithmetic_error(nd_250nm, field_fig2,
                                                     monkeypatch):
    _skewed_lambda_g(monkeypatch)
    with pytest.raises(ArithmeticError, match="dual-path identity"):
        ramsey_phase(math.pi / 6.0, nd_250nm, field_fig2)


def test_ramsey_dual_formula_identity(rng):
    # the implementation asserts the identity internally; exercise it and
    # re-check externally on random inputs
    for _ in range(40):
        nd, fld = random_valid_config(rng)
        theta = float(rng.uniform(1e-4, math.pi / 2.0 - 1e-4))
        got = ramsey_phase(theta, nd, fld)
        osc = derive_oscillator(
            nd, FieldConfig(B0=fld.B0, Bprime=fld.Bprime, tilt_theta_g=theta))
        direct = -8.0 * math.pi * osc.lambda_g * osc.lam / osc.omega**2
        ratio = CONSTANTS.mu0 * nd.mass / (nd.chi_magnitude * nd.volume)
        closed = (-4.0 * math.pi * ratio**1.5 * CONSTANTS.gamma_e
                  * CONSTANTS.g_earth * math.sin(theta) / fld.Bprime**2)
        assert got == direct
        assert abs(direct - closed) <= 1e-12 * abs(closed)


def test_momentum_sign_matches_classical_velocity(nd_250nm, field_fig2):
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, _ = equilibrium_positions(nd_250nm, field_fig2)
    t = 0.21 * osc.period
    st = branch_state(t, 1, nd_250nm, field_fig2)
    _, p = expectation_xp(st, osc)
    v_classical = x0p * osc.omega * math.sin(osc.omega * t)
    assert p == pytest.approx(nd_250nm.mass * v_classical, rel=1e-10)
