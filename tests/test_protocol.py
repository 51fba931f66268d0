import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ndspin import (
    CONSTANTS,
    FieldConfig,
    NanodiamondParams,
    ProtocolConfig,
    Scenario,
    TwoQubitState,
    casimir_polder_separation,
    delta_phi_bd,
    delta_phi_rate,
    derive_oscillator,
    final_state,
    gravity_phases,
    max_separation,
    min_distance,
    negativity,
    optimize_tmin,
    protocol_duration,
)
from ndspin import protocol
from ndspin.protocol import ProtocolResult, SURFACE_CSV_HEADER, partial_transpose
from ndspin.tables import write_csv
from test_config_cli import _time_limit


def _cp_bisection_oracle(nd):
    """Independent route to Delta_CP: bisect V_CP(x) = 0.1 V_G(x) with the
    retarded two-sphere potential V_CP = 23 hbar c alpha^2 / (4 pi x^7)."""
    R3 = 3.0 * nd.volume / (4.0 * math.pi)
    alpha = R3 * (nd.epsilon - 1.0) / (nd.epsilon + 2.0)
    m = nd.mass

    def excess(x):
        v_cp = 23.0 * CONSTANTS.hbar * CONSTANTS.c * alpha**2 / (
            4.0 * math.pi * x**7)
        v_g = CONSTANTS.G * m * m / x
        return v_cp - 0.1 * v_g

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_casimir_polder_against_bisection_oracle(nd_1pg):
    got = casimir_polder_separation(nd_1pg)
    want = _cp_bisection_oracle(nd_1pg)
    # the published prefactor 2.01413 is the 6-digit rounding of
    # 2 (2070/(64 pi^3))^{1/6}; the bisection oracle carries the exact one
    assert got == pytest.approx(want, rel=1e-5)
    assert got == pytest.approx(1.56e-4, rel=1e-2)
    exact_prefactor = (2070.0 / (64.0 * math.pi**3)) ** (1.0 / 6.0)
    assert got / want == pytest.approx((2.01413 / 2.0) / exact_prefactor,
                                       rel=1e-10)


def test_casimir_polder_mass_invariant_at_fixed_density():
    # V^2/m^2 is rho^-2 at fixed density, so the threshold distance carries
    # no mass dependence at all
    a = casimir_polder_separation(NanodiamondParams.from_mass(1e-14))
    b = casimir_polder_separation(NanodiamondParams.from_mass(8e-14))
    assert a == pytest.approx(b, rel=1e-12)


def test_casimir_polder_vanishes_for_unit_permittivity():
    nd = NanodiamondParams.from_mass(1e-12, epsilon=1.0 + 1e-9)
    assert casimir_polder_separation(nd) < 1e-3 * casimir_polder_separation(
        NanodiamondParams.from_mass(1e-12))


def test_min_distance_structure(nd_1pg, field_yellow):
    d = min_distance(nd_1pg, field_yellow)
    assert d == pytest.approx(
        max_separation(nd_1pg, field_yellow)
        + casimir_polder_separation(nd_1pg), rel=1e-14)
    assert d == pytest.approx(1.56e-4, rel=1e-2)
    # gradient -> large kills the separation term
    tight = min_distance(nd_1pg, FieldConfig(Bprime=1e6))
    assert tight == pytest.approx(casimir_polder_separation(nd_1pg), rel=1e-4)
    # strictly decreasing in the gradient
    values = [min_distance(nd_1pg, FieldConfig(Bprime=b))
              for b in (0.2, 0.5, 1.0, 5.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rate_properties(nd_1pg):
    m = nd_1pg.mass
    assert delta_phi_rate(1e-4, 0.0, m) == 0.0
    for s in (1e-8, 1e-6, 5e-5, 9.9e-5):
        assert delta_phi_rate(1e-4, s, m) > 0.0
    with pytest.raises(ValueError):
        delta_phi_rate(1e-4, 1e-4, m)
    with pytest.raises(ValueError):
        delta_phi_rate(1e-4, -1e-6, m)


def test_rate_reference_point(nd_1pg):
    rate = delta_phi_rate(1.56e-4, 3.2e-8, 1e-12)
    assert rate == pytest.approx(3.4e-4, rel=3e-2)
    hold = 0.01 * math.pi / rate
    assert 92.0 <= hold <= 95.0


def test_hold_only_protocol_time(nd_1pg, field_yellow):
    res = protocol_duration(nd_1pg, field_yellow, ProtocolConfig())
    assert res.t_total == pytest.approx(283.0, rel=5e-3)
    assert res.delta_phi_bd == 0.0
    assert res.delta_phi_hold == pytest.approx(0.01 * math.pi, rel=1e-12)
    assert res.t_total == res.period + res.t_hold


def test_full_cycle_never_slower(nd_1pg, rng):
    for _ in range(10):
        m = float(rng.uniform(1e-15, 1e-12))
        bp = float(rng.uniform(0.2, 5.0))
        nd = NanodiamondParams.from_mass(m)
        fld = FieldConfig(Bprime=bp)
        hold = protocol_duration(nd, fld, ProtocolConfig())
        full = protocol_duration(
            nd, fld, ProtocolConfig(scenario=Scenario.FULL_CYCLE))
        assert full.t_total <= hold.t_total
        assert full.delta_phi_bd >= 0.0


def test_overshoot_keeps_one_period(nd_1pg, field_yellow):
    cfg = ProtocolConfig(target_delta_phi=1e-6,
                         scenario=Scenario.FULL_CYCLE)
    res = protocol_duration(nd_1pg, field_yellow, cfg)
    assert res.t_hold == 0.0
    assert res.t_total == res.period
    assert res.delta_phi_bd > 1e-6


def test_manual_distance_validation(nd_1pg, field_yellow):
    d_min = min_distance(nd_1pg, field_yellow)
    with pytest.raises(ValueError):
        protocol_duration(nd_1pg, field_yellow,
                          ProtocolConfig(distance=0.5 * d_min))
    with pytest.warns(UserWarning):
        res = protocol_duration(
            nd_1pg, field_yellow,
            ProtocolConfig(distance=0.5 * d_min, allow_close=True))
    assert res.d_used == pytest.approx(0.5 * d_min)
    far = protocol_duration(nd_1pg, field_yellow,
                            ProtocolConfig(distance=2.0 * d_min))
    assert far.t_total > protocol_duration(
        nd_1pg, field_yellow, ProtocolConfig()).t_total


def test_auto_distance_is_optimal(nd_1pg, field_yellow):
    d_min = min_distance(nd_1pg, field_yellow)
    auto = protocol_duration(nd_1pg, field_yellow, ProtocolConfig())
    for scale in np.linspace(1.0, 10.0, 19):
        manual = protocol_duration(
            nd_1pg, field_yellow, ProtocolConfig(distance=scale * d_min))
        assert manual.t_total >= auto.t_total * (1.0 - 1e-12)


def test_quadrature_against_trapezoid_oracle(field_yellow):
    nd = NanodiamondParams.from_mass(5.6e-14)
    fld = FieldConfig(Bprime=0.663)
    d = min_distance(nd, fld)
    got = delta_phi_bd(nd, fld, d)
    osc = derive_oscillator(nd, fld)
    dx = max_separation(nd, fld)
    t = np.linspace(0.0, osc.period, 1_000_001)
    s = 0.5 * dx * (1.0 - np.cos(osc.omega * t))
    rate = (CONSTANTS.G * nd.mass**2 / CONSTANTS.hbar) * (
        2.0 * s * s / (d * (d * d - s * s)))
    want = float(np.trapezoid(rate, t))
    assert got == pytest.approx(want, rel=1e-8)


def test_protocol_time_continuity_in_parameters():
    cfg = ProtocolConfig(scenario=Scenario.FULL_CYCLE)
    masses = np.logspace(-14, -12.8, 40)
    times = [protocol_duration(NanodiamondParams.from_mass(m),
                               FieldConfig(Bprime=0.5), cfg).t_total
             for m in masses]
    jumps = np.abs(np.diff(times))
    assert np.max(jumps) < 0.05 * np.max(np.abs(times))


def test_optimizer_hold_only_small_grid():
    res = optimize_tmin(Scenario.HOLD_ONLY, (1e-17, 1e-12), (0.1, 10.0),
                        grid_shape=(24, 24))
    assert res.t_min == pytest.approx(283.0, rel=0.05)
    assert 0.475 / 1.5 <= res.Bprime_opt <= 0.475 * 1.5
    assert res.on_mass_boundary
    assert not res.on_gradient_boundary
    assert res.grid.t_total.shape == (24, 24)


def test_optimizer_rejects_bad_ranges():
    with pytest.raises(ValueError):
        optimize_tmin(Scenario.HOLD_ONLY, (1e-12, 1e-17), (0.1, 10.0))
    with pytest.raises(ValueError):
        optimize_tmin(Scenario.HOLD_ONLY, (1e-17, 1e-12), (-1.0, 10.0))


def test_optimizer_deterministic():
    a = optimize_tmin(Scenario.HOLD_ONLY, (1e-14, 1e-12), (0.2, 2.0),
                      grid_shape=(10, 10))
    b = optimize_tmin(Scenario.HOLD_ONLY, (1e-14, 1e-12), (0.2, 2.0),
                      grid_shape=(10, 10))
    assert a.m_opt == b.m_opt and a.Bprime_opt == b.Bprime_opt
    assert a.t_min == b.t_min


def _assert_grid_matches_protocol_duration(res, cfg):
    """Every cell of the array surface against the scalar entry point."""
    for i, m in enumerate(res.m_values.tolist()):
        nd = NanodiamondParams.from_mass(m)
        for j, bp in enumerate(res.b_values.tolist()):
            want = protocol_duration(nd, FieldConfig(Bprime=bp), cfg)
            for f in dataclasses.fields(ProtocolResult):
                assert getattr(res.grid, f.name)[i, j] == pytest.approx(
                    getattr(want, f.name), rel=1e-12, abs=0.0), (f.name, i, j)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_optimizer_grid_matches_protocol_duration(scenario):
    res = optimize_tmin(scenario, (1e-14, 1e-12), (0.2, 2.0),
                        grid_shape=(8, 7), refine=False)
    assert res.m_values.shape == (8,) and res.b_values.shape == (7,)
    for f in dataclasses.fields(ProtocolResult):
        assert getattr(res.grid, f.name).shape == (8, 7), f.name
    _assert_grid_matches_protocol_duration(res, ProtocolConfig(scenario=scenario))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_hold_time_does_not_increase_with_mass(scenario):
    # README: at fixed B' the hold time is weakly decreasing in mass
    res = optimize_tmin(scenario, (1e-17, 1e-12), (0.1, 10.0),
                        grid_shape=(200, 25), refine=False)
    assert np.max(np.diff(res.grid.t_hold, axis=0)) <= 0.0


def test_surface_views_match_arrays():
    # the benchmark reads ``surface`` and ``surface_rows()``: both are views
    # of the arrays, cell for cell in row-major (m, B') order
    res = optimize_tmin(Scenario.FULL_CYCLE, (1e-14, 1e-12), (0.2, 2.0),
                        grid_shape=(5, 4), refine=False)
    surface, rows = res.surface, res.surface_rows()
    assert len(surface) == len(rows) == 20
    for k, ((m, bp, cell), row) in enumerate(zip(surface, rows)):
        i, j = divmod(k, 4)
        assert m == res.m_values[i] and bp == res.b_values[j]
        for f in dataclasses.fields(ProtocolResult):
            assert getattr(cell, f.name) == getattr(res.grid, f.name)[i, j]
        g = res.grid
        assert row == (m, bp, g.t_total[i, j], g.t_hold[i, j], g.period[i, j],
                       g.delta_phi_bd[i, j], g.d_used[i, j])
    assert all(type(v) is float for row in rows for v in row)
    assert [tuple(c) for c in zip(*rows)] == [
        tuple(c.tolist()) for c in res.surface_columns()]
    assert res == res and res != dataclasses.replace(res)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(list(Scenario)),
       mass=st.tuples(st.floats(-17.0, -13.0), st.floats(0.5, 3.0)),
       gradient=st.tuples(st.floats(-1.5, 1.0), st.floats(0.3, 2.0)),
       shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
       target=st.floats(1e-3, 1.0))
def test_surface_properties(scenario, mass, gradient, shape, target):
    # log10 of the lower end and the span in decades of each range
    m_range = (10 ** mass[0], 10 ** (mass[0] + mass[1]))
    b_range = (10 ** gradient[0], 10 ** (gradient[0] + gradient[1]))
    res = optimize_tmin(scenario, m_range, b_range, grid_shape=shape,
                        refine=False, target_delta_phi=target)
    _assert_grid_matches_protocol_duration(
        res, ProtocolConfig(target_delta_phi=target, scenario=scenario))
    assert (res.m_values[0], res.m_values[-1]) == m_range
    assert (res.b_values[0], res.b_values[-1]) == b_range
    g = res.grid
    assert np.all(np.diff(g.t_hold, axis=0) <= 0.0)
    assert np.all(g.delta_phi_bd + g.delta_phi_hold >= target * (1.0 - 1e-12))
    assert np.all(g.t_total >= g.period)


def test_full_cycle_optimum_reaches_the_mass_cap():
    # the total falls monotonically in mass, so the refined optimum must sit
    # exactly on the upper end of the mass range, not inside it
    res = optimize_tmin(Scenario.FULL_CYCLE, (1e-17, 1e-12), (0.1, 10.0),
                        grid_shape=(60, 60))
    assert res.m_opt == 1e-12
    assert res.on_mass_boundary
    # where the sweep alone meets the target, t_total is one period at every
    # mass, equal up to rounding: on any grid, with or without the zoom, the
    # optimizer must still pick the cap instead of the smallest of the
    # near-tied masses
    for n_m in range(2, 31):
        for n_b in (2, 5, 16, 17, 30):
            other = optimize_tmin(Scenario.FULL_CYCLE, (1e-17, 1e-12),
                                  (0.1, 10.0), grid_shape=(n_m, n_b))
            assert other.m_opt == 1e-12, (n_m, n_b)
            assert other.t_min == pytest.approx(res.t_min, rel=1e-5), (n_m, n_b)
            scan = optimize_tmin(Scenario.FULL_CYCLE, (1e-17, 1e-12),
                                 (0.1, 10.0), grid_shape=(n_m, n_b),
                                 refine=False)
            assert scan.m_opt == 1e-12, (n_m, n_b)
            assert scan.on_mass_boundary, (n_m, n_b)


def _golden_min(f, a, b, xtol):
    """Deterministic golden-section minimizer on [a, b]; returns the best of
    the final bracket's ends and inner points, so a minimizer on an end of
    [a, b] is found exactly."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return min((f(a), a), (f1, x1), (f2, x2), (f(b), b))[1]


def _golden_refine(scenario, mass_range, bprime_range, grid_shape, template,
                   target, refine_rel_tol=1e-3):
    """Independent refinement of the optimum: alternating golden-section
    searches of log m and log B' over the box of the best scanned cell's
    neighbours, one scalar ``protocol_duration`` per point, for at most 12
    passes; the result replaces that cell if it is no slower.  Returns the
    optimum time."""
    coarse = optimize_tmin(scenario, mass_range, bprime_range,
                           grid_shape=grid_shape, refine=False,
                           template=template, target_delta_phi=target)
    cfg = ProtocolConfig(target_delta_phi=target, scenario=scenario)
    n_m, n_b = grid_shape
    i, j = divmod(int(np.argmin(coarse.grid.t_total)), n_b)
    lo_m = math.log10(coarse.m_values[max(i - 1, 0)])
    hi_m = math.log10(coarse.m_values[min(i + 1, n_m - 1)])
    lo_b = math.log10(coarse.b_values[max(j - 1, 0)])
    hi_b = math.log10(coarse.b_values[min(j + 1, n_b - 1)])
    xtol = math.log10(1.0 + refine_rel_tol) / 4.0

    def t_total(log_m, log_b):
        nd = NanodiamondParams.from_mass(
            10**log_m, density=template.density,
            chi_magnitude=template.chi_magnitude, epsilon=template.epsilon)
        return protocol_duration(nd, FieldConfig(B0=0.0, Bprime=10**log_b),
                                 cfg).t_total

    log_m = math.log10(coarse.m_values[i])
    log_b = math.log10(coarse.b_values[j])
    for _ in range(12):
        new_m = _golden_min(lambda lm: t_total(lm, log_b), lo_m, hi_m, xtol)
        new_b = _golden_min(lambda lb: t_total(new_m, lb), lo_b, hi_b, xtol)
        moved = max(abs(new_m - log_m), abs(new_b - log_b))
        log_m, log_b = new_m, new_b
        if moved < xtol:
            break
    return min(coarse.t_min, t_total(log_m, log_b))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(list(Scenario)),
       mass=st.tuples(st.floats(-17.0, -13.0), st.floats(0.5, 3.0)),
       gradient=st.tuples(st.floats(-1.5, 1.0), st.floats(0.3, 2.0)),
       shape=st.tuples(st.integers(2, 30), st.integers(2, 30)),
       target=st.floats(1e-3, 1.0),
       material=st.tuples(st.floats(3000.0, 4000.0), st.floats(1.5e-5, 2.5e-5),
                          st.floats(3.0, 8.0)))
def test_zoom_against_golden_section_oracle(scenario, mass, gradient, shape,
                                            target, material):
    m_range = (10 ** mass[0], 10 ** (mass[0] + mass[1]))
    b_range = (10 ** gradient[0], 10 ** (gradient[0] + gradient[1]))
    density, chi, eps = material
    template = NanodiamondParams(density=density, chi_magnitude=chi,
                                 epsilon=eps)
    res = optimize_tmin(scenario, m_range, b_range, grid_shape=shape,
                        template=template, target_delta_phi=target)
    oracle = _golden_refine(scenario, m_range, b_range, shape, template, target)
    assert res.t_min <= oracle * (1.0 + 1e-3)
    assert m_range[0] <= res.m_opt <= m_range[1]
    assert b_range[0] <= res.Bprime_opt <= b_range[1]
    nd = NanodiamondParams.from_mass(res.m_opt, density=density,
                                     chi_magnitude=chi, epsilon=eps)
    want = protocol_duration(nd, FieldConfig(Bprime=res.Bprime_opt),
                             ProtocolConfig(target_delta_phi=target,
                                            scenario=scenario))
    assert res.t_min == pytest.approx(want.t_total, rel=1e-12, abs=0.0)
    assert res.t_min <= np.min(res.grid.t_total)


def test_refinement_work_count(monkeypatch):
    # the coarse scan and every zoom pass are one array call each; the
    # golden-section refinement this replaced made 86
    calls = []
    timing = protocol._timing

    def counted(*args):
        calls.append(args)
        return timing(*args)

    monkeypatch.setattr(protocol, "_timing", counted)
    optimize_tmin(Scenario.FULL_CYCLE, (1e-17, 1e-12), (0.1, 10.0),
                  grid_shape=(16, 16))
    assert len(calls) == 6


def test_zoom_ends_within_eight_passes_on_any_float_range(monkeypatch):
    # a bowl in (log m, log B') whose minimum lies inside the widest ranges;
    # a two-point scan leaves the whole range as the first zoom box
    grids = []

    def bowl(m, bprime, *args):
        t = 1.0 + (np.log(m) - math.log(27.0)) ** 2 + (
            np.log(bprime) - math.log(8e-4)) ** 2
        return ProtocolResult(*([t] * len(dataclasses.fields(ProtocolResult))))

    def counted(*args):
        grids.append(args)
        return bowl(*args)

    monkeypatch.setattr(protocol, "_timing", counted)
    monkeypatch.setattr(protocol, "protocol_duration",
                        lambda nd, fld, cfg, constants: bowl(nd.mass, fld.Bprime))
    widest = (5e-324, 1.7e308)
    res = optimize_tmin(Scenario.HOLD_ONLY, widest, widest, grid_shape=(2, 2))
    assert len(grids) <= 1 + 8
    assert res.m_opt == pytest.approx(27.0, rel=1e-3)
    assert res.Bprime_opt == pytest.approx(8e-4, rel=1e-3)


def test_optimizer_rejects_a_non_finite_grid():
    # G m^2/hbar overflows at these masses, so no cell has a finite time
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                  match="not finite"):
        optimize_tmin(Scenario.HOLD_ONLY, (1e200, 1e300), (0.1, 10.0),
                      grid_shape=(4, 4))


@pytest.mark.parametrize("m_lo", [1e-200, 1e-32, 5e-324])
def test_optimizer_rejects_a_light_mass_range(m_lo):
    # dx_max grows as 1/m: below about 1e-32 kg it outgrows Delta_CP by
    # 2^53, d_min = dx_max + Delta_CP rounds onto dx_max, and the rate's
    # separation check would refuse the Auto distance as a config error
    with pytest.raises(ArithmeticError, match="rounds onto dx_max for m in "
                       + re.escape(f"[{m_lo:.6e}, 1.000000e-12] kg")):
        optimize_tmin(Scenario.HOLD_ONLY, (m_lo, 1e-12), (0.1, 10.0),
                      grid_shape=(4, 4))


def test_light_particle_has_no_min_distance(field_yellow):
    # at 1e-40 kg dx_max is about 2e24 Delta_CP, so d_min rounds onto it:
    # min_distance refuses, and protocol_duration with it, whether the
    # distance is Auto or given (nothing can be checked against d_min)
    nd = NanodiamondParams.from_mass(1e-40)
    dx = max_separation(nd, field_yellow)
    assert dx + casimir_polder_separation(nd) == dx
    with pytest.raises(ArithmeticError, match=re.escape(
            f"rounds onto dx_max = {dx:.6e} m for m = 1.000000e-40 kg")):
        min_distance(nd, field_yellow)
    for distance in (None, 2.0 * dx):
        with pytest.raises(ArithmeticError, match="rounds onto dx_max"):
            protocol_duration(nd, field_yellow,
                              ProtocolConfig(distance=distance))
    # ten times heavier, dx_max is about 2e15 Delta_CP < 2^53: d_min
    # still exceeds dx_max
    light = NanodiamondParams.from_mass(1e-31)
    assert min_distance(light, field_yellow) > max_separation(light,
                                                              field_yellow)


@pytest.mark.parametrize("n", [2, 16, 17, 60])
@pytest.mark.parametrize("lo, hi", [
    (1e-17, 1e-12), (0.1, 10.0), (5e-324, 1.7e308),
    # adjacent doubles: a tiny step, and one whose logs are equal
    (1.0, math.nextafter(1.0, 2.0)), (5e-324, 1e-323),
    (1e300, math.nextafter(1e300, math.inf)),
])
def test_axis_equals_logspace_with_its_ends_set(lo, hi, n):
    want = np.logspace(math.log10(lo), math.log10(hi), n)
    want[0], want[-1] = lo, hi
    got = protocol._axis(lo, hi, n)
    assert got.dtype == want.dtype and got.shape == (n,)
    assert got.tobytes() == want.tobytes()


def _reference_optimize(scenario, mass_range, bprime_range, grid_shape,
                        refine, template, target):
    """The zoom loop as first written, with ``np.logspace`` axes, an
    ``np.isfinite`` check, the ``flatnonzero`` tie rule and a grid made by
    ``np.broadcast_to``; returns the fields of its OptimizeResult."""
    cfg = ProtocolConfig(target_delta_phi=target, scenario=scenario)
    names = [f.name for f in dataclasses.fields(ProtocolResult)]
    n_m, n_b = grid_shape
    box_end = (1.0 + protocol._REL_TOL) ** 0.25
    (m_lo, m_hi), (b_lo, b_hi) = mass_range, bprime_range
    scan = None
    with np.errstate(all="ignore"):
        while True:
            m_axis = np.logspace(math.log10(m_lo), math.log10(m_hi), n_m)
            b_axis = np.logspace(math.log10(b_lo), math.log10(b_hi), n_b)
            m_axis[0], m_axis[-1] = m_lo, m_hi
            b_axis[0], b_axis[-1] = b_lo, b_hi
            cells = protocol._timing(
                m_axis[:, None], b_axis[None, :],
                template.chi_magnitude * m_axis[:, None] / template.density,
                cfg, CONSTANTS, casimir_polder_separation(template))
            t_total = cells.t_total
            assert np.all(np.isfinite(t_total))
            near = np.flatnonzero(
                t_total <= t_total.min() * (1.0 + protocol._TIE_REL))
            i, j = divmod(int(near[-1]), n_b)
            if scan is None:
                scan = m_axis, b_axis, cells, i, j
            m_lo, m_hi = m_axis[max(i - 1, 0)], m_axis[min(i + 1, n_m - 1)]
            b_lo, b_hi = b_axis[max(j - 1, 0)], b_axis[min(j + 1, n_b - 1)]
            if not refine or (m_hi <= m_lo * box_end
                              and b_hi <= b_lo * box_end):
                break
            n_m = n_b = protocol._ZOOM
    m_values, b_values, cells, i_s, j_s = scan
    grid = ProtocolResult(*(np.broadcast_to(getattr(cells, name),
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
        cand = protocol_duration(nd, FieldConfig(B0=0.0, Bprime=b_ref), cfg)
        if cand.t_total <= res_best.t_total:
            m_best, b_best, res_best = m_ref, b_ref, cand
    return dict(m_opt=m_best, Bprime_opt=b_best, t_min=res_best.t_total,
                result=res_best,
                on_mass_boundary=not m_values[1] < m_best < m_values[-2],
                on_gradient_boundary=not b_values[1] < b_best < b_values[-2],
                m_values=m_values, b_values=b_values, grid=grid)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(list(Scenario)),
       mass=st.tuples(st.floats(-17.0, -13.0), st.floats(0.5, 3.0)),
       gradient=st.tuples(st.floats(-1.5, 1.0), st.floats(0.3, 2.0)),
       shape=st.tuples(st.integers(2, 30), st.integers(2, 30)),
       target=st.floats(1e-3, 1.0),
       material=st.tuples(st.floats(3000.0, 4000.0), st.floats(1.5e-5, 2.5e-5),
                          st.floats(3.0, 8.0)))
def test_zoom_matches_reference_loop_bit_for_bit(scenario, mass, gradient,
                                                 shape, target, material):
    m_range = (10 ** mass[0], 10 ** (mass[0] + mass[1]))
    b_range = (10 ** gradient[0], 10 ** (gradient[0] + gradient[1]))
    density, chi, eps = material
    template = NanodiamondParams(density=density, chi_magnitude=chi,
                                 epsilon=eps)
    for refine in (True, False):
        res = optimize_tmin(scenario, m_range, b_range, grid_shape=shape,
                            refine=refine, template=template,
                            target_delta_phi=target)
        want = _reference_optimize(scenario, m_range, b_range, shape, refine,
                                   template, target)
        for name in ("m_opt", "Bprime_opt", "t_min"):
            assert _bits(getattr(res, name)) == _bits(want[name]), name
        assert type(res.result.t_total) is float
        assert _bits(dataclasses.astuple(res.result)) == _bits(
            dataclasses.astuple(want["result"]))
        assert res.on_mass_boundary is want["on_mass_boundary"]
        assert res.on_gradient_boundary is want["on_gradient_boundary"]
        assert res.m_values.tobytes() == want["m_values"].tobytes()
        assert res.b_values.tobytes() == want["b_values"].tobytes()
        for f in dataclasses.fields(ProtocolResult):
            got, ref = getattr(res.grid, f.name), getattr(want["grid"], f.name)
            assert got.shape == ref.shape == shape, f.name
            assert got.tobytes() == ref.tobytes(), f.name
            assert not got.flags.writeable, f.name


@pytest.mark.parametrize("shape", [(1, 16), (16, 1), (0, 16), (-3, 16)])
def test_optimizer_rejects_grids_below_two_points(shape):
    with _time_limit(20.0), pytest.raises(ValueError, match="grid_shape"):
        optimize_tmin(Scenario.FULL_CYCLE, (1e-17, 1e-12), (0.1, 10.0),
                      grid_shape=shape)


def test_surface_csv_schema(tmp_path):
    res = optimize_tmin(Scenario.HOLD_ONLY, (1e-14, 1e-12), (0.2, 2.0),
                        grid_shape=(6, 6), refine=False)
    path = tmp_path / "surface.csv"
    write_csv(str(path), SURFACE_CSV_HEADER, res.surface_columns())
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SURFACE_CSV_HEADER)
    assert len(lines) == 1 + 36
    first = lines[1].split(",")
    assert float(first[0]) == 1e-14


def test_final_state_product_and_norm():
    st = final_state(0.0, 0.0)
    assert all(a == 0.5 for a in st.amplitudes)
    st2 = final_state(0.7, -1.2)
    assert sum(abs(a) ** 2 for a in st2.amplitudes) == pytest.approx(1.0,
                                                                     abs=1e-15)
    assert negativity(st) < 1e-12


def _hermitian_eigvals_mpmath(H):
    """Independent dense eigendecomposition (pure-python, high precision)."""
    import mpmath as mp

    with mp.workdps(40):
        A = mp.matrix([[mp.mpc(v) for v in row] for row in np.asarray(H)])
        E, _ = mp.eighe(A)
        return np.sort(np.array([float(E[i].real) for i in range(4)]))


def _full_cycle_mpmath(m, bprime):
    """Independent 50-digit route to the full-cycle phase bookkeeping of a
    diamond sphere of mass m at gradient B'.

    omega, dx_max and d = dx_max + Delta_CP are rebuilt from the constants
    and the material defaults, and the sweep phase uses the closed form of
    the rate integral along s(t) = dx (1 - cos omega t)/2: with
    int_0^{2 pi} du/(d - a + a cos u) = 2 pi/sqrt(d (d - 2a)),

        dphi_bd = (G m^2/hbar)(2 pi/omega)
                  [1/sqrt(d(d-dx)) + 1/sqrt(d(d+dx)) - 2/d].

    Returns (dphi_bd, period 2 pi/omega, hold rate at s = dx_max) as mpf.
    """
    import mpmath as mp

    with mp.workdps(50):
        nd = NanodiamondParams()
        m, bprime = mp.mpf(m), mp.mpf(bprime)
        hbar, mu0, c, G, gamma_e = (mp.mpf(v) for v in (
            CONSTANTS.hbar, CONSTANTS.mu0, CONSTANTS.c, CONSTANTS.G,
            CONSTANTS.gamma_e))
        rho, chi, eps = (mp.mpf(v) for v in (nd.density, nd.chi_magnitude,
                                             nd.epsilon))
        V = m / rho
        omega = bprime * mp.sqrt(chi / (mu0 * rho))
        dx = 4 * hbar * gamma_e * mu0 / (chi * V * bprime)
        delta_cp = mp.mpf("2.01413") / 2 * (
            c * hbar * V**2 * (eps - 1) ** 2 / (G * m**2 * (2 + eps) ** 2)
        ) ** (mp.mpf(1) / 6)
        d = dx + delta_cp
        k = G * m**2 / hbar
        period = 2 * mp.pi / omega
        sweep = k * period * (1 / mp.sqrt(d * (d - dx))
                              + 1 / mp.sqrt(d * (d + dx)) - 2 / d)
        hold_rate = k * (1 / (d - dx) + 1 / (d + dx) - 2 / d)
        return sweep, period, hold_rate


def _full_cycle_gradient_mpmath(m, target):
    """Gradient B'* at which the full-cycle sweep phase of mass m alone meets
    ``target``, and the period there.  The phase falls monotonically in B',
    so a bracketing solver on log10 B' over [0.1, 10] T/m finds it at 50
    digits.  Returns floats."""
    import mpmath as mp

    with mp.workdps(50):
        log_b = mp.findroot(
            lambda u: _full_cycle_mpmath(m, mp.power(10, u))[0] - mp.mpf(target),
            (mp.mpf(-1), mp.mpf(1)), solver="illinois")
        b_star = mp.power(10, log_b)
        return float(b_star), float(_full_cycle_mpmath(m, b_star)[1])


@pytest.mark.parametrize("m, bprime", [(5.6e-14, 0.663), (1e-12, 0.4312)])
def test_sweep_phase_against_closed_form_oracle(m, bprime):
    nd = NanodiamondParams.from_mass(m)
    fld = FieldConfig(Bprime=bprime)
    d = min_distance(nd, fld)
    sweep, period, hold_rate = _full_cycle_mpmath(m, bprime)
    assert delta_phi_bd(nd, fld, d) == pytest.approx(float(sweep), rel=1e-9)
    assert derive_oscillator(nd, fld).period == pytest.approx(float(period),
                                                              rel=1e-12)
    assert delta_phi_rate(d, max_separation(nd, fld), m) == pytest.approx(
        float(hold_rate), rel=1e-12)


def test_full_cycle_reference_point_figures():
    # the README's numbers at the reference full-cycle point (5.6e-14 kg,
    # 0.663 T/m): one sweep gives 0.273 of the target, so a 134.6 s hold
    # follows the 134.95 s period
    target = 0.01 * math.pi
    sweep, _, _ = _full_cycle_mpmath(5.6e-14, 0.663)
    assert float(sweep) / target == pytest.approx(0.273, abs=5e-4)
    res = protocol_duration(NanodiamondParams.from_mass(5.6e-14),
                            FieldConfig(Bprime=0.663),
                            ProtocolConfig(scenario=Scenario.FULL_CYCLE))
    assert res.delta_phi_bd / target == pytest.approx(0.273, abs=5e-4)
    assert res.t_hold == pytest.approx(134.6, abs=0.05)
    assert res.t_total == pytest.approx(269.6, abs=0.05)


def test_negativity_against_independent_eigensolver():
    st = final_state(0.005 * math.pi, -0.005 * math.pi)
    rho_pt = partial_transpose(st.density_matrix())
    eig = _hermitian_eigvals_mpmath(rho_pt)
    oracle = float(-np.sum(eig[eig < 0.0]))
    assert oracle > 0.0
    assert negativity(st) == pytest.approx(oracle, abs=1e-10)
    # and the pure-state closed form
    assert negativity(st) == pytest.approx(abs(math.sin(0.005 * math.pi)) / 2.0,
                                           abs=1e-12)


def test_negativity_known_values():
    bell = TwoQubitState(amplitudes=(1.0 / math.sqrt(2.0), 0.0, 0.0,
                                     1.0 / math.sqrt(2.0)))
    assert negativity(bell) == pytest.approx(0.5, abs=1e-12)
    assert negativity(final_state(0.3, -0.3)) > 0.0


def test_negativity_monotone_in_phase_gap():
    values = []
    for dphi in np.linspace(0.05, math.pi, 24):
        values.append(negativity(final_state(-dphi / 2.0, dphi / 2.0)))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_negativity_vanishes_only_at_multiples_of_two_pi():
    for k in (0, 1, 2):
        dphi = 2.0 * math.pi * k
        assert negativity(final_state(-dphi / 2.0, dphi / 2.0)) < 1e-12
    for dphi in (1e-3, math.pi / 2.0, 2.0 * math.pi - 1e-3,
                 2.0 * math.pi + 1e-3):
        assert negativity(final_state(-dphi / 2.0, dphi / 2.0)) > 1e-5


def test_negativity_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        negativity([0.5, 0.5, 0.5, 0.6])
    with pytest.raises(ValueError):
        TwoQubitState(amplitudes=(1.0, 1.0, 0.0, 0.0))


def test_gravity_phase_bookkeeping(nd_1pg, field_yellow):
    res = protocol_duration(nd_1pg, field_yellow, ProtocolConfig())
    pp, pm = gravity_phases(res.d_used, res.dx_max, nd_1pg.mass, res.t_hold)
    assert pm - pp == pytest.approx(0.01 * math.pi, rel=1e-8)
    st = final_state(pp, pm)
    assert negativity(st) > 0.0
    with pytest.raises(ValueError):
        gravity_phases(1e-4, 2e-4, nd_1pg.mass, 1.0)
