import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ndspin import (
    CONSTANTS,
    CoilAssembly,
    FieldConfig,
    FlipSchedule,
    IntegrationError,
    IntegratorConfig,
    NanodiamondParams,
    TrajectoryState,
    UniformGradientField,
    delta_scan,
    derive_oscillator,
    equilibrium_positions,
    field_and_jacobian,
    force,
    harmonic_centre,
    integrate,
    magnetic_moment,
    max_separation,
    sensitivity_scan,
)
import ndspin.coils
import ndspin.trajectory
from ndspin.coils import LoopSource, _RHO_SERIES_FACTOR, _elliptic_btuw
from ndspin.cli import main
from ndspin.config import parse_config
from ndspin.trajectory import (_CAP_PER_PERIOD, _Reference, _Residual,
                               _chi_coefficient, _flip_segments, _flip_times,
                               _integrate_stack, _spin_moment, _with_slack)


def _solve_ivp_oracle(q0, spin, source, nd, omega_dd, delta, t_end, cfg,
                      t_eval):
    """Test-only oracle for one trajectory: scipy's DOP853, a stepper
    unlike the engine's quadrature, on this trajectory alone, restarted at its
    own spin and current flips, at the configured tolerances with no step
    cap, with the force J mu built from the source's B and J, both negated
    while the current is reversed.  Returns the positions at ``t_eval``,
    shape (n, 3); a flip segment that holds no sample only carries the
    state on."""
    coef = -nd.chi_magnitude * nd.volume / CONSTANTS.mu0
    spin_flips = []
    if omega_dd is not None:
        k = 1
        while k * 2.0 * math.pi / omega_dd < t_end:
            spin_flips.append(k * 2.0 * math.pi / omega_dd)
            k += 1
    lag = 0.0 if omega_dd is None else delta / omega_dd
    field_flips = [t + lag for t in spin_flips if t + lag < t_end]
    edges = sorted({0.0, t_end, *spin_flips, *field_flips})
    atol = [cfg.abs_tol_pos] * 3 + [cfg.abs_tol_vel] * 3
    y = np.array([*q0, 0.0, 0.0, 0.0])
    out = np.empty((len(t_eval), 3))
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        s = spin * (-1) ** sum(t <= mid for t in spin_flips)
        fs = (-1.0) ** sum(t <= mid for t in field_flips)

        def rhs(_t, y, s=s, fs=fs):
            B, J = field_and_jacobian(source, y[None, :3])
            B, J = fs * B[0], fs * J[0]
            mu = coef * B
            mu[0] -= s * CONSTANTS.hbar * CONSTANTS.gamma_e
            return np.concatenate((y[3:], J @ mu / nd.mass))

        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=cfg.rel_tol,
                        atol=atol, dense_output=True)
        assert sol.success
        sel = (t_eval >= a) & (t_eval <= b)
        if sel.any():
            out[sel] = sol.sol(t_eval[sel])[:3].T
        y = sol.y[:, -1]
    return out


def _oracle_bound(cfg, q):
    """Ten times the integrator's local position tolerance at the scale of
    q, for global error accumulated over the run."""
    return 10.0 * (cfg.abs_tol_pos + cfg.rel_tol * np.max(np.abs(q)))


#: The 3 cm / 564 At pair, and a 5 mm pair with the same central gradient
#: whose near-axis series zone (2.5 um) is smaller than the 5 um shell.
_COILS = {
    "3cm": (CoilAssembly.anti_helmholtz(r_c=0.03, d_c=0.03, mmf=564.0), 5e-7),
    "5mm": (CoilAssembly.anti_helmholtz(r_c=5e-3, d_c=5e-3, mmf=564.0 / 36.0),
            5e-6),
}


def _coil_period(coil, nd):
    bprime = coil.jacobian_at((0.0, 0.0, 0.0))[0, 0]
    omega = bprime * math.sqrt(nd.chi_magnitude * nd.volume
                               / (CONSTANTS.mu0 * nd.mass))
    return omega, 2.0 * math.pi / omega


def test_moment_zero_field_is_axial_spin(nd_250nm):
    mu = magnetic_moment((0.0, 0.0, 0.0), 1, nd_250nm)
    assert mu[1] == 0.0 and mu[2] == 0.0
    assert mu[0] == pytest.approx(-CONSTANTS.hbar * CONSTANTS.gamma_e, rel=1e-14)


def test_moment_flip_negates_only_axial_term(nd_250nm):
    B = (1e-5, 2e-5, -3e-5)
    up = magnetic_moment(B, 1, nd_250nm)
    dn = magnetic_moment(B, -1, nd_250nm)
    assert up[1] == dn[1] and up[2] == dn[2]
    gap = up[0] - dn[0]
    assert gap == pytest.approx(-2.0 * CONSTANTS.hbar * CONSTANTS.gamma_e,
                                rel=1e-14)
    with pytest.raises(ValueError):
        magnetic_moment(B, 2, nd_250nm)


def test_force_at_trap_center(coil_564):
    nd = NanodiamondParams.from_mass(5.6e-14)
    J = coil_564.jacobian_at((0.0, 0.0, 0.0))
    bprime = J[0, 0]
    f = force((0.0, 0.0, 0.0), 1, coil_564, nd)
    # uniform-gradient analytic limit: diamagnetic part vanishes with B = 0
    want = -CONSTANTS.hbar * CONSTANTS.gamma_e * bprime
    assert f[0] == pytest.approx(want, rel=1e-9)
    assert abs(f[1]) < 1e-9 * abs(f[0])
    assert abs(f[2]) < 1e-9 * abs(f[0])


def test_forces_differ_only_axially_on_axis(coil_564):
    nd = NanodiamondParams.from_mass(5.6e-14)
    for x in (0.0, 2e-7, -3e-7):
        fp = force((x, 0.0, 0.0), 1, coil_564, nd)
        fm = force((x, 0.0, 0.0), -1, coil_564, nd)
        assert fp[1] == fm[1] and fp[2] == fm[2]
        assert fp[0] != fm[0]


def test_spinless_force_vanishes_at_null(coil_564):
    nd = NanodiamondParams.from_mass(5.6e-14)
    fp = force((0.0, 0.0, 0.0), 1, coil_564, nd)
    fm = force((0.0, 0.0, 0.0), -1, coil_564, nd)
    # the diamagnetic parts are even in spin; they cancel at the field null
    assert np.linalg.norm(fp + fm) < 1e-9 * np.linalg.norm(fp)


def _force_points(name, rng):
    """(source, points (64, 3)) for the closed-form force check: the 3 cm
    pair inside its series zone, the 5 mm pair outside its own, and the
    uniform-gradient field."""
    if name == "uniform":
        return UniformGradientField(1.0e3), rng.uniform(-1e-6, 1e-6, (64, 3))
    coil, _r = _COILS[name]
    zone = _RHO_SERIES_FACTOR * coil.loops[0].r_c
    rho = (rng.uniform(0.0, 0.9 * zone, 64) if name == "3cm"
           else rng.uniform(2.0 * zone, 0.4 * coil.loops[0].r_c, 64))
    phi = rng.uniform(0.0, 2.0 * math.pi, 64)
    x = rng.uniform(-0.3, 0.3, 64) * 2.0 * coil.loops[0].x_c
    return coil, np.stack((x, rho * np.cos(phi), rho * np.sin(phi)), axis=1)


@pytest.mark.parametrize("field_sign", [1.0, -1.0])
@pytest.mark.parametrize("source_name", ["3cm", "5mm", "uniform"])
def test_closed_form_force_matches_jacobian_times_moment(source_name,
                                                         field_sign, rng):
    source, q = _force_points(source_name, rng)
    nd = NanodiamondParams.from_mass(5.6e-14)
    spin = rng.choice([-1, 1], len(q))
    # oracle: the reversed current negates B and J, then F = J mu
    B, J = field_and_jacobian(source, q)
    B, J = field_sign * B, field_sign * J
    mu = magnetic_moment(B, spin, nd)
    want = np.einsum("nij,nj->ni", J, mu)
    got = force(q, spin, source, nd, field_sign=field_sign)
    assert got.shape == q.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # one row at a time gives the same as the batch
    for i in (0, len(q) - 1):
        row = force(q[i], spin[i], source, nd, field_sign=field_sign)
        assert np.array_equal(row, got[i])


def test_uniform_gradient_matches_closed_form(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, x0m = equilibrium_positions(nd_250nm, field_fig2)
    t_eval = np.linspace(0.0, osc.period, 300)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol_pos=1e-18, abs_tol_vel=1e-17)
    for spin, x0 in ((1, x0p), (-1, x0m)):
        traj = integrate(TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                         spin, src, nd_250nm, None, osc.period, cfg, t_eval)
        want = x0 * (1.0 - np.cos(osc.omega * t_eval))
        assert np.max(np.abs(traj.x - want)) < 1e-6 * abs(2.0 * x0)
        assert np.all(traj.y == 0.0) and np.all(traj.z == 0.0)


def test_period_recovered_within_tolerance(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    # bracket the return-to-origin instant around one period
    t_eval = np.linspace(0.98 * osc.period, 1.02 * osc.period, 4001)
    traj = integrate(TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                     1, src, nd_250nm, None, 1.02 * osc.period,
                     IntegratorConfig(rel_tol=1e-11, abs_tol_pos=1e-18,
                                      abs_tol_vel=1e-17), t_eval)
    t_return = t_eval[np.argmin(np.abs(traj.x))]
    assert t_return == pytest.approx(osc.period, rel=1e-3)


def _effective_energy(traj, nd, bprime):
    b2 = bprime**2 * (traj.x**2 + traj.y**2 / 4.0 + traj.z**2 / 4.0)
    kinetic = 0.5 * nd.mass * np.sum(traj.v**2, axis=1)
    potential = (nd.chi_magnitude * nd.volume * b2 / (2.0 * CONSTANTS.mu0)
                 + CONSTANTS.hbar * CONSTANTS.gamma_e * traj.spin
                 * bprime * traj.x)
    return kinetic + potential


def test_energy_drift_uniform_gradient(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, _ = equilibrium_positions(nd_250nm, field_fig2)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    t_eval = np.linspace(0.0, 10.0 * osc.period, 1500)
    traj = integrate(TrajectoryState(0.0, (0.0, 1e-7, -5e-8), (0.0, 0.0, 0.0)),
                     1, src, nd_250nm, None, 10.0 * osc.period, cfg, t_eval)
    E = _effective_energy(traj, nd_250nm, field_fig2.Bprime)
    kinetic_scale = 0.5 * nd_250nm.mass * (x0p * osc.omega) ** 2
    assert np.max(np.abs(E - E[0])) < 1e-6 * kinetic_scale


def test_energy_drift_at_default_tolerances():
    # the default absolute floors only bind when the velocities clear them,
    # which smaller (faster-oscillating) particles do
    nd = NanodiamondParams(diameter=80e-9)
    fld = FieldConfig(Bprime=1e3)
    src = UniformGradientField(fld.Bprime)
    osc = derive_oscillator(nd, fld)
    x0p, _ = equilibrium_positions(nd, fld)
    t_eval = np.linspace(0.0, 10.0 * osc.period, 1500)
    traj = integrate(TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                     1, src, nd, None, 10.0 * osc.period,
                     IntegratorConfig(), t_eval)
    E = _effective_energy(traj, nd, fld.Bprime)
    kinetic_scale = 0.5 * nd.mass * (x0p * osc.omega) ** 2
    assert np.max(np.abs(E - E[0])) < 1e-6 * kinetic_scale


def test_tolerance_convergence_sanity(nd_250nm, field_fig2):
    # in the uniform field R = 0: the endpoint is the closed form, to
    # rounding, at any tolerance
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, _ = equilibrium_positions(nd_250nm, field_fig2)
    t_end = 3.3 * osc.period
    want = x0p * (1.0 - math.cos(osc.omega * t_end))

    def endpoint_error(source, nd, q0, want, rel):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol_pos=1e-18,
                               abs_tol_vel=1e-17)
        traj = integrate(TrajectoryState(0.0, q0, (0.0, 0.0, 0.0)),
                         1, source, nd, None, t_end, cfg, [t_end])
        return np.max(np.abs(traj.q[0] - want))

    for rel in (1e-6, 1e-9):
        assert endpoint_error(src, nd_250nm, (0.0, 0.0, 0.0), (want, 0.0, 0.0),
                              rel) <= 1e-13 * abs(x0p)
    # in the 5 mm coil the passes carry the anharmonic residual, and the
    # tighter tolerance, which stops them later, lands closer to a tight
    # DOP853 oracle
    coil, r = _COILS["5mm"]
    nd = NanodiamondParams.from_mass(5.6e-14)
    q0 = (0.0, r, 0.0)
    tight = IntegratorConfig(rel_tol=1e-13, abs_tol_pos=1e-20, abs_tol_vel=1e-20)
    t_end = 3.3 * _coil_period(coil, nd)[1]
    oracle = _solve_ivp_oracle(q0, 1, coil, nd, None, 0.0, t_end, tight,
                               np.array([t_end]))[0]
    coarse, fine = (endpoint_error(coil, nd, q0, oracle, rel)
                    for rel in (1e-9, 1e-12))
    assert fine < coarse


def test_flip_events_and_mirror_symmetry(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    n_flip = 16
    sched = FlipSchedule(omega_dd=n_flip * osc.omega)
    t_eval = np.linspace(0.0, osc.period, 400)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol_pos=1e-18, abs_tol_vel=1e-17)
    trajs = {s: integrate(TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                          s, src, nd_250nm, sched, osc.period, cfg, t_eval)
             for s in (1, -1)}
    assert len(trajs[1].flip_times) == n_flip - 1  # flips strictly inside
    x_scale = np.max(np.abs(trajs[1].x))
    assert np.max(np.abs(trajs[1].x + trajs[-1].x)) < 1e-9 * x_scale
    # spin labels recorded per sample
    assert set(np.unique(trajs[1].spin)) == {-1, 1}


def test_synchronized_flips_keep_dynamics(nd_250nm, field_fig2):
    # delta = 0: spin and current flip together, trajectory unchanged
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, _ = equilibrium_positions(nd_250nm, field_fig2)
    sched = FlipSchedule(omega_dd=200 * osc.omega, delta=0.0)
    t_eval = np.linspace(0.0, osc.period, 300)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol_pos=1e-18, abs_tol_vel=1e-17)
    traj = integrate(TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                     1, src, nd_250nm, sched, osc.period, cfg, t_eval)
    want = x0p * (1.0 - np.cos(osc.omega * t_eval))
    assert np.max(np.abs(traj.x - want)) < 1e-6 * abs(2.0 * x0p)


def test_input_validation(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    start = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        integrate(start, 1, src, nd_250nm, None, 0.0)
    with pytest.raises(ValueError):
        integrate(start, 2, src, nd_250nm, None, 1.0)
    with pytest.raises(ValueError):
        integrate(start, 1, src, nd_250nm, None, 1.0, t_eval=[2.0])
    with pytest.raises(ValueError):
        FlipSchedule(omega_dd=1.0, delta=math.pi)
    with pytest.raises(ValueError):
        TrajectoryState(0.0, (math.nan, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)


def test_integrate_rejects_decreasing_t_eval(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    start = TrajectoryState(0.0, (1e-9, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="sorted"):
        integrate(start, 1, src, nd_250nm, None, 1.0, t_eval=[0.5, 0.25])
    # sorted samples, a repeated time among them, come back in their order
    # as views of the stack's one sample array
    t_eval = [0.0, 0.25, 0.25, 1.0]
    traj = integrate(start, 1, src, nd_250nm, None, 1.0, t_eval=t_eval)
    assert traj.t.tolist() == t_eval
    assert traj.q[1].tolist() == traj.q[2].tolist()
    assert traj.q.base is not None and traj.q.base is traj.v.base


@pytest.mark.parametrize("t_eval", [[0.0, math.nan, 1.0], [math.nan],
                                    [math.nan, 1.0], [0.0, 1.0, math.nan]])
def test_integrate_rejects_nan_in_t_eval(nd_250nm, field_fig2, t_eval):
    # every comparison with NaN is false: a check that looks for a sample
    # out of order or out of range finds none, and the samples at and
    # after the NaN would be the leftovers of an uninitialised array
    src = UniformGradientField(field_fig2.Bprime)
    start = TrajectoryState(0.0, (1e-9, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="sorted"):
        integrate(start, 1, src, nd_250nm, None, 1.0, t_eval=t_eval)


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
@pytest.mark.parametrize("flips", [False, True])
def test_integrate_rejects_non_finite_t_end(nd_250nm, field_fig2, t_end,
                                            flips):
    src = UniformGradientField(field_fig2.Bprime)
    start = TrajectoryState(0.0, (1e-9, 0.0, 0.0), (0.0, 0.0, 0.0))
    schedule = FlipSchedule(omega_dd=10.0, delta=0.5) if flips else None
    with pytest.raises(ValueError, match="finite"):
        integrate(start, 1, src, nd_250nm, schedule, t_end, t_eval=[0.0])


@pytest.mark.parametrize("omega_dd", [math.inf, math.nan, 0.0, -1.0])
def test_flip_schedule_rejects_non_finite_or_non_positive_rate(omega_dd):
    with pytest.raises(ValueError, match="omega_dd"):
        FlipSchedule(omega_dd=omega_dd)


def test_nan_field_raises(nd_250nm):
    class BrokenSource:
        def btuw(self, q, constants=None, rho2=None):
            return np.full((4, len(q)), math.nan)

    start = TrajectoryState(0.0, (1e-7, 0.0, 0.0), (0.0, 0.0, 0.0))
    # NaN at the origin too, so the stiffness refusal fires before any
    # solver call
    with pytest.raises(FloatingPointError, match="trap stiffness"):
        integrate(start, 1, BrokenSource(), nd_250nm, None, 1.0)


def test_nan_field_off_the_origin_reaches_the_state_check():
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)

    class NanOffOrigin:
        """The 3 cm pair at the origin, so the trap is found; NaN elsewhere."""

        def btuw(self, q, constants=CONSTANTS, rho2=None):
            out = coil.btuw(q, constants, rho2)
            out[:, np.any(q != 0.0, axis=1)] = math.nan
            return out

    start = TrajectoryState(0.0, (1e-7, 0.0, 0.0), (0.0, 0.0, 0.0))
    _, period = _coil_period(coil, nd)
    # the NaN force reaches the residual and its non-finite-state check
    with pytest.raises(FloatingPointError,
                       match="^non-finite state during integration$"):
        integrate(start, 1, NanOffOrigin(), nd, None, period)


def test_sensitivity_scan_degenerate_origin(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    recs = sensitivity_scan(0.0, [0.0, math.pi / 4.0], [0.0], src, nd_250nm,
                            None, osc.period, cfg, n_samples=50)
    assert len(recs) == 1  # r = 0 collapses the angular grid
    # the scan is the engine's two-spin stack from the origin, exactly
    t_eval = np.linspace(0.0, osc.period, 50)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    stack = _integrate_stack([origin] * 2, [1, -1], [None] * 2, src, nd_250nm,
                             osc.period, cfg, t_eval, CONSTANTS)
    for spin, row in zip((1, -1), stack):
        traj = recs[0]["trajectories"][spin]
        assert np.array_equal(traj.q, row.q) and np.array_equal(traj.v, row.v)
        want = _solve_ivp_oracle((0.0, 0.0, 0.0), spin, src, nd_250nm, None,
                                 0.0, osc.period, cfg, t_eval)
        assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)


def test_x_shift_leaves_max_separation(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    t_eval = np.linspace(0.0, osc.period, 201)
    dx = max_separation(nd_250nm, field_fig2)

    def max_sep(x_start):
        trajs = [integrate(TrajectoryState(0.0, (x_start, 0.0, 0.0),
                                           (0.0, 0.0, 0.0)),
                           s, src, nd_250nm, None, osc.period, cfg, t_eval)
                 for s in (1, -1)]
        return np.max(np.abs(trajs[0].x - trajs[1].x))

    assert max_sep(0.0) == pytest.approx(dx, rel=1e-6)
    assert max_sep(2e-7) == pytest.approx(max_sep(0.0), rel=1e-6)


def test_no_transverse_start_no_transverse_motion(nd_250nm, field_fig2,
                                                  coil_564):
    nd = NanodiamondParams.from_mass(5.6e-14)
    osc_scale = derive_oscillator(nd, FieldConfig(Bprime=0.676))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    t_end = 0.1 * osc_scale.period
    traj = integrate(TrajectoryState(0.0, (3e-7, 0.0, 0.0), (0.0, 0.0, 0.0)),
                     1, coil_564, nd, None, t_end, cfg,
                     np.linspace(0.0, t_end, 40))
    assert np.max(np.abs(traj.y)) == 0.0
    assert np.max(np.abs(traj.z)) == 0.0


def test_zero_coordinate_stays_frozen_while_other_oscillates(coil_564):
    # y = 0 start: no y motion ever, while the z offset oscillates
    nd = NanodiamondParams.from_mass(5.6e-14)
    osc_scale = derive_oscillator(nd, FieldConfig(Bprime=0.676))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    t_end = 1.2 * osc_scale.period  # > half a transverse period (omega/2)
    traj = integrate(TrajectoryState(0.0, (0.0, 0.0, 4e-7), (0.0, 0.0, 0.0)),
                     1, coil_564, nd, None, t_end, cfg,
                     np.linspace(0.0, t_end, 120))
    assert np.max(np.abs(traj.y)) == 0.0
    assert np.min(traj.z) < 0.99 * 4e-7  # z really moves
    assert np.max(np.abs(traj.z)) <= 4e-7 * (1.0 + 1e-6)


def test_delta_scan_reference_is_zero(nd_250nm, field_fig2):
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    res = delta_scan([0.0, math.pi / 25.0], src, nd_250nm, 40, osc.omega, cfg,
                     n_samples=200)
    assert res[0]["deviation"] == 0.0
    assert res[1]["deviation"] > 0.0
    with pytest.raises(ValueError):
        delta_scan([math.pi], src, nd_250nm, 40, osc.omega, cfg)


@pytest.mark.parametrize("coil_name", ["3cm", "5mm"])
def test_stacked_shell_scan_matches_per_row_oracle(coil_name):
    coil, r = _COILS[coil_name]
    nd = NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    schedule = FlipSchedule(omega_dd=10.0 * omega)
    angles = [0.0, math.pi / 4.0, math.pi / 2.0]
    recs = sensitivity_scan(r, angles, [0.3], coil, nd, schedule,
                            period, cfg, n_samples=101)
    t_eval = np.linspace(0.0, period, 101)
    zone = _RHO_SERIES_FACTOR * coil.loops[0].r_c
    in_zone = [math.hypot(*rec["start"][1:]) < zone for rec in recs]
    # the 5 mm shell has starts on both sides of the series switch
    assert in_zone == ([True] * 3 if coil_name == "3cm" else [False, False, True])
    for rec in recs:
        for spin, traj in rec["trajectories"].items():
            want = _solve_ivp_oracle(rec["start"], spin, coil, nd,
                                     schedule.omega_dd, 0.0, period, cfg, t_eval)
            assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)


@pytest.mark.parametrize("coil_name", ["3cm", "5mm"])
def test_sparse_samples_match_per_row_oracle(monkeypatch, coil_name):
    # the shell stack of the test above, sampled at seven times off the
    # flips: the intervals between samples and flips, up to P/10 long, are
    # split into equal parts no longer than the x period over
    # _CAP_PER_PERIOD, whose ends hold no sample
    coil, r = _COILS[coil_name]
    nd = NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    schedule = FlipSchedule(omega_dd=10.0 * omega)
    t_eval = (np.arange(7) + 0.5) * (period / 7.0)
    starts = [(r * math.sin(t) * math.cos(0.3), r * math.sin(t) * math.sin(0.3),
               r * math.cos(t)) for t in (0.0, math.pi / 4.0, math.pi / 2.0)]
    calls = _record_solver_calls(monkeypatch)
    rows = _integrate_stack(
        [TrajectoryState(0.0, q0, (0.0, 0.0, 0.0)) for q0 in starts
         for _ in (1, -1)], [1, -1] * 3, [schedule] * 6, coil, nd, period,
        cfg, t_eval, CONSTANTS)
    monkeypatch.undo()
    (args, _sol), = calls
    breaks = args[1]
    cap = 2.0 * math.pi / (_CAP_PER_PERIOD
                           * math.sqrt(harmonic_centre(coil, nd)[0][0]))
    assert np.diff(breaks).max() <= cap * (1.0 + 1e-12)
    assert len(breaks) > _CAP_PER_PERIOD
    for (q0, spin), traj in zip([(q0, spin) for q0 in starts
                                 for spin in (1, -1)], rows):
        want = _solve_ivp_oracle(q0, spin, coil, nd, schedule.omega_dd, 0.0,
                                 period, cfg, t_eval)
        assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)


def test_stacked_delta_scan_matches_per_row_oracle(coil_564):
    nd = NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil_564, nd)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    n_flip = 20
    deltas = [0.0, math.pi / 25.0, math.pi / 5.0]
    # 200 samples miss the flips, and most of the P/1000 segments between a
    # spin flip and the pi/25 row's current flip hold no sample
    t_eval = np.linspace(0.0, period, 200)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    rows = _integrate_stack(
        [origin] * 3, [1] * 3,
        [FlipSchedule(omega_dd=n_flip * omega, delta=d) for d in deltas],
        coil_564, nd, period, cfg, t_eval, CONSTANTS)
    x = []
    for d, traj in zip(deltas, rows):
        want = _solve_ivp_oracle((0.0, 0.0, 0.0), 1, coil_564, nd,
                                 n_flip * omega, d, period, cfg, t_eval)
        assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)
        x.append(want[:, 0])
    # the public scan runs the same stack and reports the oracle's deviations
    dx_max = 2.0 * np.max(np.abs(x[0]))
    res = delta_scan(deltas[1:], coil_564, nd, n_flip, omega, cfg,
                     n_samples=200)
    for d, r, want_x in zip(deltas[1:], res, x[1:]):
        assert r["delta"] == d
        dev = np.max(np.abs(want_x - x[0])) / dx_max
        assert abs(r["deviation"] - dev) <= 2.0 * _oracle_bound(cfg, x[0]) / dx_max


def _record_solver_calls(monkeypatch):
    """Wrap the solver the trajectory engine calls in a recording wrapper;
    returns the list that collects each call's arguments and solution."""
    calls = []
    solver = ndspin.trajectory.solve_ivp

    def recording(*args):
        calls.append((args, solver(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ndspin.trajectory, "solve_ivp", recording)
    return calls


def test_failed_run_reports_the_state_not_the_amplitudes(tmp_path, capsys):
    # a stack whose passes never settle: past |x| = 2 um the 5 mm pair's
    # field is scaled by 1 -+ 1e-3, alternating from kernel pass to kernel
    # pass.  The windows before the light particle first gets there
    # converge; the one that reaches it is halved down to one interval,
    # which raises IntegrationError with the first row's state at that
    # interval's start: the residual amplitudes mapped back to (e, e_v)
    # there, plus the reference, and not the reference alone.
    coil, nd = _COILS["5mm"][0], NanodiamondParams.from_mass(_LIGHT_MASS)
    omega, period = _coil_period(coil, nd)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    start = TrajectoryState(0.0, (0.0, 3e-6, 1e-6), (0.0, 0.0, 0.0))
    passes = []

    class Alternating:
        def btuw(self, q, constants=CONSTANTS, rho2=None):
            passes.append(len(q))
            out = coil.btuw(q, constants, rho2)
            out[:, np.abs(q[:, 0]) > 2e-6] *= 1.0 - 1e-3 * (-1) ** len(passes)
            return out

    with pytest.raises(IntegrationError, match="did not converge") as info:
        integrate(start, 1, Alternating(), nd, None, period, cfg)
    last = info.value.last_state
    assert 0.0 < last.t < period and len(passes) > 4
    want = integrate(start, 1, coil, nd, None, period, cfg, t_eval=[last.t])
    assert np.max(np.abs(want.x)) < 2e-6 < np.max(np.abs(integrate(
        start, 1, coil, nd, None, period, cfg).x))
    q_bound = _oracle_bound(cfg, want.q)
    v_bound = 10.0 * (cfg.abs_tol_vel + cfg.rel_tol * np.max(np.abs(want.v)))
    assert np.max(np.abs(np.array(last.q) - want.q[0])) <= q_bound
    assert np.max(np.abs(np.array(last.v) - want.v[0])) <= v_bound
    ref = _Reference(harmonic_centre(coil, nd), np.array([0.0, period]),
                     np.array([[1]]), np.array([[*start.q, *start.v]]))
    y_ref = ref.state(np.array([last.t]))[:, 0, 0]
    assert np.max(np.abs(y_ref[:3] - want.q[0])) > 100.0 * q_bound
    assert np.max(np.abs(y_ref[3:] - want.v[0])) > 100.0 * v_bound
    # from the command line, a stack that does not converge exits 3
    path = tmp_path / "scenario.json"
    path.write_text('{"version": 1, "nanodiamond": {"mass_kg": 5.6e-14}, '
                    '"coil": {}}')
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ndspin.trajectory, "_PASSES", 0)
        assert main(["sensitivity", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 3
    assert "numerical failure: integration failed" in capsys.readouterr().err


def test_stepper_rejects_rtol_below_its_floor():
    # below 100 eps rounding alone could keep the passes from settling: the
    # engine refuses such a stack rtol
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="floor"):
        integrate(origin, 1, coil, nd, None, period,
                  IntegratorConfig(rel_tol=1e-16))
    # a stack of 4 divides rtol by 2: 3e-14 alone is above the floor, in
    # the stack below it
    integrate(origin, 1, coil, nd, None, period,
              IntegratorConfig(rel_tol=3e-14), t_eval=[period])
    with pytest.raises(ValueError, match="floor"):
        _integrate_stack([origin] * 4, [1] * 4, [None] * 4, coil, nd, period,
                         IntegratorConfig(rel_tol=3e-14), [period], CONSTANTS)


def test_reference_past_a_loop_plane_raises():
    # at 1e-22 kg the branch offset x* = c / omega_x^2 is about 56 m, far
    # past the 3 cm pair's loop planes at +-15 mm: no trap to integrate in
    # (2 x* from the origin at 1e-18 kg, 11 mm, stays inside them)
    coil = _COILS["3cm"][0]
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    for mass, inside in ((1e-18, True), (1e-22, False)):
        nd = NanodiamondParams.from_mass(mass)
        stiffness, c = harmonic_centre(coil, nd)
        assert (2.0 * abs(c[0] / stiffness[0]) < 0.015) == inside
        period = _coil_period(coil, nd)[1]
        if inside:
            integrate(origin, 1, coil, nd, None, period, t_eval=[period])
            continue
        with pytest.raises(FloatingPointError, match="loop plane"):
            integrate(origin, 1, coil, nd, None, period, t_eval=[period])


#: A particle light enough (x0 about 2.8 um) that its motion in the 5 mm
#: pair reaches the size of that pair's series zone (2.5 um).
_LIGHT_MASS = 2e-15


def test_light_particle_matches_per_row_oracle(monkeypatch):
    # at 2e-15 kg the x motion reaches 5.6 um and the off-axis row swings
    # through the 5 mm pair's series zone edge, with a residual of 1e-11 m,
    # far above the tolerance: the passes go on until it settles, in the
    # one call of the stack, across every flip
    coil, nd = _COILS["5mm"][0], NanodiamondParams.from_mass(_LIGHT_MASS)
    omega, period = _coil_period(coil, nd)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    n_flip = 20
    rows_in = [((0.0, 0.0, 0.0), 0.0), ((0.0, 0.0, 0.0), math.pi / 5.0),
               ((0.0, 3e-6, 0.0), math.pi / 5.0)]
    t_eval = np.linspace(0.0, period, 201)
    calls = _record_solver_calls(monkeypatch)
    rows = _integrate_stack(
        [TrajectoryState(0.0, q0, (0.0, 0.0, 0.0)) for q0, _d in rows_in],
        [1] * 3, [FlipSchedule(omega_dd=n_flip * omega, delta=d)
                  for _q0, d in rows_in],
        coil, nd, period, cfg, t_eval, CONSTANTS)
    monkeypatch.undo()
    (args, sol), = calls
    # more than one pass
    assert sol.nfev > 2 * (len(args[1]) - 1)
    zone = _RHO_SERIES_FACTOR * coil.loops[0].r_c
    rho = np.hypot(rows[2].y, rows[2].z)
    assert rho.min() < zone < rho.max()
    assert np.max(np.abs(rows[0].x)) > 2.0 * zone
    for (q0, d), traj in zip(rows_in, rows):
        want = _solve_ivp_oracle(q0, 1, coil, nd, n_flip * omega, d, period,
                                 cfg, t_eval)
        assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)


@pytest.mark.parametrize("source_name", ["uniform", "3cm"])
def test_sampled_spin_counts_only_spin_flips(source_name, nd_250nm,
                                             field_fig2):
    # the uniform case puts samples exactly on the flips, the 3 cm coil's
    # period puts them one or two ulps after
    if source_name == "uniform":
        src, nd = UniformGradientField(field_fig2.Bprime), nd_250nm
        omega = derive_oscillator(nd, field_fig2).omega
    else:
        src, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
        omega = _coil_period(src, nd)[0]
    period = 2.0 * math.pi / omega
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-16)
    n_flip, n_samples = 20, 201
    t_eval = np.linspace(0.0, period, n_samples)
    schedules = [FlipSchedule(omega_dd=n_flip * omega, delta=d)
                 for d in (0.0, 0.0, math.pi / 5.0)]
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    rows = _integrate_stack([origin] * 3, [1, -1, -1], schedules, src, nd,
                            period, cfg, t_eval, CONSTANTS)
    # spin flip k falls at sample 10 k, within rounding
    flips = rows[0].flip_times
    assert np.max(np.abs(t_eval[10:200:10] - flips[:19])) <= 4.0 * np.spacing(
        period)
    # spin flips strictly before sample i, counted in exact arithmetic:
    # flip k precedes sample i when 10 k < i
    before = np.maximum(0, (np.arange(n_samples) - 1) // 10)
    for spin0, traj in zip((1, -1, -1), rows):
        assert np.array_equal(traj.spin, spin0 * (-1) ** before)
        assert np.array_equal(traj.flip_times, flips)


@pytest.mark.parametrize("n_flip", [13, 20, 40])
def test_no_flip_within_rounding_of_the_end(monkeypatch, n_flip):
    # on the 3 cm coil at 5.6e-14 kg, n_flip flip periods put the last flip
    # one ulp before the end of the period; it must not start a segment
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    spin_flips, field_flips = _flip_times(
        FlipSchedule(omega_dd=n_flip * omega), period)
    assert len(spin_flips) == len(field_flips) == n_flip - 1
    calls = _record_solver_calls(monkeypatch)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol_pos=1e-17, abs_tol_vel=1e-19)
    delta_scan([0.0, math.pi / 25.0], coil, nd, n_flip, omega, cfg,
               n_samples=40)
    (args, _sol), = calls
    breaks = args[1]
    # every effective flip is a breakpoint, and the last interval is not a
    # few ulps long
    assert breaks[-1] == period and np.isin(spin_flips, breaks).all()
    assert period - breaks[-2] >= 1e-9 * period / n_flip


@pytest.mark.parametrize("lag", [math.pi / 45.0, math.pi / 10.0, math.pi / 5.0])
def test_lagged_scan_steps_across_flips(monkeypatch, lag):
    # at the default tolerances the lagged delta scan is one solver call
    # and one pass over breakpoints that hold every flip
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    cfg = IntegratorConfig()
    n_flip = 50
    calls = _record_solver_calls(monkeypatch)
    t_eval = np.linspace(0.0, period, 201)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    rows = _integrate_stack(
        [origin] * 2, [1] * 2,
        [FlipSchedule(omega_dd=n_flip * omega, delta=d) for d in (0.0, lag)],
        coil, nd, period, cfg, t_eval, CONSTANTS)
    monkeypatch.undo()
    (args, sol), = calls
    breaks = args[1]
    assert sol.nfev == 2 * (len(breaks) - 1)
    flips = _flip_times(FlipSchedule(omega_dd=n_flip * omega, delta=lag),
                        period)
    assert np.isin(np.concatenate(flips), breaks).all()
    for d, traj in zip((0.0, lag), rows):
        want = _solve_ivp_oracle((0.0, 0.0, 0.0), 1, coil, nd, n_flip * omega,
                                 d, period, cfg, t_eval)
        assert np.max(np.abs(traj.q - want)) <= _oracle_bound(cfg, want)


@pytest.mark.parametrize("source_name", ["3cm", "5mm", "uniform"])
def test_harmonic_centre_matches_central_differences(source_name):
    nd = NanodiamondParams.from_mass(5.6e-14)
    if source_name == "uniform":
        source, h = UniformGradientField(0.663), 1e-7
    else:
        source = _COILS[source_name][0]
        h = 1e-4 * source.loops[0].r_c
    K, c = harmonic_centre(source, nd)

    def accel(q, spin):
        return force(np.asarray(q, dtype=float), spin, source, nd) / nd.mass

    def spin_free(q):
        return 0.5 * (accel(q, 1) + accel(q, -1))

    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        column = -(spin_free(step) - spin_free(-step)) / (2.0 * h)
        assert column[j] == pytest.approx(K[j], rel=1e-7)
        assert np.all(np.abs(np.delete(column, j)) <= 1e-7 * K[j])
    assert K[0] == pytest.approx(4.0 * K[1], rel=1e-15) and K[1] == K[2]
    spin_part = 0.5 * (accel((0.0, 0.0, 0.0), 1) - accel((0.0, 0.0, 0.0), -1))
    assert spin_part[0] == pytest.approx(c[0], rel=1e-14)
    assert c[1] == c[2] == spin_part[1] == spin_part[2] == 0.0


def test_no_harmonic_centre_is_refused_before_any_solver_call(monkeypatch):
    # a single loop's centre is no equilibrium (B_x != 0), and a vanishing
    # current gives no positive stiffness: the engine integrates only about
    # a harmonic centre, so every entry point refuses such a source first
    nd = NanodiamondParams.from_mass(5.6e-14)
    loop = CoilAssembly(loops=(LoopSource(r_c=0.03, x_c=0.0, mmf=564.0),))
    assert harmonic_centre(loop, nd) is None
    assert harmonic_centre(CoilAssembly.anti_helmholtz(mmf=0.0), nd) is None
    assert harmonic_centre(CoilAssembly.anti_helmholtz(mmf=1e-300), nd) is None
    omega, period = _coil_period(_COILS["3cm"][0], nd)
    schedule = FlipSchedule(omega_dd=10 * omega, delta=math.pi / 5.0)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    calls = _record_solver_calls(monkeypatch)
    for run in (
            lambda: integrate(origin, 1, loop, nd, schedule, period),
            lambda: sensitivity_scan(5e-7, [0.0], [0.0], loop, nd, schedule,
                                     period, n_samples=50),
            lambda: delta_scan([0.0, math.pi / 5.0], loop, nd, 10, omega)):
        with pytest.raises(FloatingPointError,
                           match="trap stiffness at the coil centre"):
            run()
    assert calls == []


@pytest.mark.parametrize("periods", [1.0, 1.5, 2.0, 3.0, 5.0, 7.5])
@pytest.mark.parametrize("t0", [0.0, 0.37, 1234.5])
def test_runs_land_on_their_end(monkeypatch, t0, periods):
    # a run from t0 with no sample before its end is split into
    # ceil(span / cap) equal intervals, cap the x period over
    # _CAP_PER_PERIOD, the last landing on the end: t0 + k h rounds at
    # 1234.5 s, yet no interval is a few ulps long
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    omega, period = _coil_period(coil, nd)
    cap = 2.0 * math.pi / (_CAP_PER_PERIOD
                           * math.sqrt(harmonic_centre(coil, nd)[0][0]))
    t_end = t0 + periods * period
    calls = _record_solver_calls(monkeypatch)
    traj = integrate(TrajectoryState(t0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), 1,
                     coil, nd, None, t_end, t_eval=[t_end])
    monkeypatch.undo()
    (args, sol), = calls
    steps = np.diff(args[1])
    n = math.ceil((t_end - t0) / cap)
    assert args[1][0] == t0 and args[1][-1] == t_end and len(steps) == n
    assert cap / 2.0 <= steps.min() and steps.max() <= cap * (1.0 + 1e-12)
    assert sol.nfev % (2 * n) == 0
    assert traj.t[0] == t_end and np.isfinite(traj.q).all()


def test_uniform_gradient_rows_are_the_closed_form(nd_250nm, field_fig2):
    # with UniformGradientField R = 0: every row is the harmonic reference
    # to rounding, at the default tolerances as at tight ones
    src = UniformGradientField(field_fig2.Bprime)
    osc = derive_oscillator(nd_250nm, field_fig2)
    x0p, x0m = equilibrium_positions(nd_250nm, field_fig2)
    t_eval = np.linspace(0.0, 3.0 * osc.period, 301)
    y0, z0 = 1e-7, -5e-8
    starts = [TrajectoryState(0.0, q0, (0.0, 0.0, 0.0))
              for q0 in ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, y0, z0))]
    transverse = np.cos(0.5 * osc.omega * t_eval)
    want = [(x0 * (1.0 - np.cos(osc.omega * t_eval)), y * transverse,
             z * transverse) for x0, y, z in ((x0p, 0.0, 0.0),
                                              (x0m, 0.0, 0.0), (x0p, y0, z0))]
    for cfg in (IntegratorConfig(),
                IntegratorConfig(rel_tol=1e-11, abs_tol_pos=1e-18,
                                 abs_tol_vel=1e-17)):
        rows = _integrate_stack(starts, [1, -1, 1], [None] * 3, src, nd_250nm,
                                3.0 * osc.period, cfg, t_eval, CONSTANTS)
        for traj, w in zip(rows, want):
            assert np.max(np.abs(traj.q - np.array(w).T)) <= 1e-14 * abs(x0p)


def test_synchronized_delta_row_within_abs_tol_of_tight_reference():
    # the baseline scenario's delta = 0 row (3 cm pair, 5.6e-14 kg, 200
    # flips, default tolerances) on its own: its flips cancel, so a tight
    # DOP853 run without flips is its reference
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    osc = derive_oscillator(nd, FieldConfig(Bprime=coil.jacobian_at(
        (0.0, 0.0, 0.0))[0, 0]))
    cfg = IntegratorConfig()
    t_eval = np.linspace(0.0, osc.period, 400)
    origin = TrajectoryState(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    row = _integrate_stack([origin], [1],
                           [FlipSchedule(omega_dd=200 * osc.omega)], coil, nd,
                           osc.period, cfg, t_eval, CONSTANTS)[0]
    tight = IntegratorConfig(rel_tol=1e-13, abs_tol_pos=1e-20, abs_tol_vel=1e-20)
    want = _solve_ivp_oracle((0.0, 0.0, 0.0), 1, coil, nd, None, 0.0,
                             osc.period, tight, t_eval)
    assert np.max(np.abs(row.q - want)) <= cfg.abs_tol_pos


def test_baseline_worst_overlap_within_1e4_of_tight_reference():
    # the baseline scenario's shell scan at the default tolerances: its
    # worst transverse overlap, the residual alone (c lies along x), lies
    # within 1e-4 relative of a tight DOP853 run of the row and spins that
    # reach it, whose flips cancel (about 2.973e-10); a stepper that only
    # held the residual to the default position tolerance read 3.19e-10
    cfg = parse_config({"version": 1, "nanodiamond": {"mass_kg": 5.6e-14},
                        "coil": {"radius_m": 0.03, "separation_m": 0.03,
                                 "mmf_At": 564.0}})
    coil, nd, r = cfg.coil, cfg.nanodiamond, cfg.sensitivity_radius
    omega, period = _coil_period(coil, nd)
    recs = sensitivity_scan(r, cfg.sensitivity_theta, cfg.sensitivity_phi,
                            coil, nd,
                            FlipSchedule(omega_dd=cfg.sensitivity_n_flip * omega),
                            period, cfg.integrator, cfg.sensitivity_n_samples)
    worst, axis, i = max((rec[f"{name}_overlap"], axis, i)
                         for i, rec in enumerate(recs)
                         for axis, name in ((1, "y"), (2, "z")))
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol_pos=1e-21,
                             abs_tol_vel=1e-23)
    t_eval = np.linspace(0.0, period, cfg.sensitivity_n_samples)
    up, down = (_solve_ivp_oracle(recs[i]["start"], spin, coil, nd, None,
                                  0.0, period, tight, t_eval)
                for spin in (1, -1))
    want = np.max(np.abs(up[:, axis] - down[:, axis])) / r
    assert 2.972e-10 < want < 2.974e-10
    assert abs(worst - want) <= 1e-4 * want


def _btuw_by_loop(source, q):
    """Test-only reference for (B_x, t, u, w) at one point q, in Python
    floats, loop by loop and summed in loop order, each number formed by
    the same operations in the same order as the kernel: the near-axis
    series of the module docstring inside the zone, the elliptic closed
    form (one point at a time) outside it."""
    if isinstance(source, UniformGradientField):
        return (source.Bprime * q[0], -0.5 * source.Bprime, 0.0, 0.0)
    x, y, z = q
    rho2 = y * y + z * z
    total = None
    for lp in source.loops:
        s = x - lp.x_c
        rc2 = lp.r_c ** 2
        if rho2 < (_RHO_SERIES_FACTOR * lp.r_c) ** 2:
            iq = 1.0 / (rc2 + s * s)
            b_amp = CONSTANTS.mu0 * (0.5 * lp.mmf * lp.r_c ** 2)
            b0 = b_amp * iq * math.sqrt(iq)
            h = 1.5 * b0 * iq
            hq = h * iq
            s4 = 4.0 * s * s
            u = (rc2 - s4) * hq
            w = -1.25 * s * (s4 - 3.0 * rc2) * hq * iq
            half_rho2 = 0.5 * rho2
            loop = (b0 + half_rho2 * u, s * h + half_rho2 * w, u, w)
        else:
            loop = tuple(float(v[0]) for v in _elliptic_btuw(
                np.array([s]), np.array([rho2]), lp.r_c,
                CONSTANTS.mu0 * lp.mmf))
        total = loop if total is None else tuple(
            a + b for a, b in zip(total, loop))
    return total


def _rhs_by_row(source, a, mu_spin, omega2, off, xstar, ab, cos, sin_w):
    """Test-only reference for the residual's (a', b') at one node and
    row, in Python floats: per axis e = a cos - b sin_w, with sin_w =
    -sin(omega tau) / omega; q = (off + e) + x* e_x; R = J mu + K (off + e),
    with J mu from (B_x, t, u, w) as ``_force`` forms it; and the row
    (sin_w R, cos R)."""
    e = [ak * c - bk * s for ak, bk, c, s in zip(ab[:3], ab[3:], cos, sin_w)]
    q = [o + d for o, d in zip(off, e)]
    k_q = [k * qc for k, qc in zip(omega2, q)]
    q[0] += xstar
    bx, t, u, w = _btuw_by_loop(source, q)
    rho2 = q[1] * q[1] + q[2] * q[2]
    mu_x = a * bx + mu_spin
    at = a * t
    w_rho2 = w * rho2
    g = u * mu_x + at * (t + w_rho2)
    f = (at * u * rho2 - (2.0 * t + w_rho2) * mu_x, q[1] * g, q[2] * g)
    r = [fc + kc for fc, kc in zip(f, k_q)]
    return [*(rc * s for rc, s in zip(r, sin_w)),
            *(rc * c for rc, c in zip(r, cos))]


#: Stacks of starts (x, rho) for the residual's bit-for-bit check: every
#: row in the series zone, every row outside it, and rows on both sides of
#: its edge (1.5e-5 m on the 3 cm pair).
_RHS_STACKS = {
    "3cm-series": ("3cm", [(0.0, 5e-7), (2e-7, 3e-7), (-4e-7, 0.0),
                           (1e-6, 1e-6)]),
    "5mm-elliptic": ("5mm", [(0.0, 5e-6), (1e-6, 8e-6), (-2e-6, 3e-5),
                             (1e-3, 1e-3)]),
    "3cm-edge": ("3cm", [(1e-7, 1.4e-5), (-1e-7, 1.6e-5), (0.0, 5e-7),
                         (3e-7, 1.49e-5), (4e-3, 3e-3)]),
    "uniform": ("uniform", [(0.0, 5e-7), (3e-7, 2e-7)]),
}


@pytest.mark.parametrize("stack", sorted(_RHS_STACKS))
def test_residual_rhs_is_the_force_bit_for_bit(stack, rng):
    # the stacked residual's fused pass (node quantities from at(), rho^2
    # shared by kernel and force) must repeat e from the amplitudes, the
    # force, K (off + e) and the rotation into (a', b'), operation for
    # operation, at every node and row
    source_name, starts = _RHS_STACKS[stack]
    source = (UniformGradientField(0.663) if source_name == "uniform"
              else _COILS[source_name][0])
    nd = NanodiamondParams.from_mass(5.6e-14)
    centre = harmonic_centre(source, nd)
    period = 2.0 * math.pi / math.sqrt(centre[0][0])
    phi = rng.uniform(0.0, 2.0 * math.pi, len(starts))
    y0 = np.array([[x, r * math.cos(p), r * math.sin(p), 0.0, 0.0, 0.0]
                   for (x, r), p in zip(starts, phi)])
    edges = np.array([0.0, 0.3 * period, period])
    signs = rng.choice([-1, 1], (len(starts), 2))
    a = _chi_coefficient(nd, CONSTANTS) / nd.mass
    mu_spin = _spin_moment(signs, CONSTANTS) / nd.mass
    ref = _Reference(centre, edges, signs, y0)
    residual = _Residual(ref, source, CONSTANTS, a, mu_spin)
    # near 0 and the x period, where y and z (at half the x frequency)
    # stay near their starts, so |rho| does; three nodes at each time
    times = np.repeat(np.array([0.005, 0.01, 0.02, 0.98, 0.99]) * period, 3)
    residual.at(times)
    k = ref.segments(times)
    ab = rng.normal(size=(6, len(starts), len(times))) * np.repeat(
        [1e-9, 1e-12], 3)[:, None, None]
    got = residual(ab)
    zones = [] if source_name == "uniform" else [
        _RHO_SERIES_FACTOR * lp.r_c for lp in source.loops]
    omega = np.sqrt(centre[0])
    for j in range(len(times)):
        phasor = ref.phasor(times[j:j + 1])[:, 0]
        # the phasor is exp(-i omega tau) per axis, to rounding
        tau = times[j] - edges[0]
        assert np.allclose(phasor, [complex(math.cos(w * tau),
                                            -math.sin(w * tau))
                                    for w in omega], rtol=0.0, atol=1e-15)
        off = ref.offsets(k[j:j + 1], phasor[:, None]).real[:, :, 0].T
        cos, sin_w = phasor.real, phasor.imag / omega
        ab_j = ab[:, :, j].T
        want = [_rhs_by_row(source, a, mu_spin[i, k[j]], centre[0], off[i],
                            ref.xstar[i, k[j]], ab_j[i], cos, sin_w)
                for i in range(len(starts))]
        assert np.array_equal(got[:, :, j].T, np.array(want)), (stack, j)
        # the kernel's own four numbers, which the force rounds away in
        # part, match loop by loop as well
        q = off + (ab_j[:, :3] * cos - ab_j[:, 3:] * sin_w)
        q[:, 0] += ref.xstar[:, k[j]]
        assert np.array_equal(source.btuw(q), np.array(
            [_btuw_by_loop(source, row) for row in q]).T), (stack, j)
        rho = np.hypot(q[:, 1], q[:, 2])
        for zone in zones:
            inside = rho < zone
            assert {"series": inside.all(), "elliptic": not inside.any(),
                    "edge": 0 < inside.sum() < len(rho)}[stack.split("-")[1]]


def _generic_flip_times(schedule, t_end):
    """Test-only reference for the flip lists: every multiple of the flip
    period below t_end, then each list masked where its time plus the
    slack reaches t_end."""
    if schedule is None:
        return np.empty(0), np.empty(0)
    dt = 2.0 * math.pi / schedule.omega_dd
    spin_flips = dt * np.arange(1, int(math.floor(t_end / dt + 1e-12)) + 1)
    spin_flips = spin_flips[_with_slack(spin_flips) < t_end]
    field_flips = spin_flips + schedule.delta / schedule.omega_dd
    return spin_flips, field_flips[_with_slack(field_flips) < t_end]


def _generic_set_up(spins, schedules, t0, t_end, t_eval):
    """Test-only reference for a stack's segments: each row's effective
    flips by setxor1d, the edges by unique, the signs on the segments and
    the spin pattern at the samples by (-1)**searchsorted."""
    distinct = list(dict.fromkeys(schedules))
    row_schedule = [distinct.index(sched) for sched in schedules]
    flips = [_generic_flip_times(sched, t_end) for sched in distinct]
    effective = [np.setxor1d(sf, ff) for sf, ff in flips]
    edges = np.unique(np.concatenate([[t0, t_end], *effective]))
    edges = edges[(edges >= t0) & (edges <= t_end)]
    mids = 0.5 * (edges[:-1] + edges[1:])
    signs = np.array(spins)[:, None] * np.array(
        [(-1) ** np.searchsorted(ef, mids, side="right") for ef in effective]
    )[row_schedule]
    patterns = [(-1) ** np.searchsorted(_with_slack(sf), t_eval, side="left")
                for sf, _ff in flips]
    return edges, signs, [sf for sf, _ff in flips], row_schedule, patterns


def _generic_states(ref, t, ab=None):
    """Test-only reference for the reference's states at times t, shape
    (6, n, len(t)), from :meth:`_Reference.offsets` in its (axis, row,
    time) layout, on each time's segment by a search of every edge: x*
    added to the real part's x, omega times the imaginary part."""
    k = np.minimum(ref.edges.searchsorted(t, side="right") - 1,
                   len(ref.edges) - 2)
    assert np.array_equal(ref.segments(t), k)
    off = ref.offsets(k, ref.phasor(t), ab)
    q = off.real.copy()
    q[0] += ref.xstar[:, k]
    return np.concatenate((q, ref.omega[:, None, None] * off.imag))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("case", range(40))
def test_set_up_repeats_the_generic_construction(case):
    # the stack's set-up (flip lists, edges, signs, spin patterns, the
    # residual's start and the samples' states) is the generic
    # construction's bit for bit, signed zeros included, on random
    # schedules: synchronized ones, lags so small that the current flips
    # round onto the spin flips, an end on a flip and a start after some
    # flips or on one
    rng = np.random.default_rng(case)
    coil, nd = _COILS["3cm"][0], NanodiamondParams.from_mass(5.6e-14)
    centre = harmonic_centre(coil, nd)
    period = 2.0 * math.pi / math.sqrt(centre[0][0])
    omega_dd = 2.0 * math.pi / period * rng.integers(3, 60)
    lags = [0.0, 1e-300, 1e-18 * rng.uniform(0.5, 2.0),
            rng.uniform(0.0, math.pi), rng.uniform(0.0, 0.05)]
    kinds = rng.choice(len(lags) + 1, size=rng.integers(1, 5))
    schedules = [None if kind == len(lags) else FlipSchedule(
        omega_dd=omega_dd * rng.choice([1.0, 1.5]), delta=lags[kind])
        for kind in kinds]
    spins = list(rng.choice([-1, 1], size=len(schedules)))
    dt = 2.0 * math.pi / omega_dd
    t_end = (dt * rng.integers(2, 40) if case % 2
             else period * rng.uniform(0.5, 2.0))
    # a start at 0, after some flips, or on a spin flip
    t0 = (0.0, t_end * rng.uniform(0.0, 0.6), dt)[case % 3]
    t_eval = np.sort(np.concatenate((
        [t0, t_end], rng.uniform(t0, t_end, 30),
        dt * np.arange(1, int(t_end / dt) + 1))))
    t_eval = t_eval[(t_eval >= t0) & (t_eval <= t_end)]

    edges, signs, spin_flips, row_schedule = _flip_segments(
        spins, schedules, t0, t_end)
    want = _generic_set_up(spins, schedules, t0, t_end, t_eval)
    assert _same_bits(edges, want[0])
    assert _same_bits(signs, want[1])
    assert all(_same_bits(a, b) for a, b in zip(spin_flips, want[2]))
    assert row_schedule == want[3]
    patterns = [1 - 2 * (_with_slack(sf).searchsorted(t_eval) & 1)
                for sf in spin_flips]
    assert all(_same_bits(a, b) for a, b in zip(patterns, want[4]))
    for sched in schedules:
        assert all(_same_bits(a, b) for a, b in zip(
            _flip_times(sched, t_end), _generic_flip_times(sched, t_end)))

    # starts with zeros of both signs among their components
    y0 = rng.normal(size=(len(spins), 6)) * np.repeat([1e-7, 1e-10], 3)
    y0[rng.random(y0.shape) < 0.3] = 0.0
    y0[rng.random(y0.shape) < 0.2] = -0.0
    ref = _Reference(centre, edges, signs, y0)
    assert _same_bits(ref.state(edges[:1]), _generic_states(ref, edges[:1]))
    ab = rng.normal(size=(6, len(spins), len(t_eval))) * 1e-12
    ab[rng.random(ab.shape) < 0.2] = -0.0
    assert _same_bits(ref.state(t_eval, ab), _generic_states(ref, t_eval, ab))


def test_set_up_kernel_passes_on_the_baseline():
    # the baseline's scans (3 cm pair, 5.6e-14 kg, 200 flips) on a fresh
    # assembly: the shell scan's set-up makes one kernel pass, at the
    # origin for the harmonic centre, and the delta scan's none, the
    # assembly keeping its numbers at the origin.  Inside the solver each
    # Picard pass makes one, and one pass each meets the default
    # tolerances: two nodes on each of the shell scan's 399 intervals
    # between samples, and on each of the delta scan's 1394 between its
    # 400 samples and 995 distinct flips (199 spin flips and 4 x 199
    # current flips), which fall on no sample but the ends
    cfg = parse_config({"version": 1, "nanodiamond": {"mass_kg": 5.6e-14},
                        "coil": {"radius_m": 0.03, "separation_m": 0.03,
                                 "mmf_At": 564.0}})
    coil, nd = cfg.coil, cfg.nanodiamond
    # the period from an equal assembly, so that this one's origin is fresh
    omega, period = _coil_period(CoilAssembly.anti_helmholtz(), nd)
    passes = {False: 0, True: 0}
    nfev, solving = [], [False]
    kernel, solver = ndspin.coils._btuw, ndspin.trajectory.solve_ivp

    def counting(*args):
        passes[solving[0]] += 1
        return kernel(*args)

    def counted(*args):
        solving[0] = True
        try:
            sol = solver(*args)
        finally:
            solving[0] = False
        nfev.append(sol.nfev)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ndspin.coils, "_btuw", counting)
        mp.setattr(ndspin.trajectory, "solve_ivp", counted)
        sensitivity_scan(cfg.sensitivity_radius, cfg.sensitivity_theta,
                         cfg.sensitivity_phi, coil, nd,
                         FlipSchedule(omega_dd=cfg.sensitivity_n_flip * omega),
                         period, cfg.integrator, cfg.sensitivity_n_samples)
        shell = dict(passes)
        delta_scan(cfg.sensitivity_delta, coil, nd, cfg.sensitivity_n_flip,
                   omega, cfg.integrator, cfg.sensitivity_n_samples)
    assert shell == {False: 1, True: 1}
    assert passes == {False: 1, True: 2}
    assert nfev == [2 * 399, 2 * 1394]
