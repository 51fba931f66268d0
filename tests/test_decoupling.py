import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ndspin import (
    CONSTANTS,
    DDConfig,
    FieldConfig,
    NanodiamondParams,
    branch_state,
    dd_branch_state,
    dd_expectation,
    derive_oscillator,
    expectation_xp,
    max_separation,
)
from ndspin.decoupling import (
    _phase_space,
    dd_mirror_defect,
    excursion_bias_defect,
    sampled_mirror_defect,
)


def _segment_walk(times, spin, nd, fld, n, constants=CONSTANTS):
    """Oracle: walk the segment recursion one segment at a time,

        A_{j+1} = -chi_j + (A_j + chi_j) r,        r = e^{2 pi i / N},
        Q_{j+1} = Q_j + zeta_j Dt + chi_j^2 Im(r) - chi_j Im[A_j (1 - r)],

    from A_0 = Q_0 = 0 up to max(times), then evaluate each time inside its
    segment.  The walk runs in 30 digits: in double precision its rounding
    grows with the segment count, to 1.4e-13 of max|alpha| after 6000
    segments.  Returns (alpha, theta) arrays shaped like ``times``.
    """
    osc = derive_oscillator(nd, fld, constants)
    times = np.asarray(times, dtype=float)
    seg = osc.period / n
    n_segments = max(1, math.ceil(times.max() / seg - 1e-12))
    omega = osc.omega
    chis = np.empty(n_segments)
    zetas = np.empty(n_segments)
    alpha_starts = np.empty(n_segments, dtype=complex)
    phase_starts = np.empty(n_segments)
    with mp.workdps(30):
        r = mp.expjpi(mp.mpf(2) / n)
        omega_mp = mp.mpf(omega)
        alpha, phase = mp.mpc(0), mp.mpf(0)
        for j in range(n_segments):
            sign = 1 if j % 2 == 0 else -1
            lam_j = sign * mp.mpf(osc.lambda0) + spin * mp.mpf(osc.lam)
            chi = lam_j / omega_mp
            zeta = (mp.mpf(constants.D_zfs) * spin * spin
                    + sign * mp.mpf(constants.gamma_e) * mp.mpf(fld.B0) * spin
                    - lam_j**2 / omega_mp)
            chis[j], zetas[j] = float(chi), float(zeta)
            alpha_starts[j], phase_starts[j] = complex(alpha), float(phase)
            phase += zeta * mp.mpf(seg) + chi**2 * r.imag \
                - chi * (alpha * (1 - r)).imag
            alpha = -chi + (alpha + chi) * r

    j = np.minimum((times / seg).astype(int), n_segments - 1)
    tau = times - j * seg
    chi = chis[j]
    rot = np.cos(omega * tau) + 1j * np.sin(omega * tau)
    a0 = alpha_starts[j]
    return (-chi + (a0 + chi) * rot,
            phase_starts[j] + zetas[j] * tau + chi**2 * np.sin(omega * tau)
            - chi * (a0 * (1.0 - rot)).imag)


def _piecewise_ode(times, spin, nd, fld, dd, constants=CONSTANTS,
                   rtol=1e-12, atol=1e-13):
    """Oracle: classical piecewise integration of the decoupled branch.

    Integrates u'' = -(u - u_eq^{(j)}) in dimensionless units (u = x per
    max-separation, tau = omega t), with the equilibrium hopping each
    decoupling segment exactly as the closed form assumes.  Returns lab-frame
    (<x>, <p>) samples, shape (len(times), 2).
    """
    osc = derive_oscillator(nd, fld, constants)
    times = np.asarray(times, dtype=float)
    x_scale = max_separation(nd, fld, constants)
    seg_tau = 2.0 * math.pi / dd.n  # segment length in tau units
    n_segments = max(1, math.ceil(times.max() * osc.omega / seg_tau - 1e-12))

    taus = times * osc.omega
    out = np.empty((len(times), 2))
    state = np.array([0.0, 0.0])  # (u, du/dtau), rest start at the origin
    for j in range(n_segments):
        sign = 1.0 if j % 2 == 0 else -1.0
        lam_j = sign * osc.lambda0 + spin * osc.lam
        u_eq = -2.0 * osc.x_zpf * (lam_j / osc.omega) / x_scale
        t0, t1 = j * seg_tau, (j + 1) * seg_tau
        mask = (taus >= t0 - 1e-12) & (taus <= t1 + 1e-12) if j < n_segments - 1 \
            else (taus >= t0 - 1e-12)

        def rhs(_t, y, ueq=u_eq):
            return [y[1], -(y[0] - ueq)]

        sol = solve_ivp(rhs, (t0, t1), state, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True)
        assert sol.success, sol.message
        if np.any(mask):
            vals = sol.sol(np.clip(taus[mask], t0, t1))
            out[mask, 0] = vals[0] * x_scale
            out[mask, 1] = vals[1] * x_scale * osc.omega * nd.mass
        state = sol.y[:, -1]
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        DDConfig(n=0)
    for fn in (dd_branch_state, dd_expectation):
        for times in (-1.0, [0.0, -1e-9], -math.inf):
            with pytest.raises(ValueError, match=r"^times must be >= 0$"):
                fn(times, 1, NanodiamondParams(), FieldConfig(Bprime=1e3),
                   DDConfig(n=4))
    # the plain evolution takes any time
    assert np.isfinite(dd_expectation([-1e-3], 1, NanodiamondParams(),
                                      FieldConfig(Bprime=1e3))).all()


def _bits(a):
    """The bit patterns of a float or complex array: -0.0 differs from 0.0."""
    return np.asarray(a).view(np.uint64)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308],
                         ids=["nan", "inf", "past_float_range_of_flips"])
def test_non_finite_time_is_refused(nd_250nm, field_biased, bad):
    # it once passed the sign check, warned in the integer cast and raised
    # IndexError; 1e308 s is past 1.8e308 flip intervals
    osc = derive_oscillator(nd_250nm, field_biased)
    times = [0.0, 0.5 * osc.period, bad]
    calls = [lambda: dd_branch_state(times, 1, nd_250nm, field_biased,
                                     DDConfig(n=4)),
             lambda: dd_branch_state(bad, -1, nd_250nm, field_biased,
                                     DDConfig(n=2)),
             lambda: dd_expectation(times, 1, nd_250nm, field_biased,
                                    DDConfig(n=7)),
             lambda: _phase_space(times, (1, 200), (1, -1), osc)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError,
                               match=r"^times must be finite and >= 0"):
                call()


def test_list_times_give_the_array_bits(nd_250nm, field_biased):
    osc = derive_oscillator(nd_250nm, field_biased)
    times = [0.0, 0.3 * osc.period, osc.period, 2.7 * osc.period]
    for spin in (1, -1):
        listed = branch_state(times, spin, nd_250nm, field_biased)
        arrayed = branch_state(np.array(times), spin, nd_250nm, field_biased)
        assert listed.t is times
        assert np.array_equal(_bits(listed.alpha), _bits(arrayed.alpha))
        assert np.array_equal(_bits(listed.theta), _bits(arrayed.theta))
        for dd in (None, DDConfig(n=1), DDConfig(n=2), DDConfig(n=5)):
            got = dd_expectation(times, spin, nd_250nm, field_biased, dd)
            want = dd_expectation(np.array(times), spin, nd_250nm,
                                  field_biased, dd)
            assert got.shape == (4, 2)
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 200])
def test_family_pass_repeats_each_family(nd_250nm, field_biased, n):
    # N = 1 and N = 2 take the limit sums; the times hold 0, every flip
    # k 2 pi / (N omega), the period and points inside the segments
    for nd, fld, constants in ((nd_250nm, field_biased, CONSTANTS),
                               _order_one_coupling_setup()):
        osc = derive_oscillator(nd, fld, constants)
        times = np.concatenate([osc.period / n * np.arange(n + 1),
                                [osc.period],
                                np.linspace(0.0, 1.5 * osc.period, 301)])
        xp = _phase_space(times, (0, n), (1, -1), osc).reshape(2, 2, -1, 2)
        for rows, dd in zip(xp, (None, DDConfig(n=n))):
            for got, spin in zip(rows, (1, -1)):
                want = dd_expectation(times, spin, nd, fld, dd, constants)
                assert np.array_equal(_bits(got), _bits(want))
                if dd is None:
                    state = branch_state(times, spin, nd, fld, constants)
                else:
                    state = dd_branch_state(times, spin, nd, fld, dd,
                                            constants)
                assert np.array_equal(
                    _bits(got), _bits(np.column_stack(expectation_xp(state,
                                                                     osc))))


def test_overflowing_trap_frequency_raises():
    # |chi| / (mu0 rho) overflows, so omega is infinite and the flip
    # interval 0: the segment index would be NaN, cast to an integer
    nd = NanodiamondParams(chi_magnitude=1e308)
    message = (r"^the flip interval 2 pi / omega_DD = 0 s is not a positive "
               r"finite number$")
    with np.errstate(all="ignore"):
        for fn in (dd_branch_state, dd_expectation):
            with pytest.raises(FloatingPointError, match=message):
                fn([0.0, 1e-3], 1, nd, FieldConfig(Bprime=1e3), DDConfig(n=4))


def test_zero_bias_reduces_to_undecoupled(nd_250nm, field_fig2):
    osc = derive_oscillator(nd_250nm, field_fig2)
    dd = DDConfig(n=7)
    for frac in (0.1, 0.37, 0.81):
        t = frac * osc.period
        got = dd_branch_state(t, 1, nd_250nm, field_fig2, dd)
        want = branch_state(t, 1, nd_250nm, field_fig2)
        assert abs(got.alpha - want.alpha) < 1e-10
        assert got.theta == pytest.approx(want.theta, rel=1e-12, abs=1e-9)


def test_first_segment_matches_closed_form(nd_250nm, field_biased):
    # N = 1: a single Hamiltonian interval for the whole period
    osc = derive_oscillator(nd_250nm, field_biased)
    dd = DDConfig(n=1)
    t = 0.73 * osc.period
    got = dd_branch_state(t, 1, nd_250nm, field_biased, dd)
    want = branch_state(t, 1, nd_250nm, field_biased)
    assert abs(got.alpha - want.alpha) < 1e-10
    assert got.theta == pytest.approx(want.theta, rel=1e-12)


def test_segment_amplitude_continuity(nd_250nm, field_biased):
    # the closed-form start of each segment continues the in-segment
    # evolution of the segment before it
    n = 20
    boundaries = (derive_oscillator(nd_250nm, field_biased).period / n
                  * np.arange(1, n))
    start = dd_branch_state(boundaries * (1.0 + 1e-15), 1, nd_250nm,
                            field_biased, DDConfig(n=n)).alpha
    end_prev = dd_branch_state(boundaries * (1.0 - 1e-15), 1, nd_250nm,
                               field_biased, DDConfig(n=n)).alpha
    assert np.max(np.abs(start - end_prev)) < 1e-10


def test_phase_coefficient_unit_modulus(nd_250nm, field_biased, rng):
    # the complex geometric sums leave a real phase: C = e^{-i Q} is unimodular
    osc = derive_oscillator(nd_250nm, field_biased)
    st = dd_branch_state(rng.uniform(0.0, osc.period, 100), 1, nd_250nm,
                         field_biased, DDConfig(n=20))
    assert np.isrealobj(st.theta)
    assert np.max(np.abs(np.abs(np.exp(-1j * st.theta)) - 1.0)) < 1e-12


def test_recursion_against_piecewise_ode(nd_250nm, field_biased):
    osc = derive_oscillator(nd_250nm, field_biased)
    dx = max_separation(nd_250nm, field_biased)
    times = np.linspace(0.0, osc.period, 400)
    for n in (1, 4, 20, 200):
        dd = DDConfig(n=n)
        for spin in (1, -1):
            rec = dd_expectation(times, spin, nd_250nm, field_biased, dd)
            ode = _piecewise_ode(times, spin, nd_250nm, field_biased, dd)
            assert np.max(np.abs(rec[:, 0] - ode[:, 0])) < 1e-8 * dx
            p_scale = np.max(np.abs(ode[:, 1]))
            assert np.max(np.abs(rec[:, 1] - ode[:, 1])) < 1e-7 * p_scale


def test_large_n_converges_to_unbiased_dynamics(nd_250nm, field_biased,
                                                field_fig2):
    osc = derive_oscillator(nd_250nm, field_biased)
    times = np.linspace(0.0, osc.period, 600)
    osc0 = derive_oscillator(nd_250nm, field_fig2)
    x_limit = np.array([
        2.0 * osc0.x_zpf
        * branch_state(float(t), 1, nd_250nm, field_fig2, osc=osc0).alpha.real
        for t in times])

    def err(n):
        x = dd_expectation(times, 1, nd_250nm, field_biased, DDConfig(n=n))[:, 0]
        return np.max(np.abs(x - x_limit))

    e200, e2000 = err(200), err(2000)
    assert e2000 < e200
    assert e200 / e2000 >= 10.0  # O(1/N) envelope


def test_bias_immunity_strictly_improves_with_n(nd_250nm, field_biased):
    baseline = excursion_bias_defect(nd_250nm, field_biased, None)
    d4 = excursion_bias_defect(nd_250nm, field_biased, DDConfig(n=4))
    d20 = excursion_bias_defect(nd_250nm, field_biased, DDConfig(n=20))
    d200 = excursion_bias_defect(nd_250nm, field_biased, DDConfig(n=200))
    assert baseline > 1.0
    assert baseline > d4 > d20 > d200
    assert d200 < 0.01


def test_mirror_defect_decreases_with_n(nd_250nm, field_biased):
    values = [sampled_mirror_defect(nd_250nm, field_biased, DDConfig(n=n))
              for n in (4, 20, 200)]
    assert values[0] > values[1] > values[2]
    assert sampled_mirror_defect(nd_250nm, field_biased, None) > values[0]


def test_phase_space_jumps_shrink_with_n(nd_250nm, field_biased):
    # visible jumps between alternating arcs at N=4 give way to a
    # near-circular oscillator orbit at N=200.  In zero-point-scaled
    # phase space the limiting orbit is a circle, so the circle defect of the
    # sampled curve quantifies the convergence.
    osc = derive_oscillator(nd_250nm, field_biased)

    def circle_defect(n):
        times = np.linspace(0.0, osc.period, 2000)
        xp = dd_expectation(times, 1, nd_250nm, field_biased, DDConfig(n=n))
        u = xp[:, 0] / (2.0 * osc.x_zpf)
        v = xp[:, 1] / (2.0 * osc.p_zpf)
        r = np.hypot(u - np.mean(u), v - np.mean(v))
        return (np.max(r) - np.min(r)) / np.mean(r)

    d4, d20, d200 = circle_defect(4), circle_defect(20), circle_defect(200)
    assert d4 > d20 > d200
    assert d4 > 10.0 * d200
    assert d200 < 0.2


def test_batch_states_match_single_calls(nd_250nm, field_biased):
    osc = derive_oscillator(nd_250nm, field_biased)
    times = np.array([0.0, 0.33, 0.9, 1.0, 2.47]) * osc.period
    for n in (1, 2, 3, 12):
        batch = dd_branch_state(times, -1, nd_250nm, field_biased, DDConfig(n=n))
        for i, t in enumerate(times):
            single = dd_branch_state(float(t), -1, nd_250nm, field_biased,
                                     DDConfig(n=n))
            assert np.shape(single.alpha) == np.shape(single.theta) == ()
            assert single.alpha == batch.alpha[i]
            assert single.theta == batch.theta[i]


def test_dd_expectation_with_and_without_dd(nd_250nm, field_biased):
    osc = derive_oscillator(nd_250nm, field_biased)
    times = osc.period * np.arange(33) / 32
    dd = DDConfig(n=8)
    for spin in (1, -1):
        plain = expectation_xp(branch_state(times, spin, nd_250nm, field_biased),
                               osc)
        decoupled = expectation_xp(
            dd_branch_state(times, spin, nd_250nm, field_biased, dd), osc)
        for state, got in ((plain, dd_expectation(times, spin, nd_250nm,
                                                  field_biased)),
                           (decoupled, dd_expectation(times, spin, nd_250nm,
                                                      field_biased, dd))):
            assert got.shape == (33, 2)
            assert np.array_equal(got, np.column_stack(state))


def _order_one_coupling_setup():
    """Inputs with lambda/omega = 2 and lambda0/omega = 1: physically exotic,
    but they keep the branch amplitudes small enough for an exact Fock-basis
    evolution to act as a full-state oracle."""
    nd = NanodiamondParams.from_mass(1e-12)
    c0 = math.sqrt(nd.chi_magnitude / (CONSTANTS.mu0 * nd.density))
    bprime = CONSTANTS.hbar / (2.0 * nd.mass * c0) / (
        2.0 * c0 / CONSTANTS.gamma_e) ** 2
    osc0 = derive_oscillator(nd, FieldConfig(Bprime=bprime))
    b0 = osc0.omega / math.sqrt(
        nd.mass * osc0.omega**3 / (2.0 * CONSTANTS.hbar)) * bprime
    fld = FieldConfig(B0=b0, Bprime=bprime)
    # reduced zero-field splitting keeps the bare phase scale O(1)
    constants = CONSTANTS.with_overrides(D_zfs=0.37 * osc0.omega)
    return nd, fld, constants


def _coherent_vector(alpha, dim):
    n = np.arange(dim)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    if alpha == 0:
        v = np.zeros(dim, complex)
        v[0] = 1.0
        return v
    return np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(complex(alpha))
                  - logfact / 2.0)


@pytest.mark.parametrize("n_flip", [1, 4, 7])
@pytest.mark.parametrize("spin", [1, -1])
def test_full_state_against_fock_evolution(n_flip, spin):
    # exact truncated-Fock Schroedinger evolution validates amplitude AND
    # accumulated phase of the closed form in one shot
    nd, fld, constants = _order_one_coupling_setup()
    osc = derive_oscillator(nd, fld, constants)
    dd = DDConfig(n=n_flip)
    seg = osc.period / n_flip

    dim = 120
    num = np.diag(np.arange(dim, dtype=float))
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    x_op = a + a.T

    check_times = [0.31 * seg, seg] + [
        (j + 0.62) * seg for j in range(1, n_flip)]
    psi = np.zeros(dim, complex)
    psi[0] = 1.0
    for j in range(n_flip):
        sign = 1.0 if j % 2 == 0 else -1.0
        lam_j = sign * osc.lambda0 + spin * osc.lam
        e0 = (constants.D_zfs * spin * spin
              + sign * constants.gamma_e * fld.B0 * spin)
        H = osc.omega * num + lam_j * x_op + e0 * np.eye(dim)
        t0, t1 = j * seg, (j + 1) * seg
        for tc in check_times:
            if t0 < tc <= t1 + 1e-15:
                evolved = expm(-1j * H * (tc - t0)) @ psi
                st = dd_branch_state(tc, spin, nd, fld, dd, constants)
                # the stored phasor convention is the conjugate of the
                # physically rotating one; the phase is shared
                predicted = (np.exp(-1j * st.theta)
                             * _coherent_vector(np.conj(st.alpha), dim))
                overlap = np.vdot(predicted, evolved)
                assert abs(overlap) == pytest.approx(1.0, abs=1e-10)
                assert abs(np.angle(overlap)) < 1e-10
        psi = expm(-1j * H * seg) @ psi


def test_symmetry_metric_from_ode_reference(nd_250nm, field_biased):
    # the brute-force route reproduces the N = 200 mirror defect
    osc = derive_oscillator(nd_250nm, field_biased)
    times = np.linspace(0.0, osc.period, 1200)
    dd = DDConfig(n=200)
    dx = max_separation(nd_250nm, field_biased)
    defects = [
        dd_mirror_defect(*(route(times, spin, nd_250nm, field_biased, dd)[:, 0]
                           for spin in (1, -1)), dx)
        for route in (_piecewise_ode, dd_expectation)]
    assert defects[0] == pytest.approx(defects[1], rel=1e-6)
    assert defects[0] <= 0.035


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 200, 2000])
@pytest.mark.parametrize("spin", [1, -1])
@pytest.mark.parametrize("periods", [1, 3])
def test_closed_form_matches_segment_walk(nd_250nm, field_biased, n, spin,
                                          periods):
    # the realistic particle, whose phase is dominated by D t, and an
    # order-one setup, whose phase is dominated by the segment sums
    for nd, fld, constants in ((nd_250nm, field_biased, CONSTANTS),
                               _order_one_coupling_setup()):
        osc = derive_oscillator(nd, fld, constants)
        seg = osc.period / n
        # every segment start, plus interior points of every segment
        times = np.concatenate([seg * np.arange(periods * n),
                                np.linspace(0.0, periods * osc.period, 4001)])
        st = dd_branch_state(times, spin, nd, fld, DDConfig(n=n), constants)
        alpha, theta = _segment_walk(times, spin, nd, fld, n, constants)
        assert np.max(np.abs(st.alpha - alpha)) <= 1e-13 * np.max(np.abs(alpha))
        assert np.max(np.abs(st.theta - theta)) <= 1e-13 * np.max(np.abs(theta))
