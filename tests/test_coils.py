import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from ndspin import (
    CONSTANTS,
    CoilAssembly,
    LoopSource,
    UniformGradientField,
    complete_elliptic_KE,
    field_and_jacobian,
    field_jacobian,
    field_map,
)
from ndspin.coils import _RHO_SERIES_FACTOR


def _ke_quadrature(m):
    """Defining-integral oracle for K and E at parameter m = k^2."""
    with warnings.catch_warnings():
        # the requested tolerance sits at the roundoff floor by design
        warnings.simplefilter("ignore", IntegrationWarning)
        K, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-14, limit=200)
        E, _ = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-15, epsrel=1e-14, limit=200)
    return K, E


def _wire(loop, n_seg):
    """Midpoints and length elements of a wire circle cut into n_seg pieces."""
    theta = (np.arange(n_seg) + 0.5) * (2.0 * math.pi / n_seg)
    pts = np.stack([np.full(n_seg, loop.x_c),
                    loop.r_c * np.cos(theta),
                    loop.r_c * np.sin(theta)], axis=1)
    dl = (2.0 * math.pi * loop.r_c / n_seg) * np.stack(
        [np.zeros(n_seg), -np.sin(theta), np.cos(theta)], axis=1)
    return pts, dl


def _biot_savart_loop(p, loop, n_seg=4096):
    """Direct line-integral oracle over a segmented wire circle.

    The periodic midpoint sum converges geometrically in n_seg for points
    well off the wire, so n_seg = 4096 is converged to rounding wherever the
    tests sample (at least r_c/3 from the wire); longer sums only gather
    rounding error (6.8e-14 at 10^6 segments against 5.7e-15 at 4096).  The
    sum at 2 n_seg must agree to 1e-14, or the oracle refuses the point."""
    def midpoint_sum(n):
        pts, dl = _wire(loop, n)
        rvec = np.asarray(p, dtype=float) - pts
        r3 = np.sum(rvec * rvec, axis=1) ** 1.5
        contrib = np.cross(dl, rvec) / r3[:, None]
        return CONSTANTS.mu0 * loop.mmf / (4.0 * math.pi) * contrib.sum(axis=0)

    B, B2 = midpoint_sum(n_seg), midpoint_sum(2 * n_seg)
    assert np.linalg.norm(B - B2) <= 1e-14 * np.linalg.norm(B2), \
        "line integral not converged at this point"
    return B


def _biot_savart_gradient(p, coil, n_seg=256):
    """Line-integral oracle for J_ij = dB_i/dx_j: the exact derivative of
    each midpoint term dl x R / |R|^3, R = p - wire.  Off the wire the
    midpoint sum over a closed loop converges geometrically in n_seg."""
    J = np.zeros((3, 3))
    for loop in coil.loops:
        pts, dl = _wire(loop, n_seg)
        R = np.asarray(p, dtype=float) - pts
        R2 = np.sum(R * R, axis=1)
        # d(dl x R)_i/dR_j = (dl x e_j)_i and d|R|^-3/dR_j = -3 R_j |R|^-5
        dl_x_e = np.cross(dl[:, None, :], np.eye(3)[None, :, :])  # [n, j, i]
        J += CONSTANTS.mu0 * loop.mmf / (4.0 * math.pi) * (
            np.einsum("nji,n->ij", dl_x_e, R2 ** -1.5)
            - 3.0 * np.einsum("ni,nj,n->ij", np.cross(dl, R), R, R2 ** -2.5))
    return J


def test_elliptic_degenerate_modulus():
    K, E = complete_elliptic_KE(0.0)
    assert K == math.pi / 2.0
    assert E == math.pi / 2.0


def test_elliptic_against_quadrature():
    for m in (1e-6, 0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 0.9999):
        K, E = complete_elliptic_KE(m)
        Kq, Eq = _ke_quadrature(m)
        assert abs(K - Kq) <= 1e-12 * Kq
        assert abs(E - Eq) <= 1e-12 * Eq


def test_elliptic_near_singular_limit():
    K, E = complete_elliptic_KE(1.0 - 1e-10)
    assert K > 10.0
    assert E == pytest.approx(1.0, rel=1e-4)


def test_elliptic_domain_errors():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            complete_elliptic_KE(bad)


def test_loop_center_field():
    loop = LoopSource(r_c=0.03, x_c=0.0, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    B = coil.field_at((0.0, 0.0, 0.0))
    assert B[0] == pytest.approx(CONSTANTS.mu0 * 564.0 / (2.0 * 0.03), rel=1e-14)
    assert B[1] == 0.0 and B[2] == 0.0


def test_loop_on_axis_formula():
    loop = LoopSource(r_c=0.02, x_c=0.005, mmf=120.0)
    coil = CoilAssembly(loops=(loop,))
    for x in (-0.03, 0.0, 0.011, 0.08):
        B = coil.field_at((x, 0.0, 0.0))
        s = x - loop.x_c
        want = CONSTANTS.mu0 * 120.0 * 0.02**2 / (
            2.0 * (0.02**2 + s * s) ** 1.5)
        assert B[0] == pytest.approx(want, rel=1e-13)


def test_loop_field_against_line_integral(rng):
    loop = LoopSource(r_c=0.03, x_c=0.01, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    for _ in range(12):
        x = float(rng.uniform(-0.02, 0.04))
        rho = float(rng.uniform(0.002, 0.02))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        p = (x, rho * math.cos(ang), rho * math.sin(ang))
        got = coil.field_at(p)
        want = _biot_savart_loop(p, loop)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_transverse_ratio_identity(rng):
    loop = LoopSource(r_c=0.03, x_c=0.0, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    for _ in range(20):
        p = (float(rng.uniform(-0.02, 0.02)),
             float(rng.uniform(0.003, 0.02)),
             float(rng.uniform(-0.02, 0.02)))
        B = coil.field_at(p)
        if B[1] != 0.0:
            assert B[2] / B[1] == pytest.approx(p[2] / p[1], rel=1e-10)


def test_near_axis_series_continuous_at_seam():
    # compare the rho-independent profiles B_x and B_y/y across the seam;
    # the tolerance is set by the elliptic branch, whose transverse bracket
    # cancels as (r_c/rho)^2, to ~1e-10 relative at the seam (the series
    # side is exact to machine precision there, as the line-integral oracle
    # confirms)
    loop = LoopSource(r_c=0.03, x_c=0.0, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    rho_seam = _RHO_SERIES_FACTOR * 0.03
    for x in (-0.01, 0.002, 0.014):
        y_in, y_out = 0.999999 * rho_seam, 1.000001 * rho_seam
        inner = coil.field_at((x, y_in, 0.0))
        outer = coil.field_at((x, y_out, 0.0))
        assert inner[0] == pytest.approx(outer[0], rel=1e-10)
        assert inner[1] / y_in == pytest.approx(outer[1] / y_out, rel=1e-9)


def test_near_axis_series_against_line_integral():
    # inside the series zone the closed chain is series -> oracle directly
    loop = LoopSource(r_c=0.03, x_c=0.0, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    for x, rho in ((-0.01, 2.9e-6), (0.004, 1e-6), (0.0, 2e-6)):
        p = (x, rho / math.sqrt(2.0), rho / math.sqrt(2.0))
        got = coil.field_at(p)
        want = _biot_savart_loop(p, loop)
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        if abs(want[1]) > 0:
            assert got[1] == pytest.approx(want[1], rel=1e-8)


def test_wire_circle_rejected():
    loop = LoopSource(r_c=0.03, x_c=0.0, mmf=564.0)
    coil = CoilAssembly(loops=(loop,))
    with pytest.raises(ValueError):
        coil.field_at((0.0, 0.03, 0.0))


def test_assembly_center_null_and_antisymmetry(coil_564, rng):
    assert np.all(coil_564.field_at((0.0, 0.0, 0.0)) == 0.0)
    for _ in range(10):
        p = rng.uniform(-0.01, 0.01, size=3)
        plus = coil_564.field_at(p)
        minus = coil_564.field_at(-p)
        scale = np.linalg.norm(plus)
        assert np.linalg.norm(plus + minus) <= 1e-12 * max(scale, 1e-30)


def test_axial_antisymmetry(coil_564):
    bx1 = coil_564.field_at((0.004, 0.0, 0.0))[0]
    bx2 = coil_564.field_at((-0.004, 0.0, 0.0))[0]
    assert bx1 == pytest.approx(-bx2, rel=1e-13)


def test_central_gradient_matches_design_value(coil_564):
    J = field_jacobian((0.0, 0.0, 0.0), coil_564)
    assert J[0, 0] == pytest.approx(0.663, rel=2e-2)
    # analytic central gradient of the ideal anti-Helmholtz pair
    rc, dc, F = 0.03, 0.03, 564.0
    analytic = 1.5 * CONSTANTS.mu0 * F * rc**2 * dc / (rc**2 + dc**2 / 4) ** 2.5
    assert J[0, 0] == pytest.approx(analytic, rel=1e-8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.floats(-0.03, 0.03),
       log_rho=st.floats(-7.0, math.log10(2.0)),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_jacobian_traceless_and_symmetric(x, log_rho, angle):
    coil = CoilAssembly.anti_helmholtz(r_c=0.03, d_c=0.03, mmf=564.0)
    rho = 0.03 * 10.0 ** log_rho
    # stay off the wire circles (x = +-15 mm, rho = r_c)
    assume(math.hypot(abs(x) - 0.015, rho - 0.03) > 1e-3 * 0.03)
    J = field_jacobian((x, rho * math.cos(angle), rho * math.sin(angle)), coil)
    scale = np.max(np.abs(J))
    assert abs(np.trace(J)) <= 1e-12 * scale
    assert np.max(np.abs(J - J.T)) <= 1e-12 * scale


def test_jacobian_against_line_integral_gradient(coil_564, rng):
    # |x| <= 12 mm and rho log-uniform in [1e-7, 0.4] r_c, across the series
    # switch and the closed form's cancellation band
    for _ in range(200):
        rho = 0.03 * 10.0 ** rng.uniform(-7.0, math.log10(0.4))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p = (rng.uniform(-0.012, 0.012), rho * math.cos(ang), rho * math.sin(ang))
        J = field_jacobian(p, coil_564)
        want = _biot_savart_gradient(p, coil_564)
        assert np.max(np.abs(J - want)) <= 1e-9 * np.max(np.abs(want))
        assert np.array_equal(coil_564.jacobian_at(p), J)


def test_field_and_jacobian_batch_matches_rows_and_line_integral(coil_564):
    edge = _RHO_SERIES_FACTOR * 0.03
    pts = np.array([
        # on the axis
        (0.0, 0.0, 0.0), (2e-3, 0.0, 0.0), (-5e-3, 0.0, 0.0),
        # inside the series zone
        (1e-4, 0.3 * edge, 0.2 * edge), (-3e-3, 0.0, 0.9 * edge),
        (7e-3, -0.5 * edge, 0.5 * edge),
        # elliptic closed form
        (1e-4, 2.0 * edge, 0.0), (4e-3, 1e-3, -2e-3), (-1e-2, 5e-3, 3e-3),
    ])
    B, J = field_and_jacobian(coil_564, pts)
    assert B.shape == (9, 3) and J.shape == (9, 3, 3)
    for p, b, j in zip(pts, B, J):
        assert np.array_equal(b, coil_564.field_at(p))
        assert np.array_equal(j, coil_564.jacobian_at(p))
        want = _biot_savart_gradient(p, coil_564)
        assert np.max(np.abs(j - want)) <= 1e-9 * np.max(np.abs(want))


def test_jacobian_continuous_across_series_switch(coil_564):
    edge = _RHO_SERIES_FACTOR * 0.03
    for x in (0.0, 1e-6, -1e-6, 1e-4, -1e-4, 1e-3, -1e-3):
        for ang in 2.0 * math.pi * np.arange(7) / 7:
            inner, outer = (
                field_jacobian((x, rho * math.cos(ang), rho * math.sin(ang)),
                               coil_564)
                for rho in (edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)))
            scale = max(np.max(np.abs(inner)), np.max(np.abs(outer)))
            assert np.max(np.abs(inner - outer)) <= 5e-10 * scale


def test_gradient_linearity_on_axis(coil_564):
    # the d_c = r_c pair misses the third-order cancellation, so the cubic
    # term contributes ~1.07% at exactly r_c/10; bound accordingly
    J = field_jacobian((0.0, 0.0, 0.0), coil_564)
    bprime = J[0, 0]
    for x in np.linspace(-0.003, 0.003, 13):
        if x == 0.0:
            continue
        bx = coil_564.field_at((x, 0.0, 0.0))[0]
        assert abs(bx - bprime * x) <= 0.011 * abs(bprime * x)
    for x in np.linspace(-0.002, 0.002, 9):
        if x == 0.0:
            continue
        bx = coil_564.field_at((x, 0.0, 0.0))[0]
        assert abs(bx - bprime * x) <= 0.005 * abs(bprime * x)


def test_field_map_axis_row_is_purely_axial(coil_564):
    xs = np.linspace(-0.002, 0.002, 9)
    q, B = field_map(coil_564, 0.0, xs, [0.0])
    assert q.shape == B.shape == (9, 3)
    assert np.array_equal(q[:, 0], xs)
    assert np.all(B[:, 1] == 0.0) and np.all(B[:, 2] == 0.0)


def test_field_map_off_plane_bz_nearly_uniform(coil_564):
    # z = 10 um window: B_z varies little across the mapped region
    xs = np.linspace(-5e-5, 5e-5, 9)
    ys = np.linspace(-5e-5, 5e-5, 9)
    _q, B = field_map(coil_564, 10e-6, xs, ys)
    bz = B[:, 2]
    assert (bz.max() - bz.min()) <= 0.02 * max(abs(bz.max()), abs(bz.min()))


def test_field_map_single_cell_origin(coil_564):
    q, B = field_map(coil_564, 0.0, [0.0], [0.0])
    assert q.shape == B.shape == (1, 3)
    assert B.tolist() == [[0.0, 0.0, 0.0]]


def test_field_map_rejects_non_finite():
    coil = CoilAssembly(loops=(LoopSource(r_c=0.03, x_c=0.0, mmf=math.inf),))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        field_map(coil, 0.0, [0.0, 1e-3], [0.0])


def test_uniform_gradient_source_consistency():
    src = UniformGradientField(0.663)
    p = (1e-6, 2e-6, -3e-6)
    B, J = field_and_jacobian(src, [p])
    assert B[0, 0] == pytest.approx(0.663 * 1e-6, rel=1e-15)
    assert np.trace(J[0]) == pytest.approx(0.0, abs=1e-18)
    with pytest.raises(ValueError):
        UniformGradientField(0.0)


def test_anti_helmholtz_constructor_contract():
    coil = CoilAssembly.anti_helmholtz(r_c=0.05, d_c=0.04, mmf=100.0)
    f0, f1 = coil.loops
    assert f0.mmf == -f1.mmf
    assert f0.x_c == -f1.x_c
    assert (f0.x_c, f1.x_c) == pytest.approx((0.02, -0.02))
    with pytest.raises(ValueError):
        CoilAssembly.anti_helmholtz(r_c=0.05, d_c=0.0, mmf=100.0)


def test_empty_assembly_rejected_at_construction():
    with pytest.raises(ValueError, match="at least one loop"):
        CoilAssembly(loops=())
