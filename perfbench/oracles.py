"""Independent computations the benchmark checks ndspin's outputs against.

Nothing here imports ``ndspin``.  The constants are typed in again (CODATA
2018, the values ndspin's defaults use), the closed forms are written from
their formulas, the coil field comes from a line-integral Biot-Savart sum
instead of elliptic integrals, and trajectories are re-integrated with
scipy's DOP853 under that field.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

HBAR = 1.054571817e-34
MU0 = 1.25663706212e-6
C_LIGHT = 299792458.0
G_NEWTON = 6.67430e-11
GAMMA_E = 1.76085963023e11


# --- trap and protocol closed forms ------------------------------------------

def trap_omega(bprime: float, chi: float, density: float) -> float:
    """omega = B' sqrt(|chi| V / (mu0 m)) with V / m = 1 / density."""
    return bprime * math.sqrt(chi / (MU0 * density))


def branch_offsets(mass: float, density: float, chi: float, b0: float,
                   bprime: float) -> tuple[float, float]:
    """Equilibria x0_(+/-) = -(|chi| V B0 +/- hbar gamma_e mu0) / (|chi| V B')."""
    chi_v = chi * mass / density
    spin = HBAR * GAMMA_E * MU0
    return (-(chi_v * b0 + spin) / (chi_v * bprime),
            -(chi_v * b0 - spin) / (chi_v * bprime))


def protocol_time(mass: float, bprime: float, density: float, chi: float,
                  epsilon: float, target: float, full_cycle: bool) -> dict:
    """Protocol timing at one (m, B') cell from closed forms only.

    The full-cycle sweep phase is
    (G m^2/hbar)(2 pi/omega)[1/sqrt(d(d-dx)) + 1/sqrt(d(d+dx)) - 2/d],
    evaluated in the cancellation-free form
    e^2 (4 - 2/(1+C)) / (C (A + B + 2C)) / d with e = dx/d, A = sqrt(1-e),
    B = sqrt(1+e), C = sqrt(1-e^2).
    """
    volume = mass / density
    omega = trap_omega(bprime, chi, density)
    period = 2.0 * math.pi / omega
    dx = 4.0 * HBAR * GAMMA_E * MU0 / (chi * volume * bprime)
    delta_cp = (2.01413 / 2.0) * (
        C_LIGHT * HBAR * volume**2 * (epsilon - 1.0) ** 2
        / (G_NEWTON * mass**2 * (2.0 + epsilon) ** 2)) ** (1.0 / 6.0)
    d = dx + delta_cp
    k = G_NEWTON * mass**2 / HBAR
    if full_cycle:
        e = dx / d
        a, b, c = math.sqrt(1.0 - e), math.sqrt(1.0 + e), math.sqrt(1.0 - e * e)
        bracket = e * e * (4.0 - 2.0 / (1.0 + c)) / (c * (a + b + 2.0 * c)) / d
        phi_bd = k * period * bracket
    else:
        phi_bd = 0.0
    hold_rate = k * 2.0 * dx * dx / (d * (d * d - dx * dx))
    t_hold = max(0.0, (target - phi_bd) / hold_rate)
    return {"t_total": period + t_hold, "t_hold": t_hold, "period": period,
            "phi_bd": phi_bd, "hold_rate": hold_rate, "d": d, "dx": dx}


# --- coil field ---------------------------------------------------------------

def loops_of(radius: float, separation: float, mmf: float) -> list[tuple]:
    """Anti-Helmholtz pair as (r_c, x_c, mmf): +mmf at +d/2, -mmf at -d/2."""
    return [(radius, 0.5 * separation, mmf), (radius, -0.5 * separation, -mmf)]


def axis_field(s: float, loops) -> float:
    """On-axis B_x = sum of mu0 F r_c^2 / (2 (r_c^2 + (s - x_c)^2)^{3/2})."""
    return sum(MU0 * f * rc * rc / (2.0 * (rc * rc + (s - xc) ** 2) ** 1.5)
               for rc, xc, f in loops)


_N_WIRE = 32


def _wire(loops):
    """Wire midpoints, segment vectors and currents, loop axis along x."""
    phi = 2.0 * math.pi * (np.arange(_N_WIRE) + 0.5) / _N_WIRE
    dphi = 2.0 * math.pi / _N_WIRE
    pts, dls, cur = [], [], []
    for rc, xc, f in loops:
        pts.append(np.stack([np.full_like(phi, xc), rc * np.cos(phi),
                             rc * np.sin(phi)], axis=1))
        dls.append(np.stack([np.zeros_like(phi), -rc * np.sin(phi) * dphi,
                             rc * np.cos(phi) * dphi], axis=1))
        cur.append(np.full_like(phi, f))
    return np.concatenate(pts), np.concatenate(dls), np.concatenate(cur)


class BiotSavart:
    """Line-integral Biot-Savart field and gradient of a set of loops.

    The midpoint sum over a closed loop converges geometrically, like
    (rho / r_c)^N, so 32 points per loop reach machine precision within a
    few micrometres of the axis (16, 32 and 256 points agree to 2e-16).
    """

    def __init__(self, loops):
        self.pts, self.dls, self.cur = _wire(loops)
        self.pref = MU0 / (4.0 * math.pi) * self.cur

    def field(self, p) -> np.ndarray:
        r = np.asarray(p, dtype=float) - self.pts
        inv3 = np.sum(r * r, axis=1) ** -1.5
        return np.sum((self.pref * inv3)[:, None] * np.cross(self.dls, r), axis=0)

    def field_and_jacobian(self, p) -> tuple[np.ndarray, np.ndarray]:
        """B and J_ij = dB_i/dp_j of dB = k dl x r / |r|^3, r = p - wire."""
        r = np.asarray(p, dtype=float) - self.pts
        r2 = np.sum(r * r, axis=1)
        w3 = self.pref * r2 ** -1.5
        w5 = 3.0 * self.pref * r2 ** -2.5
        cr = np.cross(self.dls, r)
        B = np.sum(w3[:, None] * cr, axis=0)
        # d(dl x r)_i/dr_j is row i of the cross-product matrix of dl, and
        # d|r|^-3/dr_j = -3 r_j |r|^-5.
        lx, ly, lz = self.dls[:, 0], self.dls[:, 1], self.dls[:, 2]
        zero = np.zeros_like(lx)
        eps_dl = np.stack([np.stack([zero, -lz, ly], axis=1),
                           np.stack([lz, zero, -lx], axis=1),
                           np.stack([-ly, lx, zero], axis=1)], axis=1)
        J = (np.einsum("n,nij->ij", w3, eps_dl)
             - np.einsum("n,ni,nj->ij", w5, cr, r))
        return B, J


# --- trajectory re-integration -----------------------------------------------

def flip_boundaries(omega_dd: float, delta: float, t_end: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin flips at k 2 pi / omega_dd (k >= 1), field flips delta / omega_dd
    later, both kept strictly inside (0, t_end); returns the sorted segment
    boundaries including 0 and t_end, and the two flip lists."""
    dt = 2.0 * math.pi / omega_dd
    n = int(math.floor(t_end / dt + 1e-12))
    spin = dt * np.arange(1, n + 1)
    spin = spin[spin < t_end]
    field = spin + delta / omega_dd
    field = field[field < t_end]
    bounds = np.unique(np.concatenate(([0.0, t_end], spin, field)))
    return bounds, spin, field


def segment_count(omega_dd: float, delta: float, t_end: float) -> int:
    return len(flip_boundaries(omega_dd, delta, t_end)[0]) - 1


def reintegrate(bs: BiotSavart, q0, spin0: int, mass: float, volume: float,
                chi: float, omega_dd: float, delta: float, t_end: float,
                t_eval: np.ndarray, rtol: float = 1e-12, atol_pos: float = 1e-16,
                atol_vel: float = 1e-16) -> np.ndarray:
    """Positions (n, 3) at ``t_eval`` from rest at ``q0``: DOP853 under the
    line-integral field, restarted at every spin and current flip, with the
    moment -|chi| V B / mu0 - s hbar gamma_e x_hat (the gamma_e convention)."""
    bounds, spin_flips, field_flips = flip_boundaries(omega_dd, delta, t_end)
    atol = np.array([atol_pos] * 3 + [atol_vel] * 3)
    out = np.empty((len(t_eval), 3))
    y = np.array([*q0, 0.0, 0.0, 0.0])
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (t0 + t1)
        s = spin0 * (-1) ** int(np.sum(spin_flips <= mid))
        fs = (-1.0) ** int(np.sum(field_flips <= mid))

        def rhs(_t, yy, s=s, fs=fs):
            B, J = bs.field_and_jacobian(yy[:3])
            mu = (-chi * volume / MU0) * fs * B
            mu[0] -= s * HBAR * GAMMA_E
            return np.concatenate((yy[3:], fs * (J @ mu) / mass))

        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=rtol,
                        atol=atol, dense_output=True)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed: {sol.message}")
        sel = (t_eval >= t0) & (t_eval <= t1)
        if np.any(sel):
            out[sel] = sol.sol(t_eval[sel])[:3].T
        y = sol.y[:, -1]
    return out
