"""Full boundary-matching solve and piecewise wavefunction evaluation.

The wavefunction in the three zones (xi in units of the inverse barrier
wave number, width lam):

    zone I   (xi < 0):        exp(i*eps*xi) + exp(-i*eps*xi)*R + j*exp(eps*xi)*Rt
    zone II  (0 <= xi <= lam): (1 + j*gamma)*(A*e(am*xi) + B*e(-am*xi))
                               + (beta + j)*(At*e(ap*xi) + Bt*e(-ap*xi))
    zone III (xi > lam):      exp(i*eps*xi)*T + j*exp(-eps*xi)*Tt

Continuity of value and derivative at xi = 0 and xi = lam, split into the
complex and the pure quaternionic part, gives eight complex equations for
the eight unknowns (R, Rt, T, Tt, A, B, At, Bt).  This module assembles
and solves that system directly - deliberately not through the transfer
matrix - so the closed formula has an independent in-repo check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .barrier import AdimensionalBarrier, WaveParams, wave_params
from .quaternion import I as QI, Quaternion, qconj, qmul

#: max-norm residual above which one refinement pass is applied
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Outer amplitudes (r, rt, t, tt) and interior coefficients (a, b, at, bt).

    The interior coefficients are None when produced by a route that does
    not construct the exponential basis (the brute-force integrator).
    """

    r: complex
    rt: complex
    t: complex
    tt: complex
    a: complex | None = None
    b: complex | None = None
    at: complex | None = None
    bt: complex | None = None
    residual: float | None = None
    condition: float | None = None


@dataclass(frozen=True)
class ZoneWavefunction:
    """Wavefunction value and derivative at one point, tagged by zone."""

    zone: str  # "I", "II" or "III"
    value: Quaternion
    derivative: Quaternion


def _assemble(p: WaveParams, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the continuity system.

    Unknown order: (R, Rt, T, Tt, A, B, At, Bt).
    """
    eps = p.eps
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    r = ap / am
    ie = 1j * eps / am
    e1p, e1m = cmath.exp(am * lam), cmath.exp(-am * lam)
    e2p, e2m = cmath.exp(ap * lam), cmath.exp(-ap * lam)
    phase = cmath.exp(1j * eps * lam)
    decay = cmath.exp(-eps * lam)

    mat = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros(8, dtype=complex)
    # value of the complex part at xi = 0
    mat[0] = [-1, 0, 0, 0, 1, 1, beta, beta]
    rhs[0] = 1.0
    # derivative of the complex part at xi = 0
    mat[1] = [ie, 0, 0, 0, 1, -1, r * beta, -r * beta]
    rhs[1] = ie
    # value of the pure quaternionic part at xi = 0
    mat[2] = [0, -1, 0, 0, gamma, gamma, 1, 1]
    # derivative of the pure quaternionic part at xi = 0
    mat[3] = [0, -eps / am, 0, 0, gamma, -gamma, r, -r]
    # value of the complex part at xi = lam
    mat[4] = [0, 0, -phase, 0, e1p, e1m, beta * e2p, beta * e2m]
    # derivative of the complex part at xi = lam
    mat[5] = [0, 0, -ie * phase, 0, e1p, -e1m, r * beta * e2p, -r * beta * e2m]
    # value of the pure quaternionic part at xi = lam
    mat[6] = [0, 0, 0, -decay, gamma * e1p, gamma * e1m, e2p, e2m]
    # derivative of the pure quaternionic part at xi = lam
    mat[7] = [0, 0, 0, eps / am * decay, gamma * e1p, -gamma * e1m, r * e2p, -r * e2m]
    return mat, rhs


def solve(eps: float, b: AdimensionalBarrier) -> ScatteringAmplitudes:
    """Solve the eight-equation continuity system.

    Raises:
        DegenerateEnergyError, ThresholdEnergyError: from `wave_params`.
    """
    p = wave_params(eps, b)
    mat, rhs = _assemble(p, b.lam)
    x = np.linalg.solve(mat, rhs)
    resid = float(np.abs(mat @ x - rhs).max())
    if resid > RESIDUAL_TOL:
        x = x + np.linalg.solve(mat, rhs - mat @ x)
        resid = float(np.abs(mat @ x - rhs).max())
    cond = float(np.abs(mat).max() * np.abs(np.linalg.inv(mat)).max())
    return ScatteringAmplitudes(
        r=complex(x[0]),
        rt=complex(x[1]),
        t=complex(x[2]),
        tt=complex(x[3]),
        a=complex(x[4]),
        b=complex(x[5]),
        at=complex(x[6]),
        bt=complex(x[7]),
        residual=resid,
        condition=cond,
    )


def probability_balance(amps: ScatteringAmplitudes) -> float:
    """Norm-conservation defect 1 - |R|**2 - |T|**2 (zero in exact arithmetic)."""
    return 1.0 - abs(amps.r) ** 2 - abs(amps.t) ** 2


def wavefunction(
    xi: float,
    amps: ScatteringAmplitudes,
    p: WaveParams,
    b: AdimensionalBarrier,
) -> ZoneWavefunction:
    """Evaluate the wavefunction and its derivative at xi."""
    eps = p.eps
    if xi < 0.0:
        phi = cmath.exp(1j * eps * xi) + amps.r * cmath.exp(-1j * eps * xi)
        dphi = 1j * eps * (cmath.exp(1j * eps * xi) - amps.r * cmath.exp(-1j * eps * xi))
        psi = amps.rt * cmath.exp(eps * xi)
        dpsi = eps * psi
        zone = "I"
    elif xi > b.lam:
        phi = amps.t * cmath.exp(1j * eps * xi)
        dphi = 1j * eps * phi
        psi = amps.tt * cmath.exp(-eps * xi)
        dpsi = -eps * psi
        zone = "III"
    else:
        if amps.a is None:
            raise ValueError("interior coefficients are required inside the barrier")
        am, ap = p.alpha_minus, p.alpha_plus
        low = amps.a * cmath.exp(am * xi) + amps.b * cmath.exp(-am * xi)
        dlow = am * (amps.a * cmath.exp(am * xi) - amps.b * cmath.exp(-am * xi))
        high = amps.at * cmath.exp(ap * xi) + amps.bt * cmath.exp(-ap * xi)
        dhigh = ap * (amps.at * cmath.exp(ap * xi) - amps.bt * cmath.exp(-ap * xi))
        phi = low + p.beta * high
        dphi = dlow + p.beta * dhigh
        psi = p.gamma * low + high
        dpsi = p.gamma * dlow + dhigh
        zone = "II"
    return ZoneWavefunction(
        zone=zone,
        value=Quaternion(phi, psi),
        derivative=Quaternion(dphi, dpsi),
    )


def current_density(state: ZoneWavefunction) -> float:
    """Probability current conj(Phi)*i*Phi' + h.c., constant across all zones."""
    flow = qmul(qmul(qconj(state.value), QI), state.derivative)
    return 2.0 * flow.scalar_part()
