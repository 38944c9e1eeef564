"""Full boundary-matching solve and piecewise wavefunction evaluation.

The wavefunction in the three zones (xi in units of the inverse barrier
wave number, width lam):

    zone I   (xi < 0):        exp(i*eps*xi) + exp(-i*eps*xi)*R + j*exp(eps*xi)*Rt
    zone II  (0 <= xi <= lam): (1 + j*gamma)*(A*cosh(am*s) + B*shc(am, s))
                               + (beta + j)*(At*cosh(ap*s) + Bt*shc(ap, s))
    zone III (xi > lam):      exp(i*eps*xi)*T + j*exp(-eps*xi)*Tt

with s = xi - lam/2 and shc(a, s) = sinh(a*s)/a.  The basis is entire in
am**2 and ap**2, so the threshold eps = 1, where am or ap vanishes, is a
regular point; centring it on the barrier splits the growth of the fast
pair evenly between the two edges.  Continuity of value and derivative at
xi = 0 and xi = lam, split into the complex and the pure quaternionic
part, gives eight complex equations for the eight unknowns
(R, Rt, T, Tt, A, B, At, Bt).  This module assembles and solves that
system directly - deliberately not through the transfer matrix - so the
closed formula has an independent in-repo check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .barrier import AdimensionalBarrier, WaveParams, shc, wave_params
from .quaternion import I as QI, Quaternion


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Outer amplitudes (r, rt, t, tt) and interior coefficients (a, b, at, bt).

    a, b, at, bt multiply cosh(am*s), shc(am, s), cosh(ap*s) and shc(ap, s),
    s = xi - lam/2 (module docstring).  They are None when produced by a
    route that does not construct that basis (the brute-force integrator),
    which also gives tt as None where exp(eps*lam) overflows.
    """

    r: complex
    rt: complex
    t: complex
    tt: complex | None
    a: complex | None = None
    b: complex | None = None
    at: complex | None = None
    bt: complex | None = None


@dataclass(frozen=True)
class ZoneWavefunction:
    """Wavefunction value and derivative at one point, tagged by zone."""

    zone: str  # "I", "II" or "III"
    value: Quaternion
    derivative: Quaternion


def _assemble(p: WaveParams, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the continuity system.

    Unknown order: (R, Rt, T, Tt, A, B, At, Bt).  At the edges s = -+lam/2,
    where cosh(a*s) = c and shc(a, s) = -+h, with derivatives -+a**2*h and c.
    """
    eps = p.eps
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    half = 0.5 * lam
    cm, hm = cmath.cosh(am * half), shc(am, half)
    cp, hp = cmath.cosh(ap * half), shc(ap, half)
    dm, dp = am * am * hm, ap * ap * hp
    ie = 1j * eps
    phase = cmath.exp(ie * lam)
    decay = cmath.exp(-eps * lam)
    mat = np.array([
        # value and derivative of the complex part at xi = 0
        [-1, 0, 0, 0, cm, -hm, beta * cp, -beta * hp],
        [ie, 0, 0, 0, -dm, cm, -beta * dp, beta * cp],
        # value and derivative of the pure quaternionic part at xi = 0
        [0, -1, 0, 0, gamma * cm, -gamma * hm, cp, -hp],
        [0, -eps, 0, 0, -gamma * dm, gamma * cm, -dp, cp],
        # value and derivative of the complex part at xi = lam
        [0, 0, -phase, 0, cm, hm, beta * cp, beta * hp],
        [0, 0, -ie * phase, 0, dm, cm, beta * dp, beta * cp],
        # value and derivative of the pure quaternionic part at xi = lam
        [0, 0, 0, -decay, gamma * cm, gamma * hm, cp, hp],
        [0, 0, 0, eps * decay, gamma * dm, gamma * cm, dp, cp],
    ], dtype=complex)
    rhs = np.array([1, ie, 0, 0, 0, 0, 0, 0], dtype=complex)
    return mat, rhs


def solve(eps: float, b: AdimensionalBarrier) -> ScatteringAmplitudes:
    """Solve the eight-equation continuity system for the eight amplitudes.

    The inverse is applied to the right-hand side: `np.linalg.solve` is
    faster but moves the last bits of the amplitudes.

    Raises:
        DegenerateEnergyError: from `wave_params`.
    """
    mat, rhs = _assemble(wave_params(eps, b), b.lam)
    # the unknowns are ordered as the fields: (R, Rt, T, Tt, A, B, At, Bt)
    return ScatteringAmplitudes(*(np.linalg.inv(mat) @ rhs).tolist())


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
        s = xi - 0.5 * b.lam
        cm, hm = cmath.cosh(am * s), shc(am, s)
        cp, hp = cmath.cosh(ap * s), shc(ap, s)
        low = amps.a * cm + amps.b * hm
        dlow = amps.a * am * am * hm + amps.b * cm
        high = amps.at * cp + amps.bt * hp
        dhigh = amps.at * ap * ap * hp + amps.bt * cp
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
    flow = state.value.conjugate() * QI * state.derivative
    return 2.0 * flow.scalar_part()
