"""Exact amplitudes at the diffusion/tunneling threshold eps = 1.

At eps = 1 the general closed formula degenerates (alpha_minus = 0), but
the two extreme barriers admit exact elementary solutions:

  * complex barrier (vc=1, vq=0): the interior complex part is linear in
    xi and the amplitudes are rational in lam,
        R = -i*lam/(2 - i*lam),   T = 2*exp(-i*lam)/(2 - i*lam);

  * pure quaternionic barrier (vq=1): the interior solution is a cubic
    polynomial and the amplitudes are rational of degree four,
        R = -i*lam**2*(6 + 4*lam + lam**2) / den(lam)
        T = 2*exp(-i*lam)*(12 + 12*lam + 6*lam**2 + lam**3) / den(lam)
        den(lam) = 24 + 24*(1-i)*lam - 18i*lam**2 - 4*(1+i)*lam**3 - lam**4.

Both satisfy |R|**2 + |T|**2 = 1 identically.  den(lam) has no real root
for lam >= 0 (its modulus stays above 24 on [0, 100] and grows like
lam**4 beyond), so the rational forms are globally safe.

The evanescent amplitudes rt, tt are not part of the rational forms; they
are recovered by re-imposing continuity on the interior solution, with a
consistency residual as the guard.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .barrier import require_finite
from .errors import QBarrierError
from .quaternion import Quaternion

#: relative consistency tolerance for the recovered evanescent amplitudes
_RECOVERY_TOL = 1e-8


@dataclass(frozen=True)
class CriticalZone2:
    """Interior solution coefficients at eps = 1.

    For the complex case the complex part is a*xi + b and the pure part is
    c*exp(sqrt(2)*xi) + d*exp(-sqrt(2)*xi) (c = d = 0 for scattering
    boundary data).  For the pure quaternionic case the complex part is
    the cubic a*xi**3 + b*xi**2 + c*xi + d and the pure part is the paired
    cubic -i*exp(-i*theta)*(a*xi**3 + b*xi**2 + (6a + c)*xi + 2b + d).
    """

    case: str  # "complex" or "pure_quaternionic"
    a: complex
    b: complex
    c: complex
    d: complex
    theta: float = 0.0


@dataclass(frozen=True)
class CriticalAmplitudes:
    """Threshold amplitudes; the complex case has rt = tt = 0 exactly.

    rt and tt are None when exp(lam) overflows the recovery (lam > ~700);
    r and t stay exact at any width.
    """

    case: str
    lam: float
    r: complex
    t: complex
    rt: complex | None
    tt: complex | None
    zone2: CriticalZone2


def critical_complex(lam: float) -> CriticalAmplitudes:
    """Threshold amplitudes for the complex barrier (vc=1), exact for lam >= 0."""
    require_finite("lam", lam, 0.0)
    den = 2.0 - 1j * lam
    r = -1j * lam / den
    t = 2.0 * cmath.exp(-1j * lam) / den
    zone2 = CriticalZone2(case="complex", a=1j * (1.0 - r), b=1.0 + r, c=0j, d=0j)
    return CriticalAmplitudes(case="complex", lam=lam, r=r, t=t, rt=0j, tt=0j, zone2=zone2)


def critical_quaternionic(lam: float, theta: float = 0.0) -> CriticalAmplitudes:
    """Threshold amplitudes for the pure quaternionic barrier (vq=1).

    r and t come from the exact rational forms; rt and tt are recovered
    from the interior cubic through the continuity conditions.  |t| is
    independent of theta; rt and tt carry the phase exp(-i*theta).
    """
    require_finite("lam", lam, 0.0)
    require_finite("theta", theta)
    if lam <= 1.0:
        den = 24.0 + 24.0 * (1.0 - 1j) * lam - 18j * lam**2 - 4.0 * (1.0 + 1j) * lam**3 - lam**4
        r = -1j * lam**2 * (6.0 + 4.0 * lam + lam**2) / den
        t = 2.0 * cmath.exp(-1j * lam) * (12.0 + 12.0 * lam + 6.0 * lam**2 + lam**3) / den
    else:  # the same forms divided by lam**4 (|den|/lam**4 >= 1), so no power can overflow
        s = 1.0 / lam
        den = 24.0 * s**4 + 24.0 * (1.0 - 1j) * s**3 - 18j * s**2 - 4.0 * (1.0 + 1j) * s - 1.0
        r = -1j * (6.0 * s**2 + 4.0 * s + 1.0) / den
        t = 2.0 * cmath.exp(-1j * lam) * (12.0 * s**4 + 12.0 * s**3 + 6.0 * s**2 + s) / den
    if abs(den) < 1.0:
        raise QBarrierError(f"rational denominator unexpectedly small at lam={lam!r}")

    if lam == 0.0:
        # Limit of the continuity solve as the barrier shrinks to a point.
        zone2 = CriticalZone2(case="pure_quaternionic", a=-1j / 6.0, b=-0.5, c=1j, d=1.0, theta=theta)
        return CriticalAmplitudes(
            case="pure_quaternionic", lam=lam, r=0j, t=1.0 + 0j, rt=0j, tt=0j, zone2=zone2
        )

    # Continuity of the complex part fixes the cubic: value/slope at 0 give
    # d and c, value/slope at lam give a 2x2 system for a and b.
    d = 1.0 + r
    c = 1j * (1.0 - r)
    t_edge = t * cmath.exp(1j * lam)
    p = t_edge - c * lam - d
    q = 1j * t_edge - c
    # solution of [[lam**3, lam**2], [3*lam**2, 2*lam]] @ (a, b) = (p, q)
    u = p / lam
    a = (q - 2.0 * u) / (lam * lam)
    b = (3.0 * u - q) / lam

    phase = -1j * cmath.exp(-1j * theta)
    # Both value and slope of the pure part at xi = 0 must yield the same rt.
    rt_value = phase * (2.0 * b + d)
    rt_slope = phase * (6.0 * a + c)
    scale = max(1.0, abs(rt_value), abs(rt_slope))
    if abs(rt_value - rt_slope) > _RECOVERY_TOL * scale:
        raise QBarrierError(
            f"evanescent amplitude recovery inconsistent at lam={lam!r}: "
            f"{rt_value!r} vs {rt_slope!r}"
        )
    try:
        grow = math.exp(lam)
    except OverflowError:
        grow = None
    if grow is None:
        tt_value = None
    else:
        poly_val = a * lam**3 + b * lam**2 + (6.0 * a + c) * lam + 2.0 * b + d
        poly_slope = 3.0 * a * lam**2 + 2.0 * b * lam + 6.0 * a + c
        tt_value = phase * poly_val * grow
        tt_slope = -phase * poly_slope * grow
        scale = max(1.0, abs(tt_value), abs(tt_slope))
        if abs(tt_value - tt_slope) > _RECOVERY_TOL * scale:
            raise QBarrierError(
                f"evanescent amplitude recovery inconsistent at lam={lam!r}: "
                f"{tt_value!r} vs {tt_slope!r}"
            )
    zone2 = CriticalZone2(case="pure_quaternionic", a=a, b=b, c=c, d=d, theta=theta)
    return CriticalAmplitudes(
        case="pure_quaternionic", lam=lam, r=r, t=t, rt=rt_value, tt=tt_value, zone2=zone2
    )


def critical_zone2(xi: float, coeffs: CriticalZone2) -> Quaternion:
    """Interior wavefunction value phi + j*psi at xi for a threshold solution."""
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    if coeffs.case == "complex":
        phi = a * xi + b
        root2 = math.sqrt(2.0)
        psi = c * cmath.exp(root2 * xi) + d * cmath.exp(-root2 * xi)
    elif coeffs.case == "pure_quaternionic":
        phi = a * xi**3 + b * xi**2 + c * xi + d
        psi = -1j * cmath.exp(-1j * coeffs.theta) * (
            a * xi**3 + b * xi**2 + (6.0 * a + c) * xi + 2.0 * b + d
        )
    else:
        raise ValueError(f"unknown case {coeffs.case!r}")
    return Quaternion(phi, psi)


_THIN_LIMIT = 0.3
_THICK_LIMIT = 10.0


def asymptotic_moduli(lam: float, regime: str, case: str) -> tuple[float, float]:
    """Truncated series for (|R|, |T|) in the thin or thick barrier regime.

    thin (lam << 1):
        complex:            lam/2 - lam**3/16,        1 - lam**2/8 + 3*lam**4/128
        pure quaternionic:  lam**2/4 - lam**3/12,     1 - lam**4/32
    thick (lam >> 1):
        complex:            1 - 2/lam**2 + 6/lam**4,  2/lam - 4/lam**3
        pure quaternionic:  1 - 2/lam**2 - 8/lam**3 + 6/lam**4,
                            2/lam + 4/lam**2 - 8/lam**3 - 8/lam**4
    """
    require_finite("lam", lam, 0.0)
    if case not in ("complex", "pure_quaternionic"):
        raise ValueError(f"unknown case {case!r}")
    if regime == "thin":
        if lam >= _THIN_LIMIT:
            warnings.warn(
                f"thin-barrier series used at lam={lam!r} (>= {_THIN_LIMIT})",
                RuntimeWarning,
                stacklevel=2,
            )
        if case == "complex":
            return (lam / 2.0 - lam**3 / 16.0, 1.0 - lam**2 / 8.0 + 3.0 * lam**4 / 128.0)
        return (lam**2 / 4.0 - lam**3 / 12.0, 1.0 - lam**4 / 32.0)
    if regime == "thick":
        if lam <= _THICK_LIMIT:
            warnings.warn(
                f"thick-barrier series used at lam={lam!r} (<= {_THICK_LIMIT})",
                RuntimeWarning,
                stacklevel=2,
            )
        if case == "complex":
            return (1.0 - 2.0 / lam**2 + 6.0 / lam**4, 2.0 / lam - 4.0 / lam**3)
        return (
            1.0 - 2.0 / lam**2 - 8.0 / lam**3 + 6.0 / lam**4,
            2.0 / lam + 4.0 / lam**2 - 8.0 / lam**3 - 8.0 / lam**4,
        )
    raise ValueError(f"unknown regime {regime!r}")
