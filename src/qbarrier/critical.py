"""Exact amplitudes at the diffusion/tunneling threshold eps = 1.

At eps = 1 a barrier's alpha_minus vanishes.  The general routes answer
there (see `barrier.shc`) unless the point is also degenerate, as it is
for vq = 1.  The two extreme barriers admit exact elementary solutions,
and in both the interior complex part is one cubic in xi,
    phi(xi) = a*xi**3 + b*xi**2 + c*xi + d,   c = i*(1 - R),   d = 1 + R,
fixed at xi = 0 by continuity with the free zone (R is the reflection
amplitude):

  * complex barrier (vc=1, vq=0): a = b = 0, so phi is linear, the pure
    part vanishes and the amplitudes are rational in lam,
        R = -i*lam/(2 - i*lam),   T = 2*exp(-i*lam)/(2 - i*lam),
    which the general routes reproduce;

  * pure quaternionic barrier (vq=1): phi is a full cubic, the pure part
    is the paired cubic
        psi(xi) = -i*exp(-i*theta)*(a*xi**3 + b*xi**2 + (6a + c)*xi + 2b + d),
    and the amplitudes are rational of degree four,
        R = -i*lam**2*(6 + 4*lam + lam**2) / den(lam)
        T = 2*exp(-i*lam)*(12 + 12*lam + 6*lam**2 + lam**3) / den(lam)
        den(lam) = 24 + 24*(1-i)*lam - 18i*lam**2 - 4*(1+i)*lam**3 - lam**4.

Both satisfy |R|**2 + |T|**2 = 1 identically.  den(lam) has no real root
for lam >= 0 (its modulus stays above 24 on [0, 100] and grows like
lam**4 beyond), so the rational forms are globally safe.

Continuity of the cubic with the free zones makes the rest of the pure
quaternionic solution rational over the same den(lam), with
phase = -i*exp(-i*theta):
    a  = (-4i - (2 + 4i)*lam - (1 + i)*lam**2) / den(lam)
    b  = (-12 + (-6 + 12i)*lam + (3 + 9i)*lam**2 + (2 + 2i)*lam**3) / den(lam)
    Rt = phase*lam*(12 + (6 - 6i)*lam - 4i*lam**2 - (1 + i)*lam**3) / den(lam)
    Tt = phase*exp(lam)*lam*(12 + (6 - 6i)*lam - 2i*lam**2) / den(lam).
At lam = 0 they give a = -i/6, b = -1/2, c = i, d = 1 and Rt = Tt = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .barrier import require_finite
from .quaternion import Quaternion

#: numerators over den(lam) of the pure quaternionic case, ascending powers of lam
_DEN = (24, 24 - 24j, -18j, -4 - 4j, -1)
_R = (0, 0, -6j, -4j, -1j)  # r
_T = (24, 24, 12, 2)  # t*exp(i*lam)
_A = (-4j, -2 - 4j, -1 - 1j)  # cubic coefficient a
_B = (-12, -6 + 12j, 3 + 9j, 2 + 2j)  # cubic coefficient b
_RT = (0, 12, 6 - 6j, -4j, -1 - 1j)  # rt/phase, phase = -i*exp(-i*theta)
_TT = (0, 12, 6 - 6j, -2j)  # tt/(phase*exp(lam))


@dataclass(frozen=True)
class CriticalAmplitudes:
    """Threshold amplitudes and the interior cubic's a and b, with theta.

    The cubic's c = i*(1 - r) and d = 1 + r follow from r (see the module
    docstring and `critical_zone2`).  The complex case has a = b = 0 and
    rt = tt = 0 exactly.  tt is None where exp(lam) overflows
    (lam > ~709.78); r, t and rt stay finite at any width.
    """

    case: str  # "complex" or "pure_quaternionic"
    lam: float
    r: complex
    t: complex
    rt: complex
    tt: complex | None
    a: complex
    b: complex
    theta: float


def critical_complex(lam: float) -> CriticalAmplitudes:
    """Threshold amplitudes for the complex barrier (vc=1), exact for lam >= 0."""
    require_finite("lam", lam, 0.0)
    den = 2.0 - 1j * lam
    r = -1j * lam / den
    t = 2.0 * cmath.exp(-1j * lam) / den
    return CriticalAmplitudes("complex", lam, r, t, rt=0j, tt=0j, a=0j, b=0j, theta=0.0)


def _over_lam4(coeffs: tuple, lam: float) -> complex:
    """p(lam) for lam <= 1 and p(lam)/lam**4 above, p given in ascending powers (degree <= 4).

    Horner's rule in lam or in 1/lam, so no power of lam can overflow.
    """
    if lam <= 1.0:
        x, seq = lam, coeffs[::-1]
    else:
        x, seq = 1.0 / lam, coeffs + (0,) * (5 - len(coeffs))
    acc = 0j
    for c in seq:
        acc = acc * x + c
    return acc


def critical_quaternionic(lam: float, theta: float = 0.0) -> CriticalAmplitudes:
    """Threshold amplitudes for the pure quaternionic barrier (vq=1).

    Every amplitude and cubic coefficient is one of the rational forms of
    the module docstring.  |t| is independent of theta; rt and tt carry the
    phase exp(-i*theta).
    """
    require_finite("lam", lam, 0.0)
    require_finite("theta", theta)
    den = _over_lam4(_DEN, lam)
    r = _over_lam4(_R, lam) / den
    t = _over_lam4(_T, lam) / den * cmath.exp(-1j * lam)
    a = _over_lam4(_A, lam) / den
    b = _over_lam4(_B, lam) / den
    phase = -1j * cmath.exp(-1j * theta)
    rt = phase * (_over_lam4(_RT, lam) / den)
    try:
        tt = phase * (_over_lam4(_TT, lam) / den) * math.exp(lam)
    except OverflowError:
        tt = None
    return CriticalAmplitudes("pure_quaternionic", lam, r, t, rt, tt, a, b, theta)


def critical_zone2(xi: float, amps: CriticalAmplitudes) -> Quaternion:
    """Interior wavefunction value phi + j*psi at xi for a threshold solution.

    phi is the cubic a*xi**3 + b*xi**2 + c*xi + d with c = i*(1 - r) and
    d = 1 + r; psi is its paired cubic in the pure quaternionic case and 0
    in the complex case.
    """
    a, b, c, d = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r
    phi = a * xi**3 + b * xi**2 + c * xi + d
    if amps.case == "complex":
        return Quaternion(phi)
    return Quaternion(phi, -1j * cmath.exp(-1j * amps.theta) * (
        a * xi**3 + b * xi**2 + (6.0 * a + c) * xi + 2.0 * b + d
    ))


#: the thin series applies below THIN_LIMIT, the thick series above THICK_LIMIT
THIN_LIMIT = 0.3
THICK_LIMIT = 10.0

#: the thick series of |R| and |T| times lam**4, ascending powers of lam (see `_over_lam4`)
_THICK_COMPLEX = ((6, 0, -2, 0, 1), (0, -4, 0, 2))
_THICK_QUATERNIONIC = ((6, -8, -2, 0, 1), (-8, -8, 4, 2))


def asymptotic_moduli(lam: float, case: str) -> tuple[str, float, float] | None:
    """Truncated series (regime, |R|, |T|) in the regime lam lies in, or None.

    thin (lam < THIN_LIMIT):
        complex:            lam/2 - lam**3/16,        1 - lam**2/8 + 3*lam**4/128
        pure quaternionic:  lam**2/4 - lam**3/12,     1 - lam**4/32
    thick (lam > THICK_LIMIT):
        complex:            1 - 2/lam**2 + 6/lam**4,  2/lam - 4/lam**3
        pure quaternionic:  1 - 2/lam**2 - 8/lam**3 + 6/lam**4,
                            2/lam + 4/lam**2 - 8/lam**3 - 8/lam**4
    No regime applies from THIN_LIMIT to THICK_LIMIT.
    """
    require_finite("lam", lam, 0.0)
    if case not in ("complex", "pure_quaternionic"):
        raise ValueError(f"unknown case {case!r}")
    if lam < THIN_LIMIT:
        if case == "complex":
            return ("thin", lam / 2.0 - lam**3 / 16.0, 1.0 - lam**2 / 8.0 + 3.0 * lam**4 / 128.0)
        return ("thin", lam**2 / 4.0 - lam**3 / 12.0, 1.0 - lam**4 / 32.0)
    if lam > THICK_LIMIT:
        r, t = _THICK_COMPLEX if case == "complex" else _THICK_QUATERNIONIC
        return ("thick", _over_lam4(r, lam).real, _over_lam4(t, lam).real)
    return None
