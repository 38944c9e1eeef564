"""Test-only textbook amplitudes of the complex barrier (vc=1, vq=0).

The general routes must reduce there to the standard square-barrier forms

    T = exp(-i*eps*lam) / [cosh(a*lam) + i*(1 - 2*eps**2)/(2*eps) * shc(a, lam)],
    |T|**2 = 1/(1 + shc(a, lam)**2/(4*eps**2)),

with a = sqrt(1 - eps**2) on the principal branch and shc(a, lam) =
sinh(a*lam)/a: sinh(k*lam)/k below the threshold and sin(k*lam)/k above
it, k = sqrt(|1 - eps**2|), and lam at eps = 1.
"""

import cmath


def _shc(a: complex, lam: float) -> complex:
    """sinh(a*lam)/a, and lam at a = 0."""
    return cmath.sinh(a * lam) / a if a else complex(lam)


def complex_t(eps: float, lam: float) -> complex:
    """T of the complex barrier in its single analytic form."""
    a = cmath.sqrt(1.0 - eps * eps)
    den = cmath.cosh(a * lam) + 1j * (1.0 - 2.0 * eps * eps) / (2.0 * eps) * _shc(a, lam)
    return cmath.exp(-1j * eps * lam) / den


def complex_probability(eps: float, lam: float) -> float:
    """|T|**2 of the complex barrier in its two real forms."""
    s = _shc(cmath.sqrt(1.0 - eps * eps), lam).real
    return 1.0 / (1.0 + s * s / (4.0 * eps * eps))
