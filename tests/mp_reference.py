"""Test-only reference amplitudes: the exponential-basis 8x8 solved in mpmath.

The unknowns and equations are those of `qbarrier.solver` in its original
exponential basis,

    zone II: (1 + j*gamma)*(A*exp(am*xi) + B*exp(-am*xi))
             + (beta + j)*(At*exp(ap*xi) + Bt*exp(-ap*xi)),

assembled from the defining formulas of `qbarrier.barrier` and solved by
mpmath's LU at 30 + 2*Re(alpha)*lam/ln(10) digits, never fewer than 50.
The growth term pays for the cancellation between the exp(+-alpha*lam)
columns, so about 30 digits survive at any width.  The Tt column is
solved for Tt*exp(-eps*lam) and divided back afterwards: unscaled, its
exp(-eps*lam) entries make LU call thick wells numerically singular.  Tt
itself overflows to inf beyond lam*eps ~ 709.

The basis is singular where alpha_minus or alpha_plus vanishes, at
eps = 1; there the reference is taken at eps = 1 + 1e-30, where T differs
from its eps = 1 value by about 1e-30.
"""

import cmath
import math

import mpmath as mp

#: where eps = 1 is replaced by its neighbour
THRESHOLD_OFFSET = mp.mpf("1e-30")


def reference_amplitudes(eps: float, vc: float, vq: float, theta: float, lam: float, right_edge: bool = False):
    """(r, rt, t, tt) as Python complex numbers, from the mpmath solve.

    With right_edge, Tt's right-edge datum Tt*exp(-eps*lam) takes its place.
    """
    with mp.workdps(_digits(eps, vc, vq, lam)):
        e = mp.mpf(eps) + (THRESHOLD_OFFSET if eps == 1.0 else 0)
        x = _solve(e, *(mp.mpf(v) for v in (vc, vq, theta, lam)))
        return complex(x[0]), complex(x[1]), complex(x[2]), complex(x[3] if right_edge else x[3] / mp.exp(-e * lam))


def reference_width_peak(eps0: float, vc: float, vq: float, theta: float, lam0: float) -> float:
    """The width near lam0 at which the referee's |T|**2 at eps0 is largest.

    The root of mp.diff of |T|**2 over lam, by mp.findroot started at lam0,
    at the digits `reference_amplitudes` takes at 1.5*lam0.
    """
    with mp.workdps(_digits(eps0, vc, vq, 1.5 * lam0)):
        e, vc, vq, theta = (mp.mpf(v) for v in (eps0, vc, vq, theta))

        def prob(lam):
            return abs(_solve(e, vc, vq, theta, lam)[2]) ** 2

        return float(mp.findroot(lambda lam: mp.diff(prob, lam), mp.mpf(lam0)))


def _digits(eps: float, vc: float, vq: float, lam: float) -> int:
    """30 + 2*Re(alpha)*lam/ln(10) working digits, never fewer than 50."""
    root = cmath.sqrt(eps**4 - vq**2 + 0j)
    growth = max(cmath.sqrt(vc - root).real, cmath.sqrt(vc + root).real) * lam
    return max(50, 30 + math.ceil(2.0 * growth / math.log(10.0)))


def _solve(e, vc, vq, theta, lam):
    """The solution (R, Rt, T, Tt*exp(-e*lam), A, B, At, Bt) at mpmath inputs and the working digits."""
    root = mp.sqrt(mp.mpc(e**4 - vq**2))
    am, ap = mp.sqrt(vc - root), mp.sqrt(vc + root)
    beta = 1j * vq * mp.expj(theta) / (e**2 + root)
    gamma = -1j * vq * mp.expj(-theta) / (e**2 + root)
    r, ie = ap / am, 1j * e / am
    e1p, e1m, e2p, e2m = mp.exp(am * lam), mp.exp(-am * lam), mp.exp(ap * lam), mp.exp(-ap * lam)
    phase = mp.expj(e * lam)
    mat = mp.matrix([
        [-1, 0, 0, 0, 1, 1, beta, beta],
        [ie, 0, 0, 0, 1, -1, r * beta, -r * beta],
        [0, -1, 0, 0, gamma, gamma, 1, 1],
        [0, -e / am, 0, 0, gamma, -gamma, r, -r],
        [0, 0, -phase, 0, e1p, e1m, beta * e2p, beta * e2m],
        [0, 0, -ie * phase, 0, e1p, -e1m, r * beta * e2p, -r * beta * e2m],
        [0, 0, 0, -1, gamma * e1p, gamma * e1m, e2p, e2m],
        [0, 0, 0, e / am, gamma * e1p, -gamma * e1m, r * e2p, -r * e2m],
    ])
    return mp.lu_solve(mat, mp.matrix([1, ie, 0, 0, 0, 0, 0, 0]))
