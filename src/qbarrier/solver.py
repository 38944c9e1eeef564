"""Full boundary-matching solve: the eight continuity equations of the wavefunction.

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
(R, Rt, T, Tt, A, B, At, Bt).  This module solves that system directly -
deliberately not through the transfer matrix or the closed formula's D -
so the closed formula has an independent in-repo check.

In the order (R, Rt, T, Tt, A, B, At, Bt) the rows are the value and the
derivative of the complex part at xi = 0 (r0, r1), of the quaternionic
part there (r2, r3), and the same four at xi = lam (r4 to r7).  With
c, h the cosh and shc of a mode at s = lam/2, ie = 1j*eps and
u = beta*gamma, four row combinations each remove one outer unknown:
ie*r0 + r1 removes R, r3 - eps*r2 removes Rt, r5 - ie*r4 removes T and
r7 + eps*r6 removes Tt.  The centred basis makes them split by parity:
the difference of the first and third, and of the fourth and second,
holds only the cosh coefficients, and the sums only the shc ones,

    P(am)*A + beta*P(ap)*At = ie,   gamma*U(am)*A + U(ap)*At = 0,
    Q(am)*B + beta*Q(ap)*Bt = ie,   gamma*V(am)*B + V(ap)*Bt = 0,

with P(a) = ie*c - a**2*h, U(a) = a**2*h + eps*c, Q(a) = c - ie*h and
V(a) = c + eps*h.  So A = ie/(P(am) - u*P(ap)*U(am)/U(ap)) and
At = -gamma*(U(am)/U(ap))*A, and B, Bt alike with Q and V.  Rows r0, r2,
r4 and r6 then give R, Rt, T and Tt.  The elimination is exact: no
pivoting, no 8x8 matrix.  The wavefunction itself, evaluated piecewise
from `solve`'s amplitudes, and its probability current are the test-side
referee `tests/quaternion_reference.py`.

`solve` takes one point or a batch of columns: a batch runs the same
body with numpy, in blocks of points.
"""

from __future__ import annotations

import cmath
import sys
from typing import NamedTuple

from .barrier import NUMBERS, AdimensionalBarrier, WaveParams, batch, blocks, cosh_shc, np, wave_params
from .errors import SingularSystemError


class ScatteringAmplitudes(NamedTuple):
    """Outer amplitudes (r, rt, t, tt) and interior coefficients (a, b, at, bt).

    a, b, at, bt multiply cosh(am*s), shc(am, s), cosh(ap*s) and shc(ap, s),
    s = xi - lam/2 (module docstring).  They are None when produced by a
    route that does not construct that basis (the brute-force integrator),
    which also gives tt as None where exp(eps*lam) overflows or Tt*exp(-eps*lam) underflows.
    """

    r: complex
    rt: complex
    t: complex
    tt: complex | None
    a: complex | None = None
    b: complex | None = None
    at: complex | None = None
    bt: complex | None = None


def _amplitudes(p: WaveParams, lam) -> tuple:
    """The eight amplitudes (R, Rt, T, Tt, A, B, At, Bt) by the parity split (module docstring).

    At the edges s = -+lam/2, cosh(a*s) = c and shc(a, s) = -+h, with
    derivatives -+a**2*h and c.  Like `wave_params`, one body serves a
    float p.eps (cmath) and ndarrays p.eps and lam of n points (numpy).  A
    float call raises ZeroDivisionError where U(ap), V(ap), a pivot or
    exp(-eps*lam) is 0.
    """
    eps = p.eps
    xp = cmath if isinstance(eps, NUMBERS) or not isinstance(eps, np.ndarray) else np
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    half = 0.5 * lam
    cm, hm = cosh_shc(am, half)
    cp, hp = cosh_shc(ap, half)
    dm, dp = am * am * hm, ap * ap * hp
    ie = 1j * eps
    u = beta * gamma
    # the cosh pair: P(am)*A + beta*P(ap)*At = ie and gamma*U(am)*A + U(ap)*At = 0
    ratio = (dm + eps * cm) / (dp + eps * cp)
    a = ie / (ie * cm - dm - u * (ie * cp - dp) * ratio)
    at = -gamma * ratio * a
    # the shc pair: Q(am)*B + beta*Q(ap)*Bt = ie and gamma*V(am)*B + V(ap)*Bt = 0
    ratio = (cm + eps * hm) / (cp + eps * hp)
    b = ie / (cm - ie * hm - u * (cp - ie * hp) * ratio)
    bt = -gamma * ratio * b
    lo_left, lo_right = cm * a - hm * b, cm * a + hm * b
    hi_left, hi_right = cp * at - hp * bt, cp * at + hp * bt
    return (lo_left + beta * hi_left - 1.0, gamma * lo_left + hi_left,
            (lo_right + beta * hi_right) * xp.exp(-ie * lam), (gamma * lo_right + hi_right) / xp.exp(-eps * lam),
            a, b, at, bt)


def solve(eps, b):
    """Solve the eight-equation continuity system for the eight amplitudes.

    Exactly, by the two 2x2 eliminations of the parity split (module
    docstring).  A float eps with one barrier b gives one
    ScatteringAmplitudes.  A batch, a float ndarray eps with the
    BarrierColumns b of its points (checked by `barrier.batch`), gives an
    (n, 8) complex ndarray, one row per point in the field order of
    ScatteringAmplitudes, computed by the same body with numpy in blocks of
    `blocks(n, 8)` points.  Its rows agree with the single calls' to ~1e-14
    away from the degeneracy band, tt and the interior coefficients
    relatively: numpy's and cmath's complex functions differ in the last
    bits.  Its errors are the single calls': each point whose amplitudes
    come out non-finite, or that is beyond reach, is replayed through a
    single call in order, so the batch raises the error of the first point
    whose single call raises, and a replayed point that answers takes its
    value, as in `closed_form.transmission`.

    Raises:
        DegenerateEnergyError: from `wave_params`.
        SingularSystemError: where a division of the elimination is by 0
            (exp(-eps*lam) underflows, or a pivot vanishes), or where
            max(eps, min(1, lam)) is subnormal, below the reach of float
            arithmetic; that is the oracle's reach rule.
        ValueError: from `barrier.batch`.
    """
    if isinstance(b, AdimensionalBarrier):
        p = wave_params(eps, b)
        try:
            if max(eps, min(1.0, b.lam)) >= sys.float_info.min:
                return ScatteringAmplitudes(*_amplitudes(p, b.lam))
        except ZeroDivisionError:
            pass
        raise SingularSystemError(f"the continuity system is singular to working precision at "
                                  f"eps={eps!r}, lam={b.lam!r}") from None
    eps, b = batch(eps, b)
    x = np.empty((len(eps), 8), dtype=complex)
    for block in blocks(len(eps), 8):
        with np.errstate(all="ignore"):
            x[block] = np.stack(_amplitudes(wave_params(eps[block], b.part(block)), b.lam[block]), axis=-1)
    replay = ~np.isfinite(x).all(axis=1) | ~(np.maximum(eps, np.minimum(1.0, b.lam)) >= sys.float_info.min)
    for i in np.flatnonzero(replay).tolist():
        x[i] = solve(float(eps[i]), b.barrier(i))
    return x


def probability_balance(amps: ScatteringAmplitudes) -> float:
    """Norm-conservation defect 1 - |R|**2 - |T|**2 (zero in exact arithmetic)."""
    return 1.0 - abs(amps.r) ** 2 - abs(amps.t) ** 2
