"""Closed-form transmission amplitude T = 2*exp(-i*eps*lam) / D.

The denominator D is assembled from the elements of the transfer matrix
in the data basis (phi, phi', psi, psi') of :mod:`qbarrier.transfer`:

    D = M11 + M22 + i*(eps**2*M12 - M21)/eps
        - [M13 + i*M24 - (eps**2*M14 + i*M23)/eps]
          * [M31 - i*M42 + (i*eps**2*M32 - M41)/eps]
          / [M44 + M33 - (eps**2*M34 + M43)/eps].

The paper writes D for its basis (phi, phi'/am, psi, psi'/am), am =
alpha_minus: there M21, M23, M41 and M43 carry a factor am**2 and each
fraction divides by eps*am; in the data basis every am cancels.
`transmission` evaluates an algebraically identical factored regrouping of D
(`denominator_factored`) that stays at machine precision when the growing
interior mode is large.  The element form itself is the test-side referee
`tests/element_reference.py`, the regrouping's check.  The same amplitude
is produced independently by the full boundary-matching solve
(:mod:`qbarrier.solver`), which is the arbiter for any transcription
doubt, and by the brute-force integrator (:mod:`qbarrier.ode_oracle`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .barrier import AdimensionalBarrier, WaveParams, batch, blocks, shc, wave_params


@dataclass(frozen=True)
class TransmissionResult:
    """Transmission amplitude t, with its probability |t|**2 and principal phase."""

    t: complex

    @property
    def prob(self) -> float:
        return abs(self.t) ** 2

    @property
    def phase(self) -> float:
        return cmath.phase(self.t)


def denominator_factored(p: WaveParams, lam):
    """D in a regrouped form that is stable against the growing interior mode.

    Expanding the element combination of the module docstring and cancelling the
    cosh**2 - sinh**2 products analytically gives the identical value

        D = [Dm*Ep + u**2*Dp*Em + 2i*u*P*Q - 4u] / [(1-u)*(Ep - u*Em)]

    with u = beta*gamma and one expression for each mode's three hyperbolic
    factors, (Dm, Em, P) = F(am) and (Dp, Ep, Q) = F(ap), where

        F(a) = (2*c + i*(a**2-e2)*s, 2*c + (e2+a**2)*s, (1+i)*c + (e2+i*a**2)*s)

    with c = cosh(a*L), s = shc(a, L)/e and shc(a, L) = sinh(a*L)/a.  Each
    factor is entire in a**2, so D is regular at the threshold eps = 1,
    where am (barrier) or ap (well) is 0.

    The raw element combination subtracts exp(2*ap*L)-sized products down
    to an O(exp(ap*L)) result, losing |beta*gamma|*exp(ap*L)*ulp of
    absolute accuracy; here every surviving product mixes the two modes,
    so the evaluation stays at machine precision for any width.

    Like `wave_params`, one body serves floats (cmath) and ndarrays
    (numpy, broadcast against lam).  D is unchecked: D = 0 would mean |T| = inf,
    and 1 - u = 2*root/(eps**2 + root) != 0 by `wave_params`.
    """
    eps = p.eps
    am, ap = p.alpha_minus, p.alpha_plus
    xp = np if isinstance(am, np.ndarray) or isinstance(lam, np.ndarray) else cmath
    u = p.beta * p.gamma
    e2 = eps * eps
    dm, em, pm = _factors(am, xp.cosh(am * lam), shc(am, lam) / eps, e2)
    dp, ep, pp = _factors(ap, xp.cosh(ap * lam), shc(ap, lam) / eps, e2)
    num = dm * ep + u * u * dp * em + 2j * u * pm * pp - 4.0 * u
    den = (1.0 - u) * (ep - u * em)
    return num / den


def denominator_slope(p: WaveParams, lam):
    """(D, dD/dlam) at width lam, from the factored form of `denominator_factored`.

    d/dlam cosh(a*lam) = a**2*shc(a, lam) and d/dlam shc(a, lam) =
    cosh(a*lam), so each mode's dF/dlam is F(a) with (c, s) replaced by
    (a**2*eps*s, c/eps), and dD/dlam follows from the product and quotient
    rules.  |T|**2 = 4/|D|**2, so a maximum of |T|**2 over the width is a
    sign change of Re(conj(D)*dD/dlam) from negative to positive.  Floats
    and ndarrays as in `denominator_factored`.
    """
    eps = p.eps
    am, ap = p.alpha_minus, p.alpha_plus
    xp = np if isinstance(am, np.ndarray) or isinstance(lam, np.ndarray) else cmath
    u = p.beta * p.gamma
    e2 = eps * eps
    cm, hm = xp.cosh(am * lam), shc(am, lam)
    cp, hp = xp.cosh(ap * lam), shc(ap, lam)
    dm, em, pm = _factors(am, cm, hm / eps, e2)
    dp, ep, pp = _factors(ap, cp, hp / eps, e2)
    dm1, em1, pm1 = _factors(am, am * am * hm, cm / eps, e2)
    dp1, ep1, pp1 = _factors(ap, ap * ap * hp, cp / eps, e2)
    den = (1.0 - u) * (ep - u * em)
    d = (dm * ep + u * u * dp * em + 2j * u * pm * pp - 4.0 * u) / den
    num1 = dm1 * ep + dm * ep1 + u * u * (dp1 * em + dp * em1) + 2j * u * (pm1 * pp + pm * pp1)
    return d, (num1 - d * (1.0 - u) * (ep1 - u * em1)) / den


def _factors(a, c, s, e2):
    """F(a) of `denominator_factored`, a mode's factors (D, E, P), at c and s, which enter linearly."""
    return (2.0 * c + 1j * (a * a - e2) * s, 2.0 * c + (e2 + a * a) * s,
            (1.0 + 1j) * c + (e2 + 1j * a * a) * s)


def _amplitude(p: WaveParams, lam):
    """T = 2*exp(-i*eps*lam)/D at p.eps, for floats or for ndarrays p.eps and lam of one length."""
    xp = np if isinstance(p.eps, np.ndarray) else cmath
    return 2.0 * xp.exp(-1j * p.eps * lam) / denominator_factored(p, lam)


def transmission(eps, b):
    """Transmission amplitude through the barrier via the closed formula.

    Evaluates the factored form of D (see `denominator_factored`), which is
    algebraically identical to the element-table form but keeps full
    precision when exp(alpha_plus*lam) is large.

    A float eps with one barrier b gives one TransmissionResult.  A batch,
    a float ndarray eps with the BarrierColumns b of its points (checked by
    `barrier.batch`), gives the complex ndarray of their T, from numpy
    evaluations of the same body in blocks of `barrier.blocks(n, 64)`
    points, as `solver.solve` takes them, so its temporaries stay bounded.
    Its values agree with the single calls' to ~1e-14 away from the
    degeneracy band (numpy's and cmath's complex functions differ in the
    last bits), and its errors are theirs: after the last block, each point
    whose T came out non-finite is replayed through a single call in order,
    so the batch raises the first error its single calls raise.

    Raises:
        DegenerateEnergyError: from `wave_params`.
        ValueError: from `barrier.batch`.
    """
    if isinstance(b, AdimensionalBarrier):
        return TransmissionResult(_amplitude(wave_params(eps, b), b.lam))
    eps, b = batch(eps, b)
    t = np.empty(eps.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for block in blocks(len(eps), 64):
            t[block] = _amplitude(wave_params(eps[block], b.part(block)), b.lam[block])
    for i in np.flatnonzero(~np.isfinite(t)).tolist():
        t[i] = transmission(float(eps[i]), b.barrier(i)).t
    return t
