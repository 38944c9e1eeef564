"""Transfer matrix across the barrier, built two independent ways.

The boundary data vector u(xi) = (phi, phi'/alpha_minus, psi, psi'/alpha_minus)
at the two barrier edges is related by the 4x4 complex matrix

    M = G @ Delta @ inv(G),

where G collects the four interior basis solutions and Delta holds their
exponential growth over the width lam.  `transfer_numeric` performs that
product directly and is the in-repo oracle for `transfer_closed`; both
must agree elementwise (relative to the matrix scale) wherever G is
invertible.  The paper's sixteen closed-form elements, each times
1/(1 - bg), with bg = beta*gamma, r = am/ap, cm, sm = cosh, sinh(am*lam)
and cp, sp = cosh, sinh(ap*lam):

    M11 = M22 = cm - bg*cp          M33 = M44 = cp - bg*cm
    M12 = -sm + bg*r*sp             M34 = bg*sm - r*sp
    M21 = -sm + bg*sp/r             M43 = bg*sm - sp/r
    M13 = M24 = -beta*(cm - cp)     M31 = M42 = gamma*(cm - cp)
    M14 = beta*(sm - r*sp)          M32 = -gamma*(sm - r*sp)
    M23 = beta*(sm - sp/r)          M41 = -gamma*(sm - sp/r)
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np

from .barrier import WaveParams
from .errors import IllConditionedError

#: max-norm condition estimate of G above which a warning is emitted
CONDITION_WARN = 1e8


def _mixing(p: WaveParams) -> complex:
    """beta*gamma, the mixing of the two modes in G and the closed elements.

    Only the threshold is checked: 1 - beta*gamma = 2*root/(eps**2 + root) != 0
    by `wave_params`, root = sqrt(eps**4 - vq**2).

    Raises:
        IllConditionedError: if alpha_minus or alpha_plus is 0 (eps = 1), where
            G's columns and the boundary data, scaled by alpha_minus, are singular.
    """
    if p.alpha_minus == 0 or p.alpha_plus == 0:
        raise IllConditionedError(
            f"alpha_minus = {p.alpha_minus!r}, alpha_plus = {p.alpha_plus!r}: "
            "the exponential basis of G is singular at the threshold"
        )
    return p.beta * p.gamma


def build_factors(p: WaveParams, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor matrices (G, Delta) of the similarity product.

    G maps interior coefficients to boundary data, Delta transports
    interior coefficients across the width.

    Raises:
        IllConditionedError: from `_mixing` (G is singular).
    """
    _mixing(p)
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    r = ap / am
    g = np.array(
        [
            [1.0, 1.0, beta, beta],
            [1.0, -1.0, beta * r, -beta * r],
            [gamma, gamma, 1.0, 1.0],
            [gamma, -gamma, r, -r],
        ],
        dtype=complex,
    )
    delta = np.diag(
        [
            cmath.exp(-am * lam),
            cmath.exp(am * lam),
            cmath.exp(-ap * lam),
            cmath.exp(ap * lam),
        ]
    )
    return g, delta


def transfer_numeric(p: WaveParams, lam: float) -> np.ndarray:
    """Transfer matrix by direct inversion: M = G @ Delta @ inv(G)."""
    g, delta = build_factors(p, lam)
    g_inv = np.linalg.inv(g)
    cond = np.abs(g).max() * np.abs(g_inv).max()
    if cond > CONDITION_WARN:
        warnings.warn(
            f"factor matrix G has max-norm condition estimate {cond:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return g @ delta @ g_inv


def transfer_closed(p: WaveParams, lam: float) -> np.ndarray:
    """The element table of the module docstring, from the two modes' 2x2 blocks.

    beta and gamma mix the blocks xm (alpha_minus) and xp (alpha_plus) into
    M = [[xm - bg*xp, -beta*d], [gamma*d, xp - bg*xm]] / (1 - bg), d = xm - xp;
    the off-diagonal blocks carry beta and gamma, whose product bg has no theta.
    """
    bg = _mixing(p)
    am, ap = p.alpha_minus, p.alpha_plus
    cm, sm = cmath.cosh(am * lam), cmath.sinh(am * lam)
    cp, sp = cmath.cosh(ap * lam), cmath.sinh(ap * lam)
    xm = np.array([[cm, -sm], [-sm, cm]])
    xp = np.array([[cp, -(am / ap) * sp], [-(ap / am) * sp, cp]])
    d = xm - xp
    m = np.empty((4, 4), dtype=complex)
    m[:2, :2] = xm - bg * xp
    m[:2, 2:] = -p.beta * d
    m[2:, :2] = p.gamma * d
    m[2:, 2:] = xp - bg * xm
    return m * (1.0 / (1.0 - bg))
