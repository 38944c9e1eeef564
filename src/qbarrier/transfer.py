"""Transfer matrix across the barrier, built two independent ways.

The boundary data vector u(xi) = (phi, phi'/alpha_minus, psi, psi'/alpha_minus)
at the two barrier edges is related by the 4x4 complex matrix

    M = G @ Delta @ inv(G),

where G collects the four interior basis solutions and Delta holds their
exponential growth over the width lam.  `transfer_numeric` performs that
product directly and is the in-repo oracle for `transfer_closed`, which
evaluates the sixteen hyperbolic closed-form elements.  Both must agree
elementwise (relative to the matrix scale) wherever G is invertible.
"""

from __future__ import annotations

import cmath
import warnings

import numpy as np

from .barrier import WaveParams
from .errors import IllConditionedError

#: below this |1 - beta*gamma| the similarity transform is meaningless
MIXING_TOL = 1e-12

#: max-norm condition estimate of G above which a warning is emitted
CONDITION_WARN = 1e8


def _mixing(p: WaveParams) -> complex:
    """beta*gamma, kept away from 1 where G and the closed elements are singular.

    Raises:
        IllConditionedError: if |1 - beta*gamma| < MIXING_TOL, or if
            alpha_minus or alpha_plus is 0 (eps at the threshold), where the
            boundary data, scaled by alpha_minus, and G's columns are singular.
    """
    bg = p.beta * p.gamma
    if abs(1.0 - bg) < MIXING_TOL:
        raise IllConditionedError(
            f"1 - beta*gamma = {1.0 - bg:.3e}: factor matrix G is singular"
        )
    if p.alpha_minus == 0 or p.alpha_plus == 0:
        raise IllConditionedError(
            f"alpha_minus = {p.alpha_minus!r}, alpha_plus = {p.alpha_plus!r}: "
            "the exponential basis of G is singular at the threshold"
        )
    return bg


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
    """Transfer matrix from the sixteen hyperbolic closed-form elements.

    Every element carries the common factor 1/(1 - beta*gamma); the
    off-diagonal 2x2 blocks are proportional to beta (rows 1-2) and gamma
    (rows 3-4), which is what makes the transmission phase-independent.
    """
    bg = _mixing(p)
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    cm, sm = cmath.cosh(am * lam), cmath.sinh(am * lam)
    cp, sp = cmath.cosh(ap * lam), cmath.sinh(ap * lam)
    rmp = am / ap  # alpha_minus / alpha_plus
    rpm = ap / am  # alpha_plus / alpha_minus
    w = 1.0 / (1.0 - bg)
    m = np.array(
        [
            [
                cm - bg * cp,
                -sm + rmp * bg * sp,
                -beta * (cm - cp),
                beta * (sm - rmp * sp),
            ],
            [
                -sm + rpm * bg * sp,
                cm - bg * cp,
                beta * (sm - rpm * sp),
                -beta * (cm - cp),
            ],
            [
                gamma * (cm - cp),
                -gamma * (sm - rmp * sp),
                -bg * cm + cp,
                bg * sm - rmp * sp,
            ],
            [
                -gamma * (sm - rpm * sp),
                gamma * (cm - cp),
                bg * sm - rpm * sp,
                -bg * cm + cp,
            ],
        ],
        dtype=complex,
    )
    return w * m
