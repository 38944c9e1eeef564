"""Transfer matrix across the barrier, built two independent ways.

The data vector y(xi) = (phi, phi', psi, psi') at the two barrier edges is
related by the 4x4 complex matrix M, y(0) = M @ y(lam).  Each interior mode
a = alpha_minus, alpha_plus has the 2x2 block

    X(a) = [[cosh(a*lam), -shc(a, lam)], [-a**2*shc(a, lam), cosh(a*lam)]],

entire in a**2, with shc(a, lam) = sinh(a*lam)/a.  beta and gamma mix the
blocks Xm = X(am) and Xp = X(ap), with bg = beta*gamma:

    M = [[Xm - bg*Xp, -beta*(Xm - Xp)], [gamma*(Xm - Xp), Xp - bg*Xm]] / (1 - bg).

The paper tabulates the same matrix in the basis u = (phi, phi'/am, psi,
psi'/am): its table is inv(D) @ M @ D with D = diag(1, am, 1, am).  In the
data basis no element divides by am or ap, so M is regular at the threshold
eps = 1, where am (barrier) or ap (well) is 0.

`transfer_closed` evaluates that table from the wave parameters.
`transfer_numeric` is its oracle: M = exp(-A*lam) for the constant matrix A
of the split interior system y' = A*y (`ode_oracle.split_ode`), which uses
no wave parameter and no branch choice.  The oracle `ode_oracle.oracle_amplitudes`
takes its segment maps exp(-A*h) from it too.  Both take one point or a
batch: the wave parameters of n points give an (n, 4, 4) stack of tables,
and an (n, 4, 4) stack of matrices A its stack of exponentials.
"""

from __future__ import annotations

import cmath

import numpy as np

from .barrier import WaveParams, complex_stack, shc

#: Taylor terms of the exponential after scaling to 1-norm <= 1/2 (the first
#: omitted term is below 2**-19/19! ~ 1.6e-23 of the leading one)
TAYLOR_TERMS = 18


def _mode_block(a, lam) -> np.ndarray:
    """X(a) of the module docstring: one mode's 2x2 block in the data basis.

    For ndarrays a and lam of n points, an (n, 2, 2) stack.
    """
    xp = np if isinstance(a, np.ndarray) else cmath
    c, s = xp.cosh(a * lam), shc(a, lam)
    rows = [[c, -s], [-a * a * s, c]]
    return np.array(rows) if xp is cmath else complex_stack(rows)


def transfer_closed(p: WaveParams, lam) -> np.ndarray:
    """The table M of the module docstring, mixed from the two modes' blocks.

    The off-diagonal blocks carry beta and gamma, whose product bg has no
    theta; 1 - bg = 2*root/(eps**2 + root) != 0 by `wave_params`.  Like
    `wave_params`, one body serves one point (a 4x4 matrix) and ndarrays
    p and lam of n points (an (n, 4, 4) stack).
    """
    beta, gamma = p.beta, p.gamma
    bg = beta * gamma
    scale = 1.0 / (1.0 - bg)
    if isinstance(bg, np.ndarray):  # one coefficient per matrix of the stack
        beta, gamma, bg, scale = (x[:, None, None] for x in (beta, gamma, bg, scale))
    xm, xp = _mode_block(p.alpha_minus, lam), _mode_block(p.alpha_plus, lam)
    d = xm - xp
    m = np.empty(xm.shape[:-2] + (4, 4), dtype=complex)
    m[..., :2, :2] = xm - bg * xp
    m[..., :2, 2:] = -beta * d
    m[..., 2:, :2] = gamma * d
    m[..., 2:, 2:] = xp - bg * xm
    return m * scale


def transfer_numeric(a: np.ndarray, lam) -> np.ndarray:
    """exp(-a*lam) by Taylor series with scaling and squaring (Higham, Functions of Matrices, ch. 10).

    `a` is one 4x4 matrix with a float lam, or an (n, 4, 4) stack with one
    lam per matrix.  Each matrix is scaled by 2**-s to 1-norm <= 1/2, summed
    to TAYLOR_TERMS terms and squared s times, with its own s, so a stack's
    results are the single calls' bit for bit.
    """
    x = -np.asarray(lam, dtype=float)[..., None, None] * a
    s = np.maximum(np.frexp(2.0 * np.abs(x).sum(axis=-2).max(axis=-1))[1], 0)
    x = x * (0.5**s)[..., None, None]
    term = out = np.eye(4, dtype=complex)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term @ x / k
        out = out + term
    for i in range(s.max()):
        out = np.where((s > i)[..., None, None], out @ out, out)
    return out
