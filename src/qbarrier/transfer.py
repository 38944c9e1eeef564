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
of the split interior system y' = A*y (`ode_oracle.split_ode`), with no wave
parameter and no branch choice; at lam*2**-s (`_squarings`) it is the
segment map of `ode_oracle`.  Both take one point or a batch: the wave
parameters of n points give an (n, 4, 4) stack of tables, and an
(n, 4, 4) stack of matrices A its stack of exponentials.

In the order (phi, psi | phi', psi') A is [[0, I], [K, 0]], with K the
2x2 block A[[1, 3]][:, [0, 2]].  So B = -A*lam squares to lam**2*K on both
diagonal blocks, and the Taylor series of exp(B) splits into its even and
odd parts:

    exp(-A*lam) = [[C, S], [K@S, C]],
    C = sum_j (lam**2*K)**j/(2j)!,  S = -lam*sum_j (lam**2*K)**j/(2j+1)!.

`transfer_numeric` scales lam by 2**-s until ||(lam*2**-s)**2*K||_1 <= 4,
sums both series to j = 12 (the exponential's terms B**0 ... B**25; the
first omitted one is at most 2**26/26! ~ 1.7e-19 of its block's leading
term) and squares (C, S, K@S) s times by the double-angle rules
C <- C@C + S@(K@S), S <- 2*C@S, K@S <- 2*C@(K@S).  It reads only K.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .barrier import WaveParams, complex_stack, shc

#: Taylor terms of exp(-A*h) after scaling: B**0 ... B**25 of B = -A*h,
#: as the powers (h**2*K)**j, j = 0 ... 12, of the even and the odd series
TAYLOR_TERMS = 26

#: entries of split_ode's matrix that are the same at every point, and their 0/1 values
_FIXED = np.ones((4, 4), dtype=bool)
_FIXED[1::2, 0::2] = False
_PATTERN = np.eye(4, k=1)[_FIXED]

#: the 2x2 identity, points last
_EYE = np.eye(2, dtype=complex)[..., None]

#: the coefficients 1/(2j)! of x**j in the even series and 1/(2j+1)! in the odd one, j = 0 ... 12:
#: those of x**(4q + r), q < 3, as [r, series, q], and those of x**12
_COEFFICIENTS = np.array([[1.0 / math.factorial(2 * j + odd) for j in range(TAYLOR_TERMS // 2)] for odd in (0, 1)])
_C_LOW = _COEFFICIENTS[:, :12].reshape(2, 3, 4).transpose(2, 0, 1)[..., None, None, None]
_C_TOP = _COEFFICIENTS[:, 12, None, None, None]


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


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p @ q for 2x2 blocks held points last: (2, 2, n) arrays, or stacks of them that broadcast.

    Each entry is a sum of two products, so a point's bits do not depend on n.
    """
    return p[..., :1, :] * q[..., None, 0, :, :] + p[..., 1:, :] * q[..., None, 1, :, :]


def _series(x: np.ndarray) -> np.ndarray:
    """The even and the odd series of the module docstring, stacked (2, 2, 2, n), at the blocks x (2, 2, n).

    Each is b_0 + x4@(b_1 + x4@(b_2 + x4*c_12)), with b_q = sum_r c_{4q+r}*x**r
    and x4 = x**4 (Paterson and Stockmeyer), so it takes five block products.
    """
    p = np.empty((4,) + x.shape, dtype=complex)  # x**0 ... x**3
    p[0], p[1] = _EYE, x
    p[2] = _mul(x, x)
    p[3] = _mul(p[2], x)
    x4 = _mul(p[2], p[2])
    b = _C_LOW[0] * p[0]
    for r in (1, 2, 3):
        b += _C_LOW[r] * p[r]
    out = b[:, 2] + _C_TOP * x4
    for q in (1, 0):
        out = b[:, q] + _mul(x4, out)
    return out


def _squarings(a: np.ndarray, lam) -> np.ndarray:
    """The scaling rule: the least s >= 0 with |lam|*2**-s*sqrt(||K||_1) < 2, for `split_ode` matrices a."""
    norm = np.abs(lam) * np.sqrt(np.abs(a[..., 1::2, 0::2]).sum(axis=-2).max(axis=-1))
    return np.maximum(np.frexp(norm / 2.0)[1], 0)


def transfer_numeric(a: np.ndarray, lam) -> np.ndarray:
    """exp(-a*lam) by its even and odd Taylor series with scaling and squaring (Higham, Functions of Matrices, ch. 10).

    `a` is `split_ode`'s matrix with a float lam, or an (n, 4, 4) stack of
    them with one lam per matrix or one for all.  Only the block K of the
    module docstring is read.  Each matrix has its own squaring count s,
    and squaring round i works on the matrices with s > i, so a stack's
    results are the single calls' bit for bit.

    Raises:
        ValueError: if an entry of `a` outside K is not the split system's 0 or 1.
    """
    a = np.asarray(a)
    if not (a[..., _FIXED] == _PATTERN).all():
        raise ValueError("transfer_numeric takes split_ode's matrix: [[0, 1, 0, 0], [*, 0, *, 0], "
                         "[0, 0, 0, 1], [*, 0, *, 0]]")
    k = a.reshape(-1, 4, 4)[:, 1::2, 0::2].transpose(1, 2, 0)
    h = np.full(k.shape[-1], -np.asarray(lam, dtype=float))  # B = A*h
    s = _squarings(a, h)
    h = h * 0.5**s
    series = _series(h * h * k)
    y = np.empty((3, 2, 2, len(s)), dtype=complex)  # C, S, K@S
    y[0] = series[0]
    y[1] = h * series[1]
    y[2] = _mul(k, y[1])
    for i in range(s.max(initial=0)):
        z = y[..., s > i]
        prod = _mul(z[0], z)
        prod[0] += _mul(z[1], z[2])
        prod[1:] *= 2.0
        y[..., s > i] = prod
    out = np.empty((len(s), 4, 4), dtype=complex)
    m = out.transpose(1, 2, 0)  # rows and columns (phi, phi', psi, psi'), points last
    m[0::2, 0::2] = m[1::2, 1::2] = y[0]
    m[0::2, 1::2] = y[1]
    m[1::2, 0::2] = y[2]
    return out[0] if a.ndim == 2 else out
