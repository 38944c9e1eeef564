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
of the split interior system y' = A*y (`ode_oracle`), with no wave
parameter and no branch choice.  Both take one point or a batch: the wave
parameters of n points give an (n, 4, 4) stack of tables, and n energies
with their BarrierColumns a stack of exponentials.

In the order (phi, psi | phi', psi') A is [[0, I], [K, 0]], with the 2x2
block

    K = [[vc - eps**2, i*vq*exp(i*theta)], [i*vq*exp(-i*theta), vc + eps**2]],

built in one place, `_k_block`; no 4x4 A is formed.  B = -A*lam squares
to lam**2*K on both diagonal blocks, and the Taylor series of exp(B)
splits into its even and odd parts:

    exp(-A*lam) = [[C, S], [K@S, C]],
    C = sum_j (lam**2*K)**j/(2j)!,  S = -lam*sum_j (lam**2*K)**j/(2j+1)!.

`transfer_numeric` scales lam by 2**-s until ||(lam*2**-s)**2*K||_1 <= 4
(`_squarings`), sums both series to j = 12 (the exponential's terms B**0
... B**25; the first omitted one is at most 2**26/26! ~ 1.7e-19 of its
block's leading term) and squares (C, S, K@S) s times by the double-angle
rules C <- C@C + S@(K@S), S <- 2*C@S, K@S <- 2*C@(K@S).
The series are one private kernel, `_segment`, which maps K and the scaled
width h = lam*2**-s to the blocks (C, S, K@S) of exp(-A*h), points last.
`ode_oracle` takes its K from `_k_block` and its segment maps from that
kernel, its points in the order of `_squaring_order`: the oracle's 2**s
segments of width h are those blocks, not calls to `transfer_numeric`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .barrier import WaveParams, complex_stack, require_finite, shc

#: Taylor terms of exp(-A*h) after scaling: B**0 ... B**25 of B = -A*h,
#: as the powers (h**2*K)**j, j = 0 ... 12, of the even and the odd series
TAYLOR_TERMS = 26

#: the 2x2 identity, points last
_EYE = np.eye(2, dtype=complex)[..., None]

#: the coefficients 1/(2j)! of x**j in the even series and 1/(2j+1)! in the odd one, j = 0 ... 12:
#: those of x**(4q + r), q < 3, as [r, series, q], and those of x**12
_COEFFICIENTS = np.array([[1.0 / math.factorial(2 * j + odd) for j in range(TAYLOR_TERMS // 2)] for odd in (0, 1)])
_C_LOW = _COEFFICIENTS[:, :12].reshape(2, 3, 4).transpose(2, 0, 1)[..., None, None, None]
_C_TOP = _COEFFICIENTS[:, 12, None, None, None]
#: the terms c_{4q}*x**0 of the coefficients' blocks b_q, [series, q]
_C_EYE = _C_LOW[0] * _EYE


def _mode_block(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """X(a) of the module docstring: one mode's 2x2 blocks at ndarrays a and lam of n points, an (n, 2, 2) stack."""
    c, s = np.cosh(a * lam), shc(a, lam)
    return complex_stack([[c, -s], [-a * a * s, c]])


def transfer_closed(p: WaveParams, lam) -> np.ndarray:
    """The table M of the module docstring, mixed from the two modes' blocks.

    The off-diagonal blocks carry beta and gamma, whose product bg has no
    theta; 1 - bg = 2*root/(eps**2 + root) != 0 by `wave_params`.  The
    wave parameters p and widths lam of n points, ndarrays, give an
    (n, 4, 4) stack, and those of one point a 4x4 matrix, evaluated as a
    stack of one.  Entries that overflow come out non-finite, with no
    warning.
    """
    if not isinstance(p.eps, np.ndarray):
        return transfer_closed(WaveParams(*(np.array([x]) for x in p)), np.array([lam]))[0]
    with np.errstate(all="ignore"):  # an entry that overflows is non-finite, the signal
        bg = p.beta * p.gamma
        # one coefficient per matrix of the stack
        beta, gamma, bg, scale = (x[:, None, None] for x in (p.beta, p.gamma, bg, 1.0 / (1.0 - bg)))
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
    x2 = _mul(x, x)
    x4 = _mul(x2, x2)
    b = _C_EYE + _C_LOW[1] * x
    b += _C_LOW[2] * x2
    b += _C_LOW[3] * _mul(x2, x)
    out = b[:, 2] + _C_TOP * x4
    for q in (1, 0):
        out = b[:, q] + _mul(x4, out)
    return out


def _k_block(b, eps) -> np.ndarray:
    """The block K of the module docstring at (eps, b), as (2, 2, n), points last.

    A float eps with one barrier gives n = 1, with cmath's exp; a float
    ndarray with the BarrierColumns of its points gives one K per point,
    with numpy's.
    """
    exp = np.exp if isinstance(eps, np.ndarray) else cmath.exp
    k = np.empty((2, 2, np.size(eps)), dtype=complex)
    k[0, 0] = b.vc - eps * eps
    k[0, 1] = 1j * b.vq * exp(1j * b.theta)
    k[1, 0] = 1j * b.vq * exp(-1j * b.theta)
    k[1, 1] = b.vc + eps * eps
    return k


def _squarings(k: np.ndarray, lam) -> np.ndarray:
    """The scaling rule: the least s >= 0 with |lam|*2**-s*sqrt(||K||_1) < 2, for blocks k (2, 2, n)."""
    norm = np.abs(lam) * np.sqrt(np.abs(k).sum(axis=0).max(axis=0))
    return np.maximum(np.frexp(norm / 2.0)[1], 0)


def _squaring_order(k: np.ndarray, lam) -> tuple[np.ndarray, np.ndarray]:
    """(order, s[order]): the points of blocks k (2, 2, n) at widths lam by squaring count s, descending, stable."""
    s = _squarings(k, lam)
    order = np.argsort(-s, kind="stable")
    return order, s[order]


def _segment(k: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The blocks (C, S, K@S) of exp(-A*h), stacked (3, 2, 2, n), from the blocks k (2, 2, n) and widths h (n,).

    The even and the odd series of the module docstring at lam = h, with no
    squaring: h must satisfy the scaling rule (`_squarings` gives 0 there).
    """
    series = _series(h * h * k)
    y = np.empty((3,) + k.shape, dtype=complex)
    y[0] = series[0]
    y[1] = -h * series[1]
    y[2] = _mul(k, y[1])
    return y


def transfer_numeric(eps, b) -> np.ndarray:
    """exp(-A*lam) of the split system at (eps, b) by scaling and squaring (Higham, Functions of Matrices, ch. 10).

    A float eps with one barrier b gives a 4x4 matrix.  A batch, a float
    ndarray eps with the BarrierColumns b of its points, gives an (n, 4, 4)
    stack; like `wave_params`, it leaves the columns to the caller's
    `barrier.batch`.
    Each point has its own squaring count s: the points are sorted once by
    s, descending (`_squaring_order`), so squaring round i works in place
    on the prefix of the points with s > i, and no point's words depend
    on the rest of its stack.  Entries that overflow come out non-finite,
    with no warning.

    Raises:
        ValueError: unless a float eps is finite and > 0.
    """
    single = not isinstance(eps, np.ndarray)
    if single:
        require_finite("eps", eps, 0.0, strict=True)
    with np.errstate(all="ignore"):  # an entry that overflows is non-finite, the signal
        k = _k_block(b, eps)
        order, s = _squaring_order(k, b.lam)
        y = _segment(k[..., order], np.full(len(s), b.lam, dtype=float)[order] * 0.5**s)
        for i in range(s.max(initial=0)):
            z = y[..., :np.count_nonzero(s > i)]
            prod = _mul(z[0], z)
            prod[0] += _mul(z[1], z[2])
            prod[1:] *= 2.0
            z[...] = prod
    out = np.empty((len(s), 4, 4), dtype=complex)
    m = out.transpose(1, 2, 0)  # rows and columns (phi, phi', psi, psi'), points last
    m[0::2, 0::2, order] = m[1::2, 1::2, order] = y[0]
    m[0::2, 1::2, order] = y[1]
    m[1::2, 0::2, order] = y[2]
    return out[0] if single else out
