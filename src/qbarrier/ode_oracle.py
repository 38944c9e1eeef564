"""Brute-force amplitudes: integrate the interior system, compose its segments.

Splitting the interior wavefunction Phi = phi + j*psi into its complex and
pure quaternionic parts turns the quaternionic second-order equation into
two coupled complex equations,

    phi'' = (vc - eps**2)*phi + i*vq*exp( i*theta)*psi
    psi'' = (vc + eps**2)*psi + i*vq*exp(-i*theta)*phi,

verified by substituting the exponential interior basis (the residual
tests in the suite pin the coupling signs).  The state y = (phi, phi',
psi, psi') obeys y' = A*y with constant A, so y(0) = exp(-A*h) @ y(h)
across a segment of length h.  A enters as its 2x2 block K, the
coefficients above, built in one place (`transfer._k_block`) for this
route and `transfer.transfer_numeric`.  The width is cut into 2**s
segments, s from `transfer._squarings`, so each map is one Taylor sum:
the blocks (C, S, K@S) of exp(-A*h) from `transfer._segment`, the series
kernel that `transfer_numeric` squares.  No branch choices, no special
functions: this route works at degenerate and threshold parameters alike
and checks every closed form in the package.

Each map becomes the segment's scattering matrix (rl, tb, tf, rr) between
wave channels at wave number k: phi's (1, i*k) and psi's (1, -i*k) go
right, phi's (1, -i*k) and psi's (1, i*k) go left.  The split system
conserves Q = Im(conj(phi)*phi') - Im(conj(psi)*psi') (its couplings obey
d_psi = -conj(d_phi)), here the flux going right less that going left, so
each segment's matrix is unitary.  It is star-squared s times by the
Redheffer star product (Redheffer, J. Math. Phys. 41, 1962; Ko and Inkson,
Phys. Rev. B 38, 9945, 1988), which inverts only I - rr@rl and stays
bounded where products of transfer maps overflow; one star product at
each edge reaches the free zones.  k = max(eps, min(1, lam)): at k = eps,
phi's channels turn parallel as eps -> 0, and at k = 1 the edges of a
barrier thinner than 1 nearly cancel (r was 8.3e-8 off at eps = 1e-10,
lam = 0).  The amplitudes are within B = 1e-11 + 16*max(eps, 1)*lam*2**-52
of the mpmath referee (`tests/mp_reference.py`); where B exceeds the 1e-9
of `verify`'s cross-route check, eps**2 overflows or k is subnormal (1/k
overflows), a call raises.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .barrier import AdimensionalBarrier, batch, blocks, columns, require_finite
from .solver import ScatteringAmplitudes
from .transfer import _EYE, _k_block, _mul, _segment, _squaring_order

#: largest max(eps, 1)*lam at which the error bound B stays within 1e-9 (about 2.79e5)
_REACH = (1e-9 - 1e-11) / (16 * 2.0**-52)

#: J = diag(1, -1), the sign of each channel's wave
_J = np.array([1.0, -1.0])


def _inv(m: np.ndarray) -> np.ndarray:
    """The inverse of each 2x2 block of m (2, 2, n), points last."""
    out = m[::-1, ::-1].transpose(1, 0, 2).copy()  # [[m11, m01], [m10, m00]]
    np.negative(out[0, 1], out=out[0, 1])
    np.negative(out[1, 0], out=out[1, 0])
    out /= m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return out


def _scattering(y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The scattering matrices (rl, tb, tf, rr), stacked (4, 2, 2, n), of segment maps y = (C, S, K@S) in the channels at k.

    In the channels (going right | going left), the map [[C, S], [K@S, C]] is
    [[diag(C) + U - V, offdiag(C) - U - V], [offdiag(C) + U + V, diag(C) - U + V]]
    with U = i*k*S@J/2, V = i*J@(K@S)/(2k) and J = diag(1, -1).
    """
    c = y[0]
    diag = c * _EYE
    off = c - diag
    u = (0.5j * k) * y[1] * _J[:, None]
    v = (0.5j / k) * y[2] * _J[:, None, None]
    t12 = off - u - v
    z = np.empty((4,) + c.shape, dtype=complex)
    z[2] = _inv(diag + u - v)
    z[0] = _mul(off + u + v, z[2])
    z[1] = diag - u + v - _mul(z[0], t12)
    z[3] = -_mul(z[2], t12)
    return z


def _square(z: np.ndarray) -> None:
    """The star product of each scattering matrix z = (rl, tb, tf, rr), stacked (4, 2, 2, n), with itself, in place.

    X = inv(I - rr@rl) is the only inverse (Redheffer): tf' = tf@X@tf,
    rr' = rr + tf@X@rr@tb, rl' = rl + tb@rl@X@tf, tb' = tb@(I + rl@X@rr)@tb.
    """
    rl, tb, tf, rr = z
    xs = _mul(_inv(_EYE - _mul(rr, rl)), z[2:])  # X@tf, X@rr
    p = _mul(z[2::-2, None], xs)  # [[tf@X@tf, tf@X@rr], [rl@X@tf, rl@X@rr]]
    p[1, 1] += _EYE
    rr_tb, p[1, 1] = _mul(p[:, 1], tb)  # tf@X@rr@tb, (I + rl@X@rr)@tb
    rl_tb = _mul(tb, p[1])  # tb@rl@X@tf, tb@(I + rl@X@rr)@tb
    z[0] += rl_tb[0]
    z[1] = rl_tb[1]
    z[2] = p[0, 0]
    z[3] += rr_tb


def _edges(z: np.ndarray, eps: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(R, Rt, tau, sigma), a (4, n) array, from the barrier's scattering matrices z in the channels at k.

    The free zones' channels are phi's waves (1, +-i*eps) and psi's (1, -+eps),
    at kappa = -i*eps.  Seen from the barrier, each edge reflects
    rho = (k - kappa)/(k + kappa) and passes 2*k/(k + kappa) of a channel.
    """
    rl, tb, tf, rr = z
    kappa = np.array([eps + 0j, -1j * eps])
    total = k + kappa
    rho, through = (k - kappa) / total, 2.0 * k / total
    xt = _mul(_inv(_EYE - rr * rho), tf)
    right = np.empty((2,) + xt.shape, dtype=complex)  # rl and tf with the right edge
    right[0] = rl + _mul(tb * rho, xt)
    right[1] = through[:, None] * xt
    out = _mul(right, _inv(_EYE - rho[:, None] * right[0])[:, :1]).reshape(4, -1) * (2.0 * eps / (k + eps))
    out[:2] *= through
    out[0] -= rho[0]
    return out


def _amplitudes(k: np.ndarray, eps: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(R, Rt, tau, sigma), a (4, n) array, of the split systems with blocks k (2, 2, n) at widths lam.

    The points are sorted once by squaring count s, descending
    (`transfer._squaring_order`), so round i star-squares the prefix of the
    points with s > i; the result is put back in input order.
    """
    order, s = _squaring_order(k, lam)
    k, eps, lam = k[..., order], eps[order], lam[order]
    wave = np.maximum(eps, np.minimum(1.0, lam))
    z = _scattering(_segment(k, lam * 0.5**s), wave)
    for i in range(s.max(initial=0)):
        _square(z[..., :np.count_nonzero(s > i)])
    out = np.empty((4, len(s)), dtype=complex)
    out[:, order] = _edges(z, eps, wave)
    return out


def oracle_amplitudes(eps, b):
    """Scattering amplitudes with no closed formula anywhere in the path (module docstring).

    A float eps with one barrier b gives one ScatteringAmplitudes.  A batch,
    a float ndarray eps with the BarrierColumns b of its points (checked by
    `barrier.batch`), gives an (n, 4) complex ndarray of r, rt, t and tt,
    each row the single call's bit for bit, with tt NaN where the single
    call's is None; it is integrated in blocks of `barrier.blocks(n, 16)`
    points.  Interior coefficients are not produced.

    tt is None where exp(eps*lam) overflows, as in `CriticalAmplitudes`, and
    where its right-edge datum sigma = Tt*exp(-eps*lam) is subnormal, or 0
    at vq*lam > 0 (at vq*lam = 0, Tt is exactly 0); r, rt and t do not depend on it.

    Raises:
        ValueError: at the first point whose eps is not > 0, or where eps**2
            overflows (eps >= 2**512), the channel wave number k is subnormal
            or max(eps, 1)*lam exceeds _REACH (~2.79e5); from `barrier.batch`.
    """
    single = isinstance(b, AdimensionalBarrier)
    eps_all, cols = columns([eps], [b]) if single else batch(eps, b)
    bad = ~((0.0 < eps_all) & (eps_all < 2.0**512) & (cols.lam <= _REACH / np.maximum(eps_all, 1.0))
            & (np.maximum(eps_all, np.minimum(1.0, cols.lam)) >= sys.float_info.min))
    if bad.any():  # the first failing point raises what it would raise alone
        first = int(bad.argmax())
        e, lam = (eps, b.lam) if single else (float(eps_all[first]), float(cols.lam[first]))
        require_finite("eps", e, 0.0, strict=True)
        raise ValueError(f"eps={e!r} at lam={lam!r} is beyond the integrator's reach: eps**2 must be "
                         f"finite, max(eps, min(1, lam)) at least {sys.float_info.min:.4g} and "
                         f"max(eps, 1)*lam at most {_REACH:.4g}")
    k = _k_block(cols, eps_all)
    x = np.empty((len(eps_all), 4), dtype=complex)
    for block in blocks(len(eps_all), 16):
        x[block] = _amplitudes(k[..., block], eps_all[block], cols.lam[block]).T
    # t and tt point by point, with cmath's exp: numpy's differs from it in the last bit
    missing = None if single else math.nan
    rows = [(tau * cmath.exp(-1j * e * lam), _far_edge(sigma, e * lam, coupled, missing))
            for tau, sigma, e, lam, coupled in zip(x[:, 2].tolist(), x[:, 3].tolist(), eps_all.tolist(),
                                                   cols.lam.tolist(), ((cols.vq > 0.0) & (cols.lam > 0.0)).tolist())]
    if single:
        return ScatteringAmplitudes(*x[0, :2].tolist(), *rows[0])
    x[:, 2:] = np.reshape(np.array(rows, dtype=complex), (-1, 2))
    return x


def _far_edge(sigma: complex, growth: float, coupled: bool, missing):
    """Tt = sigma*exp(growth) from the right-edge datum sigma.

    missing where exp(growth) overflows or sigma underflows.
    """
    if abs(sigma) < sys.float_info.min and (sigma or coupled):
        return missing
    try:
        return sigma * cmath.exp(growth)
    except OverflowError:
        return missing
