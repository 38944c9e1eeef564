"""Brute-force amplitudes: integrate the interior system, compose its segments.

Splitting the interior wavefunction Phi = phi + j*psi into its complex and
pure quaternionic parts turns the quaternionic second-order equation into
two coupled complex equations,

    phi'' = (vc - eps**2)*phi + i*vq*exp( i*theta)*psi
    psi'' = (vc + eps**2)*psi + i*vq*exp(-i*theta)*phi,

verified here by substituting the exponential interior basis (the residual
test in the suite pins the coupling signs).  The state y = (phi, phi', psi,
psi') obeys y' = A*y with constant A, so y(0) = exp(-A*h) @ y(h) across a
segment of length h: `transfer.transfer_numeric`, the exponential that
checks the closed transfer table.  The width is cut into 2**s segments, s
from that exponential's scaling rule, so each map is one Taylor sum.  No
branch choices, no special functions: this route works at degenerate and
threshold parameters alike and checks every closed form in the package.

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
import sys

import numpy as np

from .barrier import AdimensionalBarrier, blocks, columns, complex_stack, require_finite
from .solver import ScatteringAmplitudes
from .transfer import _EYE, _mul, _squarings, transfer_numeric

#: largest max(eps, 1)*lam at which the error bound B stays within 1e-9 (about 2.79e5)
_REACH = (1e-9 - 1e-11) / (16 * 2.0**-52)


def split_ode(b: AdimensionalBarrier, eps) -> np.ndarray:
    """Constant 4x4 matrix A of the interior system y' = A*y, y = (phi, phi', psi, psi').

    Like `wave_params`, b may be the BarrierColumns of a batch and eps its
    float ndarray (`barrier.columns`), whose energies the caller has
    checked: then the result is an (n, 4, 4) stack of the single calls'
    matrices, bit for bit.
    """
    batch = isinstance(eps, np.ndarray)
    if not batch:
        require_finite("eps", eps, 0.0, strict=True)
    exp = np.exp if batch else cmath.exp
    c_phi = b.vc - eps * eps
    c_psi = b.vc + eps * eps
    d_phi = 1j * b.vq * exp(1j * b.theta)
    d_psi = 1j * b.vq * exp(-1j * b.theta)
    rows = [
        [0.0, 1.0, 0.0, 0.0],
        [c_phi, 0.0, d_phi, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [d_psi, 0.0, c_psi, 0.0],
    ]
    return complex_stack(rows) if batch else np.array(rows, dtype=complex)


def _inv(m: np.ndarray) -> np.ndarray:
    """The inverse of each 2x2 block of m (2, 2, n), points last."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _scattering(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The scattering matrices (rl, tb, tf, rr), stacked (4, 2, 2, n), of segment maps m (n, 4, 4) in the channels at k.

    In the channels (going right | going left), m = [[C, S], [K@S, C]] is
    [[diag(C) + U - V, offdiag(C) - U - V], [offdiag(C) + U + V, diag(C) - U + V]]
    with U = i*k*S@J/2, V = i*J@(K@S)/(2k) and J = diag(1, -1).
    """
    y, j = m.transpose(1, 2, 0), np.array([1.0, -1.0])
    c = y[0::2, 0::2]
    diag = c * _EYE
    u = (0.5j * k) * y[0::2, 1::2] * j[:, None]
    v = (0.5j / k) * y[1::2, 0::2] * j[:, None, None]
    t12 = c - diag - u - v
    tf = _inv(diag + u - v)
    rl = _mul(c - diag + u + v, tf)
    return np.stack([rl, diag - u + v - _mul(rl, t12), tf, -_mul(tf, t12)])


def _square(z: np.ndarray) -> np.ndarray:
    """The star product of each scattering matrix z = (rl, tb, tf, rr), stacked (4, 2, 2, n), with itself.

    X = inv(I - rr@rl) is the only inverse (Redheffer): tf' = tf@X@tf,
    rr' = rr + tf@X@rr@tb, rl' = rl + tb@rl@X@tf, tb' = tb@(I + rl@X@rr)@tb.
    """
    rl, tb, tf, rr = z
    xs = _mul(_inv(_EYE - _mul(rr, rl)), z[2:])  # X@tf, X@rr
    (tf_x_tf, tf_x_rr), (rl_x_tf, rl_x_rr) = _mul(z[2::-2, None], xs)
    rr_tb, tb_tb = _mul(np.stack([tf_x_rr, _EYE + rl_x_rr]), tb)
    rl_tb = _mul(tb, np.stack([rl_x_tf, tb_tb]))
    return np.stack([rl + rl_tb[0], rl_tb[1], tf_x_tf, rr + rr_tb])


def _edges(z: np.ndarray, eps: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(R, Rt, tau, sigma), a (4, n) array, from the barrier's scattering matrices z in the channels at k.

    The free zones' channels are phi's waves (1, +-i*eps) and psi's (1, -+eps),
    at kappa = -i*eps.  Seen from the barrier, each edge reflects
    rho = (k - kappa)/(k + kappa) and passes 2*k/(k + kappa) of a channel.
    """
    rl, tb, tf, rr = z
    kappa = np.array([eps + 0j, -1j * eps])
    rho, through = (k - kappa) / (k + kappa), 2.0 * k / (k + kappa)
    xt = _mul(_inv(_EYE - rr * rho), tf)
    right = np.stack([rl + _mul(tb * rho, xt), through[:, None] * xt])  # rl and tf with the right edge
    out = _mul(right, _inv(_EYE - rho[:, None] * right[0])[:, :1]).reshape(4, -1) * (2.0 * eps / (k + eps))
    out[:2] *= through
    out[0] -= rho[0]
    return out


def _amplitudes(a: np.ndarray, eps: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(R, Rt, tau, sigma), a (4, n) array, of the split systems a (n, 4, 4) at widths lam."""
    s = _squarings(a, lam)
    k = np.maximum(eps, np.minimum(1.0, lam))
    z = _scattering(transfer_numeric(a, lam * 0.5**s), k)
    for i in range(s.max(initial=0)):
        z[..., s > i] = _square(z[..., s > i])
    return _edges(z, eps, k)


def oracle_amplitudes(eps, b):
    """Scattering amplitudes with no closed formula anywhere in the path (module docstring).

    A float eps with one barrier b gives one ScatteringAmplitudes; equal-
    length sequences of energies and barriers give a list with one record
    per point, each the single call's bit for bit, integrated in blocks of
    `barrier.blocks(n, 16)` points.  Interior coefficients are not produced.

    tt is None where exp(eps*lam) overflows, as in `CriticalAmplitudes`, and
    where its right-edge datum sigma = Tt*exp(-eps*lam) is subnormal, or 0
    at vq*lam > 0 (at vq*lam = 0, Tt is exactly 0); r, rt and t do not depend on it.

    Raises:
        ValueError: at the first point whose eps is not > 0, or where eps**2
            overflows (eps >= 2**512), the channel wave number k is subnormal
            or max(eps, 1)*lam exceeds _REACH (~2.79e5).
    """
    single = isinstance(b, AdimensionalBarrier)
    energies, barriers = ([eps], [b]) if single else (list(eps), list(b))
    eps_all, cols = columns(energies, barriers)
    bad = ~((0.0 < eps_all) & (eps_all < 2.0**512) & (cols.lam <= _REACH / np.maximum(eps_all, 1.0))
            & (np.maximum(eps_all, np.minimum(1.0, cols.lam)) >= sys.float_info.min))
    if bad.any():  # the first failing point raises what it would raise alone
        first = bad.argmax()
        e, bar = energies[first], barriers[first]
        require_finite("eps", e, 0.0, strict=True)
        raise ValueError(f"eps={e!r} at lam={bar.lam!r} is beyond the integrator's reach: eps**2 must be "
                         f"finite, max(eps, min(1, lam)) at least {sys.float_info.min:.4g} and "
                         f"max(eps, 1)*lam at most {_REACH:.4g}")
    a = split_ode(cols, eps_all)
    x = np.empty((4, len(barriers)), dtype=complex)
    for block in blocks(len(a), 16):
        x[:, block] = _amplitudes(a[block], eps_all[block], cols.lam[block])
    amps = [ScatteringAmplitudes(r, rt, tau * cmath.exp(-1j * e * bar.lam),
                                 _far_edge(sigma, e * bar.lam, min(bar.vq, bar.lam) > 0))
            for (r, rt, tau, sigma), e, bar in zip(x.T.tolist(), energies, barriers)]
    return amps[0] if single else amps


def _far_edge(sigma: complex, growth: float, coupled: bool) -> complex | None:
    """Tt = sigma*exp(growth) from the right-edge datum sigma; None where exp(growth) overflows or sigma underflows."""
    if abs(sigma) < sys.float_info.min and (sigma or coupled):
        return None
    try:
        return sigma * cmath.exp(growth)
    except OverflowError:
        return None
