"""Brute-force amplitudes: integrate the interior system, match boundaries.

Splitting the interior wavefunction Phi = phi + j*psi into its complex and
pure quaternionic parts turns the quaternionic second-order equation into
two coupled complex equations,

    phi'' = (vc - eps**2)*phi + i*vq*exp( i*theta)*psi
    psi'' = (vc + eps**2)*psi + i*vq*exp(-i*theta)*phi,

verified here by substituting the exponential interior basis (the residual
test in the suite pins the coupling signs).  The first-order state
y = (phi, phi', psi, psi') obeys y' = A*y with constant A, so the state at
one end of a segment of length h is the state at the other end times a
matrix exponential: y(0) = exp(-A*h) @ y(h).  Each segment map is
`transfer.transfer_numeric`, the same exponential that checks the closed
transfer table, accurate to rounding at any length.  In the order
(phi, psi | phi', psi') A is [[0, I], [K, 0]], so exp(-A*h) is
[[C, S], [K@S, C]] with C = sum_j (h**2*K)**j/(2j)! and
S = -h*sum_j (h**2*K)**j/(2j+1)!: the even and odd parts of its Taylor
series in the 2x2 block K.  Each point's h is scaled by 2**-s until
||(h*2**-s)**2*K||_1 <= 4, both series are summed to j = 12 (the first
omitted term is at most 2**26/26! ~ 1.7e-19 of its block's leading one)
and the blocks are squared back s times.  No branch choices, no special
functions: this route works at degenerate and threshold parameters alike
and is the independent check on every closed form in the package.

A point's segment count keeps each segment map's growth below
exp(_SEGMENT_GROWTH).  It is read off the spectrum of A**2, a 2x2 block of
A's entries (`_segment_count`), with no eigensolver; a point that needs
more than MAX_SEGMENTS (256) segments raises ValueError.

`oracle_amplitudes` takes one point or many in one call.  The segment
maps of a batch come from one stacked exponential per block of points;
the points are then grouped by segment count, and each group is matched
by one stacked solve, with the same floating-point operations per point
as a call for that point alone.
"""

from __future__ import annotations

import cmath

import numpy as np

from .barrier import AdimensionalBarrier, blocks, columns, complex_stack, require_finite
from .solver import ScatteringAmplitudes
from .transfer import transfer_numeric

#: growing interior mode overflows long before this; hyperbolic closed forms
#: own the large-width regime
MAX_WIDTH = 30.0

#: most segments one point may take, a (1024, 1024) complex block system
#: (16 MiB); eps = 25 at lam = 29 takes 182
MAX_SEGMENTS = 256


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


#: per-segment exponential growth budget for the boundary matching
_SEGMENT_GROWTH = 4.0


def _segment_count(a: np.ndarray, lam):
    """Segment count (a whole float) of one 4x4 matrix at width lam, or of each matrix of a stack at its lam.

    A**2 acts on (phi, psi) as K = [[A10, A12], [A30, A32]], so A's
    eigenvalues are +-sqrt(mu) for K's eigenvalues mu = h +- r, whatever
    the sign of r.  Not finite where eps**4 overflows; the caller checks
    the count against MAX_SEGMENTS.
    """
    k00, k01, k10, k11 = a[..., 1, 0], a[..., 1, 2], a[..., 3, 0], a[..., 3, 2]
    with np.errstate(all="ignore"):
        h = (k00 + k11) / 2
        r = np.sqrt((k00 - k11) ** 2 / 4 + k01 * k10)
        growth = np.maximum(np.sqrt(h + r).real, np.sqrt(h - r).real) * lam
    return np.maximum(1, np.ceil(growth / _SEGMENT_GROWTH))


def _shoot(m: np.ndarray, eps: np.ndarray, segments: int) -> np.ndarray:
    """(R, Rt, tau, sigma) of each point from its segment map, an (n, 4, 4) stack of one segment count."""
    # the free-zone states as columns: the incident and the reflected wave,
    # the reflected pure quaternionic wave and the one transmitted with sigma
    u = complex_stack([[1.0, 1.0, 0.0, 0.0], [1j * eps, -1j * eps, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, eps, -eps]])

    # Unknowns: (R, Rt, y_1 ... y_{segments-1}, tau, sigma); y_k is the
    # 4-state at interface k, tau/sigma the right-edge free-zone data.
    # Row block k reads y_k - m @ y_{k+1} = 0, with y_0 and y_segments the
    # free-zone states at the two edges.
    n = 4 * segments
    mat = np.zeros((len(eps), n, n), dtype=complex)
    rhs = np.zeros((len(eps), n, 1), dtype=complex)
    mat[:, 0:4, 0:2] = u[..., 1:3]
    rhs[:, 0:4, 0] = -u[..., 0]
    for k in range(1, segments):
        col = 2 + 4 * (k - 1)
        mat[:, 4 * (k - 1) : 4 * k, col : col + 4] = -m
        mat[:, 4 * k : 4 * k + 4, col : col + 4] = np.eye(4)
    mat[:, n - 4 : n, n - 2 : n] = -(m @ u[..., ::3])  # the transmitted wave's state has the incident form
    x = np.linalg.solve(mat, rhs)[..., 0]
    return x[:, [0, 1, n - 2, n - 1]]


def oracle_amplitudes(eps, b):
    """Scattering amplitudes with no closed formula anywhere in the path.

    The interval is split into segments short enough that each segment's
    propagation map grows by at most exp(_SEGMENT_GROWTH); the segment
    maps exp(-A*lam/segments), the two free-zone parameterizations and the
    interface states are assembled into one block linear system (multiple
    shooting).  A single end-to-end map would concentrate the full
    exp(alpha_plus*lam) growth into one matrix and lose the transmitted
    amplitude in its rounding.  Interior coefficients are not produced.

    A float eps with one barrier b gives one ScatteringAmplitudes; equal-
    length sequences of energies and barriers give a list with one record
    per point, each the single call's bit for bit.  The split systems are
    built as one stack, and the segment maps come from one
    `transfer_numeric` call per block of `barrier.blocks(n, 16)` points; the
    points are then grouped by segment count, and each group is matched by
    one stacked linear solve per block of its points.

    tt is None where exp(eps*lam) overflows, as in `CriticalAmplitudes`;
    r, rt and t do not depend on it.

    Raises:
        ValueError: at the first point whose width exceeds MAX_WIDTH, whose
            eps is not > 0, or which needs more than MAX_SEGMENTS segments.
    """
    single = isinstance(b, AdimensionalBarrier)
    energies, barriers = ([eps], [b]) if single else (list(eps), list(b))
    eps_all, cols = columns(energies, barriers)
    a, lam = split_ode(cols, eps_all), cols.lam
    del cols  # vc, vq and theta are not read again; the stacks below are the oracle's peak memory
    counts = _segment_count(a, lam)
    bad = (lam > MAX_WIDTH) | ~((0.0 < eps_all) & (eps_all < np.inf)) | ~(counts <= MAX_SEGMENTS)
    if bad.any():  # the first failing point raises what it would raise alone
        first = bad.argmax()
        e, bar = energies[first], barriers[first]
        if bar.lam > MAX_WIDTH:
            raise ValueError(f"width {bar.lam!r} exceeds the integrator cap {MAX_WIDTH}")
        require_finite("eps", e, 0.0, strict=True)
        raise ValueError(f"eps={e!r} at lam={bar.lam!r} needs more than the integrator cap of "
                         f"{MAX_SEGMENTS} segments")
    segments = counts.astype(int)
    for block in blocks(len(a), 16):  # a becomes the segment maps; A is not read again
        a[block] = transfer_numeric(a[block], lam[block] / segments[block])
    x = np.empty((len(barriers), 4), dtype=complex)
    for s in np.unique(segments).tolist():
        group = np.flatnonzero(segments == s)
        for part in blocks(len(group), 16 * s * s):
            x[group[part]] = _shoot(a[group[part]], eps_all[group[part]], s)
    amps = [
        ScatteringAmplitudes(
            r=r, rt=rt, t=tau * cmath.exp(-1j * e * bar.lam), tt=_far_edge(sigma, e * bar.lam)
        )
        for (r, rt, tau, sigma), e, bar in zip(x.tolist(), energies, barriers)
    ]
    return amps[0] if single else amps


def _far_edge(sigma: complex, growth: float) -> complex | None:
    """Tt = sigma*exp(growth) from the right-edge datum sigma, or None where exp(growth) overflows."""
    try:
        return sigma * cmath.exp(growth)
    except OverflowError:
        return None
