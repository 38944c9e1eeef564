"""Brute-force amplitudes: integrate the interior system, match boundaries.

Splitting the interior wavefunction Phi = phi + j*psi into its complex and
pure quaternionic parts turns the quaternionic second-order equation into
two coupled complex equations,

    phi'' = (vc - eps**2)*phi + i*vq*exp( i*theta)*psi
    psi'' = (vc + eps**2)*psi + i*vq*exp(-i*theta)*phi,

verified here by substituting the exponential interior basis (the residual
test in the suite pins the coupling signs).  The first-order state
y = (phi, phi', psi, psi') obeys y' = A*y with constant A, so one classical
fourth-order Runge-Kutta step of size h is exactly the matrix

    S = I + hA + (hA)**2/2 + (hA)**3/6 + (hA)**4/24

applied to y; the full propagation map over the barrier is S**steps,
formed by binary powering: the same map in ~2*log2(steps) 4x4 products.
No branch choices, no special functions:
this route works at degenerate and threshold parameters alike and is the
independent check on every closed form in the package.
"""

from __future__ import annotations

import cmath

import numpy as np

from .barrier import AdimensionalBarrier, require_finite
from .solver import ScatteringAmplitudes

#: growing interior mode overflows long before this; hyperbolic closed forms
#: own the large-width regime
MAX_WIDTH = 30.0

MIN_STEPS = 1000
DEFAULT_STEPS = 4096


def split_ode(b: AdimensionalBarrier, eps: float) -> np.ndarray:
    """Constant 4x4 matrix A of the interior system y' = A*y, y = (phi, phi', psi, psi')."""
    require_finite("eps", eps, 0.0, strict=True)
    c_phi = b.vc - eps * eps
    c_psi = b.vc + eps * eps
    d_phi = 1j * b.vq * cmath.exp(1j * b.theta)
    d_psi = 1j * b.vq * cmath.exp(-1j * b.theta)
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [c_phi, 0.0, d_phi, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [d_psi, 0.0, c_psi, 0.0],
        ],
        dtype=complex,
    )


def _propagation_matrix(a: np.ndarray, length: float, steps: int) -> np.ndarray:
    """`steps` classical fourth-order steps from xi=0 to xi=length as one 4x4 map, S**steps.

    Its columns carry unit initial data (phi, phi', psi, psi'); the system is
    trace-free, so the map has determinant 1 up to integration error.
    """
    h = length / steps
    ha = h * a
    step = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / k
        step = step + term
    return np.linalg.matrix_power(step, steps)


#: per-segment exponential growth budget for the boundary matching
_SEGMENT_GROWTH = 4.0


def _segment_count(a: np.ndarray, lam: float) -> int:
    rates = np.linalg.eigvals(a)
    growth = float(np.max(rates.real)) * lam
    return max(1, int(np.ceil(growth / _SEGMENT_GROWTH)))


def oracle_amplitudes(eps: float, b: AdimensionalBarrier, steps: int = DEFAULT_STEPS) -> ScatteringAmplitudes:
    """Scattering amplitudes with no closed formula anywhere in the path.

    The interval is split into segments short enough that each segment's
    propagation map grows by at most exp(_SEGMENT_GROWTH); the segment
    maps, the two free-zone parameterizations and the interface states are
    assembled into one block linear system (multiple shooting).  A single
    end-to-end map would concentrate the full exp(alpha_plus*lam) growth
    into one matrix and lose the transmitted amplitude in its rounding.
    Interior coefficients are not produced.  A width above MAX_WIDTH or
    fewer than MIN_STEPS steps raises ValueError.
    """
    if b.lam > MAX_WIDTH:
        raise ValueError(f"width {b.lam!r} exceeds the integrator cap {MAX_WIDTH}")
    require_finite("steps", steps, MIN_STEPS)
    a = split_ode(b, eps)
    segments = _segment_count(a, b.lam)
    seg_len = b.lam / segments
    seg_steps = -(-steps // segments)  # ceil: total step count never drops
    p_seg = _propagation_matrix(a, seg_len, seg_steps)

    u_in = np.array([1.0, 1j * eps, 0.0, 0.0], dtype=complex)
    u_r = np.array([1.0, -1j * eps, 0.0, 0.0], dtype=complex)
    u_rt = np.array([0.0, 0.0, 1.0, eps], dtype=complex)
    v_t = np.array([1.0, 1j * eps, 0.0, 0.0], dtype=complex)
    v_tt = np.array([0.0, 0.0, 1.0, -eps], dtype=complex)

    # Unknowns: (R, Rt, y_1 ... y_{segments-1}, tau, sigma); y_k is the
    # 4-state at interface k, tau/sigma the right-edge free-zone data.
    n = 4 * segments
    mat = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    mat[0:4, 0] = p_seg @ u_r
    mat[0:4, 1] = p_seg @ u_rt
    rhs[0:4] = -(p_seg @ u_in)
    for k in range(1, segments):
        col = 2 + 4 * (k - 1)
        mat[4 * (k - 1) : 4 * k, col : col + 4] -= np.eye(4)
        mat[4 * k : 4 * k + 4, col : col + 4] = p_seg
    mat[n - 4 : n, n - 2] = -v_t
    mat[n - 4 : n, n - 1] = -v_tt
    x = np.linalg.solve(mat, rhs)
    return ScatteringAmplitudes(
        r=complex(x[0]),
        rt=complex(x[1]),
        t=complex(x[n - 2]) * cmath.exp(-1j * eps * b.lam),
        tt=complex(x[n - 1]) * cmath.exp(eps * b.lam),
    )
