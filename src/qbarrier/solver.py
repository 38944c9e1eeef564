"""Full boundary-matching solve: the eight continuity equations of the wavefunction.

The wavefunction in the three zones (xi in units of the inverse barrier
wave number, width lam):

    zone I   (xi < 0):        exp(i*eps*xi) + exp(-i*eps*xi)*R + j*exp(eps*xi)*Rt
    zone II  (0 <= xi <= lam): (1 + j*gamma)*(A*cosh(am*s) + B*shc(am, s))
                               + (beta + j)*(At*cosh(ap*s) + Bt*shc(ap, s))
    zone III (xi > lam):      exp(i*eps*xi)*T + j*exp(-eps*xi)*Tt

with s = xi - lam/2 and shc(a, s) = sinh(a*s)/a.  The basis is entire in
am**2 and ap**2, so the threshold eps = 1, where am or ap vanishes, is a
regular point; centring it on the barrier splits the growth of the fast
pair evenly between the two edges.  Continuity of value and derivative at
xi = 0 and xi = lam, split into the complex and the pure quaternionic
part, gives eight complex equations for the eight unknowns
(R, Rt, T, Tt, A, B, At, Bt).  This module assembles and solves that
system directly - deliberately not through the transfer matrix - so the
closed formula has an independent in-repo check.  The wavefunction
itself, evaluated piecewise from `solve`'s amplitudes, and its probability
current are the test-side referee `tests/quaternion_reference.py`.

`solve` takes one point or a batch of columns: a batch's systems are
assembled by the same body with numpy, as an (n, 8, 8) stack per block of
points, and solved by one stacked inverse per block.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .barrier import AdimensionalBarrier, WaveParams, batch, blocks, complex_stack, shc, wave_params
from .errors import SingularSystemError


class ScatteringAmplitudes(NamedTuple):
    """Outer amplitudes (r, rt, t, tt) and interior coefficients (a, b, at, bt).

    a, b, at, bt multiply cosh(am*s), shc(am, s), cosh(ap*s) and shc(ap, s),
    s = xi - lam/2 (module docstring).  They are None when produced by a
    route that does not construct that basis (the brute-force integrator),
    which also gives tt as None where exp(eps*lam) overflows or Tt*exp(-eps*lam) underflows.
    """

    r: complex
    rt: complex
    t: complex
    tt: complex | None
    a: complex | None = None
    b: complex | None = None
    at: complex | None = None
    bt: complex | None = None


def _assemble(p: WaveParams, lam) -> tuple[np.ndarray, np.ndarray]:
    """Matrix and right-hand side of the continuity system.

    Unknown order: (R, Rt, T, Tt, A, B, At, Bt).  At the edges s = -+lam/2,
    where cosh(a*s) = c and shc(a, s) = -+h, with derivatives -+a**2*h and c.
    Like `wave_params`, one body serves a float p.eps (cmath; an 8x8 matrix
    and an 8-vector) and ndarrays p.eps and lam of n points (numpy; an
    (n, 8, 8) stack and an (n, 8, 1) stack).
    """
    eps = p.eps
    xp = np if isinstance(eps, np.ndarray) else cmath
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    half = 0.5 * lam
    cm, hm = xp.cosh(am * half), shc(am, half)
    cp, hp = xp.cosh(ap * half), shc(ap, half)
    dm, dp = am * am * hm, ap * ap * hp
    ie = 1j * eps
    phase = xp.exp(ie * lam)
    decay = xp.exp(-eps * lam)
    rows = [
        # value and derivative of the complex part at xi = 0
        [-1 + 0j, 0j, 0j, 0j, cm, -hm, beta * cp, -beta * hp],
        [ie, 0j, 0j, 0j, -dm, cm, -beta * dp, beta * cp],
        # value and derivative of the pure quaternionic part at xi = 0
        [0j, -1 + 0j, 0j, 0j, gamma * cm, -gamma * hm, cp, -hp],
        [0j, -eps + 0j, 0j, 0j, -gamma * dm, gamma * cm, -dp, cp],
        # value and derivative of the complex part at xi = lam
        [0j, 0j, -phase, 0j, cm, hm, beta * cp, beta * hp],
        [0j, 0j, -ie * phase, 0j, dm, cm, beta * dp, beta * cp],
        # value and derivative of the pure quaternionic part at xi = lam
        [0j, 0j, 0j, -decay, gamma * cm, gamma * hm, cp, hp],
        [0j, 0j, 0j, eps * decay, gamma * dm, gamma * cm, dp, cp],
    ]
    rhs = [1 + 0j, ie, 0j, 0j, 0j, 0j, 0j, 0j]
    if xp is cmath:
        return np.array(rows, dtype=complex), np.array(rhs, dtype=complex)
    return complex_stack(rows), complex_stack([[x] for x in rhs])


def solve(eps, b):
    """Solve the eight-equation continuity system for the eight amplitudes.

    The inverse is applied to the right-hand side: `np.linalg.solve` is
    faster but moves the last bits of the amplitudes.

    A float eps with one barrier b gives one ScatteringAmplitudes.  A
    batch, a float ndarray eps with the BarrierColumns b of its points
    (checked by `barrier.batch`), gives an (n, 8) complex ndarray, one row
    per point in the field order of ScatteringAmplitudes.  It assembles its
    systems with numpy, in blocks of `blocks(n, 64)` points, and applies
    one stacked inverse per block.  Its rows agree with the single calls'
    to ~1e-14 away from the degeneracy band, tt and the interior
    coefficients relatively: numpy's and cmath's complex functions differ
    in the last bits.  Its errors are the single calls': each point whose
    amplitudes come out non-finite, and each point of a block that holds an
    exactly singular matrix, is replayed through a single call in order, so
    the batch raises the error of the first point whose single call raises,
    and a replayed point that answers takes its value, as in
    `closed_form.transmission`.

    Raises:
        DegenerateEnergyError: from `wave_params`.
        SingularSystemError: if the inverse of a point's matrix fails.
        ValueError: from `barrier.batch`.
    """
    if isinstance(b, AdimensionalBarrier):
        mat, rhs = _assemble(wave_params(eps, b), b.lam)
        try:
            inverse = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            raise SingularSystemError(f"the continuity system is singular to working precision at "
                                      f"eps={eps!r}, lam={b.lam!r}") from None
        # the unknowns are ordered as the fields: (R, Rt, T, Tt, A, B, At, Bt)
        return ScatteringAmplitudes(*(inverse @ rhs).tolist())
    eps, b = batch(eps, b)
    x = np.empty((len(eps), 8), dtype=complex)
    for block in blocks(len(eps), 64):
        with np.errstate(all="ignore"):
            mat, rhs = _assemble(wave_params(eps[block], b.part(block)), b.lam[block])
            try:
                x[block] = (np.linalg.inv(mat) @ rhs)[..., 0]
            except np.linalg.LinAlgError:
                x[block] = np.nan
    for i in np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist():
        x[i] = solve(float(eps[i]), b.barrier(i))
    return x


def probability_balance(amps: ScatteringAmplitudes) -> float:
    """Norm-conservation defect 1 - |R|**2 - |T|**2 (zero in exact arithmetic)."""
    return 1.0 - abs(amps.r) ** 2 - abs(amps.t) ** 2
