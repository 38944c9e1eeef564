"""Resonance locations: closed forms for the complex barrier, scans otherwise.

For the complex barrier (vc=1) the transmission probability reaches 1
exactly when sqrt(eps**2 - 1)*lam = n*pi, which gives closed expressions
for the resonance energies at fixed width and resonance widths at fixed
energy, together with their spacings and the interleaved minima.  For
quaternionic barriers the peaks shift and flatten; they are located
numerically by one array evaluation over a coarse grid followed by
scalar golden-section refinement.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .barrier import AdimensionalBarrier, require_count, require_finite, uniform_grid, wave_params
from .closed_form import _amplitude, transmission, transmission_grid

#: golden-section shrink factor
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: width of the bracket around each refined peak location
REFINE_TOL = 1e-6


def complex_resonance_energies(lambda0: float, n_max: int) -> list[tuple[float, float, float]]:
    """(eps_n, spacing to the next peak, offset of the following minimum) for n = 1..n_max.

    eps_n = sqrt(1 + n**2*pi**2/lambda0**2), a ValueError naming lambda0 where
    its square overflows at n = n_max + 1, or where rounding leaves eps_1 at 1
    or any spacing or offset not positive; the minimum between peaks n and
    n+1 sits at the half-integer condition.
    """
    require_finite("lambda0", lambda0, 0.0, strict=True)
    require_count("n_max", n_max)
    top = (n_max + 1) * math.pi / lambda0
    require_finite(f"({n_max + 1}*pi/lambda0)**2", top * top)

    def eps_at(n: float) -> float:
        return math.sqrt(1.0 + (n * math.pi / lambda0) ** 2)

    out = []
    for n in range(1, n_max + 1):
        e = eps_at(n)
        out.append((e, eps_at(n + 1) - e, eps_at(n + 0.5) - e))
    if not (out[0][0] > 1.0 and all(spacing > 0.0 and offset > 0.0 for _, spacing, offset in out)):
        raise ValueError(f"lambda0 {lambda0!r} is too large: its resonance energies round together near 1")
    return out


def complex_resonance_widths(eps0: float, n_max: int) -> list[tuple[float, float, float]]:
    """(lam_n, peak spacing, minimum offset) at fixed eps0 > 1, tabulated order.

    Full transparency occurs at every lam = n*pi/sqrt(eps0**2 - 1); the
    spacing pi/sqrt(eps0**2 - 1) is independent of n and the minima sit
    halfway.  Width tables conventionally start one spacing above zero:
    the fundamental (n = 1) equals the spacing itself and serves as the
    scan origin, so the sequence begins at n = 2 (at eps0 = sqrt(2) that
    is 2*pi, 3*pi, 4*pi, ...).  An eps0 whose square overflows is a ValueError.
    """
    require_finite("eps0", eps0, 1.0, strict=True)  # no oscillatory regime below threshold
    require_finite("eps0**2", eps0 * eps0)
    require_count("n_max", n_max)
    k = math.sqrt(eps0 * eps0 - 1.0)
    return [
        (n * math.pi / k, math.pi / k, math.pi / (2.0 * k))
        for n in range(2, 2 + n_max)
    ]


def min_transmission(eps_tilde: float) -> float:
    """Transmission probability at a half-integer minimum of the complex barrier.

    Equals [1 + 1/(4*e**2*(e**2-1))]**-1 and tends to 1 as e grows.
    """
    require_finite("eps_tilde", eps_tilde, 1.0, strict=True)
    e2 = eps_tilde * eps_tilde
    return 1.0 / (1.0 + 1.0 / (4.0 * e2 * (e2 - 1.0)))


def _golden_section(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Abscissa of the maximum of f on [a, b] for unimodal f, to within tol."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def scan_peaks(
    b: AdimensionalBarrier,
    lo: float,
    hi: float,
    *,
    eps0: float | None = None,
    coarse_step: float = 1e-3,
) -> list[tuple[float, float]]:
    """Local maxima (location, |T|**2) of |T|**2 along one variable, in increasing location.

    Without eps0 the scan runs over eps in [lo, hi] at the barrier's own
    width; with eps0 it runs over lam in [lo, hi] at that energy.  One
    `transmission_grid` call over a coarse grid brackets each interior
    peak, then golden-section search over scalar evaluations of the closed
    form refines its location to REFINE_TOL: `transmission` calls for an
    energy scan, and for a width scan the kernel on wave parameters computed
    once at eps0.  An empty result is not an error; `uniform_grid` checks
    lo, hi and coarse_step as its start, stop and step.
    """
    grid = uniform_grid(lo, hi, coarse_step)
    if eps0 is None:
        t = transmission_grid(grid, b.lam, b)

        def prob(x: float) -> float:
            return transmission(x, b).prob

    else:
        t = transmission_grid(eps0, grid, b)
        p = wave_params(eps0, b)  # the grid has raised any error this could

        def prob(x: float) -> float:
            return abs(_amplitude(p, x)) ** 2

    ys = np.abs(t) ** 2
    is_peak = (ys[:-2] < ys[1:-1]) & (ys[1:-1] >= ys[2:])

    peaks = []
    for i in np.flatnonzero(is_peak).tolist():
        # float brackets: from an np.float64 the probe would take numpy's pow, not libm's
        x = _golden_section(prob, float(grid[i]), float(grid[i + 2]), REFINE_TOL)
        peaks.append((x, prob(x)))
    return peaks
