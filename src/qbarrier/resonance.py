"""Resonance locations: closed forms for the complex barrier, scans otherwise.

For the complex barrier (vc=1) the transmission probability reaches 1
exactly when sqrt(eps**2 - 1)*lam = n*pi, which gives closed expressions
for the resonance energies at fixed width and resonance widths at fixed
energy, together with their spacings and the interleaved minima.  For
quaternionic barriers the peaks shift and flatten; they are located
numerically by one array evaluation over a coarse grid followed by a
scalar refinement of each bracketed peak: golden-section search on |T|**2
over energy, and false position on the exact slope of |D|**2 over width.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .barrier import AdimensionalBarrier, BarrierColumns, np, require_count, require_finite, uniform_grid, wave_params
from .closed_form import _amplitude, denominator_slope, transmission

#: golden-section shrink factor
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: width of the bracket around each refined energy-scan peak
REFINE_TOL = 1e-6

#: a width-scan peak's bracket is refined until it is this many ulp of its upper end wide
ROOT_ULPS = 4

#: ulp of its |T|**2 by which a peak must stand above its col on each side (`_stand_out`)
PEAK_FLOOR = 64


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


def _false_position(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b], where fa = f(a) < 0 <= fb = f(b), by Illinois false position.

    Each secant iterate replaces the bracket end of its own sign; an end
    kept twice in a row has its value halved (Dowell & Jarratt, BIT 11,
    1971), so both ends close in.  It stops when the bracket is ROOT_ULPS
    ulp wide, or an iterate is not strictly inside it: the bracket shrinks
    at every step, so it always stops.
    """
    kept = 0  # which end the last step kept: -1 a, +1 b
    while True:
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b or b - a <= ROOT_ULPS * math.ulp(b):
            return x
        fx = f(x)
        if fx < 0.0:
            a, fa = x, fx
            if kept > 0:
                fb *= 0.5
            kept = 1
        elif fx > 0.0:
            b, fb = x, fx
            if kept < 0:
                fa *= 0.5
            kept = -1
        else:
            return x


def _stand_out(heights: np.ndarray, tops: list[int]) -> list[bool]:
    """Whether each of tops stands PEAK_FLOOR ulp above its col on each side.

    The col on one side is the lowest height between the top and the
    nearest height above it there, or the grid's end: the topographic
    prominence.  An equal height counts as above on the left, so of equal
    tops only the leftmost stands out.  A NaN counts as above and makes
    its side's col NaN, which fails the top on the left only, as max() does.
    The nearest height above a top climbs, with no lower one or NaN on the
    way, to an end or a local maximum h[k-1] < h[k] >= h[k+1], a NaN
    neighbour counting as lower; only those, NaNs and tops are searched.
    """
    if not tops:
        return []
    keep = np.ones(len(heights), bool)  # the ends, then the NaNs and the local maxima
    keep[1:-1] = ~(heights[:-2] >= heights[1:-1]) & ~(heights[1:-1] < heights[2:])
    keep[tops] = True
    at = np.flatnonzero(keep)
    left = _cols(heights, at, operator.lt)
    right = _cols(heights[::-1], len(heights) - 1 - at[::-1], operator.le)[::-1]
    col = np.where(right > left, right, left)[np.searchsorted(at, tops)]  # max(left, right)
    return [x - c >= PEAK_FLOOR * math.ulp(x) for x, c in zip(heights[tops].tolist(), col.tolist())]


def _cols(heights: np.ndarray, at: np.ndarray, below: Callable[[float, float], bool]) -> np.ndarray:
    """The col toward the grid's start of each index of at, in order.

    Its search stops at the nearest earlier index of at not below(it, the
    index), or at the start; the col is the least height from there to the
    index.  A NaN is below no height, so a search stops there and the col
    is NaN.  One pass keeps a stack of the indices no later one has passed,
    each with the least height up to the next.
    """
    highs = heights[at].tolist() + [math.nan]  # stack[-1] = -1 reads the grid's start
    gaps = np.minimum.reduceat(heights, at).tolist()  # the ends are in at, so the gaps cover the grid
    cols, stack, lows = [], [-1], [math.inf]
    for i, h in enumerate(highs[:-1]):
        low = lows[-1]
        while below(highs[stack[-1]], h):
            del stack[-1], lows[-1]
            if not lows[-1] >= low:  # the lesser, or a NaN
                low = lows[-1]
        lows[-1] = low
        cols.append(h if low >= h else low)
        stack.append(i)
        lows.append(gaps[i])
    return np.array(cols)


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
    `transmission` batch gives |T|**2 on the grid lo + k*coarse_step,
    with its errors.  An energy scan brackets each grid point that is
    higher than its left neighbour and no lower than its right one, and
    refines it by golden-section search over `transmission` calls to
    REFINE_TOL.  A width scan brackets each sign change from negative to
    positive of the slope Re(conj(D)*dD/dlam) of |D|**2 = 4/|T|**2
    (`denominator_slope`) between neighbouring grid points, and refines it
    by `_false_position` on the slope to a few ulp, with the probes' wave
    parameters computed once at eps0.

    On a plateau, rounding noise makes maxima of its own, and a flat-topped
    peak several.  So the grid's |T|**2 takes in each refined peak (in
    place of the top grid point of an energy bracket, between the ends of
    a width bracket), and a peak is kept only if it stands out there by
    PEAK_FLOOR ulp (`_stand_out`).  An empty result is not an error;
    `uniform_grid` checks lo, hi and coarse_step as its start, stop and
    step.
    """
    grid = uniform_grid(lo, hi, coarse_step)
    # float brackets: from an np.float64 a probe would take numpy's pow, not libm's
    xs = grid.tolist()
    if eps0 is None:
        heights = np.abs(transmission(grid, BarrierColumns(b.vc, b.vq, b.theta, b.lam))) ** 2

        def prob(x: float) -> float:
            return transmission(x, b).prob

        tops = (np.flatnonzero((heights[:-2] < heights[1:-1]) & (heights[1:-1] >= heights[2:])) + 1).tolist()
        peaks = [(x, prob(x)) for x in (_golden_section(prob, xs[t - 1], xs[t + 1], REFINE_TOL) for t in tops)]
        heights[tops] = np.maximum(heights[tops], [y for _, y in peaks])
    else:
        ys = np.abs(transmission(np.full(grid.shape, eps0), BarrierColumns(b.vc, b.vq, b.theta, grid))) ** 2
        p = wave_params(eps0, b)  # the grid has raised any error this could

        def slope(x):
            d, d_lam = denominator_slope(p, x)
            return (d.conjugate() * d_lam).real

        g = slope(grid)
        ends = np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))
        found = [_false_position(slope, xs[i], xs[i + 1], float(g[i]), float(g[i + 1])) for i in ends.tolist()]
        peaks = [(x, abs(_amplitude(p, x)) ** 2) for x in found]
        # each peak goes in after its bracket's left end, which moves later ends one further
        tops = (ends + 1 + np.arange(len(ends))).tolist()
        heights = np.insert(ys, ends + 1, [y for _, y in peaks])
    return [peak for peak, keep in zip(peaks, _stand_out(heights, tops)) if keep]
