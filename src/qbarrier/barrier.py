"""Barrier descriptions and the derived complex wave parameters.

A physical barrier (three potential components V1, V2, V3, width L, mass,
hbar, particle energy E) reduces to four adimensional numbers:

    vc = V1/V0,  vq = sqrt(V2**2 + V3**2)/V0,  theta = atan2(V3, V2),
    lam = sqrt(2*m*V0/hbar**2) * L,            with V0 = |(V1, V2, V3)|,

plus the reduced energy eps = sqrt(E/V0).  Inside the barrier the wave
numbers and mixing coefficients are

    alpha_pm = sqrt(vc +/- sqrt(eps**4 - vq**2))
    beta     =  i*vq*exp( i*theta) / (eps**2 + sqrt(eps**4 - vq**2))
    gamma    = -i*vq*exp(-i*theta) / (eps**2 + sqrt(eps**4 - vq**2))

All square roots are principal-branch (non-negative real part; +i*sqrt|x|
for negative real x), which fixes every downstream sign deterministically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateEnergyError

#: below this |eps**4 - vq**2| the exponential basis is numerically collapsed
DEGENERACY_TOL = 1e-10

#: the least eps whose eps**4 overflows a float, and so the bound of every eps `wave_params` takes
EPS_LIMIT = 2.0**256

#: largest accepted |vc**2 + vq**2 - 1| for a reduced potential direction
UNIT_CIRCLE_TOL = 1e-12

#: most points a uniform grid may hold (the default width-table scan has ~11k),
#: and most rows or samples a resonance table or `verify` run may hold
MAX_GRID_POINTS = 1_000_000

#: below this |a*x| `shc` sums its Taylor series instead of dividing sinh(a*x) by a
SHC_SERIES_BELOW = 1e-3

#: complex entries of a matrix stack built in one piece (16 MiB): a batch as
#: large as `verify --samples` allows is cut into blocks this big (`blocks`)
MAX_ENTRIES = 1 << 20


def require_finite(name: str, value: float, lower: float = -math.inf, strict: bool = False) -> None:
    """The package's one input rule: value is finite and >= lower (> lower if strict).

    Written as a negated conjunction so that NaN, which fails every
    comparison, is rejected along with +-inf.  An int is finite at any
    size, where math.isfinite would overflow converting it to a float.

    Raises:
        ValueError: naming the input and its bound.
    """
    finite = isinstance(value, int) or math.isfinite(value)
    if not (finite and (value > lower if strict else value >= lower)):
        bound = "" if lower == -math.inf else f" and {'>' if strict else '>='} {lower!r}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def require_integer(name: str, value: int, lower: int) -> None:
    """value is an integer (a Python or numpy one, of any size) and >= lower.

    Raises:
        ValueError: naming the input and its bound.
    """
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    require_finite(name, value, lower)


def require_count(name: str, value: int) -> None:
    """value counts table rows or samples: an integer from 1 to MAX_GRID_POINTS, checked before any is built.

    Raises:
        ValueError: naming the input and its bound.
    """
    require_integer(name, value, 1)
    if value > MAX_GRID_POINTS:
        raise ValueError(f"{name} must be <= {MAX_GRID_POINTS}, got {value!r}")


def uniform_grid(start: float, stop: float, step: float) -> np.ndarray:
    """The points start + k*step, k = 0, 1, ..., up to stop (with 1e-9 steps of slack).

    A float ndarray, each point from the same two IEEE operations as the
    float expression start + k*step; equal ends give [start].  Every sweep
    and peak scan grid is built, and checked, here.

    Raises:
        ValueError: naming the input unless start is finite, stop finite and
            >= start and step finite and > 0; above MAX_GRID_POINTS points.
    """
    require_finite("start", start)
    require_finite("stop", stop, start)
    require_finite("step", step, 0.0, strict=True)
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ValueError(
            f"grid start={start!r}, stop={stop!r}, step={step!r} has more than "
            f"{MAX_GRID_POINTS} points"
        )
    return start + step * np.arange(int(math.floor(span)) + 1, dtype=float)


@dataclass(frozen=True)
class BarrierSpec:
    """Physical barrier: potential components, width, mass, hbar and energy."""

    v1: float
    v2: float
    v3: float
    length: float
    mass: float
    hbar: float
    energy: float

    def __post_init__(self):
        for name in ("v1", "v2", "v3"):
            require_finite(name, getattr(self, name))
        if self.v1 == 0.0 and self.v2 == 0.0 and self.v3 == 0.0:
            raise ValueError("potential is identically zero: no barrier")
        for name in ("length", "mass", "hbar", "energy"):
            require_finite(name, getattr(self, name), 0.0, strict=True)


class BarrierColumns(NamedTuple):
    """vc, vq, theta and lam of a batch of barriers, each a float ndarray of one entry per point.

    A batch route takes it with a float ndarray of energies (`batch`);
    `columns` builds it from a sequence of AdimensionalBarrier objects.
    """

    vc: np.ndarray
    vq: np.ndarray
    theta: np.ndarray
    lam: np.ndarray

    def part(self, index) -> BarrierColumns:
        """The columns at index, a slice or an index array, of every field."""
        return BarrierColumns(*(c[index] for c in self))

    def barrier(self, i: int) -> AdimensionalBarrier:
        """The i-th point as an AdimensionalBarrier (which checks it)."""
        return AdimensionalBarrier(*(float(c[i]) for c in self))


#: the lower bound of each AdimensionalBarrier field (`require_finite`)
LOWER_BOUNDS = BarrierColumns(vc=-math.inf, vq=0.0, theta=-math.inf, lam=0.0)


@dataclass(frozen=True)
class AdimensionalBarrier:
    """Reduced barrier: (vc, vq) on the unit circle, phase theta, width lam.

    The rule: each field finite and at least its LOWER_BOUNDS entry, and
    |vc**2 + vq**2 - 1| <= UNIT_CIRCLE_TOL.  `batch` applies it to columns.
    """

    vc: float
    vq: float
    theta: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        require_finite("vc", self.vc, LOWER_BOUNDS.vc)
        require_finite("vq", self.vq, LOWER_BOUNDS.vq)
        require_finite("theta", self.theta, LOWER_BOUNDS.theta)
        require_finite("lam", self.lam, LOWER_BOUNDS.lam)
        norm = self.vc * self.vc + self.vq * self.vq
        if abs(norm - 1.0) > UNIT_CIRCLE_TOL:
            raise ValueError(f"vc**2 + vq**2 must equal 1, got {norm!r}")


def columns(eps, barriers) -> tuple[np.ndarray, BarrierColumns]:
    """Equal-length sequences of energies and barriers as one float array and one BarrierColumns.

    The converter for a caller that holds AdimensionalBarrier objects: a
    batch route, `wave_params` and `transfer_numeric` take the result as
    they take one (eps, barrier) pair.

    Raises:
        ValueError: if the lengths differ.
    """
    if len(eps) != len(barriers):
        raise ValueError(f"{len(eps)} energies for {len(barriers)} barriers")
    fields = ([getattr(b, name) for b in barriers] for name in BarrierColumns._fields)
    return np.array(eps, dtype=float), BarrierColumns(*(np.array(f, dtype=float) for f in fields))


def batch(eps, cols: BarrierColumns) -> tuple[np.ndarray, BarrierColumns]:
    """A batch's energies and columns as float ndarrays of one length, the columns checked by AdimensionalBarrier's rule.

    A field given as a float holds at every point.  The rule is evaluated
    on the columns, and no AdimensionalBarrier is built unless a point
    breaks it: the first such point is then built, and raises what the
    class raises.  The energies are the route's to check.

    Raises:
        ValueError: if a column's length differs from the energies', if
            the energies are not a 1-d array, or from AdimensionalBarrier
            at the first point that breaks its rule.
    """
    eps = np.asarray(eps, dtype=float)
    stack = np.empty((4,) + eps.shape)
    for i, c in enumerate(cols):
        if np.ndim(c) and np.shape(c) != eps.shape:
            raise ValueError(f"{np.size(eps)} energies for {np.size(c)} barriers")
        stack[i] = c
    if eps.ndim != 1:
        raise ValueError(f"energies must be a 1-d array, got shape {eps.shape}")
    cols = BarrierColumns(*stack)
    ok = (np.isfinite(stack) & (stack >= np.array(LOWER_BOUNDS)[:, None])).all(axis=0)
    ok &= abs(cols.vc * cols.vc + cols.vq * cols.vq - 1.0) <= UNIT_CIRCLE_TOL
    if not ok.all():
        cols.barrier(int(ok.argmin()))
    return eps, cols


def blocks(n: int, entries: int) -> list[slice]:
    """Consecutive slices covering range(n), each of at most MAX_ENTRIES // entries points (at least one).

    entries is the number of complex entries a point adds to the largest
    stack a batch builds, so no block's stack holds more than MAX_ENTRIES.
    """
    size = max(1, MAX_ENTRIES // entries)
    return [slice(i, i + size) for i in range(0, n, size)]


def complex_stack(rows) -> np.ndarray:
    """(n, r, c) complex stack from r nested rows of c entries, each a length-n ndarray or a scalar.

    The array form of `np.array(rows, dtype=complex)`: scalars broadcast
    against the arrays, so element [k] is that matrix at the k-th point.
    Each entry is written into a contiguous row of an (r, c, n) buffer, and
    the stack is that buffer's transposed view, not a C-contiguous array.
    """
    n = next(len(x) for row in rows for x in row if isinstance(x, np.ndarray))
    out = np.zeros((len(rows), len(rows[0]), n), dtype=complex)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if isinstance(x, np.ndarray) or x != 0:  # the buffer starts as zeros
                out[i, j] = x
    return out.transpose(2, 0, 1)


class WaveParams(NamedTuple):
    """Derived complex quantities for one (eps, barrier) pair, or ndarrays over a grid or a batch."""

    eps: float
    alpha_minus: complex
    alpha_plus: complex
    beta: complex
    gamma: complex


def adimensionalize(spec: BarrierSpec) -> tuple[AdimensionalBarrier, float]:
    """Reduce a physical barrier to adimensional form; returns (barrier, eps).

    No square of an input is formed, so huge finite data cannot overflow.
    """
    v0 = math.hypot(spec.v1, spec.v2, spec.v3)
    scale = math.sqrt(2.0 * spec.mass * v0) / spec.hbar
    barrier = AdimensionalBarrier(
        vc=spec.v1 / v0,
        vq=math.hypot(spec.v2, spec.v3) / v0,
        theta=math.atan2(spec.v3, spec.v2),
        lam=scale * spec.length,
    )
    return barrier, math.sqrt(spec.energy / v0)


def shc(a, x):
    """sinh(a*x)/a, an entire function of a**2 that equals x at a = 0.

    Below |a*x| = SHC_SERIES_BELOW it sums x*(1 + z**2/6*(1 + z**2/20)),
    z = a*x, whose first omitted term is z**6/5040 of x.  Like `wave_params`,
    one body serves floats (cmath) and ndarrays (numpy, broadcast); on an
    ndarray the series is summed only at the elements below the switch, and
    only if there are any.
    """
    if not (isinstance(a, np.ndarray) or isinstance(x, np.ndarray)):
        z = a * x
        return _shc_series(z, x) if abs(z) < SHC_SERIES_BELOW else cmath.sinh(z) / a
    with np.errstate(all="ignore"):  # a*x may overflow; 0/0 at a = 0, overwritten by the series
        z = a * x
        out = np.sinh(z) / a
    small = abs(z) < SHC_SERIES_BELOW
    if small.any():
        out[small] = _shc_series(z[small], np.broadcast_to(x, z.shape)[small])
    return out


def _shc_series(z, x):
    return x * (1.0 + z * z / 6.0 * (1.0 + z * z / 20.0))


def wave_params(eps, b: AdimensionalBarrier) -> WaveParams:
    """Wave numbers alpha_pm and mixing coefficients beta, gamma.

    eps is a float or a float ndarray, and b an AdimensionalBarrier or, for
    a batch, its BarrierColumns (`batch`); one body serves all, with
    square roots from cmath for a float eps and from numpy for an array,
    and exp(+-i*theta) from cmath for a float theta.  The one
    singular-point rule: no route can build the basis without it.  A float
    eps that breaks it raises; an array holds NaN in alpha_minus and
    alpha_plus at each element that would raise, for the caller to replay
    as a float (see `closed_form.transmission`), and an array's non-finite
    entries come with no warning.

    At the threshold eps = 1 a barrier (vc > 0) has alpha_minus = 0 and a
    well (vc < 0) alpha_plus = 0.  That is a regular point: every route
    enters a wave number through cosh(a*x) and `shc`, both entire in a**2.

    Raises (float eps):
        ValueError: unless eps is finite, > 0 and < EPS_LIMIT.
        DegenerateEnergyError: if |eps**4 - vq**2| <= DEGENERACY_TOL, where
            alpha_plus == alpha_minus and the exponential basis collapses.
    """
    if not isinstance(eps, np.ndarray):
        return _wave_params(cmath, eps, b)
    with np.errstate(all="ignore"):  # the NaN and inf entries are the signal
        return _wave_params(np, eps, b)


def _wave_params(xp, eps, b) -> WaveParams:
    """The body of `wave_params`, with xp the module (cmath or numpy) that takes its square roots."""
    # numpy's ** differs from libm pow in the last bit, which eps**4 - vq**2
    # amplifies near the degeneracy band; float_power is libm pow
    power = np.float_power if xp is np else pow
    if xp is cmath:
        require_finite("eps", eps, 0.0, strict=True)
        if not eps < EPS_LIMIT:
            raise ValueError(f"eps must be < 2**256, where eps**4 overflows, got {eps!r}")
    disc = power(eps, 4) - b.vq**2
    if xp is cmath and abs(disc) <= DEGENERACY_TOL:
        exact = (
            "; the exact eps = 1 amplitudes are critical_quaternionic (qbarrier critical --case q)"
            if (b.vc, b.vq) == (0.0, 1.0) else ""
        )
        raise DegenerateEnergyError(
            f"eps**4 - vq**2 = {disc:.3e} is inside the degeneracy band "
            f"(eps={eps!r}, vq={b.vq!r}): the exponential basis collapses{exact}"
        )
    root = xp.sqrt(disc + 0j)
    if xp is np:
        root = np.where((0.0 < eps) & (eps < EPS_LIMIT) & (abs(disc) > DEGENERACY_TOL), root, np.nan)
    denom = power(eps, 2) + root
    exp = np.exp if xp is np and isinstance(b.theta, np.ndarray) else cmath.exp
    return WaveParams(
        eps=eps,
        alpha_minus=xp.sqrt(b.vc - root),
        alpha_plus=xp.sqrt(b.vc + root),
        beta=1j * b.vq * exp(1j * b.theta) / denom,
        gamma=-1j * b.vq * exp(-1j * b.theta) / denom,
    )
