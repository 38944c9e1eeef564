"""Resonance closed forms and the peak scanner."""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    complex_resonance_energies,
    complex_resonance_widths,
    scan_peaks,
    solve,
    transmission,
)
from qbarrier import closed_form, resonance
from qbarrier.barrier import MAX_GRID_POINTS, BarrierColumns, uniform_grid, wave_params
from qbarrier.cli import main
from qbarrier.closed_form import denominator_slope
from qbarrier.resonance import PEAK_FLOOR, REFINE_TOL, _golden_section
from tests.conftest import FIVE_POTENTIALS
from tests.mp_reference import reference_width_peak

SQRT2 = math.sqrt(2.0)
PI = math.pi


class TestClosedForms:
    def test_energies_at_three_pi(self):
        rows = complex_resonance_energies(3.0 * PI, 3)
        eps = [r[0] for r in rows]
        assert eps[0] == pytest.approx(math.sqrt(10.0) / 3.0, abs=1e-14)
        assert eps[1] == pytest.approx(math.sqrt(13.0) / 3.0, abs=1e-14)
        assert eps[2] == pytest.approx(SQRT2, abs=1e-14)
        assert rows[0][1] == pytest.approx((math.sqrt(13.0) - math.sqrt(10.0)) / 3.0, abs=1e-14)
        assert rows[1][1] == pytest.approx(SQRT2 - math.sqrt(13.0) / 3.0, abs=1e-14)

    def test_minimum_offsets_sit_at_half_integer_condition(self):
        lam0 = 3.0 * PI
        rows = complex_resonance_energies(lam0, 2)
        for n, (eps_n, _, d_tilde) in enumerate(rows, start=1):
            probe = eps_n + d_tilde
            assert math.sqrt(probe**2 - 1.0) * lam0 == pytest.approx((n + 0.5) * PI, abs=1e-10)

    def test_spacings_vanish_for_wide_barriers(self):
        rows = complex_resonance_energies(1e4, 3)
        assert all(r[1] < 1e-3 for r in rows)

    @pytest.mark.parametrize("lambda0", [1e9, 1e300, 1.6924623115577888e8])
    def test_unresolved_energies_name_lambda0(self, lambda0):
        # every eps_n rounds to 1 at 1e9 and 1e300; at 1.69e8 eps_1 > 1 but the
        # first minimum rounds onto it, a zero offset
        with pytest.raises(ValueError, match="^lambda0 "):
            complex_resonance_energies(lambda0, 3)
        assert complex_resonance_energies(1e8, 3)[0][0] > 1.0

    def test_widths_at_sqrt2(self):
        rows = complex_resonance_widths(SQRT2, 3)
        assert rows[0][0] == pytest.approx(2.0 * PI, abs=1e-12)
        assert rows[1][0] == pytest.approx(3.0 * PI, abs=1e-12)
        assert rows[2][0] == pytest.approx(4.0 * PI, abs=1e-12)
        for lam_n, d_lam, d_tilde in rows:
            assert d_lam == pytest.approx(PI, abs=1e-12)
            assert d_tilde == pytest.approx(PI / 2.0, abs=1e-12)

    def test_width_spacing_diverges_at_threshold(self):
        rows = complex_resonance_widths(1.0 + 1e-6, 1)
        assert rows[0][0] > 1e3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            complex_resonance_widths(0.9, 2)
        with pytest.raises(ValueError):
            complex_resonance_energies(-1.0, 2)
        # the table size is bounded before any row is built
        with pytest.raises(ValueError, match="n_max"):
            complex_resonance_energies(3.0 * PI, MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match="n_max"):
            complex_resonance_widths(SQRT2, MAX_GRID_POINTS + 1)


def half_integer_minimum(eps):
    """|T|**2 of the complex barrier at eps and the width where sqrt(eps**2-1)*lam = pi/2."""
    return transmission(eps, AdimensionalBarrier(1.0, 0.0, 0.0, PI / (2.0 * math.sqrt(eps * eps - 1.0)))).prob


class TestMinTransmission:
    # at the half-integer condition the oscillation factor is exactly 1, so
    # |T|^2 = [1 + 1/(4*e**2*(e**2-1))]**-1, which tends to 1 as e grows
    def test_exact_rational_value(self):
        assert half_integer_minimum(SQRT2) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_near_threshold_value(self):
        # 1/(1 + 1/(4 * 1.21 * 0.21)), frozen from direct arithmetic
        assert half_integer_minimum(1.1) == pytest.approx(0.5040666534417774, abs=1e-13)

    def test_monotone_to_one(self):
        values = [half_integer_minimum(e) for e in (1.2, 1.5, 2.0, 4.0, 10.0, 1e3)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-5

    def test_matches_complex_formula_at_half_integer_condition(self):
        # the true valley of the eps-scan sits slightly below the value at
        # the half-integer energy because the prefactor also moves with eps
        lam0 = 2.0 * PI
        rows = complex_resonance_energies(lam0, 1)
        eps_half = rows[0][0] + rows[0][2]
        e2 = eps_half * eps_half
        at_half = transmission(eps_half, AdimensionalBarrier(1.0, 0.0, 0.0, lam0)).prob
        assert at_half == pytest.approx(1.0 / (1.0 + 1.0 / (4.0 * e2 * (e2 - 1.0))), abs=1e-12)
        lo = eps_half - 1e-3
        scanned_min = (abs(transmission(lo + 2e-6 * np.arange(1001), BarrierColumns(1.0, 0.0, 0.0, lam0))) ** 2).min()
        assert scanned_min <= at_half
        assert at_half - scanned_min < 3e-3


class TestScanPeaks:
    def test_complex_energy_scan_matches_closed_form(self):
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=3.0 * PI)
        peaks = scan_peaks(b, 1.001, 1.5)
        closed = [r[0] for r in complex_resonance_energies(3.0 * PI, 3)]
        assert len(peaks) >= 3
        for (found, prob), expected in zip(peaks, closed):
            assert found == pytest.approx(expected, abs=5e-6)
            assert prob == pytest.approx(1.0, abs=1e-9)

    def test_pure_quaternionic_energy_scan(self):
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3.0 * PI)
        peaks = scan_peaks(b, 1.001, 1.3)
        locs = [x for x, _ in peaks]
        assert locs[0] == pytest.approx(1.011, abs=5e-4)
        assert locs[1] == pytest.approx(1.077, abs=5e-4)
        assert locs[2] == pytest.approx(1.246, abs=5e-4)
        assert all(prob <= 1.0 + 1e-12 for _, prob in peaks)

    def test_pure_quaternionic_width_scan(self):
        # tabulated peaks are the ones above the fundamental spacing (pi here)
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0)
        locs = [x / PI for x, _ in scan_peaks(b, PI, 3.5 * PI, eps0=SQRT2)]
        assert locs[0] == pytest.approx(1.718, abs=5e-4)
        assert locs[1] == pytest.approx(2.478, abs=5e-4)
        assert locs[2] == pytest.approx(3.238, abs=5e-4)

    def test_sub_fundamental_peak_exists_but_is_not_tabulated(self):
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0)
        locs = [x / PI for x, _ in scan_peaks(b, 0.5, 3.5 * PI, eps0=SQRT2)]
        assert locs[0] < 1.0  # a real peak below the fundamental
        assert locs[1] == pytest.approx(1.718, abs=5e-4)

    def test_scan_invariants(self):
        b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.9, lam=3.0 * PI)
        peaks = scan_peaks(b, 1.001, 1.5)
        locs = [x for x, _ in peaks]
        assert len(locs) >= 3
        assert all(x1 < x2 for x1, x2 in zip(locs, locs[1:]))
        # between consecutive peaks |T|**2 dips below both
        for (x1, p1), (x2, p2) in zip(peaks, peaks[1:]):
            assert transmission(0.5 * (x1 + x2), b).prob < min(p1, p2)

    def test_quaternionic_width_spacing_constant(self):
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0)
        locs = [x for x, _ in scan_peaks(b, PI, 3.5 * PI, eps0=SQRT2)]
        gaps = [y - x for x, y in zip(locs, locs[1:])]
        assert abs(gaps[1] - gaps[0]) < 5e-4 * PI

    def test_empty_range_is_not_an_error(self):
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=0.5)
        assert scan_peaks(b, 1.05, 1.10) == []  # narrow barrier: no peak here

    def test_bad_arguments(self):
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1.0)
        with pytest.raises(ValueError):
            scan_peaks(b, 2.0, 1.0)


def test_peak_monotonicity_across_unit_circle():
    # increasing quaternionic weight pulls every location and spacing down
    lam0 = 3.0 * PI
    table = []
    for vc, vq in FIVE_POTENTIALS:
        if vq == 0.0:
            locs = [r[0] for r in complex_resonance_energies(lam0, 3)]
        else:
            b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=lam0)
            locs = [x for x, _ in scan_peaks(b, 1.001, 1.5)[:3]]
        table.append(locs)
    for prev, cur in zip(table, table[1:]):
        assert all(c < p for p, c in zip(prev, cur))
        assert (cur[1] - cur[0]) < (prev[1] - prev[0])


def per_point_scan(b, lo, hi, eps0=None, coarse_step=1e-3, coarse=None):
    """Peaks by the scan's former rule: golden-section search from each grid maximum.

    coarse(xs) gives |T|**2 on the grid points xs; by default one scalar
    transmission per point, the scan's former coarse pass.
    """
    if eps0 is None:
        def prob(x):
            return transmission(x, b).prob
    else:
        def prob(x):
            return transmission(eps0, AdimensionalBarrier(b.vc, b.vq, b.theta, x)).prob
    xs = uniform_grid(lo, hi, coarse_step).tolist()
    ys = [prob(x) for x in xs] if coarse is None else coarse(xs)
    peaks = []
    for i in range(1, len(xs) - 1):
        if ys[i - 1] < ys[i] >= ys[i + 1]:
            x = _golden_section(prob, xs[i - 1], xs[i + 1], REFINE_TOL)
            peaks.append((x, prob(x)))
    return peaks


@pytest.mark.parametrize("vc, vq", FIVE_POTENTIALS)
def test_grid_scan_is_bit_identical_to_per_point_scan(vc, vq):
    # the table scan of `qbarrier resonances --lambda-pi 3`; width scans refine on the slope instead
    lam0, n = 3.0 * PI, 3
    eps1 = complex_resonance_energies(lam0, n)[0][0]
    b = AdimensionalBarrier(vc, vq, 0.0, lam0)
    lo, hi = 1.0 + min(1e-3, (eps1 - 1.0) / 10.0), math.sqrt(1.0 + ((n + 0.5) * PI / lam0) ** 2)
    step = min(1e-3, (eps1 - 1.0) / 20.0)
    peaks = scan_peaks(b, lo, hi, coarse_step=step)
    assert peaks
    assert peaks == per_point_scan(b, lo, hi, None, step)


def cli_width_peaks(eps0, vc, vq, theta=0.0, n=3):
    """The n peak widths of `qbarrier resonances --eps0` for one scanned potential, from its JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["resonances", "--eps0", repr(eps0), f"--potentials={vc!r},{vq!r},{theta!r}",
                     "--n", str(n), "--format", "json"]) == 0
    values = json.loads(out.getvalue())["rows"][0]["values"]
    return [x * PI for x in values[:1] + values[1::2]]


def slope_rounding(eps0, b, x):
    """How far, relative to x, rounding can move the root x of g = Re(conj(D)*dD/dlam).

    g holds an absolute rounding error of about ulp(1)*|D|*|dD/dlam|, and
    crosses zero with slope g'; a shallow peak, whose g' is small beside
    |D|*|dD/dlam|, is located less sharply.
    """
    p = wave_params(eps0, b)

    def g(lam):
        d, d_lam = denominator_slope(p, lam)
        return (d.conjugate() * d_lam).real

    d, d_lam = denominator_slope(p, x)
    g_lam = (g(x + 1e-5) - g(x - 1e-5)) / 2e-5
    return math.ulp(1.0) * abs(d) * abs(d_lam) / abs(g_lam) / x


def width_cases(seed, n):
    """Seeded (eps0, vc, vq, theta): eps0 in (1.05, 3), (vc, vq) over the unit circle, wells included."""
    rng = np.random.default_rng(seed)
    eps0, phi = rng.uniform(1.05, 3.0, n), rng.uniform(0.0, PI, n)
    theta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0 * PI, n))
    return list(zip(eps0.tolist(), np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist()))


#: the README width table's scanned rows, then wells and theta != 0 potentials
MP_WIDTH_CASES = (
    [(1.41421356, vc, vq, 0.0) for vc, vq in FIVE_POTENTIALS[1:]]
    + [(eps0, -abs(vc), vq, theta) for eps0, vc, vq, theta in width_cases(24, 3)]
    + [(eps0, vc, vq, 1.0 + theta) for eps0, vc, vq, theta in width_cases(25, 3)]
)


@pytest.mark.parametrize("eps0, vc, vq, theta", MP_WIDTH_CASES)
def test_width_peaks_are_the_mp_maximisers(eps0, vc, vq, theta):
    for x in cli_width_peaks(eps0, vc, vq, theta):
        assert x == pytest.approx(reference_width_peak(eps0, vc, vq, theta, x), rel=1e-13, abs=0.0)


def test_shallow_width_peak_is_located_to_its_rounding_bound():
    # vc ~ 0 at eps0 ~ 2.9: |T|**2 barely moves, so g' is 1e-3 of |D|*|dD/dlam|
    eps0, vc, vq, theta = 2.8992404839189616, 0.05142184318099808, 0.9986770218863898, 0.21394421238539307
    b = AdimensionalBarrier(vc, vq, theta)
    x = cli_width_peaks(eps0, vc, vq, theta)[0]
    bound = slope_rounding(eps0, b, x)
    assert bound > 1e-13
    assert abs(x - reference_width_peak(eps0, vc, vq, theta, x)) <= 4.0 * bound * x


def test_width_scan_agrees_with_the_golden_scan_on_seeded_cases():
    # the former scan: golden-section search from each maximum of a 1e-3 grid
    def solver_prob(eps0, b, lam):
        return abs(solve(eps0, AdimensionalBarrier(b.vc, b.vq, b.theta, lam)).t) ** 2

    differ = 0
    for eps0, vc, vq, theta in width_cases(7, 200):
        b = AdimensionalBarrier(vc, vq, theta)
        rows = complex_resonance_widths(eps0, 3)
        lo, hi = rows[0][1], rows[-1][0] + 0.6 * rows[0][1]
        new = cli_width_peaks(eps0, vc, vq, theta)
        old = [x for x, _ in per_point_scan(
            b, lo, hi, eps0, coarse=lambda xs: (np.abs(transmission(
                np.full(len(xs), eps0), BarrierColumns(b.vc, b.vq, b.theta, np.array(xs)))) ** 2).tolist())]
        assert all(min(abs(x - y) for y in new) <= 1e-5 for x in old if x <= new[-1])  # none missed
        for x in new:
            y = min(old, key=lambda y: abs(x - y))
            if abs(x - y) <= 1e-6:
                continue
            differ += 1
            if abs(x - y) <= 1e-5:  # golden-section search on a flat top: the old location is the one off
                reference = reference_width_peak(eps0, vc, vq, theta, x)
                assert abs(x - reference) < 1e-3 * abs(y - reference)
            else:  # a peak the former scan did not see: a local maximum of the solver's |T|**2
                assert solver_prob(eps0, b, x) > max(solver_prob(eps0, b, x + s) for s in (-1e-5, 1e-5))
    assert differ <= 6


def test_width_scan_finds_a_peak_in_its_first_step():
    # the former scan needed a grid point on each side of a maximum; this one is 3.5e-4 above lo
    eps0, vc, vq, theta = 1.2804954756073303, -0.4090782425979441, 0.9124993103739737, 5.749061615207728
    lo = complex_resonance_widths(eps0, 3)[0][1]
    first = cli_width_peaks(eps0, vc, vq, theta)[0]
    assert 3e-4 < first - lo < 4e-4
    assert first == pytest.approx(reference_width_peak(eps0, vc, vq, theta, first), rel=1e-13)
    prob = [abs(solve(eps0, AdimensionalBarrier(vc, vq, theta, first + s)).t) ** 2 for s in (-1e-5, 0.0, 1e-5)]
    assert prob[1] > max(prob[0], prob[2])
    assert per_point_scan(AdimensionalBarrier(vc, vq, theta), lo, lo + 0.1, eps0) == []


def test_false_position_returns_an_exact_root_and_a_root_at_the_bracket_end():
    assert resonance._false_position(lambda x: x - 0.5, 0.0, 1.0, -0.5, 0.5) == 0.5
    assert resonance._false_position(lambda x: 1.0 / 0.0, 0.0, 1.0, -1.0, 0.0) == 1.0  # f is not called


def _stands_out(heights: np.ndarray, top: int) -> bool:
    """Whether heights[top] stands PEAK_FLOOR ulp above its col on each side.

    The col on one side is the lowest height between the top and the
    nearest height above it on that side, or the sequence's end: the
    topographic prominence.  An equal height counts as above on the left,
    so of equal tops only the leftmost stands out.
    """
    h = float(heights[top])
    left = np.flatnonzero(heights[:top] >= h)
    right = np.flatnonzero(heights[top + 1:] > h)
    col = max(heights[left[-1] + 1 if left.size else 0:top + 1].min(),
              heights[top:top + 1 + right[0] if right.size else None].min())
    return bool(h - col >= PEAK_FLOOR * math.ulp(h))


@pytest.mark.parametrize("heights, top, stands", [
    ([0.0, 1.0, 0.0], 1, True),
    ([0.0, 1.0, 1.0 - 1e-15, 1.0, 0.0], 1, True),  # of equal tops the leftmost stands
    ([0.0, 1.0, 1.0 - 1e-15, 1.0, 0.0], 3, False),
    ([0.5, 1.0 - 5e-15, 1.0 - 1e-14, 1.0, 0.5], 1, False),  # 45 ulp above its col, then a higher top
    ([0.5, 1.0 - 5e-15, 1.0 - 1e-14], 1, False),  # the col to the end
    # the floor: a top stands at 64 ulp above its higher col, not at 63
    ([0.75 - 64 * 2.0 ** -53, 0.75, 0.75 - 64 * 2.0 ** -53], 1, True),
    ([0.75 - 63 * 2.0 ** -53, 0.75, 0.75 - 64 * 2.0 ** -53], 1, False),
    ([0.75 - 64 * 2.0 ** -53, 0.75, 0.75 - 63 * 2.0 ** -53], 1, False),
])
def test_stands_out_by_the_peak_floor(heights, top, stands):
    assert _stands_out(np.array(heights), top) is stands
    assert resonance._stand_out(np.array(heights), [top]) == [stands]


def plateaus(seed: int, n: int) -> np.ndarray:
    """Seeded heights near 1 with rounding-sized noise, ties, flat runs, steps, valleys and a few NaN."""
    rng = np.random.default_rng(seed)
    ulp = math.ulp(1.0)
    noise = 1.0 - ulp * rng.integers(0, rng.choice([2, 8, 80, 400]), n)
    shape = rng.choice(4)
    x = np.linspace(-1.0, 1.0, n)
    base = (np.zeros(n), 1e-13 * np.abs(x), -1e-13 * np.abs(x), 1e-12 * np.sin(9.0 * x))[shape]
    heights = np.minimum(noise + base, 1.0)
    for _ in range(rng.integers(0, 4)):  # flat runs
        i = rng.integers(0, n)
        heights[i:i + rng.integers(2, 40)] = heights[i]
    if rng.random() < 0.3:
        heights[rng.integers(0, n, rng.integers(1, 4))] = math.nan
    return heights


def local_maxima(heights: np.ndarray) -> list[int]:
    """The tops an energy scan takes: higher than the left neighbour and no lower than the right one."""
    return (np.flatnonzero((heights[:-2] < heights[1:-1]) & (heights[1:-1] >= heights[2:])) + 1).tolist()


@pytest.mark.parametrize("seed", range(40))
def test_stand_out_by_trees_is_the_scan_at_every_top(seed):
    heights = plateaus(seed, int(np.random.default_rng(seed).integers(1, 3000)))
    every = list(range(len(heights)))  # every point as a top, local maximum or not
    want = [_stands_out(heights, t) for t in every]
    for tops in (every, local_maxima(heights), every[seed % 7::7]):  # with fewer tops the pass skips points
        assert resonance._stand_out(heights, tops) == [want[t] for t in tops]
    assert resonance._stand_out(heights, []) == []


def test_stand_out_is_the_scan_on_every_short_sequence():
    # ties, heights 1 and 8192 ulp below 1, the ends and NaN on either side of every top
    values = (0.0, 0.5, 1.0 - 2.0 ** -40, 1.0 - 2.0 ** -53, 1.0, math.nan)
    for n in range(1, 6):
        for seq in itertools.product(values, repeat=n):
            heights = np.array(seq)
            want = [_stands_out(heights, t) for t in range(n)]
            assert resonance._stand_out(heights, list(range(n))) == want, seq
            assert [resonance._stand_out(heights, [t]) for t in range(n)] == [[x] for x in want], seq


def test_stand_out_does_not_scan_the_grid_per_top():
    # the --lambda 0.1 plateau: 26,421 tops on 108,960 points took 2.8 s top by top
    heights = plateaus(7, 108_960)
    for tops in (list(range(1, len(heights) - 1, 4)), local_maxima(heights)):
        t0 = time.perf_counter()
        resonance._stand_out(heights, tops)
        assert time.perf_counter() - t0 < 1.0


def test_width_scan_computes_wave_params_once_per_fixed_eps(monkeypatch):
    # the `resonances --eps0 1.41421356` scan: one call for the grid, one for every probe
    sizes = []

    def spy(eps, b):
        sizes.append(np.size(eps))
        return wave_params(eps, b)

    for module in (closed_form, resonance):
        monkeypatch.setattr(module, "wave_params", spy, raising=False)
    eps0 = 1.41421356
    spacing = complex_resonance_widths(eps0, 3)[0][1]
    lo, hi = spacing, 4.6 * spacing
    b = AdimensionalBarrier(0.5, math.sqrt(3.0) / 2.0)
    widths = uniform_grid(lo, hi, 1e-3)
    assert len(widths) == 11_310
    assert len(scan_peaks(b, lo, hi, eps0=eps0)) == 4
    assert sizes == [len(widths), 1]
