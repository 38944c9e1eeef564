"""Closed transmission formula against the direct solve and known limits."""

import cmath
import math
import warnings

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    DegenerateEnergyError,
    critical_complex,
    solve,
    transfer_closed,
    transfer_numeric,
    transmission,
    wave_params,
)
from qbarrier import barrier
from qbarrier.barrier import SHC_SERIES_BELOW, BarrierColumns, cosh_shc
from qbarrier.closed_form import denominator_factored, denominator_slope
from qbarrier.ode_oracle import oracle_amplitudes
from tests.complex_reference import complex_probability, complex_t
from tests.conftest import FIVE_POTENTIALS, as_columns, circle_points, near_band_points, random_points
from tests.element_reference import denominator
from tests.mp_reference import reference_amplitudes

SQRT2 = math.sqrt(2.0)


def test_identity_matrix_denominator_is_two():
    assert denominator(np.eye(4, dtype=complex), 1.3) == pytest.approx(2.0)


def test_zero_width_is_transparent():
    b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.2, lam=0.0)
    out = transmission(1.7, b)
    assert out.t == pytest.approx(1.0 + 0j, abs=1e-14)
    assert out.prob == pytest.approx(1.0, abs=1e-14)


def test_complex_limit_denominator_formula():
    # with vq=0 the denominator collapses to
    # 2*cosh(a*lam) + i*(1-2*eps**2)/(eps*a)*sinh(a*lam), a = sqrt(1-eps**2)
    for eps, lam in [(0.6, 2.0), (1.4, 3.0), (2.2, 1.0)]:
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=lam)
        p = wave_params(eps, b)
        d = denominator(transfer_closed(p, lam), eps)
        a = cmath.sqrt(complex(1.0 - eps * eps, 0.0))
        expected = 2.0 * cmath.cosh(a * lam) + 1j * (1.0 - 2.0 * eps * eps) / (eps * a) * cmath.sinh(a * lam)
        assert d == pytest.approx(expected, abs=1e-10 * abs(expected))


def test_denominator_against_solver_route():
    # D must equal 2*exp(-i*eps*lam)/T with T from the independent solve
    eps, lam = 1.2, 3.0
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=lam)
    p = wave_params(eps, b)
    d = denominator(transfer_closed(p, lam), eps)
    t_solver = solve(eps, b).t
    assert d == pytest.approx(2.0 * cmath.exp(-1j * eps * lam) / t_solver, abs=1e-9)


def test_factored_denominator_equals_element_form():
    for eps, b in random_points(seed=77, n=80, lam_max=4.0):
        p = wave_params(eps, b)
        d_elements = denominator(transfer_closed(p, b.lam), eps)
        d_factored = denominator_factored(p, b.lam)
        assert abs(d_elements - d_factored) < 1e-9 * abs(d_elements)


def test_slope_is_the_derivative_of_the_factored_denominator():
    # wells, barriers, theta != 0 and the threshold eps = 1 (an 8th-order central difference)
    steps = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
    weights = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    for eps, b in circle_points(seed=31, n=60):
        lam, p, h = b.lam + 0.5, wave_params(eps, b), 1e-3
        d, d_lam = denominator_slope(p, lam)
        assert d == denominator_factored(p, lam)
        diff = weights @ np.array([denominator_factored(p, lam + k * h) for k in steps]) / h
        assert abs(d_lam - diff) <= 1e-9 * max(1.0, abs(d_lam)), (eps, b)


def test_slope_grid_matches_the_scalar_slope():
    b = AdimensionalBarrier(-0.6, 0.8, 0.7)
    p, widths = wave_params(1.3, b), np.linspace(0.0, 20.0, 41)
    d, d_lam = denominator_slope(p, widths)
    for k, lam in enumerate(widths.tolist()):
        assert np.allclose(denominator_slope(p, lam), (d[k], d_lam[k]), rtol=1e-14, atol=0.0)


def test_resonance_point_is_fully_transparent():
    # vc=1, eps=sqrt(2), lam=2*pi: second resonance, |T| = 1
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0 * math.pi)
    assert transmission(SQRT2, b).prob == pytest.approx(1.0, abs=1e-9)


def test_pure_quaternionic_local_maximum():
    # third peak of the vq=1, lam=3*pi barrier sits near eps = 1.246
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3.0 * math.pi)
    peak = transmission(1.246, b).prob
    assert peak > transmission(1.236, b).prob
    assert peak > transmission(1.256, b).prob


def test_threshold_answered_for_complex_barrier():
    # alpha_minus is exactly zero at eps=1 for vc=1: the closed form, the
    # data-basis table, the exponential and the element form of D all answer
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0)
    assert abs(transmission(1.0, b).t - critical_complex(2.0).t) <= 1e-15
    p = wave_params(1.0, b)
    assert p.alpha_minus == 0
    closed = transfer_closed(p, b.lam)
    assert np.abs(closed - transfer_numeric(1.0, b)).max() <= 1e-14
    t = 2.0 * cmath.exp(-1j * b.lam) / denominator(closed, 1.0)
    assert abs(t - critical_complex(2.0).t) <= 1e-15


@pytest.mark.parametrize("vc, vq", [(1.0, 0.0), (0.6, 0.8), (-0.6, 0.8), (-1.0, 0.0)])
def test_element_form_answers_at_the_threshold(vc, vq):
    # eps = 1 zeroes alpha_minus of a barrier and alpha_plus of a well
    b = AdimensionalBarrier(vc, vq, 0.7, 2.0)
    closed = transfer_closed(wave_params(1.0, b), b.lam)
    numeric = transfer_numeric(1.0, b)
    assert np.abs(closed - numeric).max() <= 1e-14 * np.abs(numeric).max()
    t = transmission(1.0, b).t
    for m in (closed, numeric):
        assert abs(2.0 * cmath.exp(-1j * b.lam) / denominator(m, 1.0) - t) <= 1e-14


def test_thick_point_whose_numerator_modulus_overflows():
    # |numerator of D| is beyond the float range here, but D and T are finite
    vc, vq, theta, eps, lam = (0.32675730030820205, 0.9451082830529502, 2.5480667791765845,
                               0.2966144203374993, 434.58721422425265)
    t = transmission(eps, AdimensionalBarrier(vc, vq, theta, lam)).t
    expected = reference_amplitudes(eps, vc, vq, theta, lam)[2]
    assert abs(t - expected) <= 1e-12 * abs(expected)


def test_threshold_neighbourhood_is_still_continuous():
    # mixed potentials at eps=1 +- tiny: alpha_minus ~ 1e-8 stays evaluable
    b = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=1.0)
    lo = transmission(1.0 - 1e-6, b).t
    hi = transmission(1.0 + 1e-6, b).t
    assert abs(lo - hi) < 1e-4


def complex_barrier(lam):
    return AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=lam)


class TestComplexBarrierFormula:
    def test_resonance(self):
        # sqrt(eps**2-1)*lam = 2*pi at eps=sqrt(2), lam=2*pi: |T|^2 = 1
        assert transmission(SQRT2, complex_barrier(2.0 * math.pi)).prob == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_minimum_value(self):
        # sqrt(eps**2-1)*lam = 3*pi/2 at eps=sqrt(2), lam=3*pi/2: |T|^2 = 8/9
        assert transmission(SQRT2, complex_barrier(1.5 * math.pi)).prob == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_tunneling_value_against_integrator(self):
        out = transmission(0.5, complex_barrier(5.0))
        hyp = 1.0 / (1.0 + math.sinh(math.sqrt(0.75) * 5.0) ** 2 / (4.0 * 0.25 * 0.75))
        assert out.prob == pytest.approx(hyp, abs=1e-12)
        assert abs(oracle_amplitudes(0.5, complex_barrier(5.0)).t - out.t) < 1e-6

    def test_probability_matches_both_real_forms(self):
        for eps, lam in [(0.4, 2.0), (0.9, 4.0), (1.3, 6.0), (2.7, 1.0)]:
            assert transmission(eps, complex_barrier(lam)).prob == pytest.approx(
                complex_probability(eps, lam), abs=1e-12
            )

    def test_threshold_redirects(self):
        # at eps = 1 the general route lands on the exact threshold amplitude
        out = transmission(1.0, complex_barrier(2.0))
        assert abs(out.t - critical_complex(2.0).t) <= 1e-15
        assert abs(out.prob - 0.5) <= 1e-15

    def test_threshold_neighbourhood_matches_critical(self):
        exact = critical_complex(2.0).t
        for eps in (1.0 - 1e-13, 1.0, 1.0 + 1e-13):
            general = transmission(eps, complex_barrier(2.0))
            assert abs(general.t - complex_t(eps, 2.0)) < 1e-10
            assert abs(general.t - exact) < 1e-10
            assert general.prob == pytest.approx(abs(exact) ** 2, abs=1e-10)

    def test_agrees_with_general_formula(self):
        for eps, b in random_points(seed=78, n=100):
            general = transmission(eps, complex_barrier(b.lam)).t
            assert abs(general - complex_t(eps, b.lam)) < 1e-10


def test_theta_invariance_of_amplitude():
    worst = 0.0
    for eps, b in random_points(seed=79, n=100):
        t0 = transmission(eps, AdimensionalBarrier(b.vc, b.vq, 0.0, b.lam)).t
        t1 = transmission(eps, b).t
        worst = max(worst, abs(t1 - t0))
    assert worst < 1e-12


def test_probability_bounds_and_phase_range():
    for eps, b in random_points(seed=80, n=150):
        out = transmission(eps, b)
        assert 0.0 <= out.prob <= 1.0 + 1e-10
        assert out.prob == pytest.approx(abs(out.t) ** 2, abs=1e-15)
        assert -math.pi < out.phase <= math.pi


def test_closed_form_agrees_with_solver_everywhere():
    worst = 0.0
    for eps, b in random_points(seed=81, n=150):
        worst = max(worst, abs(transmission(eps, b).t - solve(eps, b).t))
    assert worst < 1e-9


# ---------------------------------------------------------------- grids


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def scalar_t(eps: float, lam: float, b: AdimensionalBarrier) -> complex:
    return transmission(eps, AdimensionalBarrier(b.vc, b.vq, b.theta, lam)).t


def grid_points(eps, lam):
    """The (eps, lam) floats of a broadcast grid, in C order."""
    return zip(*(a.ravel().tolist() for a in np.broadcast_arrays(eps, lam)))


def grid_t(eps, lam, b: AdimensionalBarrier) -> np.ndarray:
    """T at the grid_points of eps and lam, from one batch with b's vc, vq and theta as float fields."""
    eps, lam = (a.ravel() for a in np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(lam, dtype=float)))
    return transmission(eps, BarrierColumns(b.vc, b.vq, b.theta, lam))


def bits(t: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(t).view(np.uint64)


# beyond the five: a barrier with am = 0 and a well with ap = 0 at eps = 1
@pytest.mark.parametrize("vc, vq", FIVE_POTENTIALS + ((0.6, 0.8), (-0.6, 0.8)))
def test_grid_matches_scalar_in_both_broadcast_directions(vc, vq):
    rng = np.random.default_rng(606)
    b = AdimensionalBarrier(vc, vq, theta=rng.uniform(0.1, 2.0 * math.pi))
    eps = rng.uniform(0.2, 3.0, 300)
    eps = eps[np.abs(eps**4 - vq**2) >= 1e-6]
    lam = rng.uniform(0.0, 20.0, 300)
    for grid_eps, grid_lam in [(eps, x) for x in lam[:4]] + [(x, lam) for x in eps[:4]]:
        t = grid_t(grid_eps, grid_lam, b)
        for got, (e, w) in zip(t.tolist(), grid_points(grid_eps, grid_lam)):
            want = scalar_t(e, w, b)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_array_shc_takes_the_series_only_below_the_switch(warnings_are_errors):
    # small, large and zero a, against the formula that sums the series everywhere;
    # the pair's cosh is cosh(a*x) at every element
    a = np.array([0.0, 1e-9, 2e-4 + 3e-4j, 4e-4j, 0.3, 2.0 - 1.0j, 1e-3, 25.0j, 0.0])
    x = np.array([[0.0], [0.7], [2.5]])
    z = a * x
    small = abs(z) < SHC_SERIES_BELOW
    series = x * (1.0 + z * z / 6.0 * (1.0 + z * z / 20.0))
    want = np.where(small, series, np.sinh(z) / np.where(small, 1.0, a))
    assert small.any() and not small.all()
    c, s = cosh_shc(a, x)
    assert np.array_equal(bits(c), bits(np.cosh(z))) and np.array_equal(bits(s), bits(want))


SHC_ROWS = {
    # (a, x) rows with no element, some elements and every element below the switch
    "none-below": (np.array([0.3, 2.0 - 1.0j, 25.0j, -4.0]), 0.7),
    # a = 0, a NaN a and an a whose sinh(a*x) overflows, next to elements below the switch
    "some-below": (np.array([0.0, 1e-9, math.nan, 800.0, 0.3 - 0.2j, 2e-4 + 3e-4j, complex(math.nan, 1.0)]), 1.0),
    "all-below": (np.array([0.0, 1e-9, 2e-4 + 3e-4j, 3e-4j, -0.0]), 2.5),
}


@pytest.mark.parametrize("a, x", SHC_ROWS.values(), ids=SHC_ROWS.keys())
def test_array_shc_is_the_elementwise_rule(a, x, warnings_are_errors):
    # each element: cosh(a*x), and the series below |a*x| = SHC_SERIES_BELOW, sinh(a*x)/a
    # at and above it (NaN at a NaN a*x), evaluated one element at a time; no warning escapes
    want_c, want = np.empty_like(a), np.empty_like(a)
    for i, ai in enumerate(a):
        z = ai * x
        with np.errstate(all="ignore"):
            want_c[i] = np.cosh(z)
        if abs(z) < SHC_SERIES_BELOW:
            want[i] = x * (1.0 + z * z / 6.0 * (1.0 + z * z / 20.0))
        else:
            with np.errstate(all="ignore"):
                want[i] = np.sinh(z) / ai
    c, s = cosh_shc(a, x)
    assert np.array_equal(bits(c), bits(want_c)) and np.array_equal(bits(s), bits(want))


def test_array_shc_rows_cover_what_they_name():
    small = {name: abs(np.multiply(*row)) < SHC_SERIES_BELOW for name, row in SHC_ROWS.items()}
    assert not small["none-below"].any() and small["all-below"].all()
    assert small["some-below"].any() and not small["some-below"].all()
    a, x = SHC_ROWS["some-below"]
    with np.errstate(all="ignore"):
        assert 0.0 in a and np.isnan(a).any() and np.isinf(np.sinh(a * x)).any()


def test_batch_in_blocks_is_the_whole_batch_word_for_word(monkeypatch):
    # blocks of 4 points: the thick point whose T is NaN sits in the last block
    pts = circle_points(seed=43, n=10) + [(0.5, AdimensionalBarrier(0.0, 1.0, 0.4, 800.0))]
    whole = batch_t(pts)
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 256)
    assert len(barrier.blocks(len(pts), 64)) == 3
    parts = batch_t(pts)
    assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))
    assert cmath.isnan(parts[-1])


def test_batch_in_blocks_replays_a_failing_point_of_its_last_block(monkeypatch):
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 256)  # blocks of 4 points
    pts = circle_points(seed=44, n=10) + [(1.0, AdimensionalBarrier(0.0, 1.0, 0.4, 1.0))]
    with pytest.raises(DegenerateEnergyError) as single:
        transmission(*pts[-1])
    with pytest.raises(DegenerateEnergyError) as batch:
        batch_t(pts)
    assert str(batch.value) == str(single.value)


def test_empty_grid_gives_empty_array():
    b = AdimensionalBarrier(0.0, 1.0, 0.3)
    for eps, lam in [(np.array([]), 2.0), (1.2, np.array([]))]:
        t = grid_t(eps, lam, b)
        assert t.shape == (0,) and t.dtype == complex


QUATERNIONIC = AdimensionalBarrier(0.0, 1.0, 0.4)
COLLAPSE = "vq=0.8): the exponential basis collapses"


@pytest.mark.parametrize(
    "eps, lam, b, kind, message",
    [
        ([1.2, math.nan], 2.0, QUATERNIONIC, ValueError, "eps must be finite and > 0.0, got nan"),
        ([1.2, math.inf], 2.0, QUATERNIONIC, ValueError, "eps must be finite and > 0.0, got inf"),
        ([1.2, -1.0, 0.0], 2.0, QUATERNIONIC, ValueError, "got -1.0"),
        ([1.2, 0.0, -1.0], 2.0, QUATERNIONIC, ValueError, "got 0.0"),
        ([1.2, 1.0 + 1e-12], 2.0, QUATERNIONIC, DegenerateEnergyError, "critical_quaternionic"),
        # a mixed barrier's and a well's degenerate points name no exact case
        ([1.2, 0.8**0.5], 2.0, AdimensionalBarrier(0.6, 0.8), DegenerateEnergyError, COLLAPSE),
        ([1.2, 0.8**0.5], 2.0, AdimensionalBarrier(-0.6, 0.8), DegenerateEnergyError, COLLAPSE),
        (1.2, [1.0, 800.0], QUATERNIONIC, OverflowError, "math range error"),
        ([0.5, 1.2], 800.0, QUATERNIONIC, OverflowError, "math range error"),
        (1.2, [1.0, -1.0], QUATERNIONIC, ValueError, "lam must be finite and >= 0.0, got -1.0"),
        (1.2, [1.0, math.nan], QUATERNIONIC, ValueError, "lam must be finite and >= 0.0, got nan"),
        (1.2, [1.0, math.inf], QUATERNIONIC, ValueError, "lam must be finite and >= 0.0, got inf"),
        # a bad width is refused before any point is evaluated, even after a singular energy
        ([[1.2], [1.0]], [2.0, -1.0], QUATERNIONIC, ValueError, "lam must be finite"),
        ([[1.0], [1.2]], [2.0, -1.0], QUATERNIONIC, ValueError, "lam must be finite"),
    ],
)
def test_grid_raises_what_the_scalar_path_raises_first(eps, lam, b, kind, message,
                                                       warnings_are_errors):
    # the first bad width, which `barrier.batch` refuses up front, else the first failing point
    first = None
    points = list(grid_points(eps, lam))
    bad_widths = [(e, w) for e, w in points if not (math.isfinite(w) and w >= 0.0)]
    for e, w in bad_widths[:1] + points:
        try:
            scalar_t(e, w, b)
        except Exception as exc:  # noqa: BLE001 - the scalar outcome is the reference
            first = exc
            break
    assert type(first) is kind and message in str(first)
    with pytest.raises(kind) as caught:
        grid_t(eps, lam, b)
    assert type(caught.value) is kind and str(caught.value) == str(first)


def test_grid_keeps_the_scalar_value_where_it_is_not_finite(warnings_are_errors):
    # at eps = 0.5, lam = 800 the scalar route returns NaN without raising
    lam = np.array([1.0, 800.0])
    t = grid_t(0.5, lam, QUATERNIONIC)
    want = [scalar_t(0.5, w, QUATERNIONIC) for w in lam.tolist()]
    assert cmath.isnan(want[1]) and cmath.isnan(t[1])
    assert abs(t[0] - want[0]) <= 1e-14


# ---------------------------------------------------------------- batches


def batch_t(points) -> np.ndarray:
    return transmission(*as_columns(points))


def single_t(points) -> np.ndarray:
    return np.array([transmission(eps, b).t for eps, b in points], dtype=complex)


def test_batch_agrees_with_the_single_calls(warnings_are_errors):
    # measured over 20 seeds of 1000 such points: within 2.9e-14
    pts = circle_points(seed=41, n=400)
    assert np.abs(batch_t(pts) - single_t(pts)).max() <= 1e-13
    [one] = batch_t(pts[:1])
    assert abs(one - transmission(*pts[0]).t) <= 1e-13
    empty = batch_t([])
    assert empty.shape == (0,) and empty.dtype == complex


@pytest.mark.parametrize("disc", (-1e-8, -1e-9, -2e-10, 2e-10, 1e-9, 1e-8))
def test_batch_answers_just_outside_the_band(disc):
    # both evaluations lose digits like 1/|disc| there: measured gap*|disc| <= 5.7e-17
    pts = near_band_points(disc)
    assert np.abs(batch_t(pts) - single_t(pts)).max() <= 1e-15 / abs(disc)


GOOD = (1.2, QUATERNIONIC)


@pytest.mark.parametrize("bad", [
    (1.0, AdimensionalBarrier(0.0, 1.0, 0.4, 1.0)),
    (0.8**0.5, AdimensionalBarrier(-0.6, 0.8)),
    (-1.0, QUATERNIONIC),
    (math.nan, QUATERNIONIC),
    (1.2, AdimensionalBarrier(0.0, 1.0, 0.4, 800.0)),
    (1e100, AdimensionalBarrier(0.6, 0.8)),
], ids=("band", "well-band", "negative-eps", "nan-eps", "overflow", "eps-fourth-power-overflow"))
def test_batch_raises_what_the_single_call_raises(bad, warnings_are_errors):
    with pytest.raises(Exception) as single:
        transmission(*bad)
    with pytest.raises(type(single.value)) as batch:
        batch_t([GOOD, bad, (-1.0, QUATERNIONIC)])
    assert str(batch.value) == str(single.value)
    with pytest.raises(ValueError, match="^2 energies for 1 barriers$"):
        transmission(np.array([1.2, 1.3]), as_columns([GOOD])[1])


def test_batch_keeps_the_single_value_where_it_is_not_finite(warnings_are_errors):
    # at eps = 0.5, lam = 800 the single call returns NaN without raising
    thick = (0.5, AdimensionalBarrier(0.0, 1.0, 0.4, 800.0))
    t = batch_t([GOOD, thick])
    assert cmath.isnan(transmission(*thick).t) and cmath.isnan(t[1])
    assert abs(t[0] - transmission(*GOOD).t) <= 1e-14
