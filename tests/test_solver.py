"""The eight-equation continuity solve and the piecewise wavefunction."""

import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    DegenerateEnergyError,
    ScatteringAmplitudes,
    SingularSystemError,
    oracle_amplitudes,
    probability_balance,
    solve,
    transfer_numeric,
    transmission,
    wave_params,
)
from qbarrier import barrier
from tests.conftest import as_columns, circle_points, near_band_points, random_points
from tests.mp_reference import _solve as referee_solve, reference_amplitudes
from tests.quaternion_reference import current_density, wavefunction

SQRT2 = math.sqrt(2.0)


def residuals(eps, b, amps):
    """Re-evaluate all eight continuity equations from their defining forms.

    Zone II is the centred basis cosh(a*s), sinh(a*s)/a with s = xi - lam/2;
    the wave numbers here are off the threshold, so plain sinh serves.
    """
    p = wave_params(eps, b)
    am, ap = p.alpha_minus, p.alpha_plus
    beta, gamma = p.beta, p.gamma
    lam = b.lam
    A, B, At, Bt = amps.a, amps.b, amps.at, amps.bt

    def interior(s):
        """(value, derivative) of the slow and of the fast pair at s."""
        cm, sm = cmath.cosh(am * s), cmath.sinh(am * s)
        cp, sp = cmath.cosh(ap * s), cmath.sinh(ap * s)
        return ((A * cm + B * sm / am, A * am * sm + B * cm),
                (At * cp + Bt * sp / ap, At * ap * sp + Bt * cp))

    (lo0, dlo0), (hi0, dhi0) = interior(-lam / 2.0)
    (lo1, dlo1), (hi1, dhi1) = interior(lam / 2.0)
    phase, decay = cmath.exp(1j * eps * lam), cmath.exp(-eps * lam)
    out = [
        (1.0 + amps.r) - (lo0 + beta * hi0),
        1j * eps * (1.0 - amps.r) - (dlo0 + beta * dhi0),
        amps.rt - (gamma * lo0 + hi0),
        eps * amps.rt - (gamma * dlo0 + dhi0),
        amps.t * phase - (lo1 + beta * hi1),
        1j * eps * amps.t * phase - (dlo1 + beta * dhi1),
        amps.tt * decay - (gamma * lo1 + hi1),
        -eps * amps.tt * decay - (gamma * dlo1 + dhi1),
    ]
    return max(abs(v) for v in out)


def test_vanishing_barrier_is_transparent():
    b = AdimensionalBarrier(vc=0.3, vq=math.sqrt(1 - 0.09), theta=0.5, lam=1e-8)
    amps = solve(1.4, b)
    assert abs(amps.r) < 1e-7
    assert amps.t == pytest.approx(1.0 + 0j, abs=1e-7)
    assert abs(amps.rt) < 1e-8
    assert abs(amps.tt) < 1e-8


def test_complex_barrier_has_no_evanescent_amplitudes():
    for eps in (0.5, 1.3, 2.4):
        amps = solve(eps, AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0))
        assert abs(amps.rt) < 1e-14
        assert abs(amps.tt) < 1e-14


def test_matches_closed_form():
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.3, lam=2.0)
    assert abs(solve(1.2, b).t - transmission(1.2, b).t) < 1e-9


def thick_solves(seed, n):
    """(eps, b, solve(eps, b)) at seeded widths in [10, 400] where `solve` is finite.

    There the matrix entries are largest; the points where the matrix is
    singular to working precision or an amplitude is not finite are left out.
    """
    out = []
    for eps, b in random_points(seed=seed, n=n, lam_min=10.0, lam_max=400.0):
        try:
            amps = solve(eps, b)
        except SingularSystemError:
            continue
        values = (amps.r, amps.rt, amps.t, amps.tt, amps.a, amps.b, amps.at, amps.bt)
        if all(cmath.isfinite(v) for v in values):
            out.append((eps, b, amps))
    return out


def test_continuity_residuals_below_tolerance():
    thick = thick_solves(seed=104, n=70)
    assert len(thick) >= 55
    thin = [(eps, b, solve(eps, b)) for eps, b in random_points(seed=101, n=80)]
    for eps, b, amps in thin + thick:
        assert residuals(eps, b, amps) < 1e-9


def test_thick_solve_is_finite_and_balanced_without_a_warning():
    # at lam = 400 the matrix holds entries near 1e116 and its inverse near 1e208
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = solve(1.2, AdimensionalBarrier(0.6, 0.8, 0.0, 400.0))
    assert cmath.isfinite(amps.t)
    assert abs(probability_balance(amps)) <= 1e-12


def test_singular_system_is_a_typed_error_naming_eps_and_lam():
    eps, b = SINGULAR
    message = (r"^the continuity system is singular to working precision at "
               r"eps=2\.334319072789119, lam=338\.13961788764976$")
    with pytest.raises(SingularSystemError, match=message) as single:
        solve(eps, b)
    assert not isinstance(single.value, ValueError)
    assert single.value.__cause__ is None and single.value.__suppress_context__
    with pytest.raises(SingularSystemError, match=message):
        solve(*as_columns([(1.2, AdimensionalBarrier(0.6, 0.8, 0.0, 2.0)), SINGULAR]))


@pytest.mark.parametrize("eps", (1e-300, 1e-308, 1e-315, 1e-320))
def test_subnormal_corner_raises_or_matches_the_referee(eps):
    # where max(eps, min(1, lam)) is subnormal the elimination's products lose
    # their digits: unguarded, r came out 1.0e-4 off at (1e-320, 1e-321)
    for lam in (1e-321, 1e-310, 1e-300, 1e-5, 1.0):
        b = AdimensionalBarrier(0.6, 0.8, 0.3, lam)
        if max(eps, min(1.0, lam)) < sys.float_info.min:
            with pytest.raises(SingularSystemError, match=f"at eps={eps!r}, lam={lam!r}$"):
                solve(eps, b)
            continue
        amps = solve(eps, b)
        with mp.workdps(700):
            e, x = mp.mpf(eps), mp.mpf(lam)
            ref = referee_solve(e, *(mp.mpf(v) for v in (b.vc, b.vq, b.theta)), x)
            expected = [complex(ref[0]), complex(ref[1]), complex(ref[2]), complex(ref[3] / mp.exp(-e * x))]
        assert max(abs(got - want) for got, want in zip(amps[:4], expected)) <= 1e-12


def test_subnormal_far_edge_answers_within_the_referee_bounds():
    # exp(-eps*lam) is subnormal at both points; an 8x8 inverse gave NaN amplitudes there
    eps, b = 2.1021822336711904, AdimensionalBarrier(0.6340216963215551, 0.773315258218495, 0.0, 337.8353281372142)
    amps, (r, rt, t, tt) = solve(eps, b), reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam)
    assert max(abs(amps.r - r), abs(amps.rt - rt), abs(amps.t - t)) <= 1e-12
    assert abs(amps.tt - tt) <= 1e-12 * abs(tt)  # |tt| ~ 1.7e307
    # here eps*lam = 738 > 709.78: Tt overflows, as in the referee, and the rest answer
    eps, b = 2.147607631019172, AdimensionalBarrier(0.36428521531694785, 0.9312874324833794,
                                                    2.8591809043318683, 343.74242370026275)
    amps, (r, rt, t, _) = solve(eps, b), reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam)
    assert max(abs(amps.r - r), abs(amps.rt - rt), abs(amps.t - t)) <= 1e-12
    assert not cmath.isfinite(amps.tt)


def test_threshold_rejected():
    # only where the threshold is also degenerate: vq = 1, whose exact
    # amplitudes are critical_quaternionic (the others: tests/test_threshold.py)
    with pytest.raises(DegenerateEnergyError, match="critical_quaternionic"):
        solve(1.0, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0))


class TestProbabilityBalance:
    def test_complex_resonant_point(self):
        amps = solve(SQRT2, AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=3 * math.pi))
        assert abs(probability_balance(amps)) < 1e-12

    def test_pure_quaternionic_peak_point(self):
        amps = solve(1.077, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3 * math.pi))
        assert abs(probability_balance(amps)) < 1e-12

    def test_tunneling_point(self):
        b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.0, lam=1.0)
        assert abs(probability_balance(solve(0.5, b))) < 1e-12

    def test_randomized(self):
        worst = max(
            abs(probability_balance(solve(eps, b)))
            for eps, b in random_points(seed=102, n=100)
        )
        assert worst < 1e-9


class TestWavefunction:
    def setup_method(self):
        self.eps = 1.3
        self.b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.8, lam=2.5)
        self.p = wave_params(self.eps, self.b)
        self.amps = solve(self.eps, self.b)

    def test_deep_left_j_component_evanescent(self):
        state = wavefunction(-50.0, self.amps, self.p, self.b)
        assert state.zone == "I"
        assert abs(state.value.w) < 1e-20

    def test_continuity_at_left_edge(self):
        left = wavefunction(-1e-12, self.amps, self.p, self.b)
        right = wavefunction(0.0, self.amps, self.p, self.b)
        assert right.zone == "II"
        assert abs(left.value.z - right.value.z) < 1e-9
        assert abs(left.value.w - right.value.w) < 1e-9
        assert abs(left.derivative.z - right.derivative.z) < 1e-9
        assert abs(left.derivative.w - right.derivative.w) < 1e-9

    def test_continuity_at_right_edge(self):
        lam = self.b.lam
        inside = wavefunction(lam, self.amps, self.p, self.b)
        outside = wavefunction(lam + 1e-12, self.amps, self.p, self.b)
        assert inside.zone == "II" and outside.zone == "III"
        assert abs(inside.value.z - outside.value.z) < 1e-9
        assert abs(inside.value.w - outside.value.w) < 1e-9
        assert abs(inside.derivative.z - outside.derivative.z) < 1e-9
        assert abs(inside.derivative.w - outside.derivative.w) < 1e-9

    def test_midpoint_matches_integrated_propagation(self):
        xi = self.b.lam / 2.0
        start = wavefunction(0.0, self.amps, self.p, self.b)
        y0 = np.array(
            [start.value.z, start.derivative.z, start.value.w, start.derivative.w],
            dtype=complex,
        )
        y_mid = np.linalg.solve(transfer_numeric(self.eps, self.b._replace(lam=xi)), y0)  # y(0) = M@y(xi)
        probe = wavefunction(xi, self.amps, self.p, self.b)
        expected = np.array(
            [probe.value.z, probe.derivative.z, probe.value.w, probe.derivative.w],
            dtype=complex,
        )
        assert np.abs(y_mid - expected).max() < 1e-12

    def test_current_density_constant_between_free_zones(self):
        left = current_density(wavefunction(-3.7, self.amps, self.p, self.b))
        right = current_density(wavefunction(self.b.lam + 2.2, self.amps, self.p, self.b))
        assert left == pytest.approx(right, abs=1e-9)
        # also constant through the interior
        mid = current_density(wavefunction(self.b.lam / 3.0, self.amps, self.p, self.b))
        assert mid == pytest.approx(left, abs=1e-9)


def test_interior_needs_the_interior_coefficients():
    # the integrator's amplitudes carry no interior basis coefficients
    b = AdimensionalBarrier(0.6, 0.8, 0.3, 2.0)
    amps = oracle_amplitudes(1.3, b)
    with pytest.raises(ValueError, match="interior coefficients"):
        wavefunction(1.0, amps, wave_params(1.3, b), b)


def test_current_density_randomized():
    for eps, b in random_points(seed=103, n=40, lam_max=6.0):
        p = wave_params(eps, b)
        amps = solve(eps, b)
        j_in = current_density(wavefunction(-1.5, amps, p, b))
        j_out = current_density(wavefunction(b.lam + 1.5, amps, p, b))
        assert abs(j_in - j_out) < 1e-9 * max(1.0, abs(j_in))


def test_theta_covariance_of_amplitudes():
    # R, T invariant; Rt, Tt rotate by exp(-i*delta) when theta -> theta + delta
    eps, lam, delta = 1.25, 2.0, 0.7
    vc = 0.3
    vq = math.sqrt(1.0 - vc * vc)
    base = solve(eps, AdimensionalBarrier(vc, vq, 0.0, lam))
    moved = solve(eps, AdimensionalBarrier(vc, vq, delta, lam))
    rot = cmath.exp(-1j * delta)
    assert abs(moved.r - base.r) < 1e-12
    assert abs(moved.t - base.t) < 1e-12
    assert abs(moved.rt - base.rt * rot) < 1e-12
    assert abs(moved.tt - base.tt * rot) < 1e-12


def gaps(batch, singles):
    """|batch - single| per point and field, for `solve`'s (n, 8) batch rows and its single records.

    Absolute for r, rt and t; relative to max(1, |single|) from tt on.
    """
    y = np.array(singles)
    gap = np.abs(batch - y)
    gap[:, 3:] /= np.maximum(1.0, np.abs(y[:, 3:]))
    return gap


#: a point on each side of those that make a batch raise
OK = (1.3, AdimensionalBarrier(0.6, 0.8, 0.4, 2.0))
IN_BAND = (1.0, AdimensionalBarrier(0.0, 1.0, 0.0, 1.0))
BAD_EPS = (-1.0, AdimensionalBarrier(0.6, 0.8, 0.4, 2.0))
NAN_EPS = (math.nan, AdimensionalBarrier(-0.6, 0.8, 0.0, 2.0))
HUGE_EPS = (1e100, AdimensionalBarrier(0.6, 0.8, 0.0, 1.0))  # eps**4 overflows
#: max(eps, min(1, lam)) is subnormal, though the batch's numpy amplitudes come out finite
SUBNORMAL = (1e-308, AdimensionalBarrier(0.6, 0.8, 0.3, 1e-310))
#: a thick point where exp(-eps*lam) underflows to 0, so the elimination divides by 0
SINGULAR = (2.334319072789119, AdimensionalBarrier(vc=0.9820200615065194, vq=0.18877658434967992,
                                                   theta=2.5377065090912856, lam=338.13961788764976))


class TestBatch:
    """`solve` over columns: the single calls' body with numpy, in blocks, and the single calls' errors."""

    def test_agrees_with_the_single_calls(self):
        # measured over 20 seeds of 1000 such points: r, rt and t within 8.3e-15,
        # tt within 1.1e-12 relative and a, b, at, bt within 2.5e-14 relative
        pts = circle_points(seed=31, n=400)
        gap = gaps(solve(*as_columns(pts)), [solve(eps, b) for eps, b in pts])
        assert gap[:, :3].max() <= 1e-13
        assert gap[:, 3:].max() <= 1e-11

    @pytest.mark.parametrize("disc", (-1e-8, -1e-9, -2e-10, 2e-10, 1e-9, 1e-8))
    def test_answers_just_outside_the_band(self, disc):
        # both evaluations lose digits like 1/|disc| there: measured gap*|disc| <= 1.0e-17
        pts = near_band_points(disc)
        gap = gaps(solve(*as_columns(pts)), [solve(eps, b) for eps, b in pts])
        assert gap.max() <= 1e-16 / abs(disc)

    def test_one_point_in_a_batch(self):
        amps = solve(*as_columns([OK]))
        assert amps.shape == (1, 8) and amps.dtype == complex
        assert gaps(amps, [solve(*OK)]).max() <= 1e-13

    def test_empty(self):
        assert solve(*as_columns([])).shape == (0, 8)

    def test_split_into_blocks_keeps_its_words(self, monkeypatch):
        pts = circle_points(seed=32, n=30)
        whole = solve(*as_columns(pts))
        monkeypatch.setattr(barrier, "MAX_ENTRIES", 4 * 8)  # four points per block
        assert np.array_equal(solve(*as_columns(pts)).view(np.uint64), whole.view(np.uint64))

    @pytest.mark.parametrize("bad", (IN_BAND, BAD_EPS, NAN_EPS, HUGE_EPS, SINGULAR, SUBNORMAL),
                             ids=("band", "negative-eps", "nan-eps", "eps-fourth-power-overflow", "singular",
                                  "subnormal"))
    def test_raises_what_the_single_call_raises(self, bad):
        with pytest.raises(Exception) as single:
            solve(*bad)
        with pytest.raises(type(single.value)) as batch:
            solve(*as_columns([OK, bad, OK]))
        assert str(batch.value) == str(single.value)

    def test_raises_at_the_first_failing_point(self):
        with pytest.raises(DegenerateEnergyError):
            solve(*as_columns([OK, IN_BAND, BAD_EPS]))
        with pytest.raises(ValueError, match="eps must be finite"):
            solve(*as_columns([OK, BAD_EPS, IN_BAND]))

    def test_lengths_must_match(self):
        eps, cols = as_columns([OK])
        with pytest.raises(ValueError, match="^2 energies for 1 barriers$"):
            solve(np.array([1.3, 1.4]), cols)


def test_records_are_immutable_tuples_of_fixed_fields():
    assert ScatteringAmplitudes._fields == ("r", "rt", "t", "tt", "a", "b", "at", "bt")
    single, oracle = solve(*OK), oracle_amplitudes(*OK)
    assert type(single) is type(oracle) is ScatteringAmplitudes
    assert (oracle.a, oracle.b, oracle.at, oracle.bt) == (None, None, None, None)
    for record, name in ((single, "t"), (oracle, "bt"), (wave_params(*OK), "beta")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0j)
