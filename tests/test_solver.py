"""The eight-equation continuity solve and the piecewise wavefunction."""

import cmath
import math
import warnings

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    DegenerateEnergyError,
    current_density,
    oracle_amplitudes,
    probability_balance,
    solve,
    transmission,
    wave_params,
    wavefunction,
)
from qbarrier.ode_oracle import propagate, split_ode
from tests.conftest import random_points

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
        except np.linalg.LinAlgError:
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
        assert amps.residual is not None and amps.residual < 1e-9


def test_out_of_range_condition_is_inf_without_a_warning():
    # at lam = 400 the growing mode's entries times the inverse's exceed the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = solve(1.2, AdimensionalBarrier(0.6, 0.8, 0.0, 400.0))
    assert amps.condition == math.inf
    assert cmath.isfinite(amps.t)
    assert abs(probability_balance(amps)) <= 1e-12


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
        y_mid = propagate(split_ode(self.b, self.eps), xi, steps=4096) @ y0
        probe = wavefunction(xi, self.amps, self.p, self.b)
        expected = np.array(
            [probe.value.z, probe.derivative.z, probe.value.w, probe.derivative.w],
            dtype=complex,
        )
        assert np.abs(y_mid - expected).max() < 1e-9

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
