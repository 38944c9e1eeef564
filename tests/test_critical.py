"""Exact threshold (eps = 1) amplitudes, interior solutions and series."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    Quaternion,
    asymptotic_moduli,
    critical_complex,
    critical_quaternionic,
    oracle_amplitudes,
    transmission,
)
from qbarrier.quaternion import I as QI, J as QJ


class TestCriticalComplex:
    def test_transparent_at_zero_width(self):
        amps = critical_complex(0.0)
        assert amps.r == 0.0
        assert amps.t == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_equal_split_at_width_two(self):
        amps = critical_complex(2.0)
        assert abs(amps.r) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)
        assert abs(amps.t) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)

    def test_unitary_for_all_widths(self):
        for lam in np.linspace(0.0, 60.0, 121):
            amps = critical_complex(float(lam))
            assert abs(1.0 - abs(amps.r) ** 2 - abs(amps.t) ** 2) < 1e-10

    def test_thin_series_value(self):
        # |R| ~ lam/2 - lam**3/16 = 0.0499375 at lam = 0.1
        amps = critical_complex(0.1)
        assert abs(amps.r) == pytest.approx(0.0499375, abs=2e-7)
        assert abs(amps.r) == pytest.approx(0.04993761694389224, abs=1e-15)

    def test_no_evanescent_amplitudes(self):
        amps = critical_complex(1.7)
        assert amps.rt == 0j and amps.tt == 0j

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            critical_complex(-0.5)


class TestCriticalQuaternionic:
    def test_transparent_at_zero_width(self):
        amps = critical_quaternionic(0.0)
        assert amps.r == 0.0
        assert amps.t == pytest.approx(1.0 + 0j, abs=1e-15)
        assert amps.rt == 0j and amps.tt == 0j
        cubic = (amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r)
        assert cubic == (-1j / 6.0, -0.5, 1j, 1.0)

    def test_thin_series_value(self):
        # |R| ~ lam**2/4 - lam**3/12 = 0.00241667 at lam = 0.1
        amps = critical_quaternionic(0.1)
        assert abs(amps.r) == pytest.approx(0.0024166666666666672, abs=2e-7)
        assert abs(amps.r) == pytest.approx(0.0024168544148155864, abs=1e-15)

    def test_thick_series_value(self):
        # |T| ~ 2/lam + 4/lam**2 - 8/lam**3 - 8/lam**4 at lam = 50
        amps = critical_quaternionic(50.0)
        assert abs(amps.t) == pytest.approx(0.04153456359546424, abs=1e-15)
        assert abs(amps.t) == pytest.approx(0.04153472, abs=1e-6)

    def test_unitary_for_all_widths(self):
        for lam in np.linspace(0.0, 60.0, 121):
            amps = critical_quaternionic(float(lam))
            assert abs(1.0 - abs(amps.r) ** 2 - abs(amps.t) ** 2) < 1e-10

    def test_rational_denominator_has_no_real_roots(self):
        lams = np.arange(0.0, 100.0, 0.01)
        den = 24 + 24 * (1 - 1j) * lams - 18j * lams**2 - 4 * (1 + 1j) * lams**3 - lams**4
        assert np.abs(den).min() >= 24.0

    def test_modulus_theta_independent_and_phases_rotate(self):
        a0 = critical_quaternionic(1.3, 0.0)
        a1 = critical_quaternionic(1.3, 0.9)
        assert abs(a1.t) == pytest.approx(abs(a0.t), abs=1e-15)
        assert a1.t == pytest.approx(a0.t, abs=1e-15)  # t itself is theta-free
        rot = cmath.exp(-1j * 0.9)
        assert a1.rt == pytest.approx(a0.rt * rot, abs=1e-13)
        assert a1.tt == pytest.approx(a0.tt * rot, abs=1e-13)

    def test_evanescent_amplitudes_match_integrator(self):
        for lam in (1.0, 0.003, 1e-5):
            barrier = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.4, lam=lam)
            numeric = oracle_amplitudes(1.0, barrier)
            closed = critical_quaternionic(lam, 0.4)
            # relative, above the integrator's ~1e-16 absolute floor (|r| ~ lam**2/4)
            for name in ("r", "t", "rt", "tt"):
                want = getattr(closed, name)
                assert abs(want - getattr(numeric, name)) <= 1e-9 * abs(want) + 1e-15, (name, lam)


def _zone2_edges(amps):
    """(phi, phi', psi, psi') of the interior solution at xi = 0 and xi = lam.

    Each value comes with the largest modulus among the terms summed to
    form it, the scale of its rounding error.  The complex case's pure
    part is 0.
    """
    a, b, c, d, lam = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r, amps.lam
    phase = 0j if amps.case == "complex" else -1j * cmath.exp(-1j * amps.theta)

    def edge(xi):
        pure = (a * xi**3, b * xi**2, 6.0 * a * xi, c * xi, 2.0 * b, d)
        pure_slope = (3.0 * a * xi**2, 2.0 * b * xi, 6.0 * a, c)
        terms = (
            (a * xi**3, b * xi**2, c * xi, d),
            (3.0 * a * xi**2, 2.0 * b * xi, c),
            tuple(phase * x for x in pure),
            tuple(phase * x for x in pure_slope),
        )
        return [(sum(ts), max(abs(x) for x in ts)) for ts in terms]

    return edge(0.0), edge(lam)


class TestRationalForms:
    """The threshold amplitudes and cubic from the exact rational forms."""

    @pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-5, 1e-3, 3e-3, 0.1, 2.0, 40.0, 700.0])
    def test_continuity_at_both_edges(self, lam):
        for amps in (critical_quaternionic(lam, 0.7), critical_complex(lam)):
            left, right = _zone2_edges(amps)
            grow_back = math.exp(-lam)  # tt*exp(-lam) is psi at the right edge
            free_left = (1.0 + amps.r, 1j * (1.0 - amps.r), amps.rt, amps.rt)
            edge_t = amps.t * cmath.exp(1j * lam)
            free_right = (edge_t, 1j * edge_t, amps.tt * grow_back, -amps.tt * grow_back)
            for (got, scale), want in zip(left + right, free_left + free_right):
                assert abs(got - want) <= 1e-12 * max(scale, abs(want)), (amps.case, got, want)

    def test_agree_with_50_digit_evaluation(self):
        theta = 0.4
        widths = np.concatenate([np.geomspace(1e-6, 1e6, 1500), np.linspace(0.01, 30, 1500)])
        lams = np.random.default_rng(8).choice(widths, 200, replace=False)
        with mp.workdps(50):
            for lam in lams.tolist():
                amps = critical_quaternionic(lam, theta)
                for name, want in zip(("r", "t", "rt", "tt"), _rational_forms_mp(lam, theta)):
                    got = getattr(amps, name)
                    if got is None:  # tt where exp(lam) overflows
                        assert name == "tt" and lam > 709.0
                        continue
                    assert abs(mp.mpc(got) - want) <= 1e-15 * abs(want), (name, lam)


def _rational_forms_mp(lam, theta):
    """(r, t, rt, tt) of the pure quaternionic case at mpmath's working precision."""
    L, i = mp.mpf(lam), mp.mpc(0, 1)

    def poly(coeffs):
        return sum(mp.mpc(c) * L**k for k, c in enumerate(coeffs))

    den = poly((24, 24 - 24j, -18j, -4 - 4j, -1))
    phase = -i * mp.exp(-i * mp.mpf(theta))
    return (
        poly((0, 0, -6j, -4j, -1j)) / den,
        poly((24, 24, 12, 2)) / den * mp.exp(-i * L),
        phase * poly((0, 12, 6 - 6j, -4j, -1 - 1j)) / den,
        phase * poly((0, 12, 6 - 6j, -2j)) / den * mp.exp(L),
    )


def critical_zone2(xi, amps):
    """Interior wavefunction value phi + j*psi at xi for a threshold solution.

    phi is the cubic a*xi**3 + b*xi**2 + c*xi + d with c = i*(1 - r) and
    d = 1 + r; psi is its paired cubic in the pure quaternionic case and 0
    in the complex case (the module docstring of `qbarrier.critical`).
    """
    a, b, c, d = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r
    phi = a * xi**3 + b * xi**2 + c * xi + d
    if amps.case == "complex":
        return Quaternion(phi)
    return Quaternion(phi, -1j * cmath.exp(-1j * amps.theta) * (
        a * xi**3 + b * xi**2 + (6.0 * a + c) * xi + 2.0 * b + d
    ))


class TestZoneTwoSolutions:
    def fd_second(self, amps, xi, h):
        lo = critical_zone2(xi - h, amps)
        mid = critical_zone2(xi, amps)
        hi = critical_zone2(xi + h, amps)
        return Quaternion(
            (lo.z - 2.0 * mid.z + hi.z) / h**2,
            (lo.w - 2.0 * mid.w + hi.w) / h**2,
        )

    def test_complex_case_pure_part_vanishes(self):
        amps = critical_complex(2.0)
        for xi in (0.0, 0.7, 1.9):
            assert critical_zone2(xi, amps).w == 0j

    def test_complex_case_interior_equation(self):
        # i*Phi'' = i*Phi - Phi*i pointwise, via second differences
        amps = critical_complex(2.0)
        xi, h = 1.0, 1e-2
        second = self.fd_second(amps, xi, h)
        value = critical_zone2(xi, amps)
        lhs = QI * second
        rhs = QI * value - value * QI
        assert abs(lhs.z - rhs.z) < 1e-9
        assert abs(lhs.w - rhs.w) < 1e-9

    def test_quaternionic_case_interior_equation(self):
        # i*Phi'' = j*exp(-i*theta)*Phi - Phi*i pointwise
        theta = 0.6
        amps = critical_quaternionic(2.0, theta)
        xi = amps.lam / 2.0
        for h, tol in ((1e-2, 1e-9), (1e-3, 1e-7)):
            second = self.fd_second(amps, xi, h)
            value = critical_zone2(xi, amps)
            lhs = QI * second
            coupling = QJ * Quaternion(cmath.exp(-1j * theta)) * value
            rhs = coupling - value * QI
            assert abs(lhs.z - rhs.z) < tol
            assert abs(lhs.w - rhs.w) < tol

    def test_pure_part_pairs_with_the_complex_cubic(self):
        theta = 0.25
        amps = critical_quaternionic(1.5, theta)
        a, b, c, d = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r
        for xi in (0.1, 0.8, 1.4):
            got = critical_zone2(xi, amps).w
            expected = -1j * cmath.exp(-1j * theta) * (
                a * xi**3 + b * xi**2 + (6.0 * a + c) * xi + 2.0 * b + d
            )
            assert got == pytest.approx(expected, abs=1e-13)

    def test_boundary_values_match_free_zones(self):
        amps = critical_quaternionic(2.0, 0.0)
        left = critical_zone2(0.0, amps)
        assert left.z == pytest.approx(1.0 + amps.r, abs=1e-12)
        assert left.w == pytest.approx(amps.rt, abs=1e-12)
        right = critical_zone2(amps.lam, amps)
        assert right.z == pytest.approx(amps.t * cmath.exp(1j * amps.lam), abs=1e-12)
        assert right.w == pytest.approx(amps.tt * cmath.exp(-amps.lam), abs=1e-12)


class TestContinuityWithGeneralFormula:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_two_sided_limit(self, lam):
        exact = critical_quaternionic(lam).t
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=lam)
        errors = []
        for offset in (1e-3, 3e-4, 1e-4):
            lo = transmission(1.0 - offset, b).t
            hi = transmission(1.0 + offset, b).t
            errors.append(max(abs(lo - exact), abs(hi - exact)) / abs(exact))
        assert errors[-1] < 1e-2
        assert errors[0] > errors[1] > errors[2]

    def test_complex_case_limit(self):
        lam = 2.0
        exact = critical_complex(lam).t
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=lam)
        for offset in (1e-4, 1e-5):
            assert abs(transmission(1.0 + offset, b).t - exact) / abs(exact) < 1e-2
            assert abs(transmission(1.0 - offset, b).t - exact) / abs(exact) < 1e-2


class TestAsymptoticSeries:
    def test_thin_regime_order(self):
        for case, exact in (("complex", critical_complex),
                            ("pure_quaternionic", critical_quaternionic)):
            errs = {}
            for lam in (0.05, 0.025):
                regime, sr, st = asymptotic_moduli(lam, case)
                assert regime == "thin"
                amps = exact(lam)
                errs[lam] = (abs(abs(amps.r) - sr), abs(abs(amps.t) - st))
                assert errs[lam][0] < lam**5
                assert errs[lam][1] < lam**5
            # halving lam divides the defect by at least 2**4
            for i in range(2):
                if errs[0.025][i] > 0.0:
                    assert errs[0.05][i] / errs[0.025][i] >= 16.0

    def test_thick_regime_order(self):
        # the truncation budget 50/lam**5 is pinned at lam = 40; the next
        # |T| coefficient for the pure quaternionic case is 52, so the
        # budget holds there only with the lam**-6 term's help
        for case, exact in (("complex", critical_complex),
                            ("pure_quaternionic", critical_quaternionic)):
            errs = {}
            for lam in (40.0, 80.0):
                regime, sr, st = asymptotic_moduli(lam, case)
                assert regime == "thick"
                amps = exact(lam)
                errs[lam] = (abs(abs(amps.r) - sr), abs(abs(amps.t) - st))
            assert errs[40.0][0] < 50.0 / 40.0**5
            assert errs[40.0][1] < 50.0 / 40.0**5
            for i in range(2):
                if errs[80.0][i] > 0.0:
                    assert errs[40.0][i] / errs[80.0][i] >= 16.0

    def test_regime_follows_lam(self):
        # thin below 0.3, thick above 10, no series from 0.3 to 10 inclusive
        for case in ("complex", "pure_quaternionic"):
            assert asymptotic_moduli(math.nextafter(0.3, 0.0), case)[0] == "thin"
            for lam in (0.3, 1.0, 10.0):
                assert asymptotic_moduli(lam, case) is None
            assert asymptotic_moduli(math.nextafter(10.0, 11.0), case)[0] == "thick"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            asymptotic_moduli(1.0, "octonionic")
        with pytest.raises(ValueError):
            asymptotic_moduli(-1.0, "complex")
