"""Reduction to adimensional form and the derived wave parameters."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import (
    AdimensionalBarrier,
    BarrierSpec,
    DegenerateEnergyError,
    adimensionalize,
    asymptotic_moduli,
    complex_resonance_energies,
    complex_resonance_widths,
    critical_complex,
    critical_quaternionic,
    oracle_amplitudes,
    scan_peaks,
    solve,
    transfer_numeric,
    transmission,
    wave_params,
)
from qbarrier.barrier import DEGENERACY_TOL, EPS_LIMIT, MAX_GRID_POINTS, BarrierColumns, batch, columns, shc, uniform_grid
from qbarrier.cli import run_sweep
from qbarrier.verify import run_all

SQRT2 = math.sqrt(2.0)
NON_FINITE = (math.nan, math.inf, -math.inf)


class TestAdimensionalize:
    def test_pure_complex_potential(self):
        b, eps = adimensionalize(BarrierSpec(v1=5.0, v2=0.0, v3=0.0, length=1.0,
                                             mass=1.0, hbar=1.0, energy=5.0))
        assert (b.vc, b.vq, b.theta) == (1.0, 0.0, 0.0)
        assert eps == pytest.approx(1.0)

    def test_symmetric_pure_quaternionic(self):
        v = 1.0 / SQRT2
        b, _ = adimensionalize(BarrierSpec(v1=0.0, v2=v, v3=v, length=1.0,
                                           mass=1.0, hbar=1.0, energy=1.0))
        assert b.vc == pytest.approx(0.0)
        assert b.vq == pytest.approx(1.0)
        assert b.theta == pytest.approx(math.pi / 4.0)

    def test_reduced_width_and_energy(self):
        # m = hbar = 1, V0 = 1, L = 3*pi, E = 2: lam = sqrt(2)*3*pi, eps = sqrt(2)
        b, eps = adimensionalize(BarrierSpec(v1=1.0, v2=0.0, v3=0.0, length=3 * math.pi,
                                             mass=1.0, hbar=1.0, energy=2.0))
        assert b.lam == pytest.approx(13.3286488144751, abs=1e-12)
        assert eps == pytest.approx(SQRT2, abs=1e-14)

    def test_unit_circle_identity(self):
        b, _ = adimensionalize(BarrierSpec(v1=0.3, v2=-1.2, v3=0.7, length=2.0,
                                           mass=0.5, hbar=2.0, energy=1.0))
        assert b.vc**2 + b.vq**2 == pytest.approx(1.0, abs=1e-14)

    def test_huge_finite_data_do_not_overflow(self):
        b, eps = adimensionalize(BarrierSpec(v1=1e200, v2=0.0, v3=0.0, length=1.0,
                                             mass=1.0, hbar=1.0, energy=1.0))
        assert (b.vc, b.vq) == (1.0, 0.0)
        assert b.lam == pytest.approx(math.sqrt(2.0) * 1e100) and eps == pytest.approx(1e-100)
        b, _ = adimensionalize(BarrierSpec(v1=0.0, v2=3e200, v3=4e200, length=1.0,
                                           mass=1.0, hbar=1.0, energy=1.0))
        assert b.vq == pytest.approx(1.0, abs=1e-15)
        b, eps = adimensionalize(BarrierSpec(v1=1.0, v2=0.0, v3=0.0, length=1.0,
                                             mass=1.0, hbar=1e200, energy=1.0))
        assert b.lam == pytest.approx(math.sqrt(2.0) * 1e-200) and eps == 1.0

    def test_non_finite_reduced_width_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            adimensionalize(BarrierSpec(v1=1.0, v2=0.0, v3=0.0, length=1e300,
                                        mass=1e300, hbar=1.0, energy=1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v1=0.0, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=0.0, mass=1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=-1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=0.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=1.0, energy=0.0),
            dict(v1=math.nan, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=math.inf, length=1.0, mass=1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=math.nan, mass=1.0, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=math.inf, hbar=1.0, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=-math.inf, energy=1.0),
            dict(v1=1.0, v2=0.0, v3=0.0, length=1.0, mass=1.0, hbar=1.0, energy=math.nan),
        ],
    )
    def test_invalid_physical_data(self, kwargs):
        with pytest.raises(ValueError):
            BarrierSpec(**kwargs)


class TestAdimensionalBarrier:
    def test_rejects_off_circle(self):
        for vc, vq in ((0.5, 0.5), (math.nan, 1.0), (1.0, math.nan), (-math.inf, 0.0),
                       (1.0 + 1e-11, 0.0)):
            with pytest.raises(ValueError):
                AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=1.0)

    def test_rejects_negative_width(self):
        for lam in (-1.0, *NON_FINITE):
            with pytest.raises(ValueError):
                AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=lam)


#: fields (vc, vq, theta, lam) that AdimensionalBarrier rejects, one clause each
BAD_FIELDS = {
    "nan-vc": (math.nan, 1.0, 0.0, 1.0),
    "nan-theta": (0.6, 0.8, math.nan, 1.0),
    "inf-lam": (1.0, 0.0, 0.0, math.inf),
    "negative-vq": (math.sqrt(1.0 - 1e-6), -1e-3, 0.0, 1.0),
    "negative-lam": (0.6, 0.8, 0.4, -2.0),
    "off-circle": (0.6, 0.8 + 1e-11, 0.0, 1.0),
}


class TestBatch:
    """`batch`: columns checked by AdimensionalBarrier's rule, with no object per point."""

    GOOD = (0.6, 0.8, 0.4, 2.0)

    def columns(self, rows):
        return BarrierColumns(*(np.array(c, dtype=float) for c in zip(*rows)))

    @pytest.mark.parametrize("bad", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_raises_what_the_first_bad_point_raises(self, bad):
        with pytest.raises(ValueError) as single:
            AdimensionalBarrier(*bad)
        other = BAD_FIELDS["off-circle"] if bad != BAD_FIELDS["off-circle"] else BAD_FIELDS["nan-vc"]
        cols = self.columns([self.GOOD, bad, self.GOOD, other])
        with pytest.raises(ValueError) as caught:
            batch(np.ones(4), cols)
        assert str(caught.value) == str(single.value)
        # and so does each route, before any energy is looked at
        for route in (transmission, solve, oracle_amplitudes):
            with pytest.raises(ValueError) as caught:
                route(np.array([1.2, -1.0, 1.2, 1.2]), cols)
            assert str(caught.value) == str(single.value)

    def test_builds_no_barrier_when_every_point_is_good(self, monkeypatch):
        monkeypatch.setattr(BarrierColumns, "barrier", None)
        eps, cols = batch([1.2, 1.3], self.columns([self.GOOD, (-1.0, 0.0, 0.0, 0.0)]))
        assert eps.dtype == float and cols.lam.tolist() == [2.0, 0.0]

    def test_a_float_field_holds_at_every_point(self):
        _, cols = batch(np.ones(3), self.columns([self.GOOD] * 3)._replace(theta=0))
        assert cols.theta.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="^lam must be finite and >= 0.0, got -1.0$"):
            batch(np.ones(3), self.columns([self.GOOD] * 3)._replace(lam=-1.0))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^3 energies for 2 barriers$"):
            batch(np.ones(3), self.columns([self.GOOD] * 2))
        # the counts are sizes, for a 0-d or a 2-d eps too
        with pytest.raises(ValueError, match="^1 energies for 2 barriers$"):
            batch(0.5, BarrierColumns(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 1.0))
        with pytest.raises(ValueError, match="^4 energies for 2 barriers$"):
            batch(np.ones((2, 2)), self.columns([self.GOOD] * 2))

    @pytest.mark.parametrize("eps", [0.5, np.ones((2, 2))], ids=("0-d", "2-d"))
    def test_energies_must_be_one_dimensional(self, eps):
        # each batch route takes its points in blocks along the one axis
        cols = BarrierColumns(0.6, 0.8, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^energies must be a 1-d array, got shape \("):
            batch(eps, cols)
        for route in (transmission, solve, oracle_amplitudes):
            with pytest.raises(ValueError, match="energies must be a 1-d array"):
                route(eps, cols)

    def test_columns_of_objects(self):
        eps, cols = columns([1.2, 2], [AdimensionalBarrier(*self.GOOD), AdimensionalBarrier(1, 0)])
        assert eps.tolist() == [1.2, 2.0] and cols.vc.tolist() == [0.6, 1.0]
        assert cols.barrier(1) == AdimensionalBarrier(1.0, 0.0, 0.0, 1.0)
        assert cols.part(slice(1)).lam.tolist() == [2.0]
        with pytest.raises(ValueError, match="^1 energies for 2 barriers$"):
            columns([1.2], [AdimensionalBarrier(*self.GOOD)] * 2)


class TestWaveParams:
    def test_complex_limit_values(self):
        # vc=1, vq=0, eps=sqrt(2): alpha_minus = i, alpha_plus = sqrt(3)
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1.0)
        p = wave_params(SQRT2, b)
        assert p.alpha_minus == pytest.approx(1j, abs=1e-14)
        assert p.alpha_plus == pytest.approx(math.sqrt(3.0), abs=1e-14)
        assert p.beta == 0.0
        assert p.gamma == 0.0

    def test_mixing_product_theta_invariant(self):
        # beta*gamma = vq**2/(eps**2 + sqrt(eps**4 - vq**2))**2, independent of theta
        expected = 1.0 / (2.0 + math.sqrt(3.0)) ** 2
        values = []
        for theta in (0.0, 0.4, 2.0, 5.9):
            b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=theta, lam=1.0)
            p = wave_params(SQRT2, b)
            values.append(p.beta * p.gamma)
        for v in values:
            assert v == pytest.approx(values[0], abs=1e-15)
            assert v == pytest.approx(expected, abs=1e-14)

    def test_gamma_conjugate_of_beta_above_quaternionic_threshold(self):
        # eps**2 >= vq: both alpha real or the root is real, gamma = conj(beta)
        b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.7, lam=1.0)
        p = wave_params(1.2, b)
        assert p.gamma == pytest.approx(p.beta.conjugate(), abs=1e-15)

    def test_tunneling_and_diffusion_branches_for_complex_barrier(self):
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1.0)
        below = wave_params(0.5, b)
        assert below.alpha_minus.imag == pytest.approx(0.0, abs=1e-15)
        assert below.alpha_minus.real > 0.0
        assert below.alpha_plus.imag == pytest.approx(0.0, abs=1e-15)
        above = wave_params(1.5, b)
        assert above.alpha_minus.real == pytest.approx(0.0, abs=1e-15)
        assert above.alpha_minus.imag > 0.0

    def test_degenerate_band_rejected(self):
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0)
        with pytest.raises(DegenerateEnergyError, match="critical_quaternionic"):
            wave_params(1.0, b)
        # just outside the band is fine
        wave_params(1.0 + 1e-4, b)
        # a mixed degenerate point has no exact replacement to name
        with pytest.raises(DegenerateEnergyError) as exc:
            wave_params(0.8 ** 0.5, AdimensionalBarrier(vc=0.6, vq=0.8))
        assert "critical" not in str(exc.value)

    @pytest.mark.parametrize("vc, vq", [(1.0, 0.0), (0.8, 0.6)])
    def test_threshold_of_a_barrier_zeroes_alpha_minus(self, vc, vq):
        # a regular point: the routes take am through cosh and shc
        p = wave_params(1.0, AdimensionalBarrier(vc=vc, vq=vq))
        assert p.alpha_minus == 0j
        assert p.alpha_plus == pytest.approx(cmath.sqrt(2.0 * vc), abs=1e-15)

    @pytest.mark.parametrize("vc, vq", [(-1.0, 0.0), (-0.8, 0.6)])
    def test_threshold_of_a_well_names_alpha_plus(self, vc, vq):
        # a well's alpha_plus is the wave number that vanishes at eps = 1
        p = wave_params(1.0, AdimensionalBarrier(vc=vc, vq=vq))
        assert p.alpha_plus == 0j
        assert p.alpha_minus == pytest.approx(cmath.sqrt(2.0 * vc), abs=1e-15)

    def test_rejects_nonpositive_eps(self):
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1.0)
        for eps in (0.0, *NON_FINITE):
            with pytest.raises(ValueError):
                wave_params(eps, b)

    def test_rejects_eps_whose_fourth_power_overflows(self):
        # EPS_LIMIT = 2**256 is the least eps whose eps**4 overflows; one ulp below, a thin barrier answers
        b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1e-156)
        with pytest.raises(ValueError, match=r"^eps must be < 2\*\*256, where eps\*\*4 overflows, got 1\.157"):
            wave_params(EPS_LIMIT, b)
        assert transmission(math.nextafter(EPS_LIMIT, 0.0), b).t == 1.0

    @pytest.mark.parametrize("vc, vq", [(1.0, 0.0), (0.8, 0.6), (0.0, 1.0), (-1.0, 0.0)])
    def test_array_holds_nan_exactly_where_a_float_raises(self, vc, vq):
        # the band's edges, |eps**4 - vq**2| = 0.9 and 1.1 times DEGENERACY_TOL on both sides, and
        # the eps limit and the float below it
        b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.7)
        edges = [abs(vq * vq + x * DEGENERACY_TOL) ** 0.25 for x in (-1.1, -0.9, 0.9, 1.1)]
        eps = np.array([0.3, 1.0, 1.0 + 1e-12, 1.7, 0.0, -0.5, math.nan, math.inf,
                        *edges, EPS_LIMIT, math.nextafter(EPS_LIMIT, 0.0)])
        with np.errstate(all="ignore"):
            grid = wave_params(eps, b)
        fields = ("alpha_minus", "alpha_plus", "beta", "gamma")
        for i, x in enumerate(eps.tolist()):
            try:
                p = wave_params(x, b)
            except (ValueError, DegenerateEnergyError):
                assert cmath.isnan(grid.alpha_minus[i]) and cmath.isnan(grid.alpha_plus[i]), x
            else:
                for f in fields:
                    assert abs(getattr(grid, f)[i] - getattr(p, f)) <= 1e-15 * max(1.0, abs(getattr(p, f)))


class TestShc:
    def test_zero_wave_number_gives_the_width(self):
        assert shc(0j, 2.5) == 2.5
        assert shc(np.zeros(3, dtype=complex), np.array([0.0, 1e-8, 40.0])).tolist() == [0.0, 1e-8, 40.0]

    def test_series_and_sinh_meet_at_the_switch(self):
        # both sides of |a*x| = 1e-3, against 50-digit sinh(a*x)/a
        for phase in (0.0, 0.5 * math.pi, 0.3):
            for z in (3e-4, 9.99e-4, 1e-3, 1.01e-3, 3e-3):
                a, x = 0.7 * cmath.exp(1j * phase), z / 0.7
                with mp.workdps(50):
                    want = complex(mp.sinh(mp.mpc(a) * x) / mp.mpc(a))
                got = shc(a, x)
                assert abs(got - want) <= 4e-16 * abs(want), (phase, z)
                grid = shc(np.array([a, a]), np.array([x, 2.0 * x]))
                assert abs(grid[0] - got) <= 4e-16 * abs(got)  # numpy's and cmath's last bits


@given(
    eps=st.floats(min_value=0.3, max_value=3.0),
    vc=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
@settings(max_examples=300, deadline=None)
def test_alpha_sum_and_product_identities(eps, vc, theta):
    vq = math.sqrt(max(0.0, 1.0 - vc * vc))
    if abs(eps**4 - vq**2) <= 1e-6:
        return
    p = wave_params(eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta, lam=1.0))
    s2 = p.alpha_plus**2 + p.alpha_minus**2
    p2 = p.alpha_plus**2 * p.alpha_minus**2
    assert s2 == pytest.approx(2.0 * vc, abs=1e-11)
    assert p2 == pytest.approx(vc * vc - eps**4 + vq * vq, abs=1e-10)
    # principal branch: never a negative real part
    assert p.alpha_minus.real >= -1e-15
    assert p.alpha_plus.real >= -1e-15


@given(
    eps=st.floats(min_value=0.3, max_value=3.0),
    vc=st.floats(min_value=0.0, max_value=1.0),
    theta1=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    theta2=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
@settings(max_examples=200, deadline=None)
def test_theta_only_rotates_beta_gamma(eps, vc, theta1, theta2):
    vq = math.sqrt(max(0.0, 1.0 - vc * vc))
    if abs(eps**4 - vq**2) <= 1e-6:
        return
    p1 = wave_params(eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta1, lam=1.0))
    p2 = wave_params(eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta2, lam=1.0))
    assert p1.alpha_minus == p2.alpha_minus
    assert p1.alpha_plus == p2.alpha_plus
    assert p1.beta * p1.gamma == pytest.approx(p2.beta * p2.gamma, abs=1e-15)
    rot = cmath.exp(1j * (theta2 - theta1))
    assert p2.beta == pytest.approx(p1.beta * rot, abs=1e-13)
    assert p2.gamma == pytest.approx(p1.gamma / rot, abs=1e-13)


B = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.3, lam=2.0)

#: every entry point that validates a real input, as a function of that input
VALIDATED_INPUTS = {
    "barrier theta": lambda x: AdimensionalBarrier(vc=1.0, vq=0.0, theta=x, lam=1.0),
    "transmission eps": lambda x: transmission(x, B),
    "oracle_amplitudes eps": lambda x: oracle_amplitudes(x, B),
    "transfer_numeric eps": lambda x: transfer_numeric(x, B),
    "critical_complex lam": lambda x: critical_complex(x),
    "critical_quaternionic lam": lambda x: critical_quaternionic(x),
    "critical_quaternionic theta": lambda x: critical_quaternionic(2.0, x),
    "asymptotic_moduli lam": lambda x: asymptotic_moduli(x, "complex"),
    "complex_resonance_energies lambda0": lambda x: complex_resonance_energies(x, 3),
    "complex_resonance_widths eps0": lambda x: complex_resonance_widths(x, 3),
    "scan_peaks lo": lambda x: scan_peaks(B, x, 1.5),
    "scan_peaks hi": lambda x: scan_peaks(B, 1.1, x),
    "scan_peaks coarse_step": lambda x: scan_peaks(B, 1.1, 1.5, coarse_step=x),
    "sweep fixed (energy)": lambda x: run_sweep("energy", x, [1.1, 1.15, 1.2], (B,)),
    "sweep fixed (width)": lambda x: run_sweep("width", x, [1.1, 1.15, 1.2], (B,)),
    # a sweep's grid, as `cmd_sweep` builds it
    "sweep start": lambda x: uniform_grid(x, 1.2, 0.05),
    "sweep stop": lambda x: uniform_grid(1.1, x, 0.05),
    "sweep step": lambda x: uniform_grid(1.1, 1.2, x),
    "verify samples": lambda x: run_all(42, x),
    "verify seed": lambda x: run_all(x, 5),
    "complex_resonance_energies n_max": lambda x: complex_resonance_energies(3.0, x),
    "complex_resonance_widths n_max": lambda x: complex_resonance_widths(1.4, x),
}

#: the entries above whose input is an integer (a count or a seed), with the name their error gives it
COUNTS = {
    "verify samples": "samples",
    "verify seed": "seed",
    "complex_resonance_energies n_max": "n_max",
    "complex_resonance_widths n_max": "n_max",
}


@pytest.mark.parametrize("value", NON_FINITE, ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize("entry", sorted(VALIDATED_INPUTS))
def test_non_finite_input_rejected(entry, value):
    with pytest.raises(ValueError):
        VALIDATED_INPUTS[entry](value)


@pytest.mark.parametrize("value", (2.5, 1000.5, 3.0, np.float64(4096.0)))
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_fractional_count_rejected_naming_it(entry, value):
    # a float count or seed, even a whole one, is an error, never an integer rounded by its use
    with pytest.raises(ValueError, match=f"^{COUNTS[entry]} must be an integer, got "):
        VALIDATED_INPUTS[entry](value)


class TestUniformGrid:
    def test_count_formula(self):
        assert uniform_grid(1.0, 1.1, 0.05).tolist() == [1.0, 1.05, 1.1]
        assert len(uniform_grid(3.14, 14.5, 0.003)) == int(math.floor((14.5 - 3.14) / 0.003 + 1e-9)) + 1
        assert uniform_grid(2.0, 2.0, 0.1).tolist() == [2.0]

    @pytest.mark.parametrize("start, stop, step", [
        (1.001, 1.5, 0.001),  # README energy sweep
        (3.14, 14.5, 0.003),  # README width sweep
        (math.pi / math.sqrt(1.41421356**2 - 1.0), 4.6 * math.pi / math.sqrt(1.41421356**2 - 1.0),
         1e-3),  # `resonances --eps0 1.41421356` scan
    ])
    def test_points_are_the_float_expression_bit_for_bit(self, start, stop, step):
        grid = uniform_grid(start, stop, step)
        want = [start + k * step for k in range(grid.size)]
        assert np.array_equal(grid.view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("start, stop, step", [
        (1.1, 1e300, 1e-300),  # infinite count
        (1.1, 1e9, 1e-9),  # finite, ~1e18 points
        (0.0, float(MAX_GRID_POINTS), 1.0),  # one point over the limit
    ])
    def test_oversized_grid_rejected_naming_its_inputs(self, start, stop, step):
        with pytest.raises(ValueError, match="start=.*stop=.*step="):
            uniform_grid(start, stop, step)

    @pytest.mark.parametrize("start, stop, step, message", [
        (1.0, 2.0, 0.0, "step must be finite and > 0.0, got 0.0"),
        (1.0, 2.0, -0.1, "step must be finite and > 0.0, got -0.1"),
        (2.0, 1.0, 0.1, "stop must be finite and >= 2.0, got 1.0"),
        (0.0, 1.0, math.nan, "step must be finite and > 0.0, got nan"),
    ])
    def test_bad_grid_rejected_naming_the_input(self, start, stop, step, message):
        with pytest.raises(ValueError) as exc:
            uniform_grid(start, stop, step)
        assert str(exc.value) == message

    def test_scan_and_sweep_grids_are_bounded(self):
        # a sweep's grid is uniform_grid's (test_cli runs both through the CLI)
        for stop, step in ((1e300, 1e-300), (1e9, 1e-9)):
            with pytest.raises(ValueError, match="more than"):
                scan_peaks(B, 1.1, stop, coarse_step=step)
