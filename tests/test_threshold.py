"""The threshold eps = 1 as a regular point of every general route.

At eps = 1 a barrier's alpha_minus and a well's alpha_plus vanish.  The
closed form and the solve take each wave number through cosh(a*x) and
shc(a, x) = sinh(a*x)/a, entire in a**2, so they answer there.  For the
complex barrier they must reproduce `critical_complex`; elsewhere they
must agree with each other, with the integrator and with the 50-digit
reference of tests/mp_reference.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import (
    AdimensionalBarrier,
    critical_complex,
    oracle_amplitudes,
    probability_balance,
    solve,
    transmission,
    wave_params,
)
from qbarrier.barrier import BarrierColumns
from tests.mp_reference import reference_amplitudes
from tests.quaternion_reference import current_density, wavefunction


@pytest.mark.parametrize("lam", [1e-8, 0.1, 2.0, 40.0])
def test_every_route_reproduces_critical_complex(lam):
    exact = critical_complex(lam)
    b = AdimensionalBarrier(1.0, 0.0, 0.0, lam)
    amps = solve(1.0, b)
    batch = transmission(np.array([0.5, 1.0, 1.5]), BarrierColumns(1.0, 0.0, 0.0, lam))
    gaps = {
        "transmission": transmission(1.0, b).t - exact.t,
        "transmission prob": transmission(1.0, b).prob - abs(exact.t) ** 2,
        "transmission batch": batch[1] - exact.t,
        "solve r": amps.r - exact.r,
        "solve t": amps.t - exact.t,
        "solve rt": amps.rt - exact.rt,
        "solve tt": amps.tt - exact.tt,
        # zone II: A + B*(xi - lam/2) is the exact cubic, here the line c*xi + d
        "solve B": amps.b - 1j * (1.0 - exact.r),
        "solve A - B*lam/2": amps.a - amps.b * lam / 2.0 - (1.0 + exact.r),
    }
    assert {k: v for k, v in gaps.items() if abs(v) > 1e-15} == {}


@pytest.mark.parametrize("lam", [1e-8, 0.1, 2.0])
def test_integrator_reproduces_critical_complex(lam):
    exact = critical_complex(lam)
    amps = oracle_amplitudes(1.0, AdimensionalBarrier(1.0, 0.0, 0.0, lam))
    assert abs(amps.r - exact.r) < 1e-6 and abs(amps.t - exact.t) < 1e-6


@pytest.mark.parametrize("vc, vq", [(0.6, 0.8), (-0.6, 0.8), (-1.0, 0.0)])
def test_threshold_points_match_the_50_digit_reference(vc, vq):
    # (0.6, 0.8) and (-0.6, 0.8) are where rounding 0.8**2 leaves a wave
    # number of ~1e-8 instead of 0; (-1, 0) is a well's exact zero
    b = AdimensionalBarrier(vc, vq, 0.4, 2.0)
    r, rt, t, tt = reference_amplitudes(1.0, vc, vq, 0.4, 2.0)
    amps = solve(1.0, b)
    got = (amps.r, amps.rt, amps.t, amps.tt, transmission(1.0, b).t)
    assert max(abs(x - y) for x, y in zip(got, (r, rt, t, tt, t))) <= 1e-13
    assert abs(oracle_amplitudes(1.0, b).t - t) < 1e-6


@pytest.mark.parametrize("vc, vq", [(0.6, 0.8), (-0.6, 0.8)])
def test_wavefunction_is_continuous_and_conserves_current(vc, vq):
    b = AdimensionalBarrier(vc, vq, 0.4, 2.0)
    p, amps = wave_params(1.0, b), solve(1.0, b)
    for outside, inside in ((-1e-13, 0.0), (b.lam + 1e-13, b.lam)):
        a, c = wavefunction(outside, amps, p, b), wavefunction(inside, amps, p, b)
        assert c.zone == "II"
        assert max(abs(a.value.z - c.value.z), abs(a.value.w - c.value.w),
                   abs(a.derivative.z - c.derivative.z), abs(a.derivative.w - c.derivative.w)) < 1e-12
    flows = [current_density(wavefunction(x, amps, p, b)) for x in (-1.0, 0.7, 1.3, 3.0)]
    assert max(flows) - min(flows) < 1e-12


@given(
    vc=st.floats(min_value=0.05, max_value=1.0),
    well=st.booleans(),
    eps=st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-6, 1.0 + 1e-6]),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    lam=st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_and_solve_agree_at_and_around_the_threshold(vc, well, eps, theta, lam):
    vc = -vc if well else vc
    b = AdimensionalBarrier(vc, math.sqrt(1.0 - vc * vc), theta, lam)
    amps = solve(eps, b)
    assert abs(transmission(eps, b).t - amps.t) <= 1e-12
    assert abs(probability_balance(amps)) <= 1e-12
