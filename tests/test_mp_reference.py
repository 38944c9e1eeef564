"""The mpmath referee itself: it must answer wherever the routes are compared to it."""

import cmath
import math

import pytest

from tests.mp_reference import reference_amplitudes


@pytest.mark.parametrize(
    "eps, vc, theta, lam",
    [(1.41, -0.75, 6.08, 628.5), (0.75, -0.92, 5.77, 333.5), (1.08, -0.83, 5.68, 863.2)],
)
def test_thick_wells_solve_and_conserve_probability(eps, vc, theta, lam):
    # with the Tt column unscaled, LU rejected each of these as numerically singular
    r, _, t, _ = reference_amplitudes(eps, vc, math.sqrt(1.0 - vc * vc), theta, lam)
    assert cmath.isfinite(r) and cmath.isfinite(t)
    assert abs(1.0 - abs(r) ** 2 - abs(t) ** 2) <= 1e-12
