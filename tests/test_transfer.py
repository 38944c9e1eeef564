"""Closed transfer elements against the direct similarity product."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import (
    AdimensionalBarrier,
    DegenerateEnergyError,
    build_factors,
    transfer_closed,
    transfer_numeric,
    wave_params,
)
from tests.conftest import random_points

SQRT2 = math.sqrt(2.0)


def params(vc, vq, theta, eps):
    return wave_params(eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta, lam=1.0))


def test_block_structure_without_mixing():
    # beta = gamma = 0 leaves G block-diagonal with [[1,1],[1,-1]]-shaped blocks
    p = params(1.0, 0.0, 0.0, 1.3)
    g, _ = build_factors(p, 1.0)
    assert np.allclose(g[0:2, 2:4], 0.0)
    assert np.allclose(g[2:4, 0:2], 0.0)
    assert np.allclose(g[0:2, 0:2], [[1, 1], [1, -1]])
    r = p.alpha_plus / p.alpha_minus
    assert np.allclose(g[2:4, 2:4], [[1, 1], [r, -r]])


def test_zero_width_gives_identity():
    p = params(0.5, math.sqrt(3.0) / 2.0, 0.4, 1.7)
    _, delta = build_factors(p, 0.0)
    assert np.allclose(delta, np.eye(4))
    assert np.allclose(transfer_closed(p, 0.0), np.eye(4), atol=1e-14)
    assert np.allclose(transfer_numeric(p, 0.0), np.eye(4), atol=1e-14)


def test_g_inverse_residual():
    p = params(0.0, 1.0, 0.0, 1.2)
    g, _ = build_factors(p, 1.0)
    assert np.abs(g @ np.linalg.inv(g) - np.eye(4)).max() < 1e-12


def test_closed_matches_numeric_at_reference_point():
    p = params(1.0 / SQRT2, 1.0 / SQRT2, 0.7, 1.3)
    closed = transfer_closed(p, 2.0)
    numeric = transfer_numeric(p, 2.0)
    assert np.abs(closed - numeric).max() < 1e-10


def test_complex_limit_elements():
    eps, lam = 1.3, 1.5
    p = params(1.0, 0.0, 0.0, eps)
    m = transfer_closed(p, lam)
    am = cmath.sqrt(complex(1.0 - eps * eps, 0.0))
    ap = cmath.sqrt(complex(1.0 + eps * eps, 0.0))
    # off-diagonal blocks vanish
    assert np.abs(m[0:2, 2:4]).max() == 0.0
    assert np.abs(m[2:4, 0:2]).max() == 0.0
    assert m[0, 0] == pytest.approx(cmath.cosh(am * lam), abs=1e-13)
    assert m[0, 1] == pytest.approx(-cmath.sinh(am * lam), abs=1e-13)
    assert m[1, 0] == pytest.approx(-cmath.sinh(am * lam), abs=1e-13)
    assert m[1, 1] == pytest.approx(cmath.cosh(am * lam), abs=1e-13)
    assert m[2, 2] == pytest.approx(cmath.cosh(ap * lam), abs=1e-13)
    assert m[2, 3] == pytest.approx(-(am / ap) * cmath.sinh(ap * lam), abs=1e-13)
    assert m[3, 2] == pytest.approx(-(ap / am) * cmath.sinh(ap * lam), abs=1e-13)
    assert m[3, 3] == pytest.approx(cmath.cosh(ap * lam), abs=1e-13)


def test_closed_matches_numeric_on_randomized_grid():
    # scaled elementwise agreement: an absolute 1e-10 would sit below one
    # ulp once entries reach exp(alpha_plus*lam) ~ 1e13
    worst = 0.0
    for eps, b in random_points(seed=52, n=60):
        p = wave_params(eps, b)
        closed = transfer_closed(p, b.lam)
        numeric = transfer_numeric(p, b.lam)
        scale = max(1.0, float(np.abs(numeric).max()))
        worst = max(worst, float(np.abs(closed - numeric).max()) / scale)
    assert worst < 1e-10


def test_absolute_agreement_where_entries_are_small():
    for eps, b in random_points(seed=53, n=120, lam_max=2.0):
        p = wave_params(eps, b)
        closed = transfer_closed(p, b.lam)
        numeric = transfer_numeric(p, b.lam)
        if np.abs(numeric).max() <= 1e3:
            assert np.abs(closed - numeric).max() < 1e-10


def test_composition_in_width():
    p = params(0.3, math.sqrt(1.0 - 0.09), 1.1, 1.4)
    m1 = transfer_closed(p, 0.8)
    m2 = transfer_closed(p, 1.3)
    m12 = transfer_closed(p, 2.1)
    assert np.abs(m1 @ m2 - m12).max() < 1e-10
    assert np.abs(m1 @ m2 - m2 @ m1).max() < 1e-12  # same basis: they commute


def test_determinant_is_one_on_tame_grid():
    for eps, b in random_points(seed=54, n=60, lam_max=2.0):
        p = wave_params(eps, b)
        assert abs(np.linalg.det(transfer_numeric(p, b.lam)) - 1.0) < 1e-10
        assert abs(np.linalg.det(transfer_closed(p, b.lam)) - 1.0) < 1e-10


def test_theta_enters_only_through_block_phases():
    eps, lam = 1.25, 1.7
    vc = 0.4
    vq = math.sqrt(1.0 - vc * vc)
    delta = 0.9
    m0 = transfer_closed(wave_params(eps, AdimensionalBarrier(vc, vq, 0.0, lam)), lam)
    m1 = transfer_closed(wave_params(eps, AdimensionalBarrier(vc, vq, delta, lam)), lam)
    rot = cmath.exp(1j * delta)
    assert np.abs(m1[0:2, 0:2] - m0[0:2, 0:2]).max() < 1e-12
    assert np.abs(m1[2:4, 2:4] - m0[2:4, 2:4]).max() < 1e-12
    assert np.abs(m1[0:2, 2:4] - rot * m0[0:2, 2:4]).max() < 1e-12
    assert np.abs(m1[2:4, 0:2] - m0[2:4, 0:2] / rot).max() < 1e-12


@st.composite
def mixing_points(draw):
    """(eps, barrier) over eps in (0, 3] and the whole unit circle, often near eps**4 = vq**2."""
    angle = draw(st.floats(min_value=0.0, max_value=math.pi))
    vc, vq = math.cos(angle), math.sin(angle)
    if vq > 0.0 and draw(st.booleans()):
        sign = draw(st.sampled_from((-1.0, 1.0)))
        shift = sign * 10.0 ** draw(st.floats(min_value=-11.0, max_value=-1.0))
        eps = math.sqrt(vq) * (1.0 + shift)
    else:
        eps = draw(st.floats(min_value=1e-6, max_value=3.0))
    theta = draw(st.floats(min_value=-10.0, max_value=10.0))
    return eps, AdimensionalBarrier(vc, vq, theta, 1.0)


@given(mixing_points())
@settings(max_examples=500, deadline=None)
def test_one_minus_beta_gamma_is_bounded_away_from_zero(point):
    # 1 - beta*gamma = 2*root/(eps**2 + root): the degeneracy band keeps it from 0
    eps, b = point
    try:
        p = wave_params(eps, b)
    except DegenerateEnergyError:
        return
    root = cmath.sqrt(eps**4 - b.vq**2)
    mixing = 1.0 - p.beta * p.gamma
    assert abs(mixing) >= 1e-5
    assert mixing == pytest.approx(2.0 * root / (eps**2 + root), rel=1e-9)


def test_condition_warning_next_to_the_threshold():
    # one ulp above eps = 1, alpha_minus ~ 6e-9 makes G's condition estimate 1.9e8
    p = params(0.1, 0.9949874371066204, 0.0, 1.0000000000000002)
    with pytest.warns(RuntimeWarning, match="condition estimate 1.91e[+]08"):
        numeric = transfer_numeric(p, 1.0)
    closed = transfer_closed(p, 1.0)
    assert np.abs(numeric - closed).max() <= 1e-15 * np.abs(closed).max()
