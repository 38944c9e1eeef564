"""Closed transfer elements against exp(-A*lam) of the split interior system."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import (
    AdimensionalBarrier,
    DegenerateEnergyError,
    transfer_closed,
    transfer_numeric,
    wave_params,
)
from qbarrier.barrier import BarrierColumns, cosh_shc
from qbarrier.transfer import _k_block, _squarings
from tests.conftest import as_columns, random_points, split_matrix

SQRT2 = math.sqrt(2.0)


def params(vc, vq, theta, eps):
    return wave_params(eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta, lam=1.0))


def both_routes(eps, b):
    """(transfer_closed, transfer_numeric) at (eps, b): the table and exp(-A*lam)."""
    return transfer_closed(wave_params(eps, b), b.lam), transfer_numeric(eps, b)


def scaled_gap(closed, numeric):
    """Largest elementwise gap over max(1, largest entry): entries grow like exp(alpha_plus*lam)."""
    return float(np.abs(closed - numeric).max()) / max(1.0, float(np.abs(numeric).max()))


def test_zero_width_gives_identity():
    eps, b = 1.7, AdimensionalBarrier(0.5, math.sqrt(3.0) / 2.0, 0.4, 0.0)
    closed, numeric = both_routes(eps, b)
    assert np.allclose(closed, np.eye(4), atol=1e-14)
    assert np.allclose(numeric, np.eye(4), atol=1e-14)


def test_closed_matches_numeric_at_reference_point():
    closed, numeric = both_routes(1.3, AdimensionalBarrier(1.0 / SQRT2, 1.0 / SQRT2, 0.7, 2.0))
    assert np.abs(closed - numeric).max() < 1e-10


def test_complex_limit_elements():
    eps, lam = 1.3, 1.5
    p = params(1.0, 0.0, 0.0, eps)
    m = transfer_closed(p, lam)
    am = cmath.sqrt(complex(1.0 - eps * eps, 0.0))
    ap = cmath.sqrt(complex(1.0 + eps * eps, 0.0))
    # off-diagonal blocks vanish; the diagonal ones are X(am) and X(ap) in the data basis
    assert np.abs(m[0:2, 2:4]).max() == 0.0
    assert np.abs(m[2:4, 0:2]).max() == 0.0
    assert m[0, 0] == pytest.approx(cmath.cosh(am * lam), abs=1e-13)
    assert m[0, 1] == pytest.approx(-cmath.sinh(am * lam) / am, abs=1e-13)
    assert m[1, 0] == pytest.approx(-am * cmath.sinh(am * lam), abs=1e-13)
    assert m[1, 1] == pytest.approx(cmath.cosh(am * lam), abs=1e-13)
    assert m[2, 2] == pytest.approx(cmath.cosh(ap * lam), abs=1e-13)
    assert m[2, 3] == pytest.approx(-cmath.sinh(ap * lam) / ap, abs=1e-13)
    assert m[3, 2] == pytest.approx(-ap * cmath.sinh(ap * lam), abs=1e-13)
    assert m[3, 3] == pytest.approx(cmath.cosh(ap * lam), abs=1e-13)


def test_closed_matches_numeric_on_randomized_grid():
    # scaled elementwise agreement: an absolute 1e-10 would sit below one
    # ulp once entries reach exp(alpha_plus*lam) ~ 1e13
    worst = max(scaled_gap(*both_routes(eps, b)) for eps, b in random_points(seed=52, n=60))
    assert worst < 1e-10


def test_absolute_agreement_where_entries_are_small():
    for eps, b in random_points(seed=53, n=120, lam_max=2.0):
        closed, numeric = both_routes(eps, b)
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
        for m in both_routes(eps, b):
            assert abs(np.linalg.det(m) - 1.0) < 1e-10


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
    # one ulp above eps = 1 alpha_minus is ~6e-9; neither route divides by it, and
    # neither warns.  The routes share no algebra, so they agree to rounding, not to 1 ulp.
    b = AdimensionalBarrier(0.1, 0.9949874371066204, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed, numeric = both_routes(1.0000000000000002, b)
    assert abs(wave_params(1.0000000000000002, b).alpha_minus) < 1e-8
    assert np.abs(numeric - closed).max() <= 1e-14 * np.abs(closed).max()


def test_array_kernels_warn_nowhere_their_entries_are_not_finite():
    # a thick point whose cosh(a*lam) and squarings overflow, an a*x that overflows and a
    # point in the degeneracy band: the non-finite entries are the signal, and a warning
    # filter that raises changes no word
    eps = np.array([1.2, 0.5])
    cols = BarrierColumns(*(np.array(x) for x in ([0.6, 0.6], [0.8, 0.8], [0.3, 0.3], [800.0, 2.0])))
    calls = {
        "transfer_closed": lambda: transfer_closed(wave_params(eps, cols), cols.lam),
        "cosh_shc": lambda: np.array(cosh_shc(np.array([1e300 + 0j, 1.0]), 1e10)),
        "transfer_numeric": lambda: transfer_numeric(eps, cols),
        "wave_params": lambda: np.array(wave_params(np.array([1.2, math.sqrt(0.8)]), cols)[1:]),
    }
    for name, call in calls.items():
        quiet = call()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loud = call()
        assert not np.isfinite(quiet).all(), name
        assert np.array_equal(quiet.view(np.uint64), loud.view(np.uint64)), name


def test_one_thick_point_is_a_stack_of_one():
    # cosh(a*lam) overflows at this point: as in a batch, its matrix holds non-finite
    # entries, with no error and no warning
    b = AdimensionalBarrier(0.0, 1.0, 0.4, 800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = transfer_closed(wave_params(1.2, b), b.lam)
    assert m.shape == (4, 4) and not np.isfinite(m).all()


def stack_points():
    """Wells and barriers, theta = 0 and != 0, lam = 0 and the threshold eps = 1."""
    pts = [(1.0, AdimensionalBarrier(vc, vq, theta, lam))
           for vc, vq in ((1.0, 0.0), (0.6, 0.8), (-0.6, 0.8), (-1.0, 0.0))
           for theta, lam in ((0.0, 2.0), (0.9, 0.0))]
    pts += [(eps, AdimensionalBarrier(-b.vc, b.vq, b.theta, b.lam))
            for eps, b in random_points(seed=55, n=12)]
    return pts + random_points(seed=56, n=12)


def test_stacked_exponential_is_the_single_calls_word_for_word():
    pts = stack_points()
    stack = transfer_numeric(*as_columns(pts))
    singles = np.stack([transfer_numeric(eps, b) for eps, b in pts])
    assert stack.shape == (len(pts), 4, 4)
    assert np.array_equal(stack.view(np.uint64), singles.view(np.uint64))


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda p: p._replace(beta=-p.beta), id="beta-sign"),
    pytest.param(lambda p: p._replace(gamma=p.gamma.conjugate()), id="gamma-conjugate"),
])
def test_exponential_catches_a_wrong_mixing_coefficient(mutate):
    # the exponential reads no wave parameter, so a table mixed with a wrong
    # beta or gamma is far from it (a check against the table's own algebra is not)
    worst = 0.0
    for eps, b in random_points(seed=52, n=60):
        closed = transfer_closed(mutate(wave_params(eps, b)), b.lam)
        worst = max(worst, scaled_gap(closed, transfer_numeric(eps, b)))
    assert worst > 1.0


def test_one_width_serves_a_whole_stack():
    pts = [(eps, b._replace(lam=1.5)) for eps, b in stack_points()]
    stack = transfer_numeric(*as_columns(pts))
    singles = np.stack([transfer_numeric(eps, b) for eps, b in pts])
    assert np.array_equal(stack.view(np.uint64), singles.view(np.uint64))


def expm_points():
    """Seeded energies and their one-point BarrierColumns: wells and barriers over the unit circle with
    theta != 0, the threshold eps = 1, lam = 0, negative lam, and eps = U(3, 25) at the oracle's segment widths."""
    rng = np.random.default_rng(57)
    pts = []
    for k in range(120):
        phi, theta, eps, lam = rng.uniform((0.0, -math.pi, 0.2, 0.0), (math.pi, math.pi, 3.0, 10.0))
        b = AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, 0.0)
        kind = k % 5
        if kind == 1:
            eps = 1.0
        elif kind == 2:
            lam = 0.0
        elif kind == 3:
            lam = -lam
        elif kind == 4:
            eps, lam = rng.uniform((3.0, 0.0), (25.0, 30.0))
            lam *= 0.5 ** int(_squarings(_k_block(b, eps), lam)[0])
        pts.append((np.array([eps]), BarrierColumns(*(np.array([x]) for x in (b.vc, b.vq, b.theta, lam)))))
    return pts


def test_exponential_matches_mpmath_expm():
    worst = 0.0
    for eps, b in expm_points():
        with mp.workdps(40):
            ref = np.array(mp.expm(mp.matrix(split_matrix(eps, b)[0].tolist()) * -b.lam[0]).tolist(), dtype=complex)
        worst = max(worst, scaled_gap(ref, transfer_numeric(eps, b)[0]))
    assert worst <= 1e-14
