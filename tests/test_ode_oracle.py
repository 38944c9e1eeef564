"""The brute-force integrator: split correctness, accuracy against the referee, matching."""

import cmath
import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    critical_quaternionic,
    oracle_amplitudes,
    transfer_numeric,
    transmission,
    wave_params,
)
from qbarrier import barrier
from qbarrier.ode_oracle import _REACH
from qbarrier.transfer import _k_block, _squarings
from tests.conftest import as_columns, circle_points, random_points, split_matrix
from tests.mp_reference import reference_amplitudes

SQRT2 = math.sqrt(2.0)


def interior_state(p, coeffs, xi):
    """(phi, phi', psi, psi') of the exponential interior solution at xi."""
    a, b, at, bt = coeffs
    am, ap = p.alpha_minus, p.alpha_plus
    low = a * cmath.exp(am * xi) + b * cmath.exp(-am * xi)
    dlow = am * (a * cmath.exp(am * xi) - b * cmath.exp(-am * xi))
    ddlow = am * am * low
    high = at * cmath.exp(ap * xi) + bt * cmath.exp(-ap * xi)
    dhigh = ap * (at * cmath.exp(ap * xi) - bt * cmath.exp(-ap * xi))
    ddhigh = ap * ap * high
    phi = low + p.beta * high
    psi = p.gamma * low + high
    return (
        np.array([phi, dlow + p.beta * dhigh, psi, p.gamma * dlow + dhigh], dtype=complex),
        np.array([dlow + p.beta * dhigh, ddlow + p.beta * ddhigh,
                  p.gamma * dlow + dhigh, p.gamma * ddlow + ddhigh], dtype=complex),
    )


def test_complex_barrier_decouples():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=1.0)
    k = _k_block(b, 1.4)[..., 0]
    assert k[0, 1] == 0.0 and k[1, 0] == 0.0
    assert k[0, 0] == pytest.approx(1.0 - 1.4**2)
    assert k[1, 1] == pytest.approx(1.0 + 1.4**2)


def test_exponential_solution_satisfies_split_system():
    rng = np.random.default_rng(11)
    for eps, b in random_points(seed=12, n=10, lam_max=3.0):
        p = wave_params(eps, b)
        k = _k_block(b, eps)[..., 0]
        coeffs = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        for _ in range(10):
            xi = float(rng.uniform(0.0, b.lam))
            y, dy = interior_state(p, coeffs, xi)  # (phi, psi)'' = K@(phi, psi)
            assert np.abs(k @ y[0::2] - dy[1::2]).max() < 1e-9 * max(1.0, np.abs(dy).max())


def test_threshold_polynomial_solution_satisfies_split_system():
    # vq=1, eps=1: the interior cubic solves the system exactly
    theta = 0.7
    amps = critical_quaternionic(1.5, theta)
    ca, cb, cc, cd = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=theta, lam=1.5)
    k = _k_block(b, 1.0)[..., 0]
    phase = -1j * cmath.exp(-1j * theta)
    for xi in (0.2, 0.75, 1.3):
        phi = ca * xi**3 + cb * xi**2 + cc * xi + cd
        dphi = 3 * ca * xi**2 + 2 * cb * xi + cc
        ddphi = 6 * ca * xi + 2 * cb
        q = ca * xi**3 + cb * xi**2 + (6 * ca + cc) * xi + 2 * cb + cd
        dq = 3 * ca * xi**2 + 2 * cb * xi + 6 * ca + cc
        ddq = 6 * ca * xi + 2 * cb
        y = np.array([phi, dphi, phase * q, phase * dq], dtype=complex)
        dy = np.array([dphi, ddphi, phase * dq, phase * ddq], dtype=complex)
        assert np.abs(k @ y[0::2] - dy[1::2]).max() < 1e-12


def test_resonant_transparency():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0 * math.pi)
    amps = oracle_amplitudes(SQRT2, b)
    assert abs(amps.t) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_threshold_amplitudes_match_exact_rational_forms():
    # the integrator has no branch to choose: eps=1, vq=1 works directly
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=1.0)
    amps = oracle_amplitudes(1.0, b)
    exact = critical_quaternionic(1.0, 0.0)
    assert abs(amps.t - exact.t) < 1e-6
    assert abs(amps.r - exact.r) < 1e-6


def test_mixed_potential_table_peak_is_local_maximum():
    b = AdimensionalBarrier(vc=0.5, vq=math.sqrt(3.0) / 2.0, theta=0.0, lam=3.0 * math.pi)
    peak = abs(oracle_amplitudes(1.145, b).t) ** 2
    assert peak > abs(oracle_amplitudes(1.139, b).t) ** 2
    assert peak > abs(oracle_amplitudes(1.151, b).t) ** 2
    assert peak > 0.99


def referee_points():
    """Four points at large eps*lam, where a low-order integrator with a fixed step
    count loses digits, then seeded points over the whole unit circle of (vc, vq),
    wells included, up to lam = 30."""
    pts = [(eps, AdimensionalBarrier(0.6, 0.8, 0.0, lam)) for eps in (25.0, 10.0) for lam in (29.0, 20.0)]
    rng = np.random.default_rng(23)
    while len(pts) < 40:
        eps, phi, theta, lam = rng.uniform((0.2, 0.0, 0.0, 0.0), (3.0, math.pi, 2.0 * math.pi, 30.0))
        vc, vq = math.cos(phi), math.sin(phi)
        if abs(eps**4 - vq**2) >= 1e-6:
            pts.append((eps, AdimensionalBarrier(vc, vq, theta, lam)))
    return pts


@pytest.mark.parametrize("eps, b", referee_points())
def test_amplitudes_match_the_referee(eps, b):
    amps = oracle_amplitudes(eps, b)
    r, rt, t, _ = reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam)
    assert max(abs(amps.r - r), abs(amps.rt - rt), abs(amps.t - t)) <= 1e-11


def test_transmission_matches_the_referee_to_1e_12():
    # 40 seeded points at eps = U(0.2, 3), then 20 at eps = U(3, 25), where
    # segment maps are the most squared; lam = U(0, 30) throughout.  First
    # eps = 720 at lam = 1, where K ~ eps**2 is furthest from the growth rate
    # eps: a scaling rule that counts |K| rather than sqrt(|K|) over-squares there
    rng = np.random.default_rng(61)
    pts = [(720.0, AdimensionalBarrier(0.6, 0.8, 0.0, 1.0))]
    while len(pts) < 61:
        phi, theta, eps, lam = rng.uniform((0.0, -math.pi, 0.2, 0.0), (math.pi, math.pi, 3.0, 30.0))
        if len(pts) > 40:
            eps = rng.uniform(3.0, 25.0)
        if abs(eps**4 - math.sin(phi) ** 2) >= 1e-6:
            pts.append((eps, AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, lam)))
    t = oracle_amplitudes(*as_columns(pts))[:, 2]
    worst = max(abs(x - reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam)[2]) for x, (eps, b) in zip(t, pts))
    assert worst <= 1e-12


def test_agreement_with_closed_form_on_grid():
    worst = 0.0
    for eps, b in random_points(seed=14, n=60):
        worst = max(worst, abs(oracle_amplitudes(eps, b).t - transmission(eps, b).t))
    assert worst < 1e-6


def test_input_guards():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0)
    with pytest.raises(ValueError):
        transfer_numeric(-1.0, b)


def test_interior_coefficients_absent():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0)
    amps = oracle_amplitudes(1.4, b)
    assert amps.a is None and amps.bt is None


def batch_points():
    """Seeded points and edge cases whose squaring counts run from 0 to past 10."""
    pts = random_points(seed=21, n=40, lam_max=20.0)
    pts += [
        (25.0, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.4, lam=120.0)),  # thick at large eps
        (25.0, AdimensionalBarrier(vc=-0.8, vq=0.6, theta=1.0, lam=60.0)),
        (2.0, AdimensionalBarrier(vc=0.6, vq=0.8, theta=-0.5, lam=80.0)),
        (2.0, AdimensionalBarrier(vc=0.0, vq=1.0, theta=2.5, lam=40.0)),
        (0.5, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=800.0)),
        (1e-10, AdimensionalBarrier(vc=-0.6, vq=0.8, theta=-2.0, lam=300.0)),  # a thick well
        (1e-8, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.2, lam=1e-9)),  # thinner than eps
        (0.7, AdimensionalBarrier(vc=-0.6, vq=0.8, theta=1.1, lam=4.0)),  # a well
        (2.0, AdimensionalBarrier(vc=-1.0, vq=0.0, theta=0.0, lam=25.0)),  # a complex well
        (1.3, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.5, lam=0.0)),  # no width
        (1.0, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.3, lam=2.0)),  # the threshold
        ((1.0 + 2e-6) ** 0.25, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3.0)),  # band edge
        (0.5, AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=30.0)),
    ]
    return pts


def amplitude_words(amps):
    """r, rt, t and tt of each single call's record as uint64 words, a None tt as NaN, as a batch gives it."""
    rows = [[a.r, a.rt, a.t, math.nan if a.tt is None else a.tt] for a in amps]
    return np.array(rows, dtype=complex).view(np.uint64)


def test_batch_is_the_single_calls_word_for_word():
    pts = batch_points()
    counts = {int(_squarings(_k_block(b, eps), b.lam)[0]) for eps, b in pts}
    assert set(range(11)) <= counts
    batch = oracle_amplitudes(*as_columns(pts))
    assert batch.shape == (len(pts), 4) and batch.dtype == complex
    singles = [oracle_amplitudes(eps, b) for eps, b in pts]
    assert np.array_equal(batch.view(np.uint64), amplitude_words(singles))


def test_shuffled_stack_of_squaring_counts_is_the_single_calls_word_for_word():
    # three points at each squaring count 0 ... 9, shuffled: the rounds run on a
    # prefix of the points sorted by count, and the results return in input order
    pool = circle_points(seed=31, n=600)
    pool = [(eps, dataclasses.replace(b, lam=2.0 ** (b.lam - 2.0))) for eps, b in pool]  # lam from 1/4 to 256
    counts = [int(_squarings(_k_block(b, eps), b.lam)[0]) for eps, b in pool]
    pts = [pt for c in range(10) for pt in [pt for pt, n in zip(pool, counts) if n == c][:3]]
    assert len(pts) == 30
    pts = [pts[i] for i in np.random.default_rng(32).permutation(len(pts))]
    eps, cols = as_columns(pts)
    stack = transfer_numeric(eps, cols)
    singles = [transfer_numeric(e, b) for e, b in pts]
    assert all(m.shape == (4, 4) for m in singles)
    assert np.array_equal(stack.view(np.uint64), np.stack(singles).view(np.uint64))
    batch = oracle_amplitudes(eps, cols)
    assert np.array_equal(batch.view(np.uint64), amplitude_words([oracle_amplitudes(e, b) for e, b in pts]))


def test_batch_split_into_parts_keeps_its_words(monkeypatch):
    pts = batch_points()
    whole = oracle_amplitudes(*as_columns(pts))
    # blocks of 4 points
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 64)
    parts = oracle_amplitudes(*as_columns(pts))
    assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))


def test_batch_raises_what_the_first_failing_point_raises():
    ok = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=2.0)
    wide = [AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=lam) for lam in (3e5, 4e5)]
    with pytest.raises(ValueError) as single:
        oracle_amplitudes(1.2, wide[0])
    with pytest.raises(ValueError) as batch:
        oracle_amplitudes(*as_columns([(1.2, ok), (1.2, wide[0]), (1.2, wide[1])]))
    assert str(batch.value) == str(single.value)
    with pytest.raises(ValueError, match="eps"):
        oracle_amplitudes(*as_columns([(1.2, ok), (-1.0, ok), (1.2, wide[0])]))
    with pytest.raises(ValueError, match="2 energies for 1 barriers"):
        oracle_amplitudes(np.array([1.2, 1.3]), as_columns([(1.2, ok)])[1])


def test_overflowing_far_edge_amplitude_is_none_and_spares_the_batch():
    # exp(eps*lam) of Tt overflows at eps*lam = 725
    # (test_amplitudes_match_the_referee pins r, rt and t at this point)
    thick = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=29.0)
    alone = oracle_amplitudes(25.0, thick)
    assert alone.tt is None
    assert cmath.isfinite(alone.t) and cmath.isfinite(alone.r) and cmath.isfinite(alone.rt)
    batch = oracle_amplitudes(*as_columns([(1.2, thick), (25.0, thick)]))
    assert np.array_equal(batch.view(np.uint64), amplitude_words([oracle_amplitudes(1.2, thick), alone]))
    assert cmath.isnan(batch[1, 3]) and cmath.isfinite(batch[0, 3])


def count_points():
    """Seeded points over the whole unit circle, wells included, at lam up to 30 and
    eps up to 25, then the threshold and the band edge at three widths."""
    rng = np.random.default_rng(41)
    pts = []
    for k in range(400):
        phi, theta, lam = rng.uniform((0.0, -math.pi, 0.0), (math.pi, math.pi, 30.0))
        eps = rng.uniform(0.05, 3.0) if k % 2 else rng.uniform(3.0, 25.0)
        pts.append((eps, AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, lam)))
    for lam in (0.0, 2.0, 30.0):
        pts += [(1.0, AdimensionalBarrier(0.0, 1.0, 0.3, lam)),
                (1.0, AdimensionalBarrier(-0.6, 0.8, 0.0, lam)),
                ((1.0 + 2e-6) ** 0.25, AdimensionalBarrier(0.0, 1.0, 0.0, lam))]
    return pts


def test_squaring_rule_bounds_each_segments_growth():
    # the referee takes the growth rate max Re eig(A) by an eigensolver; each
    # of the 2**s segments grows by less than exp(2)
    pts = count_points()
    eps, cols = as_columns(pts)
    s = _squarings(_k_block(cols, eps), cols.lam)
    growth = np.linalg.eigvals(split_matrix(eps, cols)).real.max(-1) * cols.lam * 0.5**s
    assert growth.max() < 2.0
    assert s.max() >= 8 and growth.max() > 1.0
    for (e, b), count in zip(pts, s.tolist()):  # one matrix alone
        assert _squarings(_k_block(b, e), b.lam)[0] == count


def test_reach_is_answered_up_to_its_last_width():
    # at eps = 1.2 the widest barrier answered is _REACH/1.2 exactly; one ulp wider raises
    edge = _REACH / 1.2
    amps = oracle_amplitudes(1.2, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.4, lam=edge))
    assert cmath.isfinite(amps.t) and cmath.isfinite(amps.r)
    with pytest.raises(ValueError, match="beyond the integrator's reach"):
        oracle_amplitudes(1.2, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.4, lam=math.nextafter(edge, math.inf)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps, lam", ((1e150, 2.0), (1e200, 1e-300), (1e8, 2.0), (1.2, 3e5), (1e-320, 1e-321)))
def test_beyond_reach_is_a_value_error_naming_eps_and_lam(eps, lam):
    # eps**2 overflows at eps = 1e200; at (1e-320, 1e-321) the channel wave
    # number k = max(eps, min(1, lam)) is subnormal and 1/k overflows;
    # elsewhere max(eps, 1)*lam passes 2.79e5, where the error bound
    # 1e-11 + 16*max(eps, 1)*lam*2**-52 exceeds 1e-9
    wide = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.4, lam=lam)
    with pytest.raises(ValueError, match=re.escape(f"eps={eps!r} at lam={lam!r}")) as single:
        oracle_amplitudes(eps, wide)
    ok = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=2.0)
    with pytest.raises(ValueError) as batch:
        oracle_amplitudes(*as_columns([(1.2, ok), (eps, wide), (1.2, ok)]))
    assert str(batch.value) == str(single.value)


def test_subnormal_energy_at_unit_width_answers():
    # k = max(eps, min(1, lam)) = 1 is normal, so the point is in reach
    amps = oracle_amplitudes(1e-320, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.3, lam=1.0))
    assert amps.r == reference_amplitudes(1e-320, 0.6, 0.8, 0.3, 1.0)[0] == -1 - 1.839e-320j


def gate_points():
    """Three fixed points, then 200 seeded ones over the whole unit circle with theta != 0.

    lam is U(0, 30) or 10**U(1.5, 3), and eps U(0.05, 3) or 10**U(-10, 3),
    each on half of the draws.  A draw is kept at max(eps, 1)*lam <= 3e3,
    where the referee takes at most about 2.6e3 digits, and outside the
    referee's singular band.
    """
    pts = [(0.5, AdimensionalBarrier(0.0, 1.0, 0.0, 800.0)),
           (40.0, AdimensionalBarrier(0.6, 0.8, 0.4, 30.0)),  # 2**10 segments
           (1e3, AdimensionalBarrier(0.6, 0.8, 0.0, 10.0))]
    rng = np.random.default_rng(5)
    while len(pts) < 203:
        phi, theta = rng.uniform((0.0, -math.pi), (math.pi, math.pi))
        eps = rng.uniform(0.05, 3.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(-10.0, 3.0)
        lam = rng.uniform(0.0, 30.0) if rng.random() < 0.5 else 10.0 ** rng.uniform(1.5, 3.0)
        if max(eps, 1.0) * lam <= 3e3 and abs(eps**4 - math.sin(phi) ** 2) >= 1e-6:
            pts.append((eps, AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, lam)))
    return pts


def test_amplitudes_are_within_the_error_bound_of_the_referee():
    # B = 1e-11 + 16*max(eps, 1)*lam*2**-52 bounds r, rt and t absolutely.  The
    # transmitted pair (t, sigma), sigma = Tt*exp(-eps*lam), is accurate to B
    # relative to its larger member, so t is held to that, tt to B relative
    # to itself: at eps = 1e-7, lam = 279 (a well), |t| is 4.4e-4 of |sigma| and
    # 2.5e-11 relative off, as is the dense shooting solve at that point.
    pts = gate_points()
    for (eps, b), (r_got, rt_got, t_got, tt_got) in zip(pts, oracle_amplitudes(*as_columns(pts)).tolist()):
        r, rt, t, sigma = reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam, right_edge=True)
        bound = 1e-11 + 16.0 * max(eps, 1.0) * b.lam * 2.0**-52
        assert max(abs(r_got - r), abs(rt_got - rt), abs(t_got - t)) <= bound
        if abs(sigma) >= sys.float_info.min:
            assert abs(t_got - t) <= bound * max(abs(t), abs(sigma))
            if not cmath.isnan(tt_got):
                tt = sigma * cmath.exp(eps * b.lam)
                assert abs(tt_got - tt) <= bound * abs(tt)
    pinned = oracle_amplitudes(*pts[0]).tt  # Tt of the referee
    assert abs(pinned - (7.899492613119e-69 + 8.975105448541e-69j)) <= 1e-12 * abs(pinned)


def test_underflowing_right_edge_datum_gives_tt_none():
    # sigma = Tt*exp(-eps*lam) is about 1.5e-338 here, below the normal range, while
    # the referee's Tt is -6.79e-68 + 1.40e-67j; at vq = 0 or lam = 0, Tt is exactly 0
    b = AdimensionalBarrier(0.4225447842073864, 0.9063420465470712, -0.1821341152417375, 954.1010820726543)
    assert oracle_amplitudes(0.6538614585353801, b).tt is None
    assert oracle_amplitudes(0.6538614585353801, AdimensionalBarrier(1.0, 0.0, 0.0, 954.0)).tt == 0.0
    assert oracle_amplitudes(1e-300, AdimensionalBarrier(0.6, 0.8, 0.3, 0.0)).tt == 0.0


@pytest.mark.parametrize("eps", (1e-10, 1e-6, 1e-3))
def test_barrier_thinner_than_its_wavelength_matches_the_referee(eps):
    # with channels at k = 1, the two edges reflect nearly all of phi and
    # their product left r 8.3e-8 off at eps = 1e-10, lam = 0
    for lam in (0.0, 1e-12, 1e-10, 1e-8, 1e-5, 1e-2):
        for vc, vq in ((0.6, 0.8), (-1.0, 0.0), (0.0, 1.0)):
            amps = oracle_amplitudes(eps, AdimensionalBarrier(vc, vq, 0.3, lam))
            r, rt, t, _ = reference_amplitudes(eps, vc, vq, 0.3, lam)
            assert max(abs(amps.r - r), abs(amps.rt - rt), abs(amps.t - t)) <= 1e-13
