"""The brute-force integrator: split correctness, accuracy against the referee, matching."""

import cmath
import math
import re

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    critical_quaternionic,
    oracle_amplitudes,
    split_ode,
    transmission,
    wave_params,
)
from qbarrier import barrier
from qbarrier.ode_oracle import MAX_SEGMENTS, MAX_WIDTH, _segment_count
from tests.conftest import random_points, unzip
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
    a = split_ode(b, 1.4)
    assert a[1, 2] == 0.0 and a[3, 0] == 0.0
    assert a[1, 0] == pytest.approx(1.0 - 1.4**2)
    assert a[3, 2] == pytest.approx(1.0 + 1.4**2)


def test_exponential_solution_satisfies_split_system():
    rng = np.random.default_rng(11)
    for eps, b in random_points(seed=12, n=10, lam_max=3.0):
        p = wave_params(eps, b)
        a = split_ode(b, eps)
        coeffs = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        for _ in range(10):
            xi = float(rng.uniform(0.0, b.lam))
            y, dy = interior_state(p, coeffs, xi)
            assert np.abs(a @ y - dy).max() < 1e-9 * max(1.0, np.abs(dy).max())


def test_threshold_polynomial_solution_satisfies_split_system():
    # vq=1, eps=1: the interior cubic solves the system exactly
    theta = 0.7
    amps = critical_quaternionic(1.5, theta)
    ca, cb, cc, cd = amps.a, amps.b, 1j * (1.0 - amps.r), 1.0 + amps.r
    b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=theta, lam=1.5)
    a = split_ode(b, 1.0)
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
        assert np.abs(a @ y - dy).max() < 1e-12


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
    wells included, up to MAX_WIDTH."""
    pts = [(eps, AdimensionalBarrier(0.6, 0.8, 0.0, lam)) for eps in (25.0, 10.0) for lam in (29.0, 20.0)]
    rng = np.random.default_rng(23)
    while len(pts) < 40:
        eps, phi, theta, lam = rng.uniform((0.2, 0.0, 0.0, 0.0), (3.0, math.pi, 2.0 * math.pi, MAX_WIDTH))
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
        phi, theta, eps, lam = rng.uniform((0.0, -math.pi, 0.2, 0.0), (math.pi, math.pi, 3.0, MAX_WIDTH))
        if len(pts) > 40:
            eps = rng.uniform(3.0, 25.0)
        if abs(eps**4 - math.sin(phi) ** 2) >= 1e-6:
            pts.append((eps, AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, lam)))
    amps = oracle_amplitudes(*unzip(pts))
    worst = max(abs(a.t - reference_amplitudes(eps, b.vc, b.vq, b.theta, b.lam)[2]) for a, (eps, b) in zip(amps, pts))
    assert worst <= 1e-12


def test_agreement_with_closed_form_on_grid():
    worst = 0.0
    for eps, b in random_points(seed=14, n=60):
        worst = max(worst, abs(oracle_amplitudes(eps, b).t - transmission(eps, b).t))
    assert worst < 1e-6


def test_input_guards():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0)
    with pytest.raises(ValueError):
        oracle_amplitudes(1.4, AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=40.0))
    with pytest.raises(ValueError):
        split_ode(b, -1.0)


def test_interior_coefficients_absent():
    b = AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=2.0)
    amps = oracle_amplitudes(1.4, b)
    assert amps.a is None and amps.bt is None


def batch_points():
    """Seeded points and edge cases whose segment counts run from 1 to past 7."""
    pts = random_points(seed=21, n=40, lam_max=20.0)
    pts += [
        (0.7, AdimensionalBarrier(vc=-0.6, vq=0.8, theta=1.1, lam=4.0)),  # a well
        (2.0, AdimensionalBarrier(vc=-1.0, vq=0.0, theta=0.0, lam=25.0)),  # a complex well
        (1.3, AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.5, lam=0.0)),  # no width
        (1.0, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.3, lam=2.0)),  # the threshold
        ((1.0 + 2e-6) ** 0.25, AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3.0)),  # band edge
        (0.5, AdimensionalBarrier(vc=1.0, vq=0.0, theta=0.0, lam=MAX_WIDTH)),
    ]
    return pts


def amplitude_words(amps):
    return np.array([[a.r, a.rt, a.t, a.tt] for a in amps]).view(np.uint64)


def test_batch_is_the_single_calls_word_for_word():
    pts = batch_points()
    counts = {int(_segment_count(split_ode(b, eps), b.lam)) for eps, b in pts}
    assert set(range(1, 8)) <= counts
    batch = oracle_amplitudes([eps for eps, _ in pts], [b for _, b in pts])
    singles = [oracle_amplitudes(eps, b) for eps, b in pts]
    assert np.array_equal(amplitude_words(batch), amplitude_words(singles))


def test_batch_split_into_parts_keeps_its_words(monkeypatch):
    pts = batch_points()
    whole = oracle_amplitudes([eps for eps, _ in pts], [b for _, b in pts])
    # 4 maps per exponential, and one point per solve beyond 1 segment
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 64)
    parts = oracle_amplitudes([eps for eps, _ in pts], [b for _, b in pts])
    assert np.array_equal(amplitude_words(whole), amplitude_words(parts))


def test_batch_raises_what_the_first_failing_point_raises():
    ok = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=2.0)
    wide = [AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=lam) for lam in (40.0, 50.0)]
    with pytest.raises(ValueError) as single:
        oracle_amplitudes(1.2, wide[0])
    with pytest.raises(ValueError) as batch:
        oracle_amplitudes([1.2, 1.2, 1.2], [ok, *wide])
    assert str(batch.value) == str(single.value)
    with pytest.raises(ValueError, match="eps"):
        oracle_amplitudes([1.2, -1.0, 1.2], [ok, ok, wide[0]])
    with pytest.raises(ValueError, match="2 energies for 1 barriers"):
        oracle_amplitudes([1.2, 1.3], [ok])


def test_overflowing_far_edge_amplitude_is_none_and_spares_the_batch():
    # exp(eps*lam) of Tt overflows at eps*lam = 725, inside the width cap
    # (test_amplitudes_match_the_referee pins r, rt and t at this point)
    thick = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=29.0)
    alone = oracle_amplitudes(25.0, thick)
    assert alone.tt is None
    assert cmath.isfinite(alone.t) and cmath.isfinite(alone.r) and cmath.isfinite(alone.rt)
    batch = oracle_amplitudes([1.2, 25.0], [thick, thick])
    assert batch[1] == alone
    assert np.array_equal(amplitude_words(batch[:1]), amplitude_words([oracle_amplitudes(1.2, thick)]))


def count_points():
    """Seeded points over the whole unit circle, wells included, at lam up to MAX_WIDTH and
    eps up to 25, then the threshold and the band edge at three widths."""
    rng = np.random.default_rng(41)
    pts = []
    for k in range(400):
        phi, theta, lam = rng.uniform((0.0, -math.pi, 0.0), (math.pi, math.pi, MAX_WIDTH))
        eps = rng.uniform(0.05, 3.0) if k % 2 else rng.uniform(3.0, 25.0)
        pts.append((eps, AdimensionalBarrier(math.cos(phi), math.sin(phi), theta, lam)))
    for lam in (0.0, 2.0, MAX_WIDTH):
        pts += [(1.0, AdimensionalBarrier(0.0, 1.0, 0.3, lam)),
                (1.0, AdimensionalBarrier(-0.6, 0.8, 0.0, lam)),
                ((1.0 + 2e-6) ** 0.25, AdimensionalBarrier(0.0, 1.0, 0.0, lam))]
    return pts


def test_segment_count_is_the_eigenvalue_count():
    # the referee takes the growth from A's spectrum by an eigensolver
    pts = count_points()
    eps, cols = barrier.columns(*unzip(pts))
    a = split_ode(cols, eps)
    referee = np.maximum(1, np.ceil(np.linalg.eigvals(a).real.max(-1) * cols.lam / 4))
    counts = _segment_count(a, cols.lam)
    assert np.array_equal(counts, referee)
    assert counts.max() > 150
    for (e, b), count in zip(pts, counts.tolist()):  # one matrix alone
        assert _segment_count(split_ode(b, e), b.lam) == count


@pytest.mark.parametrize("eps, lam", ((1e150, 2.0), (40.0, 30.0)))
def test_more_segments_than_the_cap_is_a_value_error_naming_eps(eps, lam):
    # eps = 1e150 overflows eps**4, so its count is not finite;
    # eps = 40 at lam = 30 needs 301 segments
    wide = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.4, lam=lam)
    with pytest.raises(ValueError, match=re.escape(f"eps={eps!r} at lam={lam!r}")) as single:
        oracle_amplitudes(eps, wide)
    assert str(MAX_SEGMENTS) in str(single.value)
    ok = AdimensionalBarrier(vc=0.6, vq=0.8, theta=0.0, lam=2.0)
    with pytest.raises(ValueError) as batch:
        oracle_amplitudes([1.2, eps, 1.2], [ok, wide, ok])
    assert str(batch.value) == str(single.value)
