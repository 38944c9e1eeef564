"""The self-check suite's own machinery."""

import math

import numpy as np

from qbarrier import barrier
from qbarrier.solver import solve
from qbarrier.verify import (
    DEGENERACY_BAND,
    CheckReport,
    check_norm_conservation,
    check_series_asymptotics,
    check_theta_invariance,
    check_transfer_agreement,
    check_transmission_cross,
    run_all,
    sample_points,
)


def test_sample_points_respects_bounds_and_band():
    rng = np.random.default_rng(3)
    pts = sample_points(rng, 200)
    assert len(pts) == 200
    for eps, b in pts:
        assert 0.2 <= eps <= 3.0
        assert 0.0 < b.lam <= 10.0
        assert abs(eps**4 - b.vq**2) >= 1e-6
        assert abs(b.vc**2 + b.vq**2 - 1.0) < 1e-12


class ScriptedRng:
    """Stand-in generator: `uniform` serves its next `size` block of the scripted draws."""

    def __init__(self, draws):
        self.draws = np.array(draws)
        self.used = 0

    def uniform(self, low, high, size):
        k = math.prod(size)
        block = self.draws[self.used : self.used + k]
        self.used += k
        return block.reshape(size)


def test_sample_points_skips_the_degenerate_draw():
    # per draw: eps, vc, theta, lam; eps = 1 with vc = 0 (so vq = 1) is degenerate
    rng = ScriptedRng([1.0, 0.0, 0.4, 2.0, 1.5, 0.6, 0.4, 2.0])
    [(eps, b)] = sample_points(rng, 1)
    assert eps == 1.5
    assert (b.vc, b.theta, b.lam) == (0.6, 0.4, 2.0)
    assert rng.used == 8  # the degenerate row was drawn, then one more


def one_draw_at_a_time(rng, n):
    """The sampler's points drawn as scalars: eps, vc, theta, lam per point."""
    out = []
    while len(out) < n:
        eps = rng.uniform(0.2, 3.0)
        vc = rng.uniform(0.0, 1.0)
        vq = math.sqrt(max(0.0, 1.0 - vc * vc))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        lam = rng.uniform(0.0, 10.0)
        if abs(eps**4 - vq**2) >= DEGENERACY_BAND:
            out.append((eps, vc, vq, theta, lam))
    return out


def test_sample_points_draw_the_scalar_stream():
    for seed in (1, 7, 42):
        pts = sample_points(np.random.default_rng(seed), 150)
        got = [(eps, b.vc, b.vq, b.theta, b.lam) for eps, b in pts]
        want = one_draw_at_a_time(np.random.default_rng(seed), 150)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_individual_checks_pass_on_seeded_grid():
    rng = np.random.default_rng(8)
    pts = sample_points(rng, 30)
    amps = [solve(eps, b) for eps, b in pts]
    for result in (check_norm_conservation(pts, amps), check_theta_invariance(pts),
                   check_transfer_agreement(pts), check_transmission_cross(pts, amps)):
        assert result.passed, result.line()
    assert check_series_asymptotics().passed


def test_transfer_check_split_into_blocks_keeps_its_words(monkeypatch):
    pts = sample_points(np.random.default_rng(9), 30)
    whole = check_transfer_agreement(pts).worst
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 4 * 16)  # four 4x4 tables per block
    assert check_transfer_agreement(pts).worst == whole


def test_run_all_produces_five_classes():
    reports = run_all(seed=5, samples=25)
    assert [r.name for r in reports] == [
        "norm-conservation",
        "theta-invariance",
        "transfer-agreement",
        "transmission-cross",
        "series-asymptotics",
    ]
    assert all(r.passed for r in reports)


def test_a_seed_beyond_float_range_is_accepted():
    # numpy seeds from any non-negative int; the seed check must not convert it to a float
    assert all(r.passed for r in run_all(seed=10**400, samples=3))


def test_report_line_format():
    line = CheckReport("demo", False, 1.5e-3, 1e-9, 7, detail="extra").line()
    assert "demo" in line and "FAIL" in line and "extra" in line
    assert CheckReport("demo", True, 0.0, 1e-9, 7).line().count("PASS") == 1
