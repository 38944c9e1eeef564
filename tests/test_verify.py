"""The self-check suite's own machinery."""

import numpy as np

from qbarrier.solver import solve
from qbarrier.verify import (
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
    """Stand-in generator: `uniform` returns the scripted draws in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def uniform(self, low, high):
        return next(self.draws)


def test_sample_points_skips_the_degenerate_draw():
    # per draw: eps, vc, theta, lam; eps = 1 with vc = 0 (so vq = 1) is degenerate
    rng = ScriptedRng([1.0, 0.0, 0.4, 2.0, 1.5, 0.6, 0.4, 2.0])
    [(eps, b)] = sample_points(rng, 1)
    assert eps == 1.5
    assert (b.vc, b.theta, b.lam) == (0.6, 0.4, 2.0)


def test_individual_checks_pass_on_seeded_grid():
    rng = np.random.default_rng(8)
    pts = sample_points(rng, 30)
    amps = [solve(eps, b) for eps, b in pts]
    for result in (check_norm_conservation(pts, amps), check_theta_invariance(pts),
                   check_transfer_agreement(pts), check_transmission_cross(pts, amps)):
        assert result.passed, result.line()
    assert check_series_asymptotics().passed


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


def test_report_line_format():
    line = CheckReport("demo", False, 1.5e-3, 1e-9, 7, detail="extra").line()
    assert "demo" in line and "FAIL" in line and "extra" in line
    assert CheckReport("demo", True, 0.0, 1e-9, 7).line().count("PASS") == 1
