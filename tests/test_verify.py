"""The self-check suite's own machinery."""

import collections
import dataclasses
import math

import numpy as np

from qbarrier import barrier, closed_form, ode_oracle, solver, verify
from qbarrier.closed_form import transmission
from qbarrier.solver import ScatteringAmplitudes, probability_balance, solve
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
    eps, cols = sample_points(rng, 200)
    assert all(x.shape == (200,) and x.dtype == float for x in (eps, *cols))
    assert ((0.2 <= eps) & (eps <= 3.0)).all()
    assert ((0.0 < cols.lam) & (cols.lam <= 10.0)).all()
    assert (abs(eps**4 - cols.vq**2) >= 1e-6).all()
    assert (abs(cols.vc**2 + cols.vq**2 - 1.0) < 1e-12).all()


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
    eps, cols = sample_points(rng, 1)
    assert eps.tolist() == [1.5]
    assert (cols.vc.tolist(), cols.theta.tolist(), cols.lam.tolist()) == ([0.6], [0.4], [2.0])
    assert rng.used == 8  # the degenerate row was drawn, then one more


def test_sample_points_band_edges():
    # vc = 0, so vq = 1: the first draw is 5e-7 off the degeneracy, inside the
    # 1e-6 band, and is rejected; the second is 2e-6 off, outside it, and is kept
    inside, outside = (1.0 + 5e-7) ** 0.25, (1.0 + 2e-6) ** 0.25
    assert abs(inside**4 - 1.0 - 5e-7) < 1e-15 and abs(outside**4 - 1.0 - 2e-6) < 1e-15
    rng = ScriptedRng([inside, 0.0, 0.4, 2.0, outside, 0.0, 0.5, 3.0])
    eps, cols = sample_points(rng, 1)
    assert eps.tolist() == [outside] and cols.vq.tolist() == [1.0]
    assert (cols.theta.tolist(), cols.lam.tolist()) == ([0.5], [3.0])
    assert rng.used == 8


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
    for seed in (1, 7, 42, 271828):
        eps, cols = sample_points(np.random.default_rng(seed), 150)
        got = np.column_stack([eps, cols.vc, cols.vq, cols.theta, cols.lam])
        want = one_draw_at_a_time(np.random.default_rng(seed), 150)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_individual_checks_pass_on_seeded_grid():
    eps, cols = sample_points(np.random.default_rng(8), 30)
    pts = [(float(e), cols.barrier(i)) for i, e in enumerate(eps)]
    amps = np.array([solve(e, b) for e, b in pts])
    t = np.array([transmission(e, b).t for e, b in pts])
    base = np.array([transmission(e, dataclasses.replace(b, theta=0.0)).t for e, b in pts])
    for result in (check_norm_conservation(amps), check_theta_invariance(t, base),
                   check_transfer_agreement(eps, cols), check_transmission_cross(eps, cols, amps, t)):
        assert result.passed, result.line()
    assert check_series_asymptotics().passed


def test_norm_check_is_the_per_point_balance_word_for_word():
    # libm's hypot and pow on the columns, as Python's abs and ** on each point
    # (numpy's abs differs from abs in the last bit on about half of these):
    # solve's rows at 500 sampled points, then 2000 seeded near-unitary pairs
    rng = np.random.default_rng(12)
    phi, alpha, beta = rng.uniform(0.0, 2.0 * math.pi, (3, 2000))
    pairs = np.zeros((2000, 8), dtype=complex)
    pairs[:, 0], pairs[:, 2] = np.cos(phi) * np.exp(1j * alpha), np.sin(phi) * np.exp(1j * beta)
    for amps in (solve(*sample_points(np.random.default_rng(13), 500)), pairs):
        for row in amps:  # a check of one point reports that point's |balance|
            balance = probability_balance(ScatteringAmplitudes(*row.tolist()))
            assert check_norm_conservation(row[None]).worst == abs(balance)


def test_transfer_check_split_into_blocks_keeps_its_words(monkeypatch):
    eps, cols = sample_points(np.random.default_rng(9), 30)
    whole = check_transfer_agreement(eps, cols).worst
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 4 * 16)  # four 4x4 tables per block
    assert check_transfer_agreement(eps, cols).worst == whole


def test_norm_check_fails_past_its_bound():
    # the rule: |1 - |r|**2 - |t|**2| < 1e-9 at every row; one row carries the defect
    for defect, passes in ((5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)):
        amps = np.zeros((3, 8), dtype=complex)
        amps[:, 0], amps[:, 2] = 0.6, 0.8j
        amps[1, 2] = math.sqrt(0.64 - defect) * 1j
        assert check_norm_conservation(amps).passed is passes, defect


def test_theta_check_fails_past_its_bound(monkeypatch):
    # the rule: |T - T at theta = 0| < 1e-12 at every point; the route moves T off
    # theta = 0, and run_all must compare its samples with their theta = 0 copies
    route = verify.transmission
    for shift, passes in ((0.5e-12, True), (1.5e-12, False)):
        monkeypatch.setattr(verify, "transmission", lambda e, c: route(e, c) + shift * (c.theta != 0.0))
        report = run_all(seed=8, samples=30)[1]
        assert report.name == "theta-invariance" and report.samples == 6
        assert report.passed is passes, shift


def test_transfer_check_fails_past_its_bound(monkeypatch):
    # the rule: max |closed - numeric| < 1e-10 * max(1, max |numeric|) at every point
    eps, cols = sample_points(np.random.default_rng(9), 30)
    route = verify.transfer_closed
    for error, passes in ((0.5e-10, True), (1.5e-10, False)):
        monkeypatch.setattr(verify, "transfer_closed", lambda p, lam: route(p, lam) * (1.0 + error))
        assert verify.check_transfer_agreement(eps, cols).passed is passes, error


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


def test_run_all_calls_each_route_once(monkeypatch):
    calls = collections.Counter()

    def spy(module, name):
        route = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return route(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("solve", "transmission", "oracle_amplitudes", "transfer_closed", "transfer_numeric"):
        spy(verify, name)
    for module in (closed_form, solver, ode_oracle):  # each batch route's own binding of barrier.batch
        assert module.batch is barrier.batch
        spy(module, "batch")
    assert all(r.passed for r in run_all(seed=7, samples=100))
    assert calls == {"solve": 1, "transmission": 1, "oracle_amplitudes": 1, "transfer_closed": 1,
                     "transfer_numeric": 1, "batch": 3}


def test_a_seed_beyond_float_range_is_accepted():
    # numpy seeds from any non-negative int; the seed check must not convert it to a float
    assert all(r.passed for r in run_all(seed=10**400, samples=3))


def test_report_line_format():
    line = CheckReport("demo", False, 1.5e-3, 1e-9, 7, detail="extra").line()
    assert "demo" in line and "FAIL" in line and "extra" in line
    assert CheckReport("demo", True, 0.0, 1e-9, 7).line().count("PASS") == 1
