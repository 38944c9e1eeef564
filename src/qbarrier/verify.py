"""Seeded self-verification: every closed form against an independent route.

Five check classes, each a separate pass/fail unit:

  norm-conservation    1 - |R|**2 - |T|**2 from the direct solve
  theta-invariance     T must not move when the potential phase rotates
  transfer-agreement   closed transfer elements vs exp(-A*lam) of the split system
  transmission-cross   closed formula vs direct solve vs integrator
  series-asymptotics   threshold moduli vs their thin/thick truncations

The elementwise transfer comparison is scaled by the matrix magnitude:
entries grow like exp(alpha_plus*lam), where an absolute tolerance below
one ulp of the entries would be unmeetable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import AdimensionalBarrier, require_count, require_finite, wave_params
from .closed_form import transmission
from .critical import asymptotic_moduli, critical_complex, critical_quaternionic
from .ode_oracle import oracle_amplitudes, split_ode
from .solver import probability_balance, solve
from .transfer import transfer_closed, transfer_numeric

#: grid boundaries shared by every randomized check
EPS_RANGE = (0.2, 3.0)
LAM_RANGE = (0.0, 10.0)
DEGENERACY_BAND = 1e-6
#: bounds of one sample's draws (eps, vc, theta, lam)
_LOW = (EPS_RANGE[0], 0.0, 0.0, LAM_RANGE[0])
_HIGH = (EPS_RANGE[1], 1.0, 2.0 * math.pi, LAM_RANGE[1])


@dataclass
class CheckReport:
    """Outcome of one check class."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    samples: int
    detail: str = field(default="")

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (
            f"{self.name:<24} {verdict}  worst={self.worst:.3e}"
            f" tol={self.tolerance:.0e} n={self.samples}{extra}"
        )


def sample_points(rng: np.random.Generator, n: int) -> list[tuple[float, AdimensionalBarrier]]:
    """Draw (eps, barrier) pairs, rejecting the degeneracy band.

    Each point takes four uniform draws in the order eps, vc, theta, lam,
    drawn as blocks of rows for the points still missing, so a generator
    yields the same points as it would one draw at a time.
    """
    out: list[tuple[float, AdimensionalBarrier]] = []
    while len(out) < n:
        for eps, vc, theta, lam in rng.uniform(_LOW, _HIGH, size=(n - len(out), 4)).tolist():
            vq = math.sqrt(max(0.0, 1.0 - vc * vc))
            if abs(eps**4 - vq**2) < DEGENERACY_BAND:
                continue
            out.append((eps, AdimensionalBarrier(vc=vc, vq=vq, theta=theta, lam=lam)))
    return out


def check_norm_conservation(points, amps) -> CheckReport:
    """`amps[i]` is `solve` at `points[i]`."""
    worst = max(abs(probability_balance(a)) for a in amps)
    return CheckReport("norm-conservation", worst < 1e-9, worst, 1e-9, len(points))


def check_theta_invariance(points) -> CheckReport:
    worst = 0.0
    for eps, b in points:
        base = transmission(eps, AdimensionalBarrier(b.vc, b.vq, 0.0, b.lam)).t
        worst = max(worst, abs(transmission(eps, b).t - base))
    return CheckReport("theta-invariance", worst < 1e-12, worst, 1e-12, len(points))


def check_transfer_agreement(points) -> CheckReport:
    closed = np.stack([transfer_closed(wave_params(eps, b), b.lam) for eps, b in points])
    numeric = transfer_numeric(np.stack([split_ode(b, eps) for eps, b in points]),
                               np.array([b.lam for _, b in points]))
    scale = np.maximum(1.0, np.abs(numeric).max(axis=(1, 2)))
    worst = float((np.abs(closed - numeric).max(axis=(1, 2)) / scale).max())
    return CheckReport("transfer-agreement", worst < 1e-10, worst, 1e-10, len(points))


def check_transmission_cross(points, amps) -> CheckReport:
    """`amps[i]` is `solve` at `points[i]`."""
    worst_solver = 0.0
    worst_oracle = 0.0
    oracle = oracle_amplitudes([eps for eps, _ in points], [b for _, b in points])
    for (eps, b), a, o in zip(points, amps, oracle):
        t_closed = transmission(eps, b).t
        t_solver = a.t
        t_oracle = o.t
        worst_solver = max(worst_solver, abs(t_closed - t_solver))
        worst_oracle = max(worst_oracle, abs(t_closed - t_oracle), abs(t_solver - t_oracle))
    worst = max(worst_solver, worst_oracle)
    return CheckReport(
        "transmission-cross",
        worst < 1e-9,
        worst,
        1e-9,
        len(points),
        detail=f"closed-vs-solver={worst_solver:.3e}",
    )


def check_series_asymptotics() -> CheckReport:
    # Errors are normalized by their budget (lam**5 thin, 50/lam**5 thick),
    # so anything below 1 passes.
    worst = 0.0
    thin, thick = 0.05, 40.0
    for case, exact in (
        ("complex", critical_complex),
        ("pure_quaternionic", critical_quaternionic),
    ):
        amps = exact(thin)
        _, sr, st = asymptotic_moduli(thin, case)
        worst = max(worst, abs(abs(amps.r) - sr) / thin**5, abs(abs(amps.t) - st) / thin**5)
        amps = exact(thick)
        _, sr, st = asymptotic_moduli(thick, case)
        budget = 50.0 / thick**5
        worst = max(worst, abs(abs(amps.r) - sr) / budget, abs(abs(amps.t) - st) / budget)
    return CheckReport("series-asymptotics", worst < 1.0, worst, 1, 8, detail="normalized")


def run_all(seed: int, samples: int) -> list[CheckReport]:
    """Run the five check classes on a seeded grid; each point is solved once."""
    require_count("samples", samples)
    require_finite("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = sample_points(rng, samples)
    amps = [solve(eps, b) for eps, b in points]
    theta_points = points[: min(len(points), max(1, samples // 5))]
    transfer_points = points[: min(len(points), max(1, 2 * samples // 5))]
    return [
        check_norm_conservation(points, amps),
        check_theta_invariance(theta_points),
        check_transfer_agreement(transfer_points),
        check_transmission_cross(points, amps),
        check_series_asymptotics(),
    ]
