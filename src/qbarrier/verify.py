"""Seeded self-verification: every closed form against an independent route.

Five check classes, each a separate pass/fail unit:

  norm-conservation    1 - |R|**2 - |T|**2 from the direct solve
  theta-invariance     T must not move when the potential phase rotates
  transfer-agreement   closed transfer elements vs exp(-A*lam) of the split system
  transmission-cross   closed formula vs direct solve vs integrator
  series-asymptotics   threshold moduli vs their thin/thick truncations

Each route runs once over all the points a check draws: `solve`,
`transmission` and `oracle_amplitudes` take sequences of energies and
barriers, and the two transfer tables are built as (n, 4, 4) stacks, in
blocks of `barrier.blocks(n, 16)` points.

The elementwise transfer comparison is scaled by the matrix magnitude:
entries grow like exp(alpha_plus*lam), where an absolute tolerance below
one ulp of the entries would be unmeetable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import AdimensionalBarrier, blocks, columns, require_count, require_integer, wave_params
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


def _unzip(points) -> tuple[list[float], list[AdimensionalBarrier]]:
    """(energies, barriers) of a list of (eps, barrier) points, as the batch routes take them."""
    return [eps for eps, _ in points], [b for _, b in points]


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
    worst = float(np.abs([probability_balance(a) for a in amps]).max())
    return CheckReport("norm-conservation", worst < 1e-9, worst, 1e-9, len(points))


def _t(results) -> np.ndarray:
    """The t of each record, as one complex array."""
    return np.array([x.t for x in results], dtype=complex)


def check_theta_invariance(points) -> CheckReport:
    energies, barriers = _unzip(points)
    base = transmission(energies, [AdimensionalBarrier(b.vc, b.vq, 0.0, b.lam) for b in barriers])
    worst = float(np.abs(_t(transmission(energies, barriers)) - _t(base)).max())
    return CheckReport("theta-invariance", worst < 1e-12, worst, 1e-12, len(points))


def check_transfer_agreement(points) -> CheckReport:
    gaps = []
    for block in blocks(len(points), 16):
        eps, b = columns(*_unzip(points[block]))
        closed = transfer_closed(wave_params(eps, b), b.lam)
        numeric = transfer_numeric(split_ode(b, eps), b.lam)
        scale = np.maximum(1.0, np.abs(numeric).max(axis=(1, 2)))
        gaps.append(np.abs(closed - numeric).max(axis=(1, 2)) / scale)
    worst = float(np.concatenate(gaps).max())
    return CheckReport("transfer-agreement", worst < 1e-10, worst, 1e-10, len(points))


def check_transmission_cross(points, amps) -> CheckReport:
    """`amps[i]` is `solve` at `points[i]`."""
    energies, barriers = _unzip(points)
    t_oracle = _t(oracle_amplitudes(energies, barriers))
    t_closed = _t(transmission(energies, barriers))
    t_solver = _t(amps)
    gaps = np.abs([t_closed - t_solver, t_closed - t_oracle, t_solver - t_oracle])
    worst_solver, worst = float(gaps[0].max()), float(gaps.max())
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
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = sample_points(rng, samples)
    amps = solve(*_unzip(points))
    theta_points = points[: min(len(points), max(1, samples // 5))]
    transfer_points = points[: min(len(points), max(1, 2 * samples // 5))]
    return [
        check_norm_conservation(points, amps),
        check_theta_invariance(theta_points),
        check_transfer_agreement(transfer_points),
        check_transmission_cross(points, amps),
        check_series_asymptotics(),
    ]
