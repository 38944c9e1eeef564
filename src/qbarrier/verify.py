"""Seeded self-verification: every closed form against an independent route.

Five check classes, each a separate pass/fail unit:

  norm-conservation    1 - |R|**2 - |T|**2 from the direct solve
  theta-invariance     T must not move when the potential phase rotates
  transfer-agreement   closed transfer elements vs exp(-A*lam) of the split system
  transmission-cross   closed formula vs direct solve vs integrator
  series-asymptotics   threshold moduli vs their thin/thick truncations

The samples are drawn as columns, an energy ndarray and a BarrierColumns,
and stay columns until the verdict.  Each route runs once per `run_all`:
`solve`, `transmission` and `oracle_amplitudes` as batches that return
arrays, and the two transfer tables as (n, 4, 4) stacks, in blocks of
`barrier.blocks(n, 16)` points.  The closed form's one batch holds the n
samples and, after them, copies of the theta-check points with theta = 0,
so the theta and the cross checks read their T from it, as the norm and
the cross checks read `solve`'s rows.

The elementwise transfer comparison is scaled by the matrix magnitude:
entries grow like exp(alpha_plus*lam), where an absolute tolerance below
one ulp of the entries would be unmeetable by construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .barrier import BarrierColumns, blocks, np, require_count, require_integer, wave_params
from .closed_form import transmission
from .critical import asymptotic_moduli, critical_complex, critical_quaternionic
from .ode_oracle import oracle_amplitudes
from .solver import solve
from .transfer import transfer_closed, transfer_numeric

#: grid boundaries shared by every randomized check
EPS_RANGE = (0.2, 3.0)
LAM_RANGE = (0.0, 10.0)
DEGENERACY_BAND = 1e-6
#: bounds of one sample's draws (eps, vc, theta, lam)
_LOW = (EPS_RANGE[0], 0.0, 0.0, LAM_RANGE[0])
_HIGH = (EPS_RANGE[1], 1.0, 2.0 * math.pi, LAM_RANGE[1])


class CheckReport(NamedTuple):
    """Outcome of one check class."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    samples: int
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return (
            f"{self.name:<24} {verdict}  worst={self.worst:.3e}"
            f" tol={self.tolerance:.0e} n={self.samples}{extra}"
        )


def sample_points(rng: np.random.Generator, n: int) -> tuple[np.ndarray, BarrierColumns]:
    """Draw n (eps, barrier) points as columns, rejecting the degeneracy band.

    Each point takes four uniform draws in the order eps, vc, theta, lam,
    drawn as blocks of rows for the points still missing, so a generator
    yields the same points as it would one draw at a time.  vq is
    sqrt(1 - vc**2), and the band test takes eps**4 and vq**2 from libm's
    pow (np.float_power), as Python's ** does on one float.
    """
    rows = np.empty((0, 5))
    while len(rows) < n:
        draws = rng.uniform(_LOW, _HIGH, size=(n - len(rows), 4))
        vq = np.sqrt(np.maximum(0.0, 1.0 - draws[:, 1] * draws[:, 1]))
        keep = ~(abs(np.float_power(draws[:, 0], 4) - np.float_power(vq, 2)) < DEGENERACY_BAND)
        rows = np.concatenate([rows, np.column_stack([draws, vq])[keep]])
    eps, vc, theta, lam, vq = rows.T.copy()
    return eps, BarrierColumns(vc, vq, theta, lam)


def check_norm_conservation(amps: np.ndarray) -> CheckReport:
    """1 - |r|**2 - |t|**2 of `solve`'s (n, 8) rows.

    |z| is libm's hypot and z**2 libm's pow, as `solver.probability_balance`
    takes them from Python's abs and ** on one point.
    """
    r, t = amps[:, 0], amps[:, 2]
    balance = 1.0 - np.float_power(np.hypot(r.real, r.imag), 2) - np.float_power(np.hypot(t.real, t.imag), 2)
    worst = float(np.abs(balance).max())
    return CheckReport("norm-conservation", worst < 1e-9, worst, 1e-9, len(amps))


def check_theta_invariance(t: np.ndarray, base: np.ndarray) -> CheckReport:
    """`transmission`'s T at some points, t, against its T at the same points with theta = 0, base."""
    worst = float(np.abs(t - base).max())
    return CheckReport("theta-invariance", worst < 1e-12, worst, 1e-12, len(t))


def check_transfer_agreement(eps: np.ndarray, cols: BarrierColumns) -> CheckReport:
    gaps = []
    for block in blocks(len(eps), 16):
        e, b = eps[block], cols.part(block)
        closed = transfer_closed(wave_params(e, b), b.lam)
        numeric = transfer_numeric(e, b)
        scale = np.maximum(1.0, np.abs(numeric).max(axis=(1, 2)))
        gaps.append(np.abs(closed - numeric).max(axis=(1, 2)) / scale)
    worst = float(np.concatenate(gaps).max())
    return CheckReport("transfer-agreement", worst < 1e-10, worst, 1e-10, len(eps))


def check_transmission_cross(eps: np.ndarray, cols: BarrierColumns, amps: np.ndarray, t: np.ndarray) -> CheckReport:
    """`amps` is `solve`'s (n, 8) array and t `transmission`'s T at the points (eps, cols)."""
    t_oracle = oracle_amplitudes(eps, cols)[:, 2]
    t_solver = amps[:, 2]
    gaps = np.abs([t - t_solver, t - t_oracle, t_solver - t_oracle])
    worst_solver, worst = float(gaps[0].max()), float(gaps.max())
    return CheckReport(
        "transmission-cross",
        worst < 1e-9,
        worst,
        1e-9,
        len(eps),
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
    """Run the five check classes on a seeded grid; each route runs once (module docstring)."""
    require_count("samples", samples)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    eps, cols = sample_points(rng, samples)
    amps = solve(eps, cols)
    m = max(1, samples // 5)  # the theta check's points
    both = BarrierColumns(*(np.concatenate([c, c[:m]]) for c in cols))
    both.theta[samples:] = 0.0
    t = transmission(np.concatenate([eps, eps[:m]]), both)
    transfer_points = slice(max(1, 2 * samples // 5))
    return [
        check_norm_conservation(amps),
        check_theta_invariance(t[:m], t[samples:]),
        check_transfer_agreement(eps[transfer_points], cols.part(transfer_points)),
        check_transmission_cross(eps, cols, amps, t[:samples]),
        check_series_asymptotics(),
    ]
