"""Compare the numbers of this checkout's src/ with those of another source tree, bit for bit.

Runs a fixed seeded set of 20,000 points through `solve` (its eight
amplitudes), `transmission` (t, |t|**2 and phase) and, on the first
points, `transmission_grid` over an energy grid and a width grid.  A
seeded set of 2,000 widths goes through
`critical_complex`, `critical_quaternionic` (r, t, rt and tt, which is
None above lam ~709.78) and `asymptotic_moduli` for both cases.  The
first 4,000 points no wider than 30 go through `oracle_amplitudes` (r,
rt, t and tt) in one call, and so, in a second call, does a seeded set of
200 points at eps = U(3, 25) and lam = U(0, 30), whose squaring counts
reach 9, and in a third a seeded set of 200 thick points at eps =
U(0.05, 3) and lam = U(30, 1000); the points on
which a single `solve` or `transmission` call answers go through that
route again in one call each; if such a call raises, as it does where the
route takes one point per call, each point is called alone.
`verify.sample_points` draws a few seeded sets.  `scan_peaks` runs an
energy scan and a width scan for each of a seeded set of potentials, over
the ranges and at the steps `qbarrier resonances --n 3` takes.  Each
source tree is evaluated in its own subprocess.  Numbers are compared as
uint64 words, None and strings as they are, and a raised exception by its
type and message.  Prints one count line per function and exits 1 on any
difference.

    python3 tools/bitcheck.py PARENT_SRC

PARENT_SRC is the src/ directory of another checkout, for example of the
parent commit unpacked with `git archive HEAD~1 | tar -x -C DIR` (then
DIR/src).  The points mix wells and barriers over the whole unit circle,
theta = 0 and theta != 0, eps in {1, 1 +- 1e-7, U(0.05, 3)} and lam in
{0, U(0, 1e-6), U(0, 20), U(20, 400)}; the widths take lam in {0,
U(0, 1e-6), U(0, 1), U(0, 20), U(20, 1000), U(700, 720), 10**U(3, 308)}
with theta = 0 or U(-pi, pi).  The scanned potentials cover the unit
circle, with theta = 0 or U(-pi, pi), lam0 = U(1, 12) for the energy scan
and eps0 = U(1.05, 3) for the width scan.
"""

import math
import operator
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

SEED = 20_000
POINTS = 20_000
WIDTHS = 2_000
GRID_POINTS = 40  # points that also get an energy and a width grid
ORACLE_POINTS = 4_000
LARGE_EPS_POINTS = 200  # oracle points at large eps, so at large squaring counts
THICK_POINTS = 200  # oracle points at lam up to 1e3
ORACLE_WIDTH = 30.0  # widest point of the first oracle row, so a tree whose integrator caps lam at 30 answers it
SCANS = 24  # potentials that get an energy and a width scan
SAMPLER_RUNS = [(seed, n) for seed in (1, 2, 42, 271828) for n in (1, 7, 500)]  # (seed, points)
ENERGY_AXIS = 0.05 + 0.01 * np.arange(296)  # eps from 0.05 to 3.0
WIDTH_AXIS = 0.05 * np.arange(1001)  # lam from 0 to 50
#: the eight amplitudes of a `solve` result
amplitudes = operator.attrgetter("r", "rt", "t", "tt", "a", "b", "at", "bt")
#: what a `TransmissionResult` gives
transmitted = operator.attrgetter("t", "prob", "phase")
#: the amplitudes of a `CriticalAmplitudes` record
critical_amplitudes = operator.attrgetter("r", "t", "rt", "tt")
#: the amplitudes an `oracle_amplitudes` record carries
oracle_fields = operator.attrgetter("r", "rt", "t", "tt")


def points():
    """(eps, vc, vq, theta, lam) tuples of Python floats, the same on every call."""
    rng = np.random.default_rng(SEED)
    phi = rng.uniform(0.0, np.pi, POINTS)  # vc < 0 (a well) on half of them
    theta = np.where(rng.random(POINTS) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, POINTS))
    eps = np.choose(rng.choice(4, POINTS, p=(0.1, 0.1, 0.1, 0.7)),
                    (np.ones(POINTS), np.full(POINTS, 1.0 + 1e-7), np.full(POINTS, 1.0 - 1e-7),
                     rng.uniform(0.05, 3.0, POINTS)))
    lam = np.choose(rng.choice(4, POINTS, p=(0.05, 0.1, 0.6, 0.25)),
                    (np.zeros(POINTS), rng.uniform(0.0, 1e-6, POINTS),
                     rng.uniform(0.0, 20.0, POINTS), rng.uniform(20.0, 400.0, POINTS)))
    return list(zip(eps.tolist(), np.cos(phi).tolist(), np.sin(phi).tolist(),
                    theta.tolist(), lam.tolist()))


def widths():
    """(lam, theta) pairs of Python floats for the threshold functions, the same on every call."""
    rng = np.random.default_rng(SEED + 1)
    lam = np.choose(rng.choice(7, WIDTHS), (
        np.zeros(WIDTHS), rng.uniform(0.0, 1e-6, WIDTHS), rng.uniform(0.0, 1.0, WIDTHS),
        rng.uniform(0.0, 20.0, WIDTHS), rng.uniform(20.0, 1000.0, WIDTHS),
        rng.uniform(700.0, 720.0, WIDTHS), 10.0 ** rng.uniform(3.0, 308.0, WIDTHS)))
    theta = np.where(rng.random(WIDTHS) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, WIDTHS))
    return list(zip(lam.tolist(), theta.tolist()))


def large_eps_points():
    """(eps, vc, vq, theta, lam) tuples at eps = U(3, 25) and lam = U(0, 30), the same on every call."""
    rng = np.random.default_rng(SEED + 3)
    n = LARGE_EPS_POINTS
    phi = rng.uniform(0.0, np.pi, n)
    theta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, n))
    eps, lam = rng.uniform(3.0, 25.0, n), rng.uniform(0.0, 30.0, n)
    return list(zip(eps.tolist(), np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), lam.tolist()))


def thick_points():
    """(eps, vc, vq, theta, lam) tuples at eps = U(0.05, 3) and lam = U(30, 1000), the same on every call."""
    rng = np.random.default_rng(SEED + 4)
    n = THICK_POINTS
    phi = rng.uniform(0.0, np.pi, n)
    theta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, n))
    eps, lam = rng.uniform(0.05, 3.0, n), rng.uniform(30.0, 1000.0, n)
    return list(zip(eps.tolist(), np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), lam.tolist()))


def scans():
    """(b, lo, hi, eps0, step) for the seeded energy scans, then the width scans, as the CLI sets them."""
    from qbarrier import AdimensionalBarrier, complex_resonance_energies, complex_resonance_widths

    rng = np.random.default_rng(SEED + 2)
    phi, lam0, eps0 = rng.uniform(0.0, np.pi, SCANS), rng.uniform(1.0, 12.0, SCANS), rng.uniform(1.05, 3.0, SCANS)
    theta = np.where(rng.random(SCANS) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, SCANS))
    out = []
    for vc, vq, t, lam in zip(np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), lam0.tolist()):
        closed = complex_resonance_energies(lam, 3)
        out.append((AdimensionalBarrier(vc, vq, t, lam), 1.0 + min(1e-3, (closed[0][0] - 1.0) / 10.0),
                    closed[-1][0] + closed[-1][2], None, min(1e-3, (closed[0][0] - 1.0) / 20.0)))
    for vc, vq, t, e in zip(np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), eps0.tolist()):
        closed = complex_resonance_widths(e, 3)
        out.append((AdimensionalBarrier(vc, vq, t), closed[0][1], closed[-1][0] + 0.6 * closed[0][1], e,
                    math.pi / (32.0 * math.sqrt(1.0 + max(e * e, 1.0)))))
    return out


def words(value):
    """The bytes of a complex value or array as uint64 words; None and strings as they are."""
    if value is None or isinstance(value, str):
        return value
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.uint64).tobytes()


def outcome(fn):
    """words() of fn()'s result, or of each item of a tuple result, or the type and message of what it raised."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - every outcome is compared, errors too
        return f"{type(exc).__name__}: {exc}"
    return tuple(map(words, value)) if isinstance(value, tuple) else words(value)


def batch_outcomes(route, fields, pts):
    """words() of fields of each record of one route(energies, barriers) call.

    If that call raises, each point's own outcome instead.
    """
    try:
        return [tuple(map(words, fields(x))) for x in route([eps for eps, _ in pts], [b for _, b in pts])]
    except Exception:  # noqa: BLE001 - then every point's own outcome is compared
        return [outcome(lambda: fields(route(eps, b))) for eps, b in pts]


def evaluate(src):
    """Every outcome of the point set under the qbarrier package in src."""
    sys.path.insert(0, src)
    import qbarrier

    if Path(qbarrier.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"qbarrier imported from {qbarrier.__file__}, not from {src}")
    from qbarrier import (AdimensionalBarrier, asymptotic_moduli, critical_complex,
                          critical_quaternionic, oracle_amplitudes, scan_peaks, solve, transmission,
                          transmission_grid)
    from qbarrier.verify import sample_points

    warnings.simplefilter("ignore")
    out = {name: [] for name in ("solve", "transmission", "transmission_grid",
                                 "critical_complex", "critical_quaternionic", "asymptotic_moduli",
                                 "oracle_amplitudes", "oracle_amplitudes (eps > 3)",
                                 "oracle_amplitudes (thick)", "sample_points",
                                 "solve (batch)", "transmission (batch)",
                                 "scan_peaks (energy)", "scan_peaks (width)")}
    for i, (eps, vc, vq, theta, lam) in enumerate(points()):
        b = AdimensionalBarrier(vc, vq, theta, lam)
        out["solve"].append(outcome(lambda: amplitudes(solve(eps, b))))
        out["transmission"].append(outcome(lambda: transmitted(transmission(eps, b))))
        if i < GRID_POINTS:
            out["transmission_grid"].append(outcome(lambda: transmission_grid(ENERGY_AXIS, lam, b)))
            out["transmission_grid"].append(outcome(lambda: transmission_grid(eps, WIDTH_AXIS, b)))
    for lam, theta in widths():
        out["critical_complex"].append(outcome(lambda: critical_amplitudes(critical_complex(lam))))
        out["critical_quaternionic"].append(
            outcome(lambda: critical_amplitudes(critical_quaternionic(lam, theta))))
        for case in ("complex", "pure_quaternionic"):
            out["asymptotic_moduli"].append(outcome(lambda: asymptotic_moduli(lam, case)))
    narrow = [(eps, AdimensionalBarrier(vc, vq, theta, lam))
              for eps, vc, vq, theta, lam in points() if lam <= ORACLE_WIDTH][:ORACLE_POINTS]
    out["oracle_amplitudes"] = batch_outcomes(oracle_amplitudes, oracle_fields, narrow)
    large = [(eps, AdimensionalBarrier(vc, vq, theta, lam)) for eps, vc, vq, theta, lam in large_eps_points()]
    out["oracle_amplitudes (eps > 3)"] = batch_outcomes(oracle_amplitudes, oracle_fields, large)
    thick = [(eps, AdimensionalBarrier(vc, vq, theta, lam)) for eps, vc, vq, theta, lam in thick_points()]
    out["oracle_amplitudes (thick)"] = batch_outcomes(oracle_amplitudes, oracle_fields, thick)
    for name, route, fields in (("solve", solve, amplitudes), ("transmission", transmission, transmitted)):
        answered = [(eps, AdimensionalBarrier(vc, vq, theta, lam))
                    for (eps, vc, vq, theta, lam), single in zip(points(), out[name])
                    if not isinstance(single, str)]
        out[f"{name} (batch)"] = batch_outcomes(route, fields, answered)
    for b, lo, hi, eps0, step in scans():
        out["scan_peaks (energy)" if eps0 is None else "scan_peaks (width)"].append(
            outcome(lambda: scan_peaks(b, lo, hi, eps0=eps0, coarse_step=step)))
    for seed, n in SAMPLER_RUNS:
        out["sample_points"].append(outcome(lambda: np.array(
            [(eps, b.vc, b.vq, b.theta, b.lam) for eps, b in sample_points(np.random.default_rng(seed), n)])))
    return out


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--evaluate":
        sys.stdout.buffer.write(pickle.dumps(evaluate(sys.argv[2])))
        return 0
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for src in (here, sys.argv[1]):
        proc = subprocess.run([sys.executable, __file__, "--evaluate", src], capture_output=True)
        if proc.returncode != 0:
            print(f"evaluation under {src} failed:\n{proc.stderr.decode()}", file=sys.stderr)
            return 2
        runs.append(pickle.loads(proc.stdout))
    ours, theirs = runs
    differ = 0
    for name in ours:
        pairs = list(zip(ours[name], theirs[name]))
        bad = [i for i, (x, y) in enumerate(pairs) if x != y]
        raised = sum(isinstance(x, str) for x in ours[name])
        print(f"{name}: {len(pairs)} results ({raised} raised), {len(bad)} differ"
              + (f", first at result {bad[0]}" if bad else ""))
        differ += len(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
