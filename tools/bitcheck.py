"""Compare the numbers of this checkout's src/ with those of another source tree, bit for bit.

Runs a fixed seeded set of 20,000 points through `solve` (its eight
amplitudes), `transmission` (t, |t|**2 and phase) and, on the first
points, over an energy grid and a width grid (one `transmission` batch
of full columns, or `transmission_grid` in a tree that has it).  A
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
route takes one point per call, each point is called alone.  A batch
call passes columns (an energy ndarray and a BarrierColumns) or, in a
tree whose batch form takes them, sequences of energies and barriers, and
its result is read as array rows (a NaN oracle tt as None) or as records.
`transfer_numeric` and `transfer_closed` take seeded stacks of 1-300
points at eps = U(0.05, 3) and lam log-uniform in [300*2**-12, 300],
whose squaring counts run from 0 to 9, then one at a time the first
points and a seeded set of thick points at lam = U(700, 1000), whose
entries overflow; `transfer_numeric` takes each tree's own form, the
4x4 matrix of `split_ode` in a tree that has it and (eps, barrier
columns) otherwise.
`verify.sample_points` draws a few seeded sets, and `verify.run_all`
runs on seeded grids of 1 to 500 samples, every field of its five
reports compared.  `scan_peaks` runs an
energy scan and a width scan for each of a seeded set of potentials, over
the ranges and at the steps `qbarrier resonances --n 3` takes, and
energy scans at lam0 = 0.5 and 0.3 for (vc, vq) = (0, 1) and two
potentials near it, where rounding noise on a plateau of |T|**2 makes
maxima of its own: grids of 21k-36k points with up to 4,714 maxima for
the prominence rule.  Seeded
`qbarrier sweep` commands run through `cli.main`, each in CSV and JSON,
once to stdout and once to an `--out` file: jittered README sweeps, wells
and theta != 0 over energy and width, a one-point grid at vc = -0.0, the
thick width grid whose amplitudes are NaN, the one that raises
OverflowError, an energy grid whose first failing point depends on the
order of potentials and grid points, a width grid that starts at a
negative width, and an energy grid of 70,001 points for two potentials,
longer than one closed-form block and one writer piece; their exit codes,
stderr and the sha256 of their output are compared.  `shc` takes 40
seeded complex arrays with |a*x| on both sides of its series switch, each
holding a 0 and a NaN, one array wholly below the switch, one
broadcast pair and one array whose a*x overflows.  Each
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

import cmath
import contextlib
import functools
import hashlib
import io
import math
import operator
import pickle
import subprocess
import sys
import tempfile
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
#: (vc, vq, theta) of the plateau scans: (0, 1), whose |T|**2 has rounding-noise maxima between its peaks, and two near it
PLATEAU_POTENTIALS = ((0.0, 1.0, 0.0), (math.sin(0.01), math.cos(0.01), 0.0), (-math.sin(0.02), math.cos(0.02), 1.0))
PLATEAU_LAMBDAS = (0.5, 0.3)  # lam0 of the plateau scans, whose grids have 21,013 and 35,665 points
SAMPLER_RUNS = [(seed, n) for seed in (1, 2, 42, 271828) for n in (1, 7, 500)]  # (seed, points)
VERIFY_RUNS = [(seed, n) for seed in range(12) for n in (1, 5, 37, 100, 500)]  # (seed, samples)
EXPONENTIAL_STACKS = 20  # seeded transfer_numeric stacks of 1-300 matrices
EXPONENTIAL_SINGLES = 50  # points of the first stack also exponentiated one at a time
THICK_EXPONENTIALS = 20  # single exponentials at lam = U(700, 1000), whose entries overflow
ENERGY_AXIS = 0.05 + 0.01 * np.arange(296)  # eps from 0.05 to 3.0
WIDTH_AXIS = 0.05 * np.arange(1001)  # lam from 0 to 50
SWEEP_JITTERS = 3  # jittered copies of each README sweep
SWEEP_POTENTIALS = 4  # seeded potentials of the well and theta sweeps
SHC_ROWS = 40  # seeded shc rows of 2-400 elements
#: the eight amplitudes of a `solve` result
amplitudes = operator.attrgetter("r", "rt", "t", "tt", "a", "b", "at", "bt")
#: what a `TransmissionResult` gives
transmitted = operator.attrgetter("t", "prob", "phase")
#: the amplitudes of a `CriticalAmplitudes` record
critical_amplitudes = operator.attrgetter("r", "t", "rt", "tt")
#: the amplitudes an `oracle_amplitudes` record carries
oracle_fields = operator.attrgetter("r", "rt", "t", "tt")


def transmitted_t(t):
    """What a `TransmissionResult` gives, from the t of a batch's array."""
    from qbarrier.closed_form import TransmissionResult

    return transmitted(TransmissionResult(t))


def oracle_row(row):
    """r, rt, t and tt of an `oracle_amplitudes` batch row, whose NaN tt is the single call's None."""
    r, rt, t, tt = row
    return r, rt, t, None if cmath.isnan(tt) else tt


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


def exponential_stacks():
    """(eps, vc, vq, theta, lam) float ndarrays of each seeded `transfer_numeric` stack, the same on every call.

    At eps <= 3, ||K||_1 <= 11, so lam <= 300 keeps the squaring count at most 9.
    """
    rng = np.random.default_rng(SEED + 6)
    out = []
    for n in rng.integers(1, 301, EXPONENTIAL_STACKS).tolist():
        phi = rng.uniform(0.0, np.pi, n)
        theta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, n))
        eps, lam = rng.uniform(0.05, 3.0, n), 300.0 * 2.0 ** -rng.uniform(0.0, 12.0, n)
        out.append((eps, np.cos(phi), np.sin(phi), theta, lam))
    return out


def thick_exponentials():
    """(eps, vc, vq, theta, lam) tuples at eps = U(0.05, 3) and lam = U(700, 1000), the same on every call."""
    rng = np.random.default_rng(SEED + 8)
    n = THICK_EXPONENTIALS
    phi = rng.uniform(0.0, np.pi, n)
    theta = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, n))
    eps, lam = rng.uniform(0.05, 3.0, n), rng.uniform(700.0, 1000.0, n)
    return list(zip(eps.tolist(), np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), lam.tolist()))


def split_exponential(split_ode, transfer_numeric, eps, b):
    """`transfer_numeric` at (eps, b) in a tree whose form takes the matrix of `split_ode` and a width."""
    return transfer_numeric(split_ode(b, eps), b.lam)


def shc_arrays():
    """(a, x) of each seeded `shc` row, the same on every call.

    a is complex with |a| log-uniform in [1e-9, 1e3] and x = U(0, 3), so
    |a*x| falls on both sides of the series switch; each row holds a 0 and a
    NaN.  Then a row wholly below the switch, a broadcast (a, x) pair and a
    row whose a*x overflows.
    """
    rng = np.random.default_rng(SEED + 7)
    out = []
    for n in rng.integers(2, 400, SHC_ROWS).tolist():
        a = 10.0 ** rng.uniform(-9.0, 3.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        a[rng.integers(n)], a[rng.integers(n)] = 0.0, math.nan
        out.append((a, rng.uniform(0.0, 3.0, n)))
    small = rng.uniform(-1e-4, 1e-4, 50) + 1j * rng.uniform(-1e-4, 1e-4, 50)
    out += [(small, 2.0), (out[0][0], rng.uniform(0.0, 3.0, (5, 1))), (np.array([1e300 + 0j, 1.0]), 1e10)]
    return out


def grid_batch(transmission, eps, lam, b):
    """T over an energy grid at width lam or a width grid at energy eps, from one batch of full columns."""
    from qbarrier.barrier import BarrierColumns

    n = max(np.size(eps), np.size(lam))
    eps, vc, vq, theta, lam = (np.full(n, x) if np.ndim(x) == 0 else x for x in (eps, b.vc, b.vq, b.theta, lam))
    return transmission(eps, BarrierColumns(vc, vq, theta, lam))


def report_fields(reports):
    """Every field of each `CheckReport`, in order."""
    return tuple(getattr(r, f) for r in reports for f in ("name", "passed", "worst", "tolerance", "samples", "detail"))


def energy_scan(vc, vq, theta, lam0):
    """(b, lo, hi, None, step) of the energy scan `qbarrier resonances --lambda lam0 --n 3` runs for a potential."""
    from qbarrier import AdimensionalBarrier, complex_resonance_energies

    closed = complex_resonance_energies(lam0, 3)
    return (AdimensionalBarrier(vc, vq, theta, lam0), 1.0 + min(1e-3, (closed[0][0] - 1.0) / 10.0),
            closed[-1][0] + closed[-1][2], None, min(1e-3, (closed[0][0] - 1.0) / 20.0))


def scans():
    """(b, lo, hi, eps0, step) for the seeded energy scans, then the width scans, as the CLI sets them."""
    from qbarrier import AdimensionalBarrier, complex_resonance_widths

    rng = np.random.default_rng(SEED + 2)
    phi, lam0, eps0 = rng.uniform(0.0, np.pi, SCANS), rng.uniform(1.0, 12.0, SCANS), rng.uniform(1.05, 3.0, SCANS)
    theta = np.where(rng.random(SCANS) < 0.5, 0.0, rng.uniform(-np.pi, np.pi, SCANS))
    out = [energy_scan(vc, vq, t, lam)
           for vc, vq, t, lam in zip(np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), lam0.tolist())]
    for vc, vq, t, e in zip(np.cos(phi).tolist(), np.sin(phi).tolist(), theta.tolist(), eps0.tolist()):
        closed = complex_resonance_widths(e, 3)
        out.append((AdimensionalBarrier(vc, vq, t), closed[0][1], closed[-1][0] + 0.6 * closed[0][1], e,
                    math.pi / (32.0 * math.sqrt(1.0 + max(e * e, 1.0)))))
    return out


def sweep_commands():
    """`qbarrier sweep` argv lists, each in CSV and JSON, the same on every call.

    The README's two sweeps with their fixed value and start moved as the
    benchmark moves them, a seeded set of potentials over the unit circle
    (wells included, theta = U(-pi, pi)) swept over energy and width, a
    one-point grid at vc = -0.0, the thick width grid whose amplitudes are
    NaN, the one whose closed form overflows, an energy grid on which (0, 1)
    is degenerate at its second point and (0.6, 0.8) at its first, a
    width grid from lam = -1, and an energy grid of 70,001 points for two
    potentials, which spans three closed-form blocks and two writer pieces
    per potential.
    """
    rng = np.random.default_rng(SEED + 5)
    sweeps = []
    for _ in range(SWEEP_JITTERS):
        sweeps.append(["--mode", "energy", "--fixed-pi", repr(3.0 + rng.uniform(-0.05, 0.05)),
                       "--start", repr(1.001 + rng.uniform(0.0, 0.001)), "--stop", "1.5", "--step", "0.001"])
        sweeps.append(["--mode", "width", "--fixed", repr(math.sqrt(2.0) + rng.uniform(-0.01, 0.01)),
                       "--start", repr(3.14 + rng.uniform(0.0, 0.003)), "--stop", "14.5", "--step", "0.003",
                       "--potentials", "1,0;0,1"])
    phi, theta = rng.uniform(0.0, np.pi, SWEEP_POTENTIALS), rng.uniform(-np.pi, np.pi, SWEEP_POTENTIALS)
    potentials = "--potentials=" + ";".join(f"{math.cos(p)!r},{math.sin(p)!r},{t!r}"
                                            for p, t in zip(phi.tolist(), theta.tolist()))
    sweeps += [["--mode", "energy", "--fixed", "2.5", "--start", "1.05", "--stop", "3", "--step", "0.01", potentials],
               ["--mode", "width", "--fixed", "1.3", "--start", "0", "--stop", "20", "--step", "0.05", potentials],
               ["--mode", "energy", "--fixed", "2", "--start", "1.2", "--stop", "1.2", "--step", "0.1",
                "--potentials=-0,1"],
               ["--mode", "width", "--fixed", "0.5", "--start", "798", "--stop", "802", "--step", "1",
                "--potentials", "0,1"],
               ["--mode", "width", "--fixed", "1.2", "--start", "700", "--stop", "703", "--step", "1",
                "--potentials", "0,1"],
               ["--mode", "energy", "--fixed", "2", "--start", "0.894427190999916", "--stop", "1.0",
                "--step", "0.105572809000084", "--potentials", "0,1;0.6,0.8"],
               ["--mode", "width", "--fixed", "1", "--start", "-1", "--stop", "1", "--step", "0.5",
                "--potentials", "1,0;0,1"],
               ["--mode", "energy", "--fixed", "2.5", "--start", "1.001", "--stop", "15.001", "--step", "0.0002",
                "--potentials", "0.6,0.8;0,1,0.3"]]
    return [["sweep", *argv, "--format", fmt] for argv in sweeps for fmt in ("csv", "json")]


def command_bytes(main, argv, path):
    """Exit code, stderr and the sha256 of the output of main(argv) to stdout, then of main(argv) to path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        to_stdout = main(argv)
        to_file = main([*argv, "--out", path])
    with open(path, "rb") as fh:
        written = fh.read()
    return (f"exit {to_stdout}", hashlib.sha256(out.getvalue().encode()).hexdigest(),
            f"exit {to_file}", hashlib.sha256(written).hexdigest(), err.getvalue())


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


def batch_rows(result, fields, row_fields):
    """The fields of each point of a batch result: records (a tree whose batch form returns them) or array rows."""
    if isinstance(result, np.ndarray):
        return [row_fields(row) for row in result.tolist()]
    return [fields(x) for x in result]


def batch_outcomes(route, fields, row_fields, pts):
    """words() of the fields of each point of one batch call of route.

    The call takes the columns (energy ndarray, BarrierColumns) or, in a
    tree whose batch form takes them, sequences of energies and barriers;
    the other form raises there.  If both raise, each point's own outcome.
    """
    from qbarrier.barrier import columns

    energies, barriers = [eps for eps, _ in pts], [b for _, b in pts]
    for args in (columns(energies, barriers), (energies, barriers)):
        try:
            return [tuple(map(words, x)) for x in batch_rows(route(*args), fields, row_fields)]
        except Exception:  # noqa: BLE001 - the other form, then every point's own outcome
            pass
    return [outcome(lambda: fields(route(eps, b))) for eps, b in pts]


def sampled(result):
    """(eps, vc, vq, theta, lam) rows of `sample_points`' columns, or of its (eps, barrier) list in a tree that returns one."""
    if isinstance(result, tuple):
        eps, cols = result
        return np.column_stack([eps, cols.vc, cols.vq, cols.theta, cols.lam])
    return np.array([(eps, b.vc, b.vq, b.theta, b.lam) for eps, b in result])


def evaluate(src):
    """Every outcome of the point set under the qbarrier package in src."""
    sys.path.insert(0, src)
    import qbarrier

    if Path(qbarrier.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"qbarrier imported from {qbarrier.__file__}, not from {src}")
    from qbarrier import (AdimensionalBarrier, asymptotic_moduli, critical_complex,
                          critical_quaternionic, oracle_amplitudes, scan_peaks, solve, transmission)
    from qbarrier import transfer_closed, transfer_numeric, wave_params
    from qbarrier.barrier import BarrierColumns, shc
    from qbarrier.verify import run_all, sample_points

    grid = getattr(qbarrier, "transmission_grid", functools.partial(grid_batch, transmission))
    exponential = (functools.partial(split_exponential, qbarrier.split_ode, transfer_numeric)
                   if hasattr(qbarrier, "split_ode") else transfer_numeric)
    warnings.simplefilter("ignore")
    out = {name: [] for name in ("solve", "transmission", "transmission (grid)",
                                 "critical_complex", "critical_quaternionic", "asymptotic_moduli",
                                 "oracle_amplitudes", "oracle_amplitudes (eps > 3)",
                                 "oracle_amplitudes (thick)", "transfer_numeric", "transfer_closed",
                                 "sample_points", "verify.run_all",
                                 "solve (batch)", "transmission (batch)",
                                 "scan_peaks (energy)", "scan_peaks (width)", "scan_peaks (plateau)",
                                 "shc (array)", "sweep bytes")}
    for i, (eps, vc, vq, theta, lam) in enumerate(points()):
        b = AdimensionalBarrier(vc, vq, theta, lam)
        out["solve"].append(outcome(lambda: amplitudes(solve(eps, b))))
        out["transmission"].append(outcome(lambda: transmitted(transmission(eps, b))))
        if i < GRID_POINTS:
            out["transmission (grid)"].append(outcome(lambda: grid(ENERGY_AXIS, lam, b)))
            out["transmission (grid)"].append(outcome(lambda: grid(eps, WIDTH_AXIS, b)))
    for lam, theta in widths():
        out["critical_complex"].append(outcome(lambda: critical_amplitudes(critical_complex(lam))))
        out["critical_quaternionic"].append(
            outcome(lambda: critical_amplitudes(critical_quaternionic(lam, theta))))
        for case in ("complex", "pure_quaternionic"):
            out["asymptotic_moduli"].append(outcome(lambda: asymptotic_moduli(lam, case)))
    narrow = [(eps, AdimensionalBarrier(vc, vq, theta, lam))
              for eps, vc, vq, theta, lam in points() if lam <= ORACLE_WIDTH][:ORACLE_POINTS]
    out["oracle_amplitudes"] = batch_outcomes(oracle_amplitudes, oracle_fields, oracle_row, narrow)
    large = [(eps, AdimensionalBarrier(vc, vq, theta, lam)) for eps, vc, vq, theta, lam in large_eps_points()]
    out["oracle_amplitudes (eps > 3)"] = batch_outcomes(oracle_amplitudes, oracle_fields, oracle_row, large)
    thick = [(eps, AdimensionalBarrier(vc, vq, theta, lam)) for eps, vc, vq, theta, lam in thick_points()]
    out["oracle_amplitudes (thick)"] = batch_outcomes(oracle_amplitudes, oracle_fields, oracle_row, thick)
    for name, route, fields, row_fields in (("solve", solve, amplitudes, tuple),
                                            ("transmission", transmission, transmitted, transmitted_t)):
        answered = [(eps, AdimensionalBarrier(vc, vq, theta, lam))
                    for (eps, vc, vq, theta, lam), single in zip(points(), out[name])
                    if not isinstance(single, str)]
        out[f"{name} (batch)"] = batch_outcomes(route, fields, row_fields, answered)
    for b, lo, hi, eps0, step in scans():
        out["scan_peaks (energy)" if eps0 is None else "scan_peaks (width)"].append(
            outcome(lambda: scan_peaks(b, lo, hi, eps0=eps0, coarse_step=step)))
    for b, lo, hi, _, step in (energy_scan(*v, lam0) for v in PLATEAU_POTENTIALS for lam0 in PLATEAU_LAMBDAS):
        out["scan_peaks (plateau)"].append(outcome(lambda: scan_peaks(b, lo, hi, coarse_step=step)))
    singles = [(eps, AdimensionalBarrier(vc, vq, theta, lam)) for eps, vc, vq, theta, lam in thick_exponentials()]
    for i, (eps, vc, vq, theta, lam) in enumerate(exponential_stacks()):
        cols = BarrierColumns(vc, vq, theta, lam)
        out["transfer_numeric"].append(outcome(lambda: exponential(eps, cols)))
        out["transfer_closed"].append(outcome(lambda: transfer_closed(wave_params(eps, cols), lam)))
        if i == 0:
            singles[:0] = [(float(eps[j]), cols.barrier(j)) for j in range(min(len(eps), EXPONENTIAL_SINGLES))]
    for eps, b in singles:
        out["transfer_numeric"].append(outcome(lambda: exponential(eps, b)))
        out["transfer_closed"].append(outcome(lambda: transfer_closed(wave_params(eps, b), b.lam)))
    for seed, n in SAMPLER_RUNS:
        out["sample_points"].append(outcome(lambda: sampled(sample_points(np.random.default_rng(seed), n))))
    for seed, n in VERIFY_RUNS:
        out["verify.run_all"].append(outcome(lambda: report_fields(run_all(seed, n))))
    for a, x in shc_arrays():
        out["shc (array)"].append(outcome(lambda: shc(a, x)))
    from qbarrier.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for argv in sweep_commands():
            out["sweep bytes"].append(outcome(lambda: command_bytes(main, argv, f"{tmp}/sweep")))
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
