"""One benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

must be started from the repository root with ``src`` on ``PYTHONPATH``.  It
prints one JSON object (metric values and bookkeeping) as its last line.

A run has four phases:

1. set-up: a fresh interpreter importing ``qbarrier.cli``, then input
   generation from the seed, each repeated and reported as a median;
2. one checked pass: every output is compared with an independent route;
3. timed passes for ``--seconds`` (half of it with ``--trace 1``), each
   output compared with the checked pass so every timed pass is checked;
4. with ``--trace 1``, traced passes with every layer wrapped (spans.py).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import qbarrier.cli as qcli
from qbarrier import closed_form, solver
from qbarrier import verify as qverify
from qbarrier.barrier import AdimensionalBarrier
from qbarrier.errors import QBarrierError

import reference
import spans

#: scratch directory for files the program is told to write and for traces
OUT_DIR = ".perfbench_out"
#: repetitions of each set-up step; set-up metrics are their medians
SETUP_REPEATS = 9
#: repetitions of each start-up step timed for the per-layer import metrics
IMPORT_REPEATS = 9
#: traced passes are capped so the in-memory span arrays stay small
MAX_TRACED_PASSES = 5
#: oracle bounds (verify.check_norm_conservation / transmission-cross use 1e-9)
AGREE_TOL = 1e-9
NORM_TOL = 1e-9
#: a resonance location must be no lower than the solver's |T|**2 this far away
PEAK_PROBE = 1e-4
SAMPLES_ABOVE_TAIL = 10
#: The reference kernel's size, and its wall time on the machine the baseline
#: was taken on (2-core Xeon, Python 3.11) when nothing else contends for it.
KERNEL_LOOP = 6000
KERNEL_SOLVES = 200
KERNEL_REF_S = 0.003
_KERNEL_MATRIX = np.eye(4) + 0.1
_KERNEL_RHS = np.ones(4)

SQRT2 = "1.41421356"
NAN_OR_INF = re.compile(r"(?i)(?<![a-z])[-+]?(nan|inf)(inity)?(?![a-z])")


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    latencies: list[float]  # wall seconds, one per command of the pass
    kernel: list[float]  # the reference kernel's seconds around each command
    output: object  # compared with the checked pass for determinism

    def add(self, wall: float, kernel: float) -> None:
        self.latencies.append(wall)
        self.kernel.append(kernel)

    def reference_latencies(self) -> list[float]:
        """Latencies scaled to the machine speed at which the kernel takes KERNEL_REF_S."""
        return [wall * KERNEL_REF_S / k for wall, k in zip(self.latencies, self.kernel)]


def reference_kernel() -> float:
    """Wall seconds of one run of a fixed kernel, a probe of the machine's current speed.

    Interpreted complex arithmetic plus small dense solves, the mix qbarrier's
    routes run; it calls nothing in qbarrier, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    acc = 0j
    for k in range(KERNEL_LOOP):
        acc += cmath.exp(complex(k * 1e-4, 0.5)) / (1.0 + k)
    for _ in range(KERNEL_SOLVES):
        np.linalg.solve(_KERNEL_MATRIX, _KERNEL_RHS)
    return time.perf_counter() - t0


def timed(command):
    """(value, wall seconds, reference-kernel seconds) of one command.

    The kernel runs right before and right after the command and the mean is
    kept, so a change of machine speed during the command weighs on both.
    """
    before = reference_kernel()
    t0 = time.perf_counter()
    value = command()
    wall = time.perf_counter() - t0
    return value, wall, (before + reference_kernel()) / 2.0


@dataclass
class Verdict:
    """Outcome of the checked pass, by operation."""

    attempted: int
    unit: str  # what an operation is, for failed_ratio
    failed: int = 0  # the program raised, refused, returned non-finite or exited wrongly
    incorrect: int = 0  # it finished, and the answer disagrees with the oracle
    #: correct points per pass: sweep rows and table values, samples, barrier points or commands
    points_ok: int = 0
    #: kind of problem -> [count, first example]
    problems: dict[str, list] = field(default_factory=dict)

    def note(self, kind: str, example: str = "", count: int = 1) -> None:
        self.problems.setdefault(kind, [0, example])[0] += count

    def notes(self) -> list[str]:
        return [f"{count} x {kind}" + (f"; first: {example}" if example else "")
                for kind, (count, example) in self.problems.items()]


def _jitter(rng, seed: int, exact: str, low: float, high: float) -> str:
    """The README value at seed 0, otherwise the value moved by U(low, high)."""
    if seed == 0:
        return exact
    return repr(float(exact) + float(rng.uniform(low, high)))


def _table_commands(rng, seed: int, scale: float, widths_path: str) -> list[list[str]]:
    """The README's four table-producing commands; grids coarsen as scale drops."""
    e_step = "0.001" if scale == 1.0 else repr(0.001 / scale)
    w_step = "0.003" if scale == 1.0 else repr(0.003 / scale)
    return [
        ["sweep", "--mode", "energy", "--fixed-pi", _jitter(rng, seed, "3", -0.05, 0.05),
         "--start", _jitter(rng, seed, "1.001", 0.0, 0.001), "--stop", "1.5", "--step", e_step],
        ["sweep", "--mode", "width", "--fixed", _jitter(rng, seed, SQRT2, -0.01, 0.01),
         "--start", _jitter(rng, seed, "3.14", 0.0, 0.003), "--stop", "14.5", "--step", w_step,
         "--potentials", "1,0;0,1", "--format", "json", "--out", widths_path],
        ["resonances", "--lambda-pi", _jitter(rng, seed, "3", -0.05, 0.05), "--potentials", "table"],
        ["resonances", "--eps0", _jitter(rng, seed, SQRT2, -0.01, 0.01), "--potentials", "table"],
    ]


def _flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _solver_t(eps: float, b: AdimensionalBarrier) -> complex:
    return solver.solve(eps, b).t


# ---------------------------------------------------------------- paper-tables

class PaperTables:
    """The README table commands, in-process through qbarrier.cli.main."""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.widths_path = os.path.join(OUT_DIR, f"widths-{os.getpid()}.json")
        self.commands = _table_commands(np.random.default_rng(seed), seed, scale, self.widths_path)

    def run_pass(self, traced: bool = False) -> Pass:
        one = Pass([], [], [])
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            rc, wall, kernel = timed(lambda: self._main(argv, out, err))
            one.add(wall, kernel)
            one.output.append((rc, out.getvalue(), err.getvalue()))
        with open(self.widths_path, encoding="utf-8") as fh:
            one.output.append(fh.read())
        return one

    @staticmethod
    def _main(argv, out, err):
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return qcli.main(argv)
        except Exception as exc:  # an uncaught error is an outcome to record
            return f"uncaught {type(exc).__name__}: {exc}"

    def check(self, first: Pass) -> Verdict:
        (e_rc, e_csv, _), (w_rc, _, _), (r1_rc, r1_text, _), (r2_rc, r2_text, _), w_json = first.output
        v = Verdict(attempted=0, unit="points")
        # sweep rows: closed-form T as printed vs the 8x8 solve
        energy, width, res_energy, res_width = self.commands
        if e_rc == 0:
            lam = _flag(energy, "--fixed-pi") * math.pi
            rows = [line.split(",") for line in e_csv.splitlines() if not line.startswith("#")]
            for row in rows[1:]:
                eps, vc, vq = (float(x) for x in row[:3])
                vc, vq = reference.nearest_potential(vc, vq)
                self._check_row(v, eps, AdimensionalBarrier(vc, vq, 0.0, lam),
                                complex(float(row[4]), float(row[5])))
        else:
            v.attempted += 1
            v.failed += 1
            v.note(f"energy sweep exited {e_rc}")
        if w_rc == 0:
            eps = _flag(width, "--fixed")
            for lam, vc, vq, _, re_t, im_t, _ in json.loads(w_json)["rows"]:
                self._check_row(v, eps, AdimensionalBarrier(vc, vq, 0.0, lam), complex(re_t, im_t))
        else:
            v.attempted += 1
            v.failed += 1
            v.note(f"width sweep exited {w_rc}")
        # resonance tables: the text, the unrounded JSON values and the solver
        for argv, rc, text, tag in ((res_energy, r1_rc, r1_text, "energy"),
                                    (res_width, r2_rc, r2_text, "width")):
            self._check_table(v, argv, rc, text, tag)
        v.points_ok = v.attempted - v.failed - v.incorrect
        return v

    @staticmethod
    def _check_row(v: Verdict, eps: float, b: AdimensionalBarrier, t: complex) -> None:
        v.attempted += 1
        if not cmath.isfinite(t):
            v.failed += 1
            v.note("sweep row with non-finite T", f"eps={eps!r}, lam={b.lam!r}")
            return
        gap = abs(t - _solver_t(eps, b))
        if gap > AGREE_TOL:
            v.incorrect += 1
            v.note("sweep row T disagrees with the solver", f"eps={eps!r}, lam={b.lam!r}: {gap:.2e}")

    def _check_table(self, v: Verdict, argv, rc, text: str, tag: str) -> None:
        if rc != 0:
            v.attempted += 1
            v.failed += 1
            v.note(f"{' '.join(argv)} exited {rc}")
            return
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            qcli.main(argv + ["--format", "json"])
        rows = json.loads(out.getvalue())["rows"]
        printed = [line.split()[2:] for line in text.splitlines()[1:]]
        if tag == "energy":
            lam = _flag(argv, "--lambda-pi") * math.pi

            def prob(x, vc, vq):
                return abs(_solver_t(x, AdimensionalBarrier(vc, vq, 0.0, lam))) ** 2
        else:
            eps0 = _flag(argv, "--eps0")

            def prob(x, vc, vq):
                return abs(_solver_t(eps0, AdimensionalBarrier(vc, vq, 0.0, x * math.pi))) ** 2

        wanted = reference.TABLES[tag] if self.seed == 0 else None
        for i, row in enumerate(rows):
            values = row["values"]
            v.attempted += len(values)
            bad = []
            if [f"{x:.3f}" for x in values] != printed[i]:
                bad.append(f"text {printed[i]} does not round the values {values}")
            for x in (values[0], values[1], values[3]):  # locations; the rest are spacings
                here = prob(x, row["vc"], row["vq"])
                if here < prob(x - PEAK_PROBE, row["vc"], row["vq"]) or \
                        here < prob(x + PEAK_PROBE, row["vc"], row["vq"]):
                    bad.append(f"{x!r} is not a local maximum of the solver's |T|^2")
            if wanted is not None:
                worst = max(abs(a - b) for a, b in zip(values, wanted[i]))
                if worst > reference.PRINT_ULP:
                    bad.append(f"{worst:.2e} from the reference row {wanted[i]}")
            if bad:
                v.incorrect += len(values)
                v.note(f"{tag} table row fails its checks", f"({row['vc']:.3f}, {row['vq']:.3f}): " + "; ".join(bad))

    def cleanup(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.widths_path)


# ---------------------------------------------------------------- cross-check

class CrossCheck:
    """qbarrier.verify.run_all over 500 seeded samples, as five commands of 100.

    Five `verify --samples 100` runs do the work of one of 500 (the check
    classes draw the same shares of the samples) and give the latency
    statistics five samples per pass instead of one.
    """

    SAMPLES = 500
    COMMANDS = 5

    def __init__(self, seed: int, scale: float):
        rng = np.random.default_rng(seed)
        self.verify_seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=self.COMMANDS)]
        self.samples = max(5, round(self.SAMPLES * scale / self.COMMANDS))

    def run_pass(self, traced: bool = False) -> Pass:
        one = Pass([], [], [])
        for verify_seed in self.verify_seeds:
            reports, wall, kernel = timed(lambda: qverify.run_all(verify_seed, self.samples))
            one.add(wall, kernel)
            one.output.append([(r.name, r.passed, r.worst, r.samples) for r in reports])
        return one

    def check(self, first: Pass) -> Verdict:
        classes = {}  # a class fails if any of the commands fails it
        for verify_seed, reports in zip(self.verify_seeds, first.output):
            if len(reports) != 5:
                classes[f"run_all({verify_seed})"] = f"{len(reports)} check classes, expected 5"
            for name, passed, worst, samples in reports:
                if not passed:
                    classes[name] = f"seed {verify_seed}: worst={worst:.3e} over {samples} samples"
                else:
                    classes.setdefault(name, None)
        v = Verdict(attempted=len(classes), unit="check classes")
        for name, problem in classes.items():
            if problem:
                v.incorrect += 1
                v.note(f"check class {name} failed", problem)
        v.points_ok = self.samples * self.COMMANDS * (v.attempted - v.incorrect) // v.attempted
        return v

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------- thick-barrier

def _outcome(call, *args):
    """(status, value) of one library call: ok, typed or uncaught."""
    try:
        return "ok", call(*args)
    except QBarrierError as exc:
        return f"typed {type(exc).__name__}", None
    except Exception as exc:  # the defect this workload exists to count
        return f"uncaught {type(exc).__name__}", None


class ThickBarrier:
    """Seeded (eps, vc, theta, lam) points with lam in [10, 1000], closed form and solve."""

    POINTS = 4000
    BATCH = 100
    EPS_RANGE = (0.2, 3.0)
    LAM_RANGE = (10.0, 1000.0)
    DEGENERACY_BAND = 1e-6  # as qbarrier.verify.sample_points

    def __init__(self, seed: int, scale: float):
        rng = np.random.default_rng(seed)
        self.points = []
        while len(self.points) < max(10, round(self.POINTS * scale)):
            eps = float(rng.uniform(*self.EPS_RANGE))
            vc = float(rng.uniform(0.0, 1.0))
            vq = math.sqrt(max(0.0, 1.0 - vc * vc))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            lam = float(rng.uniform(*self.LAM_RANGE))
            if abs(eps**4 - vq**2) >= self.DEGENERACY_BAND:
                self.points.append((eps, vc, vq, theta, lam))

    def run_pass(self, traced: bool = False) -> Pass:
        """Each batch of points is one command, a user's batch as a sweep is.

        A batch lasts milliseconds, shorter than the reference kernel, so the
        kernel brackets the whole pass and scales every batch of it.
        """
        (outputs, walls), _, kernel = timed(self._evaluate_all)
        # repr makes NaN results comparable between passes
        return Pass(walls, [kernel] * len(walls),
                    repr([(c[0], c[1] and c[1].t, d[0], d[1] and (d[1].r, d[1].t)) for c, d in outputs]))

    def _evaluate_all(self):
        outputs, walls = [], []
        for i in range(0, len(self.points), self.BATCH):
            t0 = time.perf_counter()
            for eps, vc, vq, theta, lam in self.points[i:i + self.BATCH]:
                b = AdimensionalBarrier(vc, vq, theta, lam)
                outputs.append((_outcome(closed_form.transmission, eps, b), _outcome(solver.solve, eps, b)))
            walls.append(time.perf_counter() - t0)
        return outputs, walls

    def check(self, first: Pass) -> Verdict:
        v = Verdict(attempted=len(self.points), unit="barrier points")
        # re-evaluate once, untimed, to keep the result objects
        for eps, vc, vq, theta, lam in self.points:
            b = AdimensionalBarrier(vc, vq, theta, lam)
            (c_status, closed), (s_status, direct) = (_outcome(closed_form.transmission, eps, b),
                                                      _outcome(solver.solve, eps, b))
            where = f"eps={eps!r}, vc={vc!r}, theta={theta!r}, lam={lam!r}"
            if c_status != "ok" or s_status != "ok":
                v.failed += 1
                v.note(f"transmission {c_status}, solve {s_status}", where)
                continue
            t, r, t_solve = closed.t, direct.r, direct.t
            if not all(cmath.isfinite(z) for z in (t, r, t_solve)):
                v.failed += 1
                v.note("non-finite amplitude", f"{where}: T={t!r}, T_solve={t_solve!r}, R={r!r}")
                continue
            gap, defect = abs(t - t_solve), abs(1.0 - abs(r) ** 2 - abs(t_solve) ** 2)
            if gap > AGREE_TOL or defect > NORM_TOL:
                v.incorrect += 1
                v.note("finite amplitudes off the oracle", f"{where}: |T - T_solve| = {gap:.2e}, "
                       f"1-|R|^2-|T|^2 = {defect:.2e}")
        v.points_ok = v.attempted - v.failed - v.incorrect
        return v

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------- cli-cold

class CliCold:
    """Each README command except verify, plus probes, as fresh CLI processes."""

    def __init__(self, seed: int, scale: float):
        rng = np.random.default_rng(seed)
        self.widths_path = os.path.join(OUT_DIR, f"widths-{os.getpid()}.json")
        j = lambda exact, low, high: _jitter(rng, seed, exact, low, high)  # noqa: E731
        readme = [
            ["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", j("1.2", -0.05, 0.05),
             "--lambda", j("3", -0.1, 0.1)],
            ["point", "--physical", "1", "0", "0", j("9.42477796", -0.01, 0.01), "1", "1",
             j("2", -0.05, 0.05)],
            *_table_commands(rng, seed, scale, self.widths_path),
            ["critical", "--case", "q", "--lambda", j("2", -0.1, 0.1), "--theta", j("0.4", -0.1, 0.1)],
            ["critical", "--case", "c", "--lambda", j("0.1", -0.01, 0.01), "--series"],
        ]
        # (argv, documented exit code); the last four are fixed probes
        self.commands = [(argv, 0) for argv in readme] + [
            (["point", "--vc", "0", "--vq", "1", "--eps", "1.2", "--lambda", "800"], 0),
            (["point", "--vc", "0", "--vq", "1", "--eps", "0.5", "--lambda", "800"], 0),
            (["point", "--vc", "0.6", "--vq", "0.6", "--eps", "1.2", "--lambda", "3"], 2),
            (["point", "--vc", "0", "--vq", "1", "--eps", "1", "--lambda", "3"], 3),
        ]
        self.span_files: list[str] = []

    def run_pass(self, traced: bool = False) -> Pass:
        one = Pass([], [], [])
        for argv, _ in self.commands:
            if traced:
                span_file = os.path.join(OUT_DIR, f"trace-cli-cold-{len(self.span_files)}.npz")
                self.span_files.append(span_file)
                cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"), span_file]
            else:
                cmd = [sys.executable, "-m", "qbarrier.cli"]
            # no timeout: with one, the wait polls in steps of up to 50 ms (run.py bounds the run)
            proc, wall, kernel = timed(lambda: subprocess.run(cmd + argv, capture_output=True, text=True))
            one.add(wall, kernel)
            written = ""
            if "--out" in argv and os.path.exists(self.widths_path):
                with open(self.widths_path, encoding="utf-8") as fh:
                    written = fh.read()
            one.output.append((proc.returncode, proc.stdout, "Traceback" in proc.stderr, written))
        return one

    def check(self, first: Pass) -> Verdict:
        v = Verdict(attempted=len(self.commands), unit="commands")
        for (argv, expected), (rc, stdout, traceback, _) in zip(self.commands, first.output):
            problems = []
            if rc != expected:
                problems.append(f"exit {rc}, documented {expected}")
            if traceback:
                problems.append("traceback on stderr")
            if NAN_OR_INF.search(stdout):
                problems.append("nan/inf in stdout")
            if problems:
                v.failed += 1
                v.note(f"qbarrier {' '.join(argv)}: " + ", ".join(problems))
        v.points_ok = v.attempted - v.failed
        return v

    def cleanup(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.widths_path)


WORKLOADS = {
    "paper-tables": PaperTables,
    "cross-check": CrossCheck,
    "cli-cold": CliCold,
    "thick-barrier": ThickBarrier,
}


# ---------------------------------------------------------------- measurement

def _spawn(code: str) -> None:
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms (run.py bounds the run)
    subprocess.run([sys.executable, "-c", code], check=True)


def import_seconds(*codes: str, repeats: int = IMPORT_REPEATS) -> list[float]:
    """Median wall time of a fresh interpreter running each of `codes`.

    The codes take turns, so a change in machine load shifts them alike.
    """
    runs = [[timed(lambda: _spawn(code))[1] for code in codes] for _ in range(repeats)]
    return [statistics.median(column) for column in zip(*runs)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples above it.

    Below 21 samples that percentile would not lie above the median, and the
    maximum is given instead (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * SAMPLES_ABOVE_TAIL:
        return xs[-1], 100.0
    return xs[n - SAMPLES_ABOVE_TAIL - 1], 100.0 * (n - SAMPLES_ABOVE_TAIL) / n


def timed_passes(workload, first: Pass, seconds: float, traced: bool = False,
                 tracer: spans.Tracer | None = None, max_passes: int | None = None):
    """Passes until `seconds` have gone by (at least one); counts those that differ from `first`."""
    passes, differing = [], 0
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter() < deadline
                         and (max_passes is None or len(passes) < max_passes)):
        root = tracer.open(spans.ROOT) if tracer else None
        one = workload.run_pass(traced)
        if tracer:
            tracer.close(root)
        differing += one.output != first.output
        one.output = None  # compared; keeping it would grow memory with the pass count
        passes.append(one)
    return passes, differing


def layer_metrics(per_name: dict[str, tuple[int, float]], counters: dict[str, float],
                  passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from (calls, self seconds) by span name."""
    out = {}
    calls = lambda n: per_name.get(n, (0, 0.0))[0] / passes  # noqa: E731
    self_s = lambda n: per_name.get(n, (0, 0.0))[1] / passes  # noqa: E731
    for module, func in spans.LAYERS:
        name = f"{module}.{func}"
        if module == "verify":
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.worst"] = counters.get(f"{name}.worst", 0.0)
        elif module != "critical":
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
    critical = [f"critical.{f}" for m, f in spans.LAYERS if m == "critical"]
    out["critical.calls"] = sum(calls(n) for n in critical)
    out["critical.self_s"] = sum(self_s(n) for n in critical)
    for name in spans.CLASSIFIED:
        for kind in ("typed_errors", "uncaught", "nonfinite"):
            out[f"{name}.{kind}"] = counters.get(f"{name}.{kind}", 0) / passes
    out[f"{spans.ROOT}.self_s"] = self_s(spans.ROOT)
    return out


def machine_facts() -> dict:
    """Core count, CPU, Python, numpy, its BLAS build and the BLAS thread count."""
    import ctypes
    import glob
    import platform

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Set up, check, time and (with `trace`) trace one workload; every figure in a dict.

    Timed figures come twice: as wall time (``*_wall``) and scaled to the
    reference machine speed (see `Pass.reference_latencies`), which the
    end-to-end metrics report.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    imports, inputs = Pass([], [], None), Pass([], [], None)
    for _ in range(SETUP_REPEATS):
        imports.add(*timed(lambda: _spawn("import qbarrier.cli"))[1:])
        workload, wall, kernel = timed(lambda: WORKLOADS[name](seed, scale))
        inputs.add(wall, kernel)
    result = {
        "setup_s": sum(statistics.median(p.reference_latencies()) for p in (imports, inputs)),
        "setup_s_wall": sum(statistics.median(p.latencies) for p in (imports, inputs)),
        "machine": machine_facts(),
    }
    try:
        first = workload.run_pass()
        verdict = workload.check(first)
        window = seconds / 2 if trace else seconds
        passes, differing = timed_passes(workload, first, window)
        if differing:
            verdict.incorrect += differing
            verdict.note("timed pass with other outputs than the checked pass", count=differing)
        # a pass runs the same commands in the same order; each command's
        # latency is its median over the passes
        for suffix, by_pass in (("", [p.reference_latencies() for p in passes]),
                                ("_wall", [p.latencies for p in passes])):
            by_pass = np.array(by_pass)
            latencies = np.median(by_pass, axis=0).tolist()
            result[f"points_per_s{suffix}"] = verdict.points_ok * len(passes) / by_pass.sum()
            result[f"cmd_p50_s{suffix}"] = statistics.median(latencies)
            result[f"cmd_tail_s{suffix}"], percentile = tail(latencies)
        result.update(
            passes=len(passes),
            kernel_s=statistics.median(k for p in passes for k in p.kernel),
            cmd_tail_percentile=percentile,
            cmd_samples=len(latencies),
            ok_ratio=(verdict.attempted - verdict.failed - verdict.incorrect) / verdict.attempted,
            attempted=verdict.attempted,
            failed=verdict.failed + verdict.incorrect,
            incorrect=verdict.incorrect,
            failed_unit=verdict.unit,
            correct=verdict.incorrect == 0,
            notes=verdict.notes(),
        )
        if trace:
            result["layers"], differing = traced_layers(name, workload, first, window, passes)
            if differing:
                result["incorrect"] += differing
                result["failed"] += differing
                result["correct"] = False
                result["notes"].append(f"{differing} traced passes gave other outputs than the checked pass")
    finally:
        workload.cleanup()
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB
    return result


def traced_layers(name: str, workload, first: Pass, window: float, untraced: list[Pass]):
    """Per-layer metrics from traced passes, and how many traced passes changed an output."""
    interp, numpy_, qbarrier_ = import_seconds("pass", "import numpy", "import qbarrier.cli")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, differing = timed_passes(workload, first, window, traced=True, tracer=tracer,
                                         max_passes=MAX_TRACED_PASSES)
    finally:
        tracer.uninstall()
    if isinstance(workload, CliCold):
        per_name, counters = merge_span_files(workload.span_files)
    else:
        arrays = tracer.arrays()
        per_name, counters = spans.self_times(tracer.names, *arrays), dict(tracer.counters)
        counters["transmission_in_scans"] = spans.calls_under(
            tracer.names, arrays[0], arrays[1], "closed_form.transmission", "resonance.scan_peaks")
        tracer.save(os.path.join(OUT_DIR, f"trace-{name}.npz"))
    layers = layer_metrics(per_name, counters, len(traced))
    grid = counters.get("resonance.scan_peaks.grid_points", 0)
    layers["resonance.evals_per_grid_point"] = counters.get("transmission_in_scans", 0) / grid if grid else 0.0
    layers["cli.interp_start_s"] = interp
    layers["cli.numpy_import_s"] = numpy_ - interp
    layers["cli.qbarrier_import_s"] = qbarrier_ - numpy_
    layers["perfbench.trace_overhead_ratio"] = (
        statistics.median(sum(p.reference_latencies()) for p in traced)
        / statistics.median(sum(p.reference_latencies()) for p in untraced) - 1.0)
    return layers, differing


def merge_span_files(paths: list[str]) -> tuple[dict[str, tuple[int, float]], dict[str, float]]:
    """Sum calls and self time over the span files the traced CLI processes wrote."""
    per_name: dict[str, tuple[int, float]] = {}
    counters: dict[str, float] = {}
    for path in paths:
        with np.load(path) as data:
            names = data["names"].tolist()
            found = spans.self_times(names, data["name_id"], data["parent"], data["start"], data["end"])
            counters["transmission_in_scans"] = counters.get("transmission_in_scans", 0) + spans.calls_under(
                names, data["name_id"], data["parent"], "closed_form.transmission", "resonance.scan_peaks")
            for key, value in zip(data["counter_keys"].tolist(), data["counter_values"].tolist()):
                if key.endswith(".worst"):
                    counters[key] = max(counters.get(key, value), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        for name, (calls, own) in found.items():
            before = per_name.get(name, (0, 0.0))
            per_name[name] = (before[0] + calls, before[1] + own)
    return per_name, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's (tests use small values)")
    args = parser.parse_args(argv)
    # One CPU for this process and every process it starts, so the reference
    # kernel probes the CPU the commands ran on (CLI processes included).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
