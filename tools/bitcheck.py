"""Compare the numbers of this checkout's src/ with those of another source tree, bit for bit.

Runs a fixed seeded set of 20,000 points through `solve` (its eight
amplitudes), `transmission` (t) and, on the first points, `transmission_grid`
over an energy grid and a width grid.  Each source tree is evaluated in its
own subprocess.  Results are compared as uint64 words, and a raised
exception by its type and message.  Prints one count line per function and
exits 1 on any difference.

    python3 tools/bitcheck.py PARENT_SRC

PARENT_SRC is the src/ directory of another checkout, for example of the
parent commit unpacked with `git archive HEAD~1 | tar -x -C DIR` (then
DIR/src).  The points mix wells and barriers over the whole unit circle,
theta = 0 and theta != 0, eps in {1, 1 +- 1e-7, U(0.05, 3)} and lam in
{0, U(0, 1e-6), U(0, 20), U(20, 400)}.
"""

import operator
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

SEED = 20_000
POINTS = 20_000
GRID_POINTS = 40  # points that also get an energy and a width grid
ENERGY_AXIS = 0.05 + 0.01 * np.arange(296)  # eps from 0.05 to 3.0
WIDTH_AXIS = 0.05 * np.arange(1001)  # lam from 0 to 50
#: the eight amplitudes of a `solve` result
amplitudes = operator.attrgetter("r", "rt", "t", "tt", "a", "b", "at", "bt")


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


def outcome(fn):
    """The bytes of fn()'s complex result, or the type and message of what it raised."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - every outcome is compared, errors too
        return f"{type(exc).__name__}: {exc}"
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.uint64).tobytes()


def evaluate(src):
    """Every outcome of the point set under the qbarrier package in src."""
    sys.path.insert(0, src)
    import qbarrier

    if Path(qbarrier.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"qbarrier imported from {qbarrier.__file__}, not from {src}")
    from qbarrier import AdimensionalBarrier, solve, transmission, transmission_grid

    warnings.simplefilter("ignore")
    out = {"solve": [], "transmission": [], "transmission_grid": []}
    for i, (eps, vc, vq, theta, lam) in enumerate(points()):
        b = AdimensionalBarrier(vc, vq, theta, lam)
        out["solve"].append(outcome(lambda: amplitudes(solve(eps, b))))
        out["transmission"].append(outcome(lambda: transmission(eps, b).t))
        if i < GRID_POINTS:
            out["transmission_grid"].append(outcome(lambda: transmission_grid(ENERGY_AXIS, lam, b)))
            out["transmission_grid"].append(outcome(lambda: transmission_grid(eps, WIDTH_AXIS, b)))
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
