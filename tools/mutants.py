"""Run a fixed catalogue of mutants of src/ against the tests in tests/ and report the survivors.

Each mutant is a (file, old, new) triple: old must occur exactly once in
the file, so the catalogue breaks loudly when the code moves.  Every
mutant's text is checked before any runs, and the tests must pass on an
unmutated copy.  Each mutant is then made in a fresh copy of the tree in
a temporary directory, and `python -m pytest -x` runs there with that
copy's src/ on the import path, less the test of this catalogue's own
precondition (`PRECONDITION`), which a mutated copy breaks by design.  A
mutant the tests pass survives; one that makes them fail (or not even
collect) is killed.  Prints one line per mutant and the survivor count;
exits 1 if any mutant survives, 2 if a triple does not match once or the
unmutated copy fails.

    python3 tools/mutants.py [NAME ...]

With names, only those mutants run.  Too slow for the test suite itself:
a killed mutant takes a few seconds, a survivor the whole suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: run_sweep's columns and the slicing of its batch, potential-major
SWEEP_ORDER = '''np.repeat(np.array([(b.vc, b.vq, b.theta) for b in potentials]).T, len(axis), axis=1)
    swept = np.tile(axis, len(potentials))
    eps, lam = (swept, fixed) if mode == "energy" else (np.full(swept.shape, fixed), swept)
    t = transmission(eps, BarrierColumns(vc, vq, theta, lam)).reshape(len(potentials), len(axis))'''
#: the same, grid-major: the same values, evaluated in another order
GRID_MAJOR = '''np.tile(np.array([(b.vc, b.vq, b.theta) for b in potentials]).T, len(axis))
    swept = np.repeat(axis, len(potentials))
    eps, lam = (swept, fixed) if mode == "energy" else (np.full(swept.shape, fixed), swept)
    t = transmission(eps, BarrierColumns(vc, vq, theta, lam)).reshape(len(axis), len(potentials)).T'''

#: name -> (file under the root, text it holds once, its replacement)
MUTANTS = {
    # verify's bounds: a check class must fail just past its own bound
    "norm-conservation bound 1e-9 -> 1e-3": (
        "src/qbarrier/verify.py", '"norm-conservation", worst < 1e-9', '"norm-conservation", worst < 1e-3'),
    "theta-invariance bound 1e-12 -> 1e-6": (
        "src/qbarrier/verify.py", '"theta-invariance", worst < 1e-12', '"theta-invariance", worst < 1e-6'),
    "transfer-agreement bound 1e-10 -> 1e-4": (
        "src/qbarrier/verify.py", '"transfer-agreement", worst < 1e-10', '"transfer-agreement", worst < 1e-4'),
    "verify DEGENERACY_BAND 1e-6 -> 1e-8": (
        "src/qbarrier/verify.py", "DEGENERACY_BAND = 1e-6", "DEGENERACY_BAND = 1e-8"),
    # the prominence rule and the energy refinement
    "PEAK_FLOOR 64 -> 512": ("src/qbarrier/resonance.py", "PEAK_FLOOR = 64", "PEAK_FLOOR = 512"),
    "PEAK_FLOOR 64 -> 8": ("src/qbarrier/resonance.py", "PEAK_FLOOR = 64", "PEAK_FLOOR = 8"),
    "REFINE_TOL 1e-6 -> 1e-4": ("src/qbarrier/resonance.py", "REFINE_TOL = 1e-6", "REFINE_TOL = 1e-4"),
    # the oracle's refusal and the singular-point rule
    "oracle _REACH x4": (
        "src/qbarrier/ode_oracle.py", "_REACH = (1e-9 - 1e-11)", "_REACH = 4 * (1e-9 - 1e-11)"),
    "oracle refusal names the batch's first width": (
        "src/qbarrier/ode_oracle.py", "float(cols.lam[first])", "float(cols.lam[0])"),
    "oracle reach comparison one ulp loose": (
        "src/qbarrier/ode_oracle.py", "(cols.lam <= _REACH / np.maximum(eps_all, 1.0))",
        "(cols.lam <= _REACH / np.maximum(eps_all, 1.0) * (1.0 + 2.0**-52))"),
    "DEGENERACY_TOL 1e-10 -> 1e-12": (
        "src/qbarrier/barrier.py", "DEGENERACY_TOL = 1e-10", "DEGENERACY_TOL = 1e-12"),
    "float band rule on the side eps**4 >= vq**2 only": (
        "src/qbarrier/barrier.py", "if xp is cmath and abs(disc) <= DEGENERACY_TOL:",
        "if xp is cmath and 0.0 <= disc <= DEGENERACY_TOL:"),
    "array band mask on the side eps**4 >= vq**2 only": (
        "src/qbarrier/barrier.py", "(abs(disc) > DEGENERACY_TOL)", "((disc > DEGENERACY_TOL) | (disc < 0.0))"),
    # the least eps whose eps**4 overflows is refused, on both paths
    "float eps limit admits 2**256": ("src/qbarrier/barrier.py", "if not eps < EPS_LIMIT:", "if not eps <= EPS_LIMIT:"),
    "array eps limit admits 2**256": ("src/qbarrier/barrier.py", "(eps < EPS_LIMIT)", "(eps <= EPS_LIMIT)"),
    "sign of theta in beta": (
        "src/qbarrier/barrier.py", "beta=1j * b.vq * exp(1j * b.theta)", "beta=1j * b.vq * exp(-1j * b.theta)"),
    # the closed form's one replay of non-finite points.  Replaying NaN only survives, and is taken
    # to be equivalent: no T of the batch has come out infinite without a NaN part (200,000 points
    # at eps from 1e-320 to 1e160 and lam up to 1e308 gave none), since |T| <= 1 keeps |D| >= 2
    "closed-form replay of NaN only": (
        "src/qbarrier/closed_form.py", "np.flatnonzero(~np.isfinite(t))", "np.flatnonzero(np.isnan(t))"),
    "closed-form replay skipped": (
        "src/qbarrier/closed_form.py", "for i in np.flatnonzero(~np.isfinite(t)).tolist():", "for i in []:"),
    # a sweep's one batch, potential-major
    "run_sweep grid-major": ("src/qbarrier/cli.py", SWEEP_ORDER, GRID_MAJOR),
    # the CLI's exit codes for a singular continuity system, a degenerate point and an unwritable output
    "cli exit 5 -> 2": ("src/qbarrier/cli.py", "return 5", "return 2"),
    "cli exit 3 -> 2": ("src/qbarrier/cli.py", "return 3 if isinstance", "return 2 if isinstance"),
    "cli exit 4 -> 2": ("src/qbarrier/cli.py", "return 4", "return 2"),
    # solve's parity split, and its refusals where a division is by 0 or the point is beyond reach
    "solve lets ZeroDivisionError through": (
        "src/qbarrier/solver.py", "except ZeroDivisionError:", "except ValueError:"),
    "solve cosh-pair combination sign": ("src/qbarrier/solver.py", "ie * cm - dm", "ie * cm + dm"),
    "solve reach guard dropped": (
        "src/qbarrier/solver.py", "if max(eps, min(1.0, b.lam)) >= sys.float_info.min:", "if True:"),
    "solve batch reach mask dropped": (
        "src/qbarrier/solver.py", " | ~(np.maximum(eps, np.minimum(1.0, b.lam)) >= sys.float_info.min)", ""),
    # a batch's length check
    "batch length check skipped": (
        "src/qbarrier/barrier.py", "if np.ndim(c) and np.shape(c) != eps.shape:", "if False:"),
    "batch 1-d check skipped": ("src/qbarrier/barrier.py", "if eps.ndim != 1:", "if False:"),
    # the closed form in blocks: the replay after the blocks must see every block
    "closed-form replay of the first block only": (
        "src/qbarrier/closed_form.py", "np.flatnonzero(~np.isfinite(t))",
        "np.flatnonzero(~np.isfinite(t[:blocks(len(eps), 64)[0].stop]))"),
    # the array shc sums its series only where an element is below the switch
    "shc series guard negated": ("src/qbarrier/barrier.py", "if small.any():", "if not small.any():"),
    # the sweep writers' pieces: each but the first starts with the row separator
    "writer piece separator dropped": ("src/qbarrier/cli.py", "lead = sep", 'lead = ""'),
    # the split system's block K, built once for both transfer_numeric and the oracle
    "K psi entry with -eps**2": ("src/qbarrier/transfer.py", "k[1, 1] = b.vc + eps * eps", "k[1, 1] = b.vc - eps * eps"),
    "K phi-psi coupling with exp(-i*theta)": (
        "src/qbarrier/transfer.py", "k[0, 1] = 1j * b.vq * exp(1j * b.theta)", "k[0, 1] = 1j * b.vq * exp(-1j * b.theta)"),
    "transfer_numeric eps check dropped": (
        "src/qbarrier/transfer.py", 'require_finite("eps", eps, 0.0, strict=True)', "pass"),
    # the one squaring order of transfer_numeric and the oracle: descending, so each round works on a prefix
    "squaring order ascending": (
        "src/qbarrier/transfer.py", 'order = np.argsort(-s, kind="stable")', 'order = np.argsort(s, kind="stable")'),
    # the segment blocks (C, S, K@S) and their scaling rule
    "segment S sign": ("src/qbarrier/transfer.py", "y[1] = -h * series[1]", "y[1] = h * series[1]"),
    "scaling rule on the least column": (
        "src/qbarrier/transfer.py", "np.abs(k).sum(axis=0).max(axis=0)", "np.abs(k).sum(axis=0).min(axis=0)"),
    "transfer_numeric squares s >= i": (
        "src/qbarrier/transfer.py", "z = y[..., :np.count_nonzero(s > i)]", "z = y[..., :np.count_nonzero(s >= i)]"),
    # the oracle's scattering matrices, star squares and far-zone phases
    "scattering sign of u": ("src/qbarrier/ode_oracle.py", "u = (0.5j * k)", "u = (-0.5j * k)"),
    "star square without + _EYE": ("src/qbarrier/ode_oracle.py", "p[1, 1] += _EYE", "p[1, 1] += 0.0"),
    "2x2 inverse without a negated entry": (
        "src/qbarrier/ode_oracle.py", "np.negative(out[1, 0], out=out[1, 0])", "pass"),
    "oracle star-squares s >= i": (
        "src/qbarrier/ode_oracle.py", "_square(z[..., :np.count_nonzero(s > i)])",
        "_square(z[..., :np.count_nonzero(s >= i)])"),
    "oracle phase of t": (
        "src/qbarrier/ode_oracle.py", "tau * cmath.exp(-1j * e * lam)", "tau * cmath.exp(1j * e * lam)"),
}


#: the tier-1 test that each triple's text occurs once, deselected in the copies
PRECONDITION = "tests/test_mutants.py::test_each_mutant_text_occurs_once_in_its_file"

#: what the copy leaves out: git's store and what building, testing and benchmarking leave behind
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out")


def tests_pass(mutant: tuple[str, str, str] | None) -> tuple[bool, str]:
    """Whether the tests pass on a copy of the tree with mutant (file, old, new) made, and pytest's summary."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if mutant is not None:
            file, old, new = mutant
            path = tree / file
            path.write_text(path.read_text().replace(old, new))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--deselect", PRECONDITION],
                              cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else "no output"


def main() -> int:
    names = sys.argv[1:] or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    misplaced = []
    for name in names:
        file, old, _ = MUTANTS[name]
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            misplaced.append(f"{name}: {file} holds its text {count} times, not once")
    if misplaced:
        print("\n".join(misplaced), file=sys.stderr)
        return 2
    passed, summary = tests_pass(None)
    print(f"unmutated: {summary}", flush=True)
    if not passed:
        return 2
    survivors = []
    for name in names:
        survived, summary = tests_pass(MUTANTS[name])
        print(f"{name}: {'SURVIVED' if survived else 'killed'} ({summary})", flush=True)
        if survived:
            survivors.append(name)
    print(f"{len(survivors)} of {len(names)} mutants survived" + "".join(f"\n  {name}" for name in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
