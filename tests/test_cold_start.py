"""Cold start: a fresh `python -m qbarrier.cli` runs only the modules its command uses.

`import qbarrier` runs `barrier` and `errors`; every route module, and
numpy and json, is put in sys.modules unloaded (`barrier._lazy_module`)
and runs on its first attribute read.  A LazyLoader module turns into a
plain `types.ModuleType` when it loads, so its type tells whether its
code has run without triggering the load.  The in-process suite cannot
see this, since everything is loaded there before qbarrier; the loader's
cold branch is checked here on a module of the test's own.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbarrier import barrier, cli

SRC = Path(__file__).resolve().parent.parent / "src"
#: the package's modules but cli, which a `-m` run executes as __main__: all are in sys.modules after any command,
#: as perfbench's tracer needs, whether or not they have run
MODULES = {f"qbarrier.{path.stem}" for path in (SRC / "qbarrier").glob("*.py")} - {"qbarrier.__init__", "qbarrier.cli"}
#: the modules a scalar command runs, besides cli: `critical` adds its own module, and a JSON output json
SCALAR_RUNS = {"qbarrier", "qbarrier.errors", "qbarrier.barrier", "qbarrier.closed_form", "qbarrier.solver"}
POINT = ["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", "1.2", "--lambda", "3"]

#: commands that build no array, with their exit codes: README points, threshold amplitudes and
#: the invalid (exit 2) and degenerate (exit 3) point probes
SCALAR_COMMANDS = [
    (POINT, 0),
    (POINT + ["--format", "json"], 0),
    (["point", "--physical", "1", "0", "0", "9.42477796", "1", "1", "2"], 0),
    (["critical", "--case", "q", "--lambda", "2", "--theta", "0.4", "--series"], 0),
    (["critical", "--case", "c", "--lambda", "0.1", "--series"], 0),
    (["critical", "--case", "q", "--lambda", "2", "--format", "json"], 0),
    (["point", "--vc", "0.6", "--vq", "0.6", "--eps", "1.2", "--lambda", "3"], 2),
    (["point", "--vc", "0", "--vq", "1", "--eps", "1", "--lambda", "3"], 3),
]

#: commands that build arrays, and so load numpy
ARRAY_COMMANDS = [
    ["sweep", "--mode", "width", "--fixed", "1.41421356", "--start", "3.14", "--stop", "4.5", "--step", "0.003",
     "--potentials", "1,0;0,1", "--format", "json"],
    ["resonances", "--lambda-pi", "3"],
    ["verify", "--seed", "42", "--samples", "50"],
]

#: the child: the CLI as `-m` runs it, then, as the last line of stderr, each qbarrier, numpy and json module
#: in sys.modules with whether it has run
CHILD = """
import runpy, sys, types
try:
    runpy.run_module("qbarrier.cli", run_name="__main__", alter_sys=True)
finally:
    watched = [n for n in sys.modules if n.split(".")[0] in ("qbarrier", "numpy", "json")]
    sys.stderr.write(repr({n: type(sys.modules[n]) is types.ModuleType for n in watched}) + "\\n")
"""


def fresh(*args):
    """A fresh interpreter's CompletedProcess, with args, the package on its path and its output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def cold_run(argv):
    """(exit code, stdout bytes, stderr text less the last line, {module: whether it ran}) of a fresh CLI."""
    proc = fresh("-c", CHILD, *argv)
    stderr, _, last = proc.stderr.decode().removesuffix("\n").rpartition("\n")
    return proc.returncode, proc.stdout, stderr + "\n" if stderr else "", ast.literal_eval(last)


def warm_run(argv, capsys):
    """(exit code, stdout bytes, stderr text) of `cli.main` in this process."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


def executed(modules, package):
    """The modules of package, from `cold_run`'s dict, that have run."""
    return {name for name, done in modules.items() if done and name.split(".")[0] == package}


@pytest.mark.parametrize("argv, code", SCALAR_COMMANDS, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_scalar_command_loads_no_numpy(argv, code, capsys):
    rc, out, err, modules = cold_run(argv)
    assert executed(modules, "numpy") == set()
    assert set(modules) >= MODULES
    assert executed(modules, "qbarrier") == SCALAR_RUNS | ({"qbarrier.critical"} if argv[0] == "critical" else set())
    assert ("json" in executed(modules, "json")) == ("json" in argv)
    assert (rc, out, err) == warm_run(argv, capsys)
    assert rc == code


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_command_loads_numpy_and_writes_the_in_process_bytes(argv, capsys):
    rc, out, err, modules = cold_run(argv)
    assert "numpy._core.multiarray" in executed(modules, "numpy")
    assert set(modules) >= MODULES
    assert (rc, out, err) == warm_run(argv, capsys)
    assert (rc, err) == (0, "")


def test_a_submodule_imported_cold_is_an_attribute_of_its_package():
    # `import qbarrier` registers qbarrier.resonance unloaded; the import returns it, bound in the package
    proc = fresh("-c", "import qbarrier.resonance; print(qbarrier.resonance.scan_peaks.__name__)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"scan_peaks\n", b"")


def test_np_is_numpy_when_numpy_is_loaded():
    import numpy

    assert barrier.np is numpy and barrier._lazy_module("numpy") is numpy


def test_lazy_module_runs_on_the_first_attribute_read(tmp_path, monkeypatch):
    (tmp_path / "lazy_probe.py").write_text("import pathlib\npathlib.Path(__file__).with_suffix('.ran').touch()\n"
                                            "VALUE = 42\n")
    ran = tmp_path / "lazy_probe.ran"
    monkeypatch.syspath_prepend(str(tmp_path))
    assert "lazy_probe" not in sys.modules
    try:
        module = barrier._lazy_module("lazy_probe")
        assert sys.modules["lazy_probe"] is module and barrier._lazy_module("lazy_probe") is module
        assert not ran.exists()
        assert module.VALUE == 42
        assert ran.exists()
    finally:
        sys.modules.pop("lazy_probe", None)


def test_lazy_module_of_no_module_raises():
    with pytest.raises(ModuleNotFoundError, match="qbarrier_no_such_module"):
        barrier._lazy_module("qbarrier_no_such_module")
