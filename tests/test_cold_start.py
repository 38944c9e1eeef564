"""Cold start: a fresh `python -m qbarrier.cli` loads numpy only when its command builds an array.

Each command runs under `-X importtime`, which lists on stderr every
module the process imports.  numpy itself is put in sys.modules unloaded
(`barrier._lazy_module`), so it is its submodules, imported by its real
load, that show whether it was loaded.  The in-process suite cannot see
this, since numpy is loaded there before qbarrier; the loader's cold
branch is checked here on a module of the test's own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbarrier import barrier, cli

SRC = Path(__file__).resolve().parent.parent / "src"
#: the package's modules but cli, which a `-m` run executes as __main__: all are imported, numpy or not
MODULES = {f"qbarrier.{path.stem}" for path in (SRC / "qbarrier").glob("*.py")} - {"qbarrier.__init__", "qbarrier.cli"}
POINT = ["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", "1.2", "--lambda", "3"]

#: commands that build no array, with their exit codes: README points, threshold amplitudes and
#: the invalid (exit 2) and degenerate (exit 3) point probes
SCALAR_COMMANDS = [
    (POINT, 0),
    (POINT + ["--format", "json"], 0),
    (["point", "--physical", "1", "0", "0", "9.42477796", "1", "1", "2"], 0),
    (["critical", "--case", "q", "--lambda", "2", "--theta", "0.4", "--series"], 0),
    (["critical", "--case", "c", "--lambda", "0.1", "--series"], 0),
    (["point", "--vc", "0.6", "--vq", "0.6", "--eps", "1.2", "--lambda", "3"], 2),
    (["point", "--vc", "0", "--vq", "1", "--eps", "1", "--lambda", "3"], 3),
]

#: commands that build arrays, and so load numpy
ARRAY_COMMANDS = [
    ["sweep", "--mode", "width", "--fixed", "1.41421356", "--start", "3.14", "--stop", "4.5", "--step", "0.003",
     "--potentials", "1,0;0,1", "--format", "json"],
    ["verify", "--seed", "42", "--samples", "50"],
]


def cold_run(argv):
    """(exit code, stdout bytes, stderr text less the import lines, names of the modules imported) of a fresh CLI."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qbarrier.cli", *argv],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stderr.decode().splitlines(keepends=True)
    imported = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    stderr = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, stderr, imported


def warm_run(argv, capsys):
    """(exit code, stdout bytes, stderr text) of `cli.main` in this process."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


def numpy_modules(imported):
    return [name for name in imported if name == "numpy" or name.startswith("numpy.")]


@pytest.mark.parametrize("argv, code", SCALAR_COMMANDS, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_scalar_command_loads_no_numpy(argv, code, capsys):
    rc, out, err, imported = cold_run(argv)
    assert numpy_modules(imported) == []
    assert set(imported) >= MODULES
    assert (rc, out, err) == warm_run(argv, capsys)
    assert rc == code


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_command_loads_numpy_and_writes_the_in_process_bytes(argv, capsys):
    rc, out, err, imported = cold_run(argv)
    assert "numpy._core.multiarray" in numpy_modules(imported)
    assert (rc, out, err) == warm_run(argv, capsys)
    assert (rc, err) == (0, "")


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
