"""The precondition of tools/mutants.py: each mutant's text occurs once in its file.

The tool checks it before any mutant runs; here a change that moves a
mutant's text fails the test suite at once.  The tool deselects this test
in the trees it mutates, where one text is replaced by design.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_text_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {name: (ROOT / file).read_text().count(old) for name, (file, old, _) in mutants.MUTANTS.items()}
    assert counts == dict.fromkeys(mutants.MUTANTS, 1)
