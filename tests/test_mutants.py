"""The one-spot edits of scripts/mutants.py stay applicable: each one's old
text occurs exactly once in its file.  A line that moves without its mutant
fails here, in the tier-1 run, rather than showing up as `stale` in a run
of the script."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old", [m[:3] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_old_text_occurs_once(name, file, old):
    text = (ROOT / "src" / "kbundle" / file).read_text()
    assert text.count(old) == 1, name
