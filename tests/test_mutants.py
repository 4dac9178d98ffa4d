"""The mutant list of ``tools/mutants.py`` still fits the source: each old
text occurs exactly once in ``src/``, in the file its mutant names."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_the_list_holds_twenty_six_distinct_mutants():
    assert len(mutants.MUTANTS) == 26
    assert len({name for name, *_ in mutants.MUTANTS}) == 26
    assert all(old != new for _, _, old, new in mutants.MUTANTS)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_each_old_text_occurs_once_in_its_file(name, file, old, new):
    assert mutants.occurs_once(_ROOT / "src", file, old)
