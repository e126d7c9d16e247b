import pathlib
import re
import time

import mutants

TESTS = pathlib.Path(__file__).resolve().parent


def test_each_mutant_applies_once_or_is_retired():
    """Every live mutant's fragment occurs exactly once in its module, so
    `python tests/mutants.py` changes what it means to change; a mutant
    whose code is gone says why. Every test it names is a test function
    of its file. Reads the sources only, so it runs at once."""
    start = time.perf_counter()
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        if m.retired:
            continue
        assert mutants.source(m).count(m.fragment) == 1, m.name
        assert m.fragment != m.replacement and m.kills, m.name
        for test_id in m.kills:
            path, *scope = test_id.split("[")[0].split("::")
            assert re.search(rf"^\s*def {scope[-1]}\(", (TESTS.parent / path).read_text(),
                             re.M), test_id
    assert time.perf_counter() - start < 1
