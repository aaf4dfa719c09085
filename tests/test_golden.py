"""Byte equality of every report on the golden corpus (tests/golden/).

The expected files are rewritten only by tests/golden/regenerate.py.
"""

import pathlib
import runpy

import pytest

GOLDEN = runpy.run_path(str(pathlib.Path(__file__).parent / "golden" / "regenerate.py"))


@pytest.mark.parametrize("name", GOLDEN["instances"]())
@pytest.mark.parametrize("verb", list(GOLDEN["COMMANDS"]))
def test_report_matches_golden(name, verb):
    code, text = GOLDEN["report"](name, verb)
    assert code == 0
    with open(GOLDEN["expected_path"](name, verb)) as fh:
        assert text == fh.read()
