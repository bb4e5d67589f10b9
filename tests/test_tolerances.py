"""Every tolerance knob is read by the program, and every stage error entry
belongs to a stage the reports run."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from fermimass import Tolerances
from fermimass.reports import STAGE_ERRORS

SRC = Path(__file__).resolve().parent.parent / "src" / "fermimass"


def _program_text():
    return "\n".join(
        p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "tolerances.py"
    )


@pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
def test_every_tolerance_is_read(name):
    # a knob whose last reader is gone would still be accepted in model
    # files and scaled by --tol-scale while changing no verdict
    assert re.search(rf"\b(tol|DEFAULT)\.{name}\b", _program_text()), f"Tolerances.{name} is never read"


def test_stage_errors_match_the_stages():
    # an entry whose last stage(...) call is gone would map an error to a
    # check that can no longer fail
    text = (SRC / "reports.py").read_text(encoding="utf-8")
    stages = set(re.findall(r"\bstage\(\s*\"([^\"]+)\"", text))
    assert stages == set(STAGE_ERRORS)
