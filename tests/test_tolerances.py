"""Every tolerance knob is read by the program."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from fermimass import Tolerances

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
