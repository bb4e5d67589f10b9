"""Every tolerance knob is read by the program, thresholds reach the library
as one Tolerances argument, and every stage error entry belongs to a stage
the reports run."""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import fermimass
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


def _public_callables():
    """(qualified name, callable) for every public function, class and
    public method defined in a fermimass module."""
    for info in pkgutil.iter_modules(fermimass.__path__):
        if info.name.startswith("_"):  # __main__ runs the command line
            continue
        module = importlib.import_module(f"fermimass.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", "") != module.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_thresholds_are_one_tolerances_argument():
    # a threshold takes tol, a Tolerances whose field the callee reads, not
    # a knob of its own; the euclidean Clifford algebra has no signature and
    # lemma_verify's orbit sampling is fixed
    knobs = {"cut", "saddle_floor", "signature", "n_moves"}
    found = []
    for name, obj in _public_callables():
        if obj is Tolerances:  # its fields are the thresholds
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception class that keeps its base's builtin __init__
            continue
        found += [f"{name}({p})" for p in params if p in knobs or p.endswith("_tol")]
    assert found == []


def test_stage_errors_match_the_stages():
    # an entry whose last stage(...) call is gone would map an error to a
    # check that can no longer fail
    text = (SRC / "reports.py").read_text(encoding="utf-8")
    stages = set(re.findall(r"\bstage\(\s*\"([^\"]+)\"", text))
    assert stages == set(STAGE_ERRORS)
