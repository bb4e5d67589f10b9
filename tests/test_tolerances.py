"""Every tolerance knob is read by the program, thresholds reach the library
as one Tolerances argument, and every stage error entry belongs to a stage
the reports run."""

import importlib
import inspect
import json
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import fermimass
from fermimass import Tolerances, ew_reference
from fermimass.cli import main
from fermimass.reports import STAGE_ERRORS
from fermimass.tolerances import DEFAULT

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


def test_every_tolerance_read_names_a_field():
    # the converse: a read of a removed knob, say in a check that runs only
    # for a Wilson line, would raise an AttributeError on that path alone
    known = {f.name for f in fields(Tolerances)} | {"scale", "with_overrides"}
    read = set(re.findall(r"\b(?:tol|DEFAULT)\.(\w+)", _program_text()))
    assert read and read - known == set()


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


def test_scale_multiplies_the_bounds_and_leaves_the_decision_cuts():
    tol = DEFAULT.with_overrides({"nullspace_cut": 1e-6, "closure": 1e-9})
    scaled = tol.scale(1e8)
    for f in fields(Tolerances):
        factor = 1.0 if f.name in Tolerances.DECISION_CUTS else 1e8
        assert getattr(scaled, f.name) == getattr(tol, f.name) * factor, f.name
    # an override still sets a cut
    assert scaled.nullspace_cut == 1e-6


def test_every_verdict_scales_with_the_run(capsys):
    # a check whose tol does not follow --tol-scale reads a bound that the
    # run did not scale
    tols = []
    for factor in ("1", "1e-3"):
        assert main(["verify-all", "--model", "ew-reference", "--tol-scale", factor]) in (0, 1)
        tols.append({c["id"]: c["tol"] for c in json.loads(capsys.readouterr().out)["checks"]})
    one, scaled = tols
    assert list(scaled) == list(one) and "check.model.closure" in one
    for check_id, tol in one.items():
        assert scaled[check_id] == pytest.approx(1e-3 * tol, rel=1e-12, abs=0.0), check_id


@pytest.mark.parametrize("factor", ["1e8", "1e9", "1e12", "1e308"])
def test_a_looser_tol_scale_keeps_the_reference_passing(capsys, factor):
    # scaled, the saddle floor and the eigenbundle grouping made the vacuum
    # a saddle and merged the mass blocks
    assert main(["verify-all", "--model", "ew-reference", "--tol-scale", factor]) == 0, capsys.readouterr().err


def test_a_tighter_tol_scale_keeps_the_isotropy(capsys, tmp_path):
    # the orbit map at this seed has singular values 2.24, 1, 1 and 1.6e-16:
    # the vacuum keeps one unbroken direction at any --tol-scale
    doc = ew_reference().to_json_dict()
    doc["higgs"]["seed"] = [[0.6, 0.0], [0.8, 0.1]]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["break", "--model", str(model), "--tol-scale", "1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["isotropy_dim"] == 1
    # its tightened residual bounds fail, an invariant failure, not an input error
    assert main(["verify-all", "--model", str(model), "--tol-scale", "1e-8"]) == 1
    assert capsys.readouterr().err == ""
