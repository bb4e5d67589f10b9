"""Golden reports: the CLI's bytes, exit codes and stderr for a fixed set of runs.

Each case runs ``fermimass.cli.main`` in process and compares its stdout
byte for byte with ``tests/golden/<case>.<format>``, and its exit code and
stderr with ``tests/golden/status.json``.  The files pin the report
contract across refactors; a deliberate change to the report format
regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fermimass import ew_reference, save_model
from fermimass.cli import main
from test_cli import u1_model

GOLDEN = Path(__file__).resolve().parent / "golden"


def _no_wilson():
    cfg = ew_reference()
    cfg.wilson = None
    return cfg


def _central_difference():
    cfg = ew_reference()
    cfg.lattice["derivative"] = "central_difference"
    return cfg


def _saddle():
    cfg = ew_reference()
    cfg.higgs["seed"] = [[0.0, 0.0], [0.0, 0.0]]
    return cfg


def _overrides():
    cfg = ew_reference()
    cfg.tolerances = {"dispersion": 1e-6, "orbit_spectrum": 1e-17, "potential_offsite": 1e-18}
    return cfg


def _wide_wilson():
    cfg = ew_reference()
    cfg.wilson = {"theta": [[0.2, 0.3], [0.0, 0.0]]}
    return cfg


# case name -> (command, model builder or registry name, extra arguments)
CASES = {
    "verify_all_ew": ("verify-all", "ew-reference", ()),
    "verify_all_ew_no_wilson": ("verify-all", _no_wilson, ()),
    "verify_all_ew_central_difference": ("verify-all", _central_difference, ()),
    "verify_all_u1_massless": ("verify-all", lambda: u1_model(coupling=0.0), ()),
    "verify_all_u1_massive": ("verify-all", lambda: u1_model(coupling=0.3), ()),
    "verify_all_saddle": ("verify-all", _saddle, ()),
    "verify_all_tolerance_overrides": ("verify-all", _overrides, ()),
    "verify_all_ew_tol_scale": ("verify-all", "ew-reference", ("--tol-scale", "1e-12")),
    "verify_all_ew_tol_scale_zero": ("verify-all", "ew-reference", ("--tol-scale", "0")),
    "verify_all_ew_csv": ("verify-all", "ew-reference", ("--format", "csv")),
    "break_ew": ("break", "ew-reference", ()),
    "masses_ew": ("masses", "ew-reference", ()),
    "lattice_ew": ("lattice", "ew-reference", ()),
    "check_ew": ("check", "ew-reference", ()),
    "break_saddle": ("break", _saddle, ()),
    "masses_saddle": ("masses", _saddle, ()),
    "lattice_saddle": ("lattice", _saddle, ()),
    "check_saddle": ("check", _saddle, ()),
    "masses_non_equivariant": ("masses", lambda: ew_reference(y_right=-2.1), ()),
    "lattice_wilson_width_mismatch": ("lattice", _wide_wilson, ()),
    "verify_all_wilson_width_mismatch": ("verify-all", _wide_wilson, ()),
}


def produce(name, workdir):
    """(exit code, stdout, stderr, golden file name) of one case."""
    command, model, extra = CASES[name]
    if callable(model):
        path = Path(workdir) / f"{name}.model.json"
        save_model(model(), path)
        model = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--model", model, *extra])
    suffix = "csv" if "csv" in extra else "json"
    return code, out.getvalue(), err.getvalue(), f"{name}.{suffix}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_exit_code_and_stderr(name, tmp_path):
    code, out, err, filename = produce(name, tmp_path)
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))[name]
    assert (code, err) == (status["exit"], status["stderr"])
    assert out.encode("utf-8") == (GOLDEN / filename).read_bytes()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            code, out, err, filename = produce(name, workdir)
            (GOLDEN / filename).write_bytes(out.encode("utf-8"))
            status[name] = {"exit": code, "stderr": err}
    text = json.dumps(status, sort_keys=True, indent=2) + "\n"
    (GOLDEN / "status.json").write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    sys.exit(regenerate())
