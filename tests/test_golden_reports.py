"""Golden reports: the CLI's bytes, exit codes and stderr for a fixed set of runs.

Each case runs ``fermimass.cli.main`` in process and compares its stdout
byte for byte with ``tests/golden/<case>.<format>``, and its exit code and
stderr with ``tests/golden/status.json``.  The files pin the report
contract across refactors; a deliberate change to the report format
regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints every case whose exit code changed and every check whose
passed flag flipped against the files it overwrites.
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


def _n2_wilson():
    cfg = ew_reference()
    cfg.lattice.update({"n": 2, "sites_per_dim": 2})
    cfg.wilson = {"theta": [[0.25], [0.0], [0.1], [-0.3]]}
    return cfg


# case name -> (command, model builder or registry name, extra arguments)
CASES = {
    "verify_all_ew": ("verify-all", "ew-reference", ()),
    "verify_all_ew_no_wilson": ("verify-all", _no_wilson, ()),
    "verify_all_ew_central_difference": ("verify-all", _central_difference, ()),
    "verify_all_ew_n2_wilson": ("verify-all", _n2_wilson, ()),
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


def verdicts(text, filename):
    """check id -> passed flag of a report in the golden file's format."""
    if filename.endswith(".csv"):
        rows = (line.rsplit(",", 1) for line in text.splitlines())
        return {key[len("check."):-len(".passed")]: flag == "true" for key, flag in rows
                if key.startswith("check.") and key.endswith(".passed")}
    return {c["id"]: c["passed"] for c in json.loads(text)["checks"]} if text else {}


def verdict_changes(name, filename, old, new):
    """Lines naming a changed exit code and each check whose passed flag
    differs between two (exit code, stdout) runs of a case written to
    filename; a check present in one run only counts as a change."""
    (old_code, old_out), (code, out) = old, new
    lines = [f"{name}: exit {old_code} -> {code}"] if old_code != code else []
    before, after = verdicts(old_out, filename), verdicts(out, filename)
    for check_id in sorted(set(before) | set(after)):
        if before.get(check_id) != after.get(check_id):
            lines.append(f"{name}: {check_id} passed {before.get(check_id)} -> {after.get(check_id)}")
    return lines


def _flip_json(text):
    doc = json.loads(text)
    check = next(c for c in doc["checks"] if c["id"] == "masses.commutant")
    check["passed"] = not check["passed"]
    return json.dumps(doc)


def _flip_csv(text):
    return text.replace("check.masses.commutant.passed,true", "check.masses.commutant.passed,false")


@pytest.mark.parametrize("filename, flip", [("verify_all_ew.json", _flip_json),
                                            ("verify_all_ew_csv.csv", _flip_csv)])
def test_verdict_changes_name_each_flipped_flag_and_exit_code(filename, flip):
    text = (GOLDEN / filename).read_text(encoding="utf-8")
    assert verdict_changes("case", filename, (0, text), (0, text)) == []
    assert verdict_changes("case", filename, (0, text), (1, flip(text))) == [
        "case: exit 0 -> 1", "case: masses.commutant passed True -> False"]
    # an input error's empty report drops every check
    gone = verdict_changes("case", filename, (0, text), (2, ""))
    assert gone[0] == "case: exit 0 -> 2"
    assert len(gone) == 1 + len(verdicts(text, filename)) == 16
    assert all(line.endswith("passed True -> None") for line in gone[1:])


def regenerate():
    """Rewrite every golden file and print each verdict that changed."""
    GOLDEN.mkdir(exist_ok=True)
    status_path = GOLDEN / "status.json"
    old_status = json.loads(status_path.read_text(encoding="utf-8")) if status_path.exists() else {}
    status, changes = {}, []
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            code, out, err, filename = produce(name, workdir)
            path = GOLDEN / filename
            if name in old_status and path.exists():
                old = (old_status[name]["exit"], path.read_text(encoding="utf-8"))
                changes += verdict_changes(name, filename, old, (code, out))
            else:
                changes.append(f"{name}: new case, exit {code}")
            path.write_bytes(out.encode("utf-8"))
            status[name] = {"exit": code, "stderr": err}
    text = json.dumps(status, sort_keys=True, indent=2) + "\n"
    status_path.write_bytes(text.encode("utf-8"))
    print("\n".join(changes) if changes else "no exit code or passed flag changed")


if __name__ == "__main__":
    sys.exit(regenerate())
