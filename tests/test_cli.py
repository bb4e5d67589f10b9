import json

import pytest

from fermimass import ModelConfig, ew_reference, save_model
from fermimass.cli import main


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "ew.json"
    save_model(ew_reference(), path)
    return str(path)


def u1_model(coupling=0.0):
    """Abelian Higgs model: one charged scalar, chiral fermions with
    charges (1, 0), completely broken at |z0| = 1."""

    def charge_rep(q):
        return [[[[0.0, -float(q)]]]]

    tensor_entry = [[[[coupling, 0.0]]]]
    return ModelConfig(
        schema_version=1,
        label="u1-toy",
        generator_labels=["Q"],
        representations={
            "scalar": charge_rep(1.0),
            "psi_left": charge_rep(1.0),
            "psi_right": charge_rep(0.0),
        },
        higgs={
            "rep": "scalar",
            "potential": "mexican_hat",
            "params": {"lam": 1.0, "v": 1.0},
            "seed": [[0.5, 0.0]],
        },
        fermions={"rep_left": "psi_left", "rep_right": "psi_right"},
        yukawa={"tensor": tensor_entry, "conjugate_higgs": [False]},
        lattice={"n": 1, "sites_per_dim": 2, "spacing": 1.0, "derivative": "fourier_spectral"},
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passes(capsys, model_path):
    code, out, _ = run(capsys, "check", "--model", model_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "check"
    assert doc["passed"] is True


def test_break_masses_lattice_pass(capsys, model_path):
    for cmd in ("break", "masses", "lattice"):
        code, out, _ = run(capsys, cmd, "--model", model_path)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all("tol" in c and "value" in c for c in doc["checks"])


def test_verify_all_registry_model(capsys):
    code, out, _ = run(capsys, "verify-all", "--model", "ew-reference")
    assert code == 0
    doc = json.loads(out)
    ids = [c["id"] for c in doc["checks"]]
    assert any(i.startswith("break.") for i in ids)
    assert any(i.startswith("masses.") for i in ids)
    assert any(i.startswith("lattice.") for i in ids)
    # the reference model carries a Wilson line: the shift table lists the
    # neutral massless branch and the charged massive branch
    table = doc["data"]["lattice"]["wilson_shift_table"]
    assert len(table) == 2
    neutral, charged = table
    assert neutral["m2"] == 0.0
    assert max(abs(q) for q in neutral["momentum_shift_per_axis"]) <= 1e-12
    assert charged["m2"] == pytest.approx(1.0)
    assert max(abs(q) for q in charged["momentum_shift_per_axis"]) > 0.1


def test_reports_are_deterministic(capsys, model_path):
    _, out1, _ = run(capsys, "verify-all", "--model", model_path)
    _, out2, _ = run(capsys, "verify-all", "--model", model_path)
    assert out1 == out2


def test_missing_model_is_input_error(capsys):
    code, _, err = run(capsys, "masses", "--model", "/nope/missing.json")
    assert code == 2
    assert "no such file" in err


def test_invalid_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, "check", "--model", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_invariant_violation_is_exit_one(capsys, tmp_path):
    # perturbed right hypercharge: equivariance and lemma clauses fail
    from fermimass.reference import ew_reference as build

    cfg = build(y_right=-2.1)
    path = tmp_path / "perturbed.json"
    save_model(cfg, path)
    code, out, _ = run(capsys, "masses", "--model", str(path))
    assert code == 1
    doc = json.loads(out)
    failed = {c["id"] for c in doc["checks"] if not c["passed"]}
    assert "masses.equivariance" in failed
    assert "masses.commutant" in failed or "masses.orbit_transport" in failed


def test_saddle_seed_is_exit_one(capsys, tmp_path):
    cfg = ew_reference()
    cfg.higgs["seed"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "saddle.json"
    save_model(cfg, path)
    code, out, _ = run(capsys, "break", "--model", str(path))
    assert code == 1
    doc = json.loads(out)
    assert "SaddleConverged" in doc["checks"][0]["note"]


def test_tol_scale_tightening_fails(capsys, model_path):
    # residuals around 1e-14 exceed tolerances scaled down by 1e-12
    code, out, _ = run(capsys, "verify-all", "--model", model_path, "--tol-scale", "1e-12")
    assert code == 1


def test_csv_output(capsys, model_path, tmp_path):
    out_path = tmp_path / "report.csv"
    code, _, _ = run(
        capsys, "lattice", "--model", model_path, "--format", "csv", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("spectrum_sq[0],") for line in lines)
    assert lines[-1] == "passed,true"


def test_out_writes_json_file(capsys, model_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "break", "--model", model_path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "break"


def test_wilson_width_mismatch_is_input_error(capsys, tmp_path):
    # theta rows must match the isotropy dimension found at the vacuum,
    # which is only known after minimization
    cfg = ew_reference()
    cfg.wilson = {"theta": [[0.2, 0.3], [0.0, 0.0]]}
    path = tmp_path / "wide.json"
    save_model(cfg, path)
    code, _, err = run(capsys, "lattice", "--model", str(path))
    assert code == 2
    assert "isotropy" in err


def test_u1_model_one_goldstone(capsys, tmp_path):
    # abelian model: the phase direction is the single Goldstone mode
    path = tmp_path / "u1.json"
    save_model(u1_model(), path)
    code, out, _ = run(capsys, "break", "--model", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["goldstone_count"] == 1
    assert doc["data"]["physical_count"] == 1
    assert doc["data"]["isotropy_dim"] == 0


def test_u1_massless_model_flat_and_zero_spectrum(capsys, tmp_path):
    # zero coupling: every squared mass vanishes and the vacuum connection
    # is reported flat
    path = tmp_path / "u1.json"
    save_model(u1_model(coupling=0.0), path)
    code, out, _ = run(capsys, "masses", "--model", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["spectrum_sq"] == [0.0, 0.0]
    code, out, _ = run(capsys, "lattice", "--model", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["flat"] is True
    assert doc["data"]["density"] == 0.0


def test_u1_massive_model_verifies(capsys, tmp_path):
    path = tmp_path / "u1.json"
    save_model(u1_model(coupling=0.3), path)
    code, out, _ = run(capsys, "verify-all", "--model", str(path))
    assert code == 0
    doc = json.loads(out)
    # fermion mass y v = 0.3 appears squared on both chiralities
    assert doc["data"]["masses"]["spectrum_sq"] == pytest.approx([0.09, 0.09])
    assert doc["data"]["lattice"]["flat"] is False


def test_non_equivariant_model_is_exit_one_with_a_report(capsys, tmp_path):
    # the Wilson charge is not scalar on the mass blocks of a non-equivariant
    # coupling: an invariant failure of a valid file, not an input error
    path = tmp_path / "perturbed.json"
    save_model(ew_reference(y_right=-2.1), path)
    code, out, err = run(capsys, "lattice", "--model", str(path))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"] if not c["passed"]] == ["lattice.wilson_charge_scalar"]
    assert "Wilson charge is not scalar" in doc["data"]["error"]
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (1, "")
    failed = {c["id"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert {"masses.equivariance", "lattice.wilson_charge_scalar"} <= failed


def test_tightened_hermiticity_is_a_failing_check(capsys, tmp_path):
    # at L = 3 the operator is Hermitian to ~1e-16, above 1e-10 * 1e-12
    cfg = ew_reference()
    cfg.lattice["sites_per_dim"] = 3
    path = tmp_path / "ew-l3.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "lattice", "--model", str(path), "--tol-scale", "1e-12")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"] if not c["passed"]][-1] == "lattice.hermiticity"
