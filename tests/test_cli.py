import json
import os
import re
import subprocess
import sys
import time

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


def su2_unbroken_model():
    """ew-reference with a u(1)-charged singlet Higgs, so su(2) stays
    unbroken, and a Wilson line along two su(2) directions, which is not
    flat: |[A_0, A_1]| = 0.09 / 2."""
    cfg = ew_reference()
    zero = [[[0.0, 0.0]]]
    cfg.representations["higgs_singlet"] = [zero, zero, zero, [[[0.0, -1.0]]]]
    cfg.higgs = dict(cfg.higgs, rep="higgs_singlet", seed=[[1.0, 0.0]])
    cfg.fermions = {"rep_left": "lepton_left", "rep_right": "lepton_left"}
    cfg.yukawa = {"tensor": [[[[0.0, 0.0]]] * 2] * 2, "conjugate_higgs": [False]}
    cfg.wilson = {"theta": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0]]}
    return cfg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*argv):
    """python *argv in a new interpreter that imports the fermimass under test."""
    src = os.path.dirname(os.path.dirname(sys.modules["fermimass"].__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_numpy_is_the_only_third_party_import():
    code = (
        "import sys; before = set(sys.modules); import fermimass, fermimass.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['fermimass', 'numpy']"


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


def _without_wilson(doc, **lattice):
    doc.pop("wilson")
    doc["lattice"].update(lattice)


LOAD_AND_RUN = ("check", "lattice", "verify-all")
RUN_ONLY = ("lattice", "verify-all")  # check accepts a lattice that is only too large


@pytest.mark.parametrize(
    "edit, named, commands",
    [
        (lambda doc: doc["lattice"].update(spacing=float("inf")), "lattice.spacing", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(spacing=float("nan")), "lattice.spacing", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(spacing=10 ** 400), "lattice.spacing", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(spacing=1e300), "lattice.spacing", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(spacing=1e-300), "lattice.spacing", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(n=True), "lattice.n", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(sites_per_dim=True), "lattice.sites_per_dim", LOAD_AND_RUN),
        (lambda doc: doc.update(schema_version=True), "schema_version", LOAD_AND_RUN),
        (lambda doc: doc["lattice"].update(sites_per_dim=10 ** 400),
         "error: lattice n=1, L=<an integer of 401 digits> needs", RUN_ONLY),
        (lambda doc: _without_wilson(doc, n=1000), "error: lattice n=1000, L=4 needs more than 2^", RUN_ONLY),
        (lambda doc: _without_wilson(doc, n=10 ** 9), "error: lattice n=1000000000, L=4 needs", RUN_ONLY),
        # an n without a float is refused before the spacing is tested
        (lambda doc: _without_wilson(doc, n=10 ** 400), "error: lattice.n: ", LOAD_AND_RUN),
    ],
    ids=["infinite-spacing", "nan-spacing", "huge-int-spacing", "huge-spacing", "tiny-spacing",
         "bool-n", "bool-sites", "bool-schema-version", "huge-sites", "huge-n", "giant-n",
         "beyond-float-n"],
)
def test_non_finite_spacing_and_bool_integers_are_input_errors(capsys, tmp_path, edit, named, commands):
    doc = ew_reference().to_json_dict()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in commands:
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--model", str(path))
        assert (code, out) == (2, "") and time.perf_counter() - start < 1.0
        assert named in err, err


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


@pytest.mark.parametrize("scale, rule", [("0", "positive"), ("-1", "positive"),
                                         ("nan", "finite and positive"),
                                         ("inf", "finite and positive")],
                         ids=["0", "-1", "nan", "inf"])
def test_check_rejects_non_positive_tol_scale(capsys, model_path, scale, rule):
    code, out, err = run(capsys, "check", "--model", model_path, "--tol-scale", scale)
    assert (code, out) == (2, "")
    assert err == f"error: tolerance scale factor must be {rule}\n"


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


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_is_input_error(capsys, model_path, tmp_path, target):
    # exit 1 means a failed check; a report that cannot be written is an
    # input error, reported without a traceback
    out_path = tmp_path / target
    code, out, err = run(capsys, "check", "--model", model_path, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and str(out_path) in err


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
    assert doc["data"]["per_site_trace"] == 0.0


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


def test_wilson_charge_override_reaches_the_charge_check(capsys, tmp_path):
    # the perturbed coupling's charge spreads by 5.6e-3 on the m^2 = 1
    # block; a loose enough threshold lets the run go on to the dispersion
    cfg = ew_reference(y_right=-2.1)
    cfg.tolerances = {"wilson_charge_scalar": 1.0}
    path = tmp_path / "perturbed.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "lattice", "--model", str(path))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert "error" not in doc["data"]
    assert [c["id"] for c in doc["checks"] if not c["passed"]] == [
        "lattice.dispersion", "lattice.curvature_identity"]


def test_nonflat_wilson_line_fails_the_flatness_check(capsys, tmp_path):
    # at the default tolerances the line's flatness is a failing check, and
    # the report goes on to the next stage
    path = tmp_path / "su2-wilson.json"
    save_model(su2_unbroken_model(), path)
    code, out, err = run(capsys, "lattice", "--model", str(path))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    checks = {c["id"]: c for c in doc["checks"]}
    flat = checks["lattice.wilson_flatness"]
    assert flat["value"] == pytest.approx(0.045, rel=1e-12)
    assert (flat["tol"], flat["passed"]) == (1e-12, False)
    assert [cid for cid, c in checks.items() if not c["passed"]] == [
        "lattice.wilson_flatness", "lattice.wilson_charge_scalar"]
    assert "Wilson charge is not scalar" in doc["data"]["error"]


def test_wilson_flat_override_reaches_the_flatness_check(capsys, tmp_path):
    cfg = su2_unbroken_model()
    cfg.tolerances = {"wilson_flat": 1.0}
    path = tmp_path / "su2-wilson.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "lattice", "--model", str(path))
    assert (code, err) == (1, "")
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    flat = checks["lattice.wilson_flatness"]
    assert flat["value"] == pytest.approx(0.045, rel=1e-12)
    assert (flat["tol"], flat["passed"]) == (1.0, True)
    assert [cid for cid, c in checks.items() if not c["passed"]] == ["lattice.wilson_charge_scalar"]


def _set(doc, path, value):
    """doc with the entry at a key path (a list of keys and indices) replaced."""
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("theta, where", [
    ([[0.25], [0.0, 0.1]], "wilson.theta: ragged rows"),
    ("0.25", "wilson.theta: unexpected type str"),
    (True, "wilson.theta: unexpected type bool"),
    ([[0.25], 0.0], r"wilson.theta\[1\]"),
    ([[0.25], ["0.0"]], r"wilson.theta\[1\]"),
    ([[0.25], [False]], r"wilson.theta\[1\]"),
    ([[float("nan")], [0.0]], r"wilson.theta\[0\]"),
    ([[0.25], [float("-inf")]], r"wilson.theta\[1\]"),
    ([[0.25], [10 ** 400]], r"wilson.theta\[1\]"),
], ids=["ragged", "string", "bool", "row-number", "row-string", "row-bool", "nan", "inf",
        "huge-int"])
def test_check_rejects_malformed_wilson_theta(capsys, tmp_path, theta, where):
    # check and lattice read wilson.theta with the same parser
    cfg = ew_reference()
    cfg.wilson = {"theta": theta}
    path = tmp_path / "theta.json"
    save_model(cfg, path)
    for command in ("check", "lattice"):
        code, out, err = run(capsys, command, "--model", str(path))
        assert (code, out) == (2, "")
        assert re.match(rf"error: {where}", err)


@pytest.mark.parametrize("path, value, message", [
    (["yukawa", "tensor", 0, 0, 0], [1e300, 0.0], "overflow encountered in square (in the masses stage)"),
    (["higgs", "seed", 0], [1e300, 0.0], "overflow encountered in dot (in the break stage)"),
    (["wilson", "theta", 0, 0], 1e300, "overflow encountered in square (in the lattice stage)"),
], ids=["yukawa", "seed", "theta"])
def test_overflow_mid_run_names_its_stage(capsys, tmp_path, path, value, message):
    # check builds no mass matrix and no lattice operator, so it accepts
    # these finite numbers; verify-all overflows in one of its stages
    doc = ew_reference().to_json_dict()
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run(capsys, "check", "--model", str(model))[0] == 0
    assert run(capsys, "verify-all", "--model", str(model)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("path, value, where", [
    (["algebra", "representations", "higgs_doublet", 2, 0, 0], [float("nan"), 0.0],
     r"algebra.representations.higgs_doublet\[2\]\[0\]\[0\]"),
    (["higgs", "seed", 1], [1.0, float("inf")], r"higgs.seed\[1\]"),
    (["yukawa", "tensor", 1, 0, 1], [float("nan"), 0.0], r"yukawa.tensor\[1\]\[0\]\[1\]"),
    (["higgs", "params", "lam"], float("nan"), "higgs.params.lam"),
    (["higgs", "params", "v"], float("inf"), "higgs.params.v"),
    (["tolerances", "dispersion"], float("nan"), "tolerances: dispersion"),
    (["tolerances", "dispersion"], -1e-9, "tolerances: dispersion"),
    (["tolerances", "dispersion"], None, "tolerances: dispersion"),
    (["tolerances", "dispersion"], True, "tolerances: dispersion"),
    (["tolerances", "dispersion"], "1e-6", "tolerances: dispersion"),
    (["tolerances", "dispersion"], 10 ** 400, "tolerances: dispersion"),
    (["higgs", "seed", 0], [0.0, False], r"higgs.seed\[0\]: expected a \[re, im\] pair"),
    (["yukawa", "tensor", 0, 0, 1], [10 ** 400, 0.0], r"yukawa.tensor\[0\]\[0\]\[1\]"),
    (["lattice", "n"], 10 ** 400, "lattice.n"),
    (["algebra", "representations", "higgs_doublet", 2, 1], [[0.0, 0.0]],
     r"algebra.representations.higgs_doublet: ragged rows, "
     r"algebra.representations.higgs_doublet\[2\]\[1\] has length 1, expected 2"),
    (["yukawa", "tensor", 1, 0], [[0.5, 0.0]], r"yukawa.tensor\[1\]\[0\]: expected length 2, got 1"),
], ids=["generator", "seed", "yukawa", "lam", "v", "tolerance-nan", "tolerance-negative",
        "tolerance-null", "tolerance-bool", "tolerance-string", "tolerance-huge-int", "bool-leaf",
        "huge-int-leaf", "lattice-n-huge-int", "short-generator-row", "yukawa-cell-length"])
def test_check_rejects_non_finite_numbers(capsys, tmp_path, path, value, where):
    doc = ew_reference().to_json_dict()
    doc["tolerances"] = {}
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out) == (2, "")
    assert re.match(rf"error: {where}", err), err


@pytest.mark.parametrize("path, value, where", [
    (["fermions", "grading"], 5, r"fermions.grading: expected \[1, 1, -1\]"),
    (["tolerances"], [1], "tolerances: expected an object, got list"),
    (["tolerances"], "x", "tolerances: expected an object, got str"),
], ids=["grading-number", "tolerances-list", "tolerances-string"])
def test_check_rejects_malformed_sections(capsys, tmp_path, path, value, where):
    doc = ew_reference().to_json_dict()
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(model))
    assert (code, out) == (2, "")
    assert re.match(rf"error: {where}", err), err


@pytest.mark.parametrize("path, value, where", [
    (["wilsn"], {"theta": [[0.25], [0.0]]}, r"\S+\.wilsn: unknown key \(known: schema_version, "),
    (["algebra", "labels"], ["T1"], r"\S+\.algebra\.labels: unknown key"),
    (["lattice", "sites_per_dimm"], 4, r"lattice\.sites_per_dimm: unknown key \(known: n, "),
    (["yukawa", "conjugate_higs"], [False, False], r"yukawa\.conjugate_higs: unknown key"),
    (["lattice", "derivatve"], "central_difference", r"lattice\.derivatve: unknown key"),
    (["higgs", "sead"], [[0.0, 0.0], [0.0, 1.0]], r"higgs\.sead: unknown key"),
    (["fermions", "gradng"], [1, 1, -1], r"fermions\.gradng: unknown key"),
    (["wilson", "phi"], 0.1, r"wilson\.phi: unknown key \(known: theta\)"),
], ids=["top-level", "algebra", "lattice", "yukawa-optional", "lattice-optional", "higgs",
        "fermions-optional", "wilson"])
def test_unknown_keys_are_input_errors(capsys, tmp_path, path, value, where):
    # a misspelt key would otherwise be ignored, and a misspelt optional
    # one would leave its default in force
    doc = ew_reference().to_json_dict()
    _set(doc, path, value)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    for command in ("check", "verify-all"):
        code, out, err = run(capsys, command, "--model", str(model))
        assert (code, out) == (2, "")
        assert re.match(rf"error: {where}", err), err


@pytest.mark.parametrize("rep", ["higgs_doublet", "lepton_left"])
def test_anti_hermitian_override_reaches_the_representations(capsys, tmp_path, rep):
    # one generator entry moved by 1e-11 gives |X + X^dagger| = 2e-11, over
    # the default 1e-12; the left fermions meet it again in their direct sum
    doc = ew_reference().to_json_dict()
    doc["algebra"]["representations"][rep][2][0][0][0] += 1e-11
    model = tmp_path / "model.json"
    for overrides, expected in (({}, 2), ({"anti_hermitian": 1e-6}, 0)):
        doc["tolerances"] = overrides
        model.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--model", str(model))
        assert code == expected, err
        assert ("not anti-Hermitian" in err) == (expected == 2)


@pytest.mark.parametrize("params, where", [
    ({"lam": "1", "v": 2.0}, "higgs.params.lam"),
    ({"lam": 1.0, "v": True}, "higgs.params.v"),
    ({"lam": 1.0, "v": 10 ** 400}, "higgs.params.v"),
    ([0.0, -1.0, "0.25"], r"higgs.params\[2\]"),
    ([0.0, False, 0.25], r"higgs.params\[1\]"),
    ([float("nan"), -1.0, 0.25], r"higgs.params\[0\]"),
    ([0.0, -1.0, float("inf")], r"higgs.params\[2\]"),
], ids=["lam-string", "v-bool", "v-huge-int", "coefficient-string", "coefficient-bool",
        "coefficient-nan", "coefficient-inf"])
def test_check_rejects_higgs_params_that_are_not_finite_numbers(capsys, tmp_path, params, where):
    cfg = ew_reference()
    kind = "mexican_hat" if isinstance(params, dict) else "custom_polynomial"
    cfg.higgs = dict(cfg.higgs, potential=kind, params=params)
    path = tmp_path / "params.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "check", "--model", str(path))
    assert (code, out) == (2, "")
    assert re.match(rf"error: {where}: expected a finite real number", err), err


@pytest.mark.parametrize("params", [{"lam": 1.0, "v": 1e80}, {"lam": 1e300, "v": 1e5}],
                         ids=["v-power-overflows", "lam-product-overflows"])
def test_check_rejects_higgs_params_whose_coefficients_overflow(tmp_path, params):
    # lam * v^4 is past the largest double: a float power raises
    # OverflowError and a float product gives inf; both are input errors
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params=params)
    path = tmp_path / "overflow.json"
    save_model(cfg, path)
    proc = fresh_python("-m", "fermimass", "check", "--model", str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.match(r"error: higgs.params: the coefficients of p\(s\) overflow", proc.stderr), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("potential, params, message", [
    ("mexican_hat", {"lam": 0.0, "v": 2.0}, "mexican_hat needs lam > 0 and v > 0"),
    ("custom_polynomial", [0.0, 1.0, -2.0],
     "potential is not bounded from below: leading coefficient must be positive"),
    ("mexican_hat", {"lam": 1.0, "v": 1e100},
     "the coefficients of p(s) overflow for parameters (1.0, 1e+100)"),
], ids=["lam-zero", "unbounded", "v-1e100"])
def test_check_names_a_bad_potential(capsys, tmp_path, potential, params, message):
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, potential=potential, params=params)
    path = tmp_path / "potential.json"
    save_model(cfg, path)
    assert run(capsys, "check", "--model", str(path)) == (2, "", f"error: higgs.params: {message}\n")


def test_lattice_verdicts_hold_at_large_vev_and_coupling(capsys, tmp_path):
    # v = 2000 and y = 50 put 2^n sum m^2 at 4e10, where the per-site trace
    # rounds to ~8e-6 absolute (2e-16 relative) and the orbit deviation of
    # m^2 = 1e10 to ~6e-6; every check is relative to the model's scale
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 2000.0}, seed=[[0.0, 0.0], [1000.0, 0.0]])
    tensor = cfg.yukawa["tensor"]
    tensor[0][0][0] = tensor[1][0][1] = [50.0, 0.0]
    path = tmp_path / "ew-large.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["data"]["break"]["z0"] == [[0.0, 0.0], [2000.0, 0.0]]
    checks = {c["id"]: c for c in doc["checks"]}
    assert checks["lattice.potential_trace"]["value"] > 0.0
    assert checks["masses.orbit_invariance"]["tol"] == pytest.approx(1e-9 * 1e10, rel=1e-12)


def test_small_vev_breaks_from_a_unit_seed(capsys, tmp_path):
    # v = 2e-3 from the seed (0, 1), far outside the vacuum sphere
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 2e-3}, seed=[[0.0, 0.0], [1.0, 0.0]])
    path = tmp_path / "ew-small.json"
    save_model(cfg, path)
    for command in ("break", "masses", "verify-all"):
        code, out, err = run(capsys, command, "--model", str(path))
        assert (code, err) == (0, ""), out
    z0 = json.loads(out)["data"]["break"]["z0"]
    assert z0[0] == [0.0, 0.0]
    assert z0[1] == [pytest.approx(2e-3, rel=1e-15), 0.0]


def test_tiny_vev_breaks_from_a_unit_seed(capsys, tmp_path):
    # v = 2e-6 puts the radial Hessian 8 lam v^2 at 3.2e-11; the saddle
    # floor is relative to the Hessian's own scale, so this is a minimum
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 2e-6}, seed=[[0.0, 0.0], [1.0, 0.0]])
    path = tmp_path / "ew-tiny.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, ""), out
    doc = json.loads(out)
    assert doc["data"]["break"]["z0"][1] == [pytest.approx(2e-6, rel=1e-15), 0.0]
    assert doc["data"]["break"]["transversal_hessian_eigs"] == [pytest.approx(3.2e-11, rel=1e-9)]


def test_saddle_floor_override_reaches_the_minimizer(capsys, tmp_path):
    # ew-reference has one transversal direction, so a floor of 1 times the
    # largest eigenvalue makes its minimum a degenerate critical point
    cfg = ew_reference()
    cfg.tolerances = {"saddle_floor": 1.0}
    path = tmp_path / "ew-floor.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "break", "--model", str(path))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert [c["id"] for c in doc["checks"]] == ["vacuum.minimum_found"]
    assert doc["checks"][0]["note"].startswith("SaddleConverged: ")


def test_verdicts_hold_at_a_large_vev_and_a_larger_coupling(capsys, tmp_path):
    # v = 2000 and y = 5000 put m^2 at 1e14: the orbit transport of the
    # mass matrix rounds to ~5e-9 and the Dirac potential's off-site blocks
    # to ~4e-10, both at the 1e-16 level of the model's own scale
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 2000.0}, seed=[[0.0, 0.0], [1000.0, 0.0]])
    tensor = cfg.yukawa["tensor"]
    tensor[0][0][0] = tensor[1][0][1] = [5000.0, 0.0]
    path = tmp_path / "ew-heavy.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, ""), out
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    m2 = (5000.0 * 2000.0) ** 2
    assert checks["masses.orbit_transport"]["tol"] == pytest.approx(1e-9 * 5000.0 * 2000.0, rel=1e-12)
    assert checks["lattice.potential_offsite"]["tol"] == pytest.approx(1e-10 * m2, rel=1e-12)


def test_potential_offsite_is_the_one_verdict_at_a_huge_coupling(capsys, tmp_path):
    # v = 2000 and y = 5e5 put m^2 at 1e18: the Dirac potential's off-site
    # blocks round to ~2e-8, at the 1e-26 level of the model's own scale,
    # and potential_offsite, relative to that scale, passes them
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 2000.0}, seed=[[0.0, 0.0], [1000.0, 0.0]])
    tensor = cfg.yukawa["tensor"]
    tensor[0][0][0] = tensor[1][0][1] = [5e5, 0.0]
    path = tmp_path / "ew-huge.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, ""), out
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    m2 = (5e5 * 2000.0) ** 2
    assert checks["lattice.potential_offsite"]["tol"] == pytest.approx(1e-10 * m2, rel=1e-12)


def test_vacuum_and_mass_verdicts_hold_at_a_vev_of_1e77(capsys, tmp_path):
    # v = 1e77 puts the radial Hessian 8 lam v^2 at 8e154 and m^2 at
    # 2.5e153; the Goldstone block of the Hessian rounds to ~4e123 and the
    # eigenbundle reconstruction to ~4e137, both at the 1e-16 level of
    # those scales
    cfg = ew_reference()
    cfg.higgs = dict(cfg.higgs, params={"lam": 1.0, "v": 1e77})
    path = tmp_path / "ew-1e77.json"
    save_model(cfg, path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, ""), out
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["break.vacuum.goldstone_hessian_flat"]["tol"] == pytest.approx(1e-7 * 8e154, rel=1e-12)
    m2 = (0.5 * 1e77) ** 2
    assert checks["masses.eigenbundle_reconstruction"]["tol"] == pytest.approx(1e-10 * m2, rel=1e-12)
    assert checks["masses.commutant"]["tol"] == pytest.approx(1e-12 * 0.5 * 1e77, rel=1e-12)


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
