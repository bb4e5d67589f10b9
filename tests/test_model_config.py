import json
from pathlib import Path

import numpy as np
import pytest

from fermimass import ModelError, ew_reference, load_model, resolve_model, save_model
from fermimass.model_config import ModelConfig, decode_array, encode_complex, validate_model
from fermimass.tolerances import DEFAULT

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_reference_model_validates():
    cfg = ew_reference()
    validate_model(cfg)


def test_round_trip_save_load(tmp_path):
    cfg = ew_reference()
    path = tmp_path / "model.json"
    save_model(cfg, path)
    assert path.read_bytes() == (REPO_ROOT / "models" / "ew_reference.json").read_bytes()
    back = load_model(path)
    assert back == cfg


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 5)])
def test_complex_arrays_round_trip_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    parts = rng.standard_normal((2,) + shape)
    # signed zeros and subnormals in both parts
    parts.reshape(2, -1)[:, :4] = [[-0.0, 0.0, 5e-324, -2.5e-310], [0.0, -0.0, -5e-324, 1e-315]]
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = parts
    back = decode_array(json.loads(json.dumps(encode_complex(a))), "a", shape)
    assert back.dtype == complex and back.shape == shape
    assert back.tobytes() == a.tobytes()


def test_shipped_reference_file_matches_registry():
    cfg = load_model(REPO_ROOT / "models" / "ew_reference.json")
    assert cfg == ew_reference()


def test_registry_resolution():
    cfg = resolve_model("ew-reference")
    assert cfg.label == "ew-reference"


def test_truncated_file_is_a_parse_error(tmp_path):
    path = tmp_path / "model.json"
    save_model(ew_reference(), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelError, match="invalid JSON"):
        load_model(path)


def test_missing_file():
    with pytest.raises(ModelError, match="no such file"):
        load_model("/definitely/not/here.json")


def _dump_and_expect(tmp_path, doc, match):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match=match):
        load_model(path)


def test_non_antihermitian_generator_named(tmp_path):
    cfg = ew_reference()
    doc = cfg.to_json_dict()
    # break generator 2 of the higgs doublet: make it Hermitian
    doc["algebra"]["representations"]["higgs_doublet"][2] = [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [-1.0, 0.0]],
    ]
    _dump_and_expect(tmp_path, doc, r"higgs_doublet.*generator 2.*anti-Hermitian")


def test_wrong_schema_version(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["schema_version"] = 99
    _dump_and_expect(tmp_path, doc, "schema_version")


def test_missing_key_addressed(tmp_path):
    doc = ew_reference().to_json_dict()
    del doc["higgs"]["seed"]
    _dump_and_expect(tmp_path, doc, "higgs.seed")


def test_bad_complex_pair_addressed(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["higgs"]["seed"][0] = [1.0]
    _dump_and_expect(tmp_path, doc, r"higgs.seed\[0\]")


def test_unknown_potential_kind(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["higgs"]["potential"] = "coleman_weinberg"
    _dump_and_expect(tmp_path, doc, "potential")


def test_unbounded_polynomial_rejected(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["higgs"]["potential"] = "custom_polynomial"
    doc["higgs"]["params"] = [0.0, 1.0, -2.0]
    _dump_and_expect(tmp_path, doc, "bounded")


def test_yukawa_shape_mismatch(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["yukawa"]["tensor"] = doc["yukawa"]["tensor"][:1]
    _dump_and_expect(tmp_path, doc, "yukawa.tensor")


def test_wilson_axis_count_checked(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["wilson"]["theta"] = [[0.25]]
    _dump_and_expect(tmp_path, doc, "wilson.theta")


def test_grading_field_validated(tmp_path):
    doc = ew_reference().to_json_dict()
    doc["fermions"]["grading"] = [1, -1, -1]
    _dump_and_expect(tmp_path, doc, "grading")
    doc["fermions"]["grading"] = [1, 1, -1]
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    load_model(path)


def test_tolerance_overrides():
    cfg = ew_reference()
    cfg.tolerances = {"dispersion": 1e-6}
    tol = cfg.build_tolerances()
    assert tol.dispersion == 1e-6
    assert tol.commutant == DEFAULT.commutant
    scaled = cfg.build_tolerances().scale(10.0)
    assert scaled.dispersion == pytest.approx(1e-5)


@pytest.mark.parametrize("name", ["disperzion", "density_identity", "potential_constancy"])
def test_unknown_tolerance_rejected(name):
    # a misspelt knob, and the two knobs of the removed lattice checks
    cfg = ew_reference()
    cfg.tolerances = {name: 1e-6}
    with pytest.raises(ModelError, match=name):
        cfg.build_tolerances()


def test_non_invariant_potential_rejected():
    # a representation under which |z|^2 is not preserved cannot carry the
    # potential: non-anti-Hermitian generators are caught first, so build a
    # config whose higgs rep differs in dimension from its seed instead
    cfg = ew_reference()
    doc = cfg.to_json_dict()
    doc["higgs"]["seed"] = [[0.0, 0.0]]
    with pytest.raises(ModelError, match="seed"):
        validate_model(ModelConfig.from_json_dict(doc))


def test_builders_produce_consistent_objects():
    cfg = ew_reference()
    higgs = cfg.build_higgs_model()
    frep = cfg.build_fermion_rep()
    ymap = cfg.build_yukawa(frep)
    lat = cfg.build_lattice()
    cl = cfg.build_clifford()
    assert higgs.rep.rep_dim == 2
    assert frep.n_total == 3
    assert ymap.tensor.shape == (2, 1, 2)
    assert lat.n == cl.n == 1
    assert np.asarray(cfg.higgs_seed()).shape == (2,)


def test_build_parses_every_section():
    cfg = ew_reference()
    cfg.tolerances = {"closure": 1e-9}
    built = cfg.build()
    assert (built.lattice.n, built.lattice.L) == (1, 4)
    assert built.theta.tolist() == [[0.25], [0.0]]
    assert built.tol == DEFAULT.with_overrides({"closure": 1e-9})
    # the representations are checked against the model's tolerances
    assert built.higgs.rep.tol is built.tol and built.frep.rep_L.tol is built.tol
    cfg.wilson = None
    assert cfg.build().theta is None


def test_invariance_override_reaches_validation():
    # the reference potential's invariance residual is about 1e-15
    cfg = ew_reference()
    cfg.tolerances = {"invariance": 1e-30}
    with pytest.raises(ModelError, match="not invariant"):
        validate_model(cfg)
