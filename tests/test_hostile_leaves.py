"""Every lattice and algebra-label leaf of the reference model, and a
seeded sample of its other leaves, replaced by each of a list of hostile
values: check and verify-all end with exit code 0, 1 or 2, never with an
uncaught exception or a numpy warning, and with a message of under 300
characters.  So do a hostile key in each object of the file and a file
nested too deeply for the JSON reader."""

import json
import random
import warnings

import pytest

from fermimass import ew_reference
from fermimass.cli import main
from fermimass.tolerances import shown
from test_cli import _set

LONG = "x" * 100000


def nested(depth):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


BAD = [float("nan"), float("inf"), -float("inf"), 1e300, 1e-300, -1, 0, 10 ** 400, True, "1", None, [], {},
       LONG, [1.0] * 5000, nested(500)]
SAMPLED = 8


def leaves(doc, path=()):
    """(path, value) of every leaf of a JSON document, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from leaves(value, path + (key,))
    else:
        yield path, doc


def reference_doc():
    doc = ew_reference().to_json_dict()
    doc["lattice"]["sites_per_dim"] = 2
    return doc


def fuzzed_paths():
    paths = [path for path, _ in leaves(reference_doc())]
    lattice = [p for p in paths if p[0] == "lattice"]
    others = [p for p in paths if p[0] != "lattice"]
    algebra = [p for p in others if p[:2] in (("algebra", "label"), ("algebra", "generator_labels"))]
    sample = random.Random(0).sample(others, SAMPLED)
    return lattice + algebra + [p for p in sample if p not in algebra]


def assert_ends_with_an_exit_code(capsys, model, text, what):
    model.write_text(text)
    for command in ("check", "verify-all"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--model", str(model)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (what, command)
        # no message echoes a long integer, string or list, or a deep one
        assert len(err) < 300, (what, command, err)
        assert not caught, (what, command, [str(w.message) for w in caught])


@pytest.mark.parametrize("path", fuzzed_paths(), ids=lambda p: ".".join(map(str, p)))
def test_hostile_leaf_ends_with_an_exit_code(capsys, tmp_path, path):
    for value in BAD:
        doc = reference_doc()
        _set(doc, path, value)
        assert_ends_with_an_exit_code(capsys, tmp_path / "model.json", json.dumps(doc), shown(value))


@pytest.mark.parametrize("section", [(), ("algebra",), ("algebra", "representations"), ("higgs",),
                                     ("lattice",), ("tolerances",)],
                         ids=lambda p: ".".join(p) or "top-level")
def test_hostile_key_ends_with_an_exit_code(capsys, tmp_path, section):
    doc = reference_doc()
    doc["tolerances"] = {}
    _set(doc, section + (LONG,), 1.0)
    assert_ends_with_an_exit_code(capsys, tmp_path / "model.json", json.dumps(doc), section)


def test_a_file_nested_too_deeply_ends_with_an_exit_code(capsys, tmp_path):
    # an array 100000 deep inside higgs, which json.load cannot read
    text = json.dumps(reference_doc()).replace('{"rep": ', '{"deep": ' + "[" * 100000 + "]" * 100000 + ', "rep": ', 1)
    assert_ends_with_an_exit_code(capsys, tmp_path / "model.json", text, "deep")
