"""Every lattice leaf of the reference model, and a seeded sample of its
other leaves, replaced by each of a list of hostile values: check and
verify-all end with exit code 0, 1 or 2, never with an uncaught exception
or a numpy warning, and with a message of under 300 characters."""

import json
import random
import warnings

import pytest

from fermimass import ew_reference
from fermimass.cli import main
from test_cli import _set

BAD = [float("nan"), float("inf"), -float("inf"), 1e300, 1e-300, -1, 0, 10 ** 400, True, "1", None, [], {}]
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
    return lattice + random.Random(0).sample(others, SAMPLED)


@pytest.mark.parametrize("path", fuzzed_paths(), ids=lambda p: ".".join(map(str, p)))
def test_hostile_leaf_ends_with_an_exit_code(capsys, tmp_path, path):
    model = tmp_path / "model.json"
    for value in BAD:
        doc = reference_doc()
        _set(doc, path, value)
        model.write_text(json.dumps(doc))
        for command in ("check", "verify-all"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--model", str(model)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (value, command)
            # no message echoes a long integer or a long list
            assert len(err) < 300, (value, command, err)
            assert not caught, (value, command, [str(w.message) for w in caught])
