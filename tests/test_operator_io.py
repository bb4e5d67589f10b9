import json
import re

import numpy as np
import pytest

from fermimass import (
    TorusLattice,
    build_clifford,
    build_vacuum_dirac,
    dump_operator,
    load_operator,
    read_spectrum_csv,
    spectrum,
    write_spectrum_csv,
)
from fermimass.lattice_dirac import LatticeOperator

# -0.0, subnormals, infinities, NaN, a repeating binary fraction and an
# integer-valued float beyond 2^53
SPECIAL = [-0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan, 1.0 / 3.0, 2.0 ** 60, 0.0, -1.5]


def special_operator():
    """An n=1, L=2 operator with internal dimension 1 (side 8) whose entries
    cycle through SPECIAL in their real and imaginary parts."""
    vals = np.array(SPECIAL * 13)
    m = (vals[:64] + 0j).reshape(8, 8)
    m.imag = vals[3:67].reshape(8, 8)
    return LatticeOperator(m, TorusLattice(n=1, L=2, a=0.5), 2, 1, kind="special")


def dump_oracle(op, path):
    """Oracle: the entry-by-entry list and json.dump, which streams through
    json's pure-Python encoder."""
    lat = op.lattice
    doc = {
        "format": "torus-lattice-operator",
        "schema_version": 1,
        "kind": op.kind,
        "n": lat.n,
        "sites_per_dim": lat.L,
        "spacing": lat.a,
        "derivative_kind": lat.derivative_kind,
        "factor_dims": [lat.n_sites, op.spinor_dim, op.internal_dim],
        "entries": [[float(v.real), float(v.imag)] for v in op.matrix.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def test_dump_bytes_match_the_entrywise_encoder(tmp_path, ew_md, ew_frep):
    vacuum = build_vacuum_dirac(TorusLattice(n=1, L=3), build_clifford(1), ew_md, ew_frep)
    for op in (special_operator(), vacuum):
        dump_operator(op, tmp_path / "op.json")
        dump_oracle(op, tmp_path / "oracle.json")
        assert (tmp_path / "op.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


def test_round_trip_is_bit_for_bit(tmp_path):
    op = special_operator()
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path).matrix
    assert back.shape == op.matrix.shape
    assert np.array_equal(back.view(np.uint64), op.matrix.view(np.uint64))
    assert np.signbit(back.real).sum() == np.signbit(op.matrix.real).sum() > 0


DROP = object()


def rewrite(path, **changes):
    doc = json.loads(path.read_text())
    for key, value in changes.items():
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value(doc[key]) if callable(value) else value
    path.write_text(json.dumps(doc))


def set_entry(i, value):
    def change(entries):
        entries[i] = value
        return entries

    return change


@pytest.mark.parametrize(
    "change",
    [
        {"entries": set_entry(5, "0.5")},
        {"entries": set_entry(5, None)},
        {"entries": set_entry(5, [0.5, "0.0"])},
        {"entries": set_entry(5, [0.5, None])},
        {"entries": set_entry(5, [0.5])},
        {"entries": set_entry(5, [0.5, 0.0, 0.0])},
        {"entries": set_entry(5, {"re": 0.5})},
        {"entries": lambda e: [v + [0.0] for v in e]},
        {"entries": "dense"},
        {"factor_dims": [4, 1, 2]},
        {"factor_dims": [4, 2]},
        {"factor_dims": None},
        {"n": "one"},
        {"entries": DROP},
        {"spacing": DROP},
    ],
    ids=["string-entry", "null-entry", "string-part", "null-part", "short-entry", "long-entry",
         "object-entry", "all-long", "entries-not-a-list", "spinor-dim", "two-dims", "no-dims",
         "bad-n", "no-entries", "no-spacing"],
)
def test_operator_load_rejects_malformed_container(tmp_path, change):
    path = tmp_path / "op.json"
    dump_operator(special_operator(), path)
    rewrite(path, **change)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_operator(path)


def test_operator_load_accepts_bool_and_int_entries(tmp_path):
    path = tmp_path / "op.json"
    dump_operator(special_operator(), path)
    rewrite(path, entries=lambda e: [[True, 2]] + [[0, False]] * (len(e) - 1))
    back = load_operator(path).matrix.reshape(-1)
    assert back[0] == 1.0 + 2.0j
    assert not np.any(back[1:])


def test_operator_round_trip_exact(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2, a=0.5)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path)
    assert np.array_equal(back.matrix, op.matrix)
    assert back.lattice == lat
    assert back.spinor_dim == op.spinor_dim
    assert back.internal_dim == op.internal_dim
    assert back.kind == op.kind


def test_operator_container_is_self_describing(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "torus-lattice-operator"
    assert doc["schema_version"] == 1
    assert doc["factor_dims"] == [4, 2, 3]
    assert len(doc["entries"]) == 24 * 24
    assert all(len(e) == 2 for e in doc["entries"][:10])


def test_operator_load_rejects_bad_container(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="container"):
        load_operator(path)
    path.write_text(json.dumps(["torus-lattice-operator"]))
    with pytest.raises(ValueError, match="container"):
        load_operator(path)


def test_operator_load_rejects_truncated_entries(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="entries"):
        load_operator(path)


def test_spectrum_csv_round_trip(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    vals = spectrum(op, square_first=True)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(vals, path)
    back = read_spectrum_csv(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back, np.sort(vals))


def test_spectrum_csv_format(tmp_path):
    path = tmp_path / "s.csv"
    write_spectrum_csv([2.0, 1.0 / 3.0], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue"
    assert lines[1].startswith("0,3.3333333333333331e-01")
    assert lines[2].startswith("1,2.0000000000000000e+00")
