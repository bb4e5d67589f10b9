import base64
import json
import re
import zlib

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


def dump_schema1(op, path):
    """The schema 1 container of earlier releases: entries as [re, im] text
    pairs, written entry by entry with json.dump."""
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


def b64(data):
    return base64.b64encode(data).decode("ascii")


def decode_entries(entries, side):
    """Independent decode of a schema 2 entries string."""
    raw = zlib.decompress(base64.b64decode(entries))
    return np.frombuffer(raw, dtype="<c16").reshape(side, side)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_entries_are_zlib_compressed_little_endian_complex128(tmp_path, ew_md, ew_frep):
    vacuum = build_vacuum_dirac(TorusLattice(n=1, L=3), build_clifford(1), ew_md, ew_frep)
    for op in (special_operator(), vacuum):
        dump_operator(op, tmp_path / "op.json")
        doc = json.loads((tmp_path / "op.json").read_text())
        assert same_bits(decode_entries(doc["entries"], op.matrix.shape[0]), op.matrix)


def test_round_trip_is_bit_for_bit(tmp_path):
    op = special_operator()
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path).matrix
    assert same_bits(back, op.matrix)
    assert np.signbit(back.real).sum() == np.signbit(op.matrix.real).sum() > 0
    assert back.flags.writeable and back.dtype == np.dtype(complex)


DROP = object()


def rewrite(path, **changes):
    doc = json.loads(path.read_text())
    for key, value in changes.items():
        if value is DROP:
            del doc[key]
        else:
            doc[key] = value(doc[key]) if callable(value) else value
    path.write_text(json.dumps(doc))


def restream(edit):
    """Change of the entries string: edit(matrix bytes, zlib stream) gives
    the bytes to base64-encode in its place."""

    def change(entries):
        stream = base64.b64decode(entries)
        return b64(edit(zlib.decompress(stream), stream))

    return change


@pytest.mark.parametrize(
    "change",
    [
        {"factor_dims": [4, 1, 2]},
        {"factor_dims": [4, 2]},
        {"factor_dims": None},
        {"factor_dims": [4, 2, -1]},
        {"factor_dims": [4, 2, 0]},
        {"factor_dims": [4, 2, True]},
        {"factor_dims": [4, 2, 1.0]},
        {"n": "one"},
        {"n": 1.5},
        {"n": True},
        {"sites_per_dim": 2.9},
        {"spacing": float("nan")},
        {"spacing": float("inf")},
        {"spacing": "0.5"},
        {"spacing": 0},
        {"kind": 5},
        {"kind": None},
        {"entries": DROP},
        {"spacing": DROP},
        {"entries": lambda e: [[0.5, 0.0]] * 64},
        {"entries": None},
        {"entries": lambda e: e[:12] + "*" + e[12:]},
        {"entries": lambda e: e[:12] + "\u00e9" + e[12:]},
        {"entries": restream(lambda raw, z: raw)},
        {"entries": restream(lambda raw, z: z[:-4])},
        {"entries": restream(lambda raw, z: z[: len(z) // 2])},
        {"entries": restream(lambda raw, z: z + b"\x00")},
        {"entries": restream(lambda raw, z: z + z)},
        {"entries": restream(lambda raw, z: zlib.compress(raw[:-16]))},
        {"entries": restream(lambda raw, z: zlib.compress(raw + raw[:16]))},
    ],
    ids=["spinor-dim", "two-dims", "no-dims", "negative-dim", "zero-dim", "bool-dim", "float-dim",
         "bad-n", "fractional-n", "bool-n", "fractional-L", "nan-spacing", "infinite-spacing",
         "string-spacing", "zero-spacing", "int-kind", "null-kind", "no-entries", "no-spacing",
         "entries-a-list", "entries-null", "non-base64-char", "non-ascii-char", "not-zlib",
         "truncated-stream", "half-stream", "trailing-byte", "second-stream", "16-bytes-short",
         "16-bytes-long"],
)
def test_operator_load_rejects_malformed_container(tmp_path, change):
    path = tmp_path / "op.json"
    dump_operator(special_operator(), path)
    rewrite(path, **change)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_operator(path)


def test_operator_load_bounds_the_inflated_size(tmp_path, monkeypatch):
    """A stream of zeros 100 times the matrix size is refused after at most
    side^2 * 16 + 1 inflated bytes."""
    path = tmp_path / "op.json"
    dump_operator(special_operator(), path)
    limit = 8 * 8 * 16 + 1
    rewrite(path, entries=b64(zlib.compress(bytes(100 * (limit - 1)))))
    inflated = []
    decompressobj = zlib.decompressobj

    class Recording:
        def __init__(self, *args, **kwargs):
            self.inner = decompressobj(*args, **kwargs)

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            inflated.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self.inner, name)

    def unbounded(*args, **kwargs):
        raise AssertionError("load_operator inflated without a bound")

    monkeypatch.setattr(zlib, "decompressobj", Recording)
    monkeypatch.setattr(zlib, "decompress", unbounded)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_operator(path)
    assert inflated and sum(inflated) <= limit


def test_operator_load_rejects_schema_1(tmp_path):
    path = tmp_path / "op.json"
    dump_schema1(special_operator(), path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported schema_version 1")):
        load_operator(path)


def test_operator_round_trip_exact(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2, a=0.5)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path)
    assert same_bits(back.matrix, op.matrix)
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
    assert doc["schema_version"] == 2
    assert doc["factor_dims"] == [4, 2, 3]
    assert isinstance(doc["entries"], str)
    assert decode_entries(doc["entries"], 24).shape == (24, 24)


def test_operator_load_rejects_bad_container(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="container"):
        load_operator(path)
    path.write_text(json.dumps(["torus-lattice-operator"]))
    with pytest.raises(ValueError, match="container"):
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
