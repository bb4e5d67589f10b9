import base64
import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from fermimass import (
    TorusLattice,
    bochner_laplacian,
    build_clifford,
    build_vacuum_connection,
    build_vacuum_dirac,
    dirac_potential,
    dump_operator,
    fluctuation_operator,
    gauge_transform,
    load_operator,
    read_spectrum_csv,
    spectrum,
    write_spectrum_csv,
)
from fermimass.lattice_dirac import LatticeOperator, _support, hermiticity_residual
from conftest import from_matrix
from test_lattice_dirac import THETA, site_unitaries, wilson_fields

# -0.0, subnormals, infinities, NaN, a repeating binary fraction and an
# integer-valued float beyond 2^53
SPECIAL = [-0.0, 5e-324, -2.5e-320, np.inf, -np.inf, np.nan, 1.0 / 3.0, 2.0 ** 60, 0.0, -1.5]


def special_operator():
    """An n=1, L=2 operator with internal dimension 1 (side 8) whose entries
    cycle through SPECIAL in their real and imaginary parts, held per site
    on the full support: 4 sites, blocks of shape (4, 4, 2, 2)."""
    vals = np.array(SPECIAL * 13)
    m = (vals[:64] + 0j).reshape(8, 8)
    m.imag = vals[3:67].reshape(8, 8)
    return from_matrix(m, TorusLattice(n=1, L=2, a=0.5), 2, 1, kind="special")


def schema_doc(op, version, entries):
    """The header fields that schemas 1 and 2 share, with these entries."""
    lat = op.lattice
    return {
        "format": "torus-lattice-operator",
        "schema_version": version,
        "kind": op.kind,
        "n": lat.n,
        "sites_per_dim": lat.L,
        "spacing": lat.a,
        "derivative_kind": lat.derivative_kind,
        "factor_dims": [lat.n_sites, op.spinor_dim, op.internal_dim],
        "entries": entries,
    }


def dump_schema1(op, path):
    """The schema 1 container of earlier releases: entries as [re, im] text
    pairs, written entry by entry with json.dump."""
    doc = schema_doc(op, 1, [[float(v.real), float(v.imag)] for v in op.matrix.reshape(-1)])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def dump_schema2(op, path):
    """The schema 2 container of earlier releases: the full matrix as
    zlib-compressed little-endian complex128 bytes."""
    packed = zlib.compress(np.ascontiguousarray(op.matrix, dtype="<c16"), 1)
    path.write_text(json.dumps(schema_doc(op, 2, b64(packed)), sort_keys=True) + "\n")


def b64(data):
    return base64.b64encode(data).decode("ascii")


def decode_entries(entries, shape):
    """Independent decode of a schema 3 entries string."""
    raw = zlib.decompress(base64.b64decode(entries))
    return np.frombuffer(raw, dtype="<c16").reshape(shape)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


@pytest.fixture(scope="module")
def operators(ew_cfg, ew_vac, ew_md, ew_frep, ew_ymap):
    """Every held form the library builds, plus special_operator(), by name."""
    lat, cl = TorusLattice(n=1, L=3, a=0.5), build_clifford(1)
    fields = wilson_fields(ew_cfg, ew_vac, THETA[:2])
    vacuum = build_vacuum_dirac(lat, cl, ew_md, ew_frep, fields)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, ew_frep, fields))
    rng = np.random.default_rng(3)
    A = 0.3 * rng.standard_normal((lat.dim, lat.n_sites, ew_frep.total.dim_g))
    phi = 0.3 * (rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2)))
    split = (ew_vac.goldstone_basis, ew_vac.physical_basis)
    fl = fluctuation_operator(vacuum, A, phi, ew_ymap, cl, ew_frep, 0.5, unitary_split=split)
    return {
        "vacuum-wilson": vacuum,
        "potential": dirac_potential(vacuum, lap),
        "fluctuation": fl,
        "gauge-transform": gauge_transform(fl, site_unitaries(ew_frep, lat.n_sites, 3)),
        "special": special_operator(),
    }


ROUND_TRIP = ["vacuum-wilson", "potential", "fluctuation", "gauge-transform", "special"]


def test_entries_are_zlib_compressed_little_endian_complex128_blocks(tmp_path, operators):
    for name in ("vacuum-wilson", "special"):
        op = operators[name]
        dump_operator(op, tmp_path / "op.json")
        doc = json.loads((tmp_path / "op.json").read_text())
        assert doc["sites"] == op.sites.tolist()
        assert doc["per_site"] is (op.blocks.ndim == 4)
        assert same_bits(decode_entries(doc["entries"], op.blocks.shape), op.blocks)


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_round_trip_is_bit_for_bit(tmp_path, operators, name):
    op = operators[name]
    path = tmp_path / "op.json"
    dump_operator(op, path)
    back = load_operator(path)
    assert np.array_equal(back.sites, op.sites) and back.sites.dtype == op.sites.dtype
    assert back.blocks.ndim == op.blocks.ndim and same_bits(back.blocks, op.blocks)
    assert same_bits(back.matrix, op.matrix)
    assert (back.lattice, back.spinor_dim, back.internal_dim, back.kind) == (
        op.lattice, op.spinor_dim, op.internal_dim, op.kind)
    assert back.blocks.flags.writeable and back.blocks.dtype == np.dtype(complex)


def test_round_trip_keeps_the_special_values(tmp_path, operators):
    op = operators["special"]
    dump_operator(op, tmp_path / "op.json")
    back = load_operator(tmp_path / "op.json").matrix
    assert np.signbit(back.real).sum() == np.signbit(op.matrix.real).sum() > 0
    assert np.isnan(back).sum() == np.isnan(op.matrix).sum() > 0


@pytest.mark.parametrize("name", ["vacuum-wilson", "potential"])
def test_a_loaded_stencil_is_a_stencil(tmp_path, operators, name):
    op = operators[name]
    dump_operator(op, tmp_path / "op.json")
    back = load_operator(tmp_path / "op.json")
    sites, blocks = _support(back)
    assert blocks.ndim == 3 and np.array_equal(sites, op.sites)
    assert hermiticity_residual(back) == hermiticity_residual(op)
    if name == "vacuum-wilson":  # i * V is anti-Hermitian: V has no spectrum here
        got, want = spectrum(back, square_first=True), spectrum(op, square_first=True)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def deflate_state_bytes():
    """The traced bytes of zlib's level-1 deflate state, allocated by every
    dump whatever the size of the operator (about 0.3 MB)."""
    tracemalloc.start()
    try:
        zlib.compress(b"", 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_and_load_form_no_dense_matrix(tmp_path, monkeypatch, ew_vac, ew_md, ew_frep, ew_ymap):
    # the vacuum at n=2, L=4 (N = 3072, a 151 MB matrix) and a fluctuation
    # at n=1, L=16 (N = 1536, 37.7 MB) against 4 copies of their blocks
    # (30 KB and 4.6 MB) and zlib's fixed deflate state
    def dense_fill(op):
        raise AssertionError(f"the dense matrix of {op.kind!r} was filled in")

    vacuum = build_vacuum_dirac(TorusLattice(n=2, L=4), build_clifford(2), ew_md, ew_frep)
    lat, cl = TorusLattice(n=1, L=16), build_clifford(1)
    rng = np.random.default_rng(16)
    phi = 0.3 * (rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2)))
    fl = fluctuation_operator(build_vacuum_dirac(lat, cl, ew_md, ew_frep), None, phi, ew_ymap, cl,
                              ew_frep, 0.5, unitary_split=(ew_vac.goldstone_basis, ew_vac.physical_basis))
    monkeypatch.setattr(LatticeOperator, "matrix", property(dense_fill))
    deflate = deflate_state_bytes()
    for op in (vacuum, fl):
        S, nnz, F = op.lattice.n_sites, op.sites.size, op.fiber_dim
        tracemalloc.start()
        try:
            dump_operator(op, tmp_path / "op.json")
            back = load_operator(tmp_path / "op.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * (S if op.blocks.ndim == 4 else 1) * nnz * F * F + deflate
        assert same_bits(back.blocks, op.blocks)


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
    """Change of the entries string: edit(block bytes, zlib stream) gives
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
        {"factor_dims": [4, 2, 2]},
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
        {"sites": DROP},
        {"per_site": DROP},
        {"sites": "0,1,2,3"},
        {"sites": None},
        {"sites": [0, 1.0, 2, 3]},
        {"sites": [0, True, 2, 3]},
        {"sites": [0, 2, 1, 3]},
        {"sites": [0, 1, 1, 3]},
        {"sites": [-1, 0, 1, 2]},
        {"sites": [0, 1, 2, 4]},
        {"sites": [0, 1, 2]},
        {"per_site": 1},
        {"per_site": "true"},
        {"per_site": None},
        {"per_site": False},
        {"entries": lambda e: [[0.5, 0.0]] * 64},
        {"entries": None},
        {"entries": lambda e: e[:12] + "*" + e[12:]},
        {"entries": lambda e: e[:12] + "é" + e[12:]},
        {"entries": restream(lambda raw, z: raw)},
        {"entries": restream(lambda raw, z: z[:-4])},
        {"entries": restream(lambda raw, z: z[: len(z) // 2])},
        {"entries": restream(lambda raw, z: z + b"\x00")},
        {"entries": restream(lambda raw, z: z + z)},
        {"entries": restream(lambda raw, z: zlib.compress(raw[:-16]))},
        {"entries": restream(lambda raw, z: zlib.compress(raw + raw[:16]))},
    ],
    ids=["spinor-dim", "two-dims", "no-dims", "negative-dim", "zero-dim", "bool-dim", "float-dim",
         "internal-dim", "bad-n", "fractional-n", "bool-n", "fractional-L", "nan-spacing",
         "infinite-spacing", "string-spacing", "zero-spacing", "int-kind", "null-kind", "no-entries",
         "no-spacing", "no-sites", "no-per-site", "sites-a-string", "sites-null", "float-site",
         "bool-site", "sites-descending", "sites-repeated", "negative-site", "site-past-end",
         "sites-one-short", "per-site-int", "per-site-string", "per-site-null", "per-site-false",
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


@pytest.mark.parametrize(
    "change",
    [
        {"per_site": True},
        {"entries": restream(lambda raw, z: zlib.compress(raw[:-16]))},
        {"entries": restream(lambda raw, z: zlib.compress(raw + raw[:16]))},
    ],
    ids=["per-site-true", "16-bytes-short", "16-bytes-long"],
)
def test_stencil_load_rejects_malformed_container(tmp_path, operators, change):
    path = tmp_path / "op.json"
    dump_operator(operators["vacuum-wilson"], path)
    rewrite(path, **change)
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected")):
        load_operator(path)


@pytest.mark.parametrize("name", ["special", "vacuum-wilson"])
def test_operator_load_bounds_the_inflated_size(tmp_path, monkeypatch, operators, name):
    """A stream of zeros 100 times the blocks' size is refused after at most
    16 * (n_sites if per_site else 1) * len(sites) * F^2 + 1 inflated bytes."""
    op = operators[name]
    path = tmp_path / "op.json"
    dump_operator(op, path)
    limit = op.blocks.size * 16 + 1
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


@pytest.mark.parametrize("version, dump", [(1, dump_schema1), (2, dump_schema2)])
def test_operator_load_rejects_earlier_schemas(tmp_path, version, dump):
    path = tmp_path / "op.json"
    dump(special_operator(), path)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported schema_version {version}")):
        load_operator(path)


def test_operator_container_is_self_describing(tmp_path, ew_md, ew_frep):
    lat = TorusLattice(n=1, L=2)
    cl = build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    path = tmp_path / "op.json"
    dump_operator(op, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "torus-lattice-operator"
    assert doc["schema_version"] == 3
    assert doc["factor_dims"] == [4, 2, 3]
    # the axis lines through the origin of the 2 x 2 torus
    assert doc["sites"] == [0, 1, 2] and doc["per_site"] is False
    assert isinstance(doc["entries"], str)
    assert decode_entries(doc["entries"], (3, 6, 6)).shape == (3, 6, 6)


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


@pytest.mark.parametrize(
    "body, line, detail",
    [
        ("0,1.0\n1,abc\n", 3, "eigenvalue 'abc' is not a number"),
        ("0,1.0,3\n", 2, "expected two fields index,eigenvalue, found 3"),
        ("0.5\n", 2, "expected two fields index,eigenvalue, found 1"),
        ("0,1.0\n2,3.0\n", 3, "index '2' is not the row number 1"),
        ("1,1.0\n", 2, "index '1' is not the row number 0"),
        ("0,1.5\n\n1,abc\n", 4, "eigenvalue 'abc' is not a number"),
    ],
    ids=["not-a-number", "three-fields", "one-field", "skipped-index", "first-index", "after-blank"],
)
def test_spectrum_csv_reader_names_the_file_and_line_of_a_malformed_row(tmp_path, body, line, detail):
    path = tmp_path / "s.csv"
    path.write_text("index,eigenvalue\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {detail}")):
        read_spectrum_csv(path)
