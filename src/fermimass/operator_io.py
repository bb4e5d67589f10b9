"""Self-describing dump formats for lattice operators and spectra.

Operator container (JSON text, schema_version 3):

    {"format": "torus-lattice-operator", "schema_version": 3,
     "kind": "...", "n": 1, "sites_per_dim": 4, "spacing": 1.0,
     "derivative_kind": "fourier_spectral",
     "factor_dims": [n_sites, spinor_dim, internal_dim],
     "sites": [0, 1, ...], "per_site": false,
     "entries": "<base64 text>"}

The container holds the operator as LatticeOperator does, on its
support: sites are the ascending site offsets r_j, and spinor_dim is
2^n.  ``entries`` is one ASCII string,

    base64(zlib.compress(blocks as little-endian complex128 bytes, level 1)),

with blocks in C order, of shape (len(sites), F, F) for a stencil and
(n_sites, len(sites), F, F) when per_site, F = spinor_dim * internal_dim,
so every entry keeps its bits: signed zeros, subnormals, infinities and
NaN.  Neither the dump nor the load forms the N x N matrix; the loaded
operator is a stencil or a site-dependent operator as the dumped one was.
The loader inflates at most 16 * (n_sites if per_site else 1) *
len(sites) * F^2 + 1 bytes, whatever the stream would give, and raises a
ValueError naming the file for any container that does not have this
form, schema_version 1 and 2 (the full matrix) included.  A schema 2 file
is converted by loading it with commit 6922b10, the last that reads
schema 2, and dumping the operator again with this module; a schema 1
file goes through commit 7c9f074 first.  The dump's bytes depend on the
zlib build; the loaded blocks do not.  Spectra are CSV files with header
``index,eigenvalue`` and 17 significant digits, sorted ascending.
"""

import base64
import json
import math
import sys
import zlib

import numpy as np

from .lattice_dirac import LatticeOperator, TorusLattice
from .tolerances import shown

OPERATOR_FORMAT = "torus-lattice-operator"
OPERATOR_SCHEMA_VERSION = 3
HEADER_KEYS = ("n", "sites_per_dim", "spacing", "derivative_kind", "factor_dims", "sites",
               "per_site", "entries")


def dump_operator(op, path):
    """Write a lattice operator's sites and blocks to a self-describing JSON container."""
    lat = op.lattice
    packed = zlib.compress(np.ascontiguousarray(op.blocks, dtype="<c16"), 1)
    doc = {
        "format": OPERATOR_FORMAT,
        "schema_version": OPERATOR_SCHEMA_VERSION,
        "kind": op.kind,
        "n": lat.n,
        "sites_per_dim": lat.L,
        "spacing": lat.a,
        "derivative_kind": lat.derivative_kind,
        "factor_dims": [lat.n_sites, op.spinor_dim, op.internal_dim],
        "sites": op.sites.tolist(),
        "per_site": op.blocks.ndim == 4,
        "entries": base64.b64encode(packed).decode("ascii"),
    }
    # json.dump streams through the pure-Python encoder; json.dumps uses
    # the C one, and the bytes are the same
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _is_integer(value):
    # bool is an int subclass, but a JSON true is not a size
    return isinstance(value, int) and not isinstance(value, bool)


def _header(doc, path):
    """The container's lattice, factor dims, sites, per_site flag and kind,
    every header field checked."""

    def malformed(detail):
        return ValueError(f"{path}: malformed container header ({detail})")

    missing = [key for key in HEADER_KEYS if key not in doc]
    if missing:
        raise malformed(f"missing {', '.join(missing)}")
    n, L, a, dims = doc["n"], doc["sites_per_dim"], doc["spacing"], doc["factor_dims"]
    sites, per_site = doc["sites"], doc["per_site"]
    kind = doc.get("kind", "")
    if not (_is_integer(n) and _is_integer(L)):
        raise malformed(f"n and sites_per_dim must be integers, got {shown(n)} and {shown(L)}")
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        raise malformed(f"spacing must be a number, got {shown(a)}")
    if not (isinstance(dims, list) and len(dims) == 3 and all(_is_integer(v) and v >= 1 for v in dims)):
        raise malformed(f"factor_dims must be three positive integers, got {shown(dims)}")
    if not (isinstance(sites, list) and all(_is_integer(v) for v in sites)):
        raise malformed("sites must be a list of integers")
    if not isinstance(per_site, bool):
        raise malformed(f"per_site must be true or false, got {shown(per_site)}")
    if not isinstance(kind, str):
        raise malformed(f"kind must be a string, got {shown(kind)}")
    try:
        lat = TorusLattice(n=n, L=L, a=float(a), derivative_kind=doc["derivative_kind"])
    except (OverflowError, ValueError) as exc:
        raise malformed(exc) from exc
    n_sites, spinor_dim, internal_dim = dims
    if n_sites != lat.n_sites:
        raise ValueError(f"{path}: factor_dims[0] = {n_sites} does not match L^2n = {lat.n_sites}")
    if spinor_dim != 2 ** lat.n:
        raise ValueError(f"{path}: factor_dims[1] = {spinor_dim} does not match 2^n = {2 ** lat.n}")
    if any(not 0 <= r < n_sites for r in sites):
        raise ValueError(f"{path}: sites must lie in [0, {n_sites})")
    if any(r >= s for r, s in zip(sites, sites[1:])):
        raise ValueError(f"{path}: sites must be strictly ascending")
    return lat, spinor_dim, internal_dim, np.array(sites, dtype=np.intp), per_site, kind


def _entries(text, shape, path):
    """Decode the entries string to a writeable native complex array of this shape."""
    if not isinstance(text, str):
        raise ValueError(f"{path}: entries must be a base64 string, found {type(text).__name__}")
    try:
        packed = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{path}: entries are not base64 ({exc})") from exc
    expected = 16 * math.prod(shape)
    inflate = zlib.decompressobj()
    try:
        # never more than one byte past the blocks, whatever the stream holds
        raw = inflate.decompress(packed, min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"{path}: entries are not a zlib stream ({exc})") from exc
    if len(raw) != expected:
        found = f"more than {expected}" if len(raw) > expected else len(raw)
        raise ValueError(f"{path}: expected {expected} bytes of complex128 blocks, inflated {found}")
    if not inflate.eof:
        raise ValueError(f"{path}: entries end inside their zlib stream")
    if inflate.unused_data:
        raise ValueError(f"{path}: entries hold bytes after the end of their zlib stream")
    return np.frombuffer(raw, dtype="<c16").astype(complex).reshape(shape)


def load_operator(path):
    """Read a lattice operator dumped by dump_operator, held as it was dumped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to read")
    if not isinstance(doc, dict) or doc.get("format") != OPERATOR_FORMAT:
        raise ValueError(f"{path}: not a {OPERATOR_FORMAT} container")
    if doc.get("schema_version") != OPERATOR_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {shown(doc.get('schema_version'))}")
    lat, spinor_dim, internal_dim, sites, per_site, kind = _header(doc, path)
    F = spinor_dim * internal_dim
    shape = ((lat.n_sites,) if per_site else ()) + (sites.size, F, F)
    blocks = _entries(doc["entries"], shape, path)
    return LatticeOperator(lat, spinor_dim, internal_dim, sites, blocks, kind=kind)


def write_spectrum_csv(values, path):
    """Write eigenvalues to CSV, sorted ascending, 17 significant digits."""
    values = np.sort(np.asarray(values, dtype=float))
    rows = "".join([f"{i},{v:.16e}\n" for i, v in enumerate(values.tolist())])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue\n" + rows)


def read_spectrum_csv(path):
    """Read a spectrum CSV written by write_spectrum_csv.

    Blank lines are skipped; any other row must be ``index,eigenvalue``
    with the index counting the rows from 0, or a ValueError names the
    file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        header, *lines = fh.read().split("\n")
    header = header.strip()
    if header != "index,eigenvalue":
        raise ValueError(f"{path}: unexpected header {header!r}")
    values = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two fields index,eigenvalue, found {len(fields)}")
        index, value = fields
        if index.strip() != str(len(values)):
            raise ValueError(f"{path}:{lineno}: index {index!r} is not the row number {len(values)}")
        try:
            values.append(float(value))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: eigenvalue {value!r} is not a number") from None
    return np.array(values)
