"""Self-describing dump formats for lattice operators and spectra.

Operator container (JSON text):

    {"format": "torus-lattice-operator", "schema_version": 1,
     "kind": "...", "n": 1, "sites_per_dim": 4, "spacing": 1.0,
     "derivative_kind": "fourier_spectral",
     "factor_dims": [n_sites, spinor_dim, internal_dim],
     "entries": [[re, im], ...]}

Entries are row-major over the full matrix, whose side is the product of
factor_dims, and spinor_dim is 2^n.  The writer encodes the whole document
with json's C encoder; the loader reads the entries as one float array and
raises a ValueError naming the file for any container that does not have
this form.  Spectra are CSV files with header ``index,eigenvalue`` and
17 significant digits, sorted ascending.
"""

import json

import numpy as np

from .lattice_dirac import LatticeOperator, TorusLattice

OPERATOR_FORMAT = "torus-lattice-operator"
OPERATOR_SCHEMA_VERSION = 1


def dump_operator(op, path):
    """Write a lattice operator to a self-describing JSON container."""
    lat = op.lattice
    M = op.matrix
    doc = {
        "format": OPERATOR_FORMAT,
        "schema_version": OPERATOR_SCHEMA_VERSION,
        "kind": op.kind,
        "n": lat.n,
        "sites_per_dim": lat.L,
        "spacing": lat.a,
        "derivative_kind": lat.derivative_kind,
        "factor_dims": [lat.n_sites, op.spinor_dim, op.internal_dim],
        "entries": np.stack([M.real.ravel(), M.imag.ravel()], 1).tolist(),
    }
    # json.dump streams through the pure-Python encoder; json.dumps uses
    # the C one, and the bytes are the same
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_operator(path):
    """Read a lattice operator dumped by dump_operator."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != OPERATOR_FORMAT:
        raise ValueError(f"{path}: not a {OPERATOR_FORMAT} container")
    if doc.get("schema_version") != OPERATOR_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {doc.get('schema_version')}")
    try:
        lat = TorusLattice(
            n=int(doc["n"]),
            L=int(doc["sites_per_dim"]),
            a=float(doc["spacing"]),
            derivative_kind=doc["derivative_kind"],
        )
        n_sites, spinor_dim, internal_dim = (int(v) for v in doc["factor_dims"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed container header ({type(exc).__name__}: {exc})") from exc
    if n_sites != lat.n_sites:
        raise ValueError(f"{path}: factor_dims[0] = {n_sites} does not match L^2n = {lat.n_sites}")
    if spinor_dim != 2 ** lat.n:
        raise ValueError(f"{path}: factor_dims[1] = {spinor_dim} does not match 2^n = {2 ** lat.n}")
    side = n_sites * spinor_dim * internal_dim
    if not isinstance(entries, list) or len(entries) != side * side:
        found = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ValueError(f"{path}: expected {side * side} entries, found {found}")
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged: entries of different lengths
        pairs = None
    if pairs is None or pairs.shape != (side * side, 2) or pairs.dtype.kind not in "biuf":
        raise ValueError(f"{path}: entries must be [re, im] pairs of numbers")
    flat = np.ascontiguousarray(pairs, dtype=float).view(complex)
    return LatticeOperator(
        flat.reshape(side, side), lat, spinor_dim, internal_dim, kind=doc.get("kind", "")
    )


def write_spectrum_csv(values, path):
    """Write eigenvalues to CSV, sorted ascending, 17 significant digits."""
    values = np.sort(np.asarray(values, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{v:.16e}\n")


def read_spectrum_csv(path):
    """Read a spectrum CSV written by write_spectrum_csv."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "index,eigenvalue":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            _, value = line.split(",")
            out.append(float(value))
    return np.asarray(out)
