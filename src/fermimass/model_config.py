"""Model files: schema, validation, and construction of runtime objects.

A model file is JSON.  Complex numbers are explicit [re, im] pairs,
matrices are nested row-major lists of such pairs, and no expressions
are evaluated, so every physics input is auditable as written.  Top
level keys:

    schema_version   integer, currently 1
    algebra          {label, generator_labels, representations}
    higgs            {rep, potential, params, seed}
    fermions         {rep_left, rep_right, [grading]}
    yukawa           {tensor, [conjugate_higgs]}
    lattice          {n, sites_per_dim, spacing, derivative}
    wilson           optional {theta}; rows are per-axis coefficients
                     over the isotropy basis of the computed vacuum
    tolerances       optional overrides, keyed by Tolerances field names

``algebra.representations`` maps a name to the list, one entry per
generator, of rep_dim x rep_dim matrices.  All numeric invariants
(anti-Hermiticity, closure, bounded potential, tensor shapes, finite
numbers) are re-validated on build and reported with the JSON path of the
offending entry; so is any key an object of the file does not take.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import build_clifford
from .group_rep import LieAlgebraRep
from .higgs_vacuum import HiggsModel, invariance_residual
from .lattice_dirac import DERIVATIVE_KINDS, TorusLattice
from .tolerances import DEFAULT, Tolerances
from .yukawa_mass import ChiralFermionRep, YukawaMap

SCHEMA_VERSION = 1


class ModelError(ValueError):
    """A model file failed schema or invariant validation."""


def encode_complex_matrix(m):
    """Nested row-major [re, im] pairs for a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def encode_complex_vector(z):
    z = np.asarray(z, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in z]


def _real(v):
    """v as a float, or None unless it is a finite JSON number."""
    # bool is an int subclass, but a JSON true is not a number
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if math.isfinite(v) else None


def _pair(obj, path):
    parts = [_real(v) for v in obj] if isinstance(obj, (list, tuple)) and len(obj) == 2 else [None]
    if None in parts:
        raise ModelError(f"{path}: expected a [re, im] pair of finite numbers, got {obj!r}")
    return complex(*parts)


def decode_complex_vector(obj, path, length=None):
    if not isinstance(obj, list):
        raise ModelError(f"{path}: expected a list of [re, im] pairs")
    vec = np.array([_pair(v, f"{path}[{i}]") for i, v in enumerate(obj)])
    if length is not None and vec.shape[0] != length:
        raise ModelError(f"{path}: expected length {length}, got {vec.shape[0]}")
    return vec


def decode_complex_matrix(obj, path, shape=None):
    if not isinstance(obj, list) or not obj:
        raise ModelError(f"{path}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ModelError(f"{path}[{i}]: expected a row of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ModelError(f"{path}[{i}]: ragged row, expected {width} entries")
        rows.append([_pair(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    m = np.array(rows)
    if shape is not None and m.shape != shape:
        raise ModelError(f"{path}: expected shape {shape}, got {m.shape}")
    return m


def _require(mapping, key, path, kind=None):
    if not isinstance(mapping, dict):
        raise ModelError(f"{path}: expected an object")
    if key not in mapping:
        raise ModelError(f"{path}.{key}: missing")
    value = mapping[key]
    # bool is an int subclass, but a JSON true is not a number
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ModelError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def _section(mapping, path, keys):
    """mapping, an object whose keys are all among keys."""
    if not isinstance(mapping, dict):
        raise ModelError(f"{path}: expected an object")
    unknown = [key for key in mapping if key not in keys]
    if unknown:
        raise ModelError(f"{path}.{unknown[0]}: unknown key (known: {', '.join(keys)})")
    return mapping


@dataclass(frozen=True)
class BuiltModel:
    """The runtime objects of a model file, each section parsed once by
    ModelConfig.build."""

    higgs: HiggsModel
    seed: np.ndarray
    frep: ChiralFermionRep
    ymap: YukawaMap
    lattice: TorusLattice
    # wilson.theta as a (2n, width) array, or None without a Wilson line
    theta: np.ndarray
    # DEFAULT with the model's overrides, unscaled
    tol: Tolerances

    def wilson_fields(self, vac):
        """The Wilson line's fields on the fermions, or None without a line.

        A_a is the algebra element theta[a] @ B in the fermion
        representation, with B the (dim_iso, dim_g) isotropy basis of vac:
        a (2n, N_F, N_F) stack of anti-Hermitian matrices.
        """
        if self.theta is None:
            return None
        if self.theta.shape[1] != vac.isotropy.dim:
            raise ModelError(
                f"wilson.theta: rows have {self.theta.shape[1]} coefficients, the vacuum isotropy "
                f"algebra has dimension {vac.isotropy.dim}"
            )
        basis = np.reshape(vac.isotropy.basis, (vac.isotropy.dim, self.frep.total.dim_g))
        return self.frep.total.element(self.theta @ basis)


@dataclass
class ModelConfig:
    """Plain-data mirror of a model file; build() parses it into runtime objects."""

    schema_version: int
    label: str
    generator_labels: list
    representations: dict
    higgs: dict
    fermions: dict
    yukawa: dict
    lattice: dict
    wilson: dict = None
    tolerances: dict = field(default_factory=dict)

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        doc = {
            "schema_version": self.schema_version,
            "algebra": {
                "label": self.label,
                "generator_labels": list(self.generator_labels),
                "representations": self.representations,
            },
            "higgs": self.higgs,
            "fermions": self.fermions,
            "yukawa": self.yukawa,
            "lattice": self.lattice,
        }
        if self.wilson is not None:
            doc["wilson"] = self.wilson
        if self.tolerances:
            doc["tolerances"] = self.tolerances
        return doc

    @classmethod
    def from_json_dict(cls, doc, source="<model>"):
        if not isinstance(doc, dict):
            raise ModelError(f"{source}: top level must be an object")
        version = _require(doc, "schema_version", source, int)
        if version != SCHEMA_VERSION:
            raise ModelError(
                f"{source}.schema_version: {version} unsupported, this build reads {SCHEMA_VERSION}"
            )
        _section(doc, source, ("schema_version", "algebra", "higgs", "fermions", "yukawa",
                               "lattice", "wilson", "tolerances"))
        algebra = _section(_require(doc, "algebra", source, dict), f"{source}.algebra",
                           ("label", "generator_labels", "representations"))
        label = _require(algebra, "label", f"{source}.algebra", str)
        labels = _require(algebra, "generator_labels", f"{source}.algebra", list)
        reps = _require(algebra, "representations", f"{source}.algebra", dict)
        cfg = cls(
            schema_version=version,
            label=label,
            generator_labels=labels,
            representations=reps,
            higgs=_require(doc, "higgs", source, dict),
            fermions=_require(doc, "fermions", source, dict),
            yukawa=_require(doc, "yukawa", source, dict),
            lattice=_require(doc, "lattice", source, dict),
            wilson=doc.get("wilson"),
            tolerances=doc.get("tolerances", {}),
        )
        return cfg

    # -- builders -----------------------------------------------------

    def build_rep(self, name, tol=None):
        """The named representation, its generators checked against tol,
        by default the model's tolerances."""
        path = f"algebra.representations.{name}"
        if name not in self.representations:
            raise ModelError(f"{path}: representation not defined")
        entry, dim_g = self.representations[name], len(self.generator_labels)
        if not isinstance(entry, list) or len(entry) != dim_g:
            raise ModelError(f"{path}: expected one matrix per generator ({dim_g})")
        gens = []
        first = decode_complex_matrix(entry[0], f"{path}[0]")
        if first.shape[0] != first.shape[1]:
            raise ModelError(f"{path}[0]: matrix is not square, shape {first.shape}")
        gens.append(first)
        for k in range(1, dim_g):
            gens.append(decode_complex_matrix(entry[k], f"{path}[{k}]", shape=first.shape))
        if tol is None:
            tol = self.build_tolerances()
        try:
            return LieAlgebraRep(generators=tuple(gens), label=name, tol=tol)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    def build(self):
        """The model's runtime objects, each section parsed once, in the order
        that fixes a bad file's first error: generator labels, representations
        (the first parses the tolerances their closure checks read), higgs,
        fermions, yukawa, lattice and wilson.theta.  fermions.grading is
        only a consistency check, accepted only as [1] * n_left + [-1] *
        n_right; the chirality of each fermion follows from rep_left and
        rep_right, and nothing reads the key."""
        labels = self.generator_labels
        if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
            raise ModelError("algebra.generator_labels: expected a list of strings")
        if not labels:
            raise ModelError("algebra.generator_labels: at least one generator required")
        reps, tol = {}, None
        for name in self.representations:
            reps[name] = self.build_rep(name, tol)
            tol = reps[name].tol

        def rep(section, path, key):
            name = _require(section, key, path, str)
            # build_rep raises the error naming an undefined representation
            return reps[name] if name in reps else self.build_rep(name)

        path = "higgs"
        _section(self.higgs, path, ("rep", "potential", "params", "seed"))
        higgs_rep = rep(self.higgs, path, "rep")
        kind = _require(self.higgs, "potential", path, str)
        params_obj = _require(self.higgs, "params", path)
        if kind == "mexican_hat":
            if not isinstance(params_obj, dict) or set(params_obj) != {"lam", "v"}:
                raise ModelError(f"{path}.params: mexican_hat takes exactly {{lam, v}}")
            named = {f"{path}.params.{k}": params_obj[k] for k in ("lam", "v")}
        elif kind == "custom_polynomial":
            if not isinstance(params_obj, list) or not params_obj:
                raise ModelError(f"{path}.params: custom_polynomial takes ascending coefficients")
            named = {f"{path}.params[{i}]": c for i, c in enumerate(params_obj)}
        else:
            raise ModelError(f"{path}.potential: unknown kind {kind!r}")
        for where, value in named.items():
            if _real(value) is None:
                raise ModelError(f"{where}: expected a finite real number, got {value!r}")
        params = tuple(named.values())
        try:
            higgs = HiggsModel(rep=higgs_rep, potential_kind=kind, params=params)
        except ValueError as exc:
            raise ModelError(f"{path}.params: {exc}") from exc
        nh = higgs_rep.rep_dim
        seed = decode_complex_vector(_require(self.higgs, "seed", path), "higgs.seed", length=nh)

        path = "fermions"
        _section(self.fermions, path, ("rep_left", "rep_right", "grading"))
        rep_l = rep(self.fermions, path, "rep_left")
        rep_r = rep(self.fermions, path, "rep_right")
        try:
            frep = ChiralFermionRep(rep_L=rep_l, rep_R=rep_r)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc
        grading = self.fermions.get("grading")
        if grading is not None:
            want = [1] * frep.n_left + [-1] * frep.n_right
            if not isinstance(grading, list) or grading != want:
                raise ModelError(f"{path}.grading: expected {want} for this left/right split")

        path = "yukawa"
        _section(self.yukawa, path, ("tensor", "conjugate_higgs"))
        raw = _require(self.yukawa, "tensor", path, list)
        nl, nr = frep.n_left, frep.n_right
        if len(raw) != nl:
            raise ModelError(f"{path}.tensor: expected {nl} left slots, got {len(raw)}")
        tensor = np.zeros((nl, nr, nh), dtype=complex)
        for l in range(nl):
            if not isinstance(raw[l], list) or len(raw[l]) != nr:
                raise ModelError(f"{path}.tensor[{l}]: expected {nr} right slots")
            for r in range(nr):
                tensor[l, r] = decode_complex_vector(
                    raw[l][r], f"{path}.tensor[{l}][{r}]", length=nh
                )
        flags = self.yukawa.get("conjugate_higgs", [False] * nh)
        if not isinstance(flags, list) or len(flags) != nh or not all(isinstance(f, bool) for f in flags):
            raise ModelError(f"{path}.conjugate_higgs: expected {nh} booleans")
        ymap = YukawaMap(tensor=tensor, conj_flags=tuple(flags))

        lattice = self.build_lattice()
        return BuiltModel(higgs, seed, frep, ymap, lattice, self.wilson_theta(lattice.dim), tol)

    # the forwarding builders below each parse the whole model anew

    def build_higgs_model(self):
        return self.build().higgs

    def higgs_seed(self):
        return self.build().seed

    def build_fermion_rep(self):
        return self.build().frep

    def build_yukawa(self, frep=None):
        """The coupling map; frep is accepted for older callers and ignored."""
        return self.build().ymap

    def build_lattice(self):
        path = "lattice"
        _section(self.lattice, path, ("n", "sites_per_dim", "spacing", "derivative"))
        n = _require(self.lattice, "n", path, int)
        L = _require(self.lattice, "sites_per_dim", path, int)
        a = _require(self.lattice, "spacing", path, (int, float))
        if not 0 < a < np.inf:  # NaN fails both comparisons
            raise ModelError(f"{path}.spacing: expected a finite positive number, got {a!r}")
        kind = self.lattice.get("derivative", "fourier_spectral")
        if kind not in DERIVATIVE_KINDS:
            raise ModelError(f"{path}.derivative: unknown kind {kind!r}")
        try:
            return TorusLattice(n=n, L=L, a=float(a), derivative_kind=kind)
        except (OverflowError, ValueError) as exc:
            raise ModelError(f"{path}: {exc}") from exc

    def build_clifford(self):
        return build_clifford(self.build_lattice().n)

    def wilson_theta(self, dim):
        """wilson.theta as a (dim, width) array, or None without a Wilson line.

        One row per lattice axis, all of one width, each entry a finite
        real number; BuiltModel.wilson_fields checks the width.
        """
        if self.wilson is None:
            return None
        path = "wilson.theta"
        theta = _require(_section(self.wilson, "wilson", ("theta",)), "theta", "wilson", list)
        if len(theta) != dim:
            raise ModelError(f"{path}: expected {dim} axis rows, got {len(theta)}")
        rows = []
        for a, row in enumerate(theta):
            values = [_real(v) for v in row] if isinstance(row, list) else [None]
            if None in values:
                raise ModelError(f"{path}[{a}]: expected a list of finite real coefficients")
            rows.append(values)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ModelError(f"{path}: ragged rows")
        return np.array(rows, dtype=float)

    def build_wilson(self, vac):
        return self.build().wilson_fields(vac)

    def build_tolerances(self):
        if not isinstance(self.tolerances, dict):
            raise ModelError(f"tolerances: expected an object, got {type(self.tolerances).__name__}")
        try:
            return DEFAULT.with_overrides(self.tolerances)
        except ValueError as exc:
            raise ModelError(f"tolerances: {exc}") from exc


def validate_model(cfg):
    """cfg.build(), its potential checked for invariance; return the BuiltModel."""
    built = cfg.build()
    res = invariance_residual(built.higgs, n_samples=6, seed=7)
    if res > built.tol.invariance:
        raise ModelError(
            f"higgs: potential is not invariant under the representation "
            f"(relative residual {res:.3e} > {built.tol.invariance:.0e})"
        )
    return built


def read_model(path):
    """A model file read as JSON, its top level checked; build() parses the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ModelError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    return ModelConfig.from_json_dict(doc, source=str(path))


def load_model(path):
    """Parse and fully validate a model file."""
    cfg = read_model(path)
    validate_model(cfg)
    return cfg


def save_model(cfg, path):
    """Write a model file in canonical form (sorted keys, two-space indent)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
