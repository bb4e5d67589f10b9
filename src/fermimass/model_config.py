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
(anti-Hermiticity, closure, bounded potential, tensor shapes) are
re-validated on load and reported with the JSON path of the offending
entry.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .clifford import build_clifford
from .group_rep import LieAlgebraRep
from .higgs_vacuum import HiggsModel, invariance_residual
from .lattice_dirac import DERIVATIVE_KINDS, TorusLattice, wilson_from_vacuum
from .tolerances import DEFAULT
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


def _pair(obj, path):
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    ):
        raise ModelError(f"{path}: expected a [re, im] number pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


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
    if kind is not None and not isinstance(value, kind):
        raise ModelError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


@dataclass(frozen=True)
class BuiltModel:
    """The runtime objects built from a model file's representations; the
    lattice, the Clifford algebra and the Wilson line have their own builders."""

    higgs: HiggsModel
    seed: np.ndarray
    frep: ChiralFermionRep
    ymap: YukawaMap


@dataclass
class ModelConfig:
    """Plain-data mirror of a model file, with builders for runtime objects."""

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
    # (the model data as canonical JSON, the BuiltModel made from it)
    _built: tuple = field(default=None, init=False, repr=False, compare=False)

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
        algebra = _require(doc, "algebra", source, dict)
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

    @property
    def dim_g(self):
        return len(self.generator_labels)

    def build_rep(self, name):
        path = f"algebra.representations.{name}"
        if name not in self.representations:
            raise ModelError(f"{path}: representation not defined")
        entry = self.representations[name]
        if not isinstance(entry, list) or len(entry) != self.dim_g:
            raise ModelError(f"{path}: expected one matrix per generator ({self.dim_g})")
        gens = []
        first = decode_complex_matrix(entry[0], f"{path}[0]")
        if first.shape[0] != first.shape[1]:
            raise ModelError(f"{path}[0]: matrix is not square, shape {first.shape}")
        gens.append(first)
        for k in range(1, self.dim_g):
            gens.append(decode_complex_matrix(entry[k], f"{path}[{k}]", shape=first.shape))
        try:
            return LieAlgebraRep(generators=tuple(gens), label=name)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    def build(self):
        """The model's runtime objects, each representation decoded once.

        The objects are kept until the model data changes, so load-time
        validation and the commands that follow share them.
        """
        data = json.dumps(self.to_json_dict(), sort_keys=True)
        if self._built is not None and self._built[0] == data:
            return self._built[1]
        reps = {name: self.build_rep(name) for name in self.representations}

        def rep(section, path, key):
            name = _require(section, key, path, str)
            # build_rep raises the error naming an undefined representation
            return reps[name] if name in reps else self.build_rep(name)

        path = "higgs"
        higgs_rep = rep(self.higgs, path, "rep")
        kind = _require(self.higgs, "potential", path, str)
        params_obj = _require(self.higgs, "params", path)
        if kind == "mexican_hat":
            if not isinstance(params_obj, dict) or set(params_obj) != {"lam", "v"}:
                raise ModelError(f"{path}.params: mexican_hat takes exactly {{lam, v}}")
            params = (params_obj["lam"], params_obj["v"])
        elif kind == "custom_polynomial":
            if not isinstance(params_obj, list) or not params_obj:
                raise ModelError(f"{path}.params: custom_polynomial takes ascending coefficients")
            params = tuple(params_obj)
        else:
            raise ModelError(f"{path}.potential: unknown kind {kind!r}")
        try:
            higgs = HiggsModel(rep=higgs_rep, potential_kind=kind, params=params)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc
        nh = higgs_rep.rep_dim
        seed = decode_complex_vector(_require(self.higgs, "seed", path), "higgs.seed", length=nh)

        path = "fermions"
        rep_l = rep(self.fermions, path, "rep_left")
        rep_r = rep(self.fermions, path, "rep_right")
        try:
            frep = ChiralFermionRep(rep_L=rep_l, rep_R=rep_r)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc
        grading = self.fermions.get("grading")
        if grading is not None:
            want = [1] * frep.n_left + [-1] * frep.n_right
            if list(grading) != want:
                raise ModelError(f"{path}.grading: expected {want} for this left/right split")

        path = "yukawa"
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

        self._built = (data, BuiltModel(higgs, seed, frep, ymap))
        return self._built[1]

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
        n = _require(self.lattice, "n", path, int)
        L = _require(self.lattice, "sites_per_dim", path, int)
        a = _require(self.lattice, "spacing", path, (int, float))
        kind = self.lattice.get("derivative", "fourier_spectral")
        if kind not in DERIVATIVE_KINDS:
            raise ModelError(f"{path}.derivative: unknown kind {kind!r}")
        try:
            return TorusLattice(n=n, L=L, a=float(a), derivative_kind=kind)
        except ValueError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    def build_clifford(self):
        return build_clifford(self.build_lattice().n, "euclidean")

    def build_wilson(self, vac):
        if self.wilson is None:
            return None
        path = "wilson"
        theta = _require(self.wilson, "theta", path, list)
        lat = self.build_lattice()
        if len(theta) != lat.dim:
            raise ModelError(f"{path}.theta: expected {lat.dim} axis rows, got {len(theta)}")
        rows = []
        for a, row in enumerate(theta):
            if not isinstance(row, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
            ):
                raise ModelError(f"{path}.theta[{a}]: expected a list of real coefficients")
            rows.append([float(v) for v in row])
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ModelError(f"{path}.theta: ragged rows")
        if width != vac.isotropy.dim:
            raise ModelError(
                f"{path}.theta: rows have {width} coefficients, the vacuum isotropy "
                f"algebra has dimension {vac.isotropy.dim}"
            )
        return wilson_from_vacuum(np.array(rows), vac)

    def build_tolerances(self, scale=1.0):
        try:
            tol = DEFAULT.with_overrides(self.tolerances)
        except ValueError as exc:
            raise ModelError(f"tolerances: {exc}") from exc
        return tol.scale(scale) if scale != 1.0 else tol


def validate_model(cfg):
    """Re-validate every numeric invariant carried by a model file; return cfg.build()."""
    if not isinstance(cfg.generator_labels, list) or not all(
        isinstance(v, str) for v in cfg.generator_labels
    ):
        raise ModelError("algebra.generator_labels: expected a list of strings")
    if not cfg.generator_labels:
        raise ModelError("algebra.generator_labels: at least one generator required")
    built = cfg.build()
    lat = cfg.build_lattice()
    if cfg.wilson is not None:
        theta = _require(cfg.wilson, "theta", "wilson", list)
        if len(theta) != lat.dim:
            raise ModelError(f"wilson.theta: expected {lat.dim} axis rows, got {len(theta)}")
    tol = cfg.build_tolerances()
    res = invariance_residual(built.higgs, n_samples=6, seed=7)
    if res > tol.invariance:
        raise ModelError(
            f"higgs: potential is not invariant under the representation "
            f"(relative residual {res:.3e} > {tol.invariance:.0e})"
        )
    return built


def load_model(path):
    """Parse and fully validate a model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ModelError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    cfg = ModelConfig.from_json_dict(doc, source=str(path))
    validate_model(cfg)
    return cfg


def save_model(cfg, path):
    """Write a model file in canonical form (sorted keys, two-space indent)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
