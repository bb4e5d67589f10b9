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
from dataclasses import dataclass, field

import numpy as np

from .clifford import build_clifford
from .group_rep import LieAlgebraRep
from .higgs_vacuum import HiggsModel, invariance_residual
from .lattice_dirac import DERIVATIVE_KINDS, TorusLattice
from .tolerances import DEFAULT, Tolerances, finite_number
from .yukawa_mass import ChiralFermionRep, YukawaMap

SCHEMA_VERSION = 1


class ModelError(ValueError):
    """A model file failed schema or invariant validation."""


def encode_complex(a):
    """A complex array of any rank as nested lists ending in [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def decode_array(obj, path, shape, pairs=True):
    """The array that the nested lists obj hold: complex numbers written as
    [re, im] pairs, or with pairs=False real numbers.

    shape gives the length of each level; a None length is free, fixed by
    the first list at that level.  Each list's type and length is checked
    before its entries, depth first, so the ModelError raised names the
    path of the first bad entry.  A complex array is its float64 pairs
    viewed as complex128, so each part keeps its bits, the sign of a zero
    included.
    """
    dims = list(shape)
    values = []

    def walk(node, where, depth):
        if depth == len(dims):
            if pairs:
                parts = [finite_number(v) for v in node] if isinstance(node, list) and len(node) == 2 else [None]
            else:
                parts = [finite_number(node)]
            if None in parts:
                what = "a [re, im] pair of finite numbers" if pairs else "a finite real number"
                raise ModelError(f"{where}: expected {what}, got {node!r}")
            values.extend(parts)
            return
        if not isinstance(node, list):
            raise ModelError(f"{where}: expected a list, got {type(node).__name__}")
        if dims[depth] is None:
            dims[depth] = len(node)
        elif len(node) != dims[depth]:
            if shape[depth] is None:
                raise ModelError(f"{path}: ragged rows, {where} has length {len(node)}, "
                                 f"expected {dims[depth]}")
            raise ModelError(f"{where}: expected length {dims[depth]}, got {len(node)}")
        for i, v in enumerate(node):
            walk(v, f"{where}[{i}]", depth + 1)

    walk(obj, path, 0)
    # a free length below an empty list is never fixed
    dims = [0 if d is None else d for d in dims]
    values = np.array(values, dtype=float)
    return (values.view(complex) if pairs else values).reshape(dims)


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
        # one matrix per generator, each of the shape of the first
        gens = decode_array(self.representations[name], path, (len(self.generator_labels), None, None))
        if gens.shape[1] != gens.shape[2] or not gens.shape[1]:
            raise ModelError(f"{path}[0]: expected a non-empty square matrix, got shape {gens.shape[1:]}")
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
            decode_array(value, where, (), pairs=False)
        params = tuple(named.values())
        try:
            higgs = HiggsModel(rep=higgs_rep, potential_kind=kind, params=params)
        except ValueError as exc:
            raise ModelError(f"{path}.params: {exc}") from exc
        nh = higgs_rep.rep_dim
        seed = decode_array(_require(self.higgs, "seed", path), "higgs.seed", (nh,))

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
        tensor = decode_array(_require(self.yukawa, "tensor", path, list), f"{path}.tensor",
                              (frep.n_left, frep.n_right, nh))
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
        spacing = _require(self.lattice, "spacing", path)
        a = finite_number(spacing)
        if a is None or a <= 0.0:
            raise ModelError(f"{path}.spacing: expected a finite positive number, got {spacing!r}")
        kind = self.lattice.get("derivative", "fourier_spectral")
        if kind not in DERIVATIVE_KINDS:
            raise ModelError(f"{path}.derivative: unknown kind {kind!r}")
        try:
            return TorusLattice(n=n, L=L, a=a, derivative_kind=kind)
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
        theta = _require(_section(self.wilson, "wilson", ("theta",)), "theta", "wilson", list)
        return decode_array(theta, "wilson.theta", (dim, None), pairs=False)

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
