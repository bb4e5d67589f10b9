"""Model files: schema, validation, and construction of runtime objects.

A model file is JSON.  Complex numbers are explicit [re, im] pairs,
matrices are nested row-major lists of such pairs, and no expressions
are evaluated, so every physics input is auditable as written.  Top
level keys, each a ModelConfig field that holds the section as written:

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
generator, of rep_dim x rep_dim matrices.  ``higgs.potential`` is one of
POTENTIAL_KINDS, file syntax only: build() turns it and ``higgs.params``
into the ascending coefficients of p(s) that HiggsModel holds.  Every
input rule (anti-Hermiticity, bounded potential, tensor shapes, finite
numbers) is checked on build and reported with the JSON path of the
offending entry; so is any key an object of the file does not take.
The algebra's closure and the potential's invariance are check verdicts.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import build_clifford
from .group_rep import LieAlgebraRep, direct_sum
from .higgs_vacuum import HiggsModel, invariance_residual
from .lattice_dirac import DERIVATIVE_KINDS, TorusLattice, spacing_fits
from .tolerances import DEFAULT, Tolerances, finite_number, shown
from .yukawa_mass import ChiralFermionRep, YukawaMap

SCHEMA_VERSION = 1
# each kind's higgs.params: mexican_hat {lam, v} for V(z) = lam (|z|^2 -
# v^2)^2, custom_polynomial the ascending coefficients of p(s), s = |z|^2
POTENTIAL_KINDS = ("mexican_hat", "custom_polynomial")


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
                raise ModelError(f"{where}: expected {what}, got {shown(node)}")
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
        raise ModelError(f"{path}.{shown(unknown[0], bare=True)}: unknown key (known: {', '.join(keys)})")
    return mapping


def _check_version(version, path):
    """A ModelError unless version is the integer SCHEMA_VERSION."""
    if not isinstance(version, int) or isinstance(version, bool):
        raise ModelError(f"{path}: unexpected type {type(version).__name__}")
    if version != SCHEMA_VERSION:
        raise ModelError(f"{path}: {shown(version)} unsupported, this build reads {SCHEMA_VERSION}")


@dataclass(frozen=True, eq=False)
class BuiltModel:
    """The runtime objects of a model file, each section parsed once by
    ModelConfig.build."""

    # the direct sum of every representation of algebra.representations
    algebra: LieAlgebraRep
    higgs: HiggsModel
    seed: np.ndarray
    frep: ChiralFermionRep
    ymap: YukawaMap
    lattice: TorusLattice
    # wilson.theta as a (2n, width) array, or None without a Wilson line
    theta: np.ndarray
    # DEFAULT with the model's overrides, times the run's tolerance scale
    tol: Tolerances

    def wilson_fields(self, vac):
        """The Wilson line's fields on the fermions, or None without a line.

        A_a is the algebra element theta[a] @ B in the fermion
        representation, with B the (dim_iso, dim_g) isotropy basis of vac:
        a (2n, N_F, N_F) stack of anti-Hermitian matrices.
        """
        if self.theta is None:
            return None
        if self.theta.shape[1] != vac.isotropy.shape[0]:
            raise ModelError(
                f"wilson.theta: rows have {self.theta.shape[1]} coefficients, the vacuum isotropy "
                f"algebra has dimension {vac.isotropy.shape[0]}"
            )
        return self.frep.total.element(self.theta @ vac.isotropy)


# the file's top-level keys, each a ModelConfig field of the same name
SECTIONS = ("schema_version", "algebra", "higgs", "fermions", "yukawa", "lattice", "wilson", "tolerances")
# the sections a file may leave out, each with the value that stands for it
OPTIONAL = {"wilson": None, "tolerances": {}}


@dataclass
class ModelConfig:
    """A model file's sections as the file holds them; build() parses them
    into runtime objects."""

    schema_version: int
    algebra: dict
    higgs: dict
    fermions: dict
    yukawa: dict
    lattice: dict
    wilson: dict = None
    tolerances: dict = field(default_factory=dict)

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        doc = {key: getattr(self, key) for key in SECTIONS}
        return {key: value for key, value in doc.items() if key not in OPTIONAL or value != OPTIONAL[key]}

    @classmethod
    def from_json_dict(cls, doc, source="<model>"):
        """The config of a file's document, its top level checked; build()
        checks each section."""
        if not isinstance(doc, dict):
            raise ModelError(f"{source}: top level must be an object")
        _check_version(_require(doc, "schema_version", source), f"{source}.schema_version")
        _section(doc, source, SECTIONS)
        for key in SECTIONS[1:]:  # the sections after schema_version
            if key not in OPTIONAL:
                _require(doc, key, source, dict)
        return cls(**{key: doc[key] for key in SECTIONS if key in doc})

    # -- builders -----------------------------------------------------

    def build_rep(self, name, tol):
        """The named representation, its generators checked against tol."""
        path = f"algebra.representations.{shown(name, bare=True)}"
        defined = self.algebra["representations"]
        if name not in defined:
            raise ModelError(f"{path}: representation not defined")
        # one matrix per generator, each of the shape of the first
        gens = decode_array(defined[name], path, (len(self.algebra["generator_labels"]), None, None))
        if gens.shape[1] != gens.shape[2] or not gens.shape[1]:
            raise ModelError(f"{path}[0]: expected a non-empty square matrix, got shape {gens.shape[1:]}")
        try:
            return LieAlgebraRep(generators=gens, label=name, tol=tol)
        except ValueError as exc:
            # the path names the representation; the label's prefix would repeat it
            raise ModelError(f"{path}: {str(exc).removeprefix(f'{name}: ')}") from exc

    def build(self, tol_scale=1.0):
        """The model's runtime objects, each section parsed once, in the order
        that fixes a bad file's first error: the schema version, the
        algebra's keys and generator labels, the tolerances (the overrides
        times tol_scale), the representations (whose checks read them),
        higgs, fermions, yukawa, lattice and wilson.theta.
        fermions.grading is only a consistency check, accepted only as [1] *
        n_left + [-1] * n_right; the chirality of each fermion follows from
        rep_left and rep_right, and nothing reads the key."""
        _check_version(self.schema_version, "schema_version")
        path = "algebra"
        _section(self.algebra, path, ("label", "generator_labels", "representations"))
        _require(self.algebra, "label", path, str)
        labels = _require(self.algebra, "generator_labels", path, list)
        if not labels or not all(isinstance(v, str) for v in labels):
            raise ModelError(f"{path}.generator_labels: expected a non-empty list of strings")
        names = _require(self.algebra, "representations", path, dict)
        tol = self.build_tolerances().scale(tol_scale)
        reps = {name: self.build_rep(name, tol) for name in names}

        def rep(section, path, key):
            name = _require(section, key, path, str)
            # build_rep raises the error naming an undefined representation
            return reps[name] if name in reps else self.build_rep(name, tol)

        path = "higgs"
        _section(self.higgs, path, ("rep", "potential", "params", "seed"))
        higgs_rep = rep(self.higgs, path, "rep")
        kind = _require(self.higgs, "potential", path, str)
        params_obj = _require(self.higgs, "params", path)
        if kind == "mexican_hat":
            if not isinstance(params_obj, dict) or set(params_obj) != {"lam", "v"}:
                raise ModelError(f"{path}.params: mexican_hat takes exactly {{lam, v}}")
            lam, v = (float(decode_array(params_obj[k], f"{path}.params.{k}", (), pairs=False))
                      for k in ("lam", "v"))
            if not (lam > 0 and v > 0):
                raise ModelError(f"{path}.params: mexican_hat needs lam > 0 and v > 0")
            try:
                coeffs = [lam * v ** 4, -2.0 * lam * v ** 2, lam]
                finite = all(map(math.isfinite, coeffs))
            except OverflowError:  # a float power past the largest double
                finite = False
            if not finite:
                raise ModelError(
                    f"{path}.params: the coefficients of p(s) overflow for parameters {(lam, v)}")
        elif kind == "custom_polynomial":
            if not isinstance(params_obj, list) or not params_obj:
                raise ModelError(f"{path}.params: custom_polynomial takes ascending coefficients")
            coeffs = [float(decode_array(c, f"{path}.params[{i}]", (), pairs=False))
                      for i, c in enumerate(params_obj)]
        else:
            raise ModelError(f"{path}.potential: unknown kind {shown(kind)}, expected one of {POTENTIAL_KINDS}")
        try:
            higgs = HiggsModel(higgs_rep, coeffs)
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
        # higgs.rep has named a defined representation, so there is one
        algebra = direct_sum(reps.values())
        return BuiltModel(algebra, higgs, seed, frep, ymap, lattice, self.wilson_theta(lattice.dim), tol)

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
        if finite_number(n) is None:
            raise ModelError(f"{path}.n: expected an integer within the float range, got {shown(n)}")
        spacing = _require(self.lattice, "spacing", path)
        a = finite_number(spacing)
        if a is None or not spacing_fits(n, a):
            raise ModelError(f"{path}.spacing: expected a finite positive number, with finite "
                             f"a^(2n) and 2n (2 pi / a)^2 at n={shown(n)}, got {shown(spacing)}")
        kind = self.lattice.get("derivative", "fourier_spectral")
        if kind not in DERIVATIVE_KINDS:
            raise ModelError(f"{path}.derivative: unknown kind {shown(kind)}")
        try:
            return TorusLattice(n=n, L=L, a=a, derivative_kind=kind)
        except ValueError as exc:
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


def validate_model(cfg, tol_scale=1.0):
    """cfg.build(tol_scale); closure and invariance are check verdicts."""
    return cfg.build(tol_scale)


def read_model(path):
    """A model file read as JSON, its top level checked; build() parses the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ModelError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    except RecursionError:
        raise ModelError(f"{path}: nested too deeply to read")
    return ModelConfig.from_json_dict(doc, source=str(path))


def load_model(path):
    """A model file read and built, every input rule checked; the config."""
    cfg = read_model(path)
    validate_model(cfg)
    return cfg


def save_model(cfg, path):
    """Write a model file in canonical form (sorted keys, two-space indent)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
