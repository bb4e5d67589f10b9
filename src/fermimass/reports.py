"""Command pipelines and machine-readable reports.

A report is a list of checks, each carrying the residual value and the
tolerance it was tested against, plus a data section with the computed
quantities.  Pass/fail verdicts are derivable from the entries alone.
Reports contain no timestamps and use canonical JSON, so identical
model files produce byte-identical output: a JSON report's bytes are
exactly json.dumps(report, sort_keys=True, indent=2) + "\n", written by
canonical_json without json's per-value encoder.
"""

import contextlib
import math
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import model_config
from .clifford import build_clifford
from .higgs_vacuum import SaddleConverged, gradient, hessian, minimize
from .lattice_dirac import (
    NonHermitian,
    bochner_laplacian,
    branch_momentum_shifts,
    build_vacuum_connection,
    build_vacuum_dirac,
    contraction_residual,
    dirac_potential,
    expected_squared_spectrum,
    lagrangian_density,
    lattice_footprint,
    mean_mass,
    relative_curvature,
    spectrum,
    wilson_flatness,
)
from .model_config import encode_complex
from .yukawa_mass import (
    BlockStructureViolation,
    check_equivariance,
    lemma_verify,
    mass_matrix,
)

REPORT_VERSION = 2


@dataclass
class Check:
    check_id: str
    value: float
    tol: float
    passed: bool
    note: str = ""

    def to_dict(self):
        out = {
            "id": self.check_id,
            "value": float(self.value),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }
        if self.note:
            out["note"] = self.note
        return out


def residual_check(check_id, value, tol, note=""):
    value = float(value)
    return Check(check_id, value, float(tol), value <= tol, note)


def count_check(check_id, got, want):
    return Check(check_id, float(abs(got - want)), 0.0, got == want, f"got {got}, want {want}")


def failure_check(check_id, note):
    return Check(check_id, 1.0, 0.0, False, note)


@dataclass
class Report:
    command: str
    model_label: str
    schema_version: int
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, check):
        self.checks.append(check)

    def extend_prefixed(self, prefix, other):
        for c in other.checks:
            cid = c.check_id if c.check_id.startswith(f"{prefix}.") else f"{prefix}.{c.check_id}"
            self.checks.append(Check(cid, c.value, c.tol, c.passed, c.note))
        self.data[prefix] = other.data

    def to_dict(self):
        return {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "model": self.model_label,
            "model_schema_version": self.schema_version,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
        }

    def to_json(self):
        return canonical_json(self.to_dict()) + "\n"

    def to_csv(self):
        """Flat key,value rows: each check's value, tol and passed flag, then
        every spectrum_sq list of the data (lattice.spectrum_sq and
        masses.spectrum_sq among them) as key[i],value rows, then the
        verdict; numbers at 17 significant digits."""
        lines = ["key,value"]
        for c in self.checks:
            lines.append(f"check.{c.check_id}.value,{c.value:.16e}")
            lines.append(f"check.{c.check_id}.tol,{c.tol:.16e}")
            lines.append(f"check.{c.check_id}.passed,{str(c.passed).lower()}")
        spectrum_rows = self._spectrum_rows(self.data)
        lines.extend(spectrum_rows)
        lines.append(f"passed,{str(self.passed).lower()}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _spectrum_rows(data, prefix=""):
        rows = []
        for key, value in sorted(data.items()):
            name = f"{prefix}{key}"
            if key == "spectrum_sq" and isinstance(value, list):
                for i, v in enumerate(value):
                    rows.append(f"{name}[{i}],{float(v):.16e}")
            elif isinstance(value, dict):
                rows.extend(Report._spectrum_rows(value, prefix=f"{name}."))
        return rows


# floats per str.join in canonical_json: a join holds one repr string
# (about 75 B) per value at once, so a long spectrum is joined a slice at a
# time; a slice's reprs (about 5 MB) stay near the momentum chunk that
# lattice_footprint counts, which is freed before the report is written
_JOIN_SLICE = 1 << 16


def canonical_json(value, indent=""):
    """The text of json.dumps(value, sort_keys=True, indent=2), byte for byte.

    json writes each value of an indented document through its pure-Python
    encoder, one generator step per value.  Here a list of finite floats,
    such as a report's spectrum, is written in joins of their reprs, a slice
    at a time; any other list, or one holding a NaN or an infinity, is
    written item by item.
    Dict keys must be str, and values str, int, float, bool, None, dicts,
    lists or tuples; anything else (a numpy scalar, say) is a TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = sep.join(f"{encode_basestring_ascii(k)}: {canonical_json(v, inner)}"
                        for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = []
        try:
            for i in range(0, len(value), _JOIN_SLICE):
                parts.append(sep.join(map(float.__repr__, value[i:i + _JOIN_SLICE])))
        except TypeError:  # an item that is not a float
            parts = None
        # nan and inf are the only float reprs with an "n", and json writes
        # them as NaN and Infinity
        if parts is None or any("n" in part for part in parts):
            body = sep.join(canonical_json(v, inner) for v in value)
        else:
            body = sep.join(parts)
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_list(values):
    return np.asarray(values, dtype=float).reshape(-1).tolist()


# The stages of a run that may fail, each named by the check that then
# fails with the error's message as its note.  Other errors propagate: a
# ModelError, for one, is an input error.
STAGE_ERRORS = {
    "vacuum.minimum_found": SaddleConverged,
    "masses.block_structure": BlockStructureViolation,
    "lattice.wilson_charge_scalar": ValueError,
    "lattice.hermiticity": NonHermitian,
}


class StageFailed(Exception):
    """(check id, error): a stage raised an error STAGE_ERRORS maps to its check."""


class Run:
    """One run on one model: its objects, its tolerances and each stage, made once.

    The model is parsed once.  A stage that fails stays failed, so a
    failed minimization is not repeated by the next command of the run.
    """

    def __init__(self, cfg, tol_scale=1.0):
        self.cfg = cfg
        # looked up on the module, where a tracer can wrap it
        self.model = model_config.validate_model(cfg)
        self.tol = self.model.tol.scale(tol_scale)
        self._stages = {}

    def stage(self, check_id, fn, *args, **kwargs):
        """fn(*args, **kwargs), computed at most once in this run."""
        if check_id not in self._stages:
            try:
                self._stages[check_id] = (fn(*args, **kwargs), None)
            except STAGE_ERRORS[check_id] as exc:
                self._stages[check_id] = (None, exc)
        value, error = self._stages[check_id]
        if error is not None:
            raise StageFailed(check_id, error)
        return value

    def vacuum(self):
        m = self.model
        return self.stage("vacuum.minimum_found", minimize, m.higgs, m.seed, self.tol)

    def mass_data(self):
        return self.stage("masses.block_structure", mass_matrix, self.model.ymap, self.vacuum(), self.tol)


@contextlib.contextmanager
def _reporting(command, run):
    """The report of one command: the one place where a failed stage ends a
    report, with the stage's failing check.

    The break report, whose subject is the vacuum, also names the error's
    type and keeps the transversal Hessian eigenvalues of a saddle.
    """
    rep = Report(command=command, model_label=run.cfg.label, schema_version=run.cfg.schema_version)
    try:
        yield rep
    except StageFailed as failed:
        check_id, error = failed.args
        detailed = command == "break"
        note = f"{type(error).__name__}: {error}" if detailed else str(error)
        rep.add(failure_check(check_id, note))
        rep.data["error"] = str(error)
        if detailed and isinstance(error, SaddleConverged):
            rep.data["transversal_hessian_eigs"] = _float_list(error.transversal_eigs)


def cmd_break(run):
    """Minimize the potential and report the symmetry-breaking pattern."""
    with _reporting("break", run) as rep:
        tol, higgs = run.tol, run.model.higgs
        vac = run.vacuum()
        grad_norm = float(np.linalg.norm(gradient(higgs, vac.z0)))
        scale = max(1.0, float(np.linalg.norm(vac.z0)))
        rep.add(residual_check("vacuum.gradient_norm", grad_norm, tol.gradient_norm * scale))
        dim_g = higgs.rep.dim_g
        rep.add(count_check("vacuum.broken_plus_unbroken", vac.goldstone_count + vac.isotropy.dim, dim_g))
        H = hessian(higgs, vac.z0)
        G = vac.goldstone_basis
        flat = float(np.max(np.abs(G.T @ H @ G))) if G.shape[1] else 0.0
        # the scale of the saddle floor: the transversal Hessian's largest |eigenvalue|
        hess_scale = float(np.max(np.abs(vac.transversal_hessian_eigs), initial=1.0))
        rep.add(residual_check("vacuum.goldstone_hessian_flat", flat, tol.goldstone_flat * hess_scale))
        min_eig = float(vac.transversal_hessian_eigs.min()) if vac.transversal_hessian_eigs.size else 0.0
        rep.add(
            Check(
                "vacuum.transversal_hessian_positive",
                -min_eig,
                0.0,
                min_eig > 0.0,
                f"min transversal eigenvalue {min_eig:.6g}",
            )
        )
        rep.data.update(
            {
                "z0": encode_complex(vac.z0),
                "potential_value": float(vac.value),
                "gradient_norm": grad_norm,
                "isotropy_dim": vac.isotropy.dim,
                "isotropy_basis": [_float_list(b) for b in vac.isotropy.basis],
                "goldstone_count": vac.goldstone_count,
                "physical_count": vac.physical_count,
                "transversal_hessian_eigs": _float_list(vac.transversal_hessian_eigs),
            }
        )
    return rep


def cmd_masses(run):
    """Mass matrix, eigenbundle decomposition, and the structural checks."""
    with _reporting("masses", run) as rep:
        tol, m = run.tol, run.model
        equiv = check_equivariance(m.ymap, m.higgs.rep, m.frep)
        rep.add(residual_check("masses.equivariance", equiv, tol.equivariance))
        vac, md = run.vacuum(), run.mass_data()
        lemma = lemma_verify(m.ymap, md, vac, m.frep, m.higgs)
        m2_scale = float(np.max(md.spectrum_sq, initial=1.0))
        rep.add(residual_check("masses.commutant", lemma.commutant_residual,
                               tol.commutant * np.sqrt(m2_scale)))
        rep.add(residual_check("masses.orbit_invariance", lemma.orbit_deviation,
                               tol.orbit_spectrum * m2_scale))
        rep.add(
            residual_check(
                "masses.orbit_transport", lemma.orbit_transport_residual,
                tol.orbit_spectrum * np.sqrt(m2_scale),
                "unitary transport of the mass matrix along the orbit",
            )
        )
        rep.add(
            residual_check(
                "masses.eigenbundle_reconstruction", lemma.reconstruction_residual,
                tol.reconstruction * m2_scale,
            )
        )
        blocks = []
        for i, blk in enumerate(md.eigenspaces):
            blocks.append(
                {
                    "label": f"block_{i}_m2={blk.m2:.6g}",
                    "m2": float(blk.m2),
                    "left_dim": blk.left_dim,
                    "right_dim": blk.right_dim,
                    "left_basis": encode_complex(blk.left_basis) if blk.left_dim else [],
                    "right_basis": encode_complex(blk.right_basis) if blk.right_dim else [],
                }
            )
        rep.data.update(
            {
                "M_F": encode_complex(md.M_F),
                "spectrum_sq": _float_list(md.spectrum_sq),
                "n_left": md.n_left,
                "n_right": md.n_right,
                "n_total": md.n_total,
                "mean_mass_sq_full_fiber": mean_mass(md),
                "mean_mass_sq_left_block": (
                    float(np.sum(np.abs(md.M_F) ** 2) / md.n_left) if md.n_left else 0.0
                ),
                "eigenbundles": blocks,
            }
        )
    return rep


def require_lattice_fits(run):
    """A ValueError, raised before anything is built, when the lattice
    stage's estimated memory (lattice_footprint) plus the peak resident
    memory of the process so far exceeds the host's physical memory."""
    import resource  # POSIX only, as os.sysconf below

    lat = run.model.lattice
    # ru_maxrss is in KiB, on macOS in bytes
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (1 if sys.platform == "darwin" else 1024)
    need = lattice_footprint(lat, run.model.frep.n_total) + rss
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"lattice n={lat.n}, L={lat.L} needs about {need / 2 ** 30:.3g} GiB, "
            f"more than this host's {have / 2 ** 30:.3g} GiB of memory"
        )


def cmd_lattice(run):
    """Lattice operators, spectra, and the dispersion/curvature identities.

    Every vacuum operator here is a stencil operator held on its support;
    no N x N matrix and no array that grows with n_sites x fiber^2 is
    formed.
    """
    require_lattice_fits(run)
    with _reporting("lattice", run) as rep:
        tol, lat, frep = run.tol, run.model.lattice, run.model.frep
        vac, md = run.vacuum(), run.mass_data()
        cl = build_clifford(lat.n)
        fields = run.model.wilson_fields(vac)
        vac_op = build_vacuum_dirac(lat, cl, md, frep, fields)
        shifts = None
        if fields is not None:
            rep.add(residual_check("lattice.wilson_flatness", wilson_flatness(fields), tol.wilson_flat))
            shifts = run.stage("lattice.wilson_charge_scalar", branch_momentum_shifts,
                               lat, md, frep, fields, tol)
        spec_sq = run.stage("lattice.hermiticity", spectrum, vac_op, square_first=True, tol=tol)
        if lat.derivative_kind == "fourier_spectral":
            expected = expected_squared_spectrum(lat, cl, md, frep, shifts)
            scale = max(1.0, float(np.max(np.abs(expected))))
            disp = float(np.max(np.abs(spec_sq - expected)))
            rep.add(residual_check("lattice.dispersion", disp, tol.dispersion * scale,
                                   "relative to the spectral scale"))
        conn = build_vacuum_connection(lat, cl, md, frep, fields)
        rep.add(
            residual_check(
                "lattice.contraction_identity", contraction_residual(conn, cl, vac_op), tol.contraction
            )
        )
        m2_scale = float(np.max(md.spectrum_sq, initial=1.0))
        curv = relative_curvature(conn, cl, md, frep)
        rep.add(residual_check("lattice.curvature_identity", curv.residual, tol.curvature * m2_scale))
        lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, frep, fields))
        vd = dirac_potential(vac_op, lap)
        rep.add(residual_check("lattice.potential_offsite", vd.meta["offsite_leakage"],
                               tol.potential_offsite * m2_scale))
        dens = lagrangian_density(vd, lat)
        trace_expected = cl.spinor_dim * float(md.spectrum_sq.sum())
        rep.add(
            residual_check(
                "lattice.potential_trace",
                abs(dens.per_site_trace - trace_expected),
                tol.potential_trace * max(1.0, abs(trace_expected)),
                f"per-site trace vs 2^n * sum m^2 = {trace_expected:.6g}",
            )
        )
        rep.data.update(
            {
                "momenta": _float_list(lat.momenta()),
                "spectrum_sq": _float_list(spec_sq),
                "per_site_trace": dens.per_site_trace,
                "internal_trace": dens.internal_trace,
                "spinor_dim": dens.spinor_dim,
                "volume_element": dens.volume_element,
                "mean_mass_sq": mean_mass(md),
                "curvature_max": curv.max_component_norm(),
                "flat": curv.max_component_norm() <= tol.curvature,
            }
        )
        if fields is not None:
            rep.data["wilson_theta"] = run.model.theta.tolist()
            rep.data["wilson_shift_table"] = [
                {"m2": float(m2), "momentum_shift_per_axis": [float(q) for q in qs]}
                for m2, qs in shifts
            ]
    return rep


def cmd_verify_all(run):
    """Run every command; passes only when each constituent check passes."""
    require_lattice_fits(run)
    with _reporting("verify-all", run) as rep:
        for name, command in (("break", cmd_break), ("masses", cmd_masses), ("lattice", cmd_lattice)):
            rep.extend_prefixed(name, command(run))
    return rep


def cmd_check(run):
    """Load-time validation summary (validation itself ran during load)."""
    with _reporting("check", run) as rep:
        rep.add(Check("model.valid", 0.0, 0.0, True, "schema and invariants re-validated on load"))
        rep.data.update(
            {
                "label": run.cfg.label,
                "generators": list(run.cfg.generator_labels),
                "representations": sorted(run.cfg.representations),
                "lattice": dict(run.cfg.lattice),
            }
        )
    return rep
