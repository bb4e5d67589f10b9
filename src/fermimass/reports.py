"""Command pipelines and machine-readable reports.

A report is a list of checks, each carrying the residual value and the
tolerance it was tested against, plus a data section with the computed
quantities.  Pass/fail verdicts are derivable from the entries alone.
Reports contain no timestamps and use canonical JSON, so identical
model files produce byte-identical output.
"""

import contextlib
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .higgs_vacuum import NonConvergence, SaddleConverged, gradient, hessian, minimize
from .lattice_dirac import (
    NonHermitian,
    NotMultiplicationOperator,
    bochner_laplacian,
    branch_momentum_shifts,
    build_vacuum_connection,
    build_vacuum_dirac,
    contraction_residual,
    dirac_potential,
    expected_squared_spectrum,
    lagrangian_density,
    mean_mass,
    relative_curvature,
    spectrum,
)
from .model_config import encode_complex_matrix, encode_complex_vector
from .yukawa_mass import (
    BlockStructureViolation,
    check_equivariance,
    lemma_verify,
    mass_matrix,
)

ORBIT_MOVES = 20
RNG_SEED = 20021204
REPORT_VERSION = 1


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        """Flat key,value rows; the lattice spectrum, when present, uses the
        spectrum CSV layout (index,eigenvalue at 17 significant digits)."""
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


def _float_list(values):
    return [float(v) for v in np.asarray(values).reshape(-1)]


# The stages of a run that may fail, each named by the check that then
# fails with the error's message as its note.  Other errors propagate: a
# ModelError, for one, is an input error.
STAGE_ERRORS = {
    "vacuum.minimum_found": (SaddleConverged, NonConvergence),
    "masses.block_structure": BlockStructureViolation,
    "lattice.operator_built": ValueError,
    "lattice.wilson_charge_scalar": ValueError,
    "lattice.hermiticity": NonHermitian,
    "lattice.dirac_potential_multiplicative": NotMultiplicationOperator,
}


class StageFailed(Exception):
    """(check id, error): a stage raised an error STAGE_ERRORS maps to its check."""


class Run:
    """One run on one model: its objects, its tolerances and each stage, made once.

    A stage that fails stays failed, so a failed minimization is not
    repeated by the next command of the same run.
    """

    def __init__(self, cfg, tol_scale=1.0):
        self.cfg = cfg
        self.tol_scale = tol_scale
        self.model = cfg.build()
        self._stages = {}

    @functools.cached_property
    def tol(self):
        # built on first use, so `check` does not read --tol-scale
        return self.cfg.build_tolerances(scale=self.tol_scale)

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
        m, tol = self.model, self.tol
        return self.stage("vacuum.minimum_found", minimize, m.higgs, m.seed,
                          grad_tol=tol.gradient_norm, cut=tol.nullspace_cut)

    def mass_data(self):
        tol = self.tol
        return self.stage("masses.block_structure", mass_matrix, self.model.ymap, self.vacuum(),
                          block_tol=tol.block_structure, group_tol=tol.eigenvalue_group)


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
        rep.add(residual_check("vacuum.goldstone_hessian_flat", flat, tol.goldstone_flat))
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
                "z0": encode_complex_vector(vac.z0),
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
        lemma = lemma_verify(
            m.ymap, md, vac, m.frep, m.higgs,
            n_moves=ORBIT_MOVES, seed=RNG_SEED,
            commutant_tol=tol.commutant, orbit_tol=tol.orbit_spectrum,
            reconstruction_tol=tol.reconstruction,
        )
        rep.add(residual_check("masses.commutant", lemma.commutant_residual, lemma.commutant_tol))
        rep.add(residual_check("masses.orbit_invariance", lemma.orbit_deviation, lemma.orbit_tol))
        rep.add(
            residual_check(
                "masses.orbit_transport", lemma.orbit_transport_residual, lemma.orbit_tol,
                "unitary transport of the mass matrix along the orbit",
            )
        )
        rep.add(
            residual_check(
                "masses.eigenbundle_reconstruction",
                lemma.reconstruction_residual,
                lemma.reconstruction_tol,
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
                    "left_basis": encode_complex_matrix(blk.left_basis) if blk.left_dim else [],
                    "right_basis": encode_complex_matrix(blk.right_basis) if blk.right_dim else [],
                }
            )
        rep.data.update(
            {
                "M_F": encode_complex_matrix(md.M_F),
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


def cmd_lattice(run):
    """Lattice operators, spectra, and the dispersion/curvature identities."""
    with _reporting("lattice", run) as rep:
        tol, lat, frep = run.tol, run.cfg.build_lattice(), run.model.frep
        vac, md = run.vacuum(), run.mass_data()
        cl = run.cfg.build_clifford()
        wl = run.cfg.build_wilson(vac)
        vac_op = run.stage("lattice.operator_built", build_vacuum_dirac, lat, cl, md, frep, wl)
        if wl is not None:
            rep.add(
                residual_check(
                    "lattice.wilson_flatness",
                    vac_op.meta.get("wilson_flatness_residual", 0.0),
                    tol.wilson_flat,
                )
            )
            shifts = run.stage(
                "lattice.wilson_charge_scalar", branch_momentum_shifts, lat, md, frep, wl
            )
        spec_sq = run.stage("lattice.hermiticity", spectrum, vac_op, square_first=True,
                            herm_tol=tol.hermiticity)
        if lat.derivative_kind == "fourier_spectral":
            expected = expected_squared_spectrum(lat, cl, md, frep, wl)
            scale = max(1.0, float(np.max(np.abs(expected))))
            disp = float(np.max(np.abs(spec_sq - expected)))
            rep.add(residual_check("lattice.dispersion", disp, tol.dispersion * scale,
                                   "relative to the spectral scale"))
        conn = build_vacuum_connection(lat, cl, md, frep, wl)
        rep.add(
            residual_check(
                "lattice.contraction_identity", contraction_residual(conn, cl, vac_op), tol.contraction
            )
        )
        curv = relative_curvature(conn, cl, md, frep)
        rep.add(residual_check("lattice.curvature_identity", curv.residual, tol.curvature))
        clifford_conn = build_vacuum_connection(lat, cl, None, frep, wl)
        lap = bochner_laplacian(clifford_conn)
        vd = run.stage(
            "lattice.dirac_potential_multiplicative", dirac_potential, vac_op, lap,
            offsite_tol=tol.potential_offsite_error, constancy_tol=tol.potential_constancy,
        )
        rep.add(
            residual_check(
                "lattice.potential_offsite", vd.meta["offsite_leakage"], tol.potential_offsite
            )
        )
        rep.add(
            residual_check(
                "lattice.potential_site_constancy", vd.meta["site_block_deviation"], tol.potential_constancy
            )
        )
        dens = lagrangian_density(vd, lat)
        trace_expected = cl.spinor_dim * float(md.spectrum_sq.sum())
        rep.add(
            residual_check(
                "lattice.potential_trace",
                abs(dens.per_site_trace - trace_expected),
                tol.potential_trace,
                f"per-site trace vs 2^n * sum m^2 = {trace_expected:.6g}",
            )
        )
        mm = mean_mass(md)
        density_expected = cl.spinor_dim * md.n_total * mm
        rep.add(
            residual_check(
                "lattice.density_identity",
                abs(dens.per_site_trace - density_expected),
                tol.density_identity,
                "density vs 2^n * N_F * <m^2>",
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
                "density": dens.per_site_trace,
                "scalar_curvature": dens.scalar_curvature,
                "curvature_note": dens.curvature_note,
                "mean_mass_sq": mm,
                "curvature_max": curv.max_component_norm(),
                "flat": curv.is_flat(tol.curvature),
            }
        )
        if wl is not None:
            rep.data["wilson_theta"] = [list(map(float, row)) for row in wl.theta]
            rep.data["wilson_shift_table"] = [
                {"m2": float(m2), "momentum_shift_per_axis": [float(q) for q in qs]}
                for m2, qs in shifts
            ]
    return rep


def cmd_verify_all(run):
    """Run every command; passes only when each constituent check passes."""
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
