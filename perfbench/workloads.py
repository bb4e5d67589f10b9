"""The three workloads: their inputs, one operation each, and its checks.

A workload is built from a seed and a work directory (input generation
and model files written), then warmed up.  ``round()`` lists the ops of
one round as (run, check) pairs: ``run()`` is the timed call into the
program and returns what ``check`` inspects afterwards, outside the timed
interval.  ``run`` raises OpFailed when the program exits non-zero.
Every round attempts the same ops, whatever the seed.
"""

import json
import os

import fermimass as fm
import numpy as np
from fermimass import cli, lattice_dirac, operator_io

import checks


class OpFailed(RuntimeError):
    """The program exited non-zero."""


def _encode(m):
    """Nested [re, im] pairs, the model-file encoding of complex arrays."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 0:
        return [float(m.real), float(m.imag)]
    return [_encode(row) for row in m]


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _verify_all(model, out):
    """One in-process `fermimass verify-all`; the report is read back by the check."""
    code = cli.main(["verify-all", "--model", model, "--out", out])
    if code != 0:
        raise OpFailed(f"verify-all --model {model} exited {code}")


def _read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- lattice-verify -----------------------------------------------------

class LatticeVerify:
    """ew-reference on the 4-D torus n=2, L=3 (N = 972) with a seeded Wilson line.

    The dense translation-invariant operators do most of the work here:
    curvature, spectrum, contraction, Laplacian.
    """

    N_HALF, L, WARM_L = 2, 3, 2

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.theta = rng.uniform(-0.5, 0.5, size=(2 * self.N_HALF, 1))
        doc = fm.ew_reference().to_json_dict()
        doc["wilson"] = {"theta": self.theta.tolist()}
        self.v = float(doc["higgs"]["params"]["v"])
        self.y = float(doc["yukawa"]["tensor"][0][0][0][0])
        self.paths = {}
        for L in {self.L, self.WARM_L}:
            doc["lattice"] = {"n": self.N_HALF, "sites_per_dim": L, "spacing": 1.0,
                              "derivative": "fourier_spectral"}
            model = os.path.join(workdir, f"ew-n{self.N_HALF}-L{L}.json")
            _write_json(doc, model)
            self.paths[L] = (model, os.path.join(workdir, f"ew-n{self.N_HALF}-L{L}.report.json"))

    def warm_up(self):
        # the same pipeline at N = 192: loads every code path without the
        # 7 s cost of a full op
        _verify_all(*self.paths[self.WARM_L])

    def round(self):
        model, out = self.paths[self.L]

        def check(_):
            return checks.check_lattice_report(
                _read_report(out), self.N_HALF, self.L, 1.0, self.y, self.v, self.theta
            )

        return [(lambda: _verify_all(model, out), check)]


# -- model-sweep --------------------------------------------------------

# (kind, size, L, v, lam): lepton sectors with `size` generations and
# abelian u(1)^size charge models, in a fixed order.  v and lam are fixed
# per model because they set how many steps the minimizer takes; the seed
# draws only the Yukawa couplings, which leave the work per op unchanged.
SWEEP_FAMILY = (
    ("lepton", 1, 2, 2.0, 1.0), ("lepton", 2, 2, 1.5, 0.5),
    ("lepton", 3, 2, 2.5, 1.5), ("u1", 1, 2, 1.0, 1.0),
    ("lepton", 1, 3, 3.0, 2.0), ("lepton", 2, 3, 1.0, 1.0),
    ("lepton", 3, 3, 2.0, 0.5), ("u1", 2, 3, 2.5, 1.5),
    ("lepton", 2, 2, 3.0, 1.0), ("lepton", 3, 3, 1.5, 2.0),
    ("lepton", 1, 3, 2.5, 0.5), ("u1", 3, 2, 2.0, 2.0),
)

_S = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _ew_rep(generations, doublet, hypercharge):
    """su(2)+u(1) generators on `generations` copies of a doublet or singlet."""
    eye = np.eye(generations)
    if doublet:
        gens = [np.kron(eye, -0.5j * s) for s in _S] + [-1.0j * hypercharge * np.eye(2 * generations)]
    else:
        zero = np.zeros((generations, generations), dtype=complex)
        gens = [zero, zero, zero, -1.0j * hypercharge * eye]
    return [_encode(g) for g in gens]


def _model_doc(label, labels, reps, lam, v, seed_state, tensor, L):
    return {
        "schema_version": 1,
        "algebra": {"label": label, "generator_labels": labels, "representations": reps},
        "higgs": {"rep": "higgs", "potential": "mexican_hat",
                  "params": {"lam": lam, "v": v}, "seed": _encode(seed_state)},
        "fermions": {"rep_left": "left", "rep_right": "right"},
        "yukawa": {"tensor": _encode(tensor),
                   "conjugate_higgs": [False] * tensor.shape[2]},
        "lattice": {"n": 1, "sites_per_dim": L, "spacing": 1.0, "derivative": "fourier_spectral"},
    }


def lepton_model(rng, generations, L, v, lam):
    """su(2)+u(1) lepton sector: Higgs doublet (Y = +1), left doublets
    (Y = -1), right singlets (Y = -2), and a complex Yukawa matrix that
    mixes generations; left index = 2 * generation + isospin slot."""
    g = generations
    yuk = (rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))) * rng.uniform(0.15, 0.35)
    tensor = np.zeros((2 * g, g, 2), dtype=complex)
    for i in range(g):
        for c in range(2):
            tensor[2 * i + c, :, c] = yuk[i]
    reps = {"higgs": _ew_rep(1, True, 1.0), "left": _ew_rep(g, True, -1.0),
            "right": _ew_rep(g, False, -2.0)}
    doc = _model_doc(f"lepton-{g}gen", ["T1", "T2", "T3", "Y"], reps,
                     lam, v, np.array([0.0, 1.0]), tensor, L)
    spec = {"yukawa": yuk, "v": v, "n_fiber": 3 * g, "goldstone_count": 3, "isotropy_dim": 1}
    return doc, spec


# Charges of the u(1)^k models: Higgs qH, right states (A, A, B), left
# states (A + qH, A + qH, B + qH), so the couplings allowed by charge
# conservation form a 2x2 block and a 1x1 block.
_U1_CHARGES = {
    1: ([1.0], [0.0], [2.0]),
    2: ([1.0, -1.0], [0.0, 1.0], [2.0, 0.0]),
    3: ([1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [1.0, 0.0, 1.0]),
}


def u1_model(rng, k, L, v, lam):
    """Abelian u(1)^k model with one charged scalar and 3 + 3 chiral fermions."""
    qh, qa, qb = (np.array(q) for q in _U1_CHARGES[k])
    right = np.array([qa, qa, qb])
    left = right + qh
    mask = np.array([[float(np.array_equal(left[l], right[r] + qh)) for r in range(3)]
                     for l in range(3)])
    yuk = mask * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    yuk *= rng.uniform(0.15, 0.35)

    def charge_rep(charges):
        return [_encode(np.diag(-1.0j * charges[:, j])) for j in range(k)]

    reps = {"higgs": charge_rep(qh[None, :]), "left": charge_rep(left),
            "right": charge_rep(right)}
    doc = _model_doc(f"u1^{k}", [f"Q{j}" for j in range(k)], reps,
                     lam, v, np.array([0.5]), yuk[:, :, None], L)
    spec = {"yukawa": yuk, "v": v, "n_fiber": 6, "goldstone_count": 1, "isotropy_dim": k - 1}
    return doc, spec


class ModelSweep:
    """verify-all on each model of a seeded family of small models, in order."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.models = []
        for i, (kind, *shape) in enumerate(SWEEP_FAMILY):
            doc, spec = (lepton_model if kind == "lepton" else u1_model)(rng, *shape)
            model = os.path.join(workdir, f"sweep-{i:02d}.json")
            _write_json(doc, model)
            self.models.append((model, os.path.join(workdir, f"sweep-{i:02d}.report.json"), spec))

    def warm_up(self):
        for model, out, _ in self.models:
            _verify_all(model, out)

    def round(self):
        ops = []
        for model, out, spec in self.models:
            ops.append((
                lambda model=model, out=out: _verify_all(model, out),
                lambda _, out=out, spec=spec: checks.check_sweep_report(_read_report(out), spec),
            ))
        return ops


# -- fluctuation-io -----------------------------------------------------

class FluctuationIO:
    """Seeded fluctuations and gauge transforms of the ew-reference vacuum
    operator at n=1, L=8 (N = 384), their spectra, and one operator dump
    and one spectrum CSV written and read back."""

    L = 8
    TS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __init__(self, seed, workdir):
        cfg = fm.ew_reference()
        cfg.lattice = dict(cfg.lattice, sites_per_dim=self.L)
        higgs = cfg.build_higgs_model()
        vac = fm.minimize(higgs, cfg.higgs_seed())
        self.frep = cfg.build_fermion_rep()
        self.ymap = cfg.build_yukawa(self.frep)
        md = fm.mass_matrix(self.ymap, vac)
        lat = cfg.build_lattice()
        self.cl = cfg.build_clifford()
        self.vacuum = lattice_dirac.build_vacuum_dirac(lat, self.cl, md, self.frep, cfg.build_wilson(vac))
        self.split = (vac.goldstone_basis, vac.physical_basis)

        rng = np.random.default_rng(seed)
        sites, dim_g = lat.n_sites, self.frep.total.dim_g
        self.gauge_fl = 0.3 * rng.standard_normal((lat.dim, sites, dim_g))
        self.higgs_fl = 0.3 * (rng.standard_normal((sites, 2)) + 1j * rng.standard_normal((sites, 2)))
        self.u_site = np.array([fm.exp_map(self.frep.total, rng.standard_normal(dim_g))
                                for _ in range(sites)])
        self.op_path = os.path.join(workdir, "fluctuated.op.json")
        self.csv_path = os.path.join(workdir, "fluctuated.spectrum.csv")
        self.mask = checks.offsite_mask(self.vacuum.matrix.shape[0], self.vacuum.fiber_dim)

    def warm_up(self):
        self._run()

    def _run(self):
        fluct = [
            lattice_dirac.fluctuation_operator(
                self.vacuum, self.gauge_fl, self.higgs_fl, self.ymap, self.cl, self.frep, t,
                unitary_split=self.split,
            )
            for t in self.TS
        ]
        spectra = [lattice_dirac.spectrum(op) for op in fluct]
        moved = lattice_dirac.gauge_transform(fluct[-1], self.u_site)
        moved_spectrum = lattice_dirac.spectrum(moved)
        operator_io.dump_operator(moved, self.op_path)
        loaded = operator_io.load_operator(self.op_path)
        operator_io.write_spectrum_csv(moved_spectrum, self.csv_path)
        read_back = operator_io.read_spectrum_csv(self.csv_path)
        return fluct, spectra, moved, moved_spectrum, loaded, read_back

    def _check(self, result):
        fluct, spectra, moved, moved_spectrum, loaded, read_back = result
        errs = []
        for t, op in zip(self.TS, fluct):
            errs += checks.check_fluctuation(self.vacuum.matrix, op.matrix, t, self.mask)
        errs += checks.check_gauge_spectrum(spectra[-1], moved_spectrum)
        errs += checks.check_operator_round_trip(moved, loaded)
        errs += checks.check_spectrum_round_trip(moved_spectrum, read_back)
        return errs

    def round(self):
        return [(self._run, self._check)]


WORKLOADS = {
    "lattice-verify": LatticeVerify,
    "model-sweep": ModelSweep,
    "fluctuation-io": FluctuationIO,
}
