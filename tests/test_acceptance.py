"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success (visible with pytest -s; the
per-test verdict lines of pytest -v carry the same information).
"""

import dataclasses
import itertools
import time

import numpy as np

from fermimass import (
    DEFAULT,
    YukawaMap,
    apply_yukawa,
    bochner_laplacian,
    branch_momentum_shifts,
    build_clifford,
    build_vacuum_connection,
    build_vacuum_dirac,
    canonical_xi,
    check_equivariance,
    dirac_potential,
    exp_map,
    expected_squared_spectrum,
    fluctuation_operator,
    gauge_transform,
    lagrangian_density,
    lemma_verify,
    mass_matrix,
    mean_mass,
    minimize,
    relative_curvature,
    spectrum,
)
from fermimass.lattice_dirac import TorusLattice
from fermimass.yukawa_mass import mass_data_from_operator, reconstruction_residual
from conftest import ew_perturbed_objects


def _announce(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_clifford_suite():
    start = time.perf_counter()
    for n in (1, 2):
        cl = build_clifford(n)
        eye = np.eye(cl.spinor_dim)
        for a in range(cl.dim):
            for b in range(cl.dim):
                acomm = cl.gamma[a] @ cl.gamma[b] + cl.gamma[b] @ cl.gamma[a]
                want = 2.0 * (1.0 if a == b else 0.0) * eye
                assert np.abs(acomm - want).max() <= 1e-12
            assert np.abs(cl.gamma5 @ cl.gamma[a] + cl.gamma[a] @ cl.gamma5).max() <= 1e-12
        assert np.abs(cl.gamma5 @ cl.gamma5 - eye).max() <= 1e-12
        xi = canonical_xi(cl)
        acc = sum(cl.gamma[a] @ xi[a] for a in range(cl.dim))
        assert np.abs(acc - eye).max() <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, f"clifford identities for n=1,2 at 1e-12 ({elapsed:.3f}s)")


def test_criterion_02_electroweak_breaking(ew_cfg, ew_higgs):
    start = time.perf_counter()
    vac = minimize(ew_higgs, ew_cfg.higgs_seed())
    assert abs(np.linalg.norm(vac.z0) - 2.0) <= 1e-8
    assert vac.isotropy.dim == 1
    assert vac.goldstone_count == 3
    assert vac.physical_count == 1
    # oracle: second derivative of lam (s - v^2)^2 at s = v^2 along the
    # radial direction gives 8 lam v^2 = 32
    assert vac.transversal_hessian_eigs.size == 1
    assert abs(vac.transversal_hessian_eigs[0] - 32.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, f"electroweak breaking pattern |z0|=2, 1+3+1, eig 32 ({elapsed:.3f}s)")


def test_criterion_03_lemma_verification(ew_cfg, ew_higgs, ew_vac, ew_frep, ew_ymap, ew_md):
    start = time.perf_counter()
    lemma = lemma_verify(ew_ymap, ew_md, ew_vac, ew_frep, ew_higgs)
    assert lemma.commutant_residual <= 1e-12
    assert lemma.orbit_deviation <= 1e-9
    assert reconstruction_residual(ew_md) <= 1e-10
    assert lemma.orbit_transport_residual <= DEFAULT.orbit_spectrum

    # negative control: 5% perturbation of the right hypercharge
    cfg_p, higgs_p, frep_p, ymap_p = ew_perturbed_objects(y_right=-2.0 * 1.05)
    assert check_equivariance(ymap_p, higgs_p.rep, frep_p) >= 1e-3
    vac_p = minimize(higgs_p, cfg_p.higgs_seed())
    md_p = mass_matrix(ymap_p, vac_p)
    lemma_p = lemma_verify(ymap_p, md_p, vac_p, frep_p, higgs_p)
    # this coupling has one singular value y_e |z0|, so moved spectra remain
    # equal as multisets; orbit invariance fails through the transport of
    # the mass matrix itself (the vacua are no longer equivalent)
    assert lemma_p.orbit_transport_residual > DEFAULT.orbit_spectrum
    assert lemma_p.orbit_transport_residual > 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(3, f"lemma checks pass, perturbed hypercharge fails ({elapsed:.3f}s)")


def test_criterion_04_eigenbundle_split(ew_md):
    # oracle: eigen-decomposition of diag(0, y_e^2 v^2) = diag(0, 1)
    blocks = ew_md.eigenspaces
    assert len(blocks) == 2
    massless, massive = blocks
    assert massless.m2 == 0.0
    assert massless.left_dim == 1 and massless.right_dim == 0
    assert np.abs(np.abs(massless.left_basis[:, 0]) - np.array([1.0, 0.0])).max() <= 1e-10
    assert abs(massive.m2 - 1.0) <= 1e-10
    assert massive.left_dim == 1 and massive.right_dim == 1
    assert np.abs(np.abs(massive.left_basis[:, 0]) - np.array([0.0, 1.0])).max() <= 1e-10
    assert np.abs(np.abs(massive.right_basis[:, 0]) - np.array([1.0])).max() <= 1e-10
    _announce(4, "eigenbundle split: massless left singlet + paired block at m^2=1")


def test_criterion_05_dispersion(ew_md, ew_frep):
    start = time.perf_counter()
    cl = build_clifford(1)
    for L in (2, 4):
        lat = TorusLattice(n=1, L=L, a=1.0)
        op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
        got = spectrum(op, square_first=True)
        ks = lat.momenta()
        vals = []
        for kvec in itertools.product(ks, repeat=2):
            for m2 in ew_md.spectrum_sq:
                vals.extend([kvec[0] ** 2 + kvec[1] ** 2 + m2] * 2)
        want = np.sort(np.asarray(vals))
        assert got.size == want.size == L ** 2 * 2 * 3
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, float(want.max()))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(5, f"dispersion |k|^2 + m^2 with multiplicity 2^n at L=2,4 ({elapsed:.3f}s)")


def test_criterion_06_dirac_potential_and_density(ew_md, ew_frep):
    cl = build_clifford(1)
    lat = TorusLattice(n=1, L=4, a=1.0)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, ew_frep))
    vd = dirac_potential(op, lap)
    assert vd.meta["offsite_leakage"] <= 1e-10
    dens = lagrangian_density(vd, lat)
    trace_want = 2.0 * float(ew_md.spectrum_sq.sum())  # 2^n sum m^2 = 4
    assert abs(dens.per_site_trace - trace_want) <= 1e-9
    assert abs(dens.per_site_trace - 2.0 * 3.0 * mean_mass(ew_md)) <= 1e-12
    # massless case: the density vanishes exactly
    for L in (2, 4):
        lat0 = TorusLattice(n=1, L=L, a=1.0)
        op0 = build_vacuum_dirac(lat0, cl, None, ew_frep)
        lap0 = bochner_laplacian(build_vacuum_connection(lat0, cl, None, ew_frep))
        dens0 = lagrangian_density(dirac_potential(op0, lap0), lat0)
        assert dens0.per_site_trace == 0.0
    _announce(6, "Dirac potential site-diagonal, trace 2^n sum m^2, massless density 0")


def test_criterion_07_curvature_identity(ew_vac, ew_frep, ew_md):
    cl = build_clifford(1)
    lat = TorusLattice(n=1, L=2, a=1.0)
    conn = build_vacuum_connection(lat, cl, ew_md, ew_frep)
    curv = relative_curvature(conn, cl, ew_md, ew_frep)
    assert curv.residual <= 1e-12
    # ten-coupling family including zero: flat exactly when massless
    for y in np.linspace(0.0, 0.9, 10):
        tensor = np.zeros((2, 1, 2), dtype=complex)
        tensor[0, 0, 0] = y
        tensor[1, 0, 1] = y
        ymap = YukawaMap(tensor=tensor)
        md = mass_matrix(ymap, ew_vac)
        c = relative_curvature(
            build_vacuum_connection(lat, cl, md, ew_frep), cl, md, ew_frep
        )
        assert c.residual <= 1e-12
        assert (c.max_component_norm() <= 1e-12) == (np.abs(md.spectrum_sq).max() == 0.0)
    _announce(7, "curvature equals squared mass times xi wedge xi; flat iff massless")


def test_criterion_08_gauge_covariance(ew_cfg, ew_higgs, ew_vac, ew_frep, ew_ymap, ew_md):
    cl = build_clifford(1)
    lat = TorusLattice(n=1, L=2, a=1.0)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    # constant transformations from the unbroken algebra: entrywise invariant
    for t in (0.3, 1.1):
        u = exp_map(ew_frep.total, t * np.asarray(ew_vac.isotropy.basis[0]))
        out = gauge_transform(op, u)
        assert np.abs(out.matrix - op.matrix).max() <= 1e-12
    # arbitrary constant transformations: spectrum invariant
    rng = np.random.default_rng(808)
    for _ in range(5):
        u = exp_map(ew_frep.total, rng.standard_normal(4))
        out = gauge_transform(op, u)
        assert np.abs(spectrum(out) - spectrum(op)).max() <= 1e-10
    # pure-gauge fluctuations at t = 1: spectrum invariant
    for _ in range(5):
        g = exp_map(ew_higgs.rep, rng.standard_normal(4))
        phi_fl = g @ ew_vac.z0 - ew_vac.z0
        fl = fluctuation_operator(op, None, phi_fl, ew_ymap, cl, ew_frep, 1.0)
        assert np.abs(spectrum(fl) - spectrum(op)).max() <= 1e-10
    _announce(8, "gauge covariance: unbroken entrywise, constant G and pure gauge spectral")


def test_criterion_09_wilson_holonomy(ew_cfg, ew_vac, ew_frep, ew_md):
    cl = build_clifford(1)
    lat = TorusLattice(n=1, L=4, a=1.0)
    for theta in ([[0.25], [0.0]], [[0.1], [0.35]]):
        fields = dataclasses.replace(ew_cfg, wilson={"theta": theta}).build_wilson(ew_vac)
        # two charge assignments on the fermion fiber: the massless branch
        # carries zero charge, the massive branch a nonzero one
        charges = {
            round(q, 9)
            for a in range(2)
            for q in np.linalg.eigvalsh(-1j * fields[a]).tolist()
        }
        nonzero = {q for q in charges if abs(q) > 1e-12}
        assert 0.0 in charges and nonzero
        op = build_vacuum_dirac(lat, cl, ew_md, ew_frep, fields)
        got = spectrum(op, square_first=True)
        # branch-resolved closed form: momenta shift by the branch charge
        shifts = branch_momentum_shifts(lat, ew_md, ew_frep, fields)
        want = expected_squared_spectrum(lat, cl, ew_md, ew_frep, shifts)
        assert np.abs(got - want).max() <= 1e-9
    _announce(9, "Wilson line shifts momenta per branch charge for two assignments")


def test_criterion_10_fluctuation_family(ew_vac, ew_frep, ew_ymap, ew_md):
    cl = build_clifford(1)
    lat = TorusLattice(n=1, L=2, a=1.0)
    op = build_vacuum_dirac(lat, cl, ew_md, ew_frep)
    # t = 0 reproduces the vacuum operator bit for bit
    fl0 = fluctuation_operator(op, None, np.array([0.2, 0.1j]), ew_ymap, cl, ew_frep, 0.0)
    assert np.array_equal(fl0.matrix, op.matrix)
    # constant physical fluctuation h: the charged branch mass becomes
    # y_e (v + h) in the squared spectrum
    h = 0.7
    phi = h * np.array([0.0, 1.0])
    fl = fluctuation_operator(op, None, phi, ew_ymap, cl, ew_frep, 1.0)
    got = spectrum(fl, square_first=True)
    md_shift = mass_data_from_operator(apply_yukawa(ew_ymap, ew_vac.z0 + phi), 2, 1)
    assert abs(md_shift.spectrum_sq.max() - (0.5 * 2.7) ** 2) <= 1e-12
    want = expected_squared_spectrum(lat, cl, md_shift, ew_frep)
    assert np.abs(got - want).max() <= 1e-9
    _announce(10, "fluctuations: t=0 bitwise, physical shift moves mass to y_e(v+h)")
