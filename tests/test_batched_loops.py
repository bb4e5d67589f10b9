"""The stacked forms of the verify-all pipeline's small-matrix work against
the per-element loops they replaced, kept here as references.  The orbit
lemma, the equivariance and the invariance residuals are equal bit for bit;
the closure residual, whose one least-squares solve takes every commutator
as a right-hand side, agrees to 1e-15.  The stencil product's grouped
products equal its per-site loop bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings

from fermimass import TorusLattice, apply_yukawa, build_clifford, build_vacuum_connection
from fermimass import build_vacuum_dirac, check_equivariance, ew_reference, exp_map, lemma_verify
from fermimass import lattice_dirac, mass_matrix, minimize
from fermimass.group_rep import closure_residual
from fermimass.higgs_vacuum import invariance_residual
from fermimass.lattice_dirac import _coords, _index, _product_stencil, _union
from fermimass.yukawa_mass import ORBIT_MOVES, ORBIT_SEED
from test_charge_models import charge_models
from test_lattice_dirac import two_generation_leptons

MODELS = {
    "ew": ew_reference,
    "ew-off-rule": lambda: ew_reference(y_right=-2.1),
    "leptons": two_generation_leptons,
}


def orbit_loop(ymap, md, vac, frep, model):
    """(orbit deviation, transport residual) one move at a time."""
    rng = np.random.default_rng(ORBIT_SEED)
    nl, nr = md.n_left, md.n_right
    deviation = transport = 0.0
    for _ in range(ORBIT_MOVES):
        coeffs = rng.standard_normal(model.rep.dim_g)
        moved = apply_yukawa(ymap, exp_map(model.rep, coeffs) @ vac.z0)
        s = np.linalg.svd((-1j * moved)[:nl, nl:], compute_uv=False)
        spec = np.sort(np.concatenate([s ** 2, np.zeros(nl - s.size), s ** 2, np.zeros(nr - s.size)]))
        deviation = max(deviation, float(np.max(np.abs(spec - md.spectrum_sq))))
        g_f = exp_map(frep.total, coeffs)
        carried = g_f @ md.D_matrix @ g_f.conj().T
        transport = max(transport, float(np.max(np.abs(moved - carried))))
    return deviation, transport


def equivariance_loop(ymap, rep_H, frep):
    worst = 0.0
    probes = []
    for h in range(ymap.n_higgs):
        e = np.zeros(ymap.n_higgs, dtype=complex)
        e[h] = 1.0
        probes += [e, 1j * e]
    for XH, XF in zip(rep_H.generators, frep.total.generators):
        for b in probes:
            G = apply_yukawa(ymap, b)
            rhs = apply_yukawa(ymap, XH @ b)
            worst = max(worst, float(np.max(np.abs(XF @ G - G @ XF - rhs))))
    return worst


def invariance_loop(model, n_samples, seed):
    rng = np.random.default_rng(seed)
    c = model.poly_coefficients()

    def potential(z):
        return float(np.polynomial.polynomial.polyval(float(np.vdot(z, z).real), c))

    worst = 0.0
    for _ in range(n_samples):
        z = rng.standard_normal(model.rep.rep_dim) + 1j * rng.standard_normal(model.rep.rep_dim)
        g = exp_map(model.rep, rng.standard_normal(model.rep.dim_g))
        v0, v1 = potential(z), potential(g @ z)
        worst = max(worst, abs(v1 - v0) / max(1.0, abs(v0)))
    return worst


def closure_loop(generators):
    gens = [np.asarray(g, dtype=complex) for g in generators]
    basis = np.stack([np.concatenate([X.real.ravel(), X.imag.ravel()]) for X in gens], axis=1)
    worst = 0.0
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            target = np.concatenate([comm.real.ravel(), comm.imag.ravel()])
            coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
            worst = max(worst, float(np.linalg.norm(basis @ coef - target)))
    return worst


def assert_stacked_equals_loops(cfg):
    built = cfg.build()
    higgs, frep, ymap = built.higgs, built.frep, built.ymap
    vac = minimize(higgs, built.seed)
    md = mass_matrix(ymap, vac)
    lemma = lemma_verify(ymap, md, vac, frep, higgs)
    assert (lemma.orbit_deviation, lemma.orbit_transport_residual) == orbit_loop(
        ymap, md, vac, frep, higgs)
    assert check_equivariance(ymap, higgs.rep, frep) == equivariance_loop(ymap, higgs.rep, frep)
    # the load-time sampling and the function's defaults
    for args in ((6, 7), (8, 0)):
        assert invariance_residual(higgs, *args) == invariance_loop(higgs, *args)
    for rep in (higgs.rep, frep.rep_L, frep.rep_R, frep.total):
        assert abs(closure_residual(rep.generators) - closure_loop(rep.generators)) <= 1e-15
        coeffs = np.random.default_rng(rep.rep_dim).standard_normal((5, rep.dim_g))
        stacked = exp_map(rep, coeffs)
        assert stacked.shape == (5, rep.rep_dim, rep.rep_dim)
        assert np.array_equal(stacked, np.array([exp_map(rep, c) for c in coeffs]))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_work_equals_the_loops(name):
    assert_stacked_equals_loops(MODELS[name]())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(charge_models(off_rule=True))
def test_stacked_work_equals_the_loops_on_charge_models(case):
    assert_stacked_equals_loops(case[0])


def test_closure_of_non_closing_generators_agrees_with_the_loop():
    # three random anti-Hermitian 3x3 matrices span no algebra: residuals of
    # order one, agreeing to rounding relative to their size
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    gens = A - A.conj().swapaxes(-1, -2)
    got, want = closure_residual(gens), closure_loop(gens)
    assert want > 0.1
    assert abs(got - want) <= 1e-15 * want


def product_loop(A, B, lat):
    """(sites, blocks) of the stencil product A B, one site of the result at
    a time: the blocks A(s) side by side times the blocks B(r - s) stacked."""
    (sa, A), (sb, B) = A, B
    F = A.shape[1]
    ia, ib = (np.flatnonzero(np.any(X, axis=(1, 2))) for X in (A, B))
    target = _index(lat, _coords(lat, sa[ia])[:, :, None] + _coords(lat, sb[ib])[:, None, :])
    sites = _union([target])
    out = np.empty((sites.size, F, F), dtype=complex)
    for k, r in enumerate(sites):
        i, j = np.nonzero(target == r)
        a = A[ia[i]].transpose(1, 0, 2).reshape(F, -1)
        b = B[ib[j]].reshape(-1, F)
        out[k].real = a.real @ b.real - a.imag @ b.imag
        out[k].imag = a.real @ b.imag + a.imag @ b.real
    return sites, out


def assert_product_equals_the_loop(A, B, lat):
    (sites, blocks), (want_sites, want_blocks) = _product_stencil(A, B, lat), product_loop(A, B, lat)
    assert sites.dtype == want_sites.dtype
    assert np.array_equal(sites, want_sites)
    assert blocks.shape == want_blocks.shape
    assert blocks.tobytes() == want_blocks.tobytes()


def ew_stencils(n, L, kind, wilson):
    """ew-reference's vacuum Dirac stencil and the components of its mass
    and plain connections, as (sites, blocks), on the n, L, kind lattice."""
    cfg = ew_reference()
    cfg.lattice.update({"n": n, "sites_per_dim": L, "derivative": kind})
    cfg.wilson = {"theta": [[0.25], [0.0], [0.1], [-0.3]][: 2 * n]} if wilson else None
    built = cfg.build()
    vac = minimize(built.higgs, built.seed)
    md = mass_matrix(built.ymap, vac)
    lat, cl = built.lattice, build_clifford(n)
    fields = built.wilson_fields(vac)
    ops = [build_vacuum_dirac(lat, cl, md, built.frep, fields)]
    ops += build_vacuum_connection(lat, cl, md, built.frep, fields)
    ops += build_vacuum_connection(lat, cl, None, built.frep, fields)
    return lat, [(op.sites, op.blocks) for op in ops]


@pytest.mark.parametrize("wilson", [False, True])
@pytest.mark.parametrize("kind", ["fourier_spectral", "central_difference"])
@pytest.mark.parametrize("n, L", [(1, 1), (1, 2), (1, 3), (1, 5), (1, 8), (2, 2), (2, 3), (2, 4)])
def test_stencil_product_equals_the_loop_on_vacuum_operators(n, L, kind, wilson):
    lat, (dirac, *components) = ew_stencils(n, L, kind, wilson)
    assert_product_equals_the_loop(dirac, dirac, lat)
    for comp in components:
        assert_product_equals_the_loop(comp, comp, lat)
    # products of different operators, whose supports differ
    assert_product_equals_the_loop(dirac, components[0], lat)
    assert_product_equals_the_loop(components[0], components[-1], lat)


def random_support(rng, lat, F):
    """(sites, blocks) on a random ascending site set, one block of it zero."""
    size = int(rng.integers(1, lat.n_sites + 1))
    sites = np.sort(rng.choice(lat.n_sites, size=size, replace=False))
    blocks = rng.standard_normal((size, F, F)) + 1j * rng.standard_normal((size, F, F))
    blocks[rng.integers(size)] = 0.0
    return sites, blocks


def closed_under_negation(lat, sites):
    return np.array_equal(np.sort(_index(lat, -_coords(lat, sites))), sites)


# the default chunks, and one group per stacked product
@pytest.mark.parametrize("chunk_bytes", [lattice_dirac._PRODUCT_BYTES, 1])
def test_stencil_product_equals_the_loop_on_random_supports(chunk_bytes, monkeypatch):
    monkeypatch.setattr(lattice_dirac, "_PRODUCT_BYTES", chunk_bytes)
    rng = np.random.default_rng(20)
    open_supports = 0
    for _ in range(50):
        lat = TorusLattice(n=int(rng.integers(1, 3)), L=int(rng.integers(1, 5)))
        F = int(rng.integers(1, 5))
        A, B = random_support(rng, lat, F), random_support(rng, lat, F)
        open_supports += not closed_under_negation(lat, A[0])
        assert_product_equals_the_loop(A, B, lat)
    assert open_supports >= 25
    # an operator that is zero on its whole support: the product is empty
    lat = TorusLattice(n=1, L=3)
    zero = (np.array([0, 1]), np.zeros((2, 3, 3), dtype=complex))
    one = (np.array([0]), np.ones((1, 3, 3), dtype=complex))
    for A, B in ((zero, one), (one, zero)):
        assert_product_equals_the_loop(A, B, lat)
        sites, blocks = _product_stencil(A, B, lat)
        assert (sites.size, blocks.shape) == (0, (0, 3, 3))
