"""Site-dependent operators held on the vacuum's support: fluctuations and
gauge transforms against the dense constructions they replace, the
spectrum filled in from site blocks, the one-pass derivative circulant
and the spectrum CSV."""

import tracemalloc

import numpy as np
import pytest

from fermimass import (
    TorusLattice,
    apply_yukawa,
    build_clifford,
    build_vacuum_dirac,
    fluctuation_operator,
    gauge_transform,
    spectrum,
)
from fermimass.lattice_dirac import (
    LatticeOperator,
    _chirality,
    _support,
    hermiticity_residual,
)
from fermimass.higgs_vacuum import unitary_gauge_project
from fermimass.operator_io import read_spectrum_csv, write_spectrum_csv
from conftest import axis_derivative
from test_lattice_dirac import (
    THETA,
    bits,
    chiral_svd_spectrum,
    chirality_mixing_unitaries,
    dense_copy,
    dense_hermiticity_residual,
    ew_grading,
    gauge_oracle,
    hermitized_eigvalsh,
    site_unitaries,
    wilson_fields,
)


@pytest.fixture(scope="module")
def ew(ew_cfg, ew_vac, ew_frep, ew_ymap, ew_md):
    class Bundle:
        cfg = ew_cfg
        vac = ew_vac
        frep = ew_frep
        ymap = ew_ymap
        md = ew_md

    return Bundle


def forbid_dense_fill(monkeypatch):
    """Make every read of an operator's dense matrix fail, as the lattice
    path's check does."""
    def dense_fill(op):
        raise AssertionError(f"filled in the dense matrix of {op.kind!r}")

    monkeypatch.setattr(LatticeOperator, "matrix", property(dense_fill))


def dense_fluctuation(vac_op, A_fl, phi_fl, ymap, cl, frep, t, unitary_split=None):
    """Oracle: the dense construction, the vacuum's matrix plus t * (0 + 0j)
    everywhere and the site blocks added on the block diagonal."""
    S, fiber = vac_op.lattice.n_sites, vac_op.fiber_dim
    phis = np.asarray(phi_fl, dtype=complex)
    if phis.ndim == 1:
        phis = np.broadcast_to(phis, (S, phis.shape[0]))
    if unitary_split is not None:
        phis = unitary_gauge_project(unitary_split, phis)
    blk = np.kron(cl.gamma5[None], apply_yukawa(ymap, phis))
    if A_fl is not None:
        for a in range(len(A_fl)):
            blk += np.kron(cl.gamma[a][None], frep.total.element(np.asarray(A_fl[a], dtype=float)))
    if float(t) == 0.0:
        return vac_op.matrix.copy()
    t = float(t)
    out = vac_op.matrix + t * np.zeros((), dtype=complex)
    sites = np.arange(S)
    vac4 = vac_op.matrix.reshape(S, fiber, S, fiber)
    out.reshape(S, fiber, S, fiber)[sites, :, sites, :] = vac4[sites, :, sites, :] + t * blk
    return out


@pytest.fixture(scope="module", params=[(1, 4, False), (1, 4, True), (2, 3, False), (2, 3, True)],
                ids=["n1-L4", "n1-L4-wilson", "n2-L3", "n2-L3-wilson"])
def case(request, ew):
    """(vacuum operator, Clifford algebra, gauge and Higgs fluctuations,
    unitary split), seeded."""
    n, L, wilson = request.param
    lat, cl = TorusLattice(n=n, L=L), build_clifford(n)
    fields = wilson_fields(ew.cfg, ew.vac, THETA[: 2 * n]) if wilson else None
    op = build_vacuum_dirac(lat, cl, ew.md, ew.frep, fields)
    rng = np.random.default_rng(23 + L)
    A = 0.3 * rng.standard_normal((lat.dim, lat.n_sites, ew.frep.total.dim_g))
    phi = 0.3 * (rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2)))
    return op, cl, A, phi, (ew.vac.goldstone_basis, ew.vac.physical_basis)


# ----- fluctuations -------------------------------------------------------

@pytest.mark.parametrize("t", [0.0, 0.25, 1.0, -0.5])
def test_fluctuation_matrix_is_the_dense_construction_bitwise(ew, case, t, monkeypatch):
    op, cl, A, phi, split = case
    for A_fl in (A, None):
        got = fluctuation_operator(op, A_fl, phi, ew.ymap, cl, ew.frep, t, unitary_split=split)
        want = dense_fluctuation(op, A_fl, phi, ew.ymap, cl, ew.frep, t, unitary_split=split)
        assert np.array_equal(bits(got.matrix), bits(want))
        assert got.sites is not None and got.sites[0] == 0
    # the vacuum is never densified along the way
    forbid_dense_fill(monkeypatch)
    fluctuation_operator(build_vacuum_dirac(op.lattice, cl, ew.md, ew.frep), A, phi, ew.ymap, cl, ew.frep, t)


def test_t0_keeps_the_vacuum_stencil(ew, case):
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.0, unitary_split=split)
    assert np.array_equal(fl.sites, op.sites) and np.array_equal(bits(fl.blocks), bits(op.blocks))
    assert fl.blocks is not op.blocks and fl.meta == {"t": 0.0}


def test_fluctuation_adds_site_0_to_a_support_without_it(ew):
    lat, cl = TorusLattice(n=1, L=3), build_clifford(1)
    rng = np.random.default_rng(4)
    F = cl.spinor_dim * 3
    blocks = rng.standard_normal((2, F, F)) + 1j * rng.standard_normal((2, F, F))
    blocks[0, 0, 0] = -0.0
    op = LatticeOperator(lat, cl.spinor_dim, 3, sites=np.array([1, 5]), blocks=blocks)
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    fl = fluctuation_operator(op, None, phi, ew.ymap, cl, ew.frep, 0.5)
    assert np.array_equal(fl.sites, [0, 1, 5])
    want = dense_fluctuation(op, None, phi, ew.ymap, cl, ew.frep, 0.5)
    assert np.array_equal(bits(fl.matrix), bits(want))


def test_fluctuation_of_a_gauge_transform(ew, case):
    op, cl, A, phi, split = case
    moved = gauge_transform(op, site_unitaries(ew.frep, op.lattice.n_sites, 2))
    assert moved.blocks.shape == (op.lattice.n_sites,) + op.blocks.shape
    fl = fluctuation_operator(moved, A, phi, ew.ymap, cl, ew.frep, 0.75, unitary_split=split)
    want = dense_fluctuation(moved, A, phi, ew.ymap, cl, ew.frep, 0.75, unitary_split=split)
    assert np.array_equal(bits(fl.matrix), bits(want))
    assert np.array_equal(spectrum(fl), chiral_svd_spectrum(fl, ew_grading(ew, cl)))


def test_dense_held_operators_take_the_same_block_code(ew, case):
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5, unitary_split=split)
    dense = dense_copy(fl)
    assert np.array_equal(spectrum(dense), spectrum(fl))
    assert hermiticity_residual(dense) == hermiticity_residual(fl)
    again = fluctuation_operator(dense, A, phi, ew.ymap, cl, ew.frep, 0.5)
    assert np.array_equal(bits(again.matrix),
                          bits(dense_fluctuation(dense, A, phi, ew.ymap, cl, ew.frep, 0.5)))
    us = site_unitaries(ew.frep, op.lattice.n_sites, 6)
    assert np.array_equal(gauge_transform(dense, us).matrix, gauge_transform(fl, us).matrix)


# ----- Hermiticity, chirality and the spectrum ----------------------------

def test_site_hermiticity_residual_is_the_dense_one_bitwise(ew, case):
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5, unitary_split=split)
    # a one-sided error in the block coupling site 0 to site 1
    fl.blocks[0, np.flatnonzero(fl.sites == 1)[0], 1, 3] += 1e-12
    moved = gauge_transform(fl, site_unitaries(ew.frep, op.lattice.n_sites, 8))
    for site_op in (fl, moved):
        tiled = np.tile(_chirality(site_op), op.lattice.n_sites)
        assert hermiticity_residual(site_op) == dense_hermiticity_residual(site_op.matrix, tiled)
        assert hermiticity_residual(site_op)[0] > 0.0


def test_site_hermiticity_of_a_support_not_closed_under_negation():
    # sites 1 = (0, 1) and 5 = (1, 2) are held, their negations 2 and 7 are not
    lat = TorusLattice(n=1, L=3)
    rng = np.random.default_rng(12)
    shape = (lat.n_sites, 3, 2, 2)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    op = LatticeOperator(lat, 1, 2, sites=np.array([0, 1, 5]), blocks=blocks)
    want = dense_hermiticity_residual(op.matrix)
    assert hermiticity_residual(op) == want == hermiticity_residual(dense_copy(op))


def test_site_spectrum_is_the_dense_chiral_svd_bitwise(ew, case):
    op, cl, A, phi, split = case
    grading = ew_grading(ew, cl)
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5, unitary_split=split)
    moved = gauge_transform(fl, site_unitaries(ew.frep, op.lattice.n_sites, 9))
    for site_op in (fl, moved):
        assert np.array_equal(spectrum(site_op), chiral_svd_spectrum(site_op, grading))
    mixed = gauge_transform(fl, chirality_mixing_unitaries(op.lattice.n_sites, 3, 1))
    assert _chirality(mixed) is None
    assert np.array_equal(spectrum(mixed), hermitized_eigvalsh(mixed))


def test_writing_into_the_matrix_changes_nothing(ew, case, monkeypatch):
    # either form's matrix is filled in on every read and not kept, and the
    # spectrum reads the blocks
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 1.0, unitary_split=split)
    before = [spectrum(x) for x in (op, fl)]
    for x in (op, fl):
        mat = x.matrix
        mat[0, 1] += 1.0
        assert x.matrix is not mat and not np.array_equal(x.matrix, mat)
    forbid_dense_fill(monkeypatch)
    assert all(np.array_equal(spectrum(x), want) for x, want in zip((op, fl), before))


def test_support_rejects_a_site_dependent_operator(ew, case):
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5)
    moved = gauge_transform(op, site_unitaries(ew.frep, op.lattice.n_sites, 4))
    for site_op in (fl, moved):
        with pytest.raises(ValueError, match="held per site"):
            _support(site_op)


# ----- gauge transforms ----------------------------------------------------

def test_gauge_transform_of_a_fluctuation_matches_the_dense_product(ew, case):
    op, cl, A, phi, split = case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 1.0, unitary_split=split)
    us = site_unitaries(ew.frep, op.lattice.n_sites, 5)
    for source in (op, fl):
        out = gauge_transform(source, us)
        want = gauge_oracle(source, us)
        assert np.abs(out.matrix - want).max() <= 1e-14 * np.abs(want).max()
        eye = np.broadcast_to(np.eye(3, dtype=complex), us.shape)
        assert np.array_equal(gauge_transform(source, eye).matrix, source.matrix)


def test_fluctuation_and_gauge_transform_form_no_dense_matrix(ew, monkeypatch):
    # n=1, L=16: N = 1536, where one dense matrix is 37.7 MB; the site
    # blocks are S nnz F^2 complex numbers, 4.6 MB
    lat, cl = TorusLattice(n=1, L=16), build_clifford(1)
    op = build_vacuum_dirac(lat, cl, ew.md, ew.frep)
    S, nnz, F = lat.n_sites, op.sites.size, op.fiber_dim
    rng = np.random.default_rng(16)
    A = 0.3 * rng.standard_normal((lat.dim, S, ew.frep.total.dim_g))
    phi = 0.3 * (rng.standard_normal((S, 2)) + 1j * rng.standard_normal((S, 2)))
    us = site_unitaries(ew.frep, S, 16)
    split = (ew.vac.goldstone_basis, ew.vac.physical_basis)
    forbid_dense_fill(monkeypatch)
    tracemalloc.start()
    try:
        fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5, unitary_split=split)
        gauge_transform(fl, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * S * nnz * F * F * 16


# ----- the derivative circulant ----------------------------------------------

def loop_axis_derivative(lat):
    """Oracle: the L x L derivative filled entry by entry in a double loop."""
    L, a = lat.L, lat.a
    D = np.zeros((L, L), dtype=complex)
    if lat.derivative_kind == "fourier_spectral":
        for d in range(L):
            if d == 0:
                val = 1j * np.pi * (L - 1) / (L * a)
            else:
                if (4 * d) % L == 0:
                    w = 1j ** ((4 * d) // L)
                else:
                    w = np.exp(2j * np.pi * d / L)
                val = (2j * np.pi / (L * a)) / (w - 1.0)
            for x in range(L):
                D[x, (x - d) % L] = val
    else:
        for x in range(L):
            D[x, (x + 1) % L] += 1.0 / (2.0 * a)
            D[x, (x - 1) % L] -= 1.0 / (2.0 * a)
    return D


@pytest.mark.parametrize("kind", ["fourier_spectral", "central_difference"])
@pytest.mark.parametrize("L", range(1, 13))
def test_axis_derivative_is_the_loop_fill_bitwise(kind, L):
    for a in (1.0, 0.7):
        lat = TorusLattice(n=1, L=L, a=a, derivative_kind=kind)
        assert np.array_equal(bits(axis_derivative(lat)), bits(loop_axis_derivative(lat)))


# ----- spectrum CSV ----------------------------------------------------------

def loop_write_spectrum_csv(values, path):
    """Oracle: the row-by-row writer."""
    values = np.sort(np.asarray(values, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{v:.16e}\n")


def test_spectrum_csv_bytes_are_the_row_writer_s(tmp_path):
    values = [1.0 / 3.0, -0.0, 5e-324, np.inf, -np.inf, -2.5e-320, 0.0, 2.0 ** 60, -1.5]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_spectrum_csv(values, got)
    loop_write_spectrum_csv(values, want)
    assert got.read_bytes() == want.read_bytes()
    back = read_spectrum_csv(got)
    assert np.array_equal(bits(back), bits(np.sort(np.asarray(values))))


def test_spectrum_csv_reader_checks_the_header_and_skips_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("index,eigenvalue\n0,1.5\n\n1,2.5\n\n")
    assert np.array_equal(read_spectrum_csv(path), [1.5, 2.5])
    path.write_text("index,eigenvalue\n")
    assert read_spectrum_csv(path).shape == (0,)
    path.write_text("idx,value\n0,1.5\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_spectrum_csv(path)
