"""Vacuum operators held on their support, the per-momentum spectral path,
the closed-form spectrum and the lattice command's memory."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from fermimass import (
    TorusLattice,
    bochner_laplacian,
    branch_momentum_shifts,
    build_clifford,
    build_vacuum_connection,
    build_vacuum_dirac,
    cli,
    dirac_potential,
    ew_reference,
    expected_squared_spectrum,
    mass_matrix,
    minimize,
    save_model,
    spectrum,
)
from fermimass.lattice_dirac import (
    LatticeOperator,
    _bloch_blocks,
    _chirality,
    hermiticity_residual,
    lattice_footprint,
)
from test_lattice_dirac import dense_copy, full_stencil, two_generation_leptons, wilson_fields

# a Wilson line over the one-dimensional isotropy algebra, one row per
# axis of the 6-torus; its first 2n rows serve the 2n-torus
THETA6 = [[0.25], [0.1], [0.4], [0.05], [-0.3], [0.15]]


def vacuum_objects(model, n, L, kind, wilson):
    """(lattice, Clifford algebra, mass data, fermions, Wilson fields or None)."""
    cfg = ew_reference() if model == "ew" else two_generation_leptons()
    built = cfg.build()
    vac = minimize(built.higgs, built.seed)
    md = mass_matrix(built.ymap, vac)
    fields = wilson_fields(cfg, vac, THETA6[: 2 * n]) if wilson else None
    return TorusLattice(n=n, L=L, derivative_kind=kind), build_clifford(n), md, built.frep, fields


CASES = [
    (model, n, L, kind, wilson)
    for model, n, L in (("ew", 1, 4), ("ew", 1, 3), ("ew", 2, 3), ("ew", 3, 3), ("leptons", 1, 3),
                        ("leptons", 2, 2))
    for kind in ("fourier_spectral", "central_difference")
    for wilson in (False, True)
]


@pytest.fixture(scope="module", params=CASES, ids=lambda p: "-".join(map(str, p)))
def vacuum(request):
    return vacuum_objects(*request.param)


# the cases whose dense matrices are desk scale (the 6-torus's are 17496 rows)
@pytest.fixture(scope="module", params=[c for c in CASES if c[1] < 3], ids=lambda p: "-".join(map(str, p)))
def dense_vacuum(request):
    return vacuum_objects(*request.param)


def vacuum_operators(lat, cl, md, frep, fields):
    """{name: operator} of every vacuum operator the lattice command builds."""
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    conn = build_vacuum_connection(lat, cl, md, frep, fields)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, frep, fields))
    ops = {"dirac": op, "laplacian": lap, "potential": dirac_potential(op, lap)}
    ops.update({f"connection_{a}": comp for a, comp in enumerate(conn)})
    return ops


# ----- the support ------------------------------------------------------

def nonzero_axes(lat, sites):
    return np.count_nonzero(np.array(np.unravel_index(sites, (lat.L,) * lat.dim)), axis=0)


def axis_line(lat, a):
    return np.arange(lat.L) * lat.L ** (lat.dim - a - 1)


def test_supports_are_the_axis_lines_and_planes(vacuum):
    lat, cl, md, frep, fields = vacuum
    ops = vacuum_operators(lat, cl, md, frep, fields)
    lines = np.flatnonzero(nonzero_axes(lat, np.arange(lat.n_sites)) <= 1)
    planes = np.flatnonzero(nonzero_axes(lat, np.arange(lat.n_sites)) <= 2)
    assert lines.size == lat.dim * (lat.L - 1) + 1
    assert planes.size == 1 + lat.dim * (lat.L - 1) + math.comb(lat.dim, 2) * (lat.L - 1) ** 2
    for op in ops.values():
        assert np.all(np.diff(op.sites) > 0)
        assert op.blocks.shape == (op.sites.size, op.fiber_dim, op.fiber_dim)
    # the builders hold the axis lines whatever the derivative's zeros
    assert np.array_equal(ops["dirac"].sites, lines)
    for a in range(lat.dim):
        assert np.array_equal(ops[f"connection_{a}"].sites, axis_line(lat, a))
    if lat.derivative_kind == "fourier_spectral":
        # every derivative entry is nonzero, so the products fill the lines and planes
        assert np.array_equal(ops["laplacian"].sites, lines)
        assert np.array_equal(ops["potential"].sites, planes)
    else:
        assert np.isin(ops["laplacian"].sites, lines).all()
        assert np.isin(ops["potential"].sites, planes).all()


def old_dense_fill(op):
    """Oracle: the dense fill of the full (n_sites, F, F) stencil, each block
    row x of the matrix holding the stencil at y - x."""
    lat, F = op.lattice, op.fiber_dim
    S = lat.n_sites
    coords = np.indices((lat.L,) * lat.dim).reshape(lat.dim, -1).T
    strides = lat.L ** np.arange(lat.dim - 1, -1, -1)
    differences = ((coords[None, :, :] - coords[:, None, :]) % lat.L) @ strides
    row0 = full_stencil(op).transpose(1, 0, 2)
    mat = np.empty((S, F, S, F), dtype=complex)
    for x, shifted in enumerate(differences):
        mat[x] = row0[:, shifted]
    return mat.reshape(S * F, S * F)


def test_matrix_is_the_old_dense_fill_bitwise(dense_vacuum):
    lat, cl, md, frep, fields = dense_vacuum
    for op in vacuum_operators(lat, cl, md, frep, fields).values():
        assert op.matrix.tobytes() == old_dense_fill(op).tobytes()


# ----- Hermiticity ------------------------------------------------------

def test_hermiticity_residual_is_the_dense_one_bitwise(dense_vacuum):
    lat, cl, md, frep, fields = dense_vacuum
    for op in vacuum_operators(lat, cl, md, frep, fields).values():
        assert hermiticity_residual(op) == hermiticity_residual(dense_copy(op))


def hand_built(lat, sites, blocks):
    return LatticeOperator(lat, 1, blocks.shape[1], kind="hand_built",
                           sites=np.asarray(sites), blocks=blocks)


def random_blocks(rng, count, F):
    return rng.standard_normal((count, F, F)) + 1j * rng.standard_normal((count, F, F))


def test_hermiticity_of_a_support_not_closed_under_negation():
    lat = TorusLattice(n=1, L=3)
    rng = np.random.default_rng(11)
    # site 1 is (0, 1) and site 5 is (1, 2); their negations 2 and 7 are not held
    sites = [0, 1, 5]
    op = hand_built(lat, sites, random_blocks(rng, 3, 2))
    assert hermiticity_residual(op) == hermiticity_residual(dense_copy(op))
    # i*op Hermitian at r = 0, and a block at r = 1 whose partner at -r is missing
    H0 = random_blocks(rng, 1, 2)[0]
    X = random_blocks(rng, 1, 2)[0]
    blocks = -1j * np.stack([H0 + H0.conj().T, X])
    op = hand_built(lat, [0, 1], blocks)
    dev, scale = hermiticity_residual(op)
    assert (dev, scale) == hermiticity_residual(dense_copy(op))
    assert dev == pytest.approx(np.abs(X).max(), rel=1e-15)


# ----- the per-momentum spectrum ----------------------------------------

def fft_squared_spectrum(op):
    """Oracle: B(k) from the FFT of the full stencil, and the eigenvalues of
    each Hermitized -B(k)^2."""
    lat, F = op.lattice, op.fiber_dim
    grid = (lat.L,) * lat.dim
    B = np.fft.fftn(full_stencil(op).reshape(*grid, F, F), axes=tuple(range(lat.dim)))
    B = B.reshape(lat.n_sites, F, F)
    M = -(B @ B)
    return np.sort(np.linalg.eigvalsh(0.5 * (M + M.conj().transpose(0, 2, 1))).reshape(-1))


def test_chiral_spectrum_matches_hermitized_squares(vacuum):
    lat, cl, md, frep, fields = vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    assert _chirality(op) is not None
    want = fft_squared_spectrum(op)
    got = spectrum(op, square_first=True)
    assert got.shape == want.shape == (lat.n_sites * op.fiber_dim,)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # the unsquared spectrum takes the same path: its squares are the squared spectrum
    assert np.array_equal(np.sort(spectrum(op) ** 2), got)


def ungraded_operator(seed):
    """A stencil operator with i*op Hermitian and no grading: H(0) has
    diagonal entries, which couple a fiber slot to itself."""
    lat = TorusLattice(n=1, L=3)
    rng = np.random.default_rng(seed)
    H0, H1, H5 = random_blocks(rng, 3, 3)
    # sites 1 = (0, 1) and 5 = (1, 2) with their negations 2 = (0, 2) and 7 = (2, 1)
    H = {0: H0 + H0.conj().T, 1: H1, 2: H1.conj().T, 5: H5, 7: H5.conj().T}
    sites = sorted(H)
    return hand_built(lat, sites, -1j * np.stack([H[r] for r in sites]))


def test_ungraded_operator_takes_the_eigvalsh_fallback(monkeypatch):
    op = ungraded_operator(5)
    assert _chirality(op) is None
    oracle = np.sort(np.concatenate([
        np.linalg.eigvalsh(0.5 * (1j * B + (1j * B).conj().transpose(0, 2, 1))).reshape(-1)
        for B in _bloch_blocks(op)
    ]))

    def no_svd(*args, **kwargs):
        raise AssertionError("an operator without a grading took the chiral split")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert np.array_equal(spectrum(op), oracle)
    got = spectrum(op, square_first=True)
    assert np.array_equal(got, np.sort(oracle ** 2))
    want = fft_squared_spectrum(op)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# ----- the closed-form spectrum -----------------------------------------

def expected_squared_spectrum_loop(lat, cl, md, frep, shifts):
    """Oracle: the closed form as a loop over the momentum tuples."""
    from fermimass.lattice_dirac import _mass_blocks_full_fiber

    blocks = _mass_blocks_full_fiber(md, frep.n_total)
    ks = lat.momenta()
    vals = []
    for kvec in itertools.product(ks, repeat=lat.dim):
        for (m2, basis), (_, qs) in zip(blocks, shifts, strict=True):
            val = m2 + sum((kc + q) ** 2 for kc, q in zip(kvec, qs))
            vals.extend([val] * (cl.spinor_dim * basis.shape[1]))
    return np.sort(np.asarray(vals))


@pytest.mark.parametrize("model", ["ew", "leptons"])
@pytest.mark.parametrize("n, L", [(1, 4), (1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("wilson", [False, True])
def test_expected_spectrum_is_the_loop_bitwise(model, n, L, wilson):
    lat, cl, md, frep, fields = vacuum_objects(model, n, L, "fourier_spectral", wilson)
    shifts = branch_momentum_shifts(lat, md, frep, fields)
    got = expected_squared_spectrum(lat, cl, md, frep, shifts)
    want = expected_squared_spectrum_loop(lat, cl, md, frep, shifts)
    assert got.tobytes() == want.tobytes()
    assert expected_squared_spectrum(lat, cl, md, frep).tobytes() == expected_squared_spectrum_loop(
        lat, cl, md, frep, branch_momentum_shifts(lat, md, frep, None)).tobytes()


# ----- memory -----------------------------------------------------------

def model_file(tmp_path, n, L, wilson=True):
    cfg = ew_reference()
    cfg.lattice.update({"n": n, "sites_per_dim": L})
    cfg.wilson = {"theta": THETA6[: 2 * n]} if wilson else None
    path = tmp_path / f"n{n}-L{L}.json"
    save_model(cfg, path)
    return str(path)


def traced_peak(argv):
    """(exit code, tracemalloc peak in bytes) of one in-process cli.main call."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, L", [(2, 8), (3, 3)])
def test_verify_all_memory_grows_with_s_f(tmp_path, n, L):
    # the peak is a few hundred bytes per spectrum value; a full
    # (S, F, F) stencil alone is 16 F bytes per value
    path = model_file(tmp_path, n, L)
    code, peak = traced_peak(["verify-all", "--model", path, "--out", str(tmp_path / "report.json")])
    assert code == 0
    S, F = L ** (2 * n), 2 ** n * 3
    assert peak < 32 * S * F * 16
    estimate = lattice_footprint(TorusLattice(n=n, L=L), 3)
    assert peak / 2 <= estimate <= 2 * peak


@pytest.mark.parametrize("command", ["lattice", "verify-all"])
def test_oversized_lattice_exits_2_before_building(command, tmp_path, capsys):
    # n=4, L=40: S = 40^8 sites, so the spectrum alone is 5e15 values
    path = model_file(tmp_path, 4, 40, wilson=False)
    start = time.perf_counter()
    code, peak = traced_peak([command, "--model", path])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: lattice n=4, L=40 needs about ") and "GiB" in err
    assert peak < 2 ** 20 and elapsed < 5.0
