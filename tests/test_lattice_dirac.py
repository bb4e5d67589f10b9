import itertools

import numpy as np
import pytest

from fermimass import (
    NonHermitian,
    NotMultiplicationOperator,
    TorusLattice,
    YukawaMap,
    bochner_laplacian,
    build_clifford,
    build_vacuum_connection,
    build_vacuum_dirac,
    dirac_potential,
    exp_map,
    expected_squared_spectrum,
    fluctuation_operator,
    gauge_transform,
    goldstone_split,
    lagrangian_density,
    mass_matrix,
    mean_mass,
    relative_curvature,
    spectrum,
    wilson_from_vacuum,
)
from fermimass.lattice_dirac import (
    LatticeOperator,
    WilsonLine,
    contraction_residual,
    wilson_internal_fields,
)
from fermimass.yukawa_mass import mass_data_from_operator


# ----- derivatives and momenta ------------------------------------------

def dft_derivative(L, a):
    # independent oracle: U diag(i k_m) U^dagger with the plain DFT matrix
    m = np.arange(L)
    U = np.exp(2j * np.pi * np.outer(m, m) / L) / np.sqrt(L)
    k = 2.0 * np.pi * m / (L * a)
    return U @ np.diag(1j * k) @ U.conj().T


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_spectral_derivative_matches_dft_oracle(L):
    lat = TorusLattice(n=1, L=L, a=0.7)
    D = lat.axis_derivative()
    assert np.abs(D - dft_derivative(L, 0.7)).max() <= 1e-12
    assert np.abs(D + D.conj().T).max() <= 1e-12


def test_momentum_set():
    lat = TorusLattice(n=1, L=4, a=1.0)
    assert np.abs(lat.momenta() - np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])).max() == 0.0
    assert lat.n_sites == 16


def test_central_difference_dispersion():
    # eigenvalues are i sin(k a) / a over the same momentum set
    L, a = 5, 1.3
    lat = TorusLattice(n=1, L=L, a=a, derivative_kind="central_difference")
    D = lat.axis_derivative()
    assert np.abs(D + D.conj().T).max() == 0.0
    got = np.sort(np.linalg.eigvals(D).imag)
    want = np.sort(np.sin(lat.momenta() * a) / a)
    assert np.abs(got - want).max() <= 1e-12


def test_lattice_validation():
    with pytest.raises(ValueError):
        TorusLattice(n=0, L=4)
    with pytest.raises(ValueError):
        TorusLattice(n=1, L=4, a=-1.0)
    with pytest.raises(ValueError):
        TorusLattice(n=1, L=4, derivative_kind="upwind")


# ----- vacuum Dirac operator ---------------------------------------------

@pytest.fixture(scope="module")
def ew(ew_cfg, ew_vac, ew_frep, ew_ymap, ew_md):
    class Bundle:
        cfg = ew_cfg
        vac = ew_vac
        frep = ew_frep
        ymap = ew_ymap
        md = ew_md
        cl = build_clifford(1)

    return Bundle


def free_expected(lat, mult):
    ks = lat.momenta()
    vals = []
    for kvec in itertools.product(ks, repeat=lat.dim):
        vals.extend([sum(k ** 2 for k in kvec)] * mult)
    return np.sort(np.asarray(vals))


def test_free_massless_dispersion_L2(ew):
    # closed form at L=2: momenta {0, pi} per axis, squares {0, pi^2, pi^2,
    # 2 pi^2}, each with multiplicity 2^n N_F = 6
    lat = TorusLattice(n=1, L=2, a=1.0)
    op = build_vacuum_dirac(lat, ew.cl, None, ew.frep)
    got = spectrum(op, square_first=True)
    want = free_expected(lat, 2 * 3)
    hand = np.sort(np.repeat([0.0, np.pi ** 2, np.pi ** 2, 2 * np.pi ** 2], 6))
    assert np.abs(want - hand).max() == 0.0
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_ew_dispersion_L4(ew):
    # branch masses from the vacuum coupling shift every momentum square
    lat = TorusLattice(n=1, L=4, a=1.0)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    got = spectrum(op, square_first=True)
    ks = lat.momenta()
    vals = []
    for k1 in ks:
        for k2 in ks:
            for m2 in ew.md.spectrum_sq:
                vals.extend([k1 ** 2 + k2 ** 2 + m2] * 2)
    want = np.sort(np.asarray(vals))
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_dispersion_n2(ew):
    # dimension-generic check: 4-torus, 4x4 gammas, fiber dim 4*3
    lat = TorusLattice(n=2, L=2, a=1.0)
    cl = build_clifford(2)
    op = build_vacuum_dirac(lat, cl, ew.md, ew.frep)
    got = spectrum(op, square_first=True)
    want = expected_squared_spectrum(lat, cl, ew.md, ew.frep)
    assert got.size == 2 ** 4 * 4 * 3
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_lorentzian_lattice_rejected(ew):
    lat = TorusLattice(n=1, L=2)
    lo = build_clifford(1, "lorentzian")
    with pytest.raises(ValueError, match="euclidean"):
        build_vacuum_dirac(lat, lo, ew.md, ew.frep)


def test_half_dimension_mismatch_rejected(ew):
    lat = TorusLattice(n=2, L=2)
    with pytest.raises(ValueError, match="half-dimension"):
        build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)


def test_operator_is_antihermitian(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    assert np.abs(op.matrix + op.matrix.conj().T).max() <= 1e-12


def test_build_deterministic(ew):
    lat = TorusLattice(n=1, L=2)
    a = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    b = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    assert np.array_equal(a.matrix, b.matrix)


# ----- covariant derivative and Laplacian --------------------------------

def test_connection_zero_mass_is_plain_derivative(ew):
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, None, ew.frep)
    for a, comp in enumerate(conn):
        want = np.kron(lat.site_derivative(a), np.eye(6))
        assert np.abs(comp.matrix - want).max() == 0.0


def test_contraction_identity(ew):
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep)
    assert contraction_residual(conn, ew.cl, op) <= 1e-12


def test_mass_term_grading(ew):
    # the mass part gamma5 x D is odd against the total grading while the
    # xi-term of the covariant derivative is even, as a connection must be
    cl = ew.cl
    D = ew.md.D_matrix
    chi = np.kron(cl.gamma5, ew.frep.grading)
    mass = np.kron(cl.gamma5, D)
    assert np.abs(mass @ chi + chi @ mass).max() <= 1e-12
    for a in range(2):
        omega = np.kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), D)
        assert np.abs(omega @ chi - chi @ omega).max() <= 1e-12


def test_mass_term_squares_to_mass_square(ew):
    # (gamma5 x D)^2 = Id x D^2 = -(Id x mass_square): the grading-times-mass
    # realization matches the positive semidefinite fiber block
    cl = ew.cl
    mass_op = np.kron(cl.gamma5, ew.md.D_matrix)
    want = -np.kron(np.eye(cl.spinor_dim), ew.md.mass_square_fiber())
    assert np.abs(mass_op @ mass_op - want).max() <= 1e-13
    assert np.linalg.eigvalsh(ew.md.mass_square_fiber()).min() >= -1e-13


def test_bochner_plain_spectrum(ew):
    # plain Laplacian eigenvalues are the momentum squares
    lat = TorusLattice(n=1, L=4)
    conn = build_vacuum_connection(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(conn)
    got = np.sort(np.linalg.eigvalsh(0.5 * (lap.matrix + lap.matrix.conj().T)))
    want = free_expected(lat, 2 * 3)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_canonical_laplacian_extra_terms(ew):
    # expand and compare: the mass-carrying Laplacian differs from the plain
    # one by -2 sum_a omega_a d_a - sum_a omega_a^2 with omega_a the xi-term
    lat = TorusLattice(n=1, L=2)
    cl = ew.cl
    lap_mass = bochner_laplacian(build_vacuum_connection(lat, cl, ew.md, ew.frep))
    lap_plain = bochner_laplacian(build_vacuum_connection(lat, cl, None, ew.frep))
    diff = lap_mass.matrix - lap_plain.matrix
    want = np.zeros_like(diff)
    for a in range(2):
        omega = np.kron(np.eye(lat.n_sites), np.kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), ew.md.D_matrix))
        plain = np.kron(lat.site_derivative(a), np.eye(6))
        want -= omega @ plain + plain @ omega + omega @ omega
    assert np.abs(diff - want).max() <= 1e-12


# ----- Dirac potential and density ---------------------------------------

def test_dirac_potential_zero_mass_exact(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    assert not vd.matrix.any()  # exact zero matrix at L = 2
    dens = lagrangian_density(vd, lat)
    assert dens.per_site_trace == 0.0


def test_dirac_potential_zero_mass_trace_exact_L4(ew):
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    assert vd.offsite_leakage() <= 1e-13
    assert lagrangian_density(vd, lat).per_site_trace == 0.0


def test_dirac_potential_ew_is_mass_square(ew):
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    want = np.kron(np.eye(lat.n_sites), np.kron(np.eye(2), ew.md.mass_square_fiber()))
    assert np.abs(vd.matrix - want).max() <= 1e-12
    assert vd.meta["offsite_leakage"] <= 1e-10
    assert vd.meta["site_block_deviation"] <= 1e-10
    dens = lagrangian_density(vd, lat)
    # fiber trace of Id_2 x diag(M M^+, M^+ M) with squared masses {0,1,1}
    assert abs(dens.per_site_trace - 4.0) <= 1e-9
    assert dens.volume_element == 1.0


def test_dirac_potential_rejects_canonical_laplacian(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, ew.md, ew.frep))
    with pytest.raises(NotMultiplicationOperator):
        dirac_potential(op, lap)


def test_dirac_potential_rejects_mixed_derivative_kinds(ew):
    lat_s = TorusLattice(n=1, L=4)
    lat_c = TorusLattice(n=1, L=4, derivative_kind="central_difference")
    op = build_vacuum_dirac(lat_s, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat_c, ew.cl, None, ew.frep))
    with pytest.raises(NotMultiplicationOperator):
        dirac_potential(op, lap)


def test_wilson_line_does_not_change_potential(ew):
    lat = TorusLattice(n=1, L=2)
    wl = wilson_from_vacuum([[0.4], [0.1]], ew.vac)
    op0 = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap0 = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    v0 = dirac_potential(op0, lap0)
    op1 = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, wl)
    lap1 = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep, wl))
    v1 = dirac_potential(op1, lap1)
    assert np.abs(v1.matrix - v0.matrix).max() <= 1e-12


def test_density_identity_with_mean_mass(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    dens = lagrangian_density(dirac_potential(op, lap), lat)
    # density = 2^n N_F <m^2>
    assert abs(dens.per_site_trace - 2 * 3 * mean_mass(ew.md)) <= 1e-12


def test_mean_mass_values(ew):
    assert mean_mass(ew.md) == pytest.approx(2.0 / 3.0, abs=1e-14)
    zero_md = mass_data_from_operator(np.zeros((3, 3), dtype=complex), 2, 1)
    assert mean_mass(zero_md) == 0.0


def test_mean_mass_orbit_invariant(ew):
    # recompute at a moved minimum and compare (spectral invariant)
    from fermimass import apply_yukawa

    higgs = ew.cfg.build_higgs_model()
    rng = np.random.default_rng(19)
    base = mean_mass(ew.md)
    for _ in range(5):
        g = exp_map(higgs.rep, rng.standard_normal(4))
        moved = mass_data_from_operator(apply_yukawa(ew.ymap, g @ ew.vac.z0), 2, 1)
        assert abs(mean_mass(moved) - base) <= 1e-12


def test_volume_element(ew):
    lat = TorusLattice(n=2, L=2, a=0.5)
    cl = build_clifford(2)
    op = build_vacuum_dirac(lat, cl, None, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, ew.frep))
    dens = lagrangian_density(dirac_potential(op, lap), lat)
    assert dens.volume_element == pytest.approx(0.5 ** 4)


# ----- curvature -----------------------------------------------------------

def test_curvature_zero_mass_flat(ew):
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, None, ew.frep)
    curv = relative_curvature(conn, ew.cl, None, ew.frep)
    assert curv.residual == 0.0
    assert curv.is_flat()


def test_curvature_identity_ew(ew):
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep)
    curv = relative_curvature(conn, ew.cl, ew.md, ew.frep)
    assert curv.residual <= 1e-12
    assert not curv.is_flat()


def test_curvature_vanishes_on_massless_branch(ew):
    # project F_01 onto the massless left direction: zero; on the massive
    # block: nonzero
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep)
    curv = relative_curvature(conn, ew.cl, ew.md, ew.frep)
    (_, F01), = curv.components
    zero_block, massive = ew.md.eigenspaces
    nu = np.zeros(3, dtype=complex)
    nu[:2] = zero_block.left_basis[:, 0]
    for s in range(2):
        e = np.zeros(2)
        e[s] = 1.0
        vec = np.kron(np.ones(lat.n_sites) / 2.0, np.kron(e, nu))
        assert np.abs(F01.matrix @ vec).max() <= 1e-12
    el = np.zeros(3, dtype=complex)
    el[:2] = massive.left_basis[:, 0]
    vec = np.kron(np.ones(lat.n_sites) / 2.0, np.kron(np.array([1.0, 0.0]), el))
    assert np.abs(F01.matrix @ vec).max() > 0.01


def test_curvature_scales_quadratically(ew):
    lat = TorusLattice(n=1, L=2)
    s = 3.0
    md1 = ew.md
    md2 = mass_data_from_operator(s * md1.D_matrix, 2, 1)
    c1 = relative_curvature(build_vacuum_connection(lat, ew.cl, md1, ew.frep), ew.cl, md1, ew.frep)
    c2 = relative_curvature(build_vacuum_connection(lat, ew.cl, md2, ew.frep), ew.cl, md2, ew.frep)
    (_, F1), = c1.components
    (_, F2), = c2.components
    assert np.abs(F2.matrix - s ** 2 * F1.matrix).max() <= 1e-12


def test_flat_iff_massless_family(ew):
    # ten couplings including zero: curvature vanishes exactly when the
    # squared-mass spectrum does
    lat = TorusLattice(n=1, L=2)
    for i, y in enumerate(np.linspace(0.0, 0.9, 10)):
        tensor = np.zeros((2, 1, 2), dtype=complex)
        tensor[0, 0, 0] = y
        tensor[1, 0, 1] = y
        ymap = YukawaMap(tensor=tensor)
        md = mass_matrix(ymap, ew.vac)
        conn = build_vacuum_connection(lat, ew.cl, md, ew.frep)
        curv = relative_curvature(conn, ew.cl, md, ew.frep)
        massless = np.abs(md.spectrum_sq).max() == 0.0
        assert curv.is_flat(1e-12) == massless


def test_wilson_term_drops_out_of_curvature(ew):
    # a flat Wilson line valued in the unbroken algebra commutes with the
    # mass term, so the curvature is unchanged
    lat = TorusLattice(n=1, L=2)
    wl = wilson_from_vacuum([[0.3], [0.7]], ew.vac)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep, wl)
    curv = relative_curvature(conn, ew.cl, ew.md, ew.frep)
    assert curv.residual <= 1e-12


# ----- Wilson lines ---------------------------------------------------------

def test_wilson_fields_flat_and_shift(ew):
    lat = TorusLattice(n=1, L=4)
    wl = wilson_from_vacuum([[0.25], [0.0]], ew.vac)
    fields, residual = wilson_internal_fields(wl, ew.frep.total, 2)
    assert residual <= 1e-12
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, wl)
    got = spectrum(op, square_first=True)
    want = expected_squared_spectrum(lat, ew.cl, ew.md, ew.frep, wl)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())
    # two charge assignments: the massless branch does not shift, the
    # massive branch does
    charges = np.linalg.eigvalsh(-1j * fields[0])
    assert abs(charges.min()) <= 1e-12
    assert charges.max() > 0.1


def test_wilson_neutral_branch_keeps_free_momenta(ew):
    # Aharonov-Bohm style check: the zero-charge massless branch keeps the
    # free momentum set while the charged branch moves
    lat = TorusLattice(n=1, L=4)
    wl = wilson_from_vacuum([[0.25], [0.0]], ew.vac)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, wl)
    got = spectrum(op, square_first=True)
    free = free_expected(lat, 2)  # massless branch: one fiber dim, spinor 2
    for v in free:
        assert np.min(np.abs(got - v)) <= 1e-9 * max(1.0, free.max())


def test_wilson_nonflat_rejected(ew):
    # coefficients over two non-commuting directions are not a vacuum line
    basis = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    wl = WilsonLine(theta=np.array([[1.0, 0.0], [0.0, 1.0]]), isotropy_basis=basis)
    with pytest.raises(ValueError, match="flat"):
        wilson_internal_fields(wl, ew.frep.total, 2)


def test_wilson_theta_shape_validation(ew):
    with pytest.raises(ValueError):
        WilsonLine(theta=np.array([[1.0, 2.0]]), isotropy_basis=ew.vac.isotropy.basis_matrix())


# ----- fluctuations ---------------------------------------------------------

def test_fluctuation_t0_bitwise(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    fl = fluctuation_operator(op, None, np.array([0.1, 0.2]), ew.ymap, ew.cl, ew.frep, 0.0)
    assert np.array_equal(fl.matrix, op.matrix)


def test_fluctuation_affine_in_t(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    rng = np.random.default_rng(41)
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    A = rng.standard_normal((2, lat.n_sites, 4))
    f1 = fluctuation_operator(op, A, phi, ew.ymap, ew.cl, ew.frep, 0.25)
    f2 = fluctuation_operator(op, A, phi, ew.ymap, ew.cl, ew.frep, 0.75)
    d1 = (f1.matrix - op.matrix) / 0.25
    d2 = (f2.matrix - op.matrix) / 0.75
    assert np.abs(d1 - d2).max() <= 1e-12


def test_fluctuation_is_zero_order(ew):
    # the difference from the vacuum operator commutes with site functions,
    # the vacuum operator itself does not
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    rng = np.random.default_rng(42)
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    fl = fluctuation_operator(op, None, phi, ew.ymap, ew.cl, ew.frep, 1.0)
    zero_order = fl.matrix - op.matrix
    f_site = np.kron(np.diag(rng.standard_normal(lat.n_sites)), np.eye(6))
    assert np.abs(zero_order @ f_site - f_site @ zero_order).max() <= 1e-12
    assert np.abs(op.matrix @ f_site - f_site @ op.matrix).max() > 0.1


def test_fluctuation_physical_higgs_shifts_mass(ew):
    # constant physical fluctuation h moves the charged mass to y_e (v + h)
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    h = 0.5
    phi = h * np.array([0.0, 1.0])
    fl = fluctuation_operator(op, None, phi, ew.ymap, ew.cl, ew.frep, 1.0)
    got = spectrum(fl, square_first=True)
    from fermimass import apply_yukawa

    shifted = mass_data_from_operator(apply_yukawa(ew.ymap, ew.vac.z0 + phi), 2, 1)
    assert shifted.spectrum_sq.max() == pytest.approx((0.5 * 2.5) ** 2, abs=1e-12)
    want = expected_squared_spectrum(lat, ew.cl, shifted, ew.frep)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_fluctuation_unitary_gauge_projection(ew):
    # with the projection enabled a Goldstone component is removed
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    split = goldstone_split(ew.cfg.build_higgs_model().rep, ew.vac.z0)
    phi = np.array([0.3 + 0.2j, 0.1j])  # mixes Goldstone and physical parts
    with_proj = fluctuation_operator(
        op, None, phi, ew.ymap, ew.cl, ew.frep, 1.0, unitary_split=split
    )
    from fermimass import unitary_gauge_project

    manual = fluctuation_operator(
        op, None, unitary_gauge_project(split, phi), ew.ymap, ew.cl, ew.frep, 1.0
    )
    assert np.abs(with_proj.matrix - manual.matrix).max() <= 1e-14


def test_fluctuation_pure_gauge_preserves_spectrum(ew):
    # constant group transformation of the vacuum: at t = 1 the operator is
    # unitarily equivalent to the vacuum operator
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    higgs = ew.cfg.build_higgs_model()
    rng = np.random.default_rng(13)
    for _ in range(3):
        g = exp_map(higgs.rep, rng.standard_normal(4))
        phi_fl = g @ ew.vac.z0 - ew.vac.z0
        fl = fluctuation_operator(op, None, phi_fl, ew.ymap, ew.cl, ew.frep, 1.0)
        s0 = spectrum(op)
        s1 = spectrum(fl)
        assert np.abs(s0 - s1).max() <= 1e-10 * max(1.0, np.abs(s0).max())


# ----- gauge transformations -----------------------------------------------

def test_gauge_transform_identity(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    out = gauge_transform(op, np.eye(3, dtype=complex))
    assert np.abs(out.matrix - op.matrix).max() == 0.0


def test_gauge_transform_unbroken_entrywise(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    u = exp_map(ew.frep.total, 0.8 * np.asarray(ew.vac.isotropy.basis[0]))
    out = gauge_transform(op, u)
    assert np.abs(out.matrix - op.matrix).max() <= 1e-12


def test_gauge_transform_broken_spectrum_invariant(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    u = exp_map(ew.frep.total, np.array([0.4, -0.2, 0.1, 0.3]))
    out = gauge_transform(op, u)
    assert np.abs(out.matrix - op.matrix).max() > 1e-3
    s0, s1 = spectrum(op), spectrum(out)
    assert np.abs(s0 - s1).max() <= 1e-10 * max(1.0, np.abs(s0).max())


def test_gauge_transform_site_dependent_unitaries(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    rng = np.random.default_rng(3)
    us = np.stack([exp_map(ew.frep.total, rng.standard_normal(4)) for _ in range(lat.n_sites)])
    out = gauge_transform(op, us)
    s0, s1 = spectrum(op), spectrum(out)
    assert np.abs(s0 - s1).max() <= 1e-10 * max(1.0, np.abs(s0).max())


def test_gauge_transform_rejects_non_unitary(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    with pytest.raises(ValueError, match="unitary"):
        gauge_transform(op, 2.0 * np.eye(3, dtype=complex))


# ----- spectrum -------------------------------------------------------------

def test_spectrum_zero_operator(ew):
    lat = TorusLattice(n=1, L=2)
    op = LatticeOperator(np.zeros((24, 24), dtype=complex), lat, 2, 3)
    assert np.abs(spectrum(op)).max() == 0.0
    assert np.abs(spectrum(op, square_first=True)).max() == 0.0


def test_spectrum_rejects_non_hermitian(ew):
    lat = TorusLattice(n=1, L=2)
    m = np.zeros((24, 24), dtype=complex)
    m[0, 1] = 1.0  # i*m is not Hermitian
    op = LatticeOperator(m, lat, 2, 3)
    with pytest.raises(NonHermitian):
        spectrum(op)


def test_spectrum_square_consistency(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    sq = spectrum(op, square_first=True)
    lin = spectrum(op)
    assert np.abs(np.sort(lin ** 2) - sq).max() <= 1e-9 * max(1.0, sq.max())
