import dataclasses
import itertools
import json

import numpy as np
import pytest

from fermimass import (
    DEFAULT,
    NonHermitian,
    TorusLattice,
    YukawaMap,
    apply_yukawa,
    bochner_laplacian,
    branch_momentum_shifts,
    build_clifford,
    build_vacuum_connection,
    build_vacuum_dirac,
    dirac_potential,
    ew_reference,
    exp_map,
    expected_squared_spectrum,
    fluctuation_operator,
    gauge_transform,
    isotropy_algebra,
    lagrangian_density,
    mass_matrix,
    mean_mass,
    minimize,
    relative_curvature,
    save_model,
    spectrum,
    unitary_gauge_project,
    wilson_flatness,
)
from fermimass import reports
from fermimass.lattice_dirac import (
    LatticeOperator,
    _chirality,
    contraction_residual,
    hermiticity_residual,
)
from fermimass.model_config import encode_complex
from fermimass.operator_io import dump_operator, load_operator
from fermimass.yukawa_mass import mass_data_from_operator
from conftest import S1, S2, S3, axis_derivative, from_matrix
from test_cli import run, su2_unbroken_model, u1_model


# ----- derivatives and momenta ------------------------------------------

def dft_derivative(L, a):
    # independent oracle: U diag(i k_m) U^dagger with the plain DFT matrix
    m = np.arange(L)
    U = np.exp(2j * np.pi * np.outer(m, m) / L) / np.sqrt(L)
    k = 2.0 * np.pi * m / (L * a)
    return U @ np.diag(1j * k) @ U.conj().T


def site_derivative(lat, axis):
    """Oracle: the derivative along one axis on the full site space L^{2n},
    as a Kronecker product with identities on the other axes."""
    left, right = lat.L ** axis, lat.L ** (lat.dim - axis - 1)
    return np.kron(np.eye(left), np.kron(axis_derivative(lat), np.eye(right)))


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_spectral_derivative_matches_dft_oracle(L):
    lat = TorusLattice(n=1, L=L, a=0.7)
    D = axis_derivative(lat)
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
    D = axis_derivative(lat)
    assert np.abs(D + D.conj().T).max() == 0.0
    got = np.sort(np.linalg.eigvals(D).imag)
    want = np.sort(np.sin(lat.momenta() * a) / a)
    assert np.abs(got - want).max() <= 1e-12


def test_lattice_validation():
    with pytest.raises(ValueError):
        TorusLattice(n=0, L=4)
    with pytest.raises(ValueError):
        TorusLattice(n=1, L=4, a=-1.0)
    for a in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            TorusLattice(n=1, L=4, a=a)
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


def wilson_fields(cfg, vac, theta):
    """The Wilson fields cfg.build_wilson makes of theta, one row per axis."""
    line = dataclasses.replace(cfg, lattice=dict(cfg.lattice, n=len(theta) // 2),
                               wilson={"theta": theta})
    return line.build_wilson(vac)


# a Wilson line over the one-dimensional isotropy algebra; its first 2n
# rows serve the 2n-torus
THETA = [[0.25], [0.1], [0.4], [0.05]]


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
    want = expected_squared_spectrum(lat, branch_momentum_shifts(lat, ew.md, ew.frep, None))
    assert got.size == 2 ** 4 * 4 * 3
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


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
        want = np.kron(site_derivative(lat, a), np.eye(6))
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
    chi = np.kron(cl.gamma5, np.diag([1] * ew.frep.n_left + [-1] * ew.frep.n_right))
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
        plain = np.kron(site_derivative(lat, a), np.eye(6))
        want -= omega @ plain + plain @ omega + omega @ omega
    assert np.abs(diff - want).max() <= 1e-12


# ----- Dirac potential and density ---------------------------------------

def test_dirac_potential_zero_mass_exact(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    assert not vd.matrix.any()  # exact zero matrix at L = 2
    dens = lagrangian_density(vd)
    assert dens == 0.0


def test_dirac_potential_zero_mass_trace_exact_L4(ew):
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    assert vd.meta["offsite_leakage"] <= 1e-13
    assert lagrangian_density(vd) == 0.0


def test_dirac_potential_ew_is_mass_square(ew):
    lat = TorusLattice(n=1, L=4)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    want = np.kron(np.eye(lat.n_sites), np.kron(np.eye(2), ew.md.mass_square_fiber()))
    assert np.abs(vd.matrix - want).max() <= 1e-12
    assert vd.meta["offsite_leakage"] <= 1e-10
    dens = lagrangian_density(vd)
    # fiber trace of Id_2 x diag(M M^+, M^+ M) with squared masses {0,1,1}
    assert abs(dens - 4.0) <= 1e-9


def offsite_bound(md):
    """The potential_offsite check's bound, as the lattice report sets it."""
    return DEFAULT.potential_offsite * float(np.max(md.spectrum_sq, initial=1.0))


def test_dirac_potential_rejects_canonical_laplacian(ew):
    # the canonical connection's xi terms leave a first-order remainder,
    # recorded as off-site leakage far above the potential_offsite bound
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, ew.md, ew.frep))
    vd = dirac_potential(op, lap)
    assert vd.meta["offsite_leakage"] >= 1e6 * offsite_bound(ew.md)


def test_dirac_potential_rejects_mixed_derivative_kinds(ew):
    lat_s = TorusLattice(n=1, L=4)
    lat_c = TorusLattice(n=1, L=4, derivative_kind="central_difference")
    op = build_vacuum_dirac(lat_s, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat_c, ew.cl, None, ew.frep))
    vd = dirac_potential(op, lap)
    assert vd.meta["offsite_leakage"] >= 1e6 * offsite_bound(ew.md)


def test_wilson_line_does_not_change_potential(ew):
    lat = TorusLattice(n=1, L=2)
    fields = wilson_fields(ew.cfg, ew.vac, [[0.4], [0.1]])
    op0 = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap0 = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    v0 = dirac_potential(op0, lap0)
    op1 = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, fields)
    lap1 = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep, fields))
    v1 = dirac_potential(op1, lap1)
    assert np.abs(v1.matrix - v0.matrix).max() <= 1e-12


def test_density_identity_with_mean_mass(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    lap = bochner_laplacian(build_vacuum_connection(lat, ew.cl, None, ew.frep))
    dens = lagrangian_density(dirac_potential(op, lap))
    # density = 2^n N_F <m^2>
    assert abs(dens - 2 * 3 * mean_mass(ew.md)) <= 1e-12


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


def test_volume_element():
    # the report's volume element a^(2n), spinor dimension 2^n and internal
    # trace, the per-site trace with the spinor dimension divided out
    cfg = ew_reference()
    cfg.lattice.update({"n": 2, "sites_per_dim": 2, "spacing": 0.5})
    cfg.wilson = None
    data = reports.cmd_lattice(reports.Run(cfg)).data
    assert data["volume_element"] == 0.5 ** 4
    assert data["spinor_dim"] == 4
    assert data["internal_trace"] == data["per_site_trace"] / 4


# ----- curvature -----------------------------------------------------------

def test_curvature_zero_mass_flat(ew):
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, None, ew.frep)
    curv = relative_curvature(conn, ew.cl, None, ew.frep)
    assert curv.residual == 0.0
    assert curv.max_component_norm() <= 1e-12


def test_curvature_identity_ew(ew):
    lat = TorusLattice(n=1, L=2)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep)
    curv = relative_curvature(conn, ew.cl, ew.md, ew.frep)
    assert curv.residual <= 1e-12
    assert not curv.max_component_norm() <= 1e-12


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
        assert np.abs(F01 @ np.kron(e, nu)).max() <= 1e-12
    el = np.zeros(3, dtype=complex)
    el[:2] = massive.left_basis[:, 0]
    assert np.abs(F01 @ np.kron(np.array([1.0, 0.0]), el)).max() > 0.01


def test_curvature_scales_quadratically(ew):
    lat = TorusLattice(n=1, L=2)
    s = 3.0
    md1 = ew.md
    md2 = mass_data_from_operator(s * md1.D_matrix, 2, 1)
    c1 = relative_curvature(build_vacuum_connection(lat, ew.cl, md1, ew.frep), ew.cl, md1, ew.frep)
    c2 = relative_curvature(build_vacuum_connection(lat, ew.cl, md2, ew.frep), ew.cl, md2, ew.frep)
    (_, F1), = c1.components
    (_, F2), = c2.components
    assert np.abs(F2 - s ** 2 * F1).max() <= 1e-12


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
        assert (curv.max_component_norm() <= 1e-12) == massless


def test_wilson_term_drops_out_of_curvature(ew):
    # a flat Wilson line valued in the unbroken algebra commutes with the
    # mass term, so the curvature is unchanged
    lat = TorusLattice(n=1, L=2)
    fields = wilson_fields(ew.cfg, ew.vac, [[0.3], [0.7]])
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep, fields)
    curv = relative_curvature(conn, ew.cl, ew.md, ew.frep)
    assert curv.residual <= 1e-12


# ----- fiber identities against the dense formulas -------------------------

def dense_curvature(conn, cl, md, frep):
    """Oracle: F_ab = [d_a, w_b] - [d_b, w_a] + [w_a, w_b] on the full space,
    with the residual against the lifted (xi_a xi_b - xi_b xi_a) x (-D_int^2)."""
    lat = conn[0].lattice
    lift = np.eye(lat.n_sites)
    m2_int = -(md.D_matrix @ md.D_matrix)
    plain = [np.kron(site_derivative(lat, a), np.eye(conn[0].fiber_dim)) for a in range(lat.dim)]
    omega = [conn[a].matrix - plain[a] for a in range(lat.dim)]
    c = cl.xi_scale
    comps, residual = [], 0.0
    for a in range(lat.dim):
        for b in range(a + 1, lat.dim):
            F = (
                plain[a] @ omega[b] - omega[b] @ plain[a]
                - plain[b] @ omega[a] + omega[a] @ plain[b]
                + omega[a] @ omega[b] - omega[b] @ omega[a]
            )
            wedge = c * c * (cl.gamma[a] @ cl.gamma[b] - cl.gamma[b] @ cl.gamma[a])
            residual = max(residual, float(np.max(np.abs(F - np.kron(lift, np.kron(wedge, m2_int))))))
            comps.append(((a, b), F))
    return comps, residual


def dense_contraction(conn, cl, dirac_op):
    """Oracle: sum_a of the dense lift of gamma^a x 1 times conn_a."""
    lift = np.eye(dirac_op.lattice.n_sites)
    total = np.zeros_like(dirac_op.matrix)
    for a, comp in enumerate(conn):
        total += np.kron(lift, np.kron(cl.gamma[a], np.eye(dirac_op.internal_dim))) @ comp.matrix
    return float(np.max(np.abs(total - dirac_op.matrix)))


def two_generation_leptons(yuk=((0.3 + 0.1j, 0.05 - 0.2j), (0.15j, 0.25 + 0.05j))):
    """ew-reference with two lepton generations and a complex 2x2 Yukawa
    matrix yuk that mixes them; left index = 2 * generation + isospin slot."""
    eye = np.eye(2)
    zero = np.zeros((2, 2), dtype=complex)
    left = [np.kron(eye, -0.5j * s) for s in (S1, S2, S3)] + [1.0j * np.eye(4)]
    right = [zero, zero, zero, 2.0j * eye]
    yuk = np.asarray(yuk)
    tensor = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for c in range(2):
            tensor[2 * i + c, :, c] = yuk[i]
    cfg = ew_reference()
    cfg.algebra["representations"]["lepton_left"] = encode_complex(left)
    cfg.algebra["representations"]["lepton_right"] = encode_complex(right)
    cfg.yukawa = {
        "tensor": encode_complex(tensor),
        "conjugate_higgs": [False, False],
    }
    return cfg


def test_curvature_verdict_holds_for_heavy_lepton_generations(capsys, tmp_path):
    # a two-generation lepton sector with max m^2 = 8.4e4: the curvature
    # identity rounds to ~2e-12, a 2e-17 share of that scale
    yuk = [[26.94714207 + 70.59568617j, 64.06618518 + 34.80633459j],
           [25.7660363 - 41.86926211j, -101.61449473 + 45.3130452j]]
    path = tmp_path / "leptons-heavy.json"
    save_model(two_generation_leptons(yuk), path)
    code, out, err = run(capsys, "verify-all", "--model", str(path))
    assert (code, err) == (0, ""), out
    doc = json.loads(out)
    checks = {c["id"]: c for c in doc["checks"]}
    m2 = max(doc["data"]["masses"]["spectrum_sq"])
    assert m2 == pytest.approx(8.4e4, rel=0.01)
    assert checks["lattice.curvature_identity"]["value"] > 1e-12
    assert checks["lattice.curvature_identity"]["tol"] == pytest.approx(1e-12 * m2, rel=1e-12)


@pytest.fixture(
    scope="module",
    params=[
        ("ew", 1, 3, "fourier_spectral"), ("ew", 1, 3, "central_difference"),
        ("ew", 2, 2, "fourier_spectral"), ("ew", 2, 2, "central_difference"),
        ("leptons", 1, 3, "fourier_spectral"), ("leptons", 1, 3, "central_difference"),
    ],
    ids=lambda p: "-".join(map(str, p)),
)
def wilson_vacuum(request):
    """(lattice, Clifford algebra, mass data, fermions, Wilson fields) of a vacuum."""
    return vacuum_objects(*request.param, wilson=True)


def test_fiber_curvature_matches_dense_formula(wilson_vacuum):
    lat, cl, md, frep, fields = wilson_vacuum
    conn = build_vacuum_connection(lat, cl, md, frep, fields)
    curv = relative_curvature(conn, cl, md, frep)
    dense, dense_residual = dense_curvature(conn, cl, md, frep)
    assert [ab for ab, _ in curv.components] == [ab for ab, _ in dense]
    for (_, F), (_, F_dense) in zip(curv.components, dense):
        assert F.shape == (conn[0].fiber_dim,) * 2
        assert np.abs(np.kron(np.eye(lat.n_sites), F) - F_dense).max() <= 1e-14
    assert abs(curv.residual - dense_residual) <= 1e-14
    assert curv.residual <= 1e-12 and not curv.max_component_norm() <= 1e-12


def test_fiber_contraction_matches_dense_lift_bitwise(wilson_vacuum):
    lat, cl, md, frep, fields = wilson_vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    conn = build_vacuum_connection(lat, cl, md, frep, fields)
    assert contraction_residual(conn, cl, op) == dense_contraction(conn, cl, op)


def test_curvature_rejects_site_dependent_connection(ew):
    lat = TorusLattice(n=1, L=3)
    conn = build_vacuum_connection(lat, ew.cl, ew.md, ew.frep)

    def bumped(comp, site, entry):
        st = full_stencil(comp)
        st[(site, *entry)] += 1e-3
        return stencil_operator(st, lat, ew.cl.spinor_dim, 3)

    # an extra entry on the derivative's own line, and one off it
    with pytest.raises(ValueError, match="component 1 is not site-constant"):
        relative_curvature([conn[0], bumped(conn[1], 1, (2, 3))], ew.cl, ew.md, ew.frep)
    with pytest.raises(ValueError, match="component 0 is not site-constant"):
        relative_curvature([bumped(conn[0], 4, (0, 0)), conn[1]], ew.cl, ew.md, ew.frep)
    # a connection given as a dense matrix is held per site: no stencil
    dense = from_matrix(conn[0].matrix, lat, ew.cl.spinor_dim, 3)
    with pytest.raises(ValueError, match="held per site"):
        relative_curvature([dense, conn[1]], ew.cl, ew.md, ew.frep)


# ----- stencil operators against the dense products ---------------------

def full_stencil(op):
    """The (n_sites, fiber, fiber) stencil of op: its support blocks
    scattered over every site, zero elsewhere."""
    st = np.zeros((op.lattice.n_sites, op.fiber_dim, op.fiber_dim), dtype=complex)
    st[op.sites] = op.blocks
    return st


def stencil_operator(st, lat, spinor_dim, internal_dim, kind=""):
    """A stencil operator held on every site, from a full stencil."""
    return LatticeOperator(lat, spinor_dim, internal_dim, kind=kind,
                           sites=np.arange(lat.n_sites), blocks=st)


def dense_squared_spectrum(op):
    """Oracle: eigenvalues of the Hermitized dense -D @ D."""
    M = -(op.matrix @ op.matrix)
    return np.linalg.eigvalsh(0.5 * (M + M.conj().T))


def dense_laplacian(conn):
    """Oracle: -sum_a conn_a @ conn_a on the full space."""
    return -sum(comp.matrix @ comp.matrix for comp in conn)


def dense_potential(op, lap_matrix):
    """Oracle: -D @ D - Laplacian on the full space."""
    return -(op.matrix @ op.matrix) - lap_matrix


def dense_leakage_and_trace(V, lat, fiber):
    """Oracle: the largest entry outside the site-diagonal blocks, and the
    fiber trace of the mean site-diagonal block."""
    S = lat.n_sites
    rows = V.reshape(S, fiber, S, fiber)
    idx = np.arange(S)
    blocks = rows[idx, :, idx, :]
    off = rows.copy()
    off[idx, :, idx, :] = 0.0
    return float(np.abs(off).max()), float(np.trace(blocks.mean(axis=0)).real)


def dense_copy(op):
    """The operator's densified matrix, held as a dense operator."""
    return from_matrix(op.matrix, op.lattice, op.spinor_dim, op.internal_dim, kind=op.kind)


def site_index(lat, coords):
    return int(np.ravel_multi_index(tuple(np.mod(coords, lat.L)), (lat.L,) * lat.dim))


@pytest.fixture(
    scope="module",
    params=[
        (model, n, L, kind, wilson)
        for model, n, L in (("ew", 1, 2), ("ew", 1, 3), ("ew", 1, 4), ("ew", 2, 2),
                            ("leptons", 1, 3))
        for kind in ("fourier_spectral", "central_difference")
        for wilson in (False, True)
    ],
    ids=lambda p: "-".join(map(str, p)),
)
def vacuum(request):
    """(lattice, Clifford algebra, mass data, fermions, Wilson fields or None)."""
    return vacuum_objects(*request.param)


def vacuum_objects(model, n, L, kind, wilson):
    cfg = ew_reference() if model == "ew" else two_generation_leptons()
    built = cfg.build()
    vac = minimize(built.higgs, built.seed)
    md = mass_matrix(built.ymap, vac)
    fields = wilson_fields(cfg, vac, THETA[: 2 * n]) if wilson else None
    return TorusLattice(n=n, L=L, derivative_kind=kind), build_clifford(n), md, built.frep, fields


def test_block_spectrum_matches_dense_eigensolve(vacuum):
    lat, cl, md, frep, fields = vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    want = dense_squared_spectrum(op)
    got = spectrum(op, square_first=True)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_laplacian_and_potential_match_dense_products(vacuum):
    lat, cl, md, frep, fields = vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    conn = build_vacuum_connection(lat, cl, None, frep, fields)
    lap = bochner_laplacian(conn)
    vd = dirac_potential(op, lap)
    assert lap.sites is not None and vd.sites is not None
    lap_oracle = dense_laplacian(conn)
    assert np.abs(lap.matrix - lap_oracle).max() <= 1e-13
    oracle = dense_potential(op, lap_oracle)
    assert np.abs(vd.matrix - oracle).max() <= 1e-13
    leak, trace = dense_leakage_and_trace(oracle, lat, op.fiber_dim)
    assert abs(vd.meta["offsite_leakage"] - leak) <= 1e-13
    got = lagrangian_density(vd)
    assert got == float(np.trace(full_stencil(vd)[0]).real)
    assert abs(got - trace) <= 1e-13
    assert abs(got - cl.spinor_dim * md.spectrum_sq.sum()) <= 1e-12


def test_hermiticity_residual_matches_dense_bitwise(vacuum):
    lat, cl, md, frep, fields = vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, frep, fields))
    for stencil_op in (op, lap, dirac_potential(op, lap)):
        assert hermiticity_residual(stencil_op) == hermiticity_residual(dense_copy(stencil_op))


def test_densified_matrix_shifts_the_stencil(vacuum):
    lat, cl, md, frep, fields = vacuum
    F = cl.spinor_dim * frep.n_total
    conn = build_vacuum_connection(lat, cl, md, frep, fields)
    ops = (build_vacuum_dirac(lat, cl, md, frep, fields), *conn)
    for op in ops:
        stencil = full_stencil(op)
        assert stencil.shape == (lat.n_sites, F, F)
        rows = op.matrix.reshape(lat.n_sites, F, lat.n_sites, F)
        coords = list(itertools.product(range(lat.L), repeat=lat.dim))
        for x, cx in enumerate(coords):
            for y, cy in enumerate(coords):
                r = site_index(lat, np.subtract(cy, cx))
                assert np.array_equal(rows[x, :, y, :], stencil[r])


def test_stencil_checks_reject_dense_operator(ew):
    lat = TorusLattice(n=1, L=3)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2))
    fl = fluctuation_operator(op, None, phi, ew.ymap, ew.cl, ew.frep, 0.5)
    assert fl.blocks.shape == (lat.n_sites, fl.sites.size, fl.fiber_dim, fl.fiber_dim)
    conn = build_vacuum_connection(lat, ew.cl, None, ew.frep)
    lap = bochner_laplacian(conn)
    # an operator from a dense matrix is held per site too
    for bad in (fl, dense_copy(fl)):
        for check in (lambda: dirac_potential(bad, lap), lambda: contraction_residual(conn, ew.cl, bad),
                      lambda: bochner_laplacian([bad, bad]), lambda: lagrangian_density(bad)):
            with pytest.raises(ValueError, match="held per site"):
                check()
    # a site-dependent operator's squared spectrum is its spectrum squared
    got = spectrum(fl, square_first=True)
    assert np.array_equal(got, np.sort(spectrum(fl) ** 2))
    want = dense_squared_spectrum(fl)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, want.max())


@pytest.fixture(
    scope="module",
    params=[
        (model, n, L, kind, wilson)
        for model in ("ew", "leptons")
        for n, L in ((1, 3), (1, 4), (2, 2), (2, 3))
        for kind in ("fourier_spectral", "central_difference")
        for wilson in (False, True)
    ],
    ids=lambda p: "-".join(map(str, p)),
)
def identity_vacuum(request):
    return vacuum_objects(*request.param)


def test_squared_spectrum_sums_to_laplacian_plus_density(identity_vacuum):
    # tr (i D)^2 = S tr (i D)^2(0) = S (tr Laplacian(0) + tr V(0)): the
    # eigenvalue path and the stencil-product path agree on the trace
    lat, cl, md, frep, fields = identity_vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, frep, fields))
    density = lat.n_sites * lagrangian_density(dirac_potential(op, lap))
    total = spectrum(op, square_first=True).sum() - lat.n_sites * np.trace(full_stencil(lap)[0]).real
    assert abs(total - density) <= 1e-12 * max(1.0, abs(density))
    assert abs(density - lat.n_sites * cl.spinor_dim * md.spectrum_sq.sum()) <= 1e-10 * max(1.0, abs(density))


def kron_lift_dirac(lat, cl, md, frep, fields=None):
    """Oracle: the vacuum Dirac operator with every site-diagonal term added
    as a dense lift np.kron(np.eye(n_sites), block)."""
    nf = frep.n_total
    lift = np.eye(lat.n_sites)
    mat = np.zeros((lat.n_sites * cl.spinor_dim * nf,) * 2, dtype=complex)
    for a in range(lat.dim):
        mat += np.kron(site_derivative(lat, a), np.kron(cl.gamma[a], np.eye(nf, dtype=complex)))
        if fields is not None:
            mat += np.kron(lift, np.kron(cl.gamma[a], fields[a]))
    mat += np.kron(lift, np.kron(cl.gamma5, md.D_matrix))
    return mat


def kron_lift_connection(lat, cl, md, frep, fields=None):
    """Oracle: the connection components, built the same way."""
    nf = frep.n_total
    fiber = cl.spinor_dim * nf
    lift = np.eye(lat.n_sites)
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    comps = []
    for a in range(lat.dim):
        mat = np.kron(site_derivative(lat, a), np.eye(fiber, dtype=complex))
        if fields is not None:
            mat += np.kron(lift, np.kron(np.eye(cl.spinor_dim), fields[a]))
        mat += np.kron(lift, np.kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), d_int))
        comps.append(mat)
    return comps


def test_builders_match_kron_lift_bitwise(vacuum, tmp_path):
    lat, cl, md, frep, fields = vacuum
    op = build_vacuum_dirac(lat, cl, md, frep, fields)
    want = kron_lift_dirac(lat, cl, md, frep, fields).view(np.float64)
    got = op.matrix.view(np.float64)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # the stencil dumps its support and the oracle the full one, so the
    # dumps differ; the matrices they load to do not, bit for bit
    dump_operator(op, tmp_path / "new.json")
    oracle = from_matrix(want.view(complex), lat, cl.spinor_dim, frep.n_total, kind=op.kind)
    dump_operator(oracle, tmp_path / "old.json")
    loaded = [load_operator(tmp_path / name).matrix.view(np.float64) for name in ("new.json", "old.json")]
    assert all(np.array_equal(m.view(np.uint64), want.view(np.uint64)) for m in loaded)
    for m in (md, None):
        conn = build_vacuum_connection(lat, cl, m, frep, fields)
        for comp, oracle in zip(conn, kron_lift_connection(lat, cl, m, frep, fields)):
            got, want = comp.matrix.view(np.float64), oracle.view(np.float64)
            assert np.array_equal(got, want)
            # the build starts from zeros, so some -0.0 entries of the kron
            # lift come out as +0.0; no other bit differs
            moved = np.signbit(got) != np.signbit(want)
            assert not np.any(np.signbit(got[moved]))
            assert np.all(want[moved] == 0.0)


# ----- Wilson lines ---------------------------------------------------------

def wilson_oracle(theta, vac, rep):
    """Oracle: A_a = sum_k c_ak G_k with c = theta @ (isotropy basis), summed
    from zero one generator after the other."""
    basis = np.array(vac.isotropy, dtype=float).reshape(vac.isotropy.shape[0], rep.dim_g)
    fields = []
    for row in np.asarray(theta, dtype=float) @ basis:
        A = np.zeros((rep.rep_dim, rep.rep_dim), dtype=complex)
        for k in range(rep.dim_g):
            A += row[k] * rep.generators[k]
        fields.append(A)
    return np.array(fields)


@pytest.mark.parametrize("model", ["ew", "leptons", "su2-unbroken", "u1"])
@pytest.mark.parametrize("n", [1, 2])
def test_build_wilson_is_the_generator_sum_bitwise(model, n):
    cfg = {"ew": ew_reference, "leptons": two_generation_leptons,
           "su2-unbroken": su2_unbroken_model, "u1": lambda: u1_model(0.3)}[model]()
    built = cfg.build()
    vac = minimize(built.higgs, built.seed)
    rng = np.random.default_rng(n)
    for _ in range(20):
        theta = rng.standard_normal((2 * n, vac.isotropy.shape[0]))
        theta[rng.random(theta.shape) < 0.2] = -0.0
        got = wilson_fields(cfg, vac, theta.tolist())
        want = wilson_oracle(theta, vac, built.frep.total)
        assert got.shape == (2 * n, built.frep.n_total, built.frep.n_total)
        assert np.array_equal(bits(got), bits(want))


def test_wilson_fields_flat_and_shift(ew):
    lat = TorusLattice(n=1, L=4)
    fields = wilson_fields(ew.cfg, ew.vac, [[0.25], [0.0]])
    assert wilson_flatness(fields) <= 1e-12
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, fields)
    got = spectrum(op, square_first=True)
    want = expected_squared_spectrum(lat, branch_momentum_shifts(lat, ew.md, ew.frep, fields))
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
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, wilson_fields(ew.cfg, ew.vac, [[0.25], [0.0]]))
    got = spectrum(op, square_first=True)
    free = free_expected(lat, 2)  # massless branch: one fiber dim, spinor 2
    for v in free:
        assert np.min(np.abs(got - v)) <= 1e-9 * max(1.0, free.max())


def test_wilson_flatness_of_a_nonflat_line(ew):
    # A_0 = T1 and A_1 = T2 of the doublet: [A_0, A_1] = T3 = -i sigma_3 / 2
    fields = ew.frep.total.element(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    assert wilson_flatness(fields) == 0.5
    assert wilson_flatness(fields[:1]) == 0.0
    assert wilson_flatness(wilson_fields(ew.cfg, ew.vac, THETA)) == 0.0


@pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 3), (2, 4, 4)])
def test_builders_reject_misshapen_wilson_fields(ew, shape):
    lat = TorusLattice(n=1, L=2)
    fields = np.zeros(shape, dtype=complex)
    for build in (lambda: build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep, fields),
                  lambda: build_vacuum_connection(lat, ew.cl, ew.md, ew.frep, fields),
                  lambda: branch_momentum_shifts(lat, ew.md, ew.frep, fields)):
        with pytest.raises(ValueError, match=r"Wilson fields have shape .*\(2, 3, 3\)"):
            build()


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
    want = expected_squared_spectrum(lat, branch_momentum_shifts(lat, shifted, ew.frep, None))
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, want.max())


def test_fluctuation_unitary_gauge_projection(ew):
    # with the projection enabled a Goldstone component is removed
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    _, *split = isotropy_algebra(ew.cfg.build_higgs_model().rep, ew.vac.z0)
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


def bits(m):
    """The raw bits of a complex array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(m).view(np.uint64)


def fluctuation_oracle(vac_op, A_fl, phis, ymap, cl, frep, t, unitary_split=None):
    """Oracle: the per-site build, one state's projection, coupling and
    Kronecker products at a time, written into a dense site-diagonal
    fluctuation matrix that is added to the vacuum's."""
    S, fiber = vac_op.lattice.n_sites, vac_op.fiber_dim
    fl = np.zeros_like(vac_op.matrix)
    for x in range(S):
        phi = phis[x]
        if unitary_split is not None:
            physical = unitary_split[1]
            r = np.empty(2 * phi.shape[0])
            r[0::2], r[1::2] = phi.real, phi.imag
            r = physical @ (physical.T @ r)
            phi = r[0::2] + 1j * r[1::2]
        M = np.tensordot(ymap.tensor, np.where(ymap.conj_flags, phi.conj(), phi), axes=([2], [0]))
        nl = ymap.n_left
        G = np.zeros((nl + ymap.n_right,) * 2, dtype=complex)
        G[:nl, nl:] = 1j * M
        G[nl:, :nl] = 1j * M.conj().T
        blk = np.kron(cl.gamma5, G)
        if A_fl is not None:
            for a in range(len(A_fl)):
                X = np.zeros((frep.n_total,) * 2, dtype=complex)
                for c, gen in zip(A_fl[a, x], frep.total.generators):
                    X += c * gen
                blk += np.kron(cl.gamma[a], X)
        fl[x * fiber : (x + 1) * fiber, x * fiber : (x + 1) * fiber] = blk
    return vac_op.matrix + float(t) * fl


@pytest.fixture(scope="module", params=[(1, 3), (2, 2)], ids=["n1-L3", "n2-L2"])
def fluctuation_case(request, ew):
    """(vacuum operator, gauge fluctuation, Higgs fluctuation, unitary split)
    with a Wilson line, seeded."""
    n, L = request.param
    lat, cl = TorusLattice(n=n, L=L), build_clifford(n)
    op = build_vacuum_dirac(lat, cl, ew.md, ew.frep, wilson_fields(ew.cfg, ew.vac, THETA[: 2 * n]))
    rng = np.random.default_rng(7 + n)
    A = 0.3 * rng.standard_normal((lat.dim, lat.n_sites, ew.frep.total.dim_g))
    phi = 0.3 * (rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2)))
    return op, cl, A, phi, (ew.vac.goldstone_basis, ew.vac.physical_basis)


@pytest.mark.parametrize("with_gauge", [True, False], ids=["gauge", "higgs-only"])
@pytest.mark.parametrize("projected", [True, False], ids=["unitary-split", "no-split"])
def test_fluctuation_matches_per_site_oracle_bitwise(ew, fluctuation_case, with_gauge, projected):
    op, cl, A, phi, split = fluctuation_case
    A = A if with_gauge else None
    split = split if projected else None
    # the negated vacuum is a dense operator whose off-site zeros are -0.0
    negated = from_matrix(-op.matrix, op.lattice, op.spinor_dim, op.internal_dim)
    for vac, t in itertools.product((op, negated), (0.25, 1.0, -0.5)):
        got = fluctuation_operator(vac, A, phi, ew.ymap, cl, ew.frep, t, unitary_split=split)
        want = fluctuation_oracle(vac, A, phi, ew.ymap, cl, ew.frep, t, unitary_split=split)
        assert np.array_equal(bits(got.matrix), bits(want))


@pytest.mark.parametrize("n, L, kind, wilson", [
    (1, 4, "fourier_spectral", False),
    (1, 4, "fourier_spectral", True),
    (1, 5, "central_difference", False),
    (2, 3, "fourier_spectral", True),
], ids=["n1-L4", "n1-L4-wilson", "n1-L5-central", "n2-L3-wilson"])
def test_off_vacuum_potential_is_the_local_mass_square(ew, n, L, kind, wilson):
    # V = -D_phi^2 - Laplacian(Clifford connection) for a site-dependent
    # Higgs fluctuation: its off-site part gamma^a gamma5 [d_a, M] and,
    # with a Wilson line, the on-site gamma^a gamma5 [A_a, M] have no
    # spinor trace, so each site block's trace is 2^(n+1) |M(x)|_F^2;
    # without a Wilson line the block itself is 1_spinor x (-G(z0 + t P phi_x)^2)
    lat, cl = TorusLattice(n=n, L=L, derivative_kind=kind), build_clifford(n)
    fields = wilson_fields(ew.cfg, ew.vac, THETA[: 2 * n]) if wilson else None
    split = (ew.vac.goldstone_basis, ew.vac.physical_basis)
    rng = np.random.default_rng(17 + L)
    phi = 0.3 * (rng.standard_normal((lat.n_sites, 2)) + 1j * rng.standard_normal((lat.n_sites, 2)))
    t = 0.5
    op = fluctuation_operator(build_vacuum_dirac(lat, cl, ew.md, ew.frep, fields), None, phi,
                              ew.ymap, cl, ew.frep, t, unitary_split=split)
    lap = bochner_laplacian(build_vacuum_connection(lat, cl, None, ew.frep, fields))
    G = apply_yukawa(ew.ymap, ew.vac.z0 + t * unitary_gauge_project(split, phi))
    nl, S, F = ew.ymap.n_left, lat.n_sites, op.fiber_dim
    want_trace = 2 ** (n + 1) * np.sum(np.abs(G[:, :nl, nl:]) ** 2, axis=(1, 2))
    scale = max(1.0, float(want_trace.max()))
    us = site_unitaries(ew.frep, S, seed=L)
    for D, lap_matrix in ((op.matrix, lap.matrix),
                          (gauge_transform(op, us).matrix, gauge_transform(lap, us).matrix)):
        V = (-D @ D - lap_matrix).reshape(S, F, S, F)
        blocks = V[np.arange(S), :, np.arange(S), :]
        trace = np.trace(blocks, axis1=1, axis2=2)
        assert np.abs(trace - want_trace).max() <= 1e-12 * scale
    if not wilson:
        V = (-op.matrix @ op.matrix - lap.matrix).reshape(S, F, S, F)
        want = np.kron(np.eye(cl.spinor_dim)[None], -G @ G)
        assert np.abs(V[np.arange(S), :, np.arange(S), :] - want).max() <= 1e-12 * scale


# ----- gauge transformations -----------------------------------------------

def test_gauge_transform_identity(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    out = gauge_transform(op, np.eye(3, dtype=complex))
    assert np.abs(out.matrix - op.matrix).max() == 0.0


def test_gauge_transform_unbroken_entrywise(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    u = exp_map(ew.frep.total, 0.8 * np.asarray(ew.vac.isotropy[0]))
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


def test_gauge_transform_reads_unitary_from_tol(ew):
    # |u^dagger u - 1| = 2e-7 exceeds the default unitary threshold and is
    # within a looser one passed as tol
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    u = (1.0 + 1e-7) * np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        gauge_transform(op, u)
    out = gauge_transform(op, u, DEFAULT.with_overrides({"unitary": 1e-6}))
    assert np.abs(out.matrix - op.matrix).max() <= 1e-6 * np.abs(op.matrix).max()


def gauge_oracle(op, us):
    """Oracle: the dense product U M U^dagger with the block-diagonal U."""
    fiber = op.fiber_dim
    U = np.zeros_like(op.matrix)
    for x, u in enumerate(us):
        U[x * fiber : (x + 1) * fiber, x * fiber : (x + 1) * fiber] = np.kron(np.eye(op.spinor_dim), u)
    return U @ op.matrix @ U.conj().T


def site_unitaries(frep, n_sites, seed):
    rng = np.random.default_rng(seed)
    return np.stack([exp_map(frep.total, rng.standard_normal(frep.total.dim_g)) for _ in range(n_sites)])


def test_gauge_transform_matches_dense_product(ew, fluctuation_case):
    op, cl, A, phi, split = fluctuation_case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 1.0, unitary_split=split)
    us = site_unitaries(ew.frep, op.lattice.n_sites, 5)
    out = gauge_transform(fl, us)
    want = gauge_oracle(fl, us)
    assert np.abs(out.matrix - want).max() <= 1e-14 * max(1.0, np.abs(fl.matrix).max())
    assert (out.kind, out.meta) == (fl.kind, fl.meta)


def test_gauge_transform_identity_exact_on_fluctuation(ew, fluctuation_case):
    op, cl, A, phi, _ = fluctuation_case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5)
    eye = np.broadcast_to(np.eye(3, dtype=complex), (op.lattice.n_sites, 3, 3))
    assert np.array_equal(gauge_transform(fl, eye).matrix, fl.matrix)


@pytest.mark.parametrize("k", [0, 5, 8])
def test_gauge_transform_names_the_non_unitary_site(ew, k):
    lat = TorusLattice(n=1, L=3)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    us = site_unitaries(ew.frep, lat.n_sites, 11)
    us[k] *= 1.5
    us[-1] *= 2.0  # a later bad site is not the one named
    with pytest.raises(ValueError, match=f"at site {k} is not unitary"):
        gauge_transform(op, us)


# ----- spectrum -------------------------------------------------------------

def test_spectrum_zero_operator(ew):
    lat = TorusLattice(n=1, L=2)
    op = from_matrix(np.zeros((24, 24), dtype=complex), lat, 2, 3)
    assert np.abs(spectrum(op)).max() == 0.0
    assert np.abs(spectrum(op, square_first=True)).max() == 0.0


def test_spectrum_rejects_non_hermitian(ew):
    lat = TorusLattice(n=1, L=2)
    m = np.zeros((24, 24), dtype=complex)
    m[0, 1] = 1.0  # i*m is not Hermitian
    op = from_matrix(m, lat, 2, 3)
    with pytest.raises(NonHermitian):
        spectrum(op)


def test_spectrum_reads_hermiticity_from_tol(ew):
    # |H - H^dagger| = 1e-8 at scale 1 exceeds the default hermiticity
    # threshold and is within a looser one passed as tol
    lat = TorusLattice(n=1, L=2)
    m = np.zeros((24, 24), dtype=complex)
    m[0, 1] = 1e-8
    op = from_matrix(m, lat, 2, 3)
    with pytest.raises(NonHermitian):
        spectrum(op)
    ev = spectrum(op, tol=DEFAULT.with_overrides({"hermiticity": 1e-7}))
    assert ev.shape == (24,) and np.abs(ev).max() <= 1e-8


def test_spectrum_square_consistency(ew):
    lat = TorusLattice(n=1, L=2)
    op = build_vacuum_dirac(lat, ew.cl, ew.md, ew.frep)
    sq = spectrum(op, square_first=True)
    lin = spectrum(op)
    assert np.abs(np.sort(lin ** 2) - sq).max() <= 1e-9 * max(1.0, sq.max())


def chiral_svd_spectrum(op, grading):
    """Oracle: +-svd of the Hermitized (+, -) block of i*op in the basis of a
    diagonal grading, with one zero for each row the classes differ by."""
    plus = np.tile(np.diag(grading).real > 0, op.lattice.n_sites)
    H = 1j * op.matrix
    C = 0.5 * (H[np.ix_(plus, ~plus)] + H[np.ix_(~plus, plus)].conj().T)
    sv = np.linalg.svd(C, compute_uv=False)
    return np.sort(np.concatenate([-sv, np.zeros(abs(C.shape[0] - C.shape[1])), sv]))


def ew_grading(ew, cl):
    """Gamma = gamma5 x chi, chi = +1 on the left fermions, -1 on the right."""
    return np.kron(cl.gamma5, np.diag([1.0] * ew.md.n_left + [-1.0] * ew.md.n_right))


def hermitized_eigvalsh(op):
    H = 1j * op.matrix
    return np.linalg.eigvalsh(0.5 * (H + H.conj().T))


def dense_hermiticity_residual(M, plus=None):
    """Oracle: (max |X - Y|, max(1, max |X|, max |Y|)) for H = i M, with
    (X, Y) = (H, H^dagger), or, given the mask plus of the + class of a
    grading over M's rows, the off-diagonal blocks (H_{+-}, (H_{-+})^dagger).
    This is H's Hermiticity residual when its same-class blocks are zero."""
    H = 1j * M
    if plus is None:
        X, Y = H, H.conj().T
    else:
        P, Q = np.flatnonzero(plus), np.flatnonzero(~plus)
        X, Y = H[np.ix_(P, Q)], H[np.ix_(Q, P)].conj().T
    peak = max(float(np.max(np.abs(Z), initial=0.0)) for Z in (X, Y))
    return float(np.max(np.abs(X - Y), initial=0.0)), max(1.0, peak)


def chirality_mixing_unitaries(n_sites, nf, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_sites, nf, nf)) + 1j * rng.standard_normal((n_sites, nf, nf))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("square_first", [False, True])
def test_dense_spectrum_is_the_chiral_svd(ew, fluctuation_case, square_first):
    # Gamma = gamma5 x chi is odd for fluctuations and gauge transforms: the
    # spectrum is +-svd of one block, which agrees with the full eigensolve
    # to rounding; a chirality-mixing transform has no grading and takes
    # the full eigensolve itself
    op, cl, A, phi, split = fluctuation_case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.75, unitary_split=split)
    moved = gauge_transform(fl, site_unitaries(ew.frep, op.lattice.n_sites, 9))
    grading = ew_grading(ew, cl)

    def squared(vals):
        return np.sort(vals ** 2) if square_first else vals

    for dense in (fl, moved):
        got = spectrum(dense, square_first=square_first)
        assert np.array_equal(got, squared(chiral_svd_spectrum(dense, grading)))
        scale = max(1.0, np.abs(dense.matrix).max()) ** (2 if square_first else 1)
        assert np.abs(got - squared(hermitized_eigvalsh(dense))).max() <= 1e-12 * scale
    mixed = gauge_transform(fl, chirality_mixing_unitaries(op.lattice.n_sites, 3, 4))
    assert np.array_equal(spectrum(mixed, square_first=square_first),
                          squared(hermitized_eigvalsh(mixed)))


def test_chiral_blocks_give_the_full_hermiticity_residual_bitwise(ew, fluctuation_case):
    op, cl, A, phi, split = fluctuation_case
    fl = fluctuation_operator(op, A, phi, ew.ymap, cl, ew.frep, 0.5, unitary_split=split)
    # a one-sided error between a + and a - slot keeps the split and makes
    # the residual nonzero: entry (0, fiber + 2) of the matrix, in the block
    # coupling site 0 to site 1
    fl.blocks[0, np.flatnonzero(fl.sites == 1)[0], 0, 2] += 1e-12
    moved = gauge_transform(fl, site_unitaries(ew.frep, op.lattice.n_sites, 3))
    for dense in (fl, moved):
        plus = _chirality(dense)
        assert np.array_equal(plus, np.diag(ew_grading(ew, cl)).real > 0)
        tiled = np.tile(plus, op.lattice.n_sites)
        assert dense_hermiticity_residual(dense.matrix, tiled) == hermiticity_residual(dense)
    assert hermiticity_residual(fl)[0] > 0.0
