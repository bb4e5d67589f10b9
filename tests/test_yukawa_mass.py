import numpy as np
import pytest

from fermimass import (
    DEFAULT,
    BlockStructureViolation,
    ChiralFermionRep,
    YukawaMap,
    apply_yukawa,
    check_equivariance,
    commutant_check,
    exp_map,
    lemma_verify,
    mass_matrix,
    mean_mass,
    minimize,
)
from fermimass.yukawa_mass import mass_data_from_operator, reconstruction_residual
from conftest import ew_perturbed_objects, ew_rep


def random_yukawa(rng, nl, nr, nh, flags=None):
    t = rng.standard_normal((nl, nr, nh)) + 1j * rng.standard_normal((nl, nr, nh))
    return YukawaMap(tensor=t, conj_flags=flags)


def test_chiral_rep_structure():
    frep = ChiralFermionRep(rep_L=ew_rep(-1.0, 2, "lL"), rep_R=ew_rep(-2.0, 1, "lR"))
    assert frep.n_left == 2 and frep.n_right == 1 and frep.n_total == 3
    grading = np.diag([1] * frep.n_left + [-1] * frep.n_right)
    # every generator of the total representation is even
    for X in frep.total.generators:
        assert np.abs(X @ grading - grading @ X).max() == 0.0
    # the total is the block direct sum
    for k, X in enumerate(frep.total.generators):
        assert np.abs(X[:2, :2] - frep.rep_L.generators[k]).max() == 0.0
        assert np.abs(X[2:, 2:] - frep.rep_R.generators[k]).max() == 0.0
        assert np.abs(X[:2, 2:]).max() == 0.0


def test_apply_yukawa_zero_state():
    rng = np.random.default_rng(0)
    ymap = random_yukawa(rng, 2, 1, 2)
    assert np.abs(apply_yukawa(ymap, np.zeros(2))).max() == 0.0


def test_apply_yukawa_ew_block(ew_ymap):
    # hand-check oracle: the single coupling sends phi = (0, v) to the
    # 2x1 block M = y_e (0, v)^T = (0, 1)^T at y_e = 0.5, v = 2
    G = apply_yukawa(ew_ymap, np.array([0.0, 2.0]))
    M = (-1j * G)[:2, 2:]
    assert np.abs(M - np.array([[0.0], [1.0]])).max() <= 1e-15


def test_apply_yukawa_odd_antihermitian_property():
    rng = np.random.default_rng(23)
    for flags in (None, (True, False, True)):
        ymap = random_yukawa(rng, 3, 2, 3, flags)
        for _ in range(6):
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            G = apply_yukawa(ymap, phi)
            assert np.abs(G + G.conj().T).max() <= 1e-13
            assert np.abs(G[:3, :3]).max() == 0.0
            assert np.abs(G[3:, 3:]).max() == 0.0


def test_apply_yukawa_real_linearity():
    rng = np.random.default_rng(2)
    ymap = random_yukawa(rng, 2, 2, 2, (True, False))
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2)
    lhs = apply_yukawa(ymap, 2.0 * a + 3.0 * b)
    rhs = 2.0 * apply_yukawa(ymap, a) + 3.0 * apply_yukawa(ymap, b)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_equivariance_zero_map():
    frep = ChiralFermionRep(rep_L=ew_rep(-1.0, 2, "lL"), rep_R=ew_rep(-2.0, 1, "lR"))
    ymap = YukawaMap(tensor=np.zeros((2, 1, 2)))
    assert check_equivariance(ymap, ew_rep(+1.0, 2, "h"), frep) == 0.0


def test_equivariance_ew_hypercharges(ew_ymap, ew_higgs, ew_frep):
    # the assignment (y_L, y_R, y_H) = (-1, -2, +1) satisfies y_L - y_R = y_H
    assert check_equivariance(ew_ymap, ew_higgs.rep, ew_frep) <= 1e-12


def test_equivariance_broken_hypercharge():
    # y_R = -1.9 violates the sum rule by 0.1, residual ~ 0.1 y_e
    _, higgs, frep, ymap = ew_perturbed_objects(y_right=-1.9)
    assert check_equivariance(ymap, higgs.rep, frep) >= 0.01 * 0.5


def test_mass_matrix_zero_coupling(ew_vac):
    ymap = YukawaMap(tensor=np.zeros((2, 1, 2)))
    md = mass_matrix(ymap, ew_vac)
    assert np.abs(md.spectrum_sq).max() == 0.0
    assert len(md.eigenspaces) == 1
    assert md.eigenspaces[0].m2 == 0.0


def test_mass_matrix_ew_spectrum(ew_md):
    # SVD oracle on the 2x1 block (0, 1)^T: one singular value 1, so the
    # squared spectrum over the 3-dim fiber is {0, 1, 1}
    assert np.abs(ew_md.M_F - np.array([[0.0], [1.0]])).max() <= 1e-12
    assert np.abs(ew_md.spectrum_sq - np.array([0.0, 1.0, 1.0])).max() <= 1e-12
    assert mean_mass(ew_md) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_mass_data_random_operator_pairing():
    # squared singular values appear once per chirality (SVD oracle)
    rng = np.random.default_rng(31)
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    D = np.zeros((5, 5), dtype=complex)
    D[:3, 3:] = 1j * M
    D[3:, :3] = 1j * M.conj().T
    md = mass_data_from_operator(D, 3, 2)
    s = np.linalg.svd(M, compute_uv=False)
    expected = np.sort(np.concatenate([s ** 2, s ** 2, [0.0]]))
    assert np.abs(md.spectrum_sq - expected).max() <= 1e-12


def test_mass_data_rejects_even_block():
    D = np.zeros((3, 3), dtype=complex)
    D[0, 1] = 1j
    D[1, 0] = 1j  # diagonal (left-left) block entry
    with pytest.raises(BlockStructureViolation, match="odd"):
        mass_data_from_operator(D, 2, 1)


def test_mass_data_rejects_non_antihermitian():
    D = np.zeros((3, 3), dtype=complex)
    D[0, 2] = 1.0
    with pytest.raises(BlockStructureViolation, match="anti-Hermitian"):
        mass_data_from_operator(D, 2, 1)


def test_mass_data_reads_block_structure_from_tol():
    # a 1e-9 even entry is a violation at the default block_structure and
    # within a looser one passed as tol
    D = np.zeros((3, 3), dtype=complex)
    D[0, 2] = D[2, 0] = 1j
    D[0, 1] = D[1, 0] = 1e-9j
    with pytest.raises(BlockStructureViolation, match="odd"):
        mass_data_from_operator(D, 2, 1)
    md = mass_data_from_operator(D, 2, 1, DEFAULT.with_overrides({"block_structure": 1e-8}))
    assert np.abs(md.spectrum_sq - np.array([0.0, 1.0, 1.0])).max() <= 1e-12


def test_eigenbundles_ew(ew_md):
    # eigen-decomposition oracle of diag(0, 1): the massless block is the
    # first left slot with no right partner, the m^2 = 1 block pairs one
    # left and one right direction
    blocks = ew_md.eigenspaces
    assert len(blocks) == 2
    zero, massive = blocks
    assert zero.m2 == 0.0
    assert zero.left_dim == 1 and zero.right_dim == 0
    assert np.abs(np.abs(zero.left_basis[:, 0]) - np.array([1.0, 0.0])).max() <= 1e-12
    assert massive.m2 == pytest.approx(1.0, abs=1e-12)
    assert massive.left_dim == 1 and massive.right_dim == 1
    assert np.abs(np.abs(massive.left_basis[:, 0]) - np.array([0.0, 1.0])).max() <= 1e-12


def test_eigenbundles_two_generations_distinct():
    y1, y2 = 0.4, 0.9
    D = np.zeros((4, 4), dtype=complex)
    M = np.diag([y1, y2]).astype(complex)
    D[:2, 2:] = 1j * M
    D[2:, :2] = 1j * M.conj().T
    md = mass_data_from_operator(D, 2, 2)
    blocks = md.eigenspaces
    assert [round(b.m2, 12) for b in blocks] == [round(y1 ** 2, 12), round(y2 ** 2, 12)]
    assert all(b.left_dim == 1 and b.right_dim == 1 for b in blocks)


def test_eigenbundles_degenerate_generations_group():
    y = 0.7
    D = np.zeros((4, 4), dtype=complex)
    M = (y * np.eye(2)).astype(complex)
    D[:2, 2:] = 1j * M
    D[2:, :2] = 1j * M.conj().T
    md = mass_data_from_operator(D, 2, 2)
    blocks = md.eigenspaces
    assert len(blocks) == 1
    assert blocks[0].left_dim == 2 and blocks[0].right_dim == 2


def test_reconstruction_residual(ew_md):
    assert reconstruction_residual(ew_md) <= 1e-10


def test_reconstruction_residual_random():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    D = np.zeros((7, 7), dtype=complex)
    D[:4, 4:] = 1j * M
    D[4:, :4] = 1j * M.conj().T
    md = mass_data_from_operator(D, 4, 3)
    assert reconstruction_residual(md) <= 1e-10


def test_commutant_of_mass_matrix(ew_md, ew_vac, ew_frep):
    unbroken = ew_frep.total.element(ew_vac.isotropy[0])
    assert commutant_check([unbroken], ew_md.D_matrix) <= 1e-12
    # a broken generator does not commute: residual well above 0.1 * y_e * v
    broken = ew_frep.total.element(np.array([1.0, 0.0, 0.0, 0.0]))
    assert commutant_check([broken], ew_md.D_matrix) > 0.1 * 1.0


def assert_lemma_within_default(rep):
    assert rep.commutant_residual <= DEFAULT.commutant
    assert rep.orbit_deviation <= DEFAULT.orbit_spectrum
    assert rep.orbit_transport_residual <= DEFAULT.orbit_spectrum
    assert rep.reconstruction_residual <= DEFAULT.reconstruction


def test_lemma_ew_passes(ew_ymap, ew_md, ew_vac, ew_frep, ew_higgs):
    rep = lemma_verify(ew_ymap, ew_md, ew_vac, ew_frep, ew_higgs)
    assert_lemma_within_default(rep)


def test_lemma_zero_coupling_passes(ew_vac, ew_frep, ew_higgs):
    ymap = YukawaMap(tensor=np.zeros((2, 1, 2)))
    md = mass_matrix(ymap, ew_vac)
    rep = lemma_verify(ymap, md, ew_vac, ew_frep, ew_higgs)
    assert_lemma_within_default(rep)


def test_lemma_fails_for_non_equivariant_coupling():
    cfg, higgs, frep, ymap = ew_perturbed_objects(y_right=-1.9)
    vac = minimize(higgs, cfg.higgs_seed())
    md = mass_matrix(ymap, vac)
    rep = lemma_verify(ymap, md, vac, frep, higgs)
    # this coupling is rank one, so moved spectra still agree; the failure
    # shows up in the transport of the matrix itself and in the commutant
    assert rep.orbit_transport_residual > 1e-3
    assert rep.orbit_transport_residual > DEFAULT.orbit_spectrum
    assert rep.commutant_residual > DEFAULT.commutant


def test_lemma_orbit_spectra_fail_for_asymmetric_tensor(ew_vac, ew_frep, ew_higgs):
    # a tensor whose two slots carry different couplings breaks the orbit
    # invariance of the spectra themselves (the orbit mixes the slots)
    tensor = np.zeros((2, 1, 2), dtype=complex)
    tensor[0, 0, 0] = 0.8
    tensor[1, 0, 1] = 0.5
    ymap = YukawaMap(tensor=tensor)
    md = mass_matrix(ymap, ew_vac)
    rep = lemma_verify(ymap, md, ew_vac, ew_frep, ew_higgs)
    assert rep.orbit_deviation > 1e-3
    assert rep.orbit_deviation > DEFAULT.orbit_spectrum


def test_spectrum_multiset_orbit_invariance(ew_ymap, ew_vac, ew_higgs):
    base = mass_matrix(ew_ymap, ew_vac).spectrum_sq
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = exp_map(ew_higgs.rep, rng.standard_normal(4))
        moved = apply_yukawa(ew_ymap, g @ ew_vac.z0)
        md = mass_data_from_operator(moved, 2, 1)
        assert np.abs(md.spectrum_sq - base).max() <= 1e-9
