import numpy as np
import pytest

from fermimass import (
    LieAlgebraRep,
    commutant_check,
    direct_sum,
    ew_reference,
    exp_map,
    infinitesimal_action,
    isotropy_algebra,
)
from conftest import S1, S2, S3, ew_rep, su2_doublet


def test_rejects_non_antihermitian_generator():
    with pytest.raises(ValueError, match="generator 1"):
        LieAlgebraRep(generators=(-0.5j * S1, S2), label="bad")


def test_rejects_non_closing_generators():
    # [X1, X2] for these two leaves their real span
    X1 = -0.5j * S1
    X2 = -1j * np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="close"):
        LieAlgebraRep(generators=(X1, X2), label="open")


def test_su2_closure_and_dims():
    rep = su2_doublet()
    assert rep.dim_g == 3
    assert rep.rep_dim == 2


def test_direct_sum_pads_with_trivial_rep():
    rep = su2_doublet()
    trivial = LieAlgebraRep(
        generators=tuple(np.zeros((1, 1), dtype=complex) for _ in range(3)), label="1"
    )
    total = direct_sum([rep, trivial])
    assert total.rep_dim == 3
    for k in range(3):
        # oracle: block assembly by hand
        want = np.zeros((3, 3), dtype=complex)
        want[:2, :2] = rep.generators[k]
        assert np.abs(total.generators[k] - want).max() == 0.0


def test_direct_sum_single_rep_is_identity():
    rep = su2_doublet()
    total = direct_sum([rep])
    for a, b in zip(total.generators, rep.generators):
        assert np.abs(a - b).max() == 0.0


def test_direct_sum_rejects_mismatched_algebras():
    rep = su2_doublet()
    u1 = LieAlgebraRep(generators=(np.array([[1j]]),), label="u1")
    with pytest.raises(ValueError, match="direct sum"):
        direct_sum([rep, u1])


def test_infinitesimal_action_zero_coeffs():
    rep = su2_doublet()
    z = np.array([1.0, 2.0j])
    assert np.abs(infinitesimal_action(rep, np.zeros(3), z)).max() == 0.0


def test_infinitesimal_action_unbroken_direction_annihilates():
    # electric-charge combination T3 + Y/2 annihilates (0, v)
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    out = infinitesimal_action(rep, np.array([0.0, 0.0, 1.0, 0.5]), z0)
    assert np.abs(out).max() <= 1e-14


def test_infinitesimal_action_broken_direction():
    # T1 on (0, v): -(i/2) sigma1 (0, v)^T = (-i v/2, 0)
    rep = ew_rep(+1.0, 2, "higgs")
    v = 2.0
    out = infinitesimal_action(rep, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, v]))
    assert np.abs(out - np.array([-1j * v / 2.0, 0.0])).max() <= 1e-14


def test_infinitesimal_action_linearity():
    rep = su2_doublet()
    rng = np.random.default_rng(11)
    c1, c2 = rng.standard_normal(3), rng.standard_normal(3)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = infinitesimal_action(rep, c1 + 2.0 * c2, z)
    rhs = infinitesimal_action(rep, c1, z) + 2.0 * infinitesimal_action(rep, c2, z)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_isotropy_zero_vector_is_everything():
    rep = su2_doublet()
    iso = isotropy_algebra(rep, np.zeros(2))
    assert iso.dim == 3


def test_isotropy_electroweak_vacuum():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    iso = isotropy_algebra(rep, z0)
    assert iso.dim == 1
    # singular-value oracle: the only null direction is along T3 + Y/2
    direction = np.array([0.0, 0.0, 1.0, 0.5])
    direction = direction / np.linalg.norm(direction)
    overlap = abs(float(np.dot(iso.basis[0], direction)))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    # the basis element annihilates z0
    out = infinitesimal_action(rep, iso.basis[0], z0)
    assert np.abs(out).max() <= 1e-10 * max(1.0, np.linalg.norm(z0))


def test_isotropy_completely_broken():
    # plain su(2) doublet with no u(1): nothing survives at (0, v)
    rep = su2_doublet()
    iso = isotropy_algebra(rep, np.array([0.0, 2.0]))
    assert iso.dim == 0


def test_isotropy_dim_invariant_along_orbit():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = exp_map(rep, rng.standard_normal(4))
        assert isotropy_algebra(rep, g @ z0).dim == isotropy_algebra(rep, z0).dim


def test_isotropy_basis_orthonormal():
    rep = ew_rep(+1.0, 2, "higgs")
    iso = isotropy_algebra(rep, np.zeros(2))
    B = np.array(iso.basis)
    assert np.abs(B @ B.T - np.eye(iso.dim)).max() <= 1e-12


def test_commutant_identity_is_zero():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    assert commutant_check(mats, np.eye(3)) == 0.0


def test_commutant_detects_noncommuting():
    assert commutant_check([S1], S3) > 0.5


def test_commutant_size_mismatch():
    with pytest.raises(ValueError):
        commutant_check([np.eye(3)], np.eye(2))


def test_exp_map_zero_is_identity():
    rep = su2_doublet()
    assert np.abs(exp_map(rep, np.zeros(3)) - np.eye(2)).max() <= 1e-15


def test_exp_map_pauli_closed_form():
    # exp(-i pi sigma1 / 2) = cos(pi/2) Id - i sin(pi/2) sigma1 = -i sigma1
    rep = su2_doublet()
    got = exp_map(rep, np.array([np.pi, 0.0, 0.0]))
    assert np.abs(got - (-1j) * S1).max() <= 1e-12


def test_exp_map_unitary_and_inverse():
    rng = np.random.default_rng(8)
    for rep in (ew_rep(-1.0, 2, "lepton"), ew_reference().build_fermion_rep().total):
        for _ in range(10):
            c = rng.standard_normal(4)
            u = exp_map(rep, c)
            assert np.abs(u.conj().T @ u - np.eye(rep.rep_dim)).max() <= 1e-10
            assert np.abs(exp_map(rep, -c) - u.conj().T).max() <= 1e-10


def test_exp_map_degenerate_hypercharge_closed_form():
    # on the ew fermions (a doublet of hypercharge -1 and a singlet of -2) a
    # pure hypercharge element is -i c diag(y), with a repeated eigenvalue
    rep = ew_reference().build_fermion_rep().total
    y = np.array([-1.0, -1.0, -2.0])
    for c in (0.3, -1.7, np.pi):
        got = exp_map(rep, np.array([0.0, 0.0, 0.0, c]))
        assert np.abs(got - np.diag(np.exp(-1j * y * c))).max() <= 1e-15


def taylor_exp(X, terms=40):
    """sum_k X^k / k!, the oracle for elements of norm of order one."""
    out, term = np.eye(X.shape[0], dtype=complex), np.eye(X.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def test_exp_map_mixed_element_matches_taylor_series():
    rep = ew_reference().build_fermion_rep().total
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = rng.uniform(-1.0, 1.0, 4)
        assert np.abs(exp_map(rep, c) - taylor_exp(rep.element(c))).max() <= 1e-13


def test_element_coefficient_shape_checked():
    rep = su2_doublet()
    with pytest.raises(ValueError):
        rep.element(np.zeros(2))
    with pytest.raises(ValueError):
        infinitesimal_action(rep, np.zeros(3), np.zeros(3))
