import numpy as np
import pytest

from fermimass import (
    LieAlgebraRep,
    build_clifford,
    commutant_check,
    direct_sum,
    ew_reference,
    exp_map,
    isotropy_algebra,
)
from fermimass.group_rep import orbit_directions
from conftest import S1, S2, S3, ew_rep, su2_doublet


def test_rejects_non_antihermitian_generator():
    # the stacked test names the first offending generator and its deviation
    message = r"bad: generator 1 is not anti-Hermitian \(\|X \+ X\^dagger\| = 2\.000e\+00"
    with pytest.raises(ValueError, match=message):
        LieAlgebraRep(generators=(-0.5j * S1, S2, S3), label="bad")


@pytest.mark.parametrize("gens, message", [
    ((np.zeros((2, 2)), np.zeros((3, 3))), r"ragged: generator 1 has shape \(3, 3\), expected \(2, 2\)"),
    ((np.zeros((2, 3)),), r"ragged: generator 0 is not a square matrix, shape \(2, 3\)"),
    ((), "at least one generator"),
], ids=["ragged", "not-square", "empty"])
def test_rejects_generators_of_the_wrong_shape(gens, message):
    with pytest.raises(ValueError, match=message):
        LieAlgebraRep(generators=gens, label="ragged")


def test_generators_are_one_read_only_copy():
    gens = np.array([-0.5j * S1, -0.5j * S2, -0.5j * S3])
    rep = LieAlgebraRep(generators=gens)
    assert rep.generators.shape == (3, 2, 2)
    gens[0] = 0.0
    assert np.array_equal(rep.generators[0], -0.5j * S1)


def test_stacks_are_read_only(ew_higgs, ew_vac):
    # the generator, gamma, isotropy and coefficient stacks: writing raises
    for stack in (ew_higgs.rep.generators, build_clifford(2).gamma, ew_vac.isotropy,
                  ew_higgs.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0


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


def test_element_unbroken_direction_annihilates():
    # electric-charge combination T3 + Y/2 annihilates (0, v)
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    out = rep.element(np.array([0.0, 0.0, 1.0, 0.5])) @ z0
    assert np.abs(out).max() <= 1e-14


def test_element_broken_direction():
    # T1 on (0, v): -(i/2) sigma1 (0, v)^T = (-i v/2, 0)
    rep = ew_rep(+1.0, 2, "higgs")
    v = 2.0
    out = rep.element(np.array([1.0, 0.0, 0.0, 0.0])) @ np.array([0.0, v])
    assert np.abs(out - np.array([-1j * v / 2.0, 0.0])).max() <= 1e-14


def test_isotropy_zero_vector_is_everything():
    rep = su2_doublet()
    iso, _, _ = isotropy_algebra(rep, np.zeros(2))
    assert iso.shape == (3, 3)


def test_isotropy_electroweak_vacuum():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    iso, _, _ = isotropy_algebra(rep, z0)
    assert iso.shape == (1, 4)
    # singular-value oracle: the only null direction is along T3 + Y/2
    direction = np.array([0.0, 0.0, 1.0, 0.5])
    direction = direction / np.linalg.norm(direction)
    overlap = abs(float(np.dot(iso[0], direction)))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    # the basis element annihilates z0
    out = rep.element(iso[0]) @ z0
    assert np.abs(out).max() <= 1e-10 * max(1.0, np.linalg.norm(z0))


def test_isotropy_completely_broken():
    # plain su(2) doublet with no u(1): nothing survives at (0, v)
    rep = su2_doublet()
    iso, _, _ = isotropy_algebra(rep, np.array([0.0, 2.0]))
    assert iso.shape == (0, 3)


def test_isotropy_dim_invariant_along_orbit():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = exp_map(rep, rng.standard_normal(4))
        assert isotropy_algebra(rep, g @ z0)[0].shape == isotropy_algebra(rep, z0)[0].shape


def test_isotropy_basis_orthonormal():
    rep = ew_rep(+1.0, 2, "higgs")
    B, _, _ = isotropy_algebra(rep, np.zeros(2))
    assert np.abs(B @ B.T - np.eye(B.shape[0])).max() <= 1e-12


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
    with pytest.raises(ValueError, match="acts on C\\^2"):
        orbit_directions(rep, np.zeros(3))
