import numpy as np
import pytest

from fermimass import build_clifford
from fermimass.clifford import kron

TOL = 1e-12


def anticommutator_residual(cl):
    # brute force over every pair
    g = np.eye(2 * cl.n)
    eye = np.eye(cl.spinor_dim)
    worst = 0.0
    for a in range(2 * cl.n):
        for b in range(2 * cl.n):
            acomm = cl.gamma[a] @ cl.gamma[b] + cl.gamma[b] @ cl.gamma[a]
            worst = max(worst, np.abs(acomm - 2.0 * g[a, b] * eye).max())
    return worst


@pytest.mark.parametrize("n", [1, 2, 3])
def test_anticommutation_table(n):
    cl = build_clifford(n)
    assert anticommutator_residual(cl) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grading_operator(n):
    cl = build_clifford(n)
    eye = np.eye(cl.spinor_dim)
    assert np.abs(cl.gamma5 @ cl.gamma5 - eye).max() <= TOL
    assert np.abs(cl.gamma5 - cl.gamma5.conj().T).max() <= TOL
    for g in cl.gamma:
        assert np.abs(cl.gamma5 @ g + g @ cl.gamma5).max() <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_traces_vanish(n):
    cl = build_clifford(n)
    # a grading operator splits the module into equal-dimension chiral halves
    assert abs(np.trace(cl.gamma5)) <= TOL
    for g in cl.gamma:
        assert abs(np.trace(g)) <= TOL


def test_n1_euclidean_is_pauli_realization():
    cl = build_clifford(1)
    assert cl.spinor_dim == 2
    assert cl.xi_scale == 0.5
    # the 2D algebra is the Pauli realization up to unitary equivalence;
    # the invariants above pin it, and this build uses sigma1, sigma2 exactly
    assert np.abs(cl.gamma[0] - np.array([[0, 1], [1, 0]])).max() == 0.0
    assert np.abs(cl.gamma[1] - np.array([[0, -1j], [1j, 0]])).max() == 0.0
    assert np.abs(cl.gamma5 - np.diag([1.0, -1.0])).max() <= TOL


def test_gamma5_phase_convention():
    # gamma5 = (-i)^n gamma_1 ... gamma_2n in the euclidean algebra
    for n in (1, 2, 3):
        cl = build_clifford(n)
        prod = np.eye(cl.spinor_dim, dtype=complex)
        for g in cl.gamma:
            prod = prod @ g
        assert np.abs(cl.gamma5 - (-1j) ** n * prod).max() <= TOL


@pytest.mark.parametrize("n", [1, 2])
def test_hermiticity_per_signature(n):
    eu = build_clifford(n)
    for g in eu.gamma:
        assert np.abs(g - g.conj().T).max() <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_right_inverse_identity(n):
    cl = build_clifford(n)
    acc = np.zeros((cl.spinor_dim, cl.spinor_dim), dtype=complex)
    for g in cl.gamma:
        acc += g @ (cl.xi_scale * g)
    assert np.abs(acc - np.eye(cl.spinor_dim)).max() <= TOL


def test_xi_scale_forced_by_contraction():
    # gamma^a gamma_a = 2n Id forces xi_scale = 1/(2n)
    for n in (1, 2, 3):
        cl = build_clifford(n)
        acc = sum(g @ g for g in cl.gamma)
        assert np.abs(acc - 2 * n * np.eye(cl.spinor_dim)).max() <= TOL
        assert cl.xi_scale == pytest.approx(1.0 / (2 * n))


def test_reject_bad_n_and_signature():
    with pytest.raises(ValueError):
        build_clifford(0)
    with pytest.raises(ValueError):
        build_clifford(-1)
    # the algebra is euclidean only: there is no signature to choose
    with pytest.raises(TypeError):
        build_clifford(1, "lorentzian")


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3), (4, 5)), ((4, 4), (16, 3, 3)), ((16, 2, 2), (3, 3)), ((5, 1, 2, 2), (4, 3, 3)),
])
def test_kron_matches_numpy_bitwise(a_shape, b_shape):
    # the leading axes broadcast; each block is np.kron of its pair of matrices
    rng = np.random.default_rng(3)
    a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
    got = kron(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a_all, b_all = (np.broadcast_to(x, lead + x.shape[-2:]).reshape((-1,) + x.shape[-2:]) for x in (a, b))
    want = np.array([np.kron(x, y) for x, y in zip(a_all, b_all)]).reshape(got.shape)
    assert got.tobytes() == want.tobytes()
