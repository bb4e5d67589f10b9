import numpy as np
import pytest

from fermimass import HiggsModel, LatticeOperator, LieAlgebraRep, ew_reference, mass_matrix, minimize
from fermimass.group_rep import orbit_directions
from fermimass.lattice_dirac import _neighbours

S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def su2_doublet(label="doublet"):
    return LieAlgebraRep(
        generators=(-0.5j * S1, -0.5j * S2, -0.5j * S3), label=label
    )


def ew_rep(hypercharge, dim, label):
    """su(2)+u(1) representation: doublet or singlet with a hypercharge."""
    if dim == 2:
        gens = (-0.5j * S1, -0.5j * S2, -0.5j * S3, -1.0j * hypercharge * np.eye(2))
    else:
        zero = np.zeros((1, 1), dtype=complex)
        gens = (zero, zero, zero, -1.0j * hypercharge * np.eye(1))
    return LieAlgebraRep(generators=gens, label=label)


@pytest.fixture(scope="session")
def ew_cfg():
    return ew_reference()


@pytest.fixture(scope="session")
def ew_higgs(ew_cfg):
    return ew_cfg.build_higgs_model()


@pytest.fixture(scope="session")
def ew_vac(ew_cfg, ew_higgs):
    return minimize(ew_higgs, ew_cfg.higgs_seed())


@pytest.fixture(scope="session")
def ew_frep(ew_cfg):
    return ew_cfg.build_fermion_rep()


@pytest.fixture(scope="session")
def ew_ymap(ew_cfg, ew_frep):
    return ew_cfg.build_yukawa(ew_frep)


@pytest.fixture(scope="session")
def ew_md(ew_ymap, ew_vac):
    return mass_matrix(ew_ymap, ew_vac)


def ew_perturbed_objects(y_right):
    """Rebuilt electroweak objects with a perturbed right hypercharge."""
    cfg = ew_reference(y_right=y_right)
    higgs = cfg.build_higgs_model()
    frep = cfg.build_fermion_rep()
    ymap = cfg.build_yukawa(frep)
    return cfg, higgs, frep, ymap


def two_svd_split(rep, z0, cut):
    """Oracle: (isotropy basis, Goldstone columns, physical columns) from two
    SVDs of the orbit map, as they were taken before the one-SVD form: the
    isotropy from the map with real parts stacked over imaginary parts,
    the split from its interleaved form, all physical where it is zero."""
    cols = orbit_directions(rep, z0)
    _, s, vt = np.linalg.svd(np.concatenate((cols.real, cols.imag), axis=1).T)
    smax = s[0] if s.size else 0.0
    iso = vt[[k for k in range(rep.dim_g) if k >= s.size or s[k] <= cut * smax]]
    x = np.empty((rep.dim_g, 2 * rep.rep_dim))
    x[:, 0::2], x[:, 1::2] = cols.real, cols.imag
    T = x.T
    if not T.any():
        return iso, np.zeros((T.shape[0], 0)), np.eye(T.shape[0])
    u, s, _ = np.linalg.svd(T)
    rank = int(np.sum(s > cut * s[0]))
    return iso, u[:, :rank], u[:, rank:]


def mexican_hat_coeffs(lam, v):
    """Oracle: the ascending coefficients of p(s) = lam (s - v^2)^2."""
    return [lam * v ** 4, -2.0 * lam * v ** 2, lam]


def mexican_hat_on(rep, lam=1.0, v=2.0):
    return HiggsModel(rep, mexican_hat_coeffs(lam, v))


def axis_derivative(lat):
    """Oracle: the one-axis derivative matrix (L x L), anti-Hermitian and
    circulant: entry (x, y) is lat.derivative_row[(y - x) mod L]."""
    x = np.arange(lat.L)
    return lat.derivative_row[(x - x[:, None]) % lat.L]


def from_matrix(matrix, lattice, spinor_dim, internal_dim, kind=""):
    """The operator with this (N, N) matrix, held per site on the full
    support: blocks[x, j] is the block at block row x and block column
    x + j, one (n_sites, n_sites, fiber, fiber) copy of the matrix."""
    S, F = lattice.n_sites, spinor_dim * internal_dim
    sites = np.arange(S)
    M = matrix.reshape(S, F, S, F)
    return LatticeOperator(lattice, spinor_dim, internal_dim, sites,
                           M[sites[:, None], :, _neighbours(lattice, sites), :], kind=kind)
