"""Yukawa couplings, the fermionic mass matrix, and its eigenbundles.

A Yukawa coupling is stored as a tensor Y of shape (N_L, N_R, N_H); a
Higgs state phi is sent to the odd anti-Hermitian endomorphism

    G(phi) = [[0, i M(phi)], [i M(phi)^dagger, 0]],
    M(phi)_{lr} = sum_h Y_{lrh} phi_h   (phi_h conjugated where flagged),

so that -i G(phi) is the Hermitian block-off-diagonal mass matrix with
upper-right block M(phi).  The anti-Hermitian structure fixes the lower
block from the upper one; conjugation flags admit couplings through the
conjugate Higgs.  Squared masses are counted over the full graded fiber
of dimension N_F = N_L + N_R, so a Dirac fermion of mass m contributes
m^2 twice (once per chirality).
"""

from dataclasses import dataclass

import numpy as np

from .group_rep import LieAlgebraRep, commutant_check, direct_sum, exp_map
from .tolerances import DEFAULT

# lemma_verify's orbit sampling: the number of random finite moves and the
# seed they are drawn from
ORBIT_MOVES = 20
ORBIT_SEED = 20021204


class BlockStructureViolation(ValueError):
    """An endomorphism expected to be odd has nonzero diagonal blocks."""


@dataclass(frozen=True)
class ChiralFermionRep:
    """Left/right fermion representations with their graded direct sum."""

    rep_L: LieAlgebraRep
    rep_R: LieAlgebraRep

    def __post_init__(self):
        object.__setattr__(self, "_total", direct_sum([self.rep_L, self.rep_R]))

    @property
    def total(self):
        return self._total

    @property
    def n_left(self):
        return self.rep_L.rep_dim

    @property
    def n_right(self):
        return self.rep_R.rep_dim

    @property
    def n_total(self):
        return self.n_left + self.n_right

    @property
    def grading(self):
        """diag(+1 on the left block, -1 on the right block)."""
        return np.diag(np.concatenate([np.ones(self.n_left), -np.ones(self.n_right)])).astype(complex)


@dataclass(frozen=True)
class YukawaMap:
    """Coupling tensor (N_L, N_R, N_H) with optional per-slot conjugation."""

    tensor: np.ndarray
    conj_flags: tuple = None

    def __post_init__(self):
        tensor = np.asarray(self.tensor, dtype=complex)
        if tensor.ndim != 3:
            raise ValueError(f"coupling tensor must have 3 axes, got shape {tensor.shape}")
        object.__setattr__(self, "tensor", tensor)
        flags = self.conj_flags
        if flags is None:
            flags = (False,) * tensor.shape[2]
        flags = tuple(bool(f) for f in flags)
        if len(flags) != tensor.shape[2]:
            raise ValueError(
                f"need one conjugation flag per Higgs slot: got {len(flags)}, expected {tensor.shape[2]}"
            )
        object.__setattr__(self, "conj_flags", flags)

    @property
    def n_left(self):
        return self.tensor.shape[0]

    @property
    def n_right(self):
        return self.tensor.shape[1]

    @property
    def n_higgs(self):
        return self.tensor.shape[2]


def apply_yukawa(ymap, phi):
    """Odd anti-Hermitian endomorphism of the fermion fiber for a Higgs state,
    or the stack of them for a stack of states (last axis)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=complex))
    if phi.shape[-1] != ymap.n_higgs:
        raise ValueError(f"Higgs state has length {phi.shape[-1]}, coupling expects {ymap.n_higgs}")
    flags = np.array(ymap.conj_flags)
    phi_eff = np.where(flags, phi.conj(), phi)
    M = np.einsum("lrh,...h->...lr", ymap.tensor, phi_eff)
    nl, nr = ymap.n_left, ymap.n_right
    G = np.zeros(phi.shape[:-1] + (nl + nr, nl + nr), dtype=complex)
    G[..., :nl, nl:] = 1j * M
    G[..., nl:, :nl] = 1j * np.swapaxes(M.conj(), -1, -2)
    return G


def check_equivariance(ymap, rep_H, frep):
    """Residual of [rho_F(X), G(b)] = G(rho_H(X) b) over generators and slots.

    Probes both e_h and i e_h so conjugate-linear couplings are covered.
    Zero residual means the coupling intertwines the Higgs and fermion
    representations; for hypercharge assignments this is the usual sum
    rule between the charges.  The probes form one stack and the
    generators another, so both sides take one apply_yukawa call each.
    """
    if rep_H.dim_g != frep.total.dim_g:
        raise ValueError("Higgs and fermion representations must share the generator list")
    eye = np.eye(ymap.n_higgs, dtype=complex)
    # (2 N_H, N_H): e_0, i e_0, e_1, i e_1, ...
    probes = np.stack([eye, 1j * eye], axis=1).reshape(-1, ymap.n_higgs)
    XH = np.asarray(rep_H.generators)[:, None]
    XF = np.asarray(frep.total.generators)[:, None]
    G = apply_yukawa(ymap, probes)
    lhs = XF @ G - G @ XF
    rhs = apply_yukawa(ymap, (XH @ probes[..., None])[..., 0])
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class MassBlock:
    """One eigenvalue of the squared mass with its left/right eigenspaces."""

    m2: float
    left_basis: np.ndarray
    right_basis: np.ndarray

    @property
    def left_dim(self):
        return self.left_basis.shape[1]

    @property
    def right_dim(self):
        return self.right_basis.shape[1]


@dataclass(frozen=True)
class MassData:
    """The constant mass endomorphism, its spectrum and eigenspaces."""

    D_matrix: np.ndarray
    M_F: np.ndarray
    spectrum_sq: np.ndarray
    eigenspaces: tuple
    n_left: int
    n_right: int

    @property
    def n_total(self):
        return self.n_left + self.n_right

    def mass_square_fiber(self):
        """diag(M M^dagger, M^dagger M) = -D_matrix^2, positive semidefinite."""
        return -(self.D_matrix @ self.D_matrix)


def _squared_spectrum(M, n_left, n_right):
    """Sorted squared masses over the graded fiber: each singular value of M
    once per chirality, zero for the unpaired slots; for a stack of M, one
    row per matrix."""
    s2 = np.linalg.svd(M, compute_uv=False) ** 2
    pad, k = s2.shape[:-1], s2.shape[-1]
    parts = [s2, np.zeros(pad + (n_left - k,)), s2, np.zeros(pad + (n_right - k,))]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def _decompose(M, tol):
    """Group the SVD of M into shared-eigenvalue blocks, zero modes included:
    singular values within tol.eigenvalue_group * sigma_max share a block."""
    nl, nr = M.shape
    u, s, vh = np.linalg.svd(M, full_matrices=True)
    v = vh.conj().T
    k = s.size
    smax = s[0] if k else 0.0
    cut = tol.eigenvalue_group * smax
    groups = []
    for i in range(k):
        if s[i] <= cut:
            break
        if groups and groups[-1][0] - s[i] <= cut:
            groups[-1][1].append(i)
        else:
            groups.append((s[i], [i]))
    blocks = []
    used = sum(len(idx) for _, idx in groups)
    zero_left = list(range(used, nl))
    zero_right = list(range(used, nr))
    if zero_left or zero_right:
        blocks.append(MassBlock(0.0, u[:, zero_left], v[:, zero_right]))
    for _, idx in groups:
        m2 = float(np.mean(s[idx] ** 2))
        blocks.append(MassBlock(m2, u[:, idx], v[:, idx]))
    blocks.sort(key=lambda b: b.m2)
    return tuple(blocks)


def mass_data_from_operator(D, n_left, n_right, tol=DEFAULT):
    """Validate an odd anti-Hermitian endomorphism and extract its mass data.

    A BlockStructureViolation is raised when D + D^dagger or a diagonal
    block exceeds tol.block_structure; the eigenspaces are grouped with
    tol.eigenvalue_group.
    """
    D = np.asarray(D, dtype=complex)
    nf = n_left + n_right
    if D.shape != (nf, nf):
        raise ValueError(f"operator has shape {D.shape}, expected {(nf, nf)}")
    herm_dev = float(np.max(np.abs(D + D.conj().T)))
    if herm_dev > tol.block_structure:
        raise BlockStructureViolation(
            f"mass endomorphism is not anti-Hermitian (|D + D^dagger| = {herm_dev:.3e})"
        )
    diag_dev = 0.0
    if n_left:
        diag_dev = float(np.max(np.abs(D[:n_left, :n_left])))
    if n_right:
        diag_dev = max(diag_dev, float(np.max(np.abs(D[n_left:, n_left:]))))
    if diag_dev > tol.block_structure:
        raise BlockStructureViolation(
            f"mass endomorphism is not odd: diagonal blocks reach {diag_dev:.3e}"
        )
    M = (-1j * D)[:n_left, n_left:]
    return MassData(
        D_matrix=D,
        M_F=M,
        spectrum_sq=_squared_spectrum(M, n_left, n_right),
        eigenspaces=_decompose(M, tol),
        n_left=n_left,
        n_right=n_right,
    )


def mass_matrix(ymap, vac, tol=DEFAULT):
    """Mass data of the coupling evaluated on the vacuum state
    (mass_data_from_operator, with the same tolerances)."""
    D = apply_yukawa(ymap, vac.z0)
    return mass_data_from_operator(D, ymap.n_left, ymap.n_right, tol)


def reconstruction_residual(md):
    """Max-abs deviation of sum_blocks m^2 (P_left + P_right) from -D^2."""
    nf = md.n_total
    rebuilt = np.zeros((nf, nf), dtype=complex)
    for block in md.eigenspaces:
        pl = block.left_basis @ block.left_basis.conj().T
        pr = block.right_basis @ block.right_basis.conj().T
        rebuilt[: md.n_left, : md.n_left] += block.m2 * pl
        rebuilt[md.n_left :, md.n_left :] += block.m2 * pr
    return float(np.max(np.abs(rebuilt - md.mass_square_fiber())))


@dataclass(frozen=True)
class LemmaReport:
    """Residuals of the structural checks on a vacuum mass matrix; the
    reports test each against its tolerance."""

    commutant_residual: float
    orbit_deviation: float
    orbit_transport_residual: float
    reconstruction_residual: float


def lemma_verify(ymap, md, vac, frep, model):
    """Residuals of the structural claims about a vacuum mass matrix:

    (a) the mass endomorphism commutes with every unbroken generator,
    (b) vacua along the orbit are equivalent: the squared-mass multiset is
        unchanged when the minimum moves (ORBIT_MOVES random finite
        transformations drawn from ORBIT_SEED), and the moved mass matrix
        is the unitary transport of the original one, and
    (c) the eigenvalue blocks reconstruct the squared mass matrix.

    The moves are drawn as one (ORBIT_MOVES, dim_g) array, the same draws
    as one vector per move, and each step of (b) is one stacked call: an
    exp_map per representation, apply_yukawa on the moved states, the
    singular values and the transport g_f D g_f^dagger.
    """
    iso_mats = [frep.total.element(c) for c in vac.isotropy.basis]
    comm = commutant_check(iso_mats, md.D_matrix)

    coeffs = np.random.default_rng(ORBIT_SEED).standard_normal((ORBIT_MOVES, model.rep.dim_g))
    moved = apply_yukawa(ymap, exp_map(model.rep, coeffs) @ vac.z0)
    M = (-1j * moved)[:, : md.n_left, md.n_left :]
    spec = _squared_spectrum(M, md.n_left, md.n_right)
    g_f = exp_map(frep.total, coeffs)
    carried = g_f @ md.D_matrix @ g_f.conj().swapaxes(-1, -2)

    return LemmaReport(
        commutant_residual=comm,
        orbit_deviation=float(np.max(np.abs(spec - md.spectrum_sq))),
        orbit_transport_residual=float(np.max(np.abs(moved - carried))),
        reconstruction_residual=reconstruction_residual(md),
    )
