"""Finite realizations of vacuum Dirac operators on flat torus lattices.

Sign ledger, committed to once and used by every formula below:

* euclidean Clifford relations {gamma_a, gamma_b} = +2 delta_ab,
* derivative components are anti-Hermitian; the spectral kind has exact
  eigenvalues i k for k in {2 pi m / (L a), m = 0 .. L-1} per axis,
* D_sq means (i D)^2 = -D @ D,
* the Bochner Laplacian of a component list is -sum_a (component_a)^2,
* the Dirac potential is V_D = D_sq - Laplacian,
* the squared mass acts on the fiber as Id_spinor x (-D_int^2)
  = Id_spinor x diag(M M^dagger, M^dagger M).

With these choices D_sq, the Laplacian of the plain (Clifford)
connection, and V_D are all positive semidefinite for vacuum data, and
V_D equals the squared-mass block exactly on the flat torus.  The
Laplacian fed to the Dirac potential must come from the Clifford
connection (mass term omitted); the canonical connection adds zero- and
first-order xi terms and produces a non-multiplication remainder, which
dirac_potential rejects.

Tensor factors are ordered site x spinor x internal throughout, with
sites enumerated row-major over the 2n axes (axis 0 slowest).  This
ordering is part of the dump format and must not change.

The central_difference derivative kind is provided for robustness cross
checks only; its dispersion is sin(k a)^2 / a^2 per axis and it doubles
branches at the zone edge.  Closed-form spectrum checks use the spectral
kind.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .higgs_vacuum import unitary_gauge_project
from .tolerances import DEFAULT
from .yukawa_mass import apply_yukawa

DERIVATIVE_KINDS = ("fourier_spectral", "central_difference")


class NotMultiplicationOperator(RuntimeError):
    """The Dirac potential has off-site entries above tolerance."""


class NonHermitian(RuntimeError):
    """i times the operator failed the Hermiticity validation."""


@dataclass(frozen=True)
class TorusLattice:
    """A flat 2n-torus sampled with L sites per axis at spacing a."""

    n: int
    L: int
    a: float = 1.0
    derivative_kind: str = "fourier_spectral"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("half-dimension n must be a positive integer")
        if self.L < 1:
            raise ValueError("need at least one site per axis")
        if self.a <= 0:
            raise ValueError("lattice spacing must be positive")
        if self.derivative_kind not in DERIVATIVE_KINDS:
            raise ValueError(
                f"unknown derivative kind {self.derivative_kind!r}, expected one of {DERIVATIVE_KINDS}"
            )

    @property
    def dim(self):
        return 2 * self.n

    @property
    def n_sites(self):
        return self.L ** self.dim

    def momenta(self):
        """Per-axis momentum values 2 pi m / (L a), m = 0 .. L-1."""
        return 2.0 * np.pi * np.arange(self.L) / (self.L * self.a)

    def axis_derivative(self):
        """One-axis derivative matrix (L x L), anti-Hermitian."""
        L, a = self.L, self.a
        D = np.zeros((L, L), dtype=complex)
        if self.derivative_kind == "fourier_spectral":
            # Closed form of U diag(i k_m) U^dagger over the momentum set;
            # exact roots of unity are used where they are Gaussian units.
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

    def site_derivative(self, axis):
        """Derivative along one axis on the full site space L^{2n}."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        D = self.axis_derivative()
        left = self.L ** axis
        right = self.L ** (self.dim - axis - 1)
        return np.kron(np.eye(left), np.kron(D, np.eye(right)))


@dataclass
class LatticeOperator:
    """A dense operator on site x spinor x internal space."""

    matrix: np.ndarray
    lattice: TorusLattice
    spinor_dim: int
    internal_dim: int
    kind: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def fiber_dim(self):
        return self.spinor_dim * self.internal_dim

    def site_diagonal_blocks(self):
        """(n_sites, fiber, fiber) array of the per-site diagonal blocks."""
        S, F = self.lattice.n_sites, self.fiber_dim
        idx = np.arange(S)
        return self.matrix.reshape(S, F, S, F)[idx, :, idx, :]

    def offsite_leakage(self):
        """Largest entry outside the site-diagonal blocks."""
        S, F = self.lattice.n_sites, self.fiber_dim
        if S == 1:
            return 0.0
        blocks = np.abs(self.matrix.reshape(S, F, S, F)).copy()
        idx = np.arange(S)
        blocks[idx, :, idx, :] = 0.0
        return float(blocks.max())


@dataclass(frozen=True)
class WilsonLine:
    """Constant flat connection coefficients valued in the unbroken algebra.

    theta has one row per axis; each row holds coefficients over the
    isotropy basis, which itself is a list of coefficient vectors over
    the representation generators.
    """

    theta: np.ndarray
    isotropy_basis: np.ndarray

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        basis = np.asarray(self.isotropy_basis, dtype=float)
        if basis.ndim != 2:
            basis = basis.reshape(0, 0) if basis.size == 0 else np.atleast_2d(basis)
        if theta.shape[1] != basis.shape[0]:
            raise ValueError(
                f"theta rows have length {theta.shape[1]}, isotropy basis has {basis.shape[0]} elements"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "isotropy_basis", basis)

    @property
    def n_axes(self):
        return self.theta.shape[0]

    def axis_coefficients(self):
        """(n_axes, dim_g) coefficients of A_a over the generators."""
        return self.theta @ self.isotropy_basis


def wilson_from_vacuum(theta, vac):
    """Wilson line with coefficients over the vacuum's isotropy basis."""
    basis = vac.isotropy.basis_matrix()
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if basis.size == 0:
        basis = np.zeros((theta.shape[1], 0)) if theta.shape[1] == 0 else basis
    return WilsonLine(theta=theta, isotropy_basis=basis)


def wilson_internal_fields(wl, rep, n_axes, flat_tol=None):
    """Per-axis anti-Hermitian matrices of the Wilson line in a representation.

    Validates the flatness [A_a, A_b] = 0 required of a constant vacuum
    connection; returns (fields, flatness_residual).
    """
    flat_tol = DEFAULT.wilson_flat if flat_tol is None else flat_tol
    if wl.n_axes != n_axes:
        raise ValueError(f"Wilson line has {wl.n_axes} axis rows, lattice needs {n_axes}")
    coeffs = wl.axis_coefficients()
    if coeffs.shape[1] not in (0, rep.dim_g):
        raise ValueError(
            f"Wilson coefficients act on {coeffs.shape[1]} generators, representation has {rep.dim_g}"
        )
    d = rep.rep_dim
    fields = []
    for a in range(n_axes):
        A = np.zeros((d, d), dtype=complex)
        for k in range(coeffs.shape[1]):
            A += coeffs[a, k] * rep.generators[k]
        fields.append(A)
    residual = 0.0
    for a in range(n_axes):
        for b in range(a + 1, n_axes):
            residual = max(residual, float(np.max(np.abs(fields[a] @ fields[b] - fields[b] @ fields[a]))))
    if residual > flat_tol:
        raise ValueError(
            f"Wilson line is not flat: max |[A_a, A_b]| = {residual:.3e} > {flat_tol:.0e}"
        )
    return fields, residual


def _lift_fiber(lat, fiber_matrix):
    return np.kron(np.eye(lat.n_sites), fiber_matrix)


def _check_lattice_inputs(lat, cl, frep, md):
    if cl.signature != "euclidean":
        raise ValueError("lattice operators require the euclidean algebra; "
                         "lorentzian algebras are for algebraic checks only")
    if cl.n != lat.n:
        raise ValueError(f"Clifford half-dimension {cl.n} does not match lattice {lat.n}")
    nf = frep.n_total
    if md is not None and md.D_matrix.shape != (nf, nf):
        raise ValueError(
            f"mass endomorphism has shape {md.D_matrix.shape}, fermion fiber is C^{nf}"
        )
    return nf


def build_vacuum_dirac(lat, cl, md, frep, wl=None):
    """The vacuum Dirac operator: derivative slash plus grading x mass.

    With a Wilson line the derivative is covariant, gamma^a (d_a + A_a);
    the mass term is gamma5 x D_int.  i times the result is Hermitian.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md)
    ident_f = np.eye(nf, dtype=complex)
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    meta = {}
    fields = None
    if wl is not None:
        fields, meta["wilson_flatness_residual"] = wilson_internal_fields(wl, frep.total, lat.dim)
    mat = np.zeros((lat.n_sites * cl.spinor_dim * nf,) * 2, dtype=complex)
    for a in range(lat.dim):
        mat += np.kron(lat.site_derivative(a), np.kron(cl.gamma[a], ident_f))
        if fields is not None:
            mat += _lift_fiber(lat, np.kron(cl.gamma[a], fields[a]))
    mat += _lift_fiber(lat, np.kron(cl.gamma5, d_int))
    return LatticeOperator(mat, lat, cl.spinor_dim, nf, kind="vacuum_dirac", meta=meta)


def build_vacuum_connection(lat, cl, md, frep, wl=None):
    """Covariant derivative components d_a + A_a + xi_a (gamma5 x D_int).

    Pass md=None for the plain Clifford connection (mass term omitted);
    that is the connection whose Bochner Laplacian pairs with the vacuum
    Dirac operator in the Dirac potential.  Contracting the components
    with gamma^a reproduces build_vacuum_dirac exactly.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md)
    fiber = cl.spinor_dim * nf
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    fields = None
    if wl is not None:
        fields, _ = wilson_internal_fields(wl, frep.total, lat.dim)
    comps = []
    for a in range(lat.dim):
        mat = np.kron(lat.site_derivative(a), np.eye(fiber, dtype=complex))
        if fields is not None:
            mat += _lift_fiber(lat, np.kron(np.eye(cl.spinor_dim), fields[a]))
        mat += _lift_fiber(lat, np.kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), d_int))
        comps.append(LatticeOperator(mat, lat, cl.spinor_dim, nf, kind=f"covariant_derivative_{a}"))
    return comps


def contraction_residual(conn, cl, dirac_op):
    """Max deviation of sum_a gamma^a conn_a from the Dirac operator."""
    lat = dirac_op.lattice
    nf = dirac_op.internal_dim
    total = np.zeros_like(dirac_op.matrix)
    for a, comp in enumerate(conn):
        total += _lift_fiber(lat, np.kron(cl.gamma_upper(a), np.eye(nf))) @ comp.matrix
    return float(np.max(np.abs(total - dirac_op.matrix)))


def bochner_laplacian(conn):
    """-sum_a (component_a)^2, positive semidefinite for plain derivatives."""
    first = conn[0]
    mat = np.zeros_like(first.matrix)
    for comp in conn:
        mat -= comp.matrix @ comp.matrix
    return LatticeOperator(
        mat, first.lattice, first.spinor_dim, first.internal_dim, kind="bochner_laplacian"
    )


def dirac_potential(dirac_op, laplacian, offsite_tol=None, constancy_tol=None):
    """V = (i D)^2 - Laplacian, validated to be a multiplication operator.

    Raises NotMultiplicationOperator when off-site entries exceed the
    hard threshold, which signals inconsistent derivative kinds or a
    Laplacian built from the wrong connection.  The site-to-site block
    deviation is recorded in meta.
    """
    offsite_tol = DEFAULT.potential_offsite_error if offsite_tol is None else offsite_tol
    constancy_tol = DEFAULT.potential_constancy if constancy_tol is None else constancy_tol
    if dirac_op.matrix.shape != laplacian.matrix.shape:
        raise ValueError("operator and Laplacian act on different spaces")
    V = -(dirac_op.matrix @ dirac_op.matrix) - laplacian.matrix
    out = LatticeOperator(
        V, dirac_op.lattice, dirac_op.spinor_dim, dirac_op.internal_dim, kind="dirac_potential"
    )
    leak = out.offsite_leakage()
    if leak > offsite_tol:
        raise NotMultiplicationOperator(
            f"Dirac potential has off-site entries up to {leak:.3e} (> {offsite_tol:.0e}); "
            "the operator and the Laplacian use inconsistent derivatives or connections"
        )
    blocks = out.site_diagonal_blocks()
    deviation = float(np.max(np.abs(blocks - blocks.mean(axis=0)))) if blocks.shape[0] else 0.0
    out.meta["offsite_leakage"] = leak
    out.meta["site_block_deviation"] = deviation
    out.meta["site_blocks_constant"] = bool(deviation <= constancy_tol)
    return out


@dataclass(frozen=True)
class LagrangianDensity:
    """Fiber trace of the Dirac potential per site, with the volume element.

    per_site_trace is the scalar density the potential carries.  The trace runs over the full spinor x internal fiber; internal_trace
    divides out the spinor dimension so readings that count only the
    internal factor are recoverable.  scalar_curvature is carried as a
    symbolic zero: on a curved base the fiber trace also contains one
    quarter of the base scalar curvature, and consistency with the
    gravitational field equations then constrains the base to be an
    Einstein manifold; that constraint is recorded here, not solved.
    """

    per_site_trace: float
    volume_element: float
    spinor_dim: int
    internal_trace: float
    scalar_curvature: float = 0.0
    curvature_note: str = (
        "flat base: scalar curvature 0; a curved base would add r/4 inside the fiber "
        "trace and must be an Einstein manifold (constraint recorded, not solved)"
    )


def lagrangian_density(v_op, lat):
    """Scalar density carried by a multiplication-operator Dirac potential."""
    blocks = v_op.site_diagonal_blocks()
    per_site = float(np.trace(blocks.mean(axis=0)).real)
    return LagrangianDensity(
        per_site_trace=per_site,
        volume_element=float(lat.a ** lat.dim),
        spinor_dim=v_op.spinor_dim,
        internal_trace=per_site / v_op.spinor_dim,
    )


def mean_mass(md):
    """Average of the squared-mass multiset over the full graded fiber."""
    if md.spectrum_sq.size == 0:
        return 0.0
    return float(md.spectrum_sq.sum() / md.spectrum_sq.size)


@dataclass(frozen=True)
class CurvatureResult:
    """Antisymmetric curvature components with the closed-form residual."""

    components: tuple   # ((a, b), LatticeOperator) for a < b
    residual: float

    def max_component_norm(self):
        if not self.components:
            return 0.0
        return max(float(np.max(np.abs(op.matrix))) for _, op in self.components)

    def is_flat(self, tol=None):
        tol = DEFAULT.curvature if tol is None else tol
        return self.max_component_norm() <= tol


def relative_curvature(conn, cl, md, frep):
    """Curvature of the vacuum connection against squared-mass x (xi wedge xi).

    F_ab is assembled from the zero-order parts omega_a of the covariant
    derivative components as [d_a, omega_b] - [d_b, omega_a] +
    [omega_a, omega_b]; the residual compares it with
    (xi_a xi_b - xi_b xi_a) x (-D_int^2).
    """
    lat = conn[0].lattice
    nf = frep.n_total
    fiber = cl.spinor_dim * nf
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    m2_int = -(d_int @ d_int)
    plain = [np.kron(lat.site_derivative(a), np.eye(fiber, dtype=complex)) for a in range(lat.dim)]
    omega = [conn[a].matrix - plain[a] for a in range(lat.dim)]
    c = cl.xi_scale
    comps = []
    residual = 0.0
    for a in range(lat.dim):
        for b in range(a + 1, lat.dim):
            F = (
                plain[a] @ omega[b] - omega[b] @ plain[a]
                - plain[b] @ omega[a] + omega[a] @ plain[b]
                + omega[a] @ omega[b] - omega[b] @ omega[a]
            )
            wedge = c * c * (cl.gamma[a] @ cl.gamma[b] - cl.gamma[b] @ cl.gamma[a])
            expected = _lift_fiber(lat, np.kron(wedge, m2_int))
            residual = max(residual, float(np.max(np.abs(F - expected))))
            comps.append(
                ((a, b), LatticeOperator(F, lat, cl.spinor_dim, nf, kind=f"curvature_{a}{b}"))
            )
    return CurvatureResult(components=tuple(comps), residual=residual)


def fluctuation_operator(vac_op, A_fl, phi_fl, ymap, cl, frep, t, unitary_split=None):
    """Vacuum operator plus t times a zero-order fluctuation.

    A_fl is None or per-axis, per-site real coefficients over the
    generators, shape (2n, n_sites, dim_g), contracted with gamma^a.
    phi_fl is None, a single Higgs state, or one state per site; with
    unitary_split given, each state is first projected onto the physical
    subspace.  t = 0 returns a bitwise copy of the vacuum operator, and
    the difference from the vacuum operator is site-diagonal (no
    derivative terms) for any t.
    """
    lat = vac_op.lattice
    S = lat.n_sites
    nf = frep.n_total
    fiber = vac_op.fiber_dim
    if float(t) == 0.0:
        return LatticeOperator(
            vac_op.matrix.copy(), lat, vac_op.spinor_dim, nf, kind="fluctuated_dirac", meta={"t": 0.0}
        )
    if phi_fl is None:
        phis = np.zeros((S, ymap.n_higgs), dtype=complex)
    else:
        phis = np.asarray(phi_fl, dtype=complex)
        if phis.ndim == 1:
            phis = np.broadcast_to(phis, (S, phis.shape[0])).copy()
        if phis.shape != (S, ymap.n_higgs):
            raise ValueError(
                f"Higgs fluctuation has shape {phis.shape}, expected ({S}, {ymap.n_higgs})"
            )
    if unitary_split is not None:
        phis = np.array([unitary_gauge_project(unitary_split, p) for p in phis])
    gauge = None
    if A_fl is not None:
        gauge = np.asarray(A_fl, dtype=float)
        if gauge.shape != (lat.dim, S, frep.total.dim_g):
            raise ValueError(
                f"gauge fluctuation has shape {gauge.shape}, expected "
                f"({lat.dim}, {S}, {frep.total.dim_g})"
            )
    fl = np.zeros_like(vac_op.matrix)
    for x in range(S):
        blk = np.kron(cl.gamma5, apply_yukawa(ymap, phis[x]))
        if gauge is not None:
            for a in range(lat.dim):
                blk += np.kron(cl.gamma[a], frep.total.element(gauge[a, x]))
        fl[x * fiber : (x + 1) * fiber, x * fiber : (x + 1) * fiber] = blk
    return LatticeOperator(
        vac_op.matrix + float(t) * fl, lat, vac_op.spinor_dim, nf,
        kind="fluctuated_dirac", meta={"t": float(t)},
    )


def gauge_transform(op, u_site, unitary_tol=None):
    """Conjugate an operator by site-wise unitaries on the internal factor."""
    unitary_tol = DEFAULT.unitary if unitary_tol is None else unitary_tol
    lat = op.lattice
    S = lat.n_sites
    nf = op.internal_dim
    u = np.asarray(u_site, dtype=complex)
    if u.ndim == 2:
        u = np.broadcast_to(u, (S, nf, nf))
    if u.shape != (S, nf, nf):
        raise ValueError(f"gauge field has shape {u.shape}, expected ({S}, {nf}, {nf})")
    eye = np.eye(nf)
    for x in range(S):
        dev = float(np.max(np.abs(u[x].conj().T @ u[x] - eye)))
        if dev > unitary_tol:
            raise ValueError(f"gauge matrix at site {x} is not unitary (residual {dev:.3e})")
    fiber = op.fiber_dim
    U = np.zeros_like(op.matrix)
    spin_eye = np.eye(op.spinor_dim)
    for x in range(S):
        U[x * fiber : (x + 1) * fiber, x * fiber : (x + 1) * fiber] = np.kron(spin_eye, u[x])
    return LatticeOperator(
        U @ op.matrix @ U.conj().T, lat, op.spinor_dim, nf, kind=op.kind, meta=dict(op.meta)
    )


def spectrum(op, square_first=False, herm_tol=None):
    """Sorted real eigenvalues of i*op, or of (i*op)^2 when square_first.

    Validates that i*op is Hermitian before the dense eigensolve.
    """
    herm_tol = DEFAULT.hermiticity if herm_tol is None else herm_tol
    H = 1j * op.matrix
    scale = max(1.0, float(np.max(np.abs(H))) if H.size else 0.0)
    dev = float(np.max(np.abs(H - H.conj().T)))
    if dev > herm_tol * scale:
        raise NonHermitian(
            f"i * operator deviates from Hermitian by {dev:.3e} (> {herm_tol:.0e} x scale)"
        )
    if square_first:
        M = -(op.matrix @ op.matrix)
        M = 0.5 * (M + M.conj().T)
        return np.linalg.eigvalsh(M)
    return np.linalg.eigvalsh(0.5 * (H + H.conj().T))


def _mass_blocks_full_fiber(md, nf):
    """(m^2, embedded fiber basis) pairs; one zero block when md is None."""
    if md is None:
        return [(0.0, np.eye(nf, dtype=complex))]
    blocks = []
    for blk in md.eigenspaces:
        basis = np.zeros((nf, blk.left_dim + blk.right_dim), dtype=complex)
        basis[: md.n_left, : blk.left_dim] = blk.left_basis
        basis[md.n_left :, blk.left_dim :] = blk.right_basis
        blocks.append((blk.m2, basis))
    return blocks


def branch_momentum_shifts(lat, md, frep, wl, charge_tol=1e-10):
    """Per-branch, per-axis momentum shifts q_a induced by a Wilson line.

    The shift of a branch is the charge of its eigenbundle under the
    Wilson field; the charge must be scalar on the block (guaranteed when
    the line is valued in the unbroken algebra).
    """
    blocks = _mass_blocks_full_fiber(md, frep.n_total)
    if wl is None:
        return [(m2, [0.0] * lat.dim) for m2, _ in blocks]
    fields, _ = wilson_internal_fields(wl, frep.total, lat.dim)
    out = []
    for m2, basis in blocks:
        qs = []
        for a in range(lat.dim):
            E = basis.conj().T @ (-1j * fields[a]) @ basis
            q = float(np.mean(np.diag(E).real))
            spread = float(np.max(np.abs(E - q * np.eye(E.shape[0]))))
            if spread > charge_tol * max(1.0, abs(q)):
                raise ValueError(
                    f"Wilson charge is not scalar on the m^2={m2:.6g} block "
                    f"(spread {spread:.3e}); branch-resolved momenta are undefined"
                )
            qs.append(q)
        out.append((m2, qs))
    return out


def expected_squared_spectrum(lat, cl, md, frep, wl=None, charge_tol=1e-10):
    """Closed-form multiset for (i D)^2 of a vacuum operator.

    For each momentum tuple and each mass block the eigenvalue is
    sum_a (k_a + q_a)^2 + m^2 with the per-axis shift q_a read off the
    Wilson line charge of that block, each with multiplicity 2^n times
    the block dimension.  Requires the spectral derivative kind.
    """
    if lat.derivative_kind != "fourier_spectral":
        raise ValueError("closed-form spectra are defined for the spectral derivative kind")
    blocks = _mass_blocks_full_fiber(md, frep.n_total)
    shifts = [qs for _, qs in branch_momentum_shifts(lat, md, frep, wl, charge_tol)]
    ks = lat.momenta()
    vals = []
    for kvec in itertools.product(ks, repeat=lat.dim):
        for (m2, basis), qs in zip(blocks, shifts):
            val = m2 + sum((kc + q) ** 2 for kc, q in zip(kvec, qs))
            vals.extend([val] * (cl.spinor_dim * basis.shape[1]))
    return np.sort(np.asarray(vals))
