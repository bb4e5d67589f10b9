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
dirac_potential records as its off-site leakage.

Tensor factors are ordered site x spinor x internal throughout, with
sites enumerated row-major over the 2n axes (axis 0 slowest).  This
ordering is part of the dump format and must not change.

The vacuum operators are invariant under lattice translations, so each
is held as its stencil B(r), the (2^n N_F)-square blocks coupling site 0
to each site r (LatticeOperator.stencil), and never as an N x N matrix:
the builders write the stencils, and every check reads them.
Hermiticity pairs B(r) with B(-r).  The squared spectrum is diagonalized
per momentum, one Bloch block of the stencil's FFT at a time.  The
Bochner Laplacian and the Dirac potential are stencil products, circular
convolutions over the axis lines on which the stencils are nonzero.  A
stencil operator's dense matrix is filled in only when read, as dumps,
fluctuations and gauge transforms do; those site-dependent operators
stay dense.  A dense operator's spectrum comes from its chirality split
when it has one: i*op is odd under a grading of the fiber slots (for a
fluctuation or a transform by the gauge group, gamma5 x chi with chi =
+1 on the left fermions and -1 on the right ones), so its eigenvalues
are plus and minus the singular values of one half-size block.  An
operator without such a grading takes the full Hermitized eigensolve.

The central_difference derivative kind is provided for robustness cross
checks only; its dispersion is sin(k a)^2 / a^2 per axis and it doubles
branches at the zone edge.  Closed-form spectrum checks use the spectral
kind.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .higgs_vacuum import unitary_gauge_project
from .tolerances import DEFAULT
from .yukawa_mass import apply_yukawa

DERIVATIVE_KINDS = ("fourier_spectral", "central_difference")


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
        if not 0 < self.a < np.inf:  # NaN fails both comparisons
            raise ValueError(f"lattice spacing must be finite and positive, got {self.a!r}")
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


class LatticeOperator:
    """An operator on site x spinor x internal space.

    A site-dependent operator is held as its dense matrix, and stencil is
    None.  A translation-invariant one is held as its stencil, the
    (n_sites, fiber, fiber) blocks B(r) coupling site 0 to each site r;
    its matrix, whose block at sites (x, y) is B(y - x), is filled in on
    first read and kept.
    """

    def __init__(self, matrix, lattice, spinor_dim, internal_dim, kind="", meta=None, stencil=None):
        self._matrix = matrix
        self.stencil = stencil
        self.lattice = lattice
        self.spinor_dim = spinor_dim
        self.internal_dim = internal_dim
        self.kind = kind
        self.meta = {} if meta is None else meta

    @property
    def fiber_dim(self):
        return self.spinor_dim * self.internal_dim

    @property
    def matrix(self):
        if self._matrix is None:
            lat, F = self.lattice, self.fiber_dim
            S = lat.n_sites
            row0 = self.stencil.transpose(1, 0, 2)
            mat = np.empty((S, F, S, F), dtype=complex)
            for x, shifted in enumerate(_site_differences(lat.L, lat.dim)):
                mat[x] = row0[:, shifted]
            self._matrix = mat.reshape(S * F, S * F)
        return self._matrix


def _site_differences(L, dim):
    """(n_sites, n_sites) table whose row x holds the index of y - x for each
    site y, with each axis taken mod L."""
    coords = np.indices((L,) * dim).reshape(dim, -1).T
    strides = L ** np.arange(dim - 1, -1, -1)
    return ((coords[None, :, :] - coords[:, None, :]) % L) @ strides


def _stencil(op):
    """op's stencil; a ValueError when op is held as a dense matrix."""
    if op.stencil is None:
        raise ValueError(
            f"operator {op.kind!r} is held as a dense matrix; this needs the stencil "
            "of a translation-invariant operator"
        )
    return op.stencil


def _derivative_stencil(lat, axis, block):
    """Stencil of the derivative along one axis, tensored with a fiber block:
    axis_derivative()'s first row times block on the axis line, zero elsewhere."""
    st = np.zeros((lat.n_sites,) + block.shape, dtype=complex)
    line = np.arange(lat.L) * lat.L ** (lat.dim - axis - 1)
    st[line] = lat.axis_derivative()[0][:, None, None] * block
    return st


def _product_stencil(A, B, lat):
    """Stencil of the product of two stencil operators.

    Site 0's block row of A B is the circular convolution
    (AB)(r) = sum_s A(s) B(r - s).  Only sites where A or B is nonzero
    enter, the axis lines for the vacuum operators, so this costs
    O(nnz_A nnz_B F^3) and forms no N x N matrix.  Each block (AB)(r) is
    one product of the blocks A(s) side by side, s ascending, with the
    blocks B(r - s) stacked; its four real products are summed apart and
    combined last, as in the complex product of the dense matrices, so the
    cancellations that were exact there stay exact.
    """
    grid, F = (lat.L,) * lat.dim, A.shape[1]
    coords = np.indices(grid).reshape(lat.dim, -1)
    sa, sb = (np.flatnonzero(np.any(X, axis=(1, 2))) for X in (A, B))
    target = np.ravel_multi_index(coords[:, sa, None] + coords[:, None, sb], grid, mode="wrap")
    out = np.zeros_like(A)
    for r in np.unique(target):
        i, j = np.nonzero(target == r)
        a = A[sa[i]].transpose(1, 0, 2).reshape(F, -1)
        b = B[sb[j]].reshape(-1, F)
        out[r].real = a.real @ b.real - a.imag @ b.imag
        out[r].imag = a.real @ b.imag + a.imag @ b.real
    return out


def _negated_sites(lat):
    """Index of the site -r for each site r, each axis taken mod L."""
    grid = (lat.L,) * lat.dim
    return np.ravel_multi_index(-np.indices(grid).reshape(lat.dim, -1), grid, mode="wrap")


def wilson_flatness(fields):
    """max |[A_a, A_b]| over the axis pairs of a Wilson field stack.

    A constant vacuum connection is flat when this vanishes; the reports
    test it against tol.wilson_flat.
    """
    return max((float(np.max(np.abs(A @ B - B @ A))) for A, B in itertools.combinations(fields, 2)),
               default=0.0)


def _check_fields(lat, nf, fields):
    """A ValueError unless fields is None or a (2n, N_F, N_F) stack."""
    if fields is not None and np.shape(fields) != (lat.dim, nf, nf):
        raise ValueError(
            f"Wilson fields have shape {np.shape(fields)}, the lattice needs ({lat.dim}, {nf}, {nf})"
        )


def _check_lattice_inputs(lat, cl, frep, md, fields):
    if cl.n != lat.n:
        raise ValueError(f"Clifford half-dimension {cl.n} does not match lattice {lat.n}")
    nf = frep.n_total
    if md is not None and md.D_matrix.shape != (nf, nf):
        raise ValueError(
            f"mass endomorphism has shape {md.D_matrix.shape}, fermion fiber is C^{nf}"
        )
    _check_fields(lat, nf, fields)
    return nf


def build_vacuum_dirac(lat, cl, md, frep, fields=None):
    """The vacuum Dirac operator: derivative slash plus grading x mass.

    With the fields of a Wilson line (the stack ModelConfig.build_wilson
    returns) the derivative is covariant, gamma^a (d_a + A_a); the mass
    term is gamma5 x D_int.  i times the result is Hermitian.  The
    operator is built as its stencil, adding the site-constant terms at
    r = 0 in the order of the dense sum, so its matrix is the dense
    build's bit for bit.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md, fields)
    ident_f = np.eye(nf, dtype=complex)
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    st = np.zeros((lat.n_sites, cl.spinor_dim * nf, cl.spinor_dim * nf), dtype=complex)
    for a in range(lat.dim):
        st += _derivative_stencil(lat, a, np.kron(cl.gamma[a], ident_f))
        if fields is not None:
            st[0] += np.kron(cl.gamma[a], fields[a])
    st[0] += np.kron(cl.gamma5, d_int)
    return LatticeOperator(None, lat, cl.spinor_dim, nf, kind="vacuum_dirac", stencil=st)


def build_vacuum_connection(lat, cl, md, frep, fields=None):
    """Covariant derivative components d_a + A_a + xi_a (gamma5 x D_int).

    Pass md=None for the plain Clifford connection (mass term omitted);
    that is the connection whose Bochner Laplacian pairs with the vacuum
    Dirac operator in the Dirac potential.  Contracting the components
    with gamma^a reproduces build_vacuum_dirac exactly.  fields are the
    Wilson fields ModelConfig.build_wilson returns, or None; each
    component is a stencil operator.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md, fields)
    fiber = cl.spinor_dim * nf
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    comps = []
    for a in range(lat.dim):
        # from zeros, so the product's signed zeros come out as +0.0
        st = np.zeros((lat.n_sites, fiber, fiber), dtype=complex)
        st += _derivative_stencil(lat, a, np.eye(fiber, dtype=complex))
        if fields is not None:
            st[0] += np.kron(np.eye(cl.spinor_dim), fields[a])
        st[0] += np.kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), d_int)
        comps.append(LatticeOperator(None, lat, cl.spinor_dim, nf,
                                     kind=f"covariant_derivative_{a}", stencil=st))
    return comps


def contraction_residual(conn, cl, dirac_op):
    """Max deviation of sum_a gamma^a conn_a from the Dirac operator.

    gamma^a x 1 acts within a site's fiber, so it multiplies each block of
    the stencils.
    """
    eye = np.eye(dirac_op.internal_dim)
    total = sum(np.kron(g, eye) @ _stencil(comp) for g, comp in zip(cl.gamma, conn))
    return float(np.max(np.abs(total - _stencil(dirac_op))))


def bochner_laplacian(conn):
    """-sum_a (component_a)^2, positive semidefinite for plain derivatives.

    Each square is a stencil product (_product_stencil), without an N x N
    matrix.
    """
    first = conn[0]
    lap = np.zeros_like(_stencil(first))
    for comp in conn:
        st = _stencil(comp)
        lap -= _product_stencil(st, st, first.lattice)
    return LatticeOperator(None, first.lattice, first.spinor_dim, first.internal_dim,
                           kind="bochner_laplacian", stencil=lap)


def dirac_potential(dirac_op, laplacian):
    """V = (i D)^2 - Laplacian, with its off-site leakage recorded in meta.

    Both operators must be stencil operators (a ValueError says so
    otherwise); (i D)^2 is a stencil product (_product_stencil).  The
    leakage is the largest entry of the off-site blocks V(r), r != 0; it
    is zero up to rounding when V is a multiplication operator, and large
    for inconsistent derivative kinds or a Laplacian built from the wrong
    connection.  A stencil holds one block for every site, so the
    potential is site-constant by construction.
    """
    D, lap = _stencil(dirac_op), _stencil(laplacian)
    if D.shape != lap.shape:
        raise ValueError("operator and Laplacian act on different spaces")
    V = -_product_stencil(D, D, dirac_op.lattice) - lap
    leak = float(np.max(np.abs(V[1:]), initial=0.0))
    return LatticeOperator(
        None, dirac_op.lattice, dirac_op.spinor_dim, dirac_op.internal_dim, kind="dirac_potential",
        meta={"offsite_leakage": leak}, stencil=V,
    )


@dataclass(frozen=True)
class LagrangianDensity:
    """Fiber trace of the Dirac potential per site, with the volume element.

    per_site_trace is the scalar density the potential carries.  The
    trace runs over the full spinor x internal fiber; internal_trace
    divides out the spinor dimension so readings that count only the
    internal factor are recoverable.  On a curved base the fiber trace
    would also hold r/4 of the base scalar curvature r, and the base would
    have to be an Einstein manifold.
    """

    per_site_trace: float
    volume_element: float
    spinor_dim: int
    internal_trace: float


def lagrangian_density(v_op, lat):
    """Scalar density carried by a multiplication-operator Dirac potential:
    the fiber trace of its site block V(0)."""
    per_site = float(np.trace(_stencil(v_op)[0]).real)
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

    components: tuple   # ((a, b), fiber matrix) for a < b
    residual: float

    def max_component_norm(self):
        if not self.components:
            return 0.0
        return max(float(np.max(np.abs(F))) for _, F in self.components)


def relative_curvature(conn, cl, md, frep):
    """Curvature of the vacuum connection against squared-mass x (xi wedge xi).

    The zero-order part omega_a = conn_a - d_a x 1 of each component must
    be site-constant: its stencil is zero at every r != 0, checked exactly,
    and omega_a is its block at r = 0; a ValueError names the component
    that is not.  Then [d_a, omega_b] = 0, so F_ab = [omega_a, omega_b] is
    a fiber matrix.  The components are these (2^n N_F)-square fiber
    blocks, and the residual compares each with
    (xi_a xi_b - xi_b xi_a) x (-D_int^2).
    """
    lat = conn[0].lattice
    nf = frep.n_total
    fiber = cl.spinor_dim * nf
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    m2_int = -(d_int @ d_int)
    omega = []
    for a, comp in enumerate(conn):
        zero_order = _stencil(comp) - _derivative_stencil(lat, a, np.eye(fiber))
        if np.any(zero_order[1:]):
            raise ValueError(f"zero-order part of connection component {a} is not site-constant")
        omega.append(zero_order[0])
    c = cl.xi_scale
    comps = []
    residual = 0.0
    for a in range(lat.dim):
        for b in range(a + 1, lat.dim):
            F = omega[a] @ omega[b] - omega[b] @ omega[a]
            wedge = c * c * (cl.gamma[a] @ cl.gamma[b] - cl.gamma[b] @ cl.gamma[a])
            residual = max(residual, float(np.max(np.abs(F - np.kron(wedge, m2_int)))))
            comps.append(((a, b), F))
    return CurvatureResult(components=tuple(comps), residual=residual)


def fluctuation_operator(vac_op, A_fl, phi_fl, ymap, cl, frep, t, unitary_split=None):
    """Vacuum operator plus t times a zero-order fluctuation.

    A_fl is None or per-axis, per-site real coefficients over the
    generators, shape (2n, n_sites, dim_g), contracted with gamma^a.
    phi_fl is None, a single Higgs state, or one state per site; with
    unitary_split given, each state is first projected onto the physical
    subspace.  t = 0 returns a bitwise copy of the vacuum operator, and
    the difference from the vacuum operator is site-diagonal (no
    derivative terms) for any t.  The site blocks
    gamma5 x G(phi_x) + sum_a gamma^a x A_a(x) are built for all sites at
    once and added to the vacuum's diagonal blocks; every entry is the
    one the sum with the dense site-diagonal fluctuation matrix gives.
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
            phis = np.broadcast_to(phis, (S, phis.shape[0]))
        if phis.shape != (S, ymap.n_higgs):
            raise ValueError(
                f"Higgs fluctuation has shape {phis.shape}, expected ({S}, {ymap.n_higgs})"
            )
    if unitary_split is not None:
        phis = unitary_gauge_project(unitary_split, phis)
    gauge = None
    if A_fl is not None:
        gauge = np.asarray(A_fl, dtype=float)
        if gauge.shape != (lat.dim, S, frep.total.dim_g):
            raise ValueError(
                f"gauge fluctuation has shape {gauge.shape}, expected "
                f"({lat.dim}, {S}, {frep.total.dim_g})"
            )
    # np.kron of a (1, p, p) and an (S, q, q) stack is the stack of the S
    # site blocks' Kronecker products
    blk = np.kron(cl.gamma5[None], apply_yukawa(ymap, phis))
    if gauge is not None:
        for a in range(lat.dim):
            blk += np.kron(cl.gamma[a][None], frep.total.element(gauge[a]))
    t = float(t)
    # off the site blocks the dense sum added t * (0 + 0j), which turns a
    # -0.0 of the vacuum into +0.0 for t > 0; adding it keeps those bits
    out = vac_op.matrix + t * np.zeros((), dtype=complex)
    sites = np.arange(S)
    vac4 = vac_op.matrix.reshape(S, fiber, S, fiber)
    out.reshape(S, fiber, S, fiber)[sites, :, sites, :] = vac4[sites, :, sites, :] + t * blk
    return LatticeOperator(out, lat, vac_op.spinor_dim, nf, kind="fluctuated_dirac", meta={"t": t})


def gauge_transform(op, u_site, tol=DEFAULT):
    """Conjugate an operator by site-wise unitaries on the internal factor.

    U = sum_x |x><x| x 1_spinor x u_x is block-diagonal, so U M U^dagger is
    formed per block: u_x multiplies the internal index of block row x,
    and u_y^dagger that of block column y (as (U (U M)^dagger)^dagger).  No
    N x N product is formed.  A u_x whose |u_x^dagger u_x - 1| exceeds
    tol.unitary raises a ValueError that names the first such site.
    """
    lat = op.lattice
    S = lat.n_sites
    nf = op.internal_dim
    u = np.asarray(u_site, dtype=complex)
    if u.ndim == 2:
        u = np.broadcast_to(u, (S, nf, nf))
    if u.shape != (S, nf, nf):
        raise ValueError(f"gauge field has shape {u.shape}, expected ({S}, {nf}, {nf})")
    dev = np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(nf)), axis=(1, 2))
    bad = np.flatnonzero(dev > tol.unitary)
    if bad.size:
        raise ValueError(f"gauge matrix at site {bad[0]} is not unitary (residual {dev[bad[0]]:.3e})")

    def rows(M):
        return (u[:, None] @ M.reshape(S, op.spinor_dim, nf, -1)).reshape(M.shape)

    moved = np.ascontiguousarray(rows(rows(op.matrix).conj().T).conj().T)
    return LatticeOperator(moved, lat, op.spinor_dim, nf, kind=op.kind, meta=dict(op.meta))


def _hermitian_pair(op):
    """(H, H^dagger) for H = i * op: dense matrices, or the stencils, where
    the block of H^dagger coupling site 0 to site r is H(-r)^dagger."""
    if op.stencil is None:
        H = 1j * op.matrix
        return H, H.conj().T
    H = 1j * op.stencil
    return H, H[_negated_sites(op.lattice)].conj().transpose(0, 2, 1)


def _residual(H, H_dag):
    """(max |H - H^dagger|, max(1, max |H|, max |H^dagger|)); the last two
    are equal for a full pair, and together cover the two off-diagonal
    blocks of a chirally split one."""
    peak = max(float(np.max(np.abs(X), initial=0.0)) for X in (H, H_dag))
    return float(np.max(np.abs(H - H_dag), initial=0.0)), max(1.0, peak)


def hermiticity_residual(op):
    """(max |H - H^dagger|, max(1, max |H|)) for H = i * op.

    For a stencil operator every block row of H - H^dagger is a shift of
    site 0's, so the stencil gives the dense matrix's two numbers bit for bit.
    """
    return _residual(*_hermitian_pair(op))


def _validate_hermitian(residual, tol):
    dev, scale = residual
    if dev > tol.hermiticity * scale:
        raise NonHermitian(
            f"i * operator deviates from Hermitian by {dev:.3e} (> {tol.hermiticity:.0e} x scale)"
        )


def _chirality(op):
    """The fiber slots of the + class of a grading under which i*op is odd,
    as a boolean mask, or None when there is no such grading.

    Slots f and f' are coupled when some site block of op has a nonzero
    (f, f') entry; a grading exists when this graph has a 2-colouring, and
    then every block of i*op between two slots of one class is exactly
    zero.  Each connected set of slots takes + at its lowest slot; an
    isolated slot is +.  For the Dirac operators of this package, their
    fluctuations and their transforms by the gauge group this is the +
    class of gamma5 x chi, chi = +1 on the left fermions and -1 on the
    right ones.
    """
    F = op.fiber_dim
    if op.stencil is not None:
        coupled = np.any(op.stencil != 0, axis=0)
    else:
        S = op.lattice.n_sites
        coupled = np.any(op.matrix.reshape(S, F, S, F) != 0, axis=(0, 2))
    coupled = coupled | coupled.T
    colour = np.full(F, -1)
    for root in range(F):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        todo = [root]
        while todo:
            f = todo.pop()
            for g in np.flatnonzero(coupled[f]):
                if colour[g] < 0:
                    colour[g] = 1 - colour[f]
                    todo.append(g)
                elif colour[g] == colour[f]:
                    return None
    return colour == 0


def _chiral_blocks(op, plus):
    """(H_{+-}, (H_{-+})^dagger) for H = i * op, with rows and columns in
    site-major order: the off-diagonal blocks of H between the slots of
    the + class (plus, a fiber mask) and those of the - class."""
    slots = np.arange(op.matrix.shape[0]).reshape(-1, op.fiber_dim)
    P, M = slots[:, plus].ravel(), slots[:, ~plus].ravel()
    return 1j * op.matrix[np.ix_(P, M)], (1j * op.matrix[np.ix_(M, P)]).conj().T


def spectrum(op, square_first=False, tol=DEFAULT):
    """Sorted real eigenvalues of i*op, or of (i*op)^2 when square_first.

    Validates that i*op is Hermitian (hermiticity_residual), raising
    NonHermitian when the deviation exceeds tol.hermiticity times the
    scale.  With square_first a stencil operator is diagonalized per momentum: block m
    of the stencil's FFT over the site grid is
    B(k) = sum_r B(r) exp(-2 pi i m.r / L), and each Hermitized -B(k)^2 is
    diagonalized on its own.  Otherwise the spectrum comes from the dense
    matrix (a stencil operator's is filled in first), as site-dependent
    fluctuations and gauge transforms need, through its chirality split
    when it has one (_chirality): i*op = [[0, C], [C^dagger, 0]] in the
    grading's basis, so the eigenvalues are +-svd(C), with |p - q| more
    zeros when the two classes hold p and q rows.  C is the Hermitized
    (+, -) block, and only C's singular values are computed, at half the
    side of the full matrix.  An operator without a grading, a gauge
    transform by chirality-mixing unitaries say, takes the full Hermitized
    eigensolve.  With square_first these eigenvalues are squared and
    sorted.  A dense operator's Hermiticity is read off the blocks it is
    diagonalized from; the same-class blocks of a split operator are exactly
    zero, so these are the full matrix's two numbers bit for bit.
    """
    if op.stencil is not None:
        _validate_hermitian(hermiticity_residual(op), tol)
        if square_first:
            lat, F = op.lattice, op.fiber_dim
            grid = (lat.L,) * lat.dim
            B = np.fft.fftn(op.stencil.reshape(*grid, F, F), axes=tuple(range(lat.dim)))
            B = B.reshape(lat.n_sites, F, F)
            M = -(B @ B)
            M = 0.5 * (M + M.conj().transpose(0, 2, 1))
            return np.sort(np.linalg.eigvalsh(M).reshape(-1))
    plus = _chirality(op)
    if plus is None:
        H = 1j * op.matrix
        blocks = (H, H.conj().T)
    else:
        blocks = _chiral_blocks(op, plus)
    if op.stencil is None:
        _validate_hermitian(_residual(*blocks), tol)
    A = 0.5 * (blocks[0] + blocks[1])
    if plus is None:
        vals = np.linalg.eigvalsh(A)
    else:
        sv = np.linalg.svd(A, compute_uv=False)
        vals = np.sort(np.concatenate([-sv, np.zeros(abs(A.shape[0] - A.shape[1])), sv]))
    return np.sort(vals ** 2) if square_first else vals


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


def branch_momentum_shifts(lat, md, frep, fields, tol=DEFAULT):
    """Per-branch, per-axis momentum shifts q_a induced by a Wilson line.

    The shift of a branch is the charge of its eigenbundle under the
    Wilson field; the charge must be scalar on the block (guaranteed when
    the line is valued in the unbroken algebra): its spread may reach
    tol.wilson_charge_scalar * max(1, |q|), and a ValueError says so
    otherwise.  fields are the Wilson fields ModelConfig.build_wilson
    returns, or None for no line.
    """
    _check_fields(lat, frep.n_total, fields)
    blocks = _mass_blocks_full_fiber(md, frep.n_total)
    if fields is None:
        return [(m2, [0.0] * lat.dim) for m2, _ in blocks]
    out = []
    for m2, basis in blocks:
        qs = []
        for a in range(lat.dim):
            E = basis.conj().T @ (-1j * fields[a]) @ basis
            q = float(np.mean(np.diag(E).real))
            spread = float(np.max(np.abs(E - q * np.eye(E.shape[0]))))
            if spread > tol.wilson_charge_scalar * max(1.0, abs(q)):
                raise ValueError(
                    f"Wilson charge is not scalar on the m^2={m2:.6g} block "
                    f"(spread {spread:.3e}); branch-resolved momenta are undefined"
                )
            qs.append(q)
        out.append((m2, qs))
    return out


def expected_squared_spectrum(lat, cl, md, frep, shifts=None):
    """Closed-form multiset for (i D)^2 of a vacuum operator.

    For each momentum tuple and each mass block the eigenvalue is
    sum_a (k_a + q_a)^2 + m^2 with the per-axis shift q_a of that block,
    each with multiplicity 2^n times the block dimension.  shifts is the
    table branch_momentum_shifts returns for a Wilson line; None means
    no shift.  Requires the spectral derivative kind.
    """
    if lat.derivative_kind != "fourier_spectral":
        raise ValueError("closed-form spectra are defined for the spectral derivative kind")
    blocks = _mass_blocks_full_fiber(md, frep.n_total)
    if shifts is None:
        shifts = branch_momentum_shifts(lat, md, frep, None)
    ks = lat.momenta()
    vals = []
    for kvec in itertools.product(ks, repeat=lat.dim):
        for (m2, basis), (_, qs) in zip(blocks, shifts, strict=True):
            val = m2 + sum((kc + q) ** 2 for kc, q in zip(kvec, qs))
            vals.extend([val] * (cl.spinor_dim * basis.shape[1]))
    return np.sort(np.asarray(vals))
