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
to site r, and only on its support, the sites where B(r) may be nonzero
(LatticeOperator.sites and .blocks): the axis lines through the origin
for the Dirac operator and the connection, the 2-planes through it for
(i D)^2 and the Dirac potential.  The builders write these blocks, every
check reads them, and besides the spectrum the lattice path forms no
array larger than one chunk of Bloch blocks, nothing that grows with
n_sites x fiber^2.  Hermiticity pairs B(r) with B(-r), a block
missing from the support counting as zero.  The Bochner Laplacian and
the Dirac potential are stencil products, circular convolutions of the
supports.

Fluctuations and gauge transforms are site-dependent, but they act site
by site on the fiber next to the vacuum's derivative, so they keep the
vacuum operator's support: the block coupling site x to site x + r
becomes blocks[x, j], one (n_sites, nnz, fiber, fiber) stack.  A
fluctuation writes its site blocks into the r = 0 column, and a gauge
transform multiplies each block by its two sites' unitaries.  Their
Hermiticity pairs blocks[x, r] with blocks[x + r, -r], and their
spectrum fills in the two off-diagonal blocks of the chirality split
straight from the blocks.  Any operator's dense matrix is filled in on
every read (LatticeOperator.matrix) and never kept; the operator dump
writes the sites and blocks, and the loader gives them back.

The spectrum has one path, validated first by hermiticity_residual.
i*op is Hermitian, and for the Dirac operators of this package, their
fluctuations and their transforms by the gauge group it is odd under a
grading of the fiber slots, gamma5 x chi with chi = +1 on the left
fermions and -1 on the right ones.  Its eigenvalues are then plus and
minus the singular values of the (+, -) block, half the side of the
matrix.  A site-dependent operator is one such matrix; a stencil
operator is diagonalized per momentum, one Bloch block B(k) = sum_r B(r)
exp(-2 pi i m.r / L) at a time, each odd under the same grading.  An
operator without a grading takes the Hermitized eigensolve.  Either way
the matrix diagonalized is (i M_pq + (i M_qp)^dagger) / 2 for the two
off-diagonal blocks of the grading, M_pq = M_qp = M when there is none.

The central_difference derivative kind is provided for robustness cross
checks only; its dispersion is sin(k a)^2 / a^2 per axis and it doubles
branches at the zone edge.  Closed-form spectrum checks use the spectral
kind.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import kron
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

    @functools.cached_property
    def derivative_row(self):
        """Row 0 of axis_derivative(), read-only: entry y couples site 0 of an
        axis to site y.  Computed once per lattice."""
        L, a = self.L, self.a
        vals = np.zeros(L, dtype=complex)
        if self.derivative_kind == "fourier_spectral":
            # Closed form of U diag(i k_m) U^dagger over the momentum set;
            # exact roots of unity are used where they are Gaussian units.
            vals[0] = 1j * np.pi * (L - 1) / (L * a)
            for d in range(1, L):
                w = 1j ** ((4 * d) // L) if (4 * d) % L == 0 else np.exp(2j * np.pi * d / L)
                vals[d] = (2j * np.pi / (L * a)) / (w - 1.0)
        else:
            vals[-1 % L] += 1.0 / (2.0 * a)
            vals[1 % L] -= 1.0 / (2.0 * a)
        # vals[d] is the entry (x, x - d)
        row = vals[-np.arange(L) % L]
        row.flags.writeable = False
        return row

    def axis_derivative(self):
        """One-axis derivative matrix (L x L), anti-Hermitian and circulant:
        entry (x, y) is derivative_row[(y - x) mod L]."""
        x = np.arange(self.L)
        return self.derivative_row[(x - x[:, None]) % self.L]


class LatticeOperator:
    """An operator on site x spinor x internal space, held on a support.

    sites is an ascending array of site offsets r_j, and blocks holds the
    (fiber, fiber) blocks coupling a site x to the sites x + r_j; every
    other block is zero.  A translation-invariant operator holds one stack
    of shape (len(sites), fiber, fiber), the blocks B(r_j) coupling site 0
    to site r_j, the same at every site.  A site-dependent one holds
    (n_sites, len(sites), fiber, fiber), blocks[x, j] coupling site x to
    site x + r_j.  The matrix is filled in from the blocks on every read
    and never kept; the functions of this module read the blocks.
    load_operator gives back the form an operator was dumped in;
    from_matrix holds a dense matrix per site on the full support of all
    n_sites offsets.
    """

    def __init__(self, lattice, spinor_dim, internal_dim, sites, blocks, kind="", meta=None):
        self.sites = sites
        self.blocks = blocks
        self.lattice = lattice
        self.spinor_dim = spinor_dim
        self.internal_dim = internal_dim
        self.kind = kind
        self.meta = {} if meta is None else meta

    @classmethod
    def from_matrix(cls, matrix, lattice, spinor_dim, internal_dim, kind=""):
        """The operator with this (N, N) matrix, held per site on the full
        support: blocks[x, j] is the block at block row x and block column
        x + j, one (n_sites, n_sites, fiber, fiber) copy of the matrix."""
        S, F = lattice.n_sites, spinor_dim * internal_dim
        sites = np.arange(S)
        M = matrix.reshape(S, F, S, F)
        return cls(lattice, spinor_dim, internal_dim, sites,
                   M[sites[:, None], :, _neighbours(lattice, sites), :], kind=kind)

    @property
    def fiber_dim(self):
        return self.spinor_dim * self.internal_dim

    @property
    def matrix(self):
        return _fill(self.lattice, self.sites, _per_site(self.lattice, self.blocks))


def _coords(lat, sites):
    """(2n, len(sites)) coordinates of site indices, row-major (axis 0 slowest)."""
    return np.array(np.unravel_index(sites, (lat.L,) * lat.dim)).reshape(lat.dim, -1)


def _index(lat, coords):
    """Site indices of (2n, ...) coordinates, each axis taken mod L."""
    return np.ravel_multi_index(coords, (lat.L,) * lat.dim, mode="wrap")


def _support(op):
    """(sites, blocks) of a stencil operator; a ValueError when op is
    site-dependent."""
    if op.blocks.ndim != 3:
        raise ValueError(
            f"operator {op.kind!r} is held per site; this needs the stencil "
            "of a translation-invariant operator"
        )
    return op.sites, op.blocks


def _neighbours(lat, sites):
    """(n_sites, len(sites)) site indices of x + r for every site x and
    every offset r in sites."""
    x = _coords(lat, np.arange(lat.n_sites))
    return _index(lat, x[:, :, None] + _coords(lat, sites)[:, None, :])


def _per_site(lat, blocks):
    """blocks as a (n_sites, nnz, p, q) stack: a stencil's broadcast over
    the sites without a copy, a site-dependent stack as it is."""
    return np.broadcast_to(blocks, (lat.n_sites,) + blocks.shape[-3:])


def _fill(lat, sites, blocks):
    """The dense (S p, S q) matrix of (S, nnz, p, q) site blocks: block
    [x, j] at block row x and block column x + r_j, zeros elsewhere."""
    S, _, p, q = blocks.shape
    out = np.zeros((S, p, S, q), dtype=complex)
    out[np.arange(S)[:, None], :, _neighbours(lat, sites), :] = blocks
    return out.reshape(S * p, S * q)


def _summed(terms):
    """(sites, blocks) of the sum of a list of (sites, blocks) terms: the
    union of their sites, ascending, and at each site the blocks of the
    terms holding it added in list order to a zero block."""
    sites = _union([s for s, _ in terms])
    total = np.zeros((sites.size,) + terms[0][1].shape[1:], dtype=complex)
    for s, blocks in terms:
        total[np.searchsorted(sites, s)] += blocks
    return sites, total


def _union(sites_list):
    """The distinct sites of a list of site arrays, ascending.  Not np.unique,
    which imports numpy.ma on first use (about 1 MB)."""
    s = np.sort(np.concatenate(sites_list), axis=None)
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


def _derivative_line(lat, axis, block):
    """(sites, blocks) of the derivative along one axis, tensored with a fiber
    block: derivative_row times block, on the axis line."""
    line = np.arange(lat.L) * lat.L ** (lat.dim - axis - 1)
    return line, lat.derivative_row[:, None, None] * block


# bytes of the blocks _product_stencil gathers for one stacked product;
# larger gathers are mapped afresh by the allocator on every call, and
# their page faults cost more than the products
_PRODUCT_BYTES = 1 << 18


def _product_stencil(A, B, lat):
    """(sites, blocks) of the product of two stencil operators, given as
    their (sites, blocks).

    Site 0's block row of A B is the circular convolution
    (AB)(r) = sum_s A(s) B(r - s).  Only sites where A or B is nonzero
    enter, so this costs O(nnz_A nnz_B F^3) and forms no N x N matrix; the
    result's support is the set of sums s + t.  Each block (AB)(r) is one
    product of the blocks A(s) side by side, s ascending, with the blocks
    B(r - s) stacked; its four real products are summed apart and combined
    last, as in the complex product of the dense matrices, so the
    cancellations that were exact there stay exact.  The blocks whose
    sums s + t hold the same number of pairs are multiplied as one stack,
    a chunk of _PRODUCT_BYTES at a time, each with the bits of its own
    product.
    """
    (sa, A), (sb, B) = A, B
    F = A.shape[1]
    ia, ib = (np.flatnonzero(np.any(X, axis=(1, 2))) for X in (A, B))
    target = _index(lat, _coords(lat, sa[ia])[:, :, None] + _coords(lat, sb[ib])[:, None, :])
    # the pairs (s, t) grouped by their site s + t, s ascending within a
    # group: one stable sort, then stacked products of groups of one size
    order = np.argsort(target, axis=None, kind="stable")
    keys = target.take(order)
    edge = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    i, j = np.divmod(order, ib.size)
    ka, kb = ia[i], ib[j]
    out = np.empty((starts.size, F, F), dtype=complex)
    for c in np.flatnonzero(np.bincount(sizes)):
        groups = np.flatnonzero(sizes == c)
        step = max(1, _PRODUCT_BYTES // (c * F * F * 16))
        for k in range(0, groups.size, step):
            g = groups[k:k + step]
            pairs = starts[g, None] + np.arange(c)
            a = A[ka[pairs]].transpose(0, 2, 1, 3).reshape(g.size, F, c * F)
            b = B[kb[pairs]].reshape(g.size, c * F, F)
            out.real[g] = a.real @ b.real - a.imag @ b.imag
            out.imag[g] = a.real @ b.imag + a.imag @ b.real
    return keys[starts], out


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

    With the fields of a Wilson line (the stack BuiltModel.wilson_fields
    returns) the derivative is covariant, gamma^a (d_a + A_a); the mass
    term is gamma5 x D_int.  i times the result is Hermitian.  The
    operator is held on the 2n axis lines, 2n(L-1)+1 sites, adding the
    site-constant terms at r = 0 in the order of the dense sum, so its
    matrix is the dense build's bit for bit.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md, fields)
    ident_f = np.eye(nf, dtype=complex)
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    origin = np.zeros(1, dtype=int)
    terms = []
    for a in range(lat.dim):
        terms.append(_derivative_line(lat, a, kron(cl.gamma[a], ident_f)))
        if fields is not None:
            terms.append((origin, kron(cl.gamma[a], fields[a])[None]))
    terms.append((origin, kron(cl.gamma5, d_int)[None]))
    sites, blocks = _summed(terms)
    return LatticeOperator(lat, cl.spinor_dim, nf, kind="vacuum_dirac", sites=sites, blocks=blocks)


def build_vacuum_connection(lat, cl, md, frep, fields=None):
    """Covariant derivative components d_a + A_a + xi_a (gamma5 x D_int).

    Pass md=None for the plain Clifford connection (mass term omitted);
    that is the connection whose Bochner Laplacian pairs with the vacuum
    Dirac operator in the Dirac potential.  Contracting the components
    with gamma^a reproduces build_vacuum_dirac exactly.  fields are the
    Wilson fields BuiltModel.wilson_fields returns, or None; each
    component is a stencil operator held on its own axis line, L sites.
    """
    nf = _check_lattice_inputs(lat, cl, frep, md, fields)
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    origin = np.zeros(1, dtype=int)
    comps = []
    for a in range(lat.dim):
        terms = [_derivative_line(lat, a, np.eye(cl.spinor_dim * nf, dtype=complex))]
        if fields is not None:
            terms.append((origin, kron(np.eye(cl.spinor_dim), fields[a])[None]))
        terms.append((origin, kron(cl.xi_scale * (cl.gamma[a] @ cl.gamma5), d_int)[None]))
        sites, blocks = _summed(terms)
        comps.append(LatticeOperator(lat, cl.spinor_dim, nf, kind=f"covariant_derivative_{a}",
                                     sites=sites, blocks=blocks))
    return comps


def contraction_residual(conn, cl, dirac_op):
    """Max deviation of sum_a gamma^a conn_a from the Dirac operator.

    gamma^a x 1 acts within a site's fiber, so it multiplies each block of
    the stencils, over the union of their supports.
    """
    eye = np.eye(dirac_op.internal_dim)
    d_sites, d_blocks = _support(dirac_op)
    terms = [(sites, kron(g, eye) @ blocks) for g, (sites, blocks) in zip(cl.gamma, map(_support, conn))]
    _, diff = _summed(terms + [(d_sites, -d_blocks)])
    return float(np.max(np.abs(diff)))


def bochner_laplacian(conn):
    """-sum_a (component_a)^2, positive semidefinite for plain derivatives.

    Each square is a stencil product (_product_stencil), without an N x N
    matrix; the Laplacian is held on the union of their supports.
    """
    first = conn[0]
    squares = [_product_stencil(_support(comp), _support(comp), first.lattice) for comp in conn]
    sites, lap = _summed([(s, -sq) for s, sq in squares])
    return LatticeOperator(first.lattice, first.spinor_dim, first.internal_dim,
                           kind="bochner_laplacian", sites=sites, blocks=lap)


def dirac_potential(dirac_op, laplacian):
    """V = (i D)^2 - Laplacian, with its off-site leakage recorded in meta.

    Both operators must be stencil operators (a ValueError says so
    otherwise); (i D)^2 is a stencil product (_product_stencil).  The
    leakage is the largest entry of the off-site blocks V(r), r != 0; it
    is zero up to rounding when V is a multiplication operator, and large
    for inconsistent derivative kinds or a Laplacian built from the wrong
    connection.  A stencil is the same at every site, so the potential is
    site-constant by construction.  It is held on the union of the supports
    of (i D)^2 and the Laplacian.
    """
    D, (lap_sites, lap) = _support(dirac_op), _support(laplacian)
    if (dirac_op.lattice.n_sites, dirac_op.fiber_dim) != (laplacian.lattice.n_sites, laplacian.fiber_dim):
        raise ValueError("operator and Laplacian act on different spaces")
    sq_sites, sq = _product_stencil(D, D, dirac_op.lattice)
    sites, V = _summed([(sq_sites, -sq), (lap_sites, -lap)])
    leak = float(np.max(np.abs(V[sites != 0]), initial=0.0))
    return LatticeOperator(
        dirac_op.lattice, dirac_op.spinor_dim, dirac_op.internal_dim, kind="dirac_potential",
        meta={"offsite_leakage": leak}, sites=sites, blocks=V,
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
    sites, blocks = _support(v_op)
    per_site = float(np.trace(blocks[0]).real) if sites.size and sites[0] == 0 else 0.0
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
        return max((float(np.max(np.abs(F))) for _, F in self.components), default=0.0)


def relative_curvature(conn, cl, md, frep):
    """Curvature of the vacuum connection against squared-mass x (xi wedge xi).

    The zero-order part omega_a = conn_a - d_a x 1 of each component must
    be site-constant: its stencil, on the union of the component's support
    and the axis line, is zero at every r != 0, checked exactly, and
    omega_a is its block at r = 0; a ValueError names the component that
    is not.  Then [d_a, omega_b] = 0, so F_ab = [omega_a, omega_b] is
    a fiber matrix.  The components are these (2^n N_F)-square fiber
    blocks, and the residual compares each with
    (xi_a xi_b - xi_b xi_a) x (-D_int^2).
    """
    lat = conn[0].lattice
    nf = frep.n_total
    d_int = md.D_matrix if md is not None else np.zeros((nf, nf), dtype=complex)
    m2_int = -(d_int @ d_int)
    omega = []
    for a, comp in enumerate(conn):
        line, deriv = _derivative_line(lat, a, np.eye(cl.spinor_dim * nf))
        _, zero_order = _summed([_support(comp), (line, -deriv)])
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
            residual = max(residual, float(np.max(np.abs(F - kron(wedge, m2_int)))))
            comps.append(((a, b), F))
    return CurvatureResult(components=tuple(comps), residual=residual)


def fluctuation_operator(vac_op, A_fl, phi_fl, ymap, cl, frep, t, unitary_split=None):
    """Vacuum operator plus t times a zero-order fluctuation.

    A_fl is None or per-axis, per-site real coefficients over the
    generators, shape (2n, n_sites, dim_g), contracted with gamma^a.
    phi_fl is None, a single Higgs state, or one state per site; with
    unitary_split given, each state is first projected onto the physical
    subspace.  t = 0 returns a copy of the vacuum operator's sites and
    blocks, held as the vacuum is.  For any t the difference from the
    vacuum operator is site-diagonal (no derivative terms): the result is
    site-dependent, held on the vacuum's support with site 0 added when
    it lacks it, and the site blocks gamma5 x G(phi_x) + sum_a gamma^a x
    A_a(x), built for all sites at once, go into its r = 0 column.  Its
    matrix is, entry for entry and sign bit for sign bit, the sum of the
    vacuum's dense matrix with t times the dense site-diagonal
    fluctuation.
    """
    lat = vac_op.lattice
    S = lat.n_sites
    nf = frep.n_total
    fiber = vac_op.fiber_dim
    sites, vac_blocks = vac_op.sites, vac_op.blocks
    if float(t) == 0.0:
        return LatticeOperator(lat, vac_op.spinor_dim, nf, kind="fluctuated_dirac",
                               meta={"t": 0.0}, sites=sites.copy(), blocks=vac_blocks.copy())
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
    blk = kron(cl.gamma5, apply_yukawa(ymap, phis))
    if gauge is not None:
        for a in range(lat.dim):
            blk += kron(cl.gamma[a], frep.total.element(gauge[a]))
    t = float(t)
    vac = _per_site(lat, vac_blocks)
    if not (sites.size and sites[0] == 0):
        sites = np.concatenate([[0], sites])
        vac = np.concatenate([np.zeros((S, 1, fiber, fiber), dtype=complex), vac], axis=1)
    # off the site blocks the dense sum added t * (0 + 0j), which turns a
    # -0.0 of the vacuum into +0.0 for t > 0; adding it keeps those bits
    blocks = vac + t * np.zeros((), dtype=complex)
    blocks[:, 0] = vac[:, 0] + t * blk
    return LatticeOperator(lat, vac_op.spinor_dim, nf, kind="fluctuated_dirac", meta={"t": t},
                           sites=sites, blocks=blocks)


def gauge_transform(op, u_site, tol=DEFAULT):
    """Conjugate an operator by site-wise unitaries on the internal factor.

    U = sum_x |x><x| x 1_spinor x u_x is block-diagonal, so U M U^dagger is
    formed per block: the block coupling site x to site y = x + r_j becomes
    (1 x u_x) B (1 x u_y^dagger), u_x acting on its rows' internal index
    and u_y^dagger on its columns'.  The result is site-dependent, held on
    op's support; no N x N product or matrix is formed.  A u_x whose
    |u_x^dagger u_x - 1| exceeds tol.unitary raises a ValueError that
    names the first such site.
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
    sites = op.sites
    B = _per_site(lat, op.blocks)
    nnz, F, s = sites.size, op.fiber_dim, op.spinor_dim
    rows = u[:, None, None] @ B.reshape(S, nnz, s, nf, F)
    cols = u[_neighbours(lat, sites)].conj().swapaxes(-1, -2)
    moved = (rows.reshape(S, nnz, F * s, nf) @ cols).reshape(S, nnz, F, F)
    return LatticeOperator(lat, s, nf, kind=op.kind, meta=dict(op.meta), sites=sites.copy(),
                           blocks=moved)


def hermiticity_residual(op):
    """(max |H - H^dagger|, max(1, max |H|)) for H = i * op.

    For a stencil operator every block row of H - H^dagger is a shift of
    site 0's, whose block at r is H(r) - H(-r)^dagger, so the support gives
    the dense matrix's two numbers bit for bit.  For a site-dependent one
    the block coupling x to x + r is H[x, r] - H[x + r, -r]^dagger, the
    same for every site.  A partner at -r missing from the support counts
    as zero; the block at -r is then -H(r)^dagger, whose entries have the
    magnitudes of H(r)'s, so the support alone holds every value of the
    maximum.  spectrum validates either form with these two numbers.
    """
    lat, sites, blocks = op.lattice, op.sites, op.blocks
    negated = _index(lat, -_coords(lat, sites))
    at = np.minimum(np.searchsorted(sites, negated), sites.size - 1)
    held = sites[at] == negated
    H = 1j * blocks
    H_dag = np.zeros_like(H)
    if H.ndim == 3:
        H_dag[held] = H[at[held]].conj().transpose(0, 2, 1)
    else:
        partner = H.swapaxes(-1, -2)[_neighbours(lat, sites)[:, held], at[held]]
        H_dag[:, held] = np.conjugate(partner, out=partner)
    peak = float(np.max(np.abs(H), initial=0.0))
    return float(np.max(np.abs(H - H_dag), initial=0.0)), max(1.0, peak)


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
    coupled = np.any(op.blocks.reshape(-1, F, F) != 0, axis=0)
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


def _split(M, plus):
    """(M_pq, M_qp), the two off-diagonal blocks of M's last two axes under
    a grading whose + class is the mask plus, or (M, M) when plus is None."""
    if plus is None:
        return M, M
    P, Q = np.flatnonzero(plus), np.flatnonzero(~plus)
    return M[..., P[:, None], Q], M[..., Q[:, None], P]


def _eigenvalues(M_pq, M_qp, graded):
    """Eigenvalues of the Hermitized A = (i M_pq + (i M_qp)^dagger) / 2 of
    each matrix of a stack, one row per matrix: those of A, or, when
    graded, those of [[0, A], [A^dagger, 0]], plus and minus A's singular
    values with |p - q| zeros for a p x q block A.  A is formed in M_pq's
    place, and (i M_qp)^dagger in M_qp's unless the two are one array."""
    A = np.multiply(M_pq, 1j, out=M_pq)
    if M_qp is M_pq:
        A_dag = A.conj()
    else:
        A_dag = np.conjugate(np.multiply(M_qp, 1j, out=M_qp), out=M_qp)
    A += A_dag.swapaxes(-1, -2)
    A *= 0.5
    if not graded:
        return np.linalg.eigvalsh(A)
    sv = np.linalg.svd(A, compute_uv=False)
    zeros = np.zeros(sv.shape[:-1] + (abs(A.shape[-2] - A.shape[-1]),))
    return np.concatenate([-sv, zeros, sv], axis=-1)


# bytes of the Bloch blocks and phases formed at once by _bloch_blocks
_CHUNK_BYTES = 1 << 22
# peak bytes per value of the squared spectrum in a verify-all run, most
# of them the report's list and copies of its JSON text: under
# tracemalloc, less the chunk and plane terms of lattice_footprint, 89 at
# n=2, L=12, 59 at n=3, L=4 and 111 at n=3, L=8; the guard counts more
_BYTES_PER_VALUE = 144


def _bloch_blocks(op):
    """Yield the Bloch blocks B(k) = sum_r B(r) exp(-2 pi i m.r / L) of a
    stencil operator for a chunk of momenta m at a time, row-major over the
    momentum grid: a (K, nnz) phase matrix times the support blocks."""
    lat, F = op.lattice, op.fiber_dim
    nnz = op.sites.size
    K = max(1, _CHUNK_BYTES // (16 * (nnz + 2 * F * F)))
    roots = np.exp(-2j * np.pi * np.arange(lat.L) / lat.L)
    r = _coords(lat, op.sites)
    flat = op.blocks.reshape(nnz, F * F)
    for start in range(0, lat.n_sites, K):
        m = _coords(lat, np.arange(start, min(start + K, lat.n_sites)))
        yield (roots[(m.T @ r) % lat.L] @ flat).reshape(-1, F, F)


def spectrum(op, square_first=False, tol=DEFAULT):
    """Sorted real eigenvalues of i*op, or of (i*op)^2 when square_first.

    First validates either form with hermiticity_residual, raising
    NonHermitian when the deviation exceeds tol.hermiticity times the
    scale.  A stencil operator is diagonalized per momentum, one chunk of
    Bloch blocks i B(k) at a time (_bloch_blocks), so no N x N matrix is
    formed; a site-dependent one as one matrix filled in from its blocks.
    With a chirality split (_chirality), i*op = [[0, C], [C^dagger, 0]] in
    the grading's basis, and the eigenvalues are +-svd(C) with |p - q|
    more zeros for classes of p and q rows: _split takes the two
    off-diagonal blocks of each Bloch chunk, or of the site blocks before
    they are filled in, site-major and then by slot as in op.matrix.
    Without one, a gauge transform by chirality-mixing unitaries say, the
    matrix is filled in once for the full Hermitized eigensolve.  With
    square_first the eigenvalues are squared, so each singular value of a
    split counts twice.
    """
    dev, scale = hermiticity_residual(op)
    if dev > tol.hermiticity * scale:
        raise NonHermitian(
            f"i * operator deviates from Hermitian by {dev:.3e} (> {tol.hermiticity:.0e} x scale)"
        )
    plus = _chirality(op)
    if op.blocks.ndim == 3:
        vals = np.concatenate([_eigenvalues(*_split(B, plus), plus is not None).reshape(-1)
                               for B in _bloch_blocks(op)])
    else:
        pq, qp = _split(op.blocks, plus)
        M_pq = _fill(op.lattice, op.sites, pq)
        M_qp = M_pq if qp is pq else _fill(op.lattice, op.sites, qp)
        vals = _eigenvalues(M_pq, M_qp, plus is not None)
    if square_first:
        np.square(vals, out=vals)
    vals.sort()
    return vals


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
    otherwise.  fields are the Wilson fields BuiltModel.wilson_fields
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
        shifts = [(m2, [0.0] * lat.dim) for m2, _ in blocks]
    ks = lat.momenta()
    vals = []
    for (m2, basis), (_, qs) in zip(blocks, shifts, strict=True):
        # m2 + (0 + (k_0 + q_0)^2 + (k_1 + q_1)^2 + ...) over the momentum
        # grid, axis 0 slowest: each square and each sum in the order of
        # the loop over momentum tuples, so every value keeps its bits
        total = 0
        for q in qs:
            total = np.add.outer(total, [(kc + q) ** 2 for kc in ks])
        vals.append(np.repeat(m2 + total.reshape(-1), cl.spinor_dim * basis.shape[1]))
    return np.sort(np.concatenate(vals))


def lattice_footprint(lat, nf):
    """Estimated peak bytes of the lattice command on lat with N_F fermions.

    Per value of the squared spectrum (n_sites x 2^n N_F of them): the
    spectrum and its closed form, the report's list of Python floats and
    that list's JSON text (_BYTES_PER_VALUE); plus one momentum chunk and
    two operators held on the 2-planes through the origin.  Python ints,
    so a lattice far too large to build is estimated without overflow.
    """
    F = 2 ** lat.n * nf
    plane_sites = 1 + lat.dim * (lat.L - 1) + math.comb(lat.dim, 2) * (lat.L - 1) ** 2
    return lat.n_sites * F * _BYTES_PER_VALUE + _CHUNK_BYTES + 2 * plane_sites * F * F * 16
