"""Compact Lie algebra representations as explicit anti-Hermitian matrices.

The linear algebra of symmetry breaking lives here: infinitesimal orbit
directions, the isotropy (unbroken) subalgebra and the Goldstone split
from one SVD of the realified orbit map, commutant residuals, and finite
transformations as the spectral exponential of the Hermitian matrix i*X.
Lie algebra elements are always real coefficient vectors over the fixed
generator stack; reductive algebras with abelian factors are admitted.

The realification convention is fixed package-wide and owned here: C^N
is identified with R^{2N} by interleaving, (Re z_1, Im z_1, Re z_2,
Im z_2, ...).
"""

from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class LieAlgebraRep:
    """A unitary representation given by anti-Hermitian generator matrices.

    generators is one read-only (dim_g, d, d) complex stack, copied from
    the matrices given.  They are checked on construction against
    tol.anti_hermitian and tol.closure, so a model's tolerance overrides
    reach them.
    """

    generators: np.ndarray
    label: str = ""
    tol: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        name = self.label or "representation"
        shapes = [np.shape(X) for X in self.generators]
        if not shapes:
            raise ValueError("a representation needs at least one generator")
        d = shapes[0]
        if len(d) != 2 or d[0] != d[1]:
            raise ValueError(f"{name}: generator 0 is not a square matrix, shape {d}")
        for k, shape in enumerate(shapes):
            if shape != d:
                raise ValueError(f"{name}: generator {k} has shape {shape}, expected {d}")
        gens = np.array(self.generators, dtype=complex)
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)
        dev = np.max(np.abs(gens + gens.conj().swapaxes(-1, -2)), axis=(1, 2))
        bad = np.flatnonzero(dev > self.tol.anti_hermitian)
        if bad.size:
            raise ValueError(
                f"{name}: generator {bad[0]} is not anti-Hermitian "
                f"(|X + X^dagger| = {dev[bad[0]]:.3e} > {self.tol.anti_hermitian:.0e})"
            )
        res = closure_residual(gens)
        if res > self.tol.closure:
            raise ValueError(
                f"{name}: generators do not close under commutators "
                f"(residual {res:.3e} > {self.tol.closure:.0e})"
            )

    @property
    def dim_g(self):
        return len(self.generators)

    @property
    def rep_dim(self):
        return self.generators[0].shape[0]

    def element(self, coeffs):
        """Matrix of the algebra element with the given real coefficients, or
        the stack of matrices for a stack of coefficient vectors (last axis)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1:] != (self.dim_g,):
            raise ValueError(f"expected {self.dim_g} coefficients, got shape {coeffs.shape}")
        # summed from 0 one generator after the other, as in X = 0; X += c_k G_k
        terms = coeffs[..., None, None] * self.generators
        return np.add.reduce(terms, axis=-3, initial=0.0)


def realify(z):
    """Interleaved real coordinates (Re z_1, Im z_1, ...) of a complex vector,
    or of each vector along the last axis of a stack."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def complexify(x):
    """Inverse of realify."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] % 2:
        raise ValueError("realified vectors have even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


def closure_residual(gens):
    """Largest least-squares distance of any [X_i, X_j] from the real span
    of a (k, d, d) complex stack.

    The commutators of all pairs i < j come from one stacked product, and
    one least-squares solve takes them as right-hand-side columns against
    the realified generators; the result is the largest column residual.
    """
    i, j = np.triu_indices(gens.shape[0], 1)
    comm = gens[i] @ gens[j] - gens[j] @ gens[i]
    d2 = gens.shape[1] * gens.shape[2]
    basis, target = realify(gens.reshape(-1, d2)).T, realify(comm.reshape(-1, d2)).T
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return float(np.max(np.linalg.norm(basis @ coef - target, axis=0), initial=0.0))


def direct_sum(reps):
    """Block-diagonal direct sum of representations of the same algebra,
    checked with the tolerances of the first summand."""
    reps = list(reps)
    if not reps:
        raise ValueError("direct_sum needs at least one representation")
    dim_g = reps[0].dim_g
    for r in reps:
        if r.dim_g != dim_g:
            raise ValueError(
                f"cannot form a direct sum: {r.label or 'rep'} has {r.dim_g} "
                f"generators, expected {dim_g}"
            )
    edges = np.cumsum([0] + [r.rep_dim for r in reps])
    gens = np.zeros((dim_g, edges[-1], edges[-1]), dtype=complex)
    for r, lo, hi in zip(reps, edges, edges[1:]):
        gens[:, lo:hi, lo:hi] = r.generators
    label = "+".join(r.label for r in reps if r.label)
    return LieAlgebraRep(generators=gens, label=label, tol=reps[0].tol)


def orbit_directions(rep, z0):
    """The (dim_g, rep_dim) array whose row k is the orbit direction X_k z0,
    from one stacked product."""
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    if z0.shape[0] != rep.rep_dim:
        raise ValueError(f"vector has length {z0.shape[0]}, representation acts on C^{rep.rep_dim}")
    return rep.generators @ z0


def isotropy_algebra(rep, z0, tol=DEFAULT):
    """The kernel and image of the realified orbit map X -> X z0, from one SVD.

    T = realify(orbit_directions(rep, z0)).T is the real (2 rep_dim, dim_g)
    matrix of the map; its rank counts the singular values above
    tol.nullspace_cut * sigma_max.  Returns (basis, goldstone, physical):
    basis, the read-only (dim, dim_g) rows spanning the unbroken subalgebra
    {X : X z0 = 0}, from the right singular vectors past the rank; the
    Goldstone columns spanning the orbit directions in R^{2 rep_dim}; and the
    physical columns of their orthogonal complement.  At z0 = 0 the rank is
    0: the whole algebra is unbroken and every direction is physical.
    """
    u, s, vt = np.linalg.svd(realify(orbit_directions(rep, z0)).T)
    rank = int(np.sum(s > tol.nullspace_cut * s[0]))
    basis = vt[rank:]
    basis.flags.writeable = False
    return basis, u[:, :rank], u[:, rank:]


def commutant_check(matrices, candidate):
    """Max-abs entry of [candidate, M] over a (k, d, d) stack of matrices M,
    0.0 for an empty one."""
    candidate = np.asarray(candidate, dtype=complex)
    if candidate.ndim != 2 or candidate.shape[0] != candidate.shape[1]:
        raise ValueError(f"candidate must be square, got shape {candidate.shape}")
    M = np.asarray(matrices, dtype=complex)
    if M.shape[1:] != candidate.shape:
        raise ValueError(f"matrices have shape {M.shape[1:]}, candidate has {candidate.shape}")
    return float(np.max(np.abs(candidate @ M - M @ candidate), initial=0.0))


def exp_map(rep, coeffs):
    """Unitary matrix exponential of the algebra element with these
    coefficients, or the stack of them for a stack of coefficient vectors
    (last axis), from one stacked eigensolve.

    The element X is anti-Hermitian, so i*X is Hermitian; from its
    eigendecomposition i*X = V diag(w) V^dagger, exp(X) = V diag(exp(-i w))
    V^dagger, which is unitary by construction.  Each matrix of a stack is
    the one a single call gives, bit for bit.
    """
    w, V = np.linalg.eigh(1j * rep.element(coeffs))
    return (V * np.exp(-1j * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
