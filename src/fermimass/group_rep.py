"""Compact Lie algebra representations as explicit anti-Hermitian matrices.

The linear algebra of symmetry breaking lives here: infinitesimal orbit
directions, isotropy (unbroken) subalgebras computed as real null spaces,
commutant residuals, and finite transformations as the spectral
exponential of the Hermitian matrix i*X.  Lie algebra elements are always
real coefficient vectors over the fixed generator list; reductive algebras
with abelian factors are admitted.
"""

from dataclasses import dataclass, field

import numpy as np

from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class LieAlgebraRep:
    """A unitary representation given by anti-Hermitian generator matrices.

    The generators are checked on construction against tol.anti_hermitian
    and tol.closure, so a model's tolerance overrides reach them.
    """

    generators: tuple
    label: str = ""
    tol: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("a representation needs at least one generator")
        name = self.label or "representation"
        d = gens[0].shape
        if len(d) != 2 or d[0] != d[1]:
            raise ValueError(f"{name}: generator 0 is not a square matrix, shape {d}")
        for k, X in enumerate(gens):
            if X.shape != d:
                raise ValueError(f"{name}: generator {k} has shape {X.shape}, expected {d}")
            dev = float(np.max(np.abs(X + X.conj().T)))
            if dev > self.tol.anti_hermitian:
                raise ValueError(
                    f"{name}: generator {k} is not anti-Hermitian "
                    f"(|X + X^dagger| = {dev:.3e} > {self.tol.anti_hermitian:.0e})"
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
        terms = coeffs[..., None, None] * np.asarray(self.generators)
        return np.add.reduce(terms, axis=-3, initial=0.0)


def _real_columns(mats):
    """The (2 d^2, k) real matrix whose columns are the stacked real and
    imaginary parts of k matrices of side d."""
    k, d, _ = mats.shape
    flat = mats.reshape(k, d * d)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def closure_residual(generators):
    """Largest least-squares distance of any [X_i, X_j] from the real span.

    The commutators of all pairs i < j come from one stacked product, and
    one least-squares solve takes them as right-hand-side columns against
    the realified generators; the result is the largest column residual.
    """
    gens = np.asarray(generators, dtype=complex)
    i, j = np.triu_indices(gens.shape[0], 1)
    comm = gens[i] @ gens[j] - gens[j] @ gens[i]
    basis, target = _real_columns(gens), _real_columns(comm)
    coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return float(np.max(np.linalg.norm(basis @ coef - target, axis=0), initial=0.0))


@dataclass(frozen=True)
class IsotropyResult:
    """Orthonormal coefficient vectors spanning the unbroken subalgebra."""

    basis: tuple
    dim: int


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
    return LieAlgebraRep(generators=tuple(gens), label=label, tol=reps[0].tol)


def infinitesimal_action(rep, coeffs, z):
    """Apply the algebra element with the given coefficients to a vector."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != rep.rep_dim:
        raise ValueError(f"vector has length {z.shape[0]}, representation acts on C^{rep.rep_dim}")
    return rep.element(coeffs) @ z


def orbit_directions(rep, z0):
    """The (dim_g, rep_dim) array whose row k is the orbit direction X_k z0,
    from one stacked product."""
    z0 = np.asarray(z0, dtype=complex).reshape(-1)
    if z0.shape[0] != rep.rep_dim:
        raise ValueError(f"vector has length {z0.shape[0]}, representation acts on C^{rep.rep_dim}")
    return np.asarray(rep.generators) @ z0


def isotropy_algebra(rep, z0, tol=DEFAULT):
    """Unbroken subalgebra {X : X z0 = 0} as a real null-space computation.

    Stacks real and imaginary parts of the columns X_i z0 into a real
    2*rep_dim x dim_g matrix and keeps the right singular vectors whose
    singular value falls below tol.nullspace_cut * sigma_max.
    """
    cols = orbit_directions(rep, z0)
    _, s, vt = np.linalg.svd(np.concatenate((cols.real, cols.imag), axis=1).T)
    smax = s[0] if s.size else 0.0
    rows = [vt[k] for k in range(rep.dim_g) if k >= s.size or s[k] <= tol.nullspace_cut * smax]
    return IsotropyResult(basis=tuple(rows), dim=len(rows))


def commutant_check(matrices, candidate):
    """Max-abs entry of [candidate, M] over the given matrices."""
    candidate = np.asarray(candidate, dtype=complex)
    if candidate.ndim != 2 or candidate.shape[0] != candidate.shape[1]:
        raise ValueError(f"candidate must be square, got shape {candidate.shape}")
    worst = 0.0
    for k, M in enumerate(matrices):
        M = np.asarray(M, dtype=complex)
        if M.shape != candidate.shape:
            raise ValueError(f"matrix {k} has shape {M.shape}, candidate has {candidate.shape}")
        worst = max(worst, float(np.max(np.abs(candidate @ M - M @ candidate))))
    return worst


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
