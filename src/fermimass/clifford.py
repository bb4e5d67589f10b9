"""Gamma matrices for even-dimensional Clifford algebras.

Conventions, fixed once for the whole package:

* euclidean: ``{gamma_a, gamma_b} = +2 delta_ab Id`` with every gamma_a
  Hermitian.  The metric is the identity, so gamma^a = gamma_a and
  ``cl.gamma[a]``, row a of the read-only (2n, 2^n, 2^n) stack, serves
  for both.
* chirality: ``gamma5 = (-i)^n gamma_1 ... gamma_{2n}``, which makes
  gamma5 Hermitian with gamma5^2 = Id.
* canonical one-form: ``xi_a = gamma_a / (2n)``, the unique constant
  multiple of gamma_a with ``sum_a gamma^a xi_a = Id``, i.e. xi
  right-inverts the Clifford action.  On a flat torus its components are
  constant matrices; ``cl.xi_scale`` is 1 / (2n), derived from n.
"""

from dataclasses import dataclass

import numpy as np

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class CliffordAlgebra:
    """Gamma matrices, chirality operator and canonical one-form scale."""

    n: int
    gamma: np.ndarray
    gamma5: np.ndarray

    @property
    def spinor_dim(self):
        return 2 ** self.n

    @property
    def xi_scale(self):
        return 1.0 / (2 * self.n)


def kron(a, b):
    """np.kron of two matrices, or the stack of Kronecker products of two
    stacks of them with their leading axes broadcast, bit for bit: each
    entry is the same single product.  np.kron's general axis handling
    costs about 16 us a call against 2 us here, and the lattice builders
    make a few dozen calls on small blocks."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def _euclidean_gammas(n):
    # Recursive tensor construction: 2D seed {sigma1, sigma2}, then extend
    # existing matrices by x sigma3 and append Id x sigma1, Id x sigma2.
    gammas = [PAULI[0], PAULI[1]]
    for _ in range(n - 1):
        dim = gammas[0].shape[0]
        gammas = [kron(g, PAULI[2]) for g in gammas]
        gammas.append(kron(np.eye(dim, dtype=complex), PAULI[0]))
        gammas.append(kron(np.eye(dim, dtype=complex), PAULI[1]))
    return gammas


def build_clifford(n):
    """Construct the euclidean gamma matrices for dimension 2n."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("half-dimension n must be a positive integer")
    gammas = _euclidean_gammas(n)
    gamma5 = np.eye(2 ** n, dtype=complex)
    for g in gammas:
        gamma5 = gamma5 @ g
    gamma5 = (-1j) ** n * gamma5
    gamma = np.array(gammas)
    gamma.flags.writeable = False
    return CliffordAlgebra(n=int(n), gamma=gamma, gamma5=gamma5)
