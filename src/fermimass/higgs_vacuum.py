"""Invariant Higgs potentials, their minima, and the Goldstone split.

Potentials are real polynomials p in the single invariant s = |z|^2,
held by their ascending coefficients, which covers rotationally
symmetric models.  All real gradients, Hessians and basis vectors below
use the package's one realification, group_rep.realify, which
interleaves (Re z_1, Im z_1, Re z_2, Im z_2, ...).

The gradient of V(z) = p(|z|^2) is 2 p'(|z|^2) z, parallel to z, so
the minimum on the ray through a seed solves a one-dimensional problem:
minimize p over s >= 0, where the candidates are 0 and the roots of p'.
The minimizer returns that global minimum on the seed's ray, with the
chosen root polished by a few Newton steps on p'.
"""

from dataclasses import dataclass

import numpy as np

from .group_rep import LieAlgebraRep, complexify, exp_map, isotropy_algebra, realify
from .tolerances import DEFAULT

INVARIANCE_SAMPLES = 6
INVARIANCE_SEED = 7


class SaddleConverged(RuntimeError):
    """The search converged to a critical point that is not a minimum."""

    def __init__(self, z0, transversal_eigs, message):
        super().__init__(message)
        self.z0 = np.asarray(z0, dtype=complex)
        self.transversal_eigs = np.asarray(transversal_eigs, dtype=float)


@dataclass(frozen=True, eq=False)
class HiggsModel:
    """An invariant potential V(z) = p(|z|^2) over a unitary representation.

    coeffs are the ascending coefficients of p(s), s = |z|^2, held as a
    read-only float array: at least one, all finite, and a positive
    leading one when p is not constant, so that V is bounded from below.
    """

    rep: LieAlgebraRep
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or not coeffs.size:
            raise ValueError(f"p(s) needs a list of at least one coefficient, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError(f"the coefficients of p(s) must be finite, got {coeffs.tolist()}")
        if coeffs.size > 1 and coeffs[-1] <= 0:
            raise ValueError(
                "potential is not bounded from below: leading coefficient must be positive"
            )


def _poly_eval(coeffs, s):
    return float(np.polynomial.polynomial.polyval(s, coeffs))


def _poly_derivative(coeffs):
    if len(coeffs) <= 1:
        return np.zeros(1)
    return coeffs[1:] * np.arange(1, len(coeffs))


def potential_eval(model, z):
    """V(z) = p(|z|^2), or the array of values for a stack of states (last axis)."""
    z = np.asarray(z, dtype=complex)
    s = (z.conj()[..., None, :] @ z[..., None])[..., 0, 0].real
    v = np.polynomial.polynomial.polyval(s, model.coeffs)
    return float(v) if z.ndim == 1 else v


def gradient(model, z):
    """Real gradient of V in the interleaved coordinates, length 2N."""
    x = realify(z)
    c1 = _poly_derivative(model.coeffs)
    return 2.0 * _poly_eval(c1, float(x @ x)) * x


def hessian(model, z):
    """Real symmetric Hessian of V in the interleaved coordinates."""
    x = realify(z)
    s = float(x @ x)
    c1 = _poly_derivative(model.coeffs)
    c2 = _poly_derivative(c1)
    return 4.0 * _poly_eval(c2, s) * np.outer(x, x) + 2.0 * _poly_eval(c1, s) * np.eye(x.shape[0])


def invariance_residual(model):
    """Max relative change of V along random group motions of random points.

    Each of INVARIANCE_SAMPLES samples draws a point z (real, then imaginary
    parts) and then the coefficients of a group element; all samples come
    from one draw of that layout, seeded with INVARIANCE_SEED, are moved by
    one stacked exp_map and evaluated together.
    """
    d, g = model.rep.rep_dim, model.rep.dim_g
    draws = np.random.default_rng(INVARIANCE_SEED).standard_normal((INVARIANCE_SAMPLES, 2 * d + g))
    z = draws[:, :d] + 1j * draws[:, d : 2 * d]
    moved = (exp_map(model.rep, draws[:, 2 * d :]) @ z[..., None])[..., 0]
    v0, v1 = potential_eval(model, z), potential_eval(model, moved)
    return float(np.max(np.abs(v1 - v0) / np.maximum(1.0, np.abs(v0)), initial=0.0))


def unitary_gauge_project(split, phi):
    """Project a Higgs state, or each state along the last axis of a stack,
    onto the physical (unitary gauge) subspace."""
    _, physical = split
    return complexify((realify(phi) @ physical) @ physical.T)


@dataclass(frozen=True, eq=False)
class VacuumSolution:
    """A minimum of the potential with its symmetry-breaking data; isotropy
    is the read-only (dim, dim_g) basis of the unbroken subalgebra."""

    z0: np.ndarray
    value: float
    isotropy: np.ndarray
    goldstone_basis: np.ndarray
    physical_basis: np.ndarray
    transversal_hessian_eigs: np.ndarray

    @property
    def goldstone_count(self):
        return self.goldstone_basis.shape[1]

    @property
    def physical_count(self):
        return self.physical_basis.shape[1]


def minimize(model, seed, tol=DEFAULT):
    """The global minimum of the potential on the seed's ray, with its
    symmetry-breaking data.

    The gradient 2 p'(|z|^2) z is parallel to z, so the result is
    sqrt(s*) * seed / |seed|, where s* minimizes p over 0 and the positive
    real parts of the roots of p'.  Every candidate lies in [0, inf), so s*
    is the global minimum of p there.  Up to four Newton steps on p' polish
    s*, each taken only where p''(s*) > 0 and it reduces |p'(s*)|.  A zero
    seed gives the origin.

    Raises SaddleConverged when the transversal Hessian at the result is not
    positive definite: a zero seed at a symmetric origin that is not a
    minimum, or a degenerate minimum.  An eigenvalue counts as zero at or
    below tol.saddle_floor times the largest |eigenvalue|, so the verdict
    does not depend on the potential's units.  The isotropy algebra and the
    Goldstone split come from one isotropy_algebra call, which reads
    tol.nullspace_cut.
    """
    z = np.asarray(seed, dtype=complex).reshape(-1)
    if z.shape[0] != model.rep.rep_dim:
        raise ValueError(f"seed has length {z.shape[0]}, representation acts on C^{model.rep.rep_dim}")
    norm = float(np.linalg.norm(z))
    z0 = z
    if norm > 0.0:
        c = model.coeffs
        c1 = _poly_derivative(c)
        c2 = _poly_derivative(c1)
        roots = np.polynomial.polynomial.polyroots(c1).real
        s = min([0.0, *roots[roots > 0.0]], key=lambda t: _poly_eval(c, t))
        for _ in range(4):
            d1, d2 = _poly_eval(c1, s), _poly_eval(c2, s)
            t = s - d1 / d2 if s > 0.0 and d2 > 0.0 else 0.0
            if not (t > 0.0 and abs(_poly_eval(c1, t)) < abs(d1)):
                break
            s = t
        z0 = z * (np.sqrt(s) / norm)

    iso, goldstone, physical = isotropy_algebra(model.rep, z0, tol)
    H = hessian(model, z0)
    if physical.shape[1]:
        trans = np.linalg.eigvalsh(physical.T @ H @ physical)
    else:
        trans = np.zeros(0)
    if trans.size:
        floor = tol.saddle_floor * float(np.max(np.abs(trans)))
        if float(trans.min()) <= floor:
            raise SaddleConverged(
                z0,
                trans,
                "converged to a critical point whose transversal Hessian is not positive "
                f"definite (min eigenvalue {trans.min():.3e})",
            )
    return VacuumSolution(
        z0=z0,
        value=potential_eval(model, z0),
        isotropy=iso,
        goldstone_basis=goldstone,
        physical_basis=physical,
        transversal_hessian_eigs=trans,
    )
