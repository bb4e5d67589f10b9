"""Invariant Higgs potentials, their minima, and the Goldstone split.

Potentials are real polynomials in the single invariant s = |z|^2, which
covers rotationally symmetric models; other invariants can be supplied
through the custom_polynomial kind.  The realification convention is
fixed package-wide: C^N is identified with R^{2N} by interleaving,
(Re z_1, Im z_1, Re z_2, Im z_2, ...).  All real gradients, Hessians and
basis vectors below use it.

The gradient of V(z) = p(|z|^2) is 2 p'(|z|^2) z, parallel to z, so
the minimum on the ray through a seed solves a one-dimensional problem:
minimize p over s >= 0, where the candidates are 0 and the roots of p'.
The minimizer returns that global minimum on the seed's ray, with the
chosen root polished by a few Newton steps on p'.
"""

from dataclasses import dataclass

import numpy as np

from .group_rep import LieAlgebraRep, IsotropyResult, exp_map, isotropy_algebra, orbit_directions
from .tolerances import DEFAULT

POTENTIAL_KINDS = ("mexican_hat", "custom_polynomial")


class SaddleConverged(RuntimeError):
    """The search converged to a critical point that is not a minimum."""

    def __init__(self, z0, transversal_eigs, message):
        super().__init__(message)
        self.z0 = np.asarray(z0, dtype=complex)
        self.transversal_eigs = np.asarray(transversal_eigs, dtype=float)


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


@dataclass(frozen=True)
class HiggsModel:
    """An invariant potential V(z) = p(|z|^2) over a unitary representation.

    mexican_hat: params = (lam, v) with V(z) = lam * (|z|^2 - v^2)^2.
    custom_polynomial: params = ascending coefficients of p(s).
    """

    rep: LieAlgebraRep
    potential_kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(map(np.isfinite, self.params)):
            raise ValueError(f"potential parameters must be finite, got {self.params}")
        if self.potential_kind not in POTENTIAL_KINDS:
            raise ValueError(
                f"unknown potential kind {self.potential_kind!r}, expected one of {POTENTIAL_KINDS}"
            )
        if self.potential_kind == "mexican_hat":
            if len(self.params) != 2:
                raise ValueError("mexican_hat takes exactly (lam, v)")
            lam, v = self.params
            if lam <= 0 or v <= 0:
                raise ValueError("mexican_hat needs lam > 0 and v > 0")
        else:
            coeffs = self.params
            if not coeffs:
                raise ValueError("custom_polynomial needs at least one coefficient")
            if len(coeffs) > 1 and coeffs[-1] <= 0:
                raise ValueError(
                    "potential is not bounded from below: leading coefficient must be positive"
                )
        try:
            finite = bool(np.isfinite(self.poly_coefficients()).all())
        except OverflowError:  # a float power past the largest double
            finite = False
        if not finite:
            raise ValueError(f"the coefficients of p(s) overflow for parameters {self.params}")

    def poly_coefficients(self):
        """Ascending coefficients of p(s), s = |z|^2."""
        if self.potential_kind == "mexican_hat":
            lam, v = self.params
            return np.array([lam * v ** 4, -2.0 * lam * v ** 2, lam])
        return np.array(self.params)


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
    v = np.polynomial.polynomial.polyval(s, model.poly_coefficients())
    return float(v) if z.ndim == 1 else v


def gradient(model, z):
    """Real gradient of V in the interleaved coordinates, length 2N."""
    x = realify(z)
    c1 = _poly_derivative(model.poly_coefficients())
    return 2.0 * _poly_eval(c1, float(x @ x)) * x


def hessian(model, z):
    """Real symmetric Hessian of V in the interleaved coordinates."""
    x = realify(z)
    s = float(x @ x)
    c1 = _poly_derivative(model.poly_coefficients())
    c2 = _poly_derivative(c1)
    return 4.0 * _poly_eval(c2, s) * np.outer(x, x) + 2.0 * _poly_eval(c1, s) * np.eye(x.shape[0])


def invariance_residual(model, n_samples=8, seed=0):
    """Max relative change of V along random group motions of random points.

    Each sample draws a point z (real, then imaginary parts) and then the
    coefficients of a group element; all samples come from one draw of that
    layout, are moved by one stacked exp_map and evaluated together.
    """
    d, g = model.rep.rep_dim, model.rep.dim_g
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2 * d + g))
    z = draws[:, :d] + 1j * draws[:, d : 2 * d]
    moved = (exp_map(model.rep, draws[:, 2 * d :]) @ z[..., None])[..., 0]
    v0, v1 = potential_eval(model, z), potential_eval(model, moved)
    return float(np.max(np.abs(v1 - v0) / np.maximum(1.0, np.abs(v0)), initial=0.0))


def goldstone_split(rep, z0, tol=DEFAULT):
    """Orthonormal (goldstone, physical) bases of R^{2N} at a critical point.

    The Goldstone block spans the realified orbit directions X_i z0, those
    of singular value above tol.nullspace_cut * sigma_max; the physical
    block is its orthogonal complement.  Columns are the basis vectors.
    """
    T = realify(orbit_directions(rep, z0)).T
    if not T.any():
        return np.zeros((T.shape[0], 0)), np.eye(T.shape[0])
    u, s, _ = np.linalg.svd(T)
    rank = int(np.sum(s > tol.nullspace_cut * s[0]))
    return u[:, :rank], u[:, rank:]


def unitary_gauge_project(split, phi):
    """Project a Higgs state, or each state along the last axis of a stack,
    onto the physical (unitary gauge) subspace."""
    _, physical = split
    return complexify((realify(phi) @ physical) @ physical.T)


@dataclass(frozen=True)
class VacuumSolution:
    """A minimum of the potential with its symmetry-breaking data."""

    z0: np.ndarray
    value: float
    isotropy: IsotropyResult
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
    Goldstone split read tol.nullspace_cut.
    """
    z = np.asarray(seed, dtype=complex).reshape(-1)
    if z.shape[0] != model.rep.rep_dim:
        raise ValueError(f"seed has length {z.shape[0]}, representation acts on C^{model.rep.rep_dim}")
    norm = float(np.linalg.norm(z))
    z0 = z
    if norm > 0.0:
        c = model.poly_coefficients()
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

    iso = isotropy_algebra(model.rep, z0, tol)
    goldstone, physical = goldstone_split(model.rep, z0, tol)
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
