"""Central registry of numerical tolerances.

Every check in the package pulls its default threshold from here, so a
single scale factor (CLI flag --tol-scale) or a per-model override table
reaches all of them.  Field names double as the override keys accepted in
model files.  A library function that tests a threshold takes one tol
argument, a Tolerances that defaults to DEFAULT, and reads its own field
from it; the reports pass the run's tolerances.
"""

import math
from dataclasses import dataclass, fields


def finite_number(v):
    """v as a float, or None unless it is a finite JSON number; the one test
    of a number that a model file or its tolerance overrides may hold."""
    # bool is an int subclass, but a JSON true is not a number
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if math.isfinite(v) else None


@dataclass(frozen=True)
class Tolerances:
    # generator anti-Hermiticity
    anti_hermitian: float = 1e-12
    # Lie-algebra closure least-squares residual
    closure: float = 1e-10
    # singular values below nullspace_cut * sigma_max count as zero
    nullspace_cut: float = 1e-9
    # unitarity of exponentiated algebra elements and gauge fields
    unitary: float = 1e-10
    # relative invariance of the potential along the group orbit
    invariance: float = 1e-9
    # gradient norm at a reported minimum (times max(1,|z0|))
    gradient_norm: float = 1e-8
    # Hessian restricted to Goldstone directions must vanish to this, times
    # max(1, max |transversal Hessian eigenvalue|)
    goldstone_flat: float = 1e-7
    # a transversal Hessian eigenvalue at or below saddle_floor * max |eig|
    # makes a critical point a saddle
    saddle_floor: float = 1e-10
    # Yukawa equivariance residual
    equivariance: float = 1e-12
    # diagonal blocks of an odd endomorphism
    block_structure: float = 1e-12
    # commutant residual of the mass matrix against unbroken generators,
    # relative to sqrt(max(1, max m^2))
    commutant: float = 1e-12
    # multiset deviation of mass spectra across the orbit
    orbit_spectrum: float = 1e-9
    # eigenbundle reconstruction of the squared mass matrix, relative to
    # max(1, max m^2)
    reconstruction: float = 1e-10
    # singular values within eigenvalue_group * sigma_max share a block
    eigenvalue_group: float = 1e-8
    # lattice dispersion residual, relative to the spectral scale
    dispersion: float = 1e-9
    # gamma-contraction of the covariant derivative vs the Dirac operator
    contraction: float = 1e-12
    # Hermiticity of i * op, relative to its scale, validated by every
    # spectrum (a stencil's before its per-momentum solves)
    hermiticity: float = 1e-10
    # Dirac potential off-site leakage, relative to max(1, max m^2)
    potential_offsite: float = 1e-10
    # per-site trace of the Dirac potential vs the mass-square trace
    # 2^n sum m^2, relative to max(1, |2^n sum m^2|)
    potential_trace: float = 1e-12
    # curvature of the vacuum connection vs mass-square times xi wedge xi,
    # relative to max(1, max m^2); the lattice report's "flat" key compares
    # the largest curvature entry with it unscaled
    curvature: float = 1e-12
    # Wilson line flatness [A_a, A_b]
    wilson_flat: float = 1e-12
    # spread of a Wilson charge on a mass block, relative to max(1, |charge|)
    wilson_charge_scalar: float = 1e-10

    def scale(self, factor):
        """Return a copy with every threshold multiplied by a finite positive factor."""
        if not math.isfinite(factor):
            raise ValueError("tolerance scale factor must be finite and positive")
        if factor <= 0.0:
            raise ValueError("tolerance scale factor must be positive")
        return Tolerances(**{f.name: getattr(self, f.name) * factor for f in fields(self)})

    def with_overrides(self, overrides):
        """Return a copy with named thresholds replaced, each by a finite
        non-negative number (not a bool or a string)."""
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValueError(f"unknown tolerance name(s): {', '.join(bad)}")
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in overrides.items():
            values[name] = finite_number(value)
            if values[name] is None or values[name] < 0.0:
                raise ValueError(f"{name}: expected a finite non-negative number, got {value!r}")
        return Tolerances(**values)


DEFAULT = Tolerances()
