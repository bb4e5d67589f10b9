"""Central registry of numerical tolerances.

Every check in the package pulls its default threshold from here.  A run
holds one set, built once by ModelConfig.build: the model's overrides,
with every residual bound times the scale factor (CLI flag --tol-scale).
Field names double as the override keys accepted in model files.  A
library function that tests a threshold takes one tol argument, a
Tolerances that defaults to DEFAULT, and reads its own field from it;
the reports pass the run's set.
"""

import math
from dataclasses import dataclass, fields, replace


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


# the longest text that shown() echoes of a string, a list or an object
SHOWN_CHARS = 60


def shown(v, bare=False, depth=3):
    """repr(v) for a message, kept short: an int of more than 20 digits by
    its digit count, a string, list or object whose text would be longer
    than SHOWN_CHARS by its length, and a list or object nested more than
    depth deep as [...] or {...}.  bare writes a short string without
    quotes, as a key or name inside a path."""
    if isinstance(v, (list, dict)):
        is_list = isinstance(v, list)
        opening, closing = "[]" if is_list else "{}"
        if depth == 0 and v:
            return f"{opening}...{closing}"
        whole = f"<a list of length {len(v)}>" if is_list else f"<an object of size {len(v)}>"
        # every item takes three characters or more, its separator included
        if 3 * len(v) > SHOWN_CHARS + 2:
            return whole
        parts = ([shown(x, depth=depth - 1) for x in v] if is_list else
                 [f"{shown(k)}: {shown(x, depth=depth - 1)}" for k, x in v.items()])
        text = f"{opening}{', '.join(parts)}{closing}"
        return text if len(text) <= SHOWN_CHARS else whole
    if isinstance(v, str) and len(v) > SHOWN_CHARS:
        return f"<a string of {len(v)} characters>"
    if isinstance(v, str) and bare:
        return v
    if isinstance(v, int) and abs(v) >= 10 ** 20:
        # 10^(e-1) <= |v| < 10^(e+1) for e = floor(bits * log10 2)
        e = int(v.bit_length() * math.log10(2))
        return f"<an integer of {e + (abs(v) >= 10 ** e)} digits>"
    return repr(v)


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
    # singular values within eigenvalue_group * sigma_max share a block; a
    # branch-table block splits where the eigenvalues of M^2_F or of a
    # charge part by more than it times max(1, their largest |value|)
    eigenvalue_group: float = 1e-8
    # lattice dispersion residual against the closed form of the lattice's
    # derivative kind, relative to the spectral scale
    dispersion: float = 1e-9
    # gamma-contraction of the covariant derivative vs the Dirac operator
    contraction: float = 1e-12
    # Hermiticity of i * op, relative to its scale, validated by every
    # spectrum (a stencil's before its per-momentum solves)
    hermiticity: float = 1e-10
    # Dirac potential off-site leakage, relative to max(1, max m^2)
    potential_offsite: float = 1e-10
    # the Dirac potential's on-site block vs 1_spinor x M_F^2, entry by
    # entry, relative to max(1, max m^2)
    potential_mass_square: float = 1e-12
    # curvature of the vacuum connection vs mass-square times xi wedge xi,
    # relative to max(1, max m^2); the lattice report's "flat" key compares
    # the largest curvature entry with it unscaled
    curvature: float = 1e-12
    # Wilson line flatness [A_a, A_b]
    wilson_flat: float = 1e-12

    # cuts that decide what is computed (a rank, an eigenbundle grouping, a
    # zero eigenvalue), not a bound that a residual is held to; scale()
    # leaves them as they are, a model file's overrides still set them
    DECISION_CUTS = ("nullspace_cut", "saddle_floor", "eigenvalue_group")

    def scale(self, factor):
        """Return a copy with every residual bound multiplied by a finite
        positive factor; the DECISION_CUTS keep their values."""
        if not math.isfinite(factor):
            raise ValueError("tolerance scale factor must be finite and positive")
        if factor <= 0.0:
            raise ValueError("tolerance scale factor must be positive")
        return replace(self, **{f.name: getattr(self, f.name) * factor
                                for f in fields(self) if f.name not in self.DECISION_CUTS})

    def with_overrides(self, overrides):
        """Return a copy with named thresholds replaced, each by a finite
        non-negative number (not a bool or a string)."""
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValueError(f"{shown(bad[0], bare=True)}: unknown tolerance name")
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in overrides.items():
            values[name] = finite_number(value)
            if values[name] is None or values[name] < 0.0:
                raise ValueError(f"{name}: expected a finite non-negative number, got {shown(value)}")
        return Tolerances(**values)


DEFAULT = Tolerances()
