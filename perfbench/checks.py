"""Output checks that do not reuse the program's own code path.

Each check either recomputes a result by a route the program does not
take (closed forms written here, numpy's SVD of the generated Yukawa
matrix) or tests a property the method must have (bitwise round trips,
site-diagonal fluctuations, spectra unchanged by a gauge transform).
None compares against a stored copy of earlier output.  Every function
returns a list of failure messages; an empty list means the output passed.
"""

import numpy as np

# Relative tolerance of the floating-point comparisons below.  The
# program's own dispersion tolerance is 1e-9 of the spectral scale, so a
# correct result passes with room to spare and a perturbed entry does not.
REL_TOL = 1e-9


def _close(got, want, what, rel=REL_TOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, want {want.shape}"]
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    dev = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not dev <= rel * scale:
        return [f"{what}: deviates by {dev:.3e} (> {rel:.0e} x {scale:.3g})"]
    return []


# -- electroweak charges ----------------------------------------------

def ew_charge(iso_coeffs, t3, hypercharge):
    """Eigenvalue of -i X on a state with weak isospin t3 and hypercharge y.

    X is the algebra element with coefficients (c1, c2, c3, cY) over the
    generators (-i s1/2, -i s2/2, -i s3/2, -i y Id) of the su(2)+u(1)
    models, restricted to an isospin eigenstate; c1 and c2 must vanish.
    """
    c = np.asarray(iso_coeffs, dtype=float)
    return -(c[2] * t3 + c[3] * hypercharge)


def check_ew_isotropy(iso_basis):
    """The reported isotropy basis of a doublet vacuum (0, v): one unit
    vector that annihilates the lower Higgs component (isospin -1/2,
    hypercharge +1)."""
    basis = np.asarray(iso_basis, dtype=float)
    if basis.shape != (1, 4):
        return [f"isotropy basis has shape {basis.shape}, want (1, 4)"]
    c = basis[0]
    errs = []
    if abs(float(np.linalg.norm(c)) - 1.0) > 1e-12:
        errs.append(f"isotropy vector has norm {np.linalg.norm(c):.15g}")
    if max(abs(c[0]), abs(c[1])) > 1e-12:
        errs.append(f"isotropy vector has T1/T2 parts {c[0]:.3e}, {c[1]:.3e}")
    if abs(ew_charge(c, -0.5, 1.0)) > 1e-12:
        errs.append(f"isotropy vector charges the vacuum: {ew_charge(c, -0.5, 1.0):.3e}")
    return errs


# -- lattice-verify -----------------------------------------------------

def closed_form_squared_spectrum(n, L, a, blocks):
    """Multiset {sum_a (k_a + q_a)^2 + m^2} of (i D)^2 on the 2n-torus.

    blocks: (m2, fiber_dim, q) per mass block, where fiber_dim counts the
    block's states on the fermion fiber and q holds one momentum shift
    per axis.  Each value appears 2^n * fiber_dim times per momentum.
    """
    ks = 2.0 * np.pi * np.arange(L) / (L * a)
    grid = np.stack(np.meshgrid(*([ks] * (2 * n)), indexing="ij"), axis=-1).reshape(-1, 2 * n)
    parts = []
    for m2, fiber_dim, q in blocks:
        energies = np.sum((grid + np.asarray(q, dtype=float)) ** 2, axis=1) + m2
        parts.append(np.repeat(energies, 2 ** n * fiber_dim))
    return np.sort(np.concatenate(parts))


def check_lattice_report(doc, n, L, a, y, v, theta):
    """lattice-verify: the ew-reference lepton (mass y v, charged) and its
    massless neutral partner on the 2n-torus with a Wilson line theta
    (one coefficient per axis over the isotropy basis)."""
    errs = []
    data = doc["data"]
    iso = data["break"]["isotropy_basis"]
    errs += check_ew_isotropy(iso)
    if errs:
        return errs
    # the charged block: right singlet of hypercharge -2 (the left lower
    # component carries the same charge)
    charge = ew_charge(iso[0], 0.0, -2.0)
    q = np.asarray(theta, dtype=float)[:, 0] * charge
    m2 = (y * v) ** 2
    want = closed_form_squared_spectrum(
        n, L, a, [(0.0, 1, [0.0] * (2 * n)), (m2, 2, q)]
    )
    lat = data["lattice"]
    errs += _close(lat["spectrum_sq"], want, "lattice.spectrum_sq")
    sum_m2 = 2 * m2  # one massive Dirac fermion, counted once per chirality
    errs += _close([lat["per_site_trace"]], [2 ** n * sum_m2], "lattice.per_site_trace")
    errs += _close(
        [lat["curvature_max"]], [2.0 * m2 / (2 * n) ** 2], "lattice.curvature_max"
    )
    return errs


# -- model-sweep --------------------------------------------------------

def squared_masses_from_yukawa(yukawa, v, n_fiber):
    """Each v^2 sigma_i^2 of the Yukawa matrix twice, zeros to fill the fiber."""
    s = np.linalg.svd(np.asarray(yukawa, dtype=complex), compute_uv=False)
    m2 = (v * s) ** 2
    return np.sort(np.concatenate([m2, m2, np.zeros(n_fiber - 2 * m2.size)]))


def check_sweep_report(doc, spec):
    """model-sweep: spectrum from the generated Yukawa matrix, Goldstone
    count and isotropy dimension from the group, |z0| = v."""
    errs = []
    data = doc["data"]
    errs += _close(
        data["masses"]["spectrum_sq"],
        squared_masses_from_yukawa(spec["yukawa"], spec["v"], spec["n_fiber"]),
        "masses.spectrum_sq",
    )
    brk = data["break"]
    if brk["goldstone_count"] != spec["goldstone_count"]:
        errs.append(f"goldstone_count {brk['goldstone_count']}, want {spec['goldstone_count']}")
    if brk["isotropy_dim"] != spec["isotropy_dim"]:
        errs.append(f"isotropy_dim {brk['isotropy_dim']}, want {spec['isotropy_dim']}")
    z0 = np.array([complex(re, im) for re, im in brk["z0"]])
    errs += _close([np.linalg.norm(z0)], [spec["v"]], "|z0|", rel=1e-8)
    return errs


# -- fluctuation-io -----------------------------------------------------

def offsite_mask(side, fiber):
    """True on entries that couple two different lattice sites."""
    site = np.arange(side) // fiber
    return site[:, None] != site[None, :]


def check_fluctuation(vacuum, fluctuated, t, mask):
    """t = 0 gives the vacuum operator bit for bit; any t changes only
    site-diagonal entries."""
    if t == 0.0:
        if not np.array_equal(fluctuated, vacuum):
            return ["t = 0 does not return the vacuum operator exactly"]
        return []
    diff = fluctuated - vacuum
    if np.any(diff[mask]):
        worst = float(np.max(np.abs(diff[mask])))
        return [f"t = {t}: fluctuation has off-site entries up to {worst:.3e}"]
    return []


def check_gauge_spectrum(before, after):
    """A gauge transform is a unitary similarity: the spectrum is unchanged."""
    return _close(after, before, "gauge-transformed spectrum")


def check_operator_round_trip(original, loaded):
    """dump_operator then load_operator gives back the operator bit for bit."""
    errs = []
    if not np.array_equal(loaded.matrix, original.matrix):
        errs.append("operator round trip changed matrix entries")
    for attr in ("lattice", "spinor_dim", "internal_dim", "kind"):
        if getattr(loaded, attr) != getattr(original, attr):
            errs.append(f"operator round trip changed {attr}")
    return errs


def check_spectrum_round_trip(values, loaded):
    """write_spectrum_csv then read_spectrum_csv gives the sorted values bit for bit."""
    if not np.array_equal(loaded, np.sort(np.asarray(values, dtype=float))):
        return ["spectrum CSV round trip changed values"]
    return []
