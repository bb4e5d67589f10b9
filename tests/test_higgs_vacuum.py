import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from fermimass import (
    HiggsModel,
    SaddleConverged,
    exp_map,
    gradient,
    hessian,
    isotropy_algebra,
    minimize,
    potential_eval,
    unitary_gauge_project,
)
from fermimass.group_rep import complexify, realify
from fermimass.higgs_vacuum import invariance_residual
from conftest import ew_rep, mexican_hat_on, su2_doublet


def finite_difference_gradient(model, z, h=1e-6):
    x = realify(z)
    out = np.zeros_like(x)
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (potential_eval(model, complexify(xp)) - potential_eval(model, complexify(xm))) / (2 * h)
    return out


def finite_difference_hessian(model, z, h=1e-5):
    x = realify(z)
    n = x.size
    out = np.zeros((n, n))
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (
            finite_difference_gradient(model, complexify(xp))
            - finite_difference_gradient(model, complexify(xm))
        ) / (2 * h)
    return out


def test_realify_convention_interleaves():
    z = np.array([1.0 + 2.0j, 3.0 - 4.0j])
    assert np.array_equal(realify(z), [1.0, 2.0, 3.0, -4.0])
    assert np.array_equal(complexify(realify(z)), z)


def test_mexican_hat_at_origin():
    # V = lam (|z|^2 - v^2)^2 at z = 0: value lam v^4 = 1, gradient 0,
    # Hessian = 2 p'(0) Id = -4 Id (differentiation of the polynomial in s)
    model = mexican_hat_on(su2_doublet(), lam=1.0, v=1.0)
    z = np.zeros(2)
    assert potential_eval(model, z) == pytest.approx(1.0)
    assert np.abs(gradient(model, z)).max() == 0.0
    assert np.abs(hessian(model, z) + 4.0 * np.eye(4)).max() <= 1e-12


def test_mexican_hat_vanishes_on_minimum_sphere():
    model = mexican_hat_on(su2_doublet(), lam=1.0, v=1.0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z = z / np.linalg.norm(z)
    assert potential_eval(model, z) == pytest.approx(0.0, abs=1e-14)


def test_custom_linear_polynomial_gradient():
    # p(s) = s gives V = |z|^2 and gradient 2 realify(z)
    model = HiggsModel(su2_doublet(), [0.0, 1.0])
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.abs(gradient(model, z) - 2.0 * realify(z)).max() <= 1e-14


@pytest.mark.parametrize("params", [(1.0, 2.0), (0.3, 1.5)])
def test_derivatives_match_finite_differences(params):
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"), *params)
    rng = np.random.default_rng(7)
    for _ in range(4):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g, fd_g = gradient(model, z), finite_difference_gradient(model, z)
        scale = max(1.0, np.abs(fd_g).max())
        assert np.abs(g - fd_g).max() / scale <= 1e-6
        H, fd_H = hessian(model, z), finite_difference_hessian(model, z)
        scale = max(1.0, np.abs(fd_H).max())
        assert np.abs(H - fd_H).max() / scale <= 1e-5


def test_invariance_under_group():
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"))
    assert invariance_residual(model) <= 1e-9


def test_unbounded_potential_rejected():
    with pytest.raises(ValueError, match="bounded"):
        HiggsModel(su2_doublet(), [0.0, 1.0, -1.0])


def test_minimize_reaches_vacuum_sphere():
    # oracle: the minimum set of the mexican hat is |z| = v
    model = mexican_hat_on(su2_doublet(), lam=1.0, v=2.0)
    vac = minimize(model, np.array([0.1, 0.3]))
    assert abs(np.linalg.norm(vac.z0) - 2.0) <= 1e-8
    assert vac.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_from_origin_reports_saddle():
    model = mexican_hat_on(su2_doublet(), lam=1.0, v=2.0)
    with pytest.raises(SaddleConverged) as err:
        minimize(model, np.zeros(2))
    assert np.abs(err.value.z0).max() <= 1e-12
    assert err.value.transversal_eigs.min() < 0.0


@pytest.mark.parametrize("v, seed", [(2e-3, (0.0, 1.0)), (2000.0, (0.0, 1000.0)), (2e-6, (0.0, 1.0))])
def test_minimize_lands_on_the_seed_ray_at_any_vev(v, seed):
    # oracle: z0 = v * seed / |seed|, far inside or outside the vacuum sphere
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"), lam=1.0, v=v)
    vac = minimize(model, np.array(seed))
    assert vac.z0[0] == 0.0
    assert vac.z0[1].imag == 0.0
    assert vac.z0[1].real == pytest.approx(v, rel=1e-15)
    assert (vac.goldstone_count, vac.physical_count, vac.isotropy.shape) == (3, 1, (1, 4))


def _custom(derivative_roots):
    """p(s) with p'(s) = prod (s - r) and p(0) = 0."""
    return HiggsModel(su2_doublet(), P.polyint(P.polyfromroots(derivative_roots)))


def test_minimize_returns_the_global_well_on_the_ray():
    # p' = (s - 1)(s - 2)(s - 4): wells at s = 1 (p = -37/12) and s = 4
    # (p = -16/3); the seed sits next to the shallow one
    model = _custom([1.0, 2.0, 4.0])
    vac = minimize(model, np.array([0.0, 0.9]))
    assert np.abs(vac.z0 - np.array([0.0, 2.0])).max() <= 1e-14
    assert vac.value == pytest.approx(-16.0 / 3.0, rel=1e-14)


def test_minimize_at_the_origin_breaks_nothing():
    # p = s + s^2 is increasing on s >= 0: the minimum is the origin, with
    # the full algebra unbroken
    model = HiggsModel(su2_doublet(), [0.0, 1.0, 1.0])
    vac = minimize(model, np.array([0.3, 0.4j]))
    assert np.array_equal(vac.z0, np.zeros(2))
    assert (vac.goldstone_count, vac.physical_count, vac.isotropy.shape) == (0, 4, (3, 3))
    assert vac.transversal_hessian_eigs == pytest.approx([2.0] * 4, abs=0.0)


def test_minimize_keeps_relative_accuracy_in_large_units():
    # degree 6 with wells at s = 500, 3000 and 11000; the deepest is the last
    roots = np.array([0.5, 2.0, 3.0, 7.3, 11.0]) * 1e3
    model = _custom(roots)
    vac = minimize(model, np.array([0.0, 1.0]))
    s = float(np.vdot(vac.z0, vac.z0).real)
    assert s == pytest.approx(11000.0, rel=1e-13)
    c1 = P.polyder(model.coeffs)
    # |p'(s*)| at the rounding level of evaluating p' there
    assert abs(P.polyval(s, c1)) <= 1e-12 * P.polyval(s, np.abs(c1))
    assert vac.value < min(potential_eval(model, np.array([0.0, np.sqrt(r)])) for r in roots[[0, 2]])


def test_minimize_electroweak_breaking_pattern():
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"), lam=1.0, v=2.0)
    vac = minimize(model, np.array([0.0, 1.0]))
    assert np.abs(vac.z0 - np.array([0.0, 2.0])).max() <= 1e-8
    assert vac.isotropy.shape == (1, 4)
    assert vac.goldstone_count == 3
    assert vac.physical_count == 1
    # oracle: second derivative of lam (r^2 - v^2)^2 along the radius at
    # r = v is 8 lam v^2 = 32
    assert vac.transversal_hessian_eigs.min() == pytest.approx(32.0, abs=1e-6)


def test_goldstone_split_at_zero_is_all_physical():
    iso, G, P = isotropy_algebra(su2_doublet(), np.zeros(2))
    assert iso.shape == (3, 3)
    assert G.shape == (4, 0)
    assert np.abs(P - np.eye(4)).max() == 0.0


def test_goldstone_split_electroweak():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    iso, G, P = isotropy_algebra(rep, z0)
    # the group-theory counts: su(2)+u(1) breaks to a u(1), 3 Goldstones
    assert iso.shape == (1, 4)
    assert G.shape == (4, 3)
    assert P.shape == (4, 1)
    # physical direction is radial: realify((0, 1)) = e_2 in interleaved coords
    assert np.abs(np.abs(P[:, 0]) - np.array([0.0, 0.0, 1.0, 0.0])).max() <= 1e-12
    # orthonormal and jointly complete
    B = np.hstack([G, P])
    assert np.abs(B.T @ B - np.eye(4)).max() <= 1e-12


def test_goldstone_split_u1_phase():
    # u(1) acting on C by phase: one Goldstone (imaginary direction),
    # one physical (real direction) at z0 = v
    import fermimass

    u1 = fermimass.LieAlgebraRep(generators=(np.array([[-1j]]),), label="u1")
    iso, G, P = isotropy_algebra(u1, np.array([2.0]))
    assert iso.shape == (0, 1)
    assert G.shape == (2, 1) and P.shape == (2, 1)
    assert np.abs(np.abs(G[:, 0]) - np.array([0.0, 1.0])).max() <= 1e-12
    assert np.abs(np.abs(P[:, 0]) - np.array([1.0, 0.0])).max() <= 1e-12


def test_unitary_gauge_projection_fixes_physical():
    rep = ew_rep(+1.0, 2, "higgs")
    _, *split = isotropy_algebra(rep, np.array([0.0, 2.0]))
    phi = np.array([0.0, 0.7])  # already physical (radial)
    assert np.abs(unitary_gauge_project(split, phi) - phi).max() <= 1e-12


def test_unitary_gauge_projection_kills_goldstone():
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    _, *split = isotropy_algebra(rep, z0)
    phi = rep.element(np.array([1.0, 0.0, 0.0, 0.0])) @ z0
    assert np.abs(unitary_gauge_project(split, phi)).max() <= 1e-12


def test_unitary_gauge_projection_idempotent():
    rep = ew_rep(+1.0, 2, "higgs")
    _, *split = isotropy_algebra(rep, np.array([0.0, 2.0]))
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    once = unitary_gauge_project(split, phi)
    twice = unitary_gauge_project(split, once)
    assert np.abs(once - twice).max() <= 1e-12


def test_minima_are_gauge_covariant():
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"))
    vac = minimize(model, np.array([0.0, 1.0]))
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = exp_map(model.rep, rng.standard_normal(4))
        moved = g @ vac.z0
        assert abs(potential_eval(model, moved) - vac.value) <= 1e-9
        assert isotropy_algebra(model.rep, moved)[0].shape == vac.isotropy.shape


def test_hessian_flat_on_goldstone_positive_on_physical():
    model = mexican_hat_on(ew_rep(+1.0, 2, "higgs"))
    vac = minimize(model, np.array([0.0, 1.0]))
    H = hessian(model, vac.z0)
    G, P = vac.goldstone_basis, vac.physical_basis
    assert np.abs(G.T @ H @ G).max() <= 1e-7
    assert np.linalg.eigvalsh(P.T @ H @ P).min() > 0.0


def test_goldstone_basis_spans_orbit_directions():
    # every realified orbit direction X_i z0 lies in the Goldstone span
    rep = ew_rep(+1.0, 2, "higgs")
    z0 = np.array([0.0, 2.0])
    _, G, _ = isotropy_algebra(rep, z0)
    for X in rep.generators:
        t = realify(X @ z0)
        residual = t - G @ (G.T @ t)
        assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(t).max())
