import math

import numpy as np
import pytest

import gexpect as gx
from gexpect.nonlinearity import as_symmetric, eval_g_scalar

from conftest import brute_force_g1


def test_scalar_closed_form_examples(band12):
    assert gx.eval_g(4.0, band12) == pytest.approx(4.0, abs=1e-14)
    assert gx.eval_g(-4.0, band12) == pytest.approx(-2.0, abs=1e-14)
    assert gx.eval_g(0.0, band12) == 0.0


def test_scalar_matches_brute_force():
    rng = np.random.default_rng(100)
    for _ in range(50):
        lo = rng.uniform(0.0, 2.0)
        up = lo + rng.uniform(0.05, 3.0)
        gamma = rng.uniform(-10.0, 10.0)
        band = gx.VolBand.scalar(lo, up)
        assert gx.eval_g(gamma, band) == pytest.approx(
            brute_force_g1(gamma, lo, up), abs=1e-10)


def test_isotropic_matrix_example():
    band = gx.VolBand(np.eye(2), 2.0 * np.eye(2))
    gamma = np.diag([2.0, -2.0])
    # brute force over diagonal a in [1,2]^2 (feasible for diagonal bounds)
    grid = np.linspace(1.0, 2.0, 200)
    oracle = 0.5 * max(2.0 * a1 - 2.0 * a2 for a1 in grid for a2 in grid)
    assert oracle == pytest.approx(1.0)
    assert gx.eval_g(gamma, band) == pytest.approx(1.0, abs=1e-12)


def test_transform_matches_diagonal_brute_force():
    lo = np.diag([0.5, 1.0])
    up = np.diag([1.5, 3.0])
    band = gx.VolBand(lo, up)
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.uniform(-4.0, 4.0, size=2)
        gamma = np.diag(d)
        # diagonal bounds: the feasible diagonal is the box, maximized
        # componentwise at the endpoints
        oracle = 0.5 * sum(max(di * lo[i, i], di * up[i, i])
                           for i, di in enumerate(d))
        got = gx.eval_g(gamma, band)
        assert got == pytest.approx(oracle, abs=1e-12)


def test_transform_matches_rotated_brute_force():
    # a band and curvature sharing one eigenbasis: rotate the diagonal case
    rng = np.random.default_rng(8)
    theta = 0.7
    q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    d_lo = np.array([0.4, 1.2])
    d_up = np.array([1.1, 2.5])
    band = gx.VolBand(q @ np.diag(d_lo) @ q.T, q @ np.diag(d_up) @ q.T)
    for _ in range(20):
        g = rng.uniform(-4.0, 4.0, size=2)
        gamma = q @ np.diag(g) @ q.T
        oracle = 0.5 * sum(max(gi * li, gi * ui)
                           for gi, li, ui in zip(g, d_lo, d_up))
        assert gx.eval_g(gamma, band) == pytest.approx(oracle, abs=1e-12)


def test_transform_agrees_with_isotropic_closed_form():
    band = gx.VolBand(0.5 * np.eye(3), 2.0 * np.eye(3))
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.uniform(-2, 2, size=(3, 3))
        gamma = 0.5 * (m + m.T)
        # isotropic bands: a_upper on the positive eigenvalues, a_lower on
        # the rest
        eig = np.linalg.eigvalsh(gamma)
        closed = 0.5 * (2.0 * eig[eig > 0].sum() + 0.5 * eig[eig <= 0].sum())
        assert gx.eval_g(gamma, band) == pytest.approx(closed, abs=1e-11)


def test_transform_matches_sdp_oracle():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(10)
    for d in (2, 3):
        for _ in range(3):
            m = rng.uniform(-1, 1, (d, d))
            lo = 0.3 * (m + m.T) @ (m + m.T).T
            b = rng.uniform(-1, 1, (d, d))
            up = lo + 0.5 * (b + b.T) @ (b + b.T).T + 0.1 * np.eye(d)
            band = gx.VolBand(lo, up)
            g = rng.uniform(-3, 3, (d, d))
            gamma = 0.5 * (g + g.T)
            a = cp.Variable((d, d), symmetric=True)
            prob = cp.Problem(cp.Maximize(0.5 * cp.trace(gamma @ a)),
                              [a - lo >> 0, up - a >> 0])
            prob.solve(solver=cp.SCS, eps=1e-10)
            assert gx.eval_g(gamma, band) == pytest.approx(prob.value,
                                                           abs=5e-7)


def test_transform_handles_degenerate_gap():
    # the gap is rank-deficient: the band collapses in one direction
    band = gx.VolBand(np.diag([1.0, 1.0]), np.diag([1.0, 2.0]))
    gamma = np.array([[1.0, 0.5], [0.5, -2.0]])
    # only a_22 is free; off-diagonal feasibility forces a to stay diagonal
    grid = np.linspace(1.0, 2.0, 2001)
    oracle = 0.5 * max(1.0 * 1.0 + (-2.0) * a22 for a22 in grid)
    assert gx.eval_g(gamma, band) == pytest.approx(oracle, abs=1e-12)


def test_positive_homogeneity():
    rng = np.random.default_rng(1)
    band = gx.VolBand.scalar(0.7, 2.3)
    for _ in range(100):
        gamma = rng.uniform(-5, 5)
        c = rng.uniform(0, 10)
        lhs = gx.eval_g(c * gamma, band)
        rhs = c * gx.eval_g(gamma, band)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_subadditivity_and_monotonicity_scalar():
    rng = np.random.default_rng(2)
    band = gx.VolBand.scalar(0.5, 2.0)
    for _ in range(200):
        g1, g2 = rng.uniform(-5, 5, size=2)
        assert (gx.eval_g(g1 + g2, band)
                <= gx.eval_g(g1, band) + gx.eval_g(g2, band) + 1e-12)
        if g1 <= g2:
            assert gx.eval_g(g1, band) <= gx.eval_g(g2, band) + 1e-12


def test_matrix_monotonicity_isotropic():
    band = gx.VolBand(0.5 * np.eye(2), 2.0 * np.eye(2))
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.uniform(-1, 1, size=(2, 2))
        gamma = 0.5 * (m + m.T)
        bump = rng.uniform(0, 1, size=(2, 2))
        psd = bump @ bump.T
        assert (gx.eval_g(gamma, band)
                <= gx.eval_g(gamma + psd, band) + 1e-10)


def test_matrix_properties_general_band():
    # homogeneity, subadditivity and monotonicity on a non-isotropic band
    band = gx.VolBand(np.array([[0.6, 0.1], [0.1, 0.9]]),
                      np.array([[1.8, 0.2], [0.2, 2.6]]))
    rng = np.random.default_rng(12)
    for _ in range(50):
        m1, m2 = rng.uniform(-2, 2, (2, 2, 2))
        g1, g2 = 0.5 * (m1 + m1.T), 0.5 * (m2 + m2.T)
        c = rng.uniform(0, 5)
        assert gx.eval_g(c * g1, band) == pytest.approx(
            c * gx.eval_g(g1, band), rel=1e-10, abs=1e-10)
        assert (gx.eval_g(g1 + g2, band)
                <= gx.eval_g(g1, band) + gx.eval_g(g2, band) + 1e-10)
        bump = rng.uniform(-1, 1, (2, 2))
        assert (gx.eval_g(g1, band)
                <= gx.eval_g(g1 + bump @ bump.T, band) + 1e-10)


def test_validation_errors():
    with pytest.raises(ValueError):
        as_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        gx.VolBand.scalar(2.0, 1.0)       # lower above upper
    with pytest.raises(ValueError):
        gx.VolBand.scalar(-0.5, 1.0)      # negative lower bound
    with pytest.raises(ValueError):
        gx.VolBand.scalar(0.0, 0.0)       # upper not positive definite
    band = gx.VolBand(np.eye(2), 2 * np.eye(2))
    with pytest.raises(ValueError):
        gx.eval_g(np.array([[0.0, 1.0], [0.5, 0.0]]), band)


def test_sym_floor():
    a = np.diag([0.0, 2.0])
    lifted = gx.sym_floor(a, 0.1)
    assert np.allclose(np.linalg.eigvalsh(lifted), [0.1, 2.0])


# --- mollified approximation ------------------------------------------------

def test_mollify_sandwich_example(band12):
    mol = gx.mollify(band12, 0.1)
    val = mol.g_eps(10.0)
    bar = mol.g_bar(10.0)
    assert bar == pytest.approx(10.0, abs=1e-12)
    assert 10.0 - 1e-12 <= val <= 10.0 + 0.1 * mol.cstar + 1e-12


def test_mollify_epsilon_convergence(band12):
    grid = np.linspace(-6, 6, 121)
    exact = eval_g_scalar(grid, 1.0, 2.0)
    sups = []
    for eps in (0.1, 0.05, 0.025):
        mol = gx.mollify(band12, eps)
        sups.append(np.abs(mol.g_eps(grid) - exact).max())
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 0.025 * gx.mollify(band12, 0.025).cstar + 1e-12


def test_mollify_lifts_degenerate_lower():
    band = gx.VolBand.scalar(0.0, 2.0)
    mol = gx.mollify(band, 0.1)
    assert mol.lifted_lower == pytest.approx(0.1)


def test_mollify_gradient_sandwich(band12):
    mol = gx.mollify(band12, 0.1)
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = rng.uniform(-5, 5)
        inc = rng.uniform(0, 3)
        diff = mol.g_eps(g + inc) - mol.g_eps(g)
        assert 0.5 * mol.lifted_lower * inc - 1e-10 <= diff
        assert diff <= 0.5 * mol.upper * inc + 1e-10


def test_mollify_rejects_bad_input(band12):
    with pytest.raises(ValueError):
        gx.mollify(band12, 1.5)
    with pytest.raises(ValueError):
        gx.mollify(band12, 0.0)
    with pytest.raises(ValueError):
        gx.mollify(gx.VolBand(np.eye(2), 2 * np.eye(2)), 0.1)


def test_sandwich_check(band12):
    mol1 = gx.mollify(band12, 0.1)
    grid = np.arange(-20.0, 20.0 + 1e-9, 0.5)
    gap1 = gx.sandwich_check(mol1, grid)
    assert gap1 >= 0.0
    mol2 = gx.mollify(band12, 0.05)
    gap2 = gx.sandwich_check(mol2, grid)
    ratio1, ratio2 = gap1 / 0.1, gap2 / 0.05
    assert abs(ratio1 - ratio2) <= 0.25 * max(ratio1, ratio2)
    # the gap at the kink alone: g_bar(0) = 0
    assert gx.sandwich_check(mol1, [0.0]) == pytest.approx(mol1.g_eps(0.0))
    assert mol1.g_eps(0.0) >= 0.0


def test_legendre_bounds_and_sentinel(band12):
    mol = gx.mollify(band12, 0.1)
    val = gx.legendre(mol, 2.0)
    assert -mol.cstar * 0.1 - 1e-9 <= val <= 1e-9
    assert math.isinf(gx.legendre(mol, 0.5))         # below the lifted band
    assert math.isinf(gx.legendre(mol, 2.5))         # above the band
    for a in np.linspace(mol.lifted_lower, 2.0, 9):
        v = gx.legendre(mol, a)
        assert -mol.cstar * 0.1 - 1e-9 <= v <= 1e-9


def _bounded_search_legendre(mol, a):
    """legendre with its bracket refined by scipy's bounded scalar search
    (xatol 1e-12), as an independent oracle."""
    from scipy.optimize import minimize_scalar

    trunc = 100.0 * (1.0 + abs(a))
    grid = np.unique(np.concatenate([
        np.linspace(-trunc, trunc, 2001),
        np.linspace(-2.0 * mol.epsilon, 2.0 * mol.epsilon, 401)]))
    vals = 0.5 * a * grid - mol.g_eps(grid)
    k = int(np.argmax(vals))
    lo, hi = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    res = minimize_scalar(lambda y: -(0.5 * a * y - mol.g_eps(y)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(float(vals[k]), float(-res.fun))


@pytest.mark.parametrize("lower,upper", [(1.0, 2.0), (0.0, 1.0), (0.5, 3.0)])
def test_legendre_matches_bounded_search(lower, upper):
    # the numpy bracket refinement attains at least the scipy search's
    # value, within 2e-11 of it, and stays in [-cstar*eps, 0] up to rounding
    band = gx.VolBand.scalar(lower, upper)
    for eps in (0.1, 0.05, 0.025, 0.5):
        mol = gx.mollify(band, eps)
        for a in np.linspace(mol.lifted_lower, mol.upper, 10):
            got = gx.legendre(mol, a)
            want = _bounded_search_legendre(mol, a)
            assert want - 1e-15 <= got <= want + 2e-11
            assert -mol.cstar * eps - 1e-12 <= got <= 1e-12


def test_legendre_duality_roundtrip(band12):
    # biconjugate identity: sup_a { a*gamma/2 - L(a) } recovers the smoothed
    # form (brute force over an a-grid)
    mol = gx.mollify(band12, 0.1)
    a_grid = np.linspace(mol.lifted_lower, mol.upper, 41)
    lvals = np.array([gx.legendre(mol, a) for a in a_grid])
    for gamma in (-5.0, -1.0, 0.0, 0.3, 2.0):
        recon = np.max(0.5 * a_grid * gamma - lvals)
        assert recon == pytest.approx(mol.g_eps(gamma), abs=2e-4)


def test_acceptance_speed_closed_form_vs_brute():
    import time

    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(100):
        lo = rng.uniform(0.0, 2.0)
        up = lo + rng.uniform(0.05, 3.0)
        gamma = rng.uniform(-10.0, 10.0)
        band = gx.VolBand.scalar(lo, up)
        assert abs(gx.eval_g(gamma, band)
                   - brute_force_g1(gamma, lo, up)) <= 1e-10
    assert time.perf_counter() - start < 1.0
