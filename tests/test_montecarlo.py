import math

import numpy as np
import pytest

import gexpect as gx
from gexpect import montecarlo as mc


def test_constant_control_qv_exact(band12):
    ctrl = mc.ControlProcess.constant(1.5)
    bundle = gx.simulate(ctrl, 50, 64, seed=1, band=band12)
    assert bundle.qv[-1] == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(np.diff(bundle.qv), 1.5 / 64)
    assert np.all(bundle.paths[:, 0] == 0.0)


def test_two_piece_control_qv(band12):
    ctrl = mc.ControlProcess([0.0, 0.5, 1.0], [1.0, 2.0])
    bundle = gx.simulate(ctrl, 10, 64, seed=1, band=band12)
    assert bundle.qv[-1] == pytest.approx(1.5, abs=1e-12)
    assert bundle.qv[32] == pytest.approx(0.5, abs=1e-12)


def test_sample_variance_of_terminal(band12):
    bundle = gx.simulate(mc.ControlProcess.constant(2.0), 100_000, 4, seed=3,
                         band=band12)
    var = bundle.paths[:, -1].var(ddof=1)
    # var of the sample variance of a Gaussian: 2 sigma^4 / (n-1)
    three_sigma = 3.0 * math.sqrt(2.0 * 4.0 / 99_999)
    assert abs(var - 2.0) <= three_sigma


def test_determinism_and_prefix_stability():
    ctrl = mc.ControlProcess.constant(1.0)
    b1 = gx.simulate(ctrl, 100, 32, seed=9)
    b2 = gx.simulate(ctrl, 100, 32, seed=9)
    assert np.array_equal(b1.paths, b2.paths)
    # a path's draws do not depend on how many paths are requested
    b3 = gx.simulate(ctrl, 40, 32, seed=9)
    assert np.array_equal(b1.paths[:40], b3.paths)
    b4 = gx.simulate(ctrl, 100, 32, seed=10)
    assert not np.array_equal(b1.paths, b4.paths)


def test_block_boundary_stability():
    ctrl = mc.ControlProcess.constant(1.0)
    big = gx.simulate(ctrl, mc.PATH_BLOCK + 7, 4, seed=5)
    small = gx.simulate(ctrl, mc.PATH_BLOCK - 1, 4, seed=5)
    assert np.array_equal(big.paths[:mc.PATH_BLOCK - 1], small.paths)


def test_control_validation(band12):
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(2.5).validate(band12)
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(0.5).validate(band12)
    with pytest.raises(ValueError):
        mc.ControlProcess([0.0, 0.7], [1.0])        # does not end at 1
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(1.0, floor=0.0)  # floor must be positive
    degenerate = gx.VolBand.scalar(0.0, 2.0)
    ctrl = mc.ControlProcess.constant(1e-6, floor=1e-6)
    ctrl.validate(degenerate)  # floored lower bound admits the floor value
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(1e-9, floor=1e-6).validate(degenerate)


def test_breakpoints_must_sit_on_grid(band12):
    ctrl = mc.ControlProcess([0.0, 1 / 3, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        gx.simulate(ctrl, 10, 64, seed=1, band=band12)
    gx.simulate(ctrl, 10, 63, seed=1, band=band12)  # 63 steps: 1/3 on grid


def test_family_constructors(band12):
    fam = gx.ControlFamily.constants(band12, 9)
    assert len(fam) == 9
    vals = [c.values[0] for c in fam]
    assert vals[0] == pytest.approx(1.0) and vals[-1] == pytest.approx(2.0)
    rich = gx.ControlFamily.with_random_piecewise(band12, 3, 4, seed=2,
                                                  base=fam)
    assert len(rich) == 12
    for c in rich:
        c.validate(band12)
    with pytest.raises(ValueError):
        gx.ControlFamily(band12, [])


def test_family_file_round_trip(tmp_path, band12):
    fam = gx.ControlFamily.with_random_piecewise(
        band12, 2, 4, seed=3, base=gx.ControlFamily.constants(band12, 3))
    path = tmp_path / "family.txt"
    gx.write_family(fam, path)
    loaded = gx.read_family(path, band12)
    assert len(loaded) == len(fam)
    for a, b in zip(fam, loaded):
        assert a.label == b.label
        assert np.allclose(a.breakpoints, b.breakpoints)
        assert np.allclose(a.values, b.values)


def test_dual_value_quadratic(band12):
    fam = gx.ControlFamily.constants(band12, 5)
    res = gx.dual_value(gx.PayoffSpec.parse("sq(x1)"), fam, 40_000, 64, seed=4)
    assert res.argmax.label == "const-2"
    assert res.value == pytest.approx(2.0, abs=3.0 * res.stderr + 1e-6)
    res_neg = gx.dual_value(gx.PayoffSpec.parse("neg(sq(x1))"), fam, 40_000,
                            64, seed=4)
    assert res_neg.argmax.label == "const-1"
    assert res_neg.value == pytest.approx(-1.0, abs=3.0 * res_neg.stderr + 1e-6)


def test_dual_value_consistent_with_simulate(band12):
    # the streamed estimator and the materialized bundle share one stream
    # contract: identical paths for identical (seed, path index)
    fam = gx.ControlFamily(band12, [mc.ControlProcess.constant(1.5)])
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    res = gx.dual_value(payoff, fam, 1000, 64, seed=77)
    bundle = gx.simulate(mc.ControlProcess.constant(1.5), 1000, 64, seed=77)
    xi = payoff.evaluate(bundle.monitor_values(payoff.times))
    assert res.value == pytest.approx(float(xi.mean()), abs=1e-12)


def test_dual_value_constant_exact(band12):
    fam = gx.ControlFamily.constants(band12, 3)
    res = gx.dual_value(gx.PayoffSpec.parse("const(3)"), fam, 100, 16, seed=4)
    assert res.value == 3.0 and res.stderr == 0.0


def test_dual_monotone_in_family(band12):
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    small = gx.ControlFamily.constants(band12, 3)
    large = gx.ControlFamily.constants(band12, 9)
    v_small = gx.dual_value(payoff, small, 20_000, 64, seed=6).value
    v_large = gx.dual_value(payoff, large, 20_000, 64, seed=6).value
    # the 9-point grid contains the 3-point grid; matched seeds
    assert v_large >= v_small - 1e-12


def test_dual_is_lower_bound_of_pde(band12, grid201, field_cache):
    fam = gx.ControlFamily.constants(band12, 5)
    for src, tol in (("sq(x1)", 1e-2), ("call(x1, 0)", 1e-2),
                     ("min(abs(x1), 1)", 1e-2)):
        field = field_cache(src)
        value = field.value(0.0, (), 0.0)
        res = gx.dual_value(gx.PayoffSpec.parse(src), fam, 20_000, 64, seed=8)
        assert res.value <= value + 2.0 * res.stderr + tol


def test_conditional_supremum_quadratic(band12, field_cache):
    field = field_cache("sq(x1)")
    payoff = gx.PayoffSpec.parse("sq(x1)")
    bundle = gx.simulate(mc.ControlProcess.constant(1.5), 500, 64, seed=5)
    vals, clamped = gx.conditional_supremum(payoff, field, bundle, 0.5)
    x = bundle.paths[:, 32]
    assert not clamped.any()
    assert np.abs(vals - (x * x + 1.0)).max() <= 5e-3
    # terminal read is the payoff itself, exactly
    vals1, _ = gx.conditional_supremum(payoff, field, bundle, 1.0)
    assert np.array_equal(vals1, bundle.paths[:, -1] ** 2)
    # time-0 read is deterministic
    vals0, _ = gx.conditional_supremum(payoff, field, bundle, 0.0)
    assert np.ptp(vals0) == 0.0
    assert vals0[0] == pytest.approx(2.0, abs=1e-2)


def test_lp_norm_constant_is_exact(band12, grid201):
    payoff = gx.PayoffSpec.parse("const(1)")
    field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
    fam = gx.ControlFamily.constants(band12, 3)
    for p in (1.0, 2.0, 4.0):
        assert gx.lp_norm(payoff, p, fam, field, 200, 32, seed=7) == \
            pytest.approx(1.0, abs=1e-12)


def test_lp_norm_linear_lower_bound(band12, grid201):
    payoff = gx.PayoffSpec.parse("x1")
    field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
    fam = gx.ControlFamily.constants(band12, 5)
    val = gx.lp_norm(payoff, 2.0, fam, field, 4000, 128, seed=7)
    assert val >= math.sqrt(2.0) * 0.95


def test_norm_chain_spot_check(band12, grid201):
    # the maximal-value norm dominates the plain second-moment estimate
    # (matched seeds; the terminal date is on the sup grid)
    fam = gx.ControlFamily.constants(band12, 5)
    for src in ("min(abs(x1), 1)", "call(x1, 0)", "abs(x1)"):
        payoff = gx.PayoffSpec.parse(src)
        field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
        val = gx.lp_norm(payoff, 2.0, fam, field, 2000, 64, seed=19)
        assert math.isfinite(val)
        moment = 0.0
        for c in fam:
            bundle = gx.simulate(c, 2000, 64, seed=19)
            xi = payoff.evaluate(bundle.monitor_values(payoff.times))
            moment = max(moment, float(np.mean(xi * xi)))
        assert val >= math.sqrt(moment) - 5e-3


def test_lp_norm_monotone_in_p(band12, grid201):
    payoff = gx.PayoffSpec.parse("min(abs(x1), 1)")
    field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
    fam = gx.ControlFamily.constants(band12, 3)
    v1 = gx.lp_norm(payoff, 1.0, fam, field, 1000, 64, seed=7)
    v2 = gx.lp_norm(payoff, 2.0, fam, field, 1000, 64, seed=7)
    assert v1 <= v2 + 1e-12


def test_lp_norm_field_mismatch_rejected(band12, grid201, field_cache):
    payoff = gx.PayoffSpec.parse("x1")
    fam = gx.ControlFamily.constants(band12, 3)
    wrong = field_cache("sq(x1)")
    with pytest.raises(ValueError):
        gx.lp_norm(payoff, 2.0, fam, wrong, 100, 32, seed=7)


def test_path_fold_energy_and_sup(band12):
    # the per-path reducers the decomposition folds share, fed 16-column
    # slabs: int alpha H^2 dt of H = 1 is int alpha dt, of H = 0 is 0,
    # and the sup of |Y| = 3 is 3
    fam = gx.ControlFamily.constants(band12, 5)
    bundles = [gx.simulate(c, 2000, 64, seed=11) for c in fam]

    def fold(ufunc, arrays):
        acc = mc.PathFold(ufunc)
        for start in range(0, arrays.shape[1], 16):
            acc.add(arrays[:, start:start + 16])
        return acc.value

    for b in bundles:
        ones = fold(np.add, mc.energy(np.ones((2000, 64)), b.alpha, b.dt))
        assert np.abs(ones - b.alpha[0]).max() <= 1e-12
        zeros = fold(np.add, mc.energy(np.zeros((2000, 64)), b.alpha, b.dt))
        assert (zeros == 0.0).all()
    sup = fold(np.maximum, np.abs(np.full((2000, 65), -3.0)))
    assert (sup == 3.0).all()
    # running maxima and minima are exact, whatever the slab width
    y = bundles[0].paths
    assert np.array_equal(fold(np.maximum, y), y.max(axis=1))
    assert np.array_equal(fold(np.minimum, y), y.min(axis=1))
    # a slab with no column leaves the fold as it was
    acc = mc.PathFold(np.maximum)
    acc.add(np.empty((2000, 0)))
    assert acc.value is None
    with pytest.raises(ValueError):
        mc.energy(np.ones((2000, 63)), bundles[0].alpha, bundles[0].dt)


def test_qv_identity_scaling(band12):
    bundle = gx.simulate(mc.ControlProcess.constant(1.5), 1000, 2 ** 12, seed=13)
    rep = gx.qv_identity_check(bundle)
    assert rep.rms_terminal <= 5.0 * math.sqrt(bundle.dt) * 2.0
    fine = gx.simulate(mc.ControlProcess.constant(1.5), 1000, 2 ** 14, seed=13)
    rep_fine = gx.qv_identity_check(fine)
    ratio = rep.rms_terminal / rep_fine.rms_terminal
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3  # halves when steps quadruple


def test_qv_identity_zero_increments(band12):
    bundle = gx.simulate(mc.ControlProcess.constant(1.0), 1, 16, seed=1)
    silent = mc.PathBundle(bundle.control, 1, bundle.times,
                           np.zeros_like(bundle.increments),
                           np.zeros_like(bundle.paths),
                           bundle.alpha, np.zeros_like(bundle.qv))
    assert gx.qv_identity_check(silent).max_abs_residual == 0.0


def test_simulate_matrix_control():
    band = gx.VolBand(np.eye(2), 2.0 * np.eye(2))
    ctrl = mc.ControlProcess([0.0, 1.0], np.array([1.5 * np.eye(2)]),
                             label="iso-1.5")
    bundle = gx.simulate(ctrl, 20_000, 8, seed=17, band=band)
    assert bundle.paths.shape == (20_000, 9, 2)
    cov = np.cov(bundle.paths[:, -1, :].T)
    assert np.allclose(cov, 1.5 * np.eye(2), atol=0.06)
    assert np.allclose(bundle.qv[-1], 1.5 * np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        gx.qv_identity_check(bundle)


def test_derive_seed_stable():
    assert mc.derive_seed(7, "a") == mc.derive_seed(7, "a")
    assert mc.derive_seed(7, "a") != mc.derive_seed(7, "b")
    assert mc.derive_seed(7, "a") != mc.derive_seed(8, "a")


def test_bundle_csv_export(tmp_path):
    bundle = gx.simulate(mc.ControlProcess.constant(1.0), 5, 8, seed=2)
    path = tmp_path / "paths.csv"
    bundle.to_csv(path, max_paths=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "path_id,t,X,qv,alpha"
    assert len(lines) == 1 + 2 * 9


def _power_mean_reference(samples, p):
    # the per-control estimator the moments accumulator replaced
    m = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    value = m ** (1.0 / p) if m > 0 else 0.0
    dse = se / (p * m ** (1.0 - 1.0 / p)) if m > 0 else se
    return value, dse


def test_moments_merge_matches_numpy():
    rng = np.random.default_rng(101)
    blocks = [rng.lognormal(size=n) for n in (4096, 4096, 100, 1)]
    merged = mc.Moments.of(blocks[0])
    for b in blocks[1:]:
        merged = merged.merge(mc.Moments.of(b))
    x = np.concatenate(blocks)
    assert merged.n == len(x)
    assert merged.mean == pytest.approx(x.mean(), rel=1e-12)
    assert math.sqrt(merged.m2 / (merged.n - 1)) == pytest.approx(
        x.std(ddof=1), rel=1e-12)
    assert (merged.lo, merged.hi) == (x.min(), x.max())
    for p in (1.0, 2.0, 4.0):
        value, se = merged.root(p)
        ref_value, ref_se = _power_mean_reference(x, p)
        assert value == pytest.approx(ref_value, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)
    # one block is numpy's estimate exactly; an empty block merges away
    one = mc.Moments.of(blocks[0])
    assert one.mean == blocks[0].mean()
    assert one.stderr == blocks[0].std(ddof=1) / math.sqrt(4096)
    assert one.merge(mc.Moments.of([])) == one
    assert mc.Moments.of(np.zeros(10)).root(2.0) == (0.0, 0.0)
