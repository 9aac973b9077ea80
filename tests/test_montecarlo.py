import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import gexpect as gx
from gexpect import montecarlo as mc


def test_constant_control_qv_exact():
    ctrl = mc.ControlProcess.constant(1.5)
    bundle = gx.simulate(ctrl, 50, 64, seed=1)
    assert bundle.alpha.sum() / 64 == pytest.approx(1.5, abs=1e-12)
    assert np.all(bundle.alpha == 1.5)
    assert np.all(bundle.states()[:, 0] == 0.0)


def test_two_piece_control_qv():
    ctrl = mc.ControlProcess([0.0, 0.5, 1.0], [1.0, 2.0])
    bundle = gx.simulate(ctrl, 10, 64, seed=1)
    assert bundle.alpha.sum() / 64 == pytest.approx(1.5, abs=1e-12)
    assert bundle.alpha[:32].sum() / 64 == pytest.approx(0.5, abs=1e-12)
    assert np.all(bundle.alpha[:32] == 1.0) and np.all(bundle.alpha[32:] == 2.0)


def test_sample_variance_of_terminal():
    bundle = gx.simulate(mc.ControlProcess.constant(2.0), 100_000, 4, seed=3)
    var = bundle.states()[:, -1].var(ddof=1)
    # var of the sample variance of a Gaussian: 2 sigma^4 / (n-1)
    three_sigma = 3.0 * math.sqrt(2.0 * 4.0 / 99_999)
    assert abs(var - 2.0) <= three_sigma


def test_determinism_and_prefix_stability():
    ctrl = mc.ControlProcess.constant(1.0)
    b1 = gx.simulate(ctrl, 100, 32, seed=9)
    b2 = gx.simulate(ctrl, 100, 32, seed=9)
    assert np.array_equal(b1.states(), b2.states())
    # a path's draws do not depend on how many paths are requested
    b3 = gx.simulate(ctrl, 40, 32, seed=9)
    assert np.array_equal(b1.states()[:40], b3.states())
    b4 = gx.simulate(ctrl, 100, 32, seed=10)
    assert not np.array_equal(b1.states(), b4.states())


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_paths", [1, mc.PATH_BLOCK, mc.PATH_BLOCK + 1])
def test_simulate_holds_one_path_array(n_paths):
    # the blocks are copied into one array as they are drawn: the same
    # Brownian path as their concatenation, and no second copy of it
    ctrl = mc.ControlProcess.constant(1.0)
    n_steps = 64
    blocks = mc.iter_increment_blocks(7, n_paths, n_steps)
    want = np.cumsum(np.concatenate([blk for _, _, blk in blocks]), axis=1)
    assert np.array_equal(gx.simulate(ctrl, n_paths, n_steps, 7).brownian,
                          want)
    del want
    block = 8 * mc.PATH_BLOCK * n_steps
    peak = _traced_peak(gx.simulate, ctrl, n_paths, n_steps, 7)
    assert peak < 8 * n_paths * n_steps + block + (64 << 10)


@pytest.mark.parametrize("n_blocks, degree", [(3, 1), (5, 2)])
def test_sweep_holds_only_its_blocks_in_flight(band12, n_blocks, degree):
    # with a fold that keeps nothing, the peak is the `degree` blocks in
    # flight: no block of the batch before them is held while they are
    # drawn
    family = gx.ControlFamily(band12, [mc.ControlProcess.constant(1.5)])
    n_steps = 64
    block = 8 * mc.PATH_BLOCK * n_steps           # 2 MiB
    peak = _traced_peak(mc.sweep, family, n_blocks * mc.PATH_BLOCK, n_steps,
                        5, lambda bundle: (), degree)
    assert peak < (degree + 0.5) * block


def test_block_boundary_stability():
    ctrl = mc.ControlProcess.constant(1.0)
    big = gx.simulate(ctrl, mc.PATH_BLOCK + 7, 4, seed=5)
    small = gx.simulate(ctrl, mc.PATH_BLOCK - 1, 4, seed=5)
    assert np.array_equal(big.states()[:mc.PATH_BLOCK - 1], small.states())


def test_control_validation(band12):
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(2.5).validate(band12, 1e-6)
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(0.5).validate(band12, 1e-6)
    with pytest.raises(ValueError):
        mc.ControlProcess([0.0, 0.7], [1.0])        # does not end at 1
    degenerate = gx.VolBand.scalar(0.0, 2.0)
    ctrl = mc.ControlProcess.constant(1e-6)
    with pytest.raises(ValueError):                 # floor must be positive
        gx.ControlFamily(degenerate, [ctrl], floor=0.0)
    ctrl.validate(degenerate, 1e-6)  # floored lower bound admits the floor
    with pytest.raises(ValueError):
        mc.ControlProcess.constant(1e-9).validate(degenerate, 1e-6)


def test_breakpoints_must_sit_on_grid():
    ctrl = mc.ControlProcess([0.0, 1 / 3, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        gx.simulate(ctrl, 10, 64, seed=1)
    gx.simulate(ctrl, 10, 63, seed=1)  # 63 steps: 1/3 on grid


def test_family_constructors(band12):
    fam = gx.ControlFamily.constants(band12, 9)
    assert len(fam) == 9
    vals = [c.values[0] for c in fam]
    assert vals[0] == pytest.approx(1.0) and vals[-1] == pytest.approx(2.0)
    rich = gx.ControlFamily.with_random_piecewise(band12, 3, 4, seed=2,
                                                  base=fam)
    assert len(rich) == 12
    for c in rich:
        c.validate(band12, rich.floor)
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
    x = bundle.states()[:, 32]
    assert not clamped.any()
    assert np.abs(vals - (x * x + 1.0)).max() <= 5e-3
    # terminal read is the payoff itself, exactly
    vals1, _ = gx.conditional_supremum(payoff, field, bundle, 1.0)
    assert np.array_equal(vals1, bundle.states()[:, -1] ** 2)
    # time-0 read is deterministic
    vals0, _ = gx.conditional_supremum(payoff, field, bundle, 0.0)
    assert np.ptp(vals0) == 0.0
    assert vals0[0] == pytest.approx(2.0, abs=1e-2)


def test_lp_norm_constant_is_exact(band12, grid201):
    payoff = gx.PayoffSpec.parse("const(1)")
    field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
    fam = gx.ControlFamily.constants(band12, 3)
    for p in (1.0, 2.0, 4.0):
        assert gx.lp_norm_detail(payoff, p, fam, field, 200, 32,
                                 seed=7).value == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_linear_lower_bound(band12, grid201):
    payoff = gx.PayoffSpec.parse("x1")
    field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
    fam = gx.ControlFamily.constants(band12, 5)
    val = gx.lp_norm_detail(payoff, 2.0, fam, field, 4000, 128, seed=7).value
    assert val >= math.sqrt(2.0) * 0.95


def test_norm_chain_spot_check(band12, grid201):
    # the maximal-value norm dominates the plain second-moment estimate
    # (matched seeds; the terminal date is on the sup grid)
    fam = gx.ControlFamily.constants(band12, 5)
    for src in ("min(abs(x1), 1)", "call(x1, 0)", "abs(x1)"):
        payoff = gx.PayoffSpec.parse(src)
        field = gx.conditional_expectation(payoff.absolute(), band12, grid201)
        val = gx.lp_norm_detail(payoff, 2.0, fam, field, 2000, 64,
                                seed=19).value
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
    v1, v2 = (gx.lp_norm_detail(payoff, p, fam, field, 1000, 64, seed=7).value
              for p in (1.0, 2.0))
    assert v1 <= v2 + 1e-12


def test_lp_norm_field_mismatch_rejected(band12, grid201, field_cache):
    payoff = gx.PayoffSpec.parse("x1")
    fam = gx.ControlFamily.constants(band12, 3)
    wrong = field_cache("sq(x1)")
    with pytest.raises(ValueError):
        gx.lp_norm_detail(payoff, 2.0, fam, wrong, 100, 32, seed=7)


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
    y = bundles[0].states()
    assert np.array_equal(fold(np.maximum, y), y.max(axis=1))
    assert np.array_equal(fold(np.minimum, y), y.min(axis=1))
    # a slab with no column leaves the fold as it was
    acc = mc.PathFold(np.maximum)
    acc.add(np.empty((2000, 0)))
    assert acc.value is None
    with pytest.raises(ValueError):
        mc.energy(np.ones((2000, 63)), bundles[0].alpha, bundles[0].dt)


def test_simulate_matrix_control():
    band = gx.VolBand(np.eye(2), 2.0 * np.eye(2))
    ctrl = mc.ControlProcess([0.0, 1.0], np.array([1.5 * np.eye(2)]),
                             label="iso-1.5")
    gx.ControlFamily(band, [ctrl])      # inside the band
    bundle = gx.simulate(ctrl, 20_000, 8, seed=17)
    assert bundle.states().shape == (20_000, 9, 2)
    cov = np.cov(bundle.states()[:, -1, :].T)
    assert np.allclose(cov, 1.5 * np.eye(2), atol=0.06)
    assert np.allclose(bundle.alpha.sum(axis=0) / 8, 1.5 * np.eye(2),
                       atol=1e-12)


def _cumsum_oracle(control, n_paths, n_steps, seed):
    """X as the sum of sqrt(alpha) dW over the steps: the construction that
    built every control's paths from its own scaled increments."""
    dw = np.concatenate([blk for _, _, blk in mc.iter_increment_blocks(
        seed, n_paths, n_steps, control.d)])
    alpha = control.step_values(np.linspace(0.0, 1.0, n_steps + 1)[:-1])
    if control.d == 1:
        dx = np.sqrt(alpha) * dw
    else:
        w, v = np.linalg.eigh(alpha)
        root = (v * np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)
        dx = np.einsum("kij,nkj->nki", root, dw)
    x = np.zeros((n_paths, n_steps + 1) + dw.shape[2:])
    np.cumsum(dx, axis=1, out=x[:, 1:])
    return x


MATRIX_BAND = gx.VolBand(np.eye(2), 2.0 * np.eye(2))
SKEW = np.array([[1.5, 0.2], [0.2, 1.2]])


def _controls():
    band = gx.VolBand.scalar(1.0, 2.0)
    pieces = gx.ControlFamily.with_random_piecewise(band, 1, 4, seed=3)
    return [(mc.ControlProcess.constant(1.5), band),
            (pieces.controls[0], band),
            (mc.ControlProcess([0.0, 1.0], np.array([1.5 * np.eye(2)]),
                               label="iso-1.5"), MATRIX_BAND),
            (mc.ControlProcess([0.0, 0.5, 1.0],
                               np.array([SKEW, 1.9 * np.eye(2) - SKEW / 2]),
                               label="skew"), MATRIX_BAND)]


@pytest.mark.parametrize("case", range(4))
def test_states_match_scaled_increment_sums(case):
    # X from the shared Brownian path, piece by piece, against the running
    # sum of sqrt(alpha) dW: equal up to rounding
    control, band = _controls()[case]
    gx.ControlFamily(band, [control])   # inside the band
    bundle = gx.simulate(control, 300, 64, seed=5)
    want = _cumsum_oracle(control, 300, 64, 5)

    def close(got, ref):
        return (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()

    got = bundle.states()
    assert got.shape == want.shape
    assert close(got, want)
    assert (got[:, 0] == 0.0).all()
    # the pieces start at multiples of 16 steps, so a march slab's 17
    # columns straddle a piece start; those windows, and scattered,
    # repeated and unsorted columns, give the same states
    for start in range(0, 65, 16):
        cols = slice(start, start + 17)
        assert close(bundle.states(cols), want[:, cols]), start
    for cols in ([0, 16, 16, 16], [16, 0, 32], [3, 10, 5], [32, 31, 30],
                 [64, 0], [17] * 5):
        assert close(bundle.states(cols), want[:, cols]), cols


@pytest.mark.parametrize("d", [1, 2])
def test_sweep_bundles_match_simulate_bit_for_bit(d):
    # the same (seed, path index) gives the same states, whether the
    # bundle is a sweep block's or simulate's
    cases = [(c, b) for c, b in _controls() if c.d == d]
    family = gx.ControlFamily(cases[0][1], [c for c, _ in cases])
    n_paths, n_steps = mc.PATH_BLOCK + 100, 16
    cols = np.array([0, 1, 7, 8, 9, 16])

    @dataclass(frozen=True)
    class Rows:
        """Per-path arrays, merged in path order."""

        arrays: tuple

        def merge(self, other):
            return Rows(tuple(map(np.concatenate, zip(self.arrays,
                                                      other.arrays))))

    def fold(bundle):
        return Rows((bundle.states(), bundle.states(cols))),

    stats = mc.sweep(family, n_paths, n_steps, 61, fold, degree=2)
    for control, (rows,) in zip(family, stats):
        whole, some = rows.arrays
        want = gx.simulate(control, n_paths, n_steps, seed=61).states()
        assert np.array_equal(whole, want)
        assert np.array_equal(some, want[:, cols])


def test_monitor_values_are_columns_of_paths(band12):
    control = gx.ControlFamily.with_random_piecewise(
        band12, 1, 4, seed=9).controls[0]
    bundle = gx.simulate(control, 500, 64, seed=7)
    paths = bundle.states()
    times = (0.25, 0.5, 0.75, 1.0)
    assert np.array_equal(bundle.monitor_values(times),
                          paths[:, [16, 32, 48, 64]])
    assert np.array_equal(bundle.states(slice(10, 40), rows=slice(3, 9)),
                          paths[3:9, 10:40])
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", (0.5, 1.0))
    assert np.array_equal(bundle.history(payoff), paths[:, [32]])


def test_derive_seed_stable():
    assert mc.derive_seed(7, "a") == mc.derive_seed(7, "a")
    assert mc.derive_seed(7, "a") != mc.derive_seed(7, "b")
    assert mc.derive_seed(7, "a") != mc.derive_seed(8, "a")


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


@pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0), (0.25, 0.5, 1.0)])
def test_sup_times_are_the_path_grid_doubles(times):
    # the kept slices of a solve told these times must bracket the times
    # the reads use, which are the path grid's linspace doubles
    for n_steps in (*range(1, 300), 512, 4096, 3 * 4096 + 1, 10 ** 6 - 3):
        want = np.linspace(0.0, 1.0, n_steps + 1)[mc.sup_grid(times, n_steps)]
        got = mc.sup_times(times, n_steps)
        assert got.tobytes() == want.tobytes(), n_steps


def test_path_reads_only_below_the_march_step_count(band12):
    # at n_x 41 the march takes 16 steps over [0, 1]
    grid = gx.SpaceTimeGrid(n_x=41, x_max=8.0)
    assert grid.steps_for(band12, 0.0, 1.0) == 16
    assert mc.path_reads(band12, grid, 16) is None
    assert mc.path_reads(band12, grid, 2 ** 25) is None
    bundle = gx.simulate(mc.ControlProcess.constant(1.0), 1, 15, seed=1)
    assert mc.path_reads(band12, grid, 15).tobytes() == bundle.times.tobytes()
