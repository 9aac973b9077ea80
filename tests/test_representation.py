import math

import numpy as np
import pytest

import gexpect as gx
from gexpect import montecarlo as mc
from gexpect import representation as rep
from gexpect.errors import NumericalError


@pytest.fixture(scope="module")
def sq_setup(band12, grid401):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    field = gx.conditional_expectation(payoff, band12, grid401)
    return payoff, field


def _extract(payoff, band, field, alpha, n_paths=400, n_steps=1024, seed=21):
    bundle = gx.simulate(mc.ControlProcess.constant(alpha), n_paths, n_steps,
                         seed)
    return gx.extract(payoff, band, field, bundle), bundle


def test_monitor_vanishes_under_maximizing_control(band12, sq_setup):
    payoff, field = sq_setup
    dec, _ = _extract(payoff, band12, field, 2.0)
    # g(2) = a_up * 1 = alpha * 1 exactly: the integrand cancels
    assert np.abs(dec.k).max() == 0.0


def test_monitor_accumulates_under_low_control(band12, sq_setup):
    payoff, field = sq_setup
    dec, _ = _extract(payoff, band12, field, 1.0)
    k1 = dec.k[dec.included, -1]
    assert np.abs(k1 - 1.0).max() <= 5e-3  # integrand g(2) - 1 = 1, времени 1


def test_linear_payoff_trivial_triple(band12, grid201):
    payoff = gx.PayoffSpec.parse("x1")
    field = gx.conditional_expectation(payoff, band12, grid201)
    dec, bundle = _extract(payoff, band12, field, 1.5, n_paths=200)
    assert np.abs(dec.h - 1.0).max() <= 1e-9
    assert np.abs(dec.k).max() <= 1e-9
    assert rep.residual(dec)[dec.included].max() <= 1e-9
    assert rep.monotonicity(dec) >= -1e-12


def test_residual_scale_and_refinement(band12, sq_setup):
    payoff, field = sq_setup
    dec, _ = _extract(payoff, band12, field, 1.0, n_paths=400, n_steps=1024)
    rms = rep.residual_rms(dec)
    # the defect is the compensated realized quadratic variation; its scale
    # is alpha*sqrt(2 dt) plus sup inflation
    theory = 1.0 * math.sqrt(2.0 / 1024)
    assert 0.8 * theory <= rms <= 2.5 * theory
    dec_f, _ = _extract(payoff, band12, field, 1.0, n_paths=400, n_steps=4096)
    assert rep.residual_rms(dec_f) <= 0.75 * rms


def test_monotonicity_for_mixed_convexity(band12, field_cache):
    payoff = gx.PayoffSpec.parse("min(abs(x1), 1)")
    field = field_cache("min(abs(x1), 1)")
    for alpha in (1.0, 1.5, 2.0):
        dec, _ = _extract(payoff, band12, field, alpha, n_paths=300,
                          n_steps=512)
        assert rep.monotonicity(dec) >= -1e-6


def test_terminal_consistency(band12, sq_setup):
    payoff, field = sq_setup
    dec, bundle = _extract(payoff, band12, field, 1.5, n_paths=300)
    assert rep.terminal_defect(dec, bundle) <= 5e-3
    assert dec.exclusion_rate < 0.01


def test_paths_escaping_truncation_are_excluded(band12):
    grid = gx.SpaceTimeGrid(n_x=101, x_max=2.0)
    payoff = gx.PayoffSpec.parse("sq(x1)")
    field = gx.conditional_expectation(payoff, band12, grid)
    bundle = gx.simulate(mc.ControlProcess.constant(2.0), 500, 256, seed=23)
    dec = gx.extract(payoff, band12, field, bundle)
    # variance-2 paths leave |x|<2 often; they must be flagged, not used
    assert dec.excluded.any()
    assert dec.excluded.sum() == (np.abs(bundle.states()).max(axis=1)
                                  > 2.0 - 2 * grid.dx).sum()


def test_gap_examples(band12, grid401, sq_setup, field_cache):
    payoff, field = sq_setup
    fam = gx.ControlFamily.constants(band12, 5)
    res = rep.gmartingale_gap(payoff, band12, field, fam, 1500, 512, seed=29)
    assert res.argmax_label == "const-2"
    assert abs(res.sup) <= 2e-3
    others = [r.mean_neg_k1 for r in res.rows if r.label != "const-2"]
    assert max(others) < -0.2

    neg = gx.PayoffSpec.parse("neg(sq(x1))")
    neg_field = gx.conditional_expectation(neg, band12, grid401)
    res_neg = rep.gmartingale_gap(neg, band12, neg_field, fam, 1500, 512,
                                  seed=29)
    assert res_neg.argmax_label == "const-1"
    assert abs(res_neg.sup) <= 2e-3

    lin = gx.PayoffSpec.parse("x1")
    lin_field = field_cache("x1")
    res_lin = rep.gmartingale_gap(lin, band12, lin_field, fam, 500, 256,
                                  seed=29)
    assert all(abs(r.mean_neg_k1) <= 1e-9 for r in res_lin.rows)


def test_symmetry_classification(band12, grid201, field_cache):
    fam = gx.ControlFamily.constants(band12, 5)
    lin = gx.PayoffSpec.parse("x1")
    ev = rep.is_symmetric(lin, band12, field_cache("x1"), fam, tol=1e-8,
                          n_paths=400, n_steps=256, seed=31)
    assert ev.symmetric
    assert abs(ev.asymmetry) <= 1e-10

    sq = gx.PayoffSpec.parse("sq(x1)")
    ev_sq = rep.is_symmetric(sq, band12, field_cache("sq(x1)"), fam, tol=1e-8,
                             n_paths=400, n_steps=256, seed=31)
    assert not ev_sq.symmetric
    assert ev_sq.asymmetry == pytest.approx(1.0, abs=2e-2)


def test_symmetry_all_paths_excluded_raise(band12):
    # every path of some control leaves x_max = 0.5 (represent's seed): the
    # control must fail the check, not drop out of the sup as K = 0
    grid = gx.SpaceTimeGrid(n_x=41, x_max=0.5)
    fam = gx.ControlFamily.constants(band12, 9)
    sq = gx.PayoffSpec.parse("sq(x1)")
    field = gx.conditional_expectation(sq, band12, grid)
    with pytest.raises(NumericalError, match="all paths excluded"):
        rep.is_symmetric(sq, band12, field, fam, tol=1e-8, n_paths=64,
                         n_steps=32, seed=gx.derive_seed(20100920,
                                                         "represent"))


def test_classical_band_is_always_symmetric(grid201):
    # collapsed band: the form is linear, the monitor vanishes identically
    band = gx.VolBand.scalar(1.5, 1.5)
    payoff = gx.PayoffSpec.parse("sq(x1)")
    field = gx.conditional_expectation(payoff, band, grid201)
    fam = gx.ControlFamily.constants(band, 1)
    ev = rep.is_symmetric(payoff, band, field, fam, tol=1e-6,
                          n_paths=300, n_steps=256, seed=33)
    assert ev.symmetric
    assert abs(ev.asymmetry) <= 1e-2


def test_supermartingale_means(band12, sq_setup):
    # E^P[Y_t] is non-increasing in t for every control; at the maximizing
    # control it is flat (martingale property)
    payoff, field = sq_setup
    for alpha in (1.0, 1.5, 2.0):
        dec, bundle = _extract(payoff, band12, field, alpha, n_paths=2000,
                               n_steps=256, seed=37)
        inc = dec.included
        idx = np.round(np.linspace(0, 256, 9)).astype(int)
        means = dec.y[inc][:, idx].mean(axis=0)
        ses = dec.y[inc][:, idx].std(axis=0, ddof=1) / math.sqrt(inc.sum())
        drops = np.diff(means)
        assert (drops <= 2.0 * (ses[1:] + ses[:-1])).all()
        if alpha == 2.0:
            # flat in expectation; 3 SE covers the max over the time grid
            assert np.abs(means - means[0]).max() <= 3.0 * ses.max() + 1e-9


def test_nested_payoff_extraction(band12, grid401):
    # xi = (B_1 - B_1/2)^2: flat value 1 on [0, 1/2], then curvature 2, so
    # K_1 = (a_up - alpha)/2 and H_t = 2(X_t - X_1/2) after the date
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", times=(0.5, 1.0))
    field = gx.conditional_expectation(payoff, band12, grid401)
    bundle = gx.simulate(mc.ControlProcess.constant(1.0), 300, 1024, seed=43)
    dec = gx.extract(payoff, band12, field, bundle)
    inc = dec.included
    assert np.abs(dec.k[inc, -1] - 0.5).max() <= 1e-2
    assert np.abs(dec.k[inc, 512]).max() <= 1e-9      # flat before the date
    x_mid, x_late = bundle.states([512, 768]).T
    h_expect = 2.0 * (x_late - x_mid)
    assert np.abs(dec.h[:, 768] - h_expect)[inc].max() <= 2e-2
    assert rep.residual_rms(dec) <= 0.1
    assert rep.monotonicity(dec) >= -1e-12
    assert rep.terminal_defect(dec, bundle) <= 1e-2


def test_decomposition_csv(tmp_path, band12, sq_setup):
    payoff, field = sq_setup
    dec, _ = _extract(payoff, band12, field, 1.5, n_paths=3, n_steps=16)
    out = tmp_path / "dec.csv"
    dec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,t,Y,H,K,int_HdX,residual"
    assert len(lines) == 1 + 3 * 17


def test_gap_rows_independent_of_degree(band12, field_cache):
    # two full path blocks and a partial one, folded on one and two threads
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    fam = gx.ControlFamily.constants(band12, 3)
    n_paths = 2 * mc.PATH_BLOCK + 100
    serial = rep.gmartingale_gap(payoff, band12, field_cache("call(x1, 0)"),
                                 fam, n_paths, 16, seed=47, degree=1)
    threaded = rep.gmartingale_gap(payoff, band12, field_cache("call(x1, 0)"),
                                   fam, n_paths, 16, seed=47, degree=2)
    assert serial.rows == threaded.rows
    assert (serial.sup, serial.argmax_label) == (threaded.sup,
                                                 threaded.argmax_label)


@pytest.mark.parametrize("n_paths", [400, 2 * mc.PATH_BLOCK + 100])
def test_gap_symmetry_partial_matches_is_symmetric(band12, field_cache,
                                                   n_paths):
    # the gap sweep, called with its defaults, carries the symmetry partial
    # of every path: the same verdict as is_symmetric on as many paths
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    field = field_cache("call(x1, 0)")
    fam = gx.ControlFamily.constants(band12, 3)
    gap = rep.gmartingale_gap(payoff, band12, field, fam, n_paths, 16,
                              seed=47)
    ev = rep.is_symmetric(payoff, band12, field, fam, tol=1e-8,
                          n_paths=n_paths, n_steps=16, seed=47)
    assert ev.k_abs_max > 0.0
    assert rep.symmetry_evidence(payoff, band12, field, fam, 1e-8,
                                 gap.symmetry) == ev


def test_gap_symmetry_counts_every_included_path(band12):
    # three blocks, and paths that leave x_max = 3: each control's
    # symmetry statistic counts exactly the paths its gap row includes
    grid = gx.SpaceTimeGrid(n_x=101, x_max=3.0)
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    field = gx.conditional_expectation(payoff, band12, grid)
    fam = gx.ControlFamily.constants(band12, 3)
    n_paths = 2 * mc.PATH_BLOCK + 100
    gap = rep.gmartingale_gap(payoff, band12, field, fam, n_paths, 16,
                              seed=47)
    assert any(r.excluded for r in gap.rows)
    for sym, row in zip(gap.symmetry, gap.rows, strict=True):
        assert sym.n == n_paths - row.excluded


def _flat_extract(flat_read, payoff, band, field, bundle,
                  exit_margin_nodes=2):
    """extract as it read the field before the path-grid read: one oracle
    query per (path, step), with broadcast times and repeated history."""
    x = bundle.states()
    if x.ndim != 2:
        raise ValueError("decomposition extraction is d=1 only")
    n_paths, m1 = x.shape
    hist = None
    if payoff.n > 1:
        mon = bundle.monitor_values(payoff.times[:-1])
        hist = np.repeat(mon, m1, axis=0)
    qt = np.broadcast_to(bundle.times, (n_paths, m1)).ravel()

    read, _ = flat_read(field, qt, x, hist)
    del qt, hist    # free the queries before the (N, M) temporaries below
    y, h, d2u = (column.reshape(n_paths, m1) for column in read.T)
    gamma = d2u[:, :-1]

    lo, up = band.lower_scalar, band.upper_scalar
    integrand = gx.eval_g_scalar(gamma, lo, up) - 0.5 * (bundle.alpha * gamma)
    k = np.zeros((n_paths, m1))
    np.cumsum(integrand * bundle.dt, axis=1, out=k[:, 1:])

    int_h_dx = np.zeros((n_paths, m1))
    np.cumsum(h[:, :-1] * np.diff(x, axis=1), axis=1,
              out=int_h_dx[:, 1:])

    cutoff = field.x_max - exit_margin_nodes * field.dx
    excluded = np.abs(x).max(axis=1) > cutoff
    return rep.Decomposition(payoff, bundle.control.label, bundle.times,
                             y, h, k, int_h_dx, excluded)


@pytest.mark.parametrize("source,times,alpha", [
    ("call(x1, 0)", (1.0,), 1.3),
    ("min(abs(x1), 1)", (1.0,), 2.0),
    ("sq(x2 - x1)", (0.5, 1.0), 1.0),
])
def test_extract_bit_equal_to_flat_query_extract(band12, field_cache,
                                                 flat_read, source, times,
                                                 alpha):
    payoff = gx.PayoffSpec.parse(source, times)
    field = field_cache(source, times)
    bundle = gx.simulate(mc.ControlProcess.constant(alpha), 700, 48, seed=29)
    got = gx.extract(payoff, band12, field, bundle)
    want = _flat_extract(flat_read, payoff, band12, field, bundle)
    for name in ("times", "y", "h", "k", "int_h_dx", "excluded"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    defect = want.y - want.y[:, :1] - want.int_h_dx + want.k
    assert np.array_equal(rep.residual(got), np.abs(defect).max(axis=1))


def _flat_conditional_supremum(flat_read, payoff, field, bundle, t):
    """conditional_supremum as it read the field before the path-grid read:
    one oracle query per path."""
    times = bundle.times
    k = int(np.round(t * bundle.n_steps))
    if k == bundle.n_steps:
        return payoff.evaluate(bundle.monitor_values(payoff.times)), \
            np.zeros(bundle.n_paths, dtype=bool)
    hist = None
    if payoff.n > 1:
        hist = bundle.monitor_values(payoff.times[:-1])
    qt = np.full(bundle.n_paths, times[k])
    values, clamped = flat_read(field, qt, bundle.states()[:, k], hist)
    return values[:, 0], clamped


@pytest.mark.parametrize("source,times", [
    ("abs(x1)", (1.0,)),
    ("abs(x2 - x1)", (0.5, 1.0)),
])
def test_conditional_supremum_unchanged(field_cache, flat_read, source,
                                        times):
    payoff = gx.PayoffSpec.parse(source, times)
    field = field_cache(source, times)
    bundle = gx.simulate(mc.ControlProcess.constant(1.5), 500, 32, seed=31)
    for t in (0.0, 0.5, 1.0):
        got = gx.conditional_supremum(payoff, field, bundle, t)
        want = _flat_conditional_supremum(flat_read, payoff, field,
                                          bundle, t)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_lp_norm_unchanged_by_one_grid_read(band12, field_cache,
                                            flat_read):
    # the old fold: one conditional_supremum call per sup-grid time
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", (0.5, 1.0))
    field = field_cache("abs(sq(x2 - x1))", (0.5, 1.0))
    fam = gx.ControlFamily.constants(band12, 3)
    n_paths, n_steps, seed = mc.PATH_BLOCK + 100, 32, 37
    grid_idx = mc.sup_grid(payoff.times, n_steps)

    def fold(bundle):
        reads = [_flat_conditional_supremum(flat_read, payoff.absolute(),
                                            field, bundle, t)[0]
                 for t in bundle.times[grid_idx]]
        return mc.Moments.of(np.abs(reads).max(axis=0) ** 2.0),

    stats = mc.sweep(fam, n_paths, n_steps, seed, fold)
    want = [(c.label, *m.root(2.0)) for c, (m,) in zip(fam, stats)]
    got = mc.lp_norm_detail(payoff, 2.0, fam, field, n_paths, n_steps, seed)
    assert got.per_control == want


MARCH_CASES = [
    ("sq(x1)", (1.0,), 1.0, 20),          # 21 columns
    ("call(x1, 0)", (1.0,), 1.3, 40),     # 41 columns
    ("min(abs(x1), 1)", (1.0,), 2.0, 32),  # a last slab of one column
    ("sq(x2 - x1)", (0.5, 1.0), 1.0, 46),  # the date inside a slab
    # pieces of 16 steps: each slab's states straddle a piece start
    ("sq(x1)", (1.0,), (1.2, 1.9, 1.4, 1.7), 64),
]


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source,times,alpha,n_steps", MARCH_CASES)
def test_march_bit_equal_to_full_extract(band12, field_cache, full_extract,
                                         source, times, alpha, n_steps):
    payoff = gx.PayoffSpec.parse(source, times)
    field = field_cache(source, times)
    values = np.atleast_1d(alpha)
    control = mc.ControlProcess(np.linspace(0.0, 1.0, len(values) + 1), values)
    bundle = gx.simulate(control, 700, n_steps, seed=29)
    want = full_extract(payoff, band12, field, bundle)
    got = gx.extract(payoff, band12, field, bundle)
    for name in ("times", "y", "h", "k", "int_h_dx", "excluded"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name

    slabs = [s for s, in rep.march(band12, [field], bundle)]
    assert [s.cols.start for s in slabs] == list(range(0, n_steps + 1, 16))
    dk = np.concatenate([s.dk for s in slabs], axis=1)
    h_left = np.concatenate([s.h_left for s in slabs], axis=1)
    assert _same_bits(dk, np.diff(want.k, axis=1))
    assert _same_bits(h_left, want.h[:, :-1])
    assert _same_bits(rep.excluded(field, slabs[-1].x_peak), want.excluded)


STACK_CASES = [
    # 41 columns: a last slab of 9
    (("sq(x1)", "call(x1, 0)", "min(abs(x1), 1)"), (1.0,), 40),
    # the date inside a slab, and a last slab of one column
    (("sq(x2 - x1)", "abs(x2 - x1)", "sq(x2 - x1) + 0.1"), (0.5, 1.0), 32),
]


@pytest.mark.parametrize("sources,times,n_steps", STACK_CASES)
def test_stacked_march_bit_equal_per_field(band12, full_extract, sources,
                                           times, n_steps):
    # x_max = 3 excludes some paths
    grid = gx.SpaceTimeGrid(n_x=121, x_max=3.0)
    payoffs = [gx.PayoffSpec.parse(src, times) for src in sources]
    fields = [gx.conditional_expectation(p, band12, grid) for p in payoffs]
    bundle = gx.simulate(mc.ControlProcess.constant(2.0), 700, n_steps,
                         seed=29)
    stacked = list(rep.march(band12, fields, bundle))
    assert [len(slabs) for slabs in stacked] == [3] * len(stacked)
    for f, (payoff, field) in enumerate(zip(payoffs, fields)):
        mine = [slabs[f] for slabs in stacked]
        alone = [s for s, in rep.march(band12, [field], bundle)]
        assert len(mine) == len(alone)
        for got, one in zip(mine, alone):
            assert (got.cols, got.steps) == (one.cols, one.steps)
            for name in ("y0", "y", "h", "k_ext", "int_ext"):
                assert _same_bits(getattr(got, name), getattr(one, name))
        want = full_extract(payoff, band12, field, bundle)
        for name in ("y", "h", "k", "int_h_dx"):
            got = np.concatenate([getattr(s, name) for s in mine], axis=1)
            assert _same_bits(np.ascontiguousarray(got), getattr(want, name))
        assert _same_bits(rep.excluded(field, mine[-1].x_peak),
                          want.excluded)
        assert want.excluded.any() and not want.excluded.all()


def test_stacked_march_rejects_other_grids_or_dates(band12, grid201,
                                                    field_cache):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    others = [
        gx.conditional_expectation(payoff, band12,
                                   gx.SpaceTimeGrid(n_x=101, x_max=8.0)),
        gx.conditional_expectation(payoff, gx.VolBand.scalar(1.0, 3.0),
                                   grid201),
        gx.value_field(payoff, band12, grid201),
        field_cache("sq(x2 - x1)", (0.5, 1.0)),
    ]
    bundle = gx.simulate(mc.ControlProcess.constant(1.5), 50, 16, seed=3)
    for other in others:
        with pytest.raises(ValueError, match="one grid"):
            next(rep.march(band12, [field_cache("sq(x1)"), other], bundle))


def _full_gap(payoff, band, field, family, n_paths, n_steps, seed, degree,
              full_extract):
    """gmartingale_gap's rows and symmetry partials as folded from the
    oracle's full decomposition of each block."""
    def fold(bundle):
        dec = full_extract(payoff, band, field, bundle)
        inc = dec.included
        return (mc.Moments.of(-dec.k[inc, -1]),
                mc.Moments.of(rep.residual(dec)[inc] ** 2),
                mc.Moments.of(np.diff(dec.k[inc], axis=1).min(axis=1)),
                mc.Moments.of(rep.terminal_defect(dec, bundle)),
                mc.Moments.of(np.abs(dec.k[inc]).max(axis=1)))

    stats = mc.sweep(family, n_paths, n_steps, seed, fold, degree)
    rows = [rep.GapRow(c.label, k1.mean, k1.stderr, n_paths - k1.n,
                       res.root(2)[0], dk.lo, term.hi)
            for c, (k1, res, dk, term, _) in zip(family, stats)]
    return rows, [s[-1] for s in stats]


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("source,times,n_steps", [
    ("call(x1, 0)", (1.0,), 40),
    ("sq(x2 - x1)", (0.5, 1.0), 46),
])
def test_gap_sweep_bit_equal_to_full_extract(band12, field_cache,
                                             full_extract, source, times,
                                             n_steps, degree):
    payoff = gx.PayoffSpec.parse(source, times)
    field = field_cache(source, times)
    fam = gx.ControlFamily.constants(band12, 3)
    n_paths = mc.PATH_BLOCK + 100
    got = rep.gmartingale_gap(payoff, band12, field, fam, n_paths, n_steps,
                              seed=47, degree=degree)
    rows, symmetry = _full_gap(payoff, band12, field, fam, n_paths, n_steps,
                               47, degree, full_extract)
    assert got.rows == rows
    assert got.symmetry == symmetry

    ev = rep.is_symmetric(payoff, band12, field, fam, 1e-8, n_paths,
                          n_steps, seed=47)
    assert ev.k_abs_max == max(m.hi for m in symmetry)


def _block_peak(call, n_paths, n_steps):
    """Peak traced bytes of call(), in (n_paths, n_steps + 1) float64
    arrays."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * n_paths * (n_steps + 1))


def test_sweeps_hold_few_block_sized_arrays(band12, grid201, field_cache):
    # the block's Brownian path, shared by every control, plus per-path
    # vectors and O(N x 16) slabs: a full (N, M+1) decomposition per block
    # held about ten such arrays, and one control's paths beside the
    # block's increments two
    from gexpect import inequalities as ineq

    payoff = gx.PayoffSpec.parse("sq(x1)")
    field = field_cache("sq(x1)")
    shifted = gx.conditional_expectation(payoff.shifted(0.1), band12,
                                         grid201)
    fam = gx.ControlFamily.constants(band12, 2)
    n, m = mc.PATH_BLOCK, 512
    peaks = {
        "gap": _block_peak(lambda: rep.gmartingale_gap(
            payoff, band12, field, fam, n, m, seed=3), n, m),
        "apriori": _block_peak(lambda: ineq.apriori_check(
            payoff, band12, field, fam, n, m, seed=3), n, m),
        "difference": _block_peak(lambda: ineq._delta_norms(
            [field, shifted], band12, fam, n, m, seed=3), n, m),
        "bdg": _block_peak(lambda: ineq.bdg_check(
            list(ineq.H_BUILTINS.values()), fam, n, m, seed=3), n, m),
    }
    assert max(peaks.values()) <= 3.0, peaks
