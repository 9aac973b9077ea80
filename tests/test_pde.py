import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

import gexpect as gx
from gexpect import kernels, pde
from gexpect.errors import NumericalError
from gexpect.payoff import _OPS, Expr
from gexpect.pde import solve_interval

SQRT_INV_PI = math.sqrt(1.0 / math.pi)        # E[(B_1)+] under variance 2
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)     # E[|B_1|] under variance 1


def test_quadratic_oracle(band12, grid401):
    # convex payoff prices at the upper bound: u(t,x) = x^2 + a_up*(1-t)
    field = gx.conditional_expectation(gx.PayoffSpec.parse("sq(x1)"),
                                       band12, grid401)
    assert field.value(0.0, (), 0.0) == pytest.approx(2.0, abs=1e-2)
    assert field.value(0.5, (), 1.0) == pytest.approx(2.0, abs=1e-2)


def test_concave_quadratic_oracle(band12, grid401):
    field = gx.conditional_expectation(gx.PayoffSpec.parse("neg(sq(x1))"),
                                       band12, grid401)
    assert field.value(0.0, (), 0.0) == pytest.approx(-1.0, abs=1e-2)


def test_affine_data_exact(band12, grid201):
    x = grid201.x_nodes()
    slab = solve_interval(2.5 * x - 1.0, band12, grid201, (0.0, 1.0))
    # affine data is invariant in exact arithmetic; floats drift ~1e-16/step
    assert np.abs(slab.values - (2.5 * x - 1.0)).max() <= 1e-11


def test_constant_preserved_exactly(band12, grid201):
    field = gx.conditional_expectation(gx.PayoffSpec.parse("const(3)"),
                                       band12, grid201)
    for iv in field.intervals:
        assert np.abs(iv.values - 3.0).max() == 0.0
    assert field.value(0.0, (), 0.0) == 3.0
    assert gx.g_expectation(gx.PayoffSpec.parse("const(3)"), band12,
                            grid201) == 3.0


def test_call_and_abs_oracles(band12, grid401):
    call = gx.g_expectation(gx.PayoffSpec.parse("call(x1, 0)"), band12, grid401)
    assert call == pytest.approx(SQRT_INV_PI, abs=1e-2)
    negabs = gx.g_expectation(gx.PayoffSpec.parse("neg(abs(x1))"), band12,
                              grid401)
    assert negabs == pytest.approx(-SQRT_2_OVER_PI, abs=1e-2)


def test_comparison_monotonicity(band12, grid201):
    # call(x,0) <= abs(x) pointwise, so solved values are ordered nodewise
    f1 = gx.conditional_expectation(gx.PayoffSpec.parse("call(x1, 0)"),
                                    band12, grid201)
    f2 = gx.conditional_expectation(gx.PayoffSpec.parse("abs(x1)"),
                                    band12, grid201)
    assert (f1.intervals[0].values <= f2.intervals[0].values + 1e-14).all()


def test_sup_bound_for_bounded_payoff(band12, grid201, field_cache):
    field = field_cache("min(abs(x1), 1)")
    sup = max(np.abs(iv.values).max() for iv in field.intervals)
    assert sup <= 1.0 + 1e-12


def test_lipschitz_preservation(band12, grid201, field_cache):
    for expr in ("min(abs(x1), 1)", "call(x1, 0)"):
        field = field_cache(expr)
        # largest discrete space-Lipschitz constant over stored slices
        lip = max(np.abs(np.diff(iv.values, axis=-1)).max() / field.dx
                  for iv in field.intervals)
        assert lip <= 1.0 + 10.0 * grid201.dx


def test_value_level_sublinearity(band12, grid201):
    # E[xi1 + xi2] <= E[xi1] + E[xi2]; E[c*xi] = c E[xi]
    e_abs = gx.g_expectation(gx.PayoffSpec.parse("abs(x1)"), band12, grid201)
    e_call = gx.g_expectation(gx.PayoffSpec.parse("call(x1, 0)"), band12,
                              grid201)
    e_sum = gx.g_expectation(gx.PayoffSpec.parse("abs(x1) + call(x1, 0)"),
                             band12, grid201)
    assert e_sum <= e_abs + e_call + 1e-10
    e_scaled = gx.g_expectation(gx.PayoffSpec.parse("2.5 * call(x1, 0)"),
                                band12, grid201)
    assert e_scaled == pytest.approx(2.5 * e_call, rel=1e-12)


def test_nested_martingale_projection(band12, grid201):
    # phi(x1, x2) = x1: the conditional value is x before t1 and x1 after
    field = gx.conditional_expectation(
        gx.PayoffSpec.parse("x1", times=(0.5, 1.0)), band12, grid201)
    x = field.x
    assert np.abs(field.intervals[0].values[-1] - x).max() == 0.0
    assert field.value(0.25, (), 0.8) == pytest.approx(0.8, abs=1e-12)
    assert field.value(0.75, (0.8,), -2.0) == pytest.approx(0.8, abs=1e-12)


def _stitching_defect(field):
    """Max mismatch between each interval's terminal slice and the diagonal
    of its successor's initial slice (0 by construction)."""
    worst = 0.0
    for iv, nxt in zip(field.intervals, field.intervals[1:]):
        diag = np.diagonal(nxt.values[..., 0, :], axis1=-2, axis2=-1)
        worst = max(worst, float(np.abs(iv.values[..., -1, :] - diag).max()))
    return worst


def test_nested_increment_square(band12, grid401):
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", times=(0.5, 1.0))
    field = gx.conditional_expectation(payoff, band12, grid401)
    # E_t1 is constant in the history: a_up * (1 - 1/2)
    assert field.value(0.5, (0.7,), 0.7) == pytest.approx(1.0, abs=1e-2)
    assert field.value(0.5, (-1.3,), -1.3) == pytest.approx(1.0, abs=1e-2)
    assert field.value(0.0, (), 0.0) == pytest.approx(1.0, abs=1e-2)
    assert _stitching_defect(field) == 0.0


def test_three_dates_supported(band12):
    grid = gx.SpaceTimeGrid(n_x=61, x_max=6.0)
    payoff = gx.PayoffSpec.parse("sq(x3 - x2) + x1", times=(1 / 3, 2 / 3, 1.0))
    field = gx.conditional_expectation(payoff, band12, grid)
    # independent-increment closed form: a_up / 3 at the origin
    assert field.value(0.0, (), 0.0) == pytest.approx(2.0 / 3.0, abs=4e-2)
    assert _stitching_defect(field) == 0.0
    # last-interval read with two history axes:
    # (x - x2)^2 + a_up*(1 - t) + x1
    got = field.value(0.8, (0.5, -0.3), 0.2)
    assert got == pytest.approx(0.25 + 2.0 * 0.2 + 0.5, abs=5e-2)


def test_more_than_three_dates_rejected(band12, grid201):
    payoff = gx.PayoffSpec.parse("x1", times=(0.2, 0.4, 0.6, 1.0))
    with pytest.raises(ValueError):
        gx.conditional_expectation(payoff, band12, grid201)


def test_memory_guard(band12, monkeypatch):
    monkeypatch.setattr(pde, "MEMORY_LIMIT", 10_000_000)
    grid = gx.SpaceTimeGrid(n_x=401, x_max=8.0)
    payoff = gx.PayoffSpec.parse("sq(x3)", times=(0.3, 0.6, 1.0))
    with pytest.raises(NumericalError):
        gx.conditional_expectation(payoff, band12, grid)


def test_memory_guard_charges_what_the_march_allocates(band12, monkeypatch):
    # a nested interval of 401 rows: the guard's bytes are the stored field
    # and the working rows, no more (the field is stored once) and no less
    import tracemalloc

    grid = gx.SpaceTimeGrid(n_x=401, x_max=8.0)
    data = np.add.outer(grid.x_nodes(), grid.x_nodes()) ** 2
    n_steps = grid.steps_for(band12, 0.0, 0.5)
    n_stored = len(pde._store_steps(n_steps, 1, grid.param_time_slices)) + 1
    need = pde.field_bytes(grid.n_x, n_stored, grid.n_x)
    assert need == (n_stored + 1) * grid.n_x * grid.n_x * 8

    tracemalloc.start()
    try:
        iv = solve_interval(data, band12, grid, (0.0, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iv.values.nbytes + grid.n_x * grid.n_x * 8 == need
    assert need <= peak <= 1.05 * need

    monkeypatch.setattr(pde, "MEMORY_LIMIT", need)
    solve_interval(data, band12, grid, (0.0, 0.5))
    monkeypatch.setattr(pde, "MEMORY_LIMIT", need - 1)
    with pytest.raises(NumericalError, match="field storage"):
        solve_interval(data, band12, grid, (0.0, 0.5))


@pytest.mark.parametrize("solve, value_only", [
    (gx.value_field, True), (gx.conditional_expectation, False)])
def test_memory_guard_charges_the_terminal_block(band12, monkeypatch, solve,
                                                 value_only):
    # a solve holds its n_x^3 terminal block while the last interval
    # marches: the guard charges it beside the stored field and the working
    # rows, and the charge without it (which the peak passed by the block)
    # is now rejected
    import tracemalloc

    grid = gx.SpaceTimeGrid(n_x=101, x_max=8.0)
    payoff = gx.PayoffSpec.parse("sq(x3 - x2) + abs(x1)", (0.25, 0.5, 1.0))
    n_steps = grid.steps_for(band12, 0.5, 1.0)
    steps = pde._store_steps(n_steps, 2, grid.param_time_slices)
    n_stored = (2 if value_only else len(steps)) + 1
    block = 8 * grid.n_x ** 3
    charge = pde.field_bytes(grid.n_x ** 2, n_stored, grid.n_x) + block
    tracemalloc.start()
    try:
        solve(payoff, band12, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charge <= peak <= 1.05 * charge

    monkeypatch.setattr(pde, "MEMORY_LIMIT", charge - block)
    with pytest.raises(NumericalError, match="field storage"):
        solve(payoff, band12, grid)


def test_memory_guard_rejects_before_the_terminal_block(band12, monkeypatch):
    # three dates at n_x = 301: the terminal block alone is 218 MB, and
    # the guard must reject the solve before the payoff fills it
    monkeypatch.setattr(pde, "MEMORY_LIMIT", 1_000_000)
    grid = gx.SpaceTimeGrid(n_x=301, x_max=8.0)
    payoff = gx.PayoffSpec.parse("sq(x3 - x2) + abs(x1)", (0.25, 0.5, 1.0))
    for solve in (gx.conditional_expectation, gx.value_field,
                  gx.g_expectation):
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="field storage"):
                solve(payoff, band12, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def test_solve_interval_leaves_terminal_data_alone(band12, grid201):
    data = grid201.x_nodes() ** 2
    before = data.copy()
    iv = solve_interval(data, band12, grid201, (0.0, 1.0))
    assert np.array_equal(data, before)
    assert np.array_equal(iv.values[-1], before)
    assert iv.values.flags.c_contiguous


def test_cfl_and_data_validation(band12, grid201):
    with pytest.raises(NumericalError):
        gx.SpaceTimeGrid(n_x=201, x_max=8.0, cfl_fraction=1.2)
    bad = np.full(grid201.n_x, np.nan)
    with pytest.raises(NumericalError):
        solve_interval(bad, band12, grid201, (0.0, 1.0))


def test_derivatives_affine_and_quadratic(band12, grid401, grid201):
    field = gx.conditional_expectation(gx.PayoffSpec.parse("x1"), band12,
                                       grid201)
    grads, hessians = gx.derivatives(field)
    assert np.abs(grads[0] - 1.0).max() <= 1e-10
    assert np.abs(hessians[0]).max() <= 1e-8

    fsq = gx.conditional_expectation(gx.PayoffSpec.parse("sq(x1)"), band12,
                                     grid401)
    _, hess = gx.derivatives(fsq)
    # |x| <= x_max/4: clear of the frozen-boundary influence zone
    m = 3 * grid401.n_x // 8
    assert np.abs(hess[0][..., m:-m] - 2.0).max() <= 1e-3


def test_call_delta_at_the_money(band12, grid401):
    field = gx.conditional_expectation(gx.PayoffSpec.parse("call(x1, 0)"),
                                       band12, grid401)
    assert field.value(0.0, (), 0.0, kind="gradient") == pytest.approx(
        0.5, abs=1e-2)


def test_refine_study_call(band12):
    grids = [gx.SpaceTimeGrid(n, 8.0) for n in (101, 201, 401)]
    rows = gx.refine_study(gx.PayoffSpec.parse("call(x1, 0)"), band12, grids)
    values = [r.value for r in rows]
    assert values == sorted(values)  # monotone refinement toward the value
    assert rows[2].order is not None and rows[2].order >= 0.9


def test_refine_study_quadratic_converges_fast(band12):
    grids = [gx.SpaceTimeGrid(n, 8.0) for n in (101, 201, 401)]
    rows = gx.refine_study(gx.PayoffSpec.parse("sq(x1)"), band12, grids)
    d1, d2 = abs(rows[1].diff), abs(rows[2].diff)
    assert d2 <= d1 / 3.0 or d2 < 1e-8  # already at the discretization floor


def test_refine_study_affine_zero_diffs(band12):
    grids = [gx.SpaceTimeGrid(n, 8.0) for n in (101, 201, 401)]
    rows = gx.refine_study(gx.PayoffSpec.parse("x1"), band12, grids)
    assert abs(rows[1].diff) <= 1e-12 and abs(rows[2].diff) <= 1e-12


def test_refine_study_reuses_finest_value(band12):
    # the caller's value on the finest grid, solved with any
    # param_time_slices, is the value a fresh solve gives
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", (0.5, 1.0))
    grids = [gx.SpaceTimeGrid(n, 4.0) for n in (51, 101, 201)]
    fresh = gx.refine_study(payoff, band12, grids)
    for slices in (32, 7):
        grid = gx.SpaceTimeGrid(201, 4.0, param_time_slices=slices)
        value = gx.conditional_expectation(payoff, band12,
                                           grid).value(0.0, (), 0.0)
        assert value == fresh[-1].value
        assert gx.refine_study(payoff, band12, grids, finest=value) == fresh


@pytest.mark.parametrize("source, times, n_x", [
    ("call(x1, 0.3)", (1.0,), 201),
    ("sq(x2 - x1)", (0.5, 1.0), 201),
    ("sq(x3 - x2) + abs(x1)", (0.25, 0.5, 1.0), 41),
])
def test_value_only_solve_bit_equal_to_field_read(band12, source, times,
                                                  n_x):
    # with no field given, g_expectation marches the same intervals but
    # keeps only the slices the restarts and the (0, 0) read use
    grid = gx.SpaceTimeGrid(n_x=n_x, x_max=8.0)
    payoff = gx.PayoffSpec.parse(source, times)
    field = gx.conditional_expectation(payoff, band12, grid)
    assert (gx.g_expectation(payoff, band12, grid)
            == field.value(0.0, (), 0.0))
    # reads at a monitoring date, on the diagonal as the tower check reads
    lean = gx.value_field(payoff, band12, grid)
    column = grid.x_nodes().reshape(-1, 1)
    history = np.repeat(column, len(times) - 1, axis=1)
    for t in times[:-1]:
        assert np.array_equal(lean.read_along([t], column, history)[0],
                              field.read_along([t], column, history)[0])


@pytest.mark.parametrize("source, times, n_x", [
    ("call(x1, 0.3)", (1.0,), 201),
    ("sq(x2 - x1)", (0.5, 1.0), 201),
    ("sq(x3 - x2) + abs(x1)", (0.25, 0.5, 1.0), 41),
])
def test_solve_for_read_times_bit_equal_to_field_read(band12, source, times,
                                                      n_x):
    # told its read times (here a sup grid, the monitoring dates and one
    # off-grid time), a solve keeps only the slices they bracket and each
    # interval's two ends (all of them on the 41-node grid's few steps);
    # reads at those times equal the full field's
    grid = gx.SpaceTimeGrid(n_x=n_x, x_max=8.0)
    payoff = gx.PayoffSpec.parse(source, times)
    reads = np.unique(np.r_[np.linspace(0.0, 1.0, 17), times, 0.3])
    full = gx.conditional_expectation(payoff, band12, grid)
    lean = gx.conditional_expectation(payoff, band12, grid, reads=reads)
    assert (sum(iv.values.size for iv in lean.intervals)
            < sum(iv.values.size for iv in full.intervals) or n_x == 41)
    rng = np.random.default_rng(5)
    x = rng.uniform(-9.0, 9.0, (40, len(reads)))
    history = (rng.uniform(-8.0, 8.0, (40, len(times) - 1))
               if len(times) > 1 else None)
    assert np.array_equal(lean.read_along(reads, x, history)[0],
                          full.read_along(reads, x, history)[0])


def test_value_only_interval_keeps_the_start_slices(band12, grid201):
    data = np.abs(grid201.x_nodes())
    full = solve_interval(data, band12, grid201, (0.0, 0.5))
    lean = solve_interval(data, band12, grid201, (0.0, 0.5), reads=[0.0])
    assert lean.values.shape == (3, grid201.n_x)
    assert np.array_equal(lean.times, full.times[[0, 1, -1]])
    assert np.array_equal(lean.values, full.values[[0, 1, -1]])
    rows = np.stack([data, 2.0 * data])
    full = solve_interval(rows, band12, grid201, (0.5, 1.0))
    lean = solve_interval(rows, band12, grid201, (0.5, 1.0), reads=[0.5])
    assert lean.values.shape == (2, 3, grid201.n_x)
    assert np.array_equal(lean.values, full.values[:, [0, 1, -1]])


def test_nested_field_independent_of_degree(band12, monkeypatch):
    # the 401 x 401 block of the second interval is marched in one slab on
    # one core and in two slabs on two
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", (0.5, 1.0))
    grid = gx.SpaceTimeGrid(n_x=401, x_max=8.0)
    fields = []
    for cores in (1, 2):
        monkeypatch.setattr(kernels, "_cores", lambda: cores)
        fields.append(gx.conditional_expectation(payoff, band12, grid))
    one, two = fields
    for a, b in zip(one.intervals, two.intervals, strict=True):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)


def test_refine_study_validation(band12):
    with pytest.raises(ValueError):
        gx.refine_study(gx.PayoffSpec.parse("x1"), band12,
                        [gx.SpaceTimeGrid(101, 8.0), gx.SpaceTimeGrid(201, 8.0)])
    with pytest.raises(ValueError):
        gx.refine_study(gx.PayoffSpec.parse("x1"), band12,
                        [gx.SpaceTimeGrid(n, 8.0) for n in (101, 151, 201)])


def test_read_clamping_flag(band12, grid201, field_cache):
    field = field_cache("sq(x1)")
    vals, clamped = field.read_along([0.5], [[0.0], [99.0]])
    assert not clamped[0] and clamped[1]
    assert vals[1, 0] == pytest.approx(field.value(0.5, (), grid201.x_max),
                                    abs=1e-9)


def test_read_along_takes_path_grids_only(field_cache):
    field = field_cache("sq(x1)")
    x = np.zeros((3, 2))
    for t, paths in (([0.5, 0.6], [0.0, 0.1]),          # 1-D x
                     ([0.5, 0.6, 0.7], x),               # len(t) != M
                     ([0.5], x),
                     ([[0.5, 0.6]], x),                  # 2-D t
                     (np.full((3, 2), 0.5), x),
                     ([0.5, 0.6], np.zeros((1, 2, 2)))):  # 3-D x
        with pytest.raises(ValueError):
            field.read_along(t, paths)


@pytest.mark.parametrize("source", ["sq(x1)", "call(x1, 0.3)"])
def test_fused_read_bit_equal_to_bilinear_kernel(field_cache, flat_read,
                                                 source):
    field = field_cache(source)
    x_max, dx = field.x_max, field.dx
    rng = np.random.default_rng(3)
    k = 4000
    x = np.concatenate([
        rng.uniform(-x_max, x_max, k),                  # random
        rng.uniform(x_max, x_max + 3.0, 50),            # clamped above
        -rng.uniform(x_max, x_max + 3.0, 50),           # clamped below
        -x_max + rng.uniform(0.0, dx, 50),              # ix == 0
        x_max - rng.uniform(0.0, dx, 50),               # ix == n_x - 2
        [-x_max, x_max, 0.0],
    ])
    t = rng.uniform(-0.1, 1.1, len(x))
    t[:3] = (0.0, 1.0, field.intervals[0].times[5])
    # one path with a column per query, so each query keeps its own time
    vals, clamped = field.read_along(t, x.reshape(1, -1))
    assert np.array_equal(vals, flat_read(field, t, x)[0])
    assert np.array_equal(clamped, np.abs(x) > x_max + 1e-12)


def _scipy_oracle(field, t, x, hist):
    """(K, 3) reads through scipy's multilinear interpolator, per interval."""
    grads, hessians = gx.derivatives(field)
    out = np.empty((len(t), 3))
    idx = np.searchsorted(field.boundaries[1:-1], t, side="right")
    for i, iv in enumerate(field.intervals):
        sel = idx == i
        pts = (field.x,) * iv.param_dim + (iv.times, field.x)
        cols = [np.clip(hist[sel, j], -field.x_max, field.x_max)
                for j in range(iv.param_dim)]
        cols += [np.clip(t[sel], iv.t_start, iv.t_end),
                 np.clip(x[sel], -field.x_max, field.x_max)]
        q = np.column_stack(cols)
        for c, arr in enumerate((iv.values, grads[i], hessians[i])):
            out[sel, c] = RegularGridInterpolator(pts, arr)(q)
    return out


@pytest.mark.parametrize("source,times,n_x", [
    ("sq(x2 - x1)", (0.5, 1.0), 201),
    ("call(x2 - 0.5 * x1, 0.2)", (0.5, 1.0), 201),
    ("sq(x3 - x2) + abs(x1)", (1 / 3, 2 / 3, 1.0), 61),
])
def test_fused_read_matches_scipy_on_nested_fields(band12, flat_read, source,
                                                   times, n_x):
    grid = gx.SpaceTimeGrid(n_x=n_x, x_max=8.0)
    field = gx.conditional_expectation(gx.PayoffSpec.parse(source, times),
                                       band12, grid)
    rng = np.random.default_rng(5)
    n_paths, n_times = 100, 30                          # 3000 queries
    t = rng.uniform(0.0, 1.0, n_times)
    t[:len(times)] = times
    x = rng.normal(0.0, 3.0, (n_paths, n_times))
    hist = rng.normal(0.0, 3.0, (n_paths, len(times) - 1))
    hist[-20:] *= 5.0                                   # clamped history
    got, _ = field.read_along(t, x, hist)
    qt = np.broadcast_to(t, x.shape).ravel()
    qhist = np.repeat(hist, n_times, axis=0)
    assert np.array_equal(got, flat_read(field, qt, x, qhist)[0])
    want = _scipy_oracle(field, qt, x.ravel(), qhist)
    for c in range(3):
        scale = np.abs(want[:, c]).max()
        assert np.abs(got[:, c] - want[:, c]).max() <= 1e-12 * scale


@pytest.mark.parametrize("source,times,n_x", [
    ("sq(x2 - x1)", (0.5, 1.0), 201),
    ("sq(x3 - x2) + abs(x1)", (1 / 3, 2 / 3, 1.0), 61),
])
def test_nested_read_at_the_domain_edges(band12, source, times, n_x):
    # x and every history axis at +-x_max and inside the edge cells, on the
    # first and last time rows of each nested interval: an index that slips
    # to a neighbouring row or parameter corner misses the oracle
    grid = gx.SpaceTimeGrid(n_x=n_x, x_max=8.0)
    field = gx.conditional_expectation(gx.PayoffSpec.parse(source, times),
                                       band12, grid)
    x_max, dx = field.x_max, field.dx
    edges = np.array([-x_max, -x_max + dx / 3, x_max - dx / 3, x_max])
    t = np.concatenate([
        [iv.t_start, (iv.times[0] + iv.times[1]) / 2,
         (iv.times[-2] + iv.times[-1]) / 2, np.nextafter(iv.t_end, 0.0)]
        for iv in field.intervals[1:]])
    dim = len(times) - 1
    hist = np.stack(np.meshgrid(*[edges] * dim, indexing="ij"),
                    -1).reshape(-1, dim)
    hist = np.repeat(hist, len(edges), axis=0)
    x = np.broadcast_to(np.tile(edges, len(hist) // len(edges))[:, None],
                        (len(hist), len(t)))
    got, _ = field.read_along(t, x, hist)
    want = _scipy_oracle(field, np.broadcast_to(t, x.shape).ravel(),
                         x.ravel(), np.repeat(hist, len(t), axis=0))
    for c in range(3):
        scale = np.abs(want[:, c]).max()
        assert np.abs(got[:, c] - want[:, c]).max() <= 1e-12 * scale


def test_nested_read_exact_on_nodes(field_cache):
    field = field_cache("sq(x2 - x1)", (0.5, 1.0))
    iv = field.intervals[1]
    k = np.arange(0, len(field.x), 7)       # one history node per path
    x = np.broadcast_to(field.x, (len(k), len(field.x)))
    vals, _ = field.read_along(np.full(len(field.x), 0.5), x,
                               field.x[k].reshape(-1, 1))
    assert np.array_equal(vals[:, 0], iv.values[k, 0, :].ravel())


@pytest.mark.parametrize("k", [0, 1, 1 << 16, (1 << 16) + 1])
def test_read_independent_of_chunking(field_cache, k):
    field = field_cache("sq(x2 - x1)", (0.5, 1.0))
    rng = np.random.default_rng(k)
    t = rng.uniform(0.0, 1.0, k)
    x = rng.normal(0.0, 3.0, k)
    hist = rng.normal(0.0, 3.0, (k, 1))
    path_hist = np.array([[0.3]])
    # k paths at one nested time, each with its own history (blocks of
    # paths), and one path at k times (batches of columns); each query's
    # time and history as the grid gives them
    reads = [(field.read_along([0.75], x.reshape(-1, 1), hist),
              np.full(k, 0.75), hist),
             (field.read_along(t, x.reshape(1, -1), path_hist),
              t, np.broadcast_to(path_hist, (k, 1)))]
    # every query at a chunk edge, plus a sample, read one at a time
    picks = [j for j in (0, 1, (1 << 16) - 1, 1 << 16) if j < k]
    picks += list(rng.integers(0, k, 100)) if k else []
    for (vals, clamped), qt, qhist in reads:
        assert vals.shape == (k, 3) and clamped.shape == (k,)
        for j in picks:
            one, one_clamped = field.read_along(qt[j:j + 1], [[x[j]]],
                                                qhist[j:j + 1])
            assert np.array_equal(one[0], vals[j])
            assert one_clamped[0] == clamped[j]


def test_read_scratch_does_not_grow_with_paths(field_cache):
    # the read's own memory, its traced peak less its output and flags, is
    # the same for 4096 and 32768 paths: blocks of whole paths, not the
    # whole column batch, go through the gather
    field = field_cache("sq(x1)")
    t = np.linspace(0.2, 0.3, 16)
    scratch = []
    for n_paths in (4096, 32768):
        x = np.random.default_rng(n_paths).normal(0.0, 2.0, (n_paths, 16))
        tracemalloc.start()
        try:
            vals, clamped = field.read_along(t, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch.append(peak - vals.nbytes - clamped.nbytes)
    assert abs(scratch[1] - scratch[0]) <= 1 << 16


def test_clamped_flag_on_history(field_cache):
    field = field_cache("sq(x2 - x1)", (0.5, 1.0))
    x_max = field.x_max
    hist = np.array([[0.3], [x_max + 1.0], [-x_max - 1.0], [x_max + 1.0]])
    t = np.array([0.75, 0.75, 0.75, 0.25])      # the last reads no history
    reads = [field.read_along([tj], [[0.0]], h.reshape(1, 1))
             for tj, h in zip(t, hist)]
    assert [bool(c[0]) for _, c in reads] == [False, True, True, False]
    edge, _ = field.read_along([0.75], [[0.0]], [[x_max]])
    assert np.array_equal(reads[1][0][0], edge[0])


def test_value_kind_selects_column(field_cache, flat_read):
    field = field_cache("call(x1, 0)")
    vals, _ = flat_read(field, [0.3], [0.4])
    for c, kind in enumerate(("value", "gradient", "hessian")):
        assert field.value(0.3, (), 0.4, kind=kind) == vals[0, c]
    with pytest.raises(ValueError):
        field.value(0.3, (), 0.4, kind="laplacian")


def test_degenerate_lower_bound_supported(grid201):
    band = gx.VolBand.scalar(0.0, 2.0)
    value = gx.g_expectation(gx.PayoffSpec.parse("neg(sq(x1))"), band, grid201)
    assert value == pytest.approx(0.0, abs=1e-2)  # concave prices at a_low=0


def _assert_grid_read_is_flat_read(flat_read, field, t, x, hist=None):
    """A path-grid read against the oracle read of the same queries, one
    per entry, bit for bit; returns the clamped flags."""
    got, got_clamped = field.read_along(t, x, hist)
    flat_hist = None if hist is None else np.repeat(hist, x.shape[1], axis=0)
    want, want_clamped = flat_read(field, np.broadcast_to(t, x.shape), x,
                                   flat_hist)
    assert got.shape == (x.size, 3)
    assert np.array_equal(got, want)
    assert np.array_equal(got_clamped, want_clamped)
    return got_clamped.reshape(x.shape)


def _grid_positions(rng, field, shape):
    """Positions inside the truncation, past +-x_max and in the edge cells
    ix = 0 and ix = n_x - 2, plus nodes."""
    x_max, dx = field.x_max, field.dx
    pool = np.concatenate([
        rng.uniform(-x_max, x_max, 400),
        rng.uniform(x_max, x_max + 3.0, 40),
        -rng.uniform(x_max, x_max + 3.0, 40),
        -x_max + rng.uniform(0.0, dx, 40),
        x_max - rng.uniform(0.0, dx, 40),
        field.x[::40],
    ])
    return rng.choice(pool, shape)


@pytest.mark.parametrize("n_paths", [1, 4096 + 100])
@pytest.mark.parametrize("n_times", [2, 17, 257])
def test_grid_read_bit_equal_to_flat_read(band12, grid401, flat_read, n_paths,
                                          n_times):
    # n_times - 1 = 16 and 256 fill whole column batches, then one more
    field = gx.conditional_expectation(gx.PayoffSpec.parse("call(x1, 0.3)"),
                                       band12, grid401)
    rng = np.random.default_rng(n_paths + n_times)
    x = _grid_positions(rng, field, (n_paths, n_times))
    clamped = _assert_grid_read_is_flat_read(
        flat_read, field, np.linspace(0.0, 1.0, n_times), x)
    if n_paths > 1:
        assert clamped.any() and not clamped.all()
        ix = np.floor((x + field.x_max) / field.dx)
        assert (ix == 0).any() and (ix == len(field.x) - 2).any()


def test_grid_read_of_scattered_columns(field_cache, flat_read):
    # columns out of order and outside [0, 1]: no column run is a slice
    field = field_cache("sq(x1)")
    rng = np.random.default_rng(11)
    t = rng.permutation(np.concatenate([np.linspace(0.0, 1.0, 40),
                                        [-0.1, 1.1, 0.5]]))
    _assert_grid_read_is_flat_read(flat_read, field, t,
                                   _grid_positions(rng, field, (300, len(t))))


@pytest.mark.parametrize("source,times,n_x,n_times", [
    ("sq(x2 - x1)", (0.5, 1.0), 201, 17),
    ("sq(x3 - x2) + abs(x1)", (1 / 3, 2 / 3, 1.0), 61, 25),
])
def test_grid_read_bit_equal_on_nested_fields(band12, flat_read, source, times,
                                              n_x, n_times):
    grid = gx.SpaceTimeGrid(n_x=n_x, x_max=8.0)
    field = gx.conditional_expectation(gx.PayoffSpec.parse(source, times),
                                       band12, grid)
    rng = np.random.default_rng(n_x)
    t = np.linspace(0.0, 1.0, n_times)
    assert set(times[:-1]) <= set(t)          # columns exactly on the dates
    n_paths = (1 << 16) // n_times + 300      # more than one block of rows
    x = _grid_positions(rng, field, (n_paths, n_times))
    hist = rng.normal(0.0, 3.0, (n_paths, len(times) - 1))
    hist[-20:] *= 5.0                                   # clamped history
    clamped = _assert_grid_read_is_flat_read(flat_read, field, t, x, hist)
    assert clamped[-20:, -1].any()
    with pytest.raises(ValueError):
        field.read_along(t, x)
    with pytest.raises(ValueError):
        field.read_along(t, x, hist[1:])


def test_as_slice_takes_only_consecutive_runs():
    assert pde._as_slice(np.array([4, 5, 6])) == slice(4, 7)
    # the span of a run, but not a run: kept as indices
    for cols in ([0, 16, 16, 16], [3, 10, 5], [2, 2, 3]):
        got = pde._as_slice(np.array(cols))
        assert isinstance(got, np.ndarray) and got.tolist() == cols


# Peng's axioms on generated payoffs.  Under the CFL bound each explicit
# step v + dt/2 * max(a_lower D2v, a_upper D2v) is monotone and sublinear
# in v, so the discrete G-expectation keeps the axioms node by node up to
# rounding, whatever the payoff's convexity.  Each slack is AXIOM_SLACK *
# eps * scale * (march steps from 1 to 0), scale = max|u[xi]| + max|u[eta]|
# + 1.  Over 2000 generated pairs on this grid the largest residuals were
# 0.036 of eps * scale * steps (homogeneity), 0.016 (constants) and 0.015
# (subadditivity); monotonicity and u[xi] + u[-xi] >= 0 held exactly.
AXIOM_SLACK = 0.1
AXIOM_GRID = gx.SpaceTimeGrid(n_x=41, x_max=3.0)


def _random_payoff(rng, depth, n_dates):
    """A tree of payoff._OPS operators over x1..x{n_dates}, at most `depth`
    operators deep, with constants in [-2, 2]."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return gx.coord(int(rng.integers(1, n_dates + 1)))
        names = [n for n, spec in _OPS.items() if spec[1] == 0]
    else:
        names = [n for n, spec in _OPS.items() if spec[1] > 0]
    name = names[rng.integers(len(names))]
    _, n_expr, n_const, _ = _OPS[name]
    args = [_random_payoff(rng, depth - 1, n_dates) for _ in range(n_expr)]
    consts = sorted(round(float(rng.uniform(-2.0, 2.0)), 2)
                    for _ in range(n_const))
    return Expr(name, *args, *consts)


def test_peng_axioms_on_generated_payoffs(band12):
    eps = np.finfo(float).eps
    lam, shift = 2.5, 0.7
    rng = np.random.default_rng(20100920)
    for i in range(64):
        times = (1.0,) if i % 2 else (0.5, 1.0)
        xi = _random_payoff(rng, 3, len(times))
        eta = _random_payoff(rng, 3, len(times))

        def u(expr):
            field = gx.value_field(gx.PayoffSpec(expr, times), band12,
                                   AXIOM_GRID)
            return field.intervals[0].values[0]       # t = 0, every node

        u_xi, u_eta = u(xi), u(eta)
        dates = (0.0,) + times
        steps = sum(AXIOM_GRID.steps_for(band12, s, t)
                    for s, t in zip(dates, dates[1:]))
        scale = np.abs(u_xi).max() + np.abs(u_eta).max() + 1.0
        slack = AXIOM_SLACK * eps * scale * steps
        pair = f"{xi.to_source()} with {eta.to_source()} at {times}"
        assert (u(Expr("max", xi, eta)) >= np.maximum(u_xi, u_eta)
                - slack).all(), f"monotonicity: {pair}"
        assert (np.abs(u(xi + shift) - u_xi - shift) <= slack).all(), \
            f"constant preservation: {pair}"
        assert (u(xi + eta) <= u_xi + u_eta + slack).all(), \
            f"subadditivity: {pair}"
        assert (np.abs(u(lam * xi) - lam * u_xi) <= slack).all(), \
            f"positive homogeneity: {pair}"
        assert (u_xi + u(-xi) >= -slack).all(), f"u[xi] + u[-xi]: {pair}"
