import json
import math
from collections import Counter

import numpy as np
import pytest

import gexpect as gx
from gexpect import inequalities as ineq
from gexpect import kernels
from gexpect import montecarlo as mc
from gexpect.errors import NumericalError
from gexpect.inequalities import DIFFERENCE_CSTAR, InequalityReport
from gexpect.montecarlo import Moments, derive_seed
from gexpect.payoff import Expr, PayoffSpec
from gexpect.pde import conditional_expectation
from gexpect.representation import extract, require_included


@pytest.fixture(scope="module")
def fam5(band12):
    return gx.ControlFamily.constants(band12, 5)


def test_report_semantics():
    r = ineq.InequalityReport("demo", 1.0, 0.9, None, 0.2, {}, {"k": 1})
    assert r.passed and r.margin == pytest.approx(0.1)
    r2 = ineq.InequalityReport("demo", 1.0, 0.9, None, 0.05, {}, {"k": 1})
    assert not r2.passed
    assert r.fingerprint == r2.fingerprint  # same config
    payload = json.loads(r.to_json())
    assert payload["name"] == "demo" and payload["passed"] is True


def test_fingerprint_ignores_measured_results():
    # difference-decomposition records its implied C* beside the config;
    # a last-bit change of that result must not change the fingerprint
    config = {"check": "difference", "seed": 7}
    one = ineq.InequalityReport("demo", 1.0, 2.0, 1.0, 0.0, {}, dict(
        config, implied_cstar=0.23, cstar_flagged=False))
    two = ineq.InequalityReport("demo", 1.0, 2.0, 1.0, 0.0, {}, dict(
        config, implied_cstar=0.23 + 2.8e-17, cstar_flagged=False))
    assert one.fingerprint == two.fingerprint
    assert one.config["implied_cstar"] != two.config["implied_cstar"]
    other = ineq.InequalityReport("demo", 1.0, 2.0, 1.0, 0.0, {}, dict(
        config, seed=8, implied_cstar=0.23, cstar_flagged=False))
    assert other.fingerprint != one.fingerprint


def test_bdg_constant_integrand(band12, fam5):
    lower, upper = ineq.bdg_check([ineq.H_BUILTINS["one"]], fam5, 20_000,
                                  128, seed=41)
    # integrand norm: sqrt(sup_P int alpha dt) = sqrt(2)
    assert lower.left == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert lower.passed and upper.passed
    assert upper.right == pytest.approx(2.0 * lower.left, abs=1e-12)


def test_bdg_zero_integrand(band12, fam5):
    lower, upper = ineq.bdg_check([ineq.HProcess.constant(0.0)], fam5, 500,
                                  32, seed=41)
    assert lower.left == 0.0 and lower.right == 0.0 and upper.left == 0.0
    assert lower.passed and upper.passed


def test_bdg_time_window_integrand(band12, fam5):
    lower, upper = ineq.bdg_check([ineq.H_BUILTINS["half-time"]], fam5,
                                  20_000, 128, seed=43)
    # int_0^{1/2} alpha dt at a_up: norm^2 = 1
    assert lower.left == pytest.approx(1.0, abs=1e-9)
    assert lower.passed and upper.passed


def test_bdg_state_dependent_integrand(band12, fam5):
    reports = ineq.bdg_check([ineq.H_BUILTINS["cos-decay"]], fam5, 20_000,
                             128, seed=47)
    assert all(r.passed for r in reports)


def test_apriori_quadratic(band12, grid401, fam5):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    field = gx.conditional_expectation(payoff, band12, grid401)
    r_k, r_agg = ineq.apriori_check(payoff, band12, field, fam5, 1500, 256,
                                    seed=53)
    assert r_k.passed and r_k.constant == 54.0
    assert r_k.left <= r_k.right * 0.1     # wide margin expected
    assert r_agg.passed
    assert r_agg.constant == pytest.approx(4.0 + math.sqrt(54.0))


def test_apriori_linear_trivial(band12, grid201, fam5, field_cache):
    payoff = gx.PayoffSpec.parse("x1")
    r_k, r_agg = ineq.apriori_check(payoff, band12, field_cache("x1"), fam5,
                                    500, 128, seed=53)
    assert r_k.left <= 1e-12 and r_k.passed and r_agg.passed


def test_delta_norms_all_paths_excluded_raise(band12):
    # no path of some control stays inside x_max = 0.5
    grid = gx.SpaceTimeGrid(n_x=41, x_max=0.5)
    family = gx.ControlFamily.constants(band12, 9)
    payoff = gx.PayoffSpec.parse("sq(x1)")
    fields = [conditional_expectation(p, band12, grid)
              for p in (payoff, payoff.shifted(0.1))]
    with pytest.raises(NumericalError, match="all paths excluded"):
        ineq._delta_norms(fields, band12, family, 64, 32, 20100920)


def test_difference_identical_payoffs(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    r1, r2 = ineq.difference_check(payoff, [payoff], band12, grid201, fam5,
                                   500, 128, seed=59)
    assert r1.left == 0.0 and r2.left == 0.0
    assert r1.passed and r2.passed


def test_difference_constant_shift(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    r1, r2 = ineq.difference_check(payoff, [payoff.shifted(0.1)], band12,
                                   grid201, fam5, 800, 128, seed=59)
    # constants shift the value only: |dY| = 0.1 exactly, H and K unchanged
    assert r1.left == pytest.approx(0.1, abs=1e-9)
    assert r1.right == pytest.approx(0.1, abs=1e-9)
    assert r2.left <= 1e-9
    assert r1.passed and r2.passed


def test_difference_scaled_call(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    scaled = gx.PayoffSpec(gx.const(0.9) * payoff.expr, payoff.times)
    r1, r2 = ineq.difference_check(payoff, [scaled], band12, grid201, fam5,
                                   1500, 128, seed=61)
    assert r1.passed and r2.passed
    assert not r2.config["cstar_flagged"]


# The scheme is monotone and sublinear, so |u[xi1] - u[xi2]| <= u[|xi1 - xi2|]
# at every node, and multilinear reads keep the order: on one set of paths
# sup |dY| <= sup u[|dxi|] path by path, and difference-value holds up to
# the rounding model of test_pde's Peng-axiom test (0.1 * eps * scale *
# march steps), with no Monte Carlo error in its slack.
@pytest.mark.parametrize("source1, source2, affine", [
    ("sq(x1)", "0.9 * sq(x1)", True),
    ("sq(x1)", "sq(x1) + 0.3 * abs(x1)", False),
    ("min(abs(x1), 1)", "call(x1, 0)", False),
])
def test_difference_value_is_exact_pathwise(band12, fam5, source1, source2,
                                            affine):
    grid = gx.SpaceTimeGrid(n_x=121, x_max=3.0)     # excludes some paths
    payoff1, payoff2 = (gx.PayoffSpec.parse(s) for s in (source1, source2))
    scale = 1.0 + sum(
        float(np.abs(conditional_expectation(p, band12, grid).intervals[0]
                     .values).max()) for p in (payoff1, payoff2))
    slack = (0.1 * np.finfo(float).eps * scale
             * grid.steps_for(band12, 0.0, 1.0))
    for seed in (1, 2, 3, 135):
        r, _ = ineq.difference_check(payoff1, [payoff2], band12, grid, fam5,
                                     700, 32, seed)
        assert r.slack == pytest.approx(slack, rel=1e-12)
        assert r.left <= r.right + slack, seed
        if affine:
            # |0.9 xi - xi| = 0.1 |xi|: both sides estimate one number
            assert abs(r.left - r.right) <= slack, seed


def test_difference_value_detects_a_field_on_a_narrower_band(band12, fam5,
                                                             monkeypatch):
    # the |dxi| fields (the solves told their read times) solved on [1, 1.9]
    # instead of [1, 2]: u[0.1 xi] falls short by about 0.01 (1 - t), which
    # the Monte Carlo slack of a two-sample gate (about 0.03) would hide
    solve = ineq.conditional_expectation

    def narrow(payoff, band, grid, reads=None):
        if reads is not None:
            band = gx.VolBand.scalar(1.0, 1.9)
        return solve(payoff, band, grid, reads)

    monkeypatch.setattr(ineq, "conditional_expectation", narrow)
    payoff = gx.PayoffSpec.parse("sq(x1)")
    scaled = gx.PayoffSpec(gx.const(0.9) * payoff.expr, payoff.times)
    grid = gx.SpaceTimeGrid(n_x=121, x_max=6.0)
    for seed in (1, 2, 3):
        r, _ = ineq.difference_check(payoff, [scaled], band12, grid, fam5,
                                     700, 32, seed)
        assert not r.passed and r.margin < -1e-3, seed


def test_tower_nested_increment(band12, grid401):
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", times=(0.5, 1.0))
    r = ineq.tower_check(payoff, band12, grid401, 0.5)
    assert r.passed and r.left <= 2e-2


def test_tower_constant(band12, grid201):
    payoff = gx.PayoffSpec.parse("const(2)", times=(0.5, 1.0))
    r = ineq.tower_check(payoff, band12, grid201, 0.5)
    assert r.left <= 1e-12


def test_tower_clamped_abs(band12, grid401):
    payoff = gx.PayoffSpec.parse("min(abs(x1), 1)").with_prepended_time(0.5)
    r = ineq.tower_check(payoff, band12, grid401, 0.5)
    assert r.passed and r.left <= 2e-2


def test_tower_requires_monitoring_date(band12, grid201):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    with pytest.raises(ValueError):
        ineq.tower_check(payoff, band12, grid201, 0.5)


def test_tower_rejects_a_later_date_before_solving(band12, grid201,
                                                   monkeypatch):
    def no_solve(*_):
        raise AssertionError("value_field called")

    monkeypatch.setattr(ineq, "value_field", no_solve)
    payoff = gx.PayoffSpec.parse("sq(x3 - x2) + abs(x1)", (0.25, 0.5, 1.0))
    with pytest.raises(ValueError, match="first monitoring date"):
        ineq.tower_check(payoff, band12, grid201, 0.5)


def test_tower_suite_marches_its_block_on_two_slabs(band12, grid401, fam5,
                                                    monkeypatch):
    # verify passes no thread count: on two cores the tower check's 401-row
    # nested block must still be marched in two slabs of about 200 rows
    marched = []
    march = kernels._march

    def recording(values, *args):
        marched.append(len(values))
        march(values, *args)

    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    monkeypatch.setattr(kernels, "_march", recording)
    reports = ineq.run_suite("tower", gx.PayoffSpec.parse("sq(x1)"), band12,
                             grid401, fam5, 64, 16, seed=1)
    assert reports[0].passed
    assert sorted(marched) == [1, 1, 200, 201]


def test_doob_constant_c4():
    assert math.sqrt(4.0 / 2.0) == pytest.approx(math.sqrt(2.0))


def test_doob_constant_payoff(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("const(1)")
    r, = ineq.doob_check([payoff], 4.0, band12, grid201, fam5, 400, 64,
                         seed=67)
    assert r.constant == pytest.approx(math.sqrt(2.0))
    assert r.left == pytest.approx(1.0, abs=1e-9)
    assert r.right == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert r.passed


def test_doob_bounded_payoffs(band12, grid201, fam5):
    for src in ("min(abs(x1), 1)", "clamp(x1, -1, 2)", "min(call(x1, 0), 2)"):
        payoff = gx.PayoffSpec.parse(src)
        r, = ineq.doob_check([payoff], 4.0, band12, grid201, fam5, 3000, 128,
                             seed=71)
        assert r.passed, src


def test_doob_validation(band12, grid201, fam5):
    with pytest.raises(ValueError):
        ineq.doob_check([gx.PayoffSpec.parse("min(abs(x1), 1)")], 2.0,
                        band12, grid201, fam5, 100, 32, seed=1)
    with pytest.raises(ValueError):
        ineq.doob_check([gx.PayoffSpec.parse("sq(x1)")], 4.0, band12, grid201,
                        fam5, 100, 32, seed=1)


def test_mollify_suite(band12):
    reports = ineq.mollify_check(band12)
    assert all(r.passed for r in reports)
    ratios = [r for r in reports if r.name == "mollify-ratio-stability"]
    assert ratios and ratios[0].left <= 0.25


def test_run_suite_dispatch(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    reports = ineq.run_suite("tower", payoff, band12, grid201, fam5, 200, 64,
                             seed=73)
    assert reports and all(r.passed for r in reports)
    with pytest.raises(gx.ConfigError):
        ineq.run_suite("nope", payoff, band12, grid201, fam5, 10, 8, seed=1)


def test_format_table(band12):
    r = ineq.InequalityReport("demo", 1.0, 2.0, None, 0.0, {}, {})
    table = ineq.format_table([r])
    assert "demo" in table and "PASS" in table


# ---------------------------------------------------------------------------
# one sweep per seed: the per-check implementations and calls that
# run_suite made before it shared sweeps, kept verbatim as the oracle
# ---------------------------------------------------------------------------

def _old_bdg_check(h, family, n_paths, n_steps, seed):
    if family.band.d != 1:
        raise ValueError("integral-bound check is d=1 only")

    def fold(bundle):
        x = bundle.states()
        hv = h.evaluate(bundle.times[:-1], x[:, :-1])
        integral = ((bundle.alpha * hv * hv) * bundle.dt).sum(axis=1)
        m_run = np.cumsum(hv * np.diff(x, axis=1), axis=1)
        return Moments.of(integral), Moments.of(np.abs(m_run).max(axis=1) ** 2)

    stats = mc.sweep(family, n_paths, n_steps, seed, fold)
    h_norm, h_se = max((s[0].root(2) for s in stats), key=lambda r: r[0])
    m_norm, m_se = max((s[1].root(2) for s in stats), key=lambda r: r[0])
    config = {"check": "bdg", "integrand": h.name, "n_paths": n_paths,
              "n_steps": n_steps, "seed": seed,
              "family": [c.label for c in family],
              "band": [family.band.lower_scalar, family.band.upper_scalar]}
    stderr = {"integrand_norm": h_se, "integral_norm": m_se}
    slack = 2.0 * (h_se + m_se)
    return [
        InequalityReport(f"bdg-lower[{h.name}]", h_norm, m_norm, 1.0, slack,
                         stderr, config),
        InequalityReport(f"bdg-upper[{h.name}]", m_norm, 2.0 * h_norm, 2.0,
                         slack, stderr, config),
    ]


def _old_delta_norms(payoff1, payoff2, band, grid, family, n_paths, n_steps,
                     seed):
    f1 = conditional_expectation(payoff1, band, grid)
    f2 = conditional_expectation(payoff2, band, grid)
    grid_idx = mc.sup_grid(payoff1.times, n_steps)

    def fold(bundle):
        d1 = extract(payoff1, band, f1, bundle)
        d2 = extract(payoff2, band, f2, bundle)
        inc = d1.included & d2.included
        dy = np.abs(d1.y[inc][:, grid_idx] - d2.y[inc][:, grid_idx]).max(axis=1)
        dk = np.abs(d1.k[inc] - d2.k[inc]).max(axis=1)
        dh = (((d1.h[inc, :-1] - d2.h[inc, :-1]) ** 2
               * bundle.alpha) * bundle.dt).sum(axis=1)
        return Moments.of(dy ** 2), Moments.of(dh), Moments.of(dk ** 2)

    stats = mc.sweep(family, n_paths, n_steps,
                     derive_seed(seed, "difference-paths"), fold)
    require_included(family, stats)
    dy, dy_se = max(stats, key=lambda s: s[0].mean)[0].root(2)
    dh2, dk2 = (max(s[i].mean for s in stats) for i in (1, 2))
    return dy, dy_se, math.sqrt(dh2), math.sqrt(dk2)


def _old_l2_norm(payoff, band, grid, family, n_paths, n_steps, seed):
    f = conditional_expectation(payoff.absolute(), band, grid)
    return mc.lp_norm_detail(payoff, 2.0, family, f, n_paths, n_steps,
                             derive_seed(seed, "difference-paths"))


def _old_dxi_norm(delta, band, grid, family, n_paths, n_steps, seed):
    # |dxi|'s full field, extracted along the difference paths: its sup over
    # the sup grid (t = 1 read from the field) on the included paths
    absolute = delta.absolute()
    f = conditional_expectation(absolute, band, grid)
    grid_idx = mc.sup_grid(delta.times, n_steps)

    def fold(bundle):
        dec = extract(absolute, band, f, bundle)
        return Moments.of(dec.y[dec.included][:, grid_idx].max(axis=1) ** 2),

    stats = mc.sweep(family, n_paths, n_steps,
                     derive_seed(seed, "difference-paths"), fold)
    require_included(family, stats)
    return mc.norm_estimate(family, stats, 2.0)


def _old_difference_check(payoff1, payoff2, band, grid, family, n_paths,
                          n_steps, seed, xi1=None):
    if payoff1.times != payoff2.times:
        raise ValueError("difference check needs matching monitoring dates")
    delta = PayoffSpec(Expr("sub", payoff1.expr, payoff2.expr), payoff1.times)
    args = (band, grid, family, n_paths, n_steps, seed)
    dxi = _old_dxi_norm(delta, *args)
    if xi1 is None:
        xi1 = _old_l2_norm(payoff1, *args)
    xi2 = _old_l2_norm(payoff2, *args)
    dy, dy_se, dh, dk = _old_delta_norms(payoff1, payoff2, *args)
    config = {"check": "difference", "payoff1": payoff1.source(),
              "payoff2": payoff2.source(),
              "band": [band.lower_scalar, band.upper_scalar],
              "grid": [grid.n_x, grid.x_max, grid.cfl_fraction],
              "n_paths": n_paths, "n_steps": n_steps, "seed": seed,
              "family": [c.label for c in family]}
    # rounding slack of the pathwise order: no Monte Carlo error
    scale = 1.0 + sum(
        float(np.abs(conditional_expectation(p, band, grid).intervals[0]
                     .values).max()) for p in (payoff1, payoff2))
    steps = grid.steps_for(band, 0.0, 1.0)
    slack1 = ineq.AXIOM_SLACK * float(np.finfo(float).eps) * scale * steps
    r1 = InequalityReport("difference-value", dy, dxi.value, 1.0, slack1,
                          {"delta_y": dy_se, "delta_xi": dxi.stderr}, config)
    bracket = dxi.value + ((math.sqrt(xi1.value) + math.sqrt(xi2.value))
                           * math.sqrt(dxi.value))
    implied = (dh + dk) / bracket if bracket > 0 else 0.0
    cfg2 = dict(config)
    cfg2["implied_cstar"] = implied
    cfg2["cstar_flagged"] = bool(implied > 2.0 * DIFFERENCE_CSTAR)
    r2 = InequalityReport("difference-decomposition", dh + dk,
                          DIFFERENCE_CSTAR * bracket, DIFFERENCE_CSTAR,
                          2.0 * (dxi.stderr + xi1.stderr + xi2.stderr),
                          {"delta_xi": dxi.stderr, "xi1": xi1.stderr,
                           "xi2": xi2.stderr}, cfg2)
    return [r1, r2]


def _old_doob_check(payoff, p, band, grid, family, n_paths, n_steps, seed):
    if p <= 2:
        raise ValueError("the maximal inequality needs p > 2")
    if payoff.sup_bound is None:
        raise ValueError("doob check expects a bounded payoff")
    c_p = math.sqrt(p / (p - 2.0))
    abs_field = conditional_expectation(payoff.absolute(), band, grid)
    lhs = mc.lp_norm_detail(payoff, 2.0, family, abs_field, n_paths, n_steps,
                            derive_seed(seed, "doob-lhs"))
    stats = mc.sweep(family, n_paths, n_steps, derive_seed(seed, "doob-rhs"),
                     lambda bundle: (Moments.of(np.abs(payoff.evaluate(
                         bundle.monitor_values(payoff.times))) ** p),))
    rhs, rhs_se = max((m for m, in stats), key=lambda m: m.mean).root(p)
    config = {"check": "doob", "payoff": payoff.source(), "p": p,
              "band": [band.lower_scalar, band.upper_scalar],
              "n_paths": n_paths, "n_steps": n_steps, "seed": seed,
              "family": [c.label for c in family]}
    return InequalityReport(
        f"doob[p={p:g}]", lhs.value, c_p * rhs, c_p,
        2.0 * (lhs.stderr + c_p * rhs_se),
        {"lhs": lhs.stderr, "rhs": rhs_se}, config)


def _old_run_suite(name, payoff, band, grid, family, n_paths, n_steps, seed):
    if name == "bdg":
        reports = []
        for h in ineq.H_BUILTINS.values():
            reports.extend(_old_bdg_check(h, family, n_paths, n_steps, seed))
        return reports
    if name == "difference":
        args = (band, grid, family, n_paths, n_steps, seed)
        xi1 = _old_l2_norm(payoff, *args)
        scaled = PayoffSpec(Expr("mul", Expr("const", 0.9), payoff.expr),
                            payoff.times)
        return [r for other in (payoff.shifted(0.1), scaled)
                for r in _old_difference_check(payoff, other, *args,
                                               xi1=xi1)]
    if name == "doob":
        reports = []
        for src in ("min(abs(x1), 1)", "clamp(x1, -1, 2)",
                    "min(call(x1, 0), 2)"):
            bounded = PayoffSpec.parse(src, (1.0,))
            reports.append(_old_doob_check(bounded, 4.0, band, grid, family,
                                           n_paths, n_steps, seed))
        return reports
    raise ValueError(name)


SHARED_SUITES = ("bdg", "doob", "difference")


@pytest.mark.parametrize("name", SHARED_SUITES)
def test_run_suite_matches_per_check_calls(name, band12, fam5):
    # two full path blocks and a partial one; x_max = 3 excludes some paths
    grid = gx.SpaceTimeGrid(n_x=121, x_max=3.0)
    payoff = gx.PayoffSpec.parse("sq(x1)")
    args = (payoff, band12, grid, fam5, 2 * mc.PATH_BLOCK + 100, 16, 83)
    got = [r.to_json() for r in ineq.run_suite(name, *args)]
    want = [r.to_json() for r in _old_run_suite(name, *args)]
    assert got == want


def test_single_checks_match_old_calls(band12, fam5):
    grid = gx.SpaceTimeGrid(n_x=121, x_max=3.0)
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    bounded = gx.PayoffSpec.parse("clamp(x1, -1, 2)")
    args = (fam5, mc.PATH_BLOCK + 7, 16, 89)
    h = ineq.H_BUILTINS["cos-decay"]
    assert ([r.to_json() for r in ineq.bdg_check([h], *args)]
            == [r.to_json() for r in _old_bdg_check(h, *args)])
    args = (band12, grid, *args)
    assert ([r.to_json() for r in ineq.doob_check([bounded], 4.0, *args)]
            == [_old_doob_check(bounded, 4.0, *args).to_json()])
    other = payoff.shifted(0.2)
    assert ([r.to_json() for r in ineq.difference_check(payoff, [other],
                                                        *args)]
            == [r.to_json() for r in _old_difference_check(payoff, other,
                                                           *args)])
    fields = [conditional_expectation(p, band12, grid)
              for p in (payoff, other)]
    assert (ineq._delta_norms(fields, band12, *args[2:])[0]
            == [_old_delta_norms(payoff, other, *args)])


@pytest.mark.parametrize("name, sweeps", [("bdg", 1), ("doob", 2),
                                          ("difference", 1),
                                          # apriori folds into difference
                                          ("apriori,difference", 1)])
def test_run_suite_draws_each_block_once(name, sweeps, band12, fam5,
                                         monkeypatch):
    draws = Counter()
    blocks = mc.iter_increment_blocks

    def counting(seed, *args, **kwargs):
        for b, block in enumerate(blocks(seed, *args, **kwargs)):
            draws[seed, b] += 1
            yield block

    monkeypatch.setattr(mc, "iter_increment_blocks", counting)
    grid = gx.SpaceTimeGrid(n_x=61, x_max=4.0)
    ineq.run_suites(name.split(","), gx.PayoffSpec.parse("sq(x1)"), band12,
                    grid, fam5, mc.PATH_BLOCK + 100, 8, 97)
    assert set(draws.values()) == {1}
    assert len({seed for seed, _ in draws}) == sweeps
    assert len(draws) == 2 * sweeps
