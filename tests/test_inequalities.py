import json
import math

import pytest

import gexpect as gx
from gexpect import inequalities as ineq
from gexpect.errors import NumericalError


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


def test_bdg_constant_integrand(band12, fam5):
    lower, upper = ineq.bdg_check(ineq.H_BUILTINS["one"], fam5, 20_000, 128,
                                  seed=41)
    # integrand norm: sqrt(sup_P int alpha dt) = sqrt(2)
    assert lower.left == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert lower.passed and upper.passed
    assert upper.right == pytest.approx(2.0 * lower.left, abs=1e-12)


def test_bdg_zero_integrand(band12, fam5):
    lower, upper = ineq.bdg_check(ineq.HProcess.constant(0.0), fam5, 500, 32,
                                  seed=41)
    assert lower.left == 0.0 and lower.right == 0.0 and upper.left == 0.0
    assert lower.passed and upper.passed


def test_bdg_time_window_integrand(band12, fam5):
    lower, upper = ineq.bdg_check(ineq.H_BUILTINS["half-time"], fam5, 20_000,
                                  128, seed=43)
    # int_0^{1/2} alpha dt at a_up: norm^2 = 1
    assert lower.left == pytest.approx(1.0, abs=1e-9)
    assert lower.passed and upper.passed


def test_bdg_state_dependent_integrand(band12, fam5):
    reports = ineq.bdg_check(ineq.H_BUILTINS["cos-decay"], fam5, 20_000, 128,
                             seed=47)
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
    with pytest.raises(NumericalError, match="all paths excluded"):
        ineq._delta_norms(payoff, payoff.shifted(0.1), band12, grid, family,
                          64, 32, 20100920)


def test_difference_identical_payoffs(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    r1, r2 = ineq.difference_check(payoff, payoff, band12, grid201, fam5,
                                   500, 128, seed=59)
    assert r1.left == 0.0 and r2.left == 0.0
    assert r1.passed and r2.passed


def test_difference_constant_shift(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("sq(x1)")
    r1, r2 = ineq.difference_check(payoff, payoff.shifted(0.1), band12,
                                   grid201, fam5, 800, 128, seed=59)
    # constants shift the value only: |dY| = 0.1 exactly, H and K unchanged
    assert r1.left == pytest.approx(0.1, abs=1e-9)
    assert r1.right == pytest.approx(0.1, abs=1e-9)
    assert r2.left <= 1e-9
    assert r1.passed and r2.passed


def test_difference_scaled_call(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("call(x1, 0)")
    scaled = gx.PayoffSpec(gx.const(0.9) * payoff.expr, payoff.times)
    r1, r2 = ineq.difference_check(payoff, scaled, band12, grid201, fam5,
                                   1500, 128, seed=61)
    assert r1.passed and r2.passed
    assert not r2.config["cstar_flagged"]


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


def test_doob_constant_c4():
    assert math.sqrt(4.0 / 2.0) == pytest.approx(math.sqrt(2.0))


def test_doob_constant_payoff(band12, grid201, fam5):
    payoff = gx.PayoffSpec.parse("const(1)")
    r = ineq.doob_check(payoff, 4.0, band12, grid201, fam5, 400, 64, seed=67)
    assert r.constant == pytest.approx(math.sqrt(2.0))
    assert r.left == pytest.approx(1.0, abs=1e-9)
    assert r.right == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert r.passed


def test_doob_bounded_payoffs(band12, grid201, fam5):
    for src in ("min(abs(x1), 1)", "clamp(x1, -1, 2)", "min(call(x1, 0), 2)"):
        payoff = gx.PayoffSpec.parse(src)
        r = ineq.doob_check(payoff, 4.0, band12, grid201, fam5, 3000, 128,
                            seed=71)
        assert r.passed, src


def test_doob_validation(band12, grid201, fam5):
    with pytest.raises(ValueError):
        ineq.doob_check(gx.PayoffSpec.parse("min(abs(x1), 1)"), 2.0, band12,
                        grid201, fam5, 100, 32, seed=1)
    with pytest.raises(ValueError):
        ineq.doob_check(gx.PayoffSpec.parse("sq(x1)"), 4.0, band12, grid201,
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
