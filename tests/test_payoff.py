import math

import numpy as np
import pytest

import gexpect as gx
from gexpect.errors import ConfigError
from gexpect.payoff import _OPS, parse_expr

W1 = np.array([-2.5, -0.5, 0.0, 0.75, 3.0])
W2 = np.array([1.0, -1.5, 0.25, 0.75, -3.0])

# every operator of the table: a text using it on x1 (and x2), and its
# numpy form written out, of the values W1 (and W2)
OPERATORS = {
    "const": ("const(1.5)", lambda a, b: 1.5),
    "add": ("x1 + x2", lambda a, b: a + b),
    "sub": ("x1 - x2", lambda a, b: a - b),
    "mul": ("x1 * x2", lambda a, b: a * b),
    "neg": ("neg(x1)", lambda a, b: -a),
    "abs": ("abs(x1)", lambda a, b: np.abs(a)),
    "sq": ("sq(x1)", lambda a, b: a * a),
    "min": ("min(x1, x2)", lambda a, b: np.minimum(a, b)),
    "max": ("max(x1, x2)", lambda a, b: np.maximum(a, b)),
    "clamp": ("clamp(x1, -1, 2)", lambda a, b: np.clip(a, -1.0, 2.0)),
    "call": ("call(x1, 0.5)", lambda a, b: np.maximum(a - 0.5, 0.0)),
    "put": ("put(x1, 0.5)", lambda a, b: np.maximum(0.5 - a, 0.0)),
}
INFIX = ("add", "sub", "mul")


@pytest.mark.parametrize("source,args,expected", [
    ("sq(x1)", (3.0,), 9.0),
    ("call(x1, 0)", (-2.0,), 0.0),
    ("call(x1, 0)", (1.5,), 1.5),
    ("put(x1, 1)", (0.25,), 0.75),
    ("min(abs(x1), 1)", (-3.0,), 1.0),
    ("neg(sq(x1))", (2.0,), -4.0),
    ("clamp(x1, -1, 2)", (5.0,), 2.0),
    ("(x2 - x1) * (x2 - x1)", (1.0, 3.0), 4.0),
    ("x1 + 2 * x2", (1.0, 0.5), 2.0),
    ("const(3)", (0.0,), 3.0),
    ("-x1 + 1", (0.25,), 0.75),
])
def test_eval(source, args, expected):
    expr = parse_expr(source)
    assert float(expr(*args)) == pytest.approx(expected)


@pytest.mark.parametrize("op", sorted(_OPS))
def test_operator_evaluates_its_numpy_form(op):
    source, form = OPERATORS[op]
    expr = parse_expr(source)
    assert expr.op == op
    got = np.broadcast_to(expr(W1, W2), W1.shape)
    assert np.array_equal(got, np.broadcast_to(form(W1, W2), W1.shape))


@pytest.mark.parametrize("op", sorted(_OPS))
def test_operator_round_trips_through_source(op):
    expr = parse_expr(OPERATORS[op][0])
    again = parse_expr(expr.to_source())
    assert again == expr
    assert again.to_source() == expr.to_source()


@pytest.mark.parametrize("op", sorted(set(_OPS) - set(INFIX)))
def test_operator_wrong_argument_count_is_config_error(op):
    source = OPERATORS[op][0]
    n = source.count(",") + 1
    extra = source[:-1] + ", 1)"
    with pytest.raises(ConfigError, match=rf"^{op} takes {n} argument\(s\), "
                                          rf"got {n + 1}$"):
        parse_expr(extra)
    if n > 1:
        fewer = source[:source.rindex(",")] + ")"
        with pytest.raises(ConfigError, match=rf"got {n - 1}$"):
            parse_expr(fewer)


@pytest.mark.parametrize("op", INFIX)
def test_infix_operator_is_no_function(op):
    assert {name for name, entry in _OPS.items() if entry[0]} == set(INFIX)
    with pytest.raises(ConfigError, match=f"unknown payoff function '{op}'"):
        parse_expr(f"{op}(x1, x2)")


def test_eval_vectorized():
    expr = parse_expr("max(x1, x2)")
    out = expr(np.array([1.0, -1.0]), np.array([0.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_round_trip_through_source():
    for source in ("sq(x1)", "(x2 - x1)", "min(abs(x1), 1.0)",
                   "call(x1, 0.0)", "clamp(x2, -1.0, 2.0)",
                   "((0.5 * x1) + 1.0)", "neg(x3)"):
        expr = parse_expr(source)
        again = parse_expr(expr.to_source())
        assert again == expr


def test_parser_errors():
    for bad in ("sq(x1", "foo(x1)", "x4", "sq(x1) x2", "min(x1)",
                "call(x1, x2)", "clamp(x1, 2, 1)", "1 ? 2"):
        with pytest.raises(ConfigError):
            parse_expr(bad)


def test_arity_and_structural_equality():
    assert parse_expr("sq(x1)").arity == 1
    assert parse_expr("x1 + x3").arity == 3
    assert parse_expr("const(2)").arity == 0
    assert parse_expr("sq(x1)") == parse_expr("sq(x1)")
    assert parse_expr("sq(x1)") != parse_expr("sq(x2)")


def test_lipschitz_bounds():
    assert parse_expr("x1").lipschitz() == 1.0
    assert parse_expr("abs(x1)").lipschitz() == 1.0
    assert parse_expr("x1 - x2").lipschitz() == 2.0
    assert parse_expr("min(abs(x1), 1)").lipschitz() == 1.0
    assert parse_expr("sq(x1)").lipschitz(8.0) == pytest.approx(16.0)
    assert math.isinf(parse_expr("sq(x1)").lipschitz())
    # 3-Lipschitz scaling
    assert parse_expr("3 * x1").lipschitz() == pytest.approx(3.0)
    # constant where the argument's range lies on a flat side
    assert parse_expr("clamp(sq(x1) + 5, -1, 2)").lipschitz() == 0.0
    assert parse_expr("clamp(neg(abs(x1)) - 5, 3, 4)").lipschitz() == 0.0
    assert parse_expr("clamp(x1, -1, 2)").lipschitz() == 1.0
    assert parse_expr("clamp(sq(x1), -1, 2)").lipschitz(1.0) == 2.0
    assert parse_expr("call(neg(sq(x1)), 0)").lipschitz() == 0.0
    assert parse_expr("call(x1, 3)").lipschitz(2.0) == 0.0
    assert parse_expr("call(x1, 3)").lipschitz(4.0) == 1.0
    assert parse_expr("put(sq(x1) + 1, 1)").lipschitz() == 0.0
    assert parse_expr("put(x1, -3)").lipschitz(2.0) == 0.0
    assert parse_expr("put(x1, -3)").lipschitz() == 1.0


def test_sup_bounds():
    assert parse_expr("min(abs(x1), 1)").sup_bound() == 1.0
    assert parse_expr("clamp(x1, -1, 2)").sup_bound() == 2.0
    assert parse_expr("sq(x1)").sup_bound() is None
    assert parse_expr("call(x1, 0)").sup_bound() is None
    assert parse_expr("const(3)").sup_bound() == 3.0
    # clamp clips both ends of its argument's range into its bounds
    above = parse_expr("clamp(abs(x1) + 5, -1, 2)")
    assert above.value_range() == (2.0, 2.0)
    assert above.sup_bound() == 2.0
    below = parse_expr("clamp(neg(abs(x1)) - 5, 3, 4)")
    assert below.value_range() == (3.0, 3.0)
    assert parse_expr("clamp(x1, -1, 2)").value_range() == (-1.0, 2.0)


def test_payoff_spec_validation():
    with pytest.raises(ValueError):
        gx.PayoffSpec.parse("sq(x1)", times=(0.5,))       # last != 1
    with pytest.raises(ValueError):
        gx.PayoffSpec.parse("sq(x1)", times=(0.7, 0.5, 1.0))
    with pytest.raises(ValueError):
        gx.PayoffSpec.parse("sq(x2)", times=(1.0,))       # undeclared coord
    spec = gx.PayoffSpec.parse("min(abs(x1), 1)")
    assert spec.sup_bound == 1.0
    assert spec.shifted(-0.5).sup_bound == 0.5      # the tree's own bound
    assert spec.n == 1


def test_payoff_evaluate_shapes():
    spec = gx.PayoffSpec.parse("sq(x2 - x1)", times=(0.5, 1.0))
    samples = np.array([[0.0, 2.0], [1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(spec.evaluate(samples), [4.0, 0.0, 4.0])
    constant = gx.PayoffSpec.parse("const(3)")
    assert np.allclose(constant.evaluate(np.zeros((5, 1))), 3.0)


def test_transformations():
    spec = gx.PayoffSpec.parse("sq(x1)")
    assert spec.negated().evaluate([[2.0]]) == pytest.approx(-4.0)
    assert spec.absolute().evaluate([[-2.0]]) == pytest.approx(4.0)
    assert spec.shifted(0.5).evaluate([[2.0]]) == pytest.approx(4.5)


def test_absolute_is_the_payoff_when_non_negative():
    # a non-negative payoff and its absolute value solve to one field
    for src in ("sq(x1)", "min(abs(x1), 1)"):
        spec = gx.PayoffSpec.parse(src)
        assert spec.absolute() is spec
    spec = gx.PayoffSpec.parse("clamp(x1, -1, 2)")
    assert spec.absolute().source() == "abs(clamp(x1, -1.0, 2.0))"
    assert spec.absolute().evaluate([[-0.5]]) == pytest.approx(0.5)


def test_with_prepended_time():
    spec = gx.PayoffSpec.parse("min(abs(x1), 1)")
    lifted = spec.with_prepended_time(0.5)
    assert lifted.times == (0.5, 1.0)
    assert lifted.evaluate([[99.0, 0.25]]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        spec.with_prepended_time(1.5)


def test_operator_sugar():
    e = gx.x1 * gx.x2 - 1.0
    assert float(e(2.0, 3.0)) == pytest.approx(5.0)
    assert (-gx.x1)(2.0) == pytest.approx(-2.0)
