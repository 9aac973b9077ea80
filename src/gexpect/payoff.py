"""Cylinder payoffs: expression trees over monitored coordinates and a parser.

A payoff phi(w_1, ..., w_n) of the monitored values is a small expression
tree over the coordinates x1..x3 and the operators of `_OPS`, the one table
of them.  Trees evaluate vectorized over numpy arrays, report their own
Lipschitz constant and value range on a box (interval arithmetic), and
round-trip through a text form:

    sq(x1)          (x2 - x1) * (x2 - x1)        min(abs(x1), 1)
    call(x1, 0)     0.5 * x1 + const(1)          clamp(x2, -1, 2)
"""

import math
import operator
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError


# The one table of payoff operators: name -> (infix symbol or None, count of
# expression arguments, count of constant arguments after them, numpy form of
# their values).  Evaluation, to_source, the parser's function names (infix
# operators are not functions) and build's argument checks all derive from
# it; value_range and lipschitz keep their own per-operator interval rules.
_OPS = {
    "const": (None, 0, 1, float),
    "add": ("+", 2, 0, operator.add),
    "sub": ("-", 2, 0, operator.sub),
    "mul": ("*", 2, 0, operator.mul),
    "neg": (None, 1, 0, operator.neg),
    "abs": (None, 1, 0, np.abs),
    "sq": (None, 1, 0, lambda v: v * v),
    "min": (None, 2, 0, np.minimum),
    "max": (None, 2, 0, np.maximum),
    "clamp": (None, 1, 2, np.clip),
    "call": (None, 1, 1, lambda v, k: np.maximum(v - k, 0.0)),
    "put": (None, 1, 1, lambda v, k: np.maximum(k - v, 0.0)),
}


class Expr:
    """Immutable payoff expression node."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        self.op = op
        self.args = args

    # -- construction sugar ------------------------------------------------
    def __add__(self, other):
        return Expr("add", self, _wrap(other))

    def __radd__(self, other):
        return Expr("add", _wrap(other), self)

    def __sub__(self, other):
        return Expr("sub", self, _wrap(other))

    def __rsub__(self, other):
        return Expr("sub", _wrap(other), self)

    def __mul__(self, other):
        return Expr("mul", self, _wrap(other))

    def __rmul__(self, other):
        return Expr("mul", _wrap(other), self)

    def __neg__(self):
        return Expr("neg", self)

    def __eq__(self, other):
        return (isinstance(other, Expr) and self.op == other.op
                and self.args == other.args)

    def __hash__(self):
        return hash((self.op, self.args))

    def __repr__(self):
        return f"Expr({self.to_source()!r})"

    # -- evaluation --------------------------------------------------------
    def __call__(self, *coords):
        op, a = self.op, self.args
        if op == "coord":
            return np.asarray(coords[a[0] - 1], dtype=float)
        _, n, _, form = _OPS[op]
        return form(*(e(*coords) for e in a[:n]), *a[n:])

    # -- static analysis ---------------------------------------------------
    @property
    def arity(self) -> int:
        """Highest coordinate index referenced (0 for constants)."""
        if self.op == "coord":
            return self.args[0]
        return max((c.arity for c in self.args if isinstance(c, Expr)), default=0)

    def value_range(self, half_width=math.inf):
        """Interval bounds (lo, hi) of the value on |w_i| <= half_width."""
        op, a = self.op, self.args
        if op == "const":
            return (a[0], a[0])
        if op == "coord":
            return (-half_width, half_width)
        if _OPS[op][1] == 2:        # two sub-expressions
            l1, h1 = a[0].value_range(half_width)
            l2, h2 = a[1].value_range(half_width)
            if op == "add":
                return (l1 + l2, h1 + h2)
            if op == "sub":
                return (l1 - h2, h1 - l2)
            if op == "min":
                return (min(l1, l2), min(h1, h2))
            if op == "max":
                return (max(l1, l2), max(h1, h2))
            cands = [_iv_mul(p, q) for p in (l1, h1) for q in (l2, h2)]
            return (min(cands), max(cands))
        lo, hi = a[0].value_range(half_width)
        if op == "neg":
            return (-hi, -lo)
        if op == "abs":
            m = max(abs(lo), abs(hi))
            return (0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi)), m)
        if op == "sq":
            m = max(_iv_mul(lo, lo), _iv_mul(hi, hi))
            return (0.0 if lo <= 0.0 <= hi else min(_iv_mul(lo, lo), _iv_mul(hi, hi)), m)
        if op == "clamp":
            return tuple(min(max(v, a[1]), a[2]) for v in (lo, hi))
        if op == "call":
            return (max(lo - a[1], 0.0), max(hi - a[1], 0.0))
        if op == "put":
            return (max(a[1] - hi, 0.0), max(a[1] - lo, 0.0))
        raise ValueError(f"unknown op {op!r}")

    def lipschitz(self, half_width=math.inf) -> float:
        """Lipschitz constant bound wrt the coordinates, on the box."""
        op, a = self.op, self.args
        if op == "const":
            return 0.0
        if op == "coord":
            return 1.0
        if op in ("add", "sub"):
            return a[0].lipschitz(half_width) + a[1].lipschitz(half_width)
        if op in ("min", "max"):
            return max(a[0].lipschitz(half_width), a[1].lipschitz(half_width))
        if op == "mul":
            s1 = _abs_sup(a[0].value_range(half_width))
            s2 = _abs_sup(a[1].value_range(half_width))
            return (_iv_mul(a[0].lipschitz(half_width), s2)
                    + _iv_mul(a[1].lipschitz(half_width), s1))
        if op == "sq":
            s = _abs_sup(a[0].value_range(half_width))
            return _iv_mul(2.0 * a[0].lipschitz(half_width), s)
        # clamp, call and put are constant where their argument's range lies
        # on a flat side of them
        lo, hi = a[0].value_range(half_width)
        if ((op == "clamp" and (lo >= a[2] or hi <= a[1]))
                or (op == "call" and hi <= a[1])
                or (op == "put" and lo >= a[1])):
            return 0.0
        # neg, abs, clamp, call, put are 1-Lipschitz wrappers
        return a[0].lipschitz(half_width)

    def sup_bound(self):
        """Sup-norm bound over the whole space, or None when unbounded."""
        lo, hi = self.value_range(math.inf)
        m = max(abs(lo), abs(hi))
        return m if math.isfinite(m) else None

    # -- emission ----------------------------------------------------------
    def to_source(self) -> str:
        op, a = self.op, self.args
        if op == "const":
            return _fmt(a[0])
        if op == "coord":
            return f"x{a[0]}"
        infix, n, _, _ = _OPS[op]
        parts = [e.to_source() for e in a[:n]] + [_fmt(c) for c in a[n:]]
        if infix:
            return f"({parts[0]} {infix} {parts[1]})"
        return f"{op}({', '.join(parts)})"


def _wrap(v):
    return v if isinstance(v, Expr) else const(v)


def _fmt(v: float) -> str:
    return repr(float(v))


def _iv_mul(p, q):
    # interval-endpoint product with 0*inf treated as 0
    if p == 0.0 or q == 0.0:
        return 0.0
    return p * q


def _abs_sup(rng):
    return max(abs(rng[0]), abs(rng[1]))


# convenience node builders
def const(v) -> Expr:
    return Expr("const", float(v))


def coord(k: int) -> Expr:
    if not 1 <= k <= 3:
        raise ValueError("coordinates x1..x3 supported")
    return Expr("coord", int(k))


x1, x2, x3 = coord(1), coord(2), coord(3)


# ---------------------------------------------------------------------------
# parser: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
# factor := '-' factor | primary; primary := number | coord | func(...) | (expr)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|\d+(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ConfigError(f"bad payoff expression near {text[pos:pos+10]!r}")
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif name is not None:
            tokens.append(("name", name))
        elif sym.strip():
            if sym not in "+-*(),":
                raise ConfigError(f"unexpected character {sym!r} in payoff expression")
            tokens.append((sym, sym))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ConfigError(f"expected {kind!r} in payoff expression, got {tok[1]!r}")
        return tok

    def parse(self):
        e = self.expr()
        if self.peek() != "end":
            raise ConfigError("trailing input in payoff expression")
        return e

    def expr(self):
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = Expr("add" if op == "+" else "sub", e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek() == "*":
            self.next()
            e = Expr("mul", e, self.factor())
        return e

    def factor(self):
        if self.peek() == "-":
            self.next()
            return Expr("neg", self.factor())
        return self.primary()

    def primary(self):
        kind, val = self.next()
        if kind == "num":
            return Expr("const", val)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind != "name":
            raise ConfigError(f"unexpected token {val!r} in payoff expression")
        if re.fullmatch(r"x[123]", val):
            return coord(int(val[1]))
        if val not in _OPS or _OPS[val][0]:     # infix: no function form
            raise ConfigError(f"unknown payoff function {val!r}")
        self.expect("(")
        args = [self.expr()]
        while self.peek() == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        return self.build(val, args)

    def build(self, name, args):
        _, n, n_consts, _ = _OPS[name]
        if len(args) != n + n_consts:
            raise ConfigError(
                f"{name} takes {n + n_consts} argument(s), got {len(args)}")
        consts = [_const_value(c) for c in args[n:]]
        if name == "clamp" and consts[0] > consts[1]:
            raise ConfigError("clamp bounds out of order")
        return Expr(name, *args[:n], *consts)


def _const_value(e: Expr) -> float:
    if e.arity > 0:
        raise ConfigError("expected a constant sub-expression")
    return float(e())


def parse_expr(text: str) -> Expr:
    """Parse the payoff mini-language into an expression tree."""
    return _Parser(_tokenize(text)).parse()


@dataclass(frozen=True)
class PayoffSpec:
    """A cylinder payoff phi(W_{t_1}, ..., W_{t_n}) with monitoring dates.

    times must be strictly increasing with last equal to 1.  sup_bound is
    the tree's own sup-norm bound, None for an unbounded payoff (sup-norm
    invariants are then skipped downstream).
    """

    expr: Expr
    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("need at least one monitoring time")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("monitoring times must be strictly increasing")
        if times[0] <= 0.0:
            raise ValueError("monitoring times must be positive")
        if abs(times[-1] - 1.0) > 1e-12:
            raise ValueError("last monitoring time must equal 1")
        if self.expr.arity > len(times):
            raise ValueError("expression references more coordinates than "
                             "monitoring times")
        object.__setattr__(self, "times", times)

    @classmethod
    def parse(cls, text: str, times=(1.0,)):
        return cls(parse_expr(text), tuple(times))

    @property
    def sup_bound(self):
        return self.expr.sup_bound()

    @property
    def n(self) -> int:
        return len(self.times)

    def evaluate(self, samples):
        """Evaluate on samples with monitored values along the last axis."""
        arr = np.asarray(samples, dtype=float)
        if arr.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} monitored values per sample")
        out = np.asarray(self.expr(*(arr[..., j] for j in range(self.n))),
                         dtype=float)
        return np.broadcast_to(out, arr.shape[:-1]).copy()

    def absolute(self) -> "PayoffSpec":
        """|payoff|: the payoff itself when its value range is
        non-negative, so that both solve to one field."""
        if self.expr.value_range()[0] >= 0:
            return self
        return replace(self, expr=Expr("abs", self.expr))

    def negated(self) -> "PayoffSpec":
        return replace(self, expr=Expr("neg", self.expr))

    def shifted(self, c: float) -> "PayoffSpec":
        return replace(self, expr=self.expr + const(c))

    def with_prepended_time(self, t: float) -> "PayoffSpec":
        """Insert an extra (ignored) monitoring date before the others.

        The value is unchanged; coordinates shift up by one.  Used to make an
        interior time a genuine monitoring date of the nested solve.
        """
        if not 0.0 < t < self.times[0]:
            raise ValueError("prepended time must precede the first date")
        return replace(self, expr=_shift_coords(self.expr, 1),
                       times=(t,) + self.times)

    def source(self) -> str:
        return self.expr.to_source()


def _shift_coords(e: Expr, offset: int) -> Expr:
    if e.op == "coord":
        return coord(e.args[0] + offset)
    args = tuple(_shift_coords(a, offset) if isinstance(a, Expr) else a
                 for a in e.args)
    return Expr(e.op, *args)
