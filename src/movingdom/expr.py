"""Closed-form expression trees for coefficients, nonlinearities and maps.

Expressions are parsed from text by a small recursive-descent parser,
differentiated symbolically, simplified, printed back to parseable text and
evaluated by one vectorised evaluator over numpy arrays, where a float
binding is one value.  The parser's scanner is one regular expression; a
NUMBER is an ASCII decimal literal such as 2, 0.5, 1. or 2.5E-3.

Grammar (one token of lookahead):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | base ('^' exponent)?
    base     := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    exponent := '-'? NUMBER

A tree deeper than MAX_DEPTH (64) levels, or input nested deeper, is a
ParseError, so the recursive tree walkers below never exhaust the stack.

Unary minus binds looser than '^', so -t^2 parses as -(t^2).  Exponents are
numeric literals only, which keeps differentiation closed over the node set
(the power rule never needs logarithms).

Identifiers: variables t, u, y1..y3, x1..x3; constants pi, e; functions
sin, cos, exp, tanh, sqrt, abs, log and sign.  sign is included so that
derivatives of abs stay inside the language (d abs(w) = sign(w) dw, with
sign(0) = 0); its own derivative is taken as 0.

Domain guards (division by zero, sqrt/log out of range, 0 raised to a
negative power, overflow, non-finite bindings) raise EvalError rather than
returning NaN or Inf: compiled() runs the whole evaluation in one
floating-point errstate scope and checks the result once.  Each element is
computed by the same elementwise numpy loops whatever the array around it,
so a value at a time does not depend on which or how many other times are
evaluated with it.  simplify() folds constant subtrees through the same
evaluator.  bind() binds t and y1..yd from a time (or time grid) and a
point set or an open mesh.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Unary", "Binary",
    "ExprError", "ParseError", "EvalError",
    "parse", "diff", "simplify", "substitute",
    "free_vars", "to_string", "compiled", "bind",
]

VARIABLES = ("t", "u", "y1", "y2", "y3", "x1", "x2", "x3")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt", "abs", "log", "sign")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error with the byte offset and the tokens that were legal."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class EvalError(ExprError):
    pass


class Expr:
    """Base node.  Subclasses: Const, Var, Unary, Binary."""

    __slots__ = ()

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_string(self)!r})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in VARIABLES:
            raise ExprError(f"unknown variable {name!r}")
        self.name = name


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op, arg):
        if op != "neg" and op not in FUNCTIONS:
            raise ExprError(f"unknown unary op {op!r}")
        self.op = op
        self.arg = arg


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in BINARY_OPS:
            raise ExprError(f"unknown binary op {op!r}")
        if op == "pow" and not isinstance(right, Const):
            raise ExprError("exponent must be a numeric constant")
        self.op = op
        self.left = left
        self.right = right


# ---------------------------------------------------------------------------
# parsing

# one token after optional whitespace: an ASCII number, an identifier, an
# operator (a kind of its own), the end of input, or any other character,
# which is an error.  Every offset matches, so finditer yields the tokens
# back to back; the parser holds one, (kind, value, offset), as lookahead.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
      (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[^\W\d]\w*)
    | (?P<op>[-+*/^()])
    | (?P<end>\Z)
    | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


# deepest tree parse() accepts, leaves at depth 1: the recursive walkers
# (diff, simplify, compiled, to_string) take one or two frames a level, and a
# derived tree, such as a second derivative, is a few times deeper than its
# source.  The bundled fixtures and benchmark configs reach depth 10.
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns (node, depth of its tree)."""

    nesting = 0   # open factor() calls, which bound the recursion

    def __init__(self, text):
        self.tokens = _TOKEN.finditer(text)
        self.advance()

    def advance(self):
        m = next(self.tokens)
        kind = m.lastgroup
        value, offset = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
        self.tok = (value if kind == "op" else kind, value, offset)

    def take(self, kind):
        tok = self.tok
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}" if tok[0] != "end"
                             else "unexpected end of input", tok[2], (kind,))
        self.advance()
        return tok

    def deeper(self, depth):
        """depth + 1, the depth of a node over a subtree of depth `depth`."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             self.tok[2])
        return depth + 1

    def parse(self):
        node, _ = self.expr()
        tok = self.tok
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end",))
        return node

    def expr(self):
        node, depth = self.term()
        while self.tok[0] in ("+", "-"):
            op = self.take(self.tok[0])[0]
            rhs, d = self.term()
            node, depth = (Binary("add" if op == "+" else "sub", node, rhs),
                           self.deeper(max(depth, d)))
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.tok[0] in ("*", "/"):
            op = self.take(self.tok[0])[0]
            rhs, d = self.factor()
            node, depth = (Binary("mul" if op == "*" else "div", node, rhs),
                           self.deeper(max(depth, d)))
        return node, depth

    def factor(self):
        # every nested operand passes here, so bounding the open calls bounds
        # the recursion, redundant parentheses included
        self.nesting = self.deeper(self.nesting)
        if self.tok[0] == "-":
            self.take("-")
            node, depth = self.factor()
            node, depth = Unary("neg", node), self.deeper(depth)
        else:
            node, depth = self.base()
            if self.tok[0] == "^":
                self.take("^")
                node, depth = Binary("pow", node, Const(self.exponent())), self.deeper(depth)
        self.nesting -= 1
        return node, depth

    def exponent(self):
        sign = 1.0
        if self.tok[0] == "-":
            self.take("-")
            sign = -1.0
        tok = self.take("number")
        return sign * float(tok[1])

    def base(self):
        tok = self.tok
        if tok[0] == "number":
            self.take("number")
            return Const(float(tok[1])), 1
        if tok[0] == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        if tok[0] == "ident":
            self.take("ident")
            name = tok[1]
            if self.tok[0] == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok[2], FUNCTIONS)
                self.take("(")
                arg, depth = self.expr()
                self.take(")")
                return Unary(name, arg), self.deeper(depth)
            if name in CONSTANTS:
                return Const(CONSTANTS[name]), 1
            if name in VARIABLES:
                return Var(name), 1
            raise ParseError(f"unknown identifier {name!r}", tok[2],
                             VARIABLES + tuple(CONSTANTS))
        kind = "end of input" if tok[0] == "end" else repr(tok[1])
        raise ParseError(f"expected an operand, found {kind}", tok[2],
                         ("number", "identifier", "(", "-"))


def parse(text: str) -> Expr:
    """Parse source text into an Expr.  Raises ParseError with .offset, also
    for input nested deeper than MAX_DEPTH."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

_NP_UNARY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "tanh": np.tanh, "sqrt": np.sqrt, "abs": np.abs, "log": np.log,
    "sign": np.sign,
}


def _power(base, expo):
    # a numpy float base: Python's float pow would return complex or raise
    # OverflowError, and numpy keeps its square/sqrt fast paths
    return np.asarray(base, dtype=float) ** expo


_NP_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply,
              "div": np.divide, "pow": _power}


def compiled(e: Expr, names=None):
    """Vectorised evaluator: returns fn(env) computing e over numpy arrays.

    env maps variable names to arrays or scalars; arrays must broadcast
    against each other.  `names` restricts which variables may appear.
    Bindings of the variables used must be finite.

    The tree is hash-consed into a post-order tape with one step per
    distinct subtree: a constant is keyed by its bit pattern, so -0.0 and
    0.0 stay apart, and a pow by its base and its exponent's bits.  A call
    computes each distinct subtree once, by the numpy call a node-by-node
    walk makes on the same operands, and drops each intermediate after its
    last use, so every value is bitwise the walk's and the first node to
    fail is the same.  The tape runs in one errstate scope that raises on
    division by zero, invalid values (sqrt or log out of range, a negative
    base under a fractional exponent) and overflow, so the domain guards
    hold over every element; the result is checked once for finiteness.
    Every guard raises EvalError.
    """
    allowed = set(VARIABLES if names is None else names)
    used = sorted(free_vars(e))
    for name in used:
        if name not in allowed:
            raise EvalError(f"variable {e!s} uses {name!r}, not in {sorted(allowed)}")

    slots = {}    # key of a distinct subtree -> its slot
    init = []     # slot values before a call: the constants
    loads = []    # (slot, variable name)
    tape = []     # [numpy call, operand slot, operand slot or None, slot, freed]

    def rec(node):
        if isinstance(node, Const):
            key = struct.pack("<d", node.value)
        elif isinstance(node, Var):
            key = node.name
        elif isinstance(node, Unary):
            key = (node.op, rec(node.arg), None)
        else:
            key = (node.op, rec(node.left), rec(node.right))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(init)
            init.append(node.value if isinstance(node, Const) else None)
            if isinstance(node, Var):
                loads.append((slot, node.name))
            elif isinstance(node, (Unary, Binary)):
                op = (_NP_UNARY if isinstance(node, Unary) else _NP_BINARY)[node.op]
                tape.append([op, key[1], key[2], slot, ()])
        return slot

    result = rec(e)
    # each step frees the operands no later step reads
    read = {None}
    for step in reversed(tape):
        step[4] = tuple({step[1], step[2]} - read)
        read.update(step[1:3])

    def fn(env):
        for name in used:
            if name not in env:
                raise EvalError(f"unbound variable {name!r}")
            x = env[name]
            if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
                raise EvalError(f"non-finite binding for {name!r}")
        vals = init.copy()
        for slot, name in loads:
            vals[slot] = env[name]
        try:
            with np.errstate(all="raise", under="ignore"):
                for op, a, b, out, freed in tape:
                    vals[out] = op(vals[a]) if b is None else op(vals[a], vals[b])
                    for s in freed:
                        vals[s] = None
                r = np.asarray(vals[result], dtype=float)
        except FloatingPointError as exc:
            raise EvalError(f"{exc} evaluating {e}") from None
        if not np.isfinite(r).all():
            raise EvalError(f"non-finite value of {e}")
        return r
    return fn


def bind(t, pts):
    """(bindings, shape) of t and y1..yd: y_i is column i of the (m, d) points
    pts, or array i of an open mesh, a tuple of per-axis arrays as np.ix_
    gives them, so an expression of some axes is evaluated on those alone.
    A scalar t (a float binding) or None (no t) gives their broadcast shape,
    (m,) for points; a 1-D array of nt times gives (nt,) + that shape."""
    cols = [np.asarray(c, dtype=float) for c in pts] if isinstance(pts, tuple) \
        else np.asarray(pts, dtype=float).T
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    if t is None or np.ndim(t) == 0:
        env = {} if t is None else {"t": float(t)}
    else:
        t = np.asarray(t, dtype=float)
        env = {"t": t.reshape((-1,) + (1,) * len(shape))}
        cols, shape = [c[None] for c in cols], (len(t),) + shape
    env.update((f"y{i + 1}", col) for i, col in enumerate(cols))
    return env, shape


# ---------------------------------------------------------------------------
# structure

def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_vars(e.arg)
    return free_vars(e.left) | free_vars(e.right)


def substitute(e: Expr, mapping: dict) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.arg, mapping))
    return Binary(e.op, substitute(e.left, mapping), substitute(e.right, mapping))


# smart constructors fold the identities that otherwise make derivative
# trees blow up; they never change values

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold(Binary("add", a, b))


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return _fold(Binary("sub", a, b))


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold(Binary("mul", a, b))


def _div(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    return _fold(Binary("div", a, b))


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _pow(a, c):
    if c.value == 0:
        return Const(1.0)
    if c.value == 1:
        return a
    return _fold(Binary("pow", a, c))


def _fold(e):
    """e as one Const where its operands are constants and its value is
    defined, through the one evaluator; e itself otherwise."""
    operands = (e.arg,) if isinstance(e, Unary) else (e.left, e.right)
    if not all(isinstance(x, Const) for x in operands):
        return e
    try:
        return Const(float(compiled(e)({})))
    except EvalError:
        return e


def diff(e: Expr, var: str) -> Expr:
    """Symbolic total derivative with respect to one variable."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        du = diff(e.arg, var)
        u = e.arg
        if e.op == "neg":
            return _neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", u), du)
        if e.op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if e.op == "exp":
            return _mul(Unary("exp", u), du)
        if e.op == "tanh":
            return _mul(_sub(Const(1.0), _pow(Unary("tanh", u), Const(2.0))), du)
        if e.op == "sqrt":
            return _div(du, _mul(Const(2.0), Unary("sqrt", u)))
        if e.op == "abs":
            return _mul(Unary("sign", u), du)
        if e.op == "log":
            return _div(du, u)
        if e.op == "sign":
            return Const(0.0)   # a.e. constant
        raise ExprError(f"no derivative rule for {e.op}")
    da = diff(e.left, var)
    if e.op == "pow":
        c = e.right.value
        return _mul(_mul(Const(c), _pow(e.left, Const(c - 1.0))), da)
    db = diff(e.right, var)
    if e.op == "add":
        return _add(da, db)
    if e.op == "sub":
        return _sub(da, db)
    if e.op == "mul":
        return _add(_mul(da, e.right), _mul(e.left, db))
    # quotient rule
    num = _sub(_mul(da, e.right), _mul(e.left, db))
    return _div(num, _pow(e.right, Const(2.0)))


def simplify(e: Expr) -> Expr:
    """Bottom-up constant folding and identity elimination, value preserving."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = simplify(e.arg)
        if e.op == "neg":
            return _neg(a)
        return _fold(Unary(e.op, a))
    a = simplify(e.left)
    if e.op == "pow":
        return _pow(a, e.right)
    b = simplify(e.right)
    return {"add": _add, "sub": _sub, "mul": _mul, "div": _div}[e.op](a, b)


# ---------------------------------------------------------------------------
# printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 2, "pow": 3}
_ATOM = 9


def _prec(e):
    if isinstance(e, (Const, Var)):
        return _ATOM
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else _ATOM
    return _PREC[e.op]


def _wrap(e, minimum):
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render to text that parse() maps back to an equivalent tree."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{-e.value!r}"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"-{_wrap(e.arg, _PREC['neg'] + 1)}"
        return f"{e.op}({to_string(e.arg)})"
    if e.op == "pow":
        expo = e.right.value
        estr = repr(expo) if expo >= 0 else f"-{-expo!r}"
        base = _wrap(e.left, _ATOM)
        if base.startswith("-"):    # (-2)^2 must not reparse as -(2^2)
            base = f"({base})"
        return f"{base}^{estr}"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
    p = _PREC[e.op]
    left = _wrap(e.left, p)
    right = _wrap(e.right, p + 1)   # -, / are left associative
    return f"{left} {sym} {right}"
