import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingdom import expr as ex
from movingdom.expr import Const, EvalError, Expr, Unary, Var

# ---------------------------------------------------------------------------
# the scalar tree-walking evaluator the program used to keep beside
# `compiled`, kept here as an independent oracle: it evaluates one point with
# Python floats and the math module, and checks each node's domain itself

def _check_pow(base, expo):
    if not float(expo).is_integer():
        if base < 0:
            raise EvalError(f"negative base {base!r} under fractional exponent {expo!r}")
        if base == 0 and expo < 0:
            raise EvalError("zero base under negative exponent")
    elif expo < 0 and base == 0:
        raise EvalError("zero base under negative exponent")


_UNARY_FNS = {
    "neg": lambda x: -x,
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh,
    "abs": abs,
}


def evaluate(e: Expr, bindings: dict) -> float:
    """Pointwise evaluation with scalar bindings, e.g. evaluate(e, {"t": 0.0})."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            v = float(bindings[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
        if not math.isfinite(v):
            raise EvalError(f"non-finite binding for {e.name!r}")
        return v
    if isinstance(e, Unary):
        x = evaluate(e.arg, bindings)
        if e.op == "sqrt":
            if x < 0:
                raise EvalError(f"sqrt of negative value {x!r}")
            return math.sqrt(x)
        if e.op == "log":
            if x <= 0:
                raise EvalError(f"log of non-positive value {x!r}")
            return math.log(x)
        if e.op == "sign":
            return 0.0 if x == 0 else math.copysign(1.0, x)
        try:
            return _UNARY_FNS[e.op](x)
        except OverflowError:
            raise EvalError(f"overflow in {e.op}({x!r})") from None
    a = evaluate(e.left, bindings)
    if e.op == "pow":
        expo = e.right.value
        _check_pow(a, expo)
        try:
            r = a ** expo
        except OverflowError:
            raise EvalError(f"overflow in {a!r}^{expo!r}") from None
        if isinstance(r, complex) or not math.isfinite(r):
            raise EvalError(f"non-finite result in {a!r}^{expo!r}")
        return r
    b = evaluate(e.right, bindings)
    if e.op == "add":
        r = a + b
    elif e.op == "sub":
        r = a - b
    elif e.op == "mul":
        r = a * b
    else:
        if b == 0:
            raise EvalError("division by zero")
        r = a / b
    if not math.isfinite(r):
        raise EvalError(f"non-finite result in {e.op}")
    return r


# expressions free of domain-guard issues on |vars| <= 2, paired with the
# variables they use
SMOOTH = [
    ("1/(exp(-t^2)+1)", ("t",)),
    ("sin(u)*cos(t) + tanh(y1*y2)", ("t", "u", "y1", "y2")),
    ("sqrt(1 + t^2)", ("t",)),
    ("log(2 + sin(t))", ("t",)),
    ("(y1 + y2*y3)^3 - y3^2", ("y1", "y2", "y3")),
    ("exp(-t^2)*y1^2 - t/(1 + u^2)", ("t", "u", "y1")),
    ("pi*e + x1*x2/(4 + x3)", ("x1", "x2", "x3")),
    ("-t^2 + 2^-1", ("t",)),
]


def bindings_for(names, rng):
    return {n: float(rng.uniform(-2, 2)) for n in names}


def test_parse_reference_value():
    e = ex.parse("1/(exp(-t^2)+1)")
    assert ex.free_vars(e) == {"t"}
    assert evaluate(e, {"t": 0.0}) == 0.5


def test_diff_reference_value():
    e = ex.parse("1/(exp(-t^2)+1)")
    de = ex.diff(e, "t")
    want = 2 * math.exp(-1) / (math.exp(-1) + 1) ** 2   # 0.39322386648296376
    assert evaluate(de, {"t": 1.0}) == pytest.approx(want, rel=1e-12)


def test_diff_matches_closed_form():
    de = ex.diff(ex.parse("exp(-t^2)"), "t")
    ref = ex.parse("-2*t*exp(-t^2)")
    for t in np.linspace(-3, 3, 25):
        assert evaluate(de, {"t": t}) == pytest.approx(
            evaluate(ref, {"t": t}), rel=1e-12, abs=1e-15)


def test_unary_minus_binds_looser_than_power():
    # -t^2 means -(t^2)
    assert evaluate(ex.parse("-t^2"), {"t": 3.0}) == -9.0
    assert evaluate(ex.parse("(-t)^2"), {"t": 3.0}) == 9.0


def test_diff_against_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for src, names in SMOOTH:
        e = ex.parse(src)
        for var in names:
            de = ex.diff(e, var)
            for _ in range(20):
                b = bindings_for(names, rng)
                up = dict(b, **{var: b[var] + h})
                dn = dict(b, **{var: b[var] - h})
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                sym = evaluate(de, b)
                assert sym == pytest.approx(fd, rel=1e-6, abs=1e-6), (src, var, b)


def test_simplify_preserves_values():
    rng = np.random.default_rng(11)
    for src, names in SMOOTH:
        e = ex.parse(src)
        for var in names:
            e = ex.diff(e, var)   # derivative trees are the messy ones
        s = ex.simplify(e)
        for _ in range(100):
            b = bindings_for(names, rng)
            v0 = evaluate(e, b)
            v1 = evaluate(s, b)
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)


def test_print_parse_round_trip():
    rng = np.random.default_rng(13)
    for src, names in SMOOTH:
        for e in (ex.parse(src), ex.diff(ex.parse(src), names[0])):
            back = ex.parse(ex.to_string(e))
            for _ in range(25):
                b = bindings_for(names, rng)
                assert evaluate(back, b) == pytest.approx(
                    evaluate(e, b), rel=1e-12, abs=1e-14)


def test_negative_constant_base_round_trips():
    e = ex.Binary("pow", ex.Const(-2.0), ex.Const(2.0))
    assert evaluate(ex.parse(ex.to_string(e)), {}) == 4.0


def test_substitute_composes():
    e = ex.parse("x1^2 + t")
    sub = ex.substitute(e, {"x1": ex.parse("2*y1")})
    assert evaluate(sub, {"y1": 3.0, "t": 1.0}) == 37.0
    assert ex.free_vars(sub) == {"y1", "t"}


def test_compiled_matches_pointwise():
    rng = np.random.default_rng(17)
    for src, names in SMOOTH:
        e = ex.parse(src)
        fn = ex.compiled(e)
        env = {n: rng.uniform(-2, 2, size=40) for n in names}
        got = fn(env)
        want = np.array([evaluate(e, {n: env[n][i] for n in names})
                         for i in range(40)])
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_bind_shapes_match_pointwise_evaluation():
    e = ex.parse("exp(-t^2)*y1^2 + sin(y2)")
    fn = ex.compiled(e)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))
    ts = np.array([-1.5, 0.0, 0.25])
    env, shape = ex.bind(0.25, pts)
    assert shape == (7,) and env["t"] == 0.25 and np.array_equal(env["y2"], pts[:, 1])
    assert np.array_equal(fn(env), fn(ex.bind(ts, pts)[0])[2])
    env, shape = ex.bind(ts, pts)
    assert shape == (3, 7) and fn(env).shape == shape
    want = [[evaluate(e, {"t": t, "y1": y[0], "y2": y[1]}) for y in pts] for t in ts]
    assert np.allclose(fn(env), want, rtol=1e-14, atol=1e-14)
    env, shape = ex.bind(None, pts)
    assert shape == (7,) and sorted(env) == ["y1", "y2"]


def test_compiled_constant_broadcasts():
    fn = ex.compiled(ex.parse("pi"))
    assert float(fn({})) == pytest.approx(math.pi)


def test_parse_error_offset_and_expected():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("sin(u)*y1 + ")
    assert err.value.offset >= 10
    assert err.value.expected


def test_parse_error_unknown_function():
    with pytest.raises(ex.ParseError, match="unknown function"):
        ex.parse("foo(t)")


def test_parse_error_unknown_identifier():
    with pytest.raises(ex.ParseError, match="unknown identifier"):
        ex.parse("t + z9")


def test_parse_error_nonconstant_exponent():
    with pytest.raises(ex.ParseError):
        ex.parse("t^u")


@pytest.mark.parametrize("text", ["\u00b2", "2 + \u00b3", "\u0661", "1 + \u0663"],
                         ids=["superscript", "superscript_term", "arabic_indic",
                              "arabic_indic_term"])
def test_non_ascii_digits_are_a_parse_error(text):
    # numbers are ASCII: a superscript is not float() text, and another
    # script's decimal digits must not read as a number
    with pytest.raises(ex.ParseError):
        ex.parse(text)


def test_no_non_ascii_numeric_character_parses_or_escapes_parse_error():
    numeric = [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isnumeric()]
    assert len(numeric) > 1000
    for c in numeric:
        for text in (c, f"1{c}", f"{c}1", f"t*{c}", f"y{c}"):
            with pytest.raises(ex.ParseError):
                ex.parse(text)


def _tree_depth(e):
    if isinstance(e, ex.Unary):
        return 1 + _tree_depth(e.arg)
    if isinstance(e, ex.Binary):
        return 1 + max(_tree_depth(e.left), _tree_depth(e.right))
    return 1


@pytest.mark.parametrize("shape", ["sum", "product", "functions", "negations",
                                   "parentheses"])
def test_parse_caps_the_depth(shape):
    # each text(k) nests k levels; a tree or a nesting of MAX_DEPTH levels
    # parses, one more is a ParseError and not a RecursionError
    text = {
        "sum": lambda k: " + ".join(["u"] * k),                 # left-nested tree
        "product": lambda k: "u" + " * 2" * (k - 1),
        "functions": lambda k: "sin(" * (k - 1) + "u" + ")" * (k - 1),
        "negations": lambda k: "-" * (k - 1) + "u",
        "parentheses": lambda k: "(" * (k - 1) + "u" + ")" * (k - 1),
    }[shape]
    cap = ex.MAX_DEPTH
    e = ex.parse(text(cap))
    if shape == "parentheses":
        assert _tree_depth(e) == 1
    else:
        assert _tree_depth(e) == cap
        # the walkers run on a tree at the cap, and on its derivatives
        ex.to_string(ex.simplify(ex.diff(ex.diff(e, "u"), "u")))
    for k in (cap + 1, 10 * cap):
        with pytest.raises(ex.ParseError, match=f"deeper than {cap} levels"):
            ex.parse(text(k))


def test_eval_domain_guards():
    cases = [
        ("1/t", {"t": 0.0}),
        ("sqrt(t)", {"t": -1.0}),
        ("log(t)", {"t": 0.0}),
        ("t^0.5", {"t": -2.0}),
        ("t^-1", {"t": 0.0}),
        ("exp(t)", {"t": 1e9}),   # overflow must raise, not return inf
        ("sin(t)", {"t": math.inf}),   # non-finite bindings must raise too
        ("sqrt(t)", {"t": math.inf}),
        ("t", {"t": math.nan}),
        ("1/t", {"t": math.inf}),   # a later node absorbs the inf binding
        ("exp(-t)", {"t": math.inf}),
        ("tanh(t)", {"t": math.inf}),
    ]
    for src, b in cases:
        e = ex.parse(src)
        with pytest.raises(ex.EvalError):
            evaluate(e, b)
        fn = ex.compiled(e)
        with pytest.raises(ex.EvalError):
            fn({k: np.array([v, 1.0]) for k, v in b.items()})


def test_eval_unbound_variable_named():
    with pytest.raises(ex.EvalError, match="y2"):
        ex.compiled(ex.parse("y1 + y2"))({"y1": 1.0})


def test_abs_derivative_sign_convention():
    de = ex.diff(ex.parse("abs(t)"), "t")
    assert evaluate(de, {"t": 0.0}) == 0.0
    assert evaluate(de, {"t": 2.0}) == 1.0
    assert evaluate(de, {"t": -2.0}) == -1.0


def test_simplify_folds_trivial_structure():
    e = ex.simplify(ex.parse("0*y1 + 1*t + (t - t)*u + 2*3"))
    # value checks rather than shape checks; folding must not change them
    assert evaluate(e, {"t": 5.0, "y1": 9.0, "u": 4.0}) == 11.0
    assert evaluate(ex.simplify(ex.parse("t^1")), {"t": 7.0}) == 7.0
    assert evaluate(ex.simplify(ex.parse("t^0")), {"t": 7.0}) == 1.0


# ---------------------------------------------------------------------------
# property tests: random trees over the whole grammar

_LEAF_VALUES = st.floats(-2.0, 2.0)
_LEAVES = st.one_of(_LEAF_VALUES.map(ex.Const),
                    st.sampled_from(("t", "u")).map(ex.Var))
_EXPONENTS = st.one_of(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)),
                       _LEAF_VALUES)


def _trees(depth, functions=ex.FUNCTIONS):
    if depth == 0:
        return _LEAVES
    sub = _trees(depth - 1, functions)
    return st.one_of(
        _LEAVES,
        st.builds(ex.Unary, st.sampled_from(("neg",) + functions), sub),
        st.builds(ex.Binary, st.sampled_from(("add", "sub", "mul", "div")),
                  sub, sub),
        st.builds(lambda b, c: ex.Binary("pow", b, ex.Const(c)), sub, _EXPONENTS),
    )


_POINTS = st.lists(st.tuples(_LEAF_VALUES, _LEAF_VALUES), min_size=1, max_size=6)


def _value(e, env):
    try:
        return evaluate(e, env)
    except ex.EvalError:
        return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(e=_trees(4), points=_POINTS)
def test_print_parse_round_trip_is_exact(e, points):
    back = ex.parse(ex.to_string(e))
    for ti, ui in points:
        env = {"t": ti, "u": ui}
        # equal to the last bit, or both outside the domain
        assert _value(back, env) == _value(e, env), (ex.to_string(e), env)
    # printing is a fixpoint from the second round on: the first parse may
    # change the tree's shape (a negated constant -0.0 prints as --0.0, which
    # reads back as a double negation and prints as -(-0.0))
    text = ex.to_string(back)
    assert ex.to_string(ex.parse(text)) == text


@settings(max_examples=400, derandomize=True, deadline=None)
@given(e=_trees(4), points=_POINTS)
def test_compiled_is_finite_or_eval_error_and_matches_evaluate(e, points):
    fn = ex.compiled(e)
    t, u = (np.array(c) for c in zip(*points))
    try:
        got = fn({"t": t, "u": u})
    except ex.EvalError:
        pass
    else:
        assert np.all(np.isfinite(got))
    for ti, ui in points:
        env = {"t": ti, "u": ui}
        try:
            want = evaluate(e, env)
        except ex.EvalError:
            want = None
        try:
            got = float(fn(env))
        except ex.EvalError:
            got = None
        # the guards fire at the same points in both evaluators
        assert (got is None) == (want is None), (str(e), env, got, want)
        if got is not None:
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (str(e), env)


def _lanes(fn, env, shape):
    """fn(env) broadcast to shape, as bytes; None where a guard raises EvalError."""
    try:
        return np.broadcast_to(fn(env), shape).tobytes()
    except ex.EvalError:
        return None


def _check_lanes(e, points):
    """Each point's value, bit for bit, and whether a guard fires are the same
    in the whole array, in every slice of it, in a length-1 array and under
    Python-float bindings."""
    fn = ex.compiled(e)
    t, u = (np.array(c) for c in zip(*points))
    one = [_lanes(fn, {"t": t[i:i + 1], "u": u[i:i + 1]}, 1) for i in range(len(t))]
    for i, (ti, ui) in enumerate(points):
        assert _lanes(fn, {"t": ti, "u": ui}, ()) == one[i], (str(e), ti, ui)
    for lo in range(len(t)):
        for hi in range(lo + 1, len(t) + 1):
            want = None if None in one[lo:hi] else b"".join(one[lo:hi])
            got = _lanes(fn, {"t": t[lo:hi], "u": u[lo:hi]}, hi - lo)
            assert got == want, (str(e), lo, hi)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(e=_trees(4), points=st.lists(st.tuples(_LEAF_VALUES, _LEAF_VALUES),
                                    min_size=8, max_size=24))
def test_compiled_value_does_not_depend_on_the_array_around_it(e, points):
    # the stepper evaluates its per-time terms over chunks of times, and its
    # exact cocycle rests on this
    _check_lanes(e, points)


# every node kind over an array-valued operand, so none is only ever drawn
# over constants, where numpy sees one value whatever the array length
@pytest.mark.parametrize("text", [f"{f}(t * u)" for f in ex.FUNCTIONS]
                         + ["t + u", "t - u", "t * u", "t / u", "-(t * u)"]
                         + [f"(t * u)^{c}" for c in ("-2", "-1", "-0.5", "0.5", "2", "3",
                                                     "1.7")])
def test_every_node_is_lane_independent(text):
    _check_lanes(ex.parse(text), [(0.1 + 0.08 * i, -1.5 + 0.13 * i) for i in range(24)])


# ---------------------------------------------------------------------------
# property tests: the tape `compiled` runs against the nested-lambda
# evaluator it replaced, which walks every node and stays here as the oracle

def _oracle_compiled(e):
    used = sorted(ex.free_vars(e))

    def rec(node):
        if isinstance(node, Const):
            c = node.value
            return lambda env: c
        if isinstance(node, Var):
            name = node.name
            return lambda env: env[name]
        if isinstance(node, Unary):
            argf = rec(node.arg)
            op = ex._NP_UNARY[node.op]
            return lambda env: op(argf(env))
        lf = rec(node.left)
        if node.op == "pow":
            expo = node.right.value
            return lambda env: np.asarray(lf(env), dtype=float) ** expo
        rf = rec(node.right)
        op = ex._NP_BINARY[node.op]
        return lambda env: op(lf(env), rf(env))

    body = rec(e)

    def fn(env):
        for name in used:
            if name not in env:
                raise EvalError(f"unbound variable {name!r}")
            x = env[name]
            if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
                raise EvalError(f"non-finite binding for {name!r}")
        try:
            with np.errstate(all="raise", under="ignore"):
                r = np.asarray(body(env), dtype=float)
        except FloatingPointError as exc:
            raise EvalError(f"{exc} evaluating {e}") from None
        if not np.isfinite(r).all():
            raise EvalError(f"non-finite value of {e}")
        return r
    return fn


def _outcome_of(fn, env):
    """The value's shape and bytes, or the EvalError message."""
    try:
        r = fn(env)
    except EvalError as err:
        return "EvalError", str(err)
    return r.shape, r.tobytes()


@st.composite
def _shared_trees(draw):
    """A tree whose subtrees recur: each new node takes its operands from a
    pool of earlier trees, as the same object or as an equal copy."""
    pool = draw(st.lists(_trees(2), min_size=1, max_size=4))

    def operand():
        x = draw(st.sampled_from(pool))
        return ex.substitute(x, {}) if draw(st.booleans()) else x

    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("unary", "binary", "pow")))
        if kind == "unary":
            node = Unary(draw(st.sampled_from(("neg",) + ex.FUNCTIONS)), operand())
        elif kind == "binary":
            node = ex.Binary(draw(st.sampled_from(("add", "sub", "mul", "div"))),
                             operand(), operand())
        else:
            node = ex.Binary("pow", operand(), Const(draw(_EXPONENTS)))
        pool.append(node)
    return pool[-1]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(e=_shared_trees(), points=_POINTS,
       times=st.lists(_LEAF_VALUES, min_size=1, max_size=3))
def test_tape_matches_the_tree_walk_bit_for_bit(e, points, times):
    # scalar, (m,) and (nt, m) bindings: the same bytes, or the same message
    fn, oracle = ex.compiled(e), _oracle_compiled(e)
    t, u = (np.array(c) for c in zip(*points))
    envs = [{"t": ti, "u": ui} for ti, ui in points]
    envs += [{"t": t, "u": u}, {"t": np.array(times)[:, None], "u": u}]
    for env in envs:
        assert _outcome_of(fn, env) == _outcome_of(oracle, env), (str(e), env)


def test_tape_keeps_signed_zero_constants_apart():
    # keyed by value, the -0.0 constant would reuse the slot of 0.0 * y1
    y1 = Var("y1")
    e = ex.Binary("mul", Unary("exp", ex.Binary("mul", Const(0.0), y1)),
                  ex.Binary("mul", Const(-0.0), y1))
    for y in (0.5, np.array([0.5, 2.0])):
        got = ex.compiled(e)({"y1": y})
        assert np.all(got == 0.0) and np.all(np.signbit(got))
        assert got.tobytes() == _oracle_compiled(e)({"y1": y}).tobytes()


def _tree_size(e):
    if isinstance(e, (Const, Var)):
        return 1
    if isinstance(e, Unary):
        return 1 + _tree_size(e.arg)
    return 1 + _tree_size(e.left) + _tree_size(e.right)


def _distinct_operations(e):
    """Number of distinct non-leaf subtrees, constants told apart by bits."""
    seen = set()

    def key(node):
        if isinstance(node, Const):
            return node.value.hex()
        if isinstance(node, Var):
            return node.name
        k = ((node.op, key(node.arg)) if isinstance(node, Unary)
             else (node.op, key(node.left), key(node.right)))
        seen.add(k)
        return k

    key(e)
    return len(seen)


def test_tape_computes_each_distinct_subtree_once(monkeypatch):
    # b_1 of the benchmark's 32^3 box map, whose derived tree repeats its
    # Jacobian subterms: one numpy call (pow included) per distinct subtree
    from movingdom.diffeo import BoxDomain, build_metric, parse_diffeo
    from movingdom.grid import BoxGrid
    fwd = [f"(y{i} + 0.25 * y{i}^2) / (exp(0 - t^2) + 1)" for i in (1, 2, 3)]
    inv = [f"2 * (sqrt(1 + x{i} * (exp(0 - t^2) + 1)) - 1)" for i in (1, 2, 3)]
    b1 = build_metric(parse_diffeo(3, BoxDomain((1.0, 1.0, 1.0)), fwd, inv)).b[0]
    calls = []
    for table in (ex._NP_UNARY, ex._NP_BINARY):
        for name, op in list(table.items()):
            monkeypatch.setitem(table, name,
                                lambda *args, _op=op: calls.append(_op) or _op(*args))
    env, _ = ex.bind(0.3, BoxGrid((1.0, 1.0, 1.0), (4, 4, 4)).embed())
    got = ex.compiled(b1)(env)
    assert _tree_size(b1) == 430
    assert len(calls) == _distinct_operations(b1) < 430
    monkeypatch.undo()
    assert got.tobytes() == _oracle_compiled(b1)(env).tobytes()


_SMOOTH = tuple(f for f in ex.FUNCTIONS if f not in ("abs", "sign"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(e=_trees(4, _SMOOTH), points=_POINTS, var=st.sampled_from(("t", "u")))
def test_diff_of_random_smooth_trees_matches_central_differences(e, points, var):
    """d/dvar against central differences of `evaluate` with steps h and 2h,
    at points where the derivative and all four shifted values are defined.
    Points where the two differences disagree are skipped: a pole or a
    branch point lies within 2h, so neither estimates the derivative."""
    h = 1e-5
    d = ex.diff(e, var)
    for ti, ui in points:
        env = {"t": ti, "u": ui}
        vals = [_value(d, env)] + [_value(e, env | {var: env[var] + s})
                                   for s in (h, -h, 2 * h, -2 * h)]
        if None in vals:
            continue
        want, fp, fm, fp2, fm2 = vals
        fd, fd2 = (fp - fm) / (2 * h), (fp2 - fm2) / (4 * h)
        if abs(fd - fd2) > 1e-6 * (1.0 + abs(fd)):
            continue
        assert abs(want - fd) <= 1e-6 * (1.0 + abs(want)), (ex.to_string(e), var, env)


# ---------------------------------------------------------------------------
# property test: the regular-expression scanner against the hand-written one
# it replaced, which stays here as the oracle

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tok = None      # (kind, value, offset)
        self.advance()

    def advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            self.tok = ("end", "", i)
            self.pos = i
            return
        c = text[i]
        if c in "+-*/^()":
            self.tok = (c, c, i)
            self.pos = i + 1
            return
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            self.tok = ("number", text[i:j], i)
            self.pos = j
            return
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.tok = ("ident", text[i:j], i)
            self.pos = j
            return
        raise ex.ParseError(f"unexpected character {c!r}", i)


class _OracleParser(ex._Parser):
    """The same grammar methods, fed by the oracle scanner."""

    def __init__(self, text):
        self.toks = _Tokenizer(text)
        self.tok = self.toks.tok

    def advance(self):
        self.toks.advance()
        self.tok = self.toks.tok


def _outcome(parser, text):
    try:
        return "tree", ex.to_string(parser(text).parse())
    except Exception as err:   # the exception type is part of the outcome
        return type(err).__name__, str(err), getattr(err, "offset", None)


# the grammar's ASCII alphabet in whole words and single characters, partial
# exponents, an underscore (an identifier character) and a few junk
# characters, among them a form feed, which is not whitespace here
_CHUNKS = ("0", "1", "7", "12", ".", "e", "E", "1e", "1e+", "1e-", "2.5E-3", "1.",
           "3.e2", "t", "u", "y", "x", "2", "3", "y1", "x3", "pi", "sin", "sqrt",
           "foo", "_", "+", "-", "*", "/", "^", "(", ")", " ", " ", "\t", "\r",
           "\n", "\x0c", "@", "\\")


@settings(max_examples=500, derandomize=True, deadline=None)
@given(text=st.lists(st.sampled_from(_CHUNKS), max_size=12).map("".join))
def test_regex_scanner_matches_the_hand_written_oracle(text):
    assert _outcome(ex._Parser, text) == _outcome(_OracleParser, text), repr(text)
