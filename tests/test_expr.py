"""Parser, printer, and evaluator behavior for the config expression language."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from volmaj import expr
from volmaj.errors import DomainError, ExprSyntaxError, UnknownVariableError
from volmaj.expr import BinOp, Call, Neg, Num, Var, evaluate, parse, to_text
from volmaj.integral_majorant import MajorantSpec


def ev(text, **env):
    return evaluate(parse(text, allowed_vars=tuple(env)), env)


class TestPrecedence:
    def test_power_binds_tighter_than_product(self):
        assert ev("2+3*4^2") == 50.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-t^2", t=3.0) == -9.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_left_associative_subtraction(self):
        assert ev("10-4-3") == 3.0

    def test_left_associative_division(self):
        assert ev("24/4/2") == 3.0

    def test_parens_override(self):
        assert ev("(2+3)*4") == 20.0

    def test_unary_minus_chain(self):
        assert ev("--4") == 4.0

    def test_unary_minus_in_exponent(self):
        assert ev("2^-1") == 0.5

    def test_function_call(self):
        assert ev("sin(0)") == 0.0
        assert ev("exp(1)") == math.e

    def test_implicit_whitespace(self):
        assert ev("  1 +  2 * t ", t=2.0) == 5.0

    def test_scientific_notation(self):
        assert ev("1.5e2") == 150.0
        assert ev("2.5E-1") == 0.25
        assert ev(".5") == 0.5


class TestErrors:
    def test_truncated_power_offset(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse("z^", allowed_vars=("z",))
        assert e.value.offset == 2
        assert "byte 2" in str(e.value)

    def test_unknown_variable_offset(self):
        with pytest.raises(UnknownVariableError) as e:
            parse("t + bad", allowed_vars=("t",))
        assert e.value.offset == 4
        assert "bad" in str(e.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse("1 + 2 )")
        assert e.value.offset == 6

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("")

    def test_bare_function_name(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse("sin + 1")
        assert "sin" in str(e.value)

    def test_non_ascii_rejected(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse("1 + ω")
        assert e.value.offset == 4

    def test_variable_shadowing_function_rejected(self):
        with pytest.raises(ValueError):
            parse("sin(1)", allowed_vars=("sin",))

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/(t-t)", t=2.0)

    def test_log_of_negative(self):
        with pytest.raises(DomainError):
            ev("log(0-1)")

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            ev("sqrt(0-4)")

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            ev("(0-8)^0.5")

    def test_missing_binding(self):
        with pytest.raises(UnknownVariableError):
            evaluate(parse("t", allowed_vars=("t",)), {})


class TestPrinter:
    def test_full_parens(self):
        assert to_text(parse("-t^2", ("t",))) == "(-(t ^ 2.0))"

    def test_round_trip_small(self):
        for text in ["1+2*3", "sin(t)*cos(t)", "2^3^t", "-(a+b)/c", "abs(0-t)"]:
            tree = parse(text, ("t", "a", "b", "c"))
            assert parse(to_text(tree), ("t", "a", "b", "c")) == tree


# -- randomized agreement with an independent evaluation route ---------------
#
# Expressions are generated as paired texts: one in the config grammar, one
# in Python syntax.  Both are evaluated bottom-up left to right, so agreeing
# results must agree to the last bit.

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]
_PY_ENV = {name: getattr(math, name, None) for name in _FUNCS}
_PY_ENV["abs"] = math.fabs


def _gen(rng, depth, vars_):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if vars_ and rng.random() < 0.4:
            name = rng.choice(vars_)
            return name, name
        val = round(rng.uniform(0.0, 4.0), 3)
        text = repr(val)
        return text, text
    if roll < 0.35:
        a_d, a_p = _gen(rng, depth - 1, vars_)
        return f"-({a_d})", f"-({a_p})"
    if roll < 0.5:
        fn = rng.choice(_FUNCS)
        a_d, a_p = _gen(rng, depth - 1, vars_)
        return f"{fn}({a_d})", f"{fn}({a_p})"
    op = rng.choice(["+", "-", "*", "/", "^"])
    a_d, a_p = _gen(rng, depth - 1, vars_)
    b_d, b_p = _gen(rng, depth - 1, vars_)
    py_op = "**" if op == "^" else op
    return f"({a_d}) {op} ({b_d})", f"({a_p}) {py_op} ({b_p})"


def _reference(py_text, env):
    # OverflowError marks a genuinely infinite value (math.exp raises
    # where the config evaluator saturates), reported as unsigned inf
    try:
        v = eval(py_text, {"__builtins__": {}}, {**_PY_ENV, **env})
    except OverflowError:
        return math.inf
    except (ArithmeticError, ValueError, TypeError):
        return None
    if isinstance(v, complex) or math.isnan(v):
        return None
    return float(v)


def test_thousand_random_expressions_round_trip_and_agree():
    rng = random.Random(90125)
    names = ("t", "z", "w")
    env = {"t": 0.7, "z": 1.3, "w": 2.1}
    checked = 0
    for _ in range(1200):
        dsl, py = _gen(rng, 4, names)
        tree = parse(dsl, names)
        reprint = to_text(tree)
        assert parse(reprint, names) == tree, reprint
        expected = _reference(py, env)
        try:
            got = evaluate(tree, env)
        except DomainError:
            got = None
        if expected is not None and math.isinf(expected):
            assert got is not None and math.isinf(got), (dsl, got)
            continue
        if expected is None or got is None:
            assert expected == got, (dsl, got, expected)
            continue
        assert got == expected, (dsl, got, expected)
        checked += 1
    assert checked >= 600


# hypothesis route: build trees directly, require print -> parse identity

_names = st.sampled_from(["t", "z", "w"])
_numbers = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _trees(ops="+-*/^", funcs=tuple(_FUNCS)):
    leaves = st.one_of(
        _numbers.map(Num),
        _names.map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(ops), children, children).map(
                lambda s: BinOp(s[0], s[1], s[2])
            ),
            st.tuples(st.sampled_from(funcs), children).map(
                lambda s: Call(s[0], s[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@given(_trees())
@settings(max_examples=300, deadline=None)
def test_print_parse_identity(tree):
    text = to_text(tree)
    assert parse(text, ("t", "z", "w")) == tree


def test_variables_listing():
    tree = parse("t + sin(z*t)", ("t", "z"))
    assert expr.variables(tree) == {"t", "z"}


def test_compiled_code_is_shared_only_by_trees_of_one_repr():
    # == holds between Num(0.0) and Num(-0.0) and ignores byte offsets,
    # which the compiled code returns and names
    zero, negative_zero = (expr.as_function(Num(v), ("t",)) for v in (0.0, -0.0))
    assert math.copysign(1.0, zero(1.0)) == 1.0
    assert math.copysign(1.0, negative_zero(1.0)) == -1.0
    for text, offset in (("sqrt(t)", 0), ("  sqrt(t)", 2)):
        fn = expr.as_function(parse(text, ("t",)), ("t",))
        with pytest.raises(DomainError, match=f"at byte {offset}"):
            fn(-1.0)
        assert expr.as_function(parse(text, ("t",)), ("t",)) is fn


def test_as_function_rejects_unbound():
    tree = parse("t + z", ("t", "z"))
    with pytest.raises(ValueError):
        expr.as_function(tree, ("t",))
    fn = expr.as_function(tree, ("t", "z"))
    assert fn(1.0, 2.0) == 3.0


# compiled functions against the tree-walking reference

_EDGE_INPUTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 3.0, -3.0, 1e308, -1e308])


def _outcome(call):
    """A value by repr, so -0.0 and the sign of inf count, or the error."""
    try:
        return repr(call())
    except Exception as exc:  # compare whatever either route raises
        return type(exc), str(exc), getattr(exc, "offset", None)


_TW = BinOp("*", Var("t"), Var("w"))


# random trees seldom reach the overflow and NaN branches, so each gets an example
@given(_trees(), st.tuples(_EDGE_INPUTS, _EDGE_INPUTS, _EDGE_INPUTS))
@example(BinOp("-", _TW, _TW), (1e308, 0.5, 3.0))
@example(BinOp("*", Num(0.0), Call("exp", Var("t"))), (1e308, 0.5, 3.0))
@example(BinOp("^", Var("t"), Var("w")), (-1e308, 0.5, 3.0))
@example(BinOp("^", Var("t"), Var("w")), (-3.0, 0.5, 1e308))
@example(Neg(BinOp("*", Num(0.0), Var("t"))), (3.0, 0.5, 3.0))
@settings(max_examples=500, deadline=None)
def test_compiled_matches_evaluate(tree, values):
    names = ("t", "z", "w")
    tree = parse(to_text(tree), names)  # the same tree, with byte offsets
    env = dict(zip(names, values))
    fn = expr.as_function(tree, names)
    assert _outcome(lambda: fn(*values)) == _outcome(lambda: evaluate(tree, env))


@pytest.mark.parametrize(
    "text, want",
    [
        ("z + 1e999", "inf"),  # a constant repr() cannot spell
        ("exp(1000)", "inf"),
        ("(-10)^309", "-inf"),
        ("-z*0", "-0.0"),
    ],
)
def test_compiled_saturates_like_evaluate(text, want):
    tree = parse(text, ("z",))
    assert repr(expr.as_function(tree, ("z",))(2.0)) == want
    assert repr(evaluate(tree, {"z": 2.0})) == want


@pytest.mark.parametrize(
    "text, z, message, offset",
    [
        ("0*1e999", 2.0, "evaluation produced NaN", 1),
        ("1/(z-z)", 2.0, "division by zero", 1),
        ("log(-z)", 2.0, "log(-2.0) outside real domain", 0),
        ("1 + (-z)^0.5", 2.0, "power -2.0^0.5 outside real domain", 8),
        ("1 + sin(z)", math.nan, "evaluation produced NaN", 4),
    ],
)
def test_compiled_raises_like_evaluate(text, z, message, offset):
    tree = parse(text, ("z",))
    for call in (lambda: expr.as_function(tree, ("z",))(z),
                 lambda: evaluate(tree, {"z": z})):
        with pytest.raises(DomainError) as e:
            call()
        assert e.value.offset == offset
        assert str(e.value) == f"{message} (at byte {offset})"
    # the array form only signals the failure, at the same node
    with pytest.raises(DomainError) as e:
        expr.as_array_function(tree, ("z",))(np.array([z]))
    assert e.value.offset == offset


@pytest.mark.parametrize(
    "outer, inner",
    [
        ("z*z + log(z)", "w + t"),  # z read twice, inner computed once
        ("3", "w"),  # outer free of z: inner still runs
        ("1/z", "w - t"),  # outer fails where inner is 0
        ("z", "sqrt(w - 1) + t"),  # inner fails first
        ("t*z + w", "2*w"),  # outer reads the arguments too
    ],
)
def test_let_binds_a_variable_to_an_inner_tree(outer, inner):
    names = ("t", "w")
    outer_tree, inner_tree = parse(outer, ("z", *names)), parse(inner, names)
    composed = expr.as_function(outer_tree, names, let=("z", inner_tree))
    f = expr.as_function(inner_tree, names)
    g = expr.as_function(outer_tree, ("z", *names))
    for t, w in [(0.0, 0.0), (0.5, 0.5), (0.25, 2.0), (1.0, 3.5)]:
        assert _outcome(lambda: composed(t, w)) == _outcome(lambda: g(f(t, w), t, w))
    with pytest.raises(ValueError, match="unbound"):
        expr.as_function(outer_tree, ("t",), let=("z", inner_tree))


@pytest.mark.parametrize(
    "tree",
    [Call("__import__", Num(1.0)), BinOp("**", Num(2.0), Num(3.0))],
)
def test_compiler_rejects_names_outside_the_grammar(tree):
    # a hand-built node must not put its text into the generated source
    with pytest.raises(ValueError):
        expr.as_function(tree, ())


# array functions against the compiled scalar functions, element by element

_NAMES = ("t", "z", "w")
_ARRAY_INPUTS = st.one_of(
    _EDGE_INPUTS,
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
_ROWS = st.lists(
    st.tuples(_ARRAY_INPUTS, _ARRAY_INPUTS, _ARRAY_INPUTS), min_size=1, max_size=6
)
_EXACT_FUNCS = ("sin", "cos", "sqrt", "abs")
# numpy's exp, log, tan and pow differ from math's in the last ulp on
# some inputs, so one such node is compared within a few ulps
_INEXACT_FUNCS = ("tan", "exp", "log")
_ULPS = 4


def _array_outcome(call, size):
    """The values by repr, broadcast to size, or the DomainError raised."""
    try:
        return [repr(float(v)) for v in np.broadcast_to(call(), (size,))]
    except DomainError as exc:
        return exc


def _assert_array_agrees(tree, rows, same_value):
    tree = parse(to_text(tree), _NAMES)  # the same tree, with byte offsets
    fn = expr.as_function(tree, _NAMES)
    afn = expr.as_array_function(tree, _NAMES)
    want = [_outcome(lambda: fn(*row)) for row in rows]
    got = _array_outcome(
        lambda: afn(*(np.array(col) for col in zip(*rows))), len(rows)
    )
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        # the whole call fails; on one element, at the scalar form's node
        assert isinstance(got, DomainError), (to_text(tree), rows, got, want)
        if len(rows) == 1:
            assert got.offset == errors[0][2], (to_text(tree), rows, got, want)
        return
    assert isinstance(got, list) and len(got) == len(want)
    for g, w in zip(got, want):
        assert same_value(float(g), float(w)), (to_text(tree), rows, got, want)


_T_MINUS_T = BinOp("-", Var("t"), Var("t"))


def _within_ulps(got, want):
    if got == want:  # also equal infinities
        return True
    return math.isclose(got, want, rel_tol=_ULPS * 2.0**-52, abs_tol=_ULPS * 5e-324)


@given(_trees("+-*/", _EXACT_FUNCS), _ROWS)
@example(BinOp("/", Var("t"), Var("z")),
         [(1.0, 2.0, 0.0), (1.0, -0.0, 0.0), (0.0, 0.0, 0.0)])
@example(BinOp("-", BinOp("*", Var("t"), Var("w")), BinOp("*", Var("t"), Var("w"))),
         [(0.5, 0.0, 3.0), (1e308, 0.0, 3.0)])
@example(Call("sqrt", BinOp("*", Var("t"), Var("z"))),
         [(3.0, 3.0, 0.0), (-0.0, 3.0, 0.0)])
@example(Call("sin", BinOp("*", Var("t"), Var("w"))),
         [(1e308, 0.0, 3.0), (0.5, 0.0, 3.0)])
@example(BinOp("+", Call("sqrt", Var("z")), BinOp("/", Num(1.0), Var("t"))),
         [(3.0, 0.5, 0.0), (0.0, 0.5, 0.0), (3.0, -3.0, 0.0)])
# a failure whose inf would vanish before the output: 1/inf = 0
@example(BinOp("/", Num(1.0), BinOp("/", Num(1.0), _T_MINUS_T)), [(2.0, 0.0, 0.0)])
@settings(max_examples=500, deadline=None)
def test_array_function_matches_compiled_exactly(tree, rows):
    _assert_array_agrees(tree, rows, lambda g, w: repr(g) == repr(w))


def _inexact_trees():
    exact = _trees("+-*/", _EXACT_FUNCS)
    return st.one_of(
        st.tuples(st.sampled_from(_INEXACT_FUNCS), exact).map(lambda s: Call(*s)),
        st.tuples(exact, exact).map(lambda s: BinOp("^", *s)),
    )


_SIGNED_BASES = [(b, 0.0, 0.0) for b in (0.0, -0.0, math.inf, -math.inf)]


@given(_inexact_trees(), _ROWS)
@example(BinOp("^", _TW, Num(0.5)),
         [(-0.0, 0.0, 3.0), (-1e308, 0.0, 3.0), (3.0, 0.0, 3.0)])
@example(BinOp("^", Var("t"), Var("z")),
         [(-3.0, 3.0, 0.0), (-1e308, 3.0, 0.0), (3.0, 0.5, 0.0)])
@example(BinOp("^", Var("t"), Var("z")),
         [(2.0, 2.0, 0.0), (-0.0, -3.0, 0.0), (-3.0, 0.5, 0.0)])
@example(BinOp("^", Var("t"), Num(0.0)), [(-0.0, 0.0, 0.0)])
@example(BinOp("^", Var("z"), _TW), [(-1e308, 0.0, 3.0), (1e308, -0.0, 3.0)])
@example(Call("log", Var("t")), [(3.0, 0.0, 0.0), (-0.0, 0.0, 0.0)])
@example(Call("exp", _TW), [(1e308, 0.0, 3.0), (-1e308, 0.0, 3.0)])
@example(Call("tan", _TW), [(3.0, 0.0, 0.5), (-1e308, 0.0, 3.0)])
# failures whose inf or NaN would vanish before the output:
# 1/log(0) = 1/-inf = -0, 1/0^-1 = 1/inf = 0 and nan^0 = 1
@example(BinOp("/", Num(1.0), Call("log", _T_MINUS_T)), [(2.0, 0.0, 0.0)])
@example(BinOp("/", Num(1.0), BinOp("^", _T_MINUS_T, Neg(Num(1.0)))), [(2.0, 0.0, 0.0)])
@example(BinOp("^", Call("sqrt", Neg(Var("t"))), Num(0.0)), [(2.0, 0.0, 0.0)])
# a finite constant exponent > 0 compiles without the zero-base mask, and
# only 0.5 with _array_power's repair: signed zeros and infinities as
# bases, a negative one apart (it fails for a fractional exponent), and nan
@example(BinOp("^", Var("t"), Num(0.5)), _SIGNED_BASES)
@example(BinOp("^", Var("t"), Num(0.5)), [(-3.0, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(0.5)), [(math.nan, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(1.0)), [*_SIGNED_BASES, (-3.0, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(1.0)), [(math.nan, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(2.0)), [*_SIGNED_BASES, (-3.0, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(2.0)), [(math.nan, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(2.5)), _SIGNED_BASES)
@example(BinOp("^", Var("t"), Num(2.5)), [(-3.0, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(2.5)), [(math.nan, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(1e-300)), _SIGNED_BASES)
@example(BinOp("^", Var("t"), Num(1e-300)), [(-3.0, 0.0, 0.0)])
@example(BinOp("^", Var("t"), Num(1e-300)), [(math.nan, 0.0, 0.0)])
@settings(max_examples=500, deadline=None)
def test_array_function_matches_compiled_within_ulps(tree, rows):
    _assert_array_agrees(tree, rows, _within_ulps)


def test_array_function_broadcasts_and_raises():
    names = ("r", "t")
    fn = expr.as_array_function(parse("t*sqrt(3 - r)", names), names)
    t = [[1.0], [2.0]]  # lists convert as arrays do
    got = fn([[0.0, 3.0]], t)
    root = math.sqrt(3.0)
    assert np.array_equal(got, [[root, 0.0], [2.0 * root, 0.0]])
    # sqrt(3 - 4) fails, so the whole call does, at the sqrt node (byte 2)
    r = np.array([[0.0, 2.0, 4.0, 5.0]])
    with pytest.raises(DomainError) as e:
        fn(r, t)
    assert e.value.offset == 2
    # a constant or a bare argument broadcasts against the arguments
    one = expr.as_array_function(parse("1", names), names)(r, t)
    assert np.array_equal(np.broadcast_to(one, (2, 4)), np.ones((2, 4)))
    same = expr.as_array_function(parse("r", names), names)(r, t)
    assert np.array_equal(np.broadcast_to(same, (2, 4)), np.repeat(r, 2, axis=0))


def test_array_function_leaks_no_warning():
    names = ("z",)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn = expr.as_array_function(parse("exp(1000*z)/(z - 1)", names), names)
        assert repr(float(fn(np.array([2.0]))[0])) == "inf"
        with pytest.raises(DomainError):
            fn(np.array([0.5, 1.0]))


# exact derivatives against central differences of the reference evaluator

_POINTS = st.tuples(*[st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)] * 3)


def _central(tree, env, name, h):
    def at(x):
        return evaluate(tree, {**env, name: x})

    return (at(env[name] + h) - at(env[name] - h)) / (2.0 * h)


def _largest_subtree(tree, envs):
    """The largest finite magnitude any subtree of tree takes at envs."""
    top, stack = 0.0, [tree]
    while stack:
        node = stack.pop()
        stack.extend(expr._children(node).values())
        for env in envs:
            v = abs(evaluate(node, env))
            if math.isfinite(v):
                top = max(top, v)
    return top


@given(_trees(), _POINTS, st.sampled_from(_NAMES))
@example(Call("abs", Var("t")), (-0.5, 0.0, 0.0), "t")
@example(BinOp("^", Var("t"), Var("z")), (1.5, 2.5, 0.0), "z")
@example(BinOp("/", Call("log", Var("w")), Var("t")), (0.5, 0.0, 2.0), "t")
# 2^32 + 1 +- h rounds to a multiple of ulp(2^32) = 9.5e-7 inside the
# tree, so both differences step 1.0014*h, not h
@example(
    Call("sin", Neg(BinOp("+", Var("z"), BinOp("*", Num(65536.0), Num(65536.0))))),
    (0.0, 1.0, 0.0),
    "z",
)
@settings(max_examples=500, deadline=None)
def test_derivative_matches_a_central_difference(tree, point, name):
    tree = parse(to_text(tree), _NAMES)  # the same tree, with byte offsets
    env = dict(zip(_NAMES, point))
    h = 1e-4 * max(1.0, abs(env[name]))
    slope_fn = expr.as_function(expr.derivative(tree, name), _NAMES)
    try:
        value = evaluate(tree, env)
        fine = _central(tree, env, name, h)
        coarse = _central(tree, env, name, 2.0 * h)
        shifted = ({**env, name: env[name] + d} for d in (-h, 0.0, h))
        slopes = [slope_fn(*at.values()) for at in shifted]
        stencil = ({**env, name: env[name] + d} for d in (-2 * h, -h, h, 2 * h))
        largest = _largest_subtree(tree, list(stencil))
    except DomainError:
        return  # f or its slope is not evaluable this close to the point
    slope = slopes[1]
    if not all(map(math.isfinite, (value, fine, coarse, *slopes))):
        return
    # well inside the domain, f and its slope change little across the
    # stencil: the two differences agree, and so do the three slopes
    if abs(coarse - fine) > 1e-3 * (1.0 + abs(fine)) or any(
        abs(s - slope) > 1e-3 * (1.0 + abs(slope)) for s in slopes
    ):
        return
    # roundoff in f, plus the step as rounded inside the tree: a subtree
    # of magnitude M moves only by multiples of ulp(M)
    noise = 1e-9 * (1.0 + abs(value)) / h + abs(fine) * math.ulp(largest) / h
    assert abs(slope - fine) <= 2.0 * abs(coarse - fine) + noise + 1e-9 * abs(fine), (
        to_text(tree), name, point, slope, fine, coarse
    )


@pytest.mark.parametrize(
    "text, want",
    [
        ("sin(2*r)", lambda r, t: 2.0 * math.cos(2.0 * r)),
        ("cos(r*t)", lambda r, t: -t * math.sin(r * t)),
        ("tan(r)", lambda r, t: 1.0 + math.tan(r) ** 2),
        ("exp(t*r)", lambda r, t: t * math.exp(t * r)),
        ("log(1 + r)", lambda r, t: 1.0 / (1.0 + r)),
        ("sqrt(r)", lambda r, t: 0.5 / math.sqrt(r)),
        ("abs(r - 2)", lambda r, t: -1.0),
        ("r^3", lambda r, t: 3.0 * r**2),  # constant exponent
        ("r^t", lambda r, t: t * r ** (t - 1.0)),  # exponent free of r
        ("t^r", lambda r, t: t**r * math.log(t)),  # variable exponent
        ("r^r", lambda r, t: r**r * (math.log(r) + 1.0)),
        ("(r - t)/(r + t)", lambda r, t: 2.0 * t / (r + t) ** 2),
        ("-r*t + 1/t", lambda r, t: -t),
    ],
)
def test_derivative_table(text, want):
    names = ("r", "t")
    slope = expr.derivative(parse(text, names), "r")
    for r, t in [(0.7, 1.3), (1.9, 0.4)]:
        got = expr.as_function(slope, names)(r, t)
        assert got == pytest.approx(want(r, t), rel=1e-14, abs=1e-15), to_text(slope)
        arr = expr.as_array_function(slope, names)(np.array([r]), np.array([t]))
        assert float(arr[0]) == pytest.approx(got, rel=1e-15)


def test_derivative_folds_to_the_hand_written_slope():
    names = ("r", "t")
    derived = expr.derivative(parse("t*(r^2 + 1.0208)", names), "r")
    hand = parse("t*(2*r)", names)
    assert derived == hand
    r = np.linspace(0.0, 10.0, 41)[None, :]
    t = np.linspace(0.0, 5.0, 21)[:, None]
    for compile_ in (expr.as_function, expr.as_array_function):
        got = np.vectorize(compile_(derived, names))(r, t)
        assert np.array_equal(got, np.vectorize(compile_(hand, names))(r, t))
    assert expr.derivative(parse("t + 0*r - 3", names), "r") == Num(0.0)


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("t*sqrt(r)", "division by zero", 2),
        ("t*(r^0.5 + 1)", "power 0.0^-0.5 outside real domain", 4),
        ("log(r) + t", "division by zero", 0),
        ("t*abs(r)", "division by zero", 2),
    ],
)
def test_a_failing_slope_names_a_byte_of_f(text, message, offset):
    names = ("r", "t")
    slope = expr.as_function(expr.derivative(parse(text, names), "r"), names)
    with pytest.raises(DomainError) as e:
        slope(0.0, 1.0)
    assert str(e.value) == f"{message} (at byte {offset})"


def test_separated_terms_split_sums_of_products():
    names = ("t", "s1", "s2", "u1", "u2")
    coords = [("s1", "u1"), ("s2", "u2")]
    terms = expr.separated_terms(parse("2*t*u1*s2 - sin(u2)", names), coords)
    (a1, b1), (a2, b2) = terms
    assert a1 == parse("2*t", names) and b1 == (Var("u"), Var("s"))
    assert a2 == Num(-1.0) and b2 == (Num(1.0), Call("sin", Var("u")))
    assert expr.separated_terms(parse("u1*u2 + t*s1", names), coords) is not None
    assert expr.separated_terms(parse("exp(u1*u2)", names), coords) is None
    assert expr.separated_terms(parse("sin(t - s1)*u1", names), coords) is None


def test_a_text_parses_once_for_each_set_of_names():
    # the names' container and order do not matter, only the set
    tree = parse("t*w + sin(t)", ["t", "w"])
    assert parse("t*w + sin(t)", ("w", "t")) is tree
    assert parse("t*w + sin(t)", ("t", "w")) == tree


def test_a_stored_tree_is_not_returned_for_other_names():
    assert parse("t*w", ("t", "w")) == BinOp("*", Var("t"), Var("w"))
    for _ in range(2):
        with pytest.raises(UnknownVariableError) as e:
            parse("t*w", ("w",))
        assert e.value.offset == 0


def test_a_bad_text_raises_a_fresh_singly_prefixed_error_every_time():
    errors = []
    for _ in range(2):
        with pytest.raises(ExprSyntaxError) as e:
            MajorantSpec(f="w +* t", gamma="z")
        errors.append(e.value)
    assert errors[0] is not errors[1]
    for error in errors:
        assert str(error) == "f: syntax error at byte 3: unexpected character '*'"
