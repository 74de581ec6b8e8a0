"""Tiny arithmetic expression language used by the CLI config files.

Grammar (ASCII only, whitespace insignificant between tokens):

    sum    := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]
    atom   := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'

'^' is right-associative and binds tighter than unary minus, so
``-t^2`` means ``-(t^2)`` and ``2^3^2`` means ``2^(3^2)``.

Evaluation is strict over the reals: division by zero, log of a
nonpositive value, sqrt of a negative value, fractional powers of
negative bases and any NaN produced mid-expression raise DomainError
instead of propagating quietly.  Magnitude overflow saturates to a
signed infinity, matching IEEE float semantics.

``evaluate`` walks the tree and is the reference.  ``as_function``
compiles an expression once per config into one straight-line Python
function with the same strict semantics, results and error messages;
the CLI calls only compiled functions.  ``as_array_function`` emits the
same straight-line code over numpy arrays: element by element it gives
the compiled function's value (up to the last ulp of numpy's exp, log,
tan and pow), and it raises a DomainError if that function raises for
any element, so the caller can rerun the scalar form to name the point.

Every pass over trees lives here as well: ``derivative`` gives the exact
partial derivative of a tree, and ``separated_terms`` splits a kernel
tree into sums of products of single-coordinate factors.  ``Form`` holds
one tree of a spec with its two compiled functions, each built on first
use.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from .errors import DomainError, ExprError, ExprSyntaxError, UnknownVariableError
from .quadrature import pointwise

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "parse",
    "evaluate",
    "to_text",
    "variables",
    "derivative",
    "separated_terms",
    "as_function",
    "as_array_function",
    "Form",
]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"
    offset: int = field(default=-1, compare=False)


Expr = Union[Num, Var, Neg, BinOp, Call]

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str]):
        self.text = text
        self.allowed = allowed
        self.pos = 0

    def fail(self, message: str, offset: int | None = None) -> None:
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def parse_sum(self) -> Expr:
        return self.parse_chain(("+", "-"), self.parse_term)

    def parse_term(self) -> Expr:
        return self.parse_chain(("*", "/"), self.parse_unary)

    def parse_chain(self, ops: tuple[str, ...], operand: Callable[[], Expr]) -> Expr:
        """operand (op operand)*, associating to the left."""
        node = operand()
        while self.peek() in ops:
            at = self.pos
            self.pos += 1
            node = BinOp(self.text[at], node, operand(), offset=at)
        return node

    def parse_group(self) -> Expr:
        """A parenthesised sum, the parser standing on its '('."""
        self.pos += 1
        node = self.parse_sum()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.pos += 1
        return node

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            at = self.pos
            self.pos += 1
            return Neg(self.parse_unary(), offset=at)
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            node = BinOp("^", node, self.parse_unary(), offset=at)
        return node

    def parse_atom(self) -> Expr:
        ch = self.peek()
        if ch == "":
            self.fail("unexpected end of input")
        at = self.pos
        if ch == "(":
            return self.parse_group()
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()), offset=at)
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if name in FUNCTIONS:
                if self.peek() != "(":
                    self.fail(f"function {name!r} must be followed by '('", at)
                return Call(name, self.parse_group(), offset=at)
            if name not in self.allowed:
                raise UnknownVariableError(name, at)
            return Var(name, offset=at)
        self.fail(f"unexpected character {ch!r}")
        raise AssertionError("unreachable")


def parse(text: str, allowed_vars: Iterable[str] = ()) -> Expr:
    """Parse expression text into a tree.

    allowed_vars lists the variable names the expression may mention;
    anything else raises UnknownVariableError with its byte offset.

    A text parses once per process for each set of names, whatever their
    order: later calls return the same tree, which is immutable.  A text
    that fails is never stored, so every failing call raises a fresh
    error.
    """
    return _parse(text, frozenset(allowed_vars))


# bounded like _compiled; lru_cache stores no call that raised
@functools.lru_cache(maxsize=256)
def _parse(text: str, allowed: frozenset[str]) -> Expr:
    clash = allowed & FUNCTIONS.keys()
    if clash:
        raise ValueError(f"variable names shadow functions: {sorted(clash)}")
    for i, ch in enumerate(text):
        if ord(ch) > 127:
            raise ExprSyntaxError(
                f"non-ASCII character {ch!r}", len(text[:i].encode("utf-8"))
            )
    p = _Parser(text, allowed)
    node = p.parse_sum()
    if p.peek() != "":
        p.fail(f"unexpected character {p.text[p.pos]!r}")
    return node


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with strict real-domain semantics."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise UnknownVariableError(expr.name, expr.offset) from None
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env)
    if isinstance(expr, Call):
        x = evaluate(expr.arg, env)
        try:
            v = FUNCTIONS[expr.func](x)
        except ValueError:
            raise _call_error(expr.func, x, expr.offset) from None
        except OverflowError:
            v = math.inf
    elif isinstance(expr, BinOp):
        a, b = evaluate(expr.left, env), evaluate(expr.right, env)
        try:
            v = _ARITHMETIC[expr.op](a, b)
        except ZeroDivisionError:
            raise _zero_division_error(expr.offset) from None
        except ValueError:  # only ^ raises ValueError or OverflowError
            raise _power_error(a, b, expr.offset) from None
        except OverflowError:
            v = _power_overflow(a, b)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if isinstance(v, complex) or math.isnan(v):
        raise _nan_error(expr.offset)
    return v


def to_text(expr: Expr) -> str:
    """Render with full parentheses; parse(to_text(e)) equals e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_text(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_text(expr.left)} {expr.op} {to_text(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.func}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _children(expr: Expr) -> dict[str, Expr]:
    """The operand fields of a node, by name."""
    names = ("operand", "left", "right", "arg")
    return {name: getattr(expr, name) for name in names if hasattr(expr, name)}


def variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    return set().union(*map(variables, _children(expr).values()))


# -- tree passes ------------------------------------------------------------


def _is(node: Expr, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _fold(op: str, a: Expr, b: Expr, at: int) -> Expr:
    """BinOp(op, a, b) with the constants 0 and 1 folded: x*0, 0*x and 0/x
    are 0; x + 0, x - 0, x*1, x/1 and x^1 are x; 0 + x and 1*x are x."""
    if op == "*" and (_is(a, 0.0) or _is(b, 0.0)) or op == "/" and _is(a, 0.0):
        return Num(0.0)
    if op in "+-" and _is(b, 0.0) or op in "*/^" and _is(b, 1.0):
        return a
    if op == "+" and _is(a, 0.0) or op == "*" and _is(a, 1.0):
        return b
    return Neg(b, at) if op == "-" and _is(a, 0.0) else BinOp(op, a, b, at)


def derivative(expr: Expr, name: str) -> Expr:
    """The partial derivative in the variable name, by the sum, product,
    quotient, power and chain rules, with the constants 0 and 1 folded
    (so a factor free of name drops out even where it would not
    evaluate).  A derived node takes the byte offset of the node it comes
    from, so a slope that fails names a byte of the text.

    u^v with v free of name takes the power rule v*u^(v-1)*u'; otherwise
    it is u^v*(v'*log(u) + v*u'/u), which needs u > 0.  The slopes of
    sqrt and abs divide by the value, so they fail where it is 0."""
    if isinstance(expr, Num):
        return Num(0.0)
    if isinstance(expr, Var):
        return Num(1.0 if expr.name == name else 0.0)
    at = expr.offset
    if isinstance(expr, Neg):
        du = derivative(expr.operand, name)
        return du if _is(du, 0.0) else Neg(du, at)
    if isinstance(expr, Call):
        u, du = expr.arg, derivative(expr.arg, name)
        if _is(du, 0.0):
            return du
        outer = {
            "sin": Call("cos", u, at),
            "cos": Neg(Call("sin", u, at), at),
            "tan": BinOp("+", Num(1.0), BinOp("^", expr, Num(2.0), at), at),
            "exp": expr,
            "log": BinOp("/", Num(1.0), u, at),
            "sqrt": BinOp("/", Num(0.5), expr, at),
            "abs": BinOp("/", u, expr, at),
        }[expr.func]
        return _fold("*", outer, du, at)
    a, b = expr.left, expr.right
    da, db = derivative(a, name), derivative(b, name)
    if expr.op in "+-":
        return _fold(expr.op, da, db, at)
    if expr.op == "*":
        return _fold("+", _fold("*", da, b, at), _fold("*", a, db, at), at)
    if expr.op == "/" and _is(db, 0.0):
        return _fold("/", da, b, at)
    if expr.op == "/":
        top = _fold("-", _fold("*", da, b, at), _fold("*", a, db, at), at)
        return _fold("/", top, BinOp("^", b, Num(2.0), at), at)
    if _is(db, 0.0):  # u^v with v free of name
        less = Num(b.value - 1.0) if isinstance(b, Num) else BinOp("-", b, Num(1.0), at)
        return _fold("*", _fold("*", b, _fold("^", a, less, at), at), da, at)
    log_term = _fold("*", db, Call("log", a, at), at)
    ratio_term = _fold("*", b, _fold("/", da, a, at), at)
    return _fold("*", expr, _fold("+", log_term, ratio_term, at), at)


def _renamed(tree: Expr, names: Mapping[str, str]) -> Expr:
    """The tree with its variables renamed; offsets are kept."""
    if isinstance(tree, Var):
        return Var(names.get(tree.name, tree.name), tree.offset)
    renamed = {k: _renamed(child, names) for k, child in _children(tree).items()}
    return replace(tree, **renamed)


def _summands(tree: Expr, negated: bool = False):
    """(negated, term) for each term of the top-level sum."""
    if isinstance(tree, BinOp) and tree.op in "+-":
        yield from _summands(tree.left, negated)
        yield from _summands(tree.right, negated != (tree.op == "-"))
    else:
        yield negated, tree


def _factors(tree: Expr):
    """The factors of a top-level product, a unary minus as -1."""
    if isinstance(tree, BinOp) and tree.op == "*":
        yield from _factors(tree.left)
        yield from _factors(tree.right)
    elif isinstance(tree, Neg):
        yield Num(-1.0, tree.offset)
        yield from _factors(tree.operand)
    else:
        yield tree


def _product(factors: list[Expr]) -> Expr:
    return functools.reduce(lambda x, y: BinOp("*", x, y), factors)


def separated_terms(
    tree: Expr, coordinates: list[tuple[str, str]]
) -> tuple[tuple[Expr | None, tuple[Expr, ...]], ...] | None:
    """A kernel tree as a sum of terms a(t)*b_1(s_1, u_1)*...*b_d(s_d, u_d),
    or None when a factor of a term mixes t with an inner coordinate or
    two inner coordinates.

    coordinates names (s_c, u_c) for each fold c.  Each term is (a, bs):
    a multiplies the factors in t alone or in no variable (None if there
    is none), bs[c] those in s_c and u_c, renamed to (s, u), or is 1.  A
    fold-1 tree free of t is one term, unsplit, which integrates bit for
    bit as the tree itself does."""
    if len(coordinates) == 1 and "t" not in variables(tree):
        products = [[tree]]
    else:
        products = [
            ([Num(-1.0)] if negated else []) + list(_factors(term))
            for negated, term in _summands(tree)
        ]
    terms = []
    for factors in products:
        a_group, b_groups = [], [[] for _ in coordinates]
        for factor in factors:
            names = variables(factor)
            owner = [c for c, pair in enumerate(coordinates) if names <= set(pair)]
            if names <= {"t"}:
                a_group.append(factor)
            elif owner:
                s, u = coordinates[owner[0]]
                b_groups[owner[0]].append(_renamed(factor, {s: "s", u: "u"}))
            else:
                return None
        a = _product(a_group) if a_group else None
        terms.append((a, tuple(_product(group or [Num(1.0)]) for group in b_groups)))
    return tuple(terms)


def as_function(expr: Expr, names: tuple[str, ...], let=None) -> Callable[..., float]:
    """Compile an expression into a function of positional arguments in
    the given order, with the strict semantics of ``evaluate``.

    let, a pair (name, inner) with inner a tree over names, computes
    inner first and binds expr's variable name to its value: one
    function gives expr at inner, with inner computed once."""
    _check_bound(expr, names if let is None else (*names, let[0]))
    if let is not None:
        _check_bound(let[1], names)
    return _compiled(repr((expr, let)), names, False, expr, let)


def as_array_function(
    expr: Expr, names: tuple[str, ...]
) -> Callable[..., np.ndarray]:
    """Compile an expression into a function of array arguments in the
    given order, broadcast together, evaluated with numpy ufuncs.

    Each element of the result is the value ``as_function`` returns for
    that element's arguments: bitwise for + - * /, sin, cos, sqrt and abs,
    and up to numpy's last-ulp differences for exp, log, tan and pow.
    Overflow saturates to a signed infinity.  The result broadcasts
    against the arguments but may be one of them or a scalar, so callers
    copy it.  If the scalar function raises for any element, the call
    raises a DomainError at the byte offset of the first node where some
    element fails; for one element that is where the scalar function
    raises.  The code is generated on the first call, so a form never
    called costs nothing.
    """
    _check_bound(expr, names)
    build = functools.cache(lambda: _compiled(repr(expr), names, True, expr))
    return lambda *args: build()(*args)


class Form:
    """An expression over named arguments, from text or a tree, compiled
    on first use: scalar is its function of floats, array its function of
    arrays, and map runs it over arrays.  Text parses at once; a spec
    passes the field it comes from, which prefixes a parse error."""

    def __init__(self, source: str | Expr, names: tuple[str, ...], field: str = ""):
        if isinstance(source, str):
            try:
                source = parse(source, names)
            except ExprError as exc:
                if field:
                    exc.args = (f"{field}: {exc}",)
                raise
        self.tree = source
        self.names = names
        self.array = as_array_function(source, names)

    @functools.cached_property
    def scalar(self) -> Callable[..., float]:
        return as_function(self.tree, self.names)

    def map(self, *args) -> np.ndarray:
        """The form over the broadcast of its arguments, through the array
        form where it serves (see quadrature.pointwise)."""
        # the scalar form compiles only when pointwise first calls it
        scalar = vars(self).get("scalar") or (lambda *a: self.scalar(*a))
        return pointwise(scalar, *args, array=self.array)


# a tree compiles once per process for each argument order and dialect,
# keyed by its repr, which unlike == tells -0.0 from 0.0 and offsets apart
@functools.lru_cache(maxsize=256)
def _compiled(key: str, names: tuple[str, ...], array: bool, expr: Expr, let=None):
    return _Compiler(names, array).compile(expr, let)


def _check_bound(expr: Expr, names: tuple[str, ...]) -> None:
    extra = variables(expr) - set(names)
    if extra:
        raise ValueError(f"expression uses unbound variables: {sorted(extra)}")


# -- compilation to straight-line Python ------------------------------------
#
# The generated source holds only generated local names (v0, v1, ...),
# argument slots (a0, a1, ...), constant slots (c0, c1, ...), FUNCTIONS
# keys, the helpers below and integer offsets.  Constants come from a
# tuple, never from repr(), which cannot spell inf; no config text
# reaches the source.


def _nan_error(offset: int) -> DomainError:
    return DomainError("evaluation produced NaN", offset)


def _zero_division_error(offset: int) -> DomainError:
    return DomainError("division by zero", offset)


def _call_error(func: str, x: float, offset: int) -> DomainError:
    return DomainError(f"{func}({x!r}) outside real domain", offset)


def _power_error(a: float, b: float, offset: int) -> DomainError:
    return DomainError(f"power {a!r}^{b!r} outside real domain", offset)


def _power_overflow(a: float, b: float) -> float:
    # negative base reaches here only with an integer exponent
    neg = a < 0 and float(b) == int(b) and int(b) % 2 == 1
    return -math.inf if neg else math.inf


_NAMESPACE = {
    "__builtins__": {},
    "float": float,
    "ValueError": ValueError,
    "OverflowError": OverflowError,
    "ZeroDivisionError": ZeroDivisionError,
    "_inf": math.inf,
    "_pow": math.pow,
    "_nan_error": _nan_error,
    "_zero_division_error": _zero_division_error,
    "_call_error": _call_error,
    "_power_error": _power_error,
    "_power_overflow": _power_overflow,
    **FUNCTIONS,
}


# -- the array dialect ------------------------------------------------------
#
# numpy returns nan or inf where math raises.  After each node one mask
# test stops the whole call where some element fails: a NaN in the
# node's value, plus a test for each failure numpy maps to inf, which a
# later node could turn back into a number (1/inf = 0).  Every other
# point where math raises (sqrt or log of a negative, sin, cos or tan of
# inf, a negative base to a fractional power) already yields a NaN there.


def _array_power(a, b):
    v = np.power(a, b)
    # numpy takes sqrt for the exponent 0.5, which maps -0.0 and -inf to
    # -0.0 and nan where math.pow gives 0.0 and inf; the mask is built
    # only when some exponent is 0.5, as a constant one rarely is
    half = np.equal(b, 0.5)
    if half.any():
        fix = half & ((a == 0.0) | (a == -math.inf))
        if fix.any():
            v = np.where(fix, np.power(np.abs(a), b), v)
    return v


def _power_domain(a, b) -> np.ndarray:
    """Elements where math.pow raises and numpy's power gives inf: a zero
    base with a finite negative exponent (math.pow(0.0, -inf) is inf)."""
    zero_base = np.equal(a, 0.0)
    if not zero_base.any():
        return zero_base  # the common case: no base can fail
    return zero_base & (b < 0.0) & np.isfinite(b)


def _array_error(offset: int) -> DomainError:
    return DomainError("some element is not evaluable", offset)


_ARRAY_NAMESPACE = {
    "__builtins__": {},
    "float": float,
    "_asarray": np.asarray,
    "_errstate": np.errstate,
    "_any": functools.partial(np.logical_or.reduce, axis=None),  # np.any, in C
    "_isnan": np.isnan,
    "_power_domain": _power_domain,
    "_array_error": _array_error,
    "_pow": _array_power,
    "_npow": np.power,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.fabs,
}


class _Compiler:
    """Emit one local per operator node in evaluation order, then exec
    once; a number or variable is read from its constant or argument slot,
    a variable bound by let from the local holding the bound value.

    The scalar dialect guards each node with try/except and a NaN test;
    the array dialect runs the same value lines on numpy arrays and
    follows each node with one mask test that fails the whole call."""

    def __init__(self, names: tuple[str, ...], array: bool = False):
        self.args = [f"a{i}" for i in range(len(names))]
        # variable name -> the slot or local holding its value
        self.slots = dict(zip(names, self.args))
        self.array = array
        self.used: set[str] = set()
        self.consts: list[float] = []
        self.lines: list[str] = []
        self.locals = 0

    def compile(self, expr: Expr, let=None) -> Callable[..., float]:
        if let is not None:
            name, inner = let
            self.slots[name] = self.emit(inner)
        result = self.emit(expr)
        code = ["def _build():"]
        if self.consts:
            slots = "".join(f"c{i}, " for i in range(len(self.consts)))
            code.append(f"    {slots}= _consts")
        used = [a for a in self.args if a in self.used]
        code.append(f"    def fn({', '.join(self.args)}):")
        if self.array:
            code += [f"        {a} = _asarray({a}, dtype=float)" for a in used]
            code.append("        with _errstate(all='ignore'):")
            code += [f"            {line}" for line in self.lines or ["pass"]]
            code.append(f"        return {result}")
            namespace = {**_ARRAY_NAMESPACE}
            # numpy scalars, so that a constant-only node divides like an array
            consts = tuple(np.float64(c) for c in self.consts)
        else:
            code += [f"        {a} = float({a})" for a in used]
            code += [f"        {line}" for line in self.lines]
            code.append(f"        return {result}")
            namespace = {**_NAMESPACE}
            consts = tuple(self.consts)
        code.append("    return fn")
        namespace["_consts"] = consts
        exec("\n".join(code), namespace)
        return namespace["_build"]()

    def local(self) -> str:
        self.locals += 1
        return f"v{self.locals - 1}"

    def checked(self, v: str, offset: int, mask: str | None = None) -> None:
        """Fail where v is NaN; in the array dialect also where mask,
        the node's failures that numpy maps to inf, holds."""
        if self.array:
            test = f"_isnan({v})" if mask is None else f"(_isnan({v}) | {mask})"
            self.lines.append(f"if _any({test}): raise _array_error({offset})")
        else:
            self.lines.append(f"if {v} != {v}: raise _nan_error({offset})")

    def emit(self, expr: Expr) -> str:
        """Append the code for one node; return the name holding its value."""
        if isinstance(expr, Num):
            self.consts.append(expr.value)
            return f"c{len(self.consts) - 1}"
        if isinstance(expr, Var):
            slot = self.slots[expr.name]
            self.used.add(slot)
            return slot
        if isinstance(expr, Neg):
            x = self.emit(expr.operand)
            v = self.local()
            self.lines.append(f"{v} = -{x}")
            return v
        if isinstance(expr, Call):
            # func and op reach the source, so only grammar names pass
            if expr.func not in FUNCTIONS:
                raise ValueError(f"unknown function {expr.func!r}")
            x = self.emit(expr.arg)
            v, at = self.local(), int(expr.offset)
            func, mask = expr.func, None
            if self.array:
                self.lines.append(f"{v} = {func}({x})")
                if func == "log":
                    mask = f"({x} == 0.0)"  # math raises, numpy gives -inf
            else:
                self.lines += [
                    f"try: {v} = {func}({x})",
                    "except ValueError:"
                    f" raise _call_error({func!r}, {x}, {at}) from None",
                    f"except OverflowError: {v} = _inf",
                ]
            self.checked(v, at, mask)
            return v
        if isinstance(expr, BinOp):
            a = self.emit(expr.left)
            b = self.emit(expr.right)
            v, at, mask = self.local(), int(expr.offset), None
            if expr.op in ("+", "-", "*"):
                self.lines.append(f"{v} = {a} {expr.op} {b}")
            elif expr.op == "/":
                if self.array:
                    self.lines.append(f"{v} = {a} / {b}")
                    mask = f"({b} == 0.0)"
                else:
                    self.lines += [
                        f"try: {v} = {a} / {b}",
                        "except ZeroDivisionError:"
                        f" raise _zero_division_error({at}) from None",
                    ]
            elif expr.op == "^":
                c = expr.right.value if isinstance(expr.right, Num) else math.nan
                if self.array and 0.0 < c < math.inf:
                    # no zero base fails, and only 0.5 needs _pow's repair
                    power = "_pow" if c == 0.5 else "_npow"
                    self.lines.append(f"{v} = {power}({a}, {b})")
                elif self.array:
                    self.lines.append(f"{v} = _pow({a}, {b})")
                    mask = f"_power_domain({a}, {b})"
                else:
                    self.lines += [
                        f"try: {v} = _pow({a}, {b})",
                        "except ValueError:"
                        f" raise _power_error({a}, {b}, {at}) from None",
                        f"except OverflowError: {v} = _power_overflow({a}, {b})",
                    ]
            else:
                raise ValueError(f"unknown operator {expr.op!r}")
            self.checked(v, at, mask)
            return v
        raise TypeError(f"not an expression node: {expr!r}")
