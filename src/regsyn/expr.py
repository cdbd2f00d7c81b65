"""Scalar math expressions: parsing, printing, evaluation and compilation.

Expressions define plants, exosystems, controllers and regulator solutions
from plain text.  Grammar (highest precedence first):

    ^ (right-assoc)  >  unary -  >  * /  >  + -

so ``-x^2`` is ``-(x^2)`` and ``2^3^2`` is ``2^(3^2)``.  Supported functions
are sin, cos, tan, exp, sqrt and abs; ``pi`` is a built-in constant.  All
AST nodes are immutable, so parsed expressions can be shared freely.
gradient() differentiates an AST symbolically; its results may call the
internal functions sign and log, which evaluate() and compile_fn() accept
but the parser does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ExprError(Exception):
    """Base class for expression errors."""


class SyntaxError_(ExprError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Unbound variable or a domain error during evaluation."""


class CompileError(ExprError):
    """Generated source that CPython refuses to compile."""


FUNCTIONS = ("sin", "cos", "tan", "exp", "sqrt", "abs")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Const | Bin | Neg | Call


# ---------------------------------------------------------------- tokenizer

def _tokenize(text):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise SyntaxError_(f"bad number literal '{lit}'", i)
            tokens.append(("num", value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
        else:
            raise SyntaxError_(f"unexpected character '{c}'", i)
    tokens.append(("end", None, n))
    return tokens


# ------------------------------------------------------------------ parser

class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise SyntaxError_(f"expected '{kind}', got '{tok[1]}'", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SyntaxError_(f"trailing input '{tok[1]}'", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = Bin(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = Bin(op, e, self.factor())
        return e

    def factor(self):
        # unary minus binds looser than ^, tighter than * /
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor())
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.take()
            return Num(value)
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "ident":
            self.take()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise SyntaxError_(f"unknown function '{value}'", offset)
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Call(value, arg)
            if value == "pi":
                return Const("pi")
            return Var(value)
        raise SyntaxError_(f"unexpected token '{value}'", offset)


def parse(text):
    """Parse expression text into an AST."""
    if not text or not text.strip():
        raise SyntaxError_("empty expression", 0)
    return _Parser(text).parse()


# ----------------------------------------------------------------- printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print(e, parent_prec, right_side):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, 0, False)})"
    if isinstance(e, Neg):
        s = "-" + _print(e.arg, _PREC["neg"], True)
        # parenthesize when a parent binds tighter, or when we appear as the
        # right operand of a left-assoc operator of the same precedence
        if parent_prec > _PREC["neg"] or (parent_prec == _PREC["neg"] and right_side):
            return f"({s})"
        return s
    prec = _PREC[e.op]
    if e.op == "^":
        # right-assoc: left child needs parens at equal precedence
        ls = _print(e.left, prec + 1, False)
        rs = _print(e.right, prec, True)
    else:
        ls = _print(e.left, prec, False)
        rs = _print(e.right, prec + 1, True)
    s = f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"
    if parent_prec > prec or (parent_prec == prec and right_side):
        return f"({s})"
    return s


def to_string(e):
    """Pretty-print an AST; parse(to_string(e)) is structurally equal to e."""
    return _print(e, 0, False)


# --------------------------------------------------------------- evaluator

def _pow(a, b):
    if a < 0 and not float(b).is_integer():
        raise EvalError(f"fractional power of negative base ({a})^({b})")
    try:
        return a ** b
    except ZeroDivisionError:
        raise EvalError("division by zero") from None
    except OverflowError as exc:
        raise EvalError(str(exc)) from exc


def _sqrt(a):
    if a < 0:
        raise EvalError(f"sqrt of negative value {a}")
    return math.sqrt(a)


def _div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return a / b


_FUNC_IMPL = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "sqrt": _sqrt,
    "abs": abs,
    # internal: only gradient() produces calls to these
    "sign": lambda a: float((a > 0) - (a < 0)),
    "log": math.log,
}


def evaluate(e, env):
    """Evaluate e with variables bound by env (name -> float)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Const):
        return math.pi
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Call):
        try:
            return _FUNC_IMPL[e.func](evaluate(e.arg, env))
        except (ValueError, OverflowError) as exc:
            raise EvalError(str(exc)) from exc
    a = evaluate(e.left, env)
    b = evaluate(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return _div(a, b)
    return _pow(a, b)


def free_vars(e):
    """Set of variable names appearing in e."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, (Neg, Call)):
        return free_vars(e.arg)
    return set()


def substitute(e, mapping):
    """e with every variable named in mapping replaced by mapping[name]."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    return e


# ----------------------------------------------------------- derivative

_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _is(a, value):  # a == Num(value), Num(-0.0) counting as 0, without __eq__
    return type(a) is Num and a.value == value


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else Bin("+", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Bin("*", a, b)


def _neg(a):
    return _ZERO if _is(a, 0.0) else Neg(a)


def _quot(a, b):
    return _ZERO if _is(a, 0.0) else Bin("/", a, b)


_DERIVATIVES = {  # f -> f'(u)
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: Bin("+", _ONE, Bin("^", Call("tan", u), _TWO)),
    "exp": lambda u: Call("exp", u),
    "sqrt": lambda u: Bin("/", _ONE, Bin("*", _TWO, Call("sqrt", u))),
    "abs": lambda u: Call("sign", u),  # sign(0) = 0
}


def _chain(e, da, db):
    """Derivative of the Bin e from the derivatives da, db of its operands."""
    a, b = e.left, e.right
    if e.op in "+-":
        return _add(da, db if e.op == "+" else _neg(db))
    if e.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if e.op == "/":
        if _is(db, 0.0):
            return _quot(da, b)
        return _quot(_add(_mul(da, b), _neg(_mul(a, db))), Bin("^", b, _TWO))
    if _is(db, 0.0):
        b1 = Num(b.value - 1.0) if isinstance(b, Num) else Bin("-", b, _ONE)
        return _mul(_mul(b, Bin("^", a, b1)), da)
    return _mul(e, _add(_mul(db, Call("log", a)), _quot(_mul(b, da), a)))


def gradient(e, names):
    """{name: symbolic derivative of e} for every name in names that e
    contains, in one walk of e.  Zero terms and unit factors fold away, so a
    subtree free of a name differentiates to Num(0) and a denominator
    constant in it stays one division.  Powers use the power rule when the
    exponent is free of the name, a^b * (b' log(a) + b a'/a) otherwise.
    Nothing differentiates twice: a call to sign or log raises KeyError."""
    if isinstance(e, Var):
        return {e.name: _ONE} if e.name in names else {}
    if isinstance(e, (Num, Const)):
        return {}
    if isinstance(e, Neg):
        return {v: _neg(d) for v, d in gradient(e.arg, names).items()}
    if isinstance(e, Call):
        du = _DERIVATIVES[e.func](e.arg)
        return {v: _mul(du, d) for v, d in gradient(e.arg, names).items()}
    ga, gb = gradient(e.left, names), gradient(e.right, names)
    return {v: _chain(e, ga.get(v, _ZERO), gb.get(v, _ZERO)) for v in {**ga, **gb}}


def diff(e, var):
    """gradient(e, (var,))[var], or Num(0) if e does not contain var."""
    return gradient(e, (var,)).get(var, _ZERO)


# ---------------------------------------------------------------- compiler

_NON_FINITE = {"nan": "_nan", "inf": "_inf", "-inf": "(-_inf)"}  # repr -> source


def _literal(v):
    """Python source for the float v.  Negative values are parenthesized so
    that they can stand as the base of **; non-finite values are names
    bound in the namespace of every generated function."""
    text = repr(float(v))
    text = _NON_FINITE.get(text, text)
    return f"({text})" if text[0] == "-" else text


def _codegen(e, argmap, binds=0):
    """Python source for e, with variables renamed through argmap, in
    parentheses only where Python would group it otherwise: where it binds
    less tightly than binds, what its place in the parent's source needs
    (+ - bind 1, * / 2, unary minus 3, ** 4, names, literals and calls 5).

    Division and powers with an integer-valued literal exponent are inline
    operators; the function that runs the source must translate their
    exceptions as _define does.  Other powers go through _pow, which
    rejects fractional powers of negative bases."""
    kind = type(e)  # not isinstance: this runs per node per simulate job
    if kind is Var:
        try:
            return argmap[e.name]
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if kind is Num:
        return _literal(e.value)
    if kind is Const:
        return "_pi"
    if kind is Call:
        return f"_f_{e.func}({_codegen(e.arg, argmap)})"
    if kind is Neg:
        own, src = 3, "-" + _codegen(e.arg, argmap, 3)
    elif e.op != "^":
        own = 1 if e.op in "+-" else 2  # left-associative: a right operand binds tighter
        src = f"{_codegen(e.left, argmap, own)} {e.op} {_codegen(e.right, argmap, own + 1)}"
    elif type(e.right) is Num and float(e.right.value).is_integer():
        own, src = 4, f"{_codegen(e.left, argmap, 5)} ** {_literal(e.right.value)}"
    else:
        return f"_pow({_codegen(e.left, argmap)}, {_codegen(e.right, argmap)})"
    return f"({src})" if own < binds else src


_NAMESPACE = {"_pi": math.pi, "_inf": math.inf, "_nan": math.nan,
              "_pow": _pow, "_EvalError": EvalError,
              **{f"_f_{name}": impl for name, impl in _FUNC_IMPL.items()}}


def _define(name, params, body, what, **names):
    """exec `def name(*params)` around the source lines of body, with the
    given names bound in its namespace next to the helpers of _codegen.

    The body runs inside one try block that turns the exceptions of inline
    arithmetic and of the math functions into the EvalError messages of
    evaluate(): ZeroDivisionError becomes "division by zero", ValueError
    and OverflowError keep their text.  Source that CPython refuses (more
    than 200 nested parentheses, or nesting too deep for its compiler) is
    a CompileError naming what, the thing being compiled."""
    lines = "\n".join("        " + line for line in body)
    src = (f"def {name}({', '.join(params)}):\n"
           f"    try:\n{lines}\n"
           f"    except ZeroDivisionError:\n"
           f"        raise _EvalError('division by zero') from None\n"
           f"    except (ValueError, OverflowError) as exc:\n"
           f"        raise _EvalError(str(exc)) from exc\n")
    ns = {**_NAMESPACE, **names}
    try:
        exec(src, ns)
    except SyntaxError as exc:
        raise CompileError(f"cannot compile {what}: {exc.msg}") from None
    except RecursionError:
        raise CompileError(f"cannot compile {what}: nesting too deep") from None
    return ns[name]


def compile_fn(exprs, var_order, what="expressions"):
    """Compile expressions into a fast positional function.

    Returns f(v0, v1, ...) with arguments in var_order.  A single expression
    compiles to a scalar-valued function, a list to a tuple-valued one.
    Values and EvalError messages match evaluate() exactly: the generated
    code does the same float operations in the same order.  what names the
    expressions in a CompileError (source too deep, or refused by CPython).
    """
    single = not isinstance(exprs, (list, tuple))
    items = [exprs] if single else list(exprs)
    argmap = {name: f"_a{i}" for i, name in enumerate(var_order)}
    try:
        bodies = [_codegen(e, argmap) for e in items]
    except RecursionError:
        raise CompileError(f"cannot compile {what}: nesting too deep") from None
    body = bodies[0] if single else "(" + ", ".join(bodies) + ("," if len(bodies) == 1 else "") + ")"
    return _define("_compiled", [argmap[name] for name in var_order], [f"return {body}"],
                   what)
