import math

import numpy as np
import pytest

from regsyn import expr
from regsyn.expr import (Bin, Call, Const, EvalError, Neg, Num, SyntaxError_,
                         Var, compile_fn, evaluate, free_vars, parse, to_string)


def test_precedence_values():
    env = {}
    assert evaluate(parse("2+3*4"), env) == 14
    assert evaluate(parse("2^3^2"), env) == 512  # right-associative
    assert evaluate(parse("-2^2"), env) == -4    # ^ binds tighter than unary -
    assert evaluate(parse("(-2)^2"), env) == 4
    assert evaluate(parse("6/3/2"), env) == 1    # left-associative
    assert evaluate(parse("2*3^2"), env) == 18
    assert evaluate(parse("2 - 3 - 4"), env) == -5
    assert evaluate(parse("--3"), env) == 3


def test_parse_structures():
    assert parse("-(x1)*sin(x2)") == Bin("*", Neg(Var("x1")), Call("sin", Var("x2")))
    assert parse("-w1^3") == Neg(Bin("^", Var("w1"), Num(3.0)))
    assert parse("pi") == Const("pi")
    assert parse("1e-3") == Num(1e-3)
    assert parse("x1*(w1+u)") == Bin("*", Var("x1"), Bin("+", Var("w1"), Var("u")))


def test_constants_and_functions():
    assert evaluate(parse("cos(pi)"), {}) == pytest.approx(-1.0)
    assert evaluate(parse("sqrt(abs(-9))"), {}) == pytest.approx(3.0)
    assert evaluate(parse("exp(0) + tan(0)"), {}) == pytest.approx(1.0)


def test_syntax_errors_carry_offsets():
    with pytest.raises(SyntaxError_):
        parse("2+")
    with pytest.raises(SyntaxError_):
        parse("")
    with pytest.raises(SyntaxError_):
        parse("foo(2)")
    with pytest.raises(SyntaxError_):
        parse("(1+2")
    with pytest.raises(SyntaxError_):
        parse("1 2")
    err = None
    try:
        parse("1+$")
    except SyntaxError_ as e:
        err = e
    assert err is not None and err.offset == 2


def test_eval_errors():
    with pytest.raises(EvalError):
        evaluate(parse("x1"), {})
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(0-1)"), {})
    with pytest.raises(EvalError):
        evaluate(parse("1/0"), {})
    with pytest.raises(EvalError):
        evaluate(parse("(0-2)^0.5"), {})


@pytest.mark.parametrize("text, message", [
    ("1/(x1 - 1)", "division by zero"),
    ("0^(x1 - 2)", "division by zero"),
    ("sqrt(0 - x1)", "sqrt of negative value -1.0"),
    ("(x1 + 9)^400", "Numerical result out of range"),
    ("exp(1000*x1)", "math range error"),
    ("(0 - x1)^0.5", "fractional power of negative base (-1.0)^(0.5)"),
    ("(0 - 2)^1e999", "fractional power of negative base (-2.0)^(inf)"),
])
def test_compiled_errors_match_evaluate(text, message):
    e = parse(text)
    with pytest.raises(EvalError) as direct:
        evaluate(e, {"x1": 1.0})
    with pytest.raises(EvalError) as compiled:
        compile_fn(e, ("x1",))(1.0)
    assert str(direct.value) == str(compiled.value)
    assert message in str(direct.value)


def test_non_finite_literals_compile():
    for text in ("1e999", "0 - 1e999", "2^1e999", "0.5^1e999", "1e999 - 1e999"):
        e = parse(text)
        want = evaluate(e, {})
        got = compile_fn(e, ())()
        assert got == want or (math.isnan(got) and math.isnan(want)), text
    assert compile_fn(parse("x1 - 1e999"), ("x1",))(0.0) == -math.inf


def test_refused_source_is_an_expr_error():
    # CPython's parser refuses more than 200 nested parentheses and its
    # compiler a flat sum of 3000 terms; both name what was being compiled.
    # x1 - (x1 - (... - x1)), built without the parser, needs 210 of them
    deep = Var("x1")
    for _ in range(210):
        deep = Bin("-", Var("x1"), deep)
    with pytest.raises(expr.CompileError,
                       match=r"^cannot compile the chain: too many nested parentheses$"):
        compile_fn(deep, ("x1",), "the chain")
    with pytest.raises(expr.CompileError, match=r"^cannot compile a flat sum: nesting too deep$"):
        expr._define("f", ["a"], ["return a" + " + 1.0" * 3000], "a flat sum")
    assert issubclass(expr.CompileError, expr.ExprError)


@pytest.mark.parametrize("text, source", [
    ("(x1 - x2) - x1", "a - b - a"),
    ("x1 - (x2 - x1)", "a - (b - a)"),
    ("x1 + x2*x1", "a + b * a"),
    ("(x1 + x2)*x1", "(a + b) * a"),
    ("x1/(x2*x1)", "a / (b * a)"),
    ("-x1*x2", "-a * b"),
    ("-(x1*x2)", "-(a * b)"),
    ("x1 * -2", "a * -2.0"),
    ("--x1", "--a"),
    ("-x1^2", "-a ** 2.0"),
    ("(-x1)^2", "(-a) ** 2.0"),
    ("(x1^2)^3", "(a ** 2.0) ** 3.0"),
    ("x1^-2", "_pow(a, -2.0)"),
    ("(x1 + 1)^x2", "_pow(a + 1.0, b)"),
    ("sin(x1 - x2) - 1e999", "_f_sin(a - b) - _inf"),
])
def test_source_has_only_the_parentheses_python_needs(text, source):
    assert expr._codegen(parse(text), {"x1": "a", "x2": "b"}) == source


def test_flat_sum_source_is_flat():
    # a left-nested chain needs no parentheses: 250 terms compile
    flat = parse("x1" + " + 0*x1" * 250)
    assert "(" not in expr._codegen(flat, {"x1": "a"})
    assert compile_fn(flat, ("x1",))(2.0) == 2.0


def test_free_vars():
    assert free_vars(parse("x1 + sin(w2)*u - pi")) == {"x1", "w2", "u"}
    assert free_vars(parse("1 + 2")) == set()


_VARS = ("x1", "x2", "w1")


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            # nonnegative literals only: "-3.9" parses as Neg(Num(3.9)), so a
            # negative Num would not round-trip structurally
            return Num(float(np.round(rng.uniform(0, 4), 3)))
        if kind == 1:
            return Var(_VARS[rng.integers(0, len(_VARS))])
        return Const("pi")
    kind = rng.integers(0, 3)
    if kind == 0:
        op = "+-*/^"[rng.integers(0, 5)]
        if op == "^":
            # keep powers tame and domain-safe
            return Bin("^", Call("abs", _random_ast(rng, depth - 1)),
                       Num(float(rng.integers(0, 4))))
        return Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Neg(_random_ast(rng, depth - 1))
    func = ("sin", "cos", "tan", "exp", "abs")[rng.integers(0, 5)]
    return Call(func, _random_ast(rng, depth - 1))


def test_round_trip_random_asts():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        e = _random_ast(rng, int(rng.integers(1, 7)))
        text = to_string(e)
        assert parse(text) == e, text


def test_print_eval_equivalence_random():
    rng = np.random.default_rng(7)
    fn_cache = {}
    for _ in range(300):
        e = _random_ast(rng, int(rng.integers(1, 6)))
        reparsed = parse(to_string(e))
        fn = compile_fn(e, _VARS)
        for _ in range(10):
            env = {v: float(np.round(rng.uniform(-2, 2), 3)) for v in _VARS}
            try:
                ref = evaluate(e, env)
            except EvalError:
                with pytest.raises(EvalError):
                    evaluate(reparsed, env)
                continue
            assert evaluate(reparsed, env) == ref
            assert fn(*(env[v] for v in _VARS)) == ref


def test_compile_fn_vector():
    exprs = [parse("x1 + x2"), parse("x1 * w1")]
    f = compile_fn(exprs, _VARS)
    assert f(1.0, 2.0, 3.0) == (3.0, 3.0)
    g = compile_fn(parse("x1 - w1"), _VARS)
    assert g(5.0, 0.0, 2.0) == 3.0
