"""expr.diff against sympy.diff as an oracle, plus its folding rules;
expr.gradient and expr._codegen against the per-variable derivative and
the fully parenthesized source they replace."""

import marshal
import math

import numpy as np
import pytest

from regsyn import examples, expr, sim
from regsyn.expr import (Bin, Call, Const, EvalError, Neg, Num, SyntaxError_, Var,
                         compile_fn, diff, evaluate, gradient, parse, substitute)
from regsyn.model import ModelError, jacobian, w_names, x_names, xi_names

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_VARS = ("x1", "x2")
_SYMBOLS = {name: sympy.Symbol(name, real=True) for name in _VARS}
_SYMPY_FUNCS = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp,
                "sqrt": sympy.sqrt, "abs": sympy.Abs, "sign": sympy.sign, "log": sympy.log}


def _to_sympy(e):
    if isinstance(e, Num):
        return sympy.Rational(e.value)  # the float's exact binary value
    if isinstance(e, Var):
        return _SYMBOLS[e.name]
    if isinstance(e, Const):
        return sympy.Rational(math.pi)  # the double the program evaluates
    if isinstance(e, Neg):
        return -_to_sympy(e.arg)
    if isinstance(e, Call):
        return _SYMPY_FUNCS[e.func](_to_sympy(e.arg))
    a, b = _to_sympy(e.left), _to_sympy(e.right)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    return a / b if e.op == "/" else a ** b


def _extend(children):
    return st.one_of(
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(expr.FUNCTIONS), children))


_ASTS = st.recursive(
    st.one_of(st.integers(0, 8).map(lambda k: Num(k / 2)),  # includes 0, 0.5, 1
              st.sampled_from(_VARS).map(Var),
              st.just(Const("pi"))),
    _extend, max_leaves=8)
_POINTS = st.tuples(*(st.floats(-2.0, 2.0) for _ in _VARS))


def _high_precision(sym, env):
    value = sym.evalf(30, subs={_SYMBOLS[k]: sympy.Rational(v) for k, v in env.items()})
    if not (value.is_number and value.is_real and value.is_finite):
        return None
    return value


@hypothesis.settings(max_examples=300, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(_ASTS, st.sampled_from(_VARS), _POINTS)
# sin of the double pi is 1.2e-16, not 0, so the term is 0 rather than 0/0
@hypothesis.example(parse("x2 + 0.0/sin(pi)"), "x2", (0.5, 0.25))
def test_diff_matches_sympy(e, var, point):
    env = dict(zip(_VARS, point))
    d = diff(e, var)
    try:
        ours = evaluate(d, env)
    except EvalError:
        with pytest.raises(EvalError):  # the compiled derivative fails alike
            compile_fn(d, _VARS)(*point)
        return  # outside the domain of the derivative
    compiled = compile_fn(d, _VARS)(*point)
    assert compiled == ours or (math.isnan(compiled) and math.isnan(ours))
    try:
        evaluate(e, env)
    except EvalError:
        return  # outside the domain of e
    ref = _high_precision(sympy.diff(_to_sympy(e), _SYMBOLS[var]), env)
    exact = _high_precision(_to_sympy(d), env)
    if ref is None or exact is None:
        return  # sympy leaves it undefined, complex or unevaluated
    assert abs(exact - ref) <= 1e-12 * (1 + abs(ref)), (expr.to_string(e), var, point)


def test_internal_functions_are_not_parsed():
    for text in ("sign(x1)", "log(x1)"):
        with pytest.raises(SyntaxError_):
            parse(text)


@pytest.mark.parametrize("text, var, expected", [
    ("x2*sin(x2) + 3", "x1", Num(0.0)),     # a subtree free of var
    ("x1 + x2", "x1", Num(1.0)),
    ("2*x1", "x1", Num(2.0)),               # unit factors and zero terms fold
    ("x1*3 - x2", "x1", Num(3.0)),
    ("-x1", "x1", Neg(Num(1.0))),
    ("x1/3", "x1", Bin("/", Num(1.0), Num(3.0))),  # constant denominator
    ("x1^3", "x1", Bin("*", Num(3.0), Bin("^", Var("x1"), Num(2.0)))),
    ("2^x1", "x1", Bin("*", parse("2^x1"), Call("log", Num(2.0)))),
])
def test_diff_folds_constants(text, var, expected):
    assert diff(parse(text), var) == expected


def test_abs_derivative_vanishes_at_zero():
    d = diff(parse("abs(x1)"), "x1")
    assert evaluate(d, {"x1": 0.0}) == 0.0
    assert evaluate(d, {"x1": -0.5}) == -1.0
    assert compile_fn(d, ("x1",))(2.0) == 1.0


def test_substitute_renames_whole_variables():
    e = parse("w1 + w10*w1^2")
    renamed = substitute(e, {"w1": Var("xi1"), "w10": Var("xi10")})
    assert renamed == parse("xi1 + xi10*xi1^2")
    assert substitute(e, {"w1": parse("x1 + 1")}) == parse("(x1 + 1) + w10*(x1 + 1)^2")


# ------------------------------------------------------------- jacobian

def _per_pair_jacobian(exprs, vars_, point):
    """model.jacobian differentiating every pair, absent variables too."""
    env = dict(zip(vars_, map(float, point)))
    J = np.empty((len(exprs), len(vars_)))
    for i, e in enumerate(exprs):
        for j, name in enumerate(vars_):
            where = f"'{expr.to_string(e)}': derivative in {name}"
            try:
                J[i, j] = evaluate(diff(e, name), env)
            except EvalError as exc:
                raise ModelError(f"{where}: {exc}") from exc
            if not math.isfinite(J[i, j]):
                raise ModelError(f"{where} is {J[i, j]}")
    return J


def _same_jacobian(exprs, vars_, point):
    """jacobian equals the per-pair one bit for bit (the sign of zero
    included) or fails with the same message."""
    try:
        want = _per_pair_jacobian(exprs, vars_, point)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            jacobian(exprs, vars_, point)
        assert str(got.value) == str(exc)
        return
    got = jacobian(exprs, vars_, point)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["example51", "example52", "example53"])
def test_jacobian_skips_absent_variables_exactly(name):
    sf = examples.get(name).load()
    xv, wv = x_names(sf.plant.n), w_names(sf.exo.p)
    maps = [([*sf.plant.f, sf.plant.h], xv + ("u",) + wv), (sf.exo.s, wv)]
    for ctrl in (sf.controller, sf.immersion and sf.immersion.target):
        if ctrl is not None:
            maps.append(([*ctrl.phi, ctrl.lam], xi_names(ctrl.nc)))
    rng = np.random.default_rng(7)
    for exprs, vars_ in maps:
        assert any(not expr.free_vars(e) >= set(vars_) for e in exprs)
        for point in (np.zeros(len(vars_)), rng.uniform(-0.5, 0.5, len(vars_))):
            _same_jacobian(exprs, vars_, point)


@hypothesis.settings(max_examples=200, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(st.lists(_ASTS, min_size=1, max_size=3), _POINTS)
def test_jacobian_matches_per_pair_diff(exprs, point):
    # "u" appears in no expression: its column is all +0.0
    _same_jacobian(exprs, _VARS + ("u",), point + (0.5,))


# ------------------------------------------------- reference implementations

_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else Bin("+", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Bin("*", a, b)


def _neg(a):
    return _ZERO if a == _ZERO else Neg(a)


def _quot(a, b):
    return _ZERO if a == _ZERO else Bin("/", a, b)


def _reference_diff(e, var):
    """The derivative in var alone, one walk per variable, folding through
    the dataclasses' == (so Num(-0.0) == Num(0.0))."""
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, Neg):
        return _neg(_reference_diff(e.arg, var))
    if isinstance(e, Call):
        return _mul(expr._DERIVATIVES[e.func](e.arg), _reference_diff(e.arg, var))
    a, b = e.left, e.right
    da, db = _reference_diff(a, var), _reference_diff(b, var)
    if e.op in "+-":
        return _add(da, db if e.op == "+" else _neg(db))
    if e.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if e.op == "/":
        if db == _ZERO:
            return _quot(da, b)
        return _quot(_add(_mul(da, b), _neg(_mul(a, db))), Bin("^", b, _TWO))
    if db == _ZERO:
        b1 = Num(b.value - 1.0) if isinstance(b, Num) else Bin("-", b, _ONE)
        return _mul(_mul(b, Bin("^", a, b1)), da)
    return _mul(e, _add(_mul(db, Call("log", a)), _quot(_mul(b, da), a)))


def _reference_codegen(e, argmap):
    """Python source for e with every operation in parentheses."""
    if isinstance(e, Num):
        return expr._literal(e.value)
    if isinstance(e, Var):
        return argmap[e.name]
    if isinstance(e, Const):
        return "_pi"
    if isinstance(e, Neg):
        return f"(-{_reference_codegen(e.arg, argmap)})"
    if isinstance(e, Call):
        return f"_f_{e.func}({_reference_codegen(e.arg, argmap)})"
    a = _reference_codegen(e.left, argmap)
    b = _reference_codegen(e.right, argmap)
    if e.op == "^":
        if isinstance(e.right, Num) and float(e.right.value).is_integer():
            return f"({a} ** {b})"
        return f"_pow({a}, {b})"
    return f"({a} {e.op} {b})"


def _same_code(got, want):
    """Two code objects run the same instructions on the same names and
    constants; marshal keeps the sign of zero, which == does not.  The
    line tables differ with the text."""
    assert got.co_code == want.co_code
    assert got.co_names == want.co_names
    assert marshal.dumps(got.co_consts) == marshal.dumps(want.co_consts)


def _same_gradient(e, names):
    got = gradient(e, names)
    assert set(got) == expr.free_vars(e) & set(names)
    for name in names:
        want = repr(_reference_diff(e, name))   # repr keeps -0.0 apart from 0.0
        assert repr(diff(e, name)) == want
        if name in got:
            assert repr(got[name]) == want


def _same_source(e):
    argmap = {name: f"_a{i}" for i, name in enumerate(sorted(expr.free_vars(e)))}
    _same_code(compile(expr._codegen(e, argmap), "<got>", "eval"),
               compile(_reference_codegen(e, argmap), "<want>", "eval"))


# the sign of a zero literal, constant exponents 1 and 0, and negative
# literals under unary minus, as left operand of ** and as right operand
_SIGNED = [Bin("*", Num(-0.0), Var("x1")), Bin("+", Num(-0.0), Neg(Var("x2"))),
           Bin("^", Var("x1"), Num(1.0)), Bin("^", Neg(Var("x1")), Num(-0.0)),
           Neg(Num(-2.0)), Bin("^", Num(-2.0), Num(2.0)), Bin("-", Var("x1"), Num(-1.5)),
           Bin("^", Bin("^", Var("x1"), Num(2.0)), Num(3.0)), Neg(Neg(Var("x2")))]


@hypothesis.settings(max_examples=300, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(_ASTS)
def test_gradient_and_source_match_the_references(e):
    for example in (e, *_SIGNED):
        _same_gradient(example, _VARS + ("u",))
        for tree in (example, *gradient(example, _VARS).values()):
            _same_source(tree)


def _builtin_maps(sf):
    """(expressions, variables) of every map a built-in system holds."""
    xv, wv = x_names(sf.plant.n), w_names(sf.exo.p)
    maps = [([*sf.plant.f, sf.plant.h], xv + ("u",) + wv), (sf.exo.s, wv)]
    if sf.controller is not None:
        maps.append(([*sf.controller.phi, sf.controller.lam], xi_names(sf.controller.nc)))
    if sf.immersion is not None:
        im = sf.immersion
        maps += [(im.tau, wv), ([*im.phi, im.lam], xi_names(len(im.tau)))]
    if sf.regulator_solution is not None:
        sol = sf.regulator_solution
        maps.append(([*sol.pi, sol.gamma], wv))
    return maps


@pytest.mark.parametrize("name", ["example51", "example52", "example53"])
def test_builtin_gradients_and_sources_match_the_references(name):
    for exprs, vars_ in _builtin_maps(examples.get(name).load()):
        for e in exprs:
            _same_gradient(e, vars_)
            for tree in (e, *gradient(e, vars_).values()):
                _same_source(tree)


@pytest.mark.parametrize("name", ["example51", "example53"])
@pytest.mark.parametrize("checked", [False, True])
def test_rk4_kernel_matches_the_parenthesized_kernel(monkeypatch, name, checked):
    # the kernel's own templates (phi + Bc * e, say) wrap generated source
    sf = examples.get(name).load()
    compiled = sim._compiled_kernel.__wrapped__
    monkeypatch.setattr(sim, "_compiled_kernel", lambda dim, body: compiled(dim, body))
    got = sim._rk4_kernel(sf.plant, sf.exo, sf.controller, checked)
    monkeypatch.setattr(sim, "_codegen", _reference_codegen)
    want = sim._rk4_kernel(sf.plant, sf.exo, sf.controller, checked)
    _same_code(got.__code__, want.__code__)
