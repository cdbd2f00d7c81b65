"""System definitions and their local linearizations.

Plants, exosystems and controllers are given by parsed expressions; the
linearization at the origin evaluates their exact symbolic derivatives.
All types are immutable after construction and the operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import Expr

ORIGIN_TOL = 1e-12


class ModelError(Exception):
    pass


def _as_exprs(items):
    return tuple(expr.parse(e) if isinstance(e, str) else e for e in items)


def _check_vars(exprs, allowed, what):
    for e in exprs:
        extra = expr.free_vars(e) - set(allowed)
        if extra:
            raise ModelError(f"{what} uses unknown variables {sorted(extra)}")


def _check_origin(exprs, names, labels):
    """Raise ModelError("<label> != 0") for the first expression that is not
    zero where every variable in names is zero."""
    origin = dict.fromkeys(names, 0.0)
    for e, label in zip(exprs, labels):
        if abs(expr.evaluate(e, origin)) > ORIGIN_TOL:
            raise ModelError(f"{label} != 0")


def _indexed(what, count, at="(0)"):
    """Labels what1<at> .. what<count><at> of a series of expressions."""
    return [f"{what}{i + 1}{at}" for i in range(count)]


def x_names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def w_names(p):
    return tuple(f"w{i + 1}" for i in range(p))


def xi_names(nc):
    return tuple(f"xi{i + 1}" for i in range(nc))


@dataclass(frozen=True)
class PlantModel:
    """Plant dx = f(x, u, w), output y = g(x, u, w), reference q(w), with
    x in R^n for n = len(f) and w in R^p."""

    p: int
    f: tuple[Expr, ...]
    g: Expr
    q: Expr
    h: Expr = field(init=False)  # tracking error g - q

    n = property(lambda self: len(self.f))

    def __post_init__(self):
        allowed = x_names(self.n) + ("u",) + w_names(self.p)
        _check_vars(self.f, allowed, "f")
        _check_vars([self.g], allowed, "g")
        _check_vars([self.q], w_names(self.p), "q")
        object.__setattr__(self, "h", expr.Bin("-", self.g, self.q))
        _check_origin([*self.f, self.g, self.q], allowed,
                      _indexed("f", self.n, "(0,0,0)") + ["g(0,0,0)", "q(0)"])

    @classmethod
    def from_strings(cls, f, g, q, p):
        return cls(p, _as_exprs(f), expr.parse(g), expr.parse(q))


@dataclass(frozen=True)
class ExosystemModel:
    """Exosystem dw = s(w), with w in R^p for p = len(s)."""

    s: tuple[Expr, ...]

    p = property(lambda self: len(self.s))

    def __post_init__(self):
        _check_vars(self.s, w_names(self.p), "s")
        _check_origin(self.s, w_names(self.p), _indexed("s", self.p))

    @classmethod
    def from_strings(cls, s):
        return cls(_as_exprs(s))


@dataclass(frozen=True)
class ControllerModel:
    """Controller dxi = phi(xi) + Bc*e, u = lambda(xi), with xi in R^nc for
    nc = len(phi) and one Bc entry per phi."""

    phi: tuple[Expr, ...]
    lam: Expr
    Bc: tuple[float, ...]

    nc = property(lambda self: len(self.phi))

    def __post_init__(self):
        if len(self.Bc) != len(self.phi):
            raise ModelError("controller dimension mismatch")
        _check_vars(self.phi, xi_names(self.nc), "phi")
        _check_vars([self.lam], xi_names(self.nc), "lambda")
        _check_origin([*self.phi, self.lam], xi_names(self.nc),
                      _indexed("phi", self.nc) + ["lambda(0)"])

    @classmethod
    def from_strings(cls, phi, lam, Bc):
        return cls(_as_exprs(phi), expr.parse(lam), tuple(float(b) for b in Bc))


@dataclass(frozen=True)
class LinearizedData:
    """Matrices of the local linearization at the origin."""

    A: np.ndarray  # n x n
    B: np.ndarray  # n x 1
    P: np.ndarray  # n x p
    C: np.ndarray  # 1 x n
    D: np.ndarray  # 1 x 1
    Q: np.ndarray  # 1 x p
    S: np.ndarray  # p x p

    def __post_init__(self):
        n = self.A.shape[0]
        p = self.S.shape[0]
        shapes = {
            "A": (n, n), "B": (n, 1), "P": (n, p),
            "C": (1, n), "D": (1, 1), "Q": (1, p), "S": (p, p),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ModelError(f"matrix {name} has shape {getattr(self, name).shape}, expected {shape}")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.S.shape[0]


def jacobian(exprs, vars_, point):
    """Exact Jacobian of a vector expression map at point (the values of
    vars_): each entry d exprs[i] / d vars_[j] is differentiated once by
    expr.diff and evaluated.  An entry whose variable exprs[i] does not
    contain is 0.0, the value of the Num(0) that diff folds it to."""
    env = dict(zip(vars_, map(float, point)))
    J = np.zeros((len(exprs), len(vars_)))
    for i, e in enumerate(exprs):
        names = expr.free_vars(e)
        for j, name in enumerate(vars_):
            if name not in names:
                continue
            try:
                J[i, j] = expr.evaluate(expr.diff(e, name), env)
            except expr.EvalError as exc:
                raise ModelError(f"jacobian entry ({i},{j}): {exc}") from exc
    return J


def linearize(plant: PlantModel, exo: ExosystemModel) -> LinearizedData:
    """All seven linearization matrices, evaluated at the origin."""
    if plant.p != exo.p:
        raise ModelError("plant and exosystem disagree on the exosystem dimension")
    xv, wv = x_names(plant.n), w_names(plant.p)
    all_vars = xv + ("u",) + wv
    origin = np.zeros(len(all_vars))
    Jf = jacobian(plant.f, all_vars, origin)
    Jh = jacobian([plant.h], all_vars, origin)
    Js = jacobian(exo.s, wv, np.zeros(exo.p))
    n = plant.n
    return LinearizedData(
        A=Jf[:, :n],
        B=Jf[:, n:n + 1],
        P=Jf[:, n + 1:],
        C=Jh[:, :n],
        D=Jh[:, n:n + 1],
        Q=Jh[:, n + 1:],
        S=Js,
    )


def controller_jacobians(ctrl: ControllerModel):
    """Linearization (Phi, Lambda) of a controller at the origin."""
    xv = xi_names(ctrl.nc)
    origin = np.zeros(ctrl.nc)
    Phi = jacobian(ctrl.phi, xv, origin)
    Lam = jacobian([ctrl.lam], xv, origin)
    return Phi, Lam
