"""System definitions and their local linearizations.

Plants, exosystems and controllers are given by parsed expressions.  Each
model checks at construction that its maps vanish at the origin and takes
their exact Jacobian there, from the symbolic derivatives, so a model that
has no finite linearization cannot be built; linearize only slices the
stored Jacobians.  All types are immutable after construction and the
operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from .expr import Expr

ORIGIN_TOL = 1e-12


class ModelError(Exception):
    """A model that cannot be built or linearized."""


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


def _store_jacobian(model, name, exprs, vars_, labels):
    """Set model.<name> to the read-only Jacobian of exprs at the origin of
    vars_ (ModelError naming labels[i] if an entry fails)."""
    J = jacobian(exprs, vars_, np.zeros(len(vars_)), labels)
    J.flags.writeable = False
    object.__setattr__(model, name, J)


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
    # Jacobian at the origin of (f, h) in (x, u, w): (n + 1) x (n + 1 + p)
    J: np.ndarray = field(init=False, compare=False, repr=False)

    n = property(lambda self: len(self.f))

    def __post_init__(self):
        allowed = x_names(self.n) + ("u",) + w_names(self.p)
        _check_vars(self.f, allowed, "f")
        _check_vars([self.g], allowed, "g")
        _check_vars([self.q], w_names(self.p), "q")
        object.__setattr__(self, "h", expr.Bin("-", self.g, self.q))
        _check_origin([*self.f, self.g, self.q], allowed,
                      _indexed("f", self.n, "(0,0,0)") + ["g(0,0,0)", "q(0)"])
        _store_jacobian(self, "J", [*self.f, self.h], allowed,
                        _indexed("f", self.n, "") + ["g - q"])

    @classmethod
    def from_strings(cls, f, g, q, p):
        return cls(p, _as_exprs(f), expr.parse(g), expr.parse(q))


@dataclass(frozen=True)
class ExosystemModel:
    """Exosystem dw = s(w), with w in R^p for p = len(s)."""

    s: tuple[Expr, ...]
    S: np.ndarray = field(init=False, compare=False, repr=False)  # ds/dw at 0

    p = property(lambda self: len(self.s))

    def __post_init__(self):
        _check_vars(self.s, w_names(self.p), "s")
        _check_origin(self.s, w_names(self.p), _indexed("s", self.p))
        _store_jacobian(self, "S", self.s, w_names(self.p), _indexed("s", self.p, ""))

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
    Phi: np.ndarray = field(init=False, compare=False, repr=False)     # dphi/dxi at 0
    Lambda: np.ndarray = field(init=False, compare=False, repr=False)  # dlambda/dxi at 0

    nc = property(lambda self: len(self.phi))

    def __post_init__(self):
        if len(self.Bc) != len(self.phi):
            raise ModelError("controller dimension mismatch")
        xv = xi_names(self.nc)
        _check_vars(self.phi, xv, "phi")
        _check_vars([self.lam], xv, "lambda")
        _check_origin([*self.phi, self.lam], xv, _indexed("phi", self.nc) + ["lambda(0)"])
        _store_jacobian(self, "Phi", self.phi, xv, _indexed("phi", self.nc, ""))
        _store_jacobian(self, "Lambda", [self.lam], xv, ["lam"])

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


def jacobian(exprs, vars_, point, labels=None):
    """Exact Jacobian of a vector expression map at point (the values of
    vars_): row i evaluates one expr.gradient of exprs[i]; an entry whose
    variable exprs[i] does not contain is 0.0, what its Num(0) evaluates to.
    An entry that fails to evaluate or is not finite raises ModelError
    naming vars_[j] and labels[i] (exprs[i]'s text if not given)."""
    def failed(i, name, why):
        label = labels[i] if labels else expr.to_string(exprs[i])
        return ModelError(f"'{label}': derivative in {name}{why}")

    env = dict(zip(vars_, map(float, point)))
    J = np.zeros((len(exprs), len(vars_)))
    for i, e in enumerate(exprs):
        grad = expr.gradient(e, vars_)
        for j, name in enumerate(vars_):
            if name not in grad:
                continue
            try:
                J[i, j] = expr.evaluate(grad[name], env)
            except expr.EvalError as exc:
                raise failed(i, name, f": {exc}") from exc
            if not math.isfinite(J[i, j]):
                raise failed(i, name, f" is {J[i, j]}")
    return J


def linearize(plant: PlantModel, exo: ExosystemModel) -> LinearizedData:
    """The seven linearization matrices at the origin, sliced from the
    Jacobians that the plant and the exosystem took when they were built."""
    if plant.p != exo.p:
        raise ModelError("plant and exosystem disagree on the exosystem dimension")
    n, J = plant.n, plant.J
    return LinearizedData(A=J[:n, :n], B=J[:n, n:n + 1], P=J[:n, n + 1:],
                          C=J[n:, :n], D=J[n:, n:n + 1], Q=J[n:, n + 1:], S=exo.S)
