"""Built-in worked examples, each the fixed text of a system file.

A plant driven by a quartic nonlinear oscillator (example51), a plant
needing a third-order immersion of a linear oscillator (example52) and the
averaged boost converter with a constant-plus-sinusoidal disturbance
(example53).  `regsyn example dump <name>` prints the text, which
round-trips through the parser and is the same bytes on every machine.
example53 prints `regeq.BoostParams.default()` to 17 digits, with lam the
linear feedforward of `synth.solve_linear_regulator`; tests/test_model.py
derives both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sysfile import SystemFile, parse_text


@dataclass(frozen=True)
class Example:
    name: str
    description: str
    text: str
    default_T: float
    default_dt: float
    default_ic: tuple  # (x0, xi0, w0)

    @property
    def origin(self):  # what error messages name it by, as they name a file
        return f"<builtin:{self.name}>"

    def load(self) -> SystemFile:
        return parse_text(self.text, origin=self.origin)


_EXAMPLES = {ex.name: ex for ex in (
    Example(
        name="example51",
        description="second-order plant disturbed by a quartic nonlinear "
                    "oscillator; second-order controller",
        text="""\
[plant]
n = 2
f1 = x2 - w1
f2 = -x1 - x2 - sin(x2) + (1 + x2^2)*u
g = x1

[reference]
q = 0

[exosystem]
p = 2
s1 = w2 - w1^4
s2 = -w1^3

[controller]
nc = 2
phi1 = xi2 - xi1^4
phi2 = -xi1^3
lam = (xi1 + xi2 - xi1^4 + sin(xi1)) / (1 + xi1^2)
bc = -0.2, -0.02

[regulator_solution]
pi1 = 0
pi2 = w1
gamma = (w1 + w2 - w1^4 + sin(w1)) / (1 + w1^2)
radius = 0.3
""",
        default_T=60.0,
        default_dt=1e-4,
        default_ic=((1.0, -1.0), (0.0, 0.0), (0.5, 0.25)),
    ),
    Example(
        name="example52",
        description="second-order plant with a quadratic feedforward that "
                    "needs a third-order immersion of the linear oscillator",
        text="""\
[plant]
n = 2
f1 = x2 + x1^2 - w1^2
f2 = -x1 - x2 + u
g = x1

[reference]
q = 0

[exosystem]
p = 2
s1 = w2
s2 = -w1

[immersion]
nu = 3
tau1 = w1^2 + w2^2
tau2 = 2*w1*w2
tau3 = w1^2 - w2^2
phi1 = 0
phi2 = -2*xi3
phi3 = 2*xi2
lam = 0.5*xi1 + xi2 + 0.5*xi3

[regulator_solution]
pi1 = 0
pi2 = w1^2
gamma = w1^2 + 2*w1*w2
radius = 0.3
""",
        default_T=30.0,
        default_dt=1e-4,
        default_ic=((0.2, -0.2), (0.0, 0.0, 0.0), (0.2, 0.1)),
    ),
    Example(
        name="example53",
        description="averaged boost converter rejecting a constant voltage "
                    "offset and a sinusoidal load current",
        text="""\
[plant]
n = 2
f1 = -x1/0.016 + (0.2474744871391589 + u)*x2/4.0000000000000003e-05 + 101020.51443364381*u - w2/4.0000000000000003e-05
f2 = -(0.2474744871391589 + u)*x1/0.0040000000000000001 - 62.5*x2 - 100000*u + w1/0.0040000000000000001
g = x1

[reference]
q = 0

[exosystem]
p = 3
s1 = 0
s2 = 628.31853071795865*w3
s3 = -628.31853071795865*w2

[controller]
nc = 3
phi1 = 0
phi2 = 628.31853071795865*xi3
phi3 = -628.31853071795865*xi2
lam = 0.0025257759076995714*xi1 + 0.00010606207219946351*xi2 + -0.025640003155447285*xi3
bc = 7.5, -0.29, 0.06

[params]
C = 4.0000000000000003e-05
L = 0.0040000000000000001
R = 400
r = 0.25
v0 = 100
z10 = 400
alpha = 628.31853071795865
beta = 0.90000000000000002
""",
        default_T=0.8,
        default_dt=1e-6,
        default_ic=((5.0, 0.0), (0.0, 0.0, 0.0), (10.0, 0.8, 0.0)),
    ),
)}


def names():
    return tuple(_EXAMPLES)


def get(name: str) -> Example:
    if name not in _EXAMPLES:
        raise KeyError(f"unknown example '{name}'; available: {', '.join(_EXAMPLES)}")
    return _EXAMPLES[name]
