import numpy as np
import pytest

from regsyn import examples, expr, model, synth
from regsyn.model import (ControllerModel, ExosystemModel, ModelError,
                          PlantModel, jacobian, linearize)
from regsyn.sysfile import SysFileError, parse_text


def test_quartic_oscillator_example_linearization():
    sf = examples.get("example51").load()
    lin = linearize(sf.plant, sf.exo)
    # exact: the derivatives are symbolic, so every entry is bit for bit
    assert np.array_equal(lin.A, [[0, 1], [-1, -2]])
    assert np.array_equal(lin.B, [[0], [1]])
    assert np.array_equal(lin.P, [[-1, 0], [0, 0]])
    assert np.array_equal(lin.C, [[1, 0]])
    assert np.array_equal(lin.D, [[0]])
    assert np.array_equal(lin.Q, [[0, 0]])
    assert np.array_equal(lin.S, [[0, 1], [0, 0]])
    assert lin.n == 2 and lin.p == 2


def test_boost_example_linearization_matches_closed_forms():
    sf = examples.get("example53").load()
    pr = sf.params
    C, L, R, r = pr["C"], pr["L"], pr["R"], pr["r"]
    from regsyn.regeq import boost_equilibrium
    D0, z20 = boost_equilibrium(pr["v0"], pr["z10"], R, r)
    lin = linearize(sf.plant, sf.exo)
    A = [[-1 / (R * C), D0 / C], [-D0 / L, -r / L]]
    B = [[z20 / C], [-pr["z10"] / L]]
    P = [[0, -1 / C, 0], [1 / L, 0, 0]]
    assert np.allclose(lin.A, A, rtol=1e-6, atol=1e-6)
    assert np.allclose(lin.B, B, rtol=1e-6, atol=1e-4)
    assert np.allclose(lin.P, P, rtol=1e-6, atol=1e-6)
    assert np.allclose(lin.C, [[1, 0]])
    assert np.allclose(lin.S, [[0, 0, 0], [0, 0, pr["alpha"]], [0, -pr["alpha"], 0]],
                       rtol=1e-8, atol=1e-6)
    assert lin.A[0, 0] == -62.5  # -1/(R*C), exactly


def test_boost_lam_is_the_exact_feedforward():
    # example53 prints lam = Gamma * xi, Gamma from its exact linearization
    sf = examples.get("example53").load()
    _, Gamma = synth.solve_linear_regulator(linearize(sf.plant, sf.exo))
    assert np.array_equal(sf.controller.Lambda, Gamma)
    for i in range(3):
        assert f"{Gamma[0, i]:.17g}*xi{i + 1}" in examples.get("example53").text


@pytest.mark.parametrize("f1, a01", [
    ("-x1 + 1e-4*x2 + 1e5*u", 1e-4),   # a small entry next to a large one
    ("-x1 + 1e9*x2^3", 0.0),           # a large cubic term has no linear part
    ("-x1 + abs(x2)", 0.0),            # abs linearizes to 0 at the origin
])
def test_linearization_is_scale_free(f1, a01):
    plant = PlantModel.from_strings([f1, "-x2"], "x1", "0", 1)
    lin = linearize(plant, ExosystemModel.from_strings(["0"]))
    assert lin.A[0, 1] == a01
    assert lin.A[0, 0] == -1.0


def test_numeric_jacobian_polynomial_property():
    # d/dx of sum c_ij x_i x_j + sum b_i x_i has the exact closed form
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = rng.uniform(-2, 2, 3)
        Cq = rng.uniform(-1, 1, (3, 3))
        terms = []
        names = ("x1", "x2", "x3")
        for i in range(3):
            terms.append(f"({b[i]:.17g})*{names[i]}")
            for j in range(3):
                terms.append(f"({Cq[i, j]:.17g})*{names[i]}*{names[j]}")
        e = expr.parse(" + ".join(terms))
        x = rng.uniform(-1, 1, 3)
        J = jacobian([e], names, x)
        exact = b + (Cq + Cq.T) @ x
        assert np.allclose(J.ravel(), exact, rtol=1e-12, atol=1e-14)


def test_zero_plant():
    plant = PlantModel.from_strings(["0", "0"], "0", "0", 1)
    exo = ExosystemModel.from_strings(["0"])
    lin = linearize(plant, exo)
    for name in ("A", "B", "P", "C", "D", "Q", "S"):
        assert not np.any(getattr(lin, name))


def test_origin_checks():
    with pytest.raises(ModelError):
        PlantModel.from_strings(["x1 + 1"], "x1", "0", 1)
    with pytest.raises(ModelError):
        PlantModel.from_strings(["x1"], "x1 + 2", "0", 1)
    with pytest.raises(ModelError):
        ExosystemModel.from_strings(["w1 + 0.5"])
    with pytest.raises(ModelError):
        ControllerModel.from_strings(["xi1"], "xi1 + 1", [0.0])


def test_unknown_variables_rejected():
    with pytest.raises(ModelError):
        PlantModel.from_strings(["x2"], "x1", "0", 1)  # x2 with n = 1
    with pytest.raises(ModelError):
        ExosystemModel.from_strings(["w2"])  # w2 with p = 1
    with pytest.raises(ModelError):
        PlantModel.from_strings(["x1"], "x1", "x1", 1)  # reference uses x


def test_controller_jacobians():
    ctrl = ControllerModel.from_strings(
        ["xi2 - xi1^4", "-xi1^3"],
        "(xi1 + xi2 - xi1^4 + sin(xi1)) / (1 + xi1^2)",
        [-0.2, -0.02])
    # taken once, when the controller is built
    assert np.array_equal(ctrl.Phi, [[0, 1], [0, 0]])
    assert np.array_equal(ctrl.Lambda, [[2, 1]])
    assert not ctrl.Phi.flags.writeable and not ctrl.Lambda.flags.writeable


_BIG = "1e200*1e200"     # inf, and NaN at the origin, which the origin check lets pass


def _load(f=("-x1",), g="x1", s=("0",)):
    """A plant, reference and exosystem read from a system file named f."""
    fs = "".join(f"f{i + 1} = {e}\n" for i, e in enumerate(f))
    ss = "".join(f"s{i + 1} = {e}\n" for i, e in enumerate(s))
    return parse_text(f"[plant]\nn = {len(f)}\n{fs}g = {g}\n[reference]\nq = 0\n"
                      f"[exosystem]\np = {len(s)}\n{ss}", "f")


# each model takes its Jacobian when it is built, so building it fails;
# read from a system file, the failure is located in the model's section
@pytest.mark.parametrize("call, section, message", [
    (lambda: _load(f=[f"-x1 + {_BIG}*x1"]), "plant", "'f1': derivative in x1 is inf"),
    (lambda: _load(f=["-x1", "-x2 + u"], g=f"x1 - {_BIG}*w1"),
     "plant", "'g - q': derivative in w1 is -inf"),
    (lambda: _load(s=[f"{_BIG}*w2", "-w1"]), "exosystem", "'s1': derivative in w2 is inf"),
    (lambda: _load(f=["-x1 + sqrt(x1^2)"]), "plant", "'f1': derivative in x1: division by zero"),
    (lambda: ControllerModel.from_strings([f"{_BIG}*xi1"], "xi1", [0.0]),
     None, "'phi1': derivative in xi1 is inf"),
    (lambda: ControllerModel.from_strings(["-xi1"], f"{_BIG}*xi1", [0.0]),
     None, "'lam': derivative in xi1 is inf"),
    (lambda: jacobian([expr.parse(f"x1*{_BIG}*x1")], ("x1",), (1.0,)),
     None, "'x1*1e+200*1e+200*x1': derivative in x1 is inf"),
])
def test_jacobian_failure_names_expression_and_variable(call, section, message):
    with pytest.raises((ModelError, SysFileError)) as info:
        call()
    if section is None:
        assert type(info.value) is ModelError and str(info.value) == message
    else:
        assert type(info.value) is SysFileError
        assert str(info.value) == f"f [{section}]: {message}"


def test_linearize_slices_the_stored_jacobians():
    sf = examples.get("example53").load()
    lin = linearize(sf.plant, sf.exo)
    J = sf.plant.J
    assert np.array_equal(np.block([[lin.A, lin.B, lin.P], [lin.C, lin.D, lin.Q]]), J)
    assert lin.S is sf.exo.S
    # views of the read-only Jacobian: a caller cannot change the model
    assert all(np.shares_memory(M, J) and not M.flags.writeable
               for M in (lin.A, lin.B, lin.P, lin.C, lin.D, lin.Q))


def test_dimension_validation():
    with pytest.raises(ModelError):
        model.LinearizedData(
            A=np.zeros((2, 2)), B=np.zeros((2, 1)), P=np.zeros((2, 2)),
            C=np.zeros((1, 2)), D=np.zeros((1, 1)), Q=np.zeros((1, 3)),
            S=np.zeros((2, 2)))
