"""Guards that no CLI input reaches but the public API does: each row gives
an input that reaches one guard, and the exception and exact message it
raises."""

import numpy as np
import pytest

from regsyn.expr import EvalError, compile_fn, parse
from regsyn.model import ControllerModel, ExosystemModel, ModelError, PlantModel, linearize
from regsyn.sim import DivergenceError, SimulationError, decay_metrics, simulate
from regsyn.specan import SpectralError, eigen, hautus_detectable, jordan_structure
from regsyn.synth import InternalModel, SynthesisError, build_Bc

ROTATION = [[0.0, 1.0], [-1.0, 0.0]]


def _loop(bc=0.0):
    """A one-state plant, a constant exosystem and a one-state controller."""
    return (PlantModel.from_strings(["-x1 + u"], "x1", "0", 1), ExosystemModel.from_strings(["0"]),
            ControllerModel.from_strings(["0"], "xi1", [bc]))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: eigen([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), SpectralError,
                 "expected a square matrix of dimension >= 1", id="eigen-not-square"),
    pytest.param(lambda: eigen([[np.inf]]), SpectralError, "matrix has non-finite entries",
                 id="eigen-non-finite"),
    pytest.param(lambda: hautus_detectable([[1.0, 0.0, 0.0]], ROTATION, eigen(ROTATION)),
                 SpectralError, "dimension mismatch in Hautus test", id="hautus-width"),
    pytest.param(lambda: jordan_structure(ROTATION, eigen([[0.0]])), SpectralError,
                 "multiplicities inconsistent with conjugate pairing",
                 id="jordan-other-spectrum"),
    pytest.param(lambda: compile_fn(parse("y"), ("x1",)), EvalError, "unbound variable 'y'",
                 id="compile-unbound"),
    pytest.param(lambda: ControllerModel.from_strings(["0", "0"], "xi1", [0.0]), ModelError,
                 "controller dimension mismatch", id="controller-bc-length"),
    pytest.param(lambda: linearize(_loop()[0], ExosystemModel.from_strings(["w2", "-w1"])),
                 ModelError, "plant and exosystem disagree on the exosystem dimension",
                 id="linearize-p"),
    pytest.param(lambda: simulate(*_loop(), (0.0, 0.0), (0.0,), (0.0,), 1.0, 0.5),
                 SimulationError, "initial state dimensions do not match the models",
                 id="simulate-x0"),
    pytest.param(lambda: decay_metrics(simulate(*_loop(), (0.0,), (0.0,), (0.0,), 1.0, 0.5), 2.0),
                 SimulationError, "window exceeds the trajectory horizon", id="decay-window"),
    pytest.param(lambda: build_Bc(jordan_structure([[0.0]], eigen([[0.0]])), [[1.0]], 1.0, {0: []}),
                 SynthesisError, "block 0: expected 1 coefficients, got 0", id="build-bc-count"),
    pytest.param(lambda: InternalModel(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((3, 1))),
                 SynthesisError, "internal model shape mismatch", id="internal-model-shape"),
    # the kernel names a NaN literal _nan: xi is NaN after the first step
    pytest.param(lambda: simulate(*_loop(np.nan), (1.0,), (0.0,), (0.0,), 1.0, 0.5),
                 DivergenceError, "state diverged at t = 0.5", id="simulate-nan-bc"),
])
def test_guard_messages_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
