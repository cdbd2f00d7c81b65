"""Analysis helpers that only the tests use: the exosystem orbit taken from
a closed-loop simulation, its period, an internal model built from plain
matrices, the transfer function of a synthesized linear controller, and
the check that no forked process is left."""

import os

import numpy as np
import pytest

from regsyn.model import ControllerModel, PlantModel
from regsyn.sim import simulate
from regsyn.synth import InternalModel


def exosystem_orbit(exo, w0, T, dt):
    """(t, w) of dw = s(w) from w0: the w block of a simulation with the
    stable plant dx1 = -x1 and a zero controller, both started at 0."""
    plant = PlantModel.from_strings(["-x1"], "x1", "0", exo.p)
    ctrl = ControllerModel.from_strings(["0"], "0", [0.0])
    traj = simulate(plant, exo, ctrl, (0.0,), (0.0,), w0, T, dt)
    return traj.t, traj.w


def detect_period(t, w, tol=1e-3):
    """First return time of w to its initial point, or None.

    Looks for the first sample back inside the tol-ball around w(0) after
    having left it, then refines the return time by intersecting the two
    secant lines of the distance function around its local minimum."""
    w = np.asarray(w, dtype=float)
    d = np.linalg.norm(w - w[0], axis=1)
    left = np.flatnonzero(d > tol)
    if left.size == 0:
        return None
    k0 = left[0]
    back = np.flatnonzero(d[k0:] < tol)
    if back.size == 0:
        return None
    k = k0 + back[0]
    # local minimum of d in the below-tol window
    while k + 1 < len(d) and d[k + 1] < d[k]:
        k += 1
    if 1 < k < len(d) - 2:
        m1 = (d[k - 1] - d[k - 2]) / (t[k - 1] - t[k - 2])
        m2 = (d[k + 2] - d[k + 1]) / (t[k + 2] - t[k + 1])
        if m1 < 0 < m2:
            # V-shaped kink: intersect the descending and ascending secants
            t_star = (d[k + 1] - d[k - 1] + m1 * t[k - 1] - m2 * t[k + 1]) / (m1 - m2)
            if t[k - 1] <= t_star <= t[k + 1]:
                return float(t_star)
    return float(t[k])


def internal_model(Phi, Lambda, Bc=None) -> InternalModel:
    """InternalModel from array-likes: Phi is nu x nu, Lambda a row of nu
    values and Bc nu values, zeros if not given."""
    Phi = np.asarray(Phi, dtype=float)
    Lambda = np.atleast_2d(np.asarray(Lambda, dtype=float))
    Bc = np.zeros(len(Phi)) if Bc is None else Bc
    return InternalModel(Phi, Lambda, np.asarray(Bc, dtype=float).reshape(-1, 1))


def controller_transfer(im: InternalModel, z: complex) -> complex:
    """Lambda (zI - Phi)^{-1} Bc of the synthesized linear controller."""
    x = np.linalg.solve(z * np.eye(im.nu) - im.Phi.astype(complex), im.Bc)
    return complex((im.Lambda @ x)[0, 0])


def assert_no_child_left():
    """This process has no child left at all, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
