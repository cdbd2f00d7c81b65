from dataclasses import replace

import numpy as np
import pytest

from regsyn import examples, model, specan, synth
from regsyn.model import LinearizedData
from regsyn.synth import (SynthesisError, build_Bc,
                          choose_block_coefficients, closed_loop_matrix,
                          solve_linear_regulator, synthesize, verify_conditions)

from helpers import controller_transfer, internal_model


def _lin(A, B, C, D, S, P=None, Q=None):
    A = np.atleast_2d(np.asarray(A, float))
    S = np.atleast_2d(np.asarray(S, float))
    n, p = A.shape[0], S.shape[0]
    return LinearizedData(
        A=A, B=np.asarray(B, float).reshape(n, 1),
        P=np.zeros((n, p)) if P is None else np.asarray(P, float).reshape(n, p),
        C=np.asarray(C, float).reshape(1, n),
        D=np.atleast_2d(np.asarray(D, float)),
        Q=np.zeros((1, p)) if Q is None else np.asarray(Q, float).reshape(1, p),
        S=S)


def _example51_lin():
    sf = examples.get("example51").load()
    return model.linearize(sf.plant, sf.exo)


def test_solve_linear_regulator_quartic_example():
    lin = _example51_lin()
    Pi, Gamma = solve_linear_regulator(lin)
    assert np.allclose(Gamma, [[2.0, 1.0]], atol=1e-6)
    assert np.allclose(Pi, [[0.0, 0.0], [1.0, 0.0]], atol=1e-6)
    # the solution satisfies both matrix equations
    assert np.allclose(Pi @ lin.S, lin.A @ Pi + lin.B @ Gamma + lin.P, atol=1e-8)
    assert np.allclose(lin.C @ Pi + lin.D @ Gamma + lin.Q, 0, atol=1e-8)


def test_solve_linear_regulator_homogeneous():
    lin = _lin([[-1.0]], [1.0], [1.0], [0.0], [[0.0]])
    Pi, Gamma = solve_linear_regulator(lin)
    assert np.allclose(Pi, 0, atol=1e-12)
    assert np.allclose(Gamma, 0, atol=1e-12)


def test_closed_loop_matrix_block_layout():
    lin = _example51_lin()
    im = internal_model([[0, 1], [0, 0]], [2.0, 1.0], [-0.2, -0.02])
    A_cl = closed_loop_matrix(lin, im)
    expected = np.array([
        [0, 1, 0, 0],
        [-1, -2, 2, 1],
        [-0.2, 0, 0, 1],
        [-0.02, 0, 0, 0]])
    assert np.allclose(A_cl, expected)
    assert specan.spectral_abscissa(A_cl) < 0


def test_verify_conditions_quartic_example():
    lin = _example51_lin()
    im = internal_model([[0, 1], [0, 0]], [2.0, 1.0])
    flags = verify_conditions(lin, im, specan.spectral_abscissa(lin.A))
    assert flags.all_pass
    assert flags.tf_values[0j] == pytest.approx(1.0)


def test_verify_conditions_flags_failures():
    # unstable plant
    lin = _lin([[1.0]], [1.0], [1.0], [0.0], [[0.0]])
    im = internal_model([[0.0]], [1.0])
    assert not verify_conditions(lin, im, specan.spectral_abscissa(lin.A)).plant_stable
    # transfer function zero at the internal model frequency:
    # G(z) = z/(z+1)^2 vanishes at z = 0
    lin2 = _lin([[0, 1], [-1, -2]], [0, 1], [0, 1], [0.0], [[0.0]])
    flags2 = verify_conditions(lin2, im, specan.spectral_abscissa(lin2.A))
    assert not flags2.tf_nonzero
    # undetectable internal model
    im3 = internal_model([[0, 0], [0, 0]], [1.0, 0.0])
    lin3 = _lin([[-1.0]], [1.0], [1.0], [0.0], [[0.0, 0.0], [0.0, 0.0]])
    assert not verify_conditions(lin3, im3, specan.spectral_abscissa(lin3.A)).detectable
    # off-axis internal model spectrum
    im4 = internal_model([[-1.0]], [1.0])
    lin4 = _lin([[-1.0]], [1.0], [1.0], [0.0], [[0.0]])
    assert not verify_conditions(lin4, im4, specan.spectral_abscissa(lin4.A)).spectrum_on_axis


def test_choose_block_coefficients_simple():
    a = choose_block_coefficients(1, 2.0 + 0j)
    # z + G*a must be Hurwitz: root at -G*a
    assert (-2.0 * a[0]).real < 0
    a2 = choose_block_coefficients(2, 0.5 + 0j)
    roots = np.roots([1.0] + [0.5 * v for v in a2])
    assert all(r.real < 0 for r in roots)
    assert all(abs(v.imag) < 1e-12 for v in a2)  # real G gives real coefficients
    with pytest.raises(SynthesisError):
        choose_block_coefficients(1, 0.0)


def test_choose_block_coefficients_complex_g():
    g = 0.3 - 0.7j
    for m in (1, 2, 3):
        a = choose_block_coefficients(m, g)
        poly = [1.0] + [g * v for v in a]
        roots = np.roots(poly)
        assert all(r.real < -1e-9 for r in roots)


def _transfer_identity_case(S, Cc, eps, rng, rel=1e-6):
    """build_Bc must realize -C(z) = sum_jk a_jk eps^k/(z - i a_j)^k + conj."""
    S = np.asarray(S, float)
    jd = specan.jordan_structure(S, specan.eigen(S))
    coeffs = {}
    for j, alpha in enumerate(jd.frequencies):
        g = rng.uniform(0.5, 2.0) + (rng.uniform(-1, 1) * 1j if alpha > 0 else 0)
        coeffs[j] = choose_block_coefficients(jd.multiplicities[j], g)
    Bc = build_Bc(jd, Cc, eps, coeffs)
    im = internal_model(np.asarray(S, float), Cc, Bc)
    for _ in range(10):
        z = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
        want = 0.0
        for j, alpha in enumerate(jd.frequencies):
            for k, a in enumerate(coeffs[j], start=1):
                want += a * eps ** k / (z - 1j * alpha) ** k
                if alpha > 0:
                    want += np.conj(a) * eps ** k / (z + 1j * alpha) ** k
        got = controller_transfer(im, z)
        assert abs(got - (-want)) <= rel * max(1.0, abs(want))


def test_build_Bc_transfer_identity_jordan_block():
    rng = np.random.default_rng(31)
    S = np.array([[0.0, 1.0], [0.0, 0.0]])  # m = 2 at frequency 0
    for _ in range(5):
        Cc = rng.uniform(0.5, 2.0, (1, 2))
        _transfer_identity_case(S, Cc, eps=0.3, rng=rng)


def test_build_Bc_transfer_identity_mixed_spectrum():
    rng = np.random.default_rng(37)
    S = np.zeros((3, 3))
    S[1, 2], S[2, 1] = 2.0, -2.0  # zero + oscillator at 2
    for _ in range(5):
        Cc = rng.uniform(0.5, 2.0, (1, 3))
        _transfer_identity_case(S, Cc, eps=0.2, rng=rng)


def test_build_Bc_scale_invariance():
    # scaling Cc by kappa scales Bc by 1/kappa (the transfer identity pins
    # the product)
    rng = np.random.default_rng(41)
    S = np.zeros((3, 3))
    S[1, 2], S[2, 1] = 1.0, -1.0
    jd = specan.jordan_structure(S, specan.eigen(S))
    coeffs = {j: choose_block_coefficients(m, 1.0 + 0j)
              for j, m in enumerate(jd.multiplicities)}
    Cc = rng.uniform(0.5, 2.0, (1, 3))
    B1 = build_Bc(jd, Cc, 0.5, coeffs)
    B2 = build_Bc(jd, 3.0 * Cc, 0.5, coeffs)
    assert np.allclose(B2, B1 / 3.0, rtol=1e-10)


def test_build_Bc_detects_vanishing_leading_coordinate():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    jd = specan.jordan_structure(S, specan.eigen(S))
    coeffs = {0: choose_block_coefficients(2, 1.0 + 0j)}
    # Cc = [0, 1] makes (Cc, S) undetectable: leading Jordan coordinate is 0
    with pytest.raises(SynthesisError):
        build_Bc(jd, np.array([[0.0, 1.0]]), 0.5, coeffs)


def test_synthesize_quartic_example():
    lin = _example51_lin()
    im = internal_model([[0, 1], [0, 0]], [2.0, 1.0])
    rep = synthesize(lin, im)
    assert rep.success
    assert rep.eps is not None and rep.eps > 0
    assert rep.abscissa < -1e-6
    A_cl = closed_loop_matrix(lin, replace(im, Bc=rep.Bc))
    assert specan.spectral_abscissa(A_cl) == pytest.approx(rep.abscissa)
    assert rep.Bc.shape == (2, 1)


def test_synthesize_scalar_zero_exosystem():
    # p = 1, S = [0]: the construction gives Bc = -eps/(G(0)*Cc)
    lin = _lin([[-1.0]], [1.0], [1.0], [0.0], [[0.0]])
    im = internal_model([[0.0]], [1.0])
    rep = synthesize(lin, im, eps0=0.1)
    assert rep.success
    # G(0) = 1, a = 1, so Bc = -0.1 at the first eps
    assert rep.Bc.ravel()[0] == pytest.approx(-0.1)
    assert rep.eps == pytest.approx(0.1)


def test_synthesize_reports_failure_for_unstable_plant():
    lin = _lin([[1.0]], [1.0], [1.0], [0.0], [[0.0]])
    im = internal_model([[0.0]], [1.0])
    rep = synthesize(lin, im)
    assert not rep.success
    assert "plant_stable" in rep.message


def test_synthesize_soundness_randomized():
    """On randomized well-posed cases: no false successes, high success rate."""
    rng = np.random.default_rng(101)
    trials = successes = 0
    while trials < 200:
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (n, n))
        A = A - (specan.spectral_abscissa(A) + rng.uniform(0.1, 1.0)) * np.eye(n)
        if specan.spectral_abscissa(A) > -0.1:
            continue
        B = rng.uniform(-2, 2, (n, 1))
        C = rng.uniform(-2, 2, (1, n))
        D = np.array([[0.0]])
        freq = float(rng.uniform(0.3, 3.0))
        with_zero = bool(rng.integers(0, 2))
        blocks = [np.array([[0.0]])] if with_zero else []
        blocks.append(np.array([[0.0, freq], [-freq, 0.0]]))
        p = sum(b.shape[0] for b in blocks)
        S = np.zeros((p, p))
        at = 0
        for b in blocks:
            S[at:at + b.shape[0], at:at + b.shape[0]] = b
            at += b.shape[0]
        lin = _lin(A, B, C, D, S)
        Cc = rng.uniform(0.5, 2.0, (1, p)) * rng.choice([-1.0, 1.0], p)
        im = internal_model(S, Cc)
        flags = verify_conditions(lin, im, specan.spectral_abscissa(lin.A))
        if not flags.all_pass:
            continue  # G vanished at a frequency; not a well-posed case
        if min(abs(g) for g in flags.tf_values.values()) < 1e-3:
            continue  # keep G bounded away from zero as required
        trials += 1
        rep = synthesize(lin, im)
        if rep.success:
            successes += 1
            # no false successes: re-check stability independently
            A_cl = closed_loop_matrix(lin, replace(im, Bc=rep.Bc))
            assert np.max(np.linalg.eigvals(A_cl).real) < 0
    assert successes >= 0.95 * trials
