import math

import numpy as np
import pytest

from regsyn.model import LinearizedData
from regsyn.specan import (SpectralError, eigen, hautus_detectable, jordan_structure,
                           spectral_abscissa, transfer_function)


def test_eigen_trace_det_identities():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        M = rng.uniform(-3, 3, (k, k))
        sp = eigen(M)
        assert sum(sp.multiplicities) == k
        tr = sum(v * m for v, m in zip(sp.eigenvalues, sp.multiplicities))
        det = np.prod([v ** m for v, m in zip(sp.eigenvalues, sp.multiplicities)])
        scale_t = max(1.0, abs(np.trace(M)))
        scale_d = max(1.0, abs(np.linalg.det(M)))
        assert abs(tr - np.trace(M)) <= 1e-6 * scale_t
        assert abs(det - np.linalg.det(M)) <= 1e-6 * scale_d


def test_eigen_conjugate_pairing():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        M = rng.uniform(-3, 3, (k, k))
        sp = eigen(M)
        vals = []
        for v, m in zip(sp.eigenvalues, sp.multiplicities):
            vals.extend([v] * m)
        # the multiset must be closed under conjugation
        for v in vals:
            if v.imag != 0:
                assert any(abs(u - v.conjugate()) < 1e-9 * (1 + abs(v)) for u in vals)


def test_eigen_clusters_multiple_eigenvalues():
    M = np.diag([2.0, 2.0, 2.0, -1.0])
    sp = eigen(M)
    assert sorted(sp.multiplicities) == [1, 3]
    M2 = np.array([[0.0, 1.0], [0.0, 0.0]])  # defective double zero
    sp2 = eigen(M2)
    assert sp2.eigenvalues == (0.0 + 0.0j,)
    assert sp2.multiplicities == (2,)


def test_hurwitz_and_abscissa():
    assert spectral_abscissa(np.array([[-1.0, 0.0], [0.0, -2.0]])) == pytest.approx(-1.0)
    assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) >= 0  # marginal
    assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, -2.0]])) == pytest.approx(-1.0)


def _rank_by_elimination(M, tol):
    """Column-pivoted Gaussian elimination rank (oracle route, no SVD)."""
    A = np.array(M, dtype=complex)
    rows, cols = A.shape
    rank = 0
    r = 0
    for c in range(cols):
        piv = r + np.argmax(np.abs(A[r:, c])) if r < rows else None
        if piv is None or abs(A[piv, c]) <= tol:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] / A[r, c]
        for i in range(rows):
            if i != r:
                A[i] = A[i] - A[i, c] * A[r]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _hautus_oracle(Cm, M):
    k = M.shape[0]
    norm = np.linalg.norm(M, np.inf)
    for lam in np.linalg.eigvals(M):
        if lam.real < -1e-8 * (1 + norm):
            continue
        stacked = np.vstack([M - lam * np.eye(k), Cm])
        if _rank_by_elimination(stacked, 1e-9 * max(1.0, norm)) < k:
            return False
    return True


def test_hautus_matches_elimination_oracle():
    rng = np.random.default_rng(17)
    n_checked = 0
    for case in range(200):
        k = int(rng.integers(1, 6))
        if case % 2 == 0:
            M = rng.uniform(-2, 2, (k, k))
            Cm = rng.uniform(-2, 2, (1, k))
        else:
            # construct an unobservable mode with a known real eigenvalue
            lam = float(rng.uniform(-1, 1))
            D = np.diag(rng.uniform(-2, 2, k))
            D[0, 0] = lam
            T = rng.uniform(-1, 1, (k, k)) + 2 * np.eye(k)
            M = T @ D @ np.linalg.inv(T)
            c = rng.uniform(-2, 2, k)
            # make Cm orthogonal to the eigenvector of lam
            v = T[:, 0]
            c = c - (c @ v) / (v @ v) * v
            Cm = c.reshape(1, k)
        assert hautus_detectable(Cm, M, eigen(M)) == _hautus_oracle(Cm, M)
        n_checked += 1
    assert n_checked == 200


def test_hautus_known_cases():
    # integrator observed directly: detectable
    M = [[0.0, 1.0], [0.0, 0.0]]
    assert hautus_detectable([[1.0, 0.0]], M, eigen(M))
    # unstable unobserved mode: not detectable
    M = np.diag([1.0, -1.0])
    assert not hautus_detectable([[0.0, 1.0]], M, eigen(M))
    # stable unobserved mode: still detectable
    M = np.diag([-1.0, -2.0])
    assert hautus_detectable([[0.0, 1.0]], M, eigen(M))


def _lin(A, B, C, D):
    n = np.atleast_2d(A).shape[0]
    return LinearizedData(A=np.atleast_2d(np.asarray(A, float)),
                          B=np.asarray(B, float).reshape(n, 1),
                          P=np.zeros((n, 1)),
                          C=np.asarray(C, float).reshape(1, n),
                          D=np.atleast_2d(np.asarray(D, float)),
                          Q=np.zeros((1, 1)),
                          S=np.zeros((1, 1)))


def test_transfer_function_values_and_symmetry():
    lin = _lin([[0, 1], [-1, -2]], [0, 1], [1, 0], [0])
    assert transfer_function(lin, 0.0) == pytest.approx(1.0)
    z = complex(0.3, 1.7)
    assert transfer_function(lin, z.conjugate()) == pytest.approx(
        transfer_function(lin, z).conjugate())
    # G(z) = C (zI-A)^-1 B + D against the closed form 1/(z^2+2z+1)
    for z in (1j, 2 + 0.5j, -0.3 + 3j):
        assert transfer_function(lin, z) == pytest.approx(1 / (z * z + 2 * z + 1))
    with pytest.raises(SpectralError):
        transfer_function(lin, -1.0)  # pole of the transfer function


def test_jordan_structure_double_zero():
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    jd = jordan_structure(S, eigen(S))
    assert jd.frequencies == (0.0,)
    assert jd.multiplicities == (2,)
    assert np.allclose(jd.J, [[0, 1], [0, 0]])
    assert np.allclose(S @ jd.T, jd.T @ jd.J, atol=1e-10)


def test_jordan_structure_oscillator_with_zero():
    a = 200 * math.pi
    S = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, a], [0.0, -a, 0.0]])
    jd = jordan_structure(S, eigen(S))
    assert jd.frequencies == pytest.approx((0.0, a))
    assert jd.multiplicities == (1, 1)
    assert np.diag(jd.J)[0] == 0
    assert np.diag(jd.J)[1] == pytest.approx(1j * a)
    assert np.diag(jd.J)[2] == pytest.approx(-1j * a)
    assert np.linalg.norm(S @ jd.T - jd.T @ jd.J, np.inf) <= 1e-8 * np.linalg.norm(S, np.inf)


def test_jordan_structure_similarity_invariant():
    rng = np.random.default_rng(23)
    base = np.zeros((4, 4))
    base[0, 1] = 1.0  # double zero block
    base[2, 3] = 2.0
    base[3, 2] = -2.0  # oscillator at 2 rad/s
    for _ in range(10):
        T = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
        S = T @ base @ np.linalg.inv(T)
        jd = jordan_structure(S, eigen(S), tol=1e-7)
        assert jd.frequencies == pytest.approx((0.0, 2.0), abs=1e-7)
        assert jd.multiplicities == (2, 1)


def test_jordan_structure_rejects_off_axis():
    S = np.diag([-1.0, 0.0])
    with pytest.raises(SpectralError):
        jordan_structure(S, eigen(S))


def test_jordan_structure_rejects_geometric_multiplicity_two():
    S = np.zeros((2, 2))
    with pytest.raises(SpectralError):
        jordan_structure(S, eigen(S))
