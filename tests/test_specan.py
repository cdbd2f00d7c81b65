import hashlib
import math

import numpy as np
import pytest

from openblas_kernel import openblas_kernel
from regsyn import specan
from regsyn.model import LinearizedData
from regsyn.specan import (SpectralError, eigen, hautus_detectable, jordan_structure,
                           spectral_abscissa, transfer_function)
from regsyn.synth import SynthesisError, solve_linear_regulator


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
    with pytest.raises(SpectralError, match="off-axis eigenvalue"):
        jordan_structure(S, eigen(S))


def test_jordan_structure_rejects_geometric_multiplicity_two():
    S = np.zeros((2, 2))
    with pytest.raises(SpectralError, match="geometric multiplicity 2"):
        jordan_structure(S, eigen(S))


def _blocks(*blocks):
    """The block-diagonal matrix of square blocks."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    n = sum(len(b) for b in blocks)
    M, i = np.zeros((n, n)), 0
    for b in blocks:
        M[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return M


def _rot(a, b):
    return [[a, b], [-b, a]]


# eigen's output as the numpy-scalar clustering before it gave it (float
# hex), with np.linalg.eigvals returning the recorded eigenvalues of a
# random similarity transform of each block matrix M: those move with the
# OpenBLAS kernel, the clustering, cluster means and pairing pinned here do
# not.  The 3- and 5-member clusters and the triple real one beside a pair
# are means that Python's complex division rounds otherwise; the last two
# matrices' entries are finite, but a row sum or the modulus of an
# eigenvalue difference would overflow, and a pair's midpoint would too:
# eigen takes their spectrum from the matrix scaled by 2**-64, for which
# eigvals returns the recorded eigenvalues scaled alike.
_PINNED = {
    "three_member_pair": (
        _blocks(*[_rot(-0.5, 2.0)] * 3),
        [("-0x1.0000000000016p-1", "0x1.ffffffffffff0p+0"),
         ("-0x1.0000000000016p-1", "-0x1.ffffffffffff0p+0"),
         ("-0x1.ffffffffffffbp-2", "0x1.0000000000000p+1"),
         ("-0x1.ffffffffffffbp-2", "-0x1.0000000000000p+1"),
         ("-0x1.ffffffffffff5p-2", "0x1.ffffffffffffbp+0"),
         ("-0x1.ffffffffffff5p-2", "-0x1.ffffffffffffbp+0")],
        [("-0x1.0000000000004p-1", "-0x1.ffffffffffff9p+0"),
         ("-0x1.0000000000004p-1", "0x1.ffffffffffff9p+0")], (3, 3)),
    "five_member_pair": (
        _blocks(*[_rot(-0.25, 1.5)] * 5),
        [("-0x1.000000000000cp-2", "0x1.7fffffffffff9p+0"),
         ("-0x1.000000000000cp-2", "-0x1.7fffffffffff9p+0"),
         ("-0x1.000000000001cp-2", "0x1.7ffffffffffffp+0"),
         ("-0x1.000000000001cp-2", "-0x1.7ffffffffffffp+0"),
         ("-0x1.ffffffffffff4p-3", "0x1.8000000000001p+0"),
         ("-0x1.ffffffffffff4p-3", "-0x1.8000000000001p+0"),
         ("-0x1.0000000000001p-2", "0x1.8000000000004p+0"),
         ("-0x1.0000000000001p-2", "-0x1.8000000000004p+0"),
         ("-0x1.ffffffffffffap-3", "0x1.7ffffffffffffp+0"),
         ("-0x1.ffffffffffffap-3", "-0x1.7ffffffffffffp+0")],
        [("-0x1.0000000000007p-2", "-0x1.8000000000000p+0"),
         ("-0x1.0000000000007p-2", "0x1.8000000000000p+0")], (5, 5)),
    "triple_real": (
        _blocks(1.5, 1.5, 1.5),
        ["0x1.8000000000000p+0", "0x1.8000000000002p+0", "0x1.7ffffffffffffp+0"],
        [("0x1.8000000000000p+0", "0x0.0p+0")], (3,)),
    "triple_real_beside_a_pair": (
        _blocks(1.5, 1.5, 1.5, _rot(0.0, 1.0)),
        [("0x1.7fffffffffffep+0", "0x0.0p+0"),
         ("0x1.a000000000000p-52", "0x1.0000000000001p+0"),
         ("0x1.a000000000000p-52", "-0x1.0000000000001p+0"),
         ("0x1.7fffffffffffep+0", "0x0.0p+0"), ("0x1.8000000000001p+0", "0x0.0p+0")],
        [("0x1.a000000000000p-52", "-0x1.0000000000001p+0"),
         ("0x1.a000000000000p-52", "0x1.0000000000001p+0"),
         ("0x1.7fffffffffffep+0", "0x0.0p+0")], (1, 1, 3)),
    "double_pair": (
        _blocks(_rot(0.0, 3.0), _rot(0.0, 3.0)),
        [("0x1.4000000000000p-51", "0x1.8000000000000p+1"),
         ("0x1.4000000000000p-51", "-0x1.8000000000000p+1"),
         ("-0x1.0e00000000000p-51", "0x1.7fffffffffffcp+1"),
         ("-0x1.0e00000000000p-51", "-0x1.7fffffffffffcp+1")],
        [("0x1.9000000000000p-55", "-0x1.7fffffffffffep+1"),
         ("0x1.9000000000000p-55", "0x1.7fffffffffffep+1")], (2, 2)),
    "row_sum_overflows": (
        _blocks(_rot(1e308, 1.5e308)),
        [("0x1.1ccf385ebc8a0p+1023", "0x1.ab36d48e1acf2p+1023"),
         ("0x1.1ccf385ebc8a0p+1023", "-0x1.ab36d48e1acf2p+1023")],
        [("0x1.1ccf385ebc8a0p+1023", "-0x1.ab36d48e1acf2p+1023"),
         ("0x1.1ccf385ebc8a0p+1023", "0x1.ab36d48e1acf2p+1023")], (1, 1)),
    "modulus_overflows": (
        _blocks(_rot(1.1e308, 0.65e308), _rot(-0.3e308, 0.8e308)),
        [("0x1.394a579b68fe3p+1023", "0x1.72409614c1e68p+1022"),
         ("0x1.394a579b68fe3p+1023", "-0x1.72409614c1e68p+1022"),
         ("-0x1.55c576d815726p+1021", "0x1.c7b1f3cac7433p+1022"),
         ("-0x1.55c576d815726p+1021", "-0x1.c7b1f3cac7433p+1022")],
        [("-0x1.55c576d815726p+1021", "-0x1.c7b1f3cac7433p+1022"),
         ("-0x1.55c576d815726p+1021", "0x1.c7b1f3cac7433p+1022"),
         ("0x1.394a579b68fe3p+1023", "-0x1.72409614c1e68p+1022"),
         ("0x1.394a579b68fe3p+1023", "0x1.72409614c1e68p+1022")],
        (1, 1, 1, 1)),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_eigen_keeps_the_recorded_bits(monkeypatch, name):
    M, eigvals, want, multiplicities = _PINNED[name]
    w = np.array([complex(float.fromhex(z[0]), float.fromhex(z[1])) if isinstance(z, tuple)
                  else float.fromhex(z) for z in eigvals])
    # the eigenvalues of the matrix eigen passes, M or M * 2**-64
    at = np.argmax(np.abs(M))
    monkeypatch.setattr(np.linalg, "eigvals", lambda A: w * (A.flat[at] / M.flat[at]))
    with np.errstate(over="ignore"):  # the row sums of row_sum_overflows
        norm = float(np.linalg.norm(M, np.inf))
        sp = eigen(M)
        if math.isfinite(norm):   # scaled or not
            assert sp.radius == 1e-6 * (1.0 + norm)
        else:   # that of the scaled matrix, scaled back
            assert sp.radius == 1e-6 * float(np.linalg.norm(M * 2.0**-64, np.inf)) * 2.0**64
        assert math.isfinite(sp.radius)
    assert [(v.real.hex(), v.imag.hex()) for v in sp.eigenvalues] == want
    assert sp.multiplicities == multiplicities


@pytest.mark.parametrize("name", ["row_sum_overflows", "modulus_overflows"])
def test_eigen_of_finite_entries_is_finite(name):
    # LAPACK's own eigenvalues of a matrix whose row sums or eigenvalue
    # sums would overflow: the radius and every eigenvalue stay finite, and
    # the conjugate pairs stay apart
    M = _PINNED[name][0]
    with np.errstate(over="ignore"):
        sp = eigen(M)
    assert math.isfinite(sp.radius)
    assert all(math.isfinite(v.real) and math.isfinite(v.imag) for v in sp.eigenvalues)
    assert sp.multiplicities == (1,) * len(M)
    assert {v.conjugate() for v in sp.eigenvalues} == set(sp.eigenvalues)


@pytest.mark.parametrize("name", ["row_sum_overflows", "modulus_overflows"])
def test_hautus_of_an_overflowing_norm(name):
    # past EIGEN_SCALE_NORM the stack is tested scaled as eigen scales M,
    # where row_sum_overflows' threshold and LAPACK's SVD of M - lam*I
    # would overflow: an output row of 1e308 on the first state observes
    # the right-half-plane pair, a zero row observes nothing
    M = _PINNED[name][0]
    with np.errstate(over="ignore"):
        sp = eigen(M)
        assert hautus_detectable(np.eye(1, len(M)) * 1e308, M, sp)
        assert not hautus_detectable(np.zeros((1, len(M))), M, sp)


def test_cond_is_numpys_bit_for_bit():
    rng = np.random.default_rng(29)
    for case in range(300):
        k = int(rng.integers(1, 9))
        M = rng.uniform(-3, 3, (k, k))
        if case % 3 == 1:  # rank one
            M = M[:, :1] @ M[:1, :]
        elif case % 3 == 2:
            M = np.zeros((k, k))
        for X in (M, M + 1j * rng.uniform(-3, 3, (k, k)) * (case % 3 != 2)):
            assert np.float64(specan._cond(X)).tobytes() == np.linalg.cond(X).tobytes(), (case, X)


def _on_axis_matrix(rng):
    """A real matrix with a random Jordan structure on the imaginary axis
    (now and then off it, or with a frequency of geometric multiplicity
    2), carried by three elementary similarities with integer factors:
    every entry is an exact small integer, whatever the BLAS kernel."""
    blocks = [np.eye(int(rng.integers(1, 3)), k=1)] if rng.random() < 0.4 else []
    for _ in range(int(rng.integers(1, 3))):
        w, m = float(rng.integers(1, 4)), int(rng.integers(1, 3))
        blocks.append(np.kron(np.eye(m), _rot(0.0, w)) + np.kron(np.eye(m, k=1), np.eye(2)))
    if rng.random() < 0.1:
        blocks.append(_rot(-1.0, 2.0))
    S = _blocks(*blocks)
    for _ in range(3):
        i, j = rng.choice(len(S), 2, replace=False)
        c = float(rng.choice([-1.0, 1.0]))
        S[i] += c * S[j]
        S[:, j] -= c * S[:, i]
    return S


def _small_matrix_layer(seed):
    """What eigen, hautus_detectable, transfer_function, jordan_structure
    and solve_linear_regulator give on one seeded input: float hex, array
    bytes and error messages."""
    rng = np.random.default_rng(seed)
    S = _on_axis_matrix(rng)
    n, p = int(rng.integers(1, 5)), len(S)
    lin = LinearizedData(A=rng.uniform(-2, 2, (n, n)) - 3 * np.eye(n),
                         B=rng.uniform(-1, 1, (n, 1)), P=rng.uniform(-1, 1, (n, p)),
                         C=rng.uniform(-1, 1, (1, n)), D=rng.uniform(-1, 1, (1, 1)),
                         Q=rng.uniform(-1, 1, (1, p)) * (rng.random(p) < 0.7), S=S)

    def attempt(f, *args):
        try:
            return f(*args)
        except (SpectralError, SynthesisError) as exc:
            return str(exc)

    sp = eigen(S)
    out = [[(v.real.hex(), v.imag.hex()) for v in sp.eigenvalues], sp.multiplicities,
           sp.radius.hex(), hautus_detectable(lin.Q, S, sp)]
    M = np.block([[lin.A, lin.P], [np.zeros((p, n)), S]])
    out.append(hautus_detectable(np.hstack([lin.C, lin.Q]), M, eigen(M)))
    for v in sp.eigenvalues:
        g = attempt(transfer_function, lin, complex(0.0, v.imag))
        out.append(g if isinstance(g, str) else (g.real.hex(), g.imag.hex()))
    jd = attempt(jordan_structure, S, sp)
    out.append(jd if isinstance(jd, str) else (
        [a.hex() for a in jd.frequencies], jd.multiplicities, jd.T.tobytes(), jd.J.tobytes()))
    sol = attempt(solve_linear_regulator, lin)
    out.append(sol if isinstance(sol, str) else [a.tobytes() for a in sol])
    return out


# sha256 of repr([_small_matrix_layer(seed) for seed in range(200)]) as
# the functions gave it before their per-call numpy overhead was cut, for
# each OpenBLAS kernel whose LAPACK digits were recorded
_SMALL_MATRIX_LAYER_SHA256 = {
    "SkylakeX": "4449fa159d95142f5d0fe6af72af9cfc416f478c815f701698f8e06fb9ebd15e",
    "Haswell": "b01e0c4d53e9607bd7d203fa76e5ac858ebf29636fd33976249eec769955bc77",
}


def test_small_matrix_layer_keeps_the_recorded_bits():
    kernel = openblas_kernel()
    if kernel not in _SMALL_MATRIX_LAYER_SHA256:
        pytest.skip(f"no recorded digest for the OpenBLAS kernel {kernel}")
    outputs = [_small_matrix_layer(seed) for seed in range(200)]
    assert sum(isinstance(o[-2], str) for o in outputs) > 10  # some Jordan failures
    assert sum(not isinstance(o[-2], str) for o in outputs) > 100
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == _SMALL_MATRIX_LAYER_SHA256[kernel]
