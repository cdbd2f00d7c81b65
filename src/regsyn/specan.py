"""Dense spectral analysis for small, well-scaled real matrices.

Eigenvalues (with clustered multiplicities), the spectral abscissa, the
Hautus detectability test, transfer-function evaluation and Jordan
structure of exosystem matrices.  Eigenvalue work is delegated to LAPACK
via numpy; the contracts and tolerances here are what the rest of the
toolkit relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LinearizedData

COND_CAP = 1e12
# eigen analyses a matrix whose inf-norm is past this (or overflows) scaled
# by 2**-64, so that the radius, the sums of two eigenvalues that a cluster
# mean or a conjugate pair's midpoint takes and the distance between two
# stay in range for matrices of up to 2**23 rows
EIGEN_SCALE_NORM = 2.0**1000
# Hautus test: [M - lam*I; Cm] counts as rank deficient when its smallest
# singular value is at most HAUTUS_TOL * ||M||_inf
HAUTUS_TOL = 1e-9


class SpectralError(Exception):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues with algebraic multiplicities.

    radius is the matrix's one axis tolerance: eigenvalues closer than it
    are one cluster, and a real part within it counts as on the imaginary
    axis.
    """

    eigenvalues: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    radius: float


def _norm_inf(M):
    """np.linalg.norm(M, inf) by the one reduction it runs."""
    return float(np.abs(M).sum(axis=1).max())


def _modulus(z):
    """abs(z), or numpy's inf where Python's abs of a finite complex
    overflows and raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _cluster(values, radius, complex_mean):
    """Greedy clustering of complex values into [center, sum, count]
    lists.  A center is the running sum of its members over their count,
    divided with complex_mean as numpy divides a complex128 by a count
    (Python's division rounds otherwise)."""
    clusters = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if _modulus(v - cl[0]) <= radius:
                s, n = cl[1] + v, cl[2] + 1
                r = 1.0 / n
                cl[:] = (complex((s.real + s.imag * 0.0) * r, (s.imag - s.real * 0.0) * r)
                         if complex_mean else s / n), s, n
                break
        else:
            clusters.append([v, (0j if complex_mean else 0.0) + v, 1])
    return clusters


def eigen(M) -> Spectrum:
    """Eigenvalues of a real square matrix, clustered and conjugate-paired."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise SpectralError("expected a square matrix of dimension >= 1")
    norm = _norm_inf(M)
    if not norm <= EIGEN_SCALE_NORM:
        # a finite norm has finite entries; finite rows may sum past the range
        if not np.isfinite(M).all():
            raise SpectralError("matrix has non-finite entries")
        # the spectrum of M * 2**-64, scaled back; the scaling rounds no
        # entry above 2**-958, and a finite norm keeps its radius's bits
        sp = eigen(M * 2.0**-64)
        return Spectrum(tuple(complex(v.real * 2.0**64, v.imag * 2.0**64)
                              for v in sp.eigenvalues), sp.multiplicities, sp.radius * 2.0**64)
    radius = 1e-6 * (1.0 + norm)
    w = np.linalg.eigvals(M)
    # snap near-real clusters to the real axis; mirror conjugate pairs
    out = [(complex(c.real, 0.0) if abs(c.imag) <= radius else c, m)
           for c, _, m in _cluster(w.tolist(), radius, w.dtype.kind == "c")]
    used = [False] * len(out)
    for i, (c, m) in enumerate(out):
        if used[i] or c.imag <= 0:
            continue
        for j, (c2, m2) in enumerate(out):
            if not used[j] and c2.imag < 0 and _modulus(c2 - c.conjugate()) <= 2 * radius:
                mid = complex((c.real + c2.real) / 2, (c.imag - c2.imag) / 2)
                out[i], out[j] = (mid, m), (mid.conjugate(), m2)
                used[i] = used[j] = True
                break
    vals, mults = zip(*sorted(out, key=lambda t: (t[0].real, t[0].imag)))
    return Spectrum(tuple(vals), tuple(mults), radius)


def spectral_abscissa(M) -> float:
    sp = eigen(M)
    return max(v.real for v in sp.eigenvalues)


def hautus_detectable(Cm, M, sp: Spectrum) -> bool:
    """Hautus/PBH test: [M - lam*I; Cm] full column rank at every eigenvalue
    of M (sp = eigen(M)) in the closed right half-plane."""
    Cm = np.atleast_2d(np.asarray(Cm, dtype=float))
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    if Cm.shape[1] != k:
        raise SpectralError("dimension mismatch in Hautus test")
    norm, scale = _norm_inf(M), 1.0
    if not norm <= EIGEN_SCALE_NORM:
        # as eigen does, the stack and each eigenvalue scaled by 2**-64, so
        # that neither the threshold nor the SVD overflows; a common scale
        # leaves the rank decision as it is
        scale = 2.0**-64
        M, Cm = M * scale, Cm * scale
        norm = _norm_inf(M)
    thresh = HAUTUS_TOL * norm
    stacked = np.empty((k + Cm.shape[0], k), dtype=complex)  # [M - lam*I; Cm]
    stacked[k:] = Cm
    eye = np.eye(k)
    for lam in sp.eigenvalues:
        if lam.real < -sp.radius:
            continue
        np.subtract(M, complex(lam.real * scale, lam.imag * scale) * eye, out=stacked[:k])
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        if not smin > thresh:
            return False
    return True


def _cond(M) -> float:
    """np.linalg.cond(M) from its one SVD: s[0] / s[-1], inf for s[-1] = 0
    and for a NaN ratio of a matrix without NaN entries."""
    s = np.linalg.svd(M, compute_uv=False).tolist()
    r = s[0] / s[-1] if s[-1] != 0 else math.inf
    return math.inf if r != r and not np.isnan(M).any() else r


def transfer_function(lin: LinearizedData, z: complex) -> complex:
    """G(z) = C (zI - A)^{-1} B + D, by one linear solve."""
    zIA = z * np.eye(lin.n) - lin.A
    if _cond(zIA) > COND_CAP:
        raise SpectralError(f"z = {z} is too close to an eigenvalue of A")
    x = np.linalg.solve(zIA, lin.B.astype(complex))
    return complex((lin.C @ x)[0, 0] + lin.D[0, 0])


@dataclass(frozen=True)
class JordanData:
    """Jordan structure of an exosystem matrix with imaginary-axis spectrum.

    frequencies holds alpha_j >= 0 in ascending order (alpha_0 = 0 present
    only if 0 is an eigenvalue) and multiplicities the matching block sizes.
    The columns of T and J are laid out block after block: the block of 0
    first if present, then for each alpha_j > 0 the block of +i*alpha_j
    followed by its conjugate block of -i*alpha_j, each of size m_j.  A
    running column offset over zip(frequencies, multiplicities) therefore
    finds every block.
    """

    frequencies: tuple[float, ...]
    multiplicities: tuple[int, ...]
    T: np.ndarray  # complex p x p generalized eigenvectors
    J: np.ndarray  # complex p x p upper-triangular Jordan form


def _extend_chain(E, v1, m, rcond, what):
    """Chain v1..vm with E v_k = v_(k-1), through the pseudo-inverse of E
    (cut-off rcond); raises SpectralError(what) when a step has no
    solution."""
    chain = [v1]
    Epinv = np.linalg.pinv(E, rcond=rcond) if m > 1 else None
    for _ in range(1, m):
        v = Epinv @ chain[-1]
        if np.linalg.norm(E @ v - chain[-1]) > 1e-6 * np.linalg.norm(chain[-1]):
            raise SpectralError(what)
        chain.append(v)
    return chain


def jordan_structure(S, sp: Spectrum, tol=1e-8) -> JordanData:
    """Jordan form of a real matrix S (sp = eigen(S)) whose spectrum lies on
    the imaginary axis and whose eigenvalues all have geometric
    multiplicity 1."""
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    for lam in sp.eigenvalues:
        if abs(lam.real) > max(tol, sp.radius):
            raise SpectralError(f"off-axis eigenvalue {lam}")
    # nonnegative frequencies, zero first then ascending
    pos = [(lam.imag, m) for lam, m in zip(sp.eigenvalues, sp.multiplicities)
           if lam.imag >= 0]
    pos.sort(key=lambda t: t[0])
    freqs = tuple(a for a, _ in pos)
    mults = tuple(m for _, m in pos)
    if sum(m if a == 0 else 2 * m for a, m in pos) != p:
        raise SpectralError("multiplicities inconsistent with conjugate pairing")

    blocks = []  # (eigenvalue, chain) in the column order of JordanData
    Sc, eye = S.astype(complex), np.eye(p)
    for alpha, m in pos:
        lam = 1j * alpha
        E = Sc - lam * eye
        _, sv, Vh = np.linalg.svd(E)
        kernel_dim = int(np.sum(sv <= tol * max(1.0, sv[0])))
        if kernel_dim != 1:
            raise SpectralError(
                f"eigenvalue {lam}: geometric multiplicity {kernel_dim} != 1")
        v1 = Vh[-1].conj()
        if alpha == 0:
            # real eigenvalue of a real matrix: the chain can be taken real
            v1 = (np.real(v1) if np.linalg.norm(np.imag(v1)) < np.linalg.norm(v1) * 0.5
                  else np.imag(v1))
            blocks.append((lam, _extend_chain(S, v1, m, None,
                                              "real Jordan chain broke down")))
        else:
            chain = _extend_chain(E, v1, m, tol, f"eigenvalue {lam}: Jordan chain broke down")
            blocks.append((lam, chain))
            blocks.append((lam.conjugate(), [np.conj(v) for v in chain]))
    T = np.column_stack([v for _, chain in blocks for v in chain]).astype(complex)
    eigs = [lam for lam, chain in blocks for _ in chain]
    inner = [float(k > 0) for _, chain in blocks for k in range(len(chain))]
    # superdiagonal 1s inside each block, none between two blocks
    J = np.diag(np.asarray(eigs, dtype=complex)) + np.diag(inner[1:], 1)
    if _cond(T) > COND_CAP:
        raise SpectralError("ill-conditioned generalized eigenvector matrix")
    if _norm_inf(S @ T - T @ J) > 1e-8 * max(_norm_inf(S), 1.0):
        raise SpectralError("Jordan factorization residual too large")
    return JordanData(freqs, mults, T, J)
