"""Dense spectral analysis for small, well-scaled real matrices.

Eigenvalues (with clustered multiplicities), stability margins, the Hautus
detectability test, transfer-function evaluation and Jordan structure of
exosystem matrices.  Eigenvalue work is delegated to LAPACK via numpy; the
contracts and tolerances here are what the rest of the toolkit relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinearizedData

COND_CAP = 1e12


class SpectralError(Exception):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues with algebraic multiplicities."""

    eigenvalues: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.multiplicities):
            raise SpectralError("eigenvalue/multiplicity length mismatch")


def cluster_radius(M):
    return 1e-6 * (1.0 + float(np.linalg.norm(M, np.inf)))


def _cluster(values, radius):
    """Greedy clustering of complex values; returns (centers, counts)."""
    centers, members = [], []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for k, c in enumerate(centers):
            if abs(v - c) <= radius:
                members[k].append(v)
                centers[k] = sum(members[k]) / len(members[k])
                break
        else:
            centers.append(v)
            members.append([v])
    return centers, [len(m) for m in members]


def eigen(M) -> Spectrum:
    """Eigenvalues of a real square matrix, clustered and conjugate-paired."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise SpectralError("expected a square matrix of dimension >= 1")
    if not np.all(np.isfinite(M)):
        raise SpectralError("matrix has non-finite entries")
    radius = cluster_radius(M)
    centers, counts = _cluster(np.linalg.eigvals(M), radius)
    # snap near-real clusters to the real axis; mirror conjugate pairs
    out = []
    for c, m in zip(centers, counts):
        if abs(c.imag) <= radius:
            c = complex(c.real, 0.0)
        out.append((c, m))
    paired = []
    used = [False] * len(out)
    for i, (c, m) in enumerate(out):
        if used[i] or c.imag <= 0:
            continue
        for j, (c2, m2) in enumerate(out):
            if not used[j] and c2.imag < 0 and abs(c2 - c.conjugate()) <= 2 * radius:
                mid = complex((c.real + c2.real) / 2, (c.imag - c2.imag) / 2)
                paired.append((i, mid))
                paired.append((j, mid.conjugate()))
                used[i] = used[j] = True
                break
    for idx, val in paired:
        out[idx] = (val, out[idx][1])
    vals, mults = zip(*sorted(out, key=lambda t: (t[0].real, t[0].imag)))
    return Spectrum(tuple(vals), tuple(mults))


def spectral_abscissa(M) -> float:
    sp = eigen(M)
    return max(v.real for v in sp.eigenvalues)


def is_hurwitz(M, margin=0.0) -> bool:
    if margin < 0:
        raise SpectralError("margin must be nonnegative")
    return spectral_abscissa(M) < -margin


def hautus_detectable(Cm, M, tol=1e-9) -> bool:
    """Hautus/PBH test: [M - lam*I; Cm] full column rank at every eigenvalue
    of M in the closed right half-plane."""
    Cm = np.atleast_2d(np.asarray(Cm, dtype=float))
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    if Cm.shape[1] != k:
        raise SpectralError("dimension mismatch in Hautus test")
    radius = cluster_radius(M)
    thresh = tol * float(np.linalg.norm(M, np.inf))
    for lam in eigen(M).eigenvalues:
        if lam.real < -radius:
            continue
        stacked = np.vstack([M - lam * np.eye(k), Cm.astype(complex)])
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        if not smin > thresh:
            return False
    return True


def transfer_function(lin: LinearizedData, z: complex) -> complex:
    """G(z) = C (zI - A)^{-1} B + D, by one linear solve."""
    A = lin.A
    zIA = z * np.eye(lin.n) - A
    if np.linalg.cond(zIA) > COND_CAP:
        raise SpectralError(f"z = {z} is too close to an eigenvalue of A")
    x = np.linalg.solve(zIA, lin.B.astype(complex))
    return complex((lin.C @ x)[0, 0] + lin.D[0, 0])


@dataclass(frozen=True)
class JordanData:
    """Jordan structure of an exosystem matrix with imaginary-axis spectrum.

    Blocks are ordered (J_0, J_1, J_-1, ..., J_q, J_-q) where J_j and J_-j
    belong to +i*alpha_j and -i*alpha_j.  frequencies holds alpha_j >= 0
    (alpha_0 = 0 present only if 0 is an eigenvalue) and multiplicities the
    matching block sizes.
    """

    frequencies: tuple[float, ...]
    multiplicities: tuple[int, ...]
    T: np.ndarray  # complex p x p generalized eigenvectors
    J: np.ndarray  # complex p x p upper-triangular Jordan form
    block_starts: tuple[int, ...]  # column offset of each block, same order
    block_eigs: tuple[complex, ...]  # eigenvalue of each block, same order


def _jordan_chain(S, lam, m, tol):
    """Generalized eigenvector chain v1..vm for eigenvalue lam (geometric
    multiplicity 1)."""
    k = S.shape[0]
    E = S.astype(complex) - lam * np.eye(k)
    U, sv, Vh = np.linalg.svd(E)
    kernel_dim = int(np.sum(sv <= tol * max(1.0, sv[0] if len(sv) else 1.0)))
    if kernel_dim != 1:
        raise SpectralError(
            f"eigenvalue {lam}: geometric multiplicity {kernel_dim} != 1")
    chain = [Vh[-1].conj()]
    Epinv = np.linalg.pinv(E, rcond=tol)
    for _ in range(1, m):
        v = Epinv @ chain[-1]
        if np.linalg.norm(E @ v - chain[-1]) > 1e-6 * np.linalg.norm(chain[-1]):
            raise SpectralError(f"eigenvalue {lam}: Jordan chain broke down")
        chain.append(v)
    return chain


def jordan_structure(S, tol=1e-8) -> JordanData:
    """Jordan form of a real matrix whose spectrum lies on the imaginary axis
    and whose eigenvalues all have geometric multiplicity 1."""
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    sp = eigen(S)
    radius = cluster_radius(S)
    for lam in sp.eigenvalues:
        if abs(lam.real) > max(tol, radius):
            raise SpectralError(f"off-axis eigenvalue {lam}")
    # nonnegative frequencies, zero first then ascending
    pos = [(lam.imag, m) for lam, m in zip(sp.eigenvalues, sp.multiplicities)
           if lam.imag >= 0]
    pos.sort(key=lambda t: t[0])
    freqs = tuple(a for a, _ in pos)
    mults = tuple(m for _, m in pos)
    if sum(m if a == 0 else 2 * m for a, m in pos) != p:
        raise SpectralError("multiplicities inconsistent with conjugate pairing")

    cols, block_starts, block_eigs, diag = [], [], [], []
    offset = 0
    for alpha, m in pos:
        lam = 1j * alpha
        chain = _jordan_chain(S, lam, m, tol)
        if alpha == 0:
            # real eigenvalue of a real matrix: chain can be taken real
            chain = [np.real(v) if np.linalg.norm(np.imag(v)) < np.linalg.norm(v) * 0.5
                     else np.imag(v) for v in chain]
            chain = _rechain_real(S, chain, m)
            block_starts.append(offset)
            block_eigs.append(lam)
            cols.extend(np.asarray(v, dtype=complex) for v in chain)
            diag.extend([lam] * m)
            offset += m
        else:
            block_starts.append(offset)
            block_eigs.append(lam)
            cols.extend(chain)
            diag.extend([lam] * m)
            offset += m
            block_starts.append(offset)
            block_eigs.append(lam.conjugate())
            cols.extend(np.conj(v) for v in chain)
            diag.extend([lam.conjugate()] * m)
            offset += m
    T = np.column_stack(cols)
    J = np.diag(np.asarray(diag, dtype=complex))
    # superdiagonal 1s inside each block
    start_iter = list(block_starts) + [p]
    for b, s in enumerate(block_starts):
        end = start_iter[b + 1]
        for c in range(s + 1, end):
            J[c - 1, c] = 1.0
    if np.linalg.cond(T) > COND_CAP:
        raise SpectralError("ill-conditioned generalized eigenvector matrix")
    nS = float(np.linalg.norm(S, np.inf))
    if np.linalg.norm(S @ T - T @ J, np.inf) > 1e-8 * max(nS, 1.0):
        raise SpectralError("Jordan factorization residual too large")
    return JordanData(freqs, mults, T, J, tuple(block_starts), tuple(block_eigs))


def _rechain_real(S, chain, m):
    """Recompute a real Jordan chain from a real first vector (eigenvalue 0)."""
    if m == 1:
        return [chain[0]]
    E = S.astype(float)
    v1 = chain[0]
    out = [v1]
    Epinv = np.linalg.pinv(E)
    for _ in range(1, m):
        v = Epinv @ out[-1]
        if np.linalg.norm(E @ v - out[-1]) > 1e-6 * np.linalg.norm(out[-1]):
            raise SpectralError("real Jordan chain broke down")
        out.append(v)
    return out
