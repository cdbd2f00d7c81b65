"""Internal-model input vector construction and linearized regulator solves.

Builds the controller input vector B_c from the Jordan structure of the
internal model, assembles the closed-loop linearization, checks the
detectability / transfer-function conditions and solves the linearized
regulator equations for (Pi, Gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import expr, specan
from .model import ControllerModel, LinearizedData, w_names, xi_names
from .specan import JordanData, SpectralError, Spectrum

TF_ZERO_TOL = 1e-9


class SynthesisError(Exception):
    pass


@dataclass(frozen=True)
class InternalModel:
    """Linear internal model dxi = Phi xi + Bc e, u = Lambda xi.

    Phi and Lambda are the linearization at 0 of a controller's (phi,
    lambda) or given directly; nu = Phi.shape[0].  synthesize replaces a
    controller's Bc by the one it builds.
    """

    Phi: np.ndarray      # nu x nu
    Lambda: np.ndarray   # 1 x nu
    Bc: np.ndarray       # nu x 1

    nu = property(lambda self: self.Phi.shape[0])

    def __post_init__(self):
        nu = self.nu
        if (self.Phi.shape, self.Lambda.shape, self.Bc.shape) != ((nu, nu), (1, nu), (nu, 1)):
            raise SynthesisError("internal model shape mismatch")

    @classmethod
    def from_controller(cls, ctrl: ControllerModel):
        return cls(ctrl.Phi, ctrl.Lambda, np.asarray(ctrl.Bc, dtype=float).reshape(-1, 1))


@dataclass(frozen=True)
class ConditionFlags:
    """Checkable hypotheses for the low-order controller construction."""

    plant_stable: bool
    detectable: bool
    tf_nonzero: bool
    spectrum_on_axis: bool
    spectrum: Spectrum  # of Phi
    tf_values: dict = field(default_factory=dict)  # eigenvalue -> G(eigenvalue)

    @property
    def all_pass(self):
        return (self.plant_stable and self.detectable and self.tf_nonzero
                and self.spectrum_on_axis)


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of synthesize; eps, Bc and abscissa are set on success."""

    success: bool
    flags: ConditionFlags
    message: str = ""
    coefficients: dict = field(default_factory=dict)  # block index j -> a_j1..a_jmj
    eps: float | None = None
    Bc: np.ndarray | None = None
    abscissa: float | None = None


def closed_loop_matrix(lin: LinearizedData, im: InternalModel) -> np.ndarray:
    """State matrix [[A, B*Lambda], [Bc*C, Phi + Bc*D*Lambda]] of the
    linearized unforced closed loop."""
    n = lin.n
    out = np.empty((n + im.nu, n + im.nu))
    out[:n, :n], out[:n, n:] = lin.A, lin.B @ im.Lambda
    out[n:, :n], out[n:, n:] = im.Bc @ lin.C, im.Phi + im.Bc @ lin.D @ im.Lambda
    return out


def verify_conditions(lin: LinearizedData, im: InternalModel,
                      plant_abscissa: float) -> ConditionFlags:
    """Report on: A Hurwitz (from the caller's spectral abscissa of A),
    (Lambda, Phi) detectable, G(p) != 0 at every imaginary-axis eigenvalue
    p of Phi, and whether spec(Phi) lies on the imaginary axis."""
    plant_stable = plant_abscissa < 0
    sp = specan.eigen(im.Phi)
    detectable = specan.hautus_detectable(im.Lambda, im.Phi, sp)
    on_axis = all(abs(v.real) <= sp.radius for v in sp.eigenvalues)
    tf_values = {}
    tf_nonzero = True
    for v in sp.eigenvalues:
        if abs(v.real) > sp.radius:
            continue
        z = complex(0.0, v.imag)
        try:
            g = specan.transfer_function(lin, z)
        except SpectralError:
            tf_nonzero = False
            continue
        tf_values[z] = g
        if not TF_ZERO_TOL < specan._modulus(g) < math.inf:  # NaN, inf or too large
            tf_nonzero = False
    return ConditionFlags(plant_stable, detectable, tf_nonzero, on_axis, sp, tf_values)


def choose_block_coefficients(mj: int, Gj: complex):
    """Coefficients a_j1..a_jmj making z^mj + Gj * sum a_jk z^(mj-k) Hurwitz.

    Deterministic canonical choice: for mj = 1, a = conj(G)/|G|^2 so the
    closed polynomial is z + 1; for mj >= 2 the zeros are placed at the
    Butterworth positions of radius 1.  For a real Gj the coefficients are
    real.
    """
    if Gj == 0:
        raise SynthesisError("transfer function vanishes at block frequency")
    if mj == 1:
        try:
            return [np.conj(Gj) / abs(Gj) ** 2]
        except OverflowError:
            raise SynthesisError("|G|^2 overflows at block frequency") from None
    roots = [np.exp(1j * np.pi * (2 * k + mj - 1) / (2 * mj)) for k in range(1, mj + 1)]
    coeffs = np.poly(roots)  # monic, length mj+1
    coeffs = np.real_if_close(coeffs, tol=1e6)
    a = [complex(c) / Gj for c in coeffs[1:]]
    if isinstance(Gj, (int, float)) or (isinstance(Gj, complex) and Gj.imag == 0):
        a = [complex(x.real, 0.0) for x in a]
    return a


def build_Bc(jd: JordanData, Cc, eps: float, coeffs: dict) -> np.ndarray:
    """Input vector Bc from the Jordan data of the internal model.

    Cc is the 1 x p output row; coeffs maps the index j of each nonnegative
    frequency (in jd.frequencies order) to its a_j1..a_jmj list.  Walks the
    blocks in the JordanData column order, solves each block's triangular
    system by back-substitution, mirrors it into the conjugate block and
    returns the (real) Bc = T @ b_hat.
    """
    Cc = np.atleast_2d(np.asarray(Cc, dtype=float))
    p = jd.T.shape[0]
    Chat = (Cc @ jd.T).ravel()
    b_hat = np.zeros(p, dtype=complex)
    s = 0  # first column of block j
    for j, (alpha, m) in enumerate(zip(jd.frequencies, jd.multiplicities)):
        a = list(coeffs[j])
        if len(a) != m:
            raise SynthesisError(f"block {j}: expected {m} coefficients, got {len(a)}")
        c = Chat[s:s + m]
        if abs(c[0]) < 1e-12 * max(1.0, float(np.max(np.abs(Chat)))):
            raise SynthesisError(
                f"block {j}: leading Jordan coordinate of Cc vanishes "
                "(detectability violated numerically)")
        b_blk = np.zeros(m, dtype=complex)
        try:
            # an overflow is reported by the finiteness check below
            with np.errstate(over="ignore", invalid="ignore"):
                b_blk[m - 1] = -(eps ** m) * a[m - 1] / c[0]
                for k in range(m - 1, 0, -1):  # k = m-1 .. 1 (1-based)
                    acc = a[k - 1] * eps ** k
                    for ell in range(2, m - k + 2):
                        acc += c[ell - 1] * b_blk[(ell + k - 1) - 1]
                    b_blk[k - 1] = -acc / c[0]
        except OverflowError:
            raise SynthesisError(f"block {j}: eps^{m} overflows at eps = {eps:.17g}") from None
        if not np.all(np.isfinite(b_blk)):
            raise SynthesisError(f"block {j}: Bc overflows at eps = {eps:.17g}")
        b_hat[s:s + m] = b_blk
        s += m
        if alpha > 0:
            b_hat[s:s + m] = np.conj(b_blk)
            s += m
    Bc = jd.T @ b_hat
    imag_resid = float(np.max(np.abs(Bc.imag)))
    if not imag_resid <= 1e-8 * (1.0 + float(np.max(np.abs(Bc.real)))):
        raise SynthesisError(f"imaginary residue {imag_resid} in Bc too large")
    return np.real(Bc).reshape(-1, 1)


def synthesize(lin: LinearizedData, im: InternalModel, eps0=1.0, factor=0.5,
               max_halvings=40, margin=1e-6) -> SynthesisReport:
    """Scan eps = eps0, eps0*factor, ... until the closed loop is Hurwitz.

    Requires the verification flags (plant stable, detectable, transfer
    function nonzero) and spec(Phi) on the imaginary axis; Cc := Lambda.
    The scan is sequential so the first success is deterministic.
    """
    flags = verify_conditions(lin, im, specan.spectral_abscissa(lin.A))
    if not flags.all_pass:
        failed = [n for n, ok in (("plant_stable", flags.plant_stable),
                                  ("detectable", flags.detectable),
                                  ("tf_nonzero", flags.tf_nonzero),
                                  ("spectrum_on_axis", flags.spectrum_on_axis)) if not ok]
        return SynthesisReport(False, flags, f"verification failed: {', '.join(failed)}")
    try:
        jd = specan.jordan_structure(im.Phi, flags.spectrum)
        coeffs = {}
        # jd's frequencies are those of flags.spectrum, so each has a G value
        for j, alpha in enumerate(jd.frequencies):
            g = flags.tf_values[complex(0.0, alpha)]
            if alpha == 0:
                # G(0) of a real system is real; drop rounding residue so the
                # zero-frequency block gets real coefficients
                g = complex(g.real, 0.0)
            coeffs[j] = choose_block_coefficients(jd.multiplicities[j], g)
    except SpectralError as exc:
        return SynthesisReport(False, flags, f"Jordan structure failed: {exc}")
    except SynthesisError as exc:
        return SynthesisReport(False, flags, str(exc))
    eps = eps0
    for halvings in range(max_halvings + 1):
        if eps == 0:
            # Bc = 0 from here on: the same closed loop at every later trial
            return SynthesisReport(False, flags,
                                   f"eps underflows to 0 after {halvings} halvings", coeffs)
        try:
            Bc = build_Bc(jd, im.Lambda, eps, coeffs)
        except SynthesisError as exc:
            return SynthesisReport(False, flags, str(exc), coeffs)
        absc = specan.spectral_abscissa(closed_loop_matrix(lin, replace(im, Bc=Bc)))
        if absc < -margin:
            return SynthesisReport(True, flags, coefficients=coeffs, eps=eps, Bc=Bc, abscissa=absc)
        eps *= factor
    return SynthesisReport(False, flags,
                           f"no stabilizing eps found in {max_halvings} halvings", coeffs)


def solve_linear_regulator(lin: LinearizedData):
    """Solve Pi S = A Pi + B Gamma + P and C Pi + D Gamma + Q = 0 as one
    dense linear system by vectorization.  Returns (Pi, Gamma)."""
    n, p = lin.n, lin.p
    In, Ip = np.eye(n), np.eye(p)
    # unknowns: vec(Pi) (column-major, n*p) then Gamma^T (p)
    top = np.hstack([np.kron(lin.S.T, In) - np.kron(Ip, lin.A), -np.kron(Ip, lin.B)])
    bot = np.hstack([np.kron(Ip, lin.C), lin.D[0, 0] * Ip])
    Msys = np.vstack([top, bot])
    rhs = np.concatenate([lin.P.flatten(order="F"), -lin.Q.ravel()])
    cond = specan._cond(Msys)
    if not cond <= specan.COND_CAP:
        raise SynthesisError(
            f"linearized regulator system is singular or ill-conditioned (cond ~ {cond:.3e})")
    sol = np.linalg.solve(Msys, rhs)
    Pi = sol[:n * p].reshape((n, p), order="F")
    Gamma = sol[n * p:].reshape(1, p)
    return Pi, Gamma


def internal_model_copy_of_exosystem(lin: LinearizedData, exo_exprs, Gamma):
    """ControllerModel whose phi copies the exosystem map and whose lambda is
    the linear feedforward Gamma * xi (used when gamma is only known through
    its linearization); Bc is zero."""
    p = lin.p
    names = xi_names(p)
    to_xi = {w: expr.Var(xi) for w, xi in zip(w_names(p), names)}
    phi = tuple(expr.substitute(e, to_xi) for e in exo_exprs)
    terms = [expr.Bin("*", expr.Num(float(g)), expr.Var(xi)) for g, xi in zip(Gamma[0], names)]
    lam = reduce(lambda acc, t: expr.Bin("+", acc, t), terms)
    return ControllerModel(phi, lam, (0.0,) * p)
