"""Quantum-state and Hamiltonian domain types.

Pure-state preparation on the Bloch sphere, density-operator validation,
internal energy, and (possibly time-dependent) Hamiltonians whose entries
are expressions over t.  Hermiticity of a Hamiltonian is enforced by
construction: only the diagonal and the upper triangle are stored, the
lower triangle is their conjugate.

``CheckResult`` is the one record of a measured value against its bound:
``validate_density`` returns three, every ``verify`` check returns a list
of them and each line of a figure report is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cxmat, exprparse


@dataclass(frozen=True)
class DensityOperator:
    """Thin wrapper around a square complex matrix or a (T, d, d) stack of them.

    Construction only checks shape and finiteness; the physics invariants
    (Hermitian, unit trace, positive semidefinite) are checked by
    validate_density so that deliberately broken inputs can still be built
    and reported on.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = cxmat.as_matrix(self.matrix)
        if m.shape[-2] != m.shape[-1]:
            raise cxmat.ShapeError(f"density operator must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def prepare_pure_state(theta: float, phi: float = 0.0) -> DensityOperator:
    """Rank-1 projector |psi><psi| of cos(theta)|g> + e^{i phi} sin(theta)|e>."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    if not 0.0 <= phi < 2 * math.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    amp = np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)], dtype=np.complex128)
    return DensityOperator(np.outer(amp, amp.conj()))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured={self.measured:.3e} bound={self.bound:.3e}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


def _within(name, measured, bound, detail="") -> CheckResult:
    measured, bound = float(measured), float(bound)
    return CheckResult(name, measured <= bound, measured, bound, detail)


#: validate_density's bound on |Tr(rho) - 1|, and its floor for eigenvalues:
#: pure states carry an exactly zero eigenvalue that round-off must not reject.
TRACE_TOL, PSD_FLOOR = 1e-12, 1e-10


def validate_density(rho: DensityOperator) -> list[CheckResult]:
    """Check Hermiticity by the rule of ``cxmat``, unit trace within TRACE_TOL
    and eigenvalues down to -PSD_FLOOR: the records ``hermiticity``,
    ``trace`` and ``positivity``, in that order.  On a stack, each record
    reports the worst matrix (for Hermiticity, the one furthest past its own
    bound).  An empty stack has no worst matrix and raises ShapeError."""
    m = rho.matrix
    if not m.size:
        raise cxmat.ShapeError(f"cannot validate an empty stack of states, shape {m.shape}")
    dev, bound = cxmat.hermitian_deviation(m)
    worst = np.unravel_index(np.argmax(dev / bound), dev.shape)
    trace_dev = np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0))
    # Eigenvalues of the Hermitian part, which is Hermitian bit for bit, so
    # the PSD check stays meaningful even when the Hermiticity check fails.
    eig = cxmat.hermitian_eigen(0.5 * (m + m.conj().swapaxes(-1, -2)))
    min_eig = float(np.min(eig.eigenvalues))
    return [_within("hermiticity", dev[worst], bound[worst]),
            _within("trace", trace_dev, TRACE_TOL),
            CheckResult("positivity", min_eig >= -PSD_FLOOR, min_eig, -PSD_FLOOR)]


class Hamiltonian:
    """Hermitian-by-construction matrix of expression-valued entries.

    Diagonal entries are real-valued expressions; each upper-triangle entry
    is a value or an (re, im) pair accepted by exprparse.as_cell, and the
    mirrored lower-triangle entry is its conjugate.  Only the non-zero
    diagonal and upper cells are stored.
    """

    def __init__(self, diag, upper=None):
        # a diagonal entry is the real part of its cell: an [re, im] pair is
        # no expression, so it is refused
        entries = [((i, i), (e, 0.0)) for i, e in enumerate(diag)]
        self.dim = len(entries)
        if not self.dim:
            raise cxmat.ShapeError("Hamiltonian needs at least one level, got an empty diagonal")
        for (i, j), value in (upper or {}).items():
            if not 0 <= i < j < self.dim:
                raise ValueError(f"upper-triangle index out of range: {(i, j)}")
            entries.append(((i, j), value))
        self._cells = exprparse.matrix_cells(entries)
        upper = [index for index, _ in self._cells if index[0] != index[1]]
        self._upper = tuple(np.array(upper, dtype=np.intp).reshape(-1, 2).T)

    @property
    def static(self) -> bool:
        """Whether no stored cell reads t, by the plan: a "0*t" cell reads t."""
        return not self._cells.plan.time_rows.size

    @classmethod
    def from_matrix(cls, m) -> "Hamiltonian":
        """Constant Hamiltonian from the upper triangle of a matrix that passes
        the Hermiticity rule of ``cxmat``."""
        m = cxmat.as_matrix(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise cxmat.ShapeError(f"Hamiltonian must be one square matrix, got shape {m.shape}")
        dev, bound = cxmat.hermitian_deviation(m)
        if dev > bound:
            cxmat.hermitian_eigen(m)  # raises the solver's NonHermitianError for m
        d = len(m)
        return cls(m.diagonal().real.tolist(), {(i, j): (m[i, j].real.item(), m[i, j].imag.item())
                                                for i in range(d) for j in range(i + 1, d)})

    def matrix(self, t) -> np.ndarray:
        """Entries at a finite t, or (T, d, d) over an array of finite times; Hermitian exactly."""
        out = exprparse.evaluate_matrix(self._cells, self.dim, t)
        i, j = self._upper
        upper = out[..., i, j]  # a copy, conjugated in place: one temporary
        out[..., j, i] = np.conjugate(upper, out=upper)
        return out


def energy_eigenbasis(hm, states=None, tau=None):
    """Eigenbasis of an evaluated Hamiltonian, one matrix or a (T, d, d)
    stack, as a HermitianEigenDecomposition of the same leading shape.  A
    diagonal H (every off-diagonal entry exactly 0) short-circuits to the
    computational basis in entry order, a read-only broadcast of the
    identity; any other H is solved as given (ascending energies).

    With ``states``, a (T, d, d) stack of density matrices on the grid
    ``tau``, the states and H, if it needs the solver, are diagonalized in
    one ``hermitian_eigen`` call, and the pair (state decomposition,
    eigenbasis) is returned.  Every matrix keeps its own threshold, so both
    equal separate calls bit for bit.  A state the solver fails on raises
    its error prefixed "at tau=..."; an H matrix raises the error of a call
    on H alone, with no tau.
    """
    hm = np.asarray(hm, dtype=np.complex128)
    d = hm.shape[-1]
    diagonal = not np.any(hm[..., ~np.eye(d, dtype=bool)])
    count = 0 if states is None else len(states)
    if diagonal:
        joint = states
    else:
        stack = hm.reshape(-1, d, d)
        joint = stack if states is None else np.concatenate((states, stack))
    if joint is not None:
        try:
            eig = cxmat.hermitian_eigen(joint)
        except (cxmat.ConvergenceError, cxmat.NonHermitianError) as exc:
            i = exc.index[0]
            if i >= count:
                # H fails alone too, with the message a call on H gives
                cxmat.hermitian_eigen(hm)
                raise
            raise type(exc)(f"at tau={tau[i]:.6g}: {exc}", exc.index) from exc
    if diagonal:
        basis = cxmat.HermitianEigenDecomposition(
            np.diagonal(hm, axis1=-2, axis2=-1).real.copy(),
            np.broadcast_to(np.eye(d, dtype=hm.dtype), hm.shape))
    else:
        basis = cxmat.HermitianEigenDecomposition(eig.eigenvalues[count:].reshape(hm.shape[:-1]),
                                                  eig.eigenvectors[count:].reshape(hm.shape))
    if states is None:
        return basis
    return cxmat.HermitianEigenDecomposition(eig.eigenvalues[:count],
                                             eig.eigenvectors[:count]), basis


def internal_energy(rho: DensityOperator, hm):
    """U = Tr(rho H) for an evaluated Hamiltonian: a float for one state and
    one matrix, an array over (T, d, d) stacks; |Im U| must stay below
    HERMITIAN_TOL max(1, max|H|), as its round-off grows with the entries of H."""
    hm = np.asarray(hm)
    if hm.shape[-1] != rho.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: state dim {rho.dim}, Hamiltonian dim {hm.shape[-1]}"
        )
    # The unoptimized einsum sums in an order set by its operands' strides:
    # a C-ordered rho keeps it the C order whatever the layout of hm.
    value = np.einsum("...ij,...ji->...", np.ascontiguousarray(rho.matrix), hm)
    bad = np.flatnonzero(np.abs(value.imag) > cxmat.HERMITIAN_TOL * np.max(np.abs(hm), initial=1.0))
    if bad.size:
        where = f"at grid point {bad[0]}: " if value.ndim else ""
        raise cxmat.NumericError(
            f"{where}internal energy has non-negligible imaginary part "
            f"{np.ravel(value.imag)[bad[0]]:.3e}"
        )
    return float(value.real) if value.ndim == 0 else value.real
