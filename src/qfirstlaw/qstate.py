"""Quantum-state and Hamiltonian domain types.

Pure-state preparation on the Bloch sphere, density-operator validation,
internal energy, and (possibly time-dependent) Hamiltonians whose entries
are expressions over t.  Hermiticity of a Hamiltonian is enforced by
construction: only the diagonal and the upper triangle are stored, the
lower triangle is their conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cxmat, exprparse


@dataclass(frozen=True)
class InitialStatePrep:
    """Bloch angles of the prepared pure state cos(theta)|g> + e^{i phi} sin(theta)|e>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


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


def prepare_pure_state(prep: InitialStatePrep) -> DensityOperator:
    """Rank-1 projector |psi><psi| for the Bloch-angle preparation."""
    amp = np.array(
        [math.cos(prep.theta), np.exp(1j * prep.phi) * math.sin(prep.theta)],
        dtype=np.complex128,
    )
    return DensityOperator(np.outer(amp, amp.conj()))


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    deviation: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        return "; ".join(
            f"{c.name}: {'ok' if c.passed else 'FAIL'} ({c.deviation:.3e} vs {c.bound:.3e})"
            for c in self.checks
        )


#: validate_density's bound on |Tr(rho) - 1|, and its floor for eigenvalues:
#: pure states carry an exactly zero eigenvalue that round-off must not reject.
TRACE_TOL, PSD_FLOOR = 1e-12, 1e-10


def validate_density(rho: DensityOperator) -> ValidationReport:
    """Check Hermiticity by the rule of ``cxmat``, unit trace within TRACE_TOL
    and eigenvalues down to -PSD_FLOOR; on a stack, each check reports the
    worst matrix (for Hermiticity, the one furthest past its own bound)."""
    m = rho.matrix
    dev, bound = cxmat.hermitian_deviation(m)
    worst = np.unravel_index(np.argmax(dev / bound), dev.shape)
    herm_dev, herm_bound = float(dev[worst]), float(bound[worst])
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    # Eigenvalues of the Hermitian part, which is Hermitian bit for bit, so
    # the PSD check stays meaningful even when the Hermiticity check fails.
    eig = cxmat.hermitian_eigen(0.5 * (m + m.conj().swapaxes(-1, -2)))
    min_eig = float(np.min(eig.eigenvalues))
    return ValidationReport((
        ValidationCheck("hermiticity", herm_dev, herm_bound, herm_dev <= herm_bound),
        ValidationCheck("trace", trace_dev, TRACE_TOL, trace_dev <= TRACE_TOL),
        ValidationCheck("positivity", min_eig, -PSD_FLOOR, min_eig >= -PSD_FLOOR)))


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
        for (i, j), value in (upper or {}).items():
            if not 0 <= i < j < self.dim:
                raise ValueError(f"upper-triangle index out of range: {(i, j)}")
            entries.append(((i, j), value))
        self._cells = exprparse.matrix_cells(entries)
        upper = [index for index, _ in self._cells if index[0] != index[1]]
        self._upper = tuple(np.array(upper, dtype=np.intp).reshape(-1, 2).T)

    @classmethod
    def two_level(cls, e_g=0.0, e_e=1.0) -> "Hamiltonian":
        """diag(E_g, E_e); entries may be numbers or expressions over t."""
        return cls([e_g, e_e])

    @classmethod
    def diagonal(cls, entries) -> "Hamiltonian":
        return cls(list(entries))

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
        """Entries at time t, or (T, d, d) over an array of times; Hermitian exactly."""
        times = np.asarray(t, dtype=float)
        bad = ~np.isfinite(times)
        if np.any(bad):
            raise ValueError(f"time must be finite, got {times[bad].flat[0]}")
        out = exprparse.evaluate_matrix(self._cells, self.dim, t)
        i, j = self._upper
        upper = out[..., i, j]  # a copy, conjugated in place: one temporary
        out[..., j, i] = np.conjugate(upper, out=upper)
        return out


@dataclass(frozen=True)
class EnergyEigenbasis:
    """Energies E_n with the unitary whose columns are the eigenvectors |n>;
    over a time grid, (T, d) energies and (T, d, d) bases."""

    energies: np.ndarray
    basis: np.ndarray


def energy_eigenbasis(hm, states=None, tau=None):
    """Eigenbasis of an evaluated Hamiltonian: one matrix, or a (T, d, d)
    stack such as Hamiltonian.matrix over a time grid.

    A diagonal H (every off-diagonal entry exactly 0 at every point)
    short-circuits to the computational basis in entry order, with no
    numerical perturbation; anything else goes through the Jacobi
    eigensolver (ascending energies): on one matrix if H is the same at
    every point, otherwise on the whole stack.  A basis (or a static H's
    energies) that is the same at every point is a read-only
    ``np.broadcast_to`` view, with stride 0 along the grid.

    With ``states``, a (T, d, d) stack of density matrices on the grid
    ``tau``, the states and the H matrices that need the solver (none, one
    or all of them) are diagonalized in one ``hermitian_eigen`` call, and
    the pair (state decomposition, eigenbasis) is returned.  Every matrix
    keeps its own threshold, so both equal separate calls bit for bit.  A
    state the solver fails on raises its error prefixed "at tau=...";
    an H matrix raises the error of a call on H alone, with no tau.
    """
    hm = np.asarray(hm, dtype=np.complex128)
    d = hm.shape[-1]
    stack = hm.reshape(-1, d, d)
    diagonal = not np.any(hm[..., ~np.eye(d, dtype=bool)])
    static = not diagonal and np.all(stack == stack[0])
    count = 0 if states is None else len(states)
    if diagonal:
        joint = states
    else:
        h = stack[:1] if static else stack
        joint = h if states is None else np.concatenate((states, h))
    if joint is not None:
        try:
            eig = cxmat.hermitian_eigen(joint)
        except (cxmat.ConvergenceError, cxmat.NonHermitianError) as exc:
            i = exc.index[0]
            if i >= count:
                # H fails alone too, with the message a call on H gives
                cxmat.hermitian_eigen(stack[0] if static else hm)
                raise
            raise type(exc)(f"at tau={tau[i]:.6g}: {exc}", exc.index) from exc
        values, vectors = eig.eigenvalues[count:], eig.eigenvectors[count:]
    if diagonal:
        basis = EnergyEigenbasis(np.diagonal(hm, axis1=-2, axis2=-1).real.copy(),
                                 np.broadcast_to(np.eye(d, dtype=hm.dtype), hm.shape))
    elif static:
        basis = EnergyEigenbasis(np.broadcast_to(values[0], hm.shape[:-1]),
                                 np.broadcast_to(vectors[0], hm.shape))
    else:
        basis = EnergyEigenbasis(values.reshape(hm.shape[:-1]), vectors.reshape(hm.shape))
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
    bad = np.flatnonzero(np.abs(value.imag) > cxmat.HERMITIAN_TOL * max(1.0, np.max(np.abs(hm))))
    if bad.size:
        where = f"at grid point {bad[0]}: " if value.ndim else ""
        raise cxmat.NumericError(
            f"{where}internal energy has non-negligible imaginary part "
            f"{np.ravel(value.imag)[bad[0]]:.3e}"
        )
    return float(value.real) if value.ndim == 0 else value.real
