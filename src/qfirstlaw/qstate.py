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


def validate_density(rho: DensityOperator, tol: float = 1e-12) -> ValidationReport:
    """Check Hermiticity and unit trace within ``tol`` and positive
    semidefiniteness down to -max(tol, 1e-10); on a stack, each check
    reports the worst matrix.

    The PSD floor never tightens below 1e-10: pure states carry an exactly
    zero eigenvalue and round-off must not reject them.
    """
    m = rho.matrix
    adjoint = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.max(np.abs(m - adjoint)))
    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    psd_floor = max(tol, 1e-10)
    # Eigenvalues of the Hermitian part, so the PSD check stays meaningful
    # even when the Hermiticity check itself fails.
    eig = cxmat.hermitian_eigen(0.5 * (m + adjoint), tol=1.0)
    min_eig = float(np.min(eig.eigenvalues))
    return ValidationReport(
        (
            ValidationCheck("hermiticity", herm_dev, tol, herm_dev <= tol),
            ValidationCheck("trace", trace_dev, tol, trace_dev <= tol),
            ValidationCheck("positivity", min_eig, -psd_floor, min_eig >= -psd_floor),
        )
    )


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

    @classmethod
    def two_level(cls, e_g=0.0, e_e=1.0) -> "Hamiltonian":
        """diag(E_g, E_e); entries may be numbers or expressions over t."""
        return cls([e_g, e_e])

    @classmethod
    def diagonal(cls, entries) -> "Hamiltonian":
        return cls(list(entries))

    @classmethod
    def from_matrix(cls, m, tol: float = 1e-12) -> "Hamiltonian":
        """Constant Hamiltonian from an explicit Hermitian matrix."""
        m = cxmat.as_matrix(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise cxmat.ShapeError(f"Hamiltonian must be one square matrix, got shape {m.shape}")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > tol:
            raise cxmat.NonHermitianError(f"matrix is not Hermitian: deviation {dev:.3e}")
        diag = [float(m[i, i].real) for i in range(m.shape[0])]
        upper = {
            (i, j): (float(m[i, j].real), float(m[i, j].imag))
            for i in range(m.shape[0])
            for j in range(i + 1, m.shape[0])
        }
        return cls(diag, upper)

    def matrix(self, t) -> np.ndarray:
        """Entries at time t, or (T, d, d) over an array of times; Hermitian exactly."""
        times = np.asarray(t, dtype=float)
        bad = ~np.isfinite(times)
        if np.any(bad):
            raise ValueError(f"time must be finite, got {times[bad].flat[0]}")
        out = exprparse.evaluate_matrix(self._cells, self.dim, t)
        for (i, j), _ in self._cells:
            if i != j:
                out[..., j, i] = out[..., i, j].conj()
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
    every point, otherwise on the whole stack.

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
                                 np.zeros_like(hm) + np.eye(d))
    elif static:
        basis = EnergyEigenbasis(np.broadcast_to(values[0], hm.shape[:-1]).copy(),
                                 np.broadcast_to(vectors[0], hm.shape).copy())
    else:
        basis = EnergyEigenbasis(values.reshape(hm.shape[:-1]), vectors.reshape(hm.shape))
    if states is None:
        return basis
    return cxmat.HermitianEigenDecomposition(eig.eigenvalues[:count],
                                             eig.eigenvectors[:count]), basis


def internal_energy(rho: DensityOperator, hm):
    """U = Tr(rho H) for an evaluated Hamiltonian: a float for one state and
    one matrix, an array over (T, d, d) stacks; |Im U| must stay below 1e-12."""
    hm = np.asarray(hm)
    if hm.shape[-1] != rho.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: state dim {rho.dim}, Hamiltonian dim {hm.shape[-1]}"
        )
    # The unoptimized einsum sums in an order set by its operands' strides:
    # a C-ordered rho keeps it the C order whatever the layout of hm.
    value = np.einsum("...ij,...ji->...", np.ascontiguousarray(rho.matrix), hm)
    bad = np.flatnonzero(np.abs(value.imag) > 1e-12)
    if bad.size:
        where = f"at grid point {bad[0]}: " if value.ndim else ""
        raise cxmat.NumericError(
            f"{where}internal energy has non-negligible imaginary part "
            f"{np.ravel(value.imag)[bad[0]]:.3e}"
        )
    return float(value.real) if value.ndim == 0 else value.real
