"""Dense complex matrix helpers and a self-contained Hermitian eigensolver.

Everything here operates on plain 2-D complex128 numpy arrays.  The
eigensolver is a hand-written cyclic complex Jacobi sweep rather than a
LAPACK call, so the whole numerical path stays auditable.  Matrices in this
package are tiny (qubits, dim <= 8 for branch tracking), but the sweeps run
in Python at every grid point: at d = 4 they are the largest cost of a
trajectory (about two thirds of the self time in the benchmark's
``qudit-d4`` workload, see ``perfbench/README.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class NonHermitianError(ValueError):
    """Input matrix deviates from its adjoint beyond the allowed tolerance."""


class ConvergenceError(RuntimeError):
    """Iterative routine exhausted its sweep budget without converging."""


class NumericError(RuntimeError):
    """A numerical invariant was violated (non-finite entries, residues...)."""


#: Off-diagonal magnitudes are driven below this multiple of the largest
#: input entry before the Jacobi iteration is declared converged.
OFFDIAG_FACTOR = 1e-14

#: Hard cap on the number of full cyclic sweeps.
MAX_SWEEPS = 100


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array (with ``stack``, also a 3-D
    stack of matrices), rejecting non-finite entries.

    No copy is made when the input already has the right dtype; arrays
    handed to the wrapper types are treated as immutable by convention."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    # Test entries, not their sum: large finite entries can overflow a sum.
    if not np.isfinite(m).all():
        raise NumericError("matrix contains non-finite entries")
    return m


def mul(a, b) -> np.ndarray:
    """Matrix product a @ b with an explicit shape check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues in ascending order; column j of ``eigenvectors`` pairs with
    ``eigenvalues[j]``.  Columns are orthonormal and phase-fixed so the
    largest-magnitude component of each is real and positive."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _jacobi_rotation(app: float, aqq: float, apq: complex):
    """Parameters (c, s, phase, t) of the unitary plane rotation that zeroes
    the (p, q) entry of the Hermitian 2x2 block [[app, apq], [conj(apq), aqq]].

    The rotation is J = [[c, s*phase], [-s*conj(phase), c]] applied as
    J† A J; t = s/c satisfies t^2 + 2*phi*t - 1 = 0 with
    phi = (aqq - app) / (2|apq|), and the smaller-magnitude root keeps the
    rotation angle below pi/4 (the classic stability choice)."""
    r = abs(apq)
    phase = apq / r
    phi = (aqq - app) / (2.0 * r)
    t = math.copysign(1.0, phi) / (abs(phi) + math.hypot(1.0, phi))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return c, s, phase, t


def hermitian_eigen(a, tol: float = 1e-12, max_sweeps: int = MAX_SWEEPS) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    ``a`` must satisfy max|a - a†| <= tol.  Sweeps run until every
    off-diagonal magnitude is at most OFFDIAG_FACTOR times the largest entry
    of the input, or ConvergenceError after ``max_sweeps`` sweeps.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {a.shape}")
    adj = a.conj().T
    dev = float(np.max(np.abs(a - adj)))
    if dev > tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max|a - a†| = {dev:.3e} > tol {tol:.3e}"
        )

    # Fold round-off asymmetry away before iterating.
    work = 0.5 * (a + adj)
    scale = float(np.max(np.abs(work)))
    if scale == 0.0:
        return HermitianEigenDecomposition(np.zeros(n), np.eye(n, dtype=np.complex128))
    thresh = OFFDIAG_FACTOR * scale

    if n == 2:
        # A 2x2 Hermitian matrix closes in a single Jacobi rotation; written
        # out with scalars because this is the trajectory hot path.
        app = work[0, 0].real
        aqq = work[1, 1].real
        apq = work[0, 1]
        if abs(apq) > thresh:
            c, s, phase, t = _jacobi_rotation(app, aqq, apq)
            values = np.array([app - t * abs(apq), aqq + t * abs(apq)])
            vecs = np.array(
                [[c, s * phase], [-s * np.conj(phase), c]], dtype=np.complex128
            )
        else:
            values = np.array([app, aqq])
            vecs = np.eye(2, dtype=np.complex128)
        return _finalize_eigen(values, vecs)

    vecs = np.eye(n, dtype=np.complex128)
    sweeps = 0
    while True:
        abs_off = np.abs(work)
        np.fill_diagonal(abs_off, 0.0)
        off_max = float(abs_off.max()) if n > 1 else 0.0
        if off_max <= thresh:
            break
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweep cap ({max_sweeps}) exceeded; "
                f"max off-diagonal {off_max:.3e} > {thresh:.3e}"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= thresh:
                    continue
                app = work[p, p].real
                aqq = work[q, q].real
                c, s, phase, t = _jacobi_rotation(app, aqq, apq)
                # A <- J† A J, columns first then rows.
                colp = work[:, p].copy()
                colq = work[:, q].copy()
                work[:, p] = c * colp - s * np.conj(phase) * colq
                work[:, q] = s * phase * colp + c * colq
                rowp = work[p, :].copy()
                rowq = work[q, :].copy()
                work[p, :] = c * rowp - s * phase * rowq
                work[q, :] = s * np.conj(phase) * rowp + c * rowq
                # Analytic updates for the rotated block kill round-off drift.
                work[p, p] = app - t * abs(apq)
                work[q, q] = aqq + t * abs(apq)
                work[p, q] = 0.0
                work[q, p] = 0.0
                vcolp = vecs[:, p].copy()
                vcolq = vecs[:, q].copy()
                vecs[:, p] = c * vcolp - s * np.conj(phase) * vcolq
                vecs[:, q] = s * phase * vcolp + c * vcolq
        sweeps += 1

    return _finalize_eigen(np.real(np.diag(work)).copy(), vecs)


def _finalize_eigen(values: np.ndarray, vecs: np.ndarray) -> HermitianEigenDecomposition:
    order = np.argsort(values, kind="stable")
    return HermitianEigenDecomposition(values[order], _fix_phases(vecs[:, order]))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out
