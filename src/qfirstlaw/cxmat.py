"""Dense complex matrix coercion and a self-contained Hermitian eigensolver.

``as_matrix`` turns input into a complex128 matrix or 3-D stack of
matrices with finite entries.  The eigensolver is a hand-written cyclic
complex Jacobi sweep rather than a LAPACK call, so the whole numerical path
stays auditable.  Matrices in this package are
tiny (qubits, dim <= 8 for branch tracking) but come in long stacks, one per
grid point, so the eigensolver takes a ``(..., n, n)`` stack and runs each
rotation on every matrix of the stack that still needs it: the Python loop
is over sweeps and index pairs, never over grid points.  A single matrix is
a stack of one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class _StackIndexed:
    """Error about one matrix of a stack: ``index`` is its position in the
    leading axes, or None for a single matrix."""

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


class NonHermitianError(_StackIndexed, ValueError):
    """Input matrix deviates from its adjoint beyond the allowed tolerance."""


class ConvergenceError(_StackIndexed, RuntimeError):
    """Iterative routine exhausted its sweep budget without converging."""


class NumericError(RuntimeError):
    """A numerical invariant was violated (non-finite entries, residues...)."""


#: Off-diagonal magnitudes are driven below this multiple of the largest
#: input entry before the Jacobi iteration is declared converged.
OFFDIAG_FACTOR = 1e-14

#: Hard cap on the number of full cyclic sweeps.
MAX_SWEEPS = 100


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a complex128 matrix (2-D) or stack of matrices (3-D),
    rejecting non-finite entries.

    No copy is made when the input already has the right dtype; arrays
    handed to the wrapper types are treated as immutable by convention."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix or a 3-D stack of matrices, got ndim={m.ndim}")
    # Test entries, not their sum: large finite entries can overflow a sum.
    if not np.isfinite(m).all():
        raise NumericError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues in ascending order; column j of ``eigenvectors`` pairs with
    ``eigenvalues[j]``.  Columns are orthonormal and phase-fixed so the
    largest-magnitude component of each is real and positive.  For a
    ``(..., n, n)`` stack the shapes are ``(..., n)`` and ``(..., n, n)``,
    one decomposition per matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def hermitian_eigen(a, tol: float = 1e-12, max_sweeps: int = MAX_SWEEPS) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix, or every matrix of a ``(..., n, n)``
    stack at once, by cyclic complex Jacobi rotations.

    Each matrix must satisfy max|a - a†| <= tol.  Sweeps run until every
    off-diagonal magnitude of a matrix is at most OFFDIAG_FACTOR times the
    largest entry of that matrix; a (p, q) rotation is applied only to the
    matrices whose |a_pq| still exceeds their own threshold, so each matrix
    gets exactly the rotations it would get alone.  A matrix still above its
    threshold after ``max_sweeps`` sweeps raises ConvergenceError.  Errors
    on a stack name the first failing matrix and carry its ``index``.
    """
    m = np.asarray(a, dtype=np.complex128)
    batch = m.shape[:-2]
    stack = as_matrix(m.reshape((-1,) + m.shape[-2:]) if m.ndim >= 2 else m)
    n = stack.shape[-1]
    if stack.shape[-2] != n:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {m.shape}")
    adj = stack.conj().swapaxes(-1, -2)
    dev = np.abs(stack - adj).max(axis=(-2, -1))

    # A rotation multiplies both A and the accumulated eigenvectors V by J on
    # the right, so they are stored one above the other and rotated together.
    aug = np.zeros((len(stack), 2 * n, n), dtype=np.complex128)
    work, vecs = aug[:, :n], aug[:, n:]
    # Fold round-off asymmetry away before iterating.
    work[...] = 0.5 * (stack + adj)
    vecs[:, range(n), range(n)] = 1.0
    thresh = OFFDIAG_FACTOR * np.abs(work).max(axis=(-2, -1))
    off_diagonal = ~np.eye(n, dtype=bool)
    sweeps = 0
    while True:
        off_max = np.abs(work[:, off_diagonal]).max(axis=-1, initial=0.0)
        active = off_max > thresh
        if sweeps >= max_sweeps or not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rotate = np.abs(work[:, p, q]) > thresh
                if rotate.any():
                    rows = slice(None) if rotate.all() else np.flatnonzero(rotate)
                    _rotate(aug, rows, p, q)
        sweeps += 1

    # The first failing matrix is reported, whichever check it fails.
    skew = np.flatnonzero(dev > tol)
    stuck = np.flatnonzero(active)
    if skew.size and not (stuck.size and stuck[0] < skew[0]):
        _raise_at(NonHermitianError, batch, skew[0],
                  f"matrix is not Hermitian: max|a - a†| = {dev[skew[0]]:.3e} > tol {tol:.3e}")
    if stuck.size:
        _raise_at(ConvergenceError, batch, stuck[0],
                  f"Jacobi sweep cap ({max_sweeps}) exceeded; "
                  f"max off-diagonal {off_max[stuck[0]]:.3e} > {thresh[stuck[0]]:.3e}")

    values = np.diagonal(work, axis1=-2, axis2=-1).real
    order = np.argsort(values, axis=-1, kind="stable")
    each = np.arange(len(work))[:, None]
    values = values[each, order]
    vecs = vecs.swapaxes(-1, -2)[each, order].swapaxes(-1, -2)
    # Rotate each column so its largest-magnitude component is real positive.
    pivot = vecs[each, np.abs(vecs).argmax(axis=-2), range(n)]
    vecs = vecs * (np.conj(pivot) / np.abs(pivot))[:, None, :]
    return HermitianEigenDecomposition(values.reshape(batch + (n,)), vecs.reshape(batch + (n, n)))


def _raise_at(cls, batch, i, message):
    """Raise ``cls`` for matrix ``i`` of a stack flattened from leading shape ``batch``."""
    if not batch:
        raise cls(message)
    index = tuple(int(k) for k in np.unravel_index(i, batch))
    raise cls(f"matrix {index} of the stack: {message}", index)


def _rotate(aug, rows, p, q):
    """Zero the (p, q) entry of each selected matrix A by the unitary plane
    rotation J = [[c, s*phase], [-s*conj(phase), c]]: A <- J† A J and
    V <- V J, with ``aug`` holding A above V.

    t = s/c satisfies t^2 + 2*phi*t - 1 = 0 with phi = (aqq - app) / (2|apq|),
    and the smaller-magnitude root keeps the rotation angle below pi/4 (the
    classic stability choice).  A is exactly Hermitian (folded on entry, and
    the products below keep conjugate symmetry bit for bit), so rows p and q
    of J† A J are the conjugates of its columns p and q."""
    n = aug.shape[-1]
    # These may be views (``rows`` may be a slice): use them before any write.
    apq = aug[rows, p, q]
    app = aug[rows, p, p].real
    aqq = aug[rows, q, q].real
    r = np.abs(apq)
    phase = apq / r
    phi = (aqq - app) / (2.0 * r)
    t = np.copysign(1.0, phi) / (np.abs(phi) + np.hypot(1.0, phi))
    # Analytic updates for the rotated block kill round-off drift.
    new_pp = app - t * r
    new_qq = aqq + t * r
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c_ = c[:, None]
    s_phase = (s * phase)[:, None]
    s_conj = (s * np.conj(phase))[:, None]
    colp = aug[rows, :, p].copy()
    colq = aug[rows, :, q]
    aug[rows, :, p] = c_ * colp - s_conj * colq
    aug[rows, :, q] = s_phase * colp + c_ * colq
    aug[rows, p, :] = np.conj(aug[rows, :n, p])
    aug[rows, q, :] = np.conj(aug[rows, :n, q])
    aug[rows, p, p] = new_pp
    aug[rows, q, q] = new_qq
    aug[rows, p, q] = 0.0
    aug[rows, q, p] = 0.0
