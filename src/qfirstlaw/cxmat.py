"""Dense complex matrix coercion, tiny-matrix stack kernels and a
self-contained Hermitian eigensolver.

``as_matrix`` turns input into a complex128 matrix or 3-D stack of
matrices with finite entries.  Matrices in this package are tiny (qubits
and small qudits) but come in long stacks, one per grid point.
numpy loops over an array in memory order, so the grid path keeps every
``(T, d, d)`` or ``(T, d)`` stack grid-last in memory, as a view of a
``(d, d, T)`` or ``(d, T)`` buffer (``stack_view``): each product,
reduction and check over the matrix entries then runs its inner loop over
the grid.  ``stack_matmul`` writes such a buffer whatever its operands' layout.

The eigensolver is a hand-written cyclic complex Jacobi sweep rather than a
LAPACK call, so the whole numerical path stays auditable.  It holds a
``(..., n, n)`` stack column-major with the grid axis last, computes each
rotation for every matrix and writes it under the mask of the matrices that
still need it: the Python loop is over sweeps and index pairs, never over
grid points.  A single matrix is a stack of one.  A 2 x 2 matrix needs
exactly one rotation (the 2 x 2 symmetric Schur step of Golub & Van Loan,
*Matrix Computations*, 8.5), so a 2 x 2 stack gets it directly, with no
sweep loop, and the same bits.

A matrix counts as Hermitian when max|a - a†| <= HERMITIAN_TOL * max(1,
max|a|), judged per matrix of a stack: the bound grows with the entries, as
their round-off does, so no choice of energy unit decides the test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class NumericError(RuntimeError):
    """A numerical invariant was violated (non-finite entries, residues...);
    the base of every error the command line reports with exit code 3."""


class _StackIndexed:
    """Error about one matrix of a stack: ``index`` is its position in the
    leading axes, or None for a single matrix."""

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


class NonHermitianError(_StackIndexed, ValueError, NumericError):
    """Input matrix breaks the Hermiticity rule (module docstring)."""


class ConvergenceError(_StackIndexed, NumericError):
    """Iterative routine exhausted its sweep budget without converging."""


#: Off-diagonal magnitudes are driven below this multiple of the largest
#: input entry before the Jacobi iteration is declared converged.
OFFDIAG_FACTOR = 1e-14

#: Hard cap on the number of full cyclic sweeps, read when the solver runs.
MAX_SWEEPS = 100

#: Relative bound of the Hermiticity rule (module docstring).
HERMITIAN_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a complex128 matrix (2-D) or stack of matrices (3-D),
    rejecting non-finite entries and empty matrices (not empty stacks).

    No copy is made when the input already has the right dtype; arrays
    handed to the wrapper types are treated as immutable by convention."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D matrix or a 3-D stack of matrices, got ndim={m.ndim}")
    if 0 in m.shape[-2:]:
        raise ShapeError(f"matrices need at least one row and one column, got shape {m.shape}")
    # Test entries, not their sum: large finite entries can overflow a sum.
    if not np.isfinite(m).all():
        raise NumericError("matrix contains non-finite entries")
    return m


def stack_view(buffer) -> np.ndarray:
    """The ``(*grid, d, d)`` view of a ``(d, d, *grid)`` buffer: a grid-last stack."""
    return buffer.transpose(tuple(range(2, buffer.ndim)) + (0, 1))


def stack_matmul(a, b) -> np.ndarray:
    """``a @ b`` over stacks of d x d matrices (a 2-D operand is one matrix
    shared by the stack): d multiply-adds of the operands' ``(d, d, *grid)``
    views, summed in index order into a C-ordered buffer, so the grid is the
    inner loop whatever the operands' layout.  Returns its ``stack_view``."""
    ea, eb = (x.transpose((-2, -1) + tuple(range(x.ndim - 2))) if x.ndim > 2 else x[..., None]
              for x in (a, b))
    out = np.empty(np.broadcast(ea[:, 0, None], eb[None, 0]).shape, np.result_type(ea, eb))
    np.multiply(ea[:, 0, None], eb[None, 0], out=out)
    term = np.empty_like(out)
    for j in range(1, len(eb)):
        out += np.multiply(ea[:, j, None], eb[None, j], out=term)
    return out[..., 0] if a.ndim == b.ndim == 2 else stack_view(out)


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Column j of ``eigenvectors`` pairs with ``eigenvalues[j]``, ascending
    from ``hermitian_eigen``, in entry order from the diagonal short-circuit
    of ``qstate.energy_eigenbasis``.  Columns are orthonormal and
    phase-fixed so the largest-magnitude component of each is real and
    positive.  For a ``(..., n, n)`` stack the shapes are ``(..., n)`` and
    ``(..., n, n)``, one decomposition per matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_deviation(a):
    """Per matrix of a ``(..., n, n)`` array: max|a - a†| and its bound under the rule."""
    entries = np.moveaxis(a, (-2, -1), (0, 1))  # reduce with the stack axes innermost
    dev = np.abs(entries - entries.conj().swapaxes(0, 1)).max(axis=(0, 1))
    return dev, HERMITIAN_TOL * np.maximum(1.0, np.abs(entries).max(axis=(0, 1)))


def hermitian_eigen(a) -> HermitianEigenDecomposition:
    """Diagonalize a Hermitian matrix, or every matrix of a ``(..., n, n)``
    stack at once, by cyclic complex Jacobi rotations.

    Each matrix must pass the Hermiticity rule (module docstring).  Sweeps
    run until every off-diagonal magnitude of a matrix is at most
    OFFDIAG_FACTOR times its largest entry; a (p, q) rotation is applied only
    to the matrices whose |a_pq| still exceeds their own threshold, so each
    matrix gets exactly the rotations it would get alone.  A matrix still
    above its threshold after MAX_SWEEPS sweeps raises ConvergenceError.
    Errors on a stack name the first failing matrix and carry its ``index``.
    A 2 x 2 stack takes its one rotation directly (``_rotate_2x2``), with
    the bits the sweep loop (``_sweep``) would give it.
    """
    m = np.asarray(a, dtype=np.complex128)
    batch = m.shape[:-2]
    stack = as_matrix(m if m.ndim < 4 else m.reshape((math.prod(batch),) + m.shape[-2:]))
    n = stack.shape[-1]
    if stack.shape[-2] != n:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {m.shape}")
    # A view: by_col[j, i] is entry (i, j) of every matrix.
    by_col = stack.reshape(-1, n, n).transpose(2, 1, 0)
    folded = 0.5 * (by_col + by_col.conj().swapaxes(0, 1))  # fold round-off asymmetry away
    thresh = OFFDIAG_FACTOR * np.abs(folded).reshape(n * n, -1).max(axis=0)
    values, vecs, off_max, active = (_rotate_2x2 if n == 2 else _sweep)(folded, thresh)

    # The first failing matrix is reported, whichever check it fails.
    dev, bound = hermitian_deviation(stack.reshape(-1, n, n))
    skew = np.flatnonzero(dev > bound)
    stuck = np.flatnonzero(active)
    if skew.size and not (stuck.size and stuck[0] < skew[0]):
        _raise_at(NonHermitianError, batch, skew[0], "matrix is not Hermitian: "
                  f"max|a - a†| = {dev[skew[0]]:.3e} > {bound[skew[0]]:.3e}")
    if stuck.size:
        _raise_at(ConvergenceError, batch, stuck[0],
                  f"Jacobi sweep cap ({MAX_SWEEPS}) exceeded; "
                  f"max off-diagonal {off_max[stuck[0]]:.3e} > {thresh[stuck[0]]:.3e}")

    # Rotate each column so its largest-magnitude component (the first of
    # equal ones) is real positive.
    mag = np.abs(vecs)
    pivot, peak = vecs[:, 0], mag[:, 0]
    for i in range(1, n):
        higher = mag[:, i] > peak
        pivot = np.where(higher, vecs[:, i], pivot)
        peak = np.where(higher, mag[:, i], peak)
    vecs = vecs * (np.conj(pivot) / peak)[:, None]
    # Transposed views: both results keep the grid axis last in memory.
    return HermitianEigenDecomposition(values.T.reshape(batch + (n,)),
                                       vecs.T.reshape(batch + (n, n)))


def _raise_at(cls, batch, i, message):
    """Raise ``cls`` for matrix ``i`` of a stack flattened from leading shape ``batch``."""
    if not batch:
        raise cls(message)
    index = tuple(int(k) for k in np.unravel_index(i, batch))
    raise cls(f"matrix {index} of the stack: {message}", index)


def _sweep(folded, thresh):
    """Cyclic sweeps over the folded ``(n, n, N)`` column stack.  Returns
    the eigenvalues in ascending order ``(n, N)``, their eigenvector columns
    ``(n, n, N)`` (``[j, i]`` is entry i of column j), the last off-diagonal
    maxima and the mask of the matrices still above their threshold.  Every
    pass runs on ``cols``: ``cols[j]`` is column j of A above column j of V,
    ``(2n, N)``."""
    n, count = len(folded), folded.shape[-1]
    # A rotation multiplies both A and V by J on the right, so each column
    # of A is stored above the same column of V and they rotate together.
    cols = np.zeros((n, 2 * n, count), dtype=np.complex128)
    cols[:, :n] = folded
    cols[range(n), range(n, 2 * n)] = 1.0
    off_diagonal = ~np.eye(n, dtype=bool)
    sweeps = 0
    while True:
        off_max = np.abs(cols[:, :n][off_diagonal]).max(axis=0, initial=0.0)
        active = off_max > thresh
        if sweeps >= MAX_SWEEPS or not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rotate = np.abs(cols[q, p]) > thresh
                if rotate.any():
                    _rotate(cols, p, q, rotate)
        sweeps += 1
    values = cols[range(n), range(n)].real
    order = np.argsort(values, axis=0, kind="stable")
    return (np.take_along_axis(values, order, axis=0),
            np.take_along_axis(cols[:, n:], order[:, None], axis=0), off_max, active)


#: Column j of the 2 x 2 identity is ``_EYE2[j]``, broadcast over a stack.
_EYE2 = np.eye(2, dtype=np.complex128)[:, :, None]


def _rotate_2x2(folded, thresh):
    """``_sweep`` for n = 2, without the loop or its work buffer: one (0, 1)
    rotation leaves the off-diagonal entry exactly 0, so the loop's first
    sweep is its last.  The rotation is ``_rotate``'s arithmetic on V = I,
    kept for the matrices above their threshold, unless MAX_SWEEPS is 0."""
    apq, app, aqq = folded[1, 0], folded[0, 0].real, folded[1, 1].real
    # |a_pq| = |a_qp|: the fold makes them exact conjugates.
    off_max = np.abs(apq)
    active = off_max > thresh
    values, vecs = np.stack([app, aqq]), np.broadcast_to(_EYE2, folded.shape)
    if MAX_SWEEPS > 0 and active.any():
        with np.errstate(all="ignore"):
            r, phase, t, c, s = _angle(apq, app, aqq)
            values = np.where(active, [app - t * r, aqq + t * r], values)
            vecs = np.where(active, [c * _EYE2[0] - (s * np.conj(phase)) * _EYE2[1],
                                     (s * phase) * _EYE2[0] + c * _EYE2[1]], vecs)
        active = np.zeros_like(active)  # the rotated entries are exactly 0
    swap = values[1] < values[0]  # the stable ascending order of two
    return np.where(swap, values[::-1], values), np.where(swap, vecs[::-1], vecs), off_max, active


def _angle(apq, app, aqq):
    """The plane rotation that zeroes a_pq of Hermitian matrices, lane by
    lane: |a_pq|, its phase, t = s/c, c and s.

    t satisfies t^2 + 2*phi*t - 1 = 0 with phi = (aqq - app) / (2|apq|),
    and the smaller-magnitude root keeps the rotation angle below pi/4 (the
    classic stability choice).  A lane with apq = 0 gives NaN, and one with
    a subnormal apq overflows: callers ignore floating-point errors and drop
    those lanes."""
    r = np.abs(apq)
    phase = apq / r
    phi = (aqq - app) / (2.0 * r)
    t = np.copysign(1.0, phi) / (np.abs(phi) + np.hypot(1.0, phi))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return r, phase, t, c, t * c


def _rotate(cols, p, q, rotate):
    """Zero the (p, q) entry of each matrix A picked by the mask ``rotate``
    by the unitary plane rotation J = [[c, s*phase], [-s*conj(phase), c]]
    of ``_angle``: A <- J† A J and V <- V J, with ``cols[j]`` holding column
    j of A above column j of V.

    A is exactly Hermitian (folded on entry, and the products below keep
    conjugate symmetry bit for bit), so rows p and q of J† A J are the
    conjugates of its columns p and q.  Every matrix is rotated but only
    the picked ones are written back, so the others keep their bits."""
    n = len(cols)
    # These are views of ``cols``: everything below is computed before any write.
    apq, app, aqq = cols[q, p], cols[p, p].real, cols[q, q].real
    with np.errstate(all="ignore"):
        r, phase, t, c, s = _angle(apq, app, aqq)
        colp = c * cols[p] - (s * np.conj(phase)) * cols[q]
        colq = (s * phase) * cols[p] + c * cols[q]
        # Analytic updates for the rotated block kill round-off drift.
        new_pp, new_qq = app - t * r, aqq + t * r
    np.copyto(cols[:, p], np.conj(colp[:n]), where=rotate)
    np.copyto(cols[:, q], np.conj(colq[:n]), where=rotate)
    colp[p], colp[q], colq[q], colq[p] = new_pp, 0.0, new_qq, 0.0
    np.copyto(cols[p], colp, where=rotate)
    np.copyto(cols[q], colq, where=rotate)
