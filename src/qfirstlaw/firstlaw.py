"""Spectral trajectory of an evolving state and the extended first law.

The energy change of a finite-dimensional system under a non-dissipative
channel splits into three cumulative pieces, integrated along the state's
spectral trajectory:

    work        dW = sum_nk  rho_k |<n|k>|^2  dE_n
    heat        dQ = sum_nk  E_n  |<n|k>|^2  d(rho_k)
    coherence   dC = sum_nk  E_n  rho_k      d|<n|k>|^2

with E_n, |n> the Hamiltonian eigensystem and rho_k, |k> the state's.  On a
discrete grid each interval uses endpoint averages for the undifferenced
factors and endpoint differences along matched eigenbranches (a midpoint-type
product rule).  Second order in the step is measured only at d = 2: at d >= 3
the heat error of a pure initial state is first order, because the first
interval's degenerate null cluster gets whatever basis the eigensolver
returns.  Two properties of this scheme are load-bearing for the tests:

* for a static Hamiltonian, dQ + dC telescopes exactly to the energy change
  (the two-factor product rule has no remainder), so Q + C tracks
  U(tau) - U(0) to machine precision; and
* the separately reported energy change is computed from the trace formula
  Tr(rho H), never from the spectral sums, so closure of the first law is a
  genuine convergence check rather than an enforced identity.

The trajectory is a few arrays over the grid, one row per grid point, and
the one source of the ledger.  Everything that does not depend on the
previous point is computed for the whole grid in one call: the Kraus
operators, evolution and its checks, H(t), the eigensystems, the overlaps,
the invariant checks and Tr(rho H).  H(t) is evaluated once, a static H
as one matrix, so the eigenbasis and Tr(rho H) see the same Hamiltonian,
and the state stack and the H matrices that need the eigensolver go through
one Jacobi loop (``qstate.energy_eigenbasis``).
Branch matching certifies steps for the whole grid at once, by one rule
(``_certificate``): a step is settled when its two endpoints tie the same
eigenvalue pairs, in at most one cluster, and the overlap of every untied
branch certifies where it goes.  The branch order is carried over settled
steps and recomputed only at crossings and walked steps: the steps left
open (the first, near-ties, two clusters, and endpoints whose degenerate
clusters differ) are matched point by point against the point before them.
A cluster's eigenprojector is continuous even where no basis of it is
(Kato, *Perturbation Theory for Linear Operators*, ch. II), and the three
sums over a cluster see only that projector, so across a settled step a
cluster keeps whatever basis the eigensolver returns, and a persistent
cluster, such as the null space a pure state keeps under a channel of Kraus
rank below d, is walked only where its tied pairs change: where it forms or
splits, or where another eigenvalue crosses it.

Eigenbranches are matched between consecutive grid points by the permutation
that maximizes the total squared eigenvector overlap (ties go to the smaller
eigenvalue drift).  The overlap matrix is doubly stochastic, which certifies
most of the answer cheaply: rows whose largest overlap exceeds 2/3 are
pinned to their argmax and only the remaining rows, at most 8, are
searched.  That remainder, not the dimension, bounds a trajectory: a pure
initial state's arbitrary null-space eigenvectors can leave d - 1 rows on
its first step, so pure states surely run only up to d = 9.  The first
grid point is ordered by descending eigenvalue.  On a walked step, exactly
degenerate eigenvalues inherit the previous grid point's eigenvectors
(still eigenvectors, verified by residual), which keeps the overlap matrix
continuous through crossings such as the flip family passing through the
maximally mixed state.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import cxmat, qstate
from .channel import CPTP_TOL, ChannelSpec, evolve
from .qstate import DensityOperator, Hamiltonian

#: Branch matching searches the k! permutations of the k <= 8 rows it cannot pin.
MAX_BRANCH_DIM = 8

DEFAULT_TAU_MAX = 8.0
DEFAULT_STEPS = 4000

_EIGENVALUE_SLACK = 1e-10
_SUM_TOL = 1e-10
_DEGENERACY_GAP = 1e-12
_TIE_EPS = 1e-12


class UnsupportedDimensionError(ValueError, cxmat.NumericError):
    """Branch matching left more than MAX_BRANCH_DIM rows unpinned."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dimensionless-time grid tau_i = i * tau_max / steps, i = 0..steps."""

    tau_max: float
    steps: int

    def __post_init__(self):
        tau_max = self.tau_max
        # a comparison, unlike math.isfinite, takes an int too large for a float
        if isinstance(tau_max, bool) or not isinstance(tau_max, Real) or not (
                0 < tau_max <= sys.float_info.max):
            raise ValueError(f"tau_max must be finite and positive, got {tau_max!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, Integral) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")

    @property
    def points(self) -> np.ndarray:
        # + 0.0 makes an exact Real such as a Fraction a float, and keeps a numpy float's type
        return np.linspace(0.0, self.tau_max + 0.0, self.steps + 1)


@dataclass(frozen=True)
class SpectralTrajectory:
    """Branch-ordered spectral data, one array row per grid point.

    ``tau`` is the grid's time, fed as-is to the channel and Hamiltonian.
    ``overlap[i, n, k]`` is |<n|k>|^2 between Hamiltonian eigenvector n and
    state eigenvector k at grid point i; each such matrix is doubly
    stochastic.  ``energies`` are the Hamiltonian eigenvalues E_n (a static
    H's one row, broadcast) and ``energy`` is Tr(rho_i H_i)."""

    tau: np.ndarray
    rho: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    energies: np.ndarray
    overlap: np.ndarray
    energy: np.ndarray


@dataclass(frozen=True)
class EnergeticsLedger:
    """Cumulative energetics on the grid; all series start at zero."""

    tau: np.ndarray
    delta_u: np.ndarray
    work: np.ndarray
    heat: np.ndarray
    coherence: np.ndarray

    @property
    def closure_residual(self) -> np.ndarray:
        """delta_u - (work + heat + coherence); the advertised error bar."""
        return self.delta_u - (self.work + self.heat + self.coherence)


def branch_match(prev_values, prev_vectors, cur_values, cur_vectors) -> tuple[int, ...]:
    """Permutation pi of the current eigenpairs that maximizes
    sum_k |<prev_k | cur_{pi(k)}>|^2, ties broken by minimal total
    eigenvalue drift sum_k |prev_k - cur_{pi(k)}|.

    Both eigenvector sets are orthonormal, so the overlap matrix
    O[j, k] = |<prev_j | cur_k>|^2 is doubly stochastic.  With m_j the
    maximum of row j and c_j its column, a row with m_j > 2/3 beyond the
    tie tolerance is pinned to c_j: moving it elsewhere costs at least
    3 m_j - 2, so every optimum keeps it.  Only the remaining rows and
    columns are searched (score, then drift, first in lexicographic order
    wins).  Permutations whose score lies far below the best score before
    them are skipped: the search could never pick them, so the result is
    that of the full search.  When every m_j exceeds 1/2 by the margin, the
    search returns the argmaxes: any other permutation loses at least
    sum (2 m_j - 1) over the two or more rows it changes.

    Inputs that are not orthonormal get the search over all rows.  More than
    MAX_BRANCH_DIM rows to search raise UnsupportedDimensionError.
    """
    d = len(cur_values)
    overlap = np.abs(np.asarray(prev_vectors).conj().T @ np.asarray(cur_vectors)) ** 2
    rows = overlap.tolist()
    peaks = [max(row) for row in rows]
    cols = [row.index(peak) for row, peak in zip(rows, peaks)]
    pins = {j: cols[j] for j in range(d) if 3.0 * peaks[j] - 2.0 > 2.0 * _TIE_EPS}
    if len(set(pins.values())) < len(pins):  # only if the overlap is not doubly stochastic
        pins = {}
    if d - len(pins) > MAX_BRANCH_DIM:
        raise UnsupportedDimensionError(
            f"branch matching left {d - len(pins)} of {d} branches unpinned; "
            f"it searches at most {MAX_BRANCH_DIM}")
    free_rows = [j for j in range(d) if j not in pins]
    free_cols = sorted(set(range(d)) - set(pins.values()))
    table = np.array(free_cols, dtype=np.intp)[_permutation_table(len(free_cols))]
    scores = overlap[free_rows, table].sum(axis=1)
    # once the best score so far has been seen, each replacement on drift
    # lowers the fold's score by at most _TIE_EPS, so an entry this far below
    # an earlier score is never picked
    kept = np.flatnonzero(
        scores >= np.maximum.accumulate(scores) - (len(table) + 2) * 4.0 * _TIE_EPS)
    drifts = np.abs(np.asarray(prev_values, dtype=float)[free_rows]
                    - np.asarray(cur_values, dtype=float)[table[kept]]).sum(axis=1)
    best = 0
    best_score = -np.inf
    best_drift = np.inf
    for i, score, drift in zip(kept.tolist(), scores[kept].tolist(), drifts.tolist()):
        if score < best_score - _TIE_EPS:
            continue
        if score > best_score + _TIE_EPS or drift < best_drift - _TIE_EPS:
            best, best_score, best_drift = i, score, drift
    for j, k in zip(free_rows, table[best].tolist()):
        cols[j] = k
    return tuple(cols)


def _permutation_table(k: int) -> np.ndarray:
    """The (k!, k) table of the permutations of range(k), in the
    lexicographic order of itertools.permutations."""
    table = np.zeros((1, 0), dtype=np.intp)
    for n in range(1, k + 1):
        # the permutations of range(n) that start with f are f followed by
        # those of range(n - 1), each entry at or above f raised by one
        first = np.arange(n)[:, None, None]
        grown = np.empty((n, len(table), n), dtype=np.intp)
        grown[:, :, :1] = first
        grown[:, :, 1:] = table + (table >= first)
        table = grown.reshape(-1, n)
    return table


def _inherit_degenerate(rho_matrix, values, vectors, prev_vectors):
    """Replace eigenvectors of (near-)exactly degenerate groups with the
    previous grid point's columns when those are still eigenvectors.
    Returns ``vectors`` itself unless a group was replaced."""
    d = len(values)
    order = np.argsort(values)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= _DEGENERACY_GAP:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    new_vectors = vectors.copy()
    changed = False
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        lam = float(np.mean(values[cluster]))
        candidate = prev_vectors[:, cluster]
        residual = float(np.max(np.abs(rho_matrix @ candidate - lam * candidate)))
        if residual <= 1e-10:
            new_vectors[:, cluster] = candidate
            changed = True
    if not changed:
        return vectors
    gram = new_vectors.conj().T @ new_vectors
    if float(np.max(np.abs(gram - np.eye(d)))) > 1e-12:
        return vectors
    return new_vectors


def _validate_snapshot(tau, values, overlap):
    """Check every grid row at once: eigenvalues in [0, 1] summing to 1, and
    doubly stochastic overlaps.  An error names the first tau that fails.
    The upper eigenvalue bound and the sum also allow the trace drift that
    ``apply`` accepts from a Kraus set within CPTP_TOL.  Reductions add
    whole grid rows of the grid-last stacks in index order."""
    by_col = values.T
    sums = by_col.sum(axis=0)
    drift = values.shape[1] * CPTP_TOL + 1e-12
    entries = overlap.transpose(1, 2, 0)
    row_dev = np.abs(entries.sum(axis=1) - 1.0).max(axis=0)
    col_dev = np.abs(entries.sum(axis=0) - 1.0).max(axis=0)
    checks = (
        ((by_col.min(axis=0) < -_EIGENVALUE_SLACK)
         | (by_col.max(axis=0) > 1.0 + _EIGENVALUE_SLACK + drift),
         lambda i: f"eigenvalues outside [0, 1] beyond slack: {values[i].tolist()!r}"),
        (np.abs(sums - 1.0) > _SUM_TOL + drift,
         lambda i: f"eigenvalue sum {float(sums[i])!r} deviates from 1"),
        (np.maximum(row_dev, col_dev) > _SUM_TOL,
         lambda i: f"overlap matrix not doubly stochastic "
                   f"(row dev {row_dev[i]:.3e}, col dev {col_dev[i]:.3e})"),
    )
    failing = np.flatnonzero(np.logical_or.reduce([failed for failed, _ in checks]))
    if failing.size:
        i = failing[0]
        message = next(describe(i) for failed, describe in checks if failed[i])
        raise cxmat.NumericError(f"at tau={tau[i]:.6g}: {message}")


def _certificate(raw_values, overlap):
    """Which intervals the certificate settles, and the column of each row
    of each interval's raw-basis overlap: a row whose eigenvalue ties
    another at the interval's left end keeps its own index, and every other
    row goes to its argmax (ties to the first column).

    Two eigenvalues tie when they lie within _DEGENERACY_GAP.  An interval
    is settled when both ends tie the same index pairs, every two tied
    indices tie each other (at most one cluster), the columns are distinct,
    and every untied row peaks at m beyond a margin of twice branch_match's:

    * with no ties, m > 1/2 + 2 _TIE_EPS.  The overlap is doubly
      stochastic, so any other permutation loses at least sum (2 m - 1)
      over the rows it moves, and the argmaxes are branch_match's answer;
    * with one cluster, 3 m - 2 > 4 _TIE_EPS, branch_match's 2/3 pin.  Every
      optimal matching keeps those rows at their argmaxes, so the cluster's
      rows take the cluster's columns, in whatever basis the eigensolver
      returned.  The ledger's sums over a cluster see only its projector.

    With two clusters the tied columns would not say which cluster's rows
    go where: two equal clusters that cross keep the same tied pairs, so
    those intervals are walked.  Every test is elementwise over one matrix
    index, over the grid-last stacks."""
    d = raw_values.shape[1]
    by_col = overlap.transpose(2, 1, 0)
    peaks = by_col[0].copy()
    cols = np.zeros(peaks.shape, dtype=np.intp)
    for k in range(1, d):
        better = by_col[k] > peaks
        np.maximum(peaks, by_col[k], out=peaks)
        cols[better] = k
    values = raw_values.T
    ties = np.abs(values[:, None] - values[None, :]) <= _DEGENERACY_GAP
    left = ties[..., :-1]
    tied = left.sum(axis=1) > 1  # every row ties itself
    cols = np.where(tied, np.arange(d)[:, None], cols)
    pinned = np.where(tied.any(axis=0), 3.0 * peaks - 2.0 > 4.0 * _TIE_EPS,
                      peaks > 0.5 + 2.0 * _TIE_EPS)
    settled = ((left == ties[..., 1:]).all(axis=(0, 1))
               & (left | ~(tied[:, None] & tied[None, :])).all(axis=(0, 1))
               & (tied | pinned).all(axis=0))
    for j in range(d - 1):
        settled &= (cols[j + 1:] != cols[j]).all(axis=0)
    return settled, cols.T


def _match_branches(rho, raw_values, raw_vectors):
    """Branch-ordered eigenvalues and eigenvectors for the whole grid.

    One batched product gives the overlap of every pair of consecutive raw
    eigenbases, and _certificate settles intervals by its one rule, with
    twice branch_match's margins, so round-off between the batched and the
    single product cannot move its certificate.  Across a settled interval
    the order is the previous order sent through the certificate's columns,
    which are the identity unless two eigenvalues crossed, since each
    point's raw eigenvalues are sorted, and the vectors are the raw ones.
    So the order is recomputed, in grid order, only at crossings and at the
    intervals left open, which go through branch_match and
    _inherit_degenerate from the order and vectors of their left point;
    every other point carries the order before it.

    Where no eigenvalues tie, branch_match would return the certificate's
    columns and _inherit_degenerate its input, so the result equals
    matching and inheriting point by point bit for bit.  Where a cluster
    is settled, its vectors are the raw ones, in their raw positions, where
    the point-by-point walk would permute or inherit them.  Those are bases
    of the same eigenspace, so the ledger's W, Q and C agree to round-off."""
    count, d = raw_values.shape
    overlap = np.abs(cxmat.stack_matmul(np.swapaxes(raw_vectors[:-1].conj(), -1, -2),
                                        raw_vectors[1:])) ** 2
    settled, cols = _certificate(raw_values, overlap)
    # The first interval is always walked: it gives branch_match and
    # _inherit_degenerate a call on every trajectory, which the per-layer
    # benchmark (perfbench/tracer.py) requires of every layer it lists.
    settled[0] = False
    moves = np.flatnonzero(~settled | (cols != np.arange(d)).any(axis=1))

    order = np.empty((count, d), dtype=np.intp)
    order[0] = np.argsort(raw_values[0], kind="stable")[::-1]
    walked = {0: raw_vectors[0][:, order[0]]}
    prev_order = order[0]
    for i in moves.tolist():
        if settled[i]:
            order[i + 1] = cols[i].take(prev_order)
        else:
            prev_vectors = walked[i] if i in walked else raw_vectors[i].take(prev_order, axis=1)
            order[i + 1] = branch_match(raw_values[i].take(prev_order), prev_vectors,
                                        raw_values[i + 1], raw_vectors[i + 1])
            walked[i + 1] = _inherit_degenerate(
                rho[i + 1], raw_values[i + 1].take(order[i + 1]),
                raw_vectors[i + 1].take(order[i + 1], axis=1), prev_vectors)
        prev_order = order[i + 1]

    latest = np.zeros(count, dtype=np.intp)
    latest[moves + 1] = moves + 1
    # Gathers by a C-ordered order.T on transposed views: grid-last results.
    order = np.ascontiguousarray(order[np.maximum.accumulate(latest)].T)
    values = np.take_along_axis(raw_values.T, order, axis=0).T
    vectors = np.take_along_axis(raw_vectors.T, order[:, None], axis=0).T
    for i, inherited in walked.items():
        vectors[i] = inherited
    return values, vectors


def spectral_trajectory(
    spec: ChannelSpec,
    rho0: DensityOperator,
    h: Hamiltonian,
    grid: TimeGrid,
) -> SpectralTrajectory:
    """Evolve over the whole grid and evaluate H(t) once (a static H at one
    time), diagonalize the states together with H, branch-match the states
    (walking only the steps the grid-wide certificate leaves open), then
    take the overlaps with the H eigenbasis and Tr(rho H)."""
    if h.dim != rho0.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: state dim {rho0.dim}, Hamiltonian dim {h.dim}"
        )
    tau = grid.points
    rho = evolve(spec, rho0, tau)
    hm = h.matrix(tau[0] if h.static else tau)
    eig, basis = qstate.energy_eigenbasis(hm, rho.matrix, tau)
    values, vectors = _match_branches(rho.matrix, eig.eigenvalues, eig.eigenvectors)
    # A static H's basis is one matrix shared by the stack.  For a diagonal H
    # it is the identity, and the overlap equals the stacked @'s bit for bit.
    u = basis.eigenvectors
    overlap = np.abs(cxmat.stack_matmul(np.swapaxes(u.conj(), -1, -2), vectors)) ** 2
    _validate_snapshot(tau, values, overlap)
    return SpectralTrajectory(tau, rho.matrix, values, vectors,
                              np.broadcast_to(basis.eigenvalues, values.shape), overlap,
                              qstate.internal_energy(rho, hm))


def integrate_first_law(traj: SpectralTrajectory) -> EnergeticsLedger:
    """Quadrature of the three first-law integrals plus the exact energy change.

    Per interval, with bar the endpoint average and d the endpoint
    difference along matched branches:

        dW_i = sum_nk rbar_k Obar_nk dE_n
        dQ_i = sum_nk Ebar_n Obar_nk drho_k
        dC_i = sum_nk Ebar_n rbar_k  dO_nk

    The energy change column is Tr(rho_i H_i) - Tr(rho_0 H_0) from the
    trajectory's ``energy``, never from the three sums.
    """
    energies, values, overlaps = traj.energies, traj.eigenvalues, traj.overlap

    e_bar = 0.5 * (energies[1:] + energies[:-1])
    e_diff = np.diff(energies, axis=0)
    r_bar = 0.5 * (values[1:] + values[:-1])
    r_diff = np.diff(values, axis=0)
    o_bar = 0.5 * (overlaps[1:] + overlaps[:-1])
    o_diff = np.diff(overlaps, axis=0)

    d_work = np.einsum("ik,ink,in->i", r_bar, o_bar, e_diff)
    d_heat = np.einsum("in,ink,ik->i", e_bar, o_bar, r_diff)
    d_coh = np.einsum("in,ik,ink->i", e_bar, r_bar, o_diff)

    zero = np.zeros(1)
    work = np.concatenate([zero, np.cumsum(d_work)])
    heat = np.concatenate([zero, np.cumsum(d_heat)])
    coherence = np.concatenate([zero, np.cumsum(d_coh)])

    return EnergeticsLedger(traj.tau, traj.energy - traj.energy[0], work, heat, coherence)


def run_energetics(spec: ChannelSpec, rho0: DensityOperator, h: Hamiltonian,
                   grid: TimeGrid) -> EnergeticsLedger:
    """Convenience wrapper: trajectory plus integration on ``grid``."""
    return integrate_first_law(spectral_trajectory(spec, rho0, h, grid))
