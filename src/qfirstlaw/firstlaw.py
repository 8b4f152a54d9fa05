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
the invariant checks and Tr(rho H).  H(t) is evaluated once, so the
eigenbasis and Tr(rho H) see the same Hamiltonian, and the state stack and
the H matrices that need the eigensolver go through one Jacobi loop
(``qstate.energy_eigenbasis``).
Branch matching certifies steps for the whole grid at once.  The branch
order is carried over settled steps and recomputed only at crossings and
walked steps: the steps left open (the first, near-ties and degenerate
endpoints) are matched point by point against the point before them.

Eigenbranches are matched between consecutive grid points by the permutation
that maximizes the total squared eigenvector overlap (ties go to the smaller
eigenvalue drift).  The overlap matrix is doubly stochastic, which certifies
most of the answer cheaply: when every row's largest overlap exceeds 1/2
the row argmaxes are the optimum, and otherwise rows whose largest overlap
exceeds 2/3 are pinned to their argmax and only the remaining rows are
searched.  That remainder can be as large as the dimension (the arbitrary
null-space eigenvectors of a pure initial state are never pinned), so the
dimension stays capped at 8.  The first grid point is ordered by descending
eigenvalue.  Exactly degenerate eigenvalues inherit the previous grid
point's eigenvectors (still eigenvectors, verified by residual), which keeps
the overlap matrix continuous through crossings such as the flip family
passing through the maximally mixed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import cxmat, qstate
from .channel import CPTP_TOL, ChannelSpec, evolve
from .qstate import DensityOperator, Hamiltonian

#: Branch matching searches up to d! permutations of the rows it cannot pin.
MAX_BRANCH_DIM = 8

DEFAULT_TAU_MAX = 8.0
DEFAULT_STEPS = 4000

_EIGENVALUE_SLACK = 1e-10
_SUM_TOL = 1e-10
_DEGENERACY_GAP = 1e-12
_TIE_EPS = 1e-12


class UnsupportedDimensionError(ValueError):
    """Trajectory dimension exceeds MAX_BRANCH_DIM."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dimensionless-time grid tau_i = i * tau_max / steps, i = 0..steps."""

    tau_max: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.tau_max) and self.tau_max > 0):
            raise ValueError(f"tau_max must be finite and positive, got {self.tau_max}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, Integral) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.steps + 1)


@dataclass(frozen=True)
class SpectralTrajectory:
    """Branch-ordered spectral data, one array row per grid point.

    ``tau`` is the grid's time, fed as-is to the channel and Hamiltonian.
    ``overlap[i, n, k]`` is |<n|k>|^2 between Hamiltonian eigenvector n and
    state eigenvector k at grid point i; each such matrix is doubly
    stochastic.  ``energies`` are the Hamiltonian eigenvalues E_n and
    ``energy`` is the internal energy Tr(rho_i H_i)."""

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
    maximum of row j and c_j its column, and margins beyond the tie
    tolerance:

    * if every m_j exceeds 1/2, the c_j are distinct and any other
      permutation loses at least sum (2 m_j - 1) over the two or more rows
      it changes, so the argmax permutation is the unique optimum;
    * otherwise a row with m_j > 2/3 is pinned to c_j: moving it elsewhere
      costs at least 3 m_j - 2, so every optimum keeps it, and only the
      remaining rows and columns are searched (score, then drift, first
      in lexicographic order wins).  Permutations whose score lies far
      below the best score before them are skipped: the search could
      never pick them, so the result is that of the full search.

    Inputs that are not orthonormal get the search over all rows.
    """
    d = len(cur_values)
    if d > MAX_BRANCH_DIM:
        raise UnsupportedDimensionError(
            f"branch matching supports dim <= {MAX_BRANCH_DIM}, got {d}: "
            f"rows it cannot pin are searched over up to d! permutations"
        )
    overlap = np.abs(np.asarray(prev_vectors).conj().T @ np.asarray(cur_vectors)) ** 2
    rows = overlap.tolist()
    peaks = [max(row) for row in rows]
    cols = [row.index(peak) for row, peak in zip(rows, peaks)]
    if min(peaks) > 0.5 + _TIE_EPS and len(set(cols)) == d:
        return tuple(cols)

    pins = {j: cols[j] for j in range(d) if 3.0 * peaks[j] - 2.0 > 2.0 * _TIE_EPS}
    if len(set(pins.values())) < len(pins):  # only if the overlap is not doubly stochastic
        pins = {}
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
    """Which intervals the certificate settles, and the row argmaxes of
    each interval's raw-basis overlap (ties to the first column).  Settled:
    every row peak exceeds 1/2 + 2 _TIE_EPS, the argmaxes are distinct and
    no two eigenvalues at either endpoint lie within _DEGENERACY_GAP.  Each
    pass is elementwise over one matrix index, over the grid-last stacks."""
    d = raw_values.shape[1]
    by_col = overlap.transpose(2, 1, 0)
    peaks = by_col[0].copy()
    cols = np.zeros(peaks.shape, dtype=np.intp)
    for k in range(1, d):
        better = by_col[k] > peaks
        np.maximum(peaks, by_col[k], out=peaks)
        cols[better] = k
    distinct = np.ones(len(overlap), dtype=bool)
    values = raw_values.T
    plain = np.ones(len(raw_values), dtype=bool)
    for j in range(d - 1):
        distinct &= (cols[j + 1:] != cols[j]).all(axis=0)
        plain &= (np.abs(values[j + 1:] - values[j]) > _DEGENERACY_GAP).all(axis=0)
    settled = (peaks.min(axis=0) > 0.5 + 2.0 * _TIE_EPS) & distinct & plain[:-1] & plain[1:]
    return settled, cols.T


def _match_branches(rho, raw_values, raw_vectors):
    """Branch-ordered eigenvalues and eigenvectors for the whole grid,
    equal bit for bit to matching and inheriting point by point.

    One batched product gives the overlap of every pair of consecutive raw
    eigenbases.  An interval is settled when every row peak exceeds
    1/2 + 2 _TIE_EPS (twice branch_match's margin, so round-off between the
    batched and the single product cannot move its certificate), the
    argmaxes are distinct and neither endpoint has a degenerate cluster
    (so _inherit_degenerate returns its input there).  Across a settled
    interval the order is the previous order sent through the argmaxes,
    which are the identity unless two eigenvalues crossed, since each
    point's raw eigenvalues are sorted.  So the order is recomputed, in
    grid order, only at crossings and at the intervals left open, which go
    through branch_match and _inherit_degenerate from the order and vectors
    of their left point; every other point carries the order before it."""
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
    """Evolve over the whole grid and evaluate H(t) once, diagonalize the
    states together with H, branch-match the states (walking only the
    steps the grid-wide certificate leaves open), then take the overlaps
    with the H eigenbasis and Tr(rho H)."""
    if rho0.dim > MAX_BRANCH_DIM:
        raise UnsupportedDimensionError(
            f"trajectories support dim <= {MAX_BRANCH_DIM}, got {rho0.dim}: "
            f"branch matching searches up to d! permutations"
        )
    if h.dim != rho0.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: state dim {rho0.dim}, Hamiltonian dim {h.dim}"
        )
    tau = grid.points
    rho = evolve(spec, rho0, tau)
    hm = h.matrix(tau)
    eig, basis = qstate.energy_eigenbasis(hm, rho.matrix, tau)
    values, vectors = _match_branches(rho.matrix, eig.eigenvalues, eig.eigenvectors)
    # For a diagonal H (every figure) the basis is the identity: each sum has
    # one non-zero term, and the overlap equals the stacked @'s bit for bit.
    # A basis that is the same at every point (a stride-0 view) goes in as one
    # matrix, so its conjugate is not expanded over the grid.
    u = basis.basis[0] if basis.basis.strides[0] == 0 else basis.basis
    overlap = np.abs(cxmat.stack_matmul(np.swapaxes(u.conj(), -1, -2), vectors)) ** 2
    _validate_snapshot(tau, values, overlap)
    return SpectralTrajectory(tau, rho.matrix, values, vectors,
                              basis.energies, overlap, qstate.internal_energy(rho, hm))


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
