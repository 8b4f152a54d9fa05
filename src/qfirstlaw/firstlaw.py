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
product rule, second order in the step).  Two properties of this scheme are
load-bearing for the tests:

* for a static Hamiltonian, dQ + dC telescopes exactly to the energy change
  (the two-factor product rule has no remainder), so Q + C tracks
  U(tau) - U(0) to machine precision; and
* the separately reported energy change is computed from the trace formula
  Tr(rho H), never from the spectral sums, so closure of the first law is a
  genuine convergence check rather than an enforced identity.

Eigenbranches are matched between consecutive grid points by the permutation
that maximizes the total squared eigenvector overlap (ties go to the smaller
eigenvalue drift).  The overlap matrix is doubly stochastic, which certifies
most of the answer cheaply: when every row's largest overlap exceeds 1/2
the row argmaxes are the optimum, and otherwise rows whose largest overlap
exceeds 2/3 are pinned to their argmax and only the remaining rows are
searched.  That remainder can be as large as the dimension (the arbitrary
null-space eigenvectors of a pure initial state are never pinned), so the
dimension stays capped at 8.  The first snapshot is ordered by descending
eigenvalue.  Exactly degenerate eigenvalues inherit the previous snapshot's
eigenvectors (still eigenvectors, verified by residual), which keeps the
overlap matrix continuous through crossings such as the flip family passing
through the maximally mixed state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cxmat, qstate
from .channel import ChannelSpec, evolve
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
        if self.tau_max <= 0:
            raise ValueError(f"tau_max must be positive, got {self.tau_max}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.steps + 1)


@dataclass(frozen=True)
class SpectralSnapshot:
    """State spectral data at one grid point, branch-ordered.

    ``overlap[n, k]`` is |<n|k>|^2 between Hamiltonian eigenvector n and
    state eigenvector k; it is doubly stochastic.  ``time`` is the physical
    time fed to the channel and Hamiltonian (tau / rate for builtins).
    """

    tau: float
    time: float
    rho: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    energies: np.ndarray
    overlap: np.ndarray


@dataclass(frozen=True)
class SpectralTrajectory:
    grid: TimeGrid
    snapshots: tuple[SpectralSnapshot, ...]

    @property
    def dim(self) -> int:
        return len(self.snapshots[0].eigenvalues)


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
      in lexicographic order wins).

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
    table = np.array(list(itertools.permutations(free_cols)), dtype=np.intp)
    scores = overlap[free_rows, table].sum(axis=1).tolist()
    drifts = (
        np.abs(np.asarray(prev_values, dtype=float)[free_rows]
               - np.asarray(cur_values, dtype=float)[table]).sum(axis=1).tolist()
    )
    best = 0
    best_score = -np.inf
    best_drift = np.inf
    for i, (score, drift) in enumerate(zip(scores, drifts)):
        if score < best_score - _TIE_EPS:
            continue
        if score > best_score + _TIE_EPS or drift < best_drift - _TIE_EPS:
            best, best_score, best_drift = i, score, drift
    for j, k in zip(free_rows, table[best].tolist()):
        cols[j] = k
    return tuple(cols)


def _inherit_degenerate(rho_matrix, values, vectors, prev_vectors):
    """Replace eigenvectors of (near-)exactly degenerate groups with the
    previous snapshot's columns when those are still eigenvectors."""
    d = len(values)
    order = np.argsort(values)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= _DEGENERACY_GAP:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    if all(len(c) < 2 for c in clusters):
        return vectors
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
    if changed:
        gram = new_vectors.conj().T @ new_vectors
        if float(np.max(np.abs(gram - np.eye(d)))) > 1e-12:
            return vectors
    return new_vectors


def _validate_snapshot(tau, values, overlap):
    if float(values.min()) < -_EIGENVALUE_SLACK or float(values.max()) > 1.0 + _EIGENVALUE_SLACK:
        raise cxmat.NumericError(
            f"at tau={tau:.6g}: eigenvalues outside [0, 1] beyond slack: {values}"
        )
    if abs(float(values.sum()) - 1.0) > _SUM_TOL:
        raise cxmat.NumericError(
            f"at tau={tau:.6g}: eigenvalue sum {values.sum()!r} deviates from 1"
        )
    row_dev = float(np.max(np.abs(overlap.sum(axis=1) - 1.0)))
    col_dev = float(np.max(np.abs(overlap.sum(axis=0) - 1.0)))
    if max(row_dev, col_dev) > _SUM_TOL:
        raise cxmat.NumericError(
            f"at tau={tau:.6g}: overlap matrix not doubly stochastic "
            f"(row dev {row_dev:.3e}, col dev {col_dev:.3e})"
        )


def spectral_trajectory(
    spec: ChannelSpec,
    rho0: DensityOperator,
    h: Hamiltonian,
    grid: TimeGrid,
) -> SpectralTrajectory:
    """Evolve, eigendecompose, branch-match, and overlap at every grid point."""
    if rho0.dim > MAX_BRANCH_DIM:
        raise UnsupportedDimensionError(
            f"trajectories support dim <= {MAX_BRANCH_DIM}, got {rho0.dim}: "
            f"branch matching searches up to d! permutations"
        )
    if h.dim != rho0.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: state dim {rho0.dim}, Hamiltonian dim {h.dim}"
        )
    snapshots: list[SpectralSnapshot] = []
    prev: SpectralSnapshot | None = None
    for tau in grid.points:
        t = spec.physical_time(float(tau))
        rho_t = evolve(spec, rho0, t)
        try:
            eig = cxmat.hermitian_eigen(rho_t.matrix)
        except (cxmat.ConvergenceError, cxmat.NonHermitianError) as exc:
            raise type(exc)(f"at tau={tau:.6g}: {exc}") from exc
        if prev is None:
            order = list(np.argsort(eig.eigenvalues, kind="stable")[::-1])
        else:
            order = list(
                branch_match(prev.eigenvalues, prev.eigenvectors, eig.eigenvalues, eig.eigenvectors)
            )
        values = eig.eigenvalues[order]
        vectors = eig.eigenvectors[:, order]
        if prev is not None:
            vectors = _inherit_degenerate(rho_t.matrix, values, vectors, prev.eigenvectors)
        basis = qstate.energy_eigenbasis(h, t)
        overlap = np.abs(basis.basis.conj().T @ vectors) ** 2
        _validate_snapshot(tau, values, overlap)
        snap = SpectralSnapshot(
            tau=float(tau),
            time=t,
            rho=rho_t.matrix,
            eigenvalues=values,
            eigenvectors=vectors,
            energies=np.asarray(basis.energies, dtype=float),
            overlap=overlap,
        )
        snapshots.append(snap)
        prev = snap
    return SpectralTrajectory(grid, tuple(snapshots))


def integrate_first_law(traj: SpectralTrajectory, h: Hamiltonian) -> EnergeticsLedger:
    """Quadrature of the three first-law integrals plus the exact energy change.

    Per interval, with bar the endpoint average and d the endpoint
    difference along matched branches:

        dW_i = sum_nk rbar_k Obar_nk dE_n
        dQ_i = sum_nk Ebar_n Obar_nk drho_k
        dC_i = sum_nk Ebar_n rbar_k  dO_nk

    The energy change column is Tr(rho_i H_i) - Tr(rho_0 H_0) evaluated
    directly.
    """
    snaps = traj.snapshots
    energies = np.stack([s.energies for s in snaps])
    values = np.stack([s.eigenvalues for s in snaps])
    overlaps = np.stack([s.overlap for s in snaps])

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

    u = np.array(
        [qstate.internal_energy(DensityOperator(s.rho), h, s.time) for s in snaps]
    )
    delta_u = u - u[0]

    tau = np.array([s.tau for s in snaps])
    return EnergeticsLedger(tau, delta_u, work, heat, coherence)


def run_energetics(
    spec: ChannelSpec,
    rho0: DensityOperator,
    h: Hamiltonian,
    grid: TimeGrid | None = None,
) -> EnergeticsLedger:
    """Convenience wrapper: trajectory plus integration on the default grid."""
    if grid is None:
        grid = TimeGrid(DEFAULT_TAU_MAX, DEFAULT_STEPS)
    return integrate_first_law(spectral_trajectory(spec, rho0, h, grid), h)
