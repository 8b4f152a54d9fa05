import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qfirstlaw import cli, cxmat, exprparse, firstlaw, oracle, qstate
from qfirstlaw.channel import ChannelSpec, evolve, kraus_at
from qfirstlaw.firstlaw import (
    MAX_BRANCH_DIM,
    TimeGrid,
    UnsupportedDimensionError,
    branch_match,
    integrate_first_law,
    run_energetics,
    spectral_trajectory,
)
from qfirstlaw.qstate import DensityOperator, Hamiltonian, prepare_pure_state
from qfirstlaw.verification import ORACLE_TOL

REFERENCE_STATE = prepare_pure_state(math.pi / 6)
H_DEFAULT = Hamiltonian([0.0, 1.0])

_REFERENCE_TIE_EPS = 1e-12


def reference_branch_match(prev_values, prev_vectors, cur_values, cur_vectors):
    """The original exhaustive fold over all d! permutations, kept as the
    reference that the certified search must reproduce."""
    d = len(cur_values)
    overlap = np.abs(np.asarray(prev_vectors).conj().T @ np.asarray(cur_vectors)) ** 2
    prev_values = np.asarray(prev_values, dtype=float)
    cur_values = np.asarray(cur_values, dtype=float)
    rows = range(d)
    best_perm = None
    best_score = -np.inf
    best_drift = np.inf
    for perm in itertools.permutations(range(d)):
        score = sum(overlap[j, perm[j]] for j in rows)
        if score < best_score - _REFERENCE_TIE_EPS:
            continue
        drift = sum(abs(prev_values[j] - cur_values[perm[j]]) for j in rows)
        if score > best_score + _REFERENCE_TIE_EPS or drift < best_drift - _REFERENCE_TIE_EPS:
            best_perm, best_score, best_drift = perm, score, drift
    return best_perm


class TestTimeGrid:
    def test_points(self):
        grid = TimeGrid(2.0, 4)
        assert np.allclose(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("tau_max", [math.nan, math.inf, -math.inf, -1.0,
                                         True, np.bool_(True), "2", None, 1 + 0j,
                                         10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)])
    def test_rejects_non_finite_tau_max(self, tau_max):
        with pytest.raises(ValueError, match="tau_max must be finite and positive"):
            TimeGrid(tau_max, 10)

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, False, "10", None])
    def test_rejects_non_integral_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            TimeGrid(1.0, steps)

    def test_accepts_numpy_integers(self):
        assert len(TimeGrid(1, np.int64(4)).points) == 5

    def test_accepts_an_exact_fraction(self):
        points = TimeGrid(Fraction(1, 2), 3).points
        assert points.dtype == np.float64
        assert points.tobytes() == TimeGrid(0.5, 3).points.tobytes()


class TestBranchMatch:
    def setup_method(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.eig = cxmat.hermitian_eigen(raw + raw.conj().T)

    def test_identity(self):
        perm = branch_match(
            self.eig.eigenvalues, self.eig.eigenvectors,
            self.eig.eigenvalues, self.eig.eigenvectors,
        )
        assert perm == (0, 1, 2, 3)

    def test_swapped_columns(self):
        order = [2, 0, 3, 1]
        perm = branch_match(
            self.eig.eigenvalues, self.eig.eigenvectors,
            self.eig.eigenvalues[order], self.eig.eigenvectors[:, order],
        )
        assert [order[p] for p in perm] == [0, 1, 2, 3]

    def test_guard_counts_the_unpinned_rows_not_the_dimension(self):
        # the identity pins all 9 rows; one pinned row and an 8 x 8 DFT block
        # leave 8 to search, every permutation of which scores 1, so the
        # drift picks the identity; the 9 x 9 DFT, whose overlaps are all
        # 1/9, pins none
        eye = np.eye(9)
        assert branch_match(np.arange(9), eye, np.arange(9), eye) == tuple(range(9))
        block = np.eye(9, dtype=complex)
        block[1:, 1:] = np.exp(2j * np.pi * np.outer(range(8), range(8)) / 8) / math.sqrt(8)
        assert branch_match(np.arange(9), eye, np.arange(9), block) == tuple(range(9))
        dft = np.exp(2j * np.pi * np.outer(range(9), range(9)) / 9) / 3
        with pytest.raises(UnsupportedDimensionError,
                           match="^branch matching left 9 of 9 branches unpinned; "
                                 "it searches at most 8$"):
            branch_match(np.arange(9), eye, np.arange(9), dft)

    def test_tie_broken_by_eigenvalue_drift(self):
        # identical eigenvector overlaps; only the values disambiguate
        eye = np.eye(2, dtype=complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        perm = branch_match(np.array([0.2, 0.8]), had, np.array([0.75, 0.25]), eye)
        # both permutations score 1.0; (1, 0) has the smaller eigenvalue drift
        assert perm == (1, 0)


@pytest.fixture
def checked_matches():
    """A branch matcher that compares every match with the exhaustive
    reference; ``checked.matches`` lists the permutations it returned."""
    def checked(*args):
        perm = branch_match(*args)
        expected = reference_branch_match(*args)
        assert perm == expected, f"step {len(checked.matches) + 1}: {perm} != reference {expected}"
        checked.matches.append(perm)
        return perm

    checked.matches = []
    return checked


def _assert_checked_reference(match, spec, rho0, h, grid):
    """Every step that the per-step reference or walk_every_step walks
    agrees with the exhaustive search, spectral_trajectory equals the
    reference bit for bit, and its ledger is walk_every_step's within 1e-13."""
    values, vectors, overlap = reference_trajectory(spec, rho0, h, grid, match)
    traj = spectral_trajectory(spec, rho0, h, grid)
    assert np.array_equal(traj.eigenvalues, values)
    assert np.array_equal(traj.eigenvectors, vectors)
    assert np.array_equal(traj.overlap, overlap)
    # the walk of every step agrees with the exhaustive search on every
    # step, and the cluster rule leaves its ledger unchanged
    match.matches.clear()
    assert_ledger_matches_walk_every_step(traj, spec, rho0, h, grid, match)
    assert len(match.matches) == grid.steps


def _haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mixed_unitary_channel(rng, d, n_unitaries=3, v=None):
    """K0 = sqrt(e^-t) I and K_i = sqrt(w_i (1 - e^-t)) U_i with Haar U_i,
    each U_i conjugated by the unitary v if one is given."""
    def num(x):
        return repr(float(x))

    identity = [[("sqrt(exp(-t))" if i == j else "0", "0") for j in range(d)] for i in range(d)]
    operators = [identity]
    for w in rng.dirichlet(np.ones(n_unitaries)):
        u = _haar_unitary(rng, d)
        if v is not None:
            u = v @ u @ v.conj().T
        scale = f"*sqrt({num(w)}*(1-exp(-t)))"
        operators.append([[(num(u[i, j].real) + scale, num(u[i, j].imag) + scale)
                           for j in range(d)] for i in range(d)])
    return ChannelSpec.custom(operators, dim=d)


def _rotations(pairs, d):
    """Product of real plane rotations; rotation ((a, b), p) alone gives
    overlaps p and 1 - p between basis states a and b."""
    u = np.eye(d, dtype=complex)
    for (a, b), p in pairs:
        r = np.eye(d, dtype=complex)
        c, s = math.sqrt(p), math.sqrt(1.0 - p)
        r[a, a], r[a, b], r[b, a], r[b, b] = c, s, -s, c
        u = u @ r
    return u


# Overlap patterns with rows at a bound.  (a) rows 0 and 1 at the bound and
# rows 2 and 3 pinned at 0.9.  (b) row 0 at the bound, row 2 at [0, 1/2, 1/2]
# so the full certificate fails and row 0's pin alone decides the residual.
_CRAFTED_PATTERNS = {
    "pinned-pair": (4, lambda peak: [((0, 1), peak), ((2, 3), 0.9)]),
    "split-row": (3, lambda peak: [((0, 1), peak), ((1, 2), 0.5)]),
}


class TestBranchMatchAgreesWithExhaustive:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    @pytest.mark.parametrize(
        "spec",
        [ChannelSpec.phase_damping(), ChannelSpec.phase_flip(),
         ChannelSpec.bit_flip(), ChannelSpec.bit_phase_flip()],
        ids=lambda spec: spec.kind,
    )
    # the second grid puts tau = ln 2, where the flips at theta = pi/4 cross
    # the maximally mixed state, on grid point 50
    @pytest.mark.parametrize("grid", [TimeGrid(8.0, 400), TimeGrid(4 * math.log(2), 200)],
                             ids=["tau8", "through-ln2"])
    def test_builtin_ledgers(self, checked_matches, spec, theta, grid):
        rho0 = prepare_pure_state(theta)
        _assert_checked_reference(checked_matches, spec, rho0, H_DEFAULT, grid)

    @pytest.mark.parametrize(
        "d, seed",
        [(d, seed) for d in range(3, MAX_BRANCH_DIM) for seed in range(3)] + [(MAX_BRANCH_DIM, 0)],
    )
    def test_mixed_unitary_channels_from_pure_states(self, checked_matches, d, seed):
        rng = np.random.default_rng(1000 * seed + d)
        spec = _mixed_unitary_channel(rng, d)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = Hamiltonian.from_matrix(0.25 * (z + z.conj().T))
        _assert_checked_reference(checked_matches, spec,
                                  DensityOperator(np.outer(psi, psi.conj())), h,
                                  TimeGrid(4.0, 16))

    @pytest.mark.parametrize("pattern", sorted(_CRAFTED_PATTERNS))
    @pytest.mark.parametrize("peak", [2 / 3 - 1e-13, 2 / 3 + 1e-13, 0.5 - 1e-13, 0.5 + 1e-13])
    @pytest.mark.parametrize("seed", range(6))
    def test_crafted_overlaps_near_the_bounds(self, pattern, peak, seed):
        rng = np.random.default_rng(seed)
        d, pairs = _CRAFTED_PATTERNS[pattern]
        u = _rotations(pairs(peak), d)
        cur_vectors = u[:, rng.permutation(d)]
        prev_values = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        cur_values = rng.dirichlet(np.ones(d))
        for prev_vectors in (np.eye(d, dtype=complex), u):
            args = (prev_values, prev_vectors, cur_values, cur_vectors)
            assert branch_match(*args) == reference_branch_match(*args)
        # the rotation at the bound alone, at d = 2
        two = _rotations([((0, 1), peak)], 2)[:, rng.permutation(2)]
        args = (prev_values[:2], np.eye(2, dtype=complex), cur_values[:2], two)
        assert branch_match(*args) == reference_branch_match(*args)

    def test_row_above_half_can_leave_its_argmax(self):
        # why rows are pinned only above 2/3: here row 1 peaks at 0.514 in
        # column 0, yet the optimum sends it to column 1
        rng = np.random.default_rng(64)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        overlap = np.abs(u) ** 2
        values = np.array([0.5, 0.3, 0.2])
        args = (values, np.eye(3, dtype=complex), values, u)
        perm = branch_match(*args)
        assert perm == reference_branch_match(*args) == (2, 1, 0)
        assert 0.5 < overlap[1].max() < 2 / 3
        assert overlap[1].argmax() != perm[1]

    def test_non_orthonormal_input_still_gets_a_permutation(self):
        # both previous vectors are e0, so both rows peak in column 0
        prev_vectors = np.array([[1, 1], [0, 0]], dtype=complex)
        args = (np.array([0.6, 0.4]), prev_vectors, np.array([0.3, 0.7]), np.eye(2))
        perm = branch_match(*args)
        assert sorted(perm) == [0, 1]
        assert perm == reference_branch_match(*args)

    @pytest.mark.parametrize("cur_values", [[0.75, 0.25], [0.25, 0.75], [0.5, 0.5]])
    def test_hadamard_exact_tie(self, cur_values):
        eye = np.eye(2, dtype=complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        args = (np.array([0.2, 0.8]), had, np.array(cur_values), eye)
        assert branch_match(*args) == reference_branch_match(*args)


    @pytest.mark.parametrize("k", range(1, MAX_BRANCH_DIM + 1))
    def test_permutation_table_is_in_itertools_order(self, k):
        table = firstlaw._permutation_table(k)
        assert table.dtype == np.intp
        assert table.tolist() == [list(p) for p in itertools.permutations(range(k))]

    @pytest.mark.parametrize("spread", [1e-13, 1e-3])
    @pytest.mark.parametrize("blocks", [(5,), (3, 3), (4, 3), (2, 2, 2), (2, 3, 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_plateau_of_near_ties_agrees_with_exhaustive(self, blocks, seed, spread):
        # Fourier blocks give every permutation that stays inside the blocks
        # the same score; a rotation by a few 1e-12 spreads those scores over
        # a few _TIE_EPS.  Eigenvalues ``spread`` apart tie the drifts too
        # (1e-13) or let them decide among the tied scores (1e-3).
        # Permutations that cross blocks score far lower and are skipped.
        rng = np.random.default_rng(seed)
        d = sum(blocks)
        u = np.zeros((d, d), dtype=complex)
        start = 0
        for b in blocks:
            u[start:start + b, start:start + b] = np.fft.fft(np.eye(b)) / math.sqrt(b)
            start += b
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        energies, basis = np.linalg.eigh(z + z.conj().T)
        nudge = (basis * np.exp(3e-12j * energies)) @ basis.conj().T
        cur_vectors = (u @ nudge)[:, rng.permutation(d)]
        prev_values = np.full(d, 1.0 / d) + rng.normal(scale=spread, size=d)
        cur_values = np.full(d, 1.0 / d) + rng.normal(scale=spread, size=d)
        for prev_vectors in (np.eye(d, dtype=complex), nudge):
            args = (prev_values, prev_vectors, cur_values, cur_vectors)
            assert branch_match(*args) == reference_branch_match(*args)


def reference_inherit_degenerate(rho_matrix, values, vectors, prev_vectors):
    """Degeneracy inheritance as it stood before its early return, kept as
    the reference for the trajectory loop."""
    d = len(values)
    order = np.argsort(values)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= firstlaw._DEGENERACY_GAP:
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


def _tied_pairs(values):
    """The index pairs j < k whose values lie within _DEGENERACY_GAP."""
    d = len(values)
    return {(j, k) for j in range(d) for k in range(j + 1, d)
            if abs(values[j] - values[k]) <= firstlaw._DEGENERACY_GAP}


def interval_columns(prev_values, cur_values, overlap):
    """The settle rule for one interval, written per step: whether it is
    settled, and the column of each raw row.  A row whose value ties another
    at the left end keeps its own index, every other row goes to its argmax.
    Settled when both ends tie the same index pairs, every two tied indices
    tie each other (at most one cluster), the columns form a permutation,
    and every untied row peaks above 1/2 + 2 _TIE_EPS with no ties, or above
    2/3 + 4/3 _TIE_EPS with one cluster."""
    ties = _tied_pairs(prev_values)
    tied = {j for pair in ties for j in pair}
    columns = [j if j in tied else int(np.argmax(row)) for j, row in enumerate(overlap)]
    if ties != _tied_pairs(cur_values) or len(ties) != len(tied) * (len(tied) - 1) // 2:
        return False, columns
    for j, row in enumerate(overlap):
        peak = max(row)
        if j not in tied and not (3.0 * peak - 2.0 > 4.0 * firstlaw._TIE_EPS if ties
                                  else peak > 0.5 + 2.0 * firstlaw._TIE_EPS):
            return False, columns
    return sorted(columns) == list(range(len(columns))), columns


def walk_every_step(rho, raw_values, raw_vectors, match=branch_match):
    """Branch-ordered (values, vectors) from the indexed per-step loop over
    raw eigensystem stacks, one ``match`` call and one inheritance per step,
    kept as the ledger reference for the steps the cluster rule settles."""
    values = np.empty_like(raw_values)
    vectors = np.empty_like(raw_vectors)
    order = np.argsort(raw_values[0], kind="stable")[::-1]
    values[0], vectors[0] = raw_values[0, order], raw_vectors[0][:, order]
    for i in range(1, len(raw_values)):
        order = list(match(values[i - 1], vectors[i - 1], raw_values[i], raw_vectors[i]))
        values[i] = raw_values[i, order]
        vectors[i] = reference_inherit_degenerate(rho[i], values[i], raw_vectors[i][:, order],
                                                  vectors[i - 1])
    return values, vectors


def reference_match(rho, raw_values, raw_vectors, match=branch_match):
    """Branch-ordered (values, vectors) from the indexed per-step loop over
    raw eigensystem stacks.  A step after the first that interval_columns
    settles, on the raw overlap of its endpoints, sends the order through
    its columns and keeps the raw vectors (with no ties, those columns must
    be ``match``'s answer); every other step is one ``match`` call and one
    inheritance, as in walk_every_step."""
    values = np.empty_like(raw_values)
    vectors = np.empty_like(raw_vectors)
    order = np.argsort(raw_values[0], kind="stable")[::-1]
    values[0], vectors[0] = raw_values[0, order], raw_vectors[0][:, order]
    for i in range(1, len(raw_values)):
        overlap = np.abs(raw_vectors[i - 1].conj().T @ raw_vectors[i]) ** 2
        settled, columns = interval_columns(raw_values[i - 1], raw_values[i], overlap)
        if i > 1 and settled:
            order = [columns[k] for k in order]
            if not _tied_pairs(raw_values[i - 1]):
                # with no ties, the settled columns are match's own answer
                assert order == list(match(values[i - 1], vectors[i - 1],
                                           raw_values[i], raw_vectors[i]))
            values[i], vectors[i] = raw_values[i, order], raw_vectors[i][:, order]
            continue
        order = list(match(values[i - 1], vectors[i - 1], raw_values[i], raw_vectors[i]))
        values[i] = raw_values[i, order]
        vectors[i] = reference_inherit_degenerate(rho[i], values[i], raw_vectors[i][:, order],
                                                  vectors[i - 1])
    return values, vectors


def reference_trajectory(spec, rho0, h, grid, match=branch_match, loop=reference_match):
    """(eigenvalues, eigenvectors, overlap) from an indexed per-step loop;
    with reference_match, the reference that spectral_trajectory must
    reproduce bit for bit."""
    rho = evolve(spec, rho0, grid.points).matrix
    eig = cxmat.hermitian_eigen(rho)
    values, vectors = loop(rho, eig.eigenvalues, eig.eigenvectors, match)
    basis = qstate.energy_eigenbasis(h.matrix(grid.points)).eigenvectors
    overlap = np.abs(cxmat.stack_matmul(np.swapaxes(basis.conj(), -1, -2), vectors)) ** 2
    return values, vectors, overlap


def assert_ledger_matches_walk_every_step(traj, spec, rho0, h, grid, match=branch_match):
    """W, Q and C of ``traj`` lie within 1e-13 of the ledger of the same
    trajectory matched by walk_every_step."""
    values, vectors, overlap = reference_trajectory(spec, rho0, h, grid, match, walk_every_step)
    walked = integrate_first_law(dataclasses.replace(
        traj, eigenvalues=values, eigenvectors=vectors, overlap=overlap))
    ledger = integrate_first_law(traj)
    for name in ("work", "heat", "coherence"):
        assert np.max(np.abs(getattr(ledger, name) - getattr(walked, name))) <= 1e-13, name


BUILTIN_SPECS = [ChannelSpec.phase_damping(), ChannelSpec.phase_flip(),
                 ChannelSpec.bit_flip(), ChannelSpec.bit_phase_flip()]
# tau = ln 2, where the flips at theta = pi/4 cross the maximally mixed
# state, is grid point 50 of the second grid
GRIDS = {"tau8": TimeGrid(8.0, 400), "through-ln2": TimeGrid(4 * math.log(2), 200)}


def _pure_state_mixed_unitary(d, seed):
    rng = np.random.default_rng(1000 * seed + d)
    spec = _mixed_unitary_channel(rng, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = Hamiltonian.from_matrix(0.25 * (z + z.conj().T))
    return spec, DensityOperator(np.outer(psi, psi.conj())), h


@pytest.fixture
def walk(monkeypatch):
    """Record, in call order, every branch match of a trajectory as
    ("match", None, None) and every degeneracy inheritance as ("inherit", rho,
    whether it returned a new array rather than the vectors it was given)."""
    calls = []
    match, inherit = firstlaw.branch_match, firstlaw._inherit_degenerate

    def recorded_match(*args):
        calls.append(("match", None, None))
        return match(*args)

    def recorded_inherit(*args):
        result = inherit(*args)
        calls.append(("inherit", args[0], result is not args[2]))
        return result

    monkeypatch.setattr(firstlaw, "branch_match", recorded_match)
    monkeypatch.setattr(firstlaw, "_inherit_degenerate", recorded_inherit)
    return calls


def _walked_points(calls, spec, rho0, grid):
    """Grid points whose step was walked, and those that inherited, from the
    state each inheritance was given."""
    rho = evolve(spec, rho0, grid.points).matrix
    points = [(int(np.flatnonzero((rho == m).all(axis=(1, 2)))[0]), replaced)
              for kind, m, replaced in calls if kind == "inherit"]
    return [p for p, _ in points], [p for p, replaced in points if replaced]


def sorted_certificate(raw_values, overlap):
    """interval_columns over every interval, kept as _certificate's reference."""
    results = [interval_columns(raw_values[i], raw_values[i + 1], overlap[i])
               for i in range(len(overlap))]
    return (np.array([settled for settled, _ in results], dtype=bool),
            np.array([columns for _, columns in results], dtype=np.intp))


class TestCertificate:
    def _assert_equal(self, raw_values, overlap):
        settled, cols = firstlaw._certificate(raw_values, overlap)
        expected_settled, expected_cols = sorted_certificate(raw_values, overlap)
        assert np.array_equal(settled, expected_settled)
        assert np.array_equal(cols, expected_cols)
        return settled

    @pytest.mark.parametrize("d", range(1, MAX_BRANCH_DIM + 1))
    def test_random_stacks(self, d):
        # consecutive bases a small random rotation apart, with their
        # columns shuffled, and every seventh point maximally mixed, so both
        # outcomes occur
        rng = np.random.default_rng(d)
        count = 60
        z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        steps = np.linalg.qr(np.eye(d) + rng.choice([0.05, 0.3, 1.0], size=(count, 1, 1)) * z)[0]
        vectors = np.empty_like(steps)
        vectors[0] = steps[0]
        for i in range(1, count):
            vectors[i] = (vectors[i - 1] @ steps[i])[:, rng.permutation(d)]
        overlap = np.abs(cxmat.stack_matmul(vectors[:-1].conj().swapaxes(-1, -2),
                                            vectors[1:])) ** 2
        raw_values = rng.dirichlet(np.ones(d), size=count)
        raw_values[::7] = 1.0 / d
        settled = self._assert_equal(raw_values, overlap)
        if d > 1:
            assert settled.any() and not settled.all()
        # coarse overlaps: ties everywhere, argmaxes go to the first column
        self._assert_equal(raw_values, np.round(overlap * 4) / 4)

    @pytest.mark.parametrize("d", range(2, MAX_BRANCH_DIM + 1))
    def test_unsorted_raw_values(self, d):
        # two levels at, just inside and just outside the degeneracy gap,
        # anywhere in the row
        rng = np.random.default_rng(100 + d)
        gap = firstlaw._DEGENERACY_GAP
        rows = []
        for offset in [0.0, 0.5 * gap, gap, 2.0 * gap, 0.1]:
            for _ in range(6):
                row = np.sort(rng.random(d))
                row[1] = row[0] + offset
                rows.append(rng.permutation(row))
        raw_values = np.array(rows)
        overlap = np.tile(np.eye(d), (len(rows) - 1, 1, 1))
        settled = self._assert_equal(raw_values, overlap)
        assert settled.any() and not settled.all()

    def test_repeated_argmax(self):
        overlap = np.array([np.eye(3), np.eye(3)[[0, 0, 2]], np.eye(3)[[2, 1, 2]]])
        raw_values = np.tile([0.5, 0.3, 0.2], (4, 1))
        settled = self._assert_equal(raw_values, overlap)
        assert settled.tolist() == [True, False, False]

    def test_two_clusters_or_a_chain_are_left_open(self):
        # the same ties at both ends settle one cluster (a pair, a triple),
        # not two pairs, nor a chain whose ends lie more than the gap apart
        gap = firstlaw._DEGENERACY_GAP
        pair, two_pairs = [0.1, 0.1, 0.3, 0.5], [0.2, 0.2, 0.3, 0.3]
        triple, chain = [0.1, 0.1, 0.1, 0.7], [0.1, 0.1 + 0.8 * gap, 0.1 + 1.6 * gap, 0.7]
        raw_values = np.array([pair, pair, two_pairs, two_pairs, triple, triple, chain, chain])
        overlap = np.tile(np.eye(4), (len(raw_values) - 1, 1, 1))
        settled = self._assert_equal(raw_values, overlap)
        assert settled.tolist() == [True, False, False, False, True, False, False]

    @pytest.mark.parametrize("d", range(3, MAX_BRANCH_DIM + 1))
    def test_clusters_that_persist_form_split_and_move(self, d):
        # random rotations of a basis, its columns shuffled at half the
        # points, whose values tie a pair at some points, the same pair on
        # runs of points, another pair, or nothing: every mix of ties at the
        # two ends of an interval occurs
        rng = np.random.default_rng(200 + d)
        count = 80
        z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        steps = np.linalg.qr(np.eye(d) + rng.choice([0.02, 0.3], size=(count, 1, 1)) * z)[0]
        vectors = np.empty_like(steps)
        vectors[0] = steps[0]
        for i in range(1, count):
            shuffle = rng.permutation(d) if rng.random() < 0.5 else np.arange(d)
            vectors[i] = (vectors[i - 1] @ steps[i])[:, shuffle]
        overlap = np.abs(cxmat.stack_matmul(vectors[:-1].conj().swapaxes(-1, -2),
                                            vectors[1:])) ** 2
        raw_values = np.sort(rng.random((count, d)), axis=1)
        pair = rng.choice([-1, 0, 1], size=count, p=[0.2, 0.6, 0.2])
        for i, p in enumerate(pair.tolist()):
            if p >= 0:
                raw_values[i, p + 1] = raw_values[i, p]
        settled = self._assert_equal(raw_values, overlap)
        tied = pair >= 0
        both = tied[:-1] & tied[1:]
        # the rule settles some intervals with ties at both ends and not others
        assert settled[both].any() and not settled[both].all()


class TestMatchingLoop:
    def _assert_matches_reference(self, spec, rho0, h, grid):
        traj = spectral_trajectory(spec, rho0, h, grid)
        values, vectors, overlap = reference_trajectory(spec, rho0, h, grid)
        assert np.array_equal(traj.eigenvalues, values)
        assert np.array_equal(traj.eigenvectors, vectors)
        assert np.array_equal(traj.overlap, overlap)
        return traj

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4])
    @pytest.mark.parametrize("spec", BUILTIN_SPECS, ids=lambda spec: spec.kind)
    def test_builtin_channels_match_the_indexed_loop(self, spec, theta, grid):
        rho0 = prepare_pure_state(theta)
        self._assert_matches_reference(spec, rho0, H_DEFAULT, grid)

    @pytest.mark.parametrize("d", range(3, MAX_BRANCH_DIM + 1))
    def test_mixed_unitary_channels_match_the_indexed_loop(self, d):
        inputs = *_pure_state_mixed_unitary(d, 0), TimeGrid(4.0, 16)
        traj = self._assert_matches_reference(*inputs)
        assert_ledger_matches_walk_every_step(traj, *inputs)
        if d == MAX_BRANCH_DIM:
            # rank 4 at most: the null cluster stays degenerate on every row
            gaps = np.diff(np.sort(traj.eigenvalues[1:], axis=1), axis=1)
            assert np.all(np.sum(gaps <= firstlaw._DEGENERACY_GAP, axis=1) >= 3)

    @pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_one_inheritance_call_per_step(self, walk, grid):
        # every walked step is one match followed by one inheritance, and
        # the first step is always walked
        rho0 = prepare_pure_state(math.pi / 4)
        spectral_trajectory(ChannelSpec.phase_flip(), rho0, H_DEFAULT, grid)
        kinds = [kind for kind, *_ in walk]
        assert len(kinds) >= 2
        assert kinds == ["match", "inherit"] * (len(kinds) // 2)
        points, _ = _walked_points(walk, ChannelSpec.phase_flip(), rho0, grid)
        assert points[0] == 1 and points == sorted(set(points))

    def test_only_the_crossing_point_inherits(self, walk):
        # tau = ln 2 (grid point 50) is the maximally mixed state: both
        # steps that touch it are walked, and only it inherits
        rho0 = prepare_pure_state(math.pi / 4)
        grid = GRIDS["through-ln2"]
        spectral_trajectory(ChannelSpec.phase_flip(), rho0, H_DEFAULT, grid)
        points, inherited = _walked_points(walk, ChannelSpec.phase_flip(), rho0, grid)
        assert points == [1, 50, 51]
        assert inherited == [50]

    def test_certified_qubit_ledger_walks_one_step(self, walk):
        run_energetics(ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT,
                       TimeGrid(8.0, 4000))
        assert [kind for kind, *_ in walk] == ["match", "inherit"]

    @pytest.mark.parametrize("d", range(2, MAX_BRANCH_DIM + 1))
    def test_reordering_settled_steps_match_the_indexed_loop(self, walk, d):
        # raw columns re-permuted at every point with well-separated values,
        # so most settled intervals reorder the branches; every 11th point is
        # degenerate with an unrotated basis (it inherits) and every 13th a
        # near-tie rotation away from the point before, so those are walked
        rng = np.random.default_rng(d)
        count = 60
        levels = np.arange(1.0, d + 1.0) / (d * (d + 1) / 2)
        basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        raw_values = np.empty((count, d))
        raw_vectors = np.empty((count, d, d), dtype=complex)
        for i in range(count):
            point_levels = levels.copy()
            if i % 11 == 5:
                point_levels[1] = point_levels[0]
            elif i % 13 == 7:
                basis = basis @ _rotations([((0, 1), 0.5 + 1e-12)], d)
            else:
                z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                basis = basis @ np.linalg.qr(np.eye(d) + 0.05 * z)[0]
            perm = rng.permutation(d)
            raw_values[i], raw_vectors[i] = point_levels[perm], basis[:, perm]
        rho = np.einsum("tij,tj,tkj->tik", raw_vectors, raw_values, raw_vectors.conj())
        values, vectors = firstlaw._match_branches(rho, raw_values, raw_vectors)
        expected_values, expected_vectors = reference_match(rho, raw_values, raw_vectors)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)

        overlap = np.abs(cxmat.stack_matmul(raw_vectors[:-1].conj().swapaxes(-1, -2),
                                            raw_vectors[1:])) ** 2
        settled, cols = firstlaw._certificate(raw_values, overlap)
        settled[0] = False
        reordered = settled & (cols != np.arange(d)).any(axis=1)
        assert reordered.sum() >= count // 4
        assert [kind for kind, *_ in walk].count("match") == np.count_nonzero(~settled)
        assert any(replaced for kind, _, replaced in walk if kind == "inherit")

    @pytest.mark.parametrize("peak, walked", [(0.5 + 1.2e-12, True), (0.5 + 1.8e-12, True),
                                              (0.5 + 3e-12, False)])
    @pytest.mark.parametrize("seed", range(4))
    def test_interval_within_twice_the_margin_is_walked(self, walk, peak, walked, seed):
        # step 2 (raw points 1 -> 2) peaks at ``peak`` in two rows; a peak
        # within 2 _TIE_EPS of 1/2 is left to branch_match
        rng = np.random.default_rng(seed)
        d = 3
        eye = np.eye(d, dtype=complex)
        rotated = _rotations([((0, 1), peak)], d)
        raw_vectors = np.stack([eye, eye[:, rng.permutation(d)], rotated[:, rng.permutation(d)]])
        raw_vectors = np.concatenate([raw_vectors, raw_vectors[2:, :, rng.permutation(d)]])
        raw_values = np.stack([rng.permutation([0.5, 0.3, 0.2]) for _ in range(4)])
        rho = np.einsum("tij,tj,tkj->tik", raw_vectors, raw_values, raw_vectors.conj())
        values, vectors = firstlaw._match_branches(rho, raw_values, raw_vectors)
        assert [kind for kind, *_ in walk].count("match") == (2 if walked else 1)
        expected_values, expected_vectors = reference_match(rho, raw_values, raw_vectors)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)

    def test_repeated_argmax_is_walked(self, walk):
        # not orthonormal: two columns of point 1 are e0, so on step 2 two
        # rows peak at 1 in the same column
        eye = np.eye(3, dtype=complex)
        raw_vectors = np.stack([eye, eye[:, [0, 0, 2]], eye])
        raw_values = np.tile([0.5, 0.3, 0.2], (3, 1))
        rho = np.tile(np.diag([0.5, 0.3, 0.2]).astype(complex), (3, 1, 1))
        values, vectors = firstlaw._match_branches(rho, raw_values, raw_vectors)
        assert [kind for kind, *_ in walk].count("match") == 2
        expected_values, expected_vectors = reference_match(rho, raw_values, raw_vectors)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)

    def test_returns_its_input_unless_a_cluster_is_replaced(self):
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        eye = np.eye(2, dtype=complex)
        mixed = 0.5 * eye
        values = np.array([0.5, 0.5])
        # no cluster
        vectors = eye.copy()
        assert firstlaw._inherit_degenerate(mixed, np.array([0.6, 0.4]), vectors, had) is vectors
        # a cluster whose previous columns are still eigenvectors is replaced
        inherited = firstlaw._inherit_degenerate(mixed, values, vectors, had)
        assert inherited is not vectors
        assert np.array_equal(inherited, had) and np.array_equal(vectors, eye)
        # a cluster whose previous columns are not eigenvectors of rho is kept
        split = np.diag([0.6, 0.4]).astype(complex)
        assert firstlaw._inherit_degenerate(split, values, vectors, had) is vectors


def _phase_rotation_channel(rng, d):
    """The unitary channel K0 = diag(exp(-i g_k t)) with seeded rates g_k:
    the state's spectrum is constant and its eigenvectors rotate."""
    rates = rng.uniform(0.5, 2.0, size=d)
    return ChannelSpec.custom([[[(f"cos({float(g)!r}*t)", f"-sin({float(g)!r}*t)") if i == j
                                 else ("0", "0") for j, g in enumerate(rates)] for i in range(d)]])


def _state_with_levels(rng, levels):
    """A density matrix with eigenvalues ``levels`` in a seeded Haar basis."""
    d = len(levels)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return DensityOperator((u * np.asarray(levels, dtype=float)) @ u.conj().T)


def _count_matches(walk):
    return [kind for kind, *_ in walk].count("match")


class TestClusterRule:
    """Intervals whose two ends tie the same index pairs of one cluster,
    with every untied row pinned, are settled without a walk; the ledger sums over a cluster
    see only its eigenprojector, so W, Q and C keep the walked values."""

    def _assert_reference_and_ledger(self, spec, rho0, h, grid):
        traj = spectral_trajectory(spec, rho0, h, grid)
        values, vectors, overlap = reference_trajectory(spec, rho0, h, grid)
        assert np.array_equal(traj.eigenvalues, values)
        assert np.array_equal(traj.eigenvectors, vectors)
        assert np.array_equal(traj.overlap, overlap)
        assert_ledger_matches_walk_every_step(traj, spec, rho0, h, grid)

    @pytest.mark.parametrize("d", [6, 8])
    def test_long_pure_state_grid_walks_at_most_two_intervals(self, walk, d):
        # Kraus rank 4 keeps a null cluster of d - 4 levels after tau = 0
        spec, rho0, h = _pure_state_mixed_unitary(d, 0)
        grid = TimeGrid(4.0, 400)
        spectral_trajectory(spec, rho0, h, grid)
        assert _count_matches(walk) <= 2
        self._assert_reference_and_ledger(spec, rho0, h, grid)

    @pytest.mark.parametrize("d", range(3, MAX_BRANCH_DIM + 1))
    @pytest.mark.parametrize("state", ["pure", "mixed"])
    def test_rotating_cluster_keeps_the_walked_ledger(self, walk, d, state):
        # a unitary channel keeps a pure state's null cluster of d - 1
        # levels, or a mixed state's tied pair, while rotating its eigenspace
        rng = np.random.default_rng([d, len(state)])
        spec = _phase_rotation_channel(rng, d)
        if state == "pure":
            levels = np.eye(d)[0]
        else:
            levels = rng.dirichlet(np.ones(d))
            levels[1] = levels[0]
            levels /= levels.sum()
        rho0 = _state_with_levels(rng, levels)
        h = _hamiltonian(rng, d, "driven")
        grid = TimeGrid(2.0, 64)
        spectral_trajectory(spec, rho0, h, grid)
        assert _count_matches(walk) < grid.steps // 2
        self._assert_reference_and_ledger(spec, rho0, h, grid)

    def test_identity_channel_with_a_degenerate_pair(self, walk):
        rng = np.random.default_rng(3)
        spec = ChannelSpec.custom([[[("1" if i == j else "0", "0") for j in range(3)]
                                    for i in range(3)]])
        rho0 = _state_with_levels(rng, [0.25, 0.25, 0.5])
        h = _hamiltonian(rng, 3, "driven")
        grid = TimeGrid(2.0, 40)
        spectral_trajectory(spec, rho0, h, grid)
        assert _count_matches(walk) == 1
        self._assert_reference_and_ledger(spec, rho0, h, grid)

    def test_two_equal_clusters_that_cross_are_walked(self, walk):
        # rho_q (x) I/2 under a phase flip on the qubit: two tied pairs in
        # fixed eigenspaces whose values cross at tau = ln 2, between grid
        # points 13 and 14, so both ends of that interval tie (0, 1) and
        # (2, 3); keeping those positions would turn its heat into coherence
        d = 4
        kraus = [("exp(-t/2)", [1, 1, 1, 1]), ("sqrt(1-exp(-t))", [1, 1, -1, -1])]
        spec = ChannelSpec.custom([[[(f"{sign}*{amp}" if i == j else "0", "0") for j in range(d)]
                                    for i, sign in enumerate(signs)] for amp, signs in kraus])
        rho0 = DensityOperator(np.kron(prepare_pure_state(math.pi / 4).matrix, 0.5 * np.eye(2)))
        h = _hamiltonian(np.random.default_rng(5), d, "driven")
        grid = TimeGrid(2.0, 40)
        traj = spectral_trajectory(spec, rho0, h, grid)
        assert _count_matches(walk) == grid.steps
        values = np.sort(traj.eigenvalues, axis=1)
        assert np.all(np.abs(values[:, 1] - values[:, 0]) <= firstlaw._DEGENERACY_GAP)
        assert np.all(np.abs(values[:, 3] - values[:, 2]) <= firstlaw._DEGENERACY_GAP)
        self._assert_reference_and_ledger(spec, rho0, h, grid)

    @staticmethod
    def _crafted(third_vectors, levels=(0.1, 0.1, 0.3, 0.5)):
        # d = 4, levels (by default tying the pair (0, 1)) the same at all
        # three points; interval 0 is always walked, interval 1 carries the
        # case under test
        rng = np.random.default_rng(11)
        basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        raw_vectors = np.stack([basis, basis, basis @ third_vectors])
        raw_values = np.tile(levels, (3, 1))
        rho = np.einsum("tij,tj,tkj->tik", raw_vectors, raw_values, raw_vectors.conj())
        return rho, raw_values, raw_vectors

    def _assert_walks(self, walk, crafted, walks):
        values, vectors = firstlaw._match_branches(*crafted)
        assert _count_matches(walk) == walks
        expected_values, expected_vectors = reference_match(*crafted)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(vectors, expected_vectors)

    def test_untied_row_on_a_tied_column_is_walked(self, walk):
        # the untied level 0.3 swaps its eigenvector with a tied one
        swap = np.eye(4, dtype=complex)[:, [2, 1, 0, 3]]
        self._assert_walks(walk, self._crafted(swap), 2)

    @pytest.mark.parametrize("peak, walks", [(0.5 + 1e-3, 2), (0.6, 2), (2 / 3, 2),
                                             (2 / 3 + 1e-12, 2), (2 / 3 + 2e-12, 1),
                                             (0.9, 1)])
    def test_untied_rows_pinned_only_above_two_thirds(self, walk, peak, walks):
        # the two untied rows peak at ``peak``; the cluster rule needs
        # 3 peak - 2 > 4 _TIE_EPS, twice branch_match's pin margin
        rotation = _rotations([((2, 3), peak)], 4)
        self._assert_walks(walk, self._crafted(rotation), walks)

    @pytest.mark.parametrize("levels, walks", [((0.1, 0.2, 0.3, 0.4), 1),
                                               ((0.1, 0.1, 0.3, 0.5), 2)],
                             ids=["no-tie", "one-cluster"])
    @pytest.mark.parametrize("peak", [0.5 + 3e-12, 0.6, 2 / 3])
    def test_peak_between_half_and_two_thirds_settles_only_without_ties(
            self, walk, levels, walks, peak):
        # the untied rows 2 and 3 peak at ``peak``, above 1/2 + 2 _TIE_EPS but
        # not above the 2/3 pin: enough with no ties, not with one cluster
        rotation = _rotations([((2, 3), peak)], 4)
        self._assert_walks(walk, self._crafted(rotation, levels), walks)


class TestSpectralTrajectory:
    @pytest.mark.parametrize("family", [ChannelSpec.phase_damping, ChannelSpec.phase_flip,
                                        ChannelSpec.bit_flip, ChannelSpec.bit_phase_flip],
                             ids=lambda f: f.__name__)
    def test_channel_and_hamiltonian_share_the_grid_time(self, family):
        # tau is the one time variable: H(t) is evaluated at the grid's tau as-is
        h = Hamiltonian([0.0, "1+0.1*t"])
        grid = TimeGrid(3.0, 30)
        traj = spectral_trajectory(family(), REFERENCE_STATE, h, grid)
        assert np.array_equal(traj.tau, grid.points)
        assert traj.energies[:, 1].tobytes() == (1 + 0.1 * traj.tau).tobytes()

    def test_fields(self):
        # the grid's tau is stored once: no grid, no separate time
        names = [f.name for f in dataclasses.fields(firstlaw.SpectralTrajectory)]
        assert names == ["tau", "rho", "eigenvalues", "eigenvectors", "energies", "overlap",
                         "energy"]

    def test_initial_snapshot_descending_with_overlap_row(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(1.0, 4)
        )
        assert traj.eigenvalues[0][0] == pytest.approx(1.0, abs=1e-12)
        assert traj.eigenvalues[0][1] == pytest.approx(0.0, abs=1e-12)
        assert traj.overlap[0][0, 0] == pytest.approx(0.75, abs=1e-12)
        assert traj.overlap[0][0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_eigenvalue_branches_match_closed_form(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 200)
        )
        for i in range(len(traj.tau)):
            sm = math.sqrt(0.25 + 0.75 * math.exp(-traj.tau[i]))
            assert traj.eigenvalues[i][0] == pytest.approx(0.5 * (1 + sm), abs=1e-12)
            assert traj.eigenvalues[i][1] == pytest.approx(0.5 * (1 - sm), abs=1e-12)

    def test_long_time_overlap_approaches_identity(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(40.0, 400)
        )
        assert np.max(np.abs(traj.overlap[-1] - np.eye(2))) <= 1e-8

    def test_overlap_doubly_stochastic_everywhere(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 300)
        )
        for i in range(len(traj.tau)):
            assert np.max(np.abs(traj.overlap[i].sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(traj.overlap[i].sum(axis=1) - 1.0)) <= 1e-10

    def test_flip_branches_never_swap(self):
        # discriminant stays >= 1/4 at the reference angle, so the branch
        # ordered larger at tau=0 stays larger across the sign change of the
        # off-diagonal factor
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 400)
        )
        for i in range(len(traj.tau)):
            assert traj.eigenvalues[i][0] - traj.eigenvalues[i][1] >= 0.5 - 1e-12

    def test_branch_continuity_through_eigenvalue_crossing(self):
        # theta = pi/4 phase flip crosses the maximally mixed state: the
        # matched branches follow the eigenvectors through the crossing
        rho0 = prepare_pure_state(math.pi / 4)
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), rho0, H_DEFAULT, TimeGrid(2.0, 200)
        )
        lead = np.array([traj.eigenvalues[i][0] for i in range(len(traj.tau))])
        taus = np.array([traj.tau[i] for i in range(len(traj.tau))])
        # continuous branch 0.5 * (1 + 2e^{-tau} - 1) crosses below 1/2
        expected = 0.5 * (1 + (2 * np.exp(-taus) - 1))
        assert np.max(np.abs(lead - expected)) <= 1e-10
        for i in range(1, len(traj.tau)):
            align = np.abs(np.vdot(traj.eigenvectors[i - 1][:, 0], traj.eigenvectors[i][:, 0]))
            assert align >= 1 - 1e-8

    def test_exact_degeneracy_inherits_eigenvectors(self):
        # grid hits the maximally mixed state exactly; the computational-basis
        # vectors the eigensolver returns there must be replaced by the
        # previous snapshot's branches
        rho0 = prepare_pure_state(math.pi / 4)
        grid = TimeGrid(2 * math.log(2), 2)
        traj = spectral_trajectory(ChannelSpec.phase_flip(), rho0, H_DEFAULT, grid)
        gap = abs(traj.eigenvalues[1][0] - traj.eigenvalues[1][1])
        assert gap <= 1e-12
        for k in range(2):
            align = abs(np.vdot(traj.eigenvectors[0][:, k], traj.eigenvectors[1][:, k]))
            assert align == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(traj.overlap[1] - traj.overlap[0])) <= 1e-12

    @pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
    def test_non_diagonal_hamiltonian_eigensolver_calls(self, monkeypatch, driven):
        # one call on the state stack and H together, static or driven
        rng = np.random.default_rng(4)
        spec = _mixed_unitary_channel(rng, 4)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = 0.25 * (z + z.conj().T)
        drive = "+0.1*t" if driven else ""
        h = Hamiltonian([f"{float(m[i, i].real)!r}{drive}" for i in range(4)],
                        {(i, j): (m[i, j].real, m[i, j].imag)
                         for i in range(4) for j in range(i + 1, 4)})
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return hermitian_eigen(*args, **kwargs)

        hermitian_eigen = cxmat.hermitian_eigen
        monkeypatch.setattr(cxmat, "hermitian_eigen", counted)
        grid = TimeGrid(4.0, 16)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        spectral_trajectory(spec, DensityOperator(np.outer(psi, psi.conj())), h, grid)
        assert len(calls) == 1

    def test_eigensolver_failure_names_first_failing_tau(self, monkeypatch):
        # diag(1, 0, 0) is already diagonal at tau = 0 and needs no sweep;
        # the mixed state at the next grid point needs at least one
        spec = _mixed_unitary_channel(np.random.default_rng(8), 3)
        rho0 = DensityOperator(np.diag([1.0, 0.0, 0.0]))
        h = Hamiltonian([0.0, 1.0, 2.0])
        with monkeypatch.context() as patch:
            patch.setattr(cxmat, "MAX_SWEEPS", 0)
            with pytest.raises(cxmat.ConvergenceError, match=r"^at tau=0\.25: .*sweep cap") as info:
                spectral_trajectory(spec, rho0, h, TimeGrid(4.0, 16))
        assert info.value.index == (1,)
        skewed = DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(cxmat.NonHermitianError, match=r"^at tau=0: .*not Hermitian"):
            spectral_trajectory(ChannelSpec.phase_damping(), skewed, H_DEFAULT, TimeGrid(4.0, 16))

    def test_invariant_checks_name_first_failing_tau(self):
        tau = np.array([0.0, 0.5, 1.0, 1.5])
        values = np.tile([0.75, 0.25], (4, 1))
        overlap = np.tile(np.eye(2), (4, 1, 1))
        firstlaw._validate_snapshot(tau, values, overlap)
        values[3] = [1.5, -0.5]
        values[2] = [0.75, 0.3]
        with pytest.raises(cxmat.NumericError, match=r"at tau=1: eigenvalue sum"):
            firstlaw._validate_snapshot(tau, values, overlap)
        overlap[1] = [[0.9, 0.0], [0.1, 1.0]]
        with pytest.raises(cxmat.NumericError, match=r"at tau=0.5: overlap matrix"):
            firstlaw._validate_snapshot(tau, values, overlap)

    def test_invariant_checks_allow_the_drift_of_an_accepted_kraus_set(self):
        # apply accepts a trace drift of up to d * CPTP_TOL + 1e-12
        tau = np.array([0.0, 0.5])
        overlap = np.tile(np.eye(2), (2, 1, 1))
        values = np.array([[1.0 + 1.8e-10, 0.0], [0.75, 0.25 + 1.8e-10]])
        firstlaw._validate_snapshot(tau, values, overlap)
        values[1, 1] = 0.25 + 1e-9
        with pytest.raises(cxmat.NumericError, match=r"at tau=0.5: eigenvalue sum 1\.000000001"):
            firstlaw._validate_snapshot(tau, values, overlap)
        values[1] = [0.75, 0.25]
        values[0] = [1.0 + 1e-9, -1e-9]
        with pytest.raises(cxmat.NumericError, match=r"at tau=0: eigenvalues outside \[0, 1\] "
                                                     r"beyond slack: \[1\.000000001, -1e-09\]"):
            firstlaw._validate_snapshot(tau, values, overlap)

    def test_hamiltonian_domain_error_names_time(self):
        h = Hamiltonian([0.0, "log(t)"])
        with pytest.raises(exprparse.DomainError, match=r"log\(\) .* at t=0\.0 "):
            spectral_trajectory(ChannelSpec.phase_damping(), REFERENCE_STATE, h,
                                TimeGrid(1.0, 4))

    def test_dimensions_past_eight_run_while_their_rows_pin(self, capsys, monkeypatch):
        rho0 = DensityOperator(np.eye(9, dtype=complex) / 9)
        ledger = run_energetics(ChannelSpec.identity(dim=9), rho0, Hamiltonian(range(9)),
                                TimeGrid(1.0, 40))
        assert not np.any(_ledger_columns(ledger))
        # a pure state's first step can leave d - 1 rows unpinned, so d = 9
        # always runs and d = 10 may be refused
        spec, rho0, h = _pure_state_mixed_unitary(9, 0)
        ledger = run_energetics(spec, rho0, h, TimeGrid(2.0, 40))
        assert not np.any(ledger.work)
        assert np.max(np.abs(ledger.closure_residual)) <= 1e-10
        spec, rho0, h = _pure_state_mixed_unitary(10, 1)
        with pytest.raises(UnsupportedDimensionError, match=" 9 of 10 branches unpinned"):
            run_energetics(spec, rho0, h, TimeGrid(2.0, 40))
        # the refusal is a numeric error of the command that ran it
        monkeypatch.setitem(cli._DISPATCH, "verify",
                            lambda args: run_energetics(spec, rho0, h, TimeGrid(2.0, 40)))
        assert cli.main(["verify"]) == 3
        assert capsys.readouterr().err.startswith("numeric error: branch matching left 9 of 10 ")

    def test_dim_mismatch(self):
        with pytest.raises(cxmat.ShapeError):
            spectral_trajectory(
                ChannelSpec.phase_damping(),
                REFERENCE_STATE,
                Hamiltonian([0.0, 1.0, 2.0]),
                TimeGrid(1.0, 2),
            )


def _hamiltonian(rng, d, kind):
    """A seeded diagonal, static (non-diagonal) or driven Hamiltonian, or
    the static one with "+0*t" appended to every cell."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = 0.25 * (z + z.conj().T)
    if kind == "diagonal":
        return Hamiltonian([f"{float(m[i, i].real)!r}*(1+0.1*t)" for i in range(d)])
    drive = {"static": "", "driven": "*(1+0.1*t)", "zero-drive": "+0*t"}[kind]
    return Hamiltonian([f"{float(m[i, i].real)!r}{drive}" for i in range(d)],
                       {(i, j): (f"{float(m[i, j].real)!r}{drive}", f"{float(m[i, j].imag)!r}{drive}")
                        for i in range(d) for j in range(i + 1, d)})


def two_solve_trajectory(spec, rho0, h, grid):
    """The trajectory's arrays with the state stack and H diagonalized in
    separate eigensolver calls, kept as the reference for the single call."""
    rho = evolve(spec, rho0, grid.points)
    eig = cxmat.hermitian_eigen(rho.matrix)
    values, vectors = firstlaw._match_branches(rho.matrix, eig.eigenvalues, eig.eigenvectors)
    hm = h.matrix(grid.points)
    basis = qstate.energy_eigenbasis(hm)
    overlap = np.abs(cxmat.stack_matmul(np.swapaxes(basis.eigenvectors.conj(), -1, -2),
                                        vectors)) ** 2
    return values, vectors, basis.eigenvalues, overlap, qstate.internal_energy(rho, hm)


class TestSingleEigensolve:
    """The state stack and the H matrices that need the solver share one
    hermitian_eigen call; every output equals the two-call path bit for bit."""

    @pytest.mark.parametrize("kind", ["diagonal", "static", "driven"])
    @pytest.mark.parametrize("d", range(2, MAX_BRANCH_DIM + 1))
    def test_equals_two_solve_path(self, d, kind):
        rng = np.random.default_rng(900 + 10 * d + len(kind))
        spec = _mixed_unitary_channel(rng, d)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        rho0 = DensityOperator(np.outer(psi, psi.conj()))
        h = _hamiltonian(rng, d, kind)
        grid = TimeGrid(4.0, 24)
        traj = spectral_trajectory(spec, rho0, h, grid)
        expected = two_solve_trajectory(spec, rho0, h, grid)
        for name, want in zip(("eigenvalues", "eigenvectors", "energies", "overlap", "energy"),
                              expected):
            assert np.array_equal(getattr(traj, name), want), name

    def test_energy_eigenbasis_alone_is_unchanged(self):
        # the joint call's H part equals a call on H alone, static and driven
        rng = np.random.default_rng(31)
        rho = evolve(_mixed_unitary_channel(rng, 4), DensityOperator(np.eye(4) / 4),
                     np.linspace(0.0, 2.0, 9)).matrix
        for kind in ("diagonal", "static", "driven"):
            hm = _hamiltonian(rng, 4, kind).matrix(np.linspace(0.0, 2.0, 9))
            alone = qstate.energy_eigenbasis(hm)
            state_eig, basis = qstate.energy_eigenbasis(hm, rho, np.linspace(0.0, 2.0, 9))
            assert np.array_equal(basis.eigenvalues, alone.eigenvalues), kind
            assert np.array_equal(basis.eigenvectors, alone.eigenvectors), kind
            single = cxmat.hermitian_eigen(rho)
            assert np.array_equal(state_eig.eigenvalues, single.eigenvalues), kind
            assert np.array_equal(state_eig.eigenvectors, single.eigenvectors), kind

    @pytest.mark.parametrize("kind", ["static", "driven"])
    def test_hamiltonian_failure_is_not_labelled_with_a_tau(self, monkeypatch, kind):
        # the states stay diagonal under the identity channel and need no
        # sweep; the non-diagonal H needs at least one
        rho0 = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        h = _hamiltonian(np.random.default_rng(3), 3, kind)
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        with pytest.raises(cxmat.ConvergenceError, match="sweep cap") as info:
            spectral_trajectory(ChannelSpec.identity(3), rho0, h, TimeGrid(4.0, 16))
        assert "tau" not in str(info.value)
        if kind == "static":
            assert info.value.index is None
            assert str(info.value).startswith("Jacobi sweep cap")
        else:
            assert info.value.index == (0,)
            assert str(info.value).startswith("matrix (0,) of the stack: ")

    def test_state_failure_comes_first_and_names_its_tau(self, monkeypatch):
        # both the state at tau = 0.25 and the static H fail: as with
        # separate calls, the state is reported
        spec = _mixed_unitary_channel(np.random.default_rng(8), 3)
        rho0 = DensityOperator(np.diag([1.0, 0.0, 0.0]))
        h = _hamiltonian(np.random.default_rng(3), 3, "static")
        monkeypatch.setattr(cxmat, "MAX_SWEEPS", 0)
        with pytest.raises(cxmat.ConvergenceError, match=r"^at tau=0\.25: matrix \(1,\) ") as info:
            spectral_trajectory(spec, rho0, h, TimeGrid(4.0, 16))
        assert info.value.index == (1,)


class TestStaticHamiltonian:
    """A Hamiltonian with no entry that reads t enters the trajectory as one matrix."""

    def test_is_evaluated_at_one_time(self, monkeypatch):
        times = []
        matrix = Hamiltonian.matrix

        def recorded(self, t):
            times.append(np.shape(t))
            return matrix(self, t)

        monkeypatch.setattr(Hamiltonian, "matrix", recorded)
        rng = np.random.default_rng(41)
        spec = _mixed_unitary_channel(rng, 3)
        rho0 = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        grid = TimeGrid(2.0, 40)
        traj = spectral_trajectory(spec, rho0, _hamiltonian(rng, 3, "static"), grid)
        assert times == [()]
        # every grid point shares the one eigensystem
        assert traj.energies.shape == (41, 3) and traj.energies.strides[0] == 0
        times.clear()
        spectral_trajectory(spec, rho0, _hamiltonian(rng, 3, "zero-drive"), grid)
        assert times == [(41,)]

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_zero_drive_gives_the_static_ledger_bit_for_bit(self, d):
        # "+0*t" changes no value but makes H read t: the stack over the grid
        # must give the bytes of the one static matrix
        columns = {}
        for kind in ("static", "zero-drive"):
            rng = np.random.default_rng(4200 + d)
            spec = _mixed_unitary_channel(rng, d)
            rho0 = _random_state(rng, d, "pure")
            h = _hamiltonian(rng, d, kind)
            assert h.static is (kind == "static")
            columns[kind] = _ledger_columns(run_energetics(spec, rho0, h, TimeGrid(4.0, 64)))
        assert columns["zero-drive"].tobytes() == columns["static"].tobytes()


class TestIntegrateFirstLaw:
    def test_static_hamiltonian_work_is_exactly_zero(self):
        ledger = run_energetics(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 300)
        )
        assert np.max(np.abs(ledger.work)) == 0.0

    def test_ledger_starts_at_zero(self):
        ledger = run_energetics(
            ChannelSpec.phase_flip(), REFERENCE_STATE, H_DEFAULT, TimeGrid(4.0, 100)
        )
        for series in (ledger.delta_u, ledger.work, ledger.heat, ledger.coherence):
            assert series[0] == 0.0

    def test_heat_tracks_closed_form_on_coarse_grid(self):
        ledger = run_energetics(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 500)
        )
        reference = np.array([oracle.pd_heat(float(t), 0.0, 1.0) for t in ledger.tau])
        assert np.max(np.abs(ledger.heat - reference)) <= 1e-6

    @pytest.mark.parametrize("energies", [(0.0, 1.0), (1.7, 0.3), (2.0, -1.0)],
                             ids=["unit", "inverted", "negative"])
    @pytest.mark.parametrize("spec, heat, coherence", [
        (ChannelSpec.phase_damping(), oracle.pd_heat, oracle.pd_coherence),
        (ChannelSpec.phase_flip(), oracle.pf_heat, oracle.pf_coherence),
    ], ids=["phase_damping", "phase_flip"])
    def test_ledger_matches_closed_forms_for_any_energy_order(self, spec, heat, coherence,
                                                             energies):
        ledger = run_energetics(spec, REFERENCE_STATE, Hamiltonian(energies), TimeGrid(8.0, 4000))
        assert np.max(np.abs(ledger.heat - heat(ledger.tau, *energies))) <= ORACLE_TOL
        assert np.max(np.abs(ledger.coherence - coherence(ledger.tau, *energies))) <= ORACLE_TOL

    def test_heat_plus_coherence_cancels_at_machine_precision(self):
        # two-factor product rule is exact, so Q + C telescopes to delta U = 0
        ledger = run_energetics(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 400)
        )
        assert np.max(np.abs(ledger.heat + ledger.coherence)) <= 1e-13

    def test_first_law_closure_static(self):
        for spec in [ChannelSpec.phase_damping(), ChannelSpec.bit_phase_flip()]:
            ledger = run_energetics(spec, REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 300))
            assert np.max(np.abs(ledger.closure_residual)) <= 1e-13

    def test_driven_identity_channel_exact(self):
        rho0 = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
        h = Hamiltonian([0.0, "1+0.1*t"])
        ledger = run_energetics(ChannelSpec.identity(), rho0, h, TimeGrid(8.0, 200))
        assert np.max(np.abs(ledger.heat)) == 0.0
        assert np.max(np.abs(ledger.coherence)) == 0.0
        assert np.max(np.abs(ledger.delta_u - ledger.work)) <= 1e-12
        # linear ramp integrates exactly: W(tau) = 0.75 * 0.1 * tau
        assert ledger.work[-1] == pytest.approx(0.75 * 0.8, abs=1e-12)

    def test_driven_closure_with_evolving_state(self):
        h = Hamiltonian([0.0, "1+0.1*t"])
        ledger = run_energetics(
            ChannelSpec.phase_damping(), REFERENCE_STATE, h, TimeGrid(8.0, 500)
        )
        assert np.max(np.abs(ledger.closure_residual)) <= 5e-5
        assert np.max(np.abs(ledger.work)) > 1e-3  # the drive actually does work

    @pytest.mark.parametrize("kind", ["diagonal", "static", "driven"])
    def test_one_hamiltonian_evaluation_feeds_the_ledger(self, monkeypatch, kind):
        # H(t) is evaluated once per run; its Tr(rho H) is the trajectory's
        # energy bit for bit, and delta_u is that energy minus its first value
        rng = np.random.default_rng(12)
        spec = _mixed_unitary_channel(rng, 4)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = 0.25 * (z + z.conj().T)
        drive = "+0.1*t" if kind == "driven" else ""
        upper = {} if kind == "diagonal" else {
            (i, j): (m[i, j].real, m[i, j].imag) for i in range(4) for j in range(i + 1, 4)}
        h = Hamiltonian([f"{float(m[i, i].real)!r}{drive}" for i in range(4)], upper)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = DensityOperator(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
        grid = TimeGrid(4.0, 16)
        matrix = Hamiltonian.matrix
        calls = []

        def counted(self, t):
            calls.append(t)
            return matrix(self, t)

        monkeypatch.setattr(Hamiltonian, "matrix", counted)
        run_energetics(spec, rho0, h, grid)
        assert len(calls) == 1
        traj = spectral_trajectory(spec, rho0, h, grid)
        # internal_energy sums Tr(rho H) over a C-ordered rho; traj.rho is grid-last
        rho = np.ascontiguousarray(traj.rho)
        expected = np.einsum("...ij,...ji->...", rho, matrix(h, traj.tau)).real
        assert np.array_equal(traj.energy, expected)
        assert np.array_equal(integrate_first_law(traj).delta_u, traj.energy - traj.energy[0])

    def test_quadrature_error_shrinks_second_order(self):
        def max_error(steps):
            ledger = run_energetics(
                ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, steps)
            )
            reference = np.array([oracle.pd_heat(float(t), 0.0, 1.0) for t in ledger.tau])
            return np.max(np.abs(ledger.heat - reference))

        ratio = max_error(250) / max_error(500)
        assert 3.5 <= ratio <= 4.5


def _grid_last(x):
    """A copy of ``x`` with the same values and its first (grid) axis last in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def _driven_qudit(d, seed):
    rng = np.random.default_rng([d, seed])
    spec = _mixed_unitary_channel(rng, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    rho0 = DensityOperator(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    return spec, rho0, _hamiltonian(rng, d, "driven")


class TestGridLastLayout:
    def test_pipeline_stacks_are_grid_last(self):
        # every stack over the grid keeps the grid axis last in memory
        spec, rho0, h = _driven_qudit(3, 1)
        grid = TimeGrid(2.0, 40)
        time = grid.points
        traj = spectral_trajectory(spec, rho0, h, grid)
        eig = cxmat.hermitian_eigen(evolve(spec, rho0, time).matrix)
        stacks = [*kraus_at(ChannelSpec.bit_phase_flip(), time).operators,
                  *kraus_at(ChannelSpec.phase_damping(), time).operators,
                  *kraus_at(spec, time).operators, evolve(spec, rho0, time).matrix,
                  h.matrix(time), eig.eigenvalues, eig.eigenvectors,
                  traj.rho, traj.eigenvalues, traj.eigenvectors, traj.overlap]
        for x in stacks:
            assert len(x) == len(time) and x.strides[0] == x.itemsize

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [3, 4])
    def test_ledger_does_not_depend_on_operand_layout(self, d, seed):
        # einsum picks its summation order from its operands' strides: grid-last
        # operands must give the bytes of C-ordered ones
        spec, rho0, h = _driven_qudit(d, seed)
        traj = spectral_trajectory(spec, rho0, h, TimeGrid(2.0, 64))
        rho, hm = np.ascontiguousarray(traj.rho), np.ascontiguousarray(h.matrix(traj.tau))
        expected = qstate.internal_energy(DensityOperator(rho), hm)
        got = qstate.internal_energy(DensityOperator(_grid_last(rho)), _grid_last(hm))
        assert got.tobytes() == expected.tobytes()
        fields = ("rho", "eigenvalues", "eigenvectors", "energies", "overlap", "energy")
        c_ordered = dataclasses.replace(
            traj, **{f: np.ascontiguousarray(getattr(traj, f)) for f in fields})
        relaid = dataclasses.replace(traj, **{f: _grid_last(getattr(traj, f)) for f in fields})
        assert relaid.overlap.strides[0] == relaid.overlap.itemsize
        expected = _ledger_columns(integrate_first_law(c_ordered))
        assert _ledger_columns(integrate_first_law(relaid)).tobytes() == expected.tobytes()
        assert _ledger_columns(integrate_first_law(traj)).tobytes() == expected.tobytes()


def _ledger_columns(ledger):
    return np.stack([ledger.delta_u, ledger.work, ledger.heat, ledger.coherence])


@pytest.mark.parametrize("d, seed", [(d, seed) for d in range(2, MAX_BRANCH_DIM + 1)
                                     for seed in range(2)])
def test_static_hamiltonian_ledger_properties(d, seed):
    """Seeded mixed-unitary channels from pure states under a static
    non-diagonal H: Q + C telescopes to delta U, shifting H by a multiple of
    the identity changes nothing, and scaling H scales every column."""
    rng = np.random.default_rng(500 + 10 * d + seed)
    spec = _mixed_unitary_channel(rng, d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho0 = DensityOperator(np.outer(psi, psi.conj()))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = 0.25 * (z + z.conj().T)
    grid = TimeGrid(4.0, 16)

    def columns(matrix):
        return _ledger_columns(run_energetics(spec, rho0, Hamiltonian.from_matrix(matrix), grid))

    base = columns(m)
    delta_u, _, heat, coherence = base
    assert np.max(np.abs(heat + coherence - delta_u)) <= 1e-12
    assert np.max(np.abs(columns(m + 0.7 * np.eye(d)) - base)) <= 1e-12
    assert np.max(np.abs(columns(2.5 * m) - 2.5 * base)) <= 1e-12


def _random_state(rng, d, kind):
    """A seeded pure or full-rank density operator."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "pure":
        z = np.outer(z[0], z[0].conj())
    else:
        z = z @ z.conj().T
    return DensityOperator(z / np.trace(z).real)


def _hermitian_pair(rng, d):
    """Two seeded Hermitian d x d matrices."""
    z = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    return 0.25 * (z + z.conj().swapaxes(-1, -2))


# H(t) = f(t) H0 + g(t) H1 for each (f, g)
_DRIVES = {"static": ("1", "0"), "driven": ("1+0.1*t", "0"), "rotating": ("1", "t")}


def _conjugated_hamiltonian(h0, h1, v, drive, shift=None):
    """f(t) V H0 V† + g(t) V H1 V†, plus the constant ``shift`` times the
    identity, outside the drive, if one is given."""
    f, g = _DRIVES[drive]
    a, b = v @ h0 @ v.conj().T, v @ h1 @ v.conj().T

    def cell(x, y):
        return f"({f})*({float(x)!r})+({g})*({float(y)!r})"

    d = len(v)
    constant = "" if shift is None else f"+({shift!r})"
    return Hamiltonian([cell(a[i, i].real, b[i, i].real) + constant for i in range(d)],
                       {(i, j): (cell(a[i, j].real, b[i, j].real),
                                 cell(a[i, j].imag, b[i, j].imag))
                        for i in range(d) for j in range(i + 1, d)})


@pytest.mark.parametrize("drive", sorted(_DRIVES))
@pytest.mark.parametrize("d", [*range(2, MAX_BRANCH_DIM + 1), 9, 10, 12])
def test_ledger_does_not_depend_on_the_basis(d, drive):
    """Conjugating the state, every Kraus operator and H by one Haar unitary
    V leaves W, Q, C and delta U as they were, to round-off.  The state is
    full rank: a pure state's first step matches its null space in whatever
    basis the eigensolver returns, which moves Q and C at first order."""
    rng = np.random.default_rng([2900 + d, 1])
    rho = _random_state(rng, d, "full-rank").matrix
    h0, h1 = _hermitian_pair(rng, d)
    grid = TimeGrid(2.0, 400)

    def columns(v):
        m = v @ rho @ v.conj().T
        ledger = run_energetics(_mixed_unitary_channel(np.random.default_rng(2900 + d), d, v=v),
                                DensityOperator(0.5 * (m + m.conj().T)),
                                _conjugated_hamiltonian(h0, h1, v, drive), grid)
        return _ledger_columns(ledger)

    assert np.max(np.abs(columns(_haar_unitary(rng, d)) - columns(np.eye(d)))) <= 1e-12


@pytest.mark.parametrize("state", ["pure", "full-rank"])
@pytest.mark.parametrize("drive", ["driven", "rotating"])
@pytest.mark.parametrize("d", range(2, MAX_BRANCH_DIM + 1))
def test_driven_hamiltonian_shift_and_scale(d, drive, state):
    """(1 + 0.1 t) H0 and H0 + t H1: a constant multiple of the identity
    added outside the drive changes no column, and scaling H0 and H1 scales
    every column.  A shift inside the drive, (1 + 0.1 t)(H0 + c I), is a
    time-dependent shift and does work, so it is not tested here."""
    rng = np.random.default_rng([600 + d, len(drive), len(state)])
    spec = _mixed_unitary_channel(rng, d)
    rho0 = _random_state(rng, d, state)
    h0, h1 = _hermitian_pair(rng, d)
    grid = TimeGrid(4.0, 16)
    eye = np.eye(d)

    def columns(a, b, shift=None):
        h = _conjugated_hamiltonian(a, b, eye, drive, shift)
        return _ledger_columns(run_energetics(spec, rho0, h, grid))

    base = columns(h0, h1)
    assert np.max(np.abs(columns(h0, h1, 0.7) - base)) <= 1e-12
    assert np.max(np.abs(columns(2.5 * h0, 2.5 * h1) - 2.5 * base)) <= 1e-12


def _remixed_channel(rng, d, mix):
    """The channel _mixed_unitary_channel(rng, d) draws, written as the Kraus
    set K'_a = sum_b mix[a, b] K_b for a unitary ``mix`` over its four
    operators K_b = C_b f_b(t): the same channel in another representation."""
    weights = rng.dirichlet(np.ones(3))
    coefficients = [np.eye(d), *(_haar_unitary(rng, d) for _ in weights)]
    scales = ["sqrt(exp(-t))", *(f"sqrt({float(w)!r}*(1-exp(-t)))" for w in weights)]

    def part(values):
        return "+".join(f"({float(x)!r})*{scale}" for x, scale in zip(values, scales))

    operators = []
    for row in mix:
        c = [m * k for m, k in zip(row, coefficients)]
        operators.append([[(part([x[i, j].real for x in c]), part([x[i, j].imag for x in c]))
                           for j in range(d)] for i in range(d)])
    return ChannelSpec.custom(operators, dim=d)


@pytest.mark.parametrize("drive", ["static", "driven"])
@pytest.mark.parametrize("state", ["pure", "full-rank"])
@pytest.mark.parametrize("d", range(2, MAX_BRANCH_DIM + 1))
def test_ledger_does_not_depend_on_the_kraus_representation(d, state, drive):
    """Kraus operators mixed by a Haar unitary u, K'_a = sum_b u_ab K_b, are
    the same channel: W, Q, C and delta U agree to round-off, under H0 and
    under (1 + 0.1 t) H0."""
    rng = np.random.default_rng([3100 + d, len(state), len(drive)])
    mix = _haar_unitary(rng, 4)
    rho0 = _random_state(rng, d, state)
    h0, _ = _hermitian_pair(rng, d)
    h = _conjugated_hamiltonian(h0, np.zeros((d, d)), np.eye(d), drive)
    grid = TimeGrid(2.0, 100)
    seed = rng.integers(2**32)

    def columns(spec):
        return _ledger_columns(run_energetics(spec, rho0, h, grid))

    deviation = np.abs(columns(_remixed_channel(np.random.default_rng(seed), d, mix))
                       - columns(_mixed_unitary_channel(np.random.default_rng(seed), d)))
    failing = np.flatnonzero(deviation.max(axis=0) > 1e-12)
    assert not failing.size, (
        f"d={d}, {state} state, {drive} H: first failing tau={grid.points[failing[0]]!r}, "
        f"deviation {deviation[:, failing[0]].max():.3e}")


def test_default_grid_constants():
    from qfirstlaw.firstlaw import DEFAULT_STEPS, DEFAULT_TAU_MAX

    assert DEFAULT_TAU_MAX == 8.0
    assert DEFAULT_STEPS == 4000
