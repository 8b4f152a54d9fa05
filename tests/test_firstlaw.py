import itertools
import math

import numpy as np
import pytest

from qfirstlaw import cxmat, firstlaw
from qfirstlaw.channel import ChannelSpec
from qfirstlaw.firstlaw import (
    MAX_BRANCH_DIM,
    TimeGrid,
    UnsupportedDimensionError,
    branch_match,
    integrate_first_law,
    run_energetics,
    spectral_trajectory,
)
from qfirstlaw.oracle import OracleConfig, pd_heat
from qfirstlaw.qstate import (
    DensityOperator,
    Hamiltonian,
    InitialStatePrep,
    prepare_pure_state,
)

REFERENCE_STATE = prepare_pure_state(InitialStatePrep(math.pi / 6))
H_DEFAULT = Hamiltonian.two_level(0.0, 1.0)

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

    def test_dimension_cap(self):
        eye = np.eye(9)
        with pytest.raises(UnsupportedDimensionError):
            branch_match(np.arange(9), eye, np.arange(9), eye)

    def test_tie_broken_by_eigenvalue_drift(self):
        # identical eigenvector overlaps; only the values disambiguate
        eye = np.eye(2, dtype=complex)
        had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        perm = branch_match(np.array([0.2, 0.8]), had, np.array([0.75, 0.25]), eye)
        # both permutations score 1.0; (1, 0) has the smaller eigenvalue drift
        assert perm == (1, 0)


@pytest.fixture
def checked_matches(monkeypatch):
    """Route every branch match of a trajectory through a comparison with
    the exhaustive reference; returns the list of matched permutations."""
    matches = []

    def checked(*args):
        perm = branch_match(*args)
        expected = reference_branch_match(*args)
        assert perm == expected, f"step {len(matches) + 1}: {perm} != reference {expected}"
        matches.append(perm)
        return perm

    monkeypatch.setattr(firstlaw, "branch_match", checked)
    return matches


def _mixed_unitary_channel(rng, d, n_unitaries=3):
    """K0 = sqrt(e^-t) I and K_i = sqrt(w_i (1 - e^-t)) U_i with Haar U_i."""
    def num(x):
        return repr(float(x))

    identity = [[("sqrt(exp(-t))" if i == j else "0", "0") for j in range(d)] for i in range(d)]
    operators = [identity]
    for w in rng.dirichlet(np.ones(n_unitaries)):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
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
        rho0 = prepare_pure_state(InitialStatePrep(theta))
        spectral_trajectory(spec, rho0, H_DEFAULT, grid)
        assert len(checked_matches) == grid.steps

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
        spectral_trajectory(spec, DensityOperator(np.outer(psi, psi.conj())), h,
                            TimeGrid(4.0, 16))
        assert len(checked_matches) == 16

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


class TestSpectralTrajectory:
    def test_initial_snapshot_descending_with_overlap_row(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(1.0, 4)
        )
        first = traj.snapshots[0]
        assert first.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert first.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
        assert first.overlap[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert first.overlap[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_eigenvalue_branches_match_closed_form(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 200)
        )
        for snap in traj.snapshots:
            sm = math.sqrt(0.25 + 0.75 * math.exp(-snap.tau))
            assert snap.eigenvalues[0] == pytest.approx(0.5 * (1 + sm), abs=1e-12)
            assert snap.eigenvalues[1] == pytest.approx(0.5 * (1 - sm), abs=1e-12)

    def test_long_time_overlap_approaches_identity(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(40.0, 400)
        )
        assert np.max(np.abs(traj.snapshots[-1].overlap - np.eye(2))) <= 1e-8

    def test_overlap_doubly_stochastic_everywhere(self):
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 300)
        )
        for snap in traj.snapshots:
            assert np.max(np.abs(snap.overlap.sum(axis=0) - 1.0)) <= 1e-10
            assert np.max(np.abs(snap.overlap.sum(axis=1) - 1.0)) <= 1e-10

    def test_flip_branches_never_swap(self):
        # discriminant stays >= 1/4 at the reference angle, so the branch
        # ordered larger at tau=0 stays larger across the sign change of the
        # off-diagonal factor
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, 400)
        )
        for snap in traj.snapshots:
            assert snap.eigenvalues[0] - snap.eigenvalues[1] >= 0.5 - 1e-12

    def test_branch_continuity_through_eigenvalue_crossing(self):
        # theta = pi/4 phase flip crosses the maximally mixed state: the
        # matched branches follow the eigenvectors through the crossing
        rho0 = prepare_pure_state(InitialStatePrep(math.pi / 4))
        traj = spectral_trajectory(
            ChannelSpec.phase_flip(), rho0, H_DEFAULT, TimeGrid(2.0, 200)
        )
        lead = np.array([s.eigenvalues[0] for s in traj.snapshots])
        taus = np.array([s.tau for s in traj.snapshots])
        # continuous branch 0.5 * (1 + 2e^{-tau} - 1) crosses below 1/2
        expected = 0.5 * (1 + (2 * np.exp(-taus) - 1))
        assert np.max(np.abs(lead - expected)) <= 1e-10
        for earlier, later in zip(traj.snapshots, traj.snapshots[1:]):
            align = np.abs(np.vdot(earlier.eigenvectors[:, 0], later.eigenvectors[:, 0]))
            assert align >= 1 - 1e-8

    def test_exact_degeneracy_inherits_eigenvectors(self):
        # grid hits the maximally mixed state exactly; the computational-basis
        # vectors the eigensolver returns there must be replaced by the
        # previous snapshot's branches
        rho0 = prepare_pure_state(InitialStatePrep(math.pi / 4))
        grid = TimeGrid(2 * math.log(2), 2)
        traj = spectral_trajectory(ChannelSpec.phase_flip(), rho0, H_DEFAULT, grid)
        first, middle = traj.snapshots[0], traj.snapshots[1]
        gap = abs(middle.eigenvalues[0] - middle.eigenvalues[1])
        assert gap <= 1e-12
        for k in range(2):
            align = abs(np.vdot(first.eigenvectors[:, k], middle.eigenvectors[:, k]))
            assert align == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(middle.overlap - first.overlap)) <= 1e-12

    def test_dimension_cap(self):
        rho0 = DensityOperator(np.eye(9, dtype=complex) / 9)
        with pytest.raises(UnsupportedDimensionError):
            spectral_trajectory(
                ChannelSpec.identity(dim=9), rho0, Hamiltonian.diagonal(range(9)), TimeGrid(1.0, 2)
            )

    def test_dim_mismatch(self):
        with pytest.raises(cxmat.ShapeError):
            spectral_trajectory(
                ChannelSpec.phase_damping(),
                REFERENCE_STATE,
                Hamiltonian.diagonal([0.0, 1.0, 2.0]),
                TimeGrid(1.0, 2),
            )


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
        cfg = OracleConfig()
        reference = np.array([pd_heat(float(t), cfg) for t in ledger.tau])
        assert np.max(np.abs(ledger.heat - reference)) <= 1e-6

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
        h = Hamiltonian.diagonal([0.0, "1+0.1*t"])
        ledger = run_energetics(ChannelSpec.identity(), rho0, h, TimeGrid(8.0, 200))
        assert np.max(np.abs(ledger.heat)) == 0.0
        assert np.max(np.abs(ledger.coherence)) == 0.0
        assert np.max(np.abs(ledger.delta_u - ledger.work)) <= 1e-12
        # linear ramp integrates exactly: W(tau) = 0.75 * 0.1 * tau
        assert ledger.work[-1] == pytest.approx(0.75 * 0.8, abs=1e-12)

    def test_driven_closure_with_evolving_state(self):
        h = Hamiltonian.diagonal([0.0, "1+0.1*t"])
        ledger = run_energetics(
            ChannelSpec.phase_damping(), REFERENCE_STATE, h, TimeGrid(8.0, 500)
        )
        assert np.max(np.abs(ledger.closure_residual)) <= 5e-5
        assert np.max(np.abs(ledger.work)) > 1e-3  # the drive actually does work

    def test_quadrature_error_shrinks_second_order(self):
        cfg = OracleConfig()

        def max_error(steps):
            ledger = run_energetics(
                ChannelSpec.phase_damping(), REFERENCE_STATE, H_DEFAULT, TimeGrid(8.0, steps)
            )
            reference = np.array([pd_heat(float(t), cfg) for t in ledger.tau])
            return np.max(np.abs(ledger.heat - reference))

        ratio = max_error(250) / max_error(500)
        assert 3.5 <= ratio <= 4.5


def test_default_grid_constants():
    from qfirstlaw.firstlaw import DEFAULT_STEPS, DEFAULT_TAU_MAX

    assert DEFAULT_TAU_MAX == 8.0
    assert DEFAULT_STEPS == 4000
