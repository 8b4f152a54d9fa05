"""A gallery of mutants: hand-written faults, each patched into one pipeline
function, that the ledger checks must catch at d >= 3.

Each check is the body of a tier-1 ledger test in test_firstlaw, run on a
grid of 40 to 200 steps.  The unmutated code passes every check, and each
mutant fails at least the checks named for it.  A check fails when it
asserts, or when the pipeline refuses the run with a numeric error."""

import numpy as np
import pytest

import test_firstlaw as ledger
from qfirstlaw import channel, cxmat, firstlaw, qstate
from qfirstlaw.firstlaw import TimeGrid
from qfirstlaw.qstate import DensityOperator

D = 3

CHECKS = {
    "basis": lambda: [ledger.check_basis_independence(D, drive, TimeGrid(2.0, 100))
                      for drive in ("static", "driven", "rotating")],
    "kraus-representation": lambda: [
        ledger.check_kraus_representation(D, state, drive, TimeGrid(2.0, 100))
        for state in ("pure", "full-rank") for drive in ("static", "driven")],
    "shift-and-scale": lambda: [ledger.check_shift_and_scale(D, drive, state, TimeGrid(4.0, 40))
                                for drive in ("driven", "rotating")
                                for state in ("pure", "full-rank")],
    "static": lambda: [ledger.check_static_hamiltonian_ledger(D, seed, TimeGrid(4.0, 40))
                       for seed in range(2)],
    "direct-sum": lambda: ledger.check_direct_sum_second_order(4, 100),
    "isospectral-state": lambda: [ledger.check_isospectral_state(D, state)
                                  for state in ("pure", "full-rank")],
    "isospectral-drive": lambda: [ledger.check_isospectral_drive(D, state)
                                  for state in ("pure", "full-rank")],
}


def failing_checks(names=CHECKS):
    failed = []
    for name in names:
        try:
            CHECKS[name]()
        except (AssertionError, cxmat.NumericError):
            failed.append(name)
    return failed


def transposed_kraus(monkeypatch):
    """K rho Kᵀ in place of K rho K† in ``channel.apply``: wrong only for
    complex Kraus operators."""
    def apply(kraus, rho):
        deviation = channel.validate_cptp(kraus)
        out = sum(cxmat.stack_matmul(cxmat.stack_matmul(k, rho.matrix), np.swapaxes(k, -1, -2))
                  for k in kraus.operators)
        drift = np.abs(channel._trace(out) - channel._trace(rho.matrix))
        if np.any(drift > kraus.dim * deviation + 1e-12):
            raise cxmat.NumericError("trace drifted under a CPTP-validated set")
        return DensityOperator(out)

    monkeypatch.setattr(channel, "apply", apply)


def conjugated_kraus(monkeypatch):
    """conj(K) rho Kᵀ in place of K rho K† in ``channel.apply``, the rest of
    ``apply`` unchanged: sum (K†K)* = I, so the trace is kept and the
    trace-drift refusal lets it through."""
    apply = channel.apply

    def conjugated(kraus, rho):
        ops = tuple(k.conj() for k in kraus.operators)
        return apply(channel.KrausSet(ops, kraus.time_label), rho)

    monkeypatch.setattr(channel, "apply", conjugated)


def unmatched_eigenpairs(monkeypatch):
    """Every grid point's raw eigenpairs in descending order, with no branch
    matching: branches swap at every eigenvalue crossing."""
    def match_branches(rho, raw_values, raw_vectors):
        order = np.argsort(-raw_values, axis=1, kind="stable")
        return (np.take_along_axis(raw_values, order, axis=1),
                np.take_along_axis(raw_vectors, order[:, None, :], axis=2))

    monkeypatch.setattr(firstlaw, "_match_branches", match_branches)


def lagging_energy_basis(monkeypatch):
    """Each grid point of a driven H takes its eigenvectors from the point
    before; its energies stay its own."""
    energy_eigenbasis = qstate.energy_eigenbasis

    def lagging(hm, states=None, tau=None):
        eig, basis = energy_eigenbasis(hm, states, tau)
        vectors = basis.eigenvectors
        if vectors.ndim == 3:
            vectors = np.concatenate([vectors[:1], vectors[:-1]])
        return eig, cxmat.HermitianEigenDecomposition(basis.eigenvalues, vectors)

    monkeypatch.setattr(qstate, "energy_eigenbasis", lagging)


def rotated_null_space(monkeypatch):
    """The state's null-space eigenvectors at tau = 0 rotated by a seeded
    unitary: another basis the eigensolver could have returned."""
    energy_eigenbasis = qstate.energy_eigenbasis

    def rotated(hm, states=None, tau=None):
        eig, basis = energy_eigenbasis(hm, states, tau)
        vectors = eig.eigenvectors.copy()
        null = np.flatnonzero(np.abs(eig.eigenvalues[0]) <= 1e-12)
        rotation = ledger._haar_unitary(np.random.default_rng(9), len(null))
        vectors[0][:, null] = vectors[0][:, null] @ rotation
        return cxmat.HermitianEigenDecomposition(eig.eigenvalues, vectors), basis

    monkeypatch.setattr(qstate, "energy_eigenbasis", rotated)


def test_unmutated_code_passes_every_check():
    assert failing_checks() == []


@pytest.mark.parametrize("mutant, caught_by", [
    # the trace-drift refusal of apply: Sum K^T K is not I for complex operators
    (transposed_kraus, ["basis", "kraus-representation", "shift-and-scale", "static",
                        "isospectral-state"]),
    # the heat error of the direct sum's eigenvalue crossing is first order
    (unmatched_eigenpairs, ["direct-sum"]),
    # C closes on delta U one step late: a first-order closure residual
    (lagging_energy_basis, ["isospectral-drive"]),
    # null vectors that mix the direct sum's blocks: a first-order heat error
    (rotated_null_space, ["direct-sum"]),
    # the conjugate set is complete and keeps the trace: only a ledger assertion sees it
    (conjugated_kraus, ["basis"]),
], ids=lambda value: value.__name__ if callable(value) else None)
def test_mutant_fails_its_checks(monkeypatch, mutant, caught_by):
    mutant(monkeypatch)
    assert failing_checks(caught_by) == caught_by
