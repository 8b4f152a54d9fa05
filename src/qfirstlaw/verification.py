"""Acceptance checks runnable from both the test suite and the CLI.

Each check returns a list of ``qstate.CheckResult`` records, a measured value
against its bound; the type is importable from here by that name.  Only the
three ledgers that more than one check reads are cached per process
(`_memo`); every other ledger is built where it is read and dropped after.
Every bound is a constant: `ORACLE_TOL`, from `oracle`, bounds the
comparisons against the phase damping and phase flip closed-form curves,
read when a check runs.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np

from . import cxmat, experiment, exprparse, oracle
from .channel import (BIT_FLIP, BIT_PHASE_FLIP, BUILTIN_KINDS, PHASE_DAMPING, PHASE_FLIP,
                      ChannelSpec, KrausSet, completeness_deviation, kraus_at)
from .firstlaw import DEFAULT_STEPS, DEFAULT_TAU_MAX, TimeGrid, run_energetics
from .oracle import ORACLE_TOL
from .qstate import CheckResult, DensityOperator, Hamiltonian, _within, prepare_pure_state

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
#: Columns are the sigma_y eigenvectors; conjugation maps sigma_z to sigma_y.
Y_FROM_Z = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)


def _worst(arrays) -> float:
    """Largest absolute entry over a sequence of arrays."""
    return max(float(np.max(np.abs(a))) for a in arrays)


# -- ledgers -------------------------------------------------------------------

_LEDGER_CACHE: dict[str, object] = {}


def _memo(tag: str):
    if tag not in _LEDGER_CACHE:
        _LEDGER_CACHE[tag] = _SHARED[tag]()
    return _LEDGER_CACHE[tag]


def _ledger(spec: ChannelSpec, rho0: DensityOperator, h: Hamiltonian, steps: int = DEFAULT_STEPS):
    return run_energetics(spec, rho0, h, TimeGrid(DEFAULT_TAU_MAX, steps))


def _qubit(spec: ChannelSpec, theta: float, phi: float = 0.0, e_g: float = 0.0,
           e_e: float = 1.0, steps: int = DEFAULT_STEPS):
    """Ledger of the pure qubit state at (theta, phi) under diag(e_g, e_e)."""
    return _ledger(spec, prepare_pure_state(theta, phi), Hamiltonian([e_g, e_e]), steps)


def _twin(spec: ChannelSpec, unitary: np.ndarray, theta: float):
    """Ledger for the basis-rotated twin of the z-basis dephasing setup."""
    rho_z = prepare_pure_state(theta).matrix
    rho0 = DensityOperator(unitary @ rho_z @ unitary.conj().T)
    h = Hamiltonian.from_matrix(unitary @ np.diag([0.0, 1.0]).astype(complex) @ unitary.conj().T)
    return _ledger(spec, rho0, h)


#: The ledgers that more than one check reads, by memo tag.
_SHARED = {
    "phase_damping:pi/6": lambda: _qubit(ChannelSpec(PHASE_DAMPING), math.pi / 6),
    "phase_flip:pi/6": lambda: _qubit(ChannelSpec(PHASE_FLIP), math.pi / 6),
    "bit_flip:pi/4,pi/2": lambda: _qubit(ChannelSpec(BIT_FLIP), math.pi / 4, math.pi / 2),
}


# -- phase damping vs closed forms --------------------------------------------


def check_phase_damping_curves() -> list[CheckResult]:
    ledger = _memo("phase_damping:pi/6")
    heat_ref = oracle.pd_heat(ledger.tau, 0.0, 1.0)
    coh_ref = oracle.pd_coherence(ledger.tau, 0.0, 1.0)
    final_ref = heat_ref[-1]
    return [
        _within("phase-damping heat matches closed form",
                np.max(np.abs(ledger.heat - heat_ref)), ORACLE_TOL),
        _within("phase-damping final heat value",
                abs(ledger.heat[-1] - final_ref), ORACLE_TOL,
                detail=f"heat(8)={ledger.heat[-1]:.7f}, closed form {final_ref:.7f}"),
        _within("phase-damping coherence matches closed form",
                np.max(np.abs(ledger.coherence - coh_ref)), ORACLE_TOL),
        _within("phase-damping heat+coherence cancellation",
                np.max(np.abs(ledger.heat + ledger.coherence)), 5e-6),
    ]


# -- first-law closure ---------------------------------------------------------


def check_first_law_closure() -> list[CheckResult]:
    static = (_memo("phase_damping:pi/6"), _memo("phase_flip:pi/6"),
              _qubit(ChannelSpec(BIT_FLIP), math.pi / 6),
              _qubit(ChannelSpec(BIT_PHASE_FLIP), math.pi / 6))
    results = [_within("first-law closure, builtin channels with static energies",
                       _worst(ledger.closure_residual for ledger in static), 5e-5)]

    rho0 = prepare_pure_state(math.pi / 6)
    driven = Hamiltonian([0.0, "1+0.1*t"])
    worst = _worst(_ledger(spec, rho0, driven).closure_residual
                   for spec in (ChannelSpec(PHASE_DAMPING), ChannelSpec(PHASE_FLIP)))
    results.append(_within("first-law closure, driven diagonal Hamiltonian", worst, 5e-5))

    ledger = _ledger(ChannelSpec.identity(), DensityOperator(np.diag([0.25, 0.75]).astype(complex)),
                     driven)
    results.append(_within("identity channel, driven: heat and coherence vanish",
                           max(np.max(np.abs(ledger.heat)), np.max(np.abs(ledger.coherence))),
                           1e-12))
    results.append(_within("identity channel, driven: energy change equals work",
                           np.max(np.abs(ledger.delta_u - ledger.work)), 1e-12))
    return results


# -- non-dissipative invariants ------------------------------------------------


def check_non_dissipative_invariants() -> list[CheckResult]:
    # bit flip / bit-phase flip preserve populations only for equal-weight
    # superpositions; the phases pick states those channels dephase without
    # freezing outright
    ledgers = (_memo("phase_damping:pi/6"), _memo("phase_flip:pi/6"),
               _memo("bit_flip:pi/4,pi/2"), _qubit(ChannelSpec(BIT_PHASE_FLIP), math.pi / 4))
    return [
        _within("non-dissipative channels leave the internal energy unchanged",
                _worst(ledger.delta_u for ledger in ledgers), 1e-9),
        _within("static energies do no work", _worst(ledger.work for ledger in ledgers), 1e-12),
    ]


# -- phase flip vs closed forms ------------------------------------------------


def check_phase_flip_curves() -> list[CheckResult]:
    ledger = _memo("phase_flip:pi/6")
    heat_ref = oracle.pf_heat(ledger.tau, 0.0, 1.0)
    coh_ref = oracle.pf_coherence(ledger.tau, 0.0, 1.0)
    peak_index = int(np.argmin(np.abs(ledger.tau - math.log(2))))
    results = [
        _within("phase-flip heat matches closed form",
                np.max(np.abs(ledger.heat - heat_ref)), ORACLE_TOL),
        _within("phase-flip coherence matches closed form",
                np.max(np.abs(ledger.coherence - coh_ref)), ORACLE_TOL),
        _within("phase-flip heat peak at the grid point nearest tau=ln2",
                abs(ledger.heat[peak_index] - math.log(4) / 8), 1e-4,
                detail=f"peak {ledger.heat[peak_index]:.7f} vs ln4/8 = {math.log(4) / 8:.7f}"),
        _within("phase-flip heat decays by tau=8",
                abs(ledger.heat[-1] - 1.259e-4), 1e-5,
                detail=f"heat(8)={ledger.heat[-1]:.4e}"),
    ]
    wide = _qubit(ChannelSpec(PHASE_FLIP), math.pi / 6, e_g=0.3, e_e=1.7)
    wide_heat_ref = oracle.pf_heat(wide.tau, 0.3, 1.7)
    wide_coh_ref = oracle.pf_coherence(wide.tau, 0.3, 1.7)
    results.append(_within(
        "phase-flip general-energy curves match closed forms",
        max(np.max(np.abs(wide.heat - wide_heat_ref)), np.max(np.abs(wide.coherence - wide_coh_ref))),
        ORACLE_TOL))
    results.append(_within(
        "phase-flip curves scale linearly with the energy splitting",
        max(np.max(np.abs(wide.heat - 1.4 * ledger.heat)),
            np.max(np.abs(wide.coherence - 1.4 * ledger.coherence))),
        1e-10))
    return results


# -- quadrature order ----------------------------------------------------------


def check_quadrature_order() -> list[CheckResult]:
    def max_error(steps: int) -> float:
        ledger = _qubit(ChannelSpec(PHASE_DAMPING), math.pi / 6, steps=steps)
        return float(np.max(np.abs(ledger.heat - oracle.pd_heat(ledger.tau, 0.0, 1.0))))

    ratio = max_error(500) / max_error(1000)
    return [CheckResult(
        "quadrature error shrinks second order from 500 to 1000 steps",
        3.5 <= ratio <= 4.5, ratio, 4.5, detail="allowed range [3.5, 4.5]")]


# -- Pauli-channel basis symmetry ----------------------------------------------


def check_channel_symmetry() -> list[CheckResult]:
    results = []
    for label, theta, base in [
        ("equal-population setup", math.pi / 4, _qubit(ChannelSpec(PHASE_FLIP), math.pi / 4)),
        ("reference-angle setup", math.pi / 6, _memo("phase_flip:pi/6")),
    ]:
        worst = 0.0
        for spec, unitary in [(ChannelSpec(BIT_FLIP), HADAMARD),
                              (ChannelSpec(BIT_PHASE_FLIP), Y_FROM_Z)]:
            twin = _twin(spec, unitary, theta)
            worst = max(worst, _worst([twin.heat - base.heat, twin.coherence - base.coherence]))
        results.append(_within(
            f"bit-flip family twins reproduce the phase-flip ledgers ({label})",
            worst, 1e-8))

    closure = (_qubit(ChannelSpec(BIT_FLIP), math.pi / 4), _memo("bit_flip:pi/4,pi/2"))
    results.append(_within(
        "bit flip on equal-weight states in the z-basis closes the first law",
        _worst(ledger.closure_residual for ledger in closure), 5e-5))
    return results


# -- channel completeness ------------------------------------------------------


def check_cptp() -> list[CheckResult]:
    times = np.linspace(0.0, 8.0, 50)
    worst = max(float(np.max(completeness_deviation(kraus_at(ChannelSpec(kind), times))))
                for kind in BUILTIN_KINDS)
    results = [_within("builtin channels complete at 50 sampled times", worst, 1e-12)]
    broken = completeness_deviation(KrausSet((np.eye(2), np.eye(2)), 0.0))
    results.append(CheckResult(
        "doubled identity fails completeness by exactly one",
        broken == 1.0, broken, 1.0, detail="deviation must equal 1.0"))
    return results


# -- eigensolver randomized ----------------------------------------------------


def check_eigensolver() -> list[CheckResult]:
    rng = np.random.default_rng(20240811)
    # trial t is a (2 + t % 7)-dimensional complex Gaussian z, real part
    # first, giving z + z^dagger; one draw holds every trial's parts in order
    dims = [2 + trial % 7 for trial in range(200)]
    sizes = [2 * dim * dim for dim in dims]
    draws = np.split(rng.normal(size=sum(sizes)), np.cumsum(sizes)[:-1])
    worst_resid = worst_orth = 0.0
    for dim in range(2, 9):
        parts = np.stack([z for z, n in zip(draws, dims) if n == dim]).reshape(-1, 2, dim, dim)
        raw = parts[:, 0] + 1j * parts[:, 1]
        a = raw + raw.conj().swapaxes(-1, -2)
        eig = cxmat.hermitian_eigen(a)
        vecs = eig.eigenvectors
        worst_resid = max(worst_resid, float(np.max(np.abs(
            a @ vecs - vecs * eig.eigenvalues[:, None, :]))))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(dim)))))
    a, d, b_re, b_im = rng.normal(size=(200, 4)).T
    b = np.array(b_re, dtype=complex)
    b.imag = b_im
    eig = cxmat.hermitian_eigen(np.array([[a, b], [np.conj(b), d]]).transpose(2, 0, 1))
    s = np.sqrt((a - d) ** 2 + 4 * np.abs(b) ** 2)
    worst_closed = float(max(np.abs(eig.eigenvalues[:, 0] - 0.5 * (a + d - s)).max(),
                             np.abs(eig.eigenvalues[:, 1] - 0.5 * (a + d + s)).max()))
    return [
        _within("eigensolver residuals on 200 random Hermitian matrices", worst_resid, 1e-10),
        _within("eigensolver orthonormality on 200 random Hermitian matrices", worst_orth, 1e-12),
        _within("eigensolver matches the 2x2 closed form", worst_closed, 1e-12),
    ]


# -- closed-form eigensystem cross-check ---------------------------------------


def check_oracle_eigensystem() -> list[CheckResult]:
    from .channel import evolve

    rho0 = prepare_pure_state(math.pi / 6)
    taus = np.linspace(0.0, 8.0, 100)
    eig = cxmat.hermitian_eigen(evolve(ChannelSpec(PHASE_DAMPING), rho0, taus).matrix)
    closed = [oracle.pd_eigensystem(float(tau), rho0) for tau in taus]
    # The oracle lists the larger branch first, the solver the smaller.
    values = np.array([v for v, _ in closed])[:, ::-1]
    vectors = np.array([u for _, u in closed])[:, :, ::-1]
    overlap = np.abs(np.einsum("tij,tij->tj", vectors.conj(), eig.eigenvectors))
    worst = max(float(np.abs(values - eig.eigenvalues).max()), float((1.0 - overlap).max()))
    return [_within("closed-form eigensystem agrees with the numerical one", worst, 1e-12)]


# -- expression parser golden suite --------------------------------------------


def _one_cell(src: str, t: float) -> float:
    """``src`` at ``t``, evaluated as the one entry of a 1x1 matrix."""
    cells = exprparse.matrix_cells([((0, 0), src)])
    return float(exprparse.evaluate_matrix(cells, 1, t)[0, 0].real)


def check_parser_golden() -> list[CheckResult]:
    golden = [
        ("1+2*3", 0.0, 7.0),
        ("(1+2)*3", 0.0, 9.0),
        ("-2^2", 0.0, -4.0),
        ("1-exp(-t)", 0.0, 0.0),
        ("1-exp(-t)", math.log(2), 0.5),
    ]
    worst = 0.0
    for src, t, expected in golden:
        worst = max(worst, abs(_one_cell(src, t) - expected))
    results = [_within("expression parser golden values", worst, 1e-15)]

    failures = 0
    for src, t, error in [("foo(t)", 0.0, exprparse.ParseError),
                          ("(1+2", 0.0, exprparse.ParseError),
                          ("sqrt(-1-t)", 0.0, exprparse.DomainError)]:
        try:
            _one_cell(src, t)
            failures += 1
        except error:
            pass
    results.append(CheckResult(
        "expression parser rejects malformed and out-of-domain inputs",
        failures == 0, float(failures), 0.0,
        detail="unknown function, unbalanced parens, sqrt of negative"))
    return results


# -- determinism ----------------------------------------------------------------


def check_reproduce_determinism(workdir=None) -> list[CheckResult]:
    digests = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for run in ("a", "b"):
            outcome = experiment.reproduce_figure("fig2", Path(tmp) / run)
            digests.append(hashlib.sha256(outcome.csv_path.read_bytes()).hexdigest())
    identical = digests[0] == digests[1]
    return [CheckResult(
        "fig2 reproduction is byte-identical across runs",
        identical, 0.0 if identical else 1.0, 0.0,
        detail=f"sha256 {digests[0][:12]} vs {digests[1][:12]}")]


# -- driver -------------------------------------------------------------------

ALL_CHECKS = (
    check_phase_damping_curves,
    check_first_law_closure,
    check_non_dissipative_invariants,
    check_phase_flip_curves,
    check_quadrature_order,
    check_channel_symmetry,
    check_cptp,
    check_eigensolver,
    check_oracle_eigensystem,
    check_parser_golden,
    check_reproduce_determinism,
)


def run_all_checks(workdir=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        results.extend(check(workdir=workdir) if check is check_reproduce_determinism else check())
    return results
