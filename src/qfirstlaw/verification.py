"""Acceptance checks runnable from both the test suite and the CLI.

Each check returns CheckResult records with a measured value and its bound.
Heavy trajectories are cached per process so the whole battery reuses every
ledger it can; `oracle_tol` overrides only the closed-form agreement bounds
(the ones specified at 1e-5), leaving structural bounds untouched.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cxmat, experiment, exprparse, oracle
from .channel import ChannelSpec, KrausSet, completeness_deviation, kraus_at
from .firstlaw import DEFAULT_STEPS, DEFAULT_TAU_MAX, TimeGrid, run_energetics
from .qstate import DensityOperator, Hamiltonian, InitialStatePrep, prepare_pure_state

DEFAULT_ORACLE_TOL = 1e-5

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
#: Columns are the sigma_y eigenvectors; conjugation maps sigma_z to sigma_y.
Y_FROM_Z = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: measured={self.measured:.3e} bound={self.bound:.3e}"
        if self.detail:
            text += f"  ({self.detail})"
        return text


def _within(name, measured, bound, detail="") -> CheckResult:
    return CheckResult(name, measured <= bound, float(measured), float(bound), detail)


# -- cached heavy artifacts --------------------------------------------------

_LEDGER_CACHE: dict[str, object] = {}


def _memo(tag: str, builder):
    if tag not in _LEDGER_CACHE:
        _LEDGER_CACHE[tag] = builder()
    return _LEDGER_CACHE[tag]


def _default_grid() -> TimeGrid:
    return TimeGrid(DEFAULT_TAU_MAX, DEFAULT_STEPS)


def _ledger_builtin(kind_tag: str, spec: ChannelSpec, theta: float, phi: float = 0.0,
                    e_g: float = 0.0, e_e: float = 1.0):
    def build():
        rho0 = prepare_pure_state(InitialStatePrep(theta, phi))
        h = Hamiltonian.two_level(e_g, e_e)
        return run_energetics(spec, rho0, h, _default_grid())

    return _memo(f"{kind_tag}:theta={theta!r}:phi={phi!r}:e=({e_g!r},{e_e!r})", build)


def _ledger_conjugated(tag: str, spec: ChannelSpec, unitary: np.ndarray, theta: float):
    """Ledger for the basis-rotated twin of the z-basis dephasing setup."""

    def build():
        rho_z = prepare_pure_state(InitialStatePrep(theta)).matrix
        rho0 = DensityOperator(unitary @ rho_z @ unitary.conj().T)
        h = Hamiltonian.from_matrix(unitary @ np.diag([0.0, 1.0]).astype(complex) @ unitary.conj().T)
        return run_energetics(spec, rho0, h, _default_grid())

    return _memo(tag, build)


def _pd_reference_ledger():
    return _ledger_builtin("phase_damping", ChannelSpec.phase_damping(), math.pi / 6)


def _pf_reference_ledger(e_g: float = 0.0, e_e: float = 1.0):
    return _ledger_builtin("phase_flip", ChannelSpec.phase_flip(), math.pi / 6, e_g=e_g, e_e=e_e)


# -- phase damping vs closed forms --------------------------------------------


def check_phase_damping_curves(oracle_tol: float = DEFAULT_ORACLE_TOL) -> list[CheckResult]:
    ledger = _pd_reference_ledger()
    cfg = oracle.OracleConfig()
    heat_ref = oracle.pd_heat(ledger.tau, cfg)
    coh_ref = oracle.pd_coherence(ledger.tau, cfg)
    final_ref = heat_ref[-1]
    return [
        _within("phase-damping heat matches closed form",
                np.max(np.abs(ledger.heat - heat_ref)), oracle_tol),
        _within("phase-damping final heat value",
                abs(ledger.heat[-1] - final_ref), oracle_tol,
                detail=f"heat(8)={ledger.heat[-1]:.7f}, closed form {final_ref:.7f}"),
        _within("phase-damping coherence matches closed form",
                np.max(np.abs(ledger.coherence - coh_ref)), oracle_tol),
        _within("phase-damping heat+coherence cancellation",
                np.max(np.abs(ledger.heat + ledger.coherence)), 5e-6),
    ]


# -- first-law closure ---------------------------------------------------------


def check_first_law_closure() -> list[CheckResult]:
    results = []
    worst = 0.0
    for name, spec in [
        ("phase_damping", ChannelSpec.phase_damping()),
        ("phase_flip", ChannelSpec.phase_flip()),
        ("bit_flip", ChannelSpec.bit_flip()),
        ("bit_phase_flip", ChannelSpec.bit_phase_flip()),
    ]:
        ledger = _ledger_builtin(name, spec, math.pi / 6)
        worst = max(worst, float(np.max(np.abs(ledger.closure_residual))))
    results.append(_within("first-law closure, builtin channels with static energies",
                           worst, 5e-5))

    def build_driven(kind, spec):
        rho0 = prepare_pure_state(InitialStatePrep(math.pi / 6))
        h = Hamiltonian.diagonal([0.0, "1+0.1*t"])
        return run_energetics(spec, rho0, h, _default_grid())

    worst = 0.0
    for kind, spec in [("phase_damping", ChannelSpec.phase_damping()),
                       ("phase_flip", ChannelSpec.phase_flip())]:
        ledger = _memo(f"driven:{kind}", lambda s=spec, k=kind: build_driven(k, s))
        worst = max(worst, float(np.max(np.abs(ledger.closure_residual))))
    results.append(_within("first-law closure, driven diagonal Hamiltonian", worst, 5e-5))

    def build_identity_driven():
        rho0 = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
        h = Hamiltonian.diagonal([0.0, "1+0.1*t"])
        return run_energetics(ChannelSpec.identity(), rho0, h, _default_grid())

    ledger = _memo("driven:identity", build_identity_driven)
    results.append(_within("identity channel, driven: heat and coherence vanish",
                           max(np.max(np.abs(ledger.heat)), np.max(np.abs(ledger.coherence))),
                           1e-12))
    results.append(_within("identity channel, driven: energy change equals work",
                           np.max(np.abs(ledger.delta_u - ledger.work)), 1e-12))
    return results


# -- non-dissipative invariants ------------------------------------------------


def _non_dissipative_setups():
    # bit flip / bit-phase flip preserve populations only for equal-weight
    # superpositions; the phases pick states those channels dephase without
    # freezing outright
    return [
        ("phase_damping", ChannelSpec.phase_damping(), math.pi / 6, 0.0),
        ("phase_flip", ChannelSpec.phase_flip(), math.pi / 6, 0.0),
        ("bit_flip", ChannelSpec.bit_flip(), math.pi / 4, math.pi / 2),
        ("bit_phase_flip", ChannelSpec.bit_phase_flip(), math.pi / 4, 0.0),
    ]


def check_non_dissipative_invariants() -> list[CheckResult]:
    worst_du = worst_w = 0.0
    for name, spec, theta, phi in _non_dissipative_setups():
        ledger = _ledger_builtin(name, spec, theta, phi)
        worst_du = max(worst_du, float(np.max(np.abs(ledger.delta_u))))
        worst_w = max(worst_w, float(np.max(np.abs(ledger.work))))
    return [
        _within("non-dissipative channels leave the internal energy unchanged",
                worst_du, 1e-9),
        _within("static energies do no work", worst_w, 1e-12),
    ]


# -- phase flip vs closed forms ------------------------------------------------


def check_phase_flip_curves(oracle_tol: float = DEFAULT_ORACLE_TOL) -> list[CheckResult]:
    ledger = _pf_reference_ledger()
    cfg = oracle.OracleConfig()
    heat_ref = oracle.pf_heat(ledger.tau, cfg)
    coh_ref = oracle.pf_coherence(ledger.tau, cfg)
    peak_index = int(np.argmin(np.abs(ledger.tau - math.log(2))))
    results = [
        _within("phase-flip heat matches closed form",
                np.max(np.abs(ledger.heat - heat_ref)), oracle_tol),
        _within("phase-flip coherence matches closed form",
                np.max(np.abs(ledger.coherence - coh_ref)), oracle_tol),
        _within("phase-flip heat peak at the grid point nearest tau=ln2",
                abs(ledger.heat[peak_index] - math.log(4) / 8), 1e-4,
                detail=f"peak {ledger.heat[peak_index]:.7f} vs ln4/8 = {math.log(4) / 8:.7f}"),
        _within("phase-flip heat decays by tau=8",
                abs(ledger.heat[-1] - 1.259e-4), 1e-5,
                detail=f"heat(8)={ledger.heat[-1]:.4e}"),
    ]
    wide = _pf_reference_ledger(e_g=0.3, e_e=1.7)
    wide_cfg = oracle.OracleConfig(e_g=0.3, e_e=1.7)
    wide_heat_ref = oracle.pf_heat(wide.tau, wide_cfg)
    wide_coh_ref = oracle.pf_coherence(wide.tau, wide_cfg)
    results.append(_within(
        "phase-flip general-energy curves match closed forms",
        max(np.max(np.abs(wide.heat - wide_heat_ref)), np.max(np.abs(wide.coherence - wide_coh_ref))),
        oracle_tol))
    results.append(_within(
        "phase-flip curves scale linearly with the energy splitting",
        max(np.max(np.abs(wide.heat - 1.4 * ledger.heat)),
            np.max(np.abs(wide.coherence - 1.4 * ledger.coherence))),
        1e-10))
    return results


# -- quadrature order ----------------------------------------------------------


def check_quadrature_order() -> list[CheckResult]:
    cfg = oracle.OracleConfig()
    rho0 = prepare_pure_state(InitialStatePrep(math.pi / 6))
    h = Hamiltonian.two_level(0.0, 1.0)

    def max_error(steps: int) -> float:
        def build():
            return run_energetics(ChannelSpec.phase_damping(), rho0, h, TimeGrid(8.0, steps))

        ledger = _memo(f"phase_damping:coarse:{steps}", build)
        reference = oracle.pd_heat(ledger.tau, cfg)
        return float(np.max(np.abs(ledger.heat - reference)))

    ratio = max_error(500) / max_error(1000)
    return [CheckResult(
        "quadrature error shrinks second order from 500 to 1000 steps",
        3.5 <= ratio <= 4.5, ratio, 4.5, detail="allowed range [3.5, 4.5]")]


# -- Pauli-channel basis symmetry ----------------------------------------------


def check_channel_symmetry() -> list[CheckResult]:
    results = []
    for label, theta in [("equal-population setup", math.pi / 4),
                         ("reference-angle setup", math.pi / 6)]:
        base = _ledger_builtin("phase_flip", ChannelSpec.phase_flip(), theta)
        worst = 0.0
        for twin_name, spec, unitary in [
            ("bit_flip", ChannelSpec.bit_flip(), HADAMARD),
            ("bit_phase_flip", ChannelSpec.bit_phase_flip(), Y_FROM_Z),
        ]:
            twin = _ledger_conjugated(f"twin:{twin_name}:theta={theta!r}", spec, unitary, theta)
            worst = max(
                worst,
                float(np.max(np.abs(twin.heat - base.heat))),
                float(np.max(np.abs(twin.coherence - base.coherence))),
            )
        results.append(_within(
            f"bit-flip family twins reproduce the phase-flip ledgers ({label})",
            worst, 1e-8))

    worst = 0.0
    for phi in (0.0, math.pi / 2):
        ledger = _ledger_builtin("bit_flip", ChannelSpec.bit_flip(), math.pi / 4, phi)
        worst = max(worst, float(np.max(np.abs(ledger.closure_residual))))
    results.append(_within(
        "bit flip on equal-weight states in the z-basis closes the first law",
        worst, 5e-5))
    return results


# -- channel completeness ------------------------------------------------------


def check_cptp() -> list[CheckResult]:
    times = np.linspace(0.0, 8.0, 50)
    worst = max(float(np.max(completeness_deviation(kraus_at(spec, times))))
                for spec in [ChannelSpec.phase_damping(), ChannelSpec.phase_flip(),
                             ChannelSpec.bit_flip(), ChannelSpec.bit_phase_flip()])
    results = [_within("builtin channels complete at 50 sampled times", worst, 1e-12)]
    broken = completeness_deviation(KrausSet((np.eye(2), np.eye(2)), 0.0))
    results.append(CheckResult(
        "doubled identity fails completeness by exactly one",
        broken == 1.0, broken, 1.0, detail="deviation must equal 1.0"))
    return results


# -- eigensolver randomized ----------------------------------------------------


def check_eigensolver() -> list[CheckResult]:
    rng = np.random.default_rng(20240811)
    by_dim: dict[int, list[np.ndarray]] = {}
    for trial in range(200):
        dim = 2 + trial % 7
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        by_dim.setdefault(dim, []).append(raw + raw.conj().T)
    worst_resid = worst_orth = 0.0
    for dim, mats in by_dim.items():
        a = np.array(mats)
        eig = cxmat.hermitian_eigen(a)
        vecs = eig.eigenvectors
        worst_resid = max(worst_resid, float(np.max(np.abs(
            a @ vecs - vecs * eig.eigenvalues[:, None, :]))))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(dim)))))
    draws = [(*rng.normal(size=2), complex(rng.normal(), rng.normal())) for _ in range(200)]
    a, d, b = (np.array(x) for x in zip(*draws))
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

    rho0 = prepare_pure_state(InitialStatePrep(math.pi / 6))
    taus = np.linspace(0.0, 8.0, 100)
    eig = cxmat.hermitian_eigen(evolve(ChannelSpec.phase_damping(), rho0, taus).matrix)
    closed = [oracle.pd_eigensystem(float(tau), rho0) for tau in taus]
    # The oracle lists the larger branch first, the solver the smaller.
    values = np.array([v for v, _ in closed])[:, ::-1]
    vectors = np.array([u for _, u in closed])[:, :, ::-1]
    overlap = np.abs(np.einsum("tij,tij->tj", vectors.conj(), eig.eigenvectors))
    worst = max(float(np.abs(values - eig.eigenvalues).max()), float((1.0 - overlap).max()))
    return [_within("closed-form eigensystem agrees with the numerical one", worst, 1e-12)]


# -- expression parser golden suite --------------------------------------------


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
        value = exprparse.evaluate(exprparse.parse_source(src), t)
        worst = max(worst, abs(value - expected))
    results = [_within("expression parser golden values", worst, 1e-15)]

    failures = 0
    try:
        exprparse.parse_source("foo(t)")
        failures += 1
    except exprparse.ParseError:
        pass
    try:
        exprparse.parse_source("(1+2")
        failures += 1
    except exprparse.ParseError:
        pass
    try:
        exprparse.evaluate(exprparse.parse_source("sqrt(-1-t)"), 0.0)
        failures += 1
    except exprparse.DomainError:
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

_TOL_AWARE = {check_phase_damping_curves, check_phase_flip_curves}


def run_all_checks(oracle_tol: float = DEFAULT_ORACLE_TOL, workdir=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        if check is check_reproduce_determinism:
            results.extend(check(workdir=workdir))
        elif check in _TOL_AWARE:
            results.extend(check(oracle_tol=oracle_tol))
        else:
            results.extend(check())
    return results
