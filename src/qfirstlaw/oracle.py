"""Closed-form reference results for the dephasing qubit.

These are the analytic ground truths the numerical pipeline is validated
against: the spectral decomposition of the phase-damped state at any time,
and the cumulative heat/coherence curves for both dephasing families.
The heat/coherence closed forms are the theta = pi/6 curves; they check no
angle (ExperimentConfig does), and any other angle must go through the
numerical pipeline.  They take (tau, e_g, e_e), linear in the two level
energies, which may come in either order.  A float tau returns a float and
an array of tau an array, so a whole grid is one call; an out-of-domain tau
raises a ValueError naming the first failing tau.

Conventions: tau is the dimensionless time gamma t, log means the
natural logarithm, and amplitudes may be complex -- the eigenvector
formulas use |rho10|^2 where the real-amplitude special case would read
rho10^2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .qstate import DensityOperator

#: Bound on a ledger's distance from the heat and coherence curves below, as
#: read by `verify` and the figure reports.
ORACLE_TOL = 1e-5


def pd_eigensystem(tau: float, rho0: DensityOperator):
    """Eigenvalues and eigenvectors of the phase-damped state at time tau.

    Returns (values, vectors) with values descending (the larger branch
    first) and vectors as matching columns.  The discriminant is
    m = (rho00 - rho11)^2 + 4 e^{-tau} |rho01|^2 and the off-diagonal decays
    by e^{-tau/2}.  When a normalizer vanishes (only possible for an already
    diagonal state) the computational basis is returned.
    """
    if rho0.dim != 2:
        raise ValueError("closed-form eigensystem is for qubits only")
    m00 = rho0.matrix[0, 0].real
    m11 = rho0.matrix[1, 1].real
    r10 = rho0.matrix[1, 0]
    decay = math.exp(-0.5 * tau)
    sm = math.sqrt((m00 - m11) ** 2 + 4.0 * math.exp(-tau) * abs(r10) ** 2)
    values = np.array([0.5 * (m00 + m11 + sm), 0.5 * (m00 + m11 - sm)])

    vectors = np.zeros((2, 2), dtype=np.complex128)
    raw = (
        np.array([m00 - m11 + sm, 2.0 * decay * r10], dtype=np.complex128),
        np.array([m00 - m11 - sm, 2.0 * decay * r10], dtype=np.complex128),
    )
    norms = [float(np.linalg.norm(v)) for v in raw]
    if min(norms) < 1e-150:
        # Diagonal state: the larger branch sits on the larger population.
        hi = 0 if m00 >= m11 else 1
        vectors[hi, 0] = 1.0
        vectors[1 - hi, 1] = 1.0
        return values, vectors
    vectors[:, 0] = raw[0] / norms[0]
    vectors[:, 1] = raw[1] / norms[1]
    return values, vectors


def _closed_form(curve):
    """Let ``curve(t, e_g, e_e)`` take a float tau, returning a float, or an
    array of tau, returning an array."""

    @functools.wraps(curve)
    def closed_form(tau, e_g: float, e_e: float):
        t = np.asarray(tau, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            values = curve(t, e_g, e_e)
        return float(values) if t.ndim == 0 else values

    return closed_form


def _logs(t: np.ndarray, *args) -> tuple[np.ndarray, ...]:
    """log of each argument; the domain error names the first tau at which
    an argument is not finite and positive, as when e^tau overflows."""
    bad = ~np.all([np.isfinite(arg) & (arg > 0.0) for arg in args], axis=0)
    if np.any(bad):
        raise ValueError(f"log argument out of domain at tau={float(t.flat[np.argmax(bad)])}")
    return tuple(np.log(arg) for arg in args)


@_closed_form
def pd_heat(tau, e_g: float, e_e: float):
    """Cumulative heat under phase damping at theta = pi/6."""
    (log_sum,) = _logs(tau, 3.0 + np.exp(tau))
    return (e_e - e_g) / 8.0 * (tau + math.log(4.0) - log_sum)


@_closed_form
def pd_coherence(tau, e_g: float, e_e: float):
    """Cumulative coherence contribution under phase damping; exactly -pd_heat."""
    (log_sum,) = _logs(tau, 3.0 + np.exp(tau))
    return (e_e - e_g) / 8.0 * (-tau - math.log(4.0) + log_sum)


@_closed_form
def pf_heat(tau, e_g: float, e_e: float):
    """Cumulative heat under the phase flip channel at theta = pi/6.

    Implemented as the printed four-bracket sum over both energies; it
    reduces to (e_e - e_g)/8 * (-log(1 + 3e^{-2 tau} - 3e^{-tau})), which the
    tests verify."""
    big = np.exp(2.0 * tau) - 3.0 * np.exp(tau) + 3.0
    small = 3.0 * np.exp(-2.0 * tau) - 3.0 * np.exp(-tau) + 1.0
    log_big, log_small = _logs(tau, big, small)
    a = 4.0 * np.exp(-tau) * np.sqrt(big)
    term_g = (
        (-4.0 + a - 2.0 * tau + log_big) + (4.0 - a - 2.0 * tau + log_big)
    ) * e_g / 16.0
    term_e = ((-4.0 + a - log_small) + (4.0 - a - log_small)) * e_e / 16.0
    return term_g + term_e


@_closed_form
def pf_coherence(tau, e_g: float, e_e: float):
    """Cumulative coherence contribution under phase flip; exactly -pf_heat
    (log(3 + e^{2 tau} - 3 e^{tau}) = 2 tau + log(1 + 3e^{-2 tau} - 3e^{-tau}))."""
    big = np.exp(2.0 * tau) - 3.0 * np.exp(tau) + 3.0
    (log_big,) = _logs(tau, big)
    b = np.exp(tau) / np.sqrt(big)
    term_g = (
        (1.0 + 2.0 * tau - log_big - b) + (-1.0 + 2.0 * tau - log_big + b)
    ) * e_g / 16.0
    term_e = (
        (-1.0 - 2.0 * tau + log_big + b) + (1.0 - 2.0 * tau + log_big - b)
    ) * e_e / 16.0
    return term_g + term_e
