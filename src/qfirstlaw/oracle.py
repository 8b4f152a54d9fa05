"""Closed-form reference results for the dephasing qubit.

These are the analytic ground truths the numerical pipeline is validated
against: the spectral decomposition of the phase-damped state at any time,
and the cumulative heat/coherence curves for both dephasing families at
theta = pi/6.  The heat/coherence closed forms are gated to theta = pi/6;
anything else must go through the numerical pipeline.  They take a float tau
and return a float, or take an array of tau and return an array, so a whole
grid is one call; an out-of-domain tau raises a ValueError naming the first
failing tau.

Conventions: tau is the dimensionless time (rate * t), log means the
natural logarithm, and amplitudes may be complex -- the eigenvector
formulas use |rho10|^2 where the real-amplitude special case would read
rho10^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import DensityOperator

_THETA_TOL = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Energy splitting and preparation angle for the closed-form curves."""

    e_g: float = 0.0
    e_e: float = 1.0
    theta: float = math.pi / 6

    def __post_init__(self):
        if self.e_e < self.e_g:
            raise ValueError(f"require e_e >= e_g, got ({self.e_g}, {self.e_e})")

    def require_reference_angle(self):
        if abs(self.theta - math.pi / 6) > _THETA_TOL:
            raise ValueError(
                "closed-form heat/coherence curves are only valid at theta = pi/6; "
                f"got theta = {self.theta}"
            )


@dataclass(frozen=True)
class OracleIntermediates:
    """Discriminant m = (rho00 - rho11)^2 + 4 * channel_factor * |rho01|^2
    appearing under the square root of the 2x2 spectrum, together with the
    squared off-diagonal scale of the channel (e^{-tau} for phase damping,
    (2 e^{-tau} - 1)^2 for phase flip)."""

    m: float
    channel_factor: float

    def __post_init__(self):
        if self.m < 0.0:
            raise ValueError(f"discriminant must be non-negative, got {self.m}")


def _intermediates(channel_factor: float, rho0: DensityOperator) -> OracleIntermediates:
    m00 = rho0.matrix[0, 0].real
    m11 = rho0.matrix[1, 1].real
    return OracleIntermediates(
        (m00 - m11) ** 2 + 4.0 * channel_factor * abs(rho0.matrix[1, 0]) ** 2,
        channel_factor,
    )


def pd_intermediates(tau: float, rho0: DensityOperator) -> OracleIntermediates:
    return _intermediates(math.exp(-tau), rho0)


def pf_intermediates(tau: float, rho0: DensityOperator) -> OracleIntermediates:
    return _intermediates((2.0 * math.exp(-tau) - 1.0) ** 2, rho0)


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
    sm = math.sqrt(pd_intermediates(tau, rho0).m)
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
    """Let ``curve(t, cfg)`` take a float tau, returning a float, or an array
    of tau, returning an array; the reference angle is checked once per call."""

    @functools.wraps(curve)
    def closed_form(tau, cfg: OracleConfig):
        cfg.require_reference_angle()
        t = np.asarray(tau, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            values = curve(t, cfg)
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
def pd_heat(tau, cfg: OracleConfig):
    """Cumulative heat under phase damping at theta = pi/6."""
    (log_sum,) = _logs(tau, 3.0 + np.exp(tau))
    return (cfg.e_e - cfg.e_g) / 8.0 * (tau + math.log(4.0) - log_sum)


@_closed_form
def pd_coherence(tau, cfg: OracleConfig):
    """Cumulative coherence contribution under phase damping; exactly -pd_heat."""
    (log_sum,) = _logs(tau, 3.0 + np.exp(tau))
    return (cfg.e_e - cfg.e_g) / 8.0 * (-tau - math.log(4.0) + log_sum)


@_closed_form
def pf_heat(tau, cfg: OracleConfig):
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
    ) * cfg.e_g / 16.0
    term_e = ((-4.0 + a - log_small) + (4.0 - a - log_small)) * cfg.e_e / 16.0
    return term_g + term_e


@_closed_form
def pf_coherence(tau, cfg: OracleConfig):
    """Cumulative coherence contribution under phase flip; exactly -pf_heat
    (log(3 + e^{2 tau} - 3 e^{tau}) = 2 tau + log(1 + 3e^{-2 tau} - 3e^{-tau}))."""
    big = np.exp(2.0 * tau) - 3.0 * np.exp(tau) + 3.0
    (log_big,) = _logs(tau, big)
    b = np.exp(tau) / np.sqrt(big)
    term_g = (
        (1.0 + 2.0 * tau - log_big - b) + (-1.0 + 2.0 * tau - log_big + b)
    ) * cfg.e_g / 16.0
    term_e = (
        (-1.0 - 2.0 * tau + log_big + b) + (1.0 - 2.0 * tau + log_big - b)
    ) * cfg.e_e / 16.0
    return term_g + term_e
