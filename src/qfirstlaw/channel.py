"""Kraus-channel representations: builtin non-dissipative channels,
expression-defined custom channels, CPTP validation, and state evolution.

Builtin channels are parameterized cumulatively from t = 0: the Kraus set
at time t maps rho(0) directly to rho(t) (gamma(t) and p(t) below), exactly
as the closed-form evolved states are written.  Incremental composition of
short-time maps is deliberately not offered; the flip family's off-diagonal
factor (2 e^{-t} - 1) changes sign and the family is not divisible
across that zero.

With a 1-D array of times, operators and states gain a leading time axis,
the whole grid is checked before evolution, and errors name the first failing time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import cxmat, exprparse
from .qstate import DensityOperator

PHASE_DAMPING = "phase_damping"
PHASE_FLIP = "phase_flip"
BIT_FLIP = "bit_flip"
BIT_PHASE_FLIP = "bit_phase_flip"
CUSTOM = "custom"

BUILTIN_KINDS = (PHASE_DAMPING, PHASE_FLIP, BIT_FLIP, BIT_PHASE_FLIP)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_FLIP_PAULI = {PHASE_FLIP: PAULI_Z, BIT_FLIP: PAULI_X, BIT_PHASE_FLIP: PAULI_Y}

#: Completeness bound max|sum K†K - I| for a custom channel at t = 0 and
#: for every Kraus set that evolves a state.
CPTP_TOL = 1e-10


class CptpError(cxmat.NumericError):
    """A Kraus set failed the completeness check sum_i K_i† K_i = I."""


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators at one time (each d x d) or over an array of times (each (T, d, d))."""

    operators: tuple[np.ndarray, ...]
    time_label: float | np.ndarray

    def __post_init__(self):
        ops = tuple(cxmat.as_matrix(k) for k in self.operators)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        shape = ops[0].shape
        for k in ops:
            if k.shape != shape or shape[-1] != shape[-2]:
                raise cxmat.ShapeError(
                    f"all Kraus operators must be {shape[-1]}x{shape[-1]}, got {k.shape}"
                )
        if np.shape(self.time_label) != shape[:-2]:
            raise cxmat.ShapeError(f"time_label of shape {np.shape(self.time_label)} does not "
                                   f"label operators of shape {shape}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[-1]


@dataclass(frozen=True)
class ChannelSpec:
    """A time-parameterized family of Kraus sets.

    A builtin is built from its kind alone, ``ChannelSpec(PHASE_DAMPING)``
    or any other of BUILTIN_KINDS, and is written in the dimensionless time
    tau = gamma t; custom channels carry each operator's non-zero cells (see
    exprparse.matrix_cells), evaluated at the requested time.
    """

    kind: str
    dim: int = 2
    custom_operators: tuple[tuple[exprparse.Cell, ...], ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind in BUILTIN_KINDS:
            if self.dim != 2:
                raise ValueError("builtin channels are qubit channels (dim 2)")
        elif self.kind == CUSTOM:
            if not self.custom_operators:
                raise ValueError("custom channel needs at least one Kraus operator")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def custom(cls, operators, dim: int | None = None) -> "ChannelSpec":
        """Custom channel from a non-empty list of d x d operators (lists of
        rows of exprparse.as_cell values), d being ``dim`` or else the first
        operator's row count.  The operator set must be CPTP at t = 0."""
        if dim is not None and (isinstance(dim, bool) or not isinstance(dim, Integral) or dim < 1):
            raise ValueError(f"custom channel dim must be a positive integer, got {dim!r}")
        if not _length(operators):
            raise ValueError(f"custom channel needs a non-empty list of Kraus operators, "
                             f"got {operators!r}")
        d = dim or _length(operators[0])
        for index, op in enumerate(operators):
            if not d or _length(op) != d or any(_length(row) != d for row in op):
                shape = f"{d}x{d}" if d else "non-empty square"
                raise ValueError(f"custom Kraus operator {index} must be a {shape} list of rows")
        cells = []
        for index, op in enumerate(operators):
            try:
                cells.append(exprparse.matrix_cells(
                    ((i, j), entry) for i, row in enumerate(op) for j, entry in enumerate(row)))
            except exprparse.ExpressionError as exc:
                raise exc.prefixed(f"custom channel operator {index} ") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"custom channel operator {index} {exc}") from exc
        spec = cls(CUSTOM, dim=d, custom_operators=tuple(cells))
        validate_cptp(kraus_at(spec, 0.0))
        return spec

    @classmethod
    def identity(cls, dim: int = 2) -> "ChannelSpec":
        """The do-nothing channel (single identity Kraus operator)."""
        return cls.custom([np.eye(dim).tolist()], dim=dim)

    @classmethod
    def from_json(cls, source) -> "ChannelSpec":
        """Build a custom channel from the documented JSON schema:
        {"kind": "custom", "dim": d, "kraus": [matrix, ...]} with each
        matrix entry a two-element ["re_expr", "im_expr"] pair, and no other key."""
        obj = json.loads(source) if isinstance(source, str) else source
        if not isinstance(obj, dict):
            raise ValueError("channel JSON must be an object")
        if unknown := set(obj) - {"kind", "dim", "kraus"}:
            raise ValueError(f"unknown channel JSON key {min(unknown)!r}")
        if obj.get("kind") != CUSTOM:
            raise ValueError(f"channel JSON kind must be 'custom', got {obj.get('kind')!r}")
        if "kraus" not in obj:
            raise ValueError("channel JSON is missing the 'kraus' list")
        return cls.custom(obj["kraus"], dim=obj.get("dim"))


def _length(value):
    """len() of a list, tuple or array, else None: a string is not a list of rows."""
    return len(value) if isinstance(value, (list, tuple, np.ndarray)) else None


def kraus_at(spec: ChannelSpec, t) -> KrausSet:
    """Kraus operators at time t >= 0, or (T, d, d) ones over an array of times."""
    times = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(times) & (times >= 0))
    if np.any(bad):
        raise ValueError(f"time must be finite and non-negative, got {times[bad].flat[0]}")
    if spec.kind in BUILTIN_KINDS:
        # gamma = p = 1 - exp(-t), via expm1 for small-t accuracy; the
        # matrix axes lead, so each operator over a grid is a grid-last stack
        p = -np.expm1(-times)
        shape = (2, 2) + (1,) * p.ndim
        if spec.kind == PHASE_DAMPING:
            # K1 = |0><0| + sqrt(1 - gamma) |1><1|,  K2 = sqrt(gamma) |1><1|
            low, high = np.diag([1.0, 0.0]).reshape(shape), np.diag([0.0, 1.0]).reshape(shape)
            k1 = low + np.sqrt(1.0 - p) * high
            k2 = np.sqrt(p) * high
        else:
            k1 = np.sqrt(1.0 - p) * np.eye(2).reshape(shape)
            k2 = np.sqrt(p) * _FLIP_PAULI[spec.kind].reshape(shape)
        return KrausSet((cxmat.stack_view(k1), cxmat.stack_view(k2)), t)
    ops = []
    for index, cells in enumerate(spec.custom_operators):
        try:
            ops.append(exprparse.evaluate_matrix(cells, spec.dim, times))
        except exprparse.DomainError as exc:
            raise exc.prefixed(f"custom channel operator {index} ") from exc
    return KrausSet(tuple(ops), t)


def completeness_deviation(kraus: KrausSet):
    """max-norm of sum_i K_i† K_i - I: a float, or one per time of a stack."""
    total = sum(cxmat.stack_matmul(np.swapaxes(k.conj(), -1, -2), k) for k in kraus.operators)
    # numpy reduces in memory order, so the grid is the inner loop of a grid-last stack
    deviation = np.abs(total - np.eye(kraus.dim)).max(axis=(-2, -1))
    return float(deviation) if deviation.ndim == 0 else deviation


def validate_cptp(kraus: KrausSet):
    """completeness_deviation(kraus), raising CptpError at the first time
    whose deviation exceeds CPTP_TOL (or is NaN)."""
    deviation = completeness_deviation(kraus)
    failing = np.flatnonzero(~(np.ravel(deviation) <= CPTP_TOL))
    if failing.size:
        index = failing[0]
        raise CptpError(
            f"Kraus set at t={np.ravel(kraus.time_label)[index]} is not CPTP: "
            f"deviation {np.ravel(deviation)[index]:.3e} > {CPTP_TOL:.3e}"
        )
    return deviation


def apply(kraus: KrausSet, rho: DensityOperator) -> DensityOperator:
    """sum_i K_i rho K_i†, refusing Kraus sets that fail CPTP within CPTP_TOL;
    a Kraus set over a grid gives the stack of states at every time."""
    if kraus.dim != rho.dim:
        raise cxmat.ShapeError(
            f"dimension mismatch: Kraus dim {kraus.dim}, state dim {rho.dim}"
        )
    deviation = validate_cptp(kraus)
    out = sum(cxmat.stack_matmul(cxmat.stack_matmul(k, rho.matrix), np.swapaxes(k.conj(), -1, -2))
              for k in kraus.operators)
    # |Tr((sum K†K - I) rho)| <= d * deviation for a unit-trace state
    trace_drift = np.abs(_trace(out) - _trace(rho.matrix))
    drifted = trace_drift > kraus.dim * deviation + 1e-12
    if np.any(drifted):
        index = np.flatnonzero(drifted)[0]
        raise cxmat.NumericError(
            f"at t={np.ravel(kraus.time_label)[index]}: trace drifted by "
            f"{np.ravel(trace_drift)[index]:.3e} under a CPTP-validated set"
        )
    return DensityOperator(out)


def _trace(m):
    """Traces of a matrix or a grid-last stack, adding diagonal entries in index order."""
    return np.diagonal(m, axis1=-2, axis2=-1).T.sum(axis=0)


def evolve(spec: ChannelSpec, rho0: DensityOperator, t) -> DensityOperator:
    """apply(kraus_at(spec, t), rho0): the state at t, or the (T, d, d) stack."""
    return apply(kraus_at(spec, t), rho0)
