"""Experiment configuration, CSV serialization, and figure presets.

The CLI is a thin wrapper over this module so the same machinery is
importable from tests.  CSV output is deterministic byte-for-byte: numbers
are serialized with 12 significant digits in lowercase scientific notation
and lines end with LF.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import oracle
from .channel import ChannelSpec, CptpError
from .firstlaw import DEFAULT_STEPS, DEFAULT_TAU_MAX, EnergeticsLedger, TimeGrid, run_energetics
from .qstate import Hamiltonian, InitialStatePrep, prepare_pure_state


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


#: CLI names for the builtin channels.
CHANNEL_NAMES = {
    "phase-damping": ChannelSpec.phase_damping,
    "phase-flip": ChannelSpec.phase_flip,
    "bit-flip": ChannelSpec.bit_flip,
    "bit-phase-flip": ChannelSpec.bit_phase_flip,
}

CSV_COLUMNS = ("tau", "delta_u", "work", "heat", "coherence")
CSV_ORACLE_COLUMNS = ("heat_oracle", "coherence_oracle")

_ORACLE_HEAT = {
    channel_mod.PHASE_DAMPING: oracle.pd_heat,
    channel_mod.PHASE_FLIP: oracle.pf_heat,
}
_ORACLE_COHERENCE = {
    channel_mod.PHASE_DAMPING: oracle.pd_coherence,
    channel_mod.PHASE_FLIP: oracle.pf_coherence,
}


def parse_theta(text) -> float:
    """Angle in radians; the literal tokens pi and pi/<n> are accepted
    so pi/6 stays exact instead of a rounded decimal."""
    if isinstance(text, (int, float)):
        return float(text)
    token = text.strip().lower()
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        try:
            return math.pi / float(token[3:])
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cannot parse angle {text!r}") from None
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


def parse_channel(value) -> ChannelSpec:
    """Channel from a CLI flag / config value.

    Accepts a builtin name, custom:<json-file>, or an inline custom-channel
    object in the documented JSON schema."""
    if isinstance(value, ChannelSpec):
        return value
    if isinstance(value, dict):
        payload, origin = value, ""
    else:
        name = str(value).strip()
        if name in CHANNEL_NAMES:
            return CHANNEL_NAMES[name]()
        if not name.startswith("custom:"):
            raise ConfigError(f"unknown channel {name!r}; expected one of "
                              f"{', '.join(CHANNEL_NAMES)} or custom:<file>")
        path = Path(name[len("custom:"):])
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read channel file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"channel file {path} is not valid JSON: {exc}") from exc
        origin = f" in {path}"
    try:
        return ChannelSpec.from_json(payload)
    except (ValueError, CptpError) as exc:
        raise ConfigError(f"invalid custom channel{origin}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelSpec
    theta: float = math.pi / 6
    phi: float = 0.0
    e_g: float = 0.0
    e_e: float = 1.0
    tau_max: float = DEFAULT_TAU_MAX
    steps: int = DEFAULT_STEPS
    emit_oracle: bool = False

    def __post_init__(self):
        for key in ("theta", "phi", "e_g", "e_e", "tau_max", "steps"):
            value, kind = getattr(self, key), Integral if key == "steps" else Real
            if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                noun = "an integer" if key == "steps" else "a finite number"
                raise ConfigError(f"{key} must be {noun}, got {value!r}")
        if not isinstance(self.emit_oracle, bool):
            raise ConfigError(f"emit_oracle must be true or false, got {self.emit_oracle!r}")
        if self.steps < 10:
            raise ConfigError(f"steps must be at least 10, got {self.steps}")
        if self.tau_max <= 0:
            raise ConfigError(f"tau_max must be positive, got {self.tau_max}")
        if self.emit_oracle:
            if self.channel.kind not in _ORACLE_HEAT:
                raise ConfigError(
                    "oracle columns exist only for phase-damping and phase-flip channels"
                )
            if abs(self.theta - math.pi / 6) > 1e-12:
                raise ConfigError("oracle columns require theta = pi/6")


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def config_from_sources(file_values: dict | None, flag_values: dict) -> ExperimentConfig:
    """Merge a JSON config file with CLI flags; flags override file values.
    A flag left at None was not given; a file value of null is kept, so the
    config rejects it as a value of the wrong type."""
    flags = {key: value for key, value in flag_values.items() if value is not None}
    merged: dict = {}
    for source in (file_values or {}), flags:
        for key, value in source.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    if "channel" not in merged:
        raise ConfigError("a channel must be specified (flag --channel or config key)")
    merged["channel"] = parse_channel(merged["channel"])
    if isinstance(merged.get("theta"), str):
        merged["theta"] = parse_theta(merged["theta"])
    return ExperimentConfig(**merged)


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    ledger: EnergeticsLedger
    heat_oracle: np.ndarray | None = None
    coherence_oracle: np.ndarray | None = None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    try:
        prep = InitialStatePrep(config.theta, config.phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rho0 = prepare_pure_state(prep)
    h = Hamiltonian.two_level(config.e_g, config.e_e)
    ledger = run_energetics(config.channel, rho0, h, TimeGrid(config.tau_max, config.steps))
    heat_ref = coh_ref = None
    if config.emit_oracle:
        cfg = oracle.OracleConfig(e_g=config.e_g, e_e=config.e_e, theta=config.theta)
        heat_fn = _ORACLE_HEAT[config.channel.kind]
        coh_fn = _ORACLE_COHERENCE[config.channel.kind]
        heat_ref = heat_fn(ledger.tau, cfg)
        coh_ref = coh_fn(ledger.tau, cfg)
    return ExperimentResult(config, ledger, heat_ref, coh_ref)


def format_number(x: float) -> str:
    """12 significant digits, scientific notation, lowercase e."""
    return "%.11e" % x


# The array path scales by 10**(11 - e), a correctly rounded double parsed
# once per chunk for each exponent in its range.  e is clipped to
# +-_MAX_EXP, where every such power is normal and no product overflows; a
# clipped value scales outside [1e11, 1e12) and so falls back.
_MAX_EXP = 290
# |s - exact| < 2.3e-4 for the scaled value s < 1e12 below (the power of ten
# and the product each round by at most 2**-53 relative); 1e-3 away from a
# rounding or decade boundary, s rounds as the exact value does.
_MARGIN = 1e-3
_CHUNK_ROWS = 1024
_FIELD = 20  # sign, d, '.', 11 digits, 'e', sign, 3 exponent digits, separator


def _format_block(block: np.ndarray) -> bytes:
    """The rows of ``block`` as CSV lines of format_number values.

    Each value gets a column of _FIELD bytes; bytes left 0 (a plus sign, an
    unused hundreds digit, the tail of a shorter fallback) are dropped."""
    x = block.ravel()
    a = np.abs(x)
    normal = np.isfinite(a) & (a >= np.finfo(float).tiny)
    a = np.where(normal, a, 0.0)
    e = np.floor(np.log10(np.where(normal, a, 1.0))).astype(np.int16)
    k = np.clip(e, -_MAX_EXP, _MAX_EXP)
    lo = int(k.min())
    pow10 = np.array([float("1e%d" % (11 - j)) for j in range(lo, int(k.max()) + 1)])
    s = a * pow10[k - lo]
    mantissa = np.rint(s)
    fast = (x == 0) | (normal & (s >= 1e11 + _MARGIN) & (s <= 1e12 - _MARGIN)
                       & (np.abs(np.abs(s - mantissa) - 0.5) > _MARGIN))
    mantissa = np.where(fast, mantissa, 0.0)  # zero reads 0e+00; fallbacks are overwritten
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    e += carry
    buf = np.zeros((_FIELD, x.size), dtype=np.uint8)
    buf[0] = np.where(np.signbit(x), ord("-"), 0)
    q = mantissa.astype(np.uint64)
    top = q // 10 ** 6
    groups = np.stack([top, q - top * 10 ** 6]).astype(np.uint32)  # six digits each
    digits = np.empty((2, 6, x.size), dtype=np.uint8)
    for i in range(5, -1, -1):
        rest = groups // 10
        digits[:, i] = groups - rest * 10
        groups = rest
    digits = digits.reshape(12, -1) + ord("0")
    buf[1] = digits[0]
    buf[2] = ord(".")
    buf[3:14] = digits[1:]
    buf[14] = ord("e")
    buf[15] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e)
    hundreds, tens = e // 100, e // 10
    buf[16] = np.where(hundreds > 0, hundreds + ord("0"), 0)
    buf[17] = tens - hundreds * 10 + ord("0")
    buf[18] = e - tens * 10 + ord("0")
    buf[19] = ord(",")
    buf[19, block.shape[1] - 1::block.shape[1]] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([format_number(v) for v in x[slow].tolist()], dtype="S19")
        buf[:19, slow] = text.view(np.uint8).reshape(slow.size, 19).T
    out = buf.T.ravel()
    return out[out != 0].tobytes()


def csv_text(result: ExperimentResult) -> str:
    """The header and one row per grid point.  Every number is exactly
    format_number's text, Python's correctly rounded ``'%.11e' % x``.  The
    digits are computed with numpy over chunks of rows; a value whose scaled
    mantissa lies too near a rounding or decade boundary, or that is
    subnormal, non-finite or beyond 1e+-290, goes through format_number."""
    columns = [result.ledger.tau, result.ledger.delta_u, result.ledger.work,
               result.ledger.heat, result.ledger.coherence]
    header = list(CSV_COLUMNS)
    if result.heat_oracle is not None:
        columns += [result.heat_oracle, result.coherence_oracle]
        header += list(CSV_ORACLE_COLUMNS)
    block = np.column_stack(columns)
    parts = [",".join(header) + "\n"]
    parts += [_format_block(block[i:i + _CHUNK_ROWS]).decode("ascii")
              for i in range(0, len(block), _CHUNK_ROWS)]
    return "".join(parts)


def write_trajectory_csv(path, result: ExperimentResult) -> None:
    Path(path).write_text(csv_text(result), encoding="ascii", newline="")


def summary_line(ledger: EnergeticsLedger) -> str:
    residual = float(np.max(np.abs(ledger.closure_residual)))
    return (
        f"final tau={ledger.tau[-1]:g}: delta_u={ledger.delta_u[-1]:.6e} "
        f"work={ledger.work[-1]:.6e} heat={ledger.heat[-1]:.6e} "
        f"coherence={ledger.coherence[-1]:.6e} max_closure_residual={residual:.3e}"
    )


# -- figure reproduction ----------------------------------------------------

FIGURE_PRESETS = {
    "fig2": "phase-damping",
    "fig3": "phase-flip",
}


@dataclass(frozen=True)
class ReportLine:
    label: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


@dataclass(frozen=True)
class ReproduceOutcome:
    figure: str
    csv_path: Path
    report_path: Path
    lines: tuple[ReportLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def reproduce_figure(figure: str, out_dir) -> ReproduceOutcome:
    """Run the preset for one published figure and write CSV plus a
    per-column verification report against the closed forms."""
    if figure not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure {figure!r}; expected one of {', '.join(FIGURE_PRESETS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(
        channel=parse_channel(FIGURE_PRESETS[figure]),
        theta=math.pi / 6,
        emit_oracle=True,
    )
    result = run_experiment(config)
    csv_path = out_dir / f"{figure}.csv"
    write_trajectory_csv(csv_path, result)

    ledger = result.ledger
    lines = (
        ReportLine("max |heat - heat_oracle|",
                   float(np.max(np.abs(ledger.heat - result.heat_oracle))), 1e-5),
        ReportLine("max |coherence - coherence_oracle|",
                   float(np.max(np.abs(ledger.coherence - result.coherence_oracle))), 1e-5),
        ReportLine("max |heat + coherence|",
                   float(np.max(np.abs(ledger.heat + ledger.coherence))), 5e-6),
        ReportLine("max |delta_u|", float(np.max(np.abs(ledger.delta_u))), 1e-9),
        ReportLine("max |work|", float(np.max(np.abs(ledger.work))), 1e-12),
    )
    report_path = out_dir / f"{figure}_report.txt"
    text = [
        f"{figure}: {FIGURE_PRESETS[figure]}, theta=pi/6, E_g={config.e_g:g}, "
        f"E_e={config.e_e:g}, tau in [0, {config.tau_max:g}], {config.steps} steps"
    ]
    for line in lines:
        status = "PASS" if line.passed else "FAIL"
        text.append(f"{line.label:<36} = {line.value:.3e}  (bound {line.bound:.1e})  {status}")
    report_path.write_text("\n".join(text) + "\n", encoding="ascii", newline="")
    return ReproduceOutcome(figure, csv_path, report_path, lines)
