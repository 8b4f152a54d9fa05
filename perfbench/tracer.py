"""Outside-in instrumentation of the qfirstlaw package.

Nothing here edits the package: functions are replaced, for the length of a
run, under every name a caller can look them up by.  ``firstlaw`` imports
``evolve`` by name, ``experiment`` imports ``run_energetics`` by name,
``experiment._ORACLE_HEAT`` holds the oracle functions and
``verification.ALL_CHECKS`` holds the checks, so wrapping ``channel.evolve``
or ``oracle.pd_heat`` alone would miss those callers.  ``patch_everywhere``
therefore rewrites every module global, class attribute and module-level
container of the package that holds the original object, and ``Tracer``
refuses to start if any reference to an original survives the rewrite.

Two kinds of wrapper use it:

* ``OutputProbe`` times ``run_energetics`` and keeps what each ledger,
  experiment and check battery returned, for the output checks.  Both timed
  and traced runs use it; it wraps three entry points that are called a
  handful of times per command.
* ``Tracer`` opens a span around every call of every layer function and
  accumulates self time (span duration minus the durations of the spans
  nested directly inside it) and call counts.  It is used only in the
  separate traced pass.

This module imports nothing from the package at import time, so a process can
time its own ``import qfirstlaw``.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

PACKAGE = "qfirstlaw"

ALL = frozenset({"paper-figures", "verify", "qudit-d4", "qudit-d8"})
CLI = frozenset({"paper-figures", "verify"})
VERIFY = frozenset({"verify"})

CHECKS = (
    "check_phase_damping_curves",
    "check_first_law_closure",
    "check_non_dissipative_invariants",
    "check_phase_flip_curves",
    "check_quadrature_order",
    "check_channel_symmetry",
    "check_cptp",
    "check_eigensolver",
    "check_oracle_eigensystem",
    "check_parser_golden",
    "check_reproduce_determinism",
)

#: (layer name, defining module, attribute path, workloads that must call it)
LAYERS = (
    ("channel.kraus_at", "channel", "kraus_at", ALL),
    ("channel.validate_cptp", "channel", "validate_cptp", ALL),
    ("channel.apply", "channel", "apply", ALL),
    ("channel.evolve", "channel", "evolve", ALL),
    ("exprparse.evaluate", "exprparse", "evaluate", ALL),
    ("cxmat.hermitian_eigen", "cxmat", "hermitian_eigen", ALL),
    ("qstate.energy_eigenbasis", "qstate", "energy_eigenbasis", ALL),
    ("qstate.internal_energy", "qstate", "internal_energy", ALL),
    ("qstate.Hamiltonian.matrix", "qstate", "Hamiltonian.matrix", ALL),
    ("firstlaw.spectral_trajectory", "firstlaw", "spectral_trajectory", ALL),
    ("firstlaw.branch_match", "firstlaw", "branch_match", ALL),
    ("firstlaw._inherit_degenerate", "firstlaw", "_inherit_degenerate", ALL),
    ("firstlaw._validate_snapshot", "firstlaw", "_validate_snapshot", ALL),
    ("firstlaw.integrate_first_law", "firstlaw", "integrate_first_law", ALL),
    ("experiment.run_experiment", "experiment", "run_experiment", CLI),
    ("experiment.csv_text", "experiment", "csv_text", CLI),
    ("oracle.pd_heat", "oracle", "pd_heat", CLI),
    ("oracle.pd_coherence", "oracle", "pd_coherence", CLI),
    ("oracle.pf_heat", "oracle", "pf_heat", CLI),
    ("oracle.pf_coherence", "oracle", "pf_coherence", CLI),
    ("cli.main", "cli", "main", CLI),
    ("verification._memo", "verification", "_memo", VERIFY),
) + tuple((f"verification.{name}", "verification", name, VERIFY) for name in CHECKS)

def _package_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _package_classes():
    seen = {}
    for _, mod in _package_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                seen[id(value)] = value
    return list(seen.values())


def _references(originals):
    """Yield (site, holder kind, holder, key) for every package-level
    reference to one of ``originals`` (a dict keyed by id)."""
    for mod_name, mod in _package_modules():
        short = _short(mod_name)
        for name, value in list(vars(mod).items()):
            if id(value) in originals:
                yield f"{short}.{name}", "attr", mod, name
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in originals:
                        yield f"{short}.{name}[{key!r}]", "item", value, key
            elif isinstance(value, (tuple, list, set, frozenset)):
                for index, item in enumerate(value):
                    if id(item) in originals:
                        yield f"{short}.{name}[{index}]", "container", mod, name
    for cls in _package_classes():
        for name, value in list(vars(cls).items()):
            if id(value) in originals:
                yield f"{_short(cls.__module__)}.{cls.__name__}.{name}", "attr", cls, name


def patch_everywhere(replacements: dict):
    """Replace each key of ``replacements`` (original -> wrapper) wherever the
    package refers to it.  Returns (sites patched, undo callable)."""
    originals = {id(orig): wrapper for orig, wrapper in replacements.items()}
    sites, undo = [], []
    for site, kind, holder, key in list(_references(originals)):
        sites.append(site)
        if kind == "attr":
            old = vars(holder)[key]
            setattr(holder, key, originals[id(old)])
            undo.append((setattr, holder, key, old))
        elif kind == "item":
            old = holder[key]
            holder[key] = originals[id(old)]
            undo.append((dict.__setitem__, holder, key, old))
        else:
            old = getattr(holder, key)
            setattr(holder, key, type(old)(originals.get(id(item), item) for item in old))
            undo.append((setattr, holder, key, old))

    def restore():
        for setter, holder, key, old in reversed(undo):
            setter(holder, key, old)

    return sites, restore


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class OutputProbe:
    """Records what the package's entry points return: for every
    ``run_energetics`` call its time, grid size, closure residual and final
    row; for every ``run_experiment`` call its worst oracle deviation; and the
    ``CheckResult`` records of ``run_all_checks``.  With a
    ``hostspeed.Meter`` running, a ledger's ``seconds`` is the corrected
    time and ``raw_s`` the wall time less the meter's own."""

    def __init__(self, meter=None):
        self.meter = meter
        self.ledgers: list[dict] = []
        self.oracle_errors: list[float] = []
        self.checks: list[dict] = []

    def install(self):
        import numpy as np

        run_energetics = _resolve("firstlaw", "run_energetics")
        run_experiment = _resolve("experiment", "run_experiment")
        run_all_checks = _resolve("verification", "run_all_checks")
        clock = time.perf_counter

        def timed_run_energetics(*args, **kwargs):
            before = self.meter.reading() if self.meter else None
            start = clock()
            ledger = run_energetics(*args, **kwargs)
            elapsed = clock() - start
            timing = (self.meter.corrected(elapsed, before) if self.meter
                      else {"corrected_s": elapsed, "net_s": elapsed})
            self.ledgers.append({
                "points": len(ledger.tau),
                "seconds": timing["corrected_s"],
                "raw_s": timing["net_s"],
                "residual": float(np.max(np.abs(ledger.closure_residual))),
                "final": [float(ledger.tau[-1]), float(ledger.delta_u[-1]),
                          float(ledger.work[-1]), float(ledger.heat[-1]),
                          float(ledger.coherence[-1])],
            })
            return ledger

        def recorded_run_experiment(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            if result.heat_oracle is not None:
                ledger = result.ledger
                self.oracle_errors.append(float(max(
                    np.max(np.abs(ledger.heat - result.heat_oracle)),
                    np.max(np.abs(ledger.coherence - result.coherence_oracle)))))
            return result

        def recorded_run_all_checks(*args, **kwargs):
            results = run_all_checks(*args, **kwargs)
            self.checks.extend({"name": r.name, "passed": bool(r.passed),
                                "measured": float(r.measured)} for r in results)
            return results

        sites, self.uninstall = patch_everywhere({
            run_energetics: timed_run_energetics,
            run_experiment: recorded_run_experiment,
            run_all_checks: recorded_run_all_checks,
        })
        return sites


class LayerStats:
    __slots__ = ("self_s", "calls", "extra")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.extra: dict[str, float] = {}

    def bump(self, key: str, amount: float = 1.0):
        self.extra[key] = self.extra.get(key, 0.0) + amount


def _observe_eigen(stats, args, result):
    n = len(args[0])
    stats.bump("calls_n2" if n == 2 else "calls_ngt2")


def _observe_branch_match(stats, args, result):
    d = len(result)
    stats.bump("perms_scored", math.factorial(d))
    if tuple(result) != tuple(range(d)):
        stats.bump("reorders")


def _observe_inherit(stats, args, result):
    if result is not args[2]:
        stats.bump("inherited")


_OBSERVERS = {
    "cxmat.hermitian_eigen": _observe_eigen,
    "firstlaw.branch_match": _observe_branch_match,
    "firstlaw._inherit_degenerate": _observe_inherit,
}


class Tracer:
    """Spans around every layer function; self time from nested spans."""

    def __init__(self):
        self.stats = {name: LayerStats() for name, *_ in LAYERS}
        self.sites: list[str] = []
        self._stack: list[float] = []

    def _span(self, name, fn, observe):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.self_s += elapsed - stack.pop()
                stats.calls += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stats, args, result)
            return result

        return span

    @staticmethod
    def _memo_observer():
        # The memo starts empty in every process the benchmark runs, so a
        # lookup is a hit exactly when its tag was looked up before.
        seen = set()

        def observe_memo(stats, args, result):
            stats.bump("hits" if args[0] in seen else "misses")
            seen.add(args[0])

        return observe_memo

    def install(self):
        """Wrap every layer function the package still has; a layer it no
        longer has keeps zero calls, which the benchmark reports."""
        replacements = {}
        for name, module, path, _ in LAYERS:
            try:
                original = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                continue
            observe = _OBSERVERS.get(name)
            if name == "verification._memo":
                observe = self._memo_observer()
            replacements[original] = self._span(name, original, observe)
        self.sites, self.uninstall = patch_everywhere(replacements)
        leaked = [site for site, *_ in _references({id(o): o for o in replacements})]
        if leaked:
            self.uninstall()
            raise RuntimeError(f"tracer left call sites unwrapped: {leaked}")
        return self.sites

    def snapshot(self) -> dict:
        return {name: {"self_s": s.self_s, "calls": s.calls, "extra": dict(s.extra)}
                for name, s in self.stats.items()}
