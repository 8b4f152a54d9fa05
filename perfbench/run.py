"""Benchmark of the qfirstlaw spectral-trajectory pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    paper-figures  reproduce fig2, reproduce fig3 and two 4000-step simulate runs
    verify         one cold ``qfirstlaw verify``
    qudit-d4       run_energetics on four seeded mixed-unitary channels, d=4, driven H
    qudit-d8       the same generator at d=8 with a static H

The load is a closed loop from one process and one thread.  CLI workloads
run each command in a fresh interpreter through ``qfirstlaw.cli.main``, so
per-process caches and the ``verify`` ledger memo start cold every time.
Library workloads run in one interpreter after one untimed warm-up
pass.  A run keeps starting passes while the median pass still fits in
``--seconds``.  Every operation's outputs are checked; one that fails a check
counts as failed, its time still counts, and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the same timed loop runs,
then one separate pass under the outside-in tracer (``tracer.py``), and the
metrics are the per-layer ones.  Lines before it are a readable report:
the machine, the inputs' sha256, each metric with its median, the highest
percentile that has at least ten samples beyond it and the sample count.

Times are corrected for the speed of the shared host (``hostspeed.py``): a
fixed kernel runs on a 4 ms timer inside every timed process, and each
interval is reported in seconds at the kernel's reference speed.  The
report also prints the uncorrected times (wall time less the kernel's) and
the slowdowns measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Closure-residual gates.  With a static Hamiltonian heat plus coherence
#: telescopes exactly to the energy change, so the residual is round-off
#: (below 1e-14 on every input tried).  With a driven one it is the
#: second-order quadrature error: 5e-5 is the verification battery's own
#: bound, and qudit-d4 at 400 steps gave 3e-7 to 1.1e-6 over the seeds tried.
STATIC_H_RESIDUAL = 1e-10
ORACLE_TOL = 1e-5
VERIFY_MIN_CHECKS = 29

#: Independent seeded inputs in one qudit pass (see inputs.py).
QUDIT_INPUTS_PER_PASS = 4


@dataclass(frozen=True)
class CliWorkload:
    commands: tuple[tuple[str, ...], ...]
    residual_gate: float


@dataclass(frozen=True)
class QuditWorkload:
    dim: int
    driven: bool
    tau_max: float
    steps: int
    residual_gate: float


WORKLOADS = {
    "paper-figures": CliWorkload((
        ("reproduce", "fig2", "--out-dir", "{out}/fig2"),
        ("reproduce", "fig3", "--out-dir", "{out}/fig3"),
        ("simulate", "--channel", "bit-flip", "--theta", "pi/4",
         "--phi", "1.5707963267948966", "--out", "{out}/bit-flip.csv"),
        ("simulate", "--channel", "bit-phase-flip", "--theta", "pi/4",
         "--out", "{out}/bit-phase-flip.csv"),
    ), residual_gate=STATIC_H_RESIDUAL),
    "verify": CliWorkload((("verify",),), residual_gate=5e-5),
    "qudit-d4": QuditWorkload(4, driven=True, tau_max=4.0, steps=400, residual_gate=1e-5),
    "qudit-d8": QuditWorkload(8, driven=False, tau_max=4.0, steps=16,
                              residual_gate=STATIC_H_RESIDUAL),
}


class Failures:
    """Counts operations and the ones that failed, keeping each reason."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def op(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.reasons.append(f"{label}: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.reasons)


# -- environment ---------------------------------------------------------------


def child_environment(workdir: Path) -> dict:
    """Environment of every child: this process's (with the thread cap), the
    package from src/, and temporary files in the run's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def environment_record() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


# -- children ------------------------------------------------------------------


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_environment(workdir)
        self.count = 0

    def __call__(self, job: dict) -> tuple[dict | None, str]:
        """Run one child job; returns (result or None, error text)."""
        self.count += 1
        job_path = self.workdir / f"job-{self.count}.json"
        result_path = self.workdir / f"result-{self.count}.json"
        job_path.write_text(json.dumps(job))
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(job_path), str(result_path)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"child timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return json.loads(result_path.read_text()), proc.stderr.strip()


# -- statistics ------------------------------------------------------------------

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summary(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    ordered = sorted(values)
    text = f"median={statistics.median(ordered):.6g}"
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            text += f" p{p:g}={ordered[math.ceil(p / 100.0 * n) - 1]:.6g}"
            break
    else:
        text += " (no percentile has 10 samples beyond it)"
    return f"{text} n={n}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- passes and their checks -------------------------------------------------------


class Pass:
    """One pass of a workload's operations, or the traced pass."""

    def __init__(self):
        self.wall_s = 0.0
        self.raw_s = 0.0
        self.points = 0
        self.energetics_s = 0.0
        self.peak_rss_mb = 0.0
        self.residual = 0.0
        self.oracle: float | None = None
        self.layers: dict = {}
        self.sites: set = set()
        self.complete = True

    def add(self, wall_s: float, raw_s: float, ledgers: list[dict], peak_rss_mb: float,
            oracle: float | None = None, layers: dict | None = None, sites=()):
        self.wall_s += wall_s
        self.raw_s += raw_s
        self.points += sum(led["points"] for led in ledgers)
        self.energetics_s += sum(led["seconds"] for led in ledgers)
        self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb)
        self.residual = max([self.residual] + [led["residual"] for led in ledgers])
        if oracle is not None:
            self.oracle = max(oracle, self.oracle or 0.0)
        for name, stats in (layers or {}).items():
            slot = self.layers.setdefault(name, {"self_s": 0.0, "calls": 0, "extra": {}})
            slot["self_s"] += stats["self_s"]
            slot["calls"] += stats["calls"]
            for key, value in stats["extra"].items():
                slot["extra"][key] = slot["extra"].get(key, 0.0) + value
        self.sites.update(sites)


def residual_problems(ledgers, gate) -> list[str]:
    worst = max((led["residual"] for led in ledgers), default=0.0)
    return [f"closure residual {worst:.3e} > gate {gate:.1e}"] if worst > gate else []


def oracle_error(result) -> float | None:
    """Largest |heat - closed form| and |coherence - closed form| a command
    produced: the oracle columns of reproduced figures and the closed-form
    curve checks of the verification battery."""
    values = list(result["oracle_errors"])
    values += [c["measured"] for c in result["checks"]
               if "matches closed form" in c["name"] or "match closed forms" in c["name"]]
    return max(values) if values else None


def command_outputs(argv: list[str]) -> list[Path]:
    if argv[0] == "reproduce":
        return [Path(argv[argv.index("--out-dir") + 1]) / f"{argv[1]}.csv"]
    if argv[0] == "simulate":
        return [Path(argv[argv.index("--out") + 1])]
    return []


def check_command(argv, result, gate) -> tuple[list[str], dict]:
    """Output checks of one CLI command, and the signature that every pass
    of the same command must repeat exactly: CSV sha256s, final ledger rows
    and the number of ledgers built."""
    problems = []
    if result["rc"] != 0:
        problems.append(f"exit code {result['rc']}")
    lines = result["stdout"].splitlines()
    points = [led["points"] for led in result["ledgers"]]
    signature = {"final ledger rows": [led["final"] for led in result["ledgers"]],
                 "run_energetics calls": len(points)}
    for path in command_outputs(argv):
        if not path.exists():
            problems.append(f"{path.name} not written")
            continue
        signature[f"{path.name} sha256"] = sha256_file(path)
        rows = path.read_text().count("\n") - 1
        if [rows] != points:
            problems.append(f"{path.name} has {rows} rows for ledgers of {points} points")
    if argv[0] == "reproduce":
        report = [line for line in lines if "(bound" in line]
        if not report or not all(line.endswith("PASS") for line in report):
            problems.append("reproduce report does not PASS on every line")
    if argv[0] == "verify":
        tally = lines[-1].split()[0] if lines else ""
        passed, _, total = tally.partition("/")
        if not (passed == total and total.isdigit() and int(total) >= VERIFY_MIN_CHECKS):
            problems.append(f"verify reported {tally!r} checks passed")
        if len(result["checks"]) < VERIFY_MIN_CHECKS or not all(c["passed"] for c in result["checks"]):
            problems.append("a verification check failed")
        if not result["memo_cold"]:
            problems.append("the ledger memo was not empty at start")
    problems += residual_problems(result["ledgers"], gate)
    oracle = oracle_error(result)
    if oracle is not None and oracle > ORACLE_TOL:
        problems.append(f"oracle error {oracle:.3e} > {ORACLE_TOL:.0e}")
    return problems, signature


def repeat_problems(signature: dict, expected: dict) -> list[str]:
    return [f"{key} differ from the first pass" for key, value in signature.items()
            if expected.get(key) != value]


def run_cli_pass(spec: CliWorkload, commands, runner, failures, signatures, trace, label):
    one = Pass()
    for index, argv in enumerate(commands):
        op = f"{label} {' '.join(argv[:2])}"
        result, err = runner({"mode": "cli", "argv": argv, "trace": trace})
        if result is None:
            one.complete = failures.op(op, [err])
            continue
        problems, signature = check_command(argv, result, spec.residual_gate)
        problems += repeat_problems(signature, signatures.setdefault(index, signature))
        failures.op(op, problems)
        one.add(result["main_s"], result["raw_s"], result["ledgers"], result["peak_rss_mb"],
                oracle_error(result),
                result.get("layers"), result.get("sites", ()))
    return one


def run_cli_workload(spec: CliWorkload, args, runner, failures):
    out = runner.workdir / "out"
    commands = [[part.format(out=out) for part in argv] for argv in spec.commands]
    signatures: dict = {}
    passes, elapsed = [], []
    loop_start = time.perf_counter()
    while True:
        started = time.perf_counter()
        passes.append(run_cli_pass(spec, commands, runner, failures, signatures, False,
                                   f"pass {len(passes) + 1}"))
        elapsed.append(time.perf_counter() - started)
        if time.perf_counter() - loop_start + statistics.median(elapsed) > args.seconds:
            break
    traced = None
    if args.trace:
        traced = run_cli_pass(spec, commands, runner, failures, signatures, True, "traced")
    return [p for p in passes if p.complete], traced if traced and traced.complete else None


def check_qudit_op(op, reference, gate) -> list[str]:
    """Checks of one pass over the inputs; ``reference`` is the warm-up pass."""
    if "error" in op:
        return [op["error"].strip().splitlines()[-1]]
    problems = residual_problems(op["ledgers"], gate)
    if reference is not op and ("error" in reference or
                                [led["final"] for led in op["ledgers"]]
                                != [led["final"] for led in reference["ledgers"]]):
        problems.append("final ledger rows differ from the warm-up pass")
    return problems


def run_qudit_workload(spec: QuditWorkload, args, runner, failures, input_path):
    result, err = runner({"mode": "lib", "input": str(input_path), "seconds": args.seconds,
                          "trace": bool(args.trace)})
    if result is None:
        failures.op("qudit child", [err])
        return [], None
    reference = result["reference"]
    failures.op("warm-up", check_qudit_op(reference, reference, spec.residual_gate))
    passes = []
    for index, op in enumerate(result["ops"]):
        failures.op(f"pass {index + 1}", check_qudit_op(op, reference, spec.residual_gate))
        if "wall_s" in op:
            one = Pass()
            one.add(op["wall_s"], op["raw_s"], op["ledgers"], result["peak_rss_mb"])
            passes.append(one)
    traced = None
    if args.trace:
        op = result["traced"]
        failures.op("traced pass", check_qudit_op(op, reference, spec.residual_gate))
        if "wall_s" in op:
            traced = Pass()
            traced.add(op["wall_s"], op["wall_s"], op["ledgers"], result["peak_rss_mb"], None,
                       result["layers"], result["sites"])
    return passes, traced


def measure_setup(spec, runner, failures, input_path) -> list[dict]:
    if isinstance(spec, CliWorkload):
        job = {"mode": "setup", "kind": "cli",
               "commands": [[part.format(out="out") for part in argv] for argv in spec.commands]}
    else:
        job = {"mode": "setup", "kind": "lib", "input": str(input_path)}
    samples = []
    for index in range(SETUP_REPEATS):
        result, err = runner(job)
        if failures.op(f"setup {index + 1}", [] if result else [err]):
            samples.append(result)
    return samples


# -- metrics -----------------------------------------------------------------------


def end_to_end(passes, setup, failures) -> dict:
    return {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "grid_points_per_s": ([p.points / p.energetics_s for p in passes if p.energetics_s],
                              "1/s"),
        "setup_s": ([s["setup_s"] for s in setup], "s"),
        "peak_rss_mb": ([max((p.peak_rss_mb for p in passes), default=0.0)], "MB"),
        "ok_frac": ([1.0 - failures.failed / failures.attempted], "ratio"),
    }


def per_layer(traced: Pass, untraced_raw: float) -> dict:
    """Per-layer metrics of the traced pass, every declared name present."""
    metrics = {}
    points = traced.points or 1
    for name, *_ in tracer.LAYERS:
        stats = traced.layers.get(name, {"self_s": 0.0, "calls": 0, "extra": {}})
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        if not name.startswith("verification."):
            metrics[f"{name}.calls_per_point"] = (stats["calls"] / points, "calls/point")

    def extra(layer, key):
        return traced.layers.get(layer, {"extra": {}})["extra"].get(key, 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics["cxmat.hermitian_eigen.calls_n2"] = (extra("cxmat.hermitian_eigen", "calls_n2"), "count")
    metrics["cxmat.hermitian_eigen.calls_ngt2"] = (extra("cxmat.hermitian_eigen", "calls_ngt2"),
                                                   "count")
    match_calls = traced.layers.get("firstlaw.branch_match", {"calls": 0})["calls"]
    metrics["firstlaw.branch_match.perms_scored"] = (
        extra("firstlaw.branch_match", "perms_scored"), "count")
    metrics["firstlaw.branch_match.reorder_frac"] = (
        ratio(extra("firstlaw.branch_match", "reorders"), match_calls), "ratio")
    inherit_calls = traced.layers.get("firstlaw._inherit_degenerate", {"calls": 0})["calls"]
    metrics["firstlaw._inherit_degenerate.inherit_frac"] = (
        ratio(extra("firstlaw._inherit_degenerate", "inherited"), inherit_calls), "ratio")
    hits = extra("verification._memo", "hits")
    metrics["verification.memo_hit_frac"] = (
        ratio(hits, hits + extra("verification._memo", "misses")), "ratio")
    attributed = sum(stats["self_s"] for stats in traced.layers.values())
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.unattributed_s"] = (traced.wall_s - attributed, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_raw, "s")
    return metrics


def layer_problems(workload: str, traced: Pass) -> list[str]:
    return [f"layer {name} recorded no calls" for name, _, _, listed in tracer.LAYERS
            if workload in listed and traced.layers.get(name, {"calls": 0})["calls"] == 0]


SHAPE_CLAIMS = {
    "qudit-d8": "firstlaw.branch_match has the largest self time",
    "qudit-d4": "cxmat.hermitian_eigen has the largest self time",
    "paper-figures": "no layer exceeds a third of the self time",
}


def shape_holds(workload: str, traced: Pass) -> bool:
    selfs = {name: stats["self_s"] for name, stats in traced.layers.items()}
    top = max(selfs, key=selfs.get)
    if workload == "qudit-d8":
        return top == "firstlaw.branch_match"
    if workload == "qudit-d4":
        return top == "cxmat.hermitian_eigen"
    return selfs[top] <= sum(selfs.values()) / 3.0


def print_layer_table(traced: Pass):
    total = sum(stats["self_s"] for stats in traced.layers.values()) or 1.0
    print(f"traced pass: {traced.points} grid points, wall {traced.wall_s:.4f} s")
    for name, stats in sorted(traced.layers.items(), key=lambda kv: -kv[1]["self_s"]):
        if stats["calls"]:
            print(f"  {name:<48} self {stats['self_s']:9.4f} s {100 * stats['self_s'] / total:5.1f}%"
                  f"  calls {stats['calls']}")


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qfirstlaw" / "__init__.py").is_file():
        print(f"error: no qfirstlaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(1, os.cpu_count() or 1))
    for name in THREAD_VARIABLES:
        os.environ[name] = threads

    import inputs

    spec = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("environment " + json.dumps(environment_record(), sort_keys=True))
        runner = Runner(workdir)
        failures = Failures()
        input_path = None
        if isinstance(spec, QuditWorkload):
            text = inputs.qudit_inputs(args.seed, QUDIT_INPUTS_PER_PASS, spec.dim, spec.driven,
                                       spec.tau_max, spec.steps)
            input_path = workdir / "input.json"
            input_path.write_text(text)
            print(f"input sha256 {inputs.sha256(text)} ({QUDIT_INPUTS_PER_PASS} inputs, "
                  f"d={spec.dim}, steps={spec.steps})")
        setup = measure_setup(spec, runner, failures, input_path)
        if isinstance(spec, CliWorkload):
            passes, traced = run_cli_workload(spec, args, runner, failures)
        else:
            passes, traced = run_qudit_workload(spec, args, runner, failures, input_path)
        if not passes or not setup:
            for reason in failures.reasons:
                print(f"FAILED {reason}", file=sys.stderr)
            print("error: no pass completed", file=sys.stderr)
            return 1

        e2e = end_to_end(passes, setup, failures)
        for name, (values, unit) in e2e.items():
            print(f"{name} [{unit}] {summary(values)}")
        print(f"uncorrected wall_s [s] {summary([p.raw_s for p in passes])}")
        print(f"uncorrected setup_s [s] {summary([s['raw_s'] for s in setup])}")
        print(f"host slowdown, setup [x] {summary([s['slowdown'] for s in setup])}")
        print(f"max_closure_residual [energy] {max(p.residual for p in passes):.6e} "
              f"(gate {spec.residual_gate:.1e})")
        oracles = [p.oracle for p in passes if p.oracle is not None]
        print("max_oracle_err [energy] " + (f"{max(oracles):.6e} (gate {ORACLE_TOL:.0e})"
                                            if oracles else "n/a (no closed form)"))
        if args.trace:
            # a failed traced pass still reports, with every layer at zero
            traced = traced or Pass()
            failures.op("tracer coverage", layer_problems(args.workload, traced))
            print_layer_table(traced)
            print(f"tracer patched {len(traced.sites)} call sites")
            if args.workload in SHAPE_CLAIMS and traced.layers:
                verdict = "holds" if shape_holds(args.workload, traced) else "DOES NOT HOLD"
                print(f"shape: {SHAPE_CLAIMS[args.workload]}: {verdict}")
            metrics = per_layer(traced, statistics.median(p.raw_s for p in passes))
            for key in ("trace.wall_s", "trace.unattributed_s", "trace.overhead_s"):
                print(f"{key} [s] {metrics[key][0]:.6f}")
        else:
            metrics = {name: (statistics.median(values), unit)
                       for name, (values, unit) in e2e.items()}
        for reason in failures.reasons:
            print(f"FAILED {reason}")
        print(f"failed_frac [ratio] {failures.failed / failures.attempted:.6g} "
              f"({failures.failed} of {failures.attempted} operations)")
        print(json.dumps({
            "correct": failures.failed == 0,
            "attempted": failures.attempted,
            "failed": failures.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
