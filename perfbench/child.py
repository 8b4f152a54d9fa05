"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json RESULT.json

The job file names a mode:

* ``setup``: import qfirstlaw and build the workload's inputs (CLI argument
  parsing, or ``ChannelSpec.from_json`` plus the Hamiltonian expressions),
  and report how long that took.
* ``cli``: run one ``qfirstlaw.cli.main(argv)`` command, as a user would,
  with cold per-process state.
* ``lib``: build the qudit inputs, run one untimed warm-up trajectory of
  each, then run passes (one ``run_energetics`` call per input) in a closed
  loop for the given number of seconds.

Timed intervals run under a ``hostspeed.Meter`` and are reported both
corrected to reference host speed and as wall time less the meter's own
(``raw_s``).  With
``"trace": true`` a ``cli`` job runs under the tracer instead of the meter,
and a ``lib`` job adds one traced call, without the meter, after its timed
loop.  The result file holds the
timings, what the package returned (see ``tracer.OutputProbe``), captured
standard output and the process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracer


def _complex_matrix(rows):
    import numpy as np

    return np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])


def build_qudit_input(doc: dict):
    """The program-side set-up of one input written by ``inputs.qudit_inputs``."""
    from qfirstlaw import ChannelSpec, DensityOperator, Hamiltonian, TimeGrid

    spec = ChannelSpec.from_json(doc["channel"])
    rho0 = DensityOperator(_complex_matrix(doc["rho0"]))
    ham = doc["hamiltonian"]
    if "matrix" in ham:
        h = Hamiltonian.from_matrix(_complex_matrix(ham["matrix"]))
    else:
        h = Hamiltonian(ham["diag"], {(i, j): (re, im) for i, j, re, im in ham["upper"]})
    return spec, rho0, h, TimeGrid(doc["tau_max"], doc["steps"])


def run_setup(job) -> dict:
    meter = hostspeed.Meter()
    with meter:
        start = time.perf_counter()
        if job["kind"] == "cli":
            from qfirstlaw import cli

            for argv in job["commands"]:
                cli.build_parser().parse_args(argv)
        else:
            import qfirstlaw  # noqa: F401

            for doc in json.loads(Path(job["input"]).read_text()):
                build_qudit_input(doc)
        raw = time.perf_counter() - start
    timing = meter.corrected(raw, (0.0, 0))
    return {"setup_s": timing["corrected_s"], "raw_s": timing["net_s"],
            "slowdown": timing["slowdown"]}


def run_cli(job) -> dict:
    from qfirstlaw import cli, verification

    tr = meter = None
    if job["trace"]:
        tr = tracer.Tracer()
    else:
        meter = hostspeed.Meter()
    probe = tracer.OutputProbe(meter)
    probe.install()
    if tr is not None:
        tr.install()
    memo_cold = len(verification._LEDGER_CACHE) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out), meter or contextlib.nullcontext():
        start = time.perf_counter()
        rc = cli.main(job["argv"])
        raw = time.perf_counter() - start
    timing = (meter.corrected(raw, (0.0, 0)) if meter
              else {"corrected_s": raw, "net_s": raw, "slowdown": 1.0})
    result = {"rc": rc, "main_s": timing["corrected_s"], "raw_s": timing["net_s"],
              "slowdown": timing["slowdown"], "stdout": out.getvalue(), "memo_cold": memo_cold,
              "ledgers": probe.ledgers, "oracle_errors": probe.oracle_errors,
              "checks": probe.checks}
    if tr is not None:
        result["layers"] = tr.snapshot()
        result["sites"] = tr.sites
    return result


def run_lib(job) -> dict:
    from qfirstlaw import firstlaw

    built = [build_qudit_input(doc) for doc in json.loads(Path(job["input"]).read_text())]
    meter = hostspeed.Meter()
    probe = tracer.OutputProbe(meter)
    probe.install()

    def one_pass() -> dict:
        try:
            for args in built:
                firstlaw.run_energetics(*args)
        except Exception:
            del probe.ledgers[:]
            return {"error": traceback.format_exc(limit=3)}
        ledgers, probe.ledgers = probe.ledgers, []
        return {"wall_s": sum(led["seconds"] for led in ledgers),
                "raw_s": sum(led["raw_s"] for led in ledgers), "ledgers": ledgers}

    with meter:
        reference = one_pass()
        ops = []
        loop_start = time.perf_counter()
        while True:
            ops.append(one_pass())
            done = [op["raw_s"] for op in ops if "raw_s" in op]
            typical = statistics.median(done) if done else 0.0
            if time.perf_counter() - loop_start + typical > job["seconds"]:
                break
    probe.meter = None
    result = {"reference": reference, "ops": ops}
    if job["trace"]:
        tr = tracer.Tracer()
        tr.install()
        result["traced"] = one_pass()
        tr.uninstall()
        result["layers"] = tr.snapshot()
        result["sites"] = tr.sites
    return result


_MODES = {"setup": run_setup, "cli": run_cli, "lib": run_lib}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result = _MODES[job["mode"]](job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
