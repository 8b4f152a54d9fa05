"""Self-tests of the benchmark harness itself.

Usage (from the repository root; takes about two minutes):

    python3 perfbench/selftest.py

1. The qudit generator is deterministic, writes plain float literals, and
   every channel it writes passes the CPTP check of ``ChannelSpec.from_json``.
2. ``verify`` starts cold on every timed repeat: two benchmark passes of
   ``qfirstlaw verify`` build the same number of ledgers (20 when this was
   written).  Two battery runs in one process do not, because the second is
   served by the ledger memo; that contrast shows the count would catch a
   warm repeat.
3. The tracer rewrites every call site and fails loudly when it cannot.
4. The host-speed meter samples while a timed interval runs, subtracts its
   own time, and leaves the signal handler as it found it.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from child import build_qudit_input  # noqa: E402


def test_generator():
    for dim, driven in ((4, True), (8, False)):
        for seed in range(5):
            text = inputs.qudit_inputs(seed, 2, dim, driven, 4.0, 16)
            assert text == inputs.qudit_inputs(seed, 2, dim, driven, 4.0, 16)
            assert "np." not in text and "float64" not in text
            docs = json.loads(text)
            assert docs[0] != docs[1]
            for doc in docs:
                spec, rho0, h, grid = build_qudit_input(doc)
                assert spec.dim == rho0.dim == h.dim == dim
        assert inputs.qudit_inputs(1, 1, dim, driven, 4.0, 16) != inputs.qudit_inputs(
            2, 1, dim, driven, 4.0, 16)
    print("generator: deterministic, plain literals, CPTP at t=0")


def test_verify_starts_cold():
    from qfirstlaw import verification

    spec = run.WORKLOADS["verify"]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        probe = tracer.OutputProbe()
        probe.install()
        in_process = []
        for _ in range(2):
            before = len(probe.ledgers)
            verification.run_all_checks(workdir=tmp)
            in_process.append(len(probe.ledgers) - before)
        probe.uninstall()
        assert in_process[1] < in_process[0], in_process

        runner = run.Runner(Path(tmp))
        failures = run.Failures()
        signatures: dict = {}
        counts = []
        for index in range(2):
            one = run.run_cli_pass(spec, [list(spec.commands[0])], runner, failures,
                                   signatures, False, f"repeat {index + 1}")
            counts.append(one.points)
        assert failures.failed == 0, failures.reasons
    ledgers = signatures[0]["run_energetics calls"]
    assert counts[0] == counts[1] and ledgers == in_process[0], (counts, ledgers, in_process)
    print(f"verify: {ledgers} run_energetics calls on every benchmark repeat "
          f"({counts[0]} grid points); in one process the repeats built {in_process}")


#: Names callers look layer functions up by, other than their defining module.
BY_NAME_SITES = (
    "firstlaw.evolve",
    "experiment._ORACLE_HEAT['phase_damping']",
    "experiment._ORACLE_COHERENCE['phase_flip']",
    "verification.ALL_CHECKS[10]",
    "qstate.Hamiltonian.matrix",
)


def test_tracer_coverage():
    tr = tracer.Tracer()
    sites = tr.install()
    try:
        for site in BY_NAME_SITES:
            assert site in sites, site
        assert "experiment.run_energetics" not in sites
    finally:
        tr.uninstall()
    from qfirstlaw import channel, firstlaw

    assert firstlaw.evolve is channel.evolve, "uninstall did not restore the package"
    print(f"tracer: {len(sites)} call sites rewritten and restored")


def test_meter():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(i * 0.5 for i in range(1000))
        raw = time.perf_counter() - start
    timing = meter.corrected(raw, (0.0, 0))
    assert timing["samples"] >= 10, timing
    assert 0.0 < timing["net_s"] < raw and timing["corrected_s"] > 0.0, timing
    assert signal.getsignal(signal.SIGALRM) is handler
    print(f"meter: {timing['samples']} samples in {raw:.3f} s, "
          f"slowdown {timing['slowdown']:.2f}, {raw - timing['net_s']:.4f} s in the kernel")


if __name__ == "__main__":
    test_meter()
    test_generator()
    test_tracer_coverage()
    test_verify_starts_cold()
    print("all self-tests passed")
