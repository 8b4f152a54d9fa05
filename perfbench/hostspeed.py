"""Host-speed correction of timings taken on a shared machine.

The benchmark runs on a few cores of a host shared with other tenants.  Their
load slows this process by a factor that drifts over seconds to minutes (up to
2.4x, with CPU time equal to wall time and no steal reported), which is far
larger than the gains the benchmark is meant to resolve.  A ``Meter``
measures that factor while the program runs: an interval timer interrupts
the process every ``INTERVAL_S`` of wall time and runs a fixed pure-Python
kernel (``_kernel``, independent of the package) in the signal handler.
Over a timed interval the kernel's mean duration, divided by
``REFERENCE_S`` (its duration on an idle host), is the slowdown the host
imposed on that same interval.

``Meter.corrected`` turns a raw interval into the seconds it would have taken
at reference speed: the raw time minus the kernel's own time, divided by
that slowdown.  One process, one thread: the kernel runs between the
program's bytecodes, never beside them.  It takes about 5% of the process's
time; the traced pass does not run it, so self times are not inflated.
"""

from __future__ import annotations

import signal
import time

#: Wall-clock period of the interval timer.
INTERVAL_S = 0.004

#: Mean duration of one ``_kernel`` call on an idle host (Intel Xeon at
#: 2.0 GHz, Python 3.11).  It only sets the scale of corrected times, which
#: are in seconds at that speed; comparisons never depend on it.
REFERENCE_S = 0.00015


def _kernel() -> float:
    """Interpreter-bound work of the program's kind: float and complex
    scalar arithmetic, tuple and list indexing, dict updates, calls."""
    acc = 0.0
    z = 0.6 + 0.8j
    cells = [0.0] * 16
    table = {}
    for i in range(400):
        pair = (i & 3, (i * 3) & 3)
        cells[pair[0] * 4 + pair[1]] += abs(z) * 0.5
        z = z * (0.999 - 0.001j) + 0.001
        acc += (i * 0.5) % 7.0 + cells[i & 15]
        table[i & 31] = acc
    return acc


class Meter:
    """Runs ``_kernel`` on a wall-clock timer and records how long it took."""

    def __init__(self):
        self.busy_s = 0.0
        self.samples = 0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.busy_s += time.perf_counter() - start
        self.samples += 1

    def start(self):
        _kernel()  # specialise the kernel's bytecode before it is timed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def reading(self) -> tuple[float, int]:
        return self.busy_s, self.samples

    def corrected(self, raw_s: float, before: tuple[float, int]) -> dict:
        """Net and corrected seconds of an interval that took ``raw_s`` of
        wall time and began when ``reading()`` returned ``before``."""
        busy = self.busy_s - before[0]
        samples = self.samples - before[1]
        net = raw_s - busy
        slowdown = busy / samples / REFERENCE_S if samples else 1.0
        return {"net_s": net, "corrected_s": net / slowdown, "slowdown": slowdown,
                "samples": samples}
