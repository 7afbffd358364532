"""
Machine-speed probe: a fixed pure-Python tick, run on a timer inside every
timed process.

On a shared host the same code runs up to half again as slow while other
tenants load the cores, in spells from seconds to minutes. A sample's raw wall
time therefore mixes the program's work with the host's state. The probe
measures that state where and while the sample runs: a ``SIGALRM`` interval
timer runs a fixed tick of about a millisecond every ``INTERVAL_S``, between
the program's bytecodes, and records how long each tick took. A sample then
reports its time scaled to the reference speed:

    scaled = (wall - time spent in ticks) * REFERENCE_TICK_S / mean tick time

The tick lives in the benchmark, not in the library, so no change to the
library moves it; it uses what the library spends its time on: exact
``Fraction`` arithmetic and tuple-keyed dicts.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025

# A typical mean tick time on the machine the benchmark was written on, a
# shared 2-vCPU Intel Xeon VM at 2.1 GHz: scaled timings read as seconds on
# that machine at that speed.
REFERENCE_TICK_S = 0.0007

# written by the CLI wrapper below into the sample's working directory
CLI_RESULT = "probe.json"


def _work() -> Fraction:
    acc, seen = Fraction(1), {}
    for i in range(150):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + 1
        seen[(i % 13, i % 11)] = acc
    return acc


class Probe:
    """Ticks of one process: (start, duration) pairs, kept in memory."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _work()
        self.ticks.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        """Tick once now, then every ``INTERVAL_S`` until :meth:`stop`."""
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy_s(self, t0: float, t1: float) -> float:
        """Seconds spent in ticks that started within [t0, t1)."""
        return sum(d for start, d in self.ticks if t0 <= start < t1)

    def summary(self) -> dict:
        busy = sum(d for _, d in self.ticks)
        return {"ticks": len(self.ticks), "busy_s": busy, "tick_s": busy / len(self.ticks)}


def scale(seconds: float, tick_s: float) -> float:
    """Seconds measured at mean tick time ``tick_s``, at the reference speed."""
    return seconds * REFERENCE_TICK_S / tick_s


def run_cli() -> None:
    """``python -c "import probe; probe.run_cli()" analyze ...`` runs
    ``python -m voganlab.cli analyze ...`` under a probe and writes the probe's
    summary to ``CLI_RESULT`` in the working directory at exit."""
    import atexit  # imported here so that workers' setup_s does not pay for them
    import json
    import runpy

    probe = Probe()

    def dump() -> None:
        probe.stop()
        with open(CLI_RESULT, "w") as fh:
            json.dump(probe.summary(), fh)

    probe.start()
    atexit.register(dump)
    runpy.run_module("voganlab.cli", run_name="__main__", alter_sys=True)
