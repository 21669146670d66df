"""Machine-speed reference interleaved with the program's own work.

On a small shared VM the speed of a vCPU moves by up to 2x within
seconds and drifts over minutes (other tenants share the physical
cores; wall and CPU time move together, so CPU time does not help).
Timings taken minutes apart then differ by more than any useful
regression bound. The pacer measures the machine's current speed next
to the program: every ``INTERVAL_NS`` of program time it runs one fixed
reference probe (small-vector numpy calls, a 512-vector reduction and
``%.9g`` formatting, the same kinds of work as a gvfswarm tick) and
times it. Probes and program share the same stretches of time, so the
ratio of their totals cancels most of the machine's speed changes:

    program seconds at reference speed
        = program seconds * REF_PROBE_S / mean probe seconds

``REF_PROBE_S`` is a fixed constant of the benchmark (about the median
probe time on a 2-vCPU Xeon VM), so normalised figures stay in
seconds and are comparable between commits. Probe time is taken out of
the program's time. The reference code lives only here, so a change to
gvfswarm cannot move it.

The pacer hooks one call that the program makes once per tick (sim)
or per RK4 stage (consensus), at the place where the caller looks it
up, or, for the set-up probe, every first-time import; the hook itself
costs one clock read.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

INTERVAL_NS = 20_000_000
PROBE_ITERATIONS = 100
# nominal seconds of one probe: the unit that normalised times are in
REF_PROBE_S = 1e-3

_SMALL = np.linspace(0.1, 1.0, 8)
_WIDE = np.linspace(0.1, 1.0, 512)


def probe() -> float:
    """One reference probe: fixed work, independent of gvfswarm."""
    s = 0.0
    for _ in range(PROBE_ITERATIONS):
        s += float(np.sin(_SMALL).sum())
        s += float(np.abs(_WIDE - s).max())
        s = float("%.9g" % s)
    return s


class Pacer:
    def __init__(self, interval_ns: int = INTERVAL_NS) -> None:
        self.interval_ns = interval_ns
        self.probes = 0
        self.probe_ns = 0
        self._next = None

    def tick(self) -> None:
        now = perf_counter_ns()
        if self._next is None:
            self._next = now + self.interval_ns
        elif now >= self._next:
            self.measure(now)

    def measure(self, now: int | None = None) -> None:
        """Run and time one probe now."""
        start = perf_counter_ns() if now is None else now
        probe()
        end = perf_counter_ns()
        self.probes += 1
        self.probe_ns += end - start
        self._next = end + self.interval_ns

    @property
    def probe_s(self) -> float:
        return self.probe_ns / 1e9

    def speed_factor(self) -> float:
        """REF_PROBE_S over the mean probe time (> 1 on a fast machine)."""
        if not self.probes:
            raise RuntimeError("the pacer ran no probe; the timed section was too short")
        return REF_PROBE_S / (self.probe_s / self.probes)

    @contextmanager
    def hooked(self, owner, attr: str):
        """Call tick() before every call of owner.attr; restored on exit."""
        original = vars(owner)[attr]
        tick = self.tick

        @functools.wraps(original)
        def paced(*args, **kwargs):
            tick()
            return original(*args, **kwargs)

        setattr(owner, attr, paced)
        try:
            yield self
        finally:
            setattr(owner, attr, original)

    @contextmanager
    def ticking_imports(self):
        """Call tick() whenever a module is imported for the first time.

        Start-up is mostly imports, so this paces the set-up probe.
        """
        tick = self.tick

        class Ticker:
            @staticmethod
            def find_spec(name, path=None, target=None):
                tick()
                return None  # leave the import to the real finders

        sys.meta_path.insert(0, Ticker)
        try:
            yield self
        finally:
            sys.meta_path.remove(Ticker)
