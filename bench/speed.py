"""Machine-speed probe, so that timings from a shared machine can be compared.

On a machine shared with other tenants the speed of a core drifts: a fixed
pure-Python loop takes anywhere between 1x and 1.6x its fastest time, in
stretches of seconds to minutes, and CPU time drifts with wall time. Timing
more work cannot average that out within a run of a few tens of seconds.

A :class:`SpeedProbe` thread wakes every ``PERIOD_S`` seconds and times a
fixed piece of interpreter work by its own CPU time. The probe runs on the
core that is running the program at that moment, because it needs the GIL
to run. :meth:`SpeedProbe.scaled` turns a wall-clock interval into seconds
at the reference speed: the interval multiplied by ``REFERENCE_S`` over the
probe times seen during it. The probe costs the program about one percent
of its time, the same on every commit.
"""

from __future__ import annotations

import threading
import time

PERIOD_S = 0.05
REFERENCE_S = 0.0003  # probe time that counts as reference speed
MIN_SAMPLES = 3


def probe_work() -> float:
    table: dict[int, float] = {}
    acc = 1.0
    for i in range(1500):
        k = (i * 7) & 511
        table[k] = table.get(k, 0.0) * 0.5 + i
        acc *= 0.99999
    return acc


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, probe CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            started = time.thread_time()
            probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - started))

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed for the wall interval [start, end].

        Uses the probe samples inside the interval, or the MIN_SAMPLES
        samples nearest to its middle when it holds fewer.
        """
        times = [t for stamp, t in self.samples if start <= stamp <= end]
        if len(times) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
            times = [t for _, t in nearest]
        if not times:
            raise RuntimeError("the speed probe has no samples yet")
        return (end - start) * REFERENCE_S * sum(1.0 / t for t in times) / len(times)
