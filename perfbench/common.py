"""Shared pieces of the benchmark: percentiles, the per-window record,
and the workload base class with its timed-window loop."""

from __future__ import annotations

import gc
import heapq
import os
import random
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` quantile."""
    cut = quantile(values, q)
    return sum(1 for value in values if value > cut)


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, seed-reproducible stream for one input family."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def peak_rss_mb() -> float:
    """Peak resident memory in MiB: this process plus its largest child.

    Linux reports ``ru_maxrss`` in KiB.  Children count only once they
    have been waited for, which is why workloads that start worker
    processes close them before the figure is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Median time of :func:`calibration_loop` on the reference host, a
#: shared 2-CPU Intel Xeon at 2.1 GHz with Python 3.11.  Wall-clock
#: metrics are reported in reference seconds (see :class:`HostSpeed`).
CALIBRATION_REFERENCE_S = 2.25e-3
#: Wall seconds between calibration samples inside a timed window.
CALIBRATE_EVERY_S = 0.1
#: Calibration samples taken around each set-up.
CALIBRATIONS_PER_SETUP = 10
#: A window ends early, with fewer orders than its size, once it has run
#: this many times ``--seconds`` of wall time.
WINDOW_WALL_LIMIT = 3.0


def calibration_loop() -> float:
    """Wall seconds of one fixed dict-and-heap loop (about 2 ms)."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    heap: List[tuple] = []
    for i in range(2000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, ((i * 7919) % 10007, key))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class HostSpeed:
    """How fast this host runs Python during one run, against the reference.

    A shared host's speed drifts by a fifth or more over a minute, which
    moves every wall-clock figure with it.  The run samples a fixed loop
    through its set-ups and its timed window; :attr:`scale` turns host
    wall seconds into reference seconds, so a program change moves the
    figures and a slow minute on the host mostly does not.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall seconds spent in :meth:`sample` so far.
        self.sampling_s = 0.0

    def sample(self) -> float:
        """Run the loop once; returns the wall seconds it took."""
        elapsed = calibration_loop()
        self.samples.append(elapsed)
        self.sampling_s += elapsed
        return elapsed

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent sampling; orders
        and windows are timed with it."""
        return time.perf_counter() - self.sampling_s

    @property
    def scale(self) -> float:
        """Reference seconds per host wall second: the host's mean speed
        over the samples, as a share of the reference host's.  A sample
        stretched by a stall counts as a moment of near-zero speed."""
        return CALIBRATION_REFERENCE_S * statistics.fmean(
            1.0 / elapsed for elapsed in self.samples
        )


class Window:
    """What one timed window of fresh orders produced.

    ``size`` is the number of orders the window hands over; it ends
    after the input slice that reaches it (``cut_short`` if the wall
    limit came first).

    ``decided`` and ``decision_wall_s`` cover only decisions made while
    the window was open; outcomes and activation times also cover orders
    of the window decided or activated during the drain that follows.
    """

    def __init__(self, size: int, clock) -> None:
        self.size = size
        self.clock = clock
        self.cut_short = False
        self.open = True
        self.submitted = 0
        self.decided = 0
        self.decision_wall_s: List[float] = []
        self.activate_sim_s: List[float] = []
        self.failed_orders = 0
        self.outcomes: Dict[str, int] = {}
        #: Host wall seconds of the window, calibration samples excluded.
        self.wall_s = 0.0
        self.calibration_s = 0.0
        self.sim_s = 0.0
        self.events = 0

    def decide(self, handed_wall: float) -> None:
        """Record one order's decision (accepted or refused);
        ``handed_wall`` is the :attr:`clock` reading at hand-over."""
        if self.open:
            self.decided += 1
            self.decision_wall_s.append(self.clock() - handed_wall)

    def outcome(self, name: str, failed: bool) -> None:
        """Record one order's final outcome class."""
        self.outcomes[name] = self.outcomes.get(name, 0) + 1
        if failed:
            self.failed_orders += 1

    @property
    def resolved(self) -> int:
        return sum(self.outcomes.values())


class Workload:
    """One named workload: build, warm up, run fresh orders, check.

    Subclasses implement :meth:`build` (which sets ``self.net``, whose
    ``sim`` is the simulator), :meth:`warm_up`, :meth:`step` (hand the
    program the next slice of generated orders and advance the simulator
    by it), :meth:`drain` and :meth:`check`.
    """

    name = ""
    #: Inputs seen by the program: ``topology`` fills nodes/links/degree.
    topology: Dict[str, object] = {}
    #: Orders a window hands over per ``--seconds``: about what the
    #: program decides per reference second (see :class:`HostSpeed`).
    ORDERS_PER_SECOND = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set by :meth:`run_window`; its ``clock`` times every order.
        self.speed = HostSpeed()
        self.window: Optional[Window] = None
        #: Set by :meth:`drain`: customers stop ordering and tearing down.
        self.draining = False
        #: Whether :meth:`drain` reached a point with no workflow in flight.
        self.quiescent = False

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Build the network and fill it (the timed set-up)."""
        self.build()
        self.warm_up()

    def build(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def step(self) -> int:
        """Advance by one input slice; returns simulator events fired."""
        raise NotImplementedError

    def drain(self) -> None:
        """Settle orders in flight (untimed) before outcomes are read."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Correctness gate: a list of violations, empty when clean."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes or other resources held by the workload."""

    def run_window(self, seconds: float, speed: HostSpeed) -> Window:
        """Hand over a fixed number of fresh orders, then drain.

        The window's size is ``ORDERS_PER_SECOND * seconds`` orders, so
        it takes about ``seconds`` on the reference host and does the
        same work for a given seed on any host.  Between input slices,
        every ``CALIBRATE_EVERY_S`` the window takes a
        :class:`HostSpeed` sample; its time is left out of ``wall_s``
        and of every order's decision time.
        """
        window = Window(
            max(1, round(self.ORDERS_PER_SECOND * seconds)), speed.clock
        )
        self.speed = speed
        self.window = window
        self.draining = False
        self.resume()
        start_sim = self.net.sim.now
        start = speed.clock()
        now = time.perf_counter()
        limit = now + WINDOW_WALL_LIMIT * seconds
        next_sample = now
        while window.submitted < window.size:
            if now >= limit:
                window.cut_short = True
                break
            window.events += self.step()
            now = time.perf_counter()
            if now >= next_sample:
                window.calibration_s += speed.sample()
                now = time.perf_counter()
                next_sample = now + CALIBRATE_EVERY_S
        window.wall_s = speed.clock() - start
        window.sim_s = self.net.sim.now - start_sim
        window.open = False
        self.drain()
        return window

    def resume(self) -> None:
        """Move input generators past simulated time spent draining;
        arrivals that would have fallen in a drain are not replayed."""


#: Set-ups continue past the minimum count until they add up to this
#: many wall seconds (cheap set-ups get a steadier median).
SETUP_MIN_TOTAL_S = 1.0
SETUP_MAX_REPEATS = 15


def timed_setups(factory, repeats: int, speed: HostSpeed):
    """Set the workload up at least ``repeats`` times; keep the last.

    Set-ups continue until they add up to ``SETUP_MIN_TOTAL_S`` (at most
    ``SETUP_MAX_REPEATS``).  Returns ``(workload, [host seconds per
    set-up])``.  Earlier instances are closed and collected before the
    next build so their memory and processes do not leak into the
    measured run.  Host speed is sampled before each set-up and after
    the last.
    """
    durations: List[float] = []
    workload = None
    while len(durations) < repeats or (
        sum(durations) < SETUP_MIN_TOTAL_S
        and len(durations) < SETUP_MAX_REPEATS
    ):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        for _ in range(CALIBRATIONS_PER_SETUP):
            speed.sample()
        candidate = factory()
        start = time.perf_counter()
        candidate.setup()
        durations.append(time.perf_counter() - start)
        workload = candidate
    for _ in range(CALIBRATIONS_PER_SETUP):
        speed.sample()
    return workload, durations


def log(message: str) -> None:
    """Progress lines go to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
