"""Host settling, repetition timing, tracing and the host record.

Everything here is program-agnostic: the workload modules call the
program's public API, this module only times and records them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Iterations of the fixed pure-Python CPU probe (about 20 ms).
PROBE_ITERATIONS = 200_000
#: Iterations of the short probes taken next to every repetition.
SHORT_PROBE_ITERATIONS = 40_000
#: Probes per rate in the run record (before and after the timed region).
RECORD_PROBES = 5
#: Short probes per host-speed reading (see :func:`host_factor`).
FACTOR_PROBES = 3
#: Probe rate (iterations/s) of the reference host speed that timed
#: metrics are reported at.
REFERENCE_PROBE_RATE = 10e6
#: Host settle: busy windows of ``SETTLE_WINDOW_S`` until two consecutive
#: window rates agree within ``SETTLE_TOLERANCE``, after at least
#: ``SETTLE_MIN_S`` and at most ``SETTLE_MAX_S``.
SETTLE_MIN_S = 2.5
SETTLE_MAX_S = 8.0
SETTLE_WINDOW_S = 0.25
SETTLE_TOLERANCE = 0.03
#: Warm-up: at least ``WARM_MIN_REPS`` untimed repetitions, until the last
#: two rates agree within ``WARM_TOLERANCE`` or ``WARM_MAX_S`` has passed.
WARM_MIN_REPS = 3
WARM_TOLERANCE = 0.05
WARM_MAX_S = 4.0
#: Timed repetitions per run, at least.
MIN_TIMED_REPS = 3


def cpu_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Iterations per second of a fixed pure-Python loop.

    The same loop on every commit, so a change in this rate between two
    records is the host drifting, not the program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFF
    return iterations / (time.perf_counter() - start)


def host_factor() -> float:
    """Current host speed relative to the reference speed.

    The shared host's CPU speed swings by up to 2x in phases lasting
    seconds, and both the probe and the program slow down together.  A
    time multiplied by this factor (a rate divided by it) is the time
    the same work takes at the reference speed.  The fastest of
    ``FACTOR_PROBES`` short probes is taken, so a probe that a timer
    tick or a briefly runnable thread interrupts does not count.
    """
    rate = max(cpu_probe(SHORT_PROBE_ITERATIONS) for _ in range(FACTOR_PROBES))
    return rate / REFERENCE_PROBE_RATE


def probe_rate() -> float:
    """Median of ``RECORD_PROBES`` CPU probes."""
    return statistics.median(cpu_probe() for _ in range(RECORD_PROBES))


def settle_host() -> Dict[str, float]:
    """Spin until the CPU reaches a steady speed.

    A fresh process on a shared host runs at a fraction of full speed
    for its first seconds; set-up and repetitions timed in that phase
    measure the host, not the program.  Busy-waits in
    ``SETTLE_WINDOW_S`` windows until two consecutive window rates agree
    within ``SETTLE_TOLERANCE``, after at least ``SETTLE_MIN_S`` (at
    most ``SETTLE_MAX_S``).
    """
    start = time.perf_counter()
    previous = None
    while True:
        window_end = time.perf_counter() + SETTLE_WINDOW_S
        iterations = 0
        window_start = time.perf_counter()
        while time.perf_counter() < window_end:
            cpu_probe()
            iterations += PROBE_ITERATIONS
        rate = iterations / (time.perf_counter() - window_start)
        elapsed = time.perf_counter() - start
        steady = previous is not None and abs(rate - previous) <= (
            SETTLE_TOLERANCE * previous
        )
        if (steady and elapsed >= SETTLE_MIN_S) or elapsed >= SETTLE_MAX_S:
            return {"settle_s": elapsed, "settle_rate": rate}
        previous = rate


def warm_up(rep: Callable[[], int]) -> int:
    """Run ``rep`` untimed until two consecutive rates agree.

    ``rep`` returns its operation count (0 once it has nothing left to
    run, which ends the warm-up).  Stops after ``WARM_MIN_REPS`` once
    the last two rates are within ``WARM_TOLERANCE`` of each other, or
    when ``WARM_MAX_S`` has passed.  Returns the repetitions run.
    """
    start = time.perf_counter()
    rates: List[float] = []
    while True:
        t0 = time.perf_counter()
        ops = rep()
        if not ops:
            return len(rates)
        rates.append(ops / (time.perf_counter() - t0))
        if len(rates) >= WARM_MIN_REPS and abs(rates[-1] - rates[-2]) <= (
            WARM_TOLERANCE * rates[-2]
        ):
            return len(rates)
        if time.perf_counter() - start >= WARM_MAX_S:
            return len(rates)


def timed_reps(
    rep: Callable[[], int], seconds: float,
    check: Optional[Callable[[], None]] = None,
) -> List[Tuple[int, float, float]]:
    """``(ops, wall_s, host_factor)`` of repetitions filling ``seconds``.

    The host factor is probed just before each repetition; ``check``
    runs after each one, outside the timed part.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_TIMED_REPS or time.perf_counter() < deadline:
        factor = host_factor()
        t0 = time.perf_counter()
        ops = rep()
        samples.append((ops, time.perf_counter() - t0, factor))
        if check is not None:
            check()
    return samples


def median_rate(samples: Sequence[Tuple[int, float, float]]) -> float:
    """Median per-repetition rate (ops / s) at the reference host speed."""
    return statistics.median(ops / wall / factor for ops, wall, factor in samples)


def median_time(samples: Sequence[Tuple[int, float, float]]) -> float:
    """Median repetition time (s) at the reference host speed."""
    return statistics.median(wall * factor for _, wall, factor in samples)


def raw_rate(samples: Sequence[Tuple[int, float, float]]) -> float:
    """Median per-repetition rate as measured (for the run record)."""
    return statistics.median(ops / wall for ops, wall, _ in samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


@contextmanager
def idle_spinners(cpus: Sequence[int]):
    """Keep each of ``cpus`` busy at idle priority while the block runs.

    A request that crosses processes wakes a thread on each side.  On a
    virtual machine a core with nothing to run is halted, and waking it
    again costs a variable part of a sub-millisecond round trip.  With a
    ``SCHED_IDLE`` spinner on the core, a woken thread only preempts the
    spinner, which yields at once to any normal-priority thread.
    """
    spinners = []
    try:
        for cpu in cpus:
            spinners.append(
                subprocess.Popen([sys.executable, "-c", "while True: pass"])
            )
            pid = spinners[-1].pid
            os.sched_setscheduler(pid, os.SCHED_IDLE, os.sched_param(0))
            os.sched_setaffinity(pid, {cpu})
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def rss_mb() -> Tuple[float, float]:
    """Peak RSS (MB) of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


class Tracer:
    """In-memory spans (name, start, end, parent), exported at the end.

    Spans nest on one thread; a span's self time is its duration minus
    the durations of its direct children (see ``batch.span_medians``).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write_chrome(self, path: pathlib.Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": {
                    "parent": None if parent is None else self.spans[parent][0]
                },
            }
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}) + "\n")


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over the program's source tree (identifies the code
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(seed: int) -> Dict[str, object]:
    """Host and code fingerprint carried by every benchmark record."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }
