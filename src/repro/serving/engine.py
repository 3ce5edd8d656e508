"""The serving front-end: synchronous batches and async submission.

:class:`ServingEngine` is the object a traffic source talks to.  It owns
the report cache and the batching scheduler, and exposes two entry
points:

- :meth:`ServingEngine.serve` — cost a whole request sequence
  synchronously (one scheduler micro-batch) and return the responses in
  request order.
- :meth:`ServingEngine.submit` — enqueue one request and get a
  :class:`concurrent.futures.Future` back.  Pending requests flush as a
  micro-batch once ``max_pending`` accumulate (or on :meth:`flush` /
  :meth:`drain`); a single worker thread executes flushes in arrival
  order, so the cache warms monotonically and responses stay
  deterministic.

Every response carries its service latency, and the engine aggregates
fleet-level accounting (:class:`ServingStats`) — throughput, hit rate,
latency percentiles — which ``repro serve --stats`` prints.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

#: Most-recent request latencies retained for the percentile stats —
#: the window keeps a long-lived engine's accounting O(1) per request.
LATENCY_WINDOW = 4096

from repro.errors import ConfigurationError
from repro.serving.cache import ReportCache
from repro.serving.request import ServeRequest, ServeResponse
from repro.serving.scheduler import BatchingScheduler, PlatformCatalog


@dataclass
class ServingStats:
    """Fleet-level accounting of one :class:`ServingEngine`.

    Attributes:
        requests: requests resolved (served or failed).
        errors: requests that produced no report.
        cache_hits / deduped: requests served without a run-path
            evaluation (from the cache / coalesced in-batch).
        flushes: micro-batches executed.
        busy_s: wall time spent inside scheduler execution.
        latency_sum_s: running sum of every service latency (exact mean
            at any fleet size).
        recent_latencies_s: the last :data:`LATENCY_WINDOW` latencies —
            a bounded window, so a long-lived engine's percentile stats
            stay O(1) per request instead of growing without bound.
    """

    requests: int = 0
    errors: int = 0
    cache_hits: int = 0
    deduped: int = 0
    flushes: int = 0
    busy_s: float = 0.0
    latency_sum_s: float = 0.0
    recent_latencies_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def record_latency(self, latency_s: float) -> None:
        """Fold one request latency into the running accounting."""
        self.latency_sum_s += latency_s
        self.recent_latencies_s.append(latency_s)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the report cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def throughput_rps(self) -> float:
        """Requests per second of scheduler busy time."""
        return self.requests / self.busy_s if self.busy_s > 0.0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean service latency over all requests (exact)."""
        return self.latency_sum_s / self.requests if self.requests else 0.0

    def _percentile(self, q: float) -> float:
        """``q``-th percentile service latency over the recent window."""
        if not self.recent_latencies_s:
            return 0.0
        return float(np.percentile(self.recent_latencies_s, q))

    @property
    def p50_latency_s(self) -> float:
        """Median service latency over the recent window."""
        return self._percentile(50)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile service latency over the recent window."""
        return self._percentile(95)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile service latency over the recent window."""
        return self._percentile(99)

    def to_dict(self) -> Dict:
        """JSON-serializable form (no per-request arrays)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "flushes": self.flushes,
            "busy_s": self.busy_s,
            "hit_rate": self.hit_rate,
            "throughput_rps": self.throughput_rps,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
        }


class ServingEngine:
    """Batched, cached request serving over the TRON/GHOST cost models.

    Args:
        cache_entries: report-cache bound (LRU beyond it).
        max_pending: submissions that trigger an automatic flush.
        use_batched_physics: evaluate each request group's dies through
            one batched corner-physics pass (see the scheduler).
        catalog: platform name -> accelerator factory override.

    Example:
        >>> engine = ServingEngine()
        >>> r1, r2 = engine.serve([ServeRequest(workload="MLP-mnist"),
        ...                        ServeRequest(workload="MLP-mnist")])
        >>> r1.report.platform, r2.deduped
        ('TRON', True)
        >>> engine.serve([ServeRequest(workload="MLP-mnist")])[0].cached
        True
    """

    def __init__(
        self,
        cache_entries: int = 1024,
        max_pending: int = 64,
        use_batched_physics: bool = True,
        catalog: Optional[PlatformCatalog] = None,
    ) -> None:
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.cache = ReportCache(max_entries=cache_entries)
        self.scheduler = BatchingScheduler(
            cache=self.cache,
            catalog=catalog,
            use_batched_physics=use_batched_physics,
        )
        self.max_pending = max_pending
        self.stats = ServingStats()
        self._pending: List[tuple] = []
        self._lock = threading.Lock()
        # One worker: flushes execute in arrival order, which keeps the
        # cache-warming sequence (and therefore every response)
        # deterministic for a given submission order.
        self._flusher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._outstanding: List[Future] = []

    # ------------------------------------------------------------------
    # Synchronous path
    # ------------------------------------------------------------------

    def serve(
        self, requests: Sequence[ServeRequest]
    ) -> List[ServeResponse]:
        """Cost ``requests`` as one micro-batch; responses in order."""
        start = time.perf_counter()
        responses = self.scheduler.execute(requests)
        self._absorb(responses, time.perf_counter() - start)
        return responses

    def serve_specs(self, specs: Sequence) -> List[ServeResponse]:
        """Cost a sequence of run-kind :class:`~repro.api.ExperimentSpec`
        documents (or their dict forms) as one micro-batch.

        Example:
            >>> from repro.api import ExperimentSpec
            >>> engine = ServingEngine()
            >>> spec = ExperimentSpec(workload="MLP-mnist")
            >>> engine.serve_specs([spec])[0].report.platform
            'TRON'
        """
        return self.serve([ServeRequest.from_spec(spec) for spec in specs])

    # ------------------------------------------------------------------
    # Asynchronous path
    # ------------------------------------------------------------------

    def submit_spec(self, spec) -> "Future[ServeResponse]":
        """Enqueue the request a run-kind spec denotes (see
        :meth:`ServeRequest.from_spec <repro.serving.request.
        ServeRequest.from_spec>`)."""
        return self.submit(ServeRequest.from_spec(spec))

    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Enqueue one request; flushes automatically at ``max_pending``."""
        future: "Future[ServeResponse]" = Future()
        with self._lock:
            self._pending.append((request, future))
            ready = len(self._pending) >= self.max_pending
        if ready:
            self.flush()
        return future

    def flush(self) -> None:
        """Hand the current pending micro-batch to the flush worker."""
        with self._lock:
            batch = self._pending
            self._pending = []
            if not batch:
                return
            self._outstanding.append(
                self._flusher.submit(self._run_batch, batch)
            )

    def drain(self) -> None:
        """Flush and block until every outstanding micro-batch resolves."""
        self.flush()
        while True:
            with self._lock:
                outstanding = self._outstanding
                self._outstanding = []
            if not outstanding:
                return
            for future in outstanding:
                future.result()

    def close(self) -> None:
        """Drain and shut the flush worker down."""
        self.drain()
        self._flusher.shutdown(wait=True)

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_batch(self, batch: List[tuple]) -> None:
        requests = [request for request, _ in batch]
        try:
            start = time.perf_counter()
            responses = self.scheduler.execute(requests)
            self._absorb(responses, time.perf_counter() - start)
        except BaseException as exc:  # pragma: no cover - defensive
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            raise
        for (_, future), response in zip(batch, responses):
            future.set_result(response)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _absorb(
        self, responses: Sequence[ServeResponse], busy_s: float
    ) -> None:
        with self._lock:
            self.stats.flushes += 1
            self.stats.busy_s += busy_s
            for response in responses:
                self.stats.requests += 1
                if not response.ok:
                    self.stats.errors += 1
                if response.cached:
                    self.stats.cache_hits += 1
                if response.deduped:
                    self.stats.deduped += 1
                self.stats.record_latency(response.latency_s)
