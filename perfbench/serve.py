"""The serving workloads: ``serve-hot`` and ``serve-cold``.

One ``ServingFleet`` worker fed by one submitting thread (the host has
two cores).  A run alternates a closed loop, which gives throughput,
with open-loop Poisson chunks, which give latency.  Every request goes
through ``submit(request, arrival_s=...)`` and ``flush()``; an open-loop
request is timed from its scheduled arrival to the resolution of its
future.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from batch import MEMOS
from harness import (
    Tracer, host_factor, median_rate, percentile, raw_rate, warm_up,
)

from repro.serving import (
    ServingEngine,
    ServingFleet,
    generate_trace,
    record_to_request,
)

#: Report-cache bound of the fleet worker (the library default).
CACHE_ENTRIES = 1024
#: Closed-loop time per cycle, and the open-loop chunk that follows it
#: (see ``Serve._cycles``).
CLOSED_CYCLE_S = 0.4
OPEN_CHUNK_S = 0.6
#: Closed-loop clients (requests in flight), below the fleet's
#: admission bound of 256 so the closed loop never sheds.
CLOSED_WINDOW = 192
#: Requests submitted (and flushed) together in the closed loop.
DISPATCH = 64
#: The cores this process may run on, read once at import: set-up pins
#: the main thread to one of them, so a later read would see only that.
CPUS = sorted(os.sched_getaffinity(0))


class _Tally:
    """Per-response accounting of the measured phases."""

    def __init__(self) -> None:
        self.attempted = 0
        self.shed = 0
        self.errors = 0
        self.cached = 0
        self.deduped = 0
        #: type id -> (responses seen, last report document)
        self.by_type: Dict[int, list] = {}
        #: request index -> report document (sampled checks)
        self.sampled: Dict[int, Optional[dict]] = {}

    def add(self, response, ok: bool, type_id: int, index: int, check: bool) -> None:
        """Count one response; ``ok`` is taken before the client may
        have dropped a report it does not need to keep."""
        self.attempted += 1
        if response.shed:
            self.shed += 1
            return
        if not ok:
            self.errors += 1
            return
        self.cached += response.cached
        self.deduped += response.deduped
        entry = self.by_type.setdefault(type_id, [0, None])
        entry[0] += 1
        if response.report is not None:
            entry[1] = response.report
        if check:
            self.sampled[index] = response.report


class Serve:
    """``serve-hot`` (repeated types, report-cache hits) or
    ``serve-cold`` (every request distinct: misses, inserts, evictions)."""

    #: Set-ups per run (each starts and warms a fleet); ``setup_s`` is
    #: their median.
    SETUP_REPEATS = 3
    #: Cores kept busy at idle priority for the whole run (see
    #: ``harness.idle_spinners``).
    SPIN_CPUS = CPUS

    def __init__(self, seed: int, smoke: bool = False, hot: bool = True) -> None:
        self.seed = seed
        self.hot = hot
        self.name = "serve-hot" if hot else "serve-cold"
        if hot:
            self.trace_requests = 2_000 if smoke else 20_000
            self.rep_requests = 200 if smoke else 2_000
            self.open_rate = 2_000.0
        else:
            # About 0.63 x trace_requests distinct requests survive.
            self.trace_requests = 3_000 if smoke else 18_000
            self.rep_requests = 100 if smoke else 400
            self.open_rate = 100.0
        #: serve-cold responses compared with the in-process engine.
        self.cold_checks = 16 if smoke else 64
        #: The core whose speed the timed figures are normalized by: the
        #: parent's front door bounds serve-hot, worker evaluation
        #: bounds serve-cold.
        self.probe_cpu = CPUS[0] if hot else CPUS[-1]

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self, tracer: Tracer) -> Dict:
        with tracer.span("workloads.trace"):
            if self.hot:
                records = generate_trace(
                    num_requests=self.trace_requests,
                    seed=self.seed,
                    catalog_size=48,
                    skew=1.1,
                )
            else:
                records = generate_trace(
                    num_requests=self.trace_requests,
                    seed=self.seed,
                    catalog_size=self.trace_requests,
                    skew=0.0,
                    die_seeds=2**31 - 1,
                )
            type_ids: Dict[tuple, int] = {}
            types = []
            kept = []
            for record in records:
                key = tuple(sorted(record.items()))
                if key not in type_ids:
                    type_ids[key] = len(type_ids)
                elif not self.hot:
                    continue  # serve-cold: every request distinct
                kept.append(record)
                types.append(type_ids[key])
            requests = [record_to_request(record) for record in kept]
        # The worker (and every thread it starts) runs on one core, the
        # parent's threads on the other.
        parent_cpu, worker_cpu = CPUS[0], CPUS[-1]
        os.sched_setaffinity(0, {worker_cpu})
        try:
            with tracer.span("fleet.start"):
                fleet = ServingFleet(workers=1, cache_entries=CACHE_ENTRIES)
        finally:
            os.sched_setaffinity(0, {parent_cpu})
        for thread in threading.enumerate():
            if thread.name == "repro-fleet-collector" and thread.is_alive():
                os.sched_setaffinity(thread.native_id, {parent_cpu})
        first_of_type = {}
        for index, type_id in enumerate(types):
            first_of_type.setdefault(type_id, index)
        state = {
            "fleet": fleet,
            "clock0": time.perf_counter(),
            "requests": requests,
            "types": types,
            "first_of_type": first_of_type,
            "cursor": 0,
            "tally": _Tally(),
            "checked": set(),
        }
        if self.hot:
            # One type at a time, as first requests arrive; a single batch
            # would evaluate them on the scheduler's per-flush thread pool
            # at once and make the worker's peak memory depend on which
            # heavy types happen to overlap.
            with tracer.span("fleet.warm"):
                for i in first_of_type.values():
                    future = fleet.submit(requests[i])
                    fleet.flush()
                    future.result()
        return state

    def discard(self, state: Dict) -> None:
        state["fleet"].close()

    def finish(self, state: Dict) -> None:
        state["fleet"].close()
        os.sched_setaffinity(0, CPUS)

    # ------------------------------------------------------------------
    # Request stream
    # ------------------------------------------------------------------

    def _take(self, state: Dict, count: int, reserve: int = 0) -> List[int]:
        """The next ``count`` request indices.  serve-hot cycles over its
        trace; serve-cold never repeats one and keeps ``reserve``
        requests back for the open loop."""
        total = len(state["requests"])
        start = state["cursor"]
        if self.hot:
            state["cursor"] = start + count
            return [i % total for i in range(start, start + count)]
        stop = min(start + count, total - reserve)
        state["cursor"] = max(start, stop)
        return list(range(start, stop))

    def _closed_rep(
        self, state: Dict, reserve: int, tally: Optional[_Tally],
        tracer: Optional[Tracer] = None,
    ) -> Tuple[int, float]:
        """One closed-loop replay: ``(requests, seconds)``.

        ``CLOSED_WINDOW`` clients: requests are submitted in
        ``DISPATCH`` blocks, each flushed, and a new block goes out only
        once the oldest block's futures have resolved.
        """
        indices = self._take(state, self.rep_requests, reserve)
        if not indices:
            return 0, 0.0
        fleet = state["fleet"]
        requests = state["requests"]
        t0 = time.perf_counter()
        with tracer.span("fleet.closed") if tracer else nullcontext():
            outstanding: deque = deque()
            responses = []
            for start in range(0, len(indices), DISPATCH):
                block = indices[start:start + DISPATCH]
                outstanding.append([fleet.submit(requests[i]) for i in block])
                fleet.flush()
                while len(outstanding) * DISPATCH > CLOSED_WINDOW:
                    responses.extend(f.result() for f in outstanding.popleft())
            for futures in outstanding:
                responses.extend(f.result() for f in futures)
        wall = time.perf_counter() - t0
        if tally is not None:
            self._absorb(state, tally, indices, responses)
        return len(indices), wall

    def _absorb(self, state, tally, indices, responses, oks=None) -> None:
        types = state["types"]
        checked = state["checked"]
        if oks is None:
            oks = [response.ok for response in responses]
        for index, response, ok in zip(indices, responses, oks):
            tally.add(response, ok, types[index], index, index in checked)

    def _open_loop(
        self, state: Dict, seconds: float, tally: _Tally, chunk: int,
        tracer: Optional[Tracer] = None,
    ) -> Dict[str, List[float]]:
        """Poisson arrivals at ``open_rate`` for ``seconds``.

        Each future's callback keeps only the request's latency and its
        response; futures are not retained, so the client heap (and the
        garbage collector's pauses) stays the size of one closed rep.
        """
        count = max(1, int(self.open_rate * seconds))
        indices = self._take(state, count)
        rng = np.random.default_rng((self.seed, chunk))
        offsets = np.cumsum(rng.exponential(1.0 / self.open_rate, len(indices)))
        fleet = state["fleet"]
        requests = state["requests"]
        done: List[Optional[Tuple[float, bool, object]]] = [None] * len(indices)
        # Reports kept for verification: the last of each type (hot) or
        # the sampled requests (cold).
        last = {state["types"][index]: k for k, index in enumerate(indices)}
        keep = set(last.values()) if self.hot else {
            k for k, index in enumerate(indices) if index in state["checked"]
        }
        late = []
        submit_s = []
        start = time.perf_counter() + 0.002
        for k, (index, offset) in enumerate(zip(indices, offsets)):
            target = start + float(offset)
            while True:
                gap = target - time.perf_counter()
                if gap <= 0.0:
                    break
                fleet.flush()
                time.sleep(min(gap, 0.0005))
            t0 = time.perf_counter()
            late.append(t0 - target)
            future = fleet.submit(requests[index], arrival_s=target - state["clock0"])
            if tracer is not None:
                submit_s.append(time.perf_counter() - t0)

            def resolved(future, k=k, target=target):
                latency = time.perf_counter() - target
                response = future.result()
                ok = response.ok
                if k not in keep:
                    response.report = None
                done[k] = (latency, ok, response)

            future.add_done_callback(resolved)
        if tracer is None:
            fleet.drain()
        else:
            with tracer.span("fleet.drain"):
                fleet.drain()
        while any(d is None for d in done):  # callbacks run after drain()
            time.sleep(0.001)
        latencies, queue, service = [], [], []
        for latency, ok, response in done:
            if ok:
                latencies.append(latency)
                queue.append(latency - response.latency_s)
                service.append(response.latency_s)
        self._absorb(
            state, tally, indices, [d[2] for d in done], [d[1] for d in done]
        )
        return {
            "latency_s": latencies,
            "queue_s": queue,
            "service_s": service,
            "late_s": late,
            "submit_s": submit_s,
        }

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _host_factor(self) -> float:
        """``harness.host_factor`` on ``probe_cpu``; the main thread
        goes back to the parent's core afterwards."""
        os.sched_setaffinity(0, {self.probe_cpu})
        try:
            return host_factor()
        finally:
            os.sched_setaffinity(0, {CPUS[0]})

    def _prepare_checks(self, state: Dict, reserve: int) -> None:
        """serve-cold: a seeded sample of the requests the measured
        phases will serve, compared after the run."""
        if self.hot:
            return
        rng = np.random.default_rng(self.seed)
        pool = range(state["cursor"], len(state["requests"]))
        sample = min(self.cold_checks, len(pool))
        state["checked"] = {int(pool[i]) for i in rng.choice(len(pool), sample, replace=False)}

    def _reserve(self, seconds: float) -> int:
        """Requests serve-cold keeps back for the open loop."""
        share = OPEN_CHUNK_S / (CLOSED_CYCLE_S + OPEN_CHUNK_S)
        return int(self.open_rate * seconds * share) + 64

    def _cycles(
        self, state: Dict, seconds: float, tracer: Optional[Tracer] = None
    ) -> Dict[str, list]:
        """Alternate ``CLOSED_CYCLE_S`` of closed-loop repetitions with
        one ``OPEN_CHUNK_S`` open-loop chunk until ``seconds`` pass.

        Interleaving spreads both phases over the whole run, so neither
        is measured in one host phase only.  Each closed repetition and
        each chunk is preceded by a host-speed probe.  With a tracer,
        every closed repetition is paired with an untraced one (for the
        tracing overhead).
        """
        reserve = self._reserve(seconds)
        warm_up(lambda: self._closed_rep(state, reserve, None)[0])
        self._prepare_checks(state, reserve)
        tally = state["tally"]
        out: Dict[str, list] = {"closed": [], "plain": [], "hits": [], "deduped": []}
        chunk = 0
        deadline = time.perf_counter() + seconds
        exhausted = False
        while time.perf_counter() < deadline:
            closed_until = time.perf_counter() + CLOSED_CYCLE_S
            while not exhausted and time.perf_counter() < closed_until:
                if tracer is not None:
                    count, wall = self._closed_rep(state, reserve, tally)
                    out["plain"].append(wall / max(count, 1))
                before = (tally.deduped, tally.cached, tally.attempted)
                factor = self._host_factor()
                with tracer.span("rep") if tracer else nullcontext():
                    count, wall = self._closed_rep(state, reserve, tally, tracer)
                if not count:
                    exhausted = True
                    break
                out["closed"].append((count, wall, factor))
                out["deduped"].append(tally.deduped - before[0])
                out["hits"].append(
                    (tally.cached - before[1]) / max(1, tally.attempted - before[2])
                )
            factor = self._host_factor()
            with tracer.span("rep") if tracer else nullcontext():
                opened = self._open_loop(state, OPEN_CHUNK_S, tally, chunk, tracer)
            chunk += 1
            opened["raw_latency_s"] = opened["latency_s"]
            opened["latency_s"] = [latency * factor for latency in opened["latency_s"]]
            opened["chunk_p50_s"] = [float(np.median(opened["latency_s"]))]
            for key, values in opened.items():
                out.setdefault(key, []).extend(values)
        state["raw_throughput_per_s"] = raw_rate(out["closed"])
        state["chunk_p50_ms"] = [v * 1e3 for v in out["chunk_p50_s"]]
        state["raw_p50_ms"] = float(np.median(out["raw_latency_s"])) * 1e3
        return out

    def measure(self, state: Dict, seconds: float) -> Dict[str, float]:
        out = self._cycles(state, seconds)
        return {
            "throughput_per_s": median_rate(out["closed"]),
            "p50_ms": float(np.median(out["latency_s"])) * 1e3,
        }

    def trace(self, state: Dict, seconds: float, tracer: Tracer) -> Dict[str, float]:
        out = self._cycles(state, seconds, tracer)
        traced = [wall / count for count, wall, _ in out["closed"]]
        return {
            "fleet.submit_us": float(np.median(out["submit_s"])) * 1e6,
            "fleet.drain_s": float(np.median(tracer.durations("fleet.drain"))),
            "fleet.queue_ms": float(np.median(out["queue_s"])) * 1e3,
            "fleet.p99_ms": percentile(out["latency_s"], 99) * 1e3,
            "fleet.p99_samples": len(out["latency_s"]),
            "loadgen.late_ms": float(np.mean(out["late_s"])) * 1e3,
            "worker.service_ms": float(np.median(out["service_s"])) * 1e3,
            "scheduler.deduped": float(np.median(out["deduped"])),
            "cache.hit_frac": float(np.median(out["hits"])),
            "trace.overhead_ms": (
                float(np.median(traced)) - float(np.median(out["plain"]))
            ) * self.rep_requests * 1e3,
        }

    def fleet_layers(self, state: Dict) -> Dict[str, float]:
        """Worker-side layers from the fleet's stats after ``close()``
        (whole fleet life: set-up warm-up included)."""
        fleet = state["fleet"]
        aggregate = fleet.aggregate_stats()
        worker = fleet.worker_stats.get(0, {})
        wall = fleet.fleet_stats()["wall_s"]
        layers = {
            "fleet.shed": state["tally"].shed,
            "worker.busy_frac": aggregate["busy_s"] / wall if wall > 0 else 0.0,
            "scheduler.batch_size": (
                aggregate["requests"] / aggregate["flushes"]
                if aggregate["flushes"] else 0.0
            ),
            "cache.evictions": int(worker.get("cache", {}).get("evictions", 0)),
        }
        physics = worker.get("physics_cache", {})
        for metric, key in MEMOS.items():
            stats = physics.get(key, {})
            lookups = stats.get("hits", 0) + stats.get("misses", 0)
            layers[metric] = stats.get("hits", 0) / lookups if lookups else 0.0
        return layers

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, state: Dict) -> Tuple[int, int, int]:
        """Compare report documents with an in-process ``ServingEngine``
        on the same requests: one response of every type on serve-hot
        (a mismatch fails every response of that type), the seeded
        sample on serve-cold."""
        tally: _Tally = state["tally"]
        requests = state["requests"]
        mismatched = 0
        if self.hot:
            type_ids = sorted(tally.by_type)
            indices = [state["first_of_type"][t] for t in type_ids]
            documents = [tally.by_type[t][1] for t in type_ids]
            weights = [tally.by_type[t][0] for t in type_ids]
        else:
            indices = sorted(tally.sampled)
            documents = [tally.sampled[i] for i in indices]
            weights = [1] * len(indices)
        with ServingEngine(cache_entries=CACHE_ENTRIES) as engine:
            expected = engine.serve([requests[i] for i in indices])
        for document, reference, weight in zip(documents, expected, weights):
            if reference.report is None or document != reference.report.to_dict():
                mismatched += weight
        failed = min(tally.shed + tally.errors + mismatched, tally.attempted)
        return tally.attempted, failed, mismatched
