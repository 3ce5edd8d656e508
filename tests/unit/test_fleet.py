"""Tests for the sharded multi-process fleet tier (routing, admission,
wire codec, and the ServingFleet front-end)."""

import sys
import threading

import pytest

from repro.core.context import resolve_corner
from repro.errors import ConfigurationError
from repro.serving import (
    SHED_QUEUE,
    SHED_QUOTA,
    AdmissionController,
    ArrivalProcess,
    ServeRequest,
    ServingEngine,
    ServingFleet,
    ShardRouter,
    TokenBucket,
    generate_trace,
    record_to_request,
    request_to_wire,
    wire_to_request,
)
from repro.serving.fleet import _worker_main, merge_counters


def small_trace(num_requests=24, catalog_size=6, seed=0):
    records = generate_trace(
        num_requests=num_requests, seed=seed, catalog_size=catalog_size
    )
    return [record_to_request(record) for record in records]


class TestShardRouter:
    def test_assignment_stable_and_in_range(self):
        router = ShardRouter(num_shards=4)
        for request in small_trace():
            shard = router.shard_of(request)
            assert 0 <= shard < 4
            assert router.shard_of(request) == shard

    def test_type_granularity_splits_corners(self):
        # Distinct contexts are distinct request types; over enough of
        # them the type-granular router must use more than one shard.
        router = ShardRouter(num_shards=4, granularity="type")
        shards = {
            router.shard_of(
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", seed)
                )
            )
            for seed in range(16)
        }
        assert len(shards) > 1

    def test_config_granularity_collapses_types(self):
        # Same platform + batch => same configuration => same shard,
        # regardless of workload or context.
        router = ShardRouter(num_shards=8, granularity="config")
        shards = {
            router.shard_of(
                ServeRequest(
                    workload="BERT-base", ctx=resolve_corner("typical", seed)
                )
            )
            for seed in range(16)
        }
        assert len(shards) == 1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError, match="shard"):
            ShardRouter(num_shards=0)
        with pytest.raises(ConfigurationError, match="granularity"):
            ShardRouter(num_shards=2, granularity="frequency")

    def test_platform_missing_from_catalog_rejected(self):
        from repro.serving.scheduler import default_platform_catalog

        catalog = {
            name: factory
            for name, factory in default_platform_catalog().items()
            if name != "ghost"
        }
        router = ShardRouter(num_shards=2, catalog=catalog)
        with pytest.raises(ConfigurationError, match="unknown platform"):
            router.shard_of(ServeRequest(workload="GCN-cora"))  # -> ghost

    def test_count_assignment_observability(self):
        router = ShardRouter(num_shards=2)
        for request in small_trace():
            router.shard_of(request, count=True)
        assert sum(router.requests_per_shard) == 24


class TestWireCodec:
    def test_round_trip_with_context(self):
        request = ServeRequest(
            workload="BERT-base",
            platform="tron",
            ctx=resolve_corner("slow-hot", 5),
            batch=8,
        )
        assert wire_to_request(request_to_wire(request)) == request

    def test_round_trip_without_context(self):
        request = ServeRequest(workload="GCN-cora")
        assert wire_to_request(request_to_wire(request)) == request

    def test_extra_type_id_tolerated(self):
        # The fleet tags wire records with a decode-memo key; the codec
        # must ignore it.
        record = request_to_wire(ServeRequest(workload="MLP-mnist"))
        record["type_id"] = 17
        assert wire_to_request(record).workload == "MLP-mnist"

    def test_trace_records_accepted(self):
        request = wire_to_request(
            {"workload": "GCN-cora", "corner": "typical", "seed": 2}
        )
        assert request.ctx.seed == 2


class TestAdmission:
    def test_token_bucket_refill(self):
        bucket = TokenBucket(rate_rps=2.0, burst=1.0)
        assert bucket.try_take(now_s=0.0)
        assert not bucket.try_take(now_s=0.0)
        assert bucket.try_take(now_s=0.5)  # half a second -> one token

    def test_queue_bound_sheds(self):
        controller = AdmissionController(max_queue=2)
        assert controller.admit(in_flight=1) is None
        assert controller.admit(in_flight=2) == SHED_QUEUE
        assert controller.stats.shed_queue == 1
        assert controller.stats.shed_rate == pytest.approx(0.5)

    def test_tenant_quota_is_per_tenant(self):
        controller = AdmissionController(
            max_queue=100, tenant_rate_rps=1.0, tenant_burst=1.0
        )
        assert controller.admit(0, tenant="a", now_s=0.0) is None
        assert controller.admit(0, tenant="a", now_s=0.0) == SHED_QUOTA
        # Tenant b has its own bucket.
        assert controller.admit(0, tenant="b", now_s=0.0) is None
        assert controller.stats.to_dict()["shed_quota"] == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_rps=0.0, burst=1.0)


class TestMergeCounters:
    def test_nested_sums_and_bool_or(self):
        merged = merge_counters(
            [
                {"requests": 2, "nested": {"hits": 1}, "flag": False},
                {"requests": 3, "nested": {"hits": 4}, "flag": True},
            ]
        )
        assert merged == {
            "requests": 5,
            "nested": {"hits": 5},
            "flag": True,
        }

    def test_hit_rate_recomputed_not_summed(self):
        merged = merge_counters(
            [
                {"hits": 3, "misses": 1, "hit_rate": 0.75},
                {"hits": 1, "misses": 3, "hit_rate": 0.25},
            ]
        )
        assert merged["hit_rate"] == pytest.approx(0.5)


class TestWorkerMain:
    def test_report_memo_is_bounded_by_cache_entries(self, monkeypatch):
        """The worker's serialized-report memo holds at most
        ``cache_entries`` reports, and bounding it changes no response."""
        import queue

        import repro.serving.fleet as fleet_module
        from repro.core.engine.memo import LRUMemo

        memos = []

        class RecordingMemo(LRUMemo):
            def __init__(self, max_entries):
                super().__init__(max_entries)
                self.sizes = []
                memos.append(self)

            def put(self, key, value):
                super().put(key, value)
                self.sizes.append(len(self))

        monkeypatch.setattr(fleet_module, "LRUMemo", RecordingMemo)
        distinct = [
            ServeRequest(workload="MLP-mnist", platform="tron", batch=batch)
            for batch in range(1, 21)
        ]
        requests = distinct + distinct[:10]
        inbox, outbox = queue.Queue(), queue.Queue()
        for start in range(0, len(requests), 5):
            inbox.put(
                (
                    "batch",
                    [
                        (i, request_to_wire(requests[i]))
                        for i in range(start, start + 5)
                    ],
                )
            )
        inbox.put(("stop", None))
        worker = threading.Thread(
            target=_worker_main, args=(0, inbox, outbox, {"cache_entries": 4})
        )
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()

        answered = {}
        while not outbox.empty():
            kind, _, payload = outbox.get()
            if kind == "batch":
                answered.update(payload)
        assert sorted(answered) == list(range(len(requests)))
        (memo,) = memos
        assert memo.max_entries == 4
        assert len(memo.sizes) >= len(distinct)
        assert max(memo.sizes) <= 4

        with ServingEngine(cache_entries=4) as engine:
            reference = engine.serve(requests)
        for i, ref in enumerate(reference):
            assert answered[i]["report"] == ref.report.to_dict()
            assert answered[i]["error"] is None


class TestServingFleet:
    def test_one_worker_matches_in_process_engine(self):
        requests = small_trace()
        with ServingEngine(max_pending=8) as engine:
            reference = engine.serve(requests)
        with ServingFleet(workers=1, window=8) as fleet:
            responses = fleet.serve(requests)
        for ref, response in zip(reference, responses):
            assert response.report == ref.to_dict()["report"]
            assert response.cached == ref.cached

    def test_multi_worker_replay_hits_shard_caches(self):
        requests = small_trace()
        with ServingFleet(workers=2, window=8) as fleet:
            cold = fleet.serve(requests)
            warm = fleet.serve(requests)
        assert all(response.ok for response in cold)
        assert all(response.cached for response in warm)
        assert [w.report for w in warm] == [c.report for c in cold]

    def test_submit_futures_and_error_isolation(self):
        good = ServeRequest(workload="MLP-mnist")
        bad = ServeRequest(workload="no-such-workload")
        with ServingFleet(workers=1, window=4) as fleet:
            futures = [fleet.submit(good), fleet.submit(bad),
                       fleet.submit(good)]
            assert fleet.drain()
            responses = [future.result(timeout=30) for future in futures]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert responses[1].error is not None
        assert not responses[1].shed  # an error, not an admission shed

    def test_concurrent_submit_no_lost_or_duplicate_responses(self):
        # Satellite: many threads racing submit() must each get exactly
        # one response for each of their requests, with shard caches
        # staying consistent.
        requests = small_trace(num_requests=8, catalog_size=4)
        threads, per_thread = 8, len(requests)
        futures_by_slot = [None] * threads

        with ServingFleet(workers=2, window=8) as fleet:
            fleet.serve(requests)  # warm, so races hit the cache path

            def submit_all(slot):
                futures_by_slot[slot] = [
                    fleet.submit(request) for request in requests
                ]

            pool = [
                threading.Thread(target=submit_all, args=(slot,))
                for slot in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert fleet.drain(timeout=120)
            results = [
                [future.result(timeout=60) for future in futures]
                for futures in futures_by_slot
            ]
            stats = fleet.fleet_stats()

        assert all(result is not None for result in results)
        for result in results:
            assert len(result) == per_thread
            assert all(response.ok for response in result)
            # Dedup/cache correctness: every response for a request
            # equals the single-threaded warm reply for that request.
            for response, request in zip(result, requests):
                assert response.workload == request.workload
        # No lost or duplicated completions fleet-wide.
        assert stats["completed"] == (threads + 1) * per_thread

    def test_serve_returns_every_hot_response(self):
        # drain() must not return before the collector has stored the
        # responses of the requests it saw complete.
        # A tiny GIL switch interval interleaves the collector thread
        # with the caller as often as possible.
        requests = small_trace(num_requests=2000, catalog_size=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServingFleet(workers=1, window=8) as fleet:
                fleet.serve(requests[:50])  # warm: the rest are cache hits
                for _ in range(3):
                    responses = fleet.serve(requests)
                    assert all(r is not None for r in responses)
                    assert all(r.ok for r in responses)
        finally:
            sys.setswitchinterval(interval)

    def test_open_loop_past_saturation_sheds_and_completes(self):
        requests = small_trace()
        with ServingFleet(workers=1, window=8, max_queue=2,
                          dispatch_batch=1) as fleet:
            fleet.serve(requests)  # warm
            result = fleet.run_open_loop(
                requests,
                ArrivalProcess("uniform", 1e6),  # far past saturation
                drain_timeout=60.0,
            )
        assert result.submitted == len(requests)
        assert (
            result.completed + result.shed + result.errors
            == result.submitted
        )
        assert result.shed > 0  # bounded queues shed, never hang
        block = result.to_dict()
        assert block["p99_latency_s"] >= block["p50_latency_s"]

    def test_closed_loop_backpressure_never_sheds(self):
        requests = small_trace()
        with ServingFleet(workers=1, window=4, max_queue=2,
                          dispatch_batch=1) as fleet:
            responses = fleet.serve(requests)
            stats = fleet.fleet_stats()
        assert all(response.ok for response in responses)
        assert stats["admission"]["shed_queue"] == 0

    def test_tenant_quota_sheds_with_reason(self):
        request = ServeRequest(workload="MLP-mnist")
        with ServingFleet(workers=1, tenant_rate_rps=1e-6,
                          tenant_burst=1.0) as fleet:
            futures = [fleet.submit(request, tenant="greedy")
                       for _ in range(3)]
            fleet.drain()
            responses = [future.result(timeout=30) for future in futures]
        assert not responses[0].shed
        assert responses[1].shed and responses[1].error == SHED_QUOTA
        assert responses[2].shed

    def test_stats_blocks_have_envelope_shape(self):
        requests = small_trace()
        fleet = ServingFleet(workers=2, window=8)
        try:
            fleet.serve(requests)
        finally:
            fleet.close()
        stats = fleet.fleet_stats()
        assert stats["workers"] == 2
        assert stats["completed"] == len(requests)
        assert len(stats["shard_requests"]) == 2
        assert sum(stats["shard_requests"]) == len(requests)
        assert len(stats["worker_stats"]) == 2
        aggregate = fleet.aggregate_stats()
        assert aggregate["requests"] == len(requests)
        for key in ("throughput_rps", "p50_latency_s", "p95_latency_s",
                    "p99_latency_s", "hit_rate"):
            assert key in aggregate
