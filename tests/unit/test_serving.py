"""Tests for the batched serving subsystem (cache, scheduler, engine)."""

import json

import pytest

from repro.core import TRON, get_workload
from repro.core.context import resolve_corner
from repro.core.engine import clear_physics_cache
from repro.core.reports import EnergyReport, LatencyReport, RunReport
from repro.errors import ConfigurationError
from repro.nn.counting import OpCount
from repro.serving import (
    BatchingScheduler,
    ReportCache,
    ServeRequest,
    ServingEngine,
    config_fingerprint,
    generate_trace,
    load_trace,
    normalize_context,
    record_to_request,
    save_trace,
)
from repro.serving.scheduler import default_platform_catalog


def _report(tag="w", latency=10.0):
    return RunReport(
        platform="p",
        workload=tag,
        ops=OpCount(macs=100),
        latency=LatencyReport(compute_ns=latency),
        energy=EnergyReport(digital_pj=5.0),
    )


class TestReportCache:
    def test_hit_and_miss_accounting(self):
        cache = ReportCache(max_entries=4)
        key = ("w", "cfg", None)
        assert cache.get(key) is None
        cache.put(key, _report())
        assert cache.get(key) is not None
        assert cache.get(("other", "cfg", None)) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_eviction_under_the_bound(self):
        cache = ReportCache(max_entries=2)
        for i in range(5):
            cache.put((f"w{i}", "cfg", None), _report())
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        # The two most recent entries survive.
        assert ("w4", "cfg", None) in cache
        assert ("w3", "cfg", None) in cache
        assert ("w0", "cfg", None) not in cache

    def test_lru_order_refreshes_on_hit(self):
        cache = ReportCache(max_entries=2)
        cache.put(("a", "cfg", None), _report())
        cache.put(("b", "cfg", None), _report())
        assert cache.get(("a", "cfg", None)) is not None  # refresh a
        cache.put(("c", "cfg", None), _report())  # evicts b, not a
        assert ("a", "cfg", None) in cache
        assert ("b", "cfg", None) not in cache

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ConfigurationError):
            ReportCache(max_entries=0)

    def test_fingerprint_separates_configs(self):
        from repro.core.tron import TRONConfig

        assert config_fingerprint(TRONConfig()) != config_fingerprint(
            TRONConfig(batch=8)
        )

    def test_nominal_contexts_share_an_entry(self):
        from repro.core.context import NOMINAL

        assert normalize_context(None) is None
        assert normalize_context(NOMINAL) is None
        ctx = resolve_corner("typical", 1)
        assert normalize_context(ctx) is ctx


class TestSchedulerCacheKey:
    def test_same_request_same_key(self):
        scheduler = BatchingScheduler()
        a = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        b = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        assert a == b

    def test_context_sensitivity(self):
        """Same workload under different corners must miss."""
        scheduler = BatchingScheduler()
        nominal = scheduler.cache_key(ServeRequest(workload="MLP-mnist"))
        typical = scheduler.cache_key(
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 0))
        )
        other_die = scheduler.cache_key(
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 1))
        )
        assert nominal != typical
        assert typical != other_die

    def test_batch_changes_the_key(self):
        scheduler = BatchingScheduler()
        assert scheduler.cache_key(
            ServeRequest(workload="BERT-base", batch=1)
        ) != scheduler.cache_key(ServeRequest(workload="BERT-base", batch=8))

    def test_unknown_platform_rejected(self):
        scheduler = BatchingScheduler(catalog={})
        with pytest.raises(ConfigurationError, match="unknown platform"):
            scheduler.cache_key(ServeRequest(workload="MLP-mnist"))


class TestBatchingScheduler:
    def test_dedup_inside_a_batch(self):
        scheduler = BatchingScheduler(cache=ReportCache())
        requests = [ServeRequest(workload="MLP-mnist")] * 4
        responses = scheduler.execute(requests)
        assert len(responses) == 4
        assert scheduler.stats.evaluated == 1
        assert scheduler.stats.deduped == 3
        # Duplicates share the evaluated report object.
        assert all(r.report is responses[0].report for r in responses)
        assert [r.deduped for r in responses] == [False, True, True, True]

    def test_cache_hits_across_batches(self):
        cache = ReportCache()
        scheduler = BatchingScheduler(cache=cache)
        request = ServeRequest(workload="MLP-mnist")
        first = scheduler.execute([request])[0]
        second = scheduler.execute([request])[0]
        assert not first.cached and second.cached
        assert second.report is first.report
        assert scheduler.stats.evaluated == 1

    def test_context_sensitive_misses(self):
        """The same workload at a different corner re-evaluates."""
        scheduler = BatchingScheduler(cache=ReportCache())
        nominal = scheduler.execute([ServeRequest(workload="MLP-mnist")])[0]
        cornered = scheduler.execute(
            [
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 0)
                )
            ]
        )[0]
        assert not cornered.cached
        assert cornered.report.energy_pj > nominal.report.energy_pj

    def test_batched_physics_matches_scalar_runs(self):
        """The grouped/pinned path reproduces direct per-request runs."""
        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in (1, 2, 3)
        ]
        batched = BatchingScheduler(use_batched_physics=True).execute(requests)
        assert BatchingScheduler(cache=None).stats.requests == 0
        for response, request in zip(batched, requests):
            clear_physics_cache()
            direct = TRON().run(
                get_workload("MLP-mnist"), ctx=request.ctx
            )
            assert response.report.latency_ns == direct.latency_ns
            assert response.report.energy_pj == pytest.approx(
                direct.energy_pj, rel=1e-12
            )

    def test_batched_and_scalar_paths_agree(self):
        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in (0, 1)
        ]
        fast = BatchingScheduler(use_batched_physics=True).execute(requests)
        slow = BatchingScheduler(use_batched_physics=False).execute(requests)
        for a, b in zip(fast, slow):
            assert a.report.latency_ns == b.report.latency_ns
            assert a.report.energy_pj == pytest.approx(
                b.report.energy_pj, rel=1e-12
            )

    def test_mixed_platform_routing(self):
        responses = BatchingScheduler().execute(
            [
                ServeRequest(workload="BERT-base"),
                ServeRequest(workload="GCN-cora"),
            ]
        )
        assert responses[0].report.platform == "TRON"
        assert responses[1].report.platform == "GHOST"

    def test_auto_routes_temporal_gnn_to_ghost(self):
        from repro.api import Session

        with ServingEngine() as engine:
            (response,) = engine.serve(
                [ServeRequest(workload="GCN-ba-temporal")]
            )
        assert response.error is None
        assert response.report.platform == "GHOST"
        expected = Session().run("GCN-ba-temporal").report
        assert response.report.to_dict() == expected.to_dict()

    def test_ghost_batched_request_errors_cleanly(self):
        responses = BatchingScheduler().execute(
            [ServeRequest(workload="GCN-cora", platform="ghost", batch=8)]
        )
        assert not responses[0].ok
        assert "full-graph" in responses[0].error

    def test_group_count(self):
        """(platform, batch, family) partitioning, seeds share a group."""
        scheduler = BatchingScheduler()
        scheduler.execute(
            [
                ServeRequest(workload="MLP-mnist"),  # tron nominal
                ServeRequest(workload="GCN-cora"),  # ghost nominal
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 1)
                ),
                ServeRequest(
                    workload="MLP-mnist", ctx=resolve_corner("typical", 2)
                ),
            ]
        )
        assert scheduler.stats.groups == 3
        assert scheduler.stats.batched_dies == 2

    def test_groups_evaluate_on_the_calling_thread(self):
        """A cold micro-batch spanning several (platform, batch, family)
        groups builds every group's accelerator on the thread that
        called ``execute``, and costs each request as a direct run."""
        import threading

        from repro.core import GHOST
        from repro.core.tron import TRONConfig

        builders = []

        def recording(factory):
            def build(batch):
                builders.append(threading.current_thread())
                return factory(batch)

            return build

        catalog = {
            name: recording(factory)
            for name, factory in default_platform_catalog().items()
        }
        requests = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="MLP-mnist", platform="tron", batch=4),
            ServeRequest(workload="GCN-cora"),
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 1)),
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", 2)),
        ]
        scheduler = BatchingScheduler(catalog=catalog)
        responses = scheduler.execute(requests)
        assert scheduler.stats.groups == 4
        assert len(builders) >= scheduler.stats.groups
        assert set(builders) == {threading.current_thread()}

        direct = [
            TRON().run(get_workload("MLP-mnist")),
            TRON(TRONConfig(batch=4)).run(get_workload("MLP-mnist")),
            GHOST().run(get_workload("GCN-cora")),
        ]
        for request in requests[3:]:
            clear_physics_cache()
            direct.append(TRON().run(get_workload("MLP-mnist"), ctx=request.ctx))
        for response, report in zip(responses, direct):
            assert response.report.to_dict() == report.to_dict()


class TestServingEngine:
    def test_sync_serve_orders_responses(self):
        engine = ServingEngine()
        requests = [
            ServeRequest(workload="MLP-mnist"),
            ServeRequest(workload="MLP-recsys"),
        ]
        responses = engine.serve(requests)
        assert [r.request.workload for r in responses] == [
            "MLP-mnist",
            "MLP-recsys",
        ]
        assert all(r.latency_s >= 0.0 for r in responses)

    def test_async_submission_resolves_futures(self):
        with ServingEngine(max_pending=2) as engine:
            futures = [
                engine.submit(ServeRequest(workload="MLP-mnist"))
                for _ in range(5)
            ]
            engine.drain()
            responses = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in responses)
        # 5 submissions, 1 evaluation: 1 miss+dedup batch, then hits.
        assert engine.stats.requests == 5
        assert engine.scheduler.stats.evaluated == 1

    def test_stats_hit_rate_on_replay(self):
        engine = ServingEngine()
        requests = [ServeRequest(workload="MLP-mnist")]
        engine.serve(requests)
        engine.serve(requests)
        assert engine.stats.hit_rate == pytest.approx(0.5)
        assert engine.cache.stats.hits == 1

    def test_replay_is_bit_identical(self):
        engine = ServingEngine()
        requests = [
            ServeRequest(workload="MLP-mnist", ctx=resolve_corner("typical", s))
            for s in (0, 1, 2)
        ]
        cold = engine.serve(requests)
        warm = engine.serve(requests)
        assert all(w.cached for w in warm)
        for c, w in zip(cold, warm):
            assert w.report.to_dict() == c.report.to_dict()

    def test_response_to_dict(self):
        engine = ServingEngine()
        response = engine.serve([ServeRequest(workload="GCN-cora")])[0]
        payload = response.to_dict()
        assert payload["workload"] == "GCN-cora"
        assert payload["platform"] == "auto"  # as requested
        assert payload["report"]["platform"] == "GHOST"  # where it ran
        assert payload["error"] is None
        assert json.dumps(payload)  # fully JSON-serializable

    def test_latency_accounting_stays_bounded(self):
        from repro.serving.engine import LATENCY_WINDOW

        engine = ServingEngine()
        requests = [ServeRequest(workload="MLP-mnist")] * 10
        engine.serve(requests)
        assert engine.stats.mean_latency_s >= 0.0
        assert engine.stats.p95_latency_s >= 0.0
        assert engine.stats.recent_latencies_s.maxlen == LATENCY_WINDOW

    def test_custom_catalog(self):
        catalog = default_platform_catalog()
        engine = ServingEngine(catalog=catalog)
        assert engine.serve([ServeRequest(workload="MLP-mnist")])[0].ok

    def test_rejects_degenerate_window(self):
        with pytest.raises(ConfigurationError):
            ServingEngine(max_pending=0)


class TestTrace:
    def test_round_trip(self, tmp_path):
        records = generate_trace(num_requests=20, seed=3, catalog_size=8)
        path = tmp_path / "trace.json"
        save_trace(records, path)
        requests = load_trace(path)
        assert len(requests) == 20
        assert all(isinstance(r, ServeRequest) for r in requests)
        assert requests == [record_to_request(r) for r in records]

    def test_generation_is_deterministic(self):
        assert generate_trace(num_requests=30, seed=5) == generate_trace(
            num_requests=30, seed=5
        )

    def test_repeat_skew(self):
        """Zipf sampling must produce real repeats (the serving win)."""
        records = generate_trace(num_requests=200, seed=0, catalog_size=20)
        distinct = {tuple(sorted(r.items())) for r in records}
        assert len(distinct) <= 20 < len(records)

    def test_nominal_records_carry_no_die_seed(self):
        records = generate_trace(num_requests=50, seed=2)
        for record in records:
            if record["corner"] == "nominal":
                assert record["seed"] == 0

    def test_gnn_records_stay_unbatched(self):
        from repro.serving.trace import GNN_WORKLOADS

        records = generate_trace(num_requests=100, seed=4, llm_fraction=0.0)
        assert all(r["workload"] in GNN_WORKLOADS for r in records)
        assert all(r["batch"] == 1 for r in records)

    def test_loader_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.trace/1",
                    "requests": [{"workload": "BERT-base", "wat": 1}],
                }
            )
        )
        with pytest.raises(ConfigurationError, match="unknown field"):
            load_trace(path)

    def test_loader_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"schema": "nope/1", "requests": []}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_trace(path)

    def test_generator_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            generate_trace(num_requests=0)
        with pytest.raises(ConfigurationError):
            generate_trace(llm_fraction=1.5)


class TestConcurrentSubmission:
    """Many threads racing ``submit()`` on one engine (fleet satellite):
    no lost or duplicated responses, consistent cache accounting, and
    dedup that hands every duplicate the same report."""

    THREADS = 8
    PER_THREAD = 25

    def _requests(self):
        # Four distinct request types, cycled so every thread submits
        # duplicates of each.
        types = [
            ServeRequest(workload="MLP-mnist",
                         ctx=resolve_corner("typical", seed))
            for seed in range(4)
        ]
        return [types[i % len(types)] for i in range(self.PER_THREAD)]

    def test_no_lost_or_duplicate_responses(self):
        import threading

        requests = self._requests()
        futures_by_slot = [None] * self.THREADS
        with ServingEngine(max_pending=16) as engine:

            def submit_all(slot):
                futures_by_slot[slot] = [
                    engine.submit(request) for request in requests
                ]

            pool = [
                threading.Thread(target=submit_all, args=(slot,))
                for slot in range(self.THREADS)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            engine.drain()
            results = [
                [future.result(timeout=60) for future in futures]
                for futures in futures_by_slot
            ]

            total = self.THREADS * self.PER_THREAD
            assert all(result is not None for result in results)
            assert all(len(result) == self.PER_THREAD for result in results)
            assert all(
                response.ok for result in results for response in result
            )
            # Exactly one response per submission, fleet-wide.
            assert engine.stats.requests == total
            # Cache accounting stays consistent under the race: every
            # request did exactly one keyed lookup...
            cache = engine.cache.stats
            assert cache.hits + cache.misses == total
            # ...and each of the four types was evaluated exactly once
            # (dedup + cache, no double evaluation, no lost insert).
            assert engine.scheduler.stats.evaluated == 4
            assert cache.insertions == 4

    def test_duplicates_share_bit_identical_reports(self):
        import threading

        requests = self._requests()
        futures_by_slot = [None] * self.THREADS
        with ServingEngine(max_pending=8) as engine:

            def submit_all(slot):
                futures_by_slot[slot] = [
                    engine.submit(request) for request in requests
                ]

            pool = [
                threading.Thread(target=submit_all, args=(slot,))
                for slot in range(self.THREADS)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            engine.drain()
            collected = [
                [future.result(timeout=60) for future in futures]
                for futures in futures_by_slot
            ]

        # Group every response by its request; reports within a group
        # must be bit-identical no matter which thread asked.
        by_type = {}
        for responses in collected:
            for request, response in zip(requests, responses):
                by_type.setdefault(request, []).append(
                    response.report.to_dict()
                )
        assert len(by_type) == 4
        for reports in by_type.values():
            assert all(report == reports[0] for report in reports)
