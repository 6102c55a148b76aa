"""Tests for the experiment-execution runtime (parallel/cache/metrics).

The load-bearing guarantees:

* **Determinism** — the same seed yields byte-identical sweep/figure
  output under the serial and process-pool backends, and under cold and
  warm caches.
* **Caching** — warm reruns report hits and build zero new markets; the
  on-disk mirror survives a fresh in-memory store.
* **Instrumentation** — the metrics registry counts what actually
  happened, including work done in worker processes.
"""

import dataclasses
import json

import pytest

import repro.runtime
from repro.config import ExecutorConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import figure14_data, theta_sweep
from repro.runtime import cache as runtime_cache
from repro.runtime.cache import CacheStore, config_hash
from repro.runtime.executor import PoolExecutor
from repro.obs import METRICS, RESERVOIR_CAPACITY, Metrics
from repro.runtime.spec import ExperimentSpec, evaluate_spec, run_specs

#: Small config so runtime tests stay fast.
TINY = ExperimentConfig(n_flows=24, seed=3, bundle_counts=(1, 2, 3))


@pytest.fixture
def fresh_cache():
    """An empty, enabled, memory-only global cache for the test's duration."""
    runtime_cache.configure(enabled=True, directory="", fresh=True)
    yield
    runtime_cache.configure(enabled=True, directory="", fresh=True)


def _square(x):
    """Module-level so the process-pool backend can pickle it."""
    return x * x


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2.5}) == config_hash({"b": 2.5, "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert config_hash({"theta": 0.1}) != config_hash({"theta": 0.2})

    def test_tuples_and_lists_agree(self):
        assert config_hash({"b": (1, 2)}) == config_hash({"b": [1, 2]})

    def test_float_precision_matters(self):
        assert config_hash(0.1) != config_hash(0.1 + 1e-12)


class TestCacheStore:
    def test_memory_roundtrip(self):
        store = CacheStore()
        assert store.get("kind", "k") == (False, None)
        store.put("kind", "k", {"v": 1})
        assert store.get("kind", "k") == (True, {"v": 1})

    def test_disk_mirror_survives_new_store(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("result", "abc", [1, 2, 3])
        reborn = CacheStore(tmp_path)
        assert reborn.get("result", "abc") == (True, [1, 2, 3])

    def test_disk_false_stays_memory_only(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("market", "abc", {"big": True}, disk=False)
        reborn = CacheStore(tmp_path)
        assert reborn.get("market", "abc") == (False, None)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("result", "abc", [1])
        path = tmp_path / "result" / "abc.pkl"
        path.write_bytes(b"not a pickle")
        assert CacheStore(tmp_path).get("result", "abc") == (False, None)


def _jobs(jobs=None):
    """The worker count the executors would use — the resolve_jobs heir."""
    return ExecutorConfig.resolve(jobs=jobs).worker_count()


class TestPoolMap:
    def test_serial_preserves_order(self):
        assert PoolExecutor(jobs=1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_process_pool_matches_serial(self):
        items = list(range(20))
        serial = PoolExecutor(jobs=1).map(_square, items)
        parallel = PoolExecutor(jobs=2).map(_square, items)
        assert parallel == serial

    def test_parallelmap_shim_removed(self):
        # The deprecation shim and its module are gone; PoolExecutor.map
        # is the only spelling of the process-map engine.
        with pytest.raises(ImportError):
            from repro.runtime.parallel import ParallelMap  # noqa: F401
        assert "ParallelMap" not in repro.runtime.__all__
        assert "JOBS_ENV" not in repro.runtime.__all__

    def test_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert _jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert _jobs(None) == 3
        assert _jobs(2) == 2  # explicit argument wins
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(ValueError):
            _jobs(None)

    def test_jobs_garbage_env_is_named_error(self, monkeypatch):
        from repro.errors import ConfigurationError, ReproError

        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS.*'auto'"):
            _jobs(None)
        # The named error is part of the library hierarchy, so callers
        # catching ReproError see it too.
        with pytest.raises(ReproError):
            _jobs(None)

    def test_jobs_whitespace_env(self, monkeypatch):
        # Pure whitespace counts as unset; padded integers still parse.
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert _jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "  4  ")
        assert _jobs(None) == 4
        monkeypatch.setenv("REPRO_JOBS", "\t2\n")
        assert _jobs(None) == 2

    def test_zero_means_all_cores(self):
        import os

        assert _jobs(0) == (os.cpu_count() or 1)


class TestMetrics:
    def test_counters_and_stages(self):
        m = Metrics()
        m.incr("x")
        m.incr("x", 2)
        with m.stage("s"):
            pass
        snap = m.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["stages"]["s"]["calls"] == 1

    def test_merge_adds(self):
        a, b = Metrics(), Metrics()
        a.incr("x")
        b.incr("x", 4)
        b.observe("s", 0.5)
        a.merge(b.snapshot())
        assert a.counter("x") == 5
        assert a.stage_seconds("s") == pytest.approx(0.5)

    def test_to_json_roundtrips(self):
        m = Metrics()
        m.incr("x")
        payload = json.loads(m.to_json(extra_field=7))
        assert payload["counters"]["x"] == 1
        assert payload["extra_field"] == 7

    def test_worker_metrics_reach_parent(self, fresh_cache):
        """Markets built inside pool workers are counted in the parent."""
        METRICS.reset()
        specs = [
            ExperimentSpec.from_config(TINY, d, family="ced")
            for d in ("eu_isp", "cdn", "internet2")
        ]
        run_specs(specs, jobs=2, use_cache=False)
        assert METRICS.counter("markets_built") >= 3


class TestLatencyReservoirs:
    def test_observe_and_quantiles(self):
        m = Metrics()
        for ms in range(1, 101):  # 1..100 ms
            m.observe_latency("req", ms / 1000.0)
        q = m.latency_quantiles("req")
        assert q["p50"] == pytest.approx(0.050)
        assert q["p95"] == pytest.approx(0.095)
        assert q["p99"] == pytest.approx(0.099)
        assert q["max"] == pytest.approx(0.100)
        assert m.latency_count("req") == 100

    def test_unseen_series_is_empty(self):
        m = Metrics()
        assert m.latency_quantiles("nope") == {}
        assert m.latency_count("nope") == 0

    def test_reservoir_is_bounded(self):
        """Counts keep growing but memory does not: old samples rotate out."""
        m = Metrics()
        n = RESERVOIR_CAPACITY + 500
        for i in range(n):
            m.observe_latency("req", float(i))
        assert m.latency_count("req") == n
        snap = m.snapshot()
        retained = snap["latencies"]["req"]["samples"]
        assert len(retained) == RESERVOIR_CAPACITY
        # The most recent sample is retained; the very first rotated out.
        assert float(n - 1) in retained
        assert 0.0 not in retained

    def test_latency_context_manager_records_a_sample(self):
        m = Metrics()
        with m.latency("block"):
            pass
        assert m.latency_count("block") == 1
        assert m.latency_quantiles("block")["max"] >= 0.0

    def test_to_json_exports_quantile_summaries(self):
        m = Metrics()
        for ms in (1, 2, 3, 4, 5):
            m.observe_latency("req", ms / 1000.0)
        payload = json.loads(m.to_json())
        entry = payload["latencies"]["req"]
        assert entry["count"] == 5
        assert set(entry) == {"count", "p50", "p95", "p99", "max"}
        assert entry["p50"] == pytest.approx(0.003)
        assert "samples" not in entry  # raw samples stay out of the JSON

    def test_merge_folds_latency_samples_and_counts(self):
        a, b = Metrics(), Metrics()
        a.observe_latency("req", 0.010)
        for _ in range(RESERVOIR_CAPACITY + 10):
            b.observe_latency("req", 0.020)
        a.merge(b.snapshot())
        # True observation count survives even though the ring dropped
        # some of b's samples before the merge.
        assert a.latency_count("req") == 1 + RESERVOIR_CAPACITY + 10
        assert a.latency_quantiles("req")["max"] == pytest.approx(0.020)


class TestSpec:
    def test_from_config_carries_parameters(self):
        spec = ExperimentSpec.from_config(TINY, "cdn", family="logit")
        assert spec.dataset == "cdn"
        assert spec.n_flows == TINY.n_flows
        assert spec.seed == TINY.seed
        assert spec.bundle_counts == TINY.bundle_counts

    def test_digest_ignores_field_order_not_values(self):
        a = ExperimentSpec.from_config(TINY, "eu_isp")
        b = ExperimentSpec.from_config(TINY, "eu_isp")
        c = ExperimentSpec.from_config(TINY, "eu_isp", alpha=2.0)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_market_key_excludes_strategies(self):
        a = ExperimentSpec.from_config(TINY, "eu_isp", strategies=("optimal",))
        b = ExperimentSpec.from_config(
            TINY, "eu_isp", strategies=("profit-weighted",)
        )
        assert a.market_key() == b.market_key()
        assert a.digest() != b.digest()

    def test_unknown_family_and_cost_model(self):
        with pytest.raises(ValueError, match="unknown demand family"):
            ExperimentSpec.from_config(TINY, "eu_isp", family="cobb").demand_model()
        with pytest.raises(ValueError, match="unknown cost model"):
            ExperimentSpec.from_config(
                TINY, "eu_isp", cost_model="quadratic"
            ).cost_model_instance()

    def test_evaluate_spec_is_plain_data(self, fresh_cache):
        result = evaluate_spec(ExperimentSpec.from_config(TINY, "eu_isp"))
        json.dumps(result)  # floats/lists/dicts only
        assert result["capture"]["profit-weighted"][0] == pytest.approx(0.0, abs=1e-9)


class TestDeterminism:
    def test_serial_vs_parallel_sweep_identical(self, fresh_cache):
        """Same seed => byte-identical figure output under both backends."""
        serial = figure14_data(alphas=(1.2, 2.0), config=TINY)
        runtime_cache.configure(fresh=True)
        parallel = figure14_data(
            alphas=(1.2, 2.0), config=dataclasses.replace(TINY, jobs=2)
        )
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_cold_vs_warm_cache_identical(self, fresh_cache):
        cold = theta_sweep("linear", config=TINY, thetas=(0.1, 0.2))
        warm = theta_sweep("linear", config=TINY, thetas=(0.1, 0.2))
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            warm, sort_keys=True
        )

    def test_cache_disabled_identical(self, fresh_cache):
        cached_run = theta_sweep("linear", config=TINY, thetas=(0.1,))
        uncached = theta_sweep(
            "linear", config=dataclasses.replace(TINY, cache=False), thetas=(0.1,)
        )
        assert json.dumps(cached_run, sort_keys=True) == json.dumps(
            uncached, sort_keys=True
        )

    def test_disk_cache_identical_across_stores(self, fresh_cache, tmp_path):
        """A run served from the on-disk mirror matches the original."""
        runtime_cache.configure(directory=tmp_path)
        cold = figure14_data(alphas=(1.2,), config=TINY)
        # New in-memory world, same disk: results come from the mirror.
        runtime_cache.configure(directory=tmp_path, fresh=True)
        METRICS.reset()
        warm = figure14_data(alphas=(1.2,), config=TINY)
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
        assert METRICS.counter("markets_built") == 0


class TestWarmCacheCounters:
    def test_warm_rerun_hits_per_pair_and_builds_nothing(self, fresh_cache):
        """>= 1 result hit per (dataset, family) pair, zero new markets."""
        figure14_data(alphas=(1.2, 2.0), config=TINY)
        METRICS.reset()
        figure14_data(alphas=(1.2, 2.0), config=TINY)
        counters = METRICS.snapshot()["counters"]
        assert counters.get("markets_built", 0) == 0
        assert counters.get("datasets_generated", 0) == 0
        # 2 families x 3 datasets x 2 alphas = 12 work units, all hits.
        assert counters.get("cache_hits:result", 0) == 12
        assert counters.get("cache_misses", 0) == 0

    def test_market_shared_across_strategies(self, fresh_cache):
        """Two specs differing only in strategy share one market."""
        METRICS.reset()
        base = ExperimentSpec.from_config(TINY, "eu_isp")
        evaluate_spec(base)
        built = METRICS.counter("markets_built")
        evaluate_spec(
            ExperimentSpec.from_config(TINY, "eu_isp", strategies=("optimal",))
        )
        assert METRICS.counter("markets_built") == built
