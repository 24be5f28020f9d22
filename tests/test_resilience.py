"""Tests for the fault-tolerance layer: breaker, stores, retries, engine."""

import asyncio

import numpy as np
import pytest

from repro.core import AsteriaConfig, Query
from repro.core.resilience import (
    CircuitBreaker,
    NegativeCache,
    ResilienceManager,
    StaleStore,
)
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_concurrent_engine,
    build_remote,
)
from repro.network import (
    FaultInjector,
    RateLimitExceeded,
    RemoteDataService,
    RemoteUnavailable,
    RetryPolicy,
    TokenBucket,
)
from repro.network.remote import FetchResult


class TestCircuitBreaker:
    def test_stays_closed_below_min_samples(self):
        breaker = CircuitBreaker(min_samples=8)
        for i in range(7):
            breaker.record_failure(float(i))
        assert breaker.state == "closed"
        breaker.record_failure(7.0)
        assert breaker.state == "open"
        assert breaker.opens == 1

    def test_trips_at_failure_threshold(self):
        breaker = CircuitBreaker(failure_threshold=0.5, window=4, min_samples=4)
        breaker.record_success(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "closed"
        breaker.record_failure(0.0)  # 2/4 failed == threshold
        assert breaker.state == "open"

    def test_open_refuses_until_cooldown_then_grants_probes(self):
        breaker = CircuitBreaker(
            window=4, min_samples=4, open_seconds=10.0, half_open_probes=2
        )
        for _ in range(4):
            breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.allow(10.0)  # cooldown elapsed: probe 1
        assert breaker.state == "half_open"
        assert breaker.allow(10.1)  # probe 2
        assert not breaker.allow(10.2)  # probe budget spent
        assert breaker.probes == 2

    def test_probe_successes_close_and_clear_window(self):
        breaker = CircuitBreaker(
            window=4, min_samples=4, open_seconds=1.0, half_open_probes=2
        )
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(2.0) and breaker.allow(2.0)
        breaker.record_success(2.1)
        assert breaker.state == "half_open"
        breaker.record_success(2.2)
        assert breaker.state == "closed"
        assert breaker.closes == 1
        assert breaker.failure_rate == 0.0  # window cleared on close

    def test_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(window=4, min_samples=4, open_seconds=1.0)
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        breaker.record_failure(2.1)
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow(2.5)

    def test_straggler_outcomes_ignored_while_open(self):
        breaker = CircuitBreaker(window=4, min_samples=4, open_seconds=10.0)
        for _ in range(4):
            breaker.record_failure(0.0)
        breaker.record_failure(0.5)  # straggler from a pre-trip flight
        breaker.record_success(0.6)
        assert breaker.state == "open"
        assert breaker.failure_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=4, min_samples=5)
        with pytest.raises(ValueError):
            CircuitBreaker(open_seconds=0.0)


class TestNegativeCache:
    def test_put_check_expiry(self):
        negative = NegativeCache(ttl=2.0)
        negative.put("k", now=1.0)
        assert negative.check("k", 2.9)
        assert not negative.check("k", 3.0)  # expired exactly at now+ttl
        assert len(negative) == 0  # expired entries are dropped on check

    def test_discard_on_success(self):
        negative = NegativeCache(ttl=10.0)
        negative.put("k", 0.0)
        negative.discard("k")
        assert not negative.check("k", 0.1)

    def test_capacity_evicts_oldest(self):
        negative = NegativeCache(ttl=100.0, capacity=2)
        for i, key in enumerate("abc"):
            negative.put(key, float(i))
        assert not negative.check("a", 3.0)
        assert negative.check("b", 3.0) and negative.check("c", 3.0)


class TestStaleStore:
    def fetch(self, text: str) -> FetchResult:
        return FetchResult(
            result=text, latency=0.4, service_latency=0.4, cost=0.0
        )

    def test_put_get_returns_last_known_good(self):
        store = StaleStore()
        store.put("k", self.fetch("v1"), now=0.0)
        store.put("k", self.fetch("v2"), now=1.0)
        entry = store.get("k", now=100.0)
        assert entry.fetch.result == "v2"
        assert entry.stored_at == 1.0

    def test_max_age_bounds_staleness(self):
        store = StaleStore(max_age=5.0)
        store.put("k", self.fetch("v"), now=0.0)
        assert store.get("k", 5.0) is not None
        assert store.get("k", 5.1) is None
        assert len(store) == 0

    def test_capacity_evicts_lru(self):
        store = StaleStore(capacity=2)
        store.put("a", self.fetch("a"), 0.0)
        store.put("b", self.fetch("b"), 1.0)
        store.get("a", 2.0)  # refresh a's recency
        store.put("c", self.fetch("c"), 3.0)
        assert store.get("b", 4.0) is None
        assert store.get("a", 4.0) is not None


def _serve_through(driver: str, fetch_at, now: float):
    """One cold miss through ``driver`` with the remote's ``fetch_at``
    replaced; returns ``(metrics, response or None when degraded)``.

    The lookup costs no simulated time (``ann_latency=0``), so the first
    fetch attempt starts exactly at ``now``.
    """
    config = AsteriaConfig(ann_latency=0.0)
    query = Query("completely distinct alpha topic", fact_id="F")
    if driver == "analytic":
        engine = build_asteria_engine(build_remote(latency=0.4), config=config)
        engine.remote.fetch_at = fetch_at
        response = engine.handle(query, now)
    elif driver == "thread":
        # A real pause scale, so backoffs run as wall-clock Sleep effects.
        engine = build_concurrent_engine(
            build_remote(latency=0.4),
            config=config,
            shards=1,
            workers=1,
            io_pause_scale=0.01,
        )
        engine.remote.fetch_at = fetch_at
        with engine:
            response = engine.handle(query, now)
    else:
        engine = build_async_engine(build_remote(latency=0.4), config=config, shards=1)
        engine.engine.remote.fetch_at = fetch_at
        response = asyncio.run(engine.serve(query, now)).response
    if response is not None and response.degraded is not None:
        response = None
    return engine.metrics, response


@pytest.mark.parametrize("driver", ["analytic", "thread", "async"])
class TestFetchWithRetries:
    """The request core's one transient-fault retry loop, under each driver
    (default policy: 2 retries, 50 ms base backoff)."""

    def test_transient_faults_retried_with_backoff(self, driver):
        calls = []

        def fetch(query, now):
            calls.append(now)
            if len(calls) < 3:
                raise RemoteUnavailable("flaky", latency=0.1)
            return FetchResult(
                result="ok", latency=0.4, service_latency=0.4, cost=0.0
            )

        metrics, response = _serve_through(driver, fetch, now=10.0)
        assert response.result == "ok"
        # two failures (0.1 each) plus backoffs 0.05 and 0.1 before the 0.4
        assert response.latency - response.fetch.latency == pytest.approx(0.35)
        assert calls == pytest.approx([10.0, 10.15, 10.35])
        assert metrics.fetch_failures == 0

    def test_exhausted_retries_degrade_with_waste(self, driver):
        calls = []

        def fetch(query, now):
            calls.append(now)
            raise RemoteUnavailable("down", latency=0.1)

        metrics, response = _serve_through(driver, fetch, now=0.0)
        assert response is None
        assert len(calls) == 3
        assert metrics.failed_requests == metrics.fetch_failures == 1
        assert metrics.degraded_latency.mean == pytest.approx(0.45)  # 3 x 0.1 + 0.15

    def test_rate_limit_is_not_retried(self, driver):
        calls = []

        def fetch(query, now):
            calls.append(now)
            raise RateLimitExceeded("throttled", latency=0.2)

        metrics, response = _serve_through(driver, fetch, now=0.0)
        assert response is None
        assert len(calls) == 1
        assert metrics.failed_requests == metrics.fetch_failures == 1
        assert metrics.degraded_latency.mean == pytest.approx(0.2)


def make_engine(fault_injector=None, config=None, resilience=None, seed=0):
    return build_asteria_engine(
        build_remote(latency=0.4, seed=seed, fault_injector=fault_injector),
        config=config,
        seed=seed,
        resilience=resilience,
    )


class _OnePermitLimiter:
    """Grants exactly one permit ever — a deterministic way to force the
    retry budget to exhaust, independent of worker scheduling order (the
    token bucket assumes monotonic time, which interleaved workers break)."""

    def __init__(self) -> None:
        self.granted = 0

    def try_acquire(self, now: float) -> bool:
        if self.granted == 0:
            self.granted += 1
            return True
        return False

    def next_available(self, now: float) -> float:
        return now + 60.0


class TestRateLimitRegression:
    """``RateLimitExceeded`` past the retry budget must degrade, not escape."""

    def limited_remote(self) -> RemoteDataService:
        return RemoteDataService(
            latency=0.4,
            rate_limiter=_OnePermitLimiter(),
            retry_policy=RetryPolicy(max_retries=0, jitter=0.0),
        )

    def test_token_bucket_exhaustion_degrades(self):
        """The real limiter shape, sequentially: second call is throttled
        past the zero-retry budget and must come back as a degraded
        response, not an exception."""
        remote = RemoteDataService(
            latency=0.4,
            rate_limiter=TokenBucket.per_minute(1),
            retry_policy=RetryPolicy(max_retries=0, jitter=0.0),
        )
        engine = build_asteria_engine(remote)
        first = engine.handle(Query("completely distinct alpha topic"), 0.0)
        assert first.degraded is None
        second = engine.handle(Query("another unrelated beta subject"), 0.5)
        assert second.degraded == "failed"
        assert second.result == ""
        assert engine.metrics.failed_requests == 1
        assert engine.metrics.fetch_failures == 1

    def test_worker_pool_degrades_instead_of_raising(self):
        engine = build_concurrent_engine(self.limited_remote(), workers=2)
        queries = [
            Query(f"unrelated subject number {i} entirely", fact_id=f"G{i}")
            for i in range(6)
        ]
        with engine:
            report = engine.run_closed_loop(queries, time_step=0.01)
        assert report.requests == 6
        assert report.failed >= 1
        assert report.served_fraction < 1.0
        assert engine.metrics.fetch_failures >= 1


class TestSyncEngineBreakerTransitions:
    def test_closed_open_halfopen_closed_cycle(self):
        """Deterministic breaker walk on the analytic engine: a blackout
        trips it, rejections follow, recovery probes close it."""
        resilience = ResilienceManager(
            breaker=CircuitBreaker(
                failure_threshold=0.5,
                window=8,
                min_samples=4,
                open_seconds=5.0,
                half_open_probes=2,
            ),
        )
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(0.0, 10.0)]),
            resilience=resilience,
        )
        for i in range(4):
            response = engine.handle(
                Query(f"unrelated subject number {i} entirely"), float(i)
            )
            assert response.degraded == "failed"
        assert resilience.breaker.state == "open"
        assert engine.metrics.fetch_failures == 4
        # 4 flights x 3 attempts each (2 retries) all hit the blackout.
        faults_so_far = engine.remote.fault_injector.total_faults
        assert faults_so_far == 12

        rejected = engine.handle(Query("one more distinct question"), 4.0)
        assert rejected.degraded == "failed"
        assert engine.metrics.breaker_open_rejects == 1
        # Refused up-front: no new flight reached the injector.
        assert engine.remote.fault_injector.total_faults == faults_so_far

        # Past the blackout and the cooldown: probes succeed and close it.
        for i, t in enumerate((20.0, 21.0)):
            probe = engine.handle(Query(f"fresh probe question {i} here"), t)
            assert probe.degraded is None
        assert resilience.breaker.state == "closed"
        assert resilience.breaker.closes == 1

    def test_degraded_outcomes_do_not_touch_hit_miss_stats(self):
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(0.0, 100.0)])
        )
        for i in range(3):
            engine.handle(Query(f"unrelated subject number {i} entirely"), float(i))
        # Like overloaded/deadline_exceeded, degraded outcomes bypass
        # record_lookup entirely: no request/hit/miss is counted.
        assert engine.metrics.requests == 0
        assert engine.metrics.hits == 0
        assert engine.metrics.misses == 0
        assert engine.metrics.failed_requests == 3
        assert engine.metrics.total_latency.count == 0
        assert engine.metrics.degraded_latency.count == 3


class TestStaleServing:
    def test_expired_entry_served_as_explicit_stale_hit(self):
        injector = FaultInjector(blackouts=[(4.0, 100.0)])
        engine = make_engine(
            fault_injector=injector, config=AsteriaConfig(default_ttl=1.0)
        )
        query = Query("who painted the mona lisa", fact_id="F")
        first = engine.handle(query, 0.0)
        assert first.degraded is None
        misses_before = engine.metrics.misses

        stale = engine.handle(query, 5.0)  # TTL expired, backend dark
        assert stale.degraded == "stale_hit"
        assert stale.result == first.result
        assert engine.metrics.stale_hits == 1
        assert engine.metrics.misses == misses_before  # not a counted miss

    def test_no_stale_fallback_yields_explicit_failure(self):
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(4.0, 100.0)]),
            config=AsteriaConfig(default_ttl=1.0),
            resilience=ResilienceManager(stale_serve=False),
        )
        query = Query("who painted the mona lisa", fact_id="F")
        engine.handle(query, 0.0)
        response = engine.handle(query, 5.0)
        assert response.degraded == "failed"
        assert response.result == ""
        assert engine.metrics.stale_hits == 0

    def test_negative_cache_and_background_refresh(self):
        """A negative-cached key serves stale and revalidates in background;
        once the refresh lands, requests hit the cache again."""
        injector = FaultInjector(blackouts=[(4.9, 5.5)])
        engine = make_engine(
            fault_injector=injector, config=AsteriaConfig(default_ttl=1.0)
        )
        query = Query("who painted the mona lisa", fact_id="F")
        first = engine.handle(query, 0.0)

        failed_flight = engine.handle(query, 5.0)  # in the blackout
        assert failed_flight.degraded == "stale_hit"
        assert engine.metrics.fetch_failures == 1

        # Within negative TTL: refused up-front, served stale, refresh runs.
        negative = engine.handle(query, 6.0)
        assert negative.degraded == "stale_hit"
        assert engine.metrics.negative_cache_hits == 1
        assert engine.metrics.background_refreshes == 1

        # The background refresh re-admitted the entry: fresh hit again.
        recovered = engine.handle(query, 6.5)
        assert recovered.degraded is None
        assert recovered.served_from_cache
        assert recovered.result == first.result


class TestStatsParity:
    def test_disabled_faults_replay_baseline_exactly(self):
        """A zero-rate injector plus an attached manager must leave every
        metric byte-identical to a run without them."""
        rng = np.random.default_rng(0)
        ranks = np.minimum(rng.zipf(1.3, size=60), 32)
        queries = [
            Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
            for rank in ranks
        ]
        baseline = make_engine()
        shadowed = make_engine(
            fault_injector=FaultInjector(seed=123),
            resilience=ResilienceManager(
                breaker=CircuitBreaker(window=16, min_samples=8), seed=99
            ),
        )
        for i, query in enumerate(queries):
            base = baseline.handle(query, i * 0.5)
            shadow = shadowed.handle(query, i * 0.5)
            assert shadow.result == base.result
            assert shadow.latency == pytest.approx(base.latency)
        assert shadowed.metrics.summary() == baseline.metrics.summary()
        assert shadowed.metrics.stale_hits == 0
        assert shadowed.metrics.breaker_open_rejects == 0
        assert shadowed.metrics.negative_cache_hits == 0
        assert shadowed.metrics.background_refreshes == 0
        assert shadowed.metrics.failed_requests == 0
