"""Engines: the data client + cache + remote-fallback orchestration (§3.3).

Three engines implement one interface (the experiments' system axis):

``AsteriaEngine``
    The full system: two-stage semantic lookup, admission on miss, LCFU
    eviction, optional Markov prefetching and threshold recalibration. With
    ``config.ann_only`` it degrades into the paper's Agent_ANN ablation.
``ExactEngine``
    Agent_exact — a traditional exact-match KV cache at the tool boundary.
``VanillaEngine``
    Agent_vanilla — no cache; every request goes to the remote service.

Each engine supports two execution styles, mirroring
:class:`~repro.network.remote.RemoteDataService`:

* ``handle(query, now)`` — analytic, returns a complete
  :class:`EngineResponse` with simulated latency;
* ``process(sim, query)`` — a generator for the discrete-event simulator,
  where queueing, rate limits, prefetch asynchrony, and GPU contention are
  real.
"""

from __future__ import annotations

from typing import Generator, Protocol, Sequence, runtime_checkable

from repro.core.admission import AdmissionPolicy, AlwaysAdmit
from repro.core.cache import AsteriaCache, ExactCache, canonical_text
from repro.core.config import AsteriaConfig
from repro.core.metrics import EngineMetrics
from repro.core.prefetch import MarkovPrefetcher, QuerySignature
from repro.core.recalibration import ThresholdRecalibrator
from repro.core import pipeline
from repro.core.pipeline import EngineResponse
from repro.core.resilience import ResilienceManager
from repro.core.types import CacheLookup, FetchResult, Query
from repro.embedding.tokenizer import SimpleTokenizer
from repro.network.remote import RemoteDataService, RemoteFetchError


@runtime_checkable
class KnowledgeEngine(Protocol):
    """The system axis of every experiment."""

    name: str
    metrics: EngineMetrics

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query analytically starting at ``now``."""
        ...

    def process(self, sim, query: Query) -> Generator:
        """Resolve one query as a simulated process (drive with yield from)."""
        ...


@runtime_checkable
class JudgeExecutor(Protocol):
    """Runs judger work somewhere (fixed latency, or a shared GPU)."""

    def run(self, sim, judged: int) -> Generator:
        """A generator that completes when ``judged`` validations are done."""
        ...


class _ConfigLatencyExecutor:
    """Default executor: judger latency straight from the config constants."""

    def __init__(self, config: AsteriaConfig) -> None:
        self._config = config

    def run(self, sim, judged: int) -> Generator:
        if judged > 0:
            yield sim.timeout(
                self._config.judge_latency_base
                + self._config.judge_latency_per_candidate * judged
            )
        return None


def _is_correct(served_truth: str | None, fact_id: str | None) -> bool:
    """Ground truth comparison; unknown annotations count as correct."""
    if served_truth is None or fact_id is None:
        return True
    return served_truth == fact_id


class AsteriaEngine:
    """The full Asteria system behind the data client.

    Parameters
    ----------
    cache:
        The semantic cache (owns Sine and the eviction policy).
    remote:
        The remote data service used on misses and for prefetching.
    config:
        Engine tunables; the cache's thresholds are driven from here
        (``config.tau_sim/tau_lsm`` overwrite the Sine values at
        construction so one object configures the whole engine).
    prefetcher:
        Optional Markov prefetcher; created automatically when
        ``config.prefetch_enabled``.
    recalibrator:
        Optional threshold recalibrator; created automatically when
        ``config.recalibration_enabled``.
    judge_executor:
        Where judger work runs in process mode (default: fixed-latency from
        config; the serving package provides a GPU-backed executor).
    admission:
        Which fetched results enter the cache (default
        :class:`~repro.core.admission.AlwaysAdmit`).
    resilience:
        Fault-tolerance state for the miss path (circuit breaker, negative
        cache, stale store, transient-fault retries). A default
        :class:`~repro.core.resilience.ResilienceManager` is built when
        omitted; share one instance across front-ends that talk to the same
        backend.
    """

    def __init__(
        self,
        cache: AsteriaCache,
        remote: RemoteDataService,
        config: AsteriaConfig | None = None,
        prefetcher: MarkovPrefetcher | None = None,
        recalibrator: ThresholdRecalibrator | None = None,
        judge_executor: JudgeExecutor | None = None,
        admission: AdmissionPolicy | None = None,
        resilience: ResilienceManager | None = None,
        name: str = "asteria",
    ) -> None:
        self.cache = cache
        self.remote = remote
        self.config = config if config is not None else AsteriaConfig()
        self.cache.sine.tau_sim = self.config.tau_sim
        self.cache.sine.tau_lsm = self.config.tau_lsm
        self.cache.sine.max_candidates = self.config.max_candidates
        if prefetcher is None and self.config.prefetch_enabled:
            prefetcher = MarkovPrefetcher(
                confidence=self.config.prefetch_confidence,
                max_per_event=self.config.prefetch_max_per_event,
            )
        self.prefetcher = prefetcher
        if recalibrator is None and self.config.recalibration_enabled:
            recalibrator = ThresholdRecalibrator(
                target_precision=self.config.target_precision,
                sample_size=self.config.recalibration_samples,
            )
        self.recalibrator = recalibrator
        self.judge_executor = judge_executor or _ConfigLatencyExecutor(self.config)
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.resilience = resilience if resilience is not None else ResilienceManager()
        #: Optional request tracing: assign a TraceLog to start recording.
        self.trace = None
        #: Optional stage tracer (span trees; see :mod:`repro.obs.trace`).
        #: Attach via :meth:`set_tracer` so the cache and Sine stages are
        #: wired too; the default None costs one branch per stage.
        self.tracer = None
        self.name = name
        self.metrics = EngineMetrics()
        self._eval_log: list[tuple[str, float, str | None, str | None]] = []
        self._last_recalibration = 0.0
        self._inflight_prefetch: set[str] = set()
        #: Semantic fingerprint -> pending fetch event (miss coalescing).
        self._inflight_fetches: dict = {}
        self._fingerprint_tokenizer = SimpleTokenizer()

    # -- observability ----------------------------------------------------------
    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer to the engine and,
        when the cache supports it, to the cache and Sine stages."""
        self.tracer = tracer
        set_cache_tracer = getattr(self.cache, "set_tracer", None)
        if set_cache_tracer is not None:
            set_cache_tracer(tracer)

    # -- shared internals -------------------------------------------------------
    def _is_cacheable(self, query: Query) -> bool:
        tools = self.config.cacheable_tools
        return tools is None or query.tool in tools

    def _should_admit(self, query: Query, fetch: FetchResult, now: float) -> bool:
        return self.config.admit_on_miss and self.admission.admit(query, fetch, now)

    # -- fault tolerance ---------------------------------------------------------
    def _resilience_key(self, query: Query) -> tuple[str, str]:
        """Stale-store / negative-cache identity: tool + canonical text."""
        return (query.tool, canonical_text(query.text))

    def _account_failure(self, key: tuple, exc: Exception, now: float) -> None:
        """Record one failed flight exactly once.

        The same exception object reaches every coalesced follower of a
        failed leader flight, so the marker keeps breaker windows and
        ``fetch_failures`` counting *flights*, not disappointed callers.
        """
        if getattr(exc, "_accounted", False):
            return
        exc._accounted = True  # type: ignore[attr-defined]
        self.metrics.fetch_failures += 1
        self.resilience.on_failure(key, now)

    def _record_degraded(
        self, response: EngineResponse, query: Query, now: float = 0.0
    ) -> None:
        """Degraded outcomes bypass ``record_lookup`` entirely — like PR 3's
        ``overloaded``/``deadline_exceeded``, they never touch the hit/miss
        counters, accuracy, or the total-latency reservoir, so stats stay
        comparable across fault configurations."""
        if self.trace is not None:
            self.trace.record(now, query, response)
        self.metrics.degraded_latency.add(response.latency)

    def _fingerprint(self, query: Query):
        """Semantic identity proxy for coalescing (content stems + tool)."""
        return (
            query.tool,
            frozenset(self._fingerprint_tokenizer.content_tokens(query.text)),
        )

    def _fetch_coalesced(self, sim, query: Query):
        """Fetch with thundering-herd suppression (process mode only).

        Returns ``(fetch, coalesced)``: followers wait on the leader's
        in-flight fetch and reuse its result without a remote call.
        """
        key = self._fingerprint(query)
        pending = self._inflight_fetches.get(key)
        if pending is not None:
            fetch = yield pending
            self.metrics.coalesced_misses += 1
            return fetch, True
        event = sim.event()
        self._inflight_fetches[key] = event
        try:
            fetch = yield from self.remote.fetch(sim, query)
        except BaseException as exc:
            del self._inflight_fetches[key]
            event.defused = True
            event.fail(exc)
            raise
        del self._inflight_fetches[key]
        event.succeed(fetch)
        return fetch, False

    def _bypass_response(self, fetch: FetchResult, latency: float) -> EngineResponse:
        lookup = CacheLookup(status="bypass", result=None, latency=0.0)
        return EngineResponse(
            result=fetch.result, latency=latency, lookup=lookup, fetch=fetch
        )

    def _lookup(self, query: Query, now: float) -> tuple[CacheLookup, object]:
        """Run the two-stage lookup; returns (public lookup record, element)."""
        sine_result = self.cache.lookup(query, now, ann_only=self.config.ann_only)
        return self._lookup_record(query, sine_result)

    def _lookup_record(self, query: Query, sine_result) -> tuple[CacheLookup, object]:
        """Turn a SineResult into the public lookup record + eval-log entry.

        Shared verbatim by the scalar and batch paths so latency attribution
        and accuracy accounting cannot drift between them.
        """
        judged = sine_result.judged
        check_latency = self.config.cache_check_latency(judged)
        element = sine_result.match
        if element is None:
            status, result, element_id, truth_match = "miss", None, None, None
        else:
            status, result, element_id = "hit", element.value, element.element_id
            truth_match = _is_correct(element.truth_key, query.fact_id)
            if sine_result.verdicts:
                accepted = sine_result.verdicts[-1]
                self._eval_log.append(
                    (query.text, accepted.score, element.truth_key, query.fact_id)
                )
            if element.prefetched and element.frequency == 1:
                self.metrics.prefetch_hits += 1
        lookup = CacheLookup(
            status=status,
            result=result,
            latency=check_latency,
            ann_latency=self.config.ann_latency,
            judge_latency=check_latency - self.config.ann_latency,
            candidates=len(sine_result.candidates),
            judged=judged,
            element_id=element_id,
            truth_match=truth_match,
        )
        return lookup, element

    def _record_response(
        self, response: EngineResponse, query: Query, now: float = 0.0
    ) -> None:
        if self.trace is not None:
            self.trace.record(now, query, response)
        metrics = self.metrics
        metrics.record_lookup(response.lookup.status)
        metrics.total_latency.add(response.latency)
        if response.lookup.status == "bypass":
            if response.fetch is not None:
                metrics.remote_latency.add(response.fetch.latency)
            return
        metrics.cache_check_latency.add(response.lookup.latency)
        if response.lookup.is_hit:
            metrics.hit_latency.add(response.latency)
            if response.lookup.truth_match:
                metrics.served_correct += 1
            else:
                metrics.served_incorrect += 1
        else:
            metrics.miss_latency.add(response.latency)
            metrics.served_correct += 1  # Remote fetches are authoritative.
            if response.fetch is not None:
                metrics.remote_latency.add(response.fetch.latency)
        # Keep the eviction/expiration counters in sync with the cache.
        metrics.evictions = self.cache.stats.evictions
        metrics.expirations = self.cache.stats.expirations

    def _maybe_recalibrate(self, now: float) -> None:
        if self.recalibrator is None:
            return
        if now - self._last_recalibration < self.config.recalibration_interval:
            return
        self._last_recalibration = now
        recent = self._eval_log[-200:]
        labelled = self.recalibrator.ingest(recent)
        if labelled:
            # Ground-truth fetches are real remote calls (Algorithm 1 line 4).
            for _ in range(labelled):
                self.remote.cost_meter.charge_api_call(
                    self.remote.cost_per_call, tool="ground-truth"
                )
        new_threshold = self.recalibrator.recalibrate(self.cache.sine.tau_lsm)
        if new_threshold != self.cache.sine.tau_lsm:
            self.cache.sine.tau_lsm = new_threshold
        if self.config.finetune_enabled:
            self.recalibrator.fine_tune(self.cache.sine.judger)
        self.metrics.recalibrations += 1

    # -- analytic execution: the inline driver of the request core -------------
    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query analytically starting at simulated time ``now``.

        Never raises on remote failure: faults, exhausted retries, and an
        open breaker all degrade into an explicit ``stale_hit``/``failed``
        response instead of escaping the serve loop.
        """
        return pipeline.drive(pipeline.request(self, query, now), self._apply)

    def handle_batch(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve many queries at one simulated time with shared stage-1 work.

        The batch runs one ``embed_batch`` and one ANN ``search_batch`` over
        the cacheable queries, then completes each query *in input order*
        through exactly the scalar code path (judging, admission, metrics,
        prefetch), so responses and metric deltas equal N :meth:`handle`
        calls at the same ``now``.

        If the cache mutates mid-batch (a miss admits an element, a prefetch
        lands, an eviction or expiry runs), the ANN snapshot may be stale for
        the remaining queries; those fall back to the scalar lookup, keeping
        results exact. Hit-heavy batches — the steady state the paper's
        latency argument rests on — keep the fully shared fast path.
        """
        queries = list(queries)
        prepared = self._prepare_batch(queries, now)
        return [
            pipeline.drive(
                pipeline.request(self, query, now, snapshot, batched=True),
                self._apply,
            )
            for query, snapshot in zip(queries, prepared)
        ]

    def _prepare_batch(self, queries: Sequence[Query], now: float) -> list:
        """One shared embed + ANN pass over the cacheable ``queries``.

        Returns, per query, the ``(hits, stamp)`` snapshot the request core
        validates before trusting it (None for uncacheable queries). The
        cache owns the stage-1 batching (a sharded cache groups the texts so
        each shard still gets one embed+ANN pass).
        """
        cacheable = [self._is_cacheable(query) for query in queries]
        texts = [query.text for query, ok in zip(queries, cacheable) if ok]
        if not texts:
            return [None] * len(queries)
        self.cache.remove_expired(now)
        batch_hits = iter(self.cache.prepare_batch(texts))
        stamp = self._mutation_stamp()
        return [(next(batch_hits), stamp) if ok else None for ok in cacheable]

    def _mutation_stamp(self) -> tuple[int, int, int]:
        """Cache-population fingerprint for batch snapshot invalidation."""
        stats = self.cache.stats
        return (stats.inserts, stats.evictions, stats.expirations)

    def _apply(self, effect):
        """Perform one request-core effect inline (simulated time only)."""
        kind = type(effect)
        if kind is pipeline.Lookup:
            if effect.hits is None:
                return self.cache.lookup(
                    effect.query, effect.now, ann_only=self.config.ann_only
                )
            return self.cache.lookup_prepared(
                effect.query, effect.hits, effect.now, ann_only=self.config.ann_only
            )
        if kind is pipeline.Fetch:
            return self.remote.fetch_at(effect.query, effect.at)
        if kind is pipeline.Admit:
            self.cache.insert(
                effect.query, effect.fetch, effect.arrival,
                prefetched=effect.prefetched,
            )
        elif kind is pipeline.Flight:
            return pipeline.drive(effect.leader, self._apply), False
        elif kind is pipeline.Spawn:
            # No background to run it in: the task runs now, charged to no
            # request's latency.
            pipeline.drive(effect.task, self._apply)
        # Sleep: backoff is simulated time the core already charged.
        return None

    # -- discrete-event execution --------------------------------------------------------
    def process(self, sim, query: Query) -> Generator:
        """Resolve one query on the simulator; returns an EngineResponse.

        Like :meth:`handle`, remote failures degrade instead of escaping;
        the DES path skips the engine-level retry loop (the remote's own
        throttle loop already retries on the simulator clock) and maps a
        failed flight straight to the stale/failed fallback.
        """
        start = sim.now
        self._maybe_recalibrate(sim.now)
        if not self._is_cacheable(query):
            key = self._resilience_key(query)
            try:
                fetch = yield from self.remote.fetch(sim, query)
            except RemoteFetchError as exc:
                self._account_failure(key, exc, sim.now)
                lookup = CacheLookup(status="bypass", result=None, latency=0.0)
                return self._degrade_process(sim, query, lookup, key, start)
            self.resilience.on_success(key, fetch, sim.now)
            response = self._bypass_response(fetch, sim.now - start)
            self._record_response(response, query, sim.now)
            return response
        yield sim.timeout(self.config.ann_latency)
        lookup, element = self._lookup(query, sim.now)
        if lookup.judged > 0 and not self.config.ann_only:
            yield from self.judge_executor.run(sim, lookup.judged)
        # Recompute the check latency from real elapsed time (the executor
        # may have queued behind agent work on a shared GPU).
        check_latency = sim.now - start
        lookup = CacheLookup(
            status=lookup.status,
            result=lookup.result,
            latency=check_latency,
            ann_latency=self.config.ann_latency,
            judge_latency=check_latency - self.config.ann_latency,
            candidates=lookup.candidates,
            judged=lookup.judged,
            element_id=lookup.element_id,
            truth_match=lookup.truth_match,
        )
        if lookup.is_hit:
            response = EngineResponse(
                result=lookup.result or "", latency=sim.now - start, lookup=lookup
            )
        else:
            key = self._resilience_key(query)
            verdict = self.resilience.admit(key, sim.now)
            if verdict != "allow":
                if verdict == "negative":
                    self.metrics.negative_cache_hits += 1
                else:
                    self.metrics.breaker_open_rejects += 1
                return self._degrade_process(
                    sim, query, lookup, key, start, refresh=True
                )
            try:
                if self.config.coalesce_misses:
                    fetch, coalesced = yield from self._fetch_coalesced(sim, query)
                else:
                    fetch = yield from self.remote.fetch(sim, query)
                    coalesced = False
            except RemoteFetchError as exc:
                self._account_failure(key, exc, sim.now)
                return self._degrade_process(sim, query, lookup, key, start)
            # The coalescing leader admits; followers reuse its entry.
            if not coalesced:
                self.resilience.on_success(key, fetch, sim.now)
                if self._should_admit(query, fetch, sim.now):
                    self.cache.insert(query, fetch, sim.now)
            response = EngineResponse(
                result=fetch.result,
                latency=sim.now - start,
                lookup=lookup,
                fetch=fetch,
            )
        self._record_response(response, query, sim.now)
        canonical = element.key if element is not None else query.text
        self._spawn_prefetches(sim, query, canonical)
        return response

    def _degrade_process(
        self, sim, query: Query, lookup: CacheLookup, key: tuple, start: float,
        refresh: bool = False,
    ) -> EngineResponse:
        """DES degradation: stale/failed response plus an optional
        background refresh process (the DES twin of the analytic inline
        refresh). Records the response itself; callers just return it."""
        at = sim.now
        entry = self.resilience.stale_for(key, at)
        if entry is not None:
            self.metrics.stale_hits += 1
            response = EngineResponse(
                result=entry.fetch.result,
                latency=at - start,
                lookup=lookup,
                degraded="stale_hit",
            )
            if refresh and self.resilience.allow_probe(at):
                self.metrics.background_refreshes += 1
                sim.process(
                    self._refresh_process(sim, query, key), name="stale-refresh"
                )
        else:
            self.metrics.failed_requests += 1
            response = EngineResponse(
                result="", latency=at - start, lookup=lookup, degraded="failed"
            )
        self._record_degraded(response, query, at)
        return response

    def _refresh_process(self, sim, query: Query, key: tuple) -> Generator:
        try:
            fetch = yield from self.remote.fetch(sim, query)
        except RemoteFetchError as exc:
            self._account_failure(key, exc, sim.now)
            return
        self.resilience.on_success(key, fetch, sim.now)
        if self._should_admit(query, fetch, sim.now):
            self.cache.insert(query, fetch, sim.now)

    def _spawn_prefetches(self, sim, query: Query, canonical: str) -> None:
        if self.prefetcher is None:
            return
        for signature in self.prefetcher.observe(query, canonical):
            if signature.text in self._inflight_prefetch:
                continue
            target = signature.to_query()
            if self.cache.contains_semantic(target):
                continue
            self._inflight_prefetch.add(signature.text)
            sim.process(self._prefetch_process(sim, target), name="prefetch")
            self.metrics.prefetches_issued += 1

    def _prefetch_process(self, sim, target: Query) -> Generator:
        try:
            fetch = yield from self.remote.fetch(sim, target)
            # The world may have cached it meanwhile; keep the fresher copy out.
            if not self.cache.contains_semantic(target):
                self.cache.insert(target, fetch, sim.now, prefetched=True)
        except RemoteFetchError as exc:
            # Speculative flight: drop it, but feed the breaker.
            self._account_failure(self._resilience_key(target), exc, sim.now)
        finally:
            self._inflight_prefetch.discard(target.text)

    def __repr__(self) -> str:
        return (
            f"AsteriaEngine(name={self.name!r}, items={len(self.cache)}, "
            f"hit_rate={self.metrics.hit_rate:.3f})"
        )


class ExactEngine:
    """Agent_exact: a traditional exact-match cache at the tool boundary.

    ``lookup_latency`` models the (tiny) local KV lookup cost.
    """

    def __init__(
        self,
        cache: ExactCache,
        remote: RemoteDataService,
        lookup_latency: float = 0.002,
        name: str = "exact",
    ) -> None:
        if lookup_latency < 0:
            raise ValueError("lookup_latency must be >= 0")
        self.cache = cache
        self.remote = remote
        self.lookup_latency = lookup_latency
        self.name = name
        self.metrics = EngineMetrics()

    def _lookup(self, query: Query, now: float) -> CacheLookup:
        element = self.cache.lookup(query, now)
        if element is not None:
            return CacheLookup(
                status="hit",
                result=element.value,
                latency=self.lookup_latency,
                element_id=element.element_id,
                truth_match=_is_correct(element.truth_key, query.fact_id),
            )
        return CacheLookup(status="miss", result=None, latency=self.lookup_latency)

    def _record(self, response: EngineResponse) -> None:
        self.metrics.record_lookup(response.lookup.status)
        self.metrics.total_latency.add(response.latency)
        self.metrics.cache_check_latency.add(response.lookup.latency)
        if response.lookup.is_hit:
            self.metrics.hit_latency.add(response.latency)
            if response.lookup.truth_match:
                self.metrics.served_correct += 1
            else:
                self.metrics.served_incorrect += 1
        else:
            self.metrics.miss_latency.add(response.latency)
            self.metrics.served_correct += 1
            if response.fetch is not None:
                self.metrics.remote_latency.add(response.fetch.latency)
        self.metrics.evictions = self.cache.stats.evictions
        self.metrics.expirations = self.cache.stats.expirations

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query: exact-key lookup, else remote fetch."""
        lookup = self._lookup(query, now)
        if lookup.is_hit:
            response = EngineResponse(
                result=lookup.result or "", latency=lookup.latency, lookup=lookup
            )
        else:
            fetch = self.remote.fetch_at(query, now + lookup.latency)
            self.cache.insert(query, fetch, now + lookup.latency + fetch.latency)
            response = EngineResponse(
                result=fetch.result,
                latency=lookup.latency + fetch.latency,
                lookup=lookup,
                fetch=fetch,
            )
        self._record(response)
        return response

    def process(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`handle`."""
        start = sim.now
        yield sim.timeout(self.lookup_latency)
        lookup = self._lookup(query, sim.now)
        if lookup.is_hit:
            response = EngineResponse(
                result=lookup.result or "", latency=sim.now - start, lookup=lookup
            )
        else:
            fetch = yield from self.remote.fetch(sim, query)
            self.cache.insert(query, fetch, sim.now)
            response = EngineResponse(
                result=fetch.result,
                latency=sim.now - start,
                lookup=lookup,
                fetch=fetch,
            )
        self._record(response)
        return response

    def __repr__(self) -> str:
        return f"ExactEngine(items={len(self.cache)}, hit_rate={self.metrics.hit_rate:.3f})"


class VanillaEngine:
    """Agent_vanilla: no cache — every request is a remote call."""

    def __init__(self, remote: RemoteDataService, name: str = "vanilla") -> None:
        self.remote = remote
        self.name = name
        self.metrics = EngineMetrics()

    def _record(self, response: EngineResponse) -> None:
        self.metrics.record_lookup("miss")
        self.metrics.total_latency.add(response.latency)
        self.metrics.miss_latency.add(response.latency)
        self.metrics.served_correct += 1
        if response.fetch is not None:
            self.metrics.remote_latency.add(response.fetch.latency)

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Every request is a remote call."""
        fetch = self.remote.fetch_at(query, now)
        response = EngineResponse(
            result=fetch.result,
            latency=fetch.latency,
            lookup=CacheLookup(status="miss", result=None, latency=0.0),
            fetch=fetch,
        )
        self._record(response)
        return response

    def process(self, sim, query: Query) -> Generator:
        """DES variant of :meth:`handle`."""
        start = sim.now
        fetch = yield from self.remote.fetch(sim, query)
        response = EngineResponse(
            result=fetch.result,
            latency=sim.now - start,
            lookup=CacheLookup(status="miss", result=None, latency=0.0),
            fetch=fetch,
        )
        self._record(response)
        return response

    def __repr__(self) -> str:
        return f"VanillaEngine(calls={self.remote.calls})"
