"""The Asteria request pipeline, written once and driven by every engine.

The cache interface of the paper is one path: a semantic lookup that either
hits, or misses into a remote fetch that is admitted (and evicts under LCFU)
before it is served. This module holds that path as plain generators that
perform no I/O. Wherever the path needs the outside world it *yields an
effect* — a small object naming the operation — and the driver that is
stepping it performs the operation and sends the result back (or throws the
exception in):

============  ==========================================  =================
effect        asks the driver to                          sends back
============  ==========================================  =================
``Lookup``    run the two-stage Sine lookup (or finish    ``SineResult``
              one from a batch's prepared stage-1 hits)
``Fetch``     make one remote call at simulated time      ``FetchResult``
``Sleep``     wait out a retry backoff                    None
``Admit``     insert a fetched result into the cache      None
``Flight``    run a leader sub-pipeline once per          ``(value, shared)``
              concurrent key (single-flight)
``Spawn``     start a sub-pipeline off the caller's path  None
============  ==========================================  =================

Every *decision* stays here: cacheable vs bypass, the lookup record, the
breaker and negative-cache gate, the transient-fault retry loop, degrading
to ``stale_hit`` or ``failed``, success accounting, admission, the
``remote_fetch`` / ``admit`` / ``stale_refresh`` spans, and metric
recording. The drivers differ only in how effects run:
:class:`~repro.core.engine.AsteriaEngine` applies them inline with
:func:`drive`, the thread pool blocks (stepping the core under its record
lock), and the asyncio front-end awaits them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Generator

from repro.core.resilience import FetchFailed
from repro.core.types import CacheLookup, FetchResult, Query
from repro.network.faults import InjectedFault
from repro.network.remote import RemoteFetchError


@dataclass(frozen=True, slots=True)
class EngineResponse:
    """What the agent gets back for one tool call.

    ``degraded`` is None on the normal path; a fault-degraded response sets
    it to ``"stale_hit"`` (served from the last-known-good store, possibly
    past its TTL) or ``"failed"`` (no fallback available — ``result`` is
    empty and the caller must handle the miss itself).
    """

    result: str
    latency: float
    lookup: CacheLookup
    fetch: FetchResult | None = None
    degraded: str | None = None

    @property
    def served_from_cache(self) -> bool:
        return self.lookup.is_hit


# -- effects --------------------------------------------------------------------
@dataclass(slots=True)
class Lookup:
    """Sine lookup of ``query`` at ``now``; ``hits`` are prepared stage-1
    ANN hits from a batch pass that is still valid, or None."""

    query: Query
    now: float
    hits: list | None = None


@dataclass(slots=True)
class Fetch:
    """One remote call for ``query`` starting at simulated time ``at``."""

    query: Query
    at: float


@dataclass(slots=True)
class Sleep:
    """A retry backoff of ``seconds`` simulated time (already charged to
    the request's latency; real drivers scale it to a wall-clock pause)."""

    seconds: float


@dataclass(slots=True)
class Admit:
    """Insert ``fetch`` for ``query`` into the cache as of ``arrival``."""

    query: Query
    fetch: FetchResult
    arrival: float
    prefetched: bool = False


@dataclass(slots=True)
class Flight:
    """Run ``leader`` (a sub-pipeline) once per concurrent ``key``; callers
    that overlap an in-flight leader share its value (``shared=True``)."""

    key: tuple
    leader: Generator


@dataclass(slots=True)
class Spawn:
    """Run ``task`` (a sub-pipeline) off the caller's latency path."""

    task: Generator


# -- the synchronous driver loop --------------------------------------------------
def drive(core: Generator, apply, lock=None):
    """Step ``core`` to completion, answering each effect with ``apply``.

    An exception raised by ``apply`` is thrown into the core, which decides
    what it means. With ``lock``, every core step runs under it while every
    effect runs outside it (the thread driver's rule).
    """
    value = error = None
    while True:
        if lock is not None:
            lock.acquire()
        try:
            effect = core.send(value) if error is None else core.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if lock is not None:
                lock.release()
        try:
            value, error = apply(effect), None
        except Exception as exc:
            value, error = None, exc


# -- the drivers' shared surface --------------------------------------------------
class Driver:
    """Base of the serving front-ends that drive the core over a wrapped
    :class:`~repro.core.engine.AsteriaEngine`, exposing its name, metrics,
    cache and tracer.

    Prefetching and recalibration must be disabled: both mutate
    engine-global state on the request path and belong to the sequential
    and simulated modes.
    """

    def __init__(self, engine) -> None:
        if engine.prefetcher is not None or engine.recalibrator is not None:
            raise ValueError(
                f"{type(self).__name__} requires prefetching and recalibration "
                "disabled (both mutate engine-global state on the request "
                "path); run those studies through the sequential engine"
            )
        self.engine = engine

    @property
    def name(self) -> str:
        return self.engine.name

    @property
    def metrics(self):
        return self.engine.metrics

    @property
    def cache(self):
        return self.engine.cache

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer. Spans parent through
        a contextvar, which every worker thread and asyncio task carries, and
        request roots reset it on exit."""
        self.engine.set_tracer(tracer)


# -- the request core -------------------------------------------------------------
def request(engine, query: Query, now: float, prepared=None, batched: bool = False):
    """:func:`serve` under the request root span, when the tracer samples it."""
    tracer = engine.tracer
    if tracer is None or not tracer.sample():
        return (yield from serve(engine, query, now, prepared))
    with tracer.request() as span:
        response = yield from serve(engine, query, now, prepared)
        # One dict literal instead of request(tool=...) + set(outcome=...):
        # two kwargs allocations per request add up at tracing's budget.
        span.attrs = {
            "tool": query.tool,
            "outcome": response.degraded or response.lookup.status,
        }
        if batched:
            span.attrs["batched"] = True
        return response


def serve(engine, query: Query, now: float, prepared=None):
    """Resolve one query; never raises on remote failure.

    ``prepared`` is a ``(hits, stamp)`` stage-1 snapshot from
    :meth:`~repro.core.engine.AsteriaEngine._prepare_batch`; it is used only
    while the cache's mutation stamp still equals ``stamp``, otherwise the
    lookup runs from scratch (an earlier request admitted or evicted).
    """
    engine._maybe_recalibrate(now)
    if not engine._is_cacheable(query):
        return (yield from _bypass(engine, query, now))
    hits = None
    if prepared is not None and engine._mutation_stamp() == prepared[1]:
        hits = prepared[0]
    sine_result = yield Lookup(query, now, hits)
    lookup, element = engine._lookup_record(query, sine_result)
    shared = False
    if lookup.is_hit:
        response = EngineResponse(
            result=lookup.result or "", latency=lookup.latency, lookup=lookup
        )
    else:
        response, shared = yield from _miss(engine, query, now, lookup)
        if response.degraded is not None:
            return response
    _record(engine, response, query, now, shared)
    if engine.prefetcher is not None:
        canonical = element.key if element is not None else query.text
        yield Spawn(_prefetch(engine, query, now, canonical))
    return response


def serve_shard_down(engine, query: Query, now: float):
    """A cacheable request whose cache shard is down (the proc tier).

    Stale-first ladder: the last-known-good result if there is one; else a
    retrying remote fetch that skips the cache (gated by the global
    breaker, single-flighted, counted in ``shard_down_fetches``); else an
    explicit failure.
    """
    lookup = CacheLookup(status="miss", result=None, latency=0.0)
    key = engine._resilience_key(query)
    if engine.resilience.stale_for(key, now) is not None:
        return (yield from _fallback(engine, query, lookup, key, now, now))
    response, shared = yield from _miss(engine, query, now, lookup, shard_down=True)
    if response.degraded is None:
        response = engine._bypass_response(response.fetch, response.latency)
        _record(engine, response, query, now, shared)
    return response


def _bypass(engine, query: Query, now: float):
    """An uncacheable tool call: one remote fetch, no lookup, no admission."""
    key = engine._resilience_key(query)
    try:
        fetch = yield Fetch(query, now)
    except RemoteFetchError as exc:
        engine._account_failure(key, exc, now + exc.latency)
        lookup = CacheLookup(status="bypass", result=None, latency=0.0)
        return (yield from _fallback(
            engine, query, lookup, key, now, now, wasted=exc.latency
        ))
    engine.resilience.on_success(key, fetch, now + fetch.latency)
    response = engine._bypass_response(fetch, fetch.latency)
    _record(engine, response, query, now, False)
    return response


def _miss(engine, query: Query, now: float, lookup: CacheLookup, shard_down=False):
    """The guarded miss path; returns ``(response, shared)``.

    Breaker/negative-cache gate, then a single-flighted leader fetch with
    transient-fault retries, degrading on refusal or failure (a degraded
    response is already recorded). A ``shard_down`` flight has no cache to
    admit into and schedules no stale refresh.
    """
    key = engine._resilience_key(query)
    start = now + lookup.latency
    verdict = engine.resilience.admit(key, start)
    if verdict != "allow":
        _refused(engine, verdict)
        response = yield from _fallback(
            engine, query, lookup, key, start, now, refresh=not shard_down
        )
        return response, False
    if shard_down:
        engine.metrics.shard_down_fetches += 1
    try:
        (fetch, overhead), shared = yield Flight(
            key, _leader(engine, query, key, start, admit=not shard_down)
        )
    except RemoteFetchError as exc:
        # Leaders raise their own FetchFailed; followers re-raise the
        # leader's (deduplicated by _account_failure's marker).
        engine._account_failure(key, exc, start + exc.latency)
        response = yield from _fallback(
            engine, query, lookup, key, start, now, wasted=exc.latency
        )
        return response, False
    response = EngineResponse(
        result=fetch.result,
        latency=lookup.latency + overhead + fetch.latency,
        lookup=lookup,
        fetch=fetch,
    )
    return response, shared


def _leader(engine, query: Query, key: tuple, start: float, admit: bool):
    """One flight: retrying fetch, success accounting, then (with ``admit``)
    admission. Returns ``(fetch, overhead)``."""
    tracer = engine.tracer
    timed = tracer is not None and tracer.live and tracer.active()
    t0 = tracer.clock() if timed else 0.0
    fetch, overhead, retries = yield from _retrying_fetch(engine, query, start)
    if timed:
        tracer.record_leaf(
            "remote_fetch", t0, {"retries": retries, "cost": fetch.cost}
        )
    arrival = start + overhead + fetch.latency
    engine.resilience.on_success(key, fetch, arrival)
    if admit and engine._should_admit(query, fetch, arrival):
        if tracer is None or not tracer.live:
            yield Admit(query, fetch, arrival)
        else:
            with tracer.span("admit"):
                yield Admit(query, fetch, arrival)
    return fetch, overhead


def _retrying_fetch(engine, query: Query, start: float):
    """The transient-fault retry loop; returns ``(fetch, overhead, retries)``.

    Injected transient faults are retried up to the policy's budget with
    backoff; anything else (e.g. ``RateLimitExceeded``) fails at once.
    ``overhead`` is the simulated time burned on failed attempts and backoff
    before the successful attempt; a failed flight raises
    :class:`FetchFailed` carrying the total wasted time.
    """
    resilience = engine.resilience
    overhead = 0.0
    attempt = 0
    while True:
        try:
            return (yield Fetch(query, start + overhead)), overhead, attempt
        except InjectedFault as exc:
            overhead += exc.latency
            if attempt >= resilience.retry_policy.max_retries:
                raise FetchFailed(
                    f"retries exhausted after {attempt + 1} attempts: {exc}",
                    latency=overhead,
                    cause=exc,
                ) from exc
            delay = resilience.next_delay(attempt)
            overhead += delay
            if delay > 0:
                yield Sleep(delay)
            attempt += 1
        except RemoteFetchError as exc:
            raise FetchFailed(
                f"non-retryable fetch failure: {exc}",
                latency=overhead + exc.latency,
                cause=exc,
            ) from exc


def _refused(engine, verdict: str) -> None:
    """Count a miss flight the resilience gate refused up-front."""
    if verdict == "negative":
        engine.metrics.negative_cache_hits += 1
    else:
        engine.metrics.breaker_open_rejects += 1


def _fallback(
    engine,
    query: Query,
    lookup: CacheLookup,
    key: tuple,
    at: float,
    now: float,
    wasted: float = 0.0,
    refresh: bool = False,
):
    """Record and return the degraded response for a refused or failed flight.

    Serves the last-known-good result as an explicit ``stale_hit`` when one
    exists, else an explicit ``failed`` response; ``wasted`` is the
    simulated time the failed flight burned. With ``refresh``, a stale
    serve also spawns a stale-while-revalidate flight when the breaker
    grants a probe. Degraded outcomes bypass the hit/miss counters.
    """
    entry = engine.resilience.stale_for(key, at + wasted)
    if entry is not None:
        engine.metrics.stale_hits += 1
        response = EngineResponse(
            result=entry.fetch.result,
            latency=lookup.latency + wasted,
            lookup=lookup,
            degraded="stale_hit",
        )
    else:
        engine.metrics.failed_requests += 1
        response = EngineResponse(
            result="", latency=lookup.latency + wasted, lookup=lookup,
            degraded="failed",
        )
    engine._record_degraded(response, query, now)
    if entry is not None and refresh and engine.resilience.allow_probe(at):
        engine.metrics.background_refreshes += 1
        yield Spawn(_refresh(engine, query, key, at))
    return response


def _refresh(engine, query: Query, key: tuple, at: float):
    """Stale-while-revalidate: one admitting flight, coalesced with any
    foreground flight for the key, charged to no request's latency."""
    tracer = engine.tracer
    traced = tracer is not None and tracer.live
    with tracer.span("stale_refresh") if traced else nullcontext():
        try:
            yield Flight(key, _leader(engine, query, key, at, admit=True))
        except RemoteFetchError as exc:
            engine._account_failure(key, exc, at + exc.latency)


def _prefetch(engine, query: Query, now: float, canonical: str):
    """Markov prefetching after a served request (Algorithm 3): fetch and
    admit the predicted follow-ups the cache does not hold yet."""
    for signature in engine.prefetcher.observe(query, canonical):
        target = signature.to_query()
        if engine.cache.contains_semantic(target):
            continue
        try:
            fetch = yield Fetch(target, now)
        except RemoteFetchError as exc:
            # Speculative: a failed prefetch is dropped, but the breaker
            # still learns about the backend.
            engine._account_failure(
                engine._resilience_key(target), exc, now + exc.latency
            )
            continue
        yield Admit(target, fetch, now + fetch.latency, prefetched=True)
        engine.metrics.prefetches_issued += 1


def _record(engine, response: EngineResponse, query: Query, now: float, shared: bool):
    if shared:
        engine.metrics.coalesced_misses += 1
    engine._record_response(response, query, now)
