"""Acceptance: one request core, four drivers, identical decisions.

The sequential engine, the thread pool (``workers=1``), the asyncio engine
(serial ``serve``) and the multi-process engine (``workers=1``) all run the
request core of :mod:`repro.core.pipeline`. Under a seeded fault schedule —
transient errors, timeouts and a blackout, so retries, backoff, failed
flights and stale serving all occur — every request must resolve to the same
status, degradation and simulated latency on all four, and every metric
must agree.
"""

import asyncio

import numpy as np

from repro.core import AsteriaConfig, Query
from repro.core.tracelog import TraceLog
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_concurrent_engine,
    build_proc_engine,
    build_remote,
)
from repro.network import FaultInjector
from repro.obs import Tracer

SEED = 7
N_QUERIES = 600
FACTS = 80
TIME_STEP = 0.5
CONFIG = AsteriaConfig(capacity_items=40)


def _trace():
    rng = np.random.default_rng(SEED)
    ranks = np.minimum(rng.zipf(1.2, size=N_QUERIES), FACTS)
    return [
        Query(f"pinned fact number {rank} of the corpus", fact_id=f"F{rank}")
        for rank in ranks
    ]


def _faulty_remote():
    injector = FaultInjector(
        error_rate=0.25, timeout_rate=0.05, blackouts=[(100, 130)], seed=SEED
    )
    return build_remote(latency=0.4, seed=1, fault_injector=injector)


def _decisions(log: TraceLog) -> list[tuple]:
    return [
        (record["status"], record["outcome"], record["latency"])
        for record in log.records()
    ]


def _run_sync(queries):
    engine = build_asteria_engine(_faulty_remote(), config=CONFIG, seed=SEED)
    engine.trace = TraceLog()
    responses = [engine.handle(q, i * TIME_STEP) for i, q in enumerate(queries)]
    return engine, engine.trace, responses


def _run_thread(queries):
    engine = build_concurrent_engine(
        _faulty_remote(), config=CONFIG, seed=SEED, shards=1, workers=1
    )
    engine.engine.trace = TraceLog()
    with engine:
        responses = [engine.handle(q, i * TIME_STEP) for i, q in enumerate(queries)]
    return engine, engine.engine.trace, responses


async def _serve_all(engine, queries):
    outcomes = [await engine.serve(q, i * TIME_STEP) for i, q in enumerate(queries)]
    await engine.drain()
    return [outcome.response for outcome in outcomes]


def _run_async(queries):
    engine = build_async_engine(_faulty_remote(), config=CONFIG, seed=SEED, shards=1)
    engine.engine.trace = TraceLog()
    responses = asyncio.run(_serve_all(engine, queries))
    return engine, engine.engine.trace, responses


def _run_proc(queries):
    engine = build_proc_engine(_faulty_remote(), config=CONFIG, seed=SEED, workers=1)
    engine.engine.trace = TraceLog()

    async def drive():
        async with engine:
            return await _serve_all(engine, queries)

    responses = asyncio.run(drive())
    return engine, engine.engine.trace, responses


def test_four_drivers_make_identical_decisions_under_faults():
    queries = _trace()
    sync_engine, sync_log, sync_responses = _run_sync(queries)
    decisions = _decisions(sync_log)
    assert len(decisions) == N_QUERIES
    # The schedule exercises the paths that used to be written per engine.
    summary = sync_engine.metrics.summary()
    assert summary["fetch_failures"] > 0
    assert summary["failed_requests"] > 0
    assert summary["stale_hits"] > 0
    # Some misses paid for failed attempts and backoff before their fetch.
    assert any(
        r.fetch is not None and r.latency > r.lookup.latency + r.fetch.latency
        for r in sync_responses
    )

    for run in (_run_thread, _run_async, _run_proc):
        engine, log, responses = run(queries)
        assert _decisions(log) == decisions, run.__name__
        # Exact (unrounded) latency wherever the driver hands a response back.
        for mine, theirs in zip(responses, sync_responses):
            if mine is not None:
                assert (mine.lookup.status, mine.degraded, mine.latency) == (
                    theirs.lookup.status,
                    theirs.degraded,
                    theirs.latency,
                ), run.__name__
        assert engine.metrics.summary() == summary, run.__name__


# -- stale-while-revalidate spans -----------------------------------------------
#: One key: fetched fine at t=0, failed inside the blackout at t=1 (negative
#: cached), then asked again at t=3 — served stale, refreshed in background.
#: ``admit_on_miss=False`` keeps the key out of the cache so every request
#: takes the miss path.
REFRESH_TIMES = (0.0, 1.0, 3.0)
REFRESH_CONFIG = AsteriaConfig(admit_on_miss=False)


def _refresh_remote():
    return build_remote(
        latency=0.4, seed=1, fault_injector=FaultInjector(blackouts=[(0.5, 2.0)])
    )


def _refresh_spans_sync(query):
    engine = build_asteria_engine(_refresh_remote(), config=REFRESH_CONFIG)
    engine.set_tracer(Tracer())
    for now in REFRESH_TIMES:
        engine.handle(query, now)
    return engine.metrics, engine.tracer.spans()


def _refresh_spans_thread(query):
    engine = build_concurrent_engine(
        _refresh_remote(), config=REFRESH_CONFIG, shards=1, workers=1
    )
    engine.set_tracer(Tracer())
    with engine:  # close() waits for the pooled refresh
        for now in REFRESH_TIMES:
            engine.handle(query, now)
    return engine.metrics, engine.engine.tracer.spans()


def _refresh_spans_async(query):
    engine = build_async_engine(_refresh_remote(), config=REFRESH_CONFIG, shards=1)
    engine.set_tracer(Tracer())

    async def drive():
        for now in REFRESH_TIMES:
            await engine.serve(query, now)
        await engine.drain()

    asyncio.run(drive())
    return engine.metrics, engine.engine.tracer.spans()


def test_stale_refresh_span_is_a_child_of_its_request_in_every_driver():
    query = Query("who painted the mona lisa", fact_id="F")
    for run in (_refresh_spans_sync, _refresh_spans_thread, _refresh_spans_async):
        metrics, spans = run(query)
        assert metrics.negative_cache_hits == 1, run.__name__
        assert metrics.background_refreshes == 1, run.__name__
        requests = [span for span in spans if span.name == "request"]
        refreshes = [span for span in spans if span.name == "stale_refresh"]
        assert len(requests) == len(REFRESH_TIMES), run.__name__
        assert len(refreshes) == 1, run.__name__
        (refresh,) = refreshes
        # Parented under the third request — the one served stale.
        assert refresh.parent_id == requests[-1].span_id, run.__name__
        assert refresh.trace_id == requests[-1].trace_id, run.__name__
        # The refresh flight's own remote fetch nests under it.
        children = {s.name for s in spans if s.parent_id == refresh.span_id}
        assert "remote_fetch" in children, run.__name__
