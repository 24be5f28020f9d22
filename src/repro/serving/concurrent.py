"""Real-thread concurrent serving over the Asteria engine (§4.4, Fig. 10).

:class:`ConcurrentEngine` is a thread-pool front-end over
:class:`~repro.core.engine.AsteriaEngine` for serving many agents at once
with *real* parallelism (the simulator's Fig. 10 study models the same
phenomenon in virtual time):

* Cache lookups run concurrently on a thread-safe
  :class:`~repro.core.sharding.ShardedAsteriaCache`; the numpy-heavy stage-1
  work (embed + ANN scoring) releases the GIL, so lookups on different
  shards overlap on real cores.
* Concurrent misses on the same canonical key share one remote fetch via
  :class:`~repro.serving.singleflight.SingleFlight` — the leader fetches and
  admits, followers block and reuse the result (counted in
  ``metrics.coalesced_misses``).
* The request itself is the shared core of :mod:`repro.core.pipeline`;
  this engine is its *thread driver*. Core steps (every decision and every
  :class:`~repro.core.metrics.EngineMetrics` update) run under one small
  record lock, so counters and latency reservoirs are exact under any
  interleaving; the effects they ask for (lookup, fetch, backoff, insert)
  run outside it. :meth:`EngineMetrics.merge` additionally supports
  per-worker accumulation for callers that want lock-free recording.

``io_pause_scale`` maps each fetch's *simulated* remote latency to a real
wall-clock pause (``time.sleep`` releases the GIL, exactly like the socket
wait it stands in for). With it, the closed-loop load generator measures the
paper's serving claim for real: worker pools overlap remote I/O, so
throughput scales with workers until compute saturates the cores.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.core import pipeline
from repro.core.engine import AsteriaEngine, EngineResponse
from repro.core.types import Query
from repro.network.remote import RemoteFetchError
from repro.serving.singleflight import SingleFlight


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Outcome of one closed-loop load run (wall-clock, not virtual time)."""

    workers: int
    requests: int
    wall_seconds: float
    throughput_rps: float
    hits: int
    misses: int
    hit_rate: float
    coalesced_misses: int
    remote_calls: int
    #: Degraded outcomes (fault tolerance): answered from the stale store /
    #: explicit failures / refused up-front by the open breaker.
    stale_served: int = 0
    failed: int = 0
    breaker_open_rejects: int = 0

    @property
    def served_fraction(self) -> float:
        """Fraction of requests answered with *some* payload (fresh or
        stale) — the chaos benchmark's availability headline."""
        if self.requests == 0:
            return 1.0
        return (self.requests - self.failed) / self.requests

    def summary(self) -> dict:
        """Plain-dict snapshot for serialisation."""
        return {
            "workers": self.workers,
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "coalesced_misses": self.coalesced_misses,
            "remote_calls": self.remote_calls,
            "stale_served": self.stale_served,
            "failed": self.failed,
            "breaker_open_rejects": self.breaker_open_rejects,
            "served_fraction": round(self.served_fraction, 4),
        }


class ConcurrentEngine(pipeline.Driver):
    """Thread-pool serving front-end over an :class:`AsteriaEngine`.

    Parameters
    ----------
    engine:
        The wrapped engine. With ``workers > 1`` its cache must be
        thread-safe (a :class:`~repro.core.sharding.ShardedAsteriaCache`);
        prefetching and recalibration must be disabled (see
        :class:`~repro.core.pipeline.Driver`).
    workers:
        Thread-pool size for :meth:`handle_concurrent` and the worker count
        for :meth:`run_closed_loop`.
    singleflight:
        The miss-coalescing layer (a private one is created by default;
        share one instance to coalesce across several front-ends).
    io_pause_scale:
        When > 0, every remote fetch sleeps ``fetch.latency * scale`` real
        seconds — the wall-clock stand-in for the network round-trip the
        simulated latency describes. 0 (default) keeps fetches purely
        analytic.
    follower_timeout:
        Optional bound (seconds) on how long a coalesced miss waits behind
        its leader's in-flight fetch before falling back to a private fetch
        of its own (see :meth:`SingleFlight.run`). None (default) waits
        indefinitely.

    Thread-safety map: the sharded cache locks per shard; the remote service
    (sequential RNG + counters) is serialised by ``_remote_lock``; every
    request-core step (metrics, the eval log, resilience and admission
    decisions) by ``_record_lock``. Effects, and so the I/O pause, happen
    *outside* the record lock, so workers genuinely overlap remote waits.
    """

    def __init__(
        self,
        engine: AsteriaEngine,
        workers: int = 4,
        singleflight: SingleFlight | None = None,
        io_pause_scale: float = 0.0,
        follower_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if io_pause_scale < 0:
            raise ValueError(f"io_pause_scale must be >= 0, got {io_pause_scale}")
        if follower_timeout is not None and follower_timeout <= 0:
            raise ValueError(
                f"follower_timeout must be > 0, got {follower_timeout}"
            )
        super().__init__(engine)
        if workers > 1 and not getattr(engine.cache, "thread_safe", False):
            raise ValueError(
                "workers > 1 needs a thread-safe cache; wrap the shards in "
                "ShardedAsteriaCache (factory.build_concurrent_engine does)"
            )
        self.workers = workers
        self.singleflight = singleflight if singleflight is not None else SingleFlight()
        self.io_pause_scale = io_pause_scale
        self.follower_timeout = follower_timeout
        self._remote_lock = threading.Lock()
        self._record_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    # -- KnowledgeEngine-compatible surface ------------------------------------
    @property
    def remote(self):
        return self.engine.remote

    def handle(self, query: Query, now: float = 0.0) -> EngineResponse:
        """Resolve one query on the calling thread (thread-safe)."""
        return self._drive(pipeline.request(self.engine, query, now))

    def handle_concurrent(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve a batch across the worker pool; responses in input order."""
        futures = [self._submit(self.handle, query, now) for query in queries]
        return [future.result() for future in futures]

    def handle_batched(
        self, queries: Sequence[Query], now: float = 0.0
    ) -> list[EngineResponse]:
        """Resolve a batch with shared per-shard stage-1 passes.

        Cacheable queries are grouped by their cache shard; each group runs
        as one worker task doing a single embed-batch + ANN search-batch
        pass (``lookup_batch``) under its shard's lock, then finishing every
        query through the request core — single-flight miss coalescing
        included, and it coalesces *across* shard groups because the flight
        key is the canonical text, not the shard. Uncacheable queries bypass
        on their own tasks. Responses return in input order.
        """
        queries = list(queries)
        engine = self.engine
        shard_of = getattr(engine.cache, "shard_index", None)
        groups: dict[int, list[int]] = {}
        bypass: list[int] = []
        for position, query in enumerate(queries):
            if engine._is_cacheable(query):
                shard = shard_of(query.text) if shard_of is not None else 0
                groups.setdefault(shard, []).append(position)
            else:
                bypass.append(position)
        responses: list[EngineResponse | None] = [None] * len(queries)

        def run_group(positions: list[int]) -> list[EngineResponse]:
            group = [queries[p] for p in positions]
            sine_results = engine.cache.lookup_batch(
                group, now, ann_only=engine.config.ann_only
            )
            # The group pass already answered each query's Lookup effect.
            return [
                self._drive(
                    pipeline.request(engine, query, now, batched=True), sine_result
                )
                for query, sine_result in zip(group, sine_results)
            ]

        group_futures = [
            (positions, self._submit(run_group, positions))
            for positions in groups.values()
        ]
        bypass_futures = [
            (position, self._submit(self.handle, queries[position], now))
            for position in bypass
        ]
        for positions, future in group_futures:
            for position, response in zip(positions, future.result()):
                responses[position] = response
        for position, future in bypass_futures:
            responses[position] = future.result()
        return responses  # type: ignore[return-value]

    # -- the thread driver of the request core ----------------------------------
    def _drive(self, core, sine_result=None):
        """Run one core pipeline: steps under ``_record_lock``, effects
        outside it. ``sine_result`` answers the Lookup effect when a batch
        pass already ran it."""
        return pipeline.drive(
            core, lambda effect: self._apply(effect, sine_result), self._record_lock
        )

    def _apply(self, effect, sine_result=None):
        engine = self.engine
        kind = type(effect)
        if kind is pipeline.Lookup:
            if sine_result is not None:
                return sine_result
            return engine.cache.lookup(
                effect.query, effect.now, ann_only=engine.config.ann_only
            )
        if kind is pipeline.Fetch:
            try:
                with self._remote_lock:
                    fetch = engine.remote.fetch_at(effect.query, effect.at)
            except RemoteFetchError as exc:
                # The failed round-trip also burns wall time "on the wire".
                self._pause(exc.latency)
                raise
            self._pause(fetch.latency)
            return fetch
        if kind is pipeline.Admit:
            engine.cache.insert(
                effect.query, effect.fetch, effect.arrival,
                prefetched=effect.prefetched,
            )
        elif kind is pipeline.Flight:
            return self.singleflight.run(
                effect.key,
                lambda: self._drive(effect.leader),
                timeout=self.follower_timeout,
            )
        elif kind is pipeline.Sleep:
            self._pause(effect.seconds)
        elif kind is pipeline.Spawn:
            # Stale-while-revalidate on the worker pool, in a copy of the
            # request's context so its spans parent under the request root.
            context = contextvars.copy_context()
            self._ensure_pool().submit(context.run, self._drive, effect.task)
        return None

    def _pause(self, simulated: float) -> None:
        """Real blocking I/O stand-in: sleeps release the GIL, so other
        workers keep serving while this one is "on the wire"."""
        if self.io_pause_scale > 0 and simulated > 0:
            time.sleep(simulated * self.io_pause_scale)

    # -- closed-loop load generation ---------------------------------------------
    def run_closed_loop(
        self,
        queries: Sequence[Query],
        time_step: float = 0.0,
        start: float = 0.0,
        stop: threading.Event | None = None,
    ) -> LoadReport:
        """Drive ``queries`` through ``self.workers`` closed-loop workers.

        Each worker repeatedly claims the next query from a shared cursor and
        serves it to completion before claiming another (a closed loop: load
        applied equals worker count). Query *i* is served at simulated time
        ``start + i * time_step``; wall-clock time is measured around the
        whole run and throughput reported as requests per real second.

        ``stop`` (optional) is checked before each claim: once set, workers
        finish their in-flight request and exit, so a signal handler can end
        the run early with every started request completed and counted — the
        report then covers the requests actually served.
        """
        queries = list(queries)
        cursor = itertools.count()
        served = itertools.count()
        n = len(queries)
        errors: list[BaseException] = []

        def worker() -> None:
            while True:
                if stop is not None and stop.is_set():
                    return
                i = next(cursor)  # atomic in CPython
                if i >= n:
                    return
                try:
                    self.handle(queries[i], start + i * time_step)
                    next(served)  # atomic served-count bump
                except BaseException as exc:  # surface, don't hang the join
                    errors.append(exc)
                    return

        before = self.metrics.summary()
        remote_before = self.remote.calls
        threads = [
            threading.Thread(target=worker, name=f"load-worker-{w}", daemon=True)
            for w in range(self.workers)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        if errors:
            raise errors[0]
        n_served = next(served)
        after = self.metrics.summary()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        cacheable = hits + misses
        return LoadReport(
            workers=self.workers,
            requests=n_served,
            wall_seconds=wall,
            throughput_rps=n_served / wall if wall > 0 else float("inf"),
            hits=hits,
            misses=misses,
            hit_rate=hits / cacheable if cacheable else 0.0,
            coalesced_misses=after["coalesced_misses"] - before["coalesced_misses"],
            remote_calls=self.remote.calls - remote_before,
            stale_served=after["stale_hits"] - before["stale_hits"],
            failed=after["failed_requests"] - before["failed_requests"],
            breaker_open_rejects=(
                after["breaker_open_rejects"] - before["breaker_open_rejects"]
            ),
        )

    # -- lifecycle ----------------------------------------------------------------
    def _submit(self, fn, *args) -> Future:
        """Run ``fn(*args)`` on the pool, or inline when ``workers == 1``."""
        if self.workers > 1:
            return self._ensure_pool().submit(fn, *args)
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix=f"{self.name}-worker"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ConcurrentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ConcurrentEngine(name={self.name!r}, workers={self.workers}, "
            f"singleflight={self.singleflight!r})"
        )
