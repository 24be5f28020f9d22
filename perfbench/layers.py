"""Span recording from outside the program, and the per-layer table built from it.

The program is not instrumented. Instead the benchmark replaces chosen
public methods of one engine's objects (the Sine's embedder, ANN index and
judger, each cache shard, the remote service, the single-flight layer, the
proc router's shard clients) with timing wrappers set as *instance*
attributes, and restores them afterwards by deleting those attributes. A
wrapper records one span — name, start, end, parent, request id and one
small integer of detail — and calls the original method unchanged, so a
wrapped engine makes exactly the decisions of an unwrapped one (the run
checks this on the single-agent workload).

Parents come from a context variable, so nesting is right for threads (one
context per thread) and for asyncio (each task copies its creator's
context, so a single-flight leader task's remote fetch parents under the
leader's ``singleflight.run`` span).
"""

from __future__ import annotations

import contextvars
import inspect
import itertools
import json
import time
from collections import defaultdict

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

class SpanRecorder:
    """Keeps finished spans in memory as tuples.

    A span is ``(span_id, parent_id, request_id, name, start, end, info)``;
    times are ``time.perf_counter()`` seconds, ``info`` an int (memo hit,
    candidate count, judge acceptance, single-flight follower) or None.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def clear(self) -> None:
        self.spans = []

    def request(self):
        """Context manager opening a root span for one agent request."""
        return _RequestSpan(self)

    def dump(self, path, label: str) -> None:
        """Write every span as one JSON document (``label`` names the run)."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "label": label,
                    "fields": ["id", "parent", "request", "name", "start", "end", "info"],
                    "spans": self.spans,
                },
                handle,
            )


class _RequestSpan:
    __slots__ = ("recorder", "span_id", "token", "start")

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def __enter__(self):
        self.span_id = next(self.recorder._ids)
        self.token = _CURRENT.set((self.span_id, self.span_id))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        _CURRENT.reset(self.token)
        self.recorder.spans.append(
            (self.span_id, None, self.span_id, "request", self.start, end, None)
        )


def _make_wrapper(recorder, name, original, before, after, root):
    """A sync or async timing wrapper around ``original`` (see :class:`Wrapping`)."""
    ids = recorder._ids

    def enter():
        span_id = next(ids)
        parent = _CURRENT.get()
        if root:
            parent_id, request_id = None, span_id
        elif parent is None:
            parent_id = request_id = None
        else:
            parent_id, request_id = parent
        return span_id, parent_id, request_id, _CURRENT.set((span_id, request_id))

    def record(span_id, parent_id, request_id, start, end, info, args, result):
        if after is not None:
            info = after(args, result)
        recorder.spans.append((span_id, parent_id, request_id, name, start, end, info))

    if inspect.iscoroutinefunction(original):

        async def wrapper(*args, **kwargs):
            info = before(args) if before is not None else None
            span_id, parent_id, request_id, token = enter()
            start = time.perf_counter()
            try:
                result = await original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            record(span_id, parent_id, request_id, start, end, info, args, result)
            return result

    else:

        def wrapper(*args, **kwargs):
            info = before(args) if before is not None else None
            span_id, parent_id, request_id, token = enter()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            record(span_id, parent_id, request_id, start, end, info, args, result)
            return result

    return wrapper


class Wrapping:
    """Timing wrappers installed on object instances; :meth:`restore` undoes them.

    Each wrapper is an instance attribute shadowing the class's method, so
    restoring is deleting that attribute. Wrapping an attribute that is
    already an instance attribute is refused: restoring could not tell the
    two apart. ``before(args)`` or ``after(args, result)`` computes the
    span's ``info``; ``root=True`` makes every call a request of its own.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._installed: list[tuple[object, str]] = []

    def wrap(self, obj, method: str, name: str, before=None, after=None, root=False) -> None:
        if method in vars(obj):
            raise ValueError(f"{type(obj).__name__}.{method} is already wrapped")
        original = getattr(obj, method)
        setattr(obj, method, _make_wrapper(self.recorder, name, original, before, after, root))
        self._installed.append((obj, method))

    @property
    def installed(self) -> int:
        return len(self._installed)

    def restore(self) -> None:
        while self._installed:
            obj, method = self._installed.pop()
            delattr(obj, method)


# -- what to wrap -------------------------------------------------------------
def wrap_cache_shard(wrapping: Wrapping, cache) -> None:
    """The layers of one in-process :class:`AsteriaCache`: embedding, ANN,
    judger (through its Sine) and the cache's own insert/remove.

    Only the scalar calls are wrapped: the agents here call ``handle`` and
    ``serve``, which never take the batched ``*_batch`` paths."""
    sine = cache.sine
    embedder = sine.embedder
    # A memo hit is a text the embedder had memoised before the call.
    wrapping.wrap(
        embedder, "embed", "embedding.embed", before=lambda args: int(args[0] in embedder)
    )
    index = sine.index
    wrapping.wrap(
        index,
        "search",
        "ann.search",
        after=lambda _args, hits: sum(hit.score >= sine.tau_sim for hit in hits),
    )
    for method in ("add", "add_slot", "remove"):
        wrapping.wrap(index, method, "ann.update")
    judger = sine.judger
    wrapping.wrap(
        judger,
        "judge",
        "judger.judge",
        after=lambda _args, verdict: int(verdict.score >= sine.tau_lsm),
    )
    wrapping.wrap(cache, "insert", "cache.insert")
    wrapping.wrap(cache, "remove", "cache.remove")


def _follower(_args, result) -> int:
    return int(result[1])


def wrap_sync_engine(wrapping: Wrapping, engine) -> None:
    """``AsteriaEngine``: one unsharded cache and an analytic remote."""
    wrap_cache_shard(wrapping, engine.cache)
    wrapping.wrap(engine.remote, "fetch_at", "remote.fetch_at")


def wrap_thread_engine(wrapping: Wrapping, engine) -> None:
    """``ConcurrentEngine``: every shard, the remote, the thread single-flight."""
    for shard in engine.cache.shards:
        wrap_cache_shard(wrapping, shard)
    wrapping.wrap(engine.remote, "fetch_at", "remote.fetch_at")
    wrapping.wrap(engine.singleflight, "run", "singleflight.run", after=_follower)


def wrap_async_engine(wrapping: Wrapping, engine) -> None:
    """``AsyncAsteriaEngine``: every shard, both remote layers, single-flight."""
    for shard in engine.cache.shards:
        wrap_cache_shard(wrapping, shard)
    wrapping.wrap(engine.remote, "fetch", "remote.fetch")
    wrapping.wrap(engine.remote.service, "fetch_at", "remote.fetch_at")
    wrapping.wrap(engine.singleflight, "run", "singleflight.run", after=_follower)


def wrap_proc_router(wrapping: Wrapping, engine) -> None:
    """``ProcAsteriaEngine`` inside the front-door process: each served
    request, each shard client's round trips, remote, single-flight."""
    wrapping.wrap(engine, "serve", "request", root=True)
    for client in engine.pool.clients:
        wrapping.wrap(client, "lookup", "shard.lookup")
        wrapping.wrap(client, "insert", "shard.insert")
    wrapping.wrap(engine.remote, "fetch", "remote.fetch")
    wrapping.wrap(engine.remote.service, "fetch_at", "remote.fetch_at")
    wrapping.wrap(engine.singleflight, "run", "singleflight.run", after=_follower)


WRAP = {
    "sync": wrap_sync_engine,
    "thread": wrap_thread_engine,
    "async": wrap_async_engine,
    "proc": wrap_proc_router,
}


# -- deriving the per-layer table ---------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span[0]] = (end - start) - covered
    return out


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def summarize(spans, wall: float) -> dict:
    """Per-layer quantities for one engine from its recorded spans.

    ``wall`` is the traced measuring time, the base of ``busy_share``. Only
    spans that belong to a request (and the requests themselves) count, so
    an engine's background work outside any agent call is left out.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            by_name[span[3]].append(span)
    requests = by_name.get("request", [])
    n_requests = len(requests)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    def info_total(name):
        return sum(s[6] or 0 for s in by_name.get(name, ()))

    selfs = self_times(spans)
    request_wall = sum(s[5] - s[4] for s in requests)
    request_self = sum(selfs[s[0]] for s in requests)
    flights = by_name.get("singleflight.run", [])
    followers = sum(s[6] or 0 for s in flights)
    leaders = [s for s in flights if not s[6]]
    # Remote wait per call: the awaitable remote's span where the engine has
    # one; for the thread engine, whose pause sits outside any public call,
    # the leader flight's own time (its self time plus the analytic fetch).
    remote_calls = count("remote.fetch_at")
    if "remote.fetch" in by_name:
        remote_wait = total("remote.fetch")
    elif leaders:
        remote_wait = sum(selfs[s[0]] for s in leaders) + total("remote.fetch_at")
    else:
        remote_wait = total("remote.fetch_at")
    return {
        "requests": n_requests,
        "embedding.us_per_call": _mean(total("embedding.embed"), count("embedding.embed")) * 1e6,
        "embedding.memo_hit_ratio": _mean(info_total("embedding.embed"), count("embedding.embed")),
        "ann.search_us": _mean(total("ann.search"), count("ann.search")) * 1e6,
        "ann.candidates_per_search": _mean(info_total("ann.search"), count("ann.search")),
        "ann.update_us": _mean(total("ann.update"), count("ann.update")) * 1e6,
        "ann.updates_per_req": _mean(count("ann.update"), n_requests),
        "judger.pairs_per_req": _mean(count("judger.judge"), n_requests),
        "judger.accept_ratio": _mean(info_total("judger.judge"), count("judger.judge")),
        "judger.busy_share": _mean(total("judger.judge"), wall),
        "cache.insert_us": _mean(total("cache.insert"), count("cache.insert")) * 1e6,
        "cache.evictions_per_req": _mean(count("cache.remove"), n_requests),
        "remote.calls_per_req": _mean(remote_calls, n_requests),
        "remote.wait_ms": _mean(remote_wait, remote_calls) * 1e3,
        "singleflight.coalesced_ratio": _mean(followers, len(flights)),
        "engine.unattributed_share": _mean(request_self, request_wall),
        "shard.lookup_us": _mean(total("shard.lookup"), count("shard.lookup")) * 1e6,
        "shard.insert_us": _mean(total("shard.insert"), count("shard.insert")) * 1e6,
        "shard.rtts_per_req": _mean(
            count("shard.lookup") + count("shard.insert"), n_requests
        ),
    }
