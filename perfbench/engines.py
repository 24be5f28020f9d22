"""Building the four serving engines and driving them as closed-loop agents.

* ``sync``   — ``AsteriaEngine.handle``, called in sequence by one caller.
* ``thread`` — ``ConcurrentEngine.handle`` (2 shards), one caller thread
  per agent, at most ``nproc`` threads.
* ``async``  — ``AsyncAsteriaEngine.serve`` (2 shards), one coroutine per
  agent on one event loop.
* ``proc``   — the ``ProcServer`` front door over ``build_proc_engine``
  (2 workers) in a child process (``proc_child.py``), driven over one TCP
  connection by one coroutine per agent.

Every agent waits for its reply before it sends the next request. A phase
either replays a fixed slice of the stream or runs until a wall-clock
deadline; the records it returns are checked only after it ends, so
checking costs the measured loop nothing.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass, field

from workloads import TIME_STEP, Workload

ENGINES = ("sync", "thread", "async", "proc")
#: Shards for ``thread``/``async`` and workers for ``proc``: the same key
#: partition, so the three make the same decisions for one agent.
SHARDS = 2
CHILD = pathlib.Path(__file__).resolve().parent / "proc_child.py"
#: Seconds a proc child may take to start listening or to stop.
CHILD_TIMEOUT = 60.0


@dataclass
class PhaseRecord:
    """What the agents saw in one phase, request by request."""

    wall: float = 0.0
    indices: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    results: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    #: proc only: client wall minus the server-reported wall latency.
    front: list = field(default_factory=list)

    def add(self, index, status, result, latency, front=None) -> None:
        self.indices.append(index)
        self.statuses.append(status)
        self.results.append(result)
        self.latencies.append(latency)
        if front is not None:
            self.front.append(front)


def thread_cap(agents: int) -> int:
    """Caller threads for ``agents`` agents: at most ``nproc``."""
    return max(1, min(agents, os.cpu_count() or 1))


def engine_config(workload: Workload):
    from repro.core import AsteriaConfig

    return AsteriaConfig(capacity_items=workload.capacity)


def build_in_process(workload: Workload, corpus) -> dict:
    """The sync, thread and async engines, each with its own remote."""
    from repro.factory import (
        build_asteria_engine,
        build_async_engine,
        build_concurrent_engine,
        build_remote,
    )

    config = engine_config(workload)
    sync = build_asteria_engine(build_remote(corpus.universe), config=config)
    thread = build_concurrent_engine(
        build_remote(corpus.universe),
        config=config,
        shards=SHARDS,
        workers=thread_cap(workload.agents),
        io_pause_scale=workload.io_pause_scale,
    )
    aio = build_async_engine(
        build_remote(corpus.universe),
        config=config,
        shards=SHARDS,
        io_pause_scale=workload.io_pause_scale,
    )
    return {"sync": sync, "thread": thread, "async": aio}


def decision_counts(engine) -> dict:
    """Decision counters of an in-process engine (cumulative)."""
    metrics = engine.metrics
    return {
        "hits": metrics.hits,
        "misses": metrics.misses,
        "remote_calls": engine.remote.calls,
    }


# -- in-process drivers --------------------------------------------------------
def _result_of(response):
    if response.degraded is None:
        return "ok", response.result
    return response.degraded, response.result if response.degraded == "stale_hit" else None


def run_sync(engine, stream, first, limit, deadline, recorder=None) -> PhaseRecord:
    """One caller, in sequence: indices ``first..limit-1`` or until ``deadline``."""
    record = PhaseRecord()
    clock = time.perf_counter
    begin = clock()
    index = first
    while index < limit and (deadline is None or clock() < deadline):
        query = stream[index]
        t0 = clock()
        if recorder is None:
            response = engine.handle(query, index * TIME_STEP)
        else:
            with recorder.request():
                response = engine.handle(query, index * TIME_STEP)
        latency = clock() - t0
        status, result = _result_of(response)
        record.add(index, status, result, latency)
        index += 1
    record.wall = clock() - begin
    return record


def run_thread(engine, stream, first, limit, deadline, agents, recorder=None) -> PhaseRecord:
    """``agents`` caller threads sharing one cursor over the stream."""
    cursor = itertools.count(first)
    parts = [PhaseRecord() for _ in range(agents)]
    barrier = threading.Barrier(agents + 1)
    errors: list[BaseException] = []
    clock = time.perf_counter

    def agent(part: PhaseRecord) -> None:
        try:
            barrier.wait()
            while deadline is None or clock() < deadline:
                index = next(cursor)
                if index >= limit:
                    return
                query = stream[index]
                t0 = clock()
                if recorder is None:
                    response = engine.handle(query, index * TIME_STEP)
                else:
                    with recorder.request():
                        response = engine.handle(query, index * TIME_STEP)
                latency = clock() - t0
                status, result = _result_of(response)
                part.add(index, status, result, latency)
        except BaseException as exc:  # reported by the caller after join
            errors.append(exc)
            raise

    threads = [threading.Thread(target=agent, args=(part,)) for part in parts]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = clock()
    for thread in threads:
        thread.join()
    wall = clock() - begin
    if errors:
        raise errors[0]
    return _merge(parts, wall)


def _merge(parts, wall) -> PhaseRecord:
    merged = PhaseRecord(wall=wall)
    for part in parts:
        merged.indices += part.indices
        merged.statuses += part.statuses
        merged.results += part.results
        merged.latencies += part.latencies
        merged.front += part.front
    return merged


async def run_agents(serve_one, stream, first, limit, deadline, agents) -> PhaseRecord:
    """``agents`` coroutines on this loop sharing one cursor over the stream.

    ``serve_one(index, query)`` returns ``(status, result, front)``.
    """
    cursor = itertools.count(first)
    parts = [PhaseRecord() for _ in range(agents)]
    clock = time.perf_counter

    async def agent(part: PhaseRecord) -> None:
        while deadline is None or clock() < deadline:
            index = next(cursor)
            if index >= limit:
                return
            t0 = clock()
            status, result, front = await serve_one(index, stream[index])
            latency = clock() - t0
            part.add(index, status, result, latency, None if front is None else latency - front)

    begin = clock()
    await asyncio.gather(*(agent(part) for part in parts))
    return _merge(parts, clock() - begin)


def async_server(engine, recorder=None):
    """``serve_one`` for the in-process asyncio engine."""

    async def serve_one(index, query):
        if recorder is None:
            outcome = await engine.serve(query, index * TIME_STEP)
        else:
            with recorder.request():
                outcome = await engine.serve(query, index * TIME_STEP)
        response = outcome.response
        return outcome.status, response.result if response is not None else None, None

    return serve_one


# -- the proc child ------------------------------------------------------------
class ProcHandle:
    """The front-door child process, its control pipe and one TCP client."""

    def __init__(self, process, client) -> None:
        self.process = process
        self.client = client

    @classmethod
    async def start(cls, workload: Workload) -> "ProcHandle":
        """Spawn the child and return once a ``ping`` over TCP has answered."""
        from repro.serving.proc.client import ProcClient

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(CHILD),
            "--workload",
            workload.name,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        handle = cls(process, None)
        try:
            hello = await handle._read()
            handle.client = await ProcClient.connect("127.0.0.1", hello["port"])
            if await handle.client.ping() != "pong":
                raise RuntimeError("proc front door did not answer ping")
        except BaseException:
            await handle.stop(check=False)
            raise
        return handle

    async def _read(self) -> dict:
        line = await asyncio.wait_for(self.process.stdout.readline(), CHILD_TIMEOUT)
        if not line:
            raise RuntimeError(
                f"proc child exited (code {await self.process.wait()}) before replying"
            )
        return json.loads(line)

    async def command(self, **message) -> dict:
        self.process.stdin.write((json.dumps(message) + "\n").encode())
        await self.process.stdin.drain()
        return await self._read()

    async def counts(self) -> dict:
        return await self.command(op="counts")

    def server(self):
        """``serve_one`` over the TCP connection."""
        from repro.serving.proc.client import ProcClientError

        client = self.client

        async def serve_one(index, query):
            try:
                reply = await client.serve(query, index * TIME_STEP)
            except ProcClientError:
                return "transport_error", None, None
            return reply["status"], reply["result"], reply["wall_latency"]

        return serve_one

    async def stop(self, check: bool = True) -> None:
        """Close the connection, let the child drain and exit, and wait for
        it; with ``check``, a child that did not exit cleanly is an error."""
        if self.client is not None:
            await self.client.aclose()
            self.client = None
        process = self.process
        if process.returncode is None:
            try:
                process.stdin.close()
                await asyncio.wait_for(process.wait(), CHILD_TIMEOUT)
            except (asyncio.TimeoutError, BrokenPipeError, ConnectionResetError):
                process.kill()
                await process.wait()
        if check and process.returncode != 0:
            raise RuntimeError(f"proc child exited with code {process.returncode}")
