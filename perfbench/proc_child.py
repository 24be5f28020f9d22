"""The ``proc`` engine's front door, run as a child of the benchmark.

Builds ``build_proc_engine`` (2 shard workers) for one workload, puts a
``ProcServer`` on an ephemeral localhost port and prints ``{"port": N}``.
Requests arrive over TCP; the benchmark steers this process through
line-delimited JSON on stdin, one JSON reply line per command on stdout:

* ``{"op": "counts"}`` — cumulative hits, misses, remote calls;
* ``{"op": "trace", "on": true|false}`` — install or restore the timing
  wrappers on the router's layers (``layers.wrap_proc_router``);
* ``{"op": "clear"}`` — forget the spans recorded so far;
* ``{"op": "layers", "dump": path|null}`` — the per-layer table of every
  span recorded so far, optionally writing the spans to ``path``.

End of stdin stops the server gracefully (in-flight requests finish, the
workers are shut down and joined) and the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def _serve(workload) -> None:
    from engines import SHARDS, engine_config
    from layers import SpanRecorder, Wrapping, summarize, wrap_proc_router
    from repro.factory import build_proc_engine, build_remote
    from repro.serving.proc.server import ProcServer
    from workloads import build_corpus

    corpus = build_corpus(workload)
    engine = build_proc_engine(
        build_remote(corpus.universe),
        config=engine_config(workload),
        workers=SHARDS,
        io_pause_scale=workload.io_pause_scale,
    )
    server = ProcServer(engine)
    await server.start()
    recorder = SpanRecorder()
    wrapping = Wrapping(recorder)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    _reply({"port": server.port})
    try:
        while line := await stdin.readline():
            command = json.loads(line)
            op = command["op"]
            if op == "counts":
                metrics = engine.metrics
                _reply(
                    {
                        "hits": metrics.hits,
                        "misses": metrics.misses,
                        "remote_calls": engine.remote.calls,
                    }
                )
            elif op == "trace":
                if command["on"]:
                    wrap_proc_router(wrapping, engine)
                else:
                    wrapping.restore()
                _reply({"wrapped": wrapping.installed})
            elif op == "clear":
                recorder.clear()
                _reply({"spans": 0})
            elif op == "layers":
                if command.get("dump"):
                    recorder.dump(command["dump"], "proc-router")
                _reply(summarize(recorder.spans, wall=0.0))
            else:
                _reply({"error": f"unknown op {op!r}"})
    finally:
        wrapping.restore()
        await server.shutdown()


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    arguments = parser.parse_args()
    asyncio.run(_serve(WORKLOADS[arguments.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
