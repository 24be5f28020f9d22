"""The repository's benchmark: four serving engines, three agent workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 20 --trace 0

One run builds all four engines (``engines.py``) over the workload's fixed
corpus three times (``setup_s`` is the median build time) and keeps the
last build. Then:

1. **fixed phase**, engine by engine — replays the first
   ``fixed_requests`` queries of the seeded stream with the workload's
   agents. It warms the cache and gives the counts behind
   ``remote_calls_per_req`` and the decision-parity check (on the
   single-agent workload ``thread``, ``async`` and ``proc`` must agree on
   hits, misses and remote calls);
2. **timed phase** — ``--seconds`` of wall time in ``ROUNDS`` rounds; each
   round gives every engine in turn an equal slice, continuing its stream.

``--trace 0`` reports the end-to-end metrics. With ``--trace 1`` the odd
rounds are traced: their spans give the per-layer metrics (``layers.py``)
and their throughput against the even rounds' gives
``<engine>.trace_overhead``. The fixed phase then runs wrapped too, and on
the single-agent workload its counts must equal those of an untraced twin
built in the same run. Both modes print every metric they measured as
``name value unit`` lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and the mode's metrics; details, provenance and
spans go to ``perfbench/out/``. Exit status 1 means a correctness or
parity check failed; 2 means the program's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from engines import (
    ENGINES,
    PhaseRecord,
    ProcHandle,
    async_server,
    build_in_process,
    decision_counts,
    run_agents,
    run_sync,
    run_thread,
    thread_cap,
)
from layers import WRAP, SpanRecorder, Wrapping, summarize
from workloads import WORKLOADS, Stream, build_corpus

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Engine constructions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: The timed phase visits the four engines in turn this many times, so
#: each engine's numbers sample the whole run, not one stretch of it. In a
#: traced run the odd rounds are traced.
ROUNDS = 12
#: Statuses that answer the agent (a stale hit still carries a payload).
SERVED = ("ok", "stale_hit")
#: Timed-phase queries generated per second of an engine's fixed-phase
#: rate, so the stream cannot run dry before the deadline.
STREAM_MARGIN = 3.0


class CheckFailed(Exception):
    """A served answer or a decision count broke the benchmark's checks."""


def end_to_end_names(engines) -> list[str]:
    names = []
    for metric in ("rps", "p50_ms", "p99_ms"):
        names += [f"{metric}.{engine}" for engine in engines]
    return names + ["hit_rate", "accuracy", "remote_calls_per_req", "setup_s"]


END_TO_END_UNITS = {"rps": "1/s", "p50_ms": "ms", "p99_ms": "ms", "setup_s": "s"}

#: Per-layer quantities reported for the three in-process engines.
IN_PROCESS_LAYERS = {
    "embedding.us_per_call": "us",
    "embedding.memo_hit_ratio": "ratio",
    "ann.search_us": "us",
    "ann.candidates_per_search": "count",
    "ann.update_us": "us",
    "ann.updates_per_req": "count",
    "judger.pairs_per_req": "count",
    "judger.accept_ratio": "ratio",
    "judger.busy_share": "ratio",
    "cache.insert_us": "us",
    "cache.evictions_per_req": "count",
    "remote.calls_per_req": "count",
    "remote.wait_ms": "ms",
    "engine.unattributed_share": "ratio",
}
#: What the benchmark can time of ``proc`` from outside its workers.
PROC_LAYERS = {
    "wire.front_us": "us",
    "shard.lookup_us": "us",
    "shard.insert_us": "us",
    "shard.rtts_per_req": "count",
    "router.unattributed_share": "ratio",
    "remote.calls_per_req": "count",
    "remote.wait_ms": "ms",
    "singleflight.coalesced_ratio": "ratio",
}


def per_layer_units(engines) -> dict[str, str]:
    units = {}
    for engine in engines:
        if engine == "proc":
            layers = dict(PROC_LAYERS)
        else:
            layers = dict(IN_PROCESS_LAYERS)
            if engine != "sync":
                layers["singleflight.coalesced_ratio"] = "ratio"
        layers["trace_overhead"] = "ratio"
        units.update({f"{engine}.{name}": unit for name, unit in layers.items()})
    return units


def end_to_end_unit(name: str) -> str:
    return END_TO_END_UNITS.get(name.split(".")[0], "ratio")


# -- provenance ----------------------------------------------------------------
def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # A checkout without git history is still identified by its sources.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.params(),
    }


# -- checks and per-engine rows --------------------------------------------------
def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = -(-q * len(sorted_values) // 1)
    return sorted_values[max(0, int(rank) - 1)]


class AnswerCheck:
    """Compares every served result with ``FactUniverse.resolve``."""

    def __init__(self, universe) -> None:
        from repro.core import Query

        self.universe = universe
        self.truth = {
            fact.fact_id: universe.resolve(Query(fact.core, fact_id=fact.fact_id))
            for fact in universe
        }
        self.answers = set(self.truth.values())

    def __call__(self, record, stream) -> dict:
        """Served, correct and failed counts of one phase.

        Raises :class:`CheckFailed` for a served request with no result or
        with a result that is no fact's answer; another fact's answer is a
        wrong answer and counts against accuracy.
        """
        served = correct = failed = 0
        for index, status, result in zip(record.indices, record.statuses, record.results):
            if status not in SERVED:
                failed += 1
                continue
            served += 1
            if not result:
                raise CheckFailed(f"request {index} was served with no result")
            if result not in self.answers:
                raise CheckFailed(f"request {index} got a result that is no fact's answer")
            query = stream[index]
            truth = self.truth.get(query.fact_id)
            if truth is None:
                truth = self.universe.resolve(query)
            correct += result == truth
        return {"served": served, "correct": correct, "failed": failed}


def timed_row(record, answers, before, after) -> dict:
    """End-to-end quantities of one engine's untraced timed windows."""
    latencies = sorted(
        latency for latency, status in zip(record.latencies, record.statuses) if status in SERVED
    )
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    row = {
        "wall_s": record.wall,
        "requests": len(record.indices),
        "served": answers["served"],
        "failed": answers["failed"],
        "rps": answers["served"] / record.wall,
        "latency_samples": len(latencies),
        "samples_beyond_p99": len(latencies) - int(-(-0.99 * len(latencies) // 1)),
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "hits": hits,
        "lookups": lookups,
        "hit_rate": hits / lookups if lookups else 0.0,
        "accuracy": answers["correct"] / answers["served"] if answers["served"] else 0.0,
    }
    if record.front:
        row["front_us"] = statistics.fmean(record.front) * 1e6
    return row


def slice_summary(record) -> dict:
    """Throughput and latency of one slice, kept in the details file."""
    latencies = sorted(record.latencies)
    return {
        "requests": len(latencies),
        "rps": len(latencies) / record.wall,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def combine(records):
    """One record holding several windows' requests, walls summed."""
    out = PhaseRecord(wall=sum(record.wall for record in records))
    for key in ("indices", "statuses", "results", "latencies", "front"):
        setattr(out, key, [item for record in records for item in getattr(record, key)])
    return out


def add_counts(rows) -> dict:
    return {key: sum(row[key] for row in rows) for key in rows[0]}


# -- the session ----------------------------------------------------------------
class Lane:
    """One engine's progress through the timed phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.recorder = None
        self.wrapping = None
        #: Next stream index this engine serves.
        self.first = 0
        #: Decision counts when the timed phase began.
        self.before: dict = {}
        #: (record, answers) per slice, untraced (False) and traced (True).
        self.slices: dict = {False: [], True: []}


class Session:
    """One run: builds the engines, runs their phases, keeps the rows."""

    def __init__(self, workload, corpus, stream, seconds: float, trace: bool):
        self.workload = workload
        self.corpus = corpus
        self.stream = stream
        #: Timed seconds per engine, spread over the rounds.
        self.engine_seconds = seconds / len(ENGINES)
        self.trace = trace
        self.check = AnswerCheck(corpus.universe)
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: Decision counts of each engine's fixed phase (and, traced
        #: single-agent runs, of its untraced twin's).
        self.fixed: dict[str, dict] = {}
        self.twin: dict[str, dict] = {}
        self.rows: dict[str, dict] = {}
        self.layers: dict[str, dict] = {}

    # -- engine lifecycles ------------------------------------------------------
    async def build(self) -> dict:
        gc.collect()
        begin = time.perf_counter()
        engines = build_in_process(self.workload, self.corpus)
        engines["proc"] = await ProcHandle.start(self.workload)
        self.setup_times.append(time.perf_counter() - begin)
        return engines

    @staticmethod
    async def teardown(engines) -> None:
        engines["thread"].close()
        await engines["proc"].stop()

    async def run(self) -> None:
        for rep in range(SETUP_REPS - 1):
            engines = await self.build()
            try:
                if rep == 0 and self.trace and self.workload.agents == 1:
                    # Untraced twins replay the fixed phase, so the wrapped
                    # replay of the kept engines can be compared with it.
                    for name in ENGINES:
                        self.twin[name] = await self.fixed_phase(name, engines)
            finally:
                await self.teardown(engines)
        engines = await self.build()
        try:
            lanes = {name: await self.start_lane(name, engines) for name in ENGINES}
            for round_index in range(ROUNDS):
                traced = self.trace and round_index % 2 == 1
                for name in ENGINES:
                    await self.timed_slice(lanes[name], engines, traced)
            for name in ENGINES:
                await self.finish_lane(lanes[name], engines)
        finally:
            await self.teardown(engines)

    # -- phases --------------------------------------------------------------------
    async def serve(self, name, engines, first, limit, deadline, recorder):
        """One phase of ``name``'s agents; returns its :class:`PhaseRecord`."""
        agents = self.workload.agents
        queries = self.stream.queries
        engine = engines[name]
        if name == "sync":
            return run_sync(engine, queries, first, limit, deadline, recorder)
        if name == "thread":
            agents = thread_cap(agents)
            return run_thread(engine, queries, first, limit, deadline, agents, recorder)
        serve_one = async_server(engine, recorder) if name == "async" else engine.server()
        return await run_agents(serve_one, queries, first, limit, deadline, agents)

    async def counts(self, name, engines) -> dict:
        if name == "proc":
            return await engines["proc"].counts()
        return decision_counts(engines[name])

    def account(self, record) -> dict:
        answers = self.check(record, self.stream)
        self.attempted += len(record.indices)
        self.failed += answers["failed"]
        return answers

    async def fixed_phase(self, name, engines, recorder=None) -> dict:
        """Replay the fixed slice; the row holds its decision counts."""
        before = await self.counts(name, engines)
        record = await self.serve(name, engines, 0, self.workload.fixed_requests, None, recorder)
        answers = self.account(record)
        after = await self.counts(name, engines)
        row = {key: after[key] - before[key] for key in before}
        row["served"] = answers["served"]
        row["rps"] = len(record.indices) / record.wall
        return row

    @staticmethod
    async def set_tracing(lane: "Lane", engines, on: bool) -> None:
        if lane.name == "proc":
            await engines["proc"].command(op="trace", on=on)
        elif on:
            WRAP[lane.name](lane.wrapping, engines[lane.name])
        else:
            lane.wrapping.restore()

    async def start_lane(self, name, engines) -> "Lane":
        """Run ``name``'s fixed phase (wrapped in a traced run) and open its
        lane for the timed slices."""
        lane = Lane(name)
        if self.trace:
            lane.recorder = SpanRecorder()
            lane.wrapping = Wrapping(lane.recorder)
            await self.set_tracing(lane, engines, True)
        begin = time.perf_counter()
        fixed = self.fixed[name] = await self.fixed_phase(name, engines, lane.recorder)
        if self.trace:
            await self.set_tracing(lane, engines, False)
            lane.recorder.clear()
            if name == "proc":
                await engines["proc"].command(op="clear")
        lane.first = self.workload.fixed_requests
        self.fixed[name]["wall_s"] = time.perf_counter() - begin
        self.stream.ensure(lane.first + int(STREAM_MARGIN * fixed["rps"] * self.engine_seconds))
        lane.before = await self.counts(name, engines)
        return lane

    async def timed_slice(self, lane: "Lane", engines, traced: bool) -> None:
        """One round's share of ``lane``'s timed phase."""
        if traced:
            await self.set_tracing(lane, engines, True)
        gc.collect()
        limit = len(self.stream)
        deadline = time.perf_counter() + self.engine_seconds / ROUNDS
        record = await self.serve(
            lane.name, engines, lane.first, limit, deadline, lane.recorder if traced else None
        )
        if traced:
            await self.set_tracing(lane, engines, False)
        if not record.indices or max(record.indices) >= limit - 1:
            raise RuntimeError(f"{lane.name}: the query stream ran dry")
        lane.first = max(record.indices) + 1
        lane.slices[traced].append((record, self.account(record)))

    async def finish_lane(self, lane: "Lane", engines) -> None:
        after = await self.counts(lane.name, engines)
        untraced = combine([record for record, _ in lane.slices[False]])
        answers = add_counts([answers for _, answers in lane.slices[False]])
        self.rows[lane.name] = timed_row(untraced, answers, lane.before, after)
        self.rows[lane.name]["slices"] = [
            dict(slice_summary(record), traced=traced)
            for traced in (False, True)
            for record, _ in lane.slices[traced]
        ]
        if self.trace:
            traced = combine([record for record, _ in lane.slices[True]])
            self.layers[lane.name] = await self.layer_row(lane, engines, traced)

    async def layer_row(self, lane: "Lane", engines, traced) -> dict:
        name = lane.name
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{self.workload.name}-{name}.json"
        if name == "proc":
            summary = await engines["proc"].command(op="layers", dump=str(dump))
            summary["wire.front_us"] = statistics.fmean(traced.front) * 1e6
            summary["router.unattributed_share"] = summary["engine.unattributed_share"]
        else:
            lane.recorder.dump(dump, f"{self.workload.name}-{name}")
            summary = summarize(lane.recorder.spans, traced.wall)
        traced_rps = len(traced.indices) / traced.wall
        summary["trace_overhead"] = 1.0 - traced_rps / self.rows[name]["rps"]
        return summary

    # -- checks and metrics ---------------------------------------------------------
    def check_decisions(self) -> None:
        """Decision parity: one agent on 2 shards makes ``thread``, ``async``
        and ``proc`` agree, and the wrapped replay equals its untraced twin."""
        if self.workload.agents != 1:
            return
        keys = ("hits", "misses", "remote_calls")
        seen = {name: tuple(self.fixed[name][key] for key in keys) for name in self.fixed}
        parity = {seen[name] for name in ("thread", "async", "proc")}
        if len(parity) != 1:
            raise CheckFailed(f"decision parity broken: {seen}")
        for name, row in self.twin.items():
            twin = tuple(row[key] for key in keys)
            if twin != seen[name]:
                raise CheckFailed(
                    f"{name}: wrapped fixed phase {seen[name]} != untraced twin {twin}"
                )

    def end_to_end(self) -> dict:
        values = {}
        for name in end_to_end_names(ENGINES):
            metric, _, engine = name.partition(".")
            if engine:
                values[name] = self.rows[engine][metric]
        # Worst engine, not the average: one engine's regression shows whole.
        values["hit_rate"] = min(row["hit_rate"] for row in self.rows.values())
        values["accuracy"] = min(row["accuracy"] for row in self.rows.values())
        values["remote_calls_per_req"] = max(
            row["remote_calls"] / row["served"] for row in self.fixed.values()
        )
        values["setup_s"] = statistics.median(self.setup_times)
        return values

    def per_layer(self) -> dict:
        units = per_layer_units(ENGINES)
        values = {}
        for name in units:
            engine, quantity = name.split(".", 1)
            values[name] = self.layers[engine][quantity]
        return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS.get(arguments.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    trace = bool(arguments.trace)
    corpus = build_corpus(workload)
    stream = Stream(workload, corpus, arguments.seed)
    session = Session(workload, corpus, stream, arguments.seconds, trace)
    correct = True
    try:
        asyncio.run(session.run())
        session.check_decisions()
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
    details = {
        "provenance": provenance(workload, arguments.seed, arguments.seconds, arguments.trace),
        "correct": correct,
        "setup_times_s": session.setup_times,
        "fixed_phase": session.fixed,
        "untraced_twin": session.twin,
        "timed_phase": session.rows,
        "layers": session.layers,
    }
    origin = details["provenance"]
    print(
        f"provenance: commit={origin['commit']} src={origin['source_sha256'][:12]} "
        f"nproc={origin['nproc']} python={origin['python']} numpy={origin['numpy']} "
        f"workload={workload.name} seed={arguments.seed} seconds={arguments.seconds:g}"
    )
    metrics = {}
    if correct:
        printed = session.end_to_end()
        units = {name: end_to_end_unit(name) for name in printed}
        if trace:
            layer_values = session.per_layer()
            layer_units = per_layer_units(ENGINES)
            printed.update(layer_values)
            units.update(layer_units)
            metrics = {name: {"value": layer_values[name], "unit": layer_units[name]}
                       for name in layer_values}
        else:
            metrics = {name: {"value": printed[name], "unit": units[name]} for name in printed}
        details["metrics"] = {name: [printed[name], units[name]] for name in printed}
        for name, value in printed.items():
            print(f"{name} {value:.6g} {units[name]}")
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / f"result-{workload.name}-seed{arguments.seed}-trace{arguments.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
