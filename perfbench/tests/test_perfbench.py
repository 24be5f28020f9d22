"""The benchmark's own tests: seeded inputs, names, wrappers, checks."""

from __future__ import annotations

import asyncio
import json
import pathlib

import pytest

from engines import ENGINES, ProcHandle, build_in_process, run_sync
from layers import WRAP, SpanRecorder, Wrapping, self_times, summarize
from run import (
    AnswerCheck,
    CheckFailed,
    end_to_end_names,
    end_to_end_unit,
    per_layer_units,
    percentile,
)
from workloads import STREAM_CHUNK, WORKLOADS, Stream, build_corpus

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@pytest.fixture(scope="module")
def corpora():
    return {name: build_corpus(workload) for name, workload in WORKLOADS.items()}


# -- seeded inputs ------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_a_function_of_the_seed(name, corpora):
    workload = WORKLOADS[name]
    first = Stream(workload, corpora[name], seed=3)
    again = Stream(workload, corpora[name], seed=3)
    other = Stream(workload, corpora[name], seed=4)
    assert [q.text for q in first.queries] == [q.text for q in again.queries]
    assert [q.fact_id for q in first.queries] == [q.fact_id for q in again.queries]
    assert [q.text for q in first.queries] != [q.text for q in other.queries]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_longer_stream_extends_the_shorter(name, corpora):
    workload = WORKLOADS[name]
    short = Stream(workload, corpora[name], seed=9)
    prefix = [q.text for q in short.queries]
    short.ensure(len(prefix) + 2 * STREAM_CHUNK + 1)
    assert [q.text for q in short.queries[: len(prefix)]] == prefix
    assert len(short) >= len(prefix) + 2 * STREAM_CHUNK + 1
    assert len(prefix) >= workload.fixed_requests


def test_corpus_does_not_depend_on_the_seed(corpora):
    for name, workload in WORKLOADS.items():
        rebuilt = build_corpus(workload)
        assert [f.fact_id for f in rebuilt.universe] == [
            f.fact_id for f in corpora[name].universe
        ]
        assert len(rebuilt.universe) == workload.facts


# -- names -----------------------------------------------------------------------------
def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    names = end_to_end_names(ENGINES)
    assert len(names) == 16
    assert list(declared) == names
    assert declared == {name: end_to_end_unit(name) for name in names}


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == per_layer_units(ENGINES)


# -- wrappers ---------------------------------------------------------------------------
def _wrapped_objects(engines):
    sync, thread, aio = engines["sync"], engines["thread"], engines["async"]
    objects = [sync.remote, thread.remote, thread.singleflight]
    objects += [aio.remote, aio.remote.service, aio.singleflight]
    for cache in [sync.cache, *thread.cache.shards, *aio.cache.shards]:
        sine = cache.sine
        objects += [cache, sine.embedder, sine.index, sine.judger]
    return objects


def test_wrappers_install_and_restore(corpora):
    workload = WORKLOADS["search-warm"]
    engines = build_in_process(workload, corpora["search-warm"])
    objects = _wrapped_objects(engines)
    before = [dict(vars(obj)) for obj in objects]
    wrapping = Wrapping(SpanRecorder())
    for name in ("sync", "thread", "async"):
        WRAP[name](wrapping, engines[name])
    assert wrapping.installed > 0
    assert all(len(vars(obj)) > len(state) for obj, state in zip(objects, before))
    with pytest.raises(ValueError):
        WRAP["sync"](Wrapping(SpanRecorder()), engines["sync"])
    wrapping.restore()
    assert wrapping.installed == 0
    assert [dict(vars(obj)) for obj in objects] == before
    engines["thread"].close()


def test_wrapped_engine_makes_the_same_decisions(corpora):
    workload = WORKLOADS["search-warm"]
    corpus = corpora["search-warm"]
    queries = Stream(workload, corpus, seed=5).queries[:300]
    plain = build_in_process(workload, corpus)["sync"]
    wrapped = build_in_process(workload, corpus)["sync"]
    recorder = SpanRecorder()
    wrapping = Wrapping(recorder)
    WRAP["sync"](wrapping, wrapped)
    first = run_sync(plain, queries, 0, len(queries), None)
    second = run_sync(wrapped, queries, 0, len(queries), None, recorder)
    wrapping.restore()
    assert first.results == second.results
    assert plain.metrics.summary()["hits"] == wrapped.metrics.summary()["hits"]
    assert wrapped.remote.calls == plain.remote.calls
    names = {span[3] for span in recorder.spans}
    assert {"request", "embedding.embed", "ann.search", "judger.judge"} <= names
    assert {"cache.insert", "ann.update", "remote.fetch_at"} <= names
    requests = [span for span in recorder.spans if span[3] == "request"]
    assert len(requests) == len(queries)
    assert all(span[2] is not None for span in recorder.spans)


def test_proc_child_serves_counts_and_traces(corpora):
    workload = WORKLOADS["search-warm"]
    queries = Stream(workload, corpora["search-warm"], seed=2).queries[:40]

    async def scenario():
        handle = await ProcHandle.start(workload)
        try:
            assert (await handle.command(op="trace", on=True))["wrapped"] > 0
            serve_one = handle.server()
            for index, query in enumerate(queries):
                status, result, _ = await serve_one(index, query)
                assert status == "ok" and result
            assert (await handle.command(op="trace", on=False))["wrapped"] == 0
            layers = await handle.command(op="layers", dump=None)
            counts = await handle.counts()
        finally:
            await handle.stop()
        return handle, layers, counts

    handle, layers, counts = asyncio.run(scenario())
    assert handle.process.returncode == 0
    assert layers["requests"] == len(queries)
    assert layers["shard.rtts_per_req"] >= 1.0
    assert counts["hits"] + counts["misses"] == len(queries)
    assert counts["remote_calls"] == counts["misses"]


# -- derivations and checks -------------------------------------------------------------
def test_self_time_subtracts_covered_children():
    spans = [
        (1, None, 1, "request", 0.0, 10.0, None),
        (2, 1, 1, "ann.search", 1.0, 4.0, 2),
        (3, 1, 1, "judger.judge", 3.0, 6.0, 1),
        (4, 3, 1, "embedding.embed", 4.0, 5.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}
    table = summarize(spans, wall=10.0)
    assert table["requests"] == 1
    assert table["engine.unattributed_share"] == pytest.approx(0.5)
    assert table["judger.busy_share"] == pytest.approx(0.3)
    assert table["ann.candidates_per_search"] == 2
    assert table["embedding.memo_hit_ratio"] == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0


def test_answer_check_counts_wrong_and_rejects_foreign(corpora):
    from engines import PhaseRecord

    corpus = corpora["search-warm"]
    stream = Stream(WORKLOADS["search-warm"], corpus, seed=1)
    check = AnswerCheck(corpus.universe)
    truth = corpus.universe.resolve(stream[0])
    other = next(a for a in check.answers if a != truth)
    record = PhaseRecord()
    record.add(0, "ok", truth, 0.001)
    record.add(0, "ok", other, 0.001)
    record.add(0, "overloaded", None, 0.0)
    assert check(record, stream) == {"served": 2, "correct": 1, "failed": 1}
    for bad in ("", "made-up answer"):
        record = PhaseRecord()
        record.add(0, "ok", bad, 0.001)
        with pytest.raises(CheckFailed):
            check(record, stream)
