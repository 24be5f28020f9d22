"""The benchmark's agent workloads and their seeded query streams.

Each workload is a fixed knowledge corpus (a synthetic QA dataset built
with corpus seed 0, so every run asks about the same facts) and a traffic
shape; ``--seed`` chooses the traffic: which facts are asked, by Zipf
popularity, and which of the 112 paraphrases asks each time. Engines see
only the generated :class:`~repro.core.Query` objects.

Why these two:

* ``search-warm`` — one agent re-asking popular facts through fresh
  paraphrases against a warm cache. Most requests hit, so the median is
  the per-request read path (embed, ANN search, judge, engine
  bookkeeping, and for ``proc`` the router and wire round trips); the
  misses wait on the remote service and set the tail. One agent also makes
  ``thread``, ``async`` and ``proc`` decide identically, which the run
  checks.
* ``search-churn`` — eight agents over 2,000 facts with a 200-item cache:
  most requests miss, wait for the remote service, admit and evict. The
  write-heavy counterpart, where remote fetch, single-flight, admission,
  eviction and ANN updates carry the load.

Both give every engine a real remote wait on misses (``io_pause_scale``;
``sync`` stays analytic, so its row is the CPU cost alone). Workloads whose
tail is set by CPU contention or by cross-process wake-ups alone did not
repeat within the benchmark's bounds on a shared 2-vCPU host and are left
out (see ``CHANGES.md``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from zlib import crc32

import numpy as np

#: Corpus seed: the facts are fixed, only the traffic varies with --seed.
CORPUS_SEED = 0
#: Simulated seconds between consecutive requests of the stream (drives
#: TTLs and the analytic latency clock; far below the 3600 s default TTL
#: over any run's request count).
TIME_STEP = 0.01
#: Queries drawn per generator (see :class:`Stream`).
STREAM_CHUNK = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix; every field is recorded with each result."""

    name: str
    why: str
    dataset: str
    facts: int
    zipf_s: float
    capacity: int | None
    agents: int
    #: Real seconds a remote fetch pauses per simulated second
    #: (``thread``, ``async`` and ``proc``; ``sync`` stays analytic).
    io_pause_scale: float
    #: Requests replayed in the same order by every engine before timing:
    #: they warm the cache and give the counts behind
    #: ``remote_calls_per_req`` and the parity check.
    fixed_requests: int

    def params(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="search-warm",
            why="1 agent, 300 hotpotqa facts at Zipf 0.99, 150-item cache: most "
            "requests hit (p50 is the read path), misses wait on remote (p99)",
            dataset="hotpotqa",
            facts=300,
            zipf_s=0.99,
            capacity=150,
            agents=1,
            io_pause_scale=0.02,
            fixed_requests=500,
        ),
        Workload(
            name="search-churn",
            why="8 agents, 2000 hotpotqa facts at Zipf 0.6, 200-item cache: "
            "most requests wait on remote, admit and evict",
            dataset="hotpotqa",
            facts=2000,
            zipf_s=0.6,
            capacity=200,
            agents=8,
            io_pause_scale=0.01,
            fixed_requests=600,
        ),
    )
}


def build_corpus(workload: Workload):
    """The workload's fixed :class:`~repro.workloads.QADataset`."""
    from repro.workloads import build_dataset

    return build_dataset(workload.dataset, seed=CORPUS_SEED, n_facts=workload.facts)


class Stream:
    """The seeded query stream of one workload, generated in chunks.

    Chunk ``k`` draws from its own generator seeded by (seed, workload,
    k), so the same (workload, seed) always gives the same sequence and
    :meth:`ensure` only appends. The first ``workload.fixed_requests``
    queries are the fixed phase; the rest feed the timed phase.
    """

    def __init__(self, workload: Workload, dataset, seed: int) -> None:
        from repro.workloads import ZipfSampler

        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.queries: list = []
        self._sampler = ZipfSampler(len(dataset.universe), workload.zipf_s)
        self.ensure(workload.fixed_requests)

    def ensure(self, count: int) -> None:
        """Generate whole chunks until at least ``count`` queries exist."""
        dataset = self.dataset
        variants = dataset.paraphraser.variants
        tag = crc32(self.workload.name.encode())
        while len(self.queries) < count:
            chunk = len(self.queries) // STREAM_CHUNK
            rng = np.random.default_rng([self.seed, tag, chunk])
            ranks = self._sampler.sample_many(rng, STREAM_CHUNK)
            phrasings = rng.integers(variants, size=STREAM_CHUNK)
            self.queries.extend(
                dataset.query_for(dataset.universe.by_rank(int(rank)), int(variant))
                for rank, variant in zip(ranks, phrasings)
            )

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, index):
        return self.queries[index]
