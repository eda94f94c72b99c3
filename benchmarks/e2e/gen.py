"""Workload inputs: documents, operation streams and oracles from one seed.

Everything the program under test receives is generated here from
``--seed``; the program never sees the seed.  Expected answers come
from *centralized* evaluation of the reassembled tree and the expected
traffic from the in-process serial ParBoX engine, both computed when an
operation is generated -- never inside a timed phase.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.core.centralized import evaluate_tree_many
from repro.core.plan import QueryCache, plan_batch
from repro.core.session import QuerySession
from repro.distsim.cluster import Cluster
from repro.workloads.pubsub import subscription_texts
from repro.workloads.queries import random_query
from repro.workloads.topologies import chain_ft2, star_ft1

#: Document scale: XMark nodes per "scaled MB" of the topology factories.
NODES_PER_MB = 160
#: Every distinct text the subscription template pool can produce.
SUBSCRIPTION_POOL = 19
#: The operation mix is part of a workload's shape: the subscription
#: stream (standing batches, the stream workload's book) and the update
#: stream are drawn with this seed, whatever ``--seed`` is.  One batch of
#: `local-chain` costs 50 ms and another 119 ms, and when ``--seed`` dealt
#: the 16 batches their median moved by +-6% from seed to seed (+-25% with
#: a smaller template pool); an update round costs 40, 75, 115 or 160 ms
#: as it dirties 1, 2, 3 or 4 fragments, and ``--seed`` decided how often
#: each happens.  Those are differences between inputs, not between two
#: commits.  ``--seed`` decides the document (so also the nodes an update
#: lands on), which fragment a seal query names, where a caller starts in
#: the round of standing batches, and the never-seen queries.
MIX_SEED = 0


@dataclass(frozen=True)
class Spec:
    """The shape of one workload (sizes only; contents come from the seed)."""

    name: str
    kind: str  # "serve" | "local" | "stream"
    topology: str  # "star" | "chain"
    fragments: int
    nodes: int  # per fragment
    batch: int  # queries per batch
    standing: int  # distinct batches that are sent again and again
    fresh_share: float  # share of operations that are never-seen batches
    prefix_ops: int  # leading operations that feed bytes_per_op and the counts
    why: str
    book: int = 0  # stream: subscriptions kept standing
    read_every: int = 0  # stream: an ad-hoc read after every n-th update round

    @property
    def fresh_every(self) -> int:
        """Every n-th operation is a never-seen batch (0: none is).

        Not each with a probability, so that equal stretches of a run
        hold equal shares of them.
        """
        return round(1 / self.fresh_share) if self.fresh_share else 0

    @property
    def cycle(self) -> int:
        """Operations after which an `OpStream` has sent the same mix again."""
        return self.standing * (self.fresh_every or 1)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "serve-light", "serve", "star", 4, 50, 2, 32, 0.25, 1200,
            "tiny fragments, batches of 2, 25% never-seen: codec, admission, routing, "
            "thread hop and plan-cache hit/miss do the work, the site kernel almost none",
        ),
        Spec(
            "serve-heavy", "serve", "star", 6, 2000, 16, 32, 0.0, 64,
            "2000-node fragments, batches of 16, all resends: the resident site kernel "
            "does most of the work and per-request overhead little",
        ),
        Spec(
            "local-chain", "local", "chain", 48, 40, 8, 16, 0.0, 48,
            "48-fragment chain under the process executor: formula-laden triplets, so "
            "compact codec, pipe transport, dispatch and the equation solve carry the batch",
        ),
        Spec(
            "stream-mixed", "stream", "star", 8, 2000, 8, 8, 0.0, 48,
            "update rounds beside ad-hoc reads through one residency layer: every update "
            "re-ships, re-parses and re-linearizes a 2000-node fragment",
            book=64, read_every=4,
        ),
    )
}


def scaled(spec: Spec, smoke: bool) -> Spec:
    """The spec itself, or its miniature for the smoke test."""
    if not smoke:
        return spec
    return replace(
        spec,
        fragments=min(spec.fragments, 8),
        nodes=max(30, spec.nodes // 20),
        standing=min(spec.standing, 8),
        prefix_ops=8,
        book=min(spec.book, 16),
    )


def build_cluster(spec: Spec, seed: int) -> Cluster:
    """The workload's fragmented document, one fragment per site."""
    factory = star_ft1 if spec.topology == "star" else chain_ft2
    total_mb = spec.fragments * spec.nodes / NODES_PER_MB
    return factory(spec.fragments, total_mb, seed=seed, nodes_per_mb=NODES_PER_MB)


def seal_text(fragment_id: str) -> str:
    """The text of ``repro.workloads.queries.seal_query`` (which returns a
    compiled QList): true iff the fragment carrying that seal takes part."""
    return f'[//seal/text() = "seal-{fragment_id}"]'


class Expected(NamedTuple):
    """What a correct reply to one batch must carry."""

    answers: tuple
    ledger_bytes: int


class Oracle:
    """Centralized answers + serial-engine traffic for any batch."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.cache = QueryCache()
        self.serial = QuerySession(cluster, engine="parbox", cache=self.cache)
        self.refresh()

    def refresh(self) -> None:
        """Re-stitch the document (after updates changed it)."""
        self.tree = self.cluster.fragmented_tree.stitch()

    def answers(self, queries) -> tuple:
        plan = plan_batch([self.cache.qlist(query) for query in queries])
        answers, _ = evaluate_tree_many(self.tree, plan.combined, plan.answer_indices)
        return tuple(answers)

    def expect(self, queries) -> Expected:
        return Expected(
            self.answers(queries),
            self.serial.evaluate_batch(list(queries)).metrics.bytes_total,
        )


class Op(NamedTuple):
    queries: tuple
    expected: Expected


class Inputs:
    """One workload's generated inputs."""

    def __init__(self, spec: Spec, seed: int) -> None:
        started = time.perf_counter()
        self.spec = spec
        self.seed = seed
        self.cluster = build_cluster(spec, seed)
        self.sites = len(self.cluster.source_tree().sites())
        self.oracle = Oracle(self.cluster)
        rng = random.Random(f"{seed}/standing")
        texts = subscription_texts(
            spec.standing * spec.batch, seed=MIX_SEED, pool_size=SUBSCRIPTION_POOL
        )
        batches = [
            texts[start : start + spec.batch]
            for start in range(0, len(texts), spec.batch)
        ]
        if spec.topology == "chain":
            # Two seal queries per batch: one satisfied only by the
            # deepest fragment, one by a random fragment, so the
            # equation system must be solved down the whole chain.
            fragment_ids = self.cluster.source_tree().fragment_ids()
            for batch in batches:
                batch[0] = seal_text(fragment_ids[-1])
                batch[1] = seal_text(rng.choice(fragment_ids))
        #: Expected values hold for the generated document; the stream
        #: workload changes it and asks the oracle again before each read.
        self.standing = [Op(tuple(batch), self.oracle.expect(batch)) for batch in batches]
        self.book = (
            subscription_texts(spec.book, seed=MIX_SEED + 1, pool_size=SUBSCRIPTION_POOL)
            if spec.book
            else []
        )
        self.generate_s = time.perf_counter() - started


class OpStream:
    """One caller's deterministic, endless operation sequence."""

    def __init__(self, inputs: Inputs, caller: int) -> None:
        self.inputs = inputs
        self.rng = random.Random(f"{inputs.seed}/caller{caller}")
        self.ready: deque = deque()
        #: Resends go round the standing batches in order (each caller
        #: from its own seeded start), so any stretch of a run holds the
        #: same mix of cheap and dear batches; drawing them at random made
        #: the median of a stretch depend on the draw.
        self.resends = self.rng.randrange(len(inputs.standing))
        self.made = 0

    def generate(self, count: int) -> None:
        """Append ``count`` operations (oracle work happens here, untimed)."""
        spec = self.inputs.spec
        for _ in range(count):
            self.made += 1
            if spec.fresh_every and self.made % spec.fresh_every == 0:
                queries = tuple(random_query(self.rng) for _ in range(spec.batch))
                self.ready.append(Op(queries, self.inputs.oracle.expect(queries)))
            else:
                standing = self.inputs.standing
                self.ready.append(standing[self.resends % len(standing)])
                self.resends += 1

    def next(self) -> Op:
        if not self.ready:
            self.generate(64)
        return self.ready.popleft()
