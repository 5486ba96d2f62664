"""The benchmark's three workloads: set-up, seeded op lists, oracles.

Every workload runs over one fixed corpus, the paper's Restaurants
dataset at 1% scale (4,563 objects, about 14 distinct words each).  The
seed decides only the ops.  Each seed gives a fixed op list of
``rate * seconds`` ops in ``BLOCKS`` blocks with exact counts per class:
each block's class labels are laid out by count and shuffled by the
seed, and the query contents come from the repository's own seeded
query generator.  One seed and one ``--seconds`` always give the same
ops, whatever the machine's speed.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
from dataclasses import dataclass

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.core.search import brute_force_top_k
from repro.core.search_general import brute_force_ranked
from repro.datasets import SpatialTextDatasetGenerator, restaurants_config
from repro.model import SpatialObject
from repro.serve import QueryService
from repro.shard import ShardedEngine

#: The corpus every workload serves (its generator seed is fixed).
CORPUS_SCALE = 0.01

#: Oids of objects inserted by ``write_mix`` start here, clear of the corpus.
INSERT_OID_BASE = 10_000_000

#: Results per query.
K = 10


@dataclass(frozen=True)
class Op:
    """One client op: a read (``query``), an ``add`` (``obj``) or a ``delete``."""

    kind: str
    cls: str
    query: SpatialKeywordQuery | None = None
    obj: SpatialObject | None = None
    oid: int | None = None


@dataclass
class State:
    """What one set-up produced: the service under test and its engine."""

    service: QueryService
    engine: object
    objects: list
    ranking: DistanceDecayRanking
    tmpdir: str | None = None
    #: Oids the op list leaves live (set by workloads that write).
    expected_live: list | None = None

    def close(self) -> None:
        self.service.close()
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


def generate_corpus(seed: int = 11, n_objects: int | None = None) -> list:
    config = restaurants_config(scale=CORPUS_SCALE, seed=seed)
    if n_objects is not None:
        config = dataclasses.replace(config, n_objects=n_objects)
    return SpatialTextDatasetGenerator(config).generate()


def class_counts(total: int, shares: dict[str, float]) -> dict[str, int]:
    """Exact per-class counts summing to ``total`` (largest remainder)."""
    raw = {name: total * share for name, share in shares.items()}
    counts = {name: int(value) for name, value in raw.items()}
    short = total - sum(counts.values())
    by_remainder = sorted(raw, key=lambda name: (counts[name] - raw[name], name))
    for name in by_remainder[:short]:
        counts[name] += 1
    return counts


def shuffled_slots(rng: random.Random, counts: dict[str, int]) -> list[str]:
    slots = [name for name in sorted(counts) for _ in range(counts[name])]
    rng.shuffle(slots)
    return slots


def term_postings(term_lists) -> dict[str, set[int]]:
    """Term -> indices of the term lists (objects) that hold it."""
    postings: dict[str, set[int]] = {}
    for i, terms in enumerate(term_lists):
        for term in terms:
            postings.setdefault(term, set()).add(i)
    return postings


class QuerySampler:
    """Seeded query contents, stratified by cost.

    The contents come from the repository's own query generator
    (:class:`repro.bench.workloads.ConcurrentLoadGenerator`, the one the
    paper suite and the sample query log use): keywords co-occur in one
    object's text, so every conjunction has an answer, and the query point
    is uniform over the data extent.  This class adds only the cost
    stratification of :meth:`stratified`; ``rng`` is the op list's own
    stream, for the strata picks.
    """

    def __init__(self, objects, analyzer, ranking, seed: int, rng: random.Random):
        self.generator = ConcurrentLoadGenerator(objects, analyzer, seed=seed)
        self.analyzer = analyzer
        self.ranking = ranking
        self.rng = rng
        self.postings = term_postings(analyzer.terms(o.text) for o in objects)

    def read(self, cls: str) -> SpatialKeywordQuery:
        """A read of class ``point<n>``, ``area<n>`` or ``ranked<n>``."""
        count = int(cls[-1])
        if cls.startswith("area"):
            return self.generator.area_query(count, K)
        query = self.generator.query(count, K)
        if cls.startswith("ranked"):
            return query.with_ranking(self.ranking)
        return query

    def cost_proxy(self, query: SpatialKeywordQuery) -> float:
        """How many objects the keywords select, which sets most of the cost.

        Distance-first searches run longer the rarer the conjunction
        (how many objects hold every keyword); ranked searches run longer
        the more common their commonest keyword.
        """
        sets = [self.postings.get(t, set())
                for t in self.analyzer.query_terms(query.keywords)]
        if query.ranking is not None:
            return max(len(s) for s in sets)
        return len(set.intersection(*sets))

    def stratified(self, cls: str, n: int, factor: int) -> list:
        """``n`` reads of ``cls``, one from each of ``n`` cost strata.

        Draws ``factor * n`` candidates, orders them by
        :meth:`cost_proxy` and takes one at random from each run of
        ``factor``: every seed gets the same spread of selectivities,
        so seeds differ far less in total cost than ``n`` free draws.
        """
        pool = [self.read(cls) for _ in range(n * factor)]
        keyed = sorted(
            (self.cost_proxy(q), self.rng.random(), i) for i, q in enumerate(pool)
        )
        chosen = [pool[keyed[j * factor + self.rng.randrange(factor)][2]]
                  for j in range(n)]
        self.rng.shuffle(chosen)
        return chosen


def half_distance(objects) -> float:
    """Decay scale of the ranked queries: 10% of the widest data span."""
    dims = len(objects[0].point)
    spans = [
        max(o.point[d] for o in objects) - min(o.point[d] for o in objects)
        for d in range(dims)
    ]
    return max(spans) * 0.1


class Oracle:
    """The repository's brute-force answers over a set of live objects.

    A per-term index narrows each query to the objects that can answer
    it (all terms for distance-first queries, any term for ranked ones,
    whose zero-relevance objects are pruned); the brute-force functions
    then rank those candidates exactly as they would the whole set.
    """

    def __init__(self, objects, analyzer, vocabulary):
        self.objects = list(objects)
        self.analyzer = analyzer
        self.vocabulary = vocabulary
        self.postings = term_postings(analyzer.terms(o.text) for o in self.objects)

    def answer(self, query):
        terms = self.analyzer.query_terms(query.keywords)
        sets = [self.postings.get(term, set()) for term in terms]
        if query.ranking is not None:
            hits = set().union(*sets)
        else:
            hits = set.intersection(*sets) if sets else set(range(len(self.objects)))
        candidates = [self.objects[i] for i in sorted(hits)]
        if query.ranking is not None:
            return brute_force_ranked(
                candidates, self.analyzer, self.vocabulary, query, query.ranking
            )
        return brute_force_top_k(candidates, self.analyzer, query)


def same_answer(got, want) -> bool:
    """Identical oids in rank order, with equal distances and scores."""
    if [r.obj.oid for r in got] != [r.obj.oid for r in want]:
        return False
    for g, w in zip(got, want):
        if abs(g.distance - w.distance) > 1e-9:
            return False
        if g.score is not None and w.score is not None:
            if abs(g.score - w.score) > 1e-9 * max(1.0, abs(w.score)):
                return False
    return True


#: Blocks of the timed list.  Each block has exact class counts of its own,
#: so every stretch of the pass carries the same mix.
BLOCKS = 10


def block_bounds(total: int) -> list[int]:
    """Op indices where the ``BLOCKS`` blocks of a ``total``-op list start."""
    return [round(i * total / BLOCKS) for i in range(BLOCKS + 1)]


class Workload:
    """Base: a name, a nominal op rate, op-class shares and a warm-up size."""

    name = ""
    #: Ops per second of ``--seconds`` the timed list is sized for.
    rate = 1.0
    warmup_ops = 0
    #: Op classes of the timed pass and their shares of its ops.
    shares: dict[str, float] = {}
    #: Reads of the timed pass whose answers are checked.
    check_sample = 100
    #: Whether the op list writes; such a pass ends with ``service.flush()``.
    writes = False
    #: Candidates drawn per read kept (see :meth:`QuerySampler.stratified`).
    strata_factor = 8

    def setup(self, workdir: str) -> State:
        raise NotImplementedError

    def op_count(self, seconds: float) -> int:
        return max(len(self.shares) * BLOCKS, round(self.rate * seconds))

    def make_ops(self, state: State, seed: int, seconds: float):
        """``(warmup, timed)`` op lists for ``seed``."""
        rng = random.Random(seed)
        sampler = QuerySampler(
            state.objects, state.engine.analyzer, state.ranking,
            rng.randrange(1 << 30), rng,
        )
        blocks = self.block_counts(seconds)
        inputs = self.begin(state, sampler, blocks)
        warm = [self.warm_op(sampler, i, inputs) for i in range(self.warmup_ops)]
        timed = []
        for counts in blocks:
            reads = {
                cls: iter(sampler.stratified(cls, n, self.strata_factor))
                for cls, n in counts.items() if cls[-1].isdigit()
            }
            timed += [self.op(cls, reads, rng, inputs)
                      for cls in shuffled_slots(rng, counts)]
        return warm, timed

    def block_counts(self, seconds: float) -> list[dict[str, int]]:
        """Exact per-class op counts of each block of the timed list."""
        bounds = block_bounds(self.op_count(seconds))
        return [class_counts(hi - lo, self.shares)
                for lo, hi in zip(bounds, bounds[1:])]

    def begin(self, state: State, sampler: QuerySampler, blocks) -> dict:
        """Inputs drawn once per op list, before the ops (none by default)."""
        return {}

    def op(self, cls: str, reads: dict, rng: random.Random, inputs: dict) -> Op:
        return Op("read", cls, query=next(reads[cls]))

    def warm_op(self, sampler: QuerySampler, i: int, inputs: dict) -> Op:
        classes = sorted(c for c in self.shares if c[-1].isdigit())
        cls = classes[i % len(classes)]
        return Op("read", cls, query=sampler.read(cls))

    def oracle(self, state: State) -> Oracle:
        """The oracle over the service's live objects."""
        engine = state.service.engine
        corpus = getattr(engine, "corpus", None)
        return Oracle(engine.objects(), engine.analyzer,
                      corpus.vocabulary if corpus is not None else None)


#: Share of area and of ranked reads among unique reads, and of hot repeats
#: in served traffic: the defaults of the repository's serving mix,
#: ``ConcurrentLoadGenerator.mixed_batch`` (``area_fraction=0.2``,
#: ``ranked_fraction=0.2``, ``hot_fraction=0.3``, ``hot_pool=8``).  Area and
#: ranked reads take its default of 2 keywords; point reads spread evenly
#: over the keyword counts each workload names.
AREA_SHARE = 0.2
RANKED_SHARE = 0.2
HOT_SHARE = 0.3
HOT_POOL = 8


def point_shares(total: float, counts) -> dict[str, float]:
    return {f"point{n}": total / len(counts) for n in counts}


class SerialTree(Workload):
    name = "serial_tree"
    rate = 40.0
    warmup_ops = 30
    shares = {**point_shares(1.0 - AREA_SHARE - RANKED_SHARE, (1, 2, 3)),
              "area2": AREA_SHARE, "ranked2": RANKED_SHARE}

    def setup(self, workdir: str) -> State:
        objects = generate_corpus()
        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(objects)
        engine.build()
        service = QueryService(engine)
        ranking = DistanceDecayRanking(half_distance=half_distance(objects))
        return State(service, engine, objects, ranking)


class SelectiveService(Workload):
    name = "selective_service"
    rate = 750.0
    warmup_ops = 400
    shares = {**point_shares((1.0 - HOT_SHARE) * (1.0 - AREA_SHARE), (2, 3)),
              "hot": HOT_SHARE, "area2": (1.0 - HOT_SHARE) * AREA_SHARE}
    strata_factor = 4

    def setup(self, workdir: str) -> State:
        objects = generate_corpus()
        engine = ShardedEngine(
            n_shards=2, partitioner="keyword", index="auto", workers=2
        )
        engine.add_all(objects)
        engine.build()
        os.makedirs(workdir, exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix="querylog-", dir=workdir)
        service = QueryService(
            engine, query_log=os.path.join(tmpdir, "queries.jsonl"),
            query_log_sample=4,
        )
        ranking = DistanceDecayRanking(half_distance=half_distance(objects))
        return State(service, engine, objects, ranking, tmpdir=tmpdir)

    def begin(self, state: State, sampler: QuerySampler, blocks) -> dict:
        return {"pool": [sampler.read(f"point{2 + i % 2}")
                         for i in range(HOT_POOL)]}

    def warm_op(self, sampler: QuerySampler, i: int, inputs: dict) -> Op:
        # The warm-up asks every hot query once, so each timed repeat hits.
        pool = inputs["pool"]
        if i < len(pool):
            return Op("read", "hot", query=pool[i])
        return super().warm_op(sampler, i, inputs)

    def op(self, cls: str, reads: dict, rng: random.Random, inputs: dict) -> Op:
        if cls == "hot":
            pool = inputs["pool"]
            return Op("read", cls, query=pool[rng.randrange(len(pool))])
        return super().op(cls, reads, rng, inputs)


class WriteMix(Workload):
    name = "write_mix"
    rate = 340.0
    warmup_ops = 120
    shares = {**point_shares(0.5 * (1.0 - AREA_SHARE), (1, 2, 3)),
              "area2": 0.5 * AREA_SHARE, "add": 0.25, "delete": 0.25}
    check_sample = 60
    writes = True

    def setup(self, workdir: str) -> State:
        objects = generate_corpus()
        engine = SpatialKeywordEngine(index="auto")
        engine.add_all(objects)
        engine.build()
        service = QueryService(engine)
        ranking = DistanceDecayRanking(half_distance=half_distance(objects))
        return State(service, engine, objects, ranking)

    def begin(self, state: State, sampler: QuerySampler, blocks) -> dict:
        """The objects to insert (a second corpus) and the live-oid list.

        The list is simulated as the ops are drawn, so deletes always
        name a live oid; after the last op it is the expected live set.
        """
        adds = sum(counts["add"] for counts in blocks)
        fresh = generate_corpus(seed=sampler.rng.randrange(1 << 30), n_objects=adds)
        fresh.reverse()
        live = [obj.oid for obj in state.objects]
        state.expected_live = live
        return {"fresh": fresh, "live": live}

    def op(self, cls: str, reads: dict, rng: random.Random, inputs: dict) -> Op:
        live = inputs["live"]
        if cls == "add":
            src = inputs["fresh"].pop()
            obj = SpatialObject(INSERT_OID_BASE + src.oid, src.point, src.text)
            live.append(obj.oid)
            return Op("add", cls, obj=obj)
        if cls == "delete":
            i = rng.randrange(len(live))
            oid = live[i]
            live[i] = live[-1]
            live.pop()
            return Op("delete", cls, oid=oid)
        return super().op(cls, reads, rng, inputs)


WORKLOADS = {w.name: w for w in (SerialTree(), SelectiveService(), WriteMix())}
