"""The benchmark's workloads: inputs, set-up and the timed client calls.

Every input is generated from the run's ``--seed``; the engine only ever
sees the generated pairs.  Batch inputs reuse ``tests/gen.py`` and
``mixed_batch`` from ``benchmarks/bench_engine_throughput.py``.  Why each
workload exists, which layer it loads and which it bypasses is written
down in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import time
from array import array

from benchmarks.bench_engine_throughput import mixed_batch
from gen import random_expr
from repro.core.decision import clear_caches
from repro.core.expr import Product, Star, Sum, Symbol, alphabet
from repro.engine import NKAEngine

TENANT = "bench"


def iteration_seed(seed: int, iteration: int) -> int:
    # mixed_batch(seed) also draws from seed+1..seed+3 (one stream per
    # alphabet group), so iteration seeds are spaced 8 apart.
    return seed * 100_003 + 8 * iteration


class BatchWorkload:
    """A client that sends one batch and waits for all of its verdicts."""

    name = ""
    one_cpu = False
    # Whether iterations reuse the same expressions (the oracle then keeps
    # its memoized series across iterations).
    repeats_expressions = False

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def setup(self) -> None:
        """In-process set-up before the timed loop."""

    def probe_setup(self) -> float:
        """Seconds to set the workload's system up from nothing (imports
        excluded: the probe process times those itself)."""
        started = time.perf_counter()
        engine = self.ready()
        elapsed = time.perf_counter() - started
        engine.close()
        return elapsed

    def ready(self) -> NKAEngine:
        return NKAEngine()

    def prepare(self, iteration: int):
        """``(engine, pairs)`` for one timed call (untimed)."""
        raise NotImplementedError

    def finish(self, engine: NKAEngine) -> None:
        """Untimed clean-up after one timed call."""

    def check_by_construction(self, results) -> int:
        """Verdicts known wrong from how the inputs were built."""
        return 0

    def close(self) -> None:
        pass


class ColdBatch(BatchWorkload):
    """Novel expressions on a fresh default engine: the compile path."""

    name = "cold_batch"

    def prepare(self, iteration):
        pairs = mixed_batch(16 if self.tiny else 250, seed=iteration_seed(self.seed, iteration))
        clear_caches()  # a new process: no fragment memos from earlier batches
        return self.ready(), pairs

    def finish(self, engine):
        engine.close()


# -- all_pairs: equivalence classes of sums of words ----------------------------

LETTERS = ("a", "b", "c")


def _associate(rng, items, operator):
    """Combine ``items`` in order under a random bracketing."""
    items = list(items)
    while len(items) > 1:
        at = rng.randrange(len(items) - 1)
        items[at:at + 2] = [operator(items[at], items[at + 1])]
    return items[0]


def equivalence_classes(seed, classes=8, variants=6, terms=12, max_word=5):
    """``classes`` lists of ``variants`` distinct but NKA-equal expressions.

    Each class is one sum of ``terms`` words over ``{a, b, c}``, about half
    of them starred; its variants commute the sum and re-associate both
    the sum and every word, which NKA proves equal (sums are associative
    and commutative, products associative), so in-class pairs are equal
    by construction.
    """
    rng = random.Random(seed)
    result = []
    for _ in range(classes):
        words = [
            ([Symbol(rng.choice(LETTERS)) for _ in range(rng.randint(1, max_word))],
             rng.random() < 0.5)
            for _ in range(terms)
        ]
        members = []
        for _attempt in range(100 * variants):
            order = list(words)
            rng.shuffle(order)
            summands = []
            for letters, starred in order:
                word = _associate(rng, letters, Product)
                summands.append(Star(word) if starred else word)
            expr = _associate(rng, summands, Sum)
            if expr not in members:
                members.append(expr)
            if len(members) == variants:
                break
        result.append(members)
    return result


def class_pairs(classes):
    """All C(k, 2) pairs of the classes' members, and which are in-class."""
    members = [(index, expr) for index, group in enumerate(classes) for expr in group]
    pairs, same_class = [], []
    for (left_class, left), (right_class, right) in itertools.combinations(members, 2):
        pairs.append((left, right))
        same_class.append(left_class == right_class)
    return pairs, same_class


class AllPairs(BatchWorkload):
    """Every pair of ~48 class members in one batch: the decide path."""

    name = "all_pairs"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.workers = min(2, os.cpu_count() or 1)
        self.engine = None
        self.same_class = []

    def _classes(self, seed, warmup=False):
        if warmup:
            return equivalence_classes(seed, classes=2, variants=3, terms=4, max_word=3)
        if self.tiny:
            return equivalence_classes(seed, classes=3, variants=3, terms=4, max_word=3)
        return equivalence_classes(seed)

    def ready(self):
        # The first pooled batch starts the worker pool; a small disjoint
        # batch does that before timing.
        engine = NKAEngine(workers=self.workers)
        warmup, _ = class_pairs(self._classes(-1 - self.seed, warmup=True))
        engine.equal_many_detailed(warmup)
        return engine

    def setup(self):
        self.engine = self.ready()

    def prepare(self, iteration):
        pairs, self.same_class = class_pairs(self._classes(iteration_seed(self.seed, iteration)))
        return self.engine, pairs

    def finish(self, engine):
        # The next sweep asks about fresh classes, so neither these verdicts
        # nor the process memos answer it; dropping them keeps every sweep
        # starting from the same state and memory at one sweep's footprint
        # instead of growing with how many sweeps the run fits.
        engine.clear()
        clear_caches()

    def check_by_construction(self, results):
        """In-class pairs must be equal: a wrong refutation fails here too."""
        return sum(
            1 for same, result in zip(self.same_class, results) if same and not result.equal
        )

    def close(self):
        if self.engine is not None:
            self.engine.close()


# -- replica_store: a new replica on a store a previous engine filled -----------


def spread_directories(path):
    """Ask ext4 to place each new subdirectory of ``path`` in a block group
    of its own choosing (the ``chattr +T`` flag) instead of next to
    ``path``, so a run's work directory does not share inode groups with
    the files earlier runs deleted (see ``ReplicaStore.finish``).  A no-op
    where the file system or platform does not support it."""
    try:
        import fcntl
        import struct

        get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
        descriptor = os.open(path, os.O_RDONLY)
        try:
            flags = struct.unpack("i", fcntl.ioctl(descriptor, get_flags, bytes(4)))[0]
            if not flags & topdir:
                fcntl.ioctl(descriptor, set_flags, struct.pack("i", flags | topdir))
        finally:
            os.close(descriptor)
    except (ImportError, OSError):
        pass


def _tree(root):
    """Every directory and file under ``root``."""
    found = set()
    for directory, _subdirs, files in os.walk(root):
        found.add(directory)
        found.update(os.path.join(directory, name) for name in files)
    return found


class ReplicaStore(BatchWorkload):
    """Batch B against a compile store populated by batch A: the store path.

    A run fills ``POPULATIONS`` stores, each from its own batch A, and its
    iterations take them in turn, so one run's figure does not hang on how
    hard a single batch A happens to be (that alone spread the per-seed
    medians by about 8%).
    """

    name = "replica_store"
    repeats_expressions = True
    POPULATIONS = 4

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        count = 2 if tiny else self.POPULATIONS
        self.populated = [os.path.join(workdir, f"populated-{k}") for k in range(count)]
        self.batches_a = [
            mixed_batch(16 if tiny else 250, seed=iteration_seed(seed, -1 - k))
            for k in range(count)
        ]
        self._groups = []
        self._snapshots = []  # per population: (paths, {index path: content})
        self._iteration = 0

    def ready(self, root=None):
        from repro.engine.store import CompileStore

        return NKAEngine(store=CompileStore(root or self.populated[0]))

    def setup(self):
        for root, batch_a in zip(self.populated, self.batches_a):
            with self.ready(root) as engine:
                engine.equal_many_detailed(batch_a)
            paths = _tree(root)
            indexes = {}
            for path in paths:
                if os.path.basename(path) == "index":
                    with open(path, "rb") as handle:
                        indexes[path] = handle.read()
            self._snapshots.append((paths, indexes))
            by_alphabet = {}
            for pair in batch_a:
                for expr in pair:
                    group = by_alphabet.setdefault(frozenset(alphabet(expr)), [])
                    if expr not in group:
                        group.append(expr)
            self._groups.append([group for group in by_alphabet.values() if len(group) > 1])

    def batch_b(self, iteration):
        """Half repeats or flips of A, half recombined same-alphabet pairs."""
        population = iteration % len(self.populated)
        batch_a, groups = self.batches_a[population], self._groups[population]
        rng = random.Random(iteration_seed(self.seed, iteration))
        half = 20 if self.tiny else 300
        pairs = []
        for _ in range(half):
            left, right = rng.choice(batch_a)
            pairs.append((right, left) if rng.random() < 0.5 else (left, right))
        while len(pairs) < 2 * half:
            group = rng.choice(groups)
            left, right = rng.choice(group), rng.choice(group)
            if left is not right:
                pairs.append((left, right))
        rng.shuffle(pairs)
        return pairs

    def prepare(self, iteration):
        # A new replica process: the store as batch A left it, no memos.
        self._iteration = iteration
        clear_caches()
        return self.ready(self.populated[iteration % len(self.populated)]), self.batch_b(iteration)

    def finish(self, engine):
        """Put the store back as batch A left it, so verdicts this replica
        published do not answer the next one.

        Reads never modify an entry and publishes only add files and index
        lines, so moving the new files aside and restoring the index
        suffices.  They are moved, not deleted, until the run ends
        (``run.py`` removes the work directory): on ext4 without a journal
        a new file skips every inode of its group deleted in the last
        minute or more, and deleting here made the next replica's publishes
        (new files) slow down steadily over the run, up to eightfold.
        """
        engine.close()
        population = self._iteration % len(self.populated)
        root, (paths, indexes) = self.populated[population], self._snapshots[population]
        aside = os.path.join(self.workdir, "published", str(self._iteration))
        os.makedirs(aside)
        moved_dirs = []
        for number, path in enumerate(sorted(_tree(root) - paths)):
            if not any(path.startswith(done + os.sep) for done in moved_dirs):
                if os.path.isdir(path):
                    moved_dirs.append(path)
                os.rename(path, os.path.join(aside, str(number)))
        for path, content in indexes.items():
            with open(path, "wb") as handle:
                handle.write(content)


# -- serve_warm: a closed loop of clients on the async front-end ----------------


class ServeWarm:
    """32 closed-loop clients repeating a warm base set through NKAService.

    The process runs on one CPU (``one_cpu``): the event-loop thread and the
    executor thread hand every batch to each other, and across two vCPUs
    of a shared VM those wake-ups made throughput swing 6k-15k requests/s
    between runs, against 25k-28k on one CPU.
    """

    name = "serve_warm"
    one_cpu = True
    clients = 32
    novel_fraction = 0.01

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.tiny = tiny
        self.base = mixed_batch(64, seed=iteration_seed(seed, 0))[: 8 if tiny else 64]
        self._novel_rng = random.Random(iteration_seed(seed, 1))
        self._seen = set(self.base) | {(right, left) for left, right in self.base}
        self._client_rngs = [
            random.Random(iteration_seed(seed, 2 + client)) for client in range(self.clients)
        ]

    async def ready(self):
        from repro.serving import NKAService, TenantConfig

        service = NKAService([TenantConfig(TENANT)])
        await service.start()
        await service.equal_many_detailed(TENANT, self.base)
        return service

    def probe_setup(self):
        async def timed():
            started = time.perf_counter()
            service = await self.ready()
            elapsed = time.perf_counter() - started
            await service.close()
            return elapsed

        return asyncio.run(timed())

    def novel_pair(self):
        """A small pair no earlier request asked (in either orientation)."""
        while True:
            left = random_expr(self._novel_rng, depth=3)
            right = random_expr(self._novel_rng, depth=3)
            if left is not right and (left, right) not in self._seen:
                self._seen.add((left, right))
                self._seen.add((right, left))
                return left, right

    def next_pair(self, client):
        rng = self._client_rngs[client]
        if rng.random() < self.novel_fraction:
            return self.novel_pair()
        left, right = rng.choice(self.base)
        return (right, left) if rng.random() < 0.5 else (left, right)

    async def drive(self, service, seconds, verdicts, tracer=None):
        """Run every client for ``seconds``.

        Returns ``(failed, wall seconds, latencies)``: latencies in
        seconds, one per answered request.  ``verdicts`` maps each distinct
        (pair, verdict) to ``[result, requests that received it]`` for the
        oracle.
        """
        from repro.serving import ServingError

        latencies = array("d")
        failed = [0]
        clock = time.perf_counter_ns
        origin = clock()
        deadline = origin + int(seconds * 1e9)
        request_ids = itertools.count()

        async def client(index):
            while clock() < deadline:
                left, right = self.next_pair(index)
                started = clock()
                try:
                    result = await service.equal_detailed(TENANT, left, right)
                except ServingError:
                    failed[0] += 1
                    continue
                finished = clock()
                latencies.append((finished - started) / 1e9)
                key = (left, right, result.equal, result.counterexample)
                verdicts.setdefault(key, [result, 0])[1] += 1
                if tracer is not None:
                    tracer.record("serving.request", started, finished, next(request_ids))

        await asyncio.gather(*(client(index) for index in range(self.clients)))
        return failed[0], (clock() - origin) / 1e9, latencies


WORKLOADS = {
    workload.name: workload for workload in (ColdBatch, AllPairs, ServeWarm, ReplicaStore)
}


def make(name, seed, tiny, workdir):
    return WORKLOADS[name](seed, tiny, workdir)
