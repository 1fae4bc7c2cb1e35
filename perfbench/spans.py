"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
rebinds the names the engine calls (module globals such as
``repro.engine.core.expr_to_wfa`` and class attributes such as
``SparseMatrix.star``) to timing wrappers, and :meth:`Tracer.restore` puts
the originals back.  Nothing under ``src/`` is edited.

Each span is ``(span_id, parent_id, name, start_ns, end_ns, request_id,
info)``.  Parents come from a per-thread stack, so nesting is exact within
a thread; the serving layer's request spans are recorded by the clients
themselves (they overlap each other, so they never join a stack).

Pool workers are forked processes: spans inside them are invisible from
here.  Pooled work is attributed through the executor's own report
(``ExecutionReport.worker_seconds``/``max_chunk_seconds``) instead.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict, deque

# Span name -> layer.  Names mapped to ``None`` are stages that belong to
# whichever layer called them (``SparseMatrix.star`` and ``WFA.trim`` run
# inside both compile and decide).
LAYERS = {
    "planner.plan": "planner",
    "planner.estimate": "planner",
    "executor.execute": "executor",
    "compile": "compile",
    "decide": "decide",
    "star": None,
    "trim": None,
    "decide.tzeng": None,
    "decide.support_dfa": None,
    "store.get": "store",
    "store.verdict_get": "store",
    "store.publish": "store",
    "store.probe": "store",
    "store.decode": "store",
    "serving.engine": "engine",
    "serving.coalesce": "serving",
    "serving.request": "serving",
}


class Tracer:
    """Records spans around rebound entry points; a no-op until installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, function, info=None):
        """``function`` wrapped in a span; ``info(args, result)`` is stored
        with it (a size, a verdict, a report)."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (span_id, parent, name, start, end, None,
                 None if info is None else info(args, result))
            )
            return result

        traced.__wrapped__ = function
        return traced

    def record(self, name, start_ns, end_ns, request_id=None):
        """A span measured by the caller (serving requests, coalescing)."""
        self.spans.append((next(self._ids), None, name, start_ns, end_ns, request_id, None))

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attribute, name, info=None):
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, info))

    def install(self):
        """Rebind every layer entry point the engine calls."""
        import repro.automata.equivalence as equivalence
        import repro.engine.core as core
        import repro.engine.executor as executor
        import repro.engine.planner as planner
        from repro.automata.wfa import WFA
        from repro.engine.store import CompileStore
        from repro.linalg.sparse import SparseMatrix

        def plan_info(args, plan):
            return (plan.stats.queries, plan.stats.tasks)

        def states_out(args, wfa):
            return wfa.num_states

        def verdict(args, result):
            return result.equal

        def report(args, result):
            return result[1]

        self.patch(core, "plan_batch", "planner.plan", plan_info)
        self.patch(planner, "thompson_state_estimate", "planner.estimate")
        self.patch(core, "execute_tasks", "executor.execute", report)
        self.patch(core, "expr_to_wfa", "compile", states_out)
        self.patch(executor, "expr_to_wfa", "compile", states_out)
        self.patch(core, "wfa_equivalent", "decide", verdict)
        self.patch(executor, "wfa_equivalent", "decide", verdict)
        self.patch(equivalence, "tzeng_equivalent", "decide.tzeng")
        self.patch(SparseMatrix, "star", "star", lambda args, _r: args[0].nrows)
        self.patch(WFA, "trim", "trim")
        self.patch(WFA, "support_dfa", "decide.support_dfa")
        self.patch(CompileStore, "get", "store.get")
        self.patch(CompileStore, "get_verdict", "store.verdict_get")
        self.patch(CompileStore, "contains_digests", "store.probe")
        for method in ("publish", "publish_many", "publish_verdict", "publish_verdicts"):
            self.patch(CompileStore, method, "store.publish")
        # The decoders are the one place the bytes read from disk are
        # visible; they are private, so a store refactor may drop them.
        for method in ("_decode", "_decode_verdict"):
            if hasattr(CompileStore, method):
                self.patch(CompileStore, method, "store.decode",
                           lambda args, _r: len(args[1]))

    def install_pool_start(self):
        from repro.engine.pool import WorkerPool

        self.patch(WorkerPool, "__init__", "pool.start")

    def restore(self):
        """Put every rebound name back (an instance attribute is deleted)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


class ServingProbe:
    """Queue wait and batch shape of one tenant, from the benchmark side.

    Wraps the service module's ``collect_batch`` (what the drain task
    awaits) and the tenant engine's ``equal_many_detailed`` on the
    instance.  One tenant has one drain task, so the k-th collected batch
    is the k-th engine call.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._collected = deque()
        self.waits = []  # seconds from admission to the engine call's start
        self.batch_sizes = []
        self.engine_seconds = []

    def install(self, service, tenant):
        import repro.serving.service as service_module

        tracer = self.tracer
        original = service_module.collect_batch
        collected = self._collected

        async def collect(*args, **kwargs):
            start = time.perf_counter_ns()
            batch, saw_shutdown = await original(*args, **kwargs)
            tracer.record("serving.coalesce", start, time.perf_counter_ns())
            collected.append([request.enqueued_at for request in batch])
            return batch, saw_shutdown

        tracer._patches.append((service_module, "collect_batch", original))
        service_module.collect_batch = collect

        engine = service.engine(tenant)
        call = engine.equal_many_detailed

        def engine_call(pairs, *args, **kwargs):
            started = time.monotonic()
            enqueued = collected.popleft() if collected else []
            self.waits.extend(started - stamp for stamp in enqueued)
            self.batch_sizes.append(len(pairs))
            result = call(pairs, *args, **kwargs)
            self.engine_seconds.append((time.monotonic() - started, len(pairs)))
            return result

        tracer._patches.append((engine, "equal_many_detailed", None))
        engine.equal_many_detailed = tracer.wrap("serving.engine", engine_call)


# -- analysis --------------------------------------------------------------------


def write_spans(spans, path):
    """One JSON array per line: id, parent, name, start_ns, end_ns, request id."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span[:6]) + "\n")


def union_seconds(intervals):
    """Total length of the union of ``(start_ns, end_ns)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total / 1e9


def analyse(spans):
    """Per-span self times and per-layer totals of one traced pass.

    Returns a dict with ``by_name`` (name -> list of span tuples),
    ``self_by_layer`` (layer -> seconds of exclusive time), ``children``
    (span id -> list of child spans) and ``covered_s`` (union of top-level
    spans).
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)

    def layer(span):
        while True:
            resolved = LAYERS.get(span[2])
            if resolved is not None:
                return resolved
            parent = by_id.get(span[1])
            if parent is None:
                return "compile" if span[2] in ("star", "trim") else "decide"
            span = parent

    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    requests, engine_calls, top_level = [], [], []
    for span in spans:
        by_name[span[2]].append(span)
        if span[2] in ("serving.request", "serving.coalesce"):
            requests.append((span[3], span[4]))
            continue
        if span[2] == "serving.engine":
            engine_calls.append((span[3], span[4]))
        if span[1] is None:
            top_level.append((span[3], span[4]))
        inner = sum(child[4] - child[3] for child in children.get(span[0], ()))
        self_by_layer[layer(span)] += (span[4] - span[3] - inner) / 1e9
    if requests:
        # Concurrent requests overlap, so the serving layer's own time is
        # the wall some request was in flight (or a batch was being
        # coalesced) while no engine call ran.
        self_by_layer["serving"] += (
            union_seconds(requests + engine_calls) - union_seconds(engine_calls)
        )
    return {
        "by_name": by_name,
        "children": children,
        "self_by_layer": dict(self_by_layer),
        "covered_s": union_seconds(requests + top_level),
    }
