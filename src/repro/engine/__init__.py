"""The decision-engine subsystem: isolated sessions over the NKA pipeline.

Public surface:

* :class:`NKAEngine` — a session owning its compile/verdict caches, with a
  query planner, parallel batch execution, warm start through the compile
  store (:meth:`NKAEngine.export_to_store`) and unified metrics
  (:mod:`repro.engine.core`);
* :func:`default_engine` — the process-wide session backing the classic
  :mod:`repro.core.decision` module-level API;
* the persistent worker pool — :class:`~repro.engine.pool.WorkerPool`:
  one set of processes per engine, surviving across batches, recycled on
  worker death or pipeline-fingerprint change, returning compile results
  over a warm-back channel that feeds the parent's WFA cache
  (:mod:`repro.engine.pool`);
* content addressing — :func:`pipeline_fingerprint` and
  :class:`WarmStateError` (:mod:`repro.engine.persist`);
* the shared compile store, the one persistence mechanism —
  :class:`~repro.engine.store.CompileStore`, a content-addressed directory
  of compiled automata, verdicts and an exported verdict-ledger snapshot
  that many engines, processes and hosts read/write concurrently
  (``NKAEngine(store=...)`` / ``REPRO_COMPILE_STORE``), with
  :func:`describe_store` / :func:`gc_store` and a
  ``python -m repro.engine.store`` ops CLI (:mod:`repro.engine.store`);
* the verdict tier — :class:`~repro.engine.verdicts.VerdictLedger`, a
  union–find over proven-equal expressions with a per-class refutation
  index; with ``NKAEngine(infer_verdicts=True)`` (or
  ``REPRO_VERDICT_INFER=1``) chains of known verdicts answer new pairs
  with zero compiles and zero Tzeng runs, and the store also shares
  whole *verdicts* fleet-wide (:mod:`repro.engine.verdicts`);
* planner/executor introspection types for tooling —
  :class:`~repro.engine.planner.BatchPlan`,
  :class:`~repro.engine.executor.ExecutionReport`.

Typical serve-mode use::

    from repro.engine import NKAEngine

    with NKAEngine("serving", workers=4) as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # planned + pooled
        more = engine.equal_many(next_batch)          # same warm workers
        engine.export_to_store("nka-store")           # incl. warm-back
    # pool workers joined and reaped here
    ...
    with NKAEngine("serving", store="nka-store") as engine:
        verdicts = engine.equal_many(batch_of_pairs)  # zero compilations

See ``examples/engine_serving.py`` for the full walkthrough and
``src/repro/engine/README.md`` for pool lifecycle + warm-back semantics.
"""

from repro.engine.core import NKAEngine, default_engine, words_up_to
from repro.engine.executor import ExecutionReport, decide_pure
from repro.engine.persist import WarmStateError, pipeline_fingerprint
from repro.engine.planner import (
    BatchPlan,
    PlannedQuery,
    PlanStats,
    chunk_tasks,
    plan_batch,
)
from repro.engine.pool import WorkerPool, pool_context
from repro.engine.verdicts import (
    INFERRED_EQUAL_REASON,
    VerdictContradictionError,
    VerdictLedger,
    inferred_refuted_reason,
    is_inferred_reason,
)

# The store's names resolve lazily (PEP 562): `python -m repro.engine.store`
# imports this package first, and an eager submodule import here would leave
# the CLI's module in sys.modules before runpy executes it — a double-import
# warning on every ops invocation.
_STORE_EXPORTS = (
    "CompileStore",
    "describe_store",
    "gc_store",
    "verdict_pair_key",
)


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from repro.engine import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NKAEngine",
    "default_engine",
    "words_up_to",
    "decide_pure",
    "ExecutionReport",
    "BatchPlan",
    "PlannedQuery",
    "PlanStats",
    "plan_batch",
    "chunk_tasks",
    "WorkerPool",
    "pool_context",
    "CompileStore",
    "describe_store",
    "gc_store",
    "verdict_pair_key",
    "VerdictLedger",
    "VerdictContradictionError",
    "INFERRED_EQUAL_REASON",
    "inferred_refuted_reason",
    "is_inferred_reason",
    "WarmStateError",
    "pipeline_fingerprint",
]
