"""Vectorized semiring kernels for the linalg hot loops.

The decision pipeline is generic over a :class:`~repro.linalg.semiring.
SemiringSpec`, and the pure-python dict-of-rows kernels in
:mod:`repro.linalg.sparse` are the *oracle*: total, exact over unbounded
integers and ``∞``, and the reference every fast path is differentially
gated against.  This package adds **vectorized** fast paths
(:mod:`repro.linalg.kernels.numpy_backend`) for the two semirings that
dominate compilation — ``BOOL`` and the finite part of ``EXT_NAT``.

Kernel protocol
---------------

Every vectorized kernel is a *partial* function: it either returns the
exact result — bit-for-bit the value the oracle would produce — or
**declines** by returning ``None``, and the caller runs the pure-python
code unchanged.  A kernel must decline whenever exactness is not
guaranteed: ``∞`` weights in the input, integers at risk of exceeding the
float64 exact range, semirings it does not know.  Declines are counted
per operation and reason (:func:`kernel_stats`), so tests can *assert*
that an overflow or ``∞`` input took the fallback path rather than
trusting that it did.

Backend selection
-----------------

There is nothing to select.  The fast paths are on whenever numpy
imports, and the pure-python oracle answers everything they decline — or
everything, when numpy is missing.  Answers are byte-identical either way,
so no engine, tenant or environment setting chooses between them.  numpy
is imported on the first kernel call, not at ``import repro``, so building
an engine does not pay for the import.

The test suite reaches the oracle alone through the ``python_kernel``
fixture (``tests/conftest.py``), which pins the private ``_vectorized``
flag below for the duration of a ``with`` block.  The active backend and
the per-op counters surface in ``engine.stats()["kernel"]``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Optional, Set

__all__ = [
    "backend_name",
    "vectorized_active",
    "kernel_stats",
    "reset_kernel_stats",
    "record_fallback",
    "record_vectorized",
    "try_star",
    "try_mul",
    "try_reachable",
    "try_nfa_successors",
    "compile_cost_estimate",
]

# Whether the vectorized kernels run: ``None`` until the first kernel call
# resolves it by importing numpy, then fixed for the process.
_vectorized: Optional[bool] = None


def _numpy_available() -> bool:
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.available()


def vectorized_active() -> bool:
    """Whether the vectorized (numpy) fast paths run (imports numpy once)."""
    global _vectorized
    if _vectorized is None:
        _vectorized = _numpy_available()
    return _vectorized


def backend_name() -> str:
    """``"numpy"`` when the fast paths run, else ``"python"`` (the oracle)."""
    return "numpy" if vectorized_active() else "python"


# -- counters ------------------------------------------------------------------

# Operations the vectorized backend accelerates.  ``vectorized`` counts
# successful fast-path executions; ``fallbacks`` counts declines by reason
# (the pure-python oracle then produced the answer).  Counters are
# process-local: pool workers accumulate their own and the engine reports
# the parent's.
_OPS = ("star", "mul", "reachable", "nfa_successors")


def _fresh_counters() -> Dict[str, Dict[str, Any]]:
    return {op: {"vectorized": 0, "fallbacks": {}} for op in _OPS}


_counters = _fresh_counters()

# Counters are process-global and recorded from whatever thread is compiling
# — which, in a serving process, is *not* the thread answering a ``/stats``
# request.  A fallback with a first-of-its-kind reason grows a dict another
# thread may be iterating (``RuntimeError: dictionary changed size during
# iteration``), so every record and every snapshot goes through this lock.
_counters_lock = threading.Lock()


def record_vectorized(op: str) -> None:
    with _counters_lock:
        _counters[op]["vectorized"] += 1


def record_fallback(op: str, reason: str) -> None:
    with _counters_lock:
        fallbacks = _counters[op]["fallbacks"]
        fallbacks[reason] = fallbacks.get(reason, 0) + 1


def fallback_count(op: str, reason: Optional[str] = None) -> int:
    with _counters_lock:
        fallbacks = _counters[op]["fallbacks"]
        if reason is not None:
            return fallbacks.get(reason, 0)
        return sum(fallbacks.values())


def kernel_stats() -> Dict[str, Any]:
    """JSON-friendly snapshot: active backend + per-op counters.

    Safe to call concurrently with running compilations (the serving
    layer's ``/stats`` endpoint does): the snapshot is taken under the
    counter lock, so a mid-iteration insert can never tear it.
    """
    with _counters_lock:
        ops = {
            op: {
                "vectorized": counts["vectorized"],
                "fallbacks": dict(counts["fallbacks"]),
                "fallback_total": sum(counts["fallbacks"].values()),
            }
            for op, counts in _counters.items()
        }
    return {
        "backend": backend_name(),
        "numpy_available": _numpy_available(),
        "ops": ops,
    }


def reset_kernel_stats() -> None:
    global _counters
    with _counters_lock:
        _counters = _fresh_counters()


# -- dispatch entry points -----------------------------------------------------


def try_star(matrix) -> Optional[Any]:
    """Vectorized ``matrix.star()`` or ``None`` (caller runs the oracle)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.star(matrix)


def try_mul(a, b) -> Optional[Any]:
    """Vectorized ``a.mul(b)`` or ``None`` (caller runs the oracle)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.mul(a, b)


def try_reachable(adjacency, seeds: Iterable[int]) -> Optional[Set[int]]:
    """Vectorized reachability or ``None`` (caller runs the worklist)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.reachable(adjacency, seeds)


def try_nfa_successors(nfa, letter: str, states) -> Optional[Any]:
    """Bitset NFA subset step or ``None`` (caller runs the set walk)."""
    if not vectorized_active():
        return None
    from repro.linalg.kernels import numpy_backend

    return numpy_backend.nfa_successors(nfa, letter, states)


# -- cost model ----------------------------------------------------------------

# Measured per-star wall time on the engine benchmark's compile workload
# (Thompson ε-matrices, ~2 nnz/row; best of 3, this container):
#
#   states      32     64    128    256
#   python   0.8ms  2.1ms  3.8ms  9.9ms     ≈ 30µs · states (linear-ish)
#   numpy    0.3ms  0.5ms  0.9ms  2.2ms     ≈ 0.2ms + 8µs · states
#
# The python kernel is dict-walk bound (cost tracks nnz ≈ states), the
# numpy kernel pays a constant dense-conversion overhead and then scales
# with BLAS throughput.  The planner only needs *relative* cost, so the
# python model is the identity (states — exactly the seed behaviour, so
# python-backend plans are byte-identical to previous releases) and the
# numpy model is an affine rescale in the same units.


def compile_cost_estimate(states: int) -> int:
    """Relative compile cost of a ``states``-state Thompson fragment.

    Used by the engine planner for cheapest-first ordering and chunk
    budgets; calibrated against measured kernel timings (table above).
    """
    states = max(0, int(states))
    if vectorized_active():
        # Affine model in "python state units": constant conversion
        # overhead (~7 states' worth) + shallower slope.
        return 7 + (states * 28) // 100
    return states
